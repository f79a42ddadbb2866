//! Who exists: ground-truth addresses, the per-node record, and a node's
//! life cycle — spawn / seed / boot at construction, depart / arrive /
//! rejoin under churn (the paper's fourth root cause, §IV-D: 8.6 % of the
//! reachable set leaves every day and most of it is replaced by nodes
//! that start days behind).

use super::{Ev, World};
use crate::config::RESILIENCE_TICK_INTERVAL;
use crate::malicious::{AddrFlooder, FloodScale};
use crate::node::{unix_time, Node};
use crate::peer::NodeId;
use bitsync_addrman::AddrMan;
use bitsync_net::churn::Rejoin;
use bitsync_net::population::{fresh_addr, NodeClass};
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace;

/// Fraction of phantoms that are [`PhantomKind::Responsive`]: the paper's
/// per-snapshot share of unreachable addresses that answered a VER probe
/// (Figure 5, ≈ 54 K of ≈ 195 K).
const PHANTOM_RESPONSIVE_FRACTION: f64 = 0.277;

/// Mean resynchronization debt of a rejoining node (the paper measured
/// 11 min 14 s for a restarted node, §IV-D).
const IBD_REJOIN_MEAN: SimDuration = SimDuration::from_secs(674);

/// What a dialed (non-instantiated) address does when probed — ground truth
/// for phantom entries in the gossip mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum PhantomKind {
    /// Refuses quickly with a FIN (unreachable but running Bitcoin).
    Responsive,
    /// Drops the SYN: the dialer burns the full connect timeout.
    Silent,
}

/// The per-node record: ground truth about the node plus the world's own
/// bookkeeping for its slot (the private fields).
#[derive(Clone, Debug)]
pub struct NodeMeta {
    /// The node's endpoint.
    pub addr: NetAddr,
    /// Hosting AS.
    pub asn: u32,
    /// Whether the node accepts inbound connections.
    pub reachable: bool,
    /// Whether churn may remove it.
    pub permanent: bool,
    /// Whether it is an ADDR flooder.
    pub malicious: bool,
    /// IBD accounting: the node counts as synchronized only after this.
    pub ibd_until: SimTime,
    /// Fault plane: the node accepts TCP connections but never processes
    /// messages, wedging its peers' handshakes (persists across rejoins).
    pub stalled: bool,
    /// Whether a pump event is already queued for the node.
    pub(super) pump_scheduled: bool,
    /// Whether a connect tick is already queued for the node.
    pub(super) connect_scheduled: bool,
    /// Whether a resilience-tick chain is live for the node (survives
    /// depart/rejoin cycles without double-scheduling).
    pub(super) resilience_scheduled: bool,
    /// Last observed chain height, for the `height_regression` invariant
    /// (reset when the slot rejoins with a fresh chain).
    pub(super) last_height: u64,
    /// The address manager of a departed node that may come back: a
    /// rejoining node keeps its `peers.dat`, exactly as Bitcoin Core does
    /// across restarts.
    pub(super) stashed_addrman: Option<AddrMan>,
}

impl NodeMeta {
    /// Whether the node counts toward the honest-population metrics (sync
    /// fraction, outdegree, convergence): reachable, not spawned stalled,
    /// not an ADDR flooder.
    pub fn is_honest(&self) -> bool {
        self.reachable && !self.stalled && !self.malicious
    }
}

/// A churn event recorded for analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Node went offline. The flag reports whether it was synchronized at
    /// departure (the §IV-D metric).
    Departed {
        /// Which node.
        node: NodeId,
        /// Whether its chain was at the best height and out of IBD.
        synchronized: bool,
    },
    /// Node came online (fresh arrival or rejoin).
    Joined {
        /// Which node.
        node: NodeId,
        /// Whether this was a rejoin of a previously seen address.
        rejoin: bool,
    },
}

/// Share of simulated endpoints listening on port 8333.
const DEFAULT_PORT_FRACTION: f64 = 0.95;

impl World {
    /// Generates the phantom gossip addresses.
    pub(super) fn spawn_phantoms(&mut self, rng: &mut SimRng) {
        for _ in 0..self.cfg.n_phantoms {
            let addr = fresh_addr(&mut self.used_ips, DEFAULT_PORT_FRACTION, rng);
            let (kind, class) = if rng.chance(PHANTOM_RESPONSIVE_FRACTION) {
                (PhantomKind::Responsive, NodeClass::UnreachableResponsive)
            } else {
                (PhantomKind::Silent, NodeClass::UnreachableSilent)
            };
            let asn = self.as_model.sample(class, rng);
            self.phantoms.insert(addr, (kind, asn));
            self.phantom_list.push(addr);
        }
    }

    /// A fresh node process for slot `id` — first boot or restart.
    fn build_node(&self, id: NodeId, addr: NetAddr, reachable: bool, rng: &mut SimRng) -> Node {
        let mut node = Node::new(
            id,
            addr,
            reachable,
            self.cfg.node_cfg.clone(),
            rng.next_u64(),
        );
        node.cfg.compact_blocks = rng.chance(self.cfg.compact_fraction);
        node
    }

    pub(super) fn spawn_node(
        &mut self,
        reachable: bool,
        malicious: bool,
        rng: &mut SimRng,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let addr = fresh_addr(&mut self.used_ips, DEFAULT_PORT_FRACTION, rng);
        let class = if reachable {
            NodeClass::Reachable
        } else {
            NodeClass::UnreachableResponsive
        };
        let asn = self.as_model.sample(class, rng);
        let permanent =
            self.cfg.churn.is_none() || (reachable && rng.chance(self.cfg.permanent_fraction));
        let mut node = self.build_node(id, addr, reachable, rng);
        if malicious {
            let factor = self.cfg.fault.addr_flood_factor.max(1.0);
            let size = ((FloodScale::sample(rng) as f64 * factor) as usize).min(2_000_000);
            let mut flooder = AddrFlooder::generate(size, rng);
            // Amplified flooders violate the 1000-entry ADDR protocol cap,
            // which misbehavior scoring (when enabled) punishes.
            flooder.per_reply = (flooder.per_reply as f64 * factor) as usize;
            node.flooder = Some(flooder);
        }
        self.nodes.push(Some(node));
        let laggard = rng.chance(self.cfg.laggard_fraction);
        // Guarded draw: worlds without the stall channel take no extra
        // randomness here (stream compatibility with older snapshots).
        let stalled = self.cfg.fault.stall_fraction > 0.0
            && reachable
            && !malicious
            && rng.chance(self.cfg.fault.stall_fraction);
        self.meta.push(NodeMeta {
            addr,
            asn,
            reachable,
            permanent,
            malicious,
            ibd_until: if laggard { SimTime::MAX } else { SimTime::ZERO },
            stalled,
            pump_scheduled: false,
            connect_scheduled: false,
            resilience_scheduled: false,
            last_height: 0,
            stashed_addrman: None,
        });
        self.addr_index.insert(addr, id);
        if reachable {
            self.reachable_addrs.insert(addr);
            self.reachable_addr_list.push(addr);
        }
        id
    }

    /// Seeds a node's address book: DNS-seeded reachable addresses, plus —
    /// for the initial population only — prior-gossip phantoms. Fresh
    /// arrivals bootstrap from DNS seeders, which return reachable
    /// addresses, and pick up pollution through ADDR gossip afterwards.
    pub(super) fn seed_addrman(&mut self, id: NodeId, rng: &mut SimRng, with_phantoms: bool) {
        let now_unix = unix_time(SimTime::ZERO);
        let self_addr = self.meta[id.0 as usize].addr;
        let node = self.nodes[id.0 as usize].as_mut().expect("node online");
        let phantoms = if with_phantoms {
            self.cfg.seed_phantoms
        } else {
            0
        };
        for (list, want) in [
            (&self.reachable_addr_list, self.cfg.seed_reachable),
            (&self.phantom_list, phantoms),
        ] {
            for i in rng.sample_indices(list.len(), want.min(list.len())) {
                if list[i] != self_addr {
                    node.addrman.add(list[i], self_addr, now_unix);
                }
            }
        }
    }

    /// Schedules initial timers for a (re)booted node.
    pub(super) fn boot_node(&mut self, id: NodeId, now: SimTime, rng: &mut SimRng) {
        let slot = id.0 as usize;
        let jitter = SimDuration::from_millis(rng.below(1_000));
        self.queue.schedule(now + jitter, Ev::ConnectTick(id));
        self.meta[slot].connect_scheduled = true;
        // Resilience sweep (handshake timeouts, stale-tip detection). The
        // stale-tip clock starts at boot, not at sim epoch.
        if self.cfg.node_cfg.resilience.countermeasures {
            if !self.meta[slot].resilience_scheduled {
                self.meta[slot].resilience_scheduled = true;
                self.queue
                    .schedule(now + RESILIENCE_TICK_INTERVAL, Ev::ResilienceTick(id));
            }
            if let Some(n) = self.nodes[slot].as_mut() {
                n.last_tip_change = now;
            }
        }
        let feeler_offset = SimDuration::from_millis(rng.below(120_000));
        self.queue.schedule(now + feeler_offset, Ev::Feeler(id));
        // Churn: plan the departure.
        if let Some(churn) = &self.cfg.churn {
            let permanent = self.meta[slot].permanent;
            let mut crng = rng.fork("lifetime");
            if let Some(life) = churn.session_lifetime(permanent, &mut crng) {
                self.queue.schedule(now + life, Ev::Depart(id));
            }
        }
    }

    /// Records one churn transition on its three sinks: the sampler's
    /// window counter, the analysis history and the trace.
    fn note_churn(&mut self, now: SimTime, event: ChurnEvent) {
        let (node, counter, kind) = match event {
            ChurnEvent::Departed { node, synchronized } => (
                node,
                "churn_depart",
                trace::ChurnKind::Depart { synchronized },
            ),
            ChurnEvent::Joined {
                node,
                rejoin: false,
            } => (node, "churn_arrive", trace::ChurnKind::Arrive),
            ChurnEvent::Joined { node, rejoin: true } => {
                (node, "churn_rejoin", trace::ChurnKind::Rejoin)
            }
        };
        self.sampler.count(counter, 1);
        self.churn_events.push((now, event));
        self.tracer.churn(trace::ChurnTrace {
            at: now,
            node: node.0,
            kind,
        });
    }

    /// Forces a node offline immediately (used by the resync experiment).
    pub fn force_depart(&mut self, id: NodeId) {
        self.on_depart(id, self.now());
    }

    /// Forces a departed node back online immediately.
    pub fn force_rejoin(&mut self, id: NodeId) {
        self.on_rejoin(id, self.now());
    }

    pub(super) fn on_depart(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some(node) = self.nodes[slot].take() else {
            return;
        };
        let synchronized =
            self.meta[slot].ibd_until <= now && node.chain.is_synced_to(self.best_height);
        self.note_churn(
            now,
            ChurnEvent::Departed {
                node: id,
                synchronized,
            },
        );
        // Drop all its connections.
        for p in node.peers.keys() {
            if let Some(n) = self.node_mut(*p) {
                n.on_disconnected(id);
            }
            self.schedule_connect(*p, SimDuration::from_millis(10));
        }
        // Rejoin or be replaced by a fresh arrival. Worlds without a churn
        // model (forced departures only) schedule neither. The addrman is
        // stashed (peers.dat) only for nodes that can actually rejoin — a
        // forced departure counts, so that a forced rejoin restores it as a
        // real restart would; stashing every departure would grow without
        // bound.
        let mut crng = self.rng.fork("rejoin");
        let may_rejoin = match self.cfg.churn.as_ref().map(|c| c.rejoin(&mut crng)) {
            Some(Rejoin::After(gap)) => {
                self.queue.schedule(now + gap, Ev::RejoinNode(id));
                true
            }
            Some(Rejoin::Never) => {
                let gap = self.rng.exp_duration(SimDuration::from_hours(2));
                self.queue.schedule(now + gap, Ev::Arrive);
                false
            }
            None => true,
        };
        if may_rejoin {
            self.meta[slot].stashed_addrman = Some(node.addrman);
        }
    }

    pub(super) fn on_arrive(&mut self, now: SimTime) {
        let mut rng = self.rng.fork("arrive");
        let id = self.spawn_node(true, false, &mut rng);
        self.meta[id.0 as usize].permanent = false; // replacements churn
        self.bring_online(id, false, self.cfg.ibd_fresh_mean, true, &mut rng, now);
    }

    pub(super) fn on_rejoin(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        if self.nodes[slot].is_some() {
            return;
        }
        let mut rng = self.rng.fork("rejoin-node");
        let meta = &self.meta[slot];
        let mut node = self.build_node(id, meta.addr, meta.reachable, &mut rng);
        // Restore the node's previous addrman (peers.dat survives a
        // restart); fall back to DNS re-seeding if none was stashed.
        let stashed = self.meta[slot].stashed_addrman.take();
        let reseed = stashed.is_none();
        if let Some(addrman) = stashed {
            node.addrman = addrman;
        }
        self.nodes[slot] = Some(node);
        // A rejoin restarts from genesis; the height-regression tracking
        // must not mistake the fresh chain for a rollback.
        self.meta[slot].last_height = 0;
        // Rejoins resync quickly.
        self.bring_online(id, true, Some(IBD_REJOIN_MEAN), reseed, &mut rng, now);
    }

    /// What an arrival and a rejoin share once the node sits in its slot:
    /// the synchronization debt (laggards keep theirs: never), the DNS
    /// seeding of an empty address book, the timers and the history.
    fn bring_online(
        &mut self,
        id: NodeId,
        rejoin: bool,
        ibd_mean: Option<SimDuration>,
        reseed: bool,
        rng: &mut SimRng,
        now: SimTime,
    ) {
        let slot = id.0 as usize;
        if let Some(mean) = ibd_mean.filter(|_| self.meta[slot].ibd_until != SimTime::MAX) {
            let debt = self.rng.exp_duration(mean);
            self.meta[slot].ibd_until = now + debt;
        }
        if reseed {
            self.seed_addrman(id, rng, false);
        }
        self.boot_node(id, now, rng);
        self.note_churn(now, ChurnEvent::Joined { node: id, rejoin });
    }
}
