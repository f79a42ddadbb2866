//! Network weather (`sim.fault.*`): the fault plane's connection and
//! partition flaps, the BGP-hijack partition API the flaps and the
//! `partition` experiment share (§IV-A1), and the per-node resilience
//! sweep that is the countermeasure side. The plane's per-link drop /
//! delay channel acts inside `delivery`, its competing / solo miners
//! inside `chain`; stalls and flood amplification are assigned at spawn.

use super::{metric, Ev, World};
use crate::config::{HANDSHAKE_TIMEOUT, RESILIENCE_TICK_INTERVAL};
use crate::peer::NodeId;
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace;

impl World {
    /// Stops every injected *network* fault: the plane is dismantled (no
    /// more drops, delays, flaps, or scheduled partitions) and any active
    /// partition heals. Damage already done — forks, bans, discouragement
    /// windows — remains, as does a node-side misconfiguration armed by a
    /// bug-injection fault: stopping the weather does not patch the
    /// software, which is exactly the distinction the `chain_converged`
    /// invariant probes.
    pub fn end_faults(&mut self) {
        self.fault_plane = None;
        self.cfg.fault = FaultConfig::off();
        self.lift_partition();
    }

    /// Whether a link between two ASes crosses an active hijack boundary.
    pub(super) fn partition_blocks(&self, a: u32, b: u32) -> bool {
        match &self.hijacked_asns {
            Some(set) => set.contains(&a) != set.contains(&b),
            None => false,
        }
    }

    /// Applies a BGP-hijack partition: every existing connection crossing
    /// the boundary between the hijacked ASes and the rest is dropped, and
    /// while the partition is active no message or dial crosses it. This is
    /// the §IV-A1 attack model evaluated on the live topology.
    pub fn apply_partition(&mut self, asns: impl IntoIterator<Item = u32>) {
        self.hijacked_asns = Some(asns.into_iter().collect());
        // Sever existing cross-boundary connections.
        let mut to_cut: Vec<(NodeId, NodeId)> = Vec::new();
        for (id, meta, node) in self.online() {
            for peer in node.peers.keys() {
                let peer_asn = self.meta[peer.0 as usize].asn;
                if self.partition_blocks(meta.asn, peer_asn) && id < *peer {
                    to_cut.push((id, *peer));
                }
            }
        }
        for (a, b) in to_cut {
            self.disconnect_pair(a, b);
        }
    }

    /// Lifts an active partition; routing heals immediately.
    pub fn lift_partition(&mut self) {
        self.hijacked_asns = None;
    }

    /// Online reachable nodes inside the hijacked AS set.
    pub fn isolated_count(&self) -> usize {
        let Some(set) = &self.hijacked_asns else {
            return 0;
        };
        self.online()
            .filter(|(_, m, _)| m.reachable && set.contains(&m.asn))
            .count()
    }

    /// Starts the plane's two schedules, if configured.
    pub(super) fn schedule_fault_flaps(&mut self) {
        self.schedule_conn_flap(SimTime::ZERO);
        if let Some(pf) = self.fault_plane.as_ref().and_then(|p| p.cfg.partition_flap) {
            self.queue
                .schedule(SimTime::ZERO + pf.period, Ev::PartitionFlap(true));
        }
    }

    /// Schedules the next fault-plane connection flap, if configured.
    fn schedule_conn_flap(&mut self, now: SimTime) {
        let Some(plane) = self.fault_plane.as_mut() else {
            return;
        };
        let Some(interval) = plane.cfg.connection_flap_interval else {
            return;
        };
        let gap = plane.rng().exp_duration(interval);
        self.queue.schedule(now + gap, Ev::ConnFlap);
    }

    /// Fault plane: sever one random established connection.
    pub(super) fn on_conn_flap(&mut self, now: SimTime) {
        // Candidates in deterministic id order: online nodes with peers.
        let candidates: Vec<NodeId> = self
            .online()
            .filter(|(_, _, n)| !n.peers.is_empty())
            .map(|(id, ..)| id)
            .collect();
        let Some(plane) = self.fault_plane.as_mut() else {
            return; // the faults ended with this flap still queued
        };
        if let Some(&a) = plane.rng().choose(&candidates) {
            let peers: Vec<NodeId> = self.nodes[a.0 as usize]
                .as_ref()
                .map(|n| n.peers.keys().copied().collect())
                .unwrap_or_default();
            if let Some(&b) = plane.rng().choose(&peers) {
                self.metrics.inc(metric::FAULT_CONN_FLAPS, 1);
                self.sampler.count("conn_flap", 1);
                self.disconnect_pair(a, b);
            }
        }
        self.schedule_conn_flap(now);
    }

    /// Fault plane: partition-flap schedule edge. A cut hijacks a random
    /// fraction of the ASes hosting online reachable nodes; the matching
    /// heal lifts it and schedules the next cut.
    pub(super) fn on_partition_flap(&mut self, cut: bool, now: SimTime) {
        let Some(pf) = self.fault_plane.as_ref().and_then(|p| p.cfg.partition_flap) else {
            return;
        };
        if cut {
            let mut asns: Vec<u32> = self
                .online()
                .filter(|(_, m, _)| m.reachable)
                .map(|(_, m, _)| m.asn)
                .collect();
            asns.sort_unstable();
            asns.dedup();
            if asns.len() >= 2 {
                let k =
                    ((asns.len() as f64 * pf.fraction).round() as usize).clamp(1, asns.len() - 1);
                let plane = self.fault_plane.as_mut().expect("plane checked above");
                let picks = plane.rng().sample_indices(asns.len(), k);
                self.metrics.inc(metric::FAULT_PARTITION_FLAPS, 1);
                self.apply_partition(picks.into_iter().map(|i| asns[i]));
            }
            self.queue
                .schedule(now + pf.duration, Ev::PartitionFlap(false));
        } else {
            self.lift_partition();
            let gap = pf.period.saturating_sub(pf.duration);
            let gap = if gap == SimDuration::ZERO {
                SimDuration::from_secs(1)
            } else {
                gap
            };
            self.queue.schedule(now + gap, Ev::PartitionFlap(true));
        }
    }

    /// Resilience sweep at one node (scheduled only while the
    /// countermeasures are on): abort handshakes stuck past
    /// [`HANDSHAKE_TIMEOUT`], detect a stale tip (granting an extra
    /// outbound dial), and reschedule.
    pub(super) fn on_resilience_tick(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some(node) = self.nodes[slot].as_ref() else {
            self.meta[slot].resilience_scheduled = false;
            return; // offline; a rejoin reschedules via boot_node
        };
        let stuck: Vec<NodeId> = node
            .peers
            .iter()
            .filter(|(_, p)| {
                !p.is_ready() && now.saturating_since(p.connected_at) > HANDSHAKE_TIMEOUT
            })
            .map(|(pid, _)| *pid)
            .collect();
        for peer in stuck {
            self.metrics.inc(metric::HANDSHAKE_TIMEOUTS, 1);
            self.disconnect_pair(id, peer);
        }
        let rescued = self.nodes[slot]
            .as_mut()
            .is_some_and(|n| n.check_stale_tip(now));
        if rescued {
            self.metrics.inc(metric::STALETIP_RESCUES, 1);
            self.tracer.churn(trace::ChurnTrace {
                at: now,
                node: id.0,
                kind: trace::ChurnKind::StaleTipRescue,
            });
            self.schedule_connect(id, SimDuration::from_millis(1));
        }
        self.queue
            .schedule(now + RESILIENCE_TICK_INTERVAL, Ev::ResilienceTick(id));
    }
}
