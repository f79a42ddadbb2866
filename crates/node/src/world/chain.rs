//! The workload and the chain (`chain.*`): block production (the honest
//! `Mine` process and the fault plane's competing / solo producers),
//! transaction injection, reorg accounting, and the convergence check the
//! fork-stress experiments poll once the faults end.

use super::{metric, Ev, World};
use crate::node::Node;
use crate::peer::NodeId;
use bitsync_protocol::hash::Hash256;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace;

impl World {
    /// The height of the best chain anywhere in the world.
    pub fn best_height(&self) -> u64 {
        self.best_height
    }

    /// Deepest reorg observed anywhere so far, in disconnected blocks.
    pub fn max_reorg_depth(&self) -> u64 {
        self.max_reorg_depth
    }

    pub(super) fn schedule_mine(&mut self, now: SimTime) {
        if let Some(interval) = self.cfg.block_interval {
            let d = self.rng.exp_duration(interval);
            self.queue.schedule(now + d, Ev::Mine);
        }
    }

    pub(super) fn schedule_tx(&mut self, now: SimTime) {
        if self.cfg.tx_rate > 0.0 {
            let mean = SimDuration::from_secs_f64(1.0 / self.cfg.tx_rate);
            let d = self.rng.exp_duration(mean);
            self.queue.schedule(now + d, Ev::InjectTx);
        }
    }

    /// Online, reachable, unstalled nodes whose chain height satisfies
    /// `pick`, in deterministic id order. Stalled (frozen-process) nodes
    /// never produce: they could bump `best_height` but never pump the
    /// announcement out, wedging the whole network behind a private chain.
    fn producers(&self, pick: impl Fn(u64) -> bool) -> Vec<NodeId> {
        self.online()
            .filter(|(_, m, n)| m.reachable && !m.stalled && pick(n.chain.height()))
            .map(|(id, ..)| id)
            .collect()
    }

    /// Mines one block at `producer`, on the producer's *own* tip, and
    /// starts its relay. `seed_relay_log` is the one difference between
    /// the honest path and the fault channels: an honest block mined at
    /// the instrumented node starts its relay clock here, a fault-channel
    /// block at first flush (the goldens pin both). Returns whether a
    /// block was produced.
    fn produce_block(&mut self, producer: NodeId, seed_relay_log: bool, now: SimTime) -> bool {
        let Some(node) = self.nodes[producer.0 as usize].as_mut() else {
            return false;
        };
        let mined = node
            .mine_and_relay(&mut self.miner, now)
            .map(|hash| (hash, node.chain.height()));
        if let Some((hash, height)) = mined {
            self.best_height = self.best_height.max(height);
            if seed_relay_log && self.instrumented == Some(producer) {
                self.seed_relay_record(hash, true, now);
            }
            self.trace_origin(hash, true, producer, now);
        }
        self.observe_chain(producer, now);
        self.schedule_pump(producer, now);
        mined.is_some()
    }

    /// One chain-layer fault channel, drawn on the plane's stream once per
    /// `Mine` event: with probability `p`, a plane-chosen producer whose
    /// height `lags(height, best)` mints a block. Guarded draw: an inactive
    /// channel consumes no randomness, so fault-free snapshots stay
    /// byte-identical.
    fn fault_produce(
        &mut self,
        p: f64,
        counter: &'static str,
        lags: impl Fn(u64, u64) -> bool,
        now: SimTime,
    ) {
        let plane = self.fault_plane.as_mut();
        if p <= 0.0 || !plane.is_some_and(|plane| plane.rng().chance(p)) {
            return;
        }
        let best = self.best_height;
        let candidates = self.producers(|h| lags(h, best));
        let plane = self.fault_plane.as_mut().expect("the plane just drew");
        if let Some(&producer) = plane.rng().choose(&candidates) {
            if self.produce_block(producer, false, now) {
                self.metrics.inc(counter, 1);
            }
        }
    }

    pub(super) fn on_mine(&mut self, now: SimTime) {
        // A random online synced reachable node produces the block.
        let best = self.best_height;
        let candidates = self.producers(|h| h == best);
        if let Some(&producer) = self.rng.choose(&candidates) {
            self.produce_block(producer, true, now);
        }
        // A *competing miner* (one block behind the tip) mints a sibling of
        // the freshest block; a *solo miner* (anywhere behind) extends its
        // own stale tip, growing a private fork.
        self.fault_produce(
            self.cfg.fault.competing_miner_probability,
            metric::FAULT_COMPETING_BLOCKS,
            |h, best| h + 1 == best,
            now,
        );
        self.fault_produce(
            self.cfg.fault.solo_miner_probability,
            metric::FAULT_SOLO_BLOCKS,
            |h, best| h < best,
            now,
        );
        self.schedule_mine(now);
    }

    pub(super) fn on_inject_tx(&mut self, now: SimTime) {
        let ids = self.online_ids();
        if let Some(&target) = self.rng.choose(&ids) {
            let mut rng = self.rng.fork("tx");
            if let Some(node) = self.nodes[target.0 as usize].as_mut() {
                let tx = self.txgen.next_tx(&mut rng);
                // Creation-time origin of the injected transaction. The
                // instrumented node's relay clock starts at first flush, not
                // here, so a second `origin` may follow from the pump.
                let txid = tx.txid();
                node.accept_tx(tx, now);
                self.trace_origin(txid, false, target, now);
            }
            self.schedule_pump(target, now);
        }
        self.schedule_tx(now);
    }

    /// Drains reorgs the node observed during the event just handled —
    /// tracing and counting each — and enforces the `height_regression`
    /// invariant: a node's best height may only move backwards together
    /// with a recorded reorg event explaining it.
    pub(super) fn observe_chain(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some((height, reorgs)) = self.nodes[slot]
            .as_mut()
            .map(|n| (n.chain.height(), n.take_reorgs()))
        else {
            return;
        };
        if !reorgs.is_empty() {
            self.metrics.inc(metric::REORGS, reorgs.len() as u64);
            self.sampler.count("reorg", reorgs.len() as u64);
            for info in &reorgs {
                self.max_reorg_depth = self.max_reorg_depth.max(info.depth());
                self.metrics
                    .gauge_max(metric::REORG_DEPTH_MAX, info.depth() as f64);
                self.tracer.reorg(trace::ReorgEvent {
                    at: now,
                    node: id.0,
                    old_tip: info.old_tip.0,
                    new_tip: info.new_tip.0,
                    old_height: info.old_height,
                    new_height: info.new_height,
                    depth: info.depth(),
                });
            }
        }
        let last = std::mem::replace(&mut self.meta[slot].last_height, height);
        self.checker.check(
            height >= last || !reorgs.is_empty(),
            now,
            "height_regression",
            || {
                format!(
                    "node {} best height fell {last} -> {height} with no matching reorg event",
                    id.0
                )
            },
        );
    }

    /// Nodes that must agree for the world to count as converged: online,
    /// reachable, unstalled, honest, and past their IBD debt.
    fn convergence_eligible(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        let now = self.now();
        self.online()
            .filter(move |(_, m, _)| m.is_honest() && m.ibd_until <= now)
            .map(|(id, _, node)| (id, node))
    }

    /// Whether every eligible node sits on one single chain: all at the
    /// same best height with the same tip-height hash. Vacuously true
    /// with no eligible nodes. Transiently false while a fresh block
    /// propagates, so poll it rather than asserting at one instant.
    fn converged(&self) -> bool {
        let Some(target) = self
            .convergence_eligible()
            .map(|(_, n)| n.chain.height())
            .max()
        else {
            return true;
        };
        let mut tips = self
            .convergence_eligible()
            .map(|(_, n)| n.chain.hash_at_height(target));
        let tip: Option<Hash256> = tips.next().flatten();
        tip.is_some() && tips.all(|h| h == tip)
    }

    /// Runs the world forward, sampling every 30 s, until the eligible
    /// nodes converge on a single chain or `grace` elapses. On timeout a
    /// `chain_converged` violation is recorded (when a checker is
    /// attached). Returns the time convergence took, or `None`.
    ///
    /// Call [`World::end_faults`] first: this measures *recovery*, and
    /// the invariant only promises convergence once faults end.
    pub fn check_convergence(&mut self, grace: SimDuration) -> Option<SimDuration> {
        let start = self.now();
        let deadline = start + grace;
        let step = SimDuration::from_secs(30);
        loop {
            if self.converged() {
                return Some(self.now().saturating_since(start));
            }
            if self.now() >= deadline {
                break;
            }
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
        }
        let at = self.now();
        let heights: Vec<(u32, u64)> = self
            .convergence_eligible()
            .map(|(id, n)| (id.0, n.chain.height()))
            .collect();
        self.checker.fail(at, "chain_converged", || {
            format!(
                "{} eligible nodes still split {} after faults ended: heights {:?}",
                heights.len(),
                grace,
                heights
            )
        });
        None
    }
}
