//! The trace layer's differential check: [`replay_relay_histogram`]
//! re-derives the instrumented node's `node.relay_delay_secs` histogram
//! *purely* from the relay events the deterministic tracer (see
//! [`bitsync_sim::trace`]) records, which must reproduce the live
//! histogram exactly (count, sum, and per-bucket) when the trace ring has
//! not dropped events.

use bitsync_sim::metrics::Histogram;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace::{RelayEvent, RelayPhase};
use std::collections::BTreeMap;

/// Re-derives the instrumented node's per-send relay-delay histogram from
/// trace events alone.
///
/// Mirrors the live accounting in the world's pump: for every `Send` by
/// `instrumented`, the hop delay is the send completion minus the node's
/// relay-clock start for that object, and delays beyond `window` (stale
/// serving, not relay) are excluded. The relay clock starts at the
/// **latest** `Origin` at the node when one exists — an injected
/// transaction's clock starts at its first pump flush, not its creation —
/// and otherwise at the **earliest** `Recv`.
///
/// With `bounds` = [`bitsync_sim::metrics::DEFAULT_BUCKETS`] and `window`
/// = the world's fresh-relay window, the result must equal the live
/// `node.relay_delay_secs` histogram exactly whenever the trace ring
/// dropped nothing. Sends of objects whose clock-start events were
/// dropped are skipped.
pub fn replay_relay_histogram(
    events: &[RelayEvent],
    instrumented: u32,
    window: SimDuration,
    bounds: &[f64],
) -> Histogram {
    let mut clock_start: BTreeMap<[u8; 32], SimTime> = BTreeMap::new();
    let mut has_origin: BTreeMap<[u8; 32], bool> = BTreeMap::new();
    for ev in events {
        if ev.to != instrumented {
            continue;
        }
        match ev.phase {
            RelayPhase::Origin => {
                has_origin.insert(ev.object, true);
                let t = clock_start.entry(ev.object).or_insert(ev.at);
                *t = (*t).max(ev.at);
            }
            RelayPhase::Recv => {
                if !has_origin.get(&ev.object).copied().unwrap_or(false) {
                    let t = clock_start.entry(ev.object).or_insert(ev.at);
                    *t = (*t).min(ev.at);
                }
            }
            RelayPhase::Send => {}
        }
    }
    let mut h = Histogram::with_buckets(bounds);
    for ev in events {
        if ev.phase != RelayPhase::Send || ev.from != Some(instrumented) {
            continue;
        }
        let Some(&t0) = clock_start.get(&ev.object) else {
            continue;
        };
        let delay = ev.at.saturating_since(t0);
        if delay <= window {
            h.observe(delay.as_secs_f64());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(b: u8) -> [u8; 32] {
        let mut o = [0u8; 32];
        o[0] = b;
        o
    }

    fn ev(
        secs: u64,
        phase: RelayPhase,
        object: [u8; 32],
        from: Option<u32>,
        to: u32,
    ) -> RelayEvent {
        RelayEvent {
            at: SimTime::ZERO + SimDuration::from_secs(secs),
            phase,
            object,
            is_block: true,
            from,
            to,
        }
    }

    #[test]
    fn replay_uses_latest_origin_as_clock_start() {
        // An injected tx traces creation at t=0 and first flush at t=10;
        // the live relay clock starts at the flush.
        let events = vec![
            ev(0, RelayPhase::Origin, obj(2), None, 5),
            ev(10, RelayPhase::Origin, obj(2), None, 5),
            ev(12, RelayPhase::Send, obj(2), Some(5), 6),
            ev(14, RelayPhase::Send, obj(2), Some(5), 7),
        ];
        let h = replay_relay_histogram(
            &events,
            5,
            SimDuration::from_secs(120),
            &bitsync_sim::metrics::DEFAULT_BUCKETS,
        );
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2.0 + 4.0);
    }

    #[test]
    fn replay_windows_out_stale_serving_and_ignores_other_nodes() {
        let events = vec![
            ev(0, RelayPhase::Recv, obj(3), Some(9), 5),
            ev(1, RelayPhase::Send, obj(3), Some(5), 6),
            // 500 s after receipt: serving, not relay.
            ev(500, RelayPhase::Send, obj(3), Some(5), 7),
            // Another node's send must not count.
            ev(2, RelayPhase::Send, obj(3), Some(9), 8),
        ];
        let h = replay_relay_histogram(
            &events,
            5,
            SimDuration::from_secs(120),
            &bitsync_sim::metrics::DEFAULT_BUCKETS,
        );
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1.0);
    }
}
