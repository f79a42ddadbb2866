//! Property tests for the countermeasure layer (`config::ResilienceConfig`):
//! misbehavior scoring must never cross the ban threshold without firing a
//! disconnect, the dial backoff schedule must be monotone and capped, and
//! a discouraged address must never be redialed inside its window.

use bitsync_node::config::{backoff_delay, NodeConfig, BACKOFF_CAP};
use bitsync_node::node::Attempt;
use bitsync_node::{unix_time, Direction, Node, NodeId, NodeRequest};
use bitsync_protocol::addr::{NetAddr, TimestampedAddr};
use bitsync_protocol::message::Message;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(203, 0, 113, last), 8333)
}

fn resilient_node(id: u32, seed: u64) -> Node {
    Node::new(
        NodeId(id),
        addr(id as u8 + 1),
        true,
        NodeConfig::resilient(),
        seed,
    )
}

/// Completes an inbound handshake by hand.
fn ready_inbound_peer(n: &mut Node, peer: u32, now: SimTime) {
    let pid = NodeId(peer);
    n.on_connected(pid, addr(peer as u8 + 1), Direction::Inbound, now);
    n.deliver(
        pid,
        Message::Version(Box::new(bitsync_protocol::message::VersionMsg {
            version: bitsync_protocol::PROTOCOL_VERSION,
            services: 1,
            timestamp: unix_time(now),
            addr_recv: n.addr,
            addr_from: addr(peer as u8 + 1),
            nonce: peer as u64,
            user_agent: "/test/".into(),
            start_height: 0,
            relay: true,
        })),
    );
    n.deliver(pid, Message::Verack);
    n.pump(now);
    n.pump(now);
    assert!(n.peers[&pid].is_ready(), "handshake incomplete");
}

fn addr_batch(count: usize, now: SimTime) -> Vec<TimestampedAddr> {
    (0..count)
        .map(|i| TimestampedAddr {
            time: unix_time(now) as u32,
            addr: NetAddr::from_ipv4(
                Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
                8333,
            ),
        })
        .collect()
}

#[test]
fn backoff_is_monotone_and_capped() {
    for refused in [true, false] {
        let mut prev = SimDuration::ZERO;
        for failures in 1..=80u32 {
            let d = backoff_delay(refused, failures);
            assert!(d >= prev, "backoff not monotone at {failures}");
            assert!(d <= BACKOFF_CAP, "backoff over cap at {failures}");
            prev = d;
        }
        // The schedule saturates: far out it sits exactly at the cap.
        assert_eq!(backoff_delay(refused, 80), BACKOFF_CAP);
    }
    // A fast refusal always retries no later than a blackholed timeout.
    for failures in 1..=80u32 {
        assert!(backoff_delay(true, failures) <= backoff_delay(false, failures));
    }
    // The first steps, exactly: 10 s doubling after a refusal, 60 s after
    // a timeout, one hour at the far end.
    assert_eq!(backoff_delay(true, 1), SimDuration::from_secs(10));
    assert_eq!(backoff_delay(true, 2), SimDuration::from_secs(20));
    assert_eq!(backoff_delay(false, 1), SimDuration::from_secs(60));
    assert_eq!(BACKOFF_CAP, SimDuration::from_hours(1));
}

#[test]
fn score_never_crosses_threshold_without_ban_request() {
    // Random ADDR traffic of mixed sizes: whenever the accumulated score
    // reaches the threshold, the same pump must emit a Ban request, and
    // never more than once per connection.
    let mut rng = SimRng::seed_from(2024);
    for trial in 0..20u64 {
        let mut n = resilient_node(0, trial + 1);
        let now = SimTime::from_secs(1);
        ready_inbound_peer(&mut n, 9, now);
        let pid = NodeId(9);
        let threshold = bitsync_node::node::BAN_THRESHOLD;
        let mut banned_seen = false;
        for _ in 0..30 {
            let size = if rng.chance(0.3) { 1_400 } else { 400 };
            n.deliver(pid, Message::Addr(addr_batch(size, now)));
            let (_, requests, _) = n.pump(now);
            let ban_now = requests
                .iter()
                .any(|r| matches!(r, NodeRequest::Ban(p) if *p == pid));
            let score = n.peers.get(&pid).map_or(threshold, |p| p.misbehavior);
            if score >= threshold {
                assert!(
                    banned_seen || ban_now,
                    "score {score} >= {threshold} but no Ban fired"
                );
            }
            if ban_now {
                assert!(!banned_seen, "Ban fired twice for one connection");
                banned_seen = true;
            }
        }
        if banned_seen {
            assert!(n.is_discouraged(&addr(10), now), "ban did not discourage");
        }
    }
}

#[test]
fn discouraged_address_is_never_redialed_within_window() {
    let mut n = resilient_node(0, 7);
    let now = SimTime::from_secs(1);
    // The only address the node knows is its future abuser's.
    let banned = addr(10);
    n.addrman.add(banned, addr(99), unix_time(now));
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::Addr(addr_batch(1_400, now)));
    let (_, requests, _) = n.pump(now);
    assert!(requests
        .iter()
        .any(|r| matches!(r, NodeRequest::Ban(p) if *p == NodeId(9))));
    assert!(n.is_discouraged(&banned, now));
    // The world honours the Ban request by tearing the connection down.
    n.on_disconnected(NodeId(9));

    // Sweep the whole discouragement window: the address must never be
    // selected for an outbound dial, and every refusal is recorded.
    let window = bitsync_node::node::DISCOURAGEMENT_WINDOW;
    let mut t = now;
    let mut deferred = 0u64;
    while t < now + window {
        match n.begin_attempt(Direction::Outbound, t) {
            Attempt::Dial(addr) => panic!("{addr} dialed at {t}"),
            Attempt::Deferred(addr) => {
                assert_eq!(addr, banned, "only the banned address is deferred");
                deferred += 1;
            }
            Attempt::Idle => {}
        }
        t += SimDuration::from_mins(30);
    }
    assert!(deferred > 0, "the banned address was never even considered");

    // Once the window lapses the address becomes eligible again.
    let after = now + window + SimDuration::from_secs(1);
    assert!(!n.is_discouraged(&banned, after));
    let mut redialed = false;
    for i in 0..50 {
        let at = after + SimDuration::from_secs(i);
        if n.begin_attempt(Direction::Outbound, at) == Attempt::Dial(banned) {
            redialed = true;
            break;
        }
    }
    assert!(redialed, "discouragement never expired");
}

#[test]
fn failed_dials_back_off_and_clear_on_success() {
    let mut n = resilient_node(0, 11);
    let target = addr(42);
    let mut now = SimTime::from_secs(1);
    n.addrman.add(target, addr(99), unix_time(now));

    // Each failure pushes the next permitted dial further out, up to the
    // cap; attempts inside the window are deferred.
    let mut prev_gap = SimDuration::ZERO;
    for round in 1..=8u32 {
        let picked = n.begin_attempt(Direction::Outbound, now);
        assert_eq!(picked, Attempt::Dial(target), "round {round} did not dial");
        n.on_attempt_failed(target, false, now);
        let gap = backoff_delay(false, round);
        assert!(gap >= prev_gap, "in-vivo backoff shrank at {round}");
        assert_eq!(
            n.begin_attempt(
                Direction::Outbound,
                now + gap.saturating_sub(SimDuration::from_secs(1))
            ),
            Attempt::Deferred(target),
            "dialed inside the backoff window at {round}"
        );
        prev_gap = gap;
        now += gap; // the next attempt is made exactly at expiry
    }

    // A successful connection wipes the slate: the next failure backs off
    // for the first step of the schedule again, not the ninth.
    let picked = n.begin_attempt(Direction::Outbound, now);
    assert_eq!(picked, Attempt::Dial(target));
    n.on_connected(NodeId(3), target, Direction::Outbound, now);
    n.on_disconnected(NodeId(3));
    assert_eq!(
        n.begin_attempt(Direction::Outbound, now),
        Attempt::Dial(target)
    );
    n.on_attempt_failed(target, false, now);
    let first = backoff_delay(false, 1);
    assert!(first < prev_gap);
    assert_eq!(
        n.begin_attempt(Direction::Outbound, now + first),
        Attempt::Dial(target)
    );
}
