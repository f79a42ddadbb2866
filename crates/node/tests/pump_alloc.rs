//! A pump round on a warm node allocates nothing for the work it skips:
//! re-delivered transactions the node already pools and every peer is
//! known to have. The binary counts the allocations of the thread under
//! test with a counting global allocator, so it holds this one test.

use bitsync_chain::TxGenerator;
use bitsync_node::{Direction, Handshake, Node, NodeConfig, NodeId, PumpBufs};
use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::message::Message;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

/// The system allocator, counting the allocations of threads that set
/// their `COUNTING` flag.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-locals without destructors, so reading them allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.set(0);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.get()
}

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(198, 51, 100, last), 8333)
}

#[test]
fn a_round_of_known_transactions_allocates_nothing() {
    let now = SimTime::from_secs(1);
    let mut n = Node::new(NodeId(0), addr(250), true, NodeConfig::bitcoin_core(), 3);
    for p in 1..=25u32 {
        let dir = if p <= 8 {
            Direction::Outbound
        } else {
            Direction::Inbound
        };
        n.on_connected(NodeId(p), addr(p as u8), dir, now);
        n.peers.get_mut(&NodeId(p)).unwrap().handshake = Handshake::Ready;
    }
    let mut rng = SimRng::seed_from(3);
    let mut gen = TxGenerator::new(3);
    let txs: Vec<_> = (1..=25u32).map(|_| gen.next_tx(&mut rng)).collect();
    let deliver_all = |n: &mut Node| {
        for (p, tx) in (1..=25u32).zip(&txs) {
            assert!(n.deliver(NodeId(p), Message::Tx(tx.clone())));
        }
    };

    // Warm up: every peer sends its transaction, which the node pools and
    // relays to the other 24; the rounds run until every queue is empty.
    // That work allocates, which shows the counter counts.
    let mut bufs = PumpBufs::default();
    deliver_all(&mut n);
    let warm_up = allocations(|| {
        while n.has_pending_work() {
            n.pump_into(now, &mut bufs);
            bufs.outgoing.clear();
        }
    });
    assert!(warm_up > 0);
    assert!(bufs.requests.is_empty() && bufs.receipts.is_empty());
    // Each transaction again, from the peer that sent it: known to the
    // mempool and to the sender, so nothing is pooled, relayed or sent.
    deliver_all(&mut n);
    let mut round = 0;
    let counted = allocations(|| {
        while n.has_pending_work() {
            n.pump_into(now, &mut bufs);
            round += 1;
        }
    });
    assert_eq!(round, 1, "one message per peer: one round");
    assert!(bufs.outgoing.is_empty(), "nothing is sent");
    assert_eq!(counted, 0, "a round of known transactions allocated");
}
