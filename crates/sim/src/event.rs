//! The discrete-event core: a time-ordered event queue with deterministic
//! tie-breaking.
//!
//! Components schedule events (`E` is the caller's event type) at absolute
//! instants; the driver pops them in `(time, sequence)` order. Two events at
//! the same instant are delivered in scheduling order, which keeps runs
//! bit-for-bit reproducible.
//!
//! # The queue is a binary heap
//!
//! [`EventQueue::new`] — and therefore every world — runs on a
//! `BinaryHeap` keyed by `(time, seq)`. The worlds the experiments build
//! hold a few hundred to a few thousand pending events, the depth at which
//! the heap is the cheaper structure.
//!
//! # Same-instant events skip the core
//!
//! An event scheduled for the current instant (`at == now`: the pump a
//! delivery wakes, 39–47 % of a world's events) is appended to a FIFO
//! *lane* instead of being sifted into the core. Everything in the lane
//! fires at `now`, in `seq` order, and every sequence number it holds is
//! larger than that of any core entry scheduled before it, so
//! [`EventQueue::pop`] takes the lane's front unless the core's earliest
//! entry has a smaller `(time, seq)` — the pop order is exactly the
//! `(time, seq)` order either core alone would give. `len`, `peek_time`,
//! `pop_until` and `advance_to` all see the lane; the clock cannot move
//! past a pending event (`advance_to` asserts it), so the lane never holds
//! an event from an earlier instant.
//!
//! # The timer wheel is a probe target
//!
//! A second core, a hierarchical timer wheel — eight levels of 64 slots
//! each (6 bits per level, 1 ns granularity, ~3.26 days of span) with
//! per-level occupancy bitmaps, cascading far slots down as the clock
//! advances and spilling anything beyond the span into an overflow heap —
//! is built for no world. It stays because `benchmark/src/seam.rs` and
//! `benchmark/src/seam/probes.rs` name [`Backend`],
//! [`EventQueue::with_backend`] and [`default_backend`] (the
//! `sim.event.{wheel,heap}_churn_ns` probes), and a PR may not edit the
//! benchmark it is measured by; ROADMAP item 3(a) drops those names from
//! the seam and deletes the wheel with them. Until then the unit tests
//! below and `tests/wheel_edge_cases.rs` hold the wheel to the heap's
//! `(time, seq)` order.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which core [`EventQueue::with_backend`] builds. Named only by the
/// benchmark seam's queue probes and this crate's oracle tests (module
/// docs); ROADMAP item 3(a) deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Hierarchical timer wheel: a probe target, built for no world.
    Wheel,
    /// Binary heap: what [`EventQueue::new`] builds.
    Heap,
}

/// The backend [`EventQueue::new`] runs on. `benchmark/src/seam.rs` reads
/// it to pick which queue probe stands for a world's queue; ROADMAP item
/// 3(a) deletes it.
pub fn default_backend() -> Backend {
    Backend::Heap
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of levels. Total span 64^8 ns = 2^48 ns ≈ 3.26 simulated days;
/// anything farther out lands in the overflow heap.
const LEVELS: usize = 8;
/// Deltas at or beyond this go to the overflow heap.
const WHEEL_SPAN: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

/// The hierarchical timer wheel core: built only when
/// [`EventQueue::with_backend`] is given [`Backend::Wheel`], which only
/// `benchmark/src/seam/probes.rs` and the oracle tests do (module docs).
///
/// Invariant: `base` never exceeds the timestamp of any entry stored in the
/// wheel slots. `base` only advances to the lower bound of a processed slot,
/// which (being the minimum over all slot bounds at that moment) is itself a
/// lower bound on every pending wheel entry. Entries scheduled *behind*
/// `base` (possible after [`EventQueue::peek_time`] has settled the wheel
/// forward) go to the exact-ordered `front` heap instead.
///
/// Consequence (used by the level-0 drain): all entries in one level-0 slot
/// share a single absolute timestamp — each was inserted with
/// `at - base_at_insert < 64`, `base` only grows while staying ≤ `at`, so
/// every entry in slot `s` satisfies `at ≡ s (mod 64)` and
/// `base ≤ at < base + 64`, pinning `at` to one value.
struct WheelCore<E> {
    /// Lower bound (ns) for every entry currently in `slots`.
    base: u64,
    /// `LEVELS * SLOTS` buckets; index `level * SLOTS + slot`.
    slots: Vec<Vec<Scheduled<E>>>,
    /// Per-level bitmap of non-empty slots.
    occupancy: [u64; LEVELS],
    /// A drained level-0 slot, in `seq` order; all entries share one `at`.
    ready: VecDeque<Scheduled<E>>,
    /// Entries scheduled ≥ `WHEEL_SPAN` past `base` (exact order).
    overflow: BinaryHeap<Scheduled<E>>,
    /// Entries scheduled before `base` (exact order; rare, see above).
    front: BinaryHeap<Scheduled<E>>,
    /// Total entries held (slots + ready + overflow + front).
    count: usize,
}

impl<E> WheelCore<E> {
    fn new() -> Self {
        WheelCore {
            base: 0,
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            ready: VecDeque::new(),
            overflow: BinaryHeap::new(),
            front: BinaryHeap::new(),
            count: 0,
        }
    }

    fn push(&mut self, entry: Scheduled<E>) {
        self.count += 1;
        self.place(entry);
    }

    /// Routes an entry to a wheel slot or one of the exact-ordered stores
    /// (does not touch `count`; cascades re-place without re-counting).
    fn place(&mut self, entry: Scheduled<E>) {
        let at = entry.at.as_nanos();
        if at < self.base {
            self.front.push(entry);
            return;
        }
        let delta = at - self.base;
        if delta >= WHEEL_SPAN {
            self.overflow.push(entry);
            return;
        }
        let level = Self::level_for(delta);
        let digit_shift = LEVEL_BITS * level as u32;
        let slot = ((at >> digit_shift) & (SLOTS as u64 - 1)) as usize;
        let cur = ((self.base >> digit_shift) & (SLOTS as u64 - 1)) as usize;
        if slot == cur {
            // The current slot's bound is `base` itself, so it may only hold
            // current-cycle entries (at < end of this level's window);
            // otherwise reprocessing it could never advance `base`. An entry
            // a full cycle ahead that still hashes here (its sub-digit
            // remainder is below base's low bits) is exact-ordered instead.
            let window_span = 1u64 << (LEVEL_BITS * (level as u32 + 1));
            let window = self.base & !(window_span - 1);
            if at >= window.saturating_add(window_span) {
                self.overflow.push(entry);
                return;
            }
        }
        self.slots[level * SLOTS + slot].push(entry);
        self.occupancy[level] |= 1 << slot;
    }

    /// The level whose span covers `delta`: level `l` holds deltas in
    /// `[64^l, 64^(l+1))` (level 0 also holds zero).
    fn level_for(delta: u64) -> usize {
        if delta == 0 {
            return 0;
        }
        (63 - delta.leading_zeros() as usize) / LEVEL_BITS as usize
    }

    /// Earliest possible timestamp of any entry in `slot` at `level`, given
    /// the current `base`. Slots at or ahead of the base digit belong to the
    /// current cycle; slots behind it wrap to the next one.
    fn slot_bound(&self, level: usize, slot: usize) -> u64 {
        let digit_shift = LEVEL_BITS * level as u32;
        let window_shift = LEVEL_BITS * (level as u32 + 1);
        let cur = ((self.base >> digit_shift) & (SLOTS as u64 - 1)) as usize;
        if slot == cur {
            return self.base;
        }
        let window = self.base & !((1u64 << window_shift) - 1);
        let start = window + ((slot as u64) << digit_shift);
        if slot > cur {
            start
        } else {
            start.saturating_add(1u64 << window_shift)
        }
    }

    /// The occupied slot with the smallest lower bound, preferring the
    /// highest level on ties so same-instant entries cascade down into the
    /// level-0 slot *before* it drains (this is what preserves seq order
    /// across levels). Within a level the smallest bound is the first
    /// occupied slot in rotation order from the base digit.
    fn next_wheel_slot(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(usize, usize, u64)> = None;
        for level in 0..LEVELS {
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            let cur = ((self.base >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let offset = occ.rotate_right(cur as u32).trailing_zeros() as usize;
            let slot = (cur + offset) % SLOTS;
            let bound = self.slot_bound(level, slot);
            // Ascending level scan: replace on a strictly smaller bound or
            // an equal bound at this (higher) level.
            if best.is_none_or(|(_, _, b)| bound <= b) {
                best = Some((level, slot, bound));
            }
        }
        best
    }

    /// Smallest exact `(at, seq)` among the three exact-ordered stores.
    fn exact_min_key(&self) -> Option<(SimTime, u64)> {
        let mut min: Option<(SimTime, u64)> = None;
        for key in [
            self.ready.front().map(Scheduled::key),
            self.overflow.peek().map(Scheduled::key),
            self.front.peek().map(Scheduled::key),
        ]
        .into_iter()
        .flatten()
        {
            if min.is_none_or(|m| key < m) {
                min = Some(key);
            }
        }
        min
    }

    /// Processes wheel slots until the global minimum sits at the head of an
    /// exact-ordered store (or the wheel is empty). Level-0 slots drain into
    /// `ready`; higher slots cascade to strictly lower levels. Terminates
    /// because every entry can cascade at most `LEVELS - 1` times.
    fn settle(&mut self) {
        loop {
            let Some((level, slot, bound)) = self.next_wheel_slot() else {
                return;
            };
            let exact = self.exact_min_key();
            if exact.is_some_and(|(at, _)| bound > at.as_nanos()) {
                return;
            }
            self.process_slot(level, slot, bound);
        }
    }

    fn process_slot(&mut self, level: usize, slot: usize, bound: u64) {
        let mut entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.occupancy[level] &= !(1 << slot);
        // `bound` is ≤ the minimum over all slot bounds and every exact-store
        // head here, so advancing `base` to it keeps base ≤ all pending.
        self.base = bound;
        if level == 0 {
            // One timestamp per level-0 slot (struct invariant), so seq
            // order within the slot is the only order that matters.
            debug_assert!(entries.iter().all(|e| e.at.as_nanos() == bound));
            entries.sort_unstable_by_key(|e| e.seq);
            if let Some(back) = self.ready.back() {
                // A non-empty `ready` can only be merged with the same
                // instant, and only by entries scheduled after it drained.
                debug_assert_eq!(back.at.as_nanos(), bound);
                debug_assert!(entries.first().is_none_or(|e| e.seq > back.seq));
            }
            self.ready.extend(entries);
        } else {
            // Every entry satisfies at - bound < 64^level (it sits in the
            // window this slot now occupies), so re-placing it lands at a
            // strictly lower level.
            for entry in entries {
                self.place(entry);
            }
        }
    }

    fn peek_min(&mut self) -> Option<(SimTime, u64)> {
        self.settle();
        self.exact_min_key()
    }

    fn pop_min(&mut self) -> Option<Scheduled<E>> {
        self.settle();
        let key = self.exact_min_key()?;
        self.count -= 1;
        if self.ready.front().is_some_and(|e| e.key() == key) {
            return self.ready.pop_front();
        }
        if self.overflow.peek().is_some_and(|e| e.key() == key) {
            return self.overflow.pop();
        }
        self.front.pop()
    }
}

enum Core<E> {
    Wheel(WheelCore<E>),
    Heap(BinaryHeap<Scheduled<E>>),
}

impl<E> Core<E> {
    fn push(&mut self, entry: Scheduled<E>) {
        match self {
            Core::Wheel(w) => w.push(entry),
            Core::Heap(h) => h.push(entry),
        }
    }

    fn peek_min(&mut self) -> Option<(SimTime, u64)> {
        match self {
            Core::Wheel(w) => w.peek_min(),
            Core::Heap(h) => h.peek().map(Scheduled::key),
        }
    }

    fn pop_min(&mut self) -> Option<Scheduled<E>> {
        match self {
            Core::Wheel(w) => w.pop_min(),
            Core::Heap(h) => h.pop(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Core::Wheel(w) => w.count,
            Core::Heap(h) => h.len(),
        }
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use bitsync_sim::event::EventQueue;
/// use bitsync_sim::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_after(SimDuration::from_secs(2), "later");
/// q.schedule_after(SimDuration::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.now(), SimTime::from_secs(1));
/// ```
pub struct EventQueue<E> {
    core: Core<E>,
    /// Events scheduled for the instant they were scheduled at, in `seq`
    /// order; all of them fire at `now` (module docs).
    lane: VecDeque<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero (on the binary heap,
    /// [`default_backend`]).
    pub fn new() -> Self {
        Self::with_backend(default_backend())
    }

    /// Creates an empty queue at time zero on an explicit backend: the
    /// constructor `benchmark/src/seam/probes.rs` and the oracle tests use
    /// to reach the wheel. ROADMAP item 3(a) deletes it.
    pub fn with_backend(backend: Backend) -> Self {
        let core = match backend {
            Backend::Wheel => Core::Wheel(WheelCore::new()),
            Backend::Heap => Core::Heap(BinaryHeap::new()),
        };
        EventQueue {
            core,
            lane: VecDeque::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
        }
    }

    /// The current simulated instant (the timestamp of the last popped
    /// event, or [`SimTime::ZERO`] before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.core.len() + self.lane.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Scheduled { at, seq, event };
        if at == self.now {
            self.lane.push_back(entry);
        } else {
            self.core.push(entry);
        }
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Pops the earliest pending event, advancing [`EventQueue::now`] to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = match self.lane.front() {
            Some(first) if self.core.peek_min().is_none_or(|min| first.key() < min) => {
                self.lane.pop_front()
            }
            _ => self.core.pop_min(),
        }?;
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.event))
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // A lane entry fires at `now`, before anything in the core.
        match self.lane.front() {
            Some(first) => Some(first.at),
            None => self.core.peek_min().map(|(at, _)| at),
        }
    }

    /// Advances the clock to `at` without popping an event.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, or if an event is pending before
    /// `at`: it would pop later with a timestamp behind the clock.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot advance backwards");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= at,
                "cannot advance to {at} past the event pending at {next}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No world is built on the wheel any more, but the benchmark still
    /// probes it: the API tests run once per backend.
    const BACKENDS: [Backend; 2] = [Backend::Heap, Backend::Wheel];

    #[test]
    fn new_queue_is_a_heap() {
        assert_eq!(default_backend(), Backend::Heap);
        assert!(matches!(EventQueue::<()>::new().core, Core::Heap(_)));
    }

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(3), 'c');
            q.schedule(SimTime::from_secs(1), 'a');
            q.schedule(SimTime::from_secs(2), 'b');
            assert_eq!(q.len(), 3, "{backend:?}");
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)), "{backend:?}");
            let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!['a', 'b', 'c'], "{backend:?}");
            assert!(q.is_empty() && q.peek_time().is_none(), "{backend:?}");
        }
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(5);
            for i in 0..10 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..10).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn now_advances_with_pops() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(4), ());
            assert_eq!(q.now(), SimTime::ZERO, "{backend:?}");
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(4), "{backend:?}");
            // The clock also moves without a pop, and later events follow it.
            q.advance_to(SimTime::from_secs(6));
            q.schedule_after(SimDuration::from_secs(1), ());
            assert_eq!(q.pop().unwrap().0, SimTime::from_secs(7), "{backend:?}");
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(10), 2);
            assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().1, 1);
            assert!(q.pop_until(SimTime::from_secs(5)).is_none(), "{backend:?}");
            // The future event is still there.
            assert_eq!(q.len(), 1, "{backend:?}");
            assert_eq!(q.pop().unwrap().1, 2, "{backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        fn schedule_into_past(backend: Backend) {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(5), ());
            q.pop();
            q.schedule(SimTime::from_secs(1), ());
        }
        // The heap's panic is caught and checked here; the wheel's is the
        // one `should_panic` sees.
        let heap = std::panic::catch_unwind(|| schedule_into_past(Backend::Heap));
        assert!(heap.is_err(), "the heap queue did not panic");
        schedule_into_past(Backend::Wheel);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(10), 0);
            q.pop();
            q.schedule_after(SimDuration::from_secs(5), 1);
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(15), "{backend:?}");
        }
    }

    #[test]
    fn events_processed_counts() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(1), ());
            q.schedule(SimTime::from_secs(2), ());
            q.pop();
            q.pop();
            assert_eq!(q.events_processed(), 2, "{backend:?}");
        }
    }

    /// Runs `scenario` on both backends and asserts identical pop streams.
    fn assert_backends_agree(scenario: impl Fn(&mut EventQueue<u64>)) {
        let mut wheel = EventQueue::with_backend(Backend::Wheel);
        let mut heap = EventQueue::with_backend(Backend::Heap);
        scenario(&mut wheel);
        scenario(&mut heap);
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "wheel and heap backends diverged");
            if w.is_none() {
                break;
            }
        }
        assert_eq!(wheel.now(), heap.now());
        assert_eq!(wheel.events_processed(), heap.events_processed());
    }

    #[test]
    fn backends_agree_on_mixed_schedule() {
        assert_backends_agree(|q| {
            // A spread that exercises several wheel levels plus overflow.
            for i in 0..200u64 {
                let at = (i * 7919) % 100_000; // ns-scale, levels 0..3
                q.schedule(SimTime::from_nanos(at), i);
            }
            q.schedule(SimTime::from_secs(400_000), 1000); // overflow (> 3.26 d)
            q.schedule(SimTime::from_nanos(5), 1001);
        });
    }

    #[test]
    fn backends_agree_with_interleaved_pops() {
        assert_backends_agree(|q| {
            for i in 0..50u64 {
                q.schedule(SimTime::from_nanos(i * 37 % 1000), i);
            }
            // Interleave: pop a few, then schedule relative to the new now.
            for i in 0..10u64 {
                q.pop();
                q.schedule_after(SimDuration::from_nanos(i * 13 + 1), 500 + i);
            }
        });
    }

    #[test]
    fn wheel_handles_schedule_behind_settled_base() {
        // peek_time settles the wheel forward; a later schedule at an
        // earlier (but >= now) instant must still pop first.
        let mut q = EventQueue::with_backend(Backend::Wheel);
        q.schedule(SimTime::from_secs(2), 1u32);
        q.pop(); // now = 2s
        q.schedule(SimTime::from_secs(1000), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1000)));
        // The wheel base has settled toward 1000s; schedule before it.
        q.schedule(SimTime::from_secs(3), 3);
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1000), 2)));
    }

    #[test]
    fn wheel_preserves_seq_order_across_levels_at_same_instant() {
        // Same instant scheduled from different distances: the first entry
        // lands at a high level (far future), later ones at lower levels as
        // the clock closes in. Pop order must still be seq order.
        let mut q = EventQueue::with_backend(Backend::Wheel);
        let target = SimTime::from_secs(2);
        q.schedule(target, 0u32); // far: high level
        q.schedule(SimTime::from_secs(1), 100);
        q.pop(); // now = 1s, base advanced
        q.schedule(target, 1); // nearer: lower level
        q.schedule(target, 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn wheel_drains_ready_merge_after_popping_same_instant() {
        // While delivering a same-instant batch, a handler schedules more
        // events at that same instant; they must pop after the batch, in
        // scheduling order.
        let mut q = EventQueue::with_backend(Backend::Wheel);
        let t = SimTime::from_secs(1);
        for i in 0..4u32 {
            q.schedule(t, i);
        }
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 10);
        q.schedule(t, 11);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "past the event pending")]
    fn advance_to_refuses_to_skip_a_pending_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), ());
        q.advance_to(SimTime::from_secs(4));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Both backends, same-instant lane included, against a reference
        /// `BinaryHeap<(time, seq)>`: random interleavings of schedules
        /// (about half at `now`), `pop`, `pop_until` and `advance_to`
        /// (never past the next pending event) give the same pops, `len`,
        /// `peek_time` and clock after every operation.
        #[test]
        fn pops_follow_time_then_seq_with_the_lane(
            ops in proptest::collection::vec((0u8..8, 0u64..50), 0..200),
        ) {
            use std::cmp::Reverse;
            /// The reference: earliest `(time, seq)` first; pops move the clock.
            #[derive(Default)]
            struct Model {
                heap: BinaryHeap<Reverse<(u64, u64)>>,
                now: u64,
            }
            impl Model {
                fn next_time(&self) -> Option<u64> {
                    self.heap.peek().map(|Reverse((at, _))| *at)
                }
                fn pop(&mut self) -> Option<(SimTime, u64)> {
                    let Reverse((at, seq)) = self.heap.pop()?;
                    self.now = at;
                    Some((SimTime::from_nanos(at), seq))
                }
            }

            for backend in BACKENDS {
                let mut q = EventQueue::with_backend(backend);
                let mut model = Model::default();
                for (seq, &(op, x)) in (0u64..).zip(&ops) {
                    match op {
                        // Ops 0 and 1 schedule at `now`, 2 and 3 up to 49 ns ahead.
                        0..=3 => {
                            let at = model.now + if op < 2 { 0 } else { x };
                            q.schedule(SimTime::from_nanos(at), seq);
                            model.heap.push(Reverse((at, seq)));
                        }
                        4 | 5 => assert_eq!(q.pop(), model.pop(), "{backend:?}"),
                        6 => {
                            let deadline = model.now + x;
                            let want = if model.next_time().is_some_and(|at| at <= deadline) {
                                model.pop()
                            } else {
                                None
                            };
                            assert_eq!(q.pop_until(SimTime::from_nanos(deadline)), want);
                        }
                        _ => {
                            model.now = (model.now + x).min(model.next_time().unwrap_or(u64::MAX));
                            q.advance_to(SimTime::from_nanos(model.now));
                        }
                    }
                    assert_eq!(q.now(), SimTime::from_nanos(model.now), "{backend:?}");
                    assert_eq!(q.len(), model.heap.len(), "{backend:?}");
                    assert_eq!(q.peek_time(), model.next_time().map(SimTime::from_nanos));
                }
                while let Some(popped) = q.pop() {
                    assert_eq!(Some(popped), model.pop(), "{backend:?}");
                }
                assert!(model.heap.is_empty(), "{backend:?} lost events");
            }
        }
    }

    #[test]
    fn wheel_cascades_far_future_through_all_levels() {
        let mut q = EventQueue::with_backend(Backend::Wheel);
        // One event per level distance, plus an overflow entry.
        let mut times: Vec<u64> = (0..LEVELS)
            .map(|l| 1u64 << (LEVEL_BITS * l as u32))
            .collect();
        times.push(WHEEL_SPAN + 12345);
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = 0;
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at.as_nanos() >= last);
            last = at.as_nanos();
            n += 1;
        }
        assert_eq!(n, times.len());
    }
}
