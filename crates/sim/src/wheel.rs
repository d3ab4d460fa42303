//! A bucketed time wheel (calendar queue) with serial-numbered lazy
//! cancellation — the priority-queue core shared by the HALOTIS
//! [`EventQueue`](crate::queue::EventQueue) and the classical simulator.
//!
//! Event-driven gate-level simulation produces timestamps that cluster at
//! gate-delay granularity (hundreds of picoseconds): almost every insert
//! lands within a few bucket widths of the current simulation time.  A
//! calendar queue exploits that distribution — insert is an array index and
//! a list link, pop is a linear scan of one small bucket — where a binary
//! heap pays `O(log n)` pointer-chasing comparisons on both operations.
//!
//! Layout:
//!
//! * every entry lives in one shared **slot arena**; buckets are intrusive
//!   singly-linked lists threaded through the arena and freed slots go to a
//!   free list, so the steady state allocates nothing and the working set
//!   stays as small as the number of in-flight events,
//! * time is quantised into *days* of `2^shift` femtoseconds; a power-of-two
//!   ring of bucket heads covers the window `[cursor, cursor + buckets)`
//!   days,
//! * when the cursor arrives at a bucket its list is *gathered* once into a
//!   contiguous drain buffer, sorted descending so pops take the earliest
//!   entry off the back in `O(1)` — the bucket list is never rescanned,
//! * entries beyond the window go to a *spill* min-heap (`O(log n)` insert,
//!   so a long monotone stimulus schedule spanning many windows stays
//!   `O(n log n)` instead of degrading quadratically) and migrate into the
//!   drain when the cursor reaches their day,
//! * entries at or before the cursor (the engine schedules at the current
//!   instant, never into the past of the *popped* horizon, but an earlier
//!   time than the cursor's day start is legal) are inserted directly into
//!   the drain at their sorted position, keeping their true timestamp,
//! * cancellation is lazy via a serial-indexed bitset: every insert is
//!   numbered, [`cancel`](TimeWheel::cancel) flips one bit, and cancelled
//!   entries are unlinked when a scan encounters them.  This replaces the
//!   `HashSet<u64>` of the original implementation — no hashing on the hot
//!   path and an `O(words)` [`reset`](TimeWheel::reset).
//!
//! Ordering contract (load-bearing for bit-identical simulation results):
//! entries pop in ascending `(time, serial)` order, and
//! [`reset`](TimeWheel::reset) restarts serial numbering at zero so a
//! reused wheel is indistinguishable from a fresh one.
//! [`push`](TimeWheel::push) numbers an entry as it inserts it, so
//! equal-time pushes pop in insertion order; the crate-internal
//! `reserve_serial` hands a number out ahead of its `push_reserved`, which
//! is how the [`EventQueue`](crate::queue::EventQueue) numbers staged
//! stimulus before every gate event yet inserts it later.  The queue feeds
//! that stimulus through `pop_through`, a pop bounded by the feed horizon
//! that never moves the cursor past the bound's day, so what is fed next
//! still lands in the ring.

use halotis_core::{Time, TimeDelta};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default bucket width exponent: `2^18` fs = 262.144 ps, on the order of a
/// single gate delay of the shipped 0.6 µm library (300–800 ps), so the
/// events of one delay generation land in a handful of adjacent buckets.
pub const DEFAULT_SHIFT: u32 = 18;

/// Default ring size: 512 buckets × 262 ps ≈ 134 ns of look-ahead — many
/// gate delays, but much shorter than a long stimulus (the s27 soak spans
/// 10 µs), which is why the queue feeds stimulus into the wheel one window
/// at a time rather than all before the first pop.
pub const DEFAULT_BUCKETS: usize = 512;

/// Null link of the intrusive bucket lists.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct WheelSlot<T> {
    time: Time,
    serial: u64,
    payload: T,
    /// Next slot in the same bucket list, or [`NIL`].
    next: u32,
}

/// A calendar queue over `(Time, insertion serial)` keys carrying a `Copy`
/// payload per entry.
///
/// # Example
///
/// ```
/// use halotis_core::Time;
/// use halotis_sim::wheel::TimeWheel;
///
/// let mut wheel: TimeWheel<&str> = TimeWheel::new();
/// wheel.push(Time::from_ns(2.0), "late");
/// let early = wheel.push(Time::from_ns(1.0), "early");
/// let doomed = wheel.push(Time::from_ns(1.5), "cancelled");
/// wheel.cancel(doomed);
/// assert_eq!(wheel.len(), 2);
/// assert_eq!(wheel.pop(), Some((Time::from_ns(1.0), early, "early")));
/// assert_eq!(wheel.pop().map(|(_, _, p)| p), Some("late"));
/// assert_eq!(wheel.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct TimeWheel<T> {
    /// The slot arena every entry lives in; bucket lists and the free list
    /// are threaded through it by index.
    slots: Vec<WheelSlot<T>>,
    /// Recycled arena indices, reused before the arena grows.
    free: Vec<u32>,
    /// Ring of bucket list heads; bucket `day & mask` holds day's entries.
    heads: Vec<u32>,
    /// One bit per ring bucket, set exactly when that bucket's list is
    /// non-empty — lets the cursor jump over empty buckets instead of
    /// probing them one day at a time.
    occupancy: Vec<u64>,
    /// Bucket width is `2^shift` femtoseconds.
    shift: u32,
    /// `heads.len() - 1` (the ring size is a power of two).
    mask: i64,
    /// The day currently being drained.  The cursor bucket's list is always
    /// empty: its entries were gathered into `drain` when the cursor
    /// arrived, and inserts with `day <= cursor` go straight to `drain`.
    cursor_day: i64,
    /// The cursor day's entries as `(time, serial, slot index)`, sorted
    /// descending by `(time, serial)` so the earliest pops off the back in
    /// `O(1)`.  Filled once per cursor position by gathering the bucket
    /// list; entries may still be cancelled while here (skipped on pop).
    drain: Vec<(Time, u64, u32)>,
    /// Entries beyond the ring window as `(time, serial, slot index)` in a
    /// min-heap.  This is the cold path — the queue feeds stimulus half a
    /// ring ahead, so only a long gap or a very long delay lands here — so
    /// heap comparisons are fine, and the `O(log n)` insert keeps a
    /// monotone far-future stream from turning quadratic the way a sorted
    /// vector would.
    spill: BinaryHeap<Reverse<(Time, u64, u32)>>,
    /// Dead-serial bitset (popped or cancelled), indexed by serial.  A set
    /// bit means the serial will never pop; entries still physically in a
    /// bucket with their bit set are unlinked lazily when a scan meets them.
    dead: Vec<u64>,
    /// Next insertion serial; equal-time entries pop in serial order.
    next_serial: u64,
    /// Entries physically linked into ring bucket lists (live or
    /// cancelled); the drain buffer is not counted.
    in_buckets: usize,
    /// Live (not cancelled, not popped) entries, ring and spill together.
    live: usize,
}

impl<T: Copy> TimeWheel<T> {
    /// Creates a wheel with the default geometry
    /// ([`DEFAULT_SHIFT`]/[`DEFAULT_BUCKETS`]).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_SHIFT, DEFAULT_BUCKETS)
    }

    /// Creates a wheel with `2^shift`-fs buckets and a ring of
    /// `bucket_count` buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket_count` is a power of two and `shift < 63`.
    pub fn with_geometry(shift: u32, bucket_count: usize) -> Self {
        assert!(
            bucket_count.is_power_of_two(),
            "bucket count must be a power of two, got {bucket_count}"
        );
        assert!(shift < 63, "shift {shift} leaves no time resolution");
        TimeWheel {
            slots: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; bucket_count],
            occupancy: vec![0; bucket_count.div_ceil(64)],
            shift,
            mask: bucket_count as i64 - 1,
            cursor_day: 0,
            drain: Vec::new(),
            spill: BinaryHeap::new(),
            dead: Vec::new(),
            next_serial: 0,
            in_buckets: 0,
            live: 0,
        }
    }

    /// The day (bucket-width quantum) a timestamp belongs to.  Arithmetic
    /// shift right floors correctly for negative timestamps.
    #[inline]
    fn day_of(&self, time: Time) -> i64 {
        time.as_fs() >> self.shift
    }

    #[inline]
    fn is_dead(dead: &[u64], serial: u64) -> bool {
        dead[(serial >> 6) as usize] & (1u64 << (serial & 63)) != 0
    }

    /// Takes a slot from the free list or grows the arena.
    #[inline]
    fn alloc_slot(&mut self, time: Time, serial: u64, payload: T) -> u32 {
        let slot = WheelSlot {
            time,
            serial,
            payload,
            next: NIL,
        };
        match self.free.pop() {
            Some(index) => {
                self.slots[index as usize] = slot;
                index
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Links an arena slot at the head of a bucket list (within-bucket order
    /// is irrelevant: the list is sorted when gathered into the drain).
    #[inline]
    fn link_into_bucket(&mut self, bucket: usize, index: u32) {
        self.slots[index as usize].next = self.heads[bucket];
        self.heads[bucket] = index;
        self.occupancy[bucket >> 6] |= 1u64 << (bucket & 63);
        self.in_buckets += 1;
    }

    /// Clears a bucket's occupancy bit (call after its list went empty).
    #[inline]
    fn mark_bucket_empty(&mut self, bucket: usize) {
        self.occupancy[bucket >> 6] &= !(1u64 << (bucket & 63));
    }

    /// Days from the cursor to the next non-empty ring bucket (circular
    /// scan of the occupancy bitmap; the caller guarantees `in_buckets > 0`
    /// and an empty cursor bucket).
    fn next_occupied_offset(&self) -> i64 {
        let bucket_count = self.heads.len();
        let cursor_bucket = (self.cursor_day & self.mask) as usize;
        let start = (cursor_bucket + 1) & (bucket_count - 1);
        let word_count = self.occupancy.len();
        let mut word = start >> 6;
        let mut bits = self.occupancy[word] & (u64::MAX << (start & 63));
        for _ in 0..=word_count {
            if bits != 0 {
                let found = ((word << 6) + bits.trailing_zeros() as usize) & (bucket_count - 1);
                let offset = (found + bucket_count - cursor_bucket) & (bucket_count - 1);
                return offset.max(1) as i64;
            }
            word = (word + 1) % word_count;
            bits = self.occupancy[word];
        }
        unreachable!("in_buckets > 0 guarantees an occupied bucket");
    }

    /// The time the ring covers ahead of the cursor: bucket count times
    /// bucket width.
    pub(crate) fn span(&self) -> TimeDelta {
        TimeDelta::from_fs((self.mask + 1).saturating_mul(1 << self.shift))
    }

    /// Hands out the next serial without inserting anything.  An entry
    /// inserted under it later with
    /// [`push_reserved`](TimeWheel::push_reserved) pops, at equal times,
    /// before every entry numbered after this call.
    pub(crate) fn reserve_serial(&mut self) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        if (serial >> 6) as usize >= self.dead.len() {
            self.dead.push(0);
        }
        serial
    }

    /// Inserts an entry and returns its serial number (the equal-time
    /// tie-break key, usable with [`cancel`](TimeWheel::cancel)).
    #[inline(always)]
    pub fn push(&mut self, time: Time, payload: T) -> u64 {
        let serial = self.reserve_serial();
        self.push_reserved(time, serial, payload);
        serial
    }

    /// Inserts an entry under a serial from
    /// [`reserve_serial`](TimeWheel::reserve_serial).  A reserved serial is
    /// pushed at most once, and only once pushed may it be cancelled.
    ///
    /// Always inlined, as are [`push`](TimeWheel::push) and
    /// [`pop_through`](TimeWheel::pop_through): each has several callers,
    /// and the event loop's copies must stay inlined.
    #[inline(always)]
    pub(crate) fn push_reserved(&mut self, time: Time, serial: u64, payload: T) {
        debug_assert!(
            serial < self.next_serial,
            "serial {serial} was never reserved"
        );
        // An empty wheel follows the insert wherever it lands, so a run
        // whose events jump backwards between generations (pop everything,
        // schedule earlier) never clamps.
        if self.in_buckets == 0 && self.spill.is_empty() && self.drain.is_empty() {
            self.cursor_day = self.day_of(time);
        }
        let offset = self.day_of(time) - self.cursor_day;
        let index = self.alloc_slot(time, serial, payload);
        if offset > self.mask {
            self.spill.push(Reverse((time, serial, index)));
        } else if offset <= 0 {
            // At or before the cursor: the cursor bucket's list was already
            // gathered, so join the sorted drain at the true timestamp's
            // position.
            let key = (time, serial);
            let at = self.drain.partition_point(|&(t, s, _)| (t, s) > key);
            self.drain.insert(at, (time, serial, index));
        } else {
            self.link_into_bucket(((self.cursor_day + offset) & self.mask) as usize, index);
        }
        self.live += 1;
    }

    /// Cancels an entry by serial.  The entry stays in its bucket until a
    /// scan unlinks it (lazy deletion).
    ///
    /// Returns `true` when the serial was live, `false` when it was already
    /// popped or cancelled — in which case this is a no-op, mirroring the
    /// tolerance of a `HashSet`-based tombstone (the classical engine's
    /// pending markers can legitimately outlive their commit).
    pub fn cancel(&mut self, serial: u64) -> bool {
        let word = (serial >> 6) as usize;
        let bit = 1u64 << (serial & 63);
        if self.dead[word] & bit != 0 {
            return false;
        }
        self.dead[word] |= bit;
        self.live -= 1;
        true
    }

    /// Moves the cursor bucket's list into the drain buffer: cancelled
    /// entries are freed, survivors are sorted descending by
    /// `(time, serial)` so the earliest pops off the back.  Called exactly
    /// once per cursor position (the drain is empty at that moment); every
    /// entry here has `day == cursor_day` — future-rotation aliasing is
    /// impossible because the cursor visits each bucket exactly once per
    /// window and inserts never target a bucket the cursor has already
    /// passed in the current rotation.
    fn gather_cursor_bucket(&mut self) {
        let bucket = (self.cursor_day & self.mask) as usize;
        let mut current = self.heads[bucket];
        if current == NIL {
            return;
        }
        self.heads[bucket] = NIL;
        self.mark_bucket_empty(bucket);
        while current != NIL {
            let slot = &self.slots[current as usize];
            let next = slot.next;
            self.in_buckets -= 1;
            if Self::is_dead(&self.dead, slot.serial) {
                self.free.push(current);
            } else {
                self.drain.push((slot.time, slot.serial, current));
            }
            current = next;
        }
        self.drain
            .sort_unstable_by(|&(at, aserial, _), &(bt, bserial, _)| {
                (bt, bserial).cmp(&(at, aserial))
            });
    }

    /// Removes and returns the earliest live entry as
    /// `(time, serial, payload)`, discarding any cancelled entries
    /// encountered on the way.
    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        self.pop_through(Time::MAX)
    }

    /// [`pop`](TimeWheel::pop) limited to entries at or before `last`:
    /// `None` while the earliest live entry is later.  The cursor never
    /// moves past `last`'s day, so entries pushed next after `last` still
    /// land in the ring.  `pop` is the case `last == Time::MAX`.
    #[inline(always)]
    pub(crate) fn pop_through(&mut self, last: Time) -> Option<(Time, u64, T)> {
        if self.live == 0 {
            return None;
        }
        loop {
            // Migrate spill entries that are due at (or before — the spill
            // can only hold future days, but the cursor may have jumped)
            // the cursor into the drain at their sorted position.
            while let Some(&Reverse((time, serial, index))) = self.spill.peek() {
                if self.day_of(time) > self.cursor_day {
                    break;
                }
                self.spill.pop();
                if Self::is_dead(&self.dead, serial) {
                    self.free.push(index);
                    continue;
                }
                let key = (time, serial);
                let at = self.drain.partition_point(|&(t, s, _)| (t, s) > key);
                self.drain.insert(at, (time, serial, index));
            }

            // The earliest entry of the cursor day sits at the back of the
            // drain; cancelled entries are discarded as they surface.
            while let Some(&(time, serial, index)) = self.drain.last() {
                let live = !Self::is_dead(&self.dead, serial);
                if live && time > last {
                    return None;
                }
                self.drain.pop();
                self.free.push(index);
                if live {
                    self.live -= 1;
                    // Popped serials join the dead set so a late cancel() on
                    // them is a detectable no-op.
                    self.dead[(serial >> 6) as usize] |= 1u64 << (serial & 63);
                    let payload = self.slots[index as usize].payload;
                    return Some((time, serial, payload));
                }
            }

            // Nothing live at this cursor position: advance to the next
            // occupied bucket or the earliest spill day, whichever comes
            // first, so due spill entries still migrate in time order.
            let spill_day = self
                .spill
                .peek()
                .map(|&Reverse((time, _, _))| self.day_of(time));
            let next_day = if self.in_buckets == 0 {
                spill_day.expect("live > 0 with an empty ring")
            } else {
                let bucket_day = self.cursor_day + self.next_occupied_offset();
                spill_day.map_or(bucket_day, |day| day.min(bucket_day))
            };
            let last_day = self.day_of(last);
            if next_day > last_day {
                // Everything live lies past `last`'s day: stop there.  The
                // buckets up to it are empty, so the cursor may rest on it
                // without a gather.
                self.cursor_day = self.cursor_day.max(last_day);
                return None;
            }
            self.cursor_day = next_day;
            self.gather_cursor_bucket();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live entry remains.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The serial the next [`push`](TimeWheel::push) will hand out.
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }

    /// Clears the wheel back to its freshly constructed condition while
    /// keeping every allocation (slot arena, ring heads, spill storage,
    /// bitset words).  Serial numbering restarts at zero — see the module
    /// docs for why that is part of the ordering contract.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.heads.fill(NIL);
        self.occupancy.fill(0);
        self.drain.clear();
        self.spill.clear();
        self.dead.clear();
        self.next_serial = 0;
        self.cursor_day = 0;
        self.in_buckets = 0;
        self.live = 0;
    }
}

impl<T: Copy> Default for TimeWheel<T> {
    fn default() -> Self {
        TimeWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain(wheel: &mut TimeWheel<u32>) -> Vec<(i64, u64, u32)> {
        std::iter::from_fn(|| wheel.pop())
            .map(|(time, serial, payload)| (time.as_fs(), serial, payload))
            .collect()
    }

    #[test]
    fn pops_ascend_by_time_then_serial() {
        let mut wheel = TimeWheel::new();
        wheel.push(Time::from_fs(500), 0);
        wheel.push(Time::from_fs(100), 1);
        wheel.push(Time::from_fs(500), 2);
        wheel.push(Time::from_fs(100), 3);
        assert_eq!(
            drain(&mut wheel),
            vec![(100, 1, 1), (100, 3, 3), (500, 0, 0), (500, 2, 2)]
        );
    }

    #[test]
    fn far_future_entries_spill_and_migrate_back() {
        // One-bucket-wide days: almost everything beyond the window.
        let mut wheel = TimeWheel::with_geometry(4, 8);
        let horizon = 16 * 8; // window width in fs
        wheel.push(Time::from_fs(3), 0);
        wheel.push(Time::from_fs(10 * horizon as i64), 1);
        wheel.push(Time::from_fs(2 * horizon as i64), 2);
        wheel.push(Time::from_fs(7), 3);
        assert_eq!(
            drain(&mut wheel),
            vec![
                (3, 0, 0),
                (7, 3, 3),
                (2 * horizon as i64, 2, 2),
                (10 * horizon as i64, 1, 1)
            ]
        );
    }

    #[test]
    fn cancelled_entries_never_pop_and_len_tracks_live() {
        let mut wheel = TimeWheel::new();
        let a = wheel.push(Time::from_fs(100), 0);
        let b = wheel.push(Time::from_fs(200), 1);
        wheel.cancel(a);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop(), Some((Time::from_fs(200), b, 1)));
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn cancelling_a_spill_entry_works() {
        let mut wheel = TimeWheel::with_geometry(4, 8);
        wheel.push(Time::from_fs(1), 0);
        let far = wheel.push(Time::from_fs(1_000_000), 1);
        wheel.cancel(far);
        assert_eq!(drain(&mut wheel), vec![(1, 0, 0)]);
    }

    #[test]
    fn cancel_of_a_popped_serial_is_a_tolerated_no_op() {
        let mut wheel = TimeWheel::new();
        let serial = wheel.push(Time::from_fs(100), 7);
        assert_eq!(wheel.pop(), Some((Time::from_fs(100), serial, 7)));
        // The classical engine's pending markers can outlive their commit;
        // cancelling one must not disturb the live count.
        assert!(!wheel.cancel(serial));
        assert!(wheel.is_empty());
        let other = wheel.push(Time::from_fs(200), 8);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.pop(), Some((Time::from_fs(200), other, 8)));
    }

    #[test]
    fn inserts_before_the_cursor_keep_their_true_time() {
        let mut wheel = TimeWheel::new();
        wheel.push(Time::from_ns(1.0), 0);
        assert!(wheel.pop().is_some());
        // The wheel is empty: the cursor follows the insert backwards.
        wheel.push(Time::from_ns(0.5), 1);
        // Not empty: an even earlier insert clamps into the cursor bucket
        // but still pops first by its true timestamp.
        wheel.push(Time::from_ns(0.25), 2);
        let order: Vec<u32> = std::iter::from_fn(|| wheel.pop())
            .map(|(_, _, p)| p)
            .collect();
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn reset_restores_serials_and_keeps_popping_correctly() {
        let mut wheel = TimeWheel::new();
        wheel.push(Time::from_ns(5.0), 0);
        let doomed = wheel.push(Time::from_ns(6.0), 1);
        wheel.cancel(doomed);
        wheel.reset();
        assert!(wheel.is_empty());
        assert_eq!(wheel.next_serial(), 0);
        let serial = wheel.push(Time::from_ns(1.0), 7);
        assert_eq!(serial, 0);
        assert_eq!(wheel.pop(), Some((Time::from_ns(1.0), 0, 7)));
    }

    #[test]
    fn dense_equal_time_burst_pops_in_insertion_order() {
        let mut wheel = TimeWheel::new();
        for payload in 0..100u32 {
            wheel.push(Time::from_ns(3.0), payload);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| wheel.pop())
            .map(|(_, _, p)| p)
            .collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn arena_recycles_slots_instead_of_growing() {
        let mut wheel = TimeWheel::new();
        for round in 0..50i64 {
            wheel.push(Time::from_fs(round * 1_000), 0);
            wheel.pop();
        }
        // One slot in flight at a time: the arena never needs a second.
        assert_eq!(wheel.slots.len(), 1);
    }

    #[test]
    fn bounded_pop_stops_at_the_bound_and_keeps_the_cursor_there() {
        // 64-fs days, 16-day ring.
        let mut wheel = TimeWheel::with_geometry(6, 16);
        wheel.push(Time::from_fs(100), 0);
        wheel.push(Time::from_fs(900), 1);
        assert_eq!(wheel.pop_through(Time::from_fs(99)), None);
        assert_eq!(wheel.pop_through(Time::from_fs(100)).map(|e| e.2), Some(0));
        // The next entry lies nine days past the bound's: the cursor
        // stops on the bound's day (day 5), not on the entry's.
        assert_eq!(wheel.pop_through(Time::from_fs(320)), None);
        assert_eq!(wheel.cursor_day, 5);
        // A reserved serial handed out before an auto-numbered push pops
        // first at the same instant, though pushed after it.
        let reserved = wheel.reserve_serial();
        let auto = wheel.push(Time::from_fs(900), 3);
        wheel.push_reserved(Time::from_fs(900), reserved, 2);
        assert_eq!(
            drain(&mut wheel),
            vec![(900, 1, 1), (900, reserved, 2), (900, auto, 3)]
        );
    }

    proptest! {
        /// Bounded pops against a sorted-vector model: each
        /// `pop_through(bound)` round returns exactly the live entries up
        /// to the bound in `(time, serial)` order and then `None`, without
        /// moving the cursor past the bound's day.  Some entries are pushed
        /// under serials reserved before later auto-numbered pushes; on a
        /// coarse time grid they must pop first at equal times.
        #[test]
        fn prop_bounded_pops_match_sorted_reference(
            ops in proptest::collection::vec((0i64..400, 0u8..4), 1..200),
            bounds in proptest::collection::vec(0i64..500, 1..8),
        ) {
            // 64-fs days over a 16-day ring; times sit on a 1000-fs grid,
            // so most entries start beyond the ring and equal times are
            // common.
            let mut wheel = TimeWheel::with_geometry(6, 16);
            let mut model: Vec<(i64, u64, u32)> = Vec::new();
            let mut reserved: Vec<(i64, u64, u32)> = Vec::new();
            let mut pushed: Vec<u64> = Vec::new();
            for (index, &(slot, action)) in ops.iter().enumerate() {
                let time = slot * 1_000;
                let payload = index as u32;
                match action {
                    0 => reserved.push((time, wheel.reserve_serial(), payload)),
                    1 if !pushed.is_empty() => {
                        let serial = pushed.swap_remove(index % pushed.len());
                        prop_assert!(wheel.cancel(serial));
                        model.retain(|&(_, s, _)| s != serial);
                    }
                    _ => {
                        let serial = wheel.push(Time::from_fs(time), payload);
                        pushed.push(serial);
                        model.push((time, serial, payload));
                    }
                }
            }
            // Reserved entries go in last, newest reservation first.
            for &(time, serial, payload) in reserved.iter().rev() {
                wheel.push_reserved(Time::from_fs(time), serial, payload);
                model.push((time, serial, payload));
            }
            model.sort_unstable();
            let mut bounds = bounds;
            bounds.sort_unstable();
            for bound in bounds {
                let bound = Time::from_fs(bound * 1_000);
                let cursor = wheel.cursor_day;
                let popped: Vec<(i64, u64, u32)> =
                    std::iter::from_fn(|| wheel.pop_through(bound))
                        .map(|(time, serial, payload)| (time.as_fs(), serial, payload))
                        .collect();
                let due = model.partition_point(|&(time, _, _)| time <= bound.as_fs());
                let expected: Vec<_> = model.drain(..due).collect();
                prop_assert_eq!(popped, expected);
                prop_assert!(wheel.cursor_day <= cursor.max(wheel.day_of(bound)));
                prop_assert_eq!(wheel.len(), model.len());
            }
            prop_assert_eq!(drain(&mut wheel), model);
        }

        /// Against a sorted-vector model: identical (time, serial, payload)
        /// pop sequence for arbitrary pushes, including times far outside
        /// the ring window and interleaved cancellations.
        #[test]
        fn prop_matches_sorted_reference(
            ops in proptest::collection::vec((0i64..2_000_000, 0u8..10), 1..300),
        ) {
            let mut wheel = TimeWheel::with_geometry(6, 16);
            let mut model: Vec<(i64, u64, u32)> = Vec::new();
            for (index, &(time, action)) in ops.iter().enumerate() {
                if action == 0 && !model.is_empty() && index % 3 == 0 {
                    // Cancel the most recently pushed surviving entry.
                    let (_, serial, _) = model.remove(model.len() - 1);
                    wheel.cancel(serial);
                } else {
                    let serial = wheel.push(Time::from_fs(time), index as u32);
                    model.push((time, serial, index as u32));
                }
            }
            model.sort();
            prop_assert_eq!(wheel.len(), model.len());
            let popped = drain(&mut wheel);
            prop_assert_eq!(popped, model);
        }

        /// Interleaved push/pop: popping mid-stream never disturbs global
        /// (time, serial) order of what remains.
        #[test]
        fn prop_interleaved_pops_stay_sorted(
            times in proptest::collection::vec(0i64..500_000, 1..200),
        ) {
            let mut wheel = TimeWheel::with_geometry(8, 32);
            let mut popped = Vec::new();
            for (index, &time) in times.iter().enumerate() {
                wheel.push(Time::from_fs(time), index as u32);
                if index % 4 == 3 {
                    if let Some((t, s, _)) = wheel.pop() {
                        popped.push((t, s));
                    }
                }
            }
            while let Some((t, s, _)) = wheel.pop() {
                popped.push((t, s));
            }
            prop_assert_eq!(popped.len(), times.len());
            // Serial order must hold among equal times *within each
            // uninterrupted drain*; globally, times popped later can only
            // regress when they were pushed later (after a pop).  The
            // fundamental guarantee: each pop returns the minimum of the
            // entries live at that moment — checked by the sorted model
            // above; here we check nothing is lost or duplicated.
            let mut serials: Vec<u64> = popped.iter().map(|&(_, s)| s).collect();
            serials.sort_unstable();
            serials.dedup();
            prop_assert_eq!(serials.len(), times.len());
        }
    }
}
