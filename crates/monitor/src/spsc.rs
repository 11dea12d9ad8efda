//! Lock-free single-producer/single-consumer ring buffer (Lamport, 1983).
//!
//! Each application thread owns the producer end of one queue; the monitor
//! thread owns all consumer ends and drains them round-robin. Insertion
//! happens at the tail and removal at the head, so neither side ever takes
//! a lock — exactly the front-end design of the paper's runtime monitor.
//! Capacity is fixed at construction (the paper sizes the queues "to a
//! sufficiently large value") so the hot path never allocates.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An index on a cache line of its own, so the producer's tail and the
/// consumer's head never share one (no false sharing between the two
/// sides). 128 bytes covers the adjacent-line prefetcher pairs on modern
/// x86_64 and the 128-byte lines on apple-silicon aarch64.
#[repr(align(128))]
struct Padded(AtomicUsize);

const _: () = assert!(align_of::<Padded>() == 128 && size_of::<Padded>() == 128);

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read. Only the consumer writes this.
    head: Padded,
    /// Next slot the producer will write. Only the producer writes this.
    tail: Padded,
}

// SAFETY: the ring is shared between exactly one producer and one consumer;
// slot access is ordered by the head/tail release/acquire pairs below.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

/// Producer half of an SPSC queue.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

/// Consumer half of an SPSC queue.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer").field("len", &self.len()).finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer").field("len", &self.len()).finish()
    }
}

/// Error returned by [`Producer::push`] when the queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull<T>(pub T);

/// Creates a queue holding up to `capacity` elements.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc_queue<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    // One slot is sacrificed to distinguish full from empty.
    let slots = capacity + 1;
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..slots).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let ring = Arc::new(Ring {
        buf,
        head: Padded(AtomicUsize::new(0)),
        tail: Padded(AtomicUsize::new(0)),
    });
    (Producer { ring: Arc::clone(&ring) }, Consumer { ring })
}

impl<T> Producer<T> {
    /// Appends `value` at the back of the queue without locking.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] with the value if the queue has no free slot.
    pub fn push(&self, value: T) -> Result<(), QueueFull<T>> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        let next = (tail + 1) % ring.buf.len();
        if next == ring.head.0.load(Ordering::Acquire) {
            return Err(QueueFull(value));
        }
        // SAFETY: `tail` is owned by this (single) producer and the slot is
        // free: the consumer's head has moved past it (checked above).
        unsafe {
            (*ring.buf[tail].get()).write(value);
        }
        ring.tail.0.store(next, Ordering::Release);
        Ok(())
    }

    /// Number of elements currently queued (racy, for diagnostics).
    pub fn len(&self) -> usize {
        queue_len(&self.ring)
    }

    /// Whether the queue looks empty (racy, for diagnostics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity this queue was created with.
    pub fn capacity(&self) -> usize {
        self.ring.buf.len() - 1
    }
}

impl<T> Consumer<T> {
    /// Removes the element at the front of the queue, if any.
    pub fn pop(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if head == ring.tail.0.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: the slot at `head` was fully written before the producer
        // released `tail` past it, and only this consumer reads it.
        let value = unsafe { (*ring.buf[head].get()).assume_init_read() };
        ring.head.0.store((head + 1) % ring.buf.len(), Ordering::Release);
        Some(value)
    }

    /// Moves up to `max` elements from the front of the queue into `out`,
    /// returning how many were moved.
    ///
    /// This amortizes the cross-core synchronization of [`Consumer::pop`]:
    /// one acquire load of the producer's tail and one release store of the
    /// head cover the whole batch, instead of one pair per element. The
    /// sharded monitor drains its queues through this path.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let ring = &*self.ring;
        let slots = ring.buf.len();
        let head = ring.head.0.load(Ordering::Relaxed);
        let tail = ring.tail.0.load(Ordering::Acquire);
        let available = (tail + slots - head) % slots;
        let take = available.min(max);
        if take == 0 {
            return 0;
        }
        out.reserve(take);
        for i in 0..take {
            // SAFETY: each slot in `head..head+take` was fully written before
            // the producer released `tail` past it (acquired above), and only
            // this consumer reads slots behind `tail`.
            let value = unsafe { (*ring.buf[(head + i) % slots].get()).assume_init_read() };
            out.push(value);
        }
        ring.head.0.store((head + take) % slots, Ordering::Release);
        take
    }

    /// Number of elements currently queued (racy, for diagnostics).
    pub fn len(&self) -> usize {
        queue_len(&self.ring)
    }

    /// Whether the queue looks empty (racy, for diagnostics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity this queue was created with.
    pub fn capacity(&self) -> usize {
        self.ring.buf.len() - 1
    }
}

fn queue_len<T>(ring: &Ring<T>) -> usize {
    let head = ring.head.0.load(Ordering::Acquire);
    let tail = ring.tail.0.load(Ordering::Acquire);
    (tail + ring.buf.len() - head) % ring.buf.len()
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Drain remaining initialized slots so their destructors run.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (p, c) = spsc_queue(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let (p, c) = spsc_queue(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(QueueFull(3)));
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
    }

    #[test]
    fn wraparound() {
        let (p, c) = spsc_queue(3);
        for round in 0..10 {
            p.push(round * 2).unwrap();
            p.push(round * 2 + 1).unwrap();
            assert_eq!(c.pop(), Some(round * 2));
            assert_eq!(c.pop(), Some(round * 2 + 1));
        }
        assert!(c.is_empty());
    }

    #[test]
    fn len_tracks_occupancy() {
        let (p, c) = spsc_queue(4);
        assert_eq!(p.len(), 0);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn cross_thread_stress() {
        let (p, c) = spsc_queue(64);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(QueueFull(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn pop_batch_preserves_fifo_order_across_wraparound() {
        let (p, c) = spsc_queue(4);
        let mut out = Vec::new();
        assert_eq!(c.pop_batch(&mut out, 16), 0);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..10 {
            while p.push(next_in).is_ok() {
                next_in += 1;
            }
            let n = c.pop_batch(&mut out, 3);
            assert!(n <= 3);
            for v in out.drain(..) {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        // Drain the rest in one over-sized batch.
        let n = c.pop_batch(&mut out, usize::MAX);
        assert_eq!(n, out.len());
        for v in out.drain(..) {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        assert!(c.is_empty());
    }

    #[test]
    fn pop_batch_cross_thread_stress() {
        let (p, c) = spsc_queue(64);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.push(v) {
                        Ok(()) => break,
                        Err(QueueFull(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0;
        let mut batch = Vec::new();
        while expected < N {
            if c.pop_batch(&mut batch, 32) > 0 {
                for v in batch.drain(..) {
                    assert_eq!(v, expected);
                    expected += 1;
                }
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn drops_remaining_elements() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (p, c) = spsc_queue(8);
        p.push(Counted).unwrap();
        p.push(Counted).unwrap();
        drop(c);
        drop(p);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
