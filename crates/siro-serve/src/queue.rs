//! A bounded MPMC work queue with *rejecting* backpressure.
//!
//! The queue holds only what the serving threads could not run at once:
//! data-plane requests read while every worker was executing, and the
//! pipelined frames after the first of one read. Nobody blocks on it.
//! [`BoundedQueue::try_push`] fails fast with [`PushError::Full`] and
//! the connection answers `Busy`, keeping the queue depth (and therefore
//! tail latency) bounded by construction; [`BoundedQueue::try_pop`]
//! returns `None` at once when nothing is queued. Workers pop after each
//! job they run and when the engine wakes them for a push
//! (`crate::pool`), so the queue needs no condition variable.
//!
//! Closing the queue stops new work but lets consumers drain what is
//! already queued — the graceful-shutdown contract.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Why a push was rejected.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue is closed for new work; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            capacity,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]; both return the item to the caller.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest item without blocking, with whether more
    /// remain behind it. Closing does not stop pops: queued items still
    /// drain.
    pub fn try_pop(&self) -> Option<(T, bool)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let item = inner.items.pop_front()?;
        Some((item, !inner.items.is_empty()))
    }

    /// Closes the queue: future pushes fail, queued items still drain.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_recovers_after_pop() {
        let q = BoundedQueue::new(2);
        q.try_push(1).expect("first");
        q.try_push(2).expect("second");
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some((1, true)));
        q.try_push(3).expect("freed slot");
    }

    #[test]
    fn close_drains_queued_items_then_reports_empty() {
        let q = BoundedQueue::new(4);
        q.try_push("a").expect("push");
        q.try_push("b").expect("push");
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.try_pop(), Some(("a", true)));
        assert_eq!(q.try_pop(), Some(("b", false)));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_preserve_item_count() {
        let q = Arc::new(BoundedQueue::new(8));
        let mut producers = Vec::new();
        for t in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                let mut accepted = 0u64;
                for i in 0..100 {
                    if q.try_push(t * 1000 + i).is_ok() {
                        accepted += 1;
                    }
                }
                accepted
            }));
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    for _ in 0..10_000 {
                        if q.try_pop().is_some() {
                            seen += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    seen
                })
            })
            .collect();
        let accepted: u64 = producers
            .into_iter()
            .map(|h| h.join().expect("producer"))
            .sum();
        let mut seen: u64 = consumers
            .into_iter()
            .map(|h| h.join().expect("consumer"))
            .sum();
        while q.try_pop().is_some() {
            seen += 1;
        }
        assert_eq!(accepted, seen);
    }
}
