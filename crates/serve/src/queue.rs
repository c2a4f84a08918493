//! The bounded micro-batching queue: admission control and batch
//! formation in one structure.
//!
//! [`BatchQueue::try_push`] is the admission edge — it never blocks and
//! never grows past the configured capacity, so overload turns into an
//! explicit [`PushError::Full`] (a load-shed response upstream) instead
//! of unbounded queueing delay. [`BatchQueue::pop_batch`] is the batch
//! former, and it is work-conserving: it blocks for the first request,
//! then takes whatever is already queued (up to `max_batch`) and returns
//! at once. No timer holds a request back for company; batches grow
//! under load because requests pile up while the previous pass runs.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why an admission attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — shed the request.
    Full,
    /// The queue has been closed (engine shutting down).
    Closed,
}

/// A bounded MPMC queue drained in batches.
#[derive(Debug)]
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BatchQueue<T> {
    /// A queue admitting at most `cap` waiting items.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn bounded(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        BatchQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            cap,
        }
    }

    /// Admit one item without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_reclaim(item).map_err(|(_, e)| e)
    }

    /// [`try_push`](Self::try_push), but a refused item is handed back
    /// instead of dropped — for items whose `Drop` has side effects
    /// (the engine's answer-on-drop jobs must not emit a reply when
    /// admission itself already answered with an error).
    ///
    /// # Errors
    ///
    /// As [`try_push`](Self::try_push), with the item attached.
    pub fn try_push_reclaim(&self, item: T) -> Result<(), (T, PushError)> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed {
            return Err((item, PushError::Closed));
        }
        if s.items.len() >= self.cap {
            return Err((item, PushError::Full));
        }
        s.items.push_back(item);
        self.available.notify_one();
        Ok(())
    }

    /// Number of items currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Close the queue: future pushes fail with [`PushError::Closed`];
    /// waiting poppers drain what is left and then observe `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Block until an item is waiting or the queue is closed; the
    /// guard holds at least one item unless the queue is drained.
    fn wait_nonempty(&self) -> MutexGuard<'_, State<T>> {
        let mut s = self.state.lock().expect("queue poisoned");
        while s.items.is_empty() && !s.closed {
            s = self.available.wait(s).expect("queue poisoned");
        }
        s
    }

    /// Block until an item is waiting, without taking it. Returns
    /// `false` only when the queue is closed and fully drained. A
    /// consumer that must acquire something before it forms a batch
    /// (a compute slot) waits here first, so requests arriving in the
    /// meantime still join the batch it then pops.
    pub fn wait_ready(&self) -> bool {
        !self.wait_nonempty().items.is_empty()
    }

    /// Form the next batch: block for the first item, then take every
    /// item already waiting, up to `max_batch`, and return at once.
    /// Returns `None` only when the queue is closed and fully drained.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<T>> {
        assert!(max_batch > 0, "max_batch must be positive");
        let mut s = self.wait_nonempty();
        let n = max_batch.min(s.items.len());
        (n > 0).then(|| s.items.drain(..n).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn sheds_at_capacity_instead_of_growing() {
        let q = BatchQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.len(), 2);
        // Draining frees capacity again.
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch, vec![1, 2]);
        q.try_push(4).unwrap();
    }

    #[test]
    fn full_batch_returns_without_waiting() {
        let q = BatchQueue::bounded(16);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let t0 = Instant::now();
        let batch = q.pop_batch(4).unwrap();
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert!(t0.elapsed() < Duration::from_secs(1), "must not wait");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn single_item_is_returned_without_waiting() {
        let q = BatchQueue::bounded(16);
        q.try_push(7).unwrap();
        let t0 = Instant::now();
        assert!(q.wait_ready());
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch, vec![7]);
        let waited = t0.elapsed();
        assert!(waited < Duration::from_millis(10), "waited {waited:?}");
    }

    #[test]
    fn close_wakes_poppers_and_rejects_pushes() {
        let q = Arc::new(BatchQueue::<u32>::bounded(4));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
        assert!(!q.wait_ready(), "a closed, drained queue is never ready");
        assert_eq!(q.try_push(1), Err(PushError::Closed));
    }
}
