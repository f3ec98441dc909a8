//! Vendored, offline stand-in for the part of `crossbeam` this workspace
//! uses: bounded MPMC channels with blocking `send`/`recv`, disconnect
//! semantics and a draining `iter()`.
//!
//! Built on `std::sync::{Mutex, Condvar}`. Throughput is lower than real
//! crossbeam's lock-free queues, but the pipeline's stage work dominates by
//! orders of magnitude, so the difference is irrelevant here.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Create a bounded MPMC channel with the given capacity (minimum 1).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent message is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half of a bounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue `value`. Fails (returning
        /// the value) once every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.queue.len() < self.shared.capacity {
                    state.queue.push_back(value);
                    drop(state);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                state = self.shared.not_full.wait(state).unwrap();
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives. Fails once the queue is empty and
        /// every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.not_empty.wait(state).unwrap();
            }
        }

        /// A blocking iterator that drains the channel until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                // Wake senders blocked on a full queue so they observe the
                // disconnect instead of waiting forever.
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, RecvError, SendError};
    use std::thread;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let collected: Vec<i32> = rx.iter().collect();
        producer.join().unwrap();
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn receiver_drop_wakes_blocked_senders() {
        let (tx, rx) = bounded(1);
        tx.send(0u8).unwrap();
        let producer = thread::spawn(move || tx.send(1)); // blocks: queue full
        thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert!(producer.join().unwrap().is_err());
    }

    #[test]
    fn mpmc_delivers_every_message_once() {
        let (tx, rx) = bounded(8);
        let mut workers = Vec::new();
        for _ in 0..4 {
            let rx = rx.clone();
            workers.push(thread::spawn(move || rx.iter().count()));
        }
        drop(rx);
        for i in 0..1000 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }
}
