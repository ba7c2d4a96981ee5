//! The burst hand-off between a connection's socket reader and its session
//! worker: a bounded queue the reader fills with everything one `read`
//! decoded under one lock, and the worker empties whole.
//!
//! The bound is on items *in flight* — queued, plus the batch the worker
//! took last and is still applying; the worker gives those slots back when
//! it comes for the next batch. Either side notices the other vanishing,
//! like `mpsc`: a dropped (or poisoned) end reads as [`Disconnected`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The other end of the queue is gone.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct Disconnected;

struct State<T> {
    queue: VecDeque<T>,
    /// Size of the batch the receiver is working through.
    held: usize,
    // A side is only notified when it said it is waiting: a burst that
    // fits costs no futex call at all.
    sender_waiting: bool,
    receiver_waiting: bool,
    sender_alive: bool,
    receiver_alive: bool,
}

struct Shared<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> Result<MutexGuard<'_, State<T>>, Disconnected> {
        self.state.lock().map_err(|_| Disconnected)
    }
}

/// The reader's end.
pub(super) struct BurstSender<T>(Arc<Shared<T>>);

/// The worker's end.
pub(super) struct BurstReceiver<T>(Arc<Shared<T>>);

/// A queue that never has more than `capacity` items in flight.
pub(super) fn burst_channel<T>(capacity: usize) -> (BurstSender<T>, BurstReceiver<T>) {
    let shared = Arc::new(Shared {
        capacity,
        state: Mutex::new(State {
            queue: VecDeque::new(),
            held: 0,
            sender_waiting: false,
            receiver_waiting: false,
            sender_alive: true,
            receiver_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (BurstSender(Arc::clone(&shared)), BurstReceiver(shared))
}

impl<T> BurstSender<T> {
    /// Move the longest prefix of `pending` that fits into the queue, in
    /// order, under one lock, waking the receiver at most once. With a full
    /// queue, blocks until at least one item fits. Returns how many items
    /// moved.
    pub(super) fn send_some(&self, pending: &mut VecDeque<T>) -> Result<usize, Disconnected> {
        if pending.is_empty() {
            return Ok(0);
        }
        let shared = &*self.0;
        let mut state = shared.lock()?;
        loop {
            if !state.receiver_alive {
                return Err(Disconnected);
            }
            let room = shared
                .capacity
                .saturating_sub(state.queue.len() + state.held);
            if room > 0 {
                let moved = room.min(pending.len());
                state.queue.extend(pending.drain(..moved));
                let wake = moved > 0 && std::mem::take(&mut state.receiver_waiting);
                drop(state);
                if wake {
                    shared.not_empty.notify_one();
                }
                return Ok(moved);
            }
            state.sender_waiting = true;
            state = shared.not_full.wait(state).map_err(|_| Disconnected)?;
        }
    }
}

impl<T> BurstReceiver<T> {
    /// Give back the slots of the previous batch, block until something is
    /// queued, and take all of it into `batch` (emptied first). Items
    /// queued before the sender vanished are still delivered.
    pub(super) fn recv_all(&mut self, batch: &mut VecDeque<T>) -> Result<(), Disconnected> {
        batch.clear();
        let shared = &*self.0;
        let mut state = shared.lock()?;
        state.held = 0;
        if state.queue.len() < shared.capacity && std::mem::take(&mut state.sender_waiting) {
            shared.not_full.notify_one();
        }
        while state.queue.is_empty() {
            if !state.sender_alive {
                return Err(Disconnected);
            }
            state.receiver_waiting = true;
            state = shared.not_empty.wait(state).map_err(|_| Disconnected)?;
        }
        state.receiver_waiting = false;
        std::mem::swap(&mut state.queue, batch);
        state.held = batch.len();
        Ok(())
    }
}

impl<T> Drop for BurstSender<T> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.0.lock() {
            state.sender_alive = false;
        }
        self.0.not_empty.notify_one();
    }
}

impl<T> Drop for BurstReceiver<T> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.0.lock() {
            state.receiver_alive = false;
            state.queue.clear();
        }
        self.0.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    fn in_flight<T>(tx: &BurstSender<T>) -> usize {
        let state = tx.0.lock().unwrap();
        state.queue.len() + state.held
    }

    #[test]
    fn a_stalled_receiver_caps_in_flight_items_at_capacity() {
        for capacity in [1usize, 2, 256] {
            let (tx, mut rx) = burst_channel::<u32>(capacity);
            let offered = 3 * capacity + 5;
            let mut pending: VecDeque<u32> = (0..offered as u32).collect();
            let mut batch = VecDeque::new();
            let mut seen = Vec::new();

            // The receiver never comes: exactly `capacity` items fit.
            assert_eq!(tx.send_some(&mut pending), Ok(capacity));
            assert_eq!(in_flight(&tx), capacity);

            // It takes a batch and stalls inside it: those items are still
            // in flight.
            rx.recv_all(&mut batch).unwrap();
            assert_eq!(batch.len(), capacity);
            seen.extend(batch.iter().copied());
            assert_eq!(in_flight(&tx), capacity);

            // Coming back for more is what frees the slots. A blocked
            // sender refills them; in flight never passes the bound.
            let (peak_tx, peak_rx) = mpsc::channel();
            let sender = std::thread::spawn(move || {
                let mut peak = 0;
                while !pending.is_empty() {
                    tx.send_some(&mut pending).unwrap();
                    peak = peak.max(in_flight(&tx));
                }
                peak_tx.send(peak).unwrap();
            });
            while rx.recv_all(&mut batch).is_ok() {
                assert!(batch.len() <= capacity);
                seen.extend(batch.iter().copied());
            }
            sender.join().unwrap();
            assert!(peak_rx.recv().unwrap() <= capacity);
            assert_eq!(seen, (0..offered as u32).collect::<Vec<_>>(), "in order");
        }
    }

    #[test]
    fn a_burst_that_fits_is_one_batch_in_order() {
        let (tx, mut rx) = burst_channel::<u32>(256);
        let mut pending: VecDeque<u32> = (0..200).collect();
        assert_eq!(tx.send_some(&mut pending), Ok(200));
        let mut batch = VecDeque::new();
        rx.recv_all(&mut batch).unwrap();
        assert_eq!(batch, (0..200).collect::<VecDeque<u32>>());
    }

    #[test]
    fn dropping_the_receiver_unblocks_a_waiting_sender() {
        let (tx, rx) = burst_channel::<u32>(1);
        let mut pending: VecDeque<u32> = (0..2).collect();
        assert_eq!(tx.send_some(&mut pending), Ok(1));
        let (blocked_tx, blocked_rx) = mpsc::channel();
        let sender = std::thread::spawn(move || {
            blocked_tx.send(()).unwrap();
            tx.send_some(&mut pending)
        });
        blocked_rx.recv().unwrap();
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(Disconnected));
    }

    #[test]
    fn dropping_the_sender_unblocks_the_receiver_after_the_backlog() {
        let (tx, mut rx) = burst_channel::<u32>(4);
        let mut pending: VecDeque<u32> = (0..3).collect();
        assert_eq!(tx.send_some(&mut pending), Ok(3));
        let (waiting_tx, waiting_rx) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            let mut batch = VecDeque::new();
            rx.recv_all(&mut batch).unwrap();
            let backlog: Vec<u32> = batch.iter().copied().collect();
            waiting_tx.send(()).unwrap();
            (backlog, rx.recv_all(&mut batch))
        });
        waiting_rx.recv().unwrap();
        drop(tx);
        let (backlog, after) = receiver.join().unwrap();
        assert_eq!(backlog, vec![0, 1, 2], "queued items survive the sender");
        assert_eq!(after, Err(Disconnected));
    }
}
