//! Single-producer queues connecting the dispatcher to workers.
//!
//! Thin wrappers over the crossbeam channels the engine already uses; the
//! newtype makes the producer/consumer topology explicit at type level and
//! gives the lint a sanctioned surface (raw `crossbeam::channel` stays
//! inside this crate and the vendored stand-in).

pub use crossbeam::channel::{TryRecvError, TrySendError};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvError, SendError, Sender};

/// Producer half of an SPSC queue.
pub struct SpscSender<T>(Sender<T>);

/// Consumer half of an SPSC queue.
pub struct SpscReceiver<T>(Receiver<T>);

/// Bounded FIFO queue of depth `depth` (at least 1).
pub fn spsc_bounded<T>(depth: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let (tx, rx) = bounded(depth);
    (SpscSender(tx), SpscReceiver(rx))
}

/// Unbounded FIFO queue (completion/return paths that must never stall).
pub fn spsc_unbounded<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    let (tx, rx) = unbounded();
    (SpscSender(tx), SpscReceiver(rx))
}

impl<T> SpscSender<T> {
    /// Blocking send; `Err` means the consumer hung up.
    #[inline]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        #[cfg(vr_model)]
        crate::trace::record("spsc.send", "Release");
        self.0.send(value)
    }

    /// Non-blocking send; `Full` is the backpressure signal the
    /// dispatcher's stall telemetry counts.
    #[inline]
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        #[cfg(vr_model)]
        crate::trace::record("spsc.try_send", "Release");
        self.0.try_send(value)
    }
}

impl<T> SpscReceiver<T> {
    /// Blocking receive; `Err` means the producer hung up and the queue
    /// drained — the worker-loop shutdown signal.
    #[inline]
    pub fn recv(&self) -> Result<T, RecvError> {
        #[cfg(vr_model)]
        crate::trace::record("spsc.recv", "Acquire");
        self.0.recv()
    }

    /// Non-blocking receive.
    #[inline]
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        #[cfg(vr_model)]
        crate::trace::record("spsc.try_recv", "Acquire");
        self.0.try_recv()
    }

    /// Drain until the producer hangs up.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_preserves_fifo_and_reports_backpressure() {
        let (tx, rx) = spsc_bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        match tx.try_send(3) {
            Err(TrySendError::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Empty)));
    }

    #[test]
    fn receiver_sees_hangup_after_producer_drops() {
        let (tx, rx) = spsc_unbounded::<u32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![7]);
        assert!(rx.recv().is_err());
    }
}
