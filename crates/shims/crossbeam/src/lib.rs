//! In-tree stand-in for the `crossbeam` crate (see the note in the
//! `parking_lot` shim). Only `crossbeam::channel`'s unbounded MPSC
//! surface is provided, backed by `std::sync::mpsc`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Multi-producer channels.
pub mod channel {
    /// Error returned by [`Sender::send`] when the receiver is gone;
    /// carries the unsent message.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half of an unbounded channel (cloneable).
    #[derive(Debug)]
    pub struct Sender<T>(std::sync::mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message; errors only if the receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|e| SendError(e.0))
        }
    }

    /// Receiving half of an unbounded channel.
    #[derive(Debug)]
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block until a message arrives; errors once every sender is
        /// dropped and the queue is drained.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive, `None` when the queue is empty.
        pub fn try_recv(&self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.clone().send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn disconnect_detected() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
