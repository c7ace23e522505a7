//! Cancellation tokens and progress callbacks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable cancellation flag.
///
/// [`run_sharded`](crate::run_sharded) checks the token before it starts
/// and after folding each cell: a cancel stops the fold at once, so the
/// sweep returns with exactly the cells folded so far. Helper threads
/// stop at their next block claim, and the results they still have in
/// flight are dropped. Cloning is cheap (an `Arc` handle); all clones
/// observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A progress callback: invoked as `(completed, total)` after each job's
/// result has been delivered (in job-index order) to the consumer.
///
/// The callback runs on the coordinating thread, never on workers, so it
/// may freely mutate captured state — e.g. print a progress bar, or call
/// [`CancelToken::cancel`] to stop the sweep mid-flight.
pub type ProgressFn<'a> = &'a mut dyn FnMut(usize, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
    }
}
