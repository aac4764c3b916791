//! Local stand-in for `crossbeam`: scoped threads over `std::thread::scope`.

pub mod thread {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Handle for spawning threads that may borrow from the caller.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that is joined before [`scope`] returns.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Run `f`, joining every thread it spawned. `Err` when a spawned
    /// thread panicked, as in the published crate (`std::thread::scope`
    /// re-raises instead).
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
