//! Local stand-in for `parking_lot`: a mutex whose `lock` returns the
//! guard directly. A panic while holding it does not poison it, which is
//! the published crate's behaviour too.

use std::sync::{Mutex as StdMutex, MutexGuard as StdGuard, PoisonError};

pub type MutexGuard<'a, T> = StdGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
