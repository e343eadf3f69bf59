//! Contained panics: [`contain`] turns a panic into its message (a sweep
//! cell, a serve tenant, an injected fault's machine), and the hook
//! [`quiet_contained_panics`] installs keeps such a panic off stderr
//! while every other panic still prints.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

thread_local! {
    /// How many [`contain`] calls are running on this thread.
    static CONTAINING: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` and turns a panic in it into the panic's message. While `f`
/// runs the thread is marked as containing, so the hook
/// [`quiet_contained_panics`] installs does not report the panic.
///
/// # Errors
///
/// Returns the panic's message if `f` panicked.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    CONTAINING.with(|c| c.set(c.get() + 1));
    let ran = catch_unwind(AssertUnwindSafe(f));
    CONTAINING.with(|c| c.set(c.get() - 1));
    ran.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Installs a panic hook that skips the panics a [`contain`] call on the
/// panicking thread will catch, and hands every other panic to the hook
/// it replaces (at first the standard one, which prints the message and
/// the backtrace).
pub fn quiet_contained_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if CONTAINING.with(Cell::get) == 0 {
            previous(info);
        }
    }));
}
