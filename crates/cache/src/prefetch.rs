//! Software-prefetch hint, used to pull a set's metadata rows into the
//! host CPU's cache before the simulator probes them.
//!
//! The simulated caches are large enough (hundreds of KiB of tag and
//! replacement arrays per core) that a randomly addressed probe usually
//! misses the host's own L1/L2; the engine knows each core's next access
//! well before it is simulated, so hinting the rows ahead of time hides
//! that latency behind the other cores' work.
//!
//! This module is the workspace's **sole documented exemption** from the
//! `unsafe_code` lint: `_mm_prefetch` is an intrinsic with no
//! architectural effect (it cannot fault even on an invalid address), so
//! the two wrappers below are sound and keep every caller safe-only. The
//! exemption is an `allow`, not an `expect`: on other targets both
//! `unsafe` blocks compile out.
#![allow(
    unsafe_code,
    reason = "_mm_prefetch is an intrinsic; a prefetch hint cannot fault"
)]

/// Hints the CPU to load the cache line holding `p`. A no-op on
/// non-x86_64 targets and free of architectural effects everywhere, so
/// callers need no `unsafe`.
#[inline]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no architectural effect; it cannot fault even
    // on an invalid address (callers still pass in-bounds pointers).
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(p as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Like [`prefetch_read`], but with write intent (`prefetchw`): the line
/// is pulled in exclusive state, so the store that follows skips the
/// read-for-ownership upgrade. Used for rows the probe will write, such
/// as LRU stamps (every touch stores a new stamp).
#[inline]
pub(crate) fn prefetch_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as for `prefetch_read` — hint only, cannot fault.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
        _mm_prefetch(p as *const i8, _MM_HINT_ET0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
