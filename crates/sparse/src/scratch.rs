//! A per-thread pool of reusable `Complex64` scratch buffers.
//!
//! Operator compositions (the QEP operator `P(z)`, the Hamiltonian block
//! views) need temporary vectors inside every application.  Allocating
//! them per matvec puts an allocator round-trip on the hottest path of the
//! whole method; this pool hands out zeroed buffers that are returned and
//! reused, so steady-state operator application performs no allocation.
//!
//! The pool is a thread-local stack, which makes nested borrows (an operator
//! whose scratch-using `apply` calls another scratch-using operator) safe:
//! each nesting level pops its own buffer and pushes it back on exit.

use std::cell::RefCell;

use cbs_linalg::Complex64;

thread_local! {
    static POOL: RefCell<Vec<Vec<Complex64>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zeroed scratch slice of length `len` drawn from the
/// thread-local pool (allocating only if the pool is empty), returning the
/// buffer to the pool afterwards.
///
/// The slice is guaranteed to be all-zero on entry, so callers may rely on
/// the same initial state as a freshly allocated `vec![Complex64::ZERO; len]`.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Complex64]) -> R) -> R {
    let mut buf = take_scratch(len);
    let out = f(&mut buf);
    recycle_scratch(buf);
    out
}

/// Take an owned, zeroed scratch buffer of length `len` from the
/// thread-local pool — the owned twin of [`with_scratch`] for buffers whose
/// lifetime is tied to a value rather than a call scope (the stencil-form
/// diagonal ILU's pivots).  Return it
/// with [`recycle_scratch`]; dropping it instead merely forfeits the reuse.
pub(crate) fn take_scratch(len: usize) -> Vec<Complex64> {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, Complex64::ZERO);
    buf
}

/// [`take_scratch`] for a buffer its user writes in full before reading it
/// (the `u` slab of a split apply): the pooled buffer is resized, not
/// cleared, so only its growth is zeroed and a steady-state take writes
/// nothing.
pub(crate) fn take_scratch_for_overwrite(len: usize) -> Vec<Complex64> {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.resize(len, Complex64::ZERO);
    buf
}

/// Return a buffer obtained from [`take_scratch`] (or any `Vec<Complex64>`
/// whose allocation is worth keeping) to the current thread's pool.
pub(crate) fn recycle_scratch(buf: Vec<Complex64>) {
    POOL.with(|p| p.borrow_mut().push(buf));
}

/// Capacities of the `Complex64` buffers pooled on the current thread.
#[cfg(test)]
pub(crate) fn pooled_capacities() -> Vec<usize> {
    POOL.with(|p| p.borrow().iter().map(Vec::capacity).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_linalg::c64;

    #[test]
    fn scratch_is_zeroed_and_reused() {
        with_scratch(4, |s| {
            assert_eq!(s.len(), 4);
            assert!(s.iter().all(|&z| z == Complex64::ZERO));
            s[0] = c64(1.0, 2.0);
        });
        // The dirtied buffer comes back zeroed, at any size.
        with_scratch(6, |s| {
            assert_eq!(s.len(), 6);
            assert!(s.iter().all(|&z| z == Complex64::ZERO));
        });
        with_scratch(2, |s| {
            assert!(s.iter().all(|&z| z == Complex64::ZERO));
        });
    }

    #[test]
    fn owned_take_recycle_roundtrip() {
        let mut b = take_scratch(5);
        assert!(b.iter().all(|&z| z == Complex64::ZERO));
        b[2] = c64(3.0, 4.0);
        recycle_scratch(b);
        // A recycled (dirtied, longer) buffer comes back zeroed at any size.
        let b2 = take_scratch(3);
        assert_eq!(b2.len(), 3);
        assert!(b2.iter().all(|&z| z == Complex64::ZERO));
        recycle_scratch(b2);
    }

    #[test]
    fn nested_borrows_get_distinct_buffers() {
        with_scratch(3, |outer| {
            outer[0] = c64(5.0, 0.0);
            with_scratch(3, |inner| {
                assert!(inner.iter().all(|&z| z == Complex64::ZERO));
                inner[1] = c64(7.0, 0.0);
            });
            // The outer buffer is untouched by the nested use.
            assert_eq!(outer[0], c64(5.0, 0.0));
        });
    }
}
