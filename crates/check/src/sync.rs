//! The sync shim: drop-in atomics and yield hooks for code that wants to
//! be model-checkable.
//!
//! In a normal build (`--cfg spal_check` absent) every type here is the
//! `std::sync::atomic` original or a `#[repr(transparent)]` zero-cost
//! wrapper, so production code pays nothing. Under
//! `RUSTFLAGS="--cfg spal_check"` the same names resolve to instrumented
//! versions: each operation is a scheduler yield point, release stores
//! publish the thread's vector clock, acquire loads join it, and
//! [`CheckCell`] accesses are race-checked against those clocks.
//!
//! Outside a [`Checker`](crate::Checker) run (no execution bound to the
//! current OS thread) the instrumented versions fall back to the plain
//! behavior, so an `spal_check` build still runs ordinary tests.

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------
// Plain build: straight re-exports / transparent wrappers.
// ---------------------------------------------------------------------

#[cfg(not(spal_check))]
pub use std::sync::atomic::{AtomicU64, AtomicUsize};

#[cfg(not(spal_check))]
pub use std::sync::atomic::AtomicPtr;

/// Busy-wait hint. Under the checker this parks the spinning thread
/// until another thread has been scheduled, which is what keeps
/// spin loops finite during exhaustive exploration.
#[cfg(not(spal_check))]
#[inline(always)]
pub fn spin_loop() {
    std::hint::spin_loop();
}

/// Cooperative yield; same model semantics as [`spin_loop`].
#[cfg(not(spal_check))]
#[inline(always)]
pub fn yield_now() {
    std::thread::yield_now();
}

// ---------------------------------------------------------------------
// Instrumented build.
// ---------------------------------------------------------------------

#[cfg(spal_check)]
mod instrumented {
    use super::Ordering;
    use crate::exec::{self, Park};

    macro_rules! int_atomic {
        ($name:ident, $std:path, $prim:ty) => {
            /// Instrumented integer atomic. Storage is a real atomic
            /// accessed with `SeqCst` while under the checker (the
            /// scheduler serializes model threads, so values are exact);
            /// the *declared* ordering feeds the happens-before
            /// bookkeeping instead.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                #[inline]
                fn addr(&self) -> usize {
                    self as *const _ as usize
                }

                pub fn load(&self, ord: Ordering) -> $prim {
                    match exec::current() {
                        Some((e, me)) => {
                            e.yield_point(me, Park::None);
                            let v = self.inner.load(Ordering::SeqCst);
                            e.atomic_load(me, self.addr(), ord);
                            v
                        }
                        None => self.inner.load(ord),
                    }
                }

                pub fn store(&self, v: $prim, ord: Ordering) {
                    match exec::current() {
                        Some((e, me)) => {
                            e.yield_point(me, Park::None);
                            self.inner.store(v, Ordering::SeqCst);
                            e.atomic_store(me, self.addr(), ord);
                        }
                        None => self.inner.store(v, ord),
                    }
                }

                pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        Some((e, me)) => {
                            e.yield_point(me, Park::None);
                            let old = self.inner.swap(v, Ordering::SeqCst);
                            e.atomic_rmw(me, self.addr(), ord);
                            old
                        }
                        None => self.inner.swap(v, ord),
                    }
                }

                pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                    match exec::current() {
                        Some((e, me)) => {
                            e.yield_point(me, Park::None);
                            let old = self.inner.fetch_add(v, Ordering::SeqCst);
                            e.atomic_rmw(me, self.addr(), ord);
                            old
                        }
                        None => self.inner.fetch_add(v, ord),
                    }
                }

                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);

    /// Instrumented pointer atomic (see the integer variants above).
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const _ as usize
        }

        pub fn load(&self, ord: Ordering) -> *mut T {
            match exec::current() {
                Some((e, me)) => {
                    e.yield_point(me, Park::None);
                    let v = self.inner.load(Ordering::SeqCst);
                    e.atomic_load(me, self.addr(), ord);
                    v
                }
                None => self.inner.load(ord),
            }
        }

        pub fn store(&self, p: *mut T, ord: Ordering) {
            match exec::current() {
                Some((e, me)) => {
                    e.yield_point(me, Park::None);
                    self.inner.store(p, Ordering::SeqCst);
                    e.atomic_store(me, self.addr(), ord);
                }
                None => self.inner.store(p, ord),
            }
        }

        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            match exec::current() {
                Some((e, me)) => {
                    e.yield_point(me, Park::None);
                    let old = self.inner.swap(p, Ordering::SeqCst);
                    e.atomic_rmw(me, self.addr(), ord);
                    old
                }
                None => self.inner.swap(p, ord),
            }
        }

        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }
    }

    pub fn spin_loop() {
        match exec::current() {
            Some((e, me)) => e.yield_point(me, Park::Spin),
            None => std::hint::spin_loop(),
        }
    }

    pub fn yield_now() {
        match exec::current() {
            Some((e, me)) => e.yield_point(me, Park::Spin),
            None => std::thread::yield_now(),
        }
    }
}

#[cfg(spal_check)]
pub use instrumented::{spin_loop, yield_now, AtomicPtr, AtomicU64, AtomicUsize};

// ---------------------------------------------------------------------
// CheckCell: UnsafeCell with (optional) race detection.
// ---------------------------------------------------------------------

/// An `UnsafeCell` whose accesses the checker race-checks against the
/// happens-before relation built from the shim atomics.
///
/// Access goes through [`with`](CheckCell::with) (shared read) and
/// [`with_mut`](CheckCell::with_mut) (exclusive write), which hand out
/// the raw pointer exactly like `UnsafeCell::get`.
///
/// # Safety contract
/// The caller upholds the same aliasing discipline as with a bare
/// `UnsafeCell`: the pointer must not outlive the closure, and actual
/// exclusivity (e.g. the SPSC single-producer/single-consumer rule) is
/// the caller's responsibility. The checker *verifies* that discipline
/// across explored schedules; it does not enforce it at runtime in
/// plain builds.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct CheckCell<T> {
    inner: std::cell::UnsafeCell<T>,
}

// SAFETY: same bound UnsafeCell-based containers use: sharing is sound
// as long as the contained value can move between threads. `&CheckCell`
// hands out only raw pointers, and the caller upholds exclusivity (the
// type's safety contract above), which the checker verifies.
unsafe impl<T: Send> Sync for CheckCell<T> {}

impl<T> CheckCell<T> {
    pub const fn new(v: T) -> Self {
        CheckCell {
            inner: std::cell::UnsafeCell::new(v),
        }
    }

    /// Shared (read) access. Recorded as a read in instrumented builds.
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        #[cfg(spal_check)]
        if let Some((e, me)) = crate::exec::current() {
            e.cell_access(me, self as *const _ as usize, false);
        }
        f(self.inner.get())
    }

    /// Exclusive (write) access. Recorded as a write in instrumented
    /// builds.
    #[inline(always)]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        #[cfg(spal_check)]
        if let Some((e, me)) = crate::exec::current() {
            e.cell_access(me, self as *const _ as usize, true);
        }
        f(self.inner.get())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}
