//! [`AlignedVec`]: fixed-length heap storage aligned to a cache line.
//!
//! The paper's one-memory-access property (§III.B.2) assumes a filter word
//! maps to *one* unit of memory transfer. A `Vec<u64>` only guarantees
//! 8-byte alignment, so a 512-bit [`WideWord`](crate::WideWord) — and any
//! word array read through 32/64-byte SIMD loads — could straddle two cache
//! lines, silently doubling the memory traffic the whole design is built to
//! avoid. `AlignedVec` allocates its buffer at [`CACHE_LINE_BYTES`]
//! alignment, so word `i` of a `w`-bit filter begins at byte `i·w/8` of a
//! line-aligned block and a word never spans two lines for any `w ≤ 512`
//! that divides the line.
//!
//! The container is deliberately minimal: fixed length at construction, no
//! growth, `Deref<Target = [T]>` for everything else. That is exactly the
//! shape of a filter's word array — sized once from the validated
//! configuration, then indexed forever.
//!
//! # Safety
//!
//! This module owns the only `unsafe` in the crate. The invariants,
//! upheld by every constructor and relied on by every method:
//!
//! 1. `ptr` came from `alloc::alloc` with `Self::layout(len)` (or is
//!    `NonNull::dangling()` when `len == 0`, which no method dereferences
//!    because the slice it produces is empty);
//! 2. all `len` elements are initialised before the constructor returns
//!    (on a panic mid-construction the guard drops the initialised prefix
//!    and frees the buffer);
//! 3. the buffer is freed with the same layout it was allocated with, and
//!    elements are dropped exactly once, in `Drop`.

#![allow(unsafe_code)]

use core::fmt;
use core::marker::PhantomData;
use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

/// The alignment (and assumed size) of one cache line, in bytes.
pub const CACHE_LINE_BYTES: usize = 64;

/// A fixed-length, cache-line-aligned boxed slice.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
    _owns: PhantomData<T>,
}

// SAFETY: AlignedVec owns its elements exactly like Vec<T> does; sending or
// sharing it is sending or sharing the Ts themselves.
unsafe impl<T: Send> Send for AlignedVec<T> {}
// SAFETY: see above — &AlignedVec<T> only hands out &T.
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

/// Advises the kernel to back `[start, end)` with transparent huge
/// pages (`madvise(MADV_HUGEPAGE)`) — the engine behind
/// [`AlignedVec::advise_huge`] and [`AlignedVec::filled_huge`]. Issued
/// as a raw syscall because the workspace links no libc bindings; on
/// non-Linux/x86-64 targets, or when the kernel declines (THP disabled,
/// unaligned remainder), this is a no-op — correctness never depends on
/// it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn advise_huge_raw(start: usize, end: usize) {
    const SYS_MADVISE: usize = 28;
    const MADV_HUGEPAGE: usize = 14;
    const PAGE: usize = 4096;
    let lo = (start + PAGE - 1) & !(PAGE - 1);
    let hi = end & !(PAGE - 1);
    if hi <= lo {
        return;
    }
    // SAFETY: madvise(MADV_HUGEPAGE) over a page-aligned subrange of
    // our own live allocation; it never unmaps or alters contents,
    // and the return value (advice taken or not) is ignorable.
    unsafe {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE as isize => ret,
            in("rdi") lo,
            in("rsi") hi - lo,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        let _ = ret;
    }
}

/// No-op fallback for targets without the Linux/x86-64 syscall path.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn advise_huge_raw(_start: usize, _end: usize) {}

/// Drops the initialised prefix and frees the buffer if a constructor
/// panics before handing ownership to `AlignedVec`.
struct BuildGuard<T> {
    ptr: NonNull<T>,
    initialised: usize,
    layout: Layout,
}

impl<T> Drop for BuildGuard<T> {
    fn drop(&mut self) {
        // SAFETY: exactly `initialised` leading elements have been written
        // (invariant 2); the buffer came from `alloc` with `layout`.
        unsafe {
            core::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.initialised)
                .drop_in_place();
            dealloc(self.ptr.as_ptr().cast(), self.layout);
        }
    }
}

impl<T> AlignedVec<T> {
    fn layout(len: usize) -> Layout {
        Layout::array::<T>(len)
            .and_then(|l| l.align_to(CACHE_LINE_BYTES))
            .expect("aligned allocation size overflows")
    }

    /// Allocates `len` elements, initialising element `i` to `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        if len == 0 {
            return AlignedVec {
                ptr: NonNull::dangling(),
                len: 0,
                _owns: PhantomData,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: `len > 0` and `T` is sized, so `layout` is non-zero-sized.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout);
        };
        let mut guard = BuildGuard {
            ptr,
            initialised: 0,
            layout,
        };
        for i in 0..len {
            // SAFETY: `i < len`, so `ptr.add(i)` is in the allocation; the
            // slot is uninitialised, so `write` leaks nothing.
            unsafe { ptr.as_ptr().add(i).write(f(i)) };
            guard.initialised = i + 1;
        }
        core::mem::forget(guard);
        AlignedVec {
            ptr,
            len,
            _owns: PhantomData,
        }
    }

    /// Allocates `len` copies of `value`.
    pub fn filled(len: usize, value: T) -> Self
    where
        T: Clone,
    {
        Self::from_fn(len, |_| value.clone())
    }

    /// [`AlignedVec::filled`], but the fresh buffer is advised toward
    /// transparent huge pages *before* the fill first touches it. At
    /// hundreds of megabytes the eager fill is otherwise dominated by
    /// one minor page fault per 4 KB page; hugepage faults cut the
    /// fault count 512-fold, leaving a bandwidth-bound fill — and the
    /// buffer keeps its TLB advantage for whatever scattered access
    /// follows (the bulk builder's word array). Purely advisory, like
    /// [`AlignedVec::advise_huge`].
    pub fn filled_huge(len: usize, value: T) -> Self
    where
        T: Clone,
    {
        if len == 0 {
            return Self::filled(len, value);
        }
        let layout = Self::layout(len);
        // SAFETY: `len > 0` and `T` is sized, so `layout` is non-zero-sized.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout);
        };
        advise_huge_raw(raw as usize, raw as usize + layout.size());
        let mut guard = BuildGuard {
            ptr,
            initialised: 0,
            layout,
        };
        for i in 0..len {
            // SAFETY: `i < len`, so `ptr.add(i)` is in the allocation; the
            // slot is uninitialised, so `write` leaks nothing.
            unsafe { ptr.as_ptr().add(i).write(value.clone()) };
            guard.initialised = i + 1;
        }
        core::mem::forget(guard);
        AlignedVec {
            ptr,
            len,
            _owns: PhantomData,
        }
    }

    /// Advises the kernel to back this buffer with transparent huge
    /// pages (`madvise(MADV_HUGEPAGE)`). Purely advisory: sizing a TLB
    /// entry at 2 MB instead of 4 KB turns a gigabyte-scale buffer from
    /// ~250k TLB entries into ~500, which matters for buffers written
    /// at random offsets (the bulk builder's staging slab). Issued as a
    /// raw syscall because the workspace links no libc bindings; on
    /// non-Linux/x86-64 targets, or when the kernel declines (THP
    /// disabled, unaligned remainder), this is a no-op — correctness
    /// never depends on it. Call before the first write: already-
    /// faulted 4 KB pages are only collapsed lazily, if ever.
    pub fn advise_huge(&mut self) {
        let start = self.ptr.as_ptr() as usize;
        advise_huge_raw(start, start + self.len * core::mem::size_of::<T>());
    }

    /// Collects an iterator of exactly `len` elements.
    ///
    /// # Panics
    /// Panics if the iterator yields fewer than `len` elements.
    pub fn from_iter_exact(len: usize, iter: impl IntoIterator<Item = T>) -> Self {
        let mut iter = iter.into_iter();
        Self::from_fn(len, |_| iter.next().expect("iterator shorter than len"))
    }

    /// The fixed element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: invariants 1–2 — `ptr` is valid for `len` initialised
        // elements (dangling only when `len == 0`, which is a valid empty
        // slice pointer since it is non-null and aligned for `T`).
        unsafe { core::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: as `as_slice`, plus `&mut self` guarantees uniqueness.
        unsafe { core::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// Advises the kernel to back a live slice's pages with transparent
/// huge pages, exactly like [`AlignedVec::advise_huge`] but for any
/// caller-owned buffer — notably a `vec![0u64; n]`, whose allocation
/// rides `calloc`'s untouched copy-on-write zero pages (the `System`
/// allocator only takes that lazy path at default alignment, which is
/// precisely why a gigabyte-scale staging buffer should *not* be an
/// `AlignedVec`: at 64-byte alignment `alloc_zeroed` falls back to an
/// eager `memset` of the whole span). Advisory and content-preserving;
/// a no-op off Linux/x86-64 or when the kernel declines.
pub fn advise_huge_slice<T>(slice: &mut [T]) {
    let start = slice.as_mut_ptr() as usize;
    advise_huge_raw(start, start + core::mem::size_of_val(slice));
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: invariant 3 — elements are initialised and dropped here
        // exactly once; the buffer came from `alloc` with `layout(len)`.
        unsafe {
            core::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len).drop_in_place();
            dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len));
        }
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_fn(self.len, |i| self.as_slice()[i].clone())
    }
}

impl<T: PartialEq> PartialEq for AlignedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for AlignedVec<T> {}

impl<T: fmt::Debug> fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a, T> IntoIterator for &'a AlignedVec<T> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T> IntoIterator for &'a mut AlignedVec<T> {
    type Item = &'a mut T;
    type IntoIter = core::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_cache_line_aligned() {
        for len in [1usize, 2, 63, 64, 65, 1000] {
            let v: AlignedVec<u64> = AlignedVec::filled(len, 0);
            assert_eq!(
                v.as_slice().as_ptr() as usize % CACHE_LINE_BYTES,
                0,
                "len {len}"
            );
        }
        let wide: AlignedVec<[u64; 8]> = AlignedVec::filled(7, [0; 8]);
        assert_eq!(wide.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn behaves_like_a_slice() {
        let mut v = AlignedVec::from_fn(10, |i| i as u64);
        assert_eq!(v.len(), 10);
        assert_eq!(v[3], 3);
        v[3] = 99;
        assert_eq!(v.iter().sum::<u64>(), 1 + 2 + 99 + 4 + 5 + 6 + 7 + 8 + 9);
        for x in &mut v {
            *x += 1;
        }
        assert_eq!(v[0], 1);
    }

    #[test]
    fn empty_is_fine() {
        let v: AlignedVec<u64> = AlignedVec::from_fn(0, |_| unreachable!());
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u64]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn clone_and_eq_are_elementwise() {
        let v = AlignedVec::from_fn(100, |i| i * 3);
        let w = v.clone();
        assert_eq!(v, w);
        let mut x = v.clone();
        x[50] = 0;
        assert_ne!(v, x);
    }

    #[test]
    fn drops_every_element_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let v = AlignedVec::from_fn(25, |_| Counted);
        drop(v);
        assert_eq!(DROPS.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn filled_huge_matches_filled() {
        let a = AlignedVec::<u64>::filled(70_000, 0xdead_beef);
        let b = AlignedVec::<u64>::filled_huge(70_000, 0xdead_beef);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(b.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
        let empty = AlignedVec::<u32>::filled_huge(0, 7);
        assert!(empty.is_empty());
    }

    #[test]
    fn huge_advice_preserves_contents() {
        // Advisory only: contents must be untouched, for both the
        // AlignedVec method and the free-slice helper.
        let mut v = AlignedVec::<u64>::filled(100_000, 3);
        v.advise_huge();
        assert!(v.iter().all(|&x| x == 3));
        let mut plain = vec![0u64; 100_000];
        super::advise_huge_slice(&mut plain);
        assert!(plain.iter().all(|&x| x == 0));
        plain[12_345] = 7;
        super::advise_huge_slice(&mut plain[..0]);
        assert_eq!(plain[12_345], 7);
    }

    #[test]
    fn from_iter_exact_roundtrips() {
        let v = AlignedVec::from_iter_exact(4, [10u64, 20, 30, 40]);
        assert_eq!(v.as_slice(), &[10, 20, 30, 40]);
    }

    #[test]
    fn works_with_non_clone_elements() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let v: AlignedVec<AtomicU64> = AlignedVec::from_fn(16, |i| AtomicU64::new(i as u64));
        assert_eq!(v[5].load(Ordering::Relaxed), 5);
        assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
    }
}
