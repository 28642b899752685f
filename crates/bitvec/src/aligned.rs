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
//! Two page-level tools ride along for the bulk builder, which builds a
//! gigabyte-scale word array region by region next to staging buffers of
//! comparable size: [`LazyVec`], a word array whose chunks are written
//! (and so faulted in) only when first accessed, and [`release_pages`],
//! which hands a drained buffer's pages back to the kernel before it is
//! freed. Both keep the resident set near the larger of the two buffers
//! rather than their sum.
//!
//! # Safety
//!
//! This module owns the only `unsafe` in the crate. The invariants,
//! upheld by every constructor and relied on by every method:
//!
//! 1. `ptr` came from `alloc::alloc` with `Self::layout(len)` (or is
//!    `NonNull::dangling()` when that layout is zero-sized — `len == 0`
//!    or a zero-sized `T` — where every access is a no-op and nothing is
//!    freed);
//! 2. all `len` elements are initialised before the constructor returns
//!    (on a panic mid-construction the guard drops the initialised prefix
//!    and frees the buffer) — trivially so for the `MaybeUninit<T>`
//!    buffer behind a [`LazyVec`], which tracks per chunk which of its
//!    `T`s are written and hands out `&mut [T]` only over those;
//! 3. the buffer is freed with the same layout it was allocated with, and
//!    elements are dropped exactly once, in `Drop`.
//!
//! [`AlignedVec::map_in_place`] keeps all three across a change of element
//! type: it only accepts a type of the same size and alignment (a
//! compile-time check), so the layout, and with it the buffer, carry over.

#![allow(unsafe_code)]

use core::fmt;
use core::marker::PhantomData;
use core::mem::{ManuallyDrop, MaybeUninit};
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

/// `madvise(MADV_HUGEPAGE)`: back a range with transparent huge pages.
const MADV_HUGEPAGE: usize = 14;
/// `madvise(MADV_DONTNEED)`: drop a range's pages; private anonymous
/// memory reads back as zeros, faulted in again on the next touch.
const MADV_DONTNEED: usize = 4;

/// Issues `madvise(advice)` over the whole pages inside `[start, end)` —
/// the engine behind the huge-page advice and [`release_pages`]. Issued
/// as a raw syscall because the workspace links no libc bindings; on
/// non-Linux/x86-64 targets, or when the kernel declines (THP disabled,
/// locked pages), this is a no-op — correctness never depends on it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn madvise_raw(start: usize, end: usize, advice: usize) {
    const SYS_MADVISE: usize = 28;
    const PAGE: usize = 4096;
    let lo = (start + PAGE - 1) & !(PAGE - 1);
    let hi = end & !(PAGE - 1);
    if hi <= lo {
        return;
    }
    // SAFETY: madvise over a page-aligned subrange of one live
    // allocation the caller holds exclusively (or, for MADV_HUGEPAGE,
    // content-preserving advice). It never unmaps anything; the one
    // content-changing advice, MADV_DONTNEED, is only issued on integer
    // buffers whose every bit pattern is valid (see `release_pages`).
    // The return value (advice taken or not) is ignorable.
    unsafe {
        let ret: isize;
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE as isize => ret,
            in("rdi") lo,
            in("rsi") hi - lo,
            in("rdx") advice,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        let _ = ret;
    }
}

/// No-op fallback for targets without the Linux/x86-64 syscall path.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise_raw(_start: usize, _end: usize, _advice: usize) {}

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
        // (invariant 2); a non-zero-sized buffer came from `alloc` with
        // `layout` (a zero-sized one is dangling and never allocated).
        unsafe {
            core::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.initialised)
                .drop_in_place();
            if self.layout.size() != 0 {
                dealloc(self.ptr.as_ptr().cast(), self.layout);
            }
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
        let ptr = Self::allocate(len, false);
        if len == 0 {
            return AlignedVec {
                ptr,
                len: 0,
                _owns: PhantomData,
            };
        }
        let mut guard = BuildGuard {
            ptr,
            initialised: 0,
            layout: Self::layout(len),
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

    /// Allocates room for `len` elements without writing any (so no
    /// page of a large buffer is touched yet), advised toward huge pages
    /// when `huge` is set: at hundreds of megabytes a fill is otherwise
    /// dominated by one minor page fault per 4 KB page, and hugepage
    /// faults cut the count 512-fold. Dangling when that is zero bytes
    /// (`len == 0` or a zero-sized `T`), which `Drop` then never frees.
    fn allocate(len: usize, huge: bool) -> NonNull<T> {
        let layout = Self::layout(len);
        if layout.size() == 0 {
            return NonNull::dangling();
        }
        // SAFETY: `layout` is non-zero-sized (checked just above).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<T>()) else {
            handle_alloc_error(layout);
        };
        if huge {
            madvise_raw(raw as usize, raw as usize + layout.size(), MADV_HUGEPAGE);
        }
        ptr
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
        madvise_raw(
            start,
            start + self.len * core::mem::size_of::<T>(),
            MADV_HUGEPAGE,
        );
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

    /// Replaces element `i` by `f(element i)`, in order, in the same
    /// buffer: a hand-over of a built array to another element type
    /// (plain filter words to the atomic words a concurrent filter
    /// serves) that never holds two arrays. `U` must have `T`'s size and
    /// alignment, checked at compile time. A panicking `f` leaks the
    /// buffer.
    pub fn map_in_place<U>(self, mut f: impl FnMut(T) -> U) -> AlignedVec<U> {
        const {
            assert!(core::mem::size_of::<T>() == core::mem::size_of::<U>());
            assert!(core::mem::align_of::<T>() == core::mem::align_of::<U>());
        }
        let this = ManuallyDrop::new(self);
        let ptr = this.ptr.as_ptr();
        for i in 0..this.len {
            // SAFETY: `i < len`, and with equal sizes slot `i` of `T`s and
            // of `U`s is the same, aligned for both (equal alignments).
            // Slot `i` holds an initialised `T`, read (moved out) once and
            // overwritten with a `U` before the next slot is touched.
            unsafe { ptr.add(i).cast::<U>().write(f(ptr.add(i).read())) };
        }
        // Every slot now holds a `U`, and with `T`'s size and alignment
        // `Self::layout(len)` equals `AlignedVec::<U>::layout(len)`, so
        // the buffer is freed with the layout it was allocated with.
        AlignedVec {
            ptr: this.ptr.cast(),
            len: this.len,
            _owns: PhantomData,
        }
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
    madvise_raw(start, start + core::mem::size_of_val(slice), MADV_HUGEPAGE);
}

/// Hands the whole pages inside `slice` back to the kernel
/// (`madvise(MADV_DONTNEED)`), so a drained buffer stops counting toward
/// the resident set long before it is freed — the bulk builder releases
/// each region's staging bucket as soon as the region is swept. The
/// slice stays valid and writable; its elements hold unspecified values
/// afterwards (zeros on the private anonymous memory heap allocations
/// live in, the old contents where the kernel declines), which is sound
/// because every bit pattern is a valid byte. A page written again
/// faults back in. Partial pages at either end are left alone, and this
/// is a no-op off Linux/x86-64.
pub fn release_pages(slice: &mut [u8]) {
    let start = slice.as_mut_ptr() as usize;
    madvise_raw(start, start + core::mem::size_of_val(slice), MADV_DONTNEED);
}

/// A fixed-length, cache-line-aligned array written chunk by chunk, each
/// chunk on first access.
///
/// The bulk builder's word array runs to gigabytes and is built one
/// region at a time by the sweep that owns the region. Filling it up
/// front (as [`AlignedVec::filled`] does) faults every page in before
/// the first key is staged, so the words and the staging buffers are
/// resident together. A `LazyVec` allocates without writing: a chunk's
/// pages are first touched when a [`LazyChunk`] handle initialises it —
/// with the fill value ([`LazyChunk::get_or_fill`]) or element by element
/// ([`LazyChunk::get_or_init_with`], which lets a builder write each
/// element exactly once) — and [`LazyVec::into_filled`] fills only the
/// chunks nobody touched. Whether a chunk is initialised is itself
/// useful: [`LazyChunk::is_init`] tells a builder that a region it never
/// swept still holds nothing.
///
/// `T: Copy` keeps the bookkeeping trivial: a chunk abandoned half
/// written (its initialiser panicked) leaks nothing and drops nothing.
pub struct LazyVec<T: Copy> {
    /// `MaybeUninit` slots; the chunks flagged in `init` hold `T`s.
    buf: AlignedVec<MaybeUninit<T>>,
    chunk: usize,
    /// Per chunk: every slot written.
    init: Vec<bool>,
    fill: T,
}

impl<T: Copy> LazyVec<T> {
    /// `len` elements in chunks of `chunk` (the last may be shorter),
    /// each chunk to be initialised on first access — to `fill` unless
    /// its first access supplies the elements. The buffer is advised
    /// toward transparent huge pages before anything is written; no page
    /// is touched yet.
    ///
    /// # Panics
    /// Panics if `chunk == 0`.
    pub fn new(len: usize, chunk: usize, fill: T) -> Self {
        assert!(chunk > 0, "zero-length chunks");
        LazyVec {
            buf: AlignedVec {
                ptr: AlignedVec::<MaybeUninit<T>>::allocate(len, true),
                len,
                _owns: PhantomData,
            },
            chunk,
            init: vec![false; len.div_ceil(chunk)],
            fill,
        }
    }

    /// The fixed element count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// A handle to chunk `i`.
    ///
    /// # Panics
    /// Panics if chunk `i` does not exist.
    pub fn chunk_mut(&mut self, i: usize) -> LazyChunk<'_, T> {
        let start = i * self.chunk;
        let end = (start + self.chunk).min(self.buf.len());
        LazyChunk {
            slots: &mut self.buf[start..end],
            init: &mut self.init[i],
            fill: self.fill,
        }
    }

    /// Handles to every chunk, in order — disjoint, so they may be
    /// initialised on different threads.
    pub fn chunks_mut(&mut self) -> impl Iterator<Item = LazyChunk<'_, T>> {
        let fill = self.fill;
        self.buf
            .chunks_mut(self.chunk)
            .zip(self.init.iter_mut())
            .map(move |(slots, init)| LazyChunk { slots, init, fill })
    }

    /// Fills every chunk not yet initialised and returns the finished
    /// array (the same buffer — nothing is copied).
    pub fn into_filled(mut self) -> AlignedVec<T> {
        for mut chunk in self.chunks_mut() {
            chunk.get_or_fill();
        }
        let buf = ManuallyDrop::new(self.buf);
        // Every slot now holds a `T` (the loop above), and
        // `MaybeUninit<T>` has `T`'s size and alignment, so the buffer
        // meets `AlignedVec<T>`'s invariants — including freeing with
        // the same layout it was allocated with.
        AlignedVec {
            ptr: buf.ptr.cast(),
            len: buf.len,
            _owns: PhantomData,
        }
    }
}

/// One chunk of a [`LazyVec`]: initialised on first access, then an
/// ordinary mutable slice.
pub struct LazyChunk<'a, T: Copy> {
    slots: &'a mut [MaybeUninit<T>],
    init: &'a mut bool,
    fill: T,
}

impl<T: Copy> LazyChunk<'_, T> {
    /// Elements in this chunk.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the chunk holds no elements.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True once the chunk has been initialised.
    pub fn is_init(&self) -> bool {
        *self.init
    }

    /// The chunk's elements, first filling them with the array's fill
    /// value if the chunk is not yet initialised.
    pub fn get_or_fill(&mut self) -> &mut [T] {
        let fill = self.fill;
        self.get_or_init_with(|_| fill)
    }

    /// The chunk's elements, first writing element `i` as `f(i)` — once
    /// each, in order — if the chunk is not yet initialised. An
    /// initialised chunk is returned as it is and `f` is not called.
    pub fn get_or_init_with(&mut self, mut f: impl FnMut(usize) -> T) -> &mut [T] {
        if !*self.init {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                slot.write(f(i));
            }
            *self.init = true;
        }
        let slots: *mut [MaybeUninit<T>] = &mut *self.slots;
        // SAFETY: `init` is set only after every slot was written (a
        // panicking `f` leaves it clear), and `MaybeUninit<T>` has `T`'s
        // layout; the borrow of `self` keeps the slice unique.
        unsafe { &mut *(slots as *mut [T]) }
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        let layout = Self::layout(self.len);
        // SAFETY: invariant 3 — elements are initialised and dropped here
        // exactly once; a non-zero-sized buffer came from `alloc` with
        // `layout(len)` (a zero-sized one is dangling, never allocated).
        unsafe {
            core::ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len).drop_in_place();
            if layout.size() != 0 {
                dealloc(self.ptr.as_ptr().cast(), layout);
            }
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
    fn zero_sized_elements_allocate_nothing() {
        let v = AlignedVec::from_fn(1_000, |_| ());
        assert_eq!(v.len(), 1_000);
        drop(v.clone());
        assert_eq!(LazyVec::new(64, 8, ()).into_filled().len(), 64);
    }

    #[test]
    fn works_with_non_clone_elements() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let v: AlignedVec<AtomicU64> = AlignedVec::from_fn(16, |i| AtomicU64::new(i as u64));
        assert_eq!(v[5].load(Ordering::Relaxed), 5);
        assert_eq!(v.as_slice().as_ptr() as usize % CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn map_in_place_keeps_the_allocation_and_its_contents() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let words = AlignedVec::from_fn(10_000, |i| i as u64 * 0x9e37_79b9);
        let addr = words.as_ptr() as usize;
        let atomic = words.map_in_place(AtomicU64::new);
        assert_eq!(atomic.as_ptr() as usize, addr, "the same buffer");
        assert_eq!(atomic.len(), 10_000);
        for (i, w) in atomic.iter().enumerate() {
            assert_eq!(w.load(Ordering::Relaxed), i as u64 * 0x9e37_79b9);
        }
        let back = atomic.map_in_place(AtomicU64::into_inner);
        assert_eq!(back.as_ptr() as usize, addr);
        assert!(AlignedVec::<u64>::from_fn(0, |_| unreachable!())
            .map_in_place(AtomicU64::new)
            .is_empty());
    }

    #[test]
    fn lazy_chunks_initialise_on_first_access_only() {
        let mut v = LazyVec::new(10, 4, 7u64);
        assert_eq!(v.len(), 10);
        {
            let mut c = v.chunk_mut(1);
            assert!(!c.is_init());
            assert_eq!(c.get_or_init_with(|i| i as u64 * 10), &[0, 10, 20, 30]);
            assert!(c.is_init());
            // Initialised: the initialiser is not called again.
            c.get_or_init_with(|_| unreachable!())[3] = 99;
        }
        let mut last = v.chunk_mut(2);
        assert_eq!(last.len(), 2, "the last chunk is the remainder");
        assert_eq!(last.get_or_fill(), &[7, 7]);
        let done = v.into_filled();
        assert_eq!(done.as_slice(), &[7, 7, 7, 7, 0, 10, 20, 99, 7, 7]);
        assert_eq!(done.as_ptr() as usize % CACHE_LINE_BYTES, 0);
    }

    #[test]
    fn lazy_chunks_split_across_threads() {
        let mut v = LazyVec::new(1_000, 64, 0u32);
        std::thread::scope(|scope| {
            for (i, mut chunk) in v.chunks_mut().enumerate() {
                if i % 2 == 0 {
                    scope.spawn(move || {
                        chunk.get_or_init_with(|j| (i * 64 + j) as u32);
                    });
                }
            }
        });
        let done = v.into_filled();
        for (i, &x) in done.iter().enumerate() {
            let expected = if (i / 64) % 2 == 0 { i as u32 } else { 0 };
            assert_eq!(x, expected, "element {i}");
        }
        assert!(LazyVec::new(0, 8, 1u8).into_filled().is_empty());
    }

    #[test]
    fn a_panicking_initialiser_leaves_the_chunk_uninitialised() {
        let mut v = LazyVec::new(8, 8, 5u16);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            v.chunk_mut(0)
                .get_or_init_with(|i| if i == 3 { panic!("boom") } else { 1 });
        }));
        assert!(caught.is_err());
        assert!(!v.chunk_mut(0).is_init());
        assert_eq!(v.into_filled().as_slice(), &[5; 8]);
    }

    #[test]
    fn released_pages_stay_usable() {
        let mut buf = vec![0u8; 1 << 20];
        buf.iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as u8 | 1);
        release_pages(&mut buf[1_000..800_000]);
        // Whatever the kernel did inside, the edges are untouched and
        // the whole slice can be written and read again.
        assert_eq!(buf[999], 999u32 as u8 | 1);
        assert_eq!(buf[800_000], 800_000u32 as u8 | 1);
        buf[5_000] = 42;
        assert_eq!(buf[5_000], 42);
        release_pages(&mut buf[..0]);
    }
}
