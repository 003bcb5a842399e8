//! A fixed-capacity vector with inline storage.
//!
//! The steady-state simulation loop traffics exclusively in small,
//! statically bounded collections: trace segments hold at most
//! [`MAX_SEGMENT_INSTS`](crate::MAX_SEGMENT_INSTS) instructions, a fetch
//! bundle at most the fetch width (16), and a prediction group at most
//! [`MAX_SEGMENT_BRANCHES`](crate::MAX_SEGMENT_BRANCHES) directions.
//! [`InlineVec`] keeps those collections on the stack (or inline in their
//! owning struct) so the fetch/fill hot path performs no heap allocation.
//! The build stays hermetic: this is a ~100-line hand-rolled type, not an
//! external crate.
//!
//! The element type must be `Copy + Default` so the backing array can be
//! initialized safely without `MaybeUninit`; every type stored on the hot
//! path (`SegmentInst`, `FetchedInst`, `bool`) already is.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of at most `N` elements stored inline, with the slice API
/// available through `Deref`.
///
/// # Example
///
/// ```
/// use tc_core::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// v.push(7);
/// v.push(9);
/// assert_eq!(v.as_slice(), &[7, 9]);
/// assert_eq!(v.iter().sum::<u32>(), 16);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> InlineVec<T, N> {
        InlineVec {
            buf: [T::default(); N],
            len: 0,
        }
    }

    /// Builds a vector by copying a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is longer than `N`.
    #[must_use]
    pub fn from_slice(items: &[T]) -> InlineVec<T, N> {
        let mut v = InlineVec::new();
        v.extend_from_slice(items);
        v
    }

    /// Appends an element.
    ///
    /// # Panics
    ///
    /// Panics if the vector is full — capacity bounds on the hot path are
    /// architectural invariants (segment/bundle limits), so exceeding one
    /// is a simulator bug, not a condition to handle.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.buf[self.len] = item;
        self.len += 1;
    }

    /// Removes and returns the last element.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            None
        } else {
            self.len -= 1;
            Some(self.buf[self.len])
        }
    }

    /// Copies all elements of `items` onto the end.
    ///
    /// # Panics
    ///
    /// Panics if the result would exceed the capacity.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        assert!(
            self.len + items.len() <= N,
            "InlineVec capacity {N} exceeded"
        );
        self.buf[self.len..self.len + items.len()].copy_from_slice(items);
        self.len += items.len();
    }

    /// Drops all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Shortens the vector to at most `len` elements.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// The elements as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.buf[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let mut v: InlineVec<u8, 3> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert_eq!(v.len(), 2);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overfull_push_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(0);
        v.push(0);
        v.push(0);
    }

    #[test]
    fn slice_api_through_deref() {
        let mut v: InlineVec<u32, 8> = InlineVec::from_slice(&[3, 1, 4, 1, 5]);
        assert_eq!(v[2], 4);
        assert_eq!(v.iter().filter(|&&x| x == 1).count(), 2);
        v.truncate(2);
        assert_eq!(v.as_slice(), &[3, 1]);
        v.extend_from_slice(&[9, 9]);
        assert_eq!(v.as_slice(), &[3, 1, 9, 9]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn equality_is_by_contents() {
        let a: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2]);
        let b: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2]);
        let c: InlineVec<u8, 4> = InlineVec::from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a == *[1u8, 2].as_slice());
    }

    #[test]
    fn copy_semantics() {
        let a: InlineVec<u8, 4> = InlineVec::from_slice(&[7]);
        let mut b = a;
        b.push(8);
        assert_eq!(a.len(), 1, "copies are independent");
        assert_eq!(b.len(), 2);
    }
}
