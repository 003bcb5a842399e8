//! A fixed-size FIFO for `Copy` values.

use std::ops::{Index, IndexMut};

/// A first-in, first-out queue of `Copy` values in a power-of-two
/// buffer: the `i`-th value lies at `(head + i) & mask`, so pushing,
/// indexing and dropping from the front do no bookkeeping beyond one
/// mask. The buffer is sized once, from a fill value, and doubles only
/// when a push finds it full.
///
/// # Example
///
/// ```
/// use tc_engine::Ring;
///
/// let mut ring = Ring::new(2, 0u32);
/// for v in 1..=3 {
///     ring.push_back(v); // the third push doubles the buffer
/// }
/// ring.drop_front(1);
/// assert_eq!((ring.len(), ring[0], ring[1]), (2, 2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Ring<T: Copy> {
    buf: Vec<T>,
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// An empty ring with room for at least `capacity` values; `fill`
    /// occupies the slots no value has been pushed to yet.
    #[must_use]
    pub fn new(capacity: usize, fill: T) -> Ring<T> {
        Ring {
            buf: vec![fill; capacity.max(1).next_power_of_two()],
            head: 0,
            len: 0,
        }
    }

    /// The number of values held.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no value.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many values fit before the next push doubles the buffer.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.len()
    }

    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & (self.buf.len() - 1)
    }

    /// Appends `value` at the back.
    #[inline]
    pub fn push_back(&mut self, value: T) {
        if self.len == self.buf.len() {
            self.grow();
        }
        let slot = self.slot(self.len);
        self.buf[slot] = value;
        self.len += 1;
    }

    /// Doubles a full buffer, moving its values to the front in order.
    #[cold]
    fn grow(&mut self) {
        self.buf.rotate_left(self.head);
        self.head = 0;
        // The copied half is filler: only the first `len` slots hold values.
        self.buf.extend_from_within(..);
    }

    /// The `i`-th value from the front, if the ring holds that many.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.buf[self.slot(i)])
    }

    /// The oldest value, if any.
    #[must_use]
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.get(0)
    }

    /// Removes the `n` oldest values.
    ///
    /// # Panics
    ///
    /// If the ring holds fewer than `n` values.
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        assert!(n <= self.len, "dropping {n} of {} values", self.len);
        self.head = self.slot(n);
        self.len -= n;
    }
}

impl<T: Copy> Index<usize> for Ring<T> {
    type Output = T;

    /// # Panics
    ///
    /// If `i` is not below [`Ring::len`].
    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} past a ring of {}", self.len);
        &self.buf[self.slot(i)]
    }
}

impl<T: Copy> IndexMut<usize> for Ring<T> {
    /// # Panics
    ///
    /// If `i` is not below [`Ring::len`].
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} past a ring of {}", self.len);
        let slot = self.slot(i);
        &mut self.buf[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_around_at_capacity() {
        let mut ring = Ring::new(4, 0u64);
        for v in 0..4 {
            ring.push_back(v);
        }
        // Freeing the front lets the back wrap into slots 0 and 1.
        ring.drop_front(2);
        ring.push_back(4);
        ring.push_back(5);
        assert_eq!(ring.capacity(), 4, "a wrapped push does not grow");
        let held: Vec<u64> = (0..ring.len()).map(|i| ring[i]).collect();
        assert_eq!(held, [2, 3, 4, 5]);
        assert_eq!(ring.front(), Some(&2));
    }

    #[test]
    fn growth_keeps_fifo_order() {
        let mut ring = Ring::new(4, 0u64);
        let mut next = 0;
        let mut oldest = 0;
        // Grow from a wrapped state, more than once.
        for round in 0..5 {
            for _ in 0..(3 + 2 * round) {
                ring.push_back(next);
                next += 1;
            }
            ring.drop_front(2);
            oldest += 2;
            for i in 0..ring.len() {
                assert_eq!(ring[i], oldest + i as u64, "round {round}, index {i}");
            }
        }
        assert_eq!(ring.len() as u64, next - oldest);
        assert!(ring.capacity() >= ring.len() && ring.capacity().is_power_of_two());
    }

    #[test]
    fn get_and_drop_front_respect_len() {
        let mut ring = Ring::new(3, 0u8);
        assert_eq!(ring.capacity(), 4);
        assert!(ring.is_empty() && ring.front().is_none());
        ring.push_back(7);
        ring[0] += 1;
        assert_eq!((ring.get(0), ring.get(1)), (Some(&8), None));
        ring.drop_front(1);
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "index 1 past a ring of 1")]
    fn indexing_past_len_panics() {
        let mut ring = Ring::new(8, 0u32);
        ring.push_back(1);
        let _ = ring[1];
    }

    #[test]
    #[should_panic(expected = "dropping 2 of 1 values")]
    fn dropping_more_than_held_panics() {
        let mut ring = Ring::new(8, 0u32);
        ring.push_back(1);
        ring.drop_front(2);
    }
}
