//! Return address stack.

/// A return address stack. The paper models an *ideal* RAS
/// ([`ReturnStack::ideal`], unbounded and never corrupted); a finite depth
/// is available for ablation.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: Vec<u64>,
    max_depth: Option<usize>,
    overflows: u64,
}

impl ReturnStack {
    /// Creates an unbounded (ideal) return stack.
    #[must_use]
    pub fn ideal() -> ReturnStack {
        ReturnStack {
            stack: Vec::new(),
            max_depth: None,
            overflows: 0,
        }
    }

    /// Creates a finite return stack that drops the oldest entry on
    /// overflow.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn with_depth(depth: usize) -> ReturnStack {
        assert!(depth > 0, "return stack depth must be positive");
        ReturnStack {
            stack: Vec::with_capacity(depth),
            max_depth: Some(depth),
            overflows: 0,
        }
    }

    /// A finite stack of `depth` entries, or the ideal one for `None`
    /// (the form configurations give the depth in).
    #[must_use]
    pub fn for_depth(depth: Option<usize>) -> ReturnStack {
        depth.map_or_else(ReturnStack::ideal, ReturnStack::with_depth)
    }

    /// Pushes a return address at a call.
    pub fn push(&mut self, return_addr: u64) {
        if let Some(d) = self.max_depth {
            if self.stack.len() == d {
                self.stack.remove(0);
                self.overflows += 1;
            }
        }
        self.stack.push(return_addr);
    }

    /// Pops the predicted return address at a return; `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Makes this stack an exact copy of `other`, reusing the existing
    /// buffer. Misprediction recovery restores RAS snapshots on every
    /// recovered branch; copying into place keeps that path free of
    /// heap allocation once the buffer has reached the program's
    /// maximum call depth.
    pub fn copy_from(&mut self, other: &ReturnStack) {
        self.stack.clear();
        self.stack.extend_from_slice(&other.stack);
        self.max_depth = other.max_depth;
        self.overflows = other.overflows;
    }

    /// Current depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Number of pushed entries lost to overflow.
    #[must_use]
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Clobbers one stacked return address (fault-injection hook);
    /// `entropy` picks the entry and the new bogus value. Returns
    /// `false` when the stack is empty. Architecturally harmless: a
    /// wrong RAS prediction is caught like any return mispredict.
    pub fn fault_clobber(&mut self, entropy: u64) -> bool {
        if self.stack.is_empty() {
            return false;
        }
        let i = (entropy % self.stack.len() as u64) as usize;
        self.stack[i] ^= (entropy >> 8) | 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnStack::ideal();
        r.push(10);
        r.push(20);
        assert_eq!(r.pop(), Some(20));
        assert_eq!(r.pop(), Some(10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn finite_stack_drops_oldest() {
        let mut r = ReturnStack::with_depth(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.overflows(), 1);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn copy_from_restores_contents_without_reallocating() {
        let mut snapshot = ReturnStack::ideal();
        snapshot.push(11);
        snapshot.push(22);
        let mut live = ReturnStack::ideal();
        for i in 0..8 {
            live.push(i);
        }
        live.copy_from(&snapshot);
        assert_eq!(live.depth(), 2);
        assert_eq!(live.pop(), Some(22));
        assert_eq!(live.pop(), Some(11));
        assert_eq!(live.pop(), None);
        assert_eq!(live.overflows(), 0);
    }

    #[test]
    fn ideal_stack_never_overflows() {
        let mut r = ReturnStack::ideal();
        for i in 0..10_000 {
            r.push(i);
        }
        assert_eq!(r.overflows(), 0);
        assert_eq!(r.depth(), 10_000);
    }
}
