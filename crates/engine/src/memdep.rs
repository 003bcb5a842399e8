//! Memory-dependence scheduling: conservative vs. perfect.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a word address with one multiply by a fixed odd constant (the
/// 64-bit golden ratio) and a rotate that brings the well-mixed high
/// product bits down to where the table takes its bucket index. Every
/// load and store hashes an address, and the tracker is only read
/// through keyed lookups and `retain`, so nothing depends on the
/// iteration order a keyed hasher would randomize.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Tracks in-flight stores for load scheduling.
///
/// * **Conservative** (paper §3): "no memory operation can bypass a
///   store with an unknown address" — a load may not begin until every
///   earlier store's address has been generated, and must additionally
///   wait for the completion of the latest earlier store *to the same
///   address*.
/// * **Perfect** (paper §6): loads wait only for the completion of the
///   latest earlier store to the same address (all independence is
///   speculated correctly).
#[derive(Debug, Clone, Default)]
pub struct MemDepTracker {
    /// Completion time of the latest store to each word address.
    store_done: HashMap<u64, u64, BuildHasherDefault<AddrHasher>>,
    /// Latest address-generation time over all stores so far.
    last_addr_known: u64,
}

impl MemDepTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> MemDepTracker {
        MemDepTracker::default()
    }

    /// Records a store: its address is generated at `addr_known` (its
    /// schedule time) and its data is visible at `done`.
    #[inline]
    pub fn store(&mut self, addr: u64, addr_known: u64, done: u64) {
        let slot = self.store_done.entry(addr).or_insert(0);
        *slot = (*slot).max(done);
        self.last_addr_known = self.last_addr_known.max(addr_known);
    }

    /// Earliest cycle a load of `addr` that is ready at `ready` may
    /// begin, under the given scheduling mode.
    #[inline]
    #[must_use]
    pub fn load_start(&self, addr: u64, ready: u64, perfect: bool) -> u64 {
        let same_addr = self.store_done.get(&addr).copied().unwrap_or(0);
        if perfect {
            ready.max(same_addr)
        } else {
            ready.max(same_addr).max(self.last_addr_known)
        }
    }

    /// Drops completed-store records older than `cycle` to bound memory
    /// use (they can no longer delay anything scheduled at or after
    /// `cycle`).
    pub fn prune(&mut self, cycle: u64) {
        self.store_done.retain(|_, &mut done| done > cycle);
    }

    /// Number of tracked store addresses (diagnostics).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.store_done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservative_blocks_on_unknown_addresses() {
        let mut t = MemDepTracker::new();
        t.store(0x10, 50, 60);
        // Load to a *different* address still waits for the address
        // generation of the store under conservative scheduling.
        assert_eq!(t.load_start(0x20, 10, false), 50);
        // Perfect scheduling lets it go immediately.
        assert_eq!(t.load_start(0x20, 10, true), 10);
    }

    #[test]
    fn same_address_forwarding_waits_for_data() {
        let mut t = MemDepTracker::new();
        t.store(0x10, 50, 60);
        assert_eq!(t.load_start(0x10, 10, true), 60);
        assert_eq!(t.load_start(0x10, 10, false), 60);
    }

    #[test]
    fn later_store_wins() {
        let mut t = MemDepTracker::new();
        t.store(0x10, 5, 20);
        t.store(0x10, 8, 40);
        assert_eq!(t.load_start(0x10, 0, true), 40);
    }

    #[test]
    fn prune_discards_old_stores() {
        let mut t = MemDepTracker::new();
        t.store(0x10, 5, 20);
        t.store(0x20, 6, 100);
        t.prune(50);
        assert_eq!(t.tracked(), 1);
        assert_eq!(t.load_start(0x10, 0, true), 0);
        assert_eq!(t.load_start(0x20, 0, true), 100);
    }
}
