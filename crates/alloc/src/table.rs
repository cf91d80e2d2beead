//! TDM slot tables: the reservation state of one link.
//!
//! Contention-free routing reserves, for every link, which connection may
//! occupy it during each slot of the table period. The tables of all links
//! plus the per-connection injection slots *are* the allocation.

use crate::mask::SlotMask;
use aelite_spec::ids::ConnId;
use core::fmt;

/// Owner storage of a [`SlotTable`]: who holds each reserved slot.
///
/// The allocator's decisions are driven entirely by the free-slot
/// [`SlotMask`]; the owner side only answers probes (`owner`, `reserve`
/// conflict reporting, teardown). That makes its representation a pure
/// memory/probe-cost trade, invisible to allocation results:
///
/// * `Dense` — a flat `slot → owner` vector: O(1) probes, `size`
///   entries resident regardless of occupancy.
/// * `Sparse` — `(slot, owner)` pairs sorted by slot: O(log reserved)
///   probes, memory proportional to the reservations actually held.
///
/// On mega-mesh platforms most links carry little or no traffic, so
/// tables start sparse and self-promote to dense once occupancy makes
/// the flat vector worth its footprint.
#[derive(Debug, Clone)]
enum Owners {
    Dense(Vec<Option<ConnId>>),
    Sparse(Vec<(u32, ConnId)>),
}

/// The reservation table of a single link: `size` slots, each free or
/// owned by one connection.
///
/// Alongside the owner storage, the table maintains a [`SlotMask`] bitset
/// of its free slots ([`free_mask`](Self::free_mask)), kept in sync by
/// every mutating operation, so the allocator can intersect the free sets
/// of a whole path with word-level rotate-and-AND kernels. Owners live in
/// a dense or sparse representation selected per table behind these
/// methods (see [`new`](Self::new), [`new_dense`](Self::new_dense) and
/// [`new_sparse`](Self::new_sparse)); two tables with the same
/// reservations compare equal regardless of representation.
///
/// # Examples
///
/// ```
/// use aelite_alloc::table::SlotTable;
/// use aelite_spec::ids::ConnId;
///
/// let mut t = SlotTable::new(8);
/// t.reserve(3, ConnId::new(0)).unwrap();
/// assert_eq!(t.owner(3), Some(ConnId::new(0)));
/// assert!(t.is_free(4));
/// assert!(!t.free_mask().get(3));
/// assert_eq!(t.reserved_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlotTable {
    size: u32,
    owners: Owners,
    free: SlotMask,
    /// Sparse entry count at which the table switches to the dense
    /// representation; `u32::MAX` pins it sparse forever.
    promote_at: u32,
}

impl SlotTable {
    /// Creates a table of `size` free slots.
    ///
    /// Owner storage starts in the sparse representation (a low-occupancy
    /// table holds no owner memory at all) and promotes itself to the
    /// dense one when a quarter of the slots are reserved. Use
    /// [`new_dense`](Self::new_dense) / [`new_sparse`](Self::new_sparse)
    /// to pin a representation.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: u32) -> Self {
        Self::with_promotion(size, (size / 4).max(4))
    }

    /// Creates a table whose owner storage is dense from the start — the
    /// historical representation: O(1) probes, `size` entries resident.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new_dense(size: u32) -> Self {
        assert!(size > 0, "slot table must have at least one slot");
        SlotTable {
            size,
            owners: Owners::Dense(vec![None; size as usize]),
            free: SlotMask::new_full(size),
            promote_at: 0,
        }
    }

    /// Creates a table whose owner storage stays sparse at every
    /// occupancy (it never self-promotes) — memory stays proportional to
    /// the reservations held, probes cost O(log reserved).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new_sparse(size: u32) -> Self {
        Self::with_promotion(size, u32::MAX)
    }

    fn with_promotion(size: u32, promote_at: u32) -> Self {
        assert!(size > 0, "slot table must have at least one slot");
        SlotTable {
            size,
            owners: Owners::Sparse(Vec::new()),
            free: SlotMask::new_full(size),
            promote_at,
        }
    }

    /// Whether the owner storage is currently in the sparse
    /// representation (diagnostics and memory accounting).
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self.owners, Owners::Sparse(_))
    }

    /// Resident owner entries: `size` for a dense table, the reserved
    /// count for a sparse one — the quantity the sparse representation
    /// exists to shrink.
    #[must_use]
    pub fn owner_entries_resident(&self) -> usize {
        match &self.owners {
            Owners::Dense(v) => v.len(),
            Owners::Sparse(v) => v.len(),
        }
    }

    /// The table period in slots.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Whether `slot` (taken modulo the table size) is unreserved.
    #[must_use]
    pub fn is_free(&self, slot: u32) -> bool {
        self.free.get(self.wrap(slot) as u32)
    }

    /// The bitset of free slots (bit set ⇔ slot unreserved), maintained in
    /// lock-step with the owner storage.
    #[must_use]
    pub fn free_mask(&self) -> &SlotMask {
        &self.free
    }

    /// The connection owning `slot` (modulo table size), if any.
    #[must_use]
    pub fn owner(&self, slot: u32) -> Option<ConnId> {
        let i = self.wrap(slot);
        match &self.owners {
            Owners::Dense(v) => v[i],
            Owners::Sparse(v) => v
                .binary_search_by_key(&(i as u32), |&(s, _)| s)
                .ok()
                .map(|pos| v[pos].1),
        }
    }

    /// Switches sparse owner storage to the dense representation.
    fn promote(&mut self) {
        if let Owners::Sparse(list) = &self.owners {
            let mut dense = vec![None; self.size as usize];
            for &(s, c) in list {
                dense[s as usize] = Some(c);
            }
            self.owners = Owners::Dense(dense);
        }
    }

    /// Reserves `slot` (modulo table size) for `conn`.
    ///
    /// # Errors
    ///
    /// Returns the current owner if the slot is already taken — the caller
    /// (allocator) treats this as "try elsewhere", never as a panic,
    /// because contention for slots is the normal case.
    pub fn reserve(&mut self, slot: u32, conn: ConnId) -> Result<(), ConnId> {
        let i = self.wrap(slot) as u32;
        match &mut self.owners {
            Owners::Dense(v) => match v[i as usize] {
                Some(owner) => return Err(owner),
                None => v[i as usize] = Some(conn),
            },
            Owners::Sparse(v) => match v.binary_search_by_key(&i, |&(s, _)| s) {
                Ok(pos) => return Err(v[pos].1),
                Err(pos) => {
                    v.insert(pos, (i, conn));
                    if v.len() as u32 >= self.promote_at {
                        self.promote();
                    }
                }
            },
        }
        self.free.clear(i);
        Ok(())
    }

    /// Releases `slot` (modulo table size), returning its previous owner.
    pub fn release(&mut self, slot: u32) -> Option<ConnId> {
        let i = self.wrap(slot) as u32;
        let prev = match &mut self.owners {
            Owners::Dense(v) => v[i as usize].take(),
            Owners::Sparse(v) => v
                .binary_search_by_key(&i, |&(s, _)| s)
                .ok()
                .map(|pos| v.remove(pos).1),
        };
        if prev.is_some() {
            self.free.set(i);
        }
        prev
    }

    /// Releases every slot owned by `conn`, returning how many there were.
    ///
    /// Sub-linear in the table size for either representation: the sparse
    /// side is a single pass over the reserved entries; the dense side
    /// walks the *reserved* slots through the free mask's complement one
    /// word at a time (`trailing_zeros` per reserved slot), so a
    /// lightly-loaded table costs O(reserved) rather than O(size).
    /// (Grant-based teardown — the online churn hot path — goes further:
    /// [`Allocation::take_grant`](crate::allocate::Allocation::take_grant)
    /// releases exactly the grant's own slots without any scan; this
    /// method serves callers that hold no grant record.)
    pub fn release_all(&mut self, conn: ConnId) -> u32 {
        let mut n = 0;
        let free = &mut self.free;
        match &mut self.owners {
            Owners::Sparse(v) => {
                v.retain(|&(s, c)| {
                    if c == conn {
                        free.set(s);
                        n += 1;
                        false
                    } else {
                        true
                    }
                });
            }
            Owners::Dense(slots) => {
                let tail = free.tail_mask();
                let last = free.word_count() - 1;
                for wi in 0..=last {
                    // Reserved slots of this word (free-mask complement,
                    // with out-of-range bits masked off in the final word).
                    let mut reserved = !free.word(wi);
                    if wi == last {
                        reserved &= tail;
                    }
                    while reserved != 0 {
                        let s = wi as u32 * 64 + reserved.trailing_zeros();
                        reserved &= reserved - 1;
                        if slots[s as usize] == Some(conn) {
                            slots[s as usize] = None;
                            free.set(s);
                            n += 1;
                        }
                    }
                }
            }
        }
        n
    }

    /// Number of reserved slots.
    #[must_use]
    pub fn reserved_count(&self) -> u32 {
        self.size() - self.free.count()
    }

    /// Number of unreserved slots — the table's spare capacity, used by
    /// the allocator's spare-capacity steering to score candidate
    /// routes by their bottleneck link.
    #[must_use]
    pub fn free_count(&self) -> u32 {
        self.free.count()
    }

    /// Fraction of the table that is reserved, in `[0, 1]`.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        f64::from(self.reserved_count()) / f64::from(self.size())
    }

    /// The slots reserved for `conn`, ascending.
    #[must_use]
    pub fn slots_of(&self, conn: ConnId) -> Vec<u32> {
        match &self.owners {
            Owners::Dense(v) => v
                .iter()
                .enumerate()
                .filter(|(_, s)| **s == Some(conn))
                .map(|(i, _)| i as u32)
                .collect(),
            Owners::Sparse(v) => v
                .iter()
                .filter(|&&(_, c)| c == conn)
                .map(|&(s, _)| s)
                .collect(),
        }
    }

    /// The owner of every reserved slot, in slot order: a connection
    /// holding several slots appears once per slot. One pass over the
    /// owner storage, with no per-slot probe.
    pub fn owners(&self) -> impl Iterator<Item = ConnId> + '_ {
        let (dense, sparse): (&[Option<ConnId>], &[(u32, ConnId)]) = match &self.owners {
            Owners::Dense(v) => (v, &[]),
            Owners::Sparse(v) => (&[], v),
        };
        dense
            .iter()
            .flatten()
            .copied()
            .chain(sparse.iter().map(|&(_, c)| c))
    }

    /// Iterates over `(slot, owner)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Option<ConnId>)> + '_ {
        (0..self.size).map(move |s| (s, self.owner(s)))
    }

    fn wrap(&self, slot: u32) -> usize {
        (slot as usize) % self.size as usize
    }
}

/// Equality is over the logical reservations — size, free set and owner
/// of every reserved slot — never over the owner representation, so a
/// sparse table equals its dense twin.
impl PartialEq for SlotTable {
    fn eq(&self, other: &Self) -> bool {
        if self.size != other.size || self.free != other.free {
            return false;
        }
        // Free masks match, so both sides reserve the same slot set; only
        // the owners on that set can still differ.
        match (&self.owners, &other.owners) {
            (Owners::Dense(a), Owners::Dense(b)) => a == b,
            (Owners::Sparse(a), Owners::Sparse(b)) => a == b,
            (Owners::Sparse(s), Owners::Dense(d)) | (Owners::Dense(d), Owners::Sparse(s)) => {
                s.iter().all(|&(slot, c)| d[slot as usize] == Some(c))
            }
        }
    }
}

impl Eq for SlotTable {}

impl fmt::Display for SlotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.iter() {
            if i > 0 {
                write!(f, " ")?;
            }
            match s {
                Some(c) => write!(f, "{c}")?,
                None => write!(f, "-")?,
            }
        }
        write!(f, "]")
    }
}

/// The circular gaps, in slots, between consecutive reserved injection
/// slots of a connection.
///
/// `gaps(&[1, 4], 8)` is `[3, 5]`: slot 1→4 is 3 apart, and wrapping
/// 4→1 is 5 apart. A connection waiting for its next slot waits at most
/// `max(gaps) * slot_cycles` cycles — the quantity behind every latency
/// bound in the analysis crate.
///
/// Returns an empty vector for fewer than one slot, and `[size]` for a
/// single slot (a full revolution back to itself).
///
/// # Panics
///
/// Panics if any slot is ≥ `size` or slots are not strictly ascending.
#[must_use]
pub fn gaps(slots: &[u32], size: u32) -> Vec<u32> {
    if slots.is_empty() {
        return Vec::new();
    }
    for w in slots.windows(2) {
        assert!(w[0] < w[1], "slots must be strictly ascending");
    }
    assert!(*slots.last().unwrap() < size, "slot out of table range");
    if slots.len() == 1 {
        return vec![size];
    }
    let mut out = Vec::with_capacity(slots.len());
    for w in slots.windows(2) {
        out.push(w[1] - w[0]);
    }
    out.push(size - slots.last().unwrap() + slots[0]);
    out
}

/// The worst-case number of slots spanned by `m` consecutive reserved
/// slots, over all starting positions — i.e. the worst wait-plus-
/// serialisation window for an `m`-flit message.
///
/// For `m = 1` this is simply the maximum gap.
///
/// # Panics
///
/// Panics if `m` is zero or `slots` is empty (no service at all), or the
/// slots are invalid per [`gaps`].
#[must_use]
pub fn worst_window(slots: &[u32], size: u32, m: u32) -> u32 {
    assert!(m > 0, "window of zero flits");
    assert!(!slots.is_empty(), "connection has no slots");
    for w in slots.windows(2) {
        assert!(w[0] < w[1], "slots must be strictly ascending");
    }
    assert!(*slots.last().unwrap() < size, "slot out of table range");
    let n = slots.len();
    let m = m as usize;
    // A run of `rem` consecutive gaps starting at slot i telescopes to the
    // slot-position difference slots[i + rem] - slots[i] (plus one table
    // revolution when the run wraps), so the worst window is a single
    // O(n) sliding pass instead of O(n × m) gap summing. When m >= n the
    // message needs extra full revolutions: each adds `size`.
    let full_revs = (m / n) as u32;
    let rem = m % n;
    if rem == 0 {
        return full_revs * size;
    }
    let mut worst = 0;
    for i in 0..n {
        let j = i + rem;
        let span = if j < n {
            slots[j] - slots[i]
        } else {
            size - slots[i] + slots[j - n]
        };
        worst = worst.max(span);
    }
    full_revs * size + worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ConnId {
        ConnId::new(i)
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut t = SlotTable::new(4);
        t.reserve(2, c(7)).unwrap();
        assert_eq!(t.owner(2), Some(c(7)));
        assert_eq!(t.release(2), Some(c(7)));
        assert!(t.is_free(2));
        assert_eq!(t.release(2), None);
    }

    #[test]
    fn reserve_wraps_modulo_size() {
        let mut t = SlotTable::new(4);
        t.reserve(6, c(0)).unwrap(); // = slot 2
        assert_eq!(t.owner(2), Some(c(0)));
        assert!(!t.is_free(6));
    }

    #[test]
    fn double_reserve_reports_owner() {
        let mut t = SlotTable::new(4);
        t.reserve(1, c(0)).unwrap();
        assert_eq!(t.reserve(1, c(1)), Err(c(0)));
        // Original reservation untouched.
        assert_eq!(t.owner(1), Some(c(0)));
    }

    #[test]
    fn release_all_clears_only_that_connection() {
        let mut t = SlotTable::new(8);
        t.reserve(0, c(0)).unwrap();
        t.reserve(1, c(1)).unwrap();
        t.reserve(5, c(0)).unwrap();
        assert_eq!(t.release_all(c(0)), 2);
        assert_eq!(t.reserved_count(), 1);
        assert_eq!(t.owner(1), Some(c(1)));
    }

    #[test]
    fn release_all_word_scan_matches_owner_scan() {
        // Pin the complement-word-scan teardown against the original
        // probe-every-slot implementation across word-boundary sizes.
        for size in [1u32, 7, 63, 64, 65, 100, 128, 130] {
            let mut t = SlotTable::new(size);
            for s in 0..size {
                match (s * 7 + 3) % 5 {
                    0 => t.reserve(s, c(0)).unwrap(),
                    1 => t.reserve(s, c(1)).unwrap(),
                    _ => {}
                }
            }
            let mut reference = t.clone();
            // The original implementation, inlined as the oracle.
            let mut expect = 0;
            for s in 0..size {
                if reference.owner(s) == Some(c(0)) {
                    reference.release(s);
                    expect += 1;
                }
            }
            assert_eq!(t.release_all(c(0)), expect, "size {size}");
            assert_eq!(t, reference, "size {size}");
            // Free mask stays in lock-step with the owner vector.
            for s in 0..size {
                assert_eq!(t.is_free(s), t.owner(s).is_none(), "size {size} slot {s}");
            }
        }
    }

    #[test]
    fn slots_of_returns_ascending() {
        let mut t = SlotTable::new(8);
        for s in [6, 1, 4] {
            t.reserve(s, c(3)).unwrap();
        }
        assert_eq!(t.slots_of(c(3)), vec![1, 4, 6]);
    }

    #[test]
    fn utilisation_fraction() {
        let mut t = SlotTable::new(8);
        t.reserve(0, c(0)).unwrap();
        t.reserve(1, c(0)).unwrap();
        assert!((t.utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_marks_free_and_owned() {
        let mut t = SlotTable::new(3);
        t.reserve(1, c(5)).unwrap();
        assert_eq!(t.to_string(), "[- c5 -]");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_table_rejected() {
        let _ = SlotTable::new(0);
    }

    #[test]
    fn new_table_starts_sparse_and_promotes_at_quarter_occupancy() {
        let mut t = SlotTable::new(32);
        assert!(t.is_sparse());
        assert_eq!(t.owner_entries_resident(), 0);
        for s in 0..7 {
            t.reserve(s, c(s)).unwrap();
            assert!(t.is_sparse(), "below threshold after {} slots", s + 1);
        }
        t.reserve(7, c(7)).unwrap(); // 8 = 32/4 reserved: promote
        assert!(!t.is_sparse());
        assert_eq!(t.owner_entries_resident(), 32);
        for s in 0..8 {
            assert_eq!(t.owner(s), Some(c(s)), "promotion preserved owners");
        }
    }

    #[test]
    fn pinned_sparse_never_promotes() {
        let mut t = SlotTable::new_sparse(8);
        for s in 0..8 {
            t.reserve(s, c(s)).unwrap();
        }
        assert!(t.is_sparse(), "full table still sparse when pinned");
        assert_eq!(t.owner_entries_resident(), 8);
        assert_eq!(t.release_all(c(3)), 1);
        assert_eq!(t.owner_entries_resident(), 7);
    }

    #[test]
    fn sparse_and_dense_tables_compare_equal() {
        let mut sparse = SlotTable::new_sparse(16);
        let mut dense = SlotTable::new_dense(16);
        assert!(!dense.is_sparse());
        assert_eq!(sparse, dense, "both empty");
        for (s, owner) in [(1, 5), (9, 5), (14, 2)] {
            sparse.reserve(s, c(owner)).unwrap();
            dense.reserve(s, c(owner)).unwrap();
        }
        assert_eq!(sparse, dense);
        assert_eq!(dense, sparse, "symmetric");
        assert_eq!(sparse.to_string(), dense.to_string());
        // Same slot set, different owner: unequal in any representation.
        let mut other = SlotTable::new_dense(16);
        for (s, owner) in [(1, 5), (9, 4), (14, 2)] {
            other.reserve(s, c(owner)).unwrap();
        }
        assert_ne!(sparse, other);
        assert_ne!(other, sparse);
    }

    #[test]
    fn sparse_release_all_and_probes_match_dense() {
        // Mirror of release_all_word_scan_matches_owner_scan for the
        // pinned-sparse representation, cross-checked against a dense
        // twin mutated identically.
        for size in [1u32, 7, 63, 64, 65, 100, 128, 130] {
            let mut sparse = SlotTable::new_sparse(size);
            let mut dense = SlotTable::new_dense(size);
            for s in 0..size {
                match (s * 7 + 3) % 5 {
                    0 => {
                        sparse.reserve(s, c(0)).unwrap();
                        dense.reserve(s, c(0)).unwrap();
                    }
                    1 => {
                        sparse.reserve(s, c(1)).unwrap();
                        dense.reserve(s, c(1)).unwrap();
                    }
                    _ => {}
                }
            }
            assert_eq!(sparse, dense, "size {size}");
            assert_eq!(sparse.slots_of(c(0)), dense.slots_of(c(0)), "size {size}");
            assert_eq!(
                sparse.release_all(c(0)),
                dense.release_all(c(0)),
                "size {size}"
            );
            assert_eq!(sparse, dense, "size {size} after release_all");
            assert_eq!(sparse.free_mask(), dense.free_mask(), "size {size}");
            for s in 0..size {
                assert_eq!(sparse.owner(s), dense.owner(s), "size {size} slot {s}");
            }
        }
    }

    #[test]
    fn gaps_of_spread_slots() {
        assert_eq!(gaps(&[1, 4], 8), vec![3, 5]);
        assert_eq!(gaps(&[0, 2, 4, 6], 8), vec![2, 2, 2, 2]);
        assert_eq!(gaps(&[7], 8), vec![8]);
        assert_eq!(gaps(&[], 8), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gaps_reject_unsorted() {
        let _ = gaps(&[4, 1], 8);
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn gaps_reject_out_of_range() {
        let _ = gaps(&[9], 8);
    }

    #[test]
    fn worst_window_single_flit_is_max_gap() {
        assert_eq!(worst_window(&[1, 4], 8, 1), 5);
        assert_eq!(worst_window(&[0, 2, 4, 6], 8, 1), 2);
    }

    #[test]
    fn worst_window_multi_flit_sums_consecutive_gaps() {
        // Gaps of [1,4] in 8: [3, 5]. Two flits: worst is 3+5 = 8.
        assert_eq!(worst_window(&[1, 4], 8, 2), 8);
        // Three flits: one full revolution (8) plus worst single gap (5).
        assert_eq!(worst_window(&[1, 4], 8, 3), 13);
        // Evenly spread: m flits take m gaps of 2.
        assert_eq!(worst_window(&[0, 2, 4, 6], 8, 3), 6);
    }

    #[test]
    fn worst_window_single_slot_connection() {
        // One slot in 8: every flit costs a full revolution.
        assert_eq!(worst_window(&[3], 8, 1), 8);
        assert_eq!(worst_window(&[3], 8, 4), 32);
    }

    #[test]
    #[should_panic(expected = "no slots")]
    fn worst_window_requires_slots() {
        let _ = worst_window(&[], 8, 1);
    }
}
