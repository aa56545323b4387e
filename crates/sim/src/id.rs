//! Processor identifiers and identifier sets.
//!
//! The paper's model (§2) gives every processor a unique identification
//! number that is common knowledge. We model identifiers as dense indices
//! `0..n`, which lets the rest of the system use flat vectors keyed by
//! processor everywhere.

use std::fmt;

/// A processor identifier: a dense index in `0..n`.
///
/// `ProcessId` is a newtype so that processor indices cannot be confused
/// with round numbers, tree levels, or payload offsets.
///
/// # Examples
///
/// ```
/// use sg_sim::ProcessId;
///
/// let p = ProcessId(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "P3");
/// ```
#[derive(
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Debug,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The dense index of this processor in `0..n`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

/// A set of processors out of a system of `n`, stored as a bitmap.
///
/// Used for fault sets and for the lists `L_p` of discovered faulty
/// processors. All operations are O(1) or O(n) with tiny constants, which
/// matters because discovery rules consult the set on every tree node.
///
/// # Examples
///
/// ```
/// use sg_sim::{ProcessId, ProcessSet};
///
/// let mut s = ProcessSet::new(5);
/// s.insert(ProcessId(2));
/// assert!(s.contains(ProcessId(2)));
/// assert_eq!(s.len(), 1);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![ProcessId(2)]);
/// ```
#[derive(PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub struct ProcessSet {
    bits: Vec<bool>,
    count: usize,
}

impl Clone for ProcessSet {
    fn clone(&self) -> Self {
        ProcessSet {
            bits: self.bits.clone(),
            count: self.count,
        }
    }

    /// Reuses `self`'s buffer (the batch engine overwrites its kept
    /// fault set once per chunk; the derived `clone_from` would
    /// reallocate).
    fn clone_from(&mut self, source: &Self) {
        self.bits.clone_from(&source.bits);
        self.count = source.count;
    }
}

/// The empty set over no processors.
impl Default for ProcessSet {
    fn default() -> Self {
        ProcessSet::new(0)
    }
}

impl ProcessSet {
    /// Creates an empty set over a system of `n` processors.
    pub fn new(n: usize) -> Self {
        ProcessSet {
            bits: vec![false; n],
            count: 0,
        }
    }

    /// Creates a set containing the given processors.
    ///
    /// # Panics
    ///
    /// Panics if any member's index is `>= n`.
    pub fn from_members<I: IntoIterator<Item = ProcessId>>(n: usize, members: I) -> Self {
        let mut set = ProcessSet::new(n);
        for p in members {
            set.insert(p);
        }
        set
    }

    /// The system size `n` this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.bits.len()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `p` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= n`.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        self.bits[p.index()]
    }

    /// Inserts `p`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= n`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let slot = &mut self.bits[p.index()];
        if *slot {
            false
        } else {
            *slot = true;
            self.count += 1;
            true
        }
    }

    /// Empties the set in place, keeping its universe and storage —
    /// the allocation-free counterpart of rebuilding with
    /// [`ProcessSet::new`], used by pooled protocol instances. An empty
    /// set, the common case at a run's reset, is left as it is.
    pub fn clear(&mut self) {
        if self.count > 0 {
            self.bits.fill(false);
            self.count = 0;
        }
    }

    /// Removes `p`; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let slot = &mut self.bits[p.index()];
        if *slot {
            *slot = false;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over members in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| ProcessId(i))
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl Extend<ProcessId> for ProcessSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ProcessId(0).to_string(), "P0");
        assert_eq!(ProcessId(12).to_string(), "P12");
    }

    #[test]
    fn set_insert_remove_roundtrip() {
        let mut s = ProcessSet::new(8);
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.contains(ProcessId(3)));
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
        s.extend([ProcessId(1), ProcessId(6)]);
        s.clear();
        assert_eq!(s, ProcessSet::new(8));
        s.clear();
        assert_eq!(s, ProcessSet::new(8));
    }

    #[test]
    fn set_iter_sorted() {
        let s = ProcessSet::from_members(6, [ProcessId(5), ProcessId(1), ProcessId(3)]);
        let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(got, vec![1, 3, 5]);
    }

    #[test]
    fn set_display() {
        let s = ProcessSet::from_members(5, [ProcessId(2), ProcessId(0)]);
        assert_eq!(s.to_string(), "{P0, P2}");
    }
}
