//! The list `L_p` of processors a correct processor has discovered to be
//! faulty (paper §3).
//!
//! `L_p` starts empty, only ever grows, and — provided at most `t`
//! processors fail — contains only genuinely faulty processors (the paper
//! proves this invariant for the Fault Discovery Rule; our integration
//! tests check it on every execution).

use sg_sim::ProcessId;

/// A processor's knowledge of who is faulty, with discovery rounds.
///
/// Membership is a bit mask (bit `q % 64` of word `q / 64`), so the
/// discovery rules can mask a row of children with it and an emptied
/// list costs its members, not `n`.
///
/// # Examples
///
/// ```
/// use sg_eigtree::FaultList;
/// use sg_sim::ProcessId;
///
/// let mut l = FaultList::new(5);
/// assert!(l.insert(ProcessId(3), 2));
/// assert!(!l.insert(ProcessId(3), 4)); // already known
/// assert!(l.contains(ProcessId(3)));
/// assert_eq!(l.len(), 1);
/// assert_eq!(l.discovered_in(ProcessId(3)), Some(2));
/// assert_eq!(l.words(), &[0b1000]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultList {
    words: Vec<u64>,
    len: usize,
    rounds: Vec<Option<usize>>,
}

impl FaultList {
    /// An empty list over a system of `n` processors.
    pub fn new(n: usize) -> Self {
        FaultList {
            words: vec![0; n.div_ceil(64)],
            len: 0,
            rounds: vec![None; n],
        }
    }

    /// Empties the list in place for a system of `n` processors, reusing
    /// the storage when the size is unchanged (pooled instances).
    pub fn reset(&mut self, n: usize) {
        if self.rounds.len() == n {
            for (w, word) in self.words.iter_mut().enumerate() {
                while *word != 0 {
                    self.rounds[w * 64 + word.trailing_zeros() as usize] = None;
                    *word &= *word - 1;
                }
            }
        } else {
            *self = FaultList::new(n);
        }
        self.len = 0;
    }

    /// Whether `p` has been discovered.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        self.words[p.index() / 64] >> (p.index() % 64) & 1 == 1
    }

    /// Number of discovered processors, `|L_p|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been discovered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records that `p` was discovered in `round`. Returns `true` if `p`
    /// was newly added. A processor already in the list stays with its
    /// original discovery round (re-detections are no-ops).
    pub fn insert(&mut self, p: ProcessId, round: usize) -> bool {
        if self.contains(p) {
            return false;
        }
        self.words[p.index() / 64] |= 1 << (p.index() % 64);
        self.rounds[p.index()] = Some(round);
        self.len += 1;
        true
    }

    /// The round in which `p` was first discovered, if it ever was.
    pub fn discovered_in(&self, p: ProcessId) -> Option<usize> {
        self.rounds[p.index()]
    }

    /// The membership mask: bit `q % 64` of word `q / 64` is set iff
    /// processor `q` is listed.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over discovered processors in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    ProcessId(w * 64 + bit)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_records_first_round_only() {
        let mut l = FaultList::new(4);
        assert!(l.insert(ProcessId(1), 3));
        assert!(!l.insert(ProcessId(1), 5));
        assert_eq!(l.discovered_in(ProcessId(1)), Some(3));
        assert_eq!(l.discovered_in(ProcessId(2)), None);
    }

    #[test]
    fn len_tracks_unique_members() {
        let mut l = FaultList::new(4);
        l.insert(ProcessId(0), 1);
        l.insert(ProcessId(2), 2);
        l.insert(ProcessId(0), 3);
        assert_eq!(l.len(), 2);
        let members: Vec<ProcessId> = l.iter().collect();
        assert_eq!(members, vec![ProcessId(0), ProcessId(2)]);
    }
}
