//! The one most-recently-used pool behind every keyed recycling cache.

/// A keyed MRU cache of at most `CAP` values, most recently used first.
///
/// Checkout is [`take`](MruPool::take) / [`put`](MruPool::put), not a
/// closure: a taken value is *out* of the pool, so the caller may borrow
/// its other scratch freely while using it, and a panic between the two
/// calls drops the value instead of returning it — whatever state a
/// panicking run left behind can never be recycled.
#[derive(Debug)]
pub struct MruPool<K, V, const CAP: usize> {
    entries: Vec<(K, V)>,
}

impl<K, V, const CAP: usize> Default for MruPool<K, V, CAP> {
    fn default() -> Self {
        MruPool {
            entries: Vec::new(),
        }
    }
}

impl<K: PartialEq, V, const CAP: usize> MruPool<K, V, CAP> {
    /// Removes and returns the value stored under `key`, if any.
    pub fn take(&mut self, key: &K) -> Option<V> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Stores `value` under `key` at the front, evicting the stalest
    /// entry beyond `CAP`.
    pub fn put(&mut self, key: K, value: V) {
        self.entries.insert(0, (key, value));
        self.entries.truncate(CAP);
    }

    /// How many values are currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_removes_put_fronts_and_cap_evicts_the_stalest() {
        let mut pool: MruPool<u8, &str, 2> = MruPool::default();
        assert!(pool.is_empty());
        pool.put(1, "a");
        pool.put(2, "b");
        assert_eq!(pool.take(&1), Some("a"));
        assert_eq!(pool.take(&1), None, "a taken value is out of the pool");
        pool.put(1, "a");
        pool.put(3, "c");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.take(&2), None, "2 was the stalest entry");
        assert_eq!(pool.take(&1), Some("a"));
        assert_eq!(pool.take(&3), Some("c"));
    }
}
