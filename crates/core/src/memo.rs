//! A memo of the last few distinct byte strings and what was computed from
//! each.
//!
//! A café's race world repeats a handful of byte strings thousands of times:
//! every victim sends the same request and receives one of a few responses.
//! The master's tap ([`crate::injection::MasterTap`]) and the classifier of
//! delivered streams keep what they computed for the last few distinct
//! strings and compute again only for a string they have not seen.

/// The values of the last `N` distinct keys inserted, matched by full byte
/// equality and replaced oldest first.
pub(crate) struct RecentMemo<K, V, const N: usize> {
    entries: [Option<(K, V)>; N],
    /// The slot the next insertion replaces.
    oldest: usize,
}

impl<K: AsRef<[u8]>, V: Copy, const N: usize> RecentMemo<K, V, N> {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        RecentMemo { entries: std::array::from_fn(|_| None), oldest: 0 }
    }

    /// The value kept for a key equal to `key`, if any.
    pub(crate) fn get(&self, key: &[u8]) -> Option<V> {
        self.entries
            .iter()
            .flatten()
            .find(|(seen, _)| seen.as_ref() == key)
            .map(|&(_, value)| value)
    }

    /// Keeps `value` for `key`, replacing the entry inserted longest ago once
    /// all `N` slots are full. The caller looks `key` up first, so no two
    /// entries hold equal keys.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.entries[self.oldest] = Some((key, value));
        self.oldest = (self.oldest + 1) % N;
    }

    /// The value kept for `key`, or `compute(key)`, kept for later lookups.
    pub(crate) fn get_or_insert_with(&mut self, key: K, compute: impl FnOnce(&[u8]) -> V) -> V {
        if let Some(value) = self.get(key.as_ref()) {
            return value;
        }
        let value = compute(key.as_ref());
        self.insert(key, value);
        value
    }

    /// Forgets every entry.
    pub(crate) fn clear(&mut self) {
        *self = RecentMemo::new();
    }
}

#[cfg(test)]
mod tests {
    use super::RecentMemo;

    #[test]
    fn keeps_the_last_n_distinct_keys_by_content() {
        let mut memo: RecentMemo<Vec<u8>, usize, 2> = RecentMemo::new();
        let mut computed = 0;
        let mut len_of = |key: &[u8]| {
            computed += 1;
            key.len()
        };
        assert_eq!(memo.get_or_insert_with(b"ab".to_vec(), &mut len_of), 2);
        // An equal key in another buffer hits.
        assert_eq!(memo.get_or_insert_with(b"ab".to_vec(), &mut len_of), 2);
        assert_eq!(memo.get_or_insert_with(b"abc".to_vec(), &mut len_of), 3);
        assert_eq!(memo.get_or_insert_with(b"".to_vec(), &mut len_of), 0);
        assert_eq!(computed, 3);
        // "ab" was inserted longest ago and is gone; "abc" and "" remain.
        assert_eq!(memo.get(b"ab"), None);
        assert_eq!(memo.get(b"abc"), Some(3));
        assert_eq!(memo.get(b""), Some(0));
        memo.clear();
        assert_eq!(memo.get(b"abc"), None);
        assert_eq!(memo.get(b""), None);
    }
}
