//! `localStorage` / `sessionStorage` model.
//!
//! The parasite's browser-data module reads local storage (Table V, "Browser
//! Data" row), and the C&C layer can use it to persist command state between
//! page loads. Storage is per-origin, exactly like the real API.

use std::collections::BTreeMap;

/// Per-origin key/value storage (the `localStorage` half; `sessionStorage`
/// is the same structure cleared on browser restart).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OriginStorage {
    data: BTreeMap<String, BTreeMap<String, String>>,
}

impl OriginStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a key for an origin (`localStorage.setItem`).
    pub fn set_item(&mut self, origin: &str, key: &str, value: &str) {
        self.data
            .entry(origin.to_string())
            .or_default()
            .insert(key.to_string(), value.to_string());
    }

    /// Reads a key for an origin (`localStorage.getItem`).
    #[cfg(test)]
    fn get_item(&self, origin: &str, key: &str) -> Option<&str> {
        self.data.get(origin)?.get(key).map(String::as_str)
    }

    /// Returns every key/value pair of an origin — what a script running on
    /// that origin (for example a parasite) can dump wholesale.
    pub fn dump_origin(&self, origin: &str) -> Vec<(String, String)> {
        self.data
            .get(origin)
            .map(|entries| entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect())
            .unwrap_or_default()
    }

    /// Clears everything (clear site data).
    pub fn clear_all(&mut self) {
        self.data.clear();
    }

    /// Returns `true` if no origin has any data.
    pub fn is_empty(&self) -> bool {
        self.data.values().all(BTreeMap::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove_round_trip() {
        let mut storage = OriginStorage::new();
        storage.set_item("https://bank.example", "last_account", "DE89 3704 0044 0532 0130 00");
        assert_eq!(
            storage.get_item("https://bank.example", "last_account"),
            Some("DE89 3704 0044 0532 0130 00")
        );
        assert_eq!(storage.get_item("https://mail.example", "last_account"), None);
    }

    #[test]
    fn dump_is_scoped_to_the_origin() {
        let mut storage = OriginStorage::new();
        storage.set_item("https://a.example", "k1", "v1");
        storage.set_item("https://a.example", "k2", "v2");
        storage.set_item("https://b.example", "secret", "other");
        let dump = storage.dump_origin("https://a.example");
        assert_eq!(dump.len(), 2);
        assert!(dump.iter().all(|(k, _)| k.starts_with('k')));
        assert_eq!(storage.dump_origin("https://b.example").len(), 1);
    }

    #[test]
    fn clears_are_scoped_and_total() {
        let mut storage = OriginStorage::new();
        storage.set_item("https://a.example", "k", "v");
        storage.set_item("https://b.example", "k", "v");
        storage.clear_all();
        assert!(storage.is_empty());
    }
}
