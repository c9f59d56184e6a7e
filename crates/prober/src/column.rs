//! Id-sorted columns: the shape of the sweep's per-host results and the
//! snapshot's per-domain verdicts. The engine writes both in id order,
//! so each stays the `(id, value)` column it was written as, read in
//! place like a map; none becomes a per-host map.

use std::fmt;

/// A column of `(key, value)` entries sorted by key, each key once.
///
/// Reads are a map's: [`IdColumn::get`] (binary search), `column[&key]`,
/// [`IdColumn::len`], and iteration (`iter`, `&column`, [`keys`],
/// [`values`]) yielding `(&K, &V)` in ascending key order. Collecting an
/// iterator sorts it; when a key repeats, the later entry wins, as
/// `HashMap::from_iter` does.
///
/// [`keys`]: IdColumn::keys
/// [`values`]: IdColumn::values
#[derive(Clone, PartialEq, Eq)]
pub struct IdColumn<K, V>(Vec<(K, V)>);

/// The entry projection [`IdColumn::iter`] maps its slice through.
type EntryRef<'a, K, V> = fn(&'a (K, V)) -> (&'a K, &'a V);

impl<K: Ord + Copy, V> IdColumn<K, V> {
    /// A column over `entries`, moved in as it is. Every caller passes
    /// entries in strictly ascending key order: the engine writes its
    /// columns that way, and `Session::from_state` has already refused a
    /// checkpoint whose columns are not (a release build skips the
    /// re-check, a linear pass over every restored host).
    pub(crate) fn from_sorted(entries: Vec<(K, V)>) -> IdColumn<K, V> {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "column entries ascend by key, each key once"
        );
        IdColumn(entries)
    }

    /// The value for `key`, if the column has one.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0
            .binary_search_by_key(key, |(k, _)| *k)
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// How many entries the column holds.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Every entry as `(&key, &value)`, in ascending key order.
    pub fn iter(&self) -> <&IdColumn<K, V> as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Every key, ascending.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator + '_ {
        self.0.iter().map(|(k, _)| k)
    }

    /// Every value, in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator + '_ {
        self.0.iter().map(|(_, v)| v)
    }

    /// The entries as the sorted slice they are stored as.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.0
    }
}

impl<K, V> Default for IdColumn<K, V> {
    fn default() -> IdColumn<K, V> {
        IdColumn(Vec::new())
    }
}

/// Prints as a map, in key order.
impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IdColumn<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl<'a, K, V> IntoIterator for &'a IdColumn<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, EntryRef<'a, K, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(k, v)| (k, v))
    }
}

/// Sorts by key; of entries sharing a key, the later one wins.
impl<K: Ord + Copy, V> FromIterator<(K, V)> for IdColumn<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> IdColumn<K, V> {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        // Stable, so entries sharing a key keep their arrival order and
        // the dedup below can keep the last. Already-sorted input (the
        // common case) is one linear run.
        entries.sort_by_key(|(k, _)| *k);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        IdColumn(entries)
    }
}

/// `column[&key]`, like a map's index.
///
/// # Panics
///
/// If the column has no entry for `key`; [`IdColumn::get`] is the
/// fallible form.
impl<K: Ord + Copy, V> std::ops::Index<&K> for IdColumn<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key)
            .expect("indexed key has an entry in the column (use `get` for a key that may not)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `tests/props.rs` checks the reads against a `BTreeMap`; this pins
    /// the `Debug` text, which prints like a map's.
    #[test]
    fn debug_prints_a_map_in_key_order() {
        let column: IdColumn<u32, &str> = [(3, "c"), (1, "a"), (3, "C")].into_iter().collect();
        assert_eq!(format!("{column:?}"), r#"{1: "a", 3: "C"}"#);
    }

    #[test]
    #[should_panic(expected = "indexed key has an entry")]
    fn indexing_a_missing_key_panics() {
        let column: IdColumn<u32, u8> = IdColumn::from_sorted(vec![(1, 0)]);
        let _ = column[&2];
    }
}
