//! B+tree over the page cache: byte-string keys → `u64` values.
//!
//! Every node is one slotted page, the layout the heap already uses
//! ([`super::page`]): a fixed header, a directory of `u16` cell offsets
//! **sorted by key** growing forward, and the cells growing back from the
//! end of the page.
//!
//! ```text
//! node       := u8:tag u16:n u32:link u16:cell_start  slot{n} ..gap..  cell*
//! slot       := u16:offset of the cell holding the i-th smallest key
//! leaf cell  := u16:klen key u64:value      link = next leaf (0 = none)
//! inner cell := u16:klen key u32:child      link = child left of every key
//! ```
//!
//! Searches (descent, `get`, the slot an insert or delete touches, where a
//! range scan starts) are binary searches over the directory on the
//! serialized page. An insert writes one cell into the gap and shifts at
//! most `2·n` directory bytes; a delete drops a slot and leaves the cell
//! behind as a hole. Nodes are decoded (`read_node`) only when a leaf has
//! no gap left: the rewrite drops the holes, and only a node that is still
//! too big splits. The page file is rebuilt from the WAL + snapshot at every
//! open, so this layout has no on-disk compatibility to keep.
//!
//! Invariants (see DESIGN.md §15):
//! - Every node serializes into one [`PAGE_SIZE`] page; a node that would
//!   overflow splits at the midpoint, so the tree stays balanced on the
//!   insert path (all leaves at equal depth). One exception keeps monotone
//!   trees full: a key past the last key of the rightmost leaf starts a
//!   fresh right leaf instead of halving the full one.
//! - Keys are unique byte strings in strictly increasing order left-to-right;
//!   inserting an existing key replaces its value.
//! - An internal separator `s` means: the subtree right of `s` holds keys
//!   `≥ s`; descents take the child right of the last separator `≤ target`.
//! - Leaves are chained left-to-right through `link` (page 0 = none), so
//!   range scans walk leaves without re-descending.
//! - Deletes are leaf-local (no merge/rebalance): the provenance workload is
//!   append-mostly, and an underfull leaf is still a correct leaf.

use std::cmp::Ordering;
use std::ops::Bound;

use super::page::PAGE_SIZE;
use super::pager::{PageCache, PageId};

const LEAF_TAG: u8 = 1;
const INNER_TAG: u8 = 0;

/// Header bytes: tag, `n`, `link`, `cell_start`.
const HDR: usize = 9;
/// Bytes per directory slot.
const SLOT: usize = 2;
/// Payload bytes after a leaf cell's key (the value) and an inner cell's
/// (the child right of the key).
const LEAF_PAYLOAD: usize = 8;
const INNER_PAYLOAD: usize = 4;

fn u16_at(p: &[u8], o: usize) -> usize {
    u16::from_le_bytes([p[o], p[o + 1]]) as usize
}

fn u32_at(p: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([p[o], p[o + 1], p[o + 2], p[o + 3]])
}

fn u64_at(p: &[u8], o: usize) -> u64 {
    u64::from_le_bytes(p[o..o + 8].try_into().expect("8 bytes"))
}

fn put_u16(p: &mut [u8], o: usize, v: usize) {
    p[o..o + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

fn count(p: &[u8]) -> usize {
    u16_at(p, 1)
}

fn link(p: &[u8]) -> PageId {
    u32_at(p, 3)
}

/// Key of the `i`-th cell in key order, and the offset of its payload.
fn cell(p: &[u8], i: usize) -> (&[u8], usize) {
    let c = u16_at(p, HDR + SLOT * i);
    let payload = c + 2 + u16_at(p, c);
    (&p[c + 2..payload], payload)
}

/// Binary search of a serialized node's directory: `Ok(i)` when the `i`-th
/// key equals `key`, else `Err(i)` with `i` the number of keys below it.
fn search(p: &[u8], key: &[u8]) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, count(p));
    while lo < hi {
        let mid = (lo + hi) / 2;
        match cell(p, mid).0.cmp(key) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

enum Node {
    Leaf { next: PageId, entries: Vec<(Vec<u8>, u64)> },
    Inner { keys: Vec<Vec<u8>>, children: Vec<PageId> },
}

impl Node {
    /// Bytes the node takes once written (no holes).
    fn size(&self) -> usize {
        let cells =
            |key_bytes: usize, n: usize, payload: usize| HDR + key_bytes + n * (SLOT + 2 + payload);
        match self {
            Node::Leaf { entries, .. } => {
                cells(entries.iter().map(|(k, _)| k.len()).sum(), entries.len(), LEAF_PAYLOAD)
            }
            Node::Inner { keys, .. } => {
                cells(keys.iter().map(Vec::len).sum(), keys.len(), INNER_PAYLOAD)
            }
        }
    }
}

/// Decode a node. Only the split path does this — every search works on the
/// serialized page.
fn read_node(cache: &PageCache, pid: PageId) -> Node {
    cache.with_page(pid, |p| {
        let n = count(p);
        if p[0] == LEAF_TAG {
            let entries = (0..n).map(|i| cell(p, i)).map(|(k, v)| (k.to_vec(), u64_at(p, v)));
            Node::Leaf { next: link(p), entries: entries.collect() }
        } else {
            let mut children = Vec::with_capacity(n + 1);
            children.push(link(p));
            children.extend((0..n).map(|i| u32_at(p, cell(p, i).1)));
            Node::Inner { keys: (0..n).map(|i| cell(p, i).0.to_vec()).collect(), children }
        }
    })
}

/// Write `node` over page `pid`, cells packed against the end of the page.
fn write_node(cache: &PageCache, pid: PageId, node: &Node) {
    assert!(node.size() <= PAGE_SIZE, "node overflows page");
    cache.with_page_mut(pid, |p| {
        let (tag, link, n) = match node {
            Node::Leaf { next, entries } => (LEAF_TAG, *next, entries.len()),
            Node::Inner { keys, children } => (INNER_TAG, children[0], keys.len()),
        };
        p[0] = tag;
        put_u16(p, 1, n);
        p[3..7].copy_from_slice(&link.to_le_bytes());
        let mut start = PAGE_SIZE;
        let mut put = |p: &mut [u8], i: usize, key: &[u8], payload: &[u8]| {
            start -= 2 + key.len() + payload.len();
            put_u16(p, start, key.len());
            p[start + 2..start + 2 + key.len()].copy_from_slice(key);
            p[start + 2 + key.len()..start + 2 + key.len() + payload.len()]
                .copy_from_slice(payload);
            put_u16(p, HDR + SLOT * i, start);
        };
        match node {
            Node::Leaf { entries, .. } => {
                for (i, (k, v)) in entries.iter().enumerate() {
                    put(p, i, k, &v.to_le_bytes());
                }
            }
            Node::Inner { keys, children } => {
                for (i, (k, c)) in keys.iter().zip(&children[1..]).enumerate() {
                    put(p, i, k, &c.to_le_bytes());
                }
            }
        }
        put_u16(p, 7, start);
    });
}

/// Child pointer to follow for `target`, read straight off a serialized
/// inner page: the child right of the last separator `≤ target`.
fn raw_child_for(p: &[u8], target: &[u8]) -> PageId {
    debug_assert_eq!(p[0], INNER_TAG);
    match search(p, target) {
        Ok(i) => u32_at(p, cell(p, i).1),
        Err(0) => link(p),
        Err(i) => u32_at(p, cell(p, i - 1).1),
    }
}

/// Descend to the leaf that could hold `key` (leftmost leaf when `None`)
/// without deserializing the inner nodes along the way.
fn raw_leaf_for(cache: &PageCache, mut pid: PageId, key: Option<&[u8]>) -> PageId {
    loop {
        let next = cache.with_page(pid, |p| {
            (p[0] == INNER_TAG).then(|| key.map_or_else(|| link(p), |k| raw_child_for(p, k)))
        });
        match next {
            Some(c) => pid = c,
            None => return pid,
        }
    }
}

/// Put `key → val` into a serialized leaf in place: overwrite the value on
/// an exact match, else write one cell into the gap and open its slot in the
/// directory. Returns `false` (leaf untouched) when the gap is too small and
/// the leaf must go through the decode path.
fn raw_leaf_insert(p: &mut [u8], key: &[u8], val: u64) -> bool {
    debug_assert_eq!(p[0], LEAF_TAG);
    let at = match search(p, key) {
        Ok(i) => {
            let v = cell(p, i).1;
            p[v..v + LEAF_PAYLOAD].copy_from_slice(&val.to_le_bytes());
            return true;
        }
        Err(i) => i,
    };
    let n = count(p);
    let (slot, dir_end) = (HDR + SLOT * at, HDR + SLOT * n);
    let need = 2 + key.len() + LEAF_PAYLOAD;
    let cell_start = u16_at(p, 7);
    if cell_start < dir_end + SLOT + need {
        return false;
    }
    let c = cell_start - need;
    put_u16(p, c, key.len());
    p[c + 2..c + 2 + key.len()].copy_from_slice(key);
    p[c + 2 + key.len()..cell_start].copy_from_slice(&val.to_le_bytes());
    p.copy_within(slot..dir_end, slot + SLOT);
    put_u16(p, slot, c);
    put_u16(p, 1, n + 1);
    put_u16(p, 7, c);
    true
}

/// Drop `key`'s slot from a serialized leaf; its cell stays behind as a hole
/// until the leaf is next rewritten. Returns whether the key was present.
fn raw_leaf_delete(p: &mut [u8], key: &[u8]) -> bool {
    debug_assert_eq!(p[0], LEAF_TAG);
    let Ok(i) = search(p, key) else {
        return false;
    };
    let n = count(p);
    p.copy_within(HDR + SLOT * (i + 1)..HDR + SLOT * n, HDR + SLOT * i);
    put_u16(p, 1, n - 1);
    true
}

/// A B+tree rooted at one page of a [`PageCache`].
pub struct BTree {
    root: PageId,
}

impl BTree {
    /// Create an empty tree (allocates its root leaf).
    pub fn create(cache: &PageCache) -> BTree {
        let root = cache.allocate();
        write_node(cache, root, &Node::Leaf { next: 0, entries: Vec::new() });
        BTree { root }
    }

    /// Insert `key → val`, replacing the value if `key` already exists.
    pub fn insert(&mut self, cache: &PageCache, key: &[u8], val: u64) {
        // fast path: one cell into the target leaf's gap; falls through to
        // the decode/split descent only when that leaf has no gap left (~1
        // insert in fan-out, so splits stay amortised)
        let leaf = raw_leaf_for(cache, self.root, Some(key));
        if cache.with_page_mut(leaf, |p| raw_leaf_insert(p, key, val)) {
            return;
        }
        if let Some((sep, right)) = Self::insert_rec(cache, self.root, key, val) {
            let new_root = cache.allocate();
            write_node(
                cache,
                new_root,
                &Node::Inner { keys: vec![sep], children: vec![self.root, right] },
            );
            self.root = new_root;
        }
    }

    /// Insert through decoded nodes; returns the separator and right sibling
    /// when the node at `pid` had to split.
    fn insert_rec(
        cache: &PageCache,
        pid: PageId,
        key: &[u8],
        val: u64,
    ) -> Option<(Vec<u8>, PageId)> {
        match read_node(cache, pid) {
            Node::Leaf { next, mut entries } => {
                let at = match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => {
                        entries[i].1 = val;
                        i
                    }
                    Err(i) => {
                        entries.insert(i, (key.to_vec(), val));
                        i
                    }
                };
                let node = Node::Leaf { next, entries };
                if node.size() <= PAGE_SIZE {
                    // the holes deletes left were all that was in the way
                    write_node(cache, pid, &node);
                    return None;
                }
                let Node::Leaf { next, mut entries } = node else { unreachable!() };
                // a key past the end of the tree leaves the full leaf full
                let mid = if next == 0 && at + 1 == entries.len() { at } else { entries.len() / 2 };
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let right_pid = cache.allocate();
                write_node(cache, right_pid, &Node::Leaf { next, entries: right_entries });
                write_node(cache, pid, &Node::Leaf { next: right_pid, entries });
                Some((sep, right_pid))
            }
            Node::Inner { mut keys, mut children } => {
                let idx = keys.partition_point(|k| k.as_slice() <= key);
                let split = Self::insert_rec(cache, children[idx], key, val)?;
                keys.insert(idx, split.0);
                children.insert(idx + 1, split.1);
                let node = Node::Inner { keys, children };
                if node.size() <= PAGE_SIZE {
                    write_node(cache, pid, &node);
                    return None;
                }
                let Node::Inner { mut keys, mut children } = node else { unreachable!() };
                let mid = keys.len() / 2;
                let up = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // `up` moves to the parent
                let right_children = children.split_off(mid + 1);
                let right_pid = cache.allocate();
                write_node(
                    cache,
                    right_pid,
                    &Node::Inner { keys: right_keys, children: right_children },
                );
                write_node(cache, pid, &Node::Inner { keys, children });
                Some((up, right_pid))
            }
        }
    }

    /// Remove `key`; returns whether it was present. Leaf-local (no merge).
    pub fn delete(&mut self, cache: &PageCache, key: &[u8]) -> bool {
        let leaf = raw_leaf_for(cache, self.root, Some(key));
        cache.with_page_mut(leaf, |p| raw_leaf_delete(p, key))
    }

    /// Exact-key lookup on the serialized leaf — no allocation.
    pub fn get(&self, cache: &PageCache, key: &[u8]) -> Option<u64> {
        let leaf = raw_leaf_for(cache, self.root, Some(key));
        cache.with_page(leaf, |p| search(p, key).ok().map(|i| u64_at(p, cell(p, i).1)))
    }

    /// Collect up to `limit` `(key, value)` entries with keys in `(lo, hi)`,
    /// in ascending key order, appending to `out`.
    pub fn collect_range(
        &self,
        cache: &PageCache,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        limit: usize,
        out: &mut Vec<(Vec<u8>, u64)>,
    ) {
        let start: Option<&[u8]> = match lo {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        };
        // walk the leaf chain over the serialized pages, cloning only the
        // entries that are actually in range
        let mut pid = raw_leaf_for(cache, self.root, start);
        let mut first = true;
        let mut taken = 0usize;
        loop {
            let (next, done) = cache.with_page(pid, |p| {
                debug_assert_eq!(p[0], LEAF_TAG);
                // `lo` falls in the first leaf; every later key is above it
                let from = match (first, lo) {
                    (true, Bound::Included(l)) => search(p, l).unwrap_or_else(|i| i),
                    (true, Bound::Excluded(l)) => search(p, l).map_or_else(|i| i, |i| i + 1),
                    _ => 0,
                };
                for i in from..count(p) {
                    let (k, v) = cell(p, i);
                    let before_hi = match hi {
                        Bound::Included(h) => k <= h,
                        Bound::Excluded(h) => k < h,
                        Bound::Unbounded => true,
                    };
                    if !before_hi {
                        return (0, true);
                    }
                    out.push((k.to_vec(), u64_at(p, v)));
                    taken += 1;
                    if taken >= limit {
                        return (0, true);
                    }
                }
                (link(p), false)
            });
            if done || next == 0 {
                return;
            }
            first = false;
            pid = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::pager::MemPageStore;

    fn cache(cap: usize) -> PageCache {
        PageCache::new(Box::new(MemPageStore::new()), cap)
    }

    fn key(i: u64) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_get_thousands_in_shuffled_order() {
        let c = cache(64);
        let mut t = BTree::create(&c);
        let n = 5000u64;
        // deterministic shuffle: multiply by an odd constant mod 2^k
        let mut order: Vec<u64> = (0..n).map(|i| (i.wrapping_mul(2654435761)) % n).collect();
        order.sort_unstable();
        order.dedup();
        for extra in 0..n {
            if !order.contains(&extra) {
                order.push(extra);
            }
        }
        for &i in &order {
            t.insert(&c, &key(i), i * 10);
        }
        for i in 0..n {
            assert_eq!(t.get(&c, &key(i)), Some(i * 10), "key {i}");
        }
        assert_eq!(t.get(&c, &key(n + 1)), None);
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let c = cache(32);
        let mut t = BTree::create(&c);
        for i in (0..1000u64).rev() {
            t.insert(&c, &key(i), i);
        }
        let mut out = Vec::new();
        t.collect_range(
            &c,
            Bound::Included(&key(100)[..]),
            Bound::Excluded(&key(200)[..]),
            usize::MAX,
            &mut out,
        );
        assert_eq!(out.len(), 100);
        assert_eq!(out[0].1, 100);
        assert_eq!(out[99].1, 199);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));

        out.clear();
        t.collect_range(&c, Bound::Unbounded, Bound::Unbounded, 7, &mut out);
        assert_eq!(out.len(), 7, "limit respected");
        assert_eq!(out[0].1, 0);
    }

    #[test]
    fn insert_replaces_existing_value() {
        let c = cache(16);
        let mut t = BTree::create(&c);
        t.insert(&c, b"k", 1);
        t.insert(&c, b"k", 2);
        assert_eq!(t.get(&c, b"k"), Some(2));
        let mut out = Vec::new();
        t.collect_range(&c, Bound::Unbounded, Bound::Unbounded, usize::MAX, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn delete_removes_only_the_key() {
        let c = cache(32);
        let mut t = BTree::create(&c);
        for i in 0..2000u64 {
            t.insert(&c, &key(i), i);
        }
        for i in (0..2000u64).step_by(2) {
            assert!(t.delete(&c, &key(i)));
        }
        assert!(!t.delete(&c, &key(0)), "already deleted");
        for i in 0..2000u64 {
            assert_eq!(t.get(&c, &key(i)), (i % 2 == 1).then_some(i), "key {i}");
        }
        let mut out = Vec::new();
        t.collect_range(&c, Bound::Unbounded, Bound::Unbounded, usize::MAX, &mut out);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn long_keys_split_correctly() {
        let c = cache(64);
        let mut t = BTree::create(&c);
        // 264-byte keys (the index-entry maximum) force low fan-out
        let mk = |i: u64| {
            let mut k = vec![b'x'; 256];
            k.extend_from_slice(&i.to_be_bytes());
            k
        };
        for i in 0..500u64 {
            t.insert(&c, &mk(i), i);
        }
        for i in 0..500u64 {
            assert_eq!(t.get(&c, &mk(i)), Some(i));
        }
        let mut out = Vec::new();
        t.collect_range(&c, Bound::Unbounded, Bound::Unbounded, usize::MAX, &mut out);
        assert_eq!(out.len(), 500);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn survives_tiny_cache_with_eviction() {
        let c = cache(8); // min capacity → constant eviction during descent
        let mut t = BTree::create(&c);
        for i in 0..3000u64 {
            t.insert(&c, &key(i ^ 0x5A5A), i);
        }
        for i in 0..3000u64 {
            assert_eq!(t.get(&c, &key(i ^ 0x5A5A)), Some(i));
        }
        assert!(c.stats().evictions > 0);
    }

    /// Every entry, by walking the leaf chain from the leftmost leaf.
    fn all(t: &BTree, c: &PageCache) -> Vec<(Vec<u8>, u64)> {
        let mut out = Vec::new();
        t.collect_range(c, Bound::Unbounded, Bound::Unbounded, usize::MAX, &mut out);
        out
    }

    /// xorshift64*: the model test's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// 1–264 bytes from a small alphabet behind a shared prefix, so keys
        /// collide (replace, delete hits) and long ones differ only late.
        fn key(&mut self) -> Vec<u8> {
            let len = match self.below(4) {
                0 => 1 + self.below(8),
                1 => 200 + self.below(65),
                _ => 1 + self.below(40),
            } as usize;
            let mut k = vec![b'k'; len.saturating_sub(2)];
            while k.len() < len {
                k.push(b'a' + self.below(6) as u8);
            }
            k
        }
    }

    #[test]
    fn random_ops_agree_with_a_btreemap_model() {
        use std::collections::BTreeMap;
        for seed in [1u64, 0x9e37_79b9_7f4a_7c15, 0xdead_beef] {
            let c = cache(8);
            let mut t = BTree::create(&c);
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            let mut rng = Rng(seed);
            let mut pages = c.pages_allocated();
            for step in 0..6000u64 {
                let k = rng.key();
                match rng.below(10) {
                    0..=5 => {
                        t.insert(&c, &k, step);
                        model.insert(k, step);
                    }
                    6 | 7 => {
                        assert_eq!(t.delete(&c, &k), model.remove(&k).is_some(), "step {step}");
                    }
                    8 => assert_eq!(t.get(&c, &k), model.get(&k).copied(), "step {step}"),
                    _ => {
                        let (a, b) = (k, rng.key());
                        let (a, b) = if a <= b { (a, b) } else { (b, a) };
                        let bounds = |kind: u64| match kind {
                            0 => (Bound::Included(&a[..]), Bound::Included(&b[..])),
                            1 => (Bound::Excluded(&a[..]), Bound::Excluded(&b[..])),
                            2 => (Bound::Included(&a[..]), Bound::Unbounded),
                            _ => (Bound::Unbounded, Bound::Excluded(&b[..])),
                        };
                        let (lo, hi) = bounds(rng.below(4));
                        let limit = if rng.below(2) == 0 { usize::MAX } else { 5 };
                        let mut got = Vec::new();
                        t.collect_range(&c, lo, hi, limit, &mut got);
                        let want: Vec<(Vec<u8>, u64)> = model
                            .range::<[u8], _>((lo, hi))
                            .take(limit)
                            .map(|(k, v)| (k.clone(), *v))
                            .collect();
                        assert_eq!(got, want, "step {step}");
                    }
                }
                if c.pages_allocated() != pages {
                    // a split: the leaf chain still holds every key, once, in order
                    pages = c.pages_allocated();
                    let want: Vec<(Vec<u8>, u64)> =
                        model.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    assert_eq!(all(&t, &c), want, "after the split at step {step}");
                }
            }
            assert!(pages > 20, "seed {seed:#x} split only {pages} pages' worth");
            assert!(c.stats().evictions > 0);
            for (k, v) in &model {
                assert_eq!(t.get(&c, k), Some(*v));
            }
        }
    }

    #[test]
    fn an_exact_fit_stays_in_place_and_one_byte_less_compacts_before_splitting() {
        // 8-byte keys take SLOT + 2 + 8 + LEAF_PAYLOAD = 20 bytes each:
        // 408 of them leave a 23-byte gap in a single-leaf tree
        let fill = |c: &PageCache| {
            let mut t = BTree::create(c);
            for i in 0..408u64 {
                t.insert(c, &key(2 * i), i);
            }
            assert_eq!(PAGE_SIZE - HDR - 408 * 20, 23);
            t
        };
        // an 11-byte key needs 2 + 2 + 11 + 8 = 23: exactly the gap
        let c = cache(16);
        let mut t = fill(&c);
        let pages = c.pages_allocated();
        t.insert(&c, b"\x00\x00\x00\x00\x00\x00\x00\x01abc", 7);
        assert_eq!(c.pages_allocated(), pages, "an exact fit goes in place");
        assert_eq!(c.with_page(t.root, |p| (p[0], count(p))), (LEAF_TAG, 409));

        // a 12-byte key is one byte too many: the leaf splits
        let mut t = fill(&c);
        let pages = c.pages_allocated();
        t.insert(&c, b"\x00\x00\x00\x00\x00\x00\x00\x01abcd", 7);
        assert_eq!(c.pages_allocated(), pages + 2, "a right leaf and a new root");
        assert_eq!(all(&t, &c).len(), 409);

        // unless deletes left holes: the rewrite reclaims them and nothing splits
        let mut t = fill(&c);
        for i in 100..110u64 {
            assert!(t.delete(&c, &key(2 * i)));
        }
        let pages = c.pages_allocated();
        // slots came back, cells did not: the gap is 23 + 10 × 2, and 10
        // odd keys at 20 bytes each do not fit in it without the holes
        for i in 100..110u64 {
            t.insert(&c, &key(2 * i + 1), i);
        }
        assert_eq!(c.pages_allocated(), pages, "holes were compacted, no page was added");
        assert_eq!(c.with_page(t.root, |p| (p[0], count(p))), (LEAF_TAG, 408));
        let got = all(&t, &c);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert!((100..110).all(|i| t.get(&c, &key(2 * i + 1)) == Some(i)));
        assert!((100..110).all(|i| t.get(&c, &key(2 * i)).is_none()));
    }

    #[test]
    fn monotone_keys_fill_their_leaves() {
        let c = cache(64);
        let before = c.pages_allocated();
        let mut t = BTree::create(&c);
        let n = 100_000u64;
        for i in 0..n {
            t.insert(&c, &key(i), i);
        }
        let per_leaf = ((PAGE_SIZE - HDR) / (SLOT + 2 + 8 + LEAF_PAYLOAD)) as u64;
        let full_leaves = n.div_ceil(per_leaf);
        let pages = (c.pages_allocated() - before) as u64;
        // inner pages included; halving every full leaf would take twice this
        assert!(
            pages * 10 <= full_leaves * 11,
            "{pages} pages for {n} keys, {full_leaves} full leaves"
        );
        assert_eq!(all(&t, &c).len() as u64, n);
        assert_eq!(t.get(&c, &key(n - 1)), Some(n - 1));
    }
}
