//! DIR-16 jump-table front end: a 2^16-entry direct-index root table
//! fused with level-ordered sub-trie slabs.
//!
//! The flat level-slab tries ([`FlatTrie`]) fixed the *layout* of the
//! paper's pipeline memories but kept its *depth*: a /24 route still
//! costs up to 24 dependent loads from the root. Hardware IP-lookup
//! engines (DIR-24-8 and its FPGA tilings — see PAPERS.md) spend cheap
//! dense memory on the top of the trie instead: the first address bits
//! index a direct table in **one** load, and only the minority of longer
//! prefixes continue into a deeper structure.
//!
//! [`JumpTrie`] is the software rendition at a 16-bit split (DIR-16):
//!
//! * `root` — 65 536 `u32` entries, indexed by `ip >> 16`. A leaf entry
//!   (high bit set) resolves the lookup immediately with an NHI-slab
//!   slot; an internal entry is the child-base word of the covering
//!   depth-16 trie node, continuing into `words`.
//! * `words` — the depth ≥ 17 remainder of the leaf-pushed trie in the
//!   same breadth-first level-slab layout as [`FlatTrie`] (one `u32` per
//!   node, children adjacent). Because ~90 % of real routes sit at
//!   /16–/24, the remainder is shallow *and small*, so it stays
//!   cache-resident even when a full flat trie would not.
//! * `nhis` — K-wide VNID-indexed NHI vectors shared by both tiers, so
//!   one structure serves single tables (K = 1) and the virtualized
//!   merged scheme (§IV-C).
//!
//! A lookup therefore bottoms out in 1 load for prefixes at /16 or
//! shorter and `1 + (depth − 16)` loads beyond — 2–3 dependent loads for
//! the common /16–/24 band instead of 16–24.
//!
//! The structure is immutable by design: route updates build a fresh
//! `JumpTrie` and publish it atomically (see `vr-engine`'s
//! `LookupService` RCU-style swap), exactly like the hardware reloads a
//! shadow bank while the live bank keeps serving.

use crate::leafpush::LeafPushedTrie;
use crate::merge::MergedTrie;
use crate::multibit::StrideTrie;
use crate::unibit::{NodeId, UnibitTrie};
use serde::{Deserialize, Serialize};
use vr_net::table::{NextHop, RoutingTable};
use vr_net::Ipv4Prefix;

/// High bit of a root entry or node word: set for leaves.
pub const LEAF_BIT: u32 = 1 << 31;
/// Low 31 bits: child base (internal) or NHI-slab slot (leaf).
pub const PAYLOAD_MASK: u32 = LEAF_BIT - 1;

/// Bits resolved by the direct-index root table.
pub const JUMP_BITS: u32 = 16;
/// Number of root-table entries (2^16).
pub const ROOT_ENTRIES: usize = 1 << JUMP_BITS;

/// Encoded `Option<NextHop>`: `0` = no route, `1 + nh` = `Some(nh)`.
pub(crate) type NhiCode = u16;

#[inline]
pub(crate) fn encode_nhi(nhi: Option<NextHop>) -> NhiCode {
    match nhi {
        Some(nh) => 1 + NhiCode::from(nh),
        None => 0,
    }
}

#[inline]
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn decode_nhi(code: NhiCode) -> Option<NextHop> {
    code.checked_sub(1).map(|v| v as NextHop)
}

/// Two-tier lookup structure: direct-indexed first 16 bits, level-slab
/// binary trie for the remainder.
///
/// ```
/// use vr_net::RoutingTable;
/// use vr_trie::JumpTrie;
///
/// let table: RoutingTable = "10.0.0.0/8 1\n10.1.1.0/24 2\n".parse().unwrap();
/// let jump = JumpTrie::from_table(&table);
/// assert_eq!(jump.lookup(0x0A01_0103), Some(2)); // 3 loads: root + 2 levels
/// assert_eq!(jump.lookup(0x0A02_0000), Some(1)); // 1 load: root entry is final
/// assert_eq!(jump.lookup_vn(0, 0x0B00_0000), None); // no covering route
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JumpTrie {
    /// 2^16 direct-index entries, one per /16 bucket.
    root: Vec<u32>,
    /// Depth ≥ 17 node words, levels concatenated breadth-first
    /// (level 0 holds the depth-17 nodes).
    words: Vec<u32>,
    /// Start of each sub-slab level in `words`, plus one end sentinel.
    level_offsets: Vec<u32>,
    /// Leaf NHI vectors: `k` consecutive codes per leaf, VNID-indexed.
    nhis: Vec<NhiCode>,
    /// NHI vector width (1 for single tries, K for merged).
    k: usize,
}

/// Borrowed view of a [`JumpTrie`]'s raw encoding, consumed by the
/// `vr-audit` structural verifier. Field meanings match the private
/// fields of [`JumpTrie`] one for one.
#[derive(Debug, Clone, Copy)]
pub struct JumpTrieParts<'a> {
    /// 2^16 direct-index entries, one per /16 bucket.
    pub root: &'a [u32],
    /// Depth ≥ 17 node words, levels concatenated breadth-first.
    pub words: &'a [u32],
    /// Start of each sub-slab level in `words`, plus one end sentinel.
    pub level_offsets: &'a [u32],
    /// Leaf NHI vectors, `k` consecutive codes per leaf.
    pub nhis: &'a [u16],
    /// NHI vector width.
    pub k: usize,
}

impl JumpTrie {
    /// The raw encoding, for structural auditing and serialization.
    #[must_use]
    pub fn raw_parts(&self) -> JumpTrieParts<'_> {
        JumpTrieParts {
            root: &self.root,
            words: &self.words,
            level_offsets: &self.level_offsets,
            nhis: &self.nhis,
            k: self.k,
        }
    }

    /// Reassembles a trie from raw encoding parts **without validation** —
    /// the inverse of [`JumpTrie::raw_parts`]. This is the ingestion path
    /// for serialized table artifacts (and for the mutation tests that
    /// feed deliberately corrupt encodings to the verifier): nothing here
    /// proves the words well-formed, so callers must run the `vr-audit`
    /// structural checks before publishing the result to a datapath.
    #[must_use]
    pub fn from_raw_parts(
        root: Vec<u32>,
        words: Vec<u32>,
        level_offsets: Vec<u32>,
        nhis: Vec<u16>,
        k: usize,
    ) -> Self {
        Self {
            root,
            words,
            level_offsets,
            nhis,
            k,
        }
    }

    /// Builds the jump trie from a leaf-pushed trie (`K = 1`).
    #[must_use]
    pub fn from_leaf_pushed(trie: &LeafPushedTrie) -> Self {
        Self::build(trie.root(), 1, |id, nhis| {
            let children = trie.node_children(id);
            if children.is_none() {
                nhis.push(encode_nhi(trie.node_nhi(id)));
            }
            children
        })
    }

    /// Leaf-pushes and converts a uni-bit trie (`K = 1`).
    #[must_use]
    pub fn from_unibit(trie: &UnibitTrie) -> Self {
        Self::from_leaf_pushed(&LeafPushedTrie::from_unibit(trie))
    }

    /// Builds directly from a routing table (`K = 1`).
    #[must_use]
    pub fn from_table(table: &RoutingTable) -> Self {
        Self::from_unibit(&UnibitTrie::from_table(table))
    }

    /// Builds the K-wide jump trie straight from a merged trie, leaf
    /// pushing on the fly: the result is bit-identical to building over
    /// [`MergedTrie::leaf_pushed`], without materializing that trie.
    ///
    /// The walk visits virtual nodes: a merged node, or a synthetic leaf
    /// filling the missing side of an internal one. Each carries a row of
    /// one K-wide arena of effective (leaf-pushed) NHI vectors. A merged
    /// node that stores no NHI of its own shares its parent's row, and a
    /// synthetic leaf always does, so the arena holds one row per
    /// prefix-bearing node plus the all-empty row 0.
    #[must_use]
    pub fn from_merged(merged: &MergedTrie) -> Self {
        let k = merged.arity();
        let mut effs: Vec<NhiCode> = vec![0; k];
        let root = push_effective(&mut effs, merged, NodeId::ROOT, 0);
        Self::build((Some(NodeId::ROOT), root), k, |(node, row), nhis| {
            let children = node
                .map(|id| (merged.node_child(id, 0), merged.node_child(id, 1)))
                .filter(|&(l, r)| l.is_some() || r.is_some());
            let Some((l, r)) = children else {
                nhis.extend_from_slice(&effs[row * k..(row + 1) * k]);
                return None;
            };
            let mut virt = |child: Option<NodeId>| {
                let child_row = child.map_or(row, |c| push_effective(&mut effs, merged, c, row));
                (child, child_row)
            };
            Some((virt(l), virt(r)))
        })
    }

    /// Converts a fixed-stride multi-bit trie (`K = 1`) by re-expressing
    /// its expanded entries as exact-length routes and rebuilding.
    ///
    /// Prefix expansion preserves longest-prefix-match semantics (an
    /// expanded NHI stored at level `l` stems from a route of length
    /// ≤ the level boundary, and deeper entries always win), so the
    /// reconstructed jump trie answers every lookup identically to the
    /// source stride trie.
    #[must_use]
    pub fn from_stride(trie: &StrideTrie) -> Self {
        let strides = trie.strides();
        let mut boundaries = Vec::with_capacity(strides.len());
        let mut acc = 0u8;
        for &s in strides {
            boundaries.push(acc);
            acc += s;
        }
        let mut table = RoutingTable::new();
        // BFS over (node, path-bits) pairs, mirroring the stride layout:
        // every slot with an expanded NHI becomes one exact-length route.
        let mut frontier: Vec<(u32, u32)> = vec![(0, 0)];
        let mut next: Vec<(u32, u32)> = Vec::new();
        let mut level = 0usize;
        while !frontier.is_empty() {
            let stride = strides[level];
            let len = boundaries[level] + stride;
            let shift = 32 - u32::from(len);
            for &(node, path) in &frontier {
                for slot in 0..(1u32 << stride) {
                    let addr = path | (slot << shift);
                    let (nhi, child) = trie.walk_step(node, addr);
                    if let Some(nh) = nhi {
                        table.insert(Ipv4Prefix::must(addr, len), nh);
                    }
                    if let Some(child_id) = child {
                        next.push((child_id, addr));
                    }
                }
            }
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            level += 1;
        }
        Self::from_table(&table)
    }

    /// Shared construction: descend the full binary trie to depth 16,
    /// writing final entries for leaves met on the way, then flatten the
    /// surviving depth-16 subtrees breadth-first into `words`.
    ///
    /// `expand(node, nhis)` returns an internal node's two children, or
    /// appends a leaf's K-wide NHI vector to `nhis` and returns `None`.
    /// It is called exactly once per node.
    fn build<N: Copy>(
        root: N,
        k: usize,
        mut expand: impl FnMut(N, &mut Vec<NhiCode>) -> Option<(N, N)>,
    ) -> Self {
        assert!(k >= 1, "NHI vector width must be at least 1");
        let mut table = vec![0u32; ROOT_ENTRIES];
        let mut nhis: Vec<NhiCode> = Vec::new();
        // Leaf word of the next vector `expand` appends.
        let next_leaf = |nhis: &Vec<NhiCode>| -> u32 {
            let slot = u32::try_from(nhis.len() / k).expect("NHI slab overflow");
            debug_assert_eq!(slot & LEAF_BIT, 0, "jump trie too large");
            LEAF_BIT | slot
        };

        // Iterative descent to depth 16. `stack` holds (node, index of the
        // first covered /16 bucket, depth); a leaf above the cut covers a
        // whole aligned run of buckets and is emitted once.
        let mut subtrees: Vec<(usize, N, N)> = Vec::new(); // depth-16 internal nodes
        let mut stack: Vec<(N, usize, u32)> = vec![(root, 0, 0)];
        while let Some((node, bucket, depth)) = stack.pop() {
            let entry = next_leaf(&nhis);
            match expand(node, &mut nhis) {
                None => {
                    let run = 1usize << (JUMP_BITS - depth);
                    table[bucket..bucket + run].fill(entry);
                }
                Some((l, r)) if depth < JUMP_BITS => {
                    let half = 1usize << (JUMP_BITS - depth - 1);
                    stack.push((r, bucket + half, depth + 1));
                    stack.push((l, bucket, depth + 1));
                }
                // Internal node exactly at the cut: its children open the
                // sub-slab; the entry is patched below once the child base
                // is known.
                Some((l, r)) => subtrees.push((bucket, l, r)),
            }
        }

        // Flatten all surviving subtrees together, level by level: the
        // frontier of depth-17 nodes is the children of every depth-16
        // internal node, emitted adjacently — so a root entry is simply
        // the base index of its two children, the same encoding as an
        // internal FlatTrie word.
        let mut words: Vec<u32> = Vec::new();
        let mut level_offsets = vec![0u32];
        let mut frontier: Vec<N> = Vec::with_capacity(subtrees.len() * 2);
        for &(bucket, l, r) in &subtrees {
            let child_base = u32::try_from(frontier.len()).expect("jump trie too large");
            debug_assert_eq!(child_base & LEAF_BIT, 0, "jump trie too large");
            table[bucket] = child_base;
            frontier.push(l);
            frontier.push(r);
        }
        let mut next: Vec<N> = Vec::new();
        while !frontier.is_empty() {
            let next_offset = u32::try_from(words.len() + frontier.len())
                .expect("jump trie exceeds u32 words");
            for &node in &frontier {
                let entry = next_leaf(&nhis);
                match expand(node, &mut nhis) {
                    Some((l, r)) => {
                        let child_base = next_offset + u32::try_from(next.len()).unwrap();
                        debug_assert_eq!(child_base & LEAF_BIT, 0, "jump trie too large");
                        words.push(child_base);
                        next.push(l);
                        next.push(r);
                    }
                    None => words.push(entry),
                }
            }
            level_offsets.push(next_offset);
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
        }
        Self {
            root: table,
            words,
            level_offsets,
            nhis,
            k,
        }
    }

    /// NHI vector width (1, or K for merged tries).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Node words stored below the jump table (depth ≥ 17 remainder).
    #[must_use]
    pub fn sub_node_count(&self) -> usize {
        self.words.len()
    }

    /// Number of sub-slab levels (the deepest lookup costs one root load
    /// plus this many word loads).
    #[must_use]
    pub fn sub_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Number of NHI vectors stored.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nhis.len() / self.k
    }

    /// Fraction of root entries that resolve in a single load.
    #[must_use]
    pub fn direct_hit_fraction(&self) -> f64 {
        let direct = self.root.iter().filter(|&&e| e & LEAF_BIT != 0).count();
        direct as f64 / ROOT_ENTRIES as f64
    }

    /// Memory footprint in bits `(root, sub-slab pointer words, NHI
    /// entries)`, the Fig. 4-style split extended with the DIR table.
    #[must_use]
    pub fn memory_bits(&self, nhi_bits: u64) -> (u64, u64, u64) {
        (
            self.root.len() as u64 * 32,
            self.words.len() as u64 * 32,
            self.nhis.len() as u64 * nhi_bits,
        )
    }

    /// Longest-prefix match in VN 0 (the only VN for single tries).
    #[must_use]
    pub fn lookup(&self, ip: u32) -> Option<NextHop> {
        self.lookup_vn(0, ip)
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`.
    #[must_use]
    pub fn lookup_vn(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        debug_assert!(vnid < self.k);
        let mut word = self.root[(ip >> JUMP_BITS) as usize];
        let mut level = JUMP_BITS;
        while word & LEAF_BIT == 0 {
            debug_assert!(level < 32, "full trie deeper than address width");
            let bit = (ip >> (31 - level)) & 1;
            word = self.words[(word + bit) as usize];
            level += 1;
        }
        let slot = (word & PAYLOAD_MASK) as usize;
        decode_nhi(self.nhis[slot * self.k + vnid])
    }
}

/// Appends node `id`'s effective NHI row to `effs` (its own entries
/// override row `inherited`) and returns the row; a node storing no NHI
/// of its own returns `inherited` and appends nothing.
fn push_effective(
    effs: &mut Vec<NhiCode>,
    merged: &MergedTrie,
    id: NodeId,
    inherited: usize,
) -> usize {
    let own = merged.node_nhis(id);
    if own.iter().all(Option::is_none) {
        return inherited;
    }
    let k = own.len();
    let row = effs.len() / k;
    effs.extend_from_within(inherited * k..(inherited + 1) * k);
    for (slot, nhi) in effs[row * k..].iter_mut().zip(own) {
        if nhi.is_some() {
            *slot = encode_nhi(*nhi);
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::fixtures::{assert_same_parts, family, Churn, ARITIES};
    use crate::merge::MergedLeafPushed;
    use vr_net::synth::TableSpec;

    fn table(text: &str) -> RoutingTable {
        text.parse().unwrap()
    }

    fn probes(table: &RoutingTable) -> Vec<u32> {
        let mut probes: Vec<u32> = table
            .prefixes()
            .flat_map(|p| [p.addr(), p.addr() | 0xFF, p.addr().wrapping_sub(1)])
            .collect();
        probes.extend([0, 1, u32::MAX, 0x8000_0000, 0x0000_FFFF, 0x0001_0000]);
        probes
    }

    #[test]
    fn empty_trie_resolves_everything_to_none() {
        let jump = JumpTrie::from_unibit(&UnibitTrie::new());
        assert_eq!(jump.sub_node_count(), 0);
        assert_eq!(jump.sub_levels(), 0);
        assert_eq!(jump.leaf_count(), 1);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        assert_eq!(jump.lookup(0), None);
        assert_eq!(jump.lookup(u32::MAX), None);
        assert_eq!(jump.lookup(123), None);
    }

    #[test]
    fn matches_table_oracle_across_prefix_lengths() {
        let t = table(
            "0.0.0.0/0 9\n10.0.0.0/8 1\n10.1.0.0/16 2\n10.1.1.0/24 3\n\
             10.1.1.1/32 4\n192.168.0.0/17 5\n128.0.0.0/1 6\n",
        );
        let jump = JumpTrie::from_table(&t);
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip), "ip {ip:#010x}");
        }
    }

    #[test]
    fn short_prefixes_resolve_in_the_root_table() {
        // All routes at /16 or shorter: no sub-slab at all.
        let t = table("10.0.0.0/8 1\n10.1.0.0/16 2\n0.0.0.0/0 3\n");
        let jump = JumpTrie::from_table(&t);
        assert_eq!(jump.sub_node_count(), 0);
        assert!((jump.direct_hit_fraction() - 1.0).abs() < f64::EPSILON);
        for ip in probes(&t) {
            assert_eq!(jump.lookup(ip), t.lookup(ip));
        }
    }

    #[test]
    fn paper_scale_parity_with_flat_and_oracle() {
        let t = TableSpec::paper_worst_case(11).generate().unwrap();
        let flat = crate::FlatTrie::from_unibit(&UnibitTrie::from_table(&t));
        let jump = JumpTrie::from_table(&t);
        for ip in probes(&t) {
            let expect = t.lookup(ip);
            assert_eq!(jump.lookup(ip), expect, "scalar ip {ip:#010x}");
            assert_eq!(flat.lookup(ip), expect, "flat ip {ip:#010x}");
        }
        // The sub-slabs only hold the > /16 remainder.
        assert!(jump.sub_levels() <= 16);
        assert!(jump.sub_node_count() < flat.node_count());
    }

    #[test]
    fn merged_jump_serves_every_vn() {
        let tables = [
            table("10.0.0.0/8 1\n10.1.1.0/24 2\n"),
            table("10.0.0.0/8 7\n172.16.0.0/12 8\n172.16.5.0/26 9\n"),
            table(""),
        ];
        let merged = MergedTrie::from_tables(&tables).unwrap();
        let jump = JumpTrie::from_merged(&merged);
        assert_eq!(jump.arity(), 3);
        for (vn, t) in tables.iter().enumerate() {
            for ip in probes(t) {
                assert_eq!(jump.lookup_vn(vn, ip), t.lookup(ip), "vn {vn} ip {ip:#010x}");
            }
        }
    }

    /// The generic builder over a materialized leaf-pushed merged trie:
    /// the reference [`JumpTrie::from_merged`] must reproduce.
    fn reference(trie: &MergedLeafPushed) -> JumpTrie {
        let k = trie.arity();
        JumpTrie::build(trie.root(), k, |id, nhis| {
            let children = trie.node_children(id);
            if children.is_none() {
                nhis.extend((0..k).map(|vn| encode_nhi(trie.node_nhi_for(id, vn))));
            }
            children
        })
    }

    #[test]
    fn direct_merged_build_equals_leaf_pushed_build() {
        for k in ARITIES {
            let mut tables = family(k, 7 + k as u64);
            let mut merged = MergedTrie::from_tables(&tables).unwrap();
            let mut churn = Churn::new(k as u64);
            for round in 0..3 {
                let what = format!("K={k} round {round}");
                let direct = JumpTrie::from_merged(&merged);
                assert_same_parts(&direct, &reference(&merged.leaf_pushed()), &what);
                if k == 1 {
                    assert_same_parts(&direct, &JumpTrie::from_table(&tables[0]), &what);
                }
                churn.round(&mut merged, &mut tables, 200);
            }
        }
    }

    #[test]
    fn from_stride_matches_the_stride_trie() {
        let t = TableSpec::paper_worst_case(5).generate().unwrap();
        for strides in [&[8u8, 8, 8, 8][..], &[4; 8][..], &[6, 6, 6, 6, 4, 4][..]] {
            let stride = StrideTrie::from_table(&t, strides).unwrap();
            let jump = JumpTrie::from_stride(&stride);
            for ip in probes(&t) {
                assert_eq!(jump.lookup(ip), stride.lookup(ip), "ip {ip:#010x}");
                assert_eq!(jump.lookup(ip), t.lookup(ip), "oracle ip {ip:#010x}");
            }
        }
    }

    #[test]
    fn memory_split_accounts_every_word() {
        let t = TableSpec::paper_worst_case(3).generate().unwrap();
        let jump = JumpTrie::from_table(&t);
        let (root_bits, word_bits, nhi_bits) = jump.memory_bits(8);
        assert_eq!(root_bits, (ROOT_ENTRIES as u64) * 32);
        assert_eq!(word_bits, jump.sub_node_count() as u64 * 32);
        assert_eq!(nhi_bits, jump.leaf_count() as u64 * 8);
    }
}
