//! K-way trie merging for the virtualized-merged scheme (§IV-C, §V-D).
//!
//! The merged scheme overlays the K virtual networks' tries into one: a
//! merged node exists wherever *any* constituent trie has a node, and a
//! merged leaf stores a K-wide NHI vector indexed by VNID. Structural
//! similarity between tries means merged size ≪ sum of sizes; the paper
//! quantifies this with the **merging efficiency** α (Assumption 4:
//! common nodes / total nodes).
//!
//! We measure α on the built structure as
//! `common nodes (present in all K tries) / mean per-trie node count`,
//! which is 1.0 for identical tries and →0 for structurally disjoint ones,
//! and coincides with the paper's common/total reading for equal-size
//! tables. [`MergedTrie::overlap_ratio`] additionally reports the laxer
//! `shared (≥2 tries) / merged total` metric for comparison.
//!
//! The merged trie is fully **incremental** (the authors' follow-up work,
//! paper ref. \[6\], adds on-the-fly updates to virtualized routers):
//! [`MergedTrie::insert`] and [`MergedTrie::remove`] announce/withdraw one
//! virtual network's route, maintaining per-VN subtree accounting so
//! presence masks, per-VN node counts and pruning stay exact under churn.

use crate::unibit::{NodeId, UnibitTrie};
use crate::TrieError;
use std::ops::Range;
use vr_net::table::NextHop;
use vr_net::{Ipv4Prefix, RoutingTable};

/// Maximum number of tables a merge supports (presence mask is 64-bit; the
/// paper evaluates K ≤ 15, Fig. 4 sweeps to 30).
pub const MAX_MERGE_ARITY: usize = 64;

/// Longest path from the root: one node per prefix bit plus the root.
const MAX_PATH: usize = 33;

#[derive(Debug, Clone, Copy)]
struct MergedNode {
    children: [Option<NodeId>; 2],
    /// Bit k set ⇔ VN k has ≥1 prefix at or below this node — i.e. the
    /// node lies in VN k's own trie.
    presence: u64,
}

impl MergedNode {
    const EMPTY: Self = Self {
        children: [None, None],
        presence: 0,
    };

    fn is_leaf(&self) -> bool {
        self.children[0].is_none() && self.children[1].is_none()
    }
}

/// The K-way overlay of uni-bit tries (before leaf pushing), supporting
/// incremental announce/withdraw per virtual network.
///
/// The per-VN state of every node lives in two flat K-wide arenas indexed
/// by `id * k`, not in per-node vectors, so building or cloning the trie
/// takes a fixed number of allocations, not two per node.
///
/// ```
/// use vr_trie::MergedTrie;
///
/// let mut merged = MergedTrie::new(2).unwrap();
/// let p = "10.0.0.0/8".parse().unwrap();
/// merged.insert(0, p, 7); // VN 0 announces
/// merged.insert(1, p, 9); // VN 1 announces the same prefix, other hop
/// assert_eq!(merged.lookup(0, 0x0A000001), Some(7));
/// assert_eq!(merged.lookup(1, 0x0A000001), Some(9));
/// assert_eq!(merged.merging_efficiency(), 1.0); // identical structures
/// merged.remove(1, &p);
/// assert_eq!(merged.lookup(1, 0x0A000001), None);
/// ```
#[derive(Debug, Clone)]
pub struct MergedTrie {
    nodes: Vec<MergedNode>,
    /// Per-VN prefix NHI stored at each node (pre leaf pushing), `k`
    /// entries per node.
    nhis: Vec<Option<NextHop>>,
    /// Per-VN count of prefixes in each node's subtree (incl. itself), `k`
    /// entries per node; drives presence maintenance and pruning under
    /// withdrawals.
    subtree_prefixes: Vec<u32>,
    free: Vec<NodeId>,
    live_nodes: usize,
    k: usize,
    /// Live merged nodes belonging to each VN's trie (presence bit set).
    per_vn_nodes: Vec<usize>,
    /// Live nodes present in *all* K tries (presence == full mask),
    /// maintained incrementally so α reads are O(1) under churn.
    common_nodes: usize,
}

impl MergedTrie {
    /// Creates an empty merged trie for `k` virtual networks.
    ///
    /// # Errors
    /// Rejects arity 0 and arity above [`MAX_MERGE_ARITY`].
    pub fn new(k: usize) -> Result<Self, TrieError> {
        if k == 0 || k > MAX_MERGE_ARITY {
            return Err(TrieError::BadMergeArity(k));
        }
        Ok(Self {
            nodes: vec![MergedNode::EMPTY],
            nhis: vec![None; k],
            subtree_prefixes: vec![0; k],
            free: Vec::new(),
            live_nodes: 1,
            k,
            per_vn_nodes: vec![0; k],
            common_nodes: 0,
        })
    }

    /// Merges `tries` (one per virtual network, VNID = index) by
    /// re-announcing every stored route.
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tries(tries: &[UnibitTrie]) -> Result<Self, TrieError> {
        let tables: Vec<RoutingTable> = tries.iter().map(UnibitTrie::to_table).collect();
        Self::from_tables(&tables)
    }

    /// Builds the merged trie from routing tables in bulk.
    ///
    /// Each table is walked in its `(addr, len)` order and every insert
    /// resumes from the deepest node its prefix shares with the previous
    /// one, storing only the NHI. Subtree counts, presence masks and the
    /// per-VN and common tallies are then derived in one reverse sweep,
    /// so the result equals announcing every route with
    /// [`MergedTrie::insert`].
    ///
    /// # Errors
    /// Same arity constraints as [`MergedTrie::new`].
    pub fn from_tables(tables: &[RoutingTable]) -> Result<Self, TrieError> {
        let mut merged = Self::new(tables.len())?;
        let k = merged.k;
        // Merging overlays the K tries, so the node count is the largest
        // member plus the unshared tails of the others: ~3 nodes per
        // prefix of the largest table and ~1.5 per prefix of the rest.
        // Paper-scale families (3,725 prefixes per table, shared fraction
        // 0.5) measure 11,087 nodes at K = 1, 27,468 at K = 4 and 84,005
        // at K = 15; reserving for that fill keeps the arena from
        // regrowing mid-build.
        let largest = tables.iter().map(RoutingTable::len).max().unwrap_or(0);
        let total: usize = tables.iter().map(RoutingTable::len).sum();
        let reserve = 3 * largest + 3 * (total - largest) / 2 + 1;
        merged.nodes.reserve(reserve);
        merged.nhis.reserve(reserve.saturating_mul(k));
        for (vnid, table) in tables.iter().enumerate() {
            // `path[d]` is the depth-d node on the previous prefix's path.
            let mut path = [NodeId::ROOT; MAX_PATH];
            let mut prev = Ipv4Prefix::DEFAULT_ROUTE;
            for entry in table.iter() {
                let prefix = entry.prefix;
                let shared = (prev.addr() ^ prefix.addr())
                    .leading_zeros()
                    .min(u32::from(prev.len().min(prefix.len()))) as usize;
                let mut cur = path[shared];
                for depth in shared..usize::from(prefix.len()) {
                    let slot = ((prefix.addr() >> (31 - depth)) & 1) as usize;
                    cur = match merged.nodes[cur.idx()].children[slot] {
                        Some(child) => child,
                        None => {
                            let child = merged.push_node();
                            merged.nodes[cur.idx()].children[slot] = Some(child);
                            child
                        }
                    };
                    path[depth + 1] = cur;
                }
                merged.nhis[cur.idx() * k + vnid] = Some(entry.next_hop);
                prev = prefix;
            }
        }
        merged.derive_counts();
        Ok(merged)
    }

    /// Appends a fresh node to the arena without touching the counters:
    /// the bulk build derives those once at the end.
    fn push_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("merged trie exceeds u32 nodes"));
        self.nodes.push(MergedNode::EMPTY);
        self.nhis.resize(self.nhis.len() + self.k, None);
        id
    }

    /// Derives subtree counts, presence masks and the per-VN and common
    /// tallies from the stored NHIs in one reverse sweep over a fresh
    /// arena, where every child's id exceeds its parent's.
    fn derive_counts(&mut self) {
        let k = self.k;
        let full = full_mask(k);
        self.live_nodes = self.nodes.len();
        self.subtree_prefixes = vec![0; self.nodes.len() * k];
        for i in (0..self.nodes.len()).rev() {
            let children = self.nodes[i].children;
            let mut presence = 0u64;
            for vn in 0..k {
                let mut count = u32::from(self.nhis[i * k + vn].is_some());
                for child in children.into_iter().flatten() {
                    debug_assert!(child.idx() > i, "bulk arena is parent-before-child");
                    count += self.subtree_prefixes[child.idx() * k + vn];
                }
                self.subtree_prefixes[i * k + vn] = count;
                if count > 0 {
                    presence |= 1u64 << vn;
                    self.per_vn_nodes[vn] += 1;
                }
            }
            self.nodes[i].presence = presence;
            if presence == full {
                self.common_nodes += 1;
            }
        }
    }

    /// Number of virtual networks merged.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Total live merged node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Live merged nodes belonging to VN `vnid`'s trie.
    #[must_use]
    pub fn vn_node_count(&self, vnid: usize) -> usize {
        self.per_vn_nodes[vnid]
    }

    /// Announces (or replaces) a route for virtual network `vnid`.
    /// Returns the previous next hop, if the prefix was already present.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    pub fn insert(&mut self, vnid: usize, prefix: Ipv4Prefix, next_hop: NextHop) -> Option<NextHop> {
        assert!(vnid < self.k, "vnid out of range");
        // Walk/create the path.
        let mut path = [NodeId::ROOT; MAX_PATH];
        let mut cur = NodeId::ROOT;
        for (depth, bit) in prefix.bits().enumerate() {
            let slot = usize::from(bit);
            cur = match self.nodes[cur.idx()].children[slot] {
                Some(child) => child,
                None => {
                    let child = self.alloc();
                    self.nodes[cur.idx()].children[slot] = Some(child);
                    child
                }
            };
            path[depth + 1] = cur;
        }
        let prev = self.nhis[cur.idx() * self.k + vnid].replace(next_hop);
        if prev.is_none() {
            let bit = 1u64 << vnid;
            let full = full_mask(self.k);
            for id in &path[..=usize::from(prefix.len())] {
                self.subtree_prefixes[id.idx() * self.k + vnid] += 1;
                let node = &mut self.nodes[id.idx()];
                if node.presence & bit == 0 {
                    node.presence |= bit;
                    self.per_vn_nodes[vnid] += 1;
                    if node.presence == full {
                        self.common_nodes += 1;
                    }
                }
            }
        }
        prev
    }

    /// Withdraws a route for virtual network `vnid`, pruning merged nodes
    /// no VN uses anymore. Returns the removed next hop, if present.
    ///
    /// # Panics
    /// Panics if `vnid ≥ arity`.
    pub fn remove(&mut self, vnid: usize, prefix: &Ipv4Prefix) -> Option<NextHop> {
        assert!(vnid < self.k, "vnid out of range");
        // `path[d]` is the depth-d node and the branch taken to reach it.
        let mut path = [(NodeId::ROOT, 0u8); MAX_PATH];
        let mut cur = NodeId::ROOT;
        for (depth, bit) in prefix.bits().enumerate() {
            cur = self.nodes[cur.idx()].children[usize::from(bit)]?;
            path[depth + 1] = (cur, u8::from(bit));
        }
        let removed = self.nhis[cur.idx() * self.k + vnid].take()?;
        let bit = 1u64 << vnid;
        let full = full_mask(self.k);
        let mut top = usize::from(prefix.len());
        for (id, _) in &path[..=top] {
            let count = &mut self.subtree_prefixes[id.idx() * self.k + vnid];
            *count -= 1;
            let node = &mut self.nodes[id.idx()];
            if *count == 0 && node.presence & bit != 0 {
                if node.presence == full {
                    self.common_nodes -= 1;
                }
                node.presence &= !bit;
                self.per_vn_nodes[vnid] -= 1;
            }
        }
        // Prune orphaned nodes bottom-up (never the root). A node with
        // zero presence has no prefixes in its subtree for any VN, hence
        // no live descendants either.
        while top > 0 {
            let (id, slot) = path[top];
            let node = &self.nodes[id.idx()];
            if node.presence != 0 || !node.is_leaf() {
                break;
            }
            top -= 1;
            let (parent, _) = path[top];
            self.nodes[parent.idx()].children[usize::from(slot)] = None;
            self.free.push(id);
            self.live_nodes -= 1;
        }
        Some(removed)
    }

    fn alloc(&mut self) -> NodeId {
        self.live_nodes += 1;
        if let Some(id) = self.free.pop() {
            // A pruned node had zero presence, so its rows are already
            // all-empty and all-zero.
            debug_assert!(self.nhis[self.row(id)].iter().all(Option::is_none));
            debug_assert!(self.subtree_prefixes[self.row(id)].iter().all(|&c| c == 0));
            self.nodes[id.idx()] = MergedNode::EMPTY;
            id
        } else {
            let id = self.push_node();
            self.subtree_prefixes.resize(self.subtree_prefixes.len() + self.k, 0);
            id
        }
    }

    /// Node `id`'s K-wide row in the `nhis` and `subtree_prefixes` arenas.
    fn row(&self, id: NodeId) -> Range<usize> {
        id.idx() * self.k..(id.idx() + 1) * self.k
    }

    /// Iterates the live nodes (root first, depth-first).
    fn walk(&self) -> Walk<'_> {
        Walk {
            trie: self,
            stack: vec![NodeId::ROOT],
        }
    }

    /// Nodes present in *all* K constituent tries. O(1): the count is
    /// maintained incrementally by [`MergedTrie::insert`] /
    /// [`MergedTrie::remove`], so α can be sampled after every update
    /// batch without re-walking the arena.
    #[must_use]
    pub fn common_node_count(&self) -> usize {
        self.common_nodes
    }

    /// Nodes present in at least two constituent tries.
    #[must_use]
    pub fn shared_node_count(&self) -> usize {
        self.walk()
            .filter(|id| self.nodes[id.idx()].presence.count_ones() >= 2)
            .count()
    }

    /// Measured merging efficiency α ∈ [0, 1]: nodes common to all K tries
    /// over the mean per-trie node count. 1.0 for identical tries.
    #[must_use]
    pub fn merging_efficiency(&self) -> f64 {
        let mean: f64 =
            self.per_vn_nodes.iter().sum::<usize>() as f64 / self.per_vn_nodes.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        (self.common_node_count() as f64 / mean).min(1.0)
    }

    /// Laxer overlap metric: nodes shared by ≥2 tries over merged total.
    #[must_use]
    pub fn overlap_ratio(&self) -> f64 {
        if self.live_nodes == 0 {
            return 0.0;
        }
        self.shared_node_count() as f64 / self.live_nodes as f64
    }

    /// Node-count saving vs. keeping the K tries separate:
    /// `1 − merged / Σ per-trie`.
    #[must_use]
    pub fn node_saving(&self) -> f64 {
        let total: usize = self.per_vn_nodes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.node_count() as f64 / total as f64
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`.
    ///
    /// Walks the merged structure but only honours NHI entries belonging to
    /// `vnid` — a software rendition of the VNID-indexed lookup (§IV-C).
    #[must_use]
    pub fn lookup(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        debug_assert!(vnid < self.k);
        let mut cur = 0usize;
        let mut best = self.nhis[vnid];
        for depth in 0..32u8 {
            let bit = ((ip >> (31 - depth)) & 1) as usize;
            match self.nodes[cur].children[bit] {
                Some(child) => {
                    cur = child.idx();
                    if let Some(nh) = self.nhis[cur * self.k + vnid] {
                        best = Some(nh);
                    }
                }
                None => break,
            }
        }
        best
    }

    /// Batched longest-prefix match in virtual network `vnid`: element `i`
    /// of `out` receives exactly `self.lookup(vnid, dsts[i])`.
    ///
    /// Destinations advance one level per pass over the batch (stage
    /// lockstep) — see [`UnibitTrie::lookup_batch`].
    ///
    /// [`UnibitTrie::lookup_batch`]: crate::UnibitTrie::lookup_batch
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch(&self, vnid: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        assert_eq!(
            dsts.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        debug_assert!(vnid < self.k);
        out.fill(self.nhis[vnid]);
        let mut cur: Vec<usize> = vec![0; dsts.len()];
        let mut active: Vec<u32> = (0..u32::try_from(dsts.len()).expect("batch too large")).collect();
        let mut survivors: Vec<u32> = Vec::with_capacity(active.len());
        for depth in 0..32u8 {
            if active.is_empty() {
                break;
            }
            for &i in &active {
                let idx = i as usize;
                let bit = ((dsts[idx] >> (31 - depth)) & 1) as usize;
                if let Some(child) = self.nodes[cur[idx]].children[bit] {
                    cur[idx] = child.idx();
                    if let Some(nh) = self.nhis[child.idx() * self.k + vnid] {
                        out[idx] = Some(nh);
                    }
                    survivors.push(i);
                }
            }
            active.clear();
            std::mem::swap(&mut active, &mut survivors);
        }
    }

    /// Applies leaf pushing, producing the structure the pipeline stores.
    #[must_use]
    pub fn leaf_pushed(&self) -> MergedLeafPushed {
        MergedLeafPushed::from_merged(self)
    }

    /// Internal-consistency check used by property tests: reachability,
    /// counters and presence/subtree invariants all agree.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        let mut reachable = 0usize;
        let mut per_vn = vec![0usize; self.k];
        let mut prefix_totals = vec![0u64; self.k];
        let mut common = 0usize;
        let full = full_mask(self.k);
        for id in self.walk() {
            reachable += 1;
            let node = &self.nodes[id.idx()];
            if node.presence == full {
                common += 1;
            }
            let row = self.row(id);
            let (nhis, subtree) = (&self.nhis[row.clone()], &self.subtree_prefixes[row]);
            for vn in 0..self.k {
                let bit_set = node.presence & (1u64 << vn) != 0;
                if bit_set != (subtree[vn] > 0) {
                    return false;
                }
                if bit_set {
                    per_vn[vn] += 1;
                }
                if nhis[vn].is_some() {
                    prefix_totals[vn] += 1;
                }
            }
            // A live non-root node must serve someone.
            if id != NodeId::ROOT && node.presence == 0 && node.is_leaf() {
                return false;
            }
        }
        // Root subtree counters must equal total prefixes per VN.
        let root = &self.subtree_prefixes[self.row(NodeId::ROOT)];
        for (vn, total) in prefix_totals.iter().enumerate() {
            if u64::from(root[vn]) != *total {
                return false;
            }
        }
        reachable == self.live_nodes
            && per_vn == self.per_vn_nodes
            && common == self.common_nodes
            && self.live_nodes + self.free.len() == self.nodes.len()
            && self.nhis.len() == self.nodes.len() * self.k
            && self.subtree_prefixes.len() == self.nodes.len() * self.k
    }

    /// Child of node `id` along branch `bit` (0 = left, 1 = right).
    ///
    /// Exposes the merged structure read-only so sub-slab builders
    /// ([`crate::subslab::JumpSlabs`]) can descend without cloning.
    ///
    /// # Panics
    /// Panics if `bit > 1` or `id` is not a live node id.
    #[must_use]
    pub fn node_child(&self, id: NodeId, bit: usize) -> Option<NodeId> {
        self.nodes[id.idx()].children[bit]
    }

    /// Per-VN next-hop entries stored at node `id` (pre leaf pushing),
    /// indexed by VNID.
    ///
    /// # Panics
    /// Panics if `id` is not a live node id.
    #[must_use]
    pub fn node_nhis(&self, id: NodeId) -> &[Option<NextHop>] {
        &self.nhis[self.row(id)]
    }
}

struct Walk<'a> {
    trie: &'a MergedTrie,
    stack: Vec<NodeId>,
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.stack.pop()?;
        let node = &self.trie.nodes[id.idx()];
        if let Some(r) = node.children[1] {
            self.stack.push(r);
        }
        if let Some(l) = node.children[0] {
            self.stack.push(l);
        }
        Some(id)
    }
}

fn full_mask(k: usize) -> u64 {
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

#[derive(Debug, Clone)]
struct MlpNode {
    children: Option<(NodeId, NodeId)>,
    /// K-wide NHI vector; meaningful only at leaves.
    nhis: Vec<Option<NextHop>>,
}

/// Leaf-pushed merged trie: a full binary trie whose leaves store K-wide
/// NHI vectors (one entry per virtual network, indexed by VNID).
#[derive(Debug, Clone)]
pub struct MergedLeafPushed {
    nodes: Vec<MlpNode>,
    root: NodeId,
    k: usize,
}

impl MergedLeafPushed {
    /// Applies leaf pushing to a merged trie.
    #[must_use]
    pub fn from_merged(merged: &MergedTrie) -> Self {
        let mut nodes = Vec::with_capacity(merged.node_count() * 2);
        let inherited = vec![None; merged.k];
        let root = push(merged, NodeId(0), &inherited, &mut nodes);
        Self {
            nodes,
            root,
            k: merged.k,
        }
    }

    /// Number of virtual networks.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.k
    }

    /// Total node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves — each stores a K-wide NHI vector.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_none()).count()
    }

    /// Number of internal (pointer) nodes.
    #[must_use]
    pub fn internal_count(&self) -> usize {
        self.node_count() - self.leaf_count()
    }

    /// Total NHI entries stored (leaves × K): the hardware provisions the
    /// full vector width per leaf regardless of empty entries (§V-D).
    #[must_use]
    pub fn nhi_entries(&self) -> usize {
        self.leaf_count() * self.k
    }

    /// Longest-prefix match for `ip` in virtual network `vnid`: walk to a
    /// leaf, then index the vector by VNID.
    #[must_use]
    pub fn lookup(&self, vnid: usize, ip: u32) -> Option<NextHop> {
        debug_assert!(vnid < self.k);
        let mut cur = self.root;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[cur.idx()];
            match node.children {
                None => return node.nhis[vnid],
                Some((l, r)) => {
                    debug_assert!(depth < 32);
                    let bit = (ip >> (31 - depth)) & 1;
                    cur = if bit == 0 { l } else { r };
                    depth += 1;
                }
            }
        }
    }

    /// Batched longest-prefix match in virtual network `vnid`: element `i`
    /// of `out` receives exactly `self.lookup(vnid, dsts[i])`.
    ///
    /// Destinations advance one level per pass over the batch (stage
    /// lockstep) — see [`UnibitTrie::lookup_batch`].
    ///
    /// [`UnibitTrie::lookup_batch`]: crate::UnibitTrie::lookup_batch
    ///
    /// # Panics
    /// If `dsts` and `out` differ in length.
    pub fn lookup_batch(&self, vnid: usize, dsts: &[u32], out: &mut [Option<NextHop>]) {
        assert_eq!(
            dsts.len(),
            out.len(),
            "batch destination and output slices must match"
        );
        debug_assert!(vnid < self.k);
        let mut cur: Vec<NodeId> = vec![self.root; dsts.len()];
        let mut active: Vec<u32> = (0..u32::try_from(dsts.len()).expect("batch too large")).collect();
        let mut survivors: Vec<u32> = Vec::with_capacity(active.len());
        let mut depth = 0u8;
        while !active.is_empty() {
            debug_assert!(depth <= 32, "full trie deeper than address width");
            for &i in &active {
                let idx = i as usize;
                let node = &self.nodes[cur[idx].idx()];
                match node.children {
                    None => out[idx] = node.nhis[vnid],
                    Some((l, r)) => {
                        let bit = (dsts[idx] >> (31 - depth)) & 1;
                        cur[idx] = if bit == 0 { l } else { r };
                        survivors.push(i);
                    }
                }
            }
            active.clear();
            std::mem::swap(&mut active, &mut survivors);
            depth += 1;
        }
    }

    /// The root node id (entry point for stage-by-stage traversal in the
    /// pipeline simulator).
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Children of a node: `Some((left, right))` for internal nodes,
    /// `None` for leaves.
    #[must_use]
    pub fn node_children(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.nodes[id.idx()].children
    }

    /// The NHI stored at a leaf for virtual network `vnid`.
    #[must_use]
    pub fn node_nhi_for(&self, id: NodeId, vnid: usize) -> Option<NextHop> {
        self.nodes[id.idx()].nhis.get(vnid).copied().flatten()
    }

    /// Full-binary structural invariant (leaves = internal + 1).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.leaf_count() == self.internal_count() + 1
    }

    /// Per-level statistics (prefix nodes = leaves with ≥1 NHI entry).
    #[must_use]
    pub fn stats(&self) -> crate::stats::TrieStats {
        let mut stats = crate::stats::TrieStats::default();
        let mut stack = vec![(self.root, 0u8)];
        while let Some((id, depth)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            match node.children {
                None => stats.record(depth, true, node.nhis.iter().any(Option::is_some)),
                Some((l, r)) => {
                    stats.record(depth, false, false);
                    stack.push((r, depth + 1));
                    stack.push((l, depth + 1));
                }
            }
        }
        stats
    }
}

fn push(
    merged: &MergedTrie,
    id: NodeId,
    inherited: &[Option<NextHop>],
    nodes: &mut Vec<MlpNode>,
) -> NodeId {
    let node = &merged.nodes[id.idx()];
    let effective: Vec<Option<NextHop>> = merged
        .node_nhis(id)
        .iter()
        .zip(inherited)
        .map(|(own, inh)| own.or(*inh))
        .collect();
    let slot = NodeId(u32::try_from(nodes.len()).expect("merged leaf-pushed trie exceeds u32"));
    nodes.push(MlpNode {
        children: None,
        nhis: Vec::new(),
    });
    if node.is_leaf() {
        nodes[slot.idx()].nhis = effective;
        return slot;
    }
    let left = match node.children[0] {
        Some(child) => push(merged, child, &effective, nodes),
        None => alloc_leaf(nodes, effective.clone()),
    };
    let right = match node.children[1] {
        Some(child) => push(merged, child, &effective, nodes),
        None => alloc_leaf(nodes, effective.clone()),
    };
    nodes[slot.idx()].children = Some((left, right));
    slot
}

fn alloc_leaf(nodes: &mut Vec<MlpNode>, nhis: Vec<Option<NextHop>>) -> NodeId {
    let id = NodeId(u32::try_from(nodes.len()).expect("merged leaf-pushed trie exceeds u32"));
    nodes.push(MlpNode {
        children: None,
        nhis,
    });
    id
}

/// Convenience: build everything from tables and return both views.
///
/// # Errors
/// Same arity constraints as [`MergedTrie::from_tries`].
pub fn merge_tables(tables: &[RoutingTable]) -> Result<(MergedTrie, MergedLeafPushed), TrieError> {
    let merged = MergedTrie::from_tables(tables)?;
    let pushed = merged.leaf_pushed();
    Ok((merged, pushed))
}

/// Table families and churn shared by the merged-trie equivalence tests
/// here, in `jump` and in `subslab`.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::MergedTrie;
    use crate::jump::JumpTrie;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vr_net::synth::{FamilySpec, PrefixLenDistribution};
    use vr_net::{Ipv4Prefix, RoutingTable};

    /// The arities every equivalence test runs at.
    pub(crate) const ARITIES: [usize; 4] = [1, 4, 15, 64];

    /// A `k`-table edge family of 300 prefixes per table.
    pub(crate) fn family(k: usize, seed: u64) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 300,
            shared_fraction: 0.6,
            seed,
            distribution: PrefixLenDistribution::edge_default(),
            next_hops: 12,
        }
        .generate()
        .unwrap()
    }

    /// Asserts two jump tries have identical raw encodings.
    pub(crate) fn assert_same_parts(got: &JumpTrie, want: &JumpTrie, what: &str) {
        let (g, w) = (got.raw_parts(), want.raw_parts());
        assert_eq!(g.k, w.k, "{what}: k");
        assert!(g.root == w.root, "{what}: root table");
        assert!(g.words == w.words, "{what}: words");
        assert_eq!(g.level_offsets, w.level_offsets, "{what}: level offsets");
        assert!(g.nhis == w.nhis, "{what}: NHI slab");
    }

    /// Seeded withdraw/re-announce churn.
    pub(crate) struct Churn {
        rng: SmallRng,
        withdrawn: Vec<Ipv4Prefix>,
    }

    impl Churn {
        pub(crate) fn new(seed: u64) -> Self {
            Self {
                rng: SmallRng::seed_from_u64(seed),
                withdrawn: Vec::new(),
            }
        }

        /// Applies `updates` random updates to `merged` and mirrors them
        /// into `tables`: withdraw a random route, re-announce an earlier
        /// withdrawal in a random VN with a random next hop, or announce a
        /// fresh prefix. Withdrawals prune nodes onto the free list and
        /// announces reuse them, so children land at lower ids than their
        /// parents. Returns every prefix touched.
        pub(crate) fn round(
            &mut self,
            merged: &mut MergedTrie,
            tables: &mut [RoutingTable],
            updates: usize,
        ) -> Vec<Ipv4Prefix> {
            let mut touched = Vec::with_capacity(updates);
            for _ in 0..updates {
                let vn = self.rng.gen_range(0..tables.len());
                let roll = self.rng.gen_range(0..3u8);
                if roll == 0 && !tables[vn].is_empty() {
                    let nth = self.rng.gen_range(0..tables[vn].len());
                    let prefix = tables[vn].prefixes().nth(nth).expect("index in range");
                    assert_eq!(merged.remove(vn, &prefix), tables[vn].remove(&prefix));
                    self.withdrawn.push(prefix);
                    touched.push(prefix);
                } else {
                    let reannounce = if roll == 1 { self.withdrawn.pop() } else { None };
                    let prefix = reannounce.unwrap_or_else(|| {
                        Ipv4Prefix::must(self.rng.gen(), self.rng.gen_range(8..=28))
                    });
                    let nh = self.rng.gen_range(0..12u8);
                    assert_eq!(merged.insert(vn, prefix, nh), tables[vn].insert(prefix, nh));
                    touched.push(prefix);
                }
            }
            touched
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leafpush::LeafPushedTrie;
    use vr_net::synth::{FamilySpec, TableSpec};

    fn family(k: usize, shared: f64, seed: u64) -> Vec<RoutingTable> {
        FamilySpec {
            k,
            prefixes_per_table: 400,
            shared_fraction: shared,
            seed,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn arity_bounds_are_enforced() {
        assert!(matches!(
            MergedTrie::from_tables(&[]),
            Err(TrieError::BadMergeArity(0))
        ));
        let too_many = vec![RoutingTable::new(); 65];
        assert!(matches!(
            MergedTrie::from_tables(&too_many),
            Err(TrieError::BadMergeArity(65))
        ));
    }

    #[test]
    fn merging_identical_tables_is_free() {
        let t = TableSpec::paper_worst_case(4).generate().unwrap();
        let single = UnibitTrie::from_table(&t);
        let merged = MergedTrie::from_tables(&[t.clone(), t.clone(), t]).unwrap();
        assert_eq!(merged.node_count(), single.node_count());
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
        assert!((merged.node_saving() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merging_disjoint_tables_has_low_alpha() {
        let tables = family(4, 0.0, 9);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        // Only top-of-trie nodes coincide by chance.
        assert!(merged.merging_efficiency() < 0.35);
        assert!(merged.node_saving() < 0.45);
    }

    #[test]
    fn alpha_increases_with_shared_fraction() {
        let lo = MergedTrie::from_tables(&family(4, 0.1, 7)).unwrap();
        let hi = MergedTrie::from_tables(&family(4, 0.9, 7)).unwrap();
        assert!(
            hi.merging_efficiency() > lo.merging_efficiency() + 0.2,
            "alpha lo={} hi={}",
            lo.merging_efficiency(),
            hi.merging_efficiency()
        );
    }

    #[test]
    fn merged_lookup_matches_per_table_lookup() {
        let tables = family(3, 0.5, 21);
        let merged = MergedTrie::from_tables(&tables).unwrap();
        for (vnid, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(100) {
                let probe = prefix.addr() | 1;
                assert_eq!(
                    merged.lookup(vnid, probe),
                    table.lookup(probe),
                    "vn {vnid} probe {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn leaf_pushed_merged_lookup_matches_per_table_lookup() {
        let tables = family(3, 0.5, 22);
        let (_, pushed) = merge_tables(&tables).unwrap();
        assert!(pushed.is_full());
        for (vnid, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(100) {
                let probe = prefix.addr().wrapping_add(2);
                assert_eq!(
                    pushed.lookup(vnid, probe),
                    table.lookup(probe),
                    "vn {vnid} probe {probe:#010x}"
                );
            }
        }
    }

    #[test]
    fn nhi_entries_scale_with_arity() {
        let tables = family(5, 0.8, 3);
        let (_, pushed) = merge_tables(&tables).unwrap();
        assert_eq!(pushed.arity(), 5);
        assert_eq!(pushed.nhi_entries(), pushed.leaf_count() * 5);
    }

    #[test]
    fn single_table_merge_equals_plain_leaf_pushing() {
        let t = TableSpec::paper_worst_case(8).generate().unwrap();
        let (merged, pushed) = merge_tables(std::slice::from_ref(&t)).unwrap();
        let plain = LeafPushedTrie::from_unibit(&UnibitTrie::from_table(&t));
        assert_eq!(merged.node_count(), UnibitTrie::from_table(&t).node_count());
        assert_eq!(pushed.node_count(), plain.node_count());
        assert_eq!(pushed.leaf_count(), plain.leaf_count());
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_node_count_between_max_and_sum() {
        let tables = family(4, 0.5, 31);
        let tries: Vec<UnibitTrie> = tables.iter().map(UnibitTrie::from_table).collect();
        let merged = MergedTrie::from_tries(&tries).unwrap();
        let max = tries.iter().map(UnibitTrie::node_count).max().unwrap();
        let sum: usize = tries.iter().map(UnibitTrie::node_count).sum();
        assert!(merged.node_count() >= max);
        assert!(merged.node_count() <= sum);
    }

    #[test]
    fn overlap_ratio_is_bounded() {
        let merged = MergedTrie::from_tables(&family(3, 0.4, 2)).unwrap();
        let r = merged.overlap_ratio();
        assert!((0.0..=1.0).contains(&r));
        assert!(merged.shared_node_count() >= merged.common_node_count());
    }

    #[test]
    fn incremental_insert_then_remove_restores_structure() {
        let tables = family(3, 0.5, 41);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        assert!(merged.check_invariants());
        let nodes_before = merged.node_count();
        let vn_counts_before: Vec<usize> = (0..3).map(|v| merged.vn_node_count(v)).collect();

        let p: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
        assert_eq!(merged.insert(1, p, 7), None);
        assert!(merged.check_invariants());
        assert_eq!(merged.lookup(1, 0xCB00_7105), Some(7));
        assert!(merged.node_count() > nodes_before);

        assert_eq!(merged.remove(1, &p), Some(7));
        assert!(merged.check_invariants());
        assert_eq!(merged.node_count(), nodes_before);
        let vn_counts_after: Vec<usize> = (0..3).map(|v| merged.vn_node_count(v)).collect();
        assert_eq!(vn_counts_before, vn_counts_after);
    }

    #[test]
    fn withdrawing_one_vn_keeps_shared_paths_for_others() {
        let t = TableSpec::paper_worst_case(43).generate().unwrap();
        // Two identical tables; withdraw every route of VN 1.
        let mut merged = MergedTrie::from_tables(&[t.clone(), t.clone()]).unwrap();
        assert!((merged.merging_efficiency() - 1.0).abs() < 1e-12);
        let nodes = merged.node_count();
        for prefix in t.prefixes() {
            assert!(merged.remove(1, &prefix).is_some());
        }
        assert!(merged.check_invariants());
        // Shared paths survive (VN 0 still uses every node), so the node
        // count is unchanged — the whole point of merging.
        assert_eq!(merged.node_count(), nodes);
        assert_eq!(merged.vn_node_count(1), 0);
        // VN 0 still forwards; VN 1 resolves nothing.
        let probe = t.prefixes().nth(10).unwrap().addr() | 1;
        assert_eq!(merged.lookup(0, probe), t.lookup(probe));
        assert_eq!(merged.lookup(1, probe), None);
        // α collapses: mean per-VN nodes halved, common nodes zero.
        assert_eq!(merged.common_node_count(), 0);
    }

    #[test]
    fn churn_preserves_oracle_equivalence() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut tables = family(3, 0.5, 44);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        // Apply 300 random announce/withdraw operations, mirroring them
        // into the reference tables.
        for _ in 0..300 {
            let vn = rng.gen_range(0..3usize);
            if rng.gen_bool(0.5) {
                let prefix = Ipv4Prefix::must(rng.gen(), rng.gen_range(8..=28));
                let nh = rng.gen_range(0..16u8);
                merged.insert(vn, prefix, nh);
                tables[vn].insert(prefix, nh);
            } else {
                let idx = rng.gen_range(0..tables[vn].len());
                let prefix = tables[vn].prefixes().nth(idx);
                if let Some(prefix) = prefix {
                    assert_eq!(merged.remove(vn, &prefix), tables[vn].remove(&prefix));
                }
            }
        }
        assert!(merged.check_invariants());
        for (vn, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(60) {
                let probe = prefix.addr() | 3;
                assert_eq!(merged.lookup(vn, probe), table.lookup(probe), "vn {vn}");
            }
        }
        // The leaf-pushed view built after churn is equally correct.
        let pushed = merged.leaf_pushed();
        for (vn, table) in tables.iter().enumerate() {
            for prefix in table.prefixes().take(60) {
                let probe = prefix.addr().wrapping_add(9);
                assert_eq!(pushed.lookup(vn, probe), table.lookup(probe), "vn {vn}");
            }
        }
    }

    #[test]
    fn common_node_counter_matches_walk_under_churn() {
        let mut merged = MergedTrie::from_tables(&family(3, 0.7, 51)).unwrap();
        let p: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
        // Counter transitions both ways: last VN arriving at a node makes
        // it common; first VN leaving makes it non-common again.
        let before = merged.common_node_count();
        merged.insert(0, p, 1);
        merged.insert(1, p, 2);
        assert!(merged.check_invariants());
        merged.insert(2, p, 3);
        assert!(merged.check_invariants());
        assert!(merged.common_node_count() > before);
        merged.remove(2, &p);
        assert!(merged.check_invariants());
        merged.remove(1, &p);
        merged.remove(0, &p);
        assert!(merged.check_invariants());
        assert_eq!(merged.common_node_count(), before);
    }

    #[test]
    fn remove_missing_is_noop() {
        let tables = family(2, 0.5, 45);
        let mut merged = MergedTrie::from_tables(&tables).unwrap();
        let nodes = merged.node_count();
        let absent: Ipv4Prefix = "198.51.100.0/31".parse().unwrap();
        assert_eq!(merged.remove(0, &absent), None);
        assert_eq!(merged.node_count(), nodes);
        assert!(merged.check_invariants());
    }

    #[test]
    fn freed_merged_nodes_are_reused() {
        let mut merged = MergedTrie::new(2).unwrap();
        let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        merged.insert(0, p, 1);
        let arena = merged.nodes.len();
        merged.remove(0, &p);
        merged.insert(1, "172.16.0.0/12".parse().unwrap(), 2);
        assert!(merged.nodes.len() <= arena, "free list must be reused");
        assert!(merged.check_invariants());
    }

    /// Announces every route one `insert` at a time.
    fn per_route(tables: &[RoutingTable]) -> MergedTrie {
        let mut merged = MergedTrie::new(tables.len()).unwrap();
        for (vnid, table) in tables.iter().enumerate() {
            for entry in table.iter() {
                merged.insert(vnid, entry.prefix, entry.next_hop);
            }
        }
        merged
    }

    fn assert_same_counts(bulk: &MergedTrie, reference: &MergedTrie, what: &str) {
        assert!(bulk.check_invariants(), "{what}: bulk invariants");
        assert!(reference.check_invariants(), "{what}: per-route invariants");
        assert_eq!(bulk.node_count(), reference.node_count(), "{what}: nodes");
        assert_eq!(
            bulk.common_node_count(),
            reference.common_node_count(),
            "{what}: common nodes"
        );
        for vn in 0..bulk.arity() {
            assert_eq!(
                bulk.vn_node_count(vn),
                reference.vn_node_count(vn),
                "{what}: VN {vn} nodes"
            );
        }
    }

    #[test]
    fn bulk_build_matches_per_route_inserts_under_churn() {
        use fixtures::{family, Churn, ARITIES};
        for k in ARITIES {
            let mut tables = family(k, 61 + k as u64);
            let mut mirror = tables.clone();
            let mut bulk = MergedTrie::from_tables(&tables).unwrap();
            let mut reference = per_route(&tables);
            assert_same_counts(&bulk, &reference, &format!("K={k} fresh"));
            // The same seeded churn on both tries, each against its own
            // copy of the tables.
            let (mut churn, mut replay) = (Churn::new(k as u64), Churn::new(k as u64));
            for round in 0..4 {
                churn.round(&mut bulk, &mut tables, 150);
                replay.round(&mut reference, &mut mirror, 150);
                let what = format!("K={k} round {round}");
                assert_same_counts(&bulk, &reference, &what);
                assert_same_counts(&bulk, &MergedTrie::from_tables(&tables).unwrap(), &what);
            }
            // Free-list reuse broke the bulk arena's parent-before-child
            // order, so the churned trie is not one `from_tables` builds.
            let inverted = bulk.walk().any(|id| {
                bulk.nodes[id.idx()]
                    .children
                    .into_iter()
                    .flatten()
                    .any(|child| child.idx() < id.idx())
            });
            assert!(inverted, "K={k}: churn left the id order intact");
        }
    }

    #[test]
    fn stats_of_leaf_pushed_merged_are_consistent() {
        let (_, pushed) = merge_tables(&family(3, 0.6, 13)).unwrap();
        let s = pushed.stats();
        assert_eq!(s.total_nodes, pushed.node_count());
        assert_eq!(s.leaves, pushed.leaf_count());
        assert!(s.check_invariants());
    }
}
