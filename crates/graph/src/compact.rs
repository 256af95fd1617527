//! Compact CSR: the paper's exact word budget and the one flat CSR
//! layout of the workspace, weighted or not, owned or mapped in place
//! from a snapshot file.
//!
//! The paper stores a graph as "n sorted arrays with neighbors of each
//! vertex (2m words) and offsets to each array (n words)" (§II-A) with
//! 32-bit words. [`CompactCsr`] stores offsets as `u32` whenever
//! `2m < u32::MAX` (every graph that fits the `u32` vertex-id space in
//! practice), matching that budget and halving the offset-stream
//! bandwidth of the peel/color hot loops against 8-byte offsets, with a
//! transparent wide (`usize`) fallback for huge graphs. Vertices are
//! `u32` ids `0..n` (the paper's `1..n` shifted to 0-based); the id order
//! is the total order `≺` used to sort neighborhoods.

use crate::storage::Storage;
use crate::view::{GraphMemory, GraphView, WeightedView};
use crate::weight::EdgeWeight;
use rayon::prelude::*;

/// Cached degree extremes `(Δ, δ)` from an offsets accessor — shared by
/// every CSR-shaped representation so the construction-time caching
/// semantics cannot diverge between layouts.
pub(crate) fn degree_extremes(n: usize, offset: impl Fn(usize) -> usize) -> (u32, u32) {
    let (max_deg, min_deg) = (0..n)
        .map(|v| (offset(v + 1) - offset(v)) as u32)
        .fold((0u32, u32::MAX), |(mx, mn), d| (mx.max(d), mn.min(d)));
    (max_deg, if n == 0 { 0 } else { min_deg })
}

/// The linear-time part of the CSR invariants of `(offsets, neighbors)`
/// arrays behind an accessor: offsets non-decreasing from 0 to
/// `neighbors.len()`, adjacencies strictly ascending, in range, and
/// loop-free — one O(n + m) sweep, no symmetry cross-checks. Returns the
/// first violation, if any. The snapshot loader runs this on every load;
/// [`validate_csr_arrays`] adds the O(m log Δ) symmetry check on top.
pub(crate) fn validate_csr_shape(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize,
    neighbors: &[u32],
) -> Result<(), String> {
    if offsets_len == 0 {
        return Err("offsets must have length n+1 >= 1".into());
    }
    if offset(0) != 0 {
        return Err("offsets[0] must be 0".into());
    }
    if offset(offsets_len - 1) != neighbors.len() {
        return Err("offsets must end at neighbors.len()".into());
    }
    let n = (offsets_len - 1) as u32;
    for v in 0..n {
        let (lo, hi) = (offset(v as usize), offset(v as usize + 1));
        if lo > hi || hi > neighbors.len() {
            return Err(format!(
                "offsets decrease or overrun the neighbors at vertex {v}"
            ));
        }
        let nbrs = &neighbors[lo..hi];
        for w in nbrs.windows(2) {
            if w[0] >= w[1] {
                return Err(format!("neighbors of {v} not strictly increasing"));
            }
        }
        if let Some(&last) = nbrs.last() {
            if last >= n {
                return Err(format!("neighbor {last} of {v} out of range"));
            }
        }
        if nbrs.binary_search(&v).is_ok() {
            return Err(format!("self-loop at {v}"));
        }
    }
    Ok(())
}

/// Check the full CSR invariants of `(offsets, neighbors)` arrays behind
/// an accessor, without copying anything: everything
/// [`validate_csr_shape`] covers plus adjacency symmetry. Returns the
/// first violation, if any.
pub(crate) fn validate_csr_arrays(
    offsets_len: usize,
    offset: impl Fn(usize) -> usize,
    neighbors: &[u32],
) -> Result<(), String> {
    validate_csr_shape(offsets_len, &offset, neighbors)?;
    let n = (offsets_len - 1) as u32;
    let adjacency = |v: u32| &neighbors[offset(v as usize)..offset(v as usize + 1)];
    for v in 0..n {
        for &u in adjacency(v) {
            if adjacency(u).binary_search(&v).is_err() {
                return Err(format!("asymmetric edge ({v},{u})"));
            }
        }
    }
    Ok(())
}

/// The offset array, at the narrowest width that can address `2m`
/// neighbor slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Offsets {
    /// 4-byte offsets: valid while `2m < u32::MAX`.
    Small(Storage<u32>),
    /// Machine-word fallback for graphs with `2m ≥ u32::MAX` arcs.
    Wide(Storage<usize>),
}

impl Offsets {
    /// `u32` entries when the last offset fits, else machine words.
    pub(crate) fn narrowest(offsets: Vec<usize>) -> Self {
        if offsets.last().is_some_and(|&end| end >= u32::MAX as usize) {
            Offsets::Wide(offsets.into())
        } else {
            Offsets::Small(
                offsets
                    .into_iter()
                    .map(|o| o as u32)
                    .collect::<Vec<_>>()
                    .into(),
            )
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            Offsets::Small(o) => o[i] as usize,
            Offsets::Wide(o) => o[i],
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Offsets::Small(o) => o.len(),
            Offsets::Wide(o) => o.len(),
        }
    }

    pub(crate) fn width(&self) -> usize {
        match self {
            Offsets::Small(_) => std::mem::size_of::<u32>(),
            Offsets::Wide(_) => std::mem::size_of::<usize>(),
        }
    }

    pub(crate) fn mapped_bytes(&self) -> usize {
        match self {
            Offsets::Small(o) => o.mapped_bytes(),
            Offsets::Wide(o) => o.mapped_bytes(),
        }
    }
}

/// Immutable, undirected, simple graph in CSR form with width-adaptive
/// offsets and one payload per arc — the workspace's flat [`GraphView`] /
/// [`WeightedView`] implementation, built by
/// [`EdgeListBuilder`](crate::EdgeListBuilder), the generators, and the
/// readers, and served in place from a snapshot file by
/// [`CompactCsr::open`].
///
/// Struct-of-arrays on purpose: the weights live in one separate
/// neighbor-parallel array (`weights[i]` belongs to the arc stored at
/// `neighbors[i]`), so unweighted traversals never stream a weight byte,
/// and the default payload `W = ()` stores nothing at all. Each array is
/// either owned or a range of a mapped snapshot; access is the same
/// slice index either way.
///
/// Invariants (enforced by [`EdgeListBuilder`](crate::EdgeListBuilder)
/// and checked by [`CompactCsr::validate`]):
/// * `offsets.len() == n + 1`, `offsets[0] == 0`, non-decreasing,
/// * each neighbor list is strictly increasing (sorted, no duplicates),
/// * no self-loops,
/// * symmetry: `u ∈ N(v) ⇔ v ∈ N(u)`, and `w(u→v) == w(v→u)`.
///
/// Δ and δ are computed once at construction, so
/// [`max_degree`](GraphView::max_degree) /
/// [`min_degree`](GraphView::min_degree) are O(1).
///
/// ```
/// use pgc_graph::{builder::from_weighted_edges, GraphView, WeightedView};
/// let g = from_weighted_edges(3, &[(0, 1, 2.5f64), (1, 2, 4.0)]);
/// assert_eq!(g.m(), 2);
/// assert_eq!(g.edge_weight(2, 1), Some(4.0));
/// assert_eq!(g.weighted_degree(1), 6.5);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactCsr<W: EdgeWeight = ()> {
    offsets: Offsets,
    neighbors: Storage<u32>,
    weights: Storage<W>,
    max_deg: u32,
    min_deg: u32,
}

impl CompactCsr {
    /// Construct from raw CSR arrays (offsets narrowed to `u32` when they
    /// fit). Debug builds validate the invariants.
    pub fn from_raw(offsets: Vec<usize>, neighbors: Vec<u32>) -> Self {
        Self::from_offsets(Offsets::narrowest(offsets), neighbors)
    }

    /// Construct from an already-width-resolved offset array — the entry
    /// point of the streaming two-pass builder ([`crate::stream`]), which
    /// produces `u32` offsets directly on the fast path instead of
    /// narrowing a machine-word array after the fact.
    pub(crate) fn from_offsets(offsets: Offsets, neighbors: Vec<u32>) -> Self {
        let arcs = neighbors.len();
        let g = Self::from_storage(offsets, neighbors.into(), vec![(); arcs].into());
        #[cfg(debug_assertions)]
        if let Err(e) = g.validate() {
            panic!("invalid CSR: {e}");
        }
        g
    }

    /// The empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self::from_offsets(Offsets::Small(vec![0; n + 1].into()), Vec::new())
    }

    /// Attach a neighbor-parallel weights array.
    ///
    /// # Panics
    ///
    /// If `weights.len() != self.num_arcs()`. (Weight symmetry is the
    /// builder's contract; [`CompactCsr::validate`] checks it on demand,
    /// and debug builds check it here.)
    pub fn with_weights<W: EdgeWeight>(self, weights: Vec<W>) -> CompactCsr<W> {
        assert_eq!(
            weights.len(),
            self.num_arcs(),
            "weights array must parallel the neighbor array"
        );
        let g = self.reweighted(weights.into());
        #[cfg(debug_assertions)]
        if let Err(e) = g.validate() {
            panic!("invalid weighted CSR: {e}");
        }
        g
    }
}

impl<W: EdgeWeight> CompactCsr<W> {
    /// Assemble from arrays whose CSR shape the caller has checked (Δ/δ
    /// are computed here; nothing is validated).
    pub(crate) fn from_storage(
        offsets: Offsets,
        neighbors: Storage<u32>,
        weights: Storage<W>,
    ) -> Self {
        let n = offsets.len().saturating_sub(1);
        let (max_deg, min_deg) = degree_extremes(n, |i| offsets.get(i));
        Self {
            offsets,
            neighbors,
            weights,
            max_deg,
            min_deg,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored directed arcs (`2m`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        (self.offsets.get(v as usize + 1) - self.offsets.get(v as usize)) as u32
    }

    /// Sorted neighbor slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.arc_range(v)]
    }

    /// The weights of `v`'s adjacency, parallel to
    /// [`neighbors`](Self::neighbors).
    #[inline]
    pub fn neighbor_weights(&self, v: u32) -> &[W] {
        &self.weights[self.arc_range(v)]
    }

    /// The index range of `v`'s adjacency inside the neighbor array and
    /// the weights array.
    #[inline]
    pub fn arc_range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets.get(v as usize)..self.offsets.get(v as usize + 1)
    }

    /// True if `{u, v}` is an edge (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `{u, v}` (binary search), `None` if absent.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<W> {
        let i = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.neighbor_weights(u)[i])
    }

    /// Maximum degree Δ (cached at construction).
    #[inline]
    pub fn max_degree(&self) -> u32 {
        self.max_deg
    }

    /// Minimum degree δ (cached at construction).
    #[inline]
    pub fn min_degree(&self) -> u32 {
        self.min_deg
    }

    /// Average degree δ̂ = 2m / n.
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n() as f64
        }
    }

    /// All vertex ids.
    #[inline]
    pub fn vertices(&self) -> std::ops::Range<u32> {
        0..self.n() as u32
    }

    /// Iterate undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Degree array (parallel).
    pub fn degree_array(&self) -> Vec<u32> {
        self.vertices()
            .into_par_iter()
            .map(|v| self.degree(v))
            .collect()
    }

    /// Bytes per offset entry: 4 while `2m < u32::MAX`, else the machine
    /// word.
    pub fn offset_width(&self) -> usize {
        self.offsets.width()
    }

    /// The raw neighbor array (read-only).
    #[inline]
    pub fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// The whole neighbor-parallel weights array.
    #[inline]
    pub fn raw_weights(&self) -> &[W] {
        &self.weights
    }

    /// The width-resolved offset array — the snapshot writer serializes
    /// it verbatim.
    #[inline]
    pub(crate) fn raw_offsets(&self) -> &Offsets {
        &self.offsets
    }

    /// True when the arrays are served in place from a mapped snapshot
    /// ([`CompactCsr::open`]) rather than owned.
    pub fn is_mapped(&self) -> bool {
        self.neighbors.is_mapped()
    }

    /// Drop the weights, keeping the structure (no copy).
    pub fn into_structure(self) -> CompactCsr {
        let arcs = self.num_arcs();
        self.reweighted(vec![(); arcs].into())
    }

    /// The same structure carrying `weights` instead.
    fn reweighted<V: EdgeWeight>(self, weights: Storage<V>) -> CompactCsr<V> {
        CompactCsr {
            offsets: self.offsets,
            neighbors: self.neighbors,
            weights,
            max_deg: self.max_deg,
            min_deg: self.min_deg,
        }
    }

    /// Check all CSR invariants plus the weights-array length and weight
    /// symmetry without copying the graph; returns the first violation,
    /// if any.
    pub fn validate(&self) -> Result<(), String> {
        validate_csr_arrays(self.offsets.len(), |i| self.offsets.get(i), &self.neighbors)?;
        if self.weights.len() != self.num_arcs() {
            return Err(format!(
                "weights length {} != num arcs {}",
                self.weights.len(),
                self.num_arcs()
            ));
        }
        if W::IS_UNIT {
            return Ok(());
        }
        for v in self.vertices() {
            for (&u, &w) in self.neighbors(v).iter().zip(self.neighbor_weights(v)) {
                if u < v {
                    continue;
                }
                match self.edge_weight(u, v) {
                    Some(back) if back == w => {}
                    other => {
                        return Err(format!(
                            "asymmetric weight on edge ({v}, {u}): {w:?} vs {other:?}"
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}

impl<W: EdgeWeight> GraphView for CompactCsr<W> {
    type Neighbors<'a> = std::iter::Copied<std::slice::Iter<'a, u32>>;

    #[inline]
    fn n(&self) -> usize {
        Self::n(self)
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        Self::num_arcs(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> u32 {
        Self::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: u32) -> Self::Neighbors<'_> {
        Self::neighbors(self, v).iter().copied()
    }

    #[inline]
    fn max_degree(&self) -> u32 {
        self.max_deg
    }

    #[inline]
    fn min_degree(&self) -> u32 {
        self.min_deg
    }

    fn degree_array(&self) -> Vec<u32> {
        Self::degree_array(self)
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        Self::has_edge(self, u, v)
    }

    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let start = self.offsets.get(v as usize);
        if start < self.neighbors.len() {
            crate::view::prefetch_read(&self.neighbors[start]);
        }
    }

    fn memory_footprint(&self) -> GraphMemory {
        GraphMemory {
            offset_width: self.offsets.width(),
            offset_count: self.offsets.len(),
            neighbor_width: std::mem::size_of::<u32>(),
            neighbor_count: self.neighbors.len(),
            encoded_bytes: 0,
            encoded_mapped_bytes: 0,
            mapped_bytes: self.offsets.mapped_bytes()
                + self.neighbors.mapped_bytes()
                + self.weights.mapped_bytes(),
            aux_bytes: 0,
            weight_bytes: std::mem::size_of_val::<[W]>(&self.weights),
        }
    }
}

/// With the unit payload every edge weighs `1.0`, so weighted workloads
/// collapse to their unweighted meanings.
impl<W: EdgeWeight> WeightedView for CompactCsr<W> {
    type Weight = W;
    type WeightedNeighbors<'a> = std::iter::Zip<
        std::iter::Copied<std::slice::Iter<'a, u32>>,
        std::iter::Copied<std::slice::Iter<'a, W>>,
    >;

    #[inline]
    fn weighted_neighbors(&self, v: u32) -> Self::WeightedNeighbors<'_> {
        let r = self.arc_range(v);
        let (nbrs, weights) = (&self.neighbors[r.clone()], &self.weights[r]);
        nbrs.iter().copied().zip(weights.iter().copied())
    }

    fn edge_weight(&self, u: u32, v: u32) -> Option<W> {
        Self::edge_weight(self, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, from_weighted_edges};

    #[test]
    fn small_offsets_by_default() {
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(g.offset_width(), 4);
        let fp = GraphView::memory_footprint(&g);
        assert_eq!(fp.offset_bytes(), 4 * 5);
        assert_eq!(fp.neighbor_bytes(), 4 * 8);
        assert_eq!(fp.aux_bytes, 0);
    }

    #[test]
    fn wide_fallback_behaves_identically() {
        // Force the Wide variant on a small graph: every accessor must
        // agree with the Small layout of the same arrays.
        let small = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let offsets: Vec<usize> = (0..=5).map(|v| small.offsets.get(v)).collect();
        let wide = CompactCsr::from_offsets(
            Offsets::Wide(offsets.into()),
            small.raw_neighbors().to_vec(),
        );
        assert_eq!(wide.offset_width(), std::mem::size_of::<usize>());
        assert_eq!(wide.n(), small.n());
        assert_eq!(wide.m(), small.m());
        assert_eq!(wide.max_degree(), small.max_degree());
        assert_eq!(wide.min_degree(), small.min_degree());
        for v in 0..5u32 {
            assert_eq!(wide.neighbors(v), small.neighbors(v));
            assert_eq!(wide.degree(v), small.degree(v));
        }
        assert_eq!(
            wide.edges().collect::<Vec<_>>(),
            small.edges().collect::<Vec<_>>()
        );
    }

    fn triangle() -> CompactCsr {
        from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn empty_graph() {
        let g = CompactCsr::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn zero_vertex_graph() {
        let g = CompactCsr::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let es: Vec<_> = triangle().edges().collect();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn degree_array_matches() {
        assert_eq!(triangle().degree_array(), vec![2, 2, 2]);
    }

    /// Run the full validator over plain `usize` offset/neighbor arrays.
    fn validate(offsets: &[usize], neighbors: &[u32]) -> Result<(), String> {
        validate_csr_arrays(offsets.len(), |i| offsets[i], neighbors)
    }

    #[test]
    fn validate_catches_asymmetry() {
        let (offsets, neighbors) = ([0, 1, 1], [1]);
        assert!(validate_csr_shape(offsets.len(), |i| offsets[i], &neighbors).is_ok());
        assert!(validate(&offsets, &neighbors).is_err());
    }

    #[test]
    fn validate_catches_self_loop() {
        let (offsets, neighbors) = ([0, 1], [0]);
        assert!(validate_csr_shape(offsets.len(), |i| offsets[i], &neighbors).is_err());
        assert!(validate(&offsets, &neighbors).is_err());
    }

    #[test]
    fn validate_catches_unsorted() {
        let (offsets, neighbors) = ([0, 2, 3, 5], [2, 1, 0, 0, 1]);
        assert!(validate_csr_shape(offsets.len(), |i| offsets[i], &neighbors).is_err());
        assert!(validate(&offsets, &neighbors).is_err());
    }

    #[test]
    fn validate_catches_offsets_past_neighbors() {
        // Offsets that end at neighbors.len() but overshoot it in between
        // (a corrupt snapshot's) are an error, not an out-of-bounds slice.
        let (offsets, neighbors) = ([0, 7, 2], [1, 0]);
        assert!(validate_csr_shape(offsets.len(), |i| offsets[i], &neighbors).is_err());
    }

    #[test]
    fn cached_extremes_match_rescan() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.min_degree(), 1);
        assert_eq!(
            g.max_degree(),
            g.vertices().map(|v| g.degree(v)).max().unwrap()
        );
        assert_eq!(
            g.min_degree(),
            g.vertices().map(|v| g.degree(v)).min().unwrap()
        );
    }

    #[test]
    fn empty_graphs() {
        let g = CompactCsr::empty(0);
        assert_eq!(g.n(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        let g = CompactCsr::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn weights_ride_next_to_sorted_neighbors() {
        let g = from_weighted_edges(4, &[(0u32, 3u32, 7.0f32), (0, 1, 1.0), (2, 0, 4.0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbor_weights(0), &[1.0, 4.0, 7.0]);
        assert_eq!(g.edge_weight(3, 0), Some(7.0));
        assert_eq!(g.edge_weight(1, 2), None);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn weighted_view_defaults() {
        let g = from_weighted_edges(3, &[(0u32, 1u32, 2.0f64), (1, 2, 3.0)]);
        assert_eq!(g.weighted_degree(1), 5.0);
        assert_eq!(g.total_weight(), 5.0);
        assert_eq!(
            g.weighted_neighbors(1).collect::<Vec<_>>(),
            vec![(0, 2.0), (2, 3.0)]
        );
        assert_eq!(
            g.weighted_edges().collect::<Vec<_>>(),
            vec![(0, 1, 2.0), (1, 2, 3.0)]
        );
    }

    #[test]
    fn footprint_charges_weights_separately() {
        let g = from_weighted_edges(3, &[(0u32, 1u32, 2.0f64), (1, 2, 3.0)]);
        let fp = g.memory_footprint();
        assert_eq!(fp.weight_bytes, 4 * 8, "2m = 4 arcs × 8-byte f64");
        let structural = g.clone().into_structure().memory_footprint();
        assert_eq!(fp.total_bytes(), structural.total_bytes() + fp.weight_bytes);
        // A unit-weighted graph charges nothing.
        let unit = crate::stream::build_weighted::<(), _>(&{
            let mut b = crate::builder::EdgeListBuilder::new(3);
            b.add_edge(0, 1);
            b
        })
        .unwrap();
        assert_eq!(unit.memory_footprint().weight_bytes, 0);
    }

    #[test]
    fn structure_matches_plain_build() {
        let edges = [(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        let weighted: Vec<(u32, u32, u32)> =
            edges.iter().map(|&(u, v)| (u, v, u + 10 * v)).collect();
        let wg = from_weighted_edges(4, &weighted);
        assert_eq!(wg.raw_weights().len(), wg.num_arcs());
        assert_eq!(wg.into_structure(), from_edges(4, &edges));
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn mismatched_weights_length_panics() {
        from_edges(3, &[(0, 1)]).with_weights(vec![1.0f32; 5]);
    }
}
