//! The precomputed, flat-index interaction graph.
//!
//! Every hot loop of the compiler — neighbor scans during SWAP
//! scoring, BFS hops of the forced router, reroute fixup costing —
//! used to re-derive the MID topology from [`Grid`] on the fly,
//! allocating a `Vec<Site>` per hop. This module computes the whole
//! unit-disc graph once per `(grid, mid)` pair and stores it in CSR
//! (compressed sparse row) layout: one flat neighbor array plus
//! per-site offsets, so a neighbor scan is a slice iteration and a
//! BFS needs no per-hop allocation at all.
//!
//! Layout invariant: `neighbors(i)` lists exactly the sites
//! [`Grid::neighbors_within`] would return for `site_at(i)`, in the
//! same ascending [`Site`] order — the scheduler's byte-identical
//! output contract rests on this.
//!
//! Graphs are memoized process-wide per `(grid fingerprint, mid)`
//! through [`InteractionGraph::cached`] for long-lived topologies (the
//! compile path); callers probing transient one-off hole patterns
//! (e.g. per-loss-event fixup costing) should use
//! [`InteractionGraph::build`] directly and skip the cache.

use crate::{Grid, Site};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel for "no site" in flat-index arrays.
const NONE: u32 = u32::MAX;

/// The usable-atom interaction graph of one grid at one MID, in CSR
/// layout over row-major flat site indices.
///
/// # Example
///
/// ```
/// use na_arch::{Grid, InteractionGraph, Site};
///
/// let grid = Grid::new(5, 5);
/// let graph = InteractionGraph::build(&grid, 2.0);
/// let center = graph.index_of(Site::new(2, 2)).unwrap();
/// assert_eq!(graph.neighbors(center).len(), 12);
/// // CSR neighbors agree with the grid's allocating scan.
/// let from_graph: Vec<Site> = graph.neighbor_sites(center).collect();
/// assert_eq!(from_graph, grid.neighbors_within(Site::new(2, 2), 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    width: u32,
    height: u32,
    mid: f64,
    /// The MID's neighbor offset stencil: every `(dx, dy) != (0, 0)`
    /// with `dx² + dy² ≤ mid²` and `|dx|, |dy| ≤ max(width, height)`,
    /// in ascending `(dx, dy)` order (which makes per-site neighbor
    /// lists ascend in `Site` order).
    stencil: Vec<(i32, i32)>,
    /// CSR offsets: site `i`'s neighbors live at
    /// `neighbors[offsets[i] .. offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Flat neighbor site indices (usable sites only).
    neighbors: Vec<u32>,
    usable: Vec<bool>,
}

impl InteractionGraph {
    /// Builds the graph for `grid` at interaction distance `mid`.
    pub fn build(grid: &Grid, mid: f64) -> Self {
        let (width, height) = (grid.width(), grid.height());
        let num_sites = grid.num_sites();
        let usable: Vec<bool> = (0..num_sites)
            .map(|i| grid.is_usable(grid.site_at(i)))
            .collect();

        // Offsets wider than the grid reach no site: clamping the
        // radius keeps every stencil entry that matters, in the same
        // order, and bounds the loop for huge or infinite MIDs.
        let r = mid.min(f64::from(width.max(height))).floor() as i32;
        let mut stencil = Vec::new();
        for dx in -r..=r {
            for dy in -r..=r {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                let d2 = i64::from(dx) * i64::from(dx) + i64::from(dy) * i64::from(dy);
                if (d2 as f64) <= mid * mid {
                    stencil.push((dx, dy));
                }
            }
        }

        let mut offsets = Vec::with_capacity(num_sites + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for i in 0..num_sites {
            if usable[i] {
                let x = (i % width as usize) as i32;
                let y = (i / width as usize) as i32;
                for &(dx, dy) in &stencil {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx < 0 || ny < 0 || nx >= width as i32 || ny >= height as i32 {
                        continue;
                    }
                    let n = ny as usize * width as usize + nx as usize;
                    if usable[n] {
                        neighbors.push(n as u32);
                    }
                }
            }
            offsets.push(neighbors.len() as u32);
        }

        InteractionGraph {
            width,
            height,
            mid,
            stencil,
            offsets,
            neighbors,
            usable,
        }
    }

    /// The memoized graph for `(grid, mid)`, keyed on the grid's
    /// structural fingerprint. Loss simulations mutate hole patterns
    /// back and forth between a handful of topologies; the cache hands
    /// back the same `Arc` instead of rebuilding.
    pub fn cached(grid: &Grid, mid: f64) -> Arc<InteractionGraph> {
        type GraphCache = Mutex<HashMap<(u64, u64), Arc<InteractionGraph>>>;
        static CACHE: OnceLock<GraphCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = (grid.fingerprint(), mid.to_bits());
        if let Some(g) = cache
            .lock()
            .expect("interaction graph cache lock")
            .get(&key)
        {
            return Arc::clone(g);
        }
        // Build outside the lock so concurrent workers never serialize
        // on one global mutex during construction; a racing builder of
        // the same key just loses its (identical) copy.
        let g = Arc::new(InteractionGraph::build(grid, mid));
        let mut map = cache.lock().expect("interaction graph cache lock");
        if let Some(existing) = map.get(&key) {
            return Arc::clone(existing);
        }
        // Bound memory for adversarial workloads (e.g. sweeps over
        // thousands of distinct hole patterns): drop everything and
        // start over rather than tracking recency.
        if map.len() >= 256 {
            map.clear();
        }
        map.insert(key, Arc::clone(&g));
        g
    }

    /// The MID this graph was built at.
    #[inline]
    pub fn mid(&self) -> f64 {
        self.mid
    }

    /// Grid width (columns).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height (rows).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of sites (including holes).
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.usable.len()
    }

    /// The neighbor offset stencil of this MID, ascending `(dx, dy)`.
    #[inline]
    pub fn stencil(&self) -> &[(i32, i32)] {
        &self.stencil
    }

    /// Flat index of `site`, or `None` if out of bounds.
    #[inline]
    pub fn index_of(&self, site: Site) -> Option<usize> {
        if site.x < 0 || site.y < 0 || site.x >= self.width as i32 || site.y >= self.height as i32 {
            return None;
        }
        Some(site.y as usize * self.width as usize + site.x as usize)
    }

    /// The site of a flat index.
    #[inline]
    pub fn site_at(&self, index: usize) -> Site {
        debug_assert!(index < self.num_sites());
        Site::new(
            (index % self.width as usize) as i32,
            (index / self.width as usize) as i32,
        )
    }

    /// `true` if the site at `index` holds an atom.
    #[inline]
    pub fn is_usable_index(&self, index: usize) -> bool {
        self.usable[index]
    }

    /// Usable neighbor indices of site `index`, ascending `Site` order.
    /// Empty for holes.
    #[inline]
    pub fn neighbors(&self, index: usize) -> &[u32] {
        &self.neighbors[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }

    /// Usable neighbor sites of site `index`, ascending `Site` order.
    pub fn neighbor_sites(&self, index: usize) -> impl Iterator<Item = Site> + '_ {
        self.neighbors(index)
            .iter()
            .map(|&n| self.site_at(n as usize))
    }

    /// Hop distance (MID-range hops over usable atoms) between two
    /// sites, or `None` if either is unusable/out of bounds or they are
    /// disconnected. Matches [`Grid::hop_distance`].
    pub fn hop_distance(&self, a: Site, b: Site, scratch: &mut BfsScratch) -> Option<u32> {
        let ai = self.index_of(a)?;
        let bi = self.index_of(b)?;
        if !self.usable[ai] || !self.usable[bi] {
            return None;
        }
        // CSR neighbor lists already contain only usable sites, so no
        // extra per-hop filter is needed.
        self.bfs_hop_distance(ai, bi, |_| true, scratch)
    }

    /// The shared BFS kernel of the hop-distance queries: shortest hop
    /// count from `ai` to `bi` over CSR neighbors passing `admit`.
    /// Both public entry points must stay on this one body — the
    /// compile path and the loss path drifting apart in BFS semantics
    /// is exactly what the digest contracts forbid.
    fn bfs_hop_distance(
        &self,
        ai: usize,
        bi: usize,
        admit: impl Fn(usize) -> bool,
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        if ai == bi {
            return Some(0);
        }
        scratch.begin(self.num_sites());
        scratch.visit(ai, 0);
        scratch.queue.push_back(ai as u32);
        while let Some(s) = scratch.queue.pop_front() {
            let d = scratch.dist[s as usize];
            for &n in self.neighbors(s as usize) {
                if scratch.is_visited(n as usize) || !admit(n as usize) {
                    continue;
                }
                if n as usize == bi {
                    return Some(d + 1);
                }
                scratch.visit(n as usize, d + 1);
                scratch.queue.push_back(n);
            }
        }
        None
    }

    /// [`InteractionGraph::hop_distance`] restricted to sites the
    /// caller still considers usable: `usable[i]` masks the site with
    /// flat index `i` (a `false` entry is treated as a hole, both as
    /// an endpoint and as a waypoint).
    ///
    /// This is the loss path's costing primitive: the campaign
    /// executor builds this graph **once** for the full (hole-free)
    /// device, then threads the shot-by-shot hole pattern through the
    /// mask instead of rebuilding a CSR graph per loss event. The
    /// result is exactly what `InteractionGraph::build(holey_grid,
    /// mid).hop_distance(a, b)` would return — BFS distance over the
    /// same effective vertex set — without the O(sites × stencil)
    /// rebuild.
    pub fn hop_distance_masked(
        &self,
        a: Site,
        b: Site,
        usable: &[bool],
        scratch: &mut BfsScratch,
    ) -> Option<u32> {
        debug_assert_eq!(usable.len(), self.num_sites(), "mask sized to the grid");
        let ai = self.index_of(a)?;
        let bi = self.index_of(b)?;
        if !self.usable[ai] || !usable[ai] || !self.usable[bi] || !usable[bi] {
            return None;
        }
        self.bfs_hop_distance(ai, bi, |i| usable[i], scratch)
    }

    /// Hop distances from `from` to every site (`None` for unreachable
    /// or unusable sites), written into `out`. Matches
    /// [`Grid::hop_distances`].
    pub fn hop_distances_into(
        &self,
        from: Site,
        scratch: &mut BfsScratch,
        out: &mut Vec<Option<u32>>,
    ) {
        out.clear();
        out.resize(self.num_sites(), None);
        let Some(fi) = self.index_of(from) else {
            return;
        };
        if !self.usable[fi] {
            return;
        }
        scratch.begin(self.num_sites());
        scratch.visit(fi, 0);
        out[fi] = Some(0);
        scratch.queue.push_back(fi as u32);
        while let Some(s) = scratch.queue.pop_front() {
            let d = scratch.dist[s as usize];
            for &n in self.neighbors(s as usize) {
                if scratch.is_visited(n as usize) {
                    continue;
                }
                scratch.visit(n as usize, d + 1);
                out[n as usize] = Some(d + 1);
                scratch.queue.push_back(n);
            }
        }
    }

    /// One deterministic BFS hop of the atom at `from` toward `goal`,
    /// avoiding `blocked` sites as destinations (the goal itself is
    /// exempt while still an intermediate waypoint). Returns the next
    /// site on a shortest hop path, or `None` if `goal` is unreachable
    /// or `from` is already there.
    ///
    /// This is the allocation-free form of the router's forced hop;
    /// the BFS expansion order (ascending neighbor sites) and the
    /// walk-back tie-breaks match the original exactly.
    pub fn hop_toward(
        &self,
        from: Site,
        goal: Site,
        blocked: &[Site],
        scratch: &mut BfsScratch,
    ) -> Option<Site> {
        if from == goal {
            return None;
        }
        let fi = self.index_of(from)?;
        let gi = self.index_of(goal)?;
        if !self.usable[fi] {
            return None;
        }
        scratch.begin(self.num_sites());
        scratch.prev.resize(self.num_sites(), NONE);
        scratch.visit(fi, 0);
        scratch.prev[fi] = fi as u32;
        scratch.queue.push_back(fi as u32);
        let mut found = false;
        'bfs: while let Some(s) = scratch.queue.pop_front() {
            if s as usize == gi {
                found = true;
                break 'bfs;
            }
            for &n in self.neighbors(s as usize) {
                if scratch.is_visited(n as usize) {
                    continue;
                }
                let site = self.site_at(n as usize);
                if n as usize != gi && blocked.contains(&site) {
                    continue;
                }
                scratch.visit(n as usize, 0);
                scratch.prev[n as usize] = s;
                scratch.queue.push_back(n);
            }
        }
        if !found {
            return None;
        }
        // Walk back from the goal to the hop adjacent to `from`.
        let mut cur = gi;
        while scratch.prev[cur] as usize != fi {
            cur = scratch.prev[cur] as usize;
        }
        let hop = self.site_at(cur);
        if blocked.contains(&hop) {
            return None;
        }
        Some(hop)
    }

    /// Size of the largest connected component of usable atoms.
    /// Matches [`Grid::largest_component`].
    pub fn largest_component(&self, scratch: &mut BfsScratch) -> usize {
        scratch.begin(self.num_sites());
        let mut best = 0usize;
        for start in 0..self.num_sites() {
            if !self.usable[start] || scratch.is_visited(start) {
                continue;
            }
            let mut size = 0usize;
            scratch.visit(start, 0);
            scratch.queue.push_back(start as u32);
            while let Some(s) = scratch.queue.pop_front() {
                size += 1;
                for &n in self.neighbors(s as usize) {
                    if !scratch.is_visited(n as usize) {
                        scratch.visit(n as usize, 0);
                        scratch.queue.push_back(n);
                    }
                }
            }
            best = best.max(size);
        }
        best
    }
}

/// Reusable BFS working memory: epoch-stamped visited marks, a
/// distance array, a predecessor array, and the frontier queue.
/// `begin` resets in O(1) by bumping the epoch instead of clearing.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    mark: Vec<u32>,
    epoch: u32,
    dist: Vec<u32>,
    prev: Vec<u32>,
    queue: VecDeque<u32>,
    visits: u64,
}

impl BfsScratch {
    /// Fresh scratch; buffers grow to the graph size on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Cumulative count of node expansions across every search this
    /// scratch has run. Never reset by `begin`, so instrumentation can
    /// read it before and after a search and record the delta.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.visits
    }

    fn begin(&mut self, num_sites: usize) {
        if self.mark.len() < num_sites {
            self.mark.resize(num_sites, 0);
            self.dist.resize(num_sites, 0);
            self.prev.resize(num_sites, NONE);
        }
        self.queue.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: stale marks could alias; hard-reset once
            // every 2^32 searches.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn visit(&mut self, index: usize, dist: u32) {
        self.mark[index] = self.epoch;
        self.dist[index] = dist;
        self.visits += 1;
    }

    #[inline]
    fn is_visited(&self, index: usize) -> bool {
        self.mark[index] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_grid(rng: &mut StdRng, w: u32, h: u32, holes: usize) -> Grid {
        let mut g = Grid::new(w, h);
        for _ in 0..holes {
            let s = Site::new(rng.gen_range(0..w as i32), rng.gen_range(0..h as i32));
            if g.is_usable(s) {
                g.remove_atom(s);
            }
        }
        g
    }

    #[test]
    fn csr_neighbors_match_grid_scan_exactly() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..16 {
            let g = random_grid(&mut rng, 8, 7, 9);
            for &mid in &[1.0, 2.0, 3.0, 4.4] {
                let graph = InteractionGraph::build(&g, mid);
                for i in 0..g.num_sites() {
                    let site = g.site_at(i);
                    let expect = if g.is_usable(site) {
                        g.neighbors_within(site, mid)
                    } else {
                        Vec::new()
                    };
                    let got: Vec<Site> = graph.neighbor_sites(i).collect();
                    assert_eq!(got, expect, "site {site} at MID {mid}");
                }
            }
        }
    }

    #[test]
    fn huge_mids_clamp_to_the_grid_and_keep_every_neighbor() {
        // MID 10 covers the 8×7 grid's diagonal (√85 ≈ 9.2), so every
        // usable site neighbours every other. Larger and infinite MIDs
        // used to loop over a ~2⁶⁴-entry stencil; they must give the
        // same complete neighbour lists, from a stencil no wider than
        // the grid.
        let mut rng = StdRng::seed_from_u64(23);
        let g = random_grid(&mut rng, 8, 7, 9);
        for mid in [10.0, 1e9, f64::MAX, f64::INFINITY] {
            let graph = InteractionGraph::build(&g, mid);
            assert!(graph.stencil().len() <= 17 * 17, "MID {mid}");
            for i in 0..g.num_sites() {
                let site = g.site_at(i);
                let mut everyone: Vec<Site> = if g.is_usable(site) {
                    g.usable_sites().filter(|&s| s != site).collect()
                } else {
                    Vec::new()
                };
                everyone.sort();
                let got: Vec<Site> = graph.neighbor_sites(i).collect();
                assert_eq!(got, everyone, "site {site} at MID {mid}");
                if g.is_usable(site) {
                    assert_eq!(g.neighbors_within(site, mid), everyone, "{site} MID {mid}");
                }
            }
        }
    }

    #[test]
    fn hop_distance_matches_grid_bfs() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut scratch = BfsScratch::new();
        for _ in 0..12 {
            let g = random_grid(&mut rng, 7, 7, 8);
            let mid = f64::from(rng.gen_range(1u32..4));
            let graph = InteractionGraph::build(&g, mid);
            for _ in 0..24 {
                let a = Site::new(rng.gen_range(0..7), rng.gen_range(0..7));
                let b = Site::new(rng.gen_range(0..7), rng.gen_range(0..7));
                assert_eq!(
                    graph.hop_distance(a, b, &mut scratch),
                    g.hop_distance(a, b, mid),
                    "{a}->{b} at MID {mid}"
                );
            }
        }
    }

    #[test]
    fn hop_distances_into_matches_grid() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = BfsScratch::new();
        let mut out = Vec::new();
        for _ in 0..8 {
            let g = random_grid(&mut rng, 6, 6, 6);
            let graph = InteractionGraph::build(&g, 2.0);
            let from = Site::new(rng.gen_range(0..6), rng.gen_range(0..6));
            graph.hop_distances_into(from, &mut scratch, &mut out);
            assert_eq!(out, g.hop_distances(from, 2.0));
        }
    }

    #[test]
    fn masked_hop_distance_matches_holey_rebuild() {
        // The loss-path contract: BFS over the full-grid graph with a
        // usability mask must agree with a graph rebuilt from the
        // holey grid, for every endpoint pair.
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = BfsScratch::new();
        for _ in 0..10 {
            let full = Grid::new(7, 6);
            let holey = random_grid(&mut rng, 7, 6, 10);
            let mid = f64::from(rng.gen_range(1u32..4));
            let full_graph = InteractionGraph::build(&full, mid);
            let holey_graph = InteractionGraph::build(&holey, mid);
            for _ in 0..32 {
                let a = Site::new(rng.gen_range(0..7), rng.gen_range(0..6));
                let b = Site::new(rng.gen_range(0..7), rng.gen_range(0..6));
                assert_eq!(
                    full_graph.hop_distance_masked(a, b, holey.usable_mask(), &mut scratch),
                    holey_graph.hop_distance(a, b, &mut scratch),
                    "{a}->{b} at MID {mid}"
                );
            }
        }
    }

    #[test]
    fn out_of_bounds_lookups_are_none() {
        let g = Grid::new(3, 3);
        let graph = InteractionGraph::build(&g, 1.0);
        assert_eq!(graph.index_of(Site::new(-1, 0)), None);
        assert_eq!(graph.index_of(Site::new(3, 0)), None);
        let mut scratch = BfsScratch::new();
        assert_eq!(
            graph.hop_distance(Site::new(0, 0), Site::new(9, 9), &mut scratch),
            None
        );
    }

    #[test]
    fn largest_component_matches_grid() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut scratch = BfsScratch::new();
        for _ in 0..12 {
            let g = random_grid(&mut rng, 6, 5, 10);
            let mid = f64::from(rng.gen_range(1u32..3));
            let graph = InteractionGraph::build(&g, mid);
            assert_eq!(
                graph.largest_component(&mut scratch),
                g.largest_component(mid)
            );
        }
    }

    #[test]
    fn cached_returns_shared_graphs() {
        let g = Grid::new(4, 4);
        let a = InteractionGraph::cached(&g, 2.0);
        let b = InteractionGraph::cached(&g, 2.0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = InteractionGraph::cached(&g, 3.0);
        assert!(!Arc::ptr_eq(&a, &c));
        // Same hole pattern built independently shares an entry.
        let mut g2 = Grid::new(4, 4);
        g2.remove_atom(Site::new(1, 1));
        let mut g3 = Grid::new(4, 4);
        g3.remove_atom(Site::new(1, 1));
        assert!(Arc::ptr_eq(
            &InteractionGraph::cached(&g2, 2.0),
            &InteractionGraph::cached(&g3, 2.0)
        ));
    }

    #[test]
    fn scratch_epochs_do_not_leak_between_searches() {
        let g = Grid::new(6, 1);
        let graph = InteractionGraph::build(&g, 1.0);
        let mut scratch = BfsScratch::new();
        for _ in 0..100 {
            assert_eq!(
                graph.hop_distance(Site::new(0, 0), Site::new(5, 0), &mut scratch),
                Some(5)
            );
        }
    }
}
