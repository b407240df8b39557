//! SWAP selection for long-distance frontier gates.
//!
//! When a frontier gate's operands are not all pairwise within the MID,
//! the router moves qubits together with SWAPs. Paper §III-A scores a
//! candidate SWAP of qubit `u` into site `h` by
//!
//! ```text
//! s(u, h) = Σ_v [d(φ(u), φ(v)) − d(h, φ(v))] · w(u, v)
//!         + Σ_v [d(h, φ(v)) − d(φ(u), φ(v))] · w(φ⁻¹(h), v)
//! ```
//!
//! — the progress `u` makes toward its weighted future partners, minus
//! the damage done to the displaced occupant of `h` — subject to `h`
//! being *strictly closer* to `u`'s most immediate interaction, which
//! guarantees forward progress.
//!
//! A deterministic BFS fallback ([`forced_hop`]) guarantees global
//! progress even when no scored candidate exists (e.g. routing around
//! device corners), so compilation always terminates on connected
//! topologies.

use crate::lookahead::PartnerWeights;
use crate::QubitMap;
use na_arch::{BfsScratch, Grid, InteractionGraph, Site};
use na_circuit::Qubit;

/// A candidate SWAP: exchange the occupants of `from` and `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapMove {
    /// Site of the qubit being moved.
    pub from: Site,
    /// Destination site (its occupant, if any, is displaced to `from`).
    pub to: Site,
    /// The lookahead score of this move (higher is better).
    pub score: f64,
}

/// The pair of operands at maximum Euclidean distance under the current
/// mapping.
///
/// # Panics
///
/// Panics if fewer than two operands are given or any operand is
/// unmapped.
pub fn farthest_pair(operands: &[Qubit], map: &QubitMap) -> (Qubit, Qubit) {
    assert!(operands.len() >= 2, "need at least two operands");
    let mut best = (operands[0], operands[1], -1.0f64);
    for i in 0..operands.len() {
        for j in (i + 1)..operands.len() {
            let si = map.site_of(operands[i]).expect("operand mapped");
            let sj = map.site_of(operands[j]).expect("operand mapped");
            let d = si.distance(sj);
            if d > best.2 {
                best = (operands[i], operands[j], d);
            }
        }
    }
    (best.0, best.1)
}

/// `true` if every operand pair is within the MID (gate executable as
/// far as distance is concerned).
pub fn all_within_mid(operands: &[Qubit], map: &QubitMap, mid: f64) -> bool {
    for i in 0..operands.len() {
        for j in (i + 1)..operands.len() {
            let si = map.site_of(operands[i]).expect("operand mapped");
            let sj = map.site_of(operands[j]).expect("operand mapped");
            if !si.within(sj, mid) {
                return false;
            }
        }
    }
    true
}

/// Reusable working memory of [`best_swap_for_gate`].
#[derive(Debug, Clone, Default)]
pub struct SwapScratch {
    /// `(φ(v), w(u, v), d(φ(u), φ(v)))` for each mapped partner `v` of
    /// the operand `u` being moved, in partner order.
    terms: Vec<(Site, f64, f64)>,
}

impl SwapScratch {
    /// Fresh scratch; grows on first use.
    pub fn new() -> Self {
        SwapScratch::default()
    }
}

/// Largest `d(φ(u), target)²` for which [`strictly_closer`] may decide
/// on integers.
const EXACT_SQ_LIMIT: i64 = 1 << 40;

/// The strictly-closer constraint `d(h, t) + 1e-12 < d(s, t)` of
/// [`best_swap_for_gate`], given `gap_sq = d(s, t)²` and
/// `gap = d(s, t)` as computed by [`Site::distance`].
///
/// Whenever `gap_sq ≤ 2⁴⁰` it compares squared distances, with the
/// same result as the `f64` test:
///
/// * `a = d(h, t)² ≥ b = gap_sq`: `i64 → f64` conversion, `sqrt` and
///   the addition of `1e-12` are all monotone under round-to-nearest,
///   so `fl(fl(√a) + 1e-12) ≥ fl(√b)` and both tests reject.
/// * `a < b ≤ 2⁴⁰`: both convert to `f64` exactly, and
///   `√b − √a ≥ √b − √(b−1) = 1/(√b + √(b−1)) > 2⁻²¹ ≈ 4.8·10⁻⁷`.
///   Each of the two square roots and the addition rounds by at most
///   half an ulp of a value below `2²⁰ + 1`, i.e. at most `2⁻³³`, so
///   `fl(fl(√a) + 1e-12) ≤ √a + 1e-12 + 2·2⁻³³ < √b − 2⁻³³ ≤ fl(√b)`,
///   and both tests accept.
///
/// Larger gaps, which only grids wider than `2²⁰` sites can produce,
/// take the `f64` test itself.
#[inline]
fn strictly_closer(h: Site, t: Site, gap_sq: i64, gap: f64) -> bool {
    if gap_sq <= EXACT_SQ_LIMIT {
        h.distance_sq(t) < gap_sq
    } else {
        h.distance(t) + 1e-12 < gap
    }
}

/// The best-scoring SWAP that moves one operand of the gate strictly
/// closer to its farthest co-operand. Returns `None` when no usable
/// candidate site satisfies the strictly-closer constraint (the caller
/// falls back to [`forced_hop`]).
///
/// Candidate sites come from the precomputed [`InteractionGraph`]
/// (built at the same MID), so the scan is a flat slice walk with no
/// per-call allocation once `scratch` has grown. Lookahead partners
/// are refreshed on demand: only the operand being moved and the
/// occupant of a candidate site that passes the strictly-closer and
/// co-operand filters, right before that candidate is scored. Scores
/// equal [`swap_score`] bit for bit.
pub fn best_swap_for_gate<W: PartnerWeights + ?Sized>(
    operands: &[Qubit],
    map: &QubitMap,
    graph: &InteractionGraph,
    weights: &mut W,
    mid: f64,
    scratch: &mut SwapScratch,
) -> Option<SwapMove> {
    let mut best: Option<SwapMove> = None;
    for &u in operands {
        let su = map.site_of(u).expect("operand mapped");
        // Most immediate interaction for u: the farthest co-operand.
        let target = operands
            .iter()
            .filter(|&&v| v != u)
            .max_by(|&&a, &&b| {
                let da = su.distance(map.site_of(a).expect("mapped"));
                let db = su.distance(map.site_of(b).expect("mapped"));
                da.partial_cmp(&db).expect("finite distances")
            })
            .copied()?;
        let st = map.site_of(target).expect("operand mapped");
        if su.within(st, mid) && operands.len() == 2 {
            continue; // this pair is already satisfied
        }
        let (gap_sq, gap) = (su.distance_sq(st), su.distance(st));
        let mut u_terms_ready = false;
        let su_index = graph.index_of(su).expect("mapped sites are on the grid");
        for h in graph.neighbor_sites(su_index) {
            // Strictly-closer constraint toward the immediate partner.
            if !strictly_closer(h, st, gap_sq, gap) {
                continue;
            }
            // Never displace a co-operand of the same gate; that undoes
            // progress on another pair.
            let displaced = map.qubit_at(h);
            if displaced.is_some_and(|q| operands.contains(&q)) {
                continue;
            }
            if !u_terms_ready {
                weights.refresh(u);
                scratch.terms.clear();
                for &(v, w) in weights.partners(u) {
                    if let Some(sv) = map.site_of(v) {
                        scratch.terms.push((sv, w, su.distance(sv)));
                    }
                }
                u_terms_ready = true;
            }
            // The terms of `swap_score`, in its order.
            let mut score = 0.0;
            for &(sv, w, d_su) in &scratch.terms {
                if sv != h {
                    score += (d_su - h.distance(sv)) * w;
                }
            }
            if let Some(q) = displaced {
                weights.refresh(q);
                add_displaced_terms(&mut score, u, su, h, q, map, weights);
            }
            let better = match best {
                None => true,
                Some(b) => {
                    score > b.score + 1e-12
                        || ((score - b.score).abs() <= 1e-12 && (su, h) < (b.from, b.to))
                }
            };
            if better {
                best = Some(SwapMove {
                    from: su,
                    to: h,
                    score,
                });
            }
        }
    }
    best
}

/// The paper's dual-term SWAP score (see module docs). Reads the
/// partners of `u` and of the occupant of `h`, which must be fresh
/// (see [`PartnerWeights::refresh`]).
pub fn swap_score<W: PartnerWeights + ?Sized>(
    u: Qubit,
    su: Site,
    h: Site,
    map: &QubitMap,
    weights: &W,
) -> f64 {
    let mut score = 0.0;
    for &(v, w) in weights.partners(u) {
        if let Some(sv) = map.site_of(v) {
            if sv == h {
                // v itself is displaced to su by this swap; its term is
                // covered below.
                continue;
            }
            score += (su.distance(sv) - h.distance(sv)) * w;
        }
    }
    if let Some(displaced) = map.qubit_at(h) {
        add_displaced_terms(&mut score, u, su, h, displaced, map, weights);
    }
    score
}

/// Adds the damage terms of [`swap_score`] to the running `score`, in
/// order: `displaced`, the occupant of `h`, moves to `su`.
#[inline]
fn add_displaced_terms<W: PartnerWeights + ?Sized>(
    score: &mut f64,
    u: Qubit,
    su: Site,
    h: Site,
    displaced: Qubit,
    map: &QubitMap,
    weights: &W,
) {
    for &(v, w) in weights.partners(displaced) {
        if v == u {
            continue;
        }
        if let Some(sv) = map.site_of(v) {
            *score += (h.distance(sv) - su.distance(sv)) * w;
        }
    }
}

/// The usable site minimizing the maximum Euclidean distance to the
/// gate's operands — where the operands should congregate.
///
/// # Panics
///
/// Panics if any operand is unmapped or the grid has no usable site.
pub fn meeting_point(operands: &[Qubit], map: &QubitMap, grid: &Grid) -> Site {
    let sites: Vec<Site> = operands
        .iter()
        .map(|&q| map.site_of(q).expect("operand mapped"))
        .collect();
    meeting_point_of_sites(&sites, grid)
}

/// [`meeting_point`] over already-resolved operand sites; the
/// scheduler's fallback path calls this with its reusable site buffer.
pub fn meeting_point_of_sites(sites: &[Site], grid: &Grid) -> Site {
    let mut best: Option<(f64, Site)> = None;
    for m in grid.usable_sites() {
        let worst = sites.iter().map(|s| s.distance(m)).fold(0.0f64, f64::max);
        if best.is_none_or(|(bw, bs)| worst + 1e-12 < bw || ((worst - bw).abs() <= 1e-12 && m < bs))
        {
            best = Some((worst, m));
        }
    }
    best.expect("grid has a usable site").1
}

/// One deterministic BFS hop of the atom at `from` toward `goal`,
/// avoiding `blocked` sites as destinations. Returns the next site on
/// a shortest hop path, or `None` if `goal` is unreachable or `from`
/// is already at `goal`.
///
/// Convenience wrapper over [`InteractionGraph::hop_toward`]; the
/// scheduler holds its own graph and scratch and calls that directly.
pub fn forced_hop(grid: &Grid, from: Site, goal: Site, mid: f64, blocked: &[Site]) -> Option<Site> {
    InteractionGraph::cached(grid, mid).hop_toward(from, goal, blocked, &mut BfsScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InteractionWeights;

    fn line_map(positions: &[(i32, i32)]) -> QubitMap {
        let mut m = QubitMap::new(positions.len() as u32);
        for (i, &(x, y)) in positions.iter().enumerate() {
            m.assign(Qubit(i as u32), Site::new(x, y));
        }
        m
    }

    fn weights_pair(n: u32, u: Qubit, v: Qubit) -> InteractionWeights {
        InteractionWeights::from_layered_gates(n, [(&[u, v][..], 0usize)], 20)
    }

    #[test]
    fn farthest_pair_finds_extremes() {
        let map = line_map(&[(0, 0), (1, 0), (5, 0)]);
        let ops = [Qubit(0), Qubit(1), Qubit(2)];
        let (a, b) = farthest_pair(&ops, &map);
        assert_eq!((a, b), (Qubit(0), Qubit(2)));
    }

    #[test]
    fn all_within_mid_checks_every_pair() {
        let map = line_map(&[(0, 0), (1, 0), (2, 0)]);
        let ops = [Qubit(0), Qubit(1), Qubit(2)];
        assert!(all_within_mid(&ops, &map, 2.0));
        assert!(!all_within_mid(&ops, &map, 1.0)); // (0,2) at distance 2
    }

    #[test]
    fn best_swap_moves_toward_partner() {
        let grid = Grid::new(7, 1);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let map = line_map(&[(0, 0), (6, 0)]);
        let mut w = weights_pair(2, Qubit(0), Qubit(1));
        let mv = best_swap_for_gate(
            &[Qubit(0), Qubit(1)],
            &map,
            &graph,
            &mut w,
            2.0,
            &mut SwapScratch::new(),
        )
        .unwrap();
        // Either endpoint can move, but the move must make strict progress.
        let gain_from = mv.from.distance(if mv.from.x == 0 {
            Site::new(6, 0)
        } else {
            Site::new(0, 0)
        });
        let gain_to = mv.to.distance(if mv.from.x == 0 {
            Site::new(6, 0)
        } else {
            Site::new(0, 0)
        });
        assert!(gain_to < gain_from, "swap must shrink the gap: {mv:?}");
        assert!(mv.score > 0.0);
    }

    #[test]
    fn best_swap_none_when_already_within() {
        let grid = Grid::new(7, 1);
        let graph = InteractionGraph::cached(&grid, 2.0);
        let map = line_map(&[(0, 0), (1, 0)]);
        let mut w = weights_pair(2, Qubit(0), Qubit(1));
        assert_eq!(
            best_swap_for_gate(
                &[Qubit(0), Qubit(1)],
                &map,
                &graph,
                &mut w,
                2.0,
                &mut SwapScratch::new()
            ),
            None
        );
    }

    #[test]
    fn best_swap_never_displaces_co_operand() {
        // Three operands in a row; moving q0 onto q1's site is banned.
        let grid = Grid::new(5, 1);
        let graph = InteractionGraph::cached(&grid, 1.0);
        let map = line_map(&[(0, 0), (1, 0), (4, 0)]);
        let mut w = InteractionWeights::from_layered_gates(
            3,
            [(&[Qubit(0), Qubit(1), Qubit(2)][..], 0usize)],
            20,
        );
        if let Some(mv) = best_swap_for_gate(
            &[Qubit(0), Qubit(1), Qubit(2)],
            &map,
            &graph,
            &mut w,
            1.0,
            &mut SwapScratch::new(),
        ) {
            let displaced = map.qubit_at(mv.to);
            assert!(
                displaced.is_none_or(|q| q.0 > 2 || mv.to == Site::new(4, 0)),
                "co-operand displaced by {mv:?}"
            );
        }
    }

    #[test]
    fn swap_score_rewards_progress_and_penalizes_damage() {
        // u at (0,0) wants v at (4,0); a bystander b at (1,0) wants
        // w at (0,1) (i.e. b prefers staying put).
        let mut map = QubitMap::new(4);
        map.assign(Qubit(0), Site::new(0, 0)); // u
        map.assign(Qubit(1), Site::new(4, 0)); // v
        map.assign(Qubit(2), Site::new(1, 0)); // bystander b
        map.assign(Qubit(3), Site::new(0, 1)); // b's partner
        let w = InteractionWeights::from_layered_gates(
            4,
            [
                (&[Qubit(0), Qubit(1)][..], 0usize),
                (&[Qubit(2), Qubit(3)][..], 0usize),
            ],
            20,
        );
        let score = swap_score(Qubit(0), Site::new(0, 0), Site::new(1, 0), &map, &w);
        // u gains 1.0 toward v; b is pushed from distance sqrt(2) to 1
        // relative to its partner — actually a small gain for b too.
        assert!(score > 0.0);

        // Moving u away from v scores negative.
        let bad = swap_score(Qubit(0), Site::new(0, 0), Site::new(0, 1), &map, &w);
        assert!(bad < score);
    }

    #[test]
    fn meeting_point_centers_operands() {
        let grid = Grid::new(9, 9);
        let map = line_map(&[(0, 4), (8, 4)]);
        let m = meeting_point(&[Qubit(0), Qubit(1)], &map, &grid);
        assert_eq!(m, Site::new(4, 4));
    }

    #[test]
    fn meeting_point_avoids_holes() {
        let mut grid = Grid::new(9, 1);
        grid.remove_atom(Site::new(4, 0));
        let map = line_map(&[(0, 0), (8, 0)]);
        let m = meeting_point(&[Qubit(0), Qubit(1)], &map, &grid);
        assert!(grid.is_usable(m));
        assert!(m == Site::new(3, 0) || m == Site::new(5, 0));
    }

    #[test]
    fn forced_hop_advances_along_bfs_path() {
        let grid = Grid::new(6, 1);
        let from = Site::new(0, 0);
        let goal = Site::new(5, 0);
        let hop = forced_hop(&grid, from, goal, 2.0, &[]).unwrap();
        assert!(from.within(hop, 2.0), "hop within MID");
        assert!(
            hop.distance(goal) < from.distance(goal),
            "hop makes progress"
        );
    }

    #[test]
    fn forced_hop_respects_blocked_sites() {
        let grid = Grid::new(6, 1);
        let hop = forced_hop(
            &grid,
            Site::new(0, 0),
            Site::new(5, 0),
            2.0,
            &[Site::new(2, 0)],
        )
        .unwrap();
        assert_eq!(hop, Site::new(1, 0));
    }

    #[test]
    fn forced_hop_none_at_goal_or_unreachable() {
        let mut grid = Grid::new(5, 1);
        assert_eq!(
            forced_hop(&grid, Site::new(2, 0), Site::new(2, 0), 1.0, &[]),
            None
        );
        grid.remove_atom(Site::new(2, 0));
        assert_eq!(
            forced_hop(&grid, Site::new(0, 0), Site::new(4, 0), 1.0, &[]),
            None
        );
    }

    /// The `f64` form of the strictly-closer test, as the router ran it
    /// before the integer path existed.
    fn float_closer(h: Site, t: Site, s: Site) -> bool {
        h.distance(t) + 1e-12 < s.distance(t)
    }

    fn assert_same_verdicts(h: Site, t: Site, s: Site) {
        assert_eq!(
            strictly_closer(h, t, s.distance_sq(t), s.distance(t)),
            float_closer(h, t, s),
            "h={h} t={t} s={s}"
        );
    }

    #[test]
    fn strictly_closer_matches_the_float_test_on_every_grid() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Exhaustive on a paper-sized device.
        let sites: Vec<Site> = (0..12)
            .flat_map(|y| (0..12).map(move |x| Site::new(x, y)))
            .collect();
        for &t in &sites {
            for &s in &sites {
                for &h in &sites {
                    assert_same_verdicts(h, t, s);
                }
            }
        }
        // The integer path's limit, d² = 2⁴⁰: candidates one MID-13
        // stencil around a source at, just inside and just beyond it.
        let t = Site::new(0, 0);
        let edge = 1 << 20;
        let mut rng = StdRng::seed_from_u64(40);
        for s in [
            Site::new(edge, 0),
            Site::new(edge - 1, 1448),
            Site::new(741_455, 743_574),
            Site::new(edge, 1),
        ] {
            for dy in -13..=13 {
                for dx in -13..=13 {
                    assert_same_verdicts(Site::new(s.x + dx, s.y + dy), t, s);
                }
            }
            for _ in 0..1000 {
                let h = Site::new(s.x + rng.gen_range(-5..=5), s.y + rng.gen_range(-5..=5));
                assert_same_verdicts(h, Site::new(rng.gen_range(0..3), rng.gen_range(0..3)), s);
            }
        }
        // The largest grid sites can address: i32 coordinates, so any
        // squared distance fits an i64.
        let max = i32::MAX;
        // A diagonal step two units closer at d ≈ 2³¹·√2: integers say
        // closer, the f64 test (and so the router) says not, because
        // the gain is below an ulp. Only the f64 fallback beyond the
        // limit keeps the verdict.
        let y = (max - 2) / 2 * 2 - 2;
        let (h, t, s) = (
            Site::new(y + 1, y + 1),
            Site::new(0, 0),
            Site::new(y + 2, y),
        );
        assert!(h.distance_sq(t) < s.distance_sq(t) && !float_closer(h, t, s));
        assert_same_verdicts(h, t, s);
        for (h, t, s) in [
            (
                Site::new(max - 1, max),
                Site::new(0, 0),
                Site::new(max, max),
            ),
            (
                Site::new(max, max),
                Site::new(0, 0),
                Site::new(max - 1, max),
            ),
            (Site::new(1, 0), Site::new(max, 0), Site::new(0, 0)),
            (Site::new(0, 0), Site::new(max, max), Site::new(1, 1)),
        ] {
            assert_same_verdicts(h, t, s);
        }
        for _ in 0..10_000 {
            let mut site = || Site::new(rng.gen_range(0..=max), rng.gen_range(0..=max));
            let (t, s) = (site(), site());
            let h = Site::new(
                s.x.saturating_add(rng.gen_range(-13..=13)).max(0),
                s.y.saturating_add(rng.gen_range(-13..=13)).max(0),
            );
            assert_same_verdicts(h, t, s);
        }
    }
}
