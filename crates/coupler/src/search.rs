//! Donor-point search.
//!
//! Each target interface point must find its donor(s) on the other
//! side. Three implementations with the cost profiles the paper's
//! coupling-overhead story turns on:
//!
//! * [`BruteSearch`] — `O(n·m)` reference (the original coupler's
//!   bottleneck);
//! * [`KdTree2`] — a 2-D k-d tree over the donor surface coordinates,
//!   `O(n·log m)` per remap. With θ-periodicity it walks a ±period image
//!   of a query only when that image could hold a nearer donor;
//! * [`PrefetchSearch`] — the tree search plus the sliding-plane
//!   prefetch: the rotor turns a small Δθ per step, so each target's
//!   donor from the previous step is a few cells from its new one.
//!   Every walk after the first step starts from that donor's distance
//!   instead of ∞, so from its first node it skips every subtree and
//!   image that lies farther away. This (plus the tree) is what reduced
//!   coupling overhead to <10% and ultimately <0.5% of runtime (§II-B,
//!   §V-B).

/// Squared distance in surface coordinates, with θ-periodicity in the
/// second coordinate when `theta_period` is set.
fn dist2(a: [f64; 2], b: [f64; 2], theta_period: Option<f64>) -> f64 {
    let dr = a[0] - b[0];
    let mut dt = a[1] - b[1];
    if let Some(period) = theta_period {
        dt = dt.rem_euclid(period);
        if dt > period / 2.0 {
            dt -= period;
        }
    }
    dr * dr + dt * dt
}

/// Exhaustive nearest-donor search.
#[derive(Debug, Clone)]
pub struct BruteSearch {
    donors: Vec<[f64; 2]>,
    theta_period: Option<f64>,
}

impl BruteSearch {
    /// Build over donor surface coordinates.
    pub fn new(donors: Vec<[f64; 2]>, theta_period: Option<f64>) -> BruteSearch {
        assert!(!donors.is_empty(), "need at least one donor");
        BruteSearch {
            donors,
            theta_period,
        }
    }

    /// Nearest donor index for `query`.
    pub fn nearest(&self, query: [f64; 2]) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &d) in self.donors.iter().enumerate() {
            let dd = dist2(query, d, self.theta_period);
            if dd < best_d {
                best_d = dd;
                best = i;
            }
        }
        best
    }

    /// Map every query point.
    pub fn map_all(&self, queries: &[[f64; 2]]) -> Vec<usize> {
        queries.iter().map(|&q| self.nearest(q)).collect()
    }
}

/// A 2-D k-d tree over donor points.
///
/// With θ-periodicity the tree holds the donors' unwrapped coordinates,
/// and a query walks its own position, then its +period image, then its
/// −period image.
///
/// # Which donor wins
///
/// The walk is depth-first and keeps the first node whose distance is
/// strictly below the best so far, so among equally near donors the one
/// met first in the unpruned walk order wins. That order depends on the
/// query alone. A subtree or image is skipped only when a true lower
/// bound on its distances is ≥ the current best: `delta²` at a k-d
/// split, the squared θ-gap between an image and the donors' θ range
/// for an image. Until the first minimum node is met the best is above
/// the minimum, so no skip can drop that node, and a walk started from
/// any bound above the minimum (a [`PrefetchSearch`] seed) cannot drop
/// it either. Neither lets another minimum node come first, so every
/// walk returns the same id. The bounds hold in floating point too:
/// subtraction, squaring a non-negative and adding a non-negative are
/// monotone.
#[derive(Debug, Clone)]
pub struct KdTree2 {
    /// Node-ordered points (median layout).
    pts: Vec<[f64; 2]>,
    /// Original donor index of each node.
    ids: Vec<usize>,
    /// Node of each donor index (the inverse of `ids`).
    node_by_id: Vec<usize>,
    /// Smallest and largest donor θ.
    theta_range: [f64; 2],
    theta_period: Option<f64>,
}

impl KdTree2 {
    /// Build over donor surface coordinates.
    pub fn build(donors: &[[f64; 2]], theta_period: Option<f64>) -> KdTree2 {
        assert!(!donors.is_empty(), "need at least one donor");
        let mut order: Vec<usize> = (0..donors.len()).collect();
        let mut pts = Vec::with_capacity(donors.len());
        let mut ids = Vec::with_capacity(donors.len());
        build_recurse(donors, &mut order, 0, &mut pts, &mut ids);
        let mut node_by_id = vec![0; ids.len()];
        for (node, &id) in ids.iter().enumerate() {
            node_by_id[id] = node;
        }
        let theta = donors.iter().map(|d| d[1]);
        let theta_range = [
            theta.clone().fold(f64::INFINITY, f64::min),
            theta.fold(f64::NEG_INFINITY, f64::max),
        ];
        KdTree2 {
            pts,
            ids,
            node_by_id,
            theta_range,
            theta_period,
        }
    }

    /// Number of donors.
    pub fn len(&self) -> usize {
        self.pts.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Nearest donor index for `query`.
    pub fn nearest(&self, query: [f64; 2]) -> usize {
        self.nearest_below(query, f64::INFINITY)
    }

    /// The nearest donor, walking only what could lie strictly nearer
    /// than `bound`. `bound` must exceed the nearest distance (∞ always
    /// does), or no node beats it and donor 0 comes back.
    fn nearest_below(&self, query: [f64; 2], bound: f64) -> usize {
        let mut best = (bound, 0usize);
        let [lo, hi] = self.theta_range;
        for q in self.images(query) {
            let gap = (lo - q[1]).max(q[1] - hi).max(0.0);
            if gap * gap < best.0 {
                self.nearest_recurse(0, self.pts.len(), 0, q, &mut best);
            }
        }
        best.1
    }

    /// The query and, with θ-periodicity, its +period and −period
    /// images, in walk order.
    fn images(&self, query: [f64; 2]) -> impl Iterator<Item = [f64; 2]> {
        let shifted = self
            .theta_period
            .into_iter()
            .flat_map(move |period| [[query[0], query[1] + period], [query[0], query[1] - period]]);
        std::iter::once(query).chain(shifted)
    }

    /// A [`KdTree2::nearest_below`] bound from a guessed donor: the
    /// next float above its distance to the nearest image of `query`.
    /// The distance is the walk's own, so the bound exceeds the nearest
    /// distance; the wrapped [`dist2`] could round below it. A NaN query
    /// gives ∞ (`f64::min` drops NaN), the unseeded walk.
    fn bound_from(&self, query: [f64; 2], donor: usize) -> f64 {
        let p = self.pts[self.node_by_id[donor]];
        self.images(query)
            .map(|q| dist2(q, p, None))
            .fold(f64::INFINITY, f64::min)
            .next_up()
    }

    fn nearest_recurse(
        &self,
        lo: usize,
        hi: usize,
        axis: usize,
        q: [f64; 2],
        best: &mut (f64, usize),
    ) {
        if lo >= hi {
            return;
        }
        let mid = (lo + hi) / 2;
        let node = self.pts[mid];
        let d = dist2(q, node, None);
        if d < best.0 {
            *best = (d, self.ids[mid]);
        }
        let delta = q[axis] - node[axis];
        let (near, far) = if delta < 0.0 {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.nearest_recurse(near.0, near.1, 1 - axis, q, best);
        if delta * delta < best.0 {
            self.nearest_recurse(far.0, far.1, 1 - axis, q, best);
        }
    }

    /// Map every query point.
    pub fn map_all(&self, queries: &[[f64; 2]]) -> Vec<usize> {
        queries.iter().map(|&q| self.nearest(q)).collect()
    }

    /// The search before image skipping and seeding: every image walked
    /// from ∞. Kept as the reference the pruned and seeded walks must
    /// match id for id.
    #[cfg(test)]
    pub(crate) fn nearest_reference(&self, query: [f64; 2]) -> usize {
        let mut best = (f64::INFINITY, 0usize);
        let queries: Vec<[f64; 2]> = match self.theta_period {
            None => vec![query],
            Some(period) => vec![
                query,
                [query[0], query[1] + period],
                [query[0], query[1] - period],
            ],
        };
        for q in queries {
            self.nearest_recurse(0, self.pts.len(), 0, q, &mut best);
        }
        best.1
    }
}

fn build_recurse(
    donors: &[[f64; 2]],
    order: &mut [usize],
    axis: usize,
    pts: &mut Vec<[f64; 2]>,
    ids: &mut Vec<usize>,
) {
    if order.is_empty() {
        return;
    }
    order.sort_unstable_by(|&a, &b| {
        donors[a][axis]
            .partial_cmp(&donors[b][axis])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mid = order.len() / 2;
    // In-order node layout matching `nearest_recurse`'s implicit tree:
    // left block, median, right block — recursion handles placement.
    let (left, rest) = order.split_at_mut(mid);
    let (median, right) = rest.split_at_mut(1);
    // Recurse left, place median, recurse right to produce the in-order
    // array the query walk expects.
    build_recurse(donors, left, 1 - axis, pts, ids);
    pts.push(donors[median[0]]);
    ids.push(median[0]);
    build_recurse(donors, right, 1 - axis, pts, ids);
}

/// Tree search with sliding-plane prefetching: each step's walks are
/// seeded with the previous step's mapping.
///
/// The first [`PrefetchSearch::step_map`], and any call whose query
/// count differs from the last one, walks from ∞. Every other call
/// starts target i's walk from just above the distance to last step's
/// donor of target i, found in O(1) through the tree's inverse
/// permutation. The ids are the unseeded [`KdTree2::nearest`]'s, bit for
/// bit (see [`KdTree2`]'s "Which donor wins").
#[derive(Debug, Clone)]
pub struct PrefetchSearch {
    tree: KdTree2,
    /// Last step's mapping, overwritten in place by the next step.
    mapping: Option<Vec<usize>>,
    /// Statistics: targets whose previous-step donor, the seed of
    /// their walk, was still the nearest.
    pub searches_saved: usize,
    /// Statistics: how many searches were performed.
    pub searches_done: usize,
}

impl PrefetchSearch {
    /// Build over donors periodic in θ with `theta_period`.
    pub fn new(donors: &[[f64; 2]], theta_period: f64) -> PrefetchSearch {
        PrefetchSearch {
            tree: KdTree2::build(donors, Some(theta_period)),
            mapping: None,
            searches_saved: 0,
            searches_done: 0,
        }
    }

    /// Map the queries for the current step, each walk seeded with the
    /// target's donor from the previous call.
    pub fn step_map(&mut self, queries: &[[f64; 2]]) -> &[usize] {
        let tree = &self.tree;
        self.searches_done += queries.len();
        match &mut self.mapping {
            Some(prev) if prev.len() == queries.len() => {
                for (donor, &q) in prev.iter_mut().zip(queries) {
                    let seed = *donor;
                    *donor = tree.nearest_below(q, tree.bound_from(q, seed));
                    self.searches_saved += usize::from(*donor == seed);
                }
            }
            slot => *slot = Some(tree.map_all(queries)),
        }
        self.mapping.as_deref().expect("mapped above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::f64::consts::TAU;

    fn random_points(n: usize, seed: u64) -> Vec<[f64; 2]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| [rng.gen_range(1.0..2.0), rng.gen_range(0.0..1.0)])
            .collect()
    }

    #[test]
    fn kdtree_matches_brute_force() {
        let donors = random_points(500, 1);
        let queries = random_points(200, 2);
        let brute = BruteSearch::new(donors.clone(), None);
        let tree = KdTree2::build(&donors, None);
        for &q in &queries {
            let b = brute.nearest(q);
            let t = tree.nearest(q);
            // Ties allowed: distances must match exactly.
            let db = dist2(q, donors[b], None);
            let dt = dist2(q, donors[t], None);
            assert!(
                (db - dt).abs() < 1e-15,
                "query {q:?}: brute {b} ({db}) vs tree {t} ({dt})"
            );
        }
    }

    #[test]
    fn periodic_theta_wraps() {
        // Donor at θ=0.05, query at θ=6.25 (≈ 2π − 0.03): nearest must
        // wrap around, not go to the donor at θ=3.0.
        let donors = vec![[1.0, 0.05], [1.0, 3.0]];
        let brute = BruteSearch::new(donors.clone(), Some(TAU));
        assert_eq!(brute.nearest([1.0, 6.25]), 0);
        let tree = KdTree2::build(&donors, Some(TAU));
        assert_eq!(tree.nearest([1.0, 6.25]), 0);
    }

    #[test]
    fn single_donor() {
        let tree = KdTree2::build(&[[1.5, 0.5]], None);
        assert_eq!(tree.nearest([9.0, 9.0]), 0);
    }

    #[test]
    fn exact_hits() {
        let donors = random_points(100, 3);
        let tree = KdTree2::build(&donors, None);
        for (i, &d) in donors.iter().enumerate() {
            let got = tree.nearest(d);
            let d_got = dist2(d, donors[got], None);
            assert!(d_got < 1e-15, "donor {i} not found exactly");
        }
    }

    /// Donors: uniform over `[1, 2) × [0, 2π)`, or (with `lattice`)
    /// rounded onto a dyadic lattice, so coordinates repeat and
    /// distances tie exactly.
    fn donor_set(raw: Vec<(f64, f64)>, lattice: bool) -> Vec<[f64; 2]> {
        raw.into_iter()
            .map(|(r, t)| {
                if lattice {
                    [(r * 4.0).floor() / 4.0, (t * 4.0).floor() / 4.0]
                } else {
                    [r, t]
                }
            })
            .collect()
    }

    /// Queries near the θ = 0 / 2π seam (`t` in `[-0.3, 0.3)`, wrapped
    /// up when negative), or anywhere; with `lattice`, on the donor
    /// lattice's half steps, where distances tie exactly.
    fn query_set(raw: Vec<(f64, f64, u8)>, lattice: bool) -> Vec<[f64; 2]> {
        raw.into_iter()
            .map(|(r, t, place)| {
                let t = match place {
                    0 if t < 0.0 => TAU + t,
                    0 => t,
                    _ => (t + 0.3) / 0.6 * TAU,
                };
                if lattice {
                    [(r * 8.0).round() / 8.0, (t * 8.0).round() / 8.0]
                } else {
                    [r, t]
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn pruned_and_seeded_walks_return_the_reference_id(
            raw_donors in proptest::collection::vec((1.0f64..2.0, 0.0f64..TAU), 1..150),
            raw_queries in proptest::collection::vec((1.0f64..2.0, -0.3f64..0.3, 0u8..2), 1..40),
            lattice in 0u8..2,
            periodic in 0u8..2,
            seed in 0usize..1_000_000,
        ) {
            let donors = donor_set(raw_donors, lattice == 1);
            let queries = query_set(raw_queries, lattice == 1);
            let tree = KdTree2::build(&donors, (periodic == 1).then_some(TAU));
            for (i, &q) in queries.iter().enumerate() {
                let want = tree.nearest_reference(q);
                prop_assert_eq!(tree.nearest(q), want, "query {:?}", q);
                let guess = (seed + 7 * i) % donors.len();
                let seeded = tree.nearest_below(q, tree.bound_from(q, guess));
                prop_assert_eq!(seeded, want, "query {:?} seeded from {}", q, guess);
            }
        }
    }

    #[test]
    fn prefetch_matches_full_search_under_rotation() {
        let donors = random_points(300, 4);
        let dtheta = 0.013;
        let mut prefetch = PrefetchSearch::new(&donors, TAU);
        let tree = KdTree2::build(&donors, Some(TAU));
        let mut queries = random_points(100, 5);
        for _ in 0..10 {
            let want: Vec<usize> = queries.iter().map(|&q| tree.nearest_reference(q)).collect();
            assert_eq!(prefetch.step_map(&queries), &want[..]);
            // Rotate the sliding plane.
            for q in &mut queries {
                q[1] = (q[1] + dtheta).rem_euclid(TAU);
            }
        }
        assert_eq!(prefetch.searches_done, 1000);
        assert!(prefetch.searches_saved > 0, "prefetch must save work");
    }

    #[test]
    fn stale_seeds_still_bound_and_a_resized_step_walks_unseeded() {
        let donors = random_points(300, 4);
        let tree = KdTree2::build(&donors, Some(TAU));
        let mut prefetch = PrefetchSearch::new(&donors, TAU);

        let mut queries = random_points(100, 5);
        prefetch.step_map(&queries);

        // Three steps' rotation later the seeds are stale, yet still
        // bounds: the mapping is the unseeded one.
        for q in &mut queries {
            q[1] = (q[1] + 3.0 * 0.013).rem_euclid(TAU);
        }
        let want: Vec<usize> = queries.iter().map(|&q| tree.nearest_reference(q)).collect();
        assert_eq!(prefetch.step_map(&queries), &want[..]);

        // A different query count cannot be seeded target by target.
        queries.truncate(60);
        let saved = prefetch.searches_saved;
        assert_eq!(prefetch.step_map(&queries), &want[..60]);
        assert_eq!(
            prefetch.searches_saved, saved,
            "an unseeded step saves nothing"
        );
        assert_eq!(prefetch.searches_done, 260);
    }

    #[test]
    fn map_all_lengths() {
        let donors = random_points(50, 6);
        let queries = random_points(20, 7);
        let tree = KdTree2::build(&donors, None);
        assert_eq!(tree.map_all(&queries).len(), 20);
        assert_eq!(tree.len(), 50);
        assert!(!tree.is_empty());
    }
}
