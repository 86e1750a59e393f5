//! Miss-rate curves: miss rate as a function of allocated cache capacity.
//!
//! A miss-rate curve (MRC) is the bridge between a workload's intrinsic
//! locality and its behaviour in any particular (share of a) cache. The
//! machine simulator evaluates each co-located application's MRC at its
//! equilibrium share of the LLC to obtain its effective miss rate under
//! contention.

/// A piecewise-linear miss-rate curve over capacity in bytes.
///
/// Points are sorted by capacity; evaluation interpolates linearly in
/// *log-capacity* (locality effects are multiplicative in size) and clamps
/// to the end values outside the sampled range.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MissRateCurve {
    /// `(capacity_bytes, miss_rate)`, sorted ascending by capacity.
    points: Vec<(u64, f64)>,
}

impl MissRateCurve {
    /// Build from unsorted points. Duplicate capacities keep the last value.
    ///
    /// # Panics
    /// Panics if `points` is empty or any miss rate is outside `[0, 1]`.
    pub fn from_points(mut points: Vec<(u64, f64)>) -> MissRateCurve {
        assert!(!points.is_empty(), "MRC needs at least one point");
        for &(c, m) in &points {
            assert!(
                (0.0..=1.0).contains(&m) && m.is_finite(),
                "miss rate {m} at capacity {c} out of [0,1]"
            );
        }
        points.sort_by_key(|&(c, _)| c);
        points.dedup_by_key(|&mut (c, _)| c);
        MissRateCurve { points }
    }

    /// A constant curve (capacity-insensitive workload, e.g. a pure-compute
    /// kernel whose few misses are all compulsory).
    pub fn constant(miss_rate: f64) -> MissRateCurve {
        MissRateCurve::from_points(vec![(1, miss_rate)])
    }

    /// The sampled points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Miss rate at an allocated capacity of `bytes`, by log-linear
    /// interpolation with clamping.
    pub fn miss_rate(&self, bytes: u64) -> f64 {
        let pts = &self.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if bytes >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the bracketing segment.
        let idx = pts.partition_point(|&(c, _)| c <= bytes);
        let (c0, m0) = pts[idx - 1];
        let (c1, m1) = pts[idx];
        if c0 == c1 {
            return m1;
        }
        let t = ((bytes as f64).ln() - (c0 as f64).ln()) / ((c1 as f64).ln() - (c0 as f64).ln());
        m0 + t * (m1 - m0)
    }

    /// The smallest sampled capacity at which the miss rate first drops to
    /// within `epsilon` of its minimum — a practical "working set size".
    pub fn working_set_bytes(&self, epsilon: f64) -> u64 {
        let min_mr = self
            .points
            .iter()
            .map(|&(_, m)| m)
            .fold(f64::INFINITY, f64::min);
        self.points
            .iter()
            .find(|&&(_, m)| m <= min_mr + epsilon)
            .map(|&(c, _)| c)
            .unwrap_or(self.points[self.points.len() - 1].0)
    }

    /// True if the curve never increases with capacity (LRU stack property;
    /// synthetic curves should satisfy this).
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }
}

/// A [`MissRateCurve`] prepared for repeated probing: the curve plus
/// `ln(capacity)` of every point, so a probe computes only `ln(bytes)`.
///
/// [`MissRateCurve::miss_rate`] evaluates
/// `(ln(bytes) − ln(c0)) / (ln(c1) − ln(c0))` with the two point
/// logarithms recomputed on every call; the table holds exactly those
/// values, so the prepared probe applies the same operations to the same
/// operands and returns the same bits. The table lives here rather than
/// in the curve so the serialized form of `MissRateCurve` stays as it is.
#[derive(Clone, Debug)]
pub struct PreparedMrc {
    curve: MissRateCurve,
    /// `ln(capacity)` of each point, indexed like `curve.points`.
    ln_cap: Vec<f64>,
}

impl PreparedMrc {
    /// Prepare `curve` for probing.
    pub fn new(curve: MissRateCurve) -> PreparedMrc {
        let ln_cap = curve.points.iter().map(|&(c, _)| (c as f64).ln()).collect();
        PreparedMrc { curve, ln_cap }
    }

    /// The underlying curve.
    pub fn curve(&self) -> &MissRateCurve {
        &self.curve
    }

    /// [`MissRateCurve::miss_rate`], seeded with the bracketing segment a
    /// previous probe found.
    ///
    /// `hint` is the upper index of the last bracketing segment (what
    /// `partition_point` returned last time). When the query still falls
    /// in that segment — the common case for a damped fixed point, where
    /// successive occupancies move by ever-smaller steps — the binary
    /// search is skipped. A stale or out-of-range hint falls back to the
    /// full search, so the result is *always* bit-identical to
    /// `miss_rate`: the hint validity test
    /// (`points[hint-1].0 <= bytes < points[hint].0`) is exactly the
    /// `partition_point` postcondition on a strictly-increasing capacity
    /// axis (duplicates are deduped at construction), hence both paths
    /// select the same segment and evaluate the same interpolation.
    /// `hint` is updated to the segment actually used.
    pub fn miss_rate_hinted(&self, bytes: u64, hint: &mut usize) -> f64 {
        let pts = &self.curve.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if bytes >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let mut idx = *hint;
        if !(idx >= 1 && idx < pts.len() && pts[idx - 1].0 <= bytes && bytes < pts[idx].0) {
            idx = pts.partition_point(|&(c, _)| c <= bytes);
        }
        *hint = idx;
        let (m0, m1) = (pts[idx - 1].1, pts[idx].1);
        let (l0, l1) = (self.ln_cap[idx - 1], self.ln_cap[idx]);
        let t = ((bytes as f64).ln() - l0) / (l1 - l0);
        m0 + t * (m1 - m0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MissRateCurve {
        MissRateCurve::from_points(vec![
            (1 << 10, 0.80),
            (1 << 14, 0.40),
            (1 << 20, 0.05),
            (1 << 24, 0.01),
        ])
    }

    #[test]
    fn clamps_outside_range() {
        let mrc = sample();
        assert_eq!(mrc.miss_rate(1), 0.80);
        assert_eq!(mrc.miss_rate(u64::MAX), 0.01);
    }

    #[test]
    fn interpolates_at_sample_points_exactly() {
        let mrc = sample();
        assert!((mrc.miss_rate(1 << 14) - 0.40).abs() < 1e-12);
        assert!((mrc.miss_rate(1 << 20) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn log_interpolation_midpoint() {
        let mrc = MissRateCurve::from_points(vec![(1 << 10, 0.8), (1 << 14, 0.4)]);
        // Log-midpoint of 2^10 and 2^14 is 2^12.
        assert!((mrc.miss_rate(1 << 12) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_monotone_between_points() {
        let mrc = sample();
        let mut prev = f64::INFINITY;
        for exp in 8..26 {
            let mr = mrc.miss_rate(1u64 << exp);
            assert!(mr <= prev + 1e-12, "at 2^{exp}");
            prev = mr;
        }
        assert!(mrc.is_monotone());
    }

    #[test]
    fn constant_curve() {
        let mrc = MissRateCurve::constant(0.002);
        assert_eq!(mrc.miss_rate(0), 0.002);
        assert_eq!(mrc.miss_rate(1 << 30), 0.002);
    }

    #[test]
    fn working_set_detection() {
        let mrc = sample();
        // Within 0.05 of min (0.01) first happens at 1 MiB (0.05).
        assert_eq!(mrc.working_set_bytes(0.05), 1 << 20);
        // Exact min only at 16 MiB.
        assert_eq!(mrc.working_set_bytes(0.0), 1 << 24);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_miss_rate() {
        MissRateCurve::from_points(vec![(1, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty() {
        MissRateCurve::from_points(vec![]);
    }

    #[test]
    fn duplicate_capacities_deduped() {
        let mrc = MissRateCurve::from_points(vec![(100, 0.5), (100, 0.4), (200, 0.2)]);
        assert_eq!(mrc.points().len(), 2);
    }
}
