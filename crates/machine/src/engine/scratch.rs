//! Reusable per-run buffers for the segment solver.

use super::GroupRef;

/// Reusable per-run buffers for the segment solver, in struct-of-arrays
/// form: every quantity the fixed-point loop touches is a contiguous
/// `f64` (or `usize`) slice indexed by workload group. Per-instance state
/// collapses to per-group state because the instances of a group always
/// hold bit-equal occupancies (see [`coloc_cachesim::occupancy_step_rates`]).
/// Built once per run; the hot loop allocates nothing. Miss-rate curves
/// are *not* stored here — stages read them straight from the per-run
/// [`super::SegmentEnv::mrcs`] table via each group's current phase, so a
/// phase change costs an index update instead of re-cloning curves.
pub(crate) struct RunScratch {
    /// Instances per group: the multiplicities the occupancy step weighs
    /// each group's entry by.
    pub(crate) counts: Vec<usize>,
    /// LLC occupancy of each of a group's instances, bytes; refilled to
    /// the equal split at the start of each segment.
    pub(crate) occ: Vec<f64>,
    /// Per-instance insertion rate of each group for the occupancy step
    /// (access rate × miss rate at the current share).
    pub(crate) ins: Vec<f64>,
    /// Per-group incremental-MRC cursor: the bracketing-segment index the
    /// last probe used, fed back to
    /// [`coloc_cachesim::PreparedMrc::miss_rate_hinted`]. Only ever a
    /// hint — a stale cursor re-probes, it never changes a result.
    pub(crate) mrc_hint: Vec<usize>,
    /// Current phase index and end boundary per group.
    pub(crate) phase_info: Vec<(usize, f64)>,
    /// Occupancy byte count each group's `miss_rate` was last probed at
    /// in the current solve (`None` until the first probe; reset per
    /// segment, since the phase — and so the curve — may change). The
    /// probe is a pure function of the byte count, so an unchanged count
    /// reuses `miss_rate` instead of probing again.
    pub(crate) probed_bytes: Vec<Option<u64>>,
    /// Bit patterns of the solver's carried state `(cpi, occ, miss_rate)`
    /// per group at iteration `cycle_mark` of the current solve: the
    /// checkpoint the limit-cycle detector compares against.
    pub(crate) cycle_state: Vec<[u64; 3]>,
    /// Solver iteration the `cycle_state` checkpoint was taken after
    /// (0 = none yet).
    pub(crate) cycle_mark: u64,
    /// Per-group stationary rates for the segment being solved.
    pub(crate) ips: Vec<f64>,
    pub(crate) miss_rate: Vec<f64>,
    pub(crate) access_rate: Vec<f64>,
    /// Per-group effective frequency for the current segment: the chip's
    /// P-state frequency times the group's clock ratio (per-core DVFS).
    /// Filled by `PStateStage`; `freq_hz × 1.0` is bit-identical to
    /// `freq_hz`, so default schedules reproduce the lockstep numerics.
    pub(crate) freq: Vec<f64>,
}

impl RunScratch {
    pub(crate) fn new(workload: &[GroupRef<'_>]) -> RunScratch {
        let n_groups = workload.len();
        RunScratch {
            counts: workload.iter().map(|g| g.count).collect(),
            occ: vec![0.0; n_groups],
            ins: vec![0.0; n_groups],
            mrc_hint: vec![0; n_groups],
            phase_info: vec![(0, 0.0); n_groups],
            probed_bytes: vec![None; n_groups],
            cycle_state: vec![[0; 3]; n_groups],
            cycle_mark: 0,
            ips: vec![0.0; n_groups],
            miss_rate: vec![0.0; n_groups],
            access_rate: vec![0.0; n_groups],
            freq: vec![0.0; n_groups],
        }
    }
}
