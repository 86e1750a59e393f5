//! Seeded input generators. The same seed always gives the same inputs;
//! the program under test only ever sees what these produce.

use coloc_ml::rng::{derive_seed, splitmix64};
use coloc_model::Scenario;
use std::collections::HashSet;

/// A small deterministic generator (SplitMix64 stream).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What a generated scenario may contain on one machine.
#[derive(Clone, Debug)]
pub struct Space {
    pub cores: usize,
    pub pstates: usize,
    /// Every suite application (targets and heterogeneous co-runners).
    pub apps: Vec<String>,
    /// The paper's four class-representative co-runners.
    pub reps: Vec<String>,
}

impl Space {
    pub fn for_machine(spec: &coloc_machine::MachineSpec) -> Space {
        Space {
            cores: spec.cores,
            pstates: spec.num_pstates(),
            apps: coloc_workloads::standard()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            reps: coloc_workloads::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
        }
    }

    /// The paper's plan shape: one class representative, `1..cores`
    /// copies, any target and P-state.
    pub fn paper(&self, rng: &mut Rng) -> Scenario {
        Scenario::homogeneous(
            self.apps[rng.below(self.apps.len())].clone(),
            self.reps[rng.below(self.reps.len())].clone(),
            1 + rng.below(self.cores - 1),
            rng.below(self.pstates),
        )
    }

    /// A heterogeneous mix: 1–3 groups of distinct suite applications
    /// with positive counts summing to at most `cores − 1`. Groups are
    /// listed in name order, so distinct scenarios are physically
    /// distinct mixes.
    pub fn mix(&self, rng: &mut Rng) -> Scenario {
        let max_groups = 3.min(self.cores - 1);
        let groups = 1 + rng.below(max_groups);
        let total = groups + rng.below(self.cores - groups);
        let mut names: Vec<String> = Vec::with_capacity(groups);
        while names.len() < groups {
            let n = &self.apps[rng.below(self.apps.len())];
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        names.sort();
        // Split `total` into `groups` positive parts.
        let mut counts = vec![1usize; groups];
        for _ in groups..total {
            counts[rng.below(groups)] += 1;
        }
        Scenario {
            target: self.apps[rng.below(self.apps.len())].clone(),
            co_located: names.into_iter().zip(counts).collect(),
            pstate: rng.below(self.pstates),
        }
    }
}

/// Share of sweep scenarios drawn in the paper's plan shape; the rest
/// are heterogeneous mixes.
pub const SWEEP_PAPER_SHARE: f64 = 0.5;

/// `n` distinct scenarios on one machine, about [`SWEEP_PAPER_SHARE`]
/// in the paper's shape and the rest heterogeneous mixes. `exclude`
/// holds scenarios that must not reappear (and receives the new ones).
pub fn distinct_scenarios(
    space: &Space,
    rng: &mut Rng,
    n: usize,
    exclude: &mut HashSet<Scenario>,
) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(n);
    let mut misses = 0usize;
    while out.len() < n {
        // After many collisions in a row the (small) paper-shape space is
        // exhausted; the mix space is not.
        let sc = if rng.unit() < SWEEP_PAPER_SHARE && misses < 64 {
            space.paper(rng)
        } else {
            space.mix(rng)
        };
        if exclude.insert(sc.clone()) {
            out.push(sc);
            misses = 0;
        } else {
            misses += 1;
        }
    }
    out
}

/// One sweep batch per machine: `per_machine` distinct scenarios each,
/// seeded by `(seed, batch, machine index)`.
pub fn sweep_batch(
    seed: u64,
    batch: u64,
    spaces: &[Space],
    per_machine: usize,
) -> Vec<Vec<Scenario>> {
    spaces
        .iter()
        .enumerate()
        .map(|(m, space)| {
            let mut rng = Rng::new(derive_seed(derive_seed(seed, batch), m as u64));
            distinct_scenarios(space, &mut rng, per_machine, &mut HashSet::new())
        })
        .collect()
}

/// The three serve traffic classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Class {
    /// `predict` on any scenario: model evaluation, no engine.
    Predict,
    /// `measure` on a scenario warmed into the server's run cache
    /// during set-up: a cache hit.
    Warm,
    /// `measure` on a heterogeneous mix never sent before: an engine
    /// run.
    Novel,
}

/// Declared class shares, per block of [`BLOCK`] requests.
pub const CLASS_SHARES: [(Class, usize); 3] =
    [(Class::Predict, 4), (Class::Warm, 4), (Class::Novel, 2)];
/// Requests per class-share block.
pub const BLOCK: usize = 10;

/// One scheduled query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Offset from the phase start at which the query is due, ns.
    pub due_ns: u64,
    pub class: Class,
    /// Machine index into the served machines.
    pub machine: usize,
    pub scenario: Scenario,
}

/// Generates open-loop query schedules. Novel scenarios are never
/// repeated across every schedule one generator makes, and never collide
/// with the warm pool.
pub struct QueryGen {
    rng: Rng,
    spaces: Vec<Space>,
    /// Warm pool per machine.
    pub pool: Vec<Vec<Scenario>>,
    seen: Vec<HashSet<Scenario>>,
}

impl QueryGen {
    /// A generator over `spaces`, with a warm pool of `pool_size`
    /// distinct scenarios per machine.
    pub fn new(seed: u64, spaces: Vec<Space>, pool_size: usize) -> QueryGen {
        let mut rng = Rng::new(derive_seed(seed, 0x5e7e));
        let mut seen: Vec<HashSet<Scenario>> = vec![HashSet::new(); spaces.len()];
        let pool = spaces
            .iter()
            .zip(seen.iter_mut())
            .map(|(space, seen)| distinct_scenarios(space, &mut rng, pool_size, seen))
            .collect();
        QueryGen {
            rng,
            spaces,
            pool,
            seen,
        }
    }

    /// `n` queries arriving as a Poisson process at `rate_qps`, with
    /// classes in the declared shares (shuffled within each block).
    pub fn schedule(&mut self, rate_qps: f64, n: usize) -> Vec<Query> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        let mut block: Vec<Class> = Vec::with_capacity(BLOCK);
        for _ in 0..n {
            if block.is_empty() {
                for &(c, k) in &CLASS_SHARES {
                    block.extend(std::iter::repeat_n(c, k));
                }
                for i in (1..block.len()).rev() {
                    let j = self.rng.below(i + 1);
                    block.swap(i, j);
                }
            }
            let class = block.pop().expect("block refilled above");
            t += -(1.0 - self.rng.unit()).ln() / rate_qps;
            let machine = self.rng.below(self.spaces.len());
            let scenario = match class {
                Class::Predict => self.spaces[machine].mix(&mut self.rng),
                Class::Warm => {
                    let pool = &self.pool[machine];
                    pool[self.rng.below(pool.len())].clone()
                }
                Class::Novel => loop {
                    let sc = self.spaces[machine].mix(&mut self.rng);
                    if self.seen[machine].insert(sc.clone()) {
                        break sc;
                    }
                },
            };
            out.push(Query {
                due_ns: (t * 1e9) as u64,
                class,
                machine,
                scenario,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_machine::presets;

    fn spaces() -> Vec<Space> {
        vec![
            Space::for_machine(&presets::xeon_e5649()),
            Space::for_machine(&presets::xeon_e5_2697v2()),
        ]
    }

    #[test]
    fn same_seed_same_sweep_scenarios() {
        let a = sweep_batch(7, 3, &spaces(), 400);
        let b = sweep_batch(7, 3, &spaces(), 400);
        assert_eq!(a, b);
        assert_ne!(a, sweep_batch(8, 3, &spaces(), 400));
    }

    #[test]
    fn sweep_scenarios_are_distinct_and_cover_the_shapes() {
        let sp = spaces();
        for (space, batch) in sp.iter().zip(sweep_batch(11, 0, &sp, 1000)) {
            let set: HashSet<&Scenario> = batch.iter().collect();
            assert_eq!(set.len(), batch.len(), "repeated scenario");
            let paper = batch
                .iter()
                .filter(|s| s.co_located.len() == 1 && space.reps.contains(&s.co_located[0].0))
                .count();
            let share = paper as f64 / batch.len() as f64;
            assert!((0.4..0.75).contains(&share), "paper-shape share {share}");
            for s in &batch {
                assert!((1..=3).contains(&s.co_located.len()));
                let co = s.num_co_located();
                assert!(co >= 1 && co < space.cores, "{s} does not fit");
                assert!(s.pstate < space.pstates);
            }
            for p in 0..space.pstates {
                assert!(batch.iter().any(|s| s.pstate == p), "P-state {p} missing");
            }
            for c in 1..space.cores {
                assert!(
                    batch.iter().any(|s| s.num_co_located() == c),
                    "{c} co-runners missing"
                );
            }
            for g in 1..=3 {
                assert!(
                    batch.iter().any(|s| s.co_located.len() == g),
                    "{g} groups missing"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_query_schedule() {
        let mut a = QueryGen::new(5, spaces(), 64);
        let mut b = QueryGen::new(5, spaces(), 64);
        let (qa, qb) = (a.schedule(2000.0, 500), b.schedule(2000.0, 500));
        assert_eq!(a.pool, b.pool);
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(
                (x.due_ns, x.class, x.machine),
                (y.due_ns, y.class, y.machine)
            );
            assert_eq!(x.scenario, y.scenario);
        }
        assert!(qa.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn serve_class_shares_are_as_declared() {
        let mut g = QueryGen::new(9, spaces(), 64);
        let qs = g.schedule(1000.0, 10 * BLOCK);
        for &(class, per_block) in &CLASS_SHARES {
            let n = qs.iter().filter(|q| q.class == class).count();
            assert_eq!(n, per_block * 10, "{class:?}");
        }
        // Novel queries never repeat and never hit the warm pool.
        let more = g.schedule(1000.0, 10 * BLOCK);
        let mut novel = HashSet::new();
        for q in qs.iter().chain(&more).filter(|q| q.class == Class::Novel) {
            assert!(
                novel.insert((q.machine, q.scenario.clone())),
                "novel repeated"
            );
            assert!(!g.pool[q.machine].contains(&q.scenario));
        }
        for q in qs.iter().filter(|q| q.class == Class::Warm) {
            assert!(g.pool[q.machine].contains(&q.scenario));
        }
    }
}
