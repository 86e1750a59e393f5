//! Scaled Conjugate Gradient optimization (Møller, 1993).
//!
//! The paper (§III-D) trains its neural networks with "a scaled conjugate
//! gradient numerical method". SCG is a batch second-order method that
//! combines conjugate-gradient search directions with a Levenberg–Marquardt
//! style scaling parameter λ, avoiding the expensive line search of classic
//! CG. This implementation follows Møller's algorithm 1:1, with a finite
//! Hessian-vector product approximated by a forward difference of
//! gradients.
//!
//! The optimizer is generic over any objective that returns its value and
//! gradient from one evaluation, so it is tested here against analytic
//! functions independently of the neural network that uses it. [`minimize`]
//! evaluates each point it visits exactly once — the start, the σ-probe
//! of a successful iteration, and each trial step — so a run of `k`
//! iterations costs at most `2k + 1` evaluations.

/// An objective function for [`minimize`]: smooth, bounded below.
pub trait Objective {
    /// Number of parameters.
    fn dim(&self) -> usize;
    /// Objective value at `w`; the gradient at `w` is written into `grad`
    /// (length `dim()`) by the same pass.
    fn eval(&self, w: &[f64], grad: &mut [f64]) -> f64;
}

/// Configuration for the SCG run.
#[derive(Clone, Debug)]
pub struct ScgConfig {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop when the gradient ∞-norm falls below this.
    pub grad_tol: f64,
    /// Stop when the objective improves by less than this (relative) over
    /// `patience` consecutive successful steps.
    pub value_tol: f64,
    /// Consecutive small-improvement steps tolerated before stopping.
    pub patience: usize,
}

impl Default for ScgConfig {
    fn default() -> Self {
        ScgConfig {
            max_iters: 500,
            grad_tol: 1e-6,
            value_tol: 1e-9,
            patience: 12,
        }
    }
}

/// Outcome of an SCG run.
#[derive(Clone, Debug)]
pub struct ScgReport {
    /// Final objective value.
    pub value: f64,
    /// Final gradient ∞-norm.
    pub grad_norm: f64,
    /// Iterations consumed.
    pub iterations: usize,
    /// True if a tolerance (rather than the iteration cap) stopped the run.
    pub converged: bool,
    /// True if the run ended in a non-finite objective or gradient — the
    /// optimizer state is poisoned and the weights must not be used.
    pub diverged: bool,
}

/// Minimize `obj` starting from `w` (updated in place). Returns a report;
/// never fails — on pathological objectives it simply stops at the cap.
pub fn minimize(obj: &impl Objective, w: &mut [f64], cfg: &ScgConfig) -> ScgReport {
    let n = obj.dim();
    assert_eq!(w.len(), n, "parameter vector has wrong length");
    if n == 0 {
        let value = obj.eval(w, &mut []);
        return ScgReport {
            value,
            grad_norm: 0.0,
            iterations: 0,
            converged: value.is_finite(),
            diverged: !value.is_finite(),
        };
    }

    const SIGMA0: f64 = 1e-4;
    let mut lambda = 1e-6f64;
    let mut lambda_bar = 0.0f64;
    let mut success = true;

    let mut grad = vec![0.0; n];
    let mut fw = obj.eval(w, &mut grad);
    // A non-finite objective at the starting point cannot recover (every
    // comparison against it is false); bail out as diverged immediately.
    if !fw.is_finite() || grad.iter().any(|g| !g.is_finite()) {
        return ScgReport {
            value: fw,
            grad_norm: grad.iter().fold(0.0f64, |m, g| m.max(g.abs())),
            iterations: 0,
            converged: false,
            diverged: true,
        };
    }
    let mut r: Vec<f64> = grad.iter().map(|g| -g).collect();
    let mut p = r.clone();
    let mut delta = 0.0f64;

    let mut grad_plus = vec![0.0; n];
    let mut grad_try = vec![0.0; n];
    let mut w_try = vec![0.0; n];
    let mut small_steps = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;

    for k in 1..=cfg.max_iters {
        iterations = k;
        let p_norm2: f64 = p.iter().map(|x| x * x).sum();
        let p_norm = p_norm2.sqrt();
        if p_norm == 0.0 {
            converged = true;
            break;
        }

        if success {
            // Second-order information: s ≈ H p via forward difference.
            let sigma = SIGMA0 / p_norm;
            for i in 0..n {
                w_try[i] = w[i] + sigma * p[i];
            }
            obj.eval(&w_try, &mut grad_plus);
            // delta = pᵀ H p approximated by pᵀ (g(w+σp) − g(w)) / σ
            delta = p
                .iter()
                .zip(grad_plus.iter().zip(&grad))
                .map(|(pi, (gp, g))| pi * (gp - g))
                .sum::<f64>()
                / sigma;
        }

        // Scale: delta += (λ − λ̄)·|p|²
        delta += (lambda - lambda_bar) * p_norm2;

        // Make the Hessian approximation positive definite.
        if delta <= 0.0 {
            lambda_bar = 2.0 * (lambda - delta / p_norm2);
            delta = -delta + lambda * p_norm2;
            lambda = lambda_bar;
        }

        // Step size.
        let mu: f64 = p.iter().zip(&r).map(|(pi, ri)| pi * ri).sum();
        let alpha = mu / delta;

        // Comparison parameter.
        for i in 0..n {
            w_try[i] = w[i] + alpha * p[i];
        }
        let f_try = obj.eval(&w_try, &mut grad_try);
        let big_delta = 2.0 * delta * (fw - f_try) / (mu * mu);

        if big_delta >= 0.0 && f_try.is_finite() {
            // Successful step.
            let reduction = fw - f_try;
            w.copy_from_slice(&w_try);
            fw = f_try;
            std::mem::swap(&mut grad, &mut grad_try);
            let r_new: Vec<f64> = grad.iter().map(|g| -g).collect();
            lambda_bar = 0.0;
            success = true;

            if k % n == 0 {
                // Restart with steepest descent.
                p.copy_from_slice(&r_new);
            } else {
                let r_new_norm2: f64 = r_new.iter().map(|x| x * x).sum();
                let r_dot: f64 = r_new.iter().zip(&r).map(|(a, b)| a * b).sum();
                let beta = (r_new_norm2 - r_dot) / mu;
                for i in 0..n {
                    p[i] = r_new[i] + beta * p[i];
                }
            }
            r = r_new;

            if big_delta >= 0.75 {
                lambda *= 0.25;
            }

            // Convergence bookkeeping.
            let gnorm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            if gnorm < cfg.grad_tol {
                converged = true;
                break;
            }
            if reduction < cfg.value_tol * fw.abs().max(1.0) {
                small_steps += 1;
                if small_steps >= cfg.patience {
                    converged = true;
                    break;
                }
            } else {
                small_steps = 0;
            }
        } else {
            // Unsuccessful step: raise λ and retry the direction.
            lambda_bar = lambda;
            success = false;
        }

        if big_delta < 0.25 {
            lambda += delta * (1.0 - big_delta) / p_norm2;
        }
        // Guard λ from exploding into uselessness.
        lambda = lambda.min(1e12);
    }

    let grad_norm = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    ScgReport {
        value: fw,
        grad_norm,
        iterations,
        converged,
        diverged: !fw.is_finite() || !grad_norm.is_finite(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(w) = Σ cᵢ (wᵢ − tᵢ)², a strictly convex quadratic.
    struct Quadratic {
        target: Vec<f64>,
        curv: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            self.target.len()
        }
        fn eval(&self, w: &[f64], grad: &mut [f64]) -> f64 {
            for i in 0..w.len() {
                grad[i] = 2.0 * self.curv[i] * (w[i] - self.target[i]);
            }
            w.iter()
                .zip(self.target.iter().zip(&self.curv))
                .map(|(wi, (t, c))| c * (wi - t).powi(2))
                .sum()
        }
    }

    /// The Rosenbrock banana — the classic nonconvex optimizer stress test.
    struct Rosenbrock;

    impl Objective for Rosenbrock {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&self, w: &[f64], grad: &mut [f64]) -> f64 {
            grad[0] = -2.0 * (1.0 - w[0]) - 400.0 * w[0] * (w[1] - w[0] * w[0]);
            grad[1] = 200.0 * (w[1] - w[0] * w[0]);
            (1.0 - w[0]).powi(2) + 100.0 * (w[1] - w[0] * w[0]).powi(2)
        }
    }

    #[test]
    fn solves_well_conditioned_quadratic() {
        let obj = Quadratic {
            target: vec![1.0, -2.0, 3.0],
            curv: vec![1.0, 2.0, 0.5],
        };
        let mut w = vec![0.0; 3];
        let report = minimize(&obj, &mut w, &ScgConfig::default());
        assert!(report.converged, "{report:?}");
        for (wi, ti) in w.iter().zip(&obj.target) {
            assert!((wi - ti).abs() < 1e-4, "w={w:?}");
        }
    }

    #[test]
    fn solves_badly_conditioned_quadratic() {
        // Condition number 1e6.
        let obj = Quadratic {
            target: vec![5.0, -5.0],
            curv: vec![1e-3, 1e3],
        };
        let mut w = vec![100.0, 100.0];
        let report = minimize(
            &obj,
            &mut w,
            &ScgConfig {
                max_iters: 2000,
                grad_tol: 1e-9,
                ..Default::default()
            },
        );
        assert!(report.value < 1e-6, "{report:?} w={w:?}");
    }

    #[test]
    fn makes_progress_on_rosenbrock() {
        let mut w = vec![-1.2, 1.0];
        let start = Rosenbrock.eval(&w, &mut [0.0; 2]);
        let report = minimize(
            &Rosenbrock,
            &mut w,
            &ScgConfig {
                max_iters: 5000,
                value_tol: 1e-14,
                patience: 200,
                ..Default::default()
            },
        );
        assert!(report.value < start * 1e-3, "{report:?} w={w:?}");
    }

    #[test]
    fn already_optimal_start_converges_immediately() {
        let obj = Quadratic {
            target: vec![2.0],
            curv: vec![1.0],
        };
        let mut w = vec![2.0];
        let report = minimize(&obj, &mut w, &ScgConfig::default());
        assert!(report.converged);
        assert!(report.iterations <= 2);
    }

    #[test]
    fn zero_dim_is_trivial() {
        let obj = Quadratic {
            target: vec![],
            curv: vec![],
        };
        let mut w = vec![];
        let report = minimize(&obj, &mut w, &ScgConfig::default());
        assert!(report.converged);
    }

    /// An objective poisoned with NaN everywhere — a model trained on
    /// fault-injected data whose loss is non-finite from the start.
    struct Poisoned;

    impl Objective for Poisoned {
        fn dim(&self) -> usize {
            2
        }
        fn eval(&self, _w: &[f64], grad: &mut [f64]) -> f64 {
            grad.fill(f64::NAN);
            f64::NAN
        }
    }

    #[test]
    fn non_finite_objective_reports_divergence_immediately() {
        let mut w = vec![0.5, -0.5];
        let report = minimize(&Poisoned, &mut w, &ScgConfig::default());
        assert!(report.diverged);
        assert!(!report.converged);
        assert_eq!(report.iterations, 0, "must not spin on a poisoned loss");
        // Weights are untouched, so a caller can restart from a new seed.
        assert_eq!(w, vec![0.5, -0.5]);
    }

    #[test]
    fn healthy_runs_never_report_divergence() {
        let obj = Quadratic {
            target: vec![1.0, -2.0],
            curv: vec![1.0, 2.0],
        };
        let mut w = vec![0.0; 2];
        let report = minimize(&obj, &mut w, &ScgConfig::default());
        assert!(!report.diverged);
    }

    #[test]
    fn respects_iteration_cap() {
        let mut w = vec![-1.2, 1.0];
        let report = minimize(
            &Rosenbrock,
            &mut w,
            &ScgConfig {
                max_iters: 3,
                value_tol: 0.0,
                patience: usize::MAX,
                grad_tol: 0.0,
            },
        );
        assert_eq!(report.iterations, 3);
        assert!(!report.converged);
    }

    /// Counts the evaluations [`minimize`] makes of the wrapped objective.
    struct Counting<O> {
        inner: O,
        evals: std::cell::Cell<usize>,
    }

    impl<O: Objective> Objective for Counting<O> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn eval(&self, w: &[f64], grad: &mut [f64]) -> f64 {
            self.evals.set(self.evals.get() + 1);
            self.inner.eval(w, grad)
        }
    }

    fn assert_eval_budget<O: Objective>(inner: O, start: Vec<f64>, cfg: &ScgConfig) {
        let obj = Counting {
            inner,
            evals: std::cell::Cell::new(0),
        };
        let mut w = start;
        let report = minimize(&obj, &mut w, cfg);
        assert!(report.iterations > 0, "{report:?}");
        assert!(
            obj.evals.get() <= 2 * report.iterations + 1,
            "{} evaluations for {} iterations",
            obj.evals.get(),
            report.iterations
        );
    }

    #[test]
    fn each_point_is_evaluated_once() {
        let quadratic = Quadratic {
            target: vec![1.0, -2.0, 3.0],
            curv: vec![1.0, 2.0, 0.5],
        };
        assert_eval_budget(quadratic, vec![0.0; 3], &ScgConfig::default());
        let banana = ScgConfig {
            max_iters: 500,
            value_tol: 0.0,
            patience: usize::MAX,
            grad_tol: 0.0,
        };
        assert_eval_budget(Rosenbrock, vec![-1.2, 1.0], &banana);
    }

    /// The quadratic, except that its first trial step (the third
    /// evaluation: start, σ-probe, trial) reports a huge loss and a NaN
    /// gradient, so SCG must reject it.
    struct RejectFirstTrial {
        inner: Quadratic,
        evals: std::cell::Cell<usize>,
    }

    impl Objective for RejectFirstTrial {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn eval(&self, w: &[f64], grad: &mut [f64]) -> f64 {
            self.evals.set(self.evals.get() + 1);
            let value = self.inner.eval(w, grad);
            if self.evals.get() == 3 {
                grad.fill(f64::NAN);
                return 1e300;
            }
            value
        }
    }

    #[test]
    fn rejected_step_keeps_weights_and_gradient() {
        let obj = || RejectFirstTrial {
            inner: Quadratic {
                target: vec![1.0, -2.0],
                curv: vec![1.0, 2.0],
            },
            evals: std::cell::Cell::new(0),
        };
        let start = vec![0.0, 0.0];
        let mut start_grad = vec![0.0; 2];
        obj().inner.eval(&start, &mut start_grad);
        let start_norm = start_grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));

        let mut w = start.clone();
        let one = ScgConfig {
            max_iters: 1,
            ..Default::default()
        };
        let report = minimize(&obj(), &mut w, &one);
        assert_eq!(w, start, "a rejected step must not move the weights");
        assert_eq!(report.grad_norm.to_bits(), start_norm.to_bits());
        assert!(!report.diverged, "{report:?}");

        // Later iterations build on the kept gradient, not the rejected
        // trial's NaN one.
        let mut w = start.clone();
        let report = minimize(&obj(), &mut w, &ScgConfig::default());
        assert!(report.converged && !report.diverged, "{report:?}");
        assert!(
            (w[0] - 1.0).abs() < 1e-4 && (w[1] + 2.0).abs() < 1e-4,
            "{w:?}"
        );
    }
}
