//! The No-U-Turn Sampler (NUTS).
//!
//! This is the multinomial NUTS variant with dual-averaging step-size
//! adaptation and diagonal mass-matrix estimation during warmup — the
//! algorithm Stan, Pyro and NumPyro all use as their default and the one the
//! paper's evaluation runs on every backend.
//!
//! One sampler runs the algorithm: [`nuts_sample_mut`] runs one chain to
//! completion on one target instance, scoring one point per gradient
//! evaluation. Multi-chain runs are a placement question above this
//! module: `deepstan`'s `Session` runs each chain through this sampler,
//! back to back on however many threads it is given, and a chain's draws
//! depend only on its config (seed included), never on where it ran.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::target::{GradTarget, GradTargetMut};

/// NUTS configuration.
#[derive(Debug, Clone)]
pub struct NutsConfig {
    /// Number of warmup (adaptation) iterations, discarded from the output.
    pub warmup: usize,
    /// Number of post-warmup draws to keep.
    pub samples: usize,
    /// Maximum tree depth (Stan's default is 10).
    pub max_depth: usize,
    /// Target Metropolis acceptance statistic (Stan's default 0.8).
    pub target_accept: f64,
    /// Initial step size.
    pub init_step_size: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cooperative cancellation, polled once per iteration (never inside a
    /// gradient evaluation). The default token never cancels. A chain that
    /// observes cancellation stops before its next iteration, so the draws
    /// it has already produced are the bitwise prefix of an uncancelled
    /// same-seed run; a chain whose token fired before it started returns
    /// an empty cancelled result without evaluating the target.
    pub cancel: CancelToken,
}

impl Default for NutsConfig {
    fn default() -> Self {
        NutsConfig {
            warmup: 500,
            samples: 500,
            max_depth: 10,
            target_accept: 0.8,
            init_step_size: 0.1,
            seed: 0,
            cancel: CancelToken::new(),
        }
    }
}

/// The output of a NUTS run.
#[derive(Debug, Clone)]
pub struct NutsResult {
    /// Post-warmup draws on the unconstrained scale (one vector per draw).
    pub draws: Vec<Vec<f64>>,
    /// Number of divergent transitions after warmup.
    pub divergences: usize,
    /// Adapted step size.
    pub step_size: f64,
    /// Mean acceptance statistic after warmup.
    pub mean_accept: f64,
    /// Total number of log-density gradient evaluations.
    pub n_grad_evals: usize,
    /// True when the chain stopped early because its
    /// [`NutsConfig::cancel`] token fired; `draws` then holds the partial
    /// prefix completed before the cancellation point.
    pub cancelled: bool,
}

struct State {
    q: Vec<f64>,
    p: Vec<f64>,
    logp: f64,
    grad: Vec<f64>,
}

/// Per-chain telemetry accumulated in plain locals and flushed into the
/// global [`obs`] registry once at chain end — the leapfrog/gradient path
/// itself carries no instrumentation (the `obs` overhead contract), and
/// the flush is counters/gauges only (no timing), so it is always live.
///
/// Registry surface: `nuts.chains` / `nuts.leapfrogs` /
/// `nuts.divergences` counters, the `nuts.tree_depth` histogram (tree
/// doublings entered per iteration), and the `nuts.step_size` gauge (the
/// most recently finished chain's adapted step size).
struct ChainTelemetry {
    leapfrogs: u64,
    /// Iteration counts by tree depth entered; NUTS depths are single
    /// digits in practice and `max_depth` is bounded far below 64.
    depths: [u64; 64],
}

impl ChainTelemetry {
    fn new() -> Self {
        ChainTelemetry {
            leapfrogs: 0,
            depths: [0; 64],
        }
    }

    fn record_iteration(&mut self, depth_entered: usize, n_leapfrog: usize) {
        self.leapfrogs += n_leapfrog as u64;
        self.depths[depth_entered.min(63)] += 1;
    }

    fn flush(&self, divergences: usize, step_size: f64) {
        obs::counter("nuts.chains").inc();
        obs::counter("nuts.leapfrogs").add(self.leapfrogs);
        obs::counter("nuts.divergences").add(divergences as u64);
        obs::gauge("nuts.step_size").set(step_size);
        let hist = obs::histogram("nuts.tree_depth");
        for (depth, &n) in self.depths.iter().enumerate() {
            hist.record_n(depth as u64, n);
        }
    }
}

/// Dual-averaging step-size adaptation (Hoffman & Gelman 2014, Algorithm 5).
struct DualAveraging {
    mu: f64,
    log_eps: f64,
    log_eps_bar: f64,
    h_bar: f64,
    gamma: f64,
    t0: f64,
    kappa: f64,
    counter: usize,
}

impl DualAveraging {
    fn new(init_step: f64) -> Self {
        DualAveraging {
            mu: (10.0 * init_step).ln(),
            log_eps: init_step.ln(),
            log_eps_bar: 0.0,
            h_bar: 0.0,
            gamma: 0.05,
            t0: 10.0,
            kappa: 0.75,
            counter: 0,
        }
    }

    fn update(&mut self, accept_prob: f64, target: f64) {
        self.counter += 1;
        let m = self.counter as f64;
        let w = 1.0 / (m + self.t0);
        self.h_bar = (1.0 - w) * self.h_bar + w * (target - accept_prob);
        self.log_eps = self.mu - (m.sqrt() / self.gamma) * self.h_bar;
        let weight = m.powf(-self.kappa);
        self.log_eps_bar = weight * self.log_eps + (1.0 - weight) * self.log_eps_bar;
    }

    fn current(&self) -> f64 {
        self.log_eps.exp()
    }

    fn adapted(&self) -> f64 {
        self.log_eps_bar.exp()
    }
}

/// Runs NUTS on a [`GradTarget`] — any model exposing `(log p, ∇ log p)` on
/// the unconstrained scale. Stateful targets (e.g. workspace-backed models)
/// should use [`nuts_sample_mut`], which this function delegates to.
///
/// Constrained models should wrap their density with the appropriate
/// transform (as `gprob::GModel` does).
pub fn nuts_sample<T: GradTarget + ?Sized>(
    target: &T,
    init: Vec<f64>,
    config: &NutsConfig,
) -> NutsResult {
    let mut adapter = target;
    nuts_sample_mut(&mut adapter, init, config)
}

/// Evaluates the target with NaN-to-`-inf` sanitization, counting gradient
/// evaluations. The gradient lands in `grad` (zeroed on a NaN density).
fn eval_target<T: GradTargetMut + ?Sized>(
    target: &mut T,
    q: &[f64],
    grad: &mut [f64],
    count: &mut usize,
) -> f64 {
    *count += 1;
    let lp = target.logp_grad_into(q, grad);
    if lp.is_nan() {
        grad.fill(0.0);
        f64::NEG_INFINITY
    } else {
        lp
    }
}

/// Runs NUTS on a [`GradTargetMut`] — the buffer-reusing interface. Every
/// gradient evaluation writes into pre-allocated buffers, so a
/// workspace-backed target makes the whole chain allocation-free outside the
/// model evaluation itself. One target instance is one chain.
pub fn nuts_sample_mut<T: GradTargetMut + ?Sized>(
    target: &mut T,
    init: Vec<f64>,
    config: &NutsConfig,
) -> NutsResult {
    if config.cancel.is_cancelled() {
        return NutsResult {
            draws: Vec::new(),
            divergences: 0,
            step_size: config.init_step_size,
            mean_accept: 0.0,
            n_grad_evals: 0,
            cancelled: true,
        };
    }
    let dim = init.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_grad_evals = 0usize;

    let mut q = init;
    let mut grad = vec![0.0; dim];
    let mut logp = eval_target(target, &q, &mut grad, &mut n_grad_evals);

    // Diagonal inverse mass matrix (variances of q), estimated during warmup.
    let mut inv_mass = vec![1.0; dim];
    let mut welford_mean = vec![0.0; dim];
    let mut welford_m2 = vec![0.0; dim];
    let mut welford_n = 0usize;

    let mut da = DualAveraging::new(find_initial_step_size(
        target,
        &q,
        logp,
        &grad,
        config.init_step_size,
        &inv_mass,
        &mut rng,
        &mut n_grad_evals,
    ));

    let total = config.warmup + config.samples;
    let mut draws = Vec::with_capacity(config.samples);
    let mut telemetry = ChainTelemetry::new();
    let mut divergences = 0usize;
    let mut accept_sum = 0.0;
    let mut accept_count = 0usize;
    let mut step_size = da.current();
    let mut cancelled = false;

    for iter in 0..total {
        if config.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let warming_up = iter < config.warmup;

        // Sample momentum p ~ N(0, M) where M = diag(1 / inv_mass).
        let p: Vec<f64> = (0..dim)
            .map(|i| standard_normal(&mut rng) / inv_mass[i].sqrt())
            .collect();

        let joint0 = logp - kinetic(&p, &inv_mass);

        // Multinomial NUTS tree doubling.
        let mut state_minus = State {
            q: q.clone(),
            p: p.clone(),
            logp,
            grad: grad.clone(),
        };
        let mut state_plus = State {
            q: q.clone(),
            p,
            logp,
            grad: grad.clone(),
        };
        let mut q_new = q.clone();
        let mut logp_new = logp;
        let mut grad_new = grad.clone();
        let mut log_sum_weight = 0.0f64; // log weight of the initial point
        let mut sum_accept = 0.0;
        let mut n_leapfrog = 0usize;
        let mut diverged = false;
        let mut depth_entered = 0usize;

        for depth in 0..config.max_depth {
            depth_entered = depth + 1;
            let go_right = rng.gen::<bool>();
            let mut log_sum_weight_subtree = f64::NEG_INFINITY;
            let mut q_prop = q_new.clone();
            let mut logp_prop = logp_new;
            let mut grad_prop = grad_new.clone();

            let ok = {
                let edge = if go_right {
                    &mut state_plus
                } else {
                    &mut state_minus
                };
                build_tree(
                    target,
                    edge,
                    go_right,
                    depth,
                    step_size,
                    joint0,
                    &inv_mass,
                    &mut log_sum_weight_subtree,
                    &mut q_prop,
                    &mut logp_prop,
                    &mut grad_prop,
                    &mut sum_accept,
                    &mut n_leapfrog,
                    &mut rng,
                    &mut n_grad_evals,
                )
            };

            if !ok {
                diverged = true;
                break;
            }

            // Multinomial sampling across the subtree.
            if log_sum_weight_subtree > log_sum_weight {
                q_new = q_prop;
                logp_new = logp_prop;
                grad_new = grad_prop;
            } else {
                let accept_prob = (log_sum_weight_subtree - log_sum_weight).exp();
                if rng.gen::<f64>() < accept_prob {
                    q_new = q_prop;
                    logp_new = logp_prop;
                    grad_new = grad_prop;
                }
            }
            log_sum_weight = log_add_exp(log_sum_weight, log_sum_weight_subtree);

            // U-turn criterion across the whole trajectory.
            if uturn(&state_minus, &state_plus, &inv_mass) {
                break;
            }
        }

        q = q_new;
        logp = logp_new;
        grad = grad_new;
        telemetry.record_iteration(depth_entered, n_leapfrog);

        let accept_stat = if n_leapfrog > 0 {
            sum_accept / n_leapfrog as f64
        } else {
            0.0
        };

        if warming_up {
            da.update(accept_stat, config.target_accept);
            step_size = da.current();
            // Collect draws for the mass matrix during the middle window.
            if iter > config.warmup / 4 && iter < 3 * config.warmup / 4 {
                welford_n += 1;
                for i in 0..dim {
                    let delta = q[i] - welford_mean[i];
                    welford_mean[i] += delta / welford_n as f64;
                    welford_m2[i] += delta * (q[i] - welford_mean[i]);
                }
            }
            if iter == 3 * config.warmup / 4 && welford_n > 4 {
                for i in 0..dim {
                    let var = welford_m2[i] / (welford_n - 1) as f64;
                    inv_mass[i] = var.max(1e-10);
                }
                // Re-initialize step-size adaptation for the new metric.
                da = DualAveraging::new(step_size);
            }
            if iter + 1 == config.warmup {
                // Freeze the step size at its dual-averaged value for sampling.
                step_size = da.adapted().max(1e-8);
            }
        } else {
            if diverged {
                divergences += 1;
            }
            accept_sum += accept_stat;
            accept_count += 1;
            draws.push(q.clone());
        }
    }

    telemetry.flush(divergences, step_size);
    NutsResult {
        draws,
        divergences,
        step_size,
        mean_accept: if accept_count > 0 {
            accept_sum / accept_count as f64
        } else {
            0.0
        },
        n_grad_evals,
        cancelled,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_tree<T: GradTargetMut + ?Sized>(
    target: &mut T,
    edge: &mut State,
    go_right: bool,
    depth: usize,
    step_size: f64,
    joint0: f64,
    inv_mass: &[f64],
    log_sum_weight: &mut f64,
    q_prop: &mut [f64],
    logp_prop: &mut f64,
    grad_prop: &mut [f64],
    sum_accept: &mut f64,
    n_leapfrog: &mut usize,
    rng: &mut StdRng,
    n_grad_evals: &mut usize,
) -> bool {
    let n_steps = 1usize << depth;
    let dir = if go_right { 1.0 } else { -1.0 };
    let mut n_kept = 0.0f64;
    for _ in 0..n_steps {
        leapfrog(target, edge, dir * step_size, inv_mass, n_grad_evals);
        *n_leapfrog += 1;
        let joint = edge.logp - kinetic(&edge.p, inv_mass);
        let delta = joint - joint0;
        if delta < -1000.0 || !joint.is_finite() {
            return false; // divergence
        }
        *sum_accept += delta.min(0.0).exp();
        // Multinomial weight of this point.
        *log_sum_weight = log_add_exp(*log_sum_weight, delta);
        n_kept += 1.0;
        // Progressive sampling within the new subtree: select this point with
        // probability proportional to its weight among new points.
        if rng.gen::<f64>() < (delta - *log_sum_weight).exp() * n_kept.max(1.0) / n_kept {
            q_prop.copy_from_slice(&edge.q);
            *logp_prop = edge.logp;
            grad_prop.copy_from_slice(&edge.grad);
        }
    }
    true
}

fn leapfrog<T: GradTargetMut + ?Sized>(
    target: &mut T,
    s: &mut State,
    eps: f64,
    inv_mass: &[f64],
    n_grad_evals: &mut usize,
) {
    for (p, g) in s.p.iter_mut().zip(&s.grad) {
        *p += 0.5 * eps * g;
    }
    for ((q, im), p) in s.q.iter_mut().zip(inv_mass).zip(&s.p) {
        *q += eps * im * p;
    }
    *n_grad_evals += 1;
    let lp = target.logp_grad_into(&s.q, &mut s.grad);
    s.logp = if lp.is_nan() { f64::NEG_INFINITY } else { lp };
    for (p, g) in s.p.iter_mut().zip(&s.grad) {
        *p += 0.5 * eps * g;
    }
}

fn kinetic(p: &[f64], inv_mass: &[f64]) -> f64 {
    0.5 * p
        .iter()
        .zip(inv_mass)
        .map(|(pi, im)| pi * pi * im)
        .sum::<f64>()
}

fn uturn(minus: &State, plus: &State, inv_mass: &[f64]) -> bool {
    let dq: Vec<f64> = plus.q.iter().zip(&minus.q).map(|(a, b)| a - b).collect();
    let forward: f64 = dq
        .iter()
        .zip(&plus.p)
        .zip(inv_mass)
        .map(|((d, p), im)| d * p * im)
        .sum();
    let backward: f64 = dq
        .iter()
        .zip(&minus.p)
        .zip(inv_mass)
        .map(|((d, p), im)| d * p * im)
        .sum();
    forward < 0.0 || backward < 0.0
}

#[allow(clippy::too_many_arguments)]
fn find_initial_step_size<T: GradTargetMut + ?Sized>(
    target: &mut T,
    q: &[f64],
    logp: f64,
    grad: &[f64],
    init: f64,
    inv_mass: &[f64],
    rng: &mut StdRng,
    n_grad_evals: &mut usize,
) -> f64 {
    // Heuristic from Hoffman & Gelman: double / halve the step size until the
    // acceptance probability of one leapfrog step crosses 0.5.
    let mut eps = init;
    let p: Vec<f64> = (0..q.len())
        .map(|i| standard_normal(rng) / inv_mass[i].sqrt())
        .collect();
    let joint0 = logp - kinetic(&p, inv_mass);
    let mut state = State {
        q: q.to_vec(),
        p,
        logp,
        grad: grad.to_vec(),
    };
    leapfrog(target, &mut state, eps, inv_mass, n_grad_evals);
    let joint = state.logp - kinetic(&state.p, inv_mass);
    let mut delta = joint - joint0;
    if !delta.is_finite() {
        return (init * 0.1).max(1e-6);
    }
    let direction: f64 = if delta > (-0.693) { 1.0 } else { -1.0 };
    for _ in 0..50 {
        eps *= 2f64.powf(direction);
        let p: Vec<f64> = (0..q.len())
            .map(|i| standard_normal(rng) / inv_mass[i].sqrt())
            .collect();
        let joint0 = logp - kinetic(&p, inv_mass);
        let mut state = State {
            q: q.to_vec(),
            p,
            logp,
            grad: grad.to_vec(),
        };
        leapfrog(target, &mut state, eps, inv_mass, n_grad_evals);
        let joint = state.logp - kinetic(&state.p, inv_mass);
        delta = joint - joint0;
        if !delta.is_finite() {
            eps *= 0.5;
            break;
        }
        if (direction > 0.0 && delta < -0.693) || (direction < 0.0 && delta > -0.693) {
            break;
        }
    }
    eps.clamp(1e-8, 10.0)
}

fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let m = a.max(b);
    m + ((a - m).exp() + (b - m).exp()).ln()
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::summarize;

    fn run_standard_normal(dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let target = move |q: &[f64]| {
            let lp: f64 = q.iter().map(|x| -0.5 * x * x).sum();
            let grad: Vec<f64> = q.iter().map(|x| -x).collect();
            (lp, grad)
        };
        let cfg = NutsConfig {
            warmup: 400,
            samples: 800,
            seed,
            ..Default::default()
        };
        nuts_sample(&target, vec![1.0; dim], &cfg).draws
    }

    #[test]
    fn recovers_standard_normal_moments() {
        let draws = run_standard_normal(3, 1);
        let summary = summarize(&draws);
        for s in &summary {
            assert!(s.mean.abs() < 0.15, "mean {}", s.mean);
            assert!((s.stddev - 1.0).abs() < 0.2, "sd {}", s.stddev);
        }
    }

    #[test]
    fn recovers_correlated_gaussian_mean() {
        // Target: N(mu, diag(sigma^2)) with different scales per dimension.
        let mu = [2.0, -1.0];
        let sigma = [0.5, 3.0];
        let target = move |q: &[f64]| {
            let mut lp = 0.0;
            let mut g = vec![0.0; 2];
            for i in 0..2 {
                let z = (q[i] - mu[i]) / sigma[i];
                lp += -0.5 * z * z;
                g[i] = -z / sigma[i];
            }
            (lp, g)
        };
        let cfg = NutsConfig {
            warmup: 500,
            samples: 1000,
            seed: 2,
            ..Default::default()
        };
        let res = nuts_sample(&target, vec![0.0, 0.0], &cfg);
        let summary = summarize(&res.draws);
        assert!((summary[0].mean - 2.0).abs() < 0.1, "{}", summary[0].mean);
        assert!((summary[1].mean + 1.0).abs() < 0.5, "{}", summary[1].mean);
        assert!(
            (summary[1].stddev - 3.0).abs() < 0.7,
            "{}",
            summary[1].stddev
        );
        assert_eq!(res.draws.len(), 1000);
    }

    #[test]
    fn banana_shaped_target_does_not_diverge_catastrophically() {
        // Rosenbrock-like banana density.
        let target = |q: &[f64]| {
            let (x, y) = (q[0], q[1]);
            let lp = -0.5 * x * x - 0.5 * (y - x * x).powi(2) / 0.25;
            let dldx = -x + (y - x * x) / 0.25 * 2.0 * x;
            let dldy = -(y - x * x) / 0.25;
            (lp, vec![dldx, dldy])
        };
        let cfg = NutsConfig {
            warmup: 300,
            samples: 300,
            seed: 3,
            ..Default::default()
        };
        let res = nuts_sample(&target, vec![0.1, 0.1], &cfg);
        assert!(res.divergences < 100);
        assert!(res.mean_accept > 0.4);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_standard_normal(2, 42);
        let b = run_standard_normal(2, 42);
        assert_eq!(a[10], b[10]);
        let c = run_standard_normal(2, 43);
        assert_ne!(a[10], c[10]);
    }

    #[test]
    fn reports_gradient_evaluations_and_step_size() {
        let target = |q: &[f64]| (-0.5 * q[0] * q[0], vec![-q[0]]);
        let cfg = NutsConfig {
            warmup: 100,
            samples: 100,
            seed: 5,
            ..Default::default()
        };
        let res = nuts_sample(&target, vec![0.0], &cfg);
        assert!(res.n_grad_evals > 200);
        assert!(res.step_size > 0.0 && res.step_size < 10.0);
    }
}
