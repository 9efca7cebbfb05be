//! The No-U-Turn Sampler (NUTS), as Stan runs it.
//!
//! One sampler runs the algorithm: [`nuts_sample_mut`] runs one chain to
//! completion on one target instance, scoring one point per gradient
//! evaluation. Multi-chain runs are a placement question above this
//! module: `deepstan`'s `Session` runs each chain through this sampler,
//! back to back on however many threads it is given, and a chain's draws
//! depend only on its config (seed included), never on where it ran.
//!
//! # The transition
//!
//! Each iteration draws a momentum `p ~ N(0, M)` (with `M = Σ⁻¹`, drawn
//! through the Cholesky factor of the inverse metric `Σ`) and builds a
//! trajectory by repeated doubling in a random direction, as in Hoffman &
//! Gelman (2014), "The No-U-Turn Sampler", JMLR 15, with the multinomial
//! trajectory sampling and generalized no-U-turn criterion of Betancourt
//! (2017), "A Conceptual Introduction to Hamiltonian Monte Carlo",
//! arXiv:1701.02434 — the algorithm of Stan's `base_nuts`:
//!
//! * every doubling builds a new subtree recursively; each subtree is
//!   checked for a U-turn on its own, and across each pair of halves it
//!   was merged from, including the extra checks that extend each half by
//!   the neighbouring point of the other (`ρ`, the summed momenta, against
//!   the sharp momenta `Σp` at the ends);
//! * a subtree that U-turns or diverges (`H − H₀ > 1000`, or a non-finite
//!   Hamiltonian) ends the iteration, and nothing is sampled from it —
//!   this is what makes the transition reversible;
//! * within a subtree a point is selected in proportion to its weight
//!   `exp(H₀ − H)`; across doublings the new subtree's selection replaces
//!   the running sample with probability `min(1, W_new / W_old)` (biased
//!   progressive sampling).
//!
//! # Adaptation
//!
//! Warmup follows Stan's windowed schedule: an initial buffer of 75
//! iterations that adapts only the step size, then metric windows of 25,
//! 50, 100, ... iterations (the last one stretched to meet the terminal
//! buffer), then a terminal buffer of 50 that adapts only the step size.
//! When warmup is shorter than 150 the buffers are 15 % / 75 % / 10 % of
//! it; below 20 warmup iterations the metric is never adapted. The step
//! size follows Nesterov dual averaging toward the target acceptance
//! statistic, and after each metric update it is re-found by the
//! doubling/halving heuristic and dual averaging restarts at
//! `μ = ln(10 ε)`. The final step size is the dual-averaged iterate.
//!
//! At the end of each window the inverse metric becomes the window's
//! sample covariance `S` of `n` draws, regularized as Stan does:
//! `Σ = n/(n+5)·S + 1e-3·5/(n+5)·I`.
//!
//! # The metric
//!
//! Up to [`DENSE_METRIC_MAX_DIM`] unconstrained dimensions the metric is
//! dense: correlated posteriors (a regression's intercept and slope, a
//! soft sum-to-zero constraint) become near-isotropic, which takes the
//! trajectory length from hundreds of leapfrogs to tens. Past the bound
//! only the diagonal is estimated and stored, so metric memory and
//! per-leapfrog metric work stay `O(d)` for models of any size (a dense
//! `Σ` at `d = 10⁵` would be 80 GB). See the constant for why the bound
//! sits where it does.
//!
//! An iteration allocates nothing beyond the draw it keeps: the tree
//! builder's per-depth scratch, the trajectory's edge points and the
//! proposal buffers are all allocated once per chain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::target::GradTargetMut;

/// Largest number of unconstrained dimensions that gets a dense metric;
/// larger models adapt and store only its diagonal.
///
/// Measured on a 2-vCPU x86_64 host, release build, sampling independent
/// Gaussians with scales 1 to 1 + 0.1(d − 1) (1000 warmup + 4000 draws;
/// the gradient is about `2d` divisions, so the sampler's own work shows):
///
/// | d | ns per gradient, diagonal / dense | gradients, dense / diagonal |
/// |---|---|---|
/// | 8 | 295 / 355 | 0.93 |
/// | 16 | 405 / 600 | 1.06 |
/// | 24 | 545 / 880 | 1.41 |
/// | 32 | 655 / 1085 | 2.23 |
/// | 64 | 1110 / 1800-2550 | 5.46 |
///
/// The dense leapfrog's `d × d` product grows as `d²` and is about 0.2 µs
/// per step at `d = 16`, still below a typical corpus gradient. Past that
/// the estimate itself costs more: a window holds at most 500 draws at the
/// default warmup, and the sampling noise of a `d × d` covariance from
/// them stretches the metric's spectrum enough that from `d = 24` the
/// sampler needs 1.4-5.5x the gradients of the diagonal metric on a target
/// the diagonal fits exactly. The corpus tops out at 12 dimensions.
pub const DENSE_METRIC_MAX_DIM: usize = 16;

/// Hamiltonian error past which a leapfrog step counts as divergent.
const MAX_DELTA_H: f64 = 1000.0;

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
    /// Number of post-warmup iterations whose trajectory reached
    /// [`NutsConfig::max_depth`] doublings without a U-turn.
    pub max_depth_hits: usize,
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

/// Dual-averaging step-size adaptation (Hoffman & Gelman 2014, Algorithm
/// 5, with Stan's constants).
struct DualAveraging {
    mu: f64,
    x_bar: f64,
    s_bar: f64,
    counter: usize,
}

impl DualAveraging {
    const GAMMA: f64 = 0.05;
    const T0: f64 = 10.0;
    const KAPPA: f64 = 0.75;

    /// Starts afresh around step size `eps`: `μ = ln(10 ε)`.
    fn new(eps: f64) -> Self {
        DualAveraging {
            mu: (10.0 * eps).ln(),
            x_bar: 0.0,
            s_bar: 0.0,
            counter: 0,
        }
    }

    /// Takes one iteration's acceptance statistic; returns the next step
    /// size.
    fn learn(&mut self, accept_stat: f64, target: f64) -> f64 {
        self.counter += 1;
        let m = self.counter as f64;
        let eta = 1.0 / (m + Self::T0);
        self.s_bar = (1.0 - eta) * self.s_bar + eta * (target - accept_stat.min(1.0));
        let x = self.mu - self.s_bar * m.sqrt() / Self::GAMMA;
        let x_eta = m.powf(-Self::KAPPA);
        self.x_bar = (1.0 - x_eta) * self.x_bar + x_eta * x;
        x.exp()
    }

    /// The averaged step size, used for sampling once warmup ends.
    fn adapted(&self) -> f64 {
        self.x_bar.exp()
    }
}

/// Stan's windowed warmup schedule: when to collect draws for the metric
/// and when to update it. One [`Windows::advance`] per warmup iteration.
struct Windows {
    warmup: usize,
    init_buffer: usize,
    term_buffer: usize,
    counter: usize,
    size: usize,
    /// Iteration index that ends the current window.
    next_end: usize,
    adapt: bool,
}

impl Windows {
    fn new(warmup: usize) -> Self {
        let (init_buffer, term_buffer, base) = if warmup < 150 {
            let init = (0.15 * warmup as f64) as usize;
            let term = (0.1 * warmup as f64) as usize;
            (init, term, warmup - init - term)
        } else {
            (75, 50, 25)
        };
        Windows {
            warmup,
            init_buffer,
            term_buffer,
            counter: 0,
            size: base,
            next_end: (init_buffer + base).saturating_sub(1),
            adapt: warmup >= 20,
        }
    }

    /// The last iteration any window may end on.
    fn last_end(&self) -> usize {
        self.warmup - self.term_buffer - 1
    }

    /// Advances past one warmup iteration. Returns whether that iteration's
    /// draw goes into the metric estimate, and whether the metric is
    /// updated after it.
    fn advance(&mut self) -> (bool, bool) {
        let i = self.counter;
        self.counter += 1;
        if !self.adapt {
            return (false, false);
        }
        let collect = i >= self.init_buffer && i < self.warmup - self.term_buffer;
        let update = i == self.next_end;
        if update && self.next_end != self.last_end() {
            self.size *= 2;
            self.next_end = i + self.size;
            // A window that would leave less than twice its size before
            // the terminal buffer absorbs the rest.
            if self.next_end + 2 * self.size >= self.warmup - self.term_buffer {
                self.next_end = self.last_end();
            }
        }
        (collect, update)
    }
}

/// The inverse metric `Σ` and the factor momenta are drawn through.
struct Metric {
    dim: usize,
    dense: bool,
    /// Dense: `Σ`, row-major `d × d`. Diagonal: the `d` variances.
    inv: Vec<f64>,
    /// Dense: `Lᵀ` (upper triangular, row-major) for `Σ = L Lᵀ`.
    /// Diagonal: `1/√Σᵢᵢ`.
    factor: Vec<f64>,
}

impl Metric {
    fn identity(dim: usize) -> Self {
        let dense = dim <= DENSE_METRIC_MAX_DIM;
        let inv = if dense {
            let mut m = vec![0.0; dim * dim];
            for i in 0..dim {
                m[i * dim + i] = 1.0;
            }
            m
        } else {
            vec![1.0; dim]
        };
        Metric {
            dim,
            dense,
            factor: inv.clone(),
            inv,
        }
    }

    /// `out = Σ p`, accumulated column by column (`Σ` is symmetric, so a
    /// row is a column): independent lanes rather than one long sum.
    #[inline]
    fn sharp(&self, p: &[f64], out: &mut [f64]) {
        if self.dense {
            out.fill(0.0);
            for (col, pj) in self.inv.chunks_exact(self.dim).zip(p) {
                for (o, s) in out.iter_mut().zip(col) {
                    *o += s * pj;
                }
            }
        } else {
            for ((o, s), pi) in out.iter_mut().zip(&self.inv).zip(p) {
                *o = s * pi;
            }
        }
    }

    /// Draws `p ~ N(0, Σ⁻¹)`: standard normals `u`, then `p = L⁻ᵀ u`.
    fn draw_momentum(&self, rng: &mut StdRng, p: &mut [f64]) {
        fill_standard_normal(rng, p);
        let d = self.dim;
        if self.dense {
            for i in (0..d).rev() {
                let row = &self.factor[i * d..(i + 1) * d];
                let s = p[i] - dot(&row[i + 1..], &p[i + 1..]);
                p[i] = s / row[i];
            }
        } else {
            for (pi, f) in p.iter_mut().zip(&self.factor) {
                *pi *= f;
            }
        }
    }

    /// Replaces `Σ` with the estimator's regularized sample covariance and
    /// restarts the estimator. Keeps the old metric (returning false) when
    /// the estimate is unusable: fewer than two draws or non-finite values.
    fn update(&mut self, est: &mut Welford) -> bool {
        let n = est.n as f64;
        let ok = est.n >= 2 && self.set_regularized(est, n);
        est.restart();
        ok
    }

    fn set_regularized(&mut self, est: &Welford, n: f64) -> bool {
        let d = self.dim;
        let w = n / (n + 5.0) / (n - 1.0);
        let shrink = 1e-3 * 5.0 / (n + 5.0);
        if !self.dense {
            let inv: Vec<f64> = est.m2.iter().map(|m| w * m + shrink).collect();
            if inv.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
                return false;
            }
            for ((s, f), v) in self.inv.iter_mut().zip(&mut self.factor).zip(inv) {
                *s = v;
                *f = 1.0 / v.sqrt();
            }
            return true;
        }
        // The estimator accumulates the lower triangle; mirror it.
        let mut sigma = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..=i {
                let v = w * est.m2[i * d + j] + if i == j { shrink } else { 0.0 };
                sigma[i * d + j] = v;
                sigma[j * d + i] = v;
            }
        }
        match cholesky_upper(&sigma, d) {
            Some(upper) => {
                self.inv = sigma;
                self.factor = upper;
                true
            }
            None => false,
        }
    }
}

/// `Lᵀ` (row-major) for the Cholesky factorization `a = L Lᵀ`, or `None`
/// when `a` is not numerically positive definite.
fn cholesky_upper(a: &[f64], d: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; d * d];
    for j in 0..d {
        let s = a[j * d + j] - dot(&l[j * d..j * d + j], &l[j * d..j * d + j]);
        if !(s.is_finite() && s > 0.0) {
            return None;
        }
        let ljj = s.sqrt();
        l[j * d + j] = ljj;
        for i in j + 1..d {
            let s = a[i * d + j] - dot(&l[i * d..i * d + j], &l[j * d..j * d + j]);
            l[i * d + j] = s / ljj;
        }
    }
    let mut upper = vec![0.0; d * d];
    for i in 0..d {
        for j in 0..=i {
            upper[j * d + i] = l[i * d + j];
        }
    }
    Some(upper)
}

/// Welford's running mean and (co)variance of the draws of one metric
/// window: the lower triangle of the scatter matrix when the metric is
/// dense, its diagonal otherwise.
struct Welford {
    dense: bool,
    n: usize,
    mean: Vec<f64>,
    m2: Vec<f64>,
    delta: Vec<f64>,
}

impl Welford {
    fn new(metric: &Metric) -> Self {
        let d = metric.dim;
        Welford {
            dense: metric.dense,
            n: 0,
            mean: vec![0.0; d],
            m2: vec![0.0; if metric.dense { d * d } else { d }],
            delta: vec![0.0; d],
        }
    }

    fn restart(&mut self) {
        self.n = 0;
        self.mean.fill(0.0);
        self.m2.fill(0.0);
    }

    fn add(&mut self, q: &[f64]) {
        self.n += 1;
        let inv_n = 1.0 / self.n as f64;
        for ((dl, m), x) in self.delta.iter_mut().zip(&mut self.mean).zip(q) {
            *dl = x - *m;
            *m += *dl * inv_n;
        }
        let d = q.len();
        if self.dense {
            let rows = self.m2.chunks_exact_mut(d).zip(q.iter().zip(&self.mean));
            for (i, (row, (x, m))) in rows.enumerate() {
                let a = x - m;
                for (m2, dl) in row[..=i].iter_mut().zip(&self.delta) {
                    *m2 += a * dl;
                }
            }
        } else {
            for (((m2, dl), m), x) in self.m2.iter_mut().zip(&self.delta).zip(&self.mean).zip(q) {
                *m2 += (x - m) * dl;
            }
        }
    }
}

/// A point in phase space: position, momentum, sharp momentum `Σp`, and
/// the log density with its gradient and sharp gradient `Σ∇` at the
/// position. Carrying `Σ∇` lets a leapfrog update `Σp` alongside `p` with
/// one metric product per step instead of two.
struct Point {
    q: Vec<f64>,
    p: Vec<f64>,
    p_sharp: Vec<f64>,
    grad: Vec<f64>,
    grad_sharp: Vec<f64>,
    logp: f64,
}

impl Point {
    fn new(dim: usize) -> Self {
        Point {
            q: vec![0.0; dim],
            p: vec![0.0; dim],
            p_sharp: vec![0.0; dim],
            grad: vec![0.0; dim],
            grad_sharp: vec![0.0; dim],
            logp: 0.0,
        }
    }

    /// Starts at `z` with a fresh momentum.
    fn start(&mut self, z: &Sample, metric: &Metric, rng: &mut StdRng) {
        self.q.copy_from_slice(&z.q);
        self.grad.copy_from_slice(&z.grad);
        self.logp = z.logp;
        metric.sharp(&self.grad, &mut self.grad_sharp);
        metric.draw_momentum(rng, &mut self.p);
        metric.sharp(&self.p, &mut self.p_sharp);
    }

    fn copy_from(&mut self, other: &Point) {
        self.q.copy_from_slice(&other.q);
        self.p.copy_from_slice(&other.p);
        self.p_sharp.copy_from_slice(&other.p_sharp);
        self.grad.copy_from_slice(&other.grad);
        self.grad_sharp.copy_from_slice(&other.grad_sharp);
        self.logp = other.logp;
    }

    /// `H = −log p(q) + ½ pᵀΣp`, with `p_sharp` current.
    fn hamiltonian(&self) -> f64 {
        -self.logp + 0.5 * dot(&self.p, &self.p_sharp)
    }
}

/// A selected position with its log density and gradient — the running
/// sample, or a subtree's proposal.
struct Sample {
    q: Vec<f64>,
    grad: Vec<f64>,
    logp: f64,
}

impl Sample {
    fn take(&mut self, z: &Point) {
        self.q.copy_from_slice(&z.q);
        self.grad.copy_from_slice(&z.grad);
        self.logp = z.logp;
    }
}

/// The scratch one level of the recursive tree builder needs while it
/// merges its two halves: the first half's summed momentum and last point,
/// and the second half's summed momentum and first point.
struct Level {
    rho_init: Vec<f64>,
    rho_final: Vec<f64>,
    p_init_end: Vec<f64>,
    p_sharp_init_end: Vec<f64>,
    p_final_beg: Vec<f64>,
    p_sharp_final_beg: Vec<f64>,
}

impl Level {
    fn new(dim: usize) -> Self {
        Level {
            rho_init: vec![0.0; dim],
            rho_final: vec![0.0; dim],
            p_init_end: vec![0.0; dim],
            p_sharp_init_end: vec![0.0; dim],
            p_final_beg: vec![0.0; dim],
            p_sharp_final_beg: vec![0.0; dim],
        }
    }
}

/// One of two adjacent trajectory segments about to merge: its summed
/// momentum `ρ`, the sharp momentum at its far end, and the momentum and
/// sharp momentum at its near end (the one touching the other segment).
struct Segment<'a> {
    rho: &'a [f64],
    far_sharp: &'a [f64],
    near_p: &'a [f64],
    near_sharp: &'a [f64],
}

/// The generalized no-U-turn criterion (both end sharp momenta still point
/// along the summed momentum) across two adjacent segments, checked on
/// the merged segment and on each segment extended by the other's near
/// point — Stan's three checks per merge.
fn persists_across(a: &Segment, b: &Segment) -> bool {
    let n = a.rho.len();
    let (ar, af, an, ans) = (a.rho, &a.far_sharp[..n], &a.near_p[..n], &a.near_sharp[..n]);
    let (br, bf, bn, bns) = (
        &b.rho[..n],
        &b.far_sharp[..n],
        &b.near_p[..n],
        &b.near_sharp[..n],
    );
    let mut dots = [0.0f64; 6];
    for i in 0..n {
        let whole = ar[i] + br[i];
        dots[0] += af[i] * whole;
        dots[1] += bf[i] * whole;
        let a_ext = ar[i] + bn[i];
        dots[2] += af[i] * a_ext;
        dots[3] += bns[i] * a_ext;
        let b_ext = br[i] + an[i];
        dots[4] += ans[i] * b_ext;
        dots[5] += bf[i] * b_ext;
    }
    dots.iter().all(|&d| d > 0.0)
}

/// What one transition accumulates while it builds subtrees.
struct Builder<'a, T: ?Sized> {
    target: &'a mut T,
    metric: &'a Metric,
    rng: &'a mut StdRng,
    n_grad_evals: &'a mut usize,
    /// Signed step size of the current doubling.
    eps: f64,
    h0: f64,
    n_leapfrog: usize,
    sum_metro: f64,
    divergent: bool,
    /// Summed weights of the subtree being built, as multiples of
    /// `exp(w_log_ref)`. The reference is 0 (weights relative to the
    /// initial point, so one `exp` gives both the weight and the
    /// acceptance term) until a weight would overflow and moves it up.
    w_sum: f64,
    w_log_ref: f64,
    /// The subtree's selected point.
    proposal: &'a mut Sample,
}

impl<T: GradTargetMut + ?Sized> Builder<'_, T> {
    /// Builds a subtree of `2^depth` leapfrogs from `edge` (which ends at
    /// the subtree's last point), writing its first point's momenta to
    /// `beg_p`/`beg_sharp` and its summed momentum to `rho`.
    /// Returns false when the subtree diverged or U-turned.
    fn build(
        &mut self,
        edge: &mut Point,
        levels: &mut [Level],
        depth: usize,
        beg_p: &mut [f64],
        beg_sharp: &mut [f64],
        rho: &mut [f64],
    ) -> bool {
        if depth == 0 {
            return self.leaf(edge, beg_p, beg_sharp, rho);
        }
        let (lower, upper) = levels.split_at_mut(depth - 1);
        let lvl = &mut upper[0];
        if !self.build(edge, lower, depth - 1, beg_p, beg_sharp, &mut lvl.rho_init) {
            return false;
        }
        lvl.p_init_end.copy_from_slice(&edge.p);
        lvl.p_sharp_init_end.copy_from_slice(&edge.p_sharp);
        if !self.build(
            edge,
            lower,
            depth - 1,
            &mut lvl.p_final_beg,
            &mut lvl.p_sharp_final_beg,
            &mut lvl.rho_final,
        ) {
            return false;
        }
        for ((r, a), b) in rho.iter_mut().zip(&lvl.rho_init).zip(&lvl.rho_final) {
            *r = a + b;
        }
        persists_across(
            &Segment {
                rho: &lvl.rho_init,
                far_sharp: beg_sharp,
                near_p: &lvl.p_init_end,
                near_sharp: &lvl.p_sharp_init_end,
            },
            &Segment {
                rho: &lvl.rho_final,
                far_sharp: &edge.p_sharp,
                near_p: &lvl.p_final_beg,
                near_sharp: &lvl.p_sharp_final_beg,
            },
        )
    }

    /// One leapfrog step from `edge`: the depth-0 subtree.
    fn leaf(
        &mut self,
        edge: &mut Point,
        beg_p: &mut [f64],
        beg_sharp: &mut [f64],
        rho: &mut [f64],
    ) -> bool {
        let h = leapfrog(self.target, self.metric, edge, self.eps, self.n_grad_evals);
        self.n_leapfrog += 1;
        let log_w = if h.is_finite() {
            self.h0 - h
        } else {
            f64::NEG_INFINITY
        };
        if log_w.is_nan() || log_w <= -MAX_DELTA_H {
            self.divergent = true;
            return false;
        }
        // Progressive sampling within the subtree: the new point replaces
        // the selection with probability w / W, so each point ends selected
        // in proportion to its weight.
        let first = self.w_sum == 0.0;
        let w = if log_w - self.w_log_ref > 600.0 {
            self.w_sum *= (self.w_log_ref - log_w).exp();
            self.w_log_ref = log_w;
            1.0
        } else {
            (log_w - self.w_log_ref).exp()
        };
        self.sum_metro += match (log_w > 0.0, self.w_log_ref == 0.0) {
            (true, _) => 1.0,
            (false, true) => w,
            (false, false) => log_w.exp(),
        };
        self.w_sum += w;
        if first || self.rng.gen::<f64>() * self.w_sum < w {
            self.proposal.take(edge);
        }
        for ((r, b), p) in rho.iter_mut().zip(beg_p.iter_mut()).zip(&edge.p) {
            *r = *p;
            *b = *p;
        }
        beg_sharp.copy_from_slice(&edge.p_sharp);
        true
    }
}

/// One transition's outcome.
struct Transition {
    accept_stat: f64,
    n_leapfrog: usize,
    /// Doublings completed without a U-turn or divergence.
    depth: usize,
    /// Doublings started.
    depth_entered: usize,
    divergent: bool,
}

/// The buffers one chain's transitions reuse.
struct Trajectory {
    fwd: Point,
    bck: Point,
    rho: Vec<f64>,
    rho_new: Vec<f64>,
    near_p: Vec<f64>,
    near_sharp: Vec<f64>,
    beg_p: Vec<f64>,
    beg_sharp: Vec<f64>,
    proposal: Sample,
    levels: Vec<Level>,
}

impl Trajectory {
    fn new(dim: usize, max_depth: usize) -> Self {
        Trajectory {
            fwd: Point::new(dim),
            bck: Point::new(dim),
            rho: vec![0.0; dim],
            rho_new: vec![0.0; dim],
            near_p: vec![0.0; dim],
            near_sharp: vec![0.0; dim],
            beg_p: vec![0.0; dim],
            beg_sharp: vec![0.0; dim],
            proposal: Sample {
                q: vec![0.0; dim],
                grad: vec![0.0; dim],
                logp: 0.0,
            },
            levels: (1..max_depth).map(|_| Level::new(dim)).collect(),
        }
    }

    /// One NUTS transition from `z` (updated in place to the next draw).
    #[allow(clippy::too_many_arguments)]
    fn transition<T: GradTargetMut + ?Sized>(
        &mut self,
        target: &mut T,
        metric: &Metric,
        z: &mut Sample,
        step_size: f64,
        max_depth: usize,
        rng: &mut StdRng,
        n_grad_evals: &mut usize,
    ) -> Transition {
        let fwd = &mut self.fwd;
        fwd.start(z, metric, rng);
        let h0 = fwd.hamiltonian();
        self.bck.copy_from(fwd);
        self.rho.copy_from_slice(&fwd.p);

        let mut log_sum_weight = 0.0;
        let mut builder = Builder {
            target,
            metric,
            rng,
            n_grad_evals,
            eps: step_size,
            h0,
            n_leapfrog: 0,
            sum_metro: 0.0,
            divergent: false,
            w_sum: 0.0,
            w_log_ref: 0.0,
            proposal: &mut self.proposal,
        };
        let mut depth = 0;
        let mut depth_entered = 0;
        while depth < max_depth {
            depth_entered += 1;
            let go_fwd = builder.rng.gen::<bool>();
            let (edge, far) = if go_fwd {
                (&mut self.fwd, &self.bck)
            } else {
                (&mut self.bck, &self.fwd)
            };
            self.near_p.copy_from_slice(&edge.p);
            self.near_sharp.copy_from_slice(&edge.p_sharp);
            builder.eps = if go_fwd { step_size } else { -step_size };
            builder.w_sum = 0.0;
            let valid = builder.build(
                edge,
                &mut self.levels,
                depth,
                &mut self.beg_p,
                &mut self.beg_sharp,
                &mut self.rho_new,
            );
            if !valid {
                break;
            }
            depth += 1;

            // Biased progressive sampling across the doubling.
            let log_w_new = builder.w_log_ref + builder.w_sum.ln();
            if log_w_new > log_sum_weight
                || builder.rng.gen::<f64>() < (log_w_new - log_sum_weight).exp()
            {
                std::mem::swap(z, builder.proposal);
            }
            log_sum_weight = log_add_exp(log_sum_weight, log_w_new);

            // The same checks across the old trajectory and the new subtree.
            let persist = persists_across(
                &Segment {
                    rho: &self.rho,
                    far_sharp: &far.p_sharp,
                    near_p: &self.near_p,
                    near_sharp: &self.near_sharp,
                },
                &Segment {
                    rho: &self.rho_new,
                    far_sharp: &edge.p_sharp,
                    near_p: &self.beg_p,
                    near_sharp: &self.beg_sharp,
                },
            );
            for (r, n) in self.rho.iter_mut().zip(&self.rho_new) {
                *r += n;
            }
            if !persist {
                break;
            }
        }
        Transition {
            accept_stat: builder.sum_metro / builder.n_leapfrog.max(1) as f64,
            n_leapfrog: builder.n_leapfrog,
            depth,
            depth_entered,
            divergent: builder.divergent,
        }
    }
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
/// model evaluation itself. One target instance is one chain. A plain
/// closure `f` returning `(log p, ∇ log p)` runs as `nuts_sample_mut(&mut &f,
/// ...)`.
///
/// Constrained models should wrap their density with the appropriate
/// transform (as `gprob::GModel` does).
pub fn nuts_sample_mut<T: GradTargetMut + ?Sized>(
    target: &mut T,
    init: Vec<f64>,
    config: &NutsConfig,
) -> NutsResult {
    if config.cancel.is_cancelled() {
        return NutsResult {
            draws: Vec::new(),
            divergences: 0,
            max_depth_hits: 0,
            step_size: config.init_step_size,
            mean_accept: 0.0,
            n_grad_evals: 0,
            cancelled: true,
        };
    }
    let dim = init.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_grad_evals = 0usize;

    let mut z = Sample {
        grad: vec![0.0; dim],
        logp: 0.0,
        q: init,
    };
    z.logp = eval_target(target, &z.q, &mut z.grad, &mut n_grad_evals);

    let mut metric = Metric::identity(dim);
    let mut estimator = Welford::new(&metric);
    let mut windows = Windows::new(config.warmup);
    let mut traj = Trajectory::new(dim, config.max_depth);

    let mut step_size = find_step_size(
        target,
        &metric,
        &z,
        &mut traj.fwd,
        config.init_step_size,
        &mut rng,
        &mut n_grad_evals,
    );
    let mut da = DualAveraging::new(step_size);

    let total = config.warmup + config.samples;
    let mut draws = Vec::with_capacity(config.samples);
    let mut telemetry = ChainTelemetry::new();
    let mut divergences = 0usize;
    let mut max_depth_hits = 0usize;
    let mut accept_sum = 0.0;
    let mut cancelled = false;

    for iter in 0..total {
        if config.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let t = traj.transition(
            target,
            &metric,
            &mut z,
            step_size,
            config.max_depth,
            &mut rng,
            &mut n_grad_evals,
        );
        telemetry.record_iteration(t.depth_entered, t.n_leapfrog);

        if iter < config.warmup {
            step_size = da.learn(t.accept_stat, config.target_accept);
            let (collect, update) = windows.advance();
            if collect {
                estimator.add(&z.q);
            }
            if update && metric.update(&mut estimator) {
                step_size = find_step_size(
                    target,
                    &metric,
                    &z,
                    &mut traj.fwd,
                    step_size,
                    &mut rng,
                    &mut n_grad_evals,
                );
                da = DualAveraging::new(step_size);
            }
            if iter + 1 == config.warmup {
                // Freeze the step size at its dual-averaged value for sampling.
                step_size = da.adapted().max(1e-8);
            }
        } else {
            divergences += t.divergent as usize;
            max_depth_hits += (t.depth == config.max_depth) as usize;
            accept_sum += t.accept_stat;
            draws.push(z.q.clone());
        }
    }

    telemetry.flush(divergences, step_size);
    NutsResult {
        mean_accept: if draws.is_empty() {
            0.0
        } else {
            accept_sum / draws.len() as f64
        },
        draws,
        divergences,
        max_depth_hits,
        step_size,
        n_grad_evals,
        cancelled,
    }
}

/// One leapfrog step of signed size `eps` from `s`; returns the new
/// point's Hamiltonian. `Σp` moves with `p` (`Σ(p + h∇) = Σp + hΣ∇`), so
/// the step takes one metric product, for the new gradient.
#[inline]
fn leapfrog<T: GradTargetMut + ?Sized>(
    target: &mut T,
    metric: &Metric,
    s: &mut Point,
    eps: f64,
    n_grad_evals: &mut usize,
) -> f64 {
    let half = 0.5 * eps;
    // A half-step momentum update; returns the Hamiltonian after it.
    let kick = |s: &mut Point| {
        let mut two_kinetic = 0.0;
        for (((p, ps), g), gs) in
            s.p.iter_mut()
                .zip(&mut s.p_sharp)
                .zip(&s.grad)
                .zip(&s.grad_sharp)
        {
            *p += half * g;
            *ps += half * gs;
            two_kinetic += *p * *ps;
        }
        -s.logp + 0.5 * two_kinetic
    };
    kick(s);
    for (q, v) in s.q.iter_mut().zip(&s.p_sharp) {
        *q += eps * v;
    }
    *n_grad_evals += 1;
    let lp = target.logp_grad_into(&s.q, &mut s.grad);
    s.logp = if lp.is_nan() { f64::NEG_INFINITY } else { lp };
    metric.sharp(&s.grad, &mut s.grad_sharp);
    kick(s)
}

/// Stan's step-size heuristic: from `eps`, double (or halve) until one
/// leapfrog step from `z` with a fresh momentum crosses an acceptance
/// probability of 0.8. `scratch` is overwritten.
fn find_step_size<T: GradTargetMut + ?Sized>(
    target: &mut T,
    metric: &Metric,
    z: &Sample,
    scratch: &mut Point,
    mut eps: f64,
    rng: &mut StdRng,
    n_grad_evals: &mut usize,
) -> f64 {
    let log_threshold = 0.8f64.ln();
    let mut trial = |eps: f64, rng: &mut StdRng| {
        scratch.start(z, metric, rng);
        let h0 = scratch.hamiltonian();
        let h = leapfrog(target, metric, scratch, eps, n_grad_evals);
        if h.is_nan() {
            f64::NEG_INFINITY
        } else {
            h0 - h
        }
    };
    let grow = trial(eps, rng) > log_threshold;
    // Bounded: 60 doublings or halvings span any usable step size.
    for _ in 0..60 {
        let delta = trial(eps, rng);
        if grow != (delta > log_threshold) {
            break;
        }
        eps = if grow { eps * 2.0 } else { eps * 0.5 };
        if !(1e-8..=1e7).contains(&eps) {
            break;
        }
    }
    eps.clamp(1e-8, 1e7)
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a > b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// Fills `out` with standard normals, two per Box–Muller pair.
fn fill_standard_normal(rng: &mut StdRng, out: &mut [f64]) {
    for pair in out.chunks_mut(2) {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        pair[0] = r * c;
        if let Some(second) = pair.get_mut(1) {
            *second = r * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::summarize;
    use crate::target::GradTarget;

    fn standard_normal_target(q: &[f64]) -> (f64, Vec<f64>) {
        let lp: f64 = q.iter().map(|x| -0.5 * x * x).sum();
        (lp, q.iter().map(|x| -x).collect())
    }

    fn run_standard_normal(dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let cfg = NutsConfig {
            warmup: 400,
            samples: 800,
            seed,
            ..Default::default()
        };
        nuts_sample_mut(&mut &standard_normal_target, vec![1.0; dim], &cfg).draws
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
        let res = nuts_sample_mut(&mut &target, vec![0.0, 0.0], &cfg);
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
        let res = nuts_sample_mut(&mut &target, vec![0.1, 0.1], &cfg);
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
        let res = nuts_sample_mut(&mut &target, vec![0.0], &cfg);
        assert!(res.n_grad_evals > 200);
        assert!(res.step_size > 0.0 && res.step_size < 10.0);
        assert_eq!(res.max_depth_hits, 0);
    }

    /// The warmup iterations after which the metric is updated.
    fn metric_updates(warmup: usize) -> Vec<usize> {
        let mut w = Windows::new(warmup);
        (0..warmup).filter(|_| w.advance().1).collect()
    }

    #[test]
    fn warmup_follows_stans_window_schedule() {
        assert_eq!(metric_updates(1000), [99, 149, 249, 449, 949]);
        assert_eq!(metric_updates(150), [99]);
        assert_eq!(metric_updates(100), [89]);
        assert_eq!(metric_updates(20), [17]);
        for warmup in 0..20 {
            assert!(metric_updates(warmup).is_empty(), "warmup {warmup}");
        }
        // Draws are collected only inside the windows.
        let mut w = Windows::new(1000);
        let collected: Vec<usize> = (0..1000).filter(|_| w.advance().0).collect();
        assert_eq!(collected.first(), Some(&75));
        assert_eq!(collected.last(), Some(&949));
        assert_eq!(collected.len(), 875);
    }

    #[test]
    fn dense_metric_regularization_matches_stan() {
        let mut metric = Metric::identity(2);
        let mut est = Welford::new(&metric);
        let draws = [[1.0, 2.0], [3.0, 1.0], [2.0, 4.0], [0.0, 1.0]];
        for q in &draws {
            est.add(q);
        }
        assert!(metric.update(&mut est));
        assert_eq!(est.n, 0);
        // Sample covariance of the four draws, then n/(n+5)·S + 1e-3·5/(n+5)·I.
        let s = [[5.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0]];
        let (w, shrink) = (4.0 / 9.0, 1e-3 * 5.0 / 9.0);
        for (i, row) in s.iter().enumerate() {
            for (j, sij) in row.iter().enumerate() {
                let want = w * sij + if i == j { shrink } else { 0.0 };
                assert!((metric.inv[i * 2 + j] - want).abs() < 1e-12);
            }
        }
        // Lᵀ reproduces Σ.
        let u = &metric.factor;
        for i in 0..2 {
            for j in 0..2 {
                let lu: f64 = (0..2).map(|k| u[k * 2 + i] * u[k * 2 + j]).sum();
                assert!((lu - metric.inv[i * 2 + j]).abs() < 1e-12);
            }
        }
    }

    /// Post-warmup gradients per iteration: the difference between two
    /// same-seed runs that share their warmup and differ in draws kept.
    fn sampling_grads_per_iter<T: GradTarget>(target: &T, init: Vec<f64>) -> f64 {
        let run = |samples: usize| {
            let cfg = NutsConfig {
                warmup: 500,
                samples,
                seed: 11,
                ..Default::default()
            };
            nuts_sample_mut(&mut &*target, init.clone(), &cfg)
        };
        let (short, long) = (run(200), run(600));
        (long.n_grad_evals - short.n_grad_evals) as f64 / 400.0
    }

    #[test]
    fn dense_metric_makes_a_correlated_gaussian_cheap() {
        // Correlation 0.99, scales 1 and 10: a diagonal metric leaves a
        // narrow diagonal ridge that takes tens of leapfrogs to cross.
        let (s1, s2, r) = (1.0f64, 10.0f64, 0.99f64);
        let det = 1.0 - r * r;
        let target = move |q: &[f64]| {
            let (a, b) = (q[0] / s1, q[1] / s2);
            let lp = -0.5 * (a * a - 2.0 * r * a * b + b * b) / det;
            let ga = -(a - r * b) / det / s1;
            let gb = -(b - r * a) / det / s2;
            (lp, vec![ga, gb])
        };
        let per_iter = sampling_grads_per_iter(&target, vec![0.5, -0.5]);
        assert!(per_iter < 8.0, "{per_iter} gradients per iteration");
        let res = nuts_sample_mut(
            &mut &target,
            vec![0.5, -0.5],
            &NutsConfig {
                warmup: 500,
                samples: 2000,
                seed: 12,
                ..Default::default()
            },
        );
        let summary = summarize(&res.draws);
        assert!((summary[0].stddev - s1).abs() < 0.1 * s1);
        assert!((summary[1].stddev - s2).abs() < 0.1 * s2);
    }

    #[test]
    fn past_the_dense_bound_the_metric_is_diagonal() {
        let dim = DENSE_METRIC_MAX_DIM + 1;
        let metric = Metric::identity(dim);
        assert!(!metric.dense);
        assert_eq!(metric.inv.len(), dim);
        assert_eq!(metric.factor.len(), dim);
        assert_eq!(Welford::new(&metric).m2.len(), dim);
        assert!(Metric::identity(DENSE_METRIC_MAX_DIM).dense);

        // Independent scales 0.5 .. 2: the diagonal metric adapts to them.
        let scale = |i: usize| 0.5 + 1.5 * i as f64 / (dim - 1) as f64;
        let target = move |q: &[f64]| {
            let lp = q
                .iter()
                .enumerate()
                .map(|(i, x)| -0.5 * (x / scale(i)).powi(2))
                .sum();
            let g = q
                .iter()
                .enumerate()
                .map(|(i, x)| -x / scale(i).powi(2))
                .collect();
            (lp, g)
        };
        let cfg = NutsConfig {
            warmup: 300,
            samples: 300,
            seed: 4,
            ..Default::default()
        };
        let res = nuts_sample_mut(&mut &target, vec![0.0; dim], &cfg);
        assert_eq!(res.draws.len(), 300);
        assert_eq!(res.divergences, 0);
        let summary = summarize(&res.draws);
        let mean_ratio = summary
            .iter()
            .enumerate()
            .map(|(i, s)| s.stddev / scale(i))
            .sum::<f64>()
            / dim as f64;
        assert!((mean_ratio - 1.0).abs() < 0.1, "{mean_ratio}");
    }
}
