//! Batched ("sweep") log-density kernels for element-wise observation sites.
//!
//! The scalar scoring path evaluates `x[i] ~ dist(args...)` one element at a
//! time: each element constructs a [`crate::Dist`], runs [`crate::Dist::lpdf`]
//! in the generic scalar type, and — on the gradient path — records several
//! tape nodes per element. [`lpdf_sweep`] evaluates the *whole* sweep in one
//! pass: the primal sum is computed in plain `f64` (using exactly the same
//! formulas and accumulation order as the scalar path, so the two agree to
//! rounding), and the reverse rule is analytic per kernel, recorded as a
//! single fused multi-parent tape node ([`minidiff::Real::fused`]) with one
//! entry per *tracked* input. A sweep of N elements therefore contributes
//! O(#tracked parents) tape entries instead of O(N · ops-per-lpdf) nodes.
//!
//! Supported families (the corpus' element-wise likelihoods): normal,
//! lognormal, bernoulli, bernoulli_logit, poisson, poisson_log, exponential,
//! cauchy, student_t, beta, gamma, binomial and binomial_logit. Everything
//! else reports `false` from [`supports_sweep`] and callers fall back to the
//! scalar path.
//!
//! Besides the fused-sum kernel ([`lpdf_sweep`]), the module exposes the
//! per-element form [`lpdf_elems`], which writes each element's log density
//! into a caller-owned slice. That is the kernel behind pointwise
//! log-likelihood collection (`generated quantities` rows feeding
//! PSIS-LOO / WAIC), where the *vector* of log densities is the result and
//! no gradient is ever needed.
//!
//! Broadcasting follows Stan's vectorized sampling statements: each argument
//! is either one scalar shared by every element ([`SweepArg::Scalar`]) or a
//! slice with one value per element ([`SweepArg::Reals`] / [`SweepArg::Ints`]).

use minidiff::special;
use minidiff::Real;

use crate::dist::{DistError, DistKind};

/// The observed values of one batched site, borrowed as a contiguous slice
/// (no per-element indexing or cloning).
#[derive(Debug, Clone, Copy)]
pub enum SweepVals<'a, T: Real> {
    /// Real observations; elements may be gradient-tracked (e.g. a model
    /// parameter vector observed by the comprehensive translation).
    Reals(&'a [T]),
    /// Integer observations (data; never tracked).
    Ints(&'a [i64]),
}

impl<T: Real> SweepVals<'_, T> {
    /// Number of elements in the sweep.
    pub fn len(&self) -> usize {
        match self {
            SweepVals::Reals(v) => v.len(),
            SweepVals::Ints(v) => v.len(),
        }
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        match self {
            SweepVals::Reals(v) => v[i].value(),
            SweepVals::Ints(v) => v[i] as f64,
        }
    }

    #[inline]
    fn tracked(&self, i: usize) -> Option<T> {
        match self {
            SweepVals::Reals(v) if v[i].is_tracked_value() => Some(v[i]),
            _ => None,
        }
    }
}

/// One distribution argument of a batched site: a scalar broadcast across
/// the sweep, or one value per element.
#[derive(Debug, Clone, Copy)]
pub enum SweepArg<'a, T: Real> {
    /// A scalar shared by every element.
    Scalar(T),
    /// One real value per element (length must equal the sweep length).
    Reals(&'a [T]),
    /// One integer value per element (length must equal the sweep length).
    Ints(&'a [i64]),
}

impl<T: Real> SweepArg<'_, T> {
    /// The per-element slice length, or `None` for a scalar broadcast.
    fn slice_len(&self) -> Option<usize> {
        match self {
            SweepArg::Scalar(_) => None,
            SweepArg::Reals(v) => Some(v.len()),
            SweepArg::Ints(v) => Some(v.len()),
        }
    }

    #[inline]
    fn value(&self, i: usize) -> f64 {
        match self {
            SweepArg::Scalar(v) => v.value(),
            SweepArg::Reals(v) => v[i].value(),
            SweepArg::Ints(v) => v[i] as f64,
        }
    }
}

/// Whether [`lpdf_sweep`] has a batched kernel (with an analytic reverse
/// rule) for this family.
pub fn supports_sweep(kind: DistKind) -> bool {
    matches!(
        kind,
        DistKind::Normal
            | DistKind::LogNormal
            | DistKind::Bernoulli
            | DistKind::BernoulliLogit
            | DistKind::Poisson
            | DistKind::PoissonLog
            | DistKind::Exponential
            | DistKind::Cauchy
            | DistKind::StudentT
            | DistKind::Beta
            | DistKind::Gamma
            | DistKind::Binomial
            | DistKind::BinomialLogit
            | DistKind::Uniform
            | DistKind::DoubleExponential
            | DistKind::InvGamma
            | DistKind::ChiSquare
    )
}

/// Whether [`lpdf_elem_value`] / [`lpdf_elem_partials_only`] have a scalar
/// kernel for this family — the sweep set plus `improper_uniform` (the
/// comprehensive scheme's synthetic prior, which never appears in a source
/// observation loop but is scored by the tape-free density programs of
/// `gprob::dprog`).
pub fn supports_elem(kind: DistKind) -> bool {
    supports_sweep(kind) || kind == DistKind::ImproperUniform
}

/// Number of distribution arguments the kernel consumes.
pub fn sweep_arity(kind: DistKind) -> usize {
    match kind {
        DistKind::Normal
        | DistKind::LogNormal
        | DistKind::Cauchy
        | DistKind::Beta
        | DistKind::Gamma
        | DistKind::Binomial
        | DistKind::BinomialLogit
        | DistKind::Uniform
        | DistKind::DoubleExponential
        | DistKind::InvGamma
        | DistKind::ImproperUniform => 2,
        DistKind::StudentT => 3,
        _ => 1,
    }
}

/// The additive constant of the normal log density for one scale value:
/// `-½·ln(2π) - ln(sigma)`. Callers that score many elements against the
/// *same* sigma hoist this out of their loops; [`normal_lpdf_from_const`]
/// then finishes each element with exactly the association the scalar
/// kernel uses, so the hoisted evaluation is bitwise identical to calling
/// [`lpdf_elem_value`] per element.
#[inline(always)]
pub fn normal_lpdf_const(sigma: f64) -> f64 {
    let half_log_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    -half_log_2pi - sigma.ln()
}

/// One normal log density given the pre-hoisted constant of
/// [`normal_lpdf_const`] — the only transcendental-free piece left per
/// element (`z = (x-mu)/sigma; c - 0.5·z·z`).
#[inline(always)]
pub fn normal_lpdf_from_const(c: f64, x: f64, mu: f64, sigma: f64) -> f64 {
    let z = (x - mu) / sigma;
    c - 0.5 * z * z
}

/// The normal kernel's analytic partials alone, `(∂/∂x, ∂/∂mu, ∂/∂sigma)`,
/// skipping the log-density value (and with it the per-element `ln`).
/// Formulas match the full normal kernel exactly.
#[inline(always)]
pub fn normal_partials_only(x: f64, mu: f64, sigma: f64) -> (f64, f64, f64) {
    let z = (x - mu) / sigma;
    let dmu = z / sigma;
    (-dmu, dmu, (z * z - 1.0) / sigma)
}

/// The normal family's elem kernel, shared verbatim between the scalar
/// dispatch ([`elem`]) and the lane-specialized entry points so every path
/// computes identical bits.
#[inline(always)]
fn normal_elem(x: f64, mu: f64, sigma: f64, want: bool) -> (f64, f64, [f64; 3]) {
    let lp = normal_lpdf_from_const(normal_lpdf_const(sigma), x, mu, sigma);
    if !want {
        return (lp, 0.0, [0.0; 3]);
    }
    let (dx, dmu, ds) = normal_partials_only(x, mu, sigma);
    (lp, dx, [dmu, ds, 0.0])
}

/// The Cauchy kernel's analytic partials alone, `(∂/∂x, ∂/∂loc, ∂/∂scale)`
/// — no logarithms at all (they only appear in the density value).
#[inline(always)]
fn cauchy_partials_only(x: f64, loc: f64, scale: f64) -> (f64, f64, f64) {
    let z = (x - loc) / scale;
    let u = 1.0 + z * z;
    let dx = -2.0 * z / (u * scale);
    (dx, -dx, (z * z - 1.0) / (u * scale))
}

/// The Cauchy elem kernel (see [`normal_elem`] for the sharing rationale).
#[inline(always)]
fn cauchy_elem(x: f64, loc: f64, scale: f64, want: bool) -> (f64, f64, [f64; 3]) {
    let z = (x - loc) / scale;
    let lp = -(std::f64::consts::PI).ln() - scale.ln() - (1.0 + z * z).ln();
    if !want {
        return (lp, 0.0, [0.0; 3]);
    }
    let (dx, dloc, dscale) = cauchy_partials_only(x, loc, scale);
    (lp, dx, [dloc, dscale, 0.0])
}

/// The Bernoulli-logit kernel's `∂lpdf/∂logit` alone — one sigmoid, no
/// softplus (that only feeds the density value). Out-of-support rounds to
/// zero, matching [`bernoulli_logit_elem`].
#[inline(always)]
fn bernoulli_logit_dlogit(x: f64, l: f64) -> f64 {
    let k = x.round();
    if k == 1.0 {
        special::sigmoid(-l)
    } else if k == 0.0 {
        -special::sigmoid(l)
    } else {
        0.0
    }
}

/// The Bernoulli-logit elem kernel (see [`normal_elem`]).
#[inline(always)]
fn bernoulli_logit_elem(x: f64, l: f64, want: bool) -> (f64, f64, [f64; 3]) {
    let k = x.round();
    if k == 1.0 {
        (
            -special::softplus(-l),
            0.0,
            [if want { special::sigmoid(-l) } else { 0.0 }, 0.0, 0.0],
        )
    } else if k == 0.0 {
        (
            -special::softplus(l),
            0.0,
            [if want { -special::sigmoid(l) } else { 0.0 }, 0.0, 0.0],
        )
    } else {
        (f64::NEG_INFINITY, 0.0, [0.0; 3])
    }
}

/// The Bernoulli kernel's `∂lpmf/∂p` alone (zero out of support).
#[inline(always)]
fn bernoulli_dp(x: f64, p: f64) -> f64 {
    let k = x.round();
    if k == 1.0 {
        1.0 / p
    } else if k == 0.0 {
        -1.0 / (1.0 - p)
    } else {
        0.0
    }
}

/// The Bernoulli log mass given both logs of its probability, `ln p` and
/// `ln(1-p)`. Callers that score many elements against one `p` take the
/// logs once; the scalar kernel selects exactly `p.ln()` or
/// `(1.0 - p).ln()`, so the hoisted form is bitwise identical.
#[inline(always)]
pub fn bernoulli_lpmf_from_logs(x: f64, ln_p: f64, ln_1mp: f64) -> f64 {
    let k = x.round();
    if k == 1.0 {
        ln_p
    } else if k == 0.0 {
        ln_1mp
    } else {
        f64::NEG_INFINITY
    }
}

/// The binomial log mass of `x` successes in `n` trials given both logs
/// of the probability (see [`bernoulli_lpmf_from_logs`]); the scalar
/// kernel evaluates this very function. `n` arrives as an untracked int
/// (or rounded real) argument, matching `dist_from_kind`'s construction.
#[inline(always)]
pub fn binomial_lpmf_from_logs(x: f64, n: f64, ln_p: f64, ln_1mp: f64) -> f64 {
    let (n, k) = (n.round(), x.round());
    if k < 0.0 || k > n {
        return f64::NEG_INFINITY;
    }
    let log_choose =
        special::lgamma(n + 1.0) - special::lgamma(k + 1.0) - special::lgamma(n - k + 1.0);
    log_choose + k * ln_p + (n - k) * ln_1mp
}

/// The binomial kernel's `∂lpmf/∂p` alone — no log-gamma terms (they
/// only feed the mass itself); zero out of support.
#[inline(always)]
fn binomial_dp(x: f64, n: f64, p: f64) -> f64 {
    let (n, k) = (n.round(), x.round());
    if k < 0.0 || k > n {
        0.0
    } else {
        k / p - (n - k) / (1.0 - p)
    }
}

/// One element's log density plus its analytic partials, all in `f64`.
///
/// Returns `(lpdf, d lpdf/dx, [d lpdf/d argj; 3])`. Partials are computed
/// only when `want` is set (the `f64` density path skips them); elements
/// outside the support contribute `-inf` with zero partials, matching the
/// scalar path where the `-inf` is an untracked constant.
#[inline]
fn elem(kind: DistKind, x: f64, a: &[f64; 3], want: bool) -> (f64, f64, [f64; 3]) {
    let neg_inf = f64::NEG_INFINITY;
    let zero = (0.0, 0.0, [0.0; 3]);
    let half_log_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    match kind {
        DistKind::Normal => normal_elem(x, a[0], a[1], want),
        DistKind::LogNormal => {
            let (mu, sigma) = (a[0], a[1]);
            if x <= 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lx = x.ln();
            let z = (lx - mu) / sigma;
            let lp = -half_log_2pi - sigma.ln() - lx - 0.5 * z * z;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            let dmu = z / sigma;
            (
                lp,
                -(1.0 + z / sigma) / x,
                [dmu, (z * z - 1.0) / sigma, 0.0],
            )
        }
        DistKind::Bernoulli => {
            // Only the selected log is taken (see `bernoulli_lpmf_from_logs`).
            let p = a[0];
            let k = x.round();
            let lp = if k == 1.0 {
                p.ln()
            } else if k == 0.0 {
                (1.0 - p).ln()
            } else {
                neg_inf
            };
            (
                lp,
                0.0,
                [if want { bernoulli_dp(x, p) } else { 0.0 }, 0.0, 0.0],
            )
        }
        DistKind::BernoulliLogit => bernoulli_logit_elem(x, a[0], want),
        DistKind::Poisson => {
            let rate = a[0];
            let k = x.round();
            if k < 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lp = k * rate.ln() - rate - special::lgamma(k + 1.0);
            (lp, 0.0, [if want { k / rate - 1.0 } else { 0.0 }, 0.0, 0.0])
        }
        DistKind::PoissonLog => {
            let eta = a[0];
            let k = x.round();
            if k < 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lp = k * eta - eta.exp() - special::lgamma(k + 1.0);
            (lp, 0.0, [if want { k - eta.exp() } else { 0.0 }, 0.0, 0.0])
        }
        DistKind::Exponential => {
            let rate = a[0];
            if x < 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lp = rate.ln() - rate * x;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            (lp, -rate, [1.0 / rate - x, 0.0, 0.0])
        }
        DistKind::Cauchy => cauchy_elem(x, a[0], a[1], want),
        DistKind::StudentT => {
            let (nu, loc, scale) = (a[0], a[1], a[2]);
            let z = (x - loc) / scale;
            let u = 1.0 + z * z / nu;
            let lp = special::lgamma((nu + 1.0) * 0.5)
                - special::lgamma(nu * 0.5)
                - 0.5 * (nu * std::f64::consts::PI).ln()
                - scale.ln()
                - (nu + 1.0) * 0.5 * u.ln();
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            let dz = -(nu + 1.0) * z / (nu * u);
            let dx = dz / scale;
            let dnu = 0.5 * (special::digamma((nu + 1.0) * 0.5) - special::digamma(nu * 0.5))
                - 0.5 / nu
                - 0.5 * u.ln()
                + (nu + 1.0) * z * z / (2.0 * nu * nu * u);
            (
                lp,
                dx,
                [dnu, -dx, (-1.0 + (nu + 1.0) * z * z / (nu * u)) / scale],
            )
        }
        DistKind::Beta => {
            let (a0, b0) = (a[0], a[1]);
            if !(0.0..=1.0).contains(&x) {
                return (neg_inf, zero.1, zero.2);
            }
            let log_beta = special::lgamma(a0) + special::lgamma(b0) - special::lgamma(a0 + b0);
            let lp = (a0 - 1.0) * x.ln() + (b0 - 1.0) * (1.0 - x).ln() - log_beta;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            let dab = special::digamma(a0 + b0);
            (
                lp,
                (a0 - 1.0) / x - (b0 - 1.0) / (1.0 - x),
                [
                    x.ln() - special::digamma(a0) + dab,
                    (1.0 - x).ln() - special::digamma(b0) + dab,
                    0.0,
                ],
            )
        }
        DistKind::Gamma => {
            let (shape, rate) = (a[0], a[1]);
            if x <= 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lp = shape * rate.ln() - special::lgamma(shape) + (shape - 1.0) * x.ln() - rate * x;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            (
                lp,
                (shape - 1.0) / x - rate,
                [
                    rate.ln() - special::digamma(shape) + x.ln(),
                    shape / rate - x,
                    0.0,
                ],
            )
        }
        DistKind::Binomial => {
            // n's partial is zero (an untracked count).
            let (n, p) = (a[0], a[1]);
            let lp = binomial_lpmf_from_logs(x, n, p.ln(), (1.0 - p).ln());
            (
                lp,
                0.0,
                [0.0, if want { binomial_dp(x, n, p) } else { 0.0 }, 0.0],
            )
        }
        DistKind::BinomialLogit => {
            let (n, l) = (a[0].round(), a[1]);
            let k = x.round();
            if k < 0.0 || k > n {
                return (neg_inf, zero.1, zero.2);
            }
            let log_choose =
                special::lgamma(n + 1.0) - special::lgamma(k + 1.0) - special::lgamma(n - k + 1.0);
            let lp = log_choose - k * special::softplus(-l) - (n - k) * special::softplus(l);
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            (lp, 0.0, [0.0, k - n * special::sigmoid(l), 0.0])
        }
        DistKind::Uniform => {
            let (lo, hi) = (a[0], a[1]);
            if x < lo || x > hi {
                return (neg_inf, zero.1, zero.2);
            }
            let lp = -((hi - lo).ln());
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            let w = 1.0 / (hi - lo);
            (lp, 0.0, [w, -w, 0.0])
        }
        DistKind::ImproperUniform => {
            // Constant density on the (possibly unbounded) interval; the
            // partials are identically zero, matching the scalar path where
            // the 0 / -inf result is an untracked constant.
            let (lo, hi) = (a[0], a[1]);
            if x < lo || x > hi {
                (neg_inf, zero.1, zero.2)
            } else {
                (0.0, 0.0, [0.0; 3])
            }
        }
        DistKind::DoubleExponential => {
            let (loc, scale) = (a[0], a[1]);
            let lp = -(2.0 * scale).ln() - (x - loc).abs() / scale;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            // Sub-gradient 0 at x == loc, exactly as `Var::abs` records it.
            let s = if x > loc {
                1.0
            } else if x < loc {
                -1.0
            } else {
                0.0
            };
            (
                lp,
                -s / scale,
                [
                    s / scale,
                    -1.0 / scale + (x - loc).abs() / (scale * scale),
                    0.0,
                ],
            )
        }
        DistKind::InvGamma => {
            let (shape, scale) = (a[0], a[1]);
            if x <= 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let lp =
                shape * scale.ln() - special::lgamma(shape) - (shape + 1.0) * x.ln() - scale / x;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            (
                lp,
                -(shape + 1.0) / x + scale / (x * x),
                [
                    scale.ln() - special::digamma(shape) - x.ln(),
                    shape / scale - 1.0 / x,
                    0.0,
                ],
            )
        }
        DistKind::ChiSquare => {
            let nu = a[0];
            if x <= 0.0 {
                return (neg_inf, zero.1, zero.2);
            }
            let half_nu = nu * 0.5;
            let lp = -half_nu * 2f64.ln() - special::lgamma(half_nu) + (half_nu - 1.0) * x.ln()
                - 0.5 * x;
            if !want {
                return (lp, 0.0, [0.0; 3]);
            }
            (
                lp,
                (half_nu - 1.0) / x - 0.5,
                [
                    -0.5 * 2f64.ln() - 0.5 * special::digamma(half_nu) + 0.5 * x.ln(),
                    0.0,
                    0.0,
                ],
            )
        }
        _ => (f64::NAN, 0.0, [0.0; 3]),
    }
}

/// One element's log density only (no partials) — the forward half of the
/// tape-free density programs of `gprob::dprog`, whose reverse half is
/// [`lpdf_elem_partials_only`].
#[inline]
pub fn lpdf_elem_value(kind: DistKind, x: f64, args: &[f64; 3]) -> Option<f64> {
    if !supports_elem(kind) {
        return None;
    }
    Some(elem(kind, x, args, false).0)
}

/// Lane-widened form of [`lpdf_elem_value`]: scores `L` independent points
/// of the *same* element position in one call. `xs[l]` is lane `l`'s
/// observation and `args[j][l]` lane `l`'s `j`-th distribution argument, so
/// a struct-of-arrays register file (`gprob::dprog`'s lane evaluation) feeds
/// its rows straight in. Each lane runs exactly the scalar kernel — same
/// formulas, same order — so lane `l`'s result is bitwise the value a
/// single-point evaluation of that lane would produce.
#[inline]
pub fn lpdf_elem_value_lanes<const L: usize>(
    kind: DistKind,
    xs: &[f64; L],
    args: &[[f64; L]; 3],
) -> Option<[f64; L]> {
    if !supports_elem(kind) {
        return None;
    }
    let mut out = [0.0; L];
    // Dispatch once for the hot families; each lane still runs exactly the
    // scalar kernel (the shared `*_elem` functions), so the specialization
    // only hoists the family match out of the lane loop.
    match kind {
        DistKind::Normal => {
            for l in 0..L {
                out[l] = normal_elem(xs[l], args[0][l], args[1][l], false).0;
            }
        }
        DistKind::Cauchy => {
            for l in 0..L {
                out[l] = cauchy_elem(xs[l], args[0][l], args[1][l], false).0;
            }
        }
        DistKind::BernoulliLogit => {
            for l in 0..L {
                out[l] = bernoulli_logit_elem(xs[l], args[0][l], false).0;
            }
        }
        _ => {
            for l in 0..L {
                let a = [args[0][l], args[1][l], args[2][l]];
                out[l] = elem(kind, xs[l], &a, false).0;
            }
        }
    }
    Some(out)
}

/// One element's analytic partials **without** the log-density value,
/// `(∂lpdf/∂x, [∂lpdf/∂argⱼ; 3])`, or `None` for families without a kernel
/// ([`supports_elem`] is the guard): the `L = 1` instance of
/// [`lpdf_elem_partials_only_lanes`], and the scalar reverse rule of the
/// tape-free density programs of `gprob::dprog`.
#[inline]
pub fn lpdf_elem_partials_only(kind: DistKind, x: f64, args: &[f64; 3]) -> Option<(f64, [f64; 3])> {
    let (dx, dp) =
        lpdf_elem_partials_only_lanes::<1>(kind, &[x], &[[args[0]], [args[1]], [args[2]]])?;
    Some((dx[0], [dp[0][0], dp[1][0], dp[2][0]]))
}

/// Lane-widened analytic partials **without** the log-density value — the
/// reverse sweeps of `gprob::dprog` never consume it, and for the hot
/// families the value is where the transcendentals live (`ln` for normal
/// and Cauchy, `softplus` for Bernoulli-logit, `lgamma` for binomial).
/// Partial formulas are exactly the full kernel's (the same helper
/// functions), so every adjoint produced here is bitwise the one the
/// fused tape node records; other families run the full kernel and simply
/// discard the value.
#[inline]
#[allow(clippy::type_complexity)]
pub fn lpdf_elem_partials_only_lanes<const L: usize>(
    kind: DistKind,
    xs: &[f64; L],
    args: &[[f64; L]; 3],
) -> Option<([f64; L], [[f64; L]; 3])> {
    if !supports_elem(kind) {
        return None;
    }
    let mut dx = [0.0; L];
    let mut dp = [[0.0; L]; 3];
    match kind {
        DistKind::Normal => {
            for l in 0..L {
                let (d, dmu, ds) = normal_partials_only(xs[l], args[0][l], args[1][l]);
                dx[l] = d;
                dp[0][l] = dmu;
                dp[1][l] = ds;
            }
        }
        DistKind::Cauchy => {
            for l in 0..L {
                let (d, dloc, dscale) = cauchy_partials_only(xs[l], args[0][l], args[1][l]);
                dx[l] = d;
                dp[0][l] = dloc;
                dp[1][l] = dscale;
            }
        }
        DistKind::BernoulliLogit => {
            for l in 0..L {
                dp[0][l] = bernoulli_logit_dlogit(xs[l], args[0][l]);
            }
        }
        DistKind::Bernoulli => {
            for l in 0..L {
                dp[0][l] = bernoulli_dp(xs[l], args[0][l]);
            }
        }
        DistKind::Binomial => {
            for l in 0..L {
                dp[1][l] = binomial_dp(xs[l], args[0][l], args[1][l]);
            }
        }
        _ => {
            for l in 0..L {
                let a = [args[0][l], args[1][l], args[2][l]];
                let (_, d, p) = elem(kind, xs[l], &a, true);
                dx[l] = d;
                dp[0][l] = p[0];
                dp[1][l] = p[1];
                dp[2][l] = p[2];
            }
        }
    }
    Some((dx, dp))
}

/// Argument operands pre-resolved for the `f64` hot loops: scalars collapse
/// to their value once, per-element slices are cut to exactly the sweep
/// length up front. The per-element loops then index windows whose length
/// the optimizer has already compared against the loop bound, so the bounds
/// checks vanish from the kernels.
#[derive(Clone, Copy)]
enum ArgWindow<'a, T: Real> {
    Scalar(f64),
    Reals(&'a [T]),
    Ints(&'a [i64]),
}

impl<T: Real> ArgWindow<'_, T> {
    #[inline]
    fn value(&self, i: usize) -> f64 {
        match self {
            ArgWindow::Scalar(v) => *v,
            ArgWindow::Reals(v) => v[i].value(),
            ArgWindow::Ints(v) => v[i] as f64,
        }
    }
}

/// Cuts every per-element argument to `[..n]` (validated beforehand) and
/// resolves scalar broadcasts. Slots beyond `args.len()` read as 0.0, like
/// the untouched tail of the old reused `abuf`.
#[inline]
fn arg_windows<'a, T: Real>(args: &[SweepArg<'a, T>], n: usize) -> [ArgWindow<'a, T>; 3] {
    let mut out = [ArgWindow::Scalar(0.0); 3];
    for (j, a) in args.iter().enumerate() {
        out[j] = match a {
            SweepArg::Scalar(v) => ArgWindow::Scalar(v.value()),
            SweepArg::Reals(v) => ArgWindow::Reals(&v[..n]),
            SweepArg::Ints(v) => ArgWindow::Ints(&v[..n]),
        };
    }
    out
}

/// Sum of element-wise log densities of a batched observation site, with
/// the analytic fused reverse rule on the gradient path.
///
/// Semantically identical to scoring each element through
/// [`crate::dist_from_kind`] + [`crate::Dist::lpdf`] and summing in element
/// order; for `T = f64` no gradient bookkeeping happens at all, and for
/// tracked scalars the result is one fused tape node.
///
/// # Errors
/// Reports unsupported families ([`supports_sweep`] is the caller's guard),
/// missing arguments, and per-element argument slices whose length does not
/// match the sweep length.
pub fn lpdf_sweep<T: Real>(
    kind: DistKind,
    xs: SweepVals<'_, T>,
    args: &[SweepArg<'_, T>],
) -> Result<T, DistError> {
    if !supports_sweep(kind) {
        return Err(DistError::new(format!(
            "{}: no batched sweep kernel",
            kind.name()
        )));
    }
    let k = sweep_arity(kind);
    if args.len() < k {
        return Err(DistError::new(format!(
            "{}: expected {k} arguments, got {}",
            kind.name(),
            args.len()
        )));
    }
    let args = &args[..k];
    let n = xs.len();
    for a in args {
        if let Some(len) = a.slice_len() {
            if len != n {
                return Err(DistError::new(format!(
                    "broadcast length mismatch in {}: {len} vs {n}",
                    kind.name()
                )));
            }
        }
    }

    let mut abuf = [0f64; 3];
    let mut sum = 0.0f64;

    if !T::TRACKED {
        // f64 fast path: zipped slice windows instead of per-element indexed
        // access — same formulas and accumulation order, no bounds checks.
        let aw = arg_windows(args, n);
        match xs {
            SweepVals::Reals(v) => {
                for (i, x) in v[..n].iter().enumerate() {
                    let ab = [aw[0].value(i), aw[1].value(i), aw[2].value(i)];
                    sum += elem(kind, x.value(), &ab, false).0;
                }
            }
            SweepVals::Ints(v) => {
                for (i, &x) in v[..n].iter().enumerate() {
                    let ab = [aw[0].value(i), aw[1].value(i), aw[2].value(i)];
                    sum += elem(kind, x as f64, &ab, false).0;
                }
            }
        }
        return Ok(T::from_f64(sum));
    }

    // Gradient path: accumulate one (parent, partial) pair per tracked
    // input. Scalar-broadcast arguments get one slot whose partial sums over
    // the sweep; per-element inputs get one slot per tracked element.
    let mut parents: Vec<T> = Vec::with_capacity(k + 2 * n);
    let mut partials: Vec<f64> = Vec::with_capacity(k + 2 * n);
    let mut scalar_slot = [usize::MAX; 3];
    for (j, a) in args.iter().enumerate() {
        if let SweepArg::Scalar(v) = a {
            if v.is_tracked_value() {
                scalar_slot[j] = parents.len();
                parents.push(*v);
                partials.push(0.0);
            }
        }
    }
    for i in 0..n {
        for (j, a) in args.iter().enumerate() {
            abuf[j] = a.value(i);
        }
        let (lp, dx, dp) = elem(kind, xs.value(i), &abuf, true);
        sum += lp;
        if let Some(p) = xs.tracked(i) {
            parents.push(p);
            partials.push(dx);
        }
        for (j, a) in args.iter().enumerate() {
            match a {
                SweepArg::Scalar(_) => {
                    let s = scalar_slot[j];
                    if s != usize::MAX {
                        partials[s] += dp[j];
                    }
                }
                SweepArg::Reals(v) => {
                    if v[i].is_tracked_value() {
                        parents.push(v[i]);
                        partials.push(dp[j]);
                    }
                }
                SweepArg::Ints(_) => {}
            }
        }
    }
    Ok(T::fused(sum, &parents, &partials))
}

/// Per-element log densities of a batched site, written into `out` — the
/// pointwise form of [`lpdf_sweep`], used to collect log-likelihood rows
/// (`log_lik[i] = dist_lpdf(y[i] | ...)`) for model criticism without a
/// per-element distribution construction or interpreter dispatch.
///
/// Evaluation is plain `f64` (generated quantities never carry gradients).
/// Element `i` of `out` receives exactly the value the scalar path computes
/// for `dist_lpdf(xs[i] | args[i])`.
///
/// # Errors
/// Same argument validation as [`lpdf_sweep`], plus an error when `out` is
/// not exactly the sweep length.
pub fn lpdf_elems(
    kind: DistKind,
    xs: SweepVals<'_, f64>,
    args: &[SweepArg<'_, f64>],
    out: &mut [f64],
) -> Result<(), DistError> {
    if !supports_sweep(kind) {
        return Err(DistError::new(format!(
            "{}: no batched sweep kernel",
            kind.name()
        )));
    }
    let k = sweep_arity(kind);
    if args.len() < k {
        return Err(DistError::new(format!(
            "{}: expected {k} arguments, got {}",
            kind.name(),
            args.len()
        )));
    }
    let args = &args[..k];
    let n = xs.len();
    if out.len() != n {
        return Err(DistError::new(format!(
            "lpdf_elems output length mismatch: {} vs {n}",
            out.len()
        )));
    }
    for a in args {
        if let Some(len) = a.slice_len() {
            if len != n {
                return Err(DistError::new(format!(
                    "broadcast length mismatch in {}: {len} vs {n}",
                    kind.name()
                )));
            }
        }
    }
    let aw = arg_windows(args, n);
    match xs {
        SweepVals::Reals(v) => {
            for (i, (slot, x)) in out.iter_mut().zip(&v[..n]).enumerate() {
                let ab = [aw[0].value(i), aw[1].value(i), aw[2].value(i)];
                *slot = elem(kind, x.value(), &ab, false).0;
            }
        }
        SweepVals::Ints(v) => {
            for (i, (slot, &x)) in out.iter_mut().zip(&v[..n]).enumerate() {
                let ab = [aw[0].value(i), aw[1].value(i), aw[2].value(i)];
                *slot = elem(kind, x as f64, &ab, false).0;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{dist_from_kind, DistArg};
    use minidiff::{grad, tape, Var};

    const KINDS: [DistKind; 17] = [
        DistKind::Normal,
        DistKind::LogNormal,
        DistKind::Bernoulli,
        DistKind::BernoulliLogit,
        DistKind::Poisson,
        DistKind::PoissonLog,
        DistKind::Exponential,
        DistKind::Cauchy,
        DistKind::StudentT,
        DistKind::Beta,
        DistKind::Gamma,
        DistKind::Binomial,
        DistKind::BinomialLogit,
        DistKind::Uniform,
        DistKind::DoubleExponential,
        DistKind::InvGamma,
        DistKind::ChiSquare,
    ];

    /// In-support observations and arguments for each kind.
    fn case(kind: DistKind) -> (Vec<f64>, Vec<f64>) {
        match kind {
            DistKind::Normal => (vec![0.3, -1.2, 2.5, 0.0], vec![0.4, 1.3]),
            DistKind::LogNormal => (vec![0.7, 2.1, 0.05, 3.3], vec![-0.2, 0.8]),
            DistKind::Bernoulli => (vec![1.0, 0.0, 1.0, 1.0], vec![0.37]),
            DistKind::BernoulliLogit => (vec![0.0, 1.0, 0.0, 1.0], vec![-0.6]),
            DistKind::Poisson => (vec![0.0, 3.0, 7.0, 1.0], vec![2.4]),
            DistKind::PoissonLog => (vec![2.0, 0.0, 5.0, 1.0], vec![0.9]),
            DistKind::Exponential => (vec![0.1, 2.2, 0.9, 4.0], vec![1.7]),
            DistKind::Cauchy => (vec![0.0, -3.0, 1.5, 9.0], vec![0.4, 2.1]),
            DistKind::StudentT => (vec![0.2, -1.0, 4.0, 0.9], vec![4.0, 0.5, 1.8]),
            DistKind::Beta => (vec![0.2, 0.55, 0.9, 0.31], vec![2.0, 3.5]),
            DistKind::Gamma => (vec![0.4, 2.2, 1.1, 5.0], vec![3.0, 2.0]),
            DistKind::Binomial => (vec![3.0, 0.0, 7.0, 10.0], vec![10.0, 0.35]),
            DistKind::BinomialLogit => (vec![2.0, 9.0, 5.0, 0.0], vec![10.0, -0.4]),
            DistKind::Uniform => (vec![0.2, 1.9, 0.8, 1.1], vec![-0.5, 2.5]),
            DistKind::DoubleExponential => (vec![0.3, -2.1, 1.4, 0.0], vec![0.2, 1.3]),
            DistKind::InvGamma => (vec![0.6, 2.4, 1.0, 4.2], vec![3.0, 2.5]),
            DistKind::ChiSquare => (vec![0.5, 2.0, 4.8, 1.3], vec![3.0]),
            other => panic!("no sweep test case for {}", other.name()),
        }
    }

    fn scalar_sum(kind: DistKind, xs: &[f64], a: &[f64]) -> f64 {
        let args: Vec<DistArg<f64>> = a.iter().map(|&v| DistArg::Scalar(v)).collect();
        let d = dist_from_kind(kind, &args).unwrap();
        xs.iter().map(|&x| d.lpdf(x).unwrap()).sum()
    }

    #[test]
    fn sweep_values_match_the_scalar_path_for_every_kernel() {
        for kind in KINDS {
            let (xs, a) = case(kind);
            let sargs: Vec<SweepArg<f64>> = a.iter().map(|&v| SweepArg::Scalar(v)).collect();
            let got = lpdf_sweep(kind, SweepVals::Reals(&xs), &sargs).unwrap();
            let want = scalar_sum(kind, &xs, &a);
            assert!(
                (got - want).abs() < 1e-12,
                "{}: {got} vs {want}",
                kind.name()
            );
        }
    }

    #[test]
    fn sweep_gradients_match_the_tape_for_scalar_args() {
        for kind in KINDS {
            let (xs, a) = case(kind);
            // Fused path.
            tape::reset();
            let avars: Vec<Var> = a.iter().map(|&v| Var::new(v)).collect();
            let sargs: Vec<SweepArg<Var>> = avars.iter().map(|&v| SweepArg::Scalar(v)).collect();
            let xvars: Vec<Var> = xs.iter().map(|&x| Var::constant(x)).collect();
            let fused = lpdf_sweep(kind, SweepVals::Reals(&xvars), &sargs).unwrap();
            let fused_grad = grad(fused, &avars);
            // Scalar tape path.
            tape::reset();
            let avars2: Vec<Var> = a.iter().map(|&v| Var::new(v)).collect();
            let dargs: Vec<DistArg<Var>> = avars2.iter().map(|&v| DistArg::Scalar(v)).collect();
            let d = dist_from_kind(kind, &dargs).unwrap();
            let mut acc = Var::constant(0.0);
            for &x in &xs {
                acc = acc + d.lpdf(Var::constant(x)).unwrap();
            }
            let tape_grad = grad(acc, &avars2);
            assert!(
                (fused.value() - acc.value()).abs() < 1e-12,
                "{}: primal {} vs {}",
                kind.name(),
                fused.value(),
                acc.value()
            );
            for (i, (g1, g2)) in fused_grad.iter().zip(&tape_grad).enumerate() {
                let tol = 1e-10 * (1.0 + g1.abs().max(g2.abs()));
                assert!(
                    (g1 - g2).abs() < tol,
                    "{} arg {i}: fused {g1} vs tape {g2}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn per_element_arguments_and_tracked_observations_get_gradients() {
        // y[i] ~ normal(mu[i], sigma) with both mu and y tracked.
        let ys = [0.5, -0.2, 1.7];
        let mus = [0.0, 0.3, 1.0];
        tape::reset();
        let yv: Vec<Var> = ys.iter().map(|&y| Var::new(y)).collect();
        let muv: Vec<Var> = mus.iter().map(|&m| Var::new(m)).collect();
        let sigma = Var::new(0.8);
        let fused = lpdf_sweep(
            DistKind::Normal,
            SweepVals::Reals(&yv),
            &[SweepArg::Reals(&muv), SweepArg::Scalar(sigma)],
        )
        .unwrap();
        let mut wrt = yv.clone();
        wrt.extend(&muv);
        wrt.push(sigma);
        let fused_grad = grad(fused, &wrt);
        // Reference: scalar tape.
        tape::reset();
        let yv2: Vec<Var> = ys.iter().map(|&y| Var::new(y)).collect();
        let muv2: Vec<Var> = mus.iter().map(|&m| Var::new(m)).collect();
        let sigma2 = Var::new(0.8);
        let mut acc = Var::constant(0.0);
        for (y, m) in yv2.iter().zip(&muv2) {
            let d = crate::Dist::Normal {
                mu: *m,
                sigma: sigma2,
            };
            acc = acc + d.lpdf(*y).unwrap();
        }
        let mut wrt2 = yv2.clone();
        wrt2.extend(&muv2);
        wrt2.push(sigma2);
        let tape_grad = grad(acc, &wrt2);
        assert!((fused.value() - acc.value()).abs() < 1e-12);
        for (g1, g2) in fused_grad.iter().zip(&tape_grad) {
            assert!((g1 - g2).abs() < 1e-10, "{g1} vs {g2}");
        }
    }

    #[test]
    fn int_observations_and_length_mismatches() {
        // bernoulli over an int slice.
        let ks = [1i64, 0, 1, 1, 0];
        let p = 0.42f64;
        let got = lpdf_sweep(
            DistKind::Bernoulli,
            SweepVals::<f64>::Ints(&ks),
            &[SweepArg::Scalar(p)],
        )
        .unwrap();
        let want: f64 = ks
            .iter()
            .map(|&k| if k == 1 { p.ln() } else { (1.0 - p).ln() })
            .sum();
        assert!((got - want).abs() < 1e-12);
        // Mismatched per-element argument length is an error.
        let xs = [0.1f64, 0.2];
        let mus = [0.0f64; 3];
        let err = lpdf_sweep(
            DistKind::Normal,
            SweepVals::Reals(&xs),
            &[SweepArg::Reals(&mus), SweepArg::Scalar(1.0)],
        )
        .unwrap_err();
        assert!(err.to_string().contains("length mismatch"));
        // Unsupported families are refused (callers guard with supports_sweep).
        assert!(!supports_sweep(DistKind::Categorical));
        let err = lpdf_sweep(
            DistKind::Categorical,
            SweepVals::Reals(&xs),
            &[SweepArg::Scalar(0.5)],
        );
        assert!(err.is_err());
        // improper_uniform has an elem kernel (for the tape-free density
        // programs) but is not a sweep-lowering family.
        assert!(supports_elem(DistKind::ImproperUniform));
        assert!(!supports_sweep(DistKind::ImproperUniform));
    }

    #[test]
    fn adjoint_entry_matches_the_fused_tape_gradients() {
        // y[i] ~ normal(mu[i], sigma): the tape-free reverse rule
        // (lpdf_elem_partials_only per element, no Var anywhere) against
        // the fused tape node's gradients.
        let ys = [0.5, -0.2, 1.7];
        let mus = [0.0, 0.3, 1.0];
        let sigma = 0.8;
        tape::reset();
        let yv: Vec<Var> = ys.iter().map(|&y| Var::new(y)).collect();
        let muv: Vec<Var> = mus.iter().map(|&m| Var::new(m)).collect();
        let sv = Var::new(sigma);
        let fused = lpdf_sweep(
            DistKind::Normal,
            SweepVals::Reals(&yv),
            &[SweepArg::Reals(&muv), SweepArg::Scalar(sv)],
        )
        .unwrap();
        let mut wrt = yv.clone();
        wrt.extend(&muv);
        wrt.push(sv);
        let tape_grad = grad(fused, &wrt);
        // Tape-free reverse with a non-unit seed (adjoint composition).
        let seed = 1.7;
        let mut dsigma = 0.0f64;
        for i in 0..3 {
            let (dx, dp) =
                lpdf_elem_partials_only(DistKind::Normal, ys[i], &[mus[i], sigma, 0.0]).unwrap();
            assert!((dx * seed - seed * tape_grad[i]).abs() < 1e-12);
            assert!((dp[0] * seed - seed * tape_grad[3 + i]).abs() < 1e-12);
            dsigma += dp[1] * seed;
        }
        assert!((dsigma - seed * tape_grad[6]).abs() < 1e-12);
        // For every family, the partials-only kernel is bitwise the full
        // kernel's partials, and the hoisted-log forms bitwise its values.
        for kind in KINDS {
            let (xs, a) = case(kind);
            let mut args = [0.0; 3];
            args[..a.len()].copy_from_slice(&a);
            for &x in xs.iter().chain(&[-1.0, 0.5, 11.0]) {
                let (lp, dx, dp) = elem(kind, x, &args, true);
                let (ox, op) = lpdf_elem_partials_only(kind, x, &args).unwrap();
                assert_eq!(ox.to_bits(), dx.to_bits(), "{} dx at {x}", kind.name());
                for j in 0..3 {
                    assert_eq!(
                        op[j].to_bits(),
                        dp[j].to_bits(),
                        "{} d{j} at {x}",
                        kind.name()
                    );
                }
                let hoisted = match kind {
                    DistKind::Bernoulli => {
                        bernoulli_lpmf_from_logs(x, args[0].ln(), (1.0 - args[0]).ln())
                    }
                    DistKind::Binomial => {
                        binomial_lpmf_from_logs(x, args[0], args[1].ln(), (1.0 - args[1]).ln())
                    }
                    _ => continue,
                };
                assert_eq!(hoisted.to_bits(), lp.to_bits(), "{} lp at {x}", kind.name());
            }
        }
        // Unsupported families report None.
        assert!(lpdf_elem_partials_only(DistKind::Dirichlet, 0.5, &[1.0, 1.0, 0.0]).is_none());
    }

    #[test]
    fn per_element_lpdfs_match_the_scalar_path() {
        for kind in KINDS {
            let (xs, a) = case(kind);
            let sargs: Vec<SweepArg<f64>> = a.iter().map(|&v| SweepArg::Scalar(v)).collect();
            let mut out = vec![0.0; xs.len()];
            lpdf_elems(kind, SweepVals::Reals(&xs), &sargs, &mut out).unwrap();
            let dargs: Vec<DistArg<f64>> = a.iter().map(|&v| DistArg::Scalar(v)).collect();
            let d = dist_from_kind(kind, &dargs).unwrap();
            for (i, (&x, &got)) in xs.iter().zip(&out).enumerate() {
                let want = d.lpdf(x).unwrap();
                assert!(
                    (got - want).abs() < 1e-12,
                    "{} elem {i}: {got} vs {want}",
                    kind.name()
                );
            }
            // Sum agrees with the fused kernel.
            let total = lpdf_sweep(kind, SweepVals::Reals(&xs), &sargs).unwrap();
            let sum: f64 = out.iter().sum();
            assert!((total - sum).abs() < 1e-12);
        }
        // Output length is validated.
        let xs = [0.1f64, 0.2];
        let mut short = vec![0.0; 1];
        let err = lpdf_elems(
            DistKind::Exponential,
            SweepVals::Reals(&xs),
            &[SweepArg::Scalar(1.0)],
            &mut short,
        )
        .unwrap_err();
        assert!(err.to_string().contains("length mismatch"));
    }

    #[test]
    fn binomial_kernels_take_per_element_trial_counts() {
        // y[i] ~ binomial(n[i], p): n as an int slice, p tracked.
        let ns = [5i64, 9, 12, 7];
        let ks = [2i64, 9, 4, 0];
        tape::reset();
        let p = Var::new(0.4);
        let fused = lpdf_sweep(
            DistKind::Binomial,
            SweepVals::<Var>::Ints(&ks),
            &[SweepArg::Ints(&ns), SweepArg::Scalar(p)],
        )
        .unwrap();
        let fused_grad = grad(fused, &[p]);
        tape::reset();
        let p2 = Var::new(0.4);
        let mut acc = Var::constant(0.0);
        for (&n, &k) in ns.iter().zip(&ks) {
            let d = crate::Dist::Binomial { n, p: p2 };
            acc = acc + d.lpdf(Var::constant(k as f64)).unwrap();
        }
        let tape_grad = grad(acc, &[p2]);
        assert!((fused.value() - acc.value()).abs() < 1e-12);
        assert!((fused_grad[0] - tape_grad[0]).abs() < 1e-10);
    }

    #[test]
    fn out_of_support_elements_are_neg_infinity_with_zero_partials() {
        tape::reset();
        let rate = Var::new(1.3);
        let xs = [0.5f64, -1.0, 2.0];
        let xv: Vec<Var> = xs.iter().map(|&x| Var::constant(x)).collect();
        let lp = lpdf_sweep(
            DistKind::Exponential,
            SweepVals::Reals(&xv),
            &[SweepArg::Scalar(rate)],
        )
        .unwrap();
        assert_eq!(lp.value(), f64::NEG_INFINITY);
        // The in-support elements still contribute their partials: the tape
        // path behaves the same (the -inf term is an untracked constant).
        let g = grad(lp, &[rate]);
        let want = (1.0 / 1.3 - 0.5) + (1.0 / 1.3 - 2.0);
        assert!((g[0] - want).abs() < 1e-12, "{} vs {want}", g[0]);
    }

    #[test]
    fn empty_sweeps_score_zero() {
        let xs: [f64; 0] = [];
        let lp = lpdf_sweep(
            DistKind::Normal,
            SweepVals::Reals(&xs),
            &[SweepArg::Scalar(0.0), SweepArg::Scalar(1.0)],
        )
        .unwrap();
        assert_eq!(lp, 0.0);
    }
}
