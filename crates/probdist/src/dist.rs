//! Runtime distribution values: log densities, sampling and support.

use std::fmt;

use minidiff::special;
use minidiff::Real;
use rand::Rng;

use crate::sampling;

/// Error raised when a distribution is constructed or evaluated with invalid
/// arguments (wrong arity, value outside the support, unsupported operation).
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    message: String,
}

impl DistError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        DistError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "distribution error: {}", self.message)
    }
}

impl std::error::Error for DistError {}

/// Support (definition domain) of a distribution, used by the mixed
/// compilation scheme to decide whether a `sample(uniform)`/`observe(D, x)`
/// pair may be merged into `sample(D)` (Section 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Support {
    /// The whole real line.
    Real,
    /// Positive reals `(0, ∞)`.
    Positive,
    /// The unit interval `[0, 1]`.
    UnitInterval,
    /// `[lower, ∞)`.
    LowerBounded(f64),
    /// `(-∞, upper]`.
    UpperBounded(f64),
    /// `[lower, upper]`.
    Bounded(f64, f64),
    /// Non-negative integers.
    NonNegativeInt,
    /// Integers in `[lo, hi]` (inclusive).
    IntRange(i64, i64),
    /// Probability simplex of the given dimension.
    Simplex(usize),
    /// Product of real lines of the given dimension.
    RealVector(usize),
}

impl Support {
    /// Returns the support as `(lower, upper)` bounds when it is an interval
    /// of reals, or `None` for discrete / structured supports.
    pub fn as_interval(&self) -> Option<(f64, f64)> {
        match *self {
            Support::Real => Some((f64::NEG_INFINITY, f64::INFINITY)),
            Support::Positive => Some((0.0, f64::INFINITY)),
            Support::UnitInterval => Some((0.0, 1.0)),
            Support::LowerBounded(l) => Some((l, f64::INFINITY)),
            Support::UpperBounded(u) => Some((f64::NEG_INFINITY, u)),
            Support::Bounded(l, u) => Some((l, u)),
            _ => None,
        }
    }
}

/// A sampled value in plain `f64` space (sampling is always untracked).
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A real scalar.
    Real(f64),
    /// An integer (Bernoulli, binomial, Poisson, categorical draws).
    Int(i64),
    /// A real vector (Dirichlet, multivariate normal, vectorized draws).
    Vec(Vec<f64>),
}

impl SampleValue {
    /// The value as a real number, converting integers.
    pub fn as_f64(&self) -> f64 {
        match self {
            SampleValue::Real(x) => *x,
            SampleValue::Int(k) => *k as f64,
            SampleValue::Vec(_) => f64::NAN,
        }
    }
}

/// A runtime distribution parameterized by a [`Real`] scalar type `T`.
///
/// The generic parameter lets the same distribution code produce plain `f64`
/// densities (fast path, NumPyro analog) or tape-tracked densities for
/// gradient-based inference.
#[derive(Debug, Clone)]
pub enum Dist<T: Real> {
    /// Normal with mean and standard deviation.
    Normal { mu: T, sigma: T },
    /// Log-normal.
    LogNormal { mu: T, sigma: T },
    /// Continuous uniform on `[lo, hi]`.
    Uniform { lo: T, hi: T },
    /// Improper uniform with constant density on the (possibly unbounded)
    /// interval; introduced by the comprehensive compilation scheme.
    ImproperUniform { lo: f64, hi: f64 },
    /// Beta distribution.
    Beta { a: T, b: T },
    /// Gamma with shape and rate.
    Gamma { shape: T, rate: T },
    /// Inverse gamma with shape and scale.
    InvGamma { shape: T, scale: T },
    /// Exponential with rate.
    Exponential { rate: T },
    /// Cauchy with location and scale.
    Cauchy { loc: T, scale: T },
    /// Student-t with degrees of freedom, location and scale.
    StudentT { nu: T, loc: T, scale: T },
    /// Double exponential (Laplace) with location and scale.
    DoubleExponential { loc: T, scale: T },
    /// Chi-squared with degrees of freedom.
    ChiSquare { nu: T },
    /// Bernoulli with success probability.
    Bernoulli { p: T },
    /// Bernoulli parameterized by log-odds.
    BernoulliLogit { logit: T },
    /// Binomial with number of trials and success probability.
    Binomial { n: i64, p: T },
    /// Binomial parameterized by number of trials and log-odds.
    BinomialLogit { n: i64, logit: T },
    /// Poisson with rate.
    Poisson { rate: T },
    /// Poisson parameterized by log-rate.
    PoissonLog { log_rate: T },
    /// Categorical over `1..=K` with probabilities (Stan convention).
    Categorical { probs: Vec<T> },
    /// Categorical over `1..=K` parameterized by unnormalized log-odds.
    CategoricalLogit { logits: Vec<T> },
    /// Dirichlet over the simplex.
    Dirichlet { alpha: Vec<T> },
    /// Multivariate normal with diagonal covariance (given as std devs).
    MultiNormalDiag { mu: Vec<T>, sigma: Vec<T> },
}

impl<T: Real> Dist<T> {
    /// Normal distribution constructor.
    pub fn normal(mu: T, sigma: T) -> Self {
        Dist::Normal { mu, sigma }
    }

    /// Uniform distribution constructor.
    pub fn uniform(lo: T, hi: T) -> Self {
        Dist::Uniform { lo, hi }
    }

    /// Improper uniform constructor (constant density on the interval).
    pub fn improper_uniform(lo: f64, hi: f64) -> Self {
        Dist::ImproperUniform { lo, hi }
    }

    /// Beta distribution constructor.
    pub fn beta(a: T, b: T) -> Self {
        Dist::Beta { a, b }
    }

    /// Bernoulli distribution constructor.
    pub fn bernoulli(p: T) -> Self {
        Dist::Bernoulli { p }
    }

    /// The distribution's name as used in Stan source code.
    pub fn name(&self) -> &'static str {
        match self {
            Dist::Normal { .. } => "normal",
            Dist::LogNormal { .. } => "lognormal",
            Dist::Uniform { .. } => "uniform",
            Dist::ImproperUniform { .. } => "improper_uniform",
            Dist::Beta { .. } => "beta",
            Dist::Gamma { .. } => "gamma",
            Dist::InvGamma { .. } => "inv_gamma",
            Dist::Exponential { .. } => "exponential",
            Dist::Cauchy { .. } => "cauchy",
            Dist::StudentT { .. } => "student_t",
            Dist::DoubleExponential { .. } => "double_exponential",
            Dist::ChiSquare { .. } => "chi_square",
            Dist::Bernoulli { .. } => "bernoulli",
            Dist::BernoulliLogit { .. } => "bernoulli_logit",
            Dist::Binomial { .. } => "binomial",
            Dist::BinomialLogit { .. } => "binomial_logit",
            Dist::Poisson { .. } => "poisson",
            Dist::PoissonLog { .. } => "poisson_log",
            Dist::Categorical { .. } => "categorical",
            Dist::CategoricalLogit { .. } => "categorical_logit",
            Dist::Dirichlet { .. } => "dirichlet",
            Dist::MultiNormalDiag { .. } => "multi_normal",
        }
    }

    /// The support of the distribution.
    pub fn support(&self) -> Support {
        match self {
            Dist::Normal { .. }
            | Dist::Cauchy { .. }
            | Dist::StudentT { .. }
            | Dist::DoubleExponential { .. } => Support::Real,
            Dist::LogNormal { .. }
            | Dist::Gamma { .. }
            | Dist::InvGamma { .. }
            | Dist::Exponential { .. }
            | Dist::ChiSquare { .. } => Support::Positive,
            Dist::Uniform { lo, hi } => Support::Bounded(lo.value(), hi.value()),
            Dist::ImproperUniform { lo, hi } => {
                if lo.is_infinite() && hi.is_infinite() {
                    Support::Real
                } else if hi.is_infinite() {
                    Support::LowerBounded(*lo)
                } else if lo.is_infinite() {
                    Support::UpperBounded(*hi)
                } else {
                    Support::Bounded(*lo, *hi)
                }
            }
            Dist::Beta { .. } => Support::UnitInterval,
            Dist::Bernoulli { .. } | Dist::BernoulliLogit { .. } => Support::IntRange(0, 1),
            Dist::Binomial { n, .. } | Dist::BinomialLogit { n, .. } => Support::IntRange(0, *n),
            Dist::Poisson { .. } | Dist::PoissonLog { .. } => Support::NonNegativeInt,
            Dist::Categorical { probs } => Support::IntRange(1, probs.len() as i64),
            Dist::CategoricalLogit { logits } => Support::IntRange(1, logits.len() as i64),
            Dist::Dirichlet { alpha } => Support::Simplex(alpha.len()),
            Dist::MultiNormalDiag { mu, .. } => Support::RealVector(mu.len()),
        }
    }

    /// Whether the distribution is over a vector-valued outcome.
    pub fn is_multivariate(&self) -> bool {
        matches!(self, Dist::Dirichlet { .. } | Dist::MultiNormalDiag { .. })
    }

    /// Log probability density (or mass) at a scalar value.
    ///
    /// Discrete distributions round the argument to the nearest integer,
    /// matching how Stan treats integer data passed through real-valued
    /// containers.
    ///
    /// # Errors
    /// Returns an error for multivariate distributions (use [`Dist::lpdf_vec`]).
    pub fn lpdf(&self, x: T) -> Result<T, DistError> {
        let neg_inf = T::from_f64(f64::NEG_INFINITY);
        let half_log_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
        match self {
            Dist::Normal { mu, sigma } => {
                let z = (x - *mu) / *sigma;
                Ok(T::from_f64(-half_log_2pi) - sigma.ln() - T::from_f64(0.5) * z * z)
            }
            Dist::LogNormal { mu, sigma } => {
                if x.value() <= 0.0 {
                    return Ok(neg_inf);
                }
                let lx = x.ln();
                let z = (lx - *mu) / *sigma;
                Ok(T::from_f64(-half_log_2pi) - sigma.ln() - lx - T::from_f64(0.5) * z * z)
            }
            Dist::Uniform { lo, hi } => {
                if x.value() < lo.value() || x.value() > hi.value() {
                    Ok(neg_inf)
                } else {
                    Ok(-(*hi - *lo).ln())
                }
            }
            Dist::ImproperUniform { lo, hi } => {
                if x.value() < *lo || x.value() > *hi {
                    Ok(neg_inf)
                } else {
                    Ok(T::from_f64(0.0))
                }
            }
            Dist::Beta { a, b } => {
                let xv = x.value();
                if !(0.0..=1.0).contains(&xv) {
                    return Ok(neg_inf);
                }
                let log_beta = a.lgamma() + b.lgamma() - (*a + *b).lgamma();
                Ok((*a - T::from_f64(1.0)) * x.ln()
                    + (*b - T::from_f64(1.0)) * (T::from_f64(1.0) - x).ln()
                    - log_beta)
            }
            Dist::Gamma { shape, rate } => {
                if x.value() <= 0.0 {
                    return Ok(neg_inf);
                }
                Ok(
                    *shape * rate.ln() - shape.lgamma() + (*shape - T::from_f64(1.0)) * x.ln()
                        - *rate * x,
                )
            }
            Dist::InvGamma { shape, scale } => {
                if x.value() <= 0.0 {
                    return Ok(neg_inf);
                }
                Ok(*shape * scale.ln()
                    - shape.lgamma()
                    - (*shape + T::from_f64(1.0)) * x.ln()
                    - *scale / x)
            }
            Dist::Exponential { rate } => {
                if x.value() < 0.0 {
                    return Ok(neg_inf);
                }
                Ok(rate.ln() - *rate * x)
            }
            Dist::Cauchy { loc, scale } => {
                let z = (x - *loc) / *scale;
                Ok(T::from_f64(-(std::f64::consts::PI).ln())
                    - scale.ln()
                    - (T::from_f64(1.0) + z * z).ln())
            }
            Dist::StudentT { nu, loc, scale } => {
                let z = (x - *loc) / *scale;
                let half = T::from_f64(0.5);
                let one = T::from_f64(1.0);
                Ok(((*nu + one) * half).lgamma()
                    - (*nu * half).lgamma()
                    - half * (*nu * T::from_f64(std::f64::consts::PI)).ln()
                    - scale.ln()
                    - (*nu + one) * half * (one + z * z / *nu).ln())
            }
            Dist::DoubleExponential { loc, scale } => {
                Ok(-(T::from_f64(2.0) * *scale).ln() - (x - *loc).abs() / *scale)
            }
            Dist::ChiSquare { nu } => {
                if x.value() <= 0.0 {
                    return Ok(neg_inf);
                }
                let half = T::from_f64(0.5);
                Ok(
                    -(*nu * half) * T::from_f64(2f64.ln()) - (*nu * half).lgamma()
                        + (*nu * half - T::from_f64(1.0)) * x.ln()
                        - half * x,
                )
            }
            Dist::Bernoulli { p } => {
                let k = x.value().round();
                if k == 1.0 {
                    Ok(p.ln())
                } else if k == 0.0 {
                    Ok((T::from_f64(1.0) - *p).ln())
                } else {
                    Ok(neg_inf)
                }
            }
            Dist::BernoulliLogit { logit } => {
                let k = x.value().round();
                if k == 1.0 {
                    Ok(-(-*logit).softplus())
                } else if k == 0.0 {
                    Ok(-logit.softplus())
                } else {
                    Ok(neg_inf)
                }
            }
            Dist::Binomial { n, p } => {
                let k = x.value().round();
                if k < 0.0 || k > *n as f64 {
                    return Ok(neg_inf);
                }
                let log_choose = special::ln_factorial(*n as f64)
                    - special::ln_factorial(k)
                    - special::ln_factorial(*n as f64 - k);
                Ok(T::from_f64(log_choose)
                    + T::from_f64(k) * p.ln()
                    + T::from_f64(*n as f64 - k) * (T::from_f64(1.0) - *p).ln())
            }
            Dist::BinomialLogit { n, logit } => {
                let k = x.value().round();
                if k < 0.0 || k > *n as f64 {
                    return Ok(neg_inf);
                }
                let log_choose = special::ln_factorial(*n as f64)
                    - special::ln_factorial(k)
                    - special::ln_factorial(*n as f64 - k);
                // k ln sigmoid(l) + (n-k) ln sigmoid(-l), in softplus form.
                Ok(T::from_f64(log_choose)
                    - T::from_f64(k) * (-*logit).softplus()
                    - T::from_f64(*n as f64 - k) * logit.softplus())
            }
            Dist::Poisson { rate } => {
                let k = x.value().round();
                if k < 0.0 {
                    return Ok(neg_inf);
                }
                Ok(T::from_f64(k) * rate.ln() - *rate - T::from_f64(special::ln_factorial(k)))
            }
            Dist::PoissonLog { log_rate } => {
                let k = x.value().round();
                if k < 0.0 {
                    return Ok(neg_inf);
                }
                Ok(T::from_f64(k) * *log_rate
                    - log_rate.exp()
                    - T::from_f64(special::ln_factorial(k)))
            }
            Dist::Categorical { probs } => {
                let k = x.value().round() as i64;
                if k < 1 || k > probs.len() as i64 {
                    return Ok(neg_inf);
                }
                // Normalize so that unnormalized weights are accepted.
                let mut total = T::from_f64(0.0);
                for p in probs {
                    total = total + *p;
                }
                Ok(probs[(k - 1) as usize].ln() - total.ln())
            }
            Dist::CategoricalLogit { logits } => {
                let k = x.value().round() as i64;
                if k < 1 || k > logits.len() as i64 {
                    return Ok(neg_inf);
                }
                // log softmax, numerically stabilized by the max logit value.
                let m = logits
                    .iter()
                    .map(|l| l.value())
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut sum = T::from_f64(0.0);
                for l in logits {
                    sum = sum + (*l - T::from_f64(m)).exp();
                }
                Ok(logits[(k - 1) as usize] - T::from_f64(m) - sum.ln())
            }
            Dist::Dirichlet { .. } | Dist::MultiNormalDiag { .. } => Err(DistError::new(format!(
                "{} is multivariate; use lpdf_vec",
                self.name()
            ))),
        }
    }

    /// Log density of a vector observation.
    ///
    /// For univariate distributions this is the sum of element-wise log
    /// densities (Stan's vectorized sampling statements). For multivariate
    /// distributions it is the joint density.
    ///
    /// # Errors
    /// Propagates element-wise errors and reports dimension mismatches for
    /// multivariate distributions.
    pub fn lpdf_vec(&self, xs: &[T]) -> Result<T, DistError> {
        match self {
            Dist::Dirichlet { alpha } => {
                if xs.len() != alpha.len() {
                    return Err(DistError::new("dirichlet dimension mismatch"));
                }
                let mut alpha0 = T::from_f64(0.0);
                let mut acc = T::from_f64(0.0);
                for (a, x) in alpha.iter().zip(xs) {
                    alpha0 = alpha0 + *a;
                    acc = acc + (*a - T::from_f64(1.0)) * x.ln() - a.lgamma();
                }
                Ok(acc + alpha0.lgamma())
            }
            Dist::MultiNormalDiag { mu, sigma } => {
                if xs.len() != mu.len() {
                    return Err(DistError::new("multi_normal dimension mismatch"));
                }
                let mut acc = T::from_f64(0.0);
                for ((m, s), x) in mu.iter().zip(sigma).zip(xs) {
                    let z = (*x - *m) / *s;
                    acc = acc + T::from_f64(-0.5 * (2.0 * std::f64::consts::PI).ln())
                        - s.ln()
                        - T::from_f64(0.5) * z * z;
                }
                Ok(acc)
            }
            _ => {
                let mut acc = T::from_f64(0.0);
                for x in xs {
                    acc = acc + self.lpdf(*x)?;
                }
                Ok(acc)
            }
        }
    }

    /// Draws a value from the distribution (untracked `f64` space).
    ///
    /// Improper uniforms are sampled from a standard normal restricted to the
    /// domain — any proper initialization distribution is acceptable since the
    /// comprehensive scheme only needs *some* starting point with non-zero
    /// density; this mirrors Stan's `[-2, 2]` uniform initialization on the
    /// unconstrained scale.
    ///
    /// # Errors
    /// Returns an error if parameters are invalid (e.g. non-positive scale).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SampleValue, DistError> {
        let val = |v: f64| Ok(SampleValue::Real(v));
        match self {
            Dist::Normal { mu, sigma } => val(sampling::normal(rng, mu.value(), sigma.value())),
            Dist::LogNormal { mu, sigma } => {
                val(sampling::normal(rng, mu.value(), sigma.value()).exp())
            }
            Dist::Uniform { lo, hi } => val(rng.gen_range(lo.value()..hi.value())),
            Dist::ImproperUniform { lo, hi } => {
                let z = sampling::standard_normal(rng);
                let x = if lo.is_infinite() && hi.is_infinite() {
                    z
                } else if hi.is_infinite() {
                    lo + z.abs() + 0.1
                } else if lo.is_infinite() {
                    hi - z.abs() - 0.1
                } else {
                    lo + (hi - lo) * rng.gen::<f64>()
                };
                val(x)
            }
            Dist::Beta { a, b } => val(sampling::beta(rng, a.value(), b.value())),
            Dist::Gamma { shape, rate } => val(sampling::gamma(rng, shape.value(), rate.value())),
            Dist::InvGamma { shape, scale } => {
                val(scale.value() / sampling::gamma(rng, shape.value(), 1.0))
            }
            Dist::Exponential { rate } => val(sampling::exponential(rng, rate.value())),
            Dist::Cauchy { loc, scale } => val(sampling::cauchy(rng, loc.value(), scale.value())),
            Dist::StudentT { nu, loc, scale } => val(sampling::student_t(
                rng,
                nu.value(),
                loc.value(),
                scale.value(),
            )),
            Dist::DoubleExponential { loc, scale } => {
                let u: f64 = rng.gen::<f64>() - 0.5;
                val(loc.value() - scale.value() * u.signum() * (1.0 - 2.0 * u.abs()).ln())
            }
            Dist::ChiSquare { nu } => val(sampling::gamma(rng, nu.value() / 2.0, 0.5)),
            Dist::Bernoulli { p } => Ok(SampleValue::Int((rng.gen::<f64>() < p.value()) as i64)),
            Dist::BernoulliLogit { logit } => Ok(SampleValue::Int(
                (rng.gen::<f64>() < special::sigmoid(logit.value())) as i64,
            )),
            Dist::Binomial { n, p } => Ok(SampleValue::Int(sampling::binomial(rng, *n, p.value()))),
            Dist::BinomialLogit { n, logit } => Ok(SampleValue::Int(sampling::binomial(
                rng,
                *n,
                special::sigmoid(logit.value()),
            ))),
            Dist::Poisson { rate } => Ok(SampleValue::Int(sampling::poisson(rng, rate.value()))),
            Dist::PoissonLog { log_rate } => Ok(SampleValue::Int(sampling::poisson(
                rng,
                log_rate.value().exp(),
            ))),
            Dist::Categorical { probs } => {
                let w: Vec<f64> = probs.iter().map(|p| p.value()).collect();
                Ok(SampleValue::Int(sampling::categorical(rng, &w)))
            }
            Dist::CategoricalLogit { logits } => {
                let m = logits
                    .iter()
                    .map(|l| l.value())
                    .fold(f64::NEG_INFINITY, f64::max);
                let w: Vec<f64> = logits.iter().map(|l| (l.value() - m).exp()).collect();
                Ok(SampleValue::Int(sampling::categorical(rng, &w)))
            }
            Dist::Dirichlet { alpha } => {
                let a: Vec<f64> = alpha.iter().map(|x| x.value()).collect();
                Ok(SampleValue::Vec(sampling::dirichlet(rng, &a)))
            }
            Dist::MultiNormalDiag { mu, sigma } => Ok(SampleValue::Vec(
                mu.iter()
                    .zip(sigma)
                    .map(|(m, s)| sampling::normal(rng, m.value(), s.value()))
                    .collect(),
            )),
        }
    }
}

/// Identity of a distribution family, resolved from its Stan name.
///
/// Resolution passes (e.g. `gprob::resolved`) translate the name of every
/// `sample` / `observe` site to a `DistKind` once at compile time, so the
/// density hot path dispatches on a `Copy` enum instead of re-matching the
/// name string on every evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKind {
    /// `normal(mu, sigma)`
    Normal,
    /// `lognormal(mu, sigma)`
    LogNormal,
    /// `uniform(lo, hi)`
    Uniform,
    /// `improper_uniform(lo?, hi?)`
    ImproperUniform,
    /// `beta(a, b)`
    Beta,
    /// `gamma(shape, rate)`
    Gamma,
    /// `inv_gamma(shape, scale)`
    InvGamma,
    /// `exponential(rate)`
    Exponential,
    /// `cauchy(loc, scale)`
    Cauchy,
    /// `student_t(nu, loc, scale)`
    StudentT,
    /// `double_exponential(loc, scale)`
    DoubleExponential,
    /// `chi_square(nu)`
    ChiSquare,
    /// `bernoulli(p)`
    Bernoulli,
    /// `bernoulli_logit(logit)`
    BernoulliLogit,
    /// `binomial(n, p)`
    Binomial,
    /// `binomial_logit(n, logit)`
    BinomialLogit,
    /// `poisson(rate)`
    Poisson,
    /// `poisson_log(log_rate)`
    PoissonLog,
    /// `categorical(probs)`
    Categorical,
    /// `categorical_logit(logits)`
    CategoricalLogit,
    /// `dirichlet(alpha)`
    Dirichlet,
    /// `multi_normal(mu, sigma)` / `multi_normal_diag(mu, sigma)`
    MultiNormalDiag,
}

impl DistKind {
    /// Resolves a Stan distribution name, or `None` for unknown families.
    pub fn from_name(name: &str) -> Option<DistKind> {
        Some(match name {
            "normal" => DistKind::Normal,
            "lognormal" => DistKind::LogNormal,
            "uniform" => DistKind::Uniform,
            "improper_uniform" => DistKind::ImproperUniform,
            "beta" => DistKind::Beta,
            "gamma" => DistKind::Gamma,
            "inv_gamma" => DistKind::InvGamma,
            "exponential" => DistKind::Exponential,
            "cauchy" => DistKind::Cauchy,
            "student_t" => DistKind::StudentT,
            "double_exponential" => DistKind::DoubleExponential,
            "chi_square" => DistKind::ChiSquare,
            "bernoulli" => DistKind::Bernoulli,
            "bernoulli_logit" => DistKind::BernoulliLogit,
            "binomial" => DistKind::Binomial,
            "binomial_logit" => DistKind::BinomialLogit,
            "poisson" => DistKind::Poisson,
            "poisson_log" => DistKind::PoissonLog,
            "categorical" => DistKind::Categorical,
            "categorical_logit" => DistKind::CategoricalLogit,
            "dirichlet" => DistKind::Dirichlet,
            "multi_normal" | "multi_normal_diag" => DistKind::MultiNormalDiag,
            _ => return None,
        })
    }

    /// The canonical Stan spelling (used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            DistKind::Normal => "normal",
            DistKind::LogNormal => "lognormal",
            DistKind::Uniform => "uniform",
            DistKind::ImproperUniform => "improper_uniform",
            DistKind::Beta => "beta",
            DistKind::Gamma => "gamma",
            DistKind::InvGamma => "inv_gamma",
            DistKind::Exponential => "exponential",
            DistKind::Cauchy => "cauchy",
            DistKind::StudentT => "student_t",
            DistKind::DoubleExponential => "double_exponential",
            DistKind::ChiSquare => "chi_square",
            DistKind::Bernoulli => "bernoulli",
            DistKind::BernoulliLogit => "bernoulli_logit",
            DistKind::Binomial => "binomial",
            DistKind::BinomialLogit => "binomial_logit",
            DistKind::Poisson => "poisson",
            DistKind::PoissonLog => "poisson_log",
            DistKind::Categorical => "categorical",
            DistKind::CategoricalLogit => "categorical_logit",
            DistKind::Dirichlet => "dirichlet",
            DistKind::MultiNormalDiag => "multi_normal_diag",
        }
    }

    /// Whether the outcome of the distribution is a vector (so a container
    /// left-hand side must not be broadcast element-wise).
    pub fn is_multivariate(self) -> bool {
        matches!(self, DistKind::Dirichlet | DistKind::MultiNormalDiag)
    }

    /// Whether the distribution is legitimately parameterized by a vector
    /// (so a vector argument does not imply element-wise broadcasting).
    pub fn has_vector_param(self) -> bool {
        matches!(self, DistKind::Categorical | DistKind::CategoricalLogit)
    }
}

/// Constructs a distribution by its Stan name from real-valued arguments.
///
/// This is the dynamic entry point used by both interpreters when evaluating
/// `x ~ dist(args...)` statements. Vector arguments are accepted where the
/// distribution is parameterized by a vector (categorical, dirichlet,
/// multi_normal) or where Stan broadcasts (handled by the caller). Hot paths
/// that already resolved the name should call [`dist_from_kind`] instead.
///
/// # Errors
/// Returns an error for unknown distribution names or wrong arity.
pub fn dist_from_name<T: Real>(name: &str, args: &[DistArg<T>]) -> Result<Dist<T>, DistError> {
    let kind = DistKind::from_name(name)
        .ok_or_else(|| DistError::new(format!("unknown distribution '{name}'")))?;
    dist_from_kind(kind, args)
}

/// Constructs a distribution from its pre-resolved [`DistKind`] — the
/// dispatch used by the slot-resolved runtime, which resolves every site's
/// name exactly once at compile time.
///
/// # Errors
/// Returns an error on wrong arity or a vector argument where a scalar is
/// required.
pub fn dist_from_kind<T: Real>(kind: DistKind, args: &[DistArg<T>]) -> Result<Dist<T>, DistError> {
    let name = kind.name();
    let scalar = |i: usize| -> Result<T, DistError> {
        match args.get(i) {
            Some(DistArg::Scalar(x)) => Ok(*x),
            Some(DistArg::Vector(_)) => Err(DistError::new(format!(
                "{name}: argument {i} must be a scalar"
            ))),
            None => Err(DistError::new(format!("{name}: missing argument {i}"))),
        }
    };
    let vector = |i: usize| -> Result<Vec<T>, DistError> {
        match args.get(i) {
            Some(DistArg::Vector(v)) => Ok(v.clone()),
            Some(DistArg::Scalar(x)) => Ok(vec![*x]),
            None => Err(DistError::new(format!("{name}: missing argument {i}"))),
        }
    };
    match kind {
        DistKind::Normal => Ok(Dist::Normal {
            mu: scalar(0)?,
            sigma: scalar(1)?,
        }),
        DistKind::LogNormal => Ok(Dist::LogNormal {
            mu: scalar(0)?,
            sigma: scalar(1)?,
        }),
        DistKind::Uniform => Ok(Dist::Uniform {
            lo: scalar(0)?,
            hi: scalar(1)?,
        }),
        DistKind::ImproperUniform => Ok(Dist::ImproperUniform {
            lo: scalar(0).map(|x| x.value()).unwrap_or(f64::NEG_INFINITY),
            hi: scalar(1).map(|x| x.value()).unwrap_or(f64::INFINITY),
        }),
        DistKind::Beta => Ok(Dist::Beta {
            a: scalar(0)?,
            b: scalar(1)?,
        }),
        DistKind::Gamma => Ok(Dist::Gamma {
            shape: scalar(0)?,
            rate: scalar(1)?,
        }),
        DistKind::InvGamma => Ok(Dist::InvGamma {
            shape: scalar(0)?,
            scale: scalar(1)?,
        }),
        DistKind::Exponential => Ok(Dist::Exponential { rate: scalar(0)? }),
        DistKind::Cauchy => Ok(Dist::Cauchy {
            loc: scalar(0)?,
            scale: scalar(1)?,
        }),
        DistKind::StudentT => Ok(Dist::StudentT {
            nu: scalar(0)?,
            loc: scalar(1)?,
            scale: scalar(2)?,
        }),
        DistKind::DoubleExponential => Ok(Dist::DoubleExponential {
            loc: scalar(0)?,
            scale: scalar(1)?,
        }),
        DistKind::ChiSquare => Ok(Dist::ChiSquare { nu: scalar(0)? }),
        DistKind::Bernoulli => Ok(Dist::Bernoulli { p: scalar(0)? }),
        DistKind::BernoulliLogit => Ok(Dist::BernoulliLogit { logit: scalar(0)? }),
        DistKind::Binomial => Ok(Dist::Binomial {
            n: scalar(0)?.value().round() as i64,
            p: scalar(1)?,
        }),
        DistKind::BinomialLogit => Ok(Dist::BinomialLogit {
            n: scalar(0)?.value().round() as i64,
            logit: scalar(1)?,
        }),
        DistKind::Poisson => Ok(Dist::Poisson { rate: scalar(0)? }),
        DistKind::PoissonLog => Ok(Dist::PoissonLog {
            log_rate: scalar(0)?,
        }),
        DistKind::Categorical => Ok(Dist::Categorical { probs: vector(0)? }),
        DistKind::CategoricalLogit => Ok(Dist::CategoricalLogit { logits: vector(0)? }),
        DistKind::Dirichlet => Ok(Dist::Dirichlet { alpha: vector(0)? }),
        DistKind::MultiNormalDiag => Ok(Dist::MultiNormalDiag {
            mu: vector(0)?,
            sigma: vector(1)?,
        }),
    }
}

/// A distribution argument: either a scalar or a vector of scalars.
#[derive(Debug, Clone)]
pub enum DistArg<T: Real> {
    /// A scalar argument.
    Scalar(T),
    /// A vector argument.
    Vector(Vec<T>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidiff::{grad, tape, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn normal_lpdf_known_value() {
        let d: Dist<f64> = Dist::normal(1.0, 2.0);
        // scipy.stats.norm.logpdf(0, 1, 2) = -1.7370857137642328
        assert_close(d.lpdf(0.0).unwrap(), -1.7370857137642328, 1e-12);
    }

    #[test]
    fn beta_lpdf_known_value() {
        let d: Dist<f64> = Dist::beta(2.0, 3.0);
        // ln(0.4^1 * 0.6^2 / B(2,3)) = ln(1.728)
        assert_close(d.lpdf(0.4).unwrap(), 0.5469646703818611, 1e-12);
    }

    #[test]
    fn gamma_lpdf_known_value() {
        let d: Dist<f64> = Dist::Gamma {
            shape: 3.0,
            rate: 2.0,
        };
        // 3 ln 2 - ln Gamma(3) + 2 ln 1.5 - 3
        assert_close(d.lpdf(1.5).unwrap(), -0.8027754226637804, 1e-10);
    }

    #[test]
    fn student_t_lpdf_known_value() {
        let d: Dist<f64> = Dist::StudentT {
            nu: 4.0,
            loc: 1.0,
            scale: 2.0,
        };
        // lnGamma(2.5) - lnGamma(2) - 0.5 ln(4 pi) - ln 2 - 2.5 ln(1.0625)
        assert_close(d.lpdf(0.0).unwrap(), -1.825537988112757, 1e-8);
    }

    #[test]
    fn poisson_and_binomial_pmfs() {
        let p: Dist<f64> = Dist::Poisson { rate: 3.0 };
        // 2 ln 3 - 3 - ln 2
        assert_close(p.lpdf(2.0).unwrap(), -1.4959226032237267, 1e-10);
        let b: Dist<f64> = Dist::Binomial { n: 10, p: 0.3 };
        // ln C(10,4) + 4 ln 0.3 + 6 ln 0.7
        assert_close(b.lpdf(4.0).unwrap(), -1.608833350218668, 1e-10);
    }

    #[test]
    fn bernoulli_logit_matches_manual() {
        let logit = 0.7;
        let d: Dist<f64> = Dist::BernoulliLogit { logit };
        let p = special::sigmoid(logit);
        assert_close(d.lpdf(1.0).unwrap(), p.ln(), 1e-12);
        assert_close(d.lpdf(0.0).unwrap(), (1.0 - p).ln(), 1e-12);
    }

    #[test]
    fn categorical_logit_is_log_softmax() {
        let d: Dist<f64> = Dist::CategoricalLogit {
            logits: vec![0.1, 1.2, -0.3],
        };
        let z = special::log_sum_exp(&[0.1, 1.2, -0.3]);
        assert_close(d.lpdf(2.0).unwrap(), 1.2 - z, 1e-12);
        assert_eq!(d.lpdf(4.0).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn categorical_accepts_unnormalized_weights() {
        let d: Dist<f64> = Dist::Categorical {
            probs: vec![2.0, 6.0],
        };
        assert_close(d.lpdf(1.0).unwrap(), 0.25f64.ln(), 1e-12);
    }

    #[test]
    fn dirichlet_lpdf_known_value() {
        let d: Dist<f64> = Dist::Dirichlet {
            alpha: vec![1.0, 2.0, 3.0],
        };
        // lnGamma(6) - lnGamma(2) - lnGamma(3) + ln(0.3) + 2 ln(0.5)
        assert_close(
            d.lpdf_vec(&[0.2, 0.3, 0.5]).unwrap(),
            1.5040773967762764,
            1e-12,
        );
    }

    #[test]
    fn outside_support_is_neg_infinity() {
        let beta: Dist<f64> = Dist::beta(2.0, 2.0);
        assert_eq!(beta.lpdf(1.5).unwrap(), f64::NEG_INFINITY);
        let gamma: Dist<f64> = Dist::Gamma {
            shape: 1.0,
            rate: 1.0,
        };
        assert_eq!(gamma.lpdf(-0.1).unwrap(), f64::NEG_INFINITY);
        let uni: Dist<f64> = Dist::uniform(0.0, 1.0);
        assert_eq!(uni.lpdf(2.0).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn improper_uniform_has_zero_log_density_inside() {
        let d: Dist<f64> = Dist::improper_uniform(0.0, f64::INFINITY);
        assert_eq!(d.lpdf(3.0).unwrap(), 0.0);
        assert_eq!(d.lpdf(-1.0).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn vectorized_lpdf_sums_elementwise() {
        let d: Dist<f64> = Dist::normal(0.0, 1.0);
        let xs = [0.5, -1.0, 2.0];
        let expect: f64 = xs.iter().map(|&x| d.lpdf(x).unwrap()).sum();
        assert_close(d.lpdf_vec(&xs).unwrap(), expect, 1e-12);
    }

    #[test]
    fn lpdf_gradient_matches_analytic_for_normal() {
        tape::reset();
        let mu = Var::new(0.5);
        let sigma = Var::new(1.5);
        let d = Dist::Normal { mu, sigma };
        let lp = d.lpdf(Var::constant(2.0)).unwrap();
        let g = grad(lp, &[mu, sigma]);
        // d/dmu = (x-mu)/sigma^2 ; d/dsigma = ((x-mu)^2 - sigma^2)/sigma^3
        assert_close(g[0], (2.0 - 0.5) / (1.5 * 1.5), 1e-12);
        assert_close(
            g[1],
            ((2.0 - 0.5f64).powi(2) - 1.5 * 1.5) / 1.5f64.powi(3),
            1e-12,
        );
    }

    #[test]
    fn dist_from_name_roundtrip() {
        let d =
            dist_from_name::<f64>("normal", &[DistArg::Scalar(0.0), DistArg::Scalar(1.0)]).unwrap();
        assert_eq!(d.name(), "normal");
        let e = dist_from_name::<f64>("nosuchdist", &[]);
        assert!(e.is_err());
        let c = dist_from_name::<f64>("categorical", &[DistArg::Vector(vec![0.2, 0.8])]).unwrap();
        assert_eq!(c.support(), Support::IntRange(1, 2));
    }

    #[test]
    fn sampling_matches_density_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let d: Dist<f64> = Dist::Gamma {
            shape: 4.0,
            rate: 2.0,
        };
        let mut acc = 0.0;
        for _ in 0..20_000 {
            acc += d.sample(&mut rng).unwrap().as_f64();
        }
        assert_close(acc / 20_000.0, 2.0, 0.05);
    }

    #[test]
    fn supports_are_reported() {
        let d: Dist<f64> = Dist::Gamma {
            shape: 1.0,
            rate: 1.0,
        };
        assert_eq!(d.support(), Support::Positive);
        assert_eq!(d.support().as_interval(), Some((0.0, f64::INFINITY)));
        let u: Dist<f64> = Dist::uniform(-1.0, 1.0);
        assert_eq!(u.support(), Support::Bounded(-1.0, 1.0));
    }
}
