//! Automatic Differentiation Variational Inference (ADVI) with a mean-field
//! Gaussian family.
//!
//! This is the algorithm behind Stan's `variational` method (Kucukelbir et
//! al. 2017) and the baseline labelled "Stan (ADVI)" in Figure 10 of the
//! paper. The variational family is `q(θ) = N(μ, diag(exp(ω))²)` over the
//! *unconstrained* parameters; the ELBO is maximized with reparameterized
//! gradients and Adam.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cancel::CancelToken;
use crate::svi::{Adam, AdamConfig};
use crate::target::{GradTarget, GradTargetBatch};

/// ADVI configuration.
#[derive(Debug, Clone)]
pub struct AdviConfig {
    /// Number of optimization steps.
    pub steps: usize,
    /// Monte-Carlo samples per ELBO gradient estimate.
    pub grad_samples: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Number of posterior draws to return from the fitted approximation.
    pub output_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cooperative cancellation, polled once per optimization step (never
    /// inside a gradient evaluation). The default token never cancels. A
    /// cancelled fit stops optimizing and samples its output draws from
    /// the best-so-far approximation.
    pub cancel: CancelToken,
}

impl Default for AdviConfig {
    fn default() -> Self {
        AdviConfig {
            steps: 2000,
            grad_samples: 4,
            lr: 0.05,
            output_samples: 1000,
            seed: 0,
            cancel: CancelToken::new(),
        }
    }
}

/// The fitted mean-field approximation.
#[derive(Debug, Clone)]
pub struct AdviResult {
    /// Variational means (unconstrained scale).
    pub mu: Vec<f64>,
    /// Variational log standard deviations.
    pub omega: Vec<f64>,
    /// Draws from the fitted approximation (unconstrained scale).
    pub draws: Vec<Vec<f64>>,
    /// ELBO trace.
    pub elbo_trace: Vec<f64>,
    /// True when the optimization stopped early because its
    /// [`AdviConfig::cancel`] token fired; `mu`/`omega`/`draws` then
    /// reflect the approximation as of the last completed step.
    pub cancelled: bool,
}

/// Fits mean-field ADVI to a `(log p, ∇ log p)` target. Stateful and
/// lane-batched targets use [`advi_fit_batch`], which this function
/// delegates to.
pub fn advi_fit<T: GradTarget + ?Sized>(target: &T, dim: usize, config: &AdviConfig) -> AdviResult {
    let mut adapter = target;
    advi_fit_batch(&mut adapter, dim, config)
}

/// Fits mean-field ADVI over a [`GradTargetBatch`]: each optimization step
/// draws all `grad_samples` reparameterized points first and scores them
/// with one [`GradTargetBatch::logp_grad_batch`] call, so a lane-widened
/// density program evaluates the whole Monte-Carlo ELBO estimate in one
/// struct-of-arrays sweep per step. Every scratch buffer is allocated once
/// and reused across steps.
///
/// The batch contract makes point `i`'s result what a single-point
/// evaluation would give, so a fit is bitwise the same whether the target
/// overrides `logp_grad_batch` or keeps the trait's per-point default.
pub fn advi_fit_batch<T: GradTargetBatch + ?Sized>(
    target: &mut T,
    dim: usize,
    config: &AdviConfig,
) -> AdviResult {
    let k = config.grad_samples;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut mu = vec![0.0f64; dim];
    let mut omega = vec![-1.0f64; dim];
    let mut adam = Adam::new(
        2 * dim,
        AdamConfig {
            lr: config.lr,
            ..Default::default()
        },
    );
    let mut elbo_trace = Vec::new();
    let report_every = (config.steps / 50).max(1);
    let mut running = 0.0;
    let mut eps = vec![0.0; k * dim];
    let mut zs = vec![0.0; k * dim];
    let mut lps = vec![0.0; k];
    let mut gs = vec![0.0; k * dim];
    let mut grad = vec![0.0; 2 * dim];
    let mut step_timer = obs::StepTimer::new("advi.step");
    let mut cancelled = false;

    for step in 0..config.steps {
        if config.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        step_timer.begin();
        grad.fill(0.0);
        let mut elbo = 0.0;
        for s in 0..k {
            for i in 0..dim {
                let e = standard_normal(&mut rng);
                eps[s * dim + i] = e;
                zs[s * dim + i] = mu[i] + omega[i].exp() * e;
            }
        }
        target.logp_grad_batch(&zs, &mut lps, &mut gs);
        for s in 0..k {
            let lp = if lps[s].is_finite() { lps[s] } else { -1e10 };
            elbo += lp;
            for i in 0..dim {
                let gi = gs[s * dim + i];
                let gi = if gi.is_finite() { gi } else { 0.0 };
                grad[i] += gi;
                grad[dim + i] += gi * omega[i].exp() * eps[s * dim + i];
            }
        }
        let scale = 1.0 / k as f64;
        for i in 0..dim {
            grad[i] *= scale;
            // Entropy term: d/dω [ Σ ω ] = 1.
            grad[dim + i] = grad[dim + i] * scale + 1.0;
            elbo += omega[i]; // entropy up to a constant
        }
        let mut params: Vec<f64> = mu.iter().chain(omega.iter()).copied().collect();
        adam.step(&mut params, &grad);
        mu.copy_from_slice(&params[..dim]);
        omega.copy_from_slice(&params[dim..]);

        running += elbo * scale;
        step_timer.end();
        if (step + 1) % report_every == 0 {
            elbo_trace.push(running / report_every as f64);
            running = 0.0;
        }
    }

    let draws: Vec<Vec<f64>> = (0..config.output_samples)
        .map(|_| {
            (0..dim)
                .map(|i| mu[i] + omega[i].exp() * standard_normal(&mut rng))
                .collect()
        })
        .collect();

    AdviResult {
        mu,
        omega,
        draws,
        elbo_trace,
        cancelled,
    }
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
    use crate::target::GradTargetMut;

    #[test]
    fn fits_an_independent_gaussian() {
        // theta1 ~ N(1, 0.5), theta2 ~ N(-2, 2)
        let target = |q: &[f64]| {
            let z1 = (q[0] - 1.0) / 0.5;
            let z2 = (q[1] + 2.0) / 2.0;
            let lp = -0.5 * z1 * z1 - 0.5 * z2 * z2;
            (lp, vec![-z1 / 0.5, -z2 / 2.0])
        };
        let res = advi_fit(
            &target,
            2,
            &AdviConfig {
                steps: 3000,
                seed: 4,
                ..Default::default()
            },
        );
        assert!((res.mu[0] - 1.0).abs() < 0.15, "{}", res.mu[0]);
        assert!((res.mu[1] + 2.0).abs() < 0.4, "{}", res.mu[1]);
        assert!((res.omega[0].exp() - 0.5).abs() < 0.2);
        let s = summarize(&res.draws);
        assert!((s[0].mean - 1.0).abs() < 0.2);
    }

    /// An independent Gaussian, scored per point through the trait's
    /// default `logp_grad_batch` loop.
    struct PerPoint;

    fn gauss(q: &[f64], grad: &mut [f64]) -> f64 {
        let z1 = (q[0] - 1.0) / 0.5;
        let z2 = (q[1] + 2.0) / 2.0;
        grad[0] = -z1 / 0.5;
        grad[1] = -z2 / 2.0;
        -0.5 * z1 * z1 - 0.5 * z2 * z2
    }

    impl GradTargetMut for PerPoint {
        fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
            gauss(q, grad)
        }
    }

    impl GradTargetBatch for PerPoint {}

    /// The same density with an overriding batch method that scores the
    /// points back to front, as a lane backend is free to order its work.
    struct Batched {
        calls: usize,
    }

    impl GradTargetMut for Batched {
        fn logp_grad_into(&mut self, _: &[f64], _: &mut [f64]) -> f64 {
            unreachable!("the batched fit scores through logp_grad_batch only")
        }
    }

    impl GradTargetBatch for Batched {
        fn logp_grad_batch(&mut self, qs: &[f64], logps: &mut [f64], grads: &mut [f64]) {
            self.calls += 1;
            let dim = qs.len() / logps.len();
            for i in (0..logps.len()).rev() {
                let span = i * dim..(i + 1) * dim;
                logps[i] = gauss(&qs[span.clone()], &mut grads[span]);
            }
        }
    }

    #[test]
    fn batched_fit_matches_sequential_fit_bitwise() {
        let cfg = AdviConfig {
            steps: 200,
            grad_samples: 4,
            output_samples: 50,
            seed: 9,
            ..Default::default()
        };
        let want = advi_fit_batch(&mut PerPoint, 2, &cfg);
        let mut batched = Batched { calls: 0 };
        let got = advi_fit_batch(&mut batched, 2, &cfg);
        assert_eq!(batched.calls, cfg.steps, "one batch call per step");
        assert_eq!(want.mu, got.mu);
        assert_eq!(want.omega, got.omega);
        assert_eq!(want.draws, got.draws);
        assert_eq!(want.elbo_trace, got.elbo_trace);
    }

    #[test]
    fn mean_field_advi_collapses_to_one_mode_of_a_mixture() {
        // Mixture of N(0,1) and N(20,1): a mean-field Gaussian cannot cover
        // both modes — this is exactly the failure illustrated in Figure 10.
        let target = |q: &[f64]| {
            let x = q[0];
            let a = -0.5 * x * x;
            let b = -0.5 * (x - 20.0) * (x - 20.0);
            let m = a.max(b);
            let lp = m + ((a - m).exp() + (b - m).exp()).ln() - 2f64.ln();
            // numerical gradient of the mixture log-density
            let wa = (a - lp - 2f64.ln()).exp();
            let wb = (b - lp - 2f64.ln()).exp();
            let g = wa * (-x) + wb * (-(x - 20.0));
            (lp, vec![g])
        };
        let res = advi_fit(
            &target,
            1,
            &AdviConfig {
                steps: 3000,
                seed: 5,
                ..Default::default()
            },
        );
        let sd = res.omega[0].exp();
        // The approximation sits on one mode with a narrow standard deviation
        // rather than spanning [0, 20].
        assert!(sd < 5.0, "sd {sd}");
        let near_zero = (res.mu[0] - 0.0).abs() < 3.0;
        let near_twenty = (res.mu[0] - 20.0).abs() < 3.0;
        assert!(near_zero || near_twenty, "mu {}", res.mu[0]);
        assert!(!res.elbo_trace.is_empty());
    }
}
