//! Stochastic variational inference utilities: the Adam optimizer and a
//! generic optimization loop over noisy ELBO gradients.
//!
//! The ELBO itself is assembled by the caller (the `deepstan` crate pairs a
//! compiled model with a compiled guide and differentiates through the
//! reparameterized guide samples); this module only provides the stochastic
//! optimization machinery, mirroring how Pyro's `SVI` object wraps an
//! arbitrary `model`/`guide` pair and an optimizer.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cancel::CancelToken;

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// The Adam optimizer state for a flat parameter vector.
#[derive(Debug, Clone)]
pub struct Adam {
    config: AdamConfig,
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
}

impl Adam {
    /// Creates an optimizer for `dim` parameters.
    pub fn new(dim: usize, config: AdamConfig) -> Self {
        Adam {
            config,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Applies one ascent step in place (gradients are of an objective to
    /// *maximize*, e.g. the ELBO).
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(params.len(), grad.len());
        self.t += 1;
        let c = &self.config;
        let t = self.t as f64;
        for i in 0..params.len() {
            let g = if grad[i].is_finite() { grad[i] } else { 0.0 };
            self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g;
            self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g;
            let m_hat = self.m[i] / (1.0 - c.beta1.powf(t));
            let v_hat = self.v[i] / (1.0 - c.beta2.powf(t));
            params[i] += c.lr * m_hat / (v_hat.sqrt() + c.eps);
        }
    }
}

/// The result of an SVI optimization run.
#[derive(Debug, Clone)]
pub struct SviResult {
    /// Optimized variational parameters.
    pub params: Vec<f64>,
    /// ELBO trace (one smoothed value per reporting interval).
    pub elbo_trace: Vec<f64>,
    /// True when the optimization stopped early because the caller's
    /// cancel token fired (see [`svi_optimize_draws_cancellable`]);
    /// `params` then holds the values as of the last completed step.
    pub cancelled: bool,
}

/// Maximizes a stochastic objective (the ELBO) with Adam.
///
/// `objective_grad` receives the current parameters, the number of
/// Monte-Carlo draws to average per step, and an RNG (for drawing the noise
/// of the reparameterized ELBO estimate), and returns
/// `(elbo_estimate, gradient)` with the gradient already averaged over its
/// draws. The count lets a batched backend (e.g. a lane-widened density
/// program behind [`crate::GradTargetBatch`]) score all `draws` guide
/// samples in one sweep.
///
/// `cancel` is polled once per optimization step (never inside the
/// objective), and a fired token stops the loop with the parameters from
/// the last completed step and `cancelled: true`. A token that never fires
/// leaves the run unchanged.
#[allow(clippy::too_many_arguments)]
pub fn svi_optimize_draws_cancellable<F: FnMut(&[f64], usize, &mut StdRng) -> (f64, Vec<f64>)>(
    objective_grad: &mut F,
    init: Vec<f64>,
    steps: usize,
    draws: usize,
    config: AdamConfig,
    seed: u64,
    cancel: &CancelToken,
) -> SviResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = init;
    let mut adam = Adam::new(params.len(), config);
    let mut elbo_trace = Vec::new();
    let mut running = 0.0;
    let report_every = (steps / 50).max(1);
    let mut step_timer = obs::StepTimer::new("svi.step");
    let mut cancelled = false;
    for step in 0..steps {
        if cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        step_timer.begin();
        let (elbo, grad) = objective_grad(&params, draws, &mut rng);
        adam.step(&mut params, &grad);
        running += elbo;
        step_timer.end();
        if (step + 1) % report_every == 0 {
            elbo_trace.push(running / report_every as f64);
            running = 0.0;
        }
    }
    SviResult {
        params,
        elbo_trace,
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn adam_maximizes_a_quadratic() {
        // Maximize -(x-3)^2 - (y+1)^2.
        let mut params = vec![0.0, 0.0];
        let mut adam = Adam::new(
            2,
            AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
        );
        for _ in 0..2000 {
            let grad = vec![-2.0 * (params[0] - 3.0), -2.0 * (params[1] + 1.0)];
            adam.step(&mut params, &grad);
        }
        assert!((params[0] - 3.0).abs() < 1e-3);
        assert!((params[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn adam_ignores_non_finite_gradients() {
        let mut params = vec![1.0];
        let mut adam = Adam::new(1, AdamConfig::default());
        adam.step(&mut params, &[f64::NAN]);
        assert!(params[0].is_finite());
    }

    #[test]
    fn single_draw_multi_draw_loop_matches_the_plain_loop_bitwise() {
        let objective = |params: &[f64], rng: &mut StdRng| -> (f64, Vec<f64>) {
            let noise: f64 = rng.gen::<f64>() - 0.5;
            let g = -2.0 * (params[0] - 3.0) + noise;
            (-(params[0] - 3.0).powi(2), vec![g])
        };
        // The plain loop: one draw, one Adam step, the trace averaged over
        // `steps / 50` steps.
        let (steps, report_every) = (300, 6);
        let mut rng = StdRng::seed_from_u64(17);
        let mut want_params = vec![0.0];
        let mut adam = Adam::new(1, AdamConfig::default());
        let mut want_trace = Vec::new();
        let mut running = 0.0;
        for step in 0..steps {
            let (elbo, grad) = objective(&want_params, &mut rng);
            adam.step(&mut want_params, &grad);
            running += elbo;
            if (step + 1) % report_every == 0 {
                want_trace.push(running / report_every as f64);
                running = 0.0;
            }
        }
        let mut multi = |params: &[f64], draws: usize, rng: &mut StdRng| -> (f64, Vec<f64>) {
            assert_eq!(draws, 1);
            objective(params, rng)
        };
        let got = svi_optimize_draws_cancellable(
            &mut multi,
            vec![0.0],
            steps,
            1,
            AdamConfig::default(),
            17,
            &CancelToken::new(),
        );
        assert_eq!(want_params, got.params);
        assert_eq!(want_trace, got.elbo_trace);
        assert!(!got.cancelled);
    }

    #[test]
    fn svi_optimize_fits_a_gaussian_mean_field() {
        // Target: theta ~ N(2, 0.5^2). Variational family: N(mu, exp(omega)).
        // The reparameterized ELBO gradient has a closed form here; we just
        // give noisy gradients and check convergence of mu.
        let mut objective = |params: &[f64], _draws: usize, rng: &mut StdRng| -> (f64, Vec<f64>) {
            let (mu, omega) = (params[0], params[1]);
            let sigma_q = omega.exp();
            let eps: f64 = {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            let z = mu + sigma_q * eps;
            // log p(z) for N(2, 0.5), entropy of q added analytically.
            let sd = 0.5;
            let logp = -0.5 * ((z - 2.0) / sd).powi(2);
            let dlogp_dz = -(z - 2.0) / (sd * sd);
            let elbo = logp + omega; // + const entropy
            let grad = vec![dlogp_dz, dlogp_dz * sigma_q * eps + 1.0];
            (elbo, grad)
        };
        let result = svi_optimize_draws_cancellable(
            &mut objective,
            vec![0.0, 0.0],
            4000,
            1,
            AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
            1,
            &CancelToken::new(),
        );
        assert!(
            (result.params[0] - 2.0).abs() < 0.15,
            "mu {}",
            result.params[0]
        );
        assert!(
            (result.params[1].exp() - 0.5).abs() < 0.2,
            "sigma {}",
            result.params[1].exp()
        );
        assert!(!result.elbo_trace.is_empty());
        // The ELBO should improve over the run.
        let first = result.elbo_trace.first().unwrap();
        let last = result.elbo_trace.last().unwrap();
        assert!(last > first);
    }
}
