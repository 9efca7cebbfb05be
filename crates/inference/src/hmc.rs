//! Plain Hamiltonian Monte Carlo with a fixed number of leapfrog steps.
//!
//! Kept as a simpler, easier-to-reason-about baseline next to
//! [`crate::nuts`]; also used by tests to cross-check posterior summaries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::target::{GradTarget, GradTargetMut};

/// Configuration for static HMC.
#[derive(Debug, Clone)]
pub struct HmcConfig {
    /// Warmup iterations (step size is tuned by a simple acceptance-rate
    /// heuristic during warmup).
    pub warmup: usize,
    /// Number of kept draws.
    pub samples: usize,
    /// Number of leapfrog steps per proposal.
    pub leapfrog_steps: usize,
    /// Initial step size.
    pub step_size: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HmcConfig {
    fn default() -> Self {
        HmcConfig {
            warmup: 500,
            samples: 500,
            leapfrog_steps: 20,
            step_size: 0.1,
            seed: 0,
        }
    }
}

/// The output of an HMC run.
#[derive(Debug, Clone)]
pub struct HmcResult {
    /// Post-warmup draws.
    pub draws: Vec<Vec<f64>>,
    /// Acceptance rate after warmup.
    pub accept_rate: f64,
    /// Final step size.
    pub step_size: f64,
}

/// Runs static HMC on a `(log p, ∇ log p)` target. Stateful targets should
/// use [`hmc_sample_mut`], which this function delegates to.
pub fn hmc_sample<T: GradTarget + ?Sized>(
    target: &T,
    init: Vec<f64>,
    config: &HmcConfig,
) -> HmcResult {
    let mut adapter = target;
    hmc_sample_mut(&mut adapter, init, config)
}

/// [`hmc_sample`] over the buffer-reusing [`GradTargetMut`] interface.
pub fn hmc_sample_mut<T: GradTargetMut + ?Sized>(
    target: &mut T,
    init: Vec<f64>,
    config: &HmcConfig,
) -> HmcResult {
    let dim = init.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut q = init;
    let mut grad = vec![0.0; dim];
    let mut logp = target.logp_grad_into(&q, &mut grad);
    if logp.is_nan() {
        logp = f64::NEG_INFINITY;
        grad.fill(0.0);
    }
    let mut step = config.step_size;
    let mut draws = Vec::with_capacity(config.samples);
    let mut accepted_post = 0usize;

    for iter in 0..(config.warmup + config.samples) {
        let p0: Vec<f64> = (0..dim).map(|_| standard_normal(&mut rng)).collect();
        let mut p = p0.clone();
        let mut q_new = q.clone();
        let mut grad_new = grad.clone();
        let mut logp_new = logp;

        // Leapfrog integration.
        for i in 0..dim {
            p[i] += 0.5 * step * grad_new[i];
        }
        for l in 0..config.leapfrog_steps {
            for i in 0..dim {
                q_new[i] += step * p[i];
            }
            let lp = target.logp_grad_into(&q_new, &mut grad_new);
            logp_new = if lp.is_nan() { f64::NEG_INFINITY } else { lp };
            let last = l + 1 == config.leapfrog_steps;
            let factor = if last { 0.5 } else { 1.0 };
            for i in 0..dim {
                p[i] += factor * step * grad_new[i];
            }
        }

        let h0 = logp - 0.5 * p0.iter().map(|x| x * x).sum::<f64>();
        let h1 = logp_new - 0.5 * p.iter().map(|x| x * x).sum::<f64>();
        let accept_prob = (h1 - h0).exp().min(1.0);
        let accept = accept_prob.is_finite() && rng.gen::<f64>() < accept_prob;
        if accept {
            q = q_new;
            logp = logp_new;
            grad = grad_new;
        }

        if iter < config.warmup {
            // Simple Robbins-Monro step-size tuning toward 65% acceptance.
            let target_accept = 0.65;
            let adapt = 1.0 + 0.05 * (accept_prob - target_accept);
            step = (step * adapt).clamp(1e-6, 5.0);
        } else {
            if accept {
                accepted_post += 1;
            }
            draws.push(q.clone());
        }
    }

    HmcResult {
        draws,
        accept_rate: accepted_post as f64 / config.samples.max(1) as f64,
        step_size: step,
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

    #[test]
    fn recovers_shifted_normal() {
        let target = |q: &[f64]| {
            let z = q[0] - 3.0;
            (-0.5 * z * z, vec![-z])
        };
        let cfg = HmcConfig {
            warmup: 500,
            samples: 1500,
            seed: 11,
            ..Default::default()
        };
        let res = hmc_sample(&target, vec![0.0], &cfg);
        let s = summarize(&res.draws);
        assert!((s[0].mean - 3.0).abs() < 0.2, "mean {}", s[0].mean);
        assert!(res.accept_rate > 0.4, "accept {}", res.accept_rate);
    }

    #[test]
    fn step_size_stays_positive_under_bad_gradients() {
        let target = |q: &[f64]| {
            if q[0].abs() > 5.0 {
                (f64::NEG_INFINITY, vec![0.0])
            } else {
                (-0.5 * q[0] * q[0], vec![-q[0]])
            }
        };
        let res = hmc_sample(&target, vec![0.0], &HmcConfig::default());
        assert!(res.step_size > 0.0);
        assert_eq!(res.draws.len(), 500);
    }
}
