//! `inference` — posterior inference algorithms and diagnostics.
//!
//! This crate supplies the inference machinery that the paper gets from the
//! Stan, Pyro and NumPyro runtimes:
//!
//! * [`nuts`] — the No-U-Turn Sampler (multinomial variant with dual-averaging
//!   step-size adaptation and diagonal mass-matrix estimation), Stan's and
//!   Pyro's preferred inference method and the one used for every accuracy /
//!   speed comparison in the paper's evaluation.
//! * [`hmc`] — plain fixed-length Hamiltonian Monte Carlo, kept as a simpler
//!   baseline and for tests.
//! * [`advi`] — automatic differentiation variational inference with a
//!   mean-field Gaussian family (the `Stan ADVI` baseline of Figure 10).
//! * [`svi`] — stochastic variational inference utilities (the Adam optimizer
//!   and optimization loop) used with explicit DeepStan guides.
//! * [`importance`] — likelihood-weighting importance sampling.
//! * [`diagnostics`] — posterior summaries, split-R̂, effective sample size,
//!   and the paper's accuracy criterion
//!   `|mean(θ) − mean(θ_ref)| < 0.3 · stddev(θ_ref)`.
//! * [`predictive`] — the chain-sharded streaming driver behind
//!   `Fit`-level generated-quantities / posterior-predictive evaluation,
//!   with deterministic per-(chain, draw) RNG streams.
//! * [`loo`] — model criticism over pointwise log-likelihood matrices:
//!   PSIS-LOO with Pareto-`k̂` diagnostics, WAIC, and `loo_compare`.
//! * [`cancel`] — the cooperative [`CancelToken`] every outer loop polls
//!   per draw / per step, so callers can bound wall-clock time (serve-tier
//!   deadlines) without perturbing the bitwise draw prefix.
//!
//! All samplers are generic over the target. The hot loops drive the
//! buffer-reusing [`target::GradTargetMut`] interface (`logp_grad_into`
//! writes the gradient into a caller-owned slice, so workspace-backed models
//! evaluate without per-step allocation); plain closures returning
//! `(log p, ∇ log p)` still work everywhere through [`target::GradTarget`]
//! and its adapter. One target instance is one chain — multi-chain runs
//! (e.g. `deepstan`'s `Session`) give each thread its own target. Cross-chain
//! convergence is assessed with [`diagnostics::multi_split_rhat`] /
//! [`diagnostics::multi_ess`].
//!
//! Because every sampler goes through `GradTargetMut`, NUTS, HMC and ADVI
//! all pick up the tape-free density programs (`gprob::dprog`) transparently:
//! a `gprob`-backed target routes `logp_grad_into` to the compiled register
//! program when the model's density lowered at bind time, and to the
//! recorded-tape interpreter when it declined. Nothing in this crate needs
//! to know which backend ran.
//!
//! Samplers score one point per gradient evaluation: a multi-chain NUTS
//! run is independent [`nuts::nuts_sample_mut`] chains, which the caller
//! places on threads (`deepstan`'s `Session` runs them back to back on
//! `min(chains, threads)` workers). Multi-point work flows through
//! [`target::GradTargetBatch`] where the points exist together:
//! [`advi::advi_fit_batch`] scores each step's Monte-Carlo guide draws in
//! one pass (and importance sampling its prior draws), which is how
//! lane-widened struct-of-arrays density programs evaluate several points
//! per sweep — bitwise identical per fit to [`advi::advi_fit_mut`].
//!
//! # Example
//!
//! ```
//! use inference::nuts::{nuts_sample, NutsConfig};
//! // Standard normal target.
//! let target = |theta: &[f64]| (-0.5 * theta[0] * theta[0], vec![-theta[0]]);
//! let cfg = NutsConfig { warmup: 200, samples: 400, seed: 7, ..Default::default() };
//! let result = nuts_sample(&target, vec![0.5], &cfg);
//! let mean: f64 = result.draws.iter().map(|d| d[0]).sum::<f64>() / result.draws.len() as f64;
//! assert!(mean.abs() < 0.3);
//! ```

pub mod advi;
pub mod cancel;
pub mod diagnostics;
pub mod hmc;
pub mod importance;
pub mod loo;
pub mod nuts;
pub mod predictive;
pub mod svi;
pub mod target;

pub use advi::{advi_fit, advi_fit_batch, advi_fit_mut, AdviConfig, AdviResult};
pub use cancel::CancelToken;
pub use diagnostics::{
    accuracy_pass, ess, multi_ess, multi_split_rhat, split_rhat, summarize, Summary,
};
pub use hmc::{hmc_sample, hmc_sample_mut, HmcConfig, HmcResult};
pub use loo::{loo_compare, psis_loo, waic, CompareRow, ElpdEstimate};
pub use nuts::{nuts_sample, nuts_sample_mut, NutsConfig, NutsResult};
pub use predictive::{draw_seed, stream_chains, GqTable, StreamError};
pub use svi::{
    svi_optimize, svi_optimize_draws, svi_optimize_draws_cancellable, Adam, AdamConfig, SviResult,
};
pub use target::{GradTarget, GradTargetBatch, GradTargetMut};
