//! `probdist` — probability distributions and constraint transforms.
//!
//! This crate is the distribution library shared by every runtime in the
//! workspace: the GProb interpreter (Pyro/NumPyro analog), the baseline Stan
//! semantics interpreter, and the variational-inference guides. It plays the
//! role of (the used subset of) the Stan math library and of Pyro's
//! `distributions` module in the original paper.
//!
//! * [`Dist`] — a runtime distribution value parameterized by a
//!   [`minidiff::Real`] scalar, with log-density ([`Dist::lpdf`],
//!   [`Dist::lpdf_vec`]), sampling ([`Dist::sample`]) and support queries.
//! * [`Constraint`] / [`transform`] — Stan-style constrained-to-unconstrained
//!   reparameterizations with log-Jacobian corrections, used so that HMC
//!   explores an unconstrained space exactly as CmdStan does.
//! * [`sampling`] — primitive samplers (Box–Muller normal, Marsaglia–Tsang
//!   gamma, …) built only on [`rand`]'s uniform generator.
//!
//! # Example
//!
//! ```
//! use probdist::Dist;
//! let d: Dist<f64> = Dist::normal(0.0, 1.0);
//! let lp = d.lpdf(0.0).unwrap();
//! assert!((lp + 0.9189385332046727).abs() < 1e-12);
//! ```

pub mod dist;
pub mod ffi;
pub mod sampling;
pub mod sweep;
pub mod transform;

pub use dist::{dist_from_kind, dist_from_name, Dist, DistError, DistKind, SampleValue, Support};
pub use sweep::{
    bernoulli_lpmf_from_logs, binomial_lpmf_from_logs, lpdf_elem_partials_only,
    lpdf_elem_partials_only_lanes, lpdf_elem_value, lpdf_elem_value_lanes, lpdf_elems, lpdf_sweep,
    normal_lpdf_const, normal_lpdf_from_const, normal_partials_only, supports_elem, supports_sweep,
    sweep_arity, SweepArg, SweepVals,
};
pub use transform::Constraint;
