//! `extern "C"` shims over the element kernels and constraint transforms,
//! for machine-code callers (the `gprob` DProg JIT).
//!
//! Emitted code cannot call generic Rust functions directly: it needs
//! symbols with a fixed System-V signature and no unwinding. Each shim here
//! is a thin, monomorphic wrapper that (a) reads the `DistKind` /
//! [`Constraint`] operand through a pointer the code generator embedded as
//! an immediate, (b) calls the exact kernel the interpreter calls — no
//! distribution math is duplicated — and (c) reports the `Option` result
//! through a sentinel (`NaN`, matching the interpreter's `unwrap_or(NAN)`)
//! or an `i32` flag.
//!
//! Safety contract (upheld by the emitter, documented per function): every
//! pointer argument is non-null, properly aligned, and points at data that
//! outlives the call — `kind`/`constraint` point into the JIT's owned copy
//! of the program, `out` points at scratch in the caller's stack frame.

use crate::sweep::{lpdf_elem_partials_only, lpdf_elem_value};
use crate::transform::Constraint;
use crate::DistKind;

/// `lpdf_elem_value(*kind, x, &[a0, a1, a2]).unwrap_or(NaN)`.
///
/// # Safety
/// `kind` must point at a live [`DistKind`].
pub unsafe extern "C" fn elem_value_c(
    kind: *const DistKind,
    x: f64,
    a0: f64,
    a1: f64,
    a2: f64,
) -> f64 {
    lpdf_elem_value(*kind, x, &[a0, a1, a2]).unwrap_or(f64::NAN)
}

/// `lpdf_elem_partials_only(*kind, x, &[a0, a1, a2])`: writes `[dx, d0, d1, d2]`
/// to `out` and returns 1 when the kernel exists, returns 0 (leaving `out`
/// untouched) when it does not — the branch the interpreter takes on `None`.
///
/// # Safety
/// `kind` must point at a live [`DistKind`]; `out` at 4 writable `f64`s.
pub unsafe extern "C" fn elem_partials_c(
    kind: *const DistKind,
    out: *mut f64,
    x: f64,
    a0: f64,
    a1: f64,
    a2: f64,
) -> i32 {
    match lpdf_elem_partials_only(*kind, x, &[a0, a1, a2]) {
        Some((dx, dp)) => {
            *out = dx;
            *out.add(1) = dp[0];
            *out.add(2) = dp[1];
            *out.add(3) = dp[2];
            1
        }
        None => 0,
    }
}

/// Forward half of a constrain step: writes `to_constrained(u)` to `out_x`
/// and returns `log_jacobian(u)`.
///
/// # Safety
/// `constraint` must point at a live [`Constraint`]; `out_x` at a writable
/// `f64`.
pub unsafe extern "C" fn constrain_forward_c(
    constraint: *const Constraint,
    out_x: *mut f64,
    u: f64,
) -> f64 {
    let c = &*constraint;
    *out_x = c.to_constrained(u);
    c.log_jacobian(u)
}
