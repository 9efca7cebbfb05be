//! Native x86_64 code generation for density programs: the forward f64
//! pass and the analytic reverse sweep of a [`DProg`], emitted as one
//! contiguous executable buffer.
//!
//! # Calling convention
//!
//! Both entry points share one System-V-compatible signature:
//!
//! ```text
//! extern "C" fn(regs: *mut f64, adj: *mut f64) -> f64
//! ```
//!
//! `regs` is the program's pooled register file (inputs pre-copied by the
//! Rust caller, exactly like the interpreter), `adj` the zeroed adjoint
//! buffer; the return value is `score + jac`. The value entry runs the
//! forward pass only; the gradient entry runs forward then reverse,
//! leaving `adj[..n_inputs]` holding the gradient for the caller to copy
//! out.
//!
//! # Register and stack discipline
//!
//! The emitted frame is `push r12; push r13; push rbx; push r14; push r15;
//! sub rsp, 64` — five pushes keep `rsp ≡ 0 (mod 16)` at every call site,
//! as the ABI requires. `r12`/`r13` hold the `regs`/`adj` base pointers for
//! the whole function, `rbx` the counter of a rolled `Loop`, `r14` the
//! element counter of a span op and `r15` the row counter of a
//! matrix-vector product (all callee-saved, so they survive shim calls
//! inside loops); `xmm0..xmm7` are operand scratch and `xmm8..xmm15` hold
//! the reverse pass's cached adjoint sums within a call-free loop. The
//! 64-byte frame holds the `score`/`jac` accumulators, a 4-slot shim
//! out-buffer, and spill slots for values live across calls (see `emit.rs`
//! for the loop and addressing scheme, the exact layout, XMM allocation,
//! and the adjoint register cache).
//!
//! Everything beyond inline SSE2 arithmetic — transcendentals, score
//! kernels, batched sweeps, non-trivial constraint transforms — is a call
//! into the `extern "C"` shims of the `abi` module (backed by `probdist::ffi` and
//! the interpreter's own private sweep methods), so no kernel math is
//! duplicated in emitted code.
//!
//! # W^X page lifecycle
//!
//! Emission targets a plain `Vec<u8>`; the executor (`exec::CodeBuf`) then maps an
//! anonymous RW page, copies the bytes, and flips the page RW→RX with
//! `mprotect` before the first call. No mapping is ever writable and
//! executable at once, the published page is immutable for the life of the
//! [`JitProg`] (a repeated-eval test pins zero code-page reallocation), and
//! `munmap` reclaims it on drop.
//!
//! # Decline rules
//!
//! `compile` returns a [`Decline`] — and the model keeps the interpreted
//! DProg byte-identically — when any of the following holds:
//!
//! * the target is not `x86_64-linux` (no emitter / no `mmap`);
//! * `GPROB_JIT=0` (or `off`) disables JIT in the environment;
//! * the CPU lacks SSE2 (not observed in practice on x86_64);
//! * the code would exceed the emitter's size cap. Loops and span ops are
//!   emitted as native loops, so code follows the op list: only a program
//!   of very many ops, such as one with long bind-time loop expansions,
//!   comes near it;
//! * a register displacement or loop bound would overflow 32-bit
//!   addressing, or an operand would address past the register file;
//! * `mmap`/`mprotect` refuse the code page.
//!
//! The interpreted program remains the differential oracle either way:
//! `tests/jit_equivalence.rs` holds JIT values and gradients to bitwise
//! equality with the interpreter across the corpus.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod abi;
pub mod cpu;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod emit;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod exec;

use super::{DProg, DProgWorkspace, Decline};
use crate::value::RuntimeError;

/// A density program compiled to native code, owning both the executable
/// buffer and the (boxed, address-stable) `DProg` whose op metadata the
/// emitted code references by absolute pointer.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub struct JitProg {
    /// The program the code was emitted against. Boxed so the addresses of
    /// op fields (`DistKind`s, `BinF`s, whole `Op`s for the sweep shims)
    /// embedded in the machine code as immediates stay valid wherever the
    /// `JitProg` itself moves.
    prog: Box<DProg>,
    code: exec::CodeBuf,
    value_entry: unsafe extern "C" fn(*mut f64, *mut f64) -> f64,
    grad_entry: unsafe extern "C" fn(*mut f64, *mut f64) -> f64,
}

/// Unreachable stand-in on targets without the emitter: [`compile`] always
/// declines there, so no value of this type ever exists.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub struct JitProg {
    never: std::convert::Infallible,
}

/// Compiles `dp` to native code, or explains why not (see the module docs'
/// decline rules).
///
/// # Errors
/// A [`Decline`] with the stated reason; the caller keeps the interpreter.
pub(crate) fn compile(dp: &DProg) -> Result<JitProg, Decline> {
    if let Some(v) = std::env::var_os("GPROB_JIT") {
        if v == "0" || v == "off" {
            return Err(Decline::new("jit disabled by GPROB_JIT"));
        }
    }
    compile_native(dp)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn compile_native(dp: &DProg) -> Result<JitProg, Decline> {
    if !cpu::features().sse2 {
        return Err(Decline::new("jit: SSE2 not available"));
    }
    // Box first, emit second: the emitter bakes pointers into *this* copy.
    let prog = Box::new(dp.clone());
    let emitted = emit::emit(&prog)?;
    let code =
        exec::CodeBuf::publish(&emitted.code).map_err(|e| Decline::new(format!("jit: {e}")))?;
    // SAFETY: both offsets mark function starts emitted under the ABI this
    // module documents.
    let value_entry = unsafe { code.entry(emitted.value_off) };
    let grad_entry = unsafe { code.entry(emitted.grad_off) };
    Ok(JitProg {
        prog,
        code,
        value_entry,
        grad_entry,
    })
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn compile_native(_dp: &DProg) -> Result<JitProg, Decline> {
    Err(Decline::new(
        "jit: unsupported target (requires x86_64-linux)",
    ))
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
impl JitProg {
    /// Log-density via the native forward pass — same contract as
    /// [`DProg::value`].
    ///
    /// # Errors
    /// Fails only on a wrong input length.
    pub fn value(&self, theta_u: &[f64], ws: &mut DProgWorkspace) -> Result<f64, RuntimeError> {
        self.prog.check_len(theta_u)?;
        ws.regs[..self.prog.n_inputs].copy_from_slice(theta_u);
        // SAFETY: the buffers are sized n_regs by construction and the
        // emitted code addresses only in-bounds register slots.
        let v = unsafe { (self.value_entry)(ws.regs.as_mut_ptr(), ws.adj.as_mut_ptr()) };
        Ok(v)
    }

    /// Log-density and gradient via the native forward + reverse sweeps —
    /// same contract as [`DProg::value_and_grad`].
    ///
    /// # Errors
    /// Fails only on a wrong input length.
    ///
    /// # Panics
    /// Panics if `grad_out` is shorter than the input dimension (matching
    /// the interpreter).
    pub fn value_and_grad(
        &self,
        theta_u: &[f64],
        grad_out: &mut [f64],
        ws: &mut DProgWorkspace,
    ) -> Result<f64, RuntimeError> {
        self.prog.check_len(theta_u)?;
        let n = self.prog.n_inputs;
        assert!(grad_out.len() >= n, "gradient buffer too short");
        ws.regs[..n].copy_from_slice(theta_u);
        ws.adj.fill(0.0);
        // SAFETY: as `value`; the reverse sweep writes only adjoint slots.
        let v = unsafe { (self.grad_entry)(ws.regs.as_mut_ptr(), ws.adj.as_mut_ptr()) };
        grad_out[..n].copy_from_slice(&ws.adj[..n]);
        Ok(v)
    }

    /// Base address of the executable page — stable for the program's
    /// lifetime (pinned by the zero-reallocation test).
    pub fn code_ptr(&self) -> usize {
        self.code.base() as usize
    }

    /// Emitted code size in bytes.
    pub fn code_len(&self) -> usize {
        self.code.len()
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
impl JitProg {
    /// Unreachable on this target ([`compile`] always declines).
    pub fn value(&self, _theta_u: &[f64], _ws: &mut DProgWorkspace) -> Result<f64, RuntimeError> {
        match self.never {}
    }

    /// Unreachable on this target ([`compile`] always declines).
    pub fn value_and_grad(
        &self,
        _theta_u: &[f64],
        _grad_out: &mut [f64],
        _ws: &mut DProgWorkspace,
    ) -> Result<f64, RuntimeError> {
        match self.never {}
    }

    /// Unreachable on this target ([`compile`] always declines).
    pub fn code_ptr(&self) -> usize {
        match self.never {}
    }

    /// Unreachable on this target ([`compile`] always declines).
    pub fn code_len(&self) -> usize {
        match self.never {}
    }
}
