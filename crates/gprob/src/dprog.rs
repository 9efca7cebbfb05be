//! Tape-free density programs: `ResolvedProgram` compiled to a flat,
//! register-addressed op list evaluated with **no tape at all**.
//!
//! Every gradient evaluation on the `Var`/tape path re-*records* the Wengert
//! list: the interpreter walks the resolved body, every scalar operation
//! borrows the thread-local `RefCell` tape and pushes a node, and the reverse
//! sweep allocates adjoints for the whole recording — even though, for a
//! fixed (model, data) binding, the op sequence is identical on every call.
//! This module performs that recording **once, at bind time**: [`compile`]
//! lowers the resolved body into a [`DProg`] — a static register program —
//! and [`DProg::value_and_grad`] evaluates value + gradient with one forward
//! `f64` pass over the op array into a pooled register file and one analytic
//! reverse sweep over the same array (each opcode derives its local partials
//! from the forward registers; score sites reuse the analytic reverse
//! rules of [`probdist::lpdf_elem_partials_only_lanes`]).
//!
//! # Register model
//!
//! The register file is a flat `f64` pool in a [`DProgWorkspace`]:
//!
//! * registers `0..n_inputs` hold the unconstrained parameter vector,
//!   rewritten on every evaluation;
//! * a constant region holds data values, written once when the workspace is
//!   built ([`DProg::workspace`]) and never touched per evaluation;
//! * every op writes a **fresh** destination register (static single
//!   assignment), so after the forward pass the register file holds each
//!   op's operand values and the reverse sweep can derive every local
//!   partial without any recording. Loop bodies are scalar-expanded: each
//!   body temporary owns a span of `trip` registers addressed
//!   `base + stride·iter`, and loop-carried recurrences (garch11's
//!   `sigma_t`, arma11's `err`) become register *chains* of `trip + 1`
//!   entries, which is what lets the reverse sweep walk iterations backwards
//!   with no per-iteration checkpointing.
//!
//! Loop-invariant values that depend only on data fold to constants at
//! compile time; values that depend on data *and* the loop counter
//! (`y[t-1]` in a time series) fold to per-iteration constant tables
//! indexed by `iter`.
//!
//! # Lane model
//!
//! There is one op walk (`forward_lanes` / `reverse_lanes`), generic over a
//! compile-time lane count L: it scores L *independent* unconstrained points
//! with **one** forward and **one** reverse sweep over the op array, so op
//! decode, dispatch, and table addressing are paid once per op instead of
//! once per op per point. The program runs against a struct-of-arrays
//! register file where each register becomes a row of L lanes, stored
//! contiguously in a 64-byte-aligned pool:
//!
//! ```text
//!              lane 0   lane 1   ...  lane L-1
//! reg 0      [ q0[0]  | q1[0]  | ... | qL-1[0]  ]   <- input region,
//! reg 1      [ q0[1]  | q1[1]  | ... | qL-1[1]  ]      point l in lane l
//! ...
//! reg r      [  r·L   | r·L+1  | ... | r·L+L-1 ]   <- pool offset of reg r
//! ```
//!
//! Every inner loop walks lanes `0..L` (`L ∈ {1, 2, 4, 8}`, monomorphized),
//! so the plain-indexed f64 loops auto-vectorize on stable Rust — no nightly
//! SIMD features, no intrinsics. A single point is a batch of one:
//! [`DProg::value`] / [`DProg::value_and_grad`] run the `L = 1` walk over
//! the workspace's own register file, whose one-lane layout puts register
//! `r` at offset `r`. [`DProg::value_and_grad_lanes`] runs the L-wide walks
//! over lane files. Score sites go through the lane-widened elem and sweep
//! kernels ([`probdist::lpdf_elem_value_lanes`] /
//! [`probdist::lpdf_elem_partials_only_lanes`]); the JIT's sweep shims call
//! the same sweep kernels at `L = 1`, so one kernel — with its per-sweep
//! hoists — serves single points, lanes and native code.
//!
//! Lane evaluation is **not** a numerical variant: every formula,
//! accumulation order, and reverse-sweep zero-guard depends on its own lane
//! only, so lane `l` of a batch computes bitwise what a single-point
//! [`DProg::value_and_grad`] call computes on that point. A batch of n
//! points is chunked greedily into lanes of 8, then 4, then 2; a ragged
//! remainder point runs through the single-point entry. Decline rules are
//! unchanged — lanes are a property of *evaluation*, not compilation, and
//! declined models keep the `Var`/tape path byte-identical.
//!
//! # Opcode table
//!
//! | op | forward | reverse |
//! |----|---------|---------|
//! | `Bin`/`Un`/`Mov` | scalar arithmetic / [`minidiff::rules::UnFn`] | analytic partials from forward registers (zero for value-only fns like `floor`) |
//! | `VBin`/`VUn` | element-wise span arithmetic with scalar broadcast | per-element partials |
//! | `Dot`/`Sum`/`MatVec`/`MaxVal` | reductions over spans (`MaxVal` is the untracked `log_sum_exp` stabilizer) | `Dot`: cross partials; `Sum`: broadcast; `MatVec`: transposed matrix; `MaxVal`: zero |
//! | `Constrain` | [`probdist::Constraint`] transform + log-Jacobian into the jacobian accumulator | analytic `∂x/∂u` and `∂log|J|/∂u` |
//! | `ScoreElem`/`ScoreVal` | one log-density per lane via [`probdist::lpdf_elem_value_lanes`] | [`probdist::lpdf_elem_partials_only_lanes`] (partials, no value) |
//! | `ScoreSweep`/`ScoreSweepVal` | one batched site through the sweep kernel (`sweep_sum_lanes`: per-sweep `ln σ` / `ln p` hoists) | `sweep_reverse_lanes` (partials only) |
//! | `AddScore`/`AddScoreSpan` | `factor` contributions | pass-through |
//! | `Loop` | body `trip` times with `iter = 0..trip` | body reversed with `iter = trip-1..0` |
//!
//! # Decline rules
//!
//! Compilation is total-or-nothing: a program either compiles in full or
//! [`compile`] returns a [`Decline`] with a stated reason and the model
//! keeps the `Var`/tape path (which also stays as the differential oracle —
//! `tests/dprog_equivalence.rs` pins DProg values to 1e-12 and gradients to
//! 1e-10 against it across the corpus). Declined shapes:
//!
//! * parameter-dependent control flow: `if` / `while` / loop bounds /
//!   `ternary` conditions that transitively read parameter slots;
//! * user-defined function calls and declared network (external) functions;
//! * sample sites that are not parameters, matrix-shaped parameters, and
//!   distribution families without an elem kernel
//!   ([`probdist::supports_elem`]);
//! * builtins without a compiled rule (CDFs, `_rng`, sorting, softmax),
//!   symbolic comparisons, and symbolic integer coercions;
//! * shapes whose *runtime* path would raise an error (out-of-bounds
//!   windows, arity mismatches): declining keeps the error byte-identical
//!   on the retained path;
//! * counted loops past the expansion or the rolled-loop budget (below).
//!
//! Everything the corpus' hot models need compiles: scalar and vector
//! parameters, vectorized `~` statements, lowered observe sweeps (kept as
//! batch-kernel ops), fixed-trip-count recurrence loops (arK / garch11 /
//! arma11-class), `target +=` with `log_mix` / `*_lpdf` calls, and
//! matrix-vector regression heads.
//!
//! # Loops: rolled or expanded
//!
//! A counted loop with bind-known bounds compiles to one rolled
//! `Loop` op when its body is a chain of assignments, observes and
//! factors. A body holding a sweep, a nested loop, a declaration, a sample
//! site or a data-dependent conditional (radon_hierarchical's
//! `for (j in 1:J) { mu[j] ~ …; for (i in 1:N) y[j, i] ~ … }`) cannot roll;
//! the loop then *expands* at bind time: each iteration binds the counter as
//! a known int and lowers the body as straight-line code, so an inner sweep
//! stays one batch-kernel op per iteration and an inner loop that rolls
//! stays a rolled `Loop`. The JIT emits a rolled `Loop` as one native loop
//! and an expansion as straight-line copies of its body, so a rolled loop
//! costs its body's code once and an expanded one once per iteration.
//! Expansion is bounded (`serve` binds client source): at most
//! `MAX_EXPAND_TRIPS` iterations lowered inside expansions, counted before
//! each loop, and at most `MAX_EXPAND_OPS` ops and `MAX_EXPAND_WORDS`
//! register and table words, checked after each iteration. A rolled loop is
//! bounded too: it holds registers and tables per iteration, and those
//! words are charged against `MAX_LOOP_WORDS` before they are allocated.
//! Past a bound the loop declines and the model keeps the tape.

use std::collections::HashMap;

use minidiff::rules::UnFn;
use probdist::sweep::{
    bernoulli_lpmf_from_logs, binomial_lpmf_from_logs, lpdf_elem_partials_only_lanes,
    lpdf_elem_value_lanes, normal_lpdf_const, normal_lpdf_from_const, normal_partials_only,
    supports_elem, supports_sweep, sweep_arity,
};
use probdist::{Constraint, DistKind};
use stan_frontend::ast::{BinOp, FunDecl, UnOp};

use crate::eval::NoExternals;
use crate::ir::GProbProgram;
use crate::model::ParamSlot;
use crate::resolved::{
    affine_offset, Frame, RDecl, RDistCall, RExpr, RGExpr, RIndex, RLoopKind, RSweep,
    ResolvedProgram, SweepArgSpec,
};
use crate::reval::{default_rvalue, reval_expr, RCtx, RInterp, RMode};
use crate::value::{RuntimeError, Value};

pub mod jit;

/// Why a program did not compile to a density program. The model then keeps
/// the `Var`/tape gradient path, byte-identical to the pre-DProg behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decline {
    reason: String,
}

impl Decline {
    pub(crate) fn new(reason: impl Into<String>) -> Self {
        Decline {
            reason: reason.into(),
        }
    }

    /// The stated reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl std::fmt::Display for Decline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "density program declined: {}", self.reason)
    }
}

/// A register reference: `base + stride · iter` where `iter` is the 0-based
/// iteration of the innermost enclosing [`Op::Loop`] (stride 0 outside
/// loops).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reg {
    base: u32,
    stride: u32,
}

impl Reg {
    fn abs(base: u32) -> Reg {
        Reg { base, stride: 0 }
    }

    #[inline]
    fn at(self, iter: u32) -> usize {
        (self.base + self.stride * iter) as usize
    }
}

/// A scalar operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum A {
    /// A register.
    Reg(Reg),
    /// An immediate constant.
    Const(f64),
    /// A per-iteration constant: `tables_f[id][iter]`.
    Table(u32),
}

/// A vector operand of an element-wise span op (scalars broadcast).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VA {
    /// A contiguous register span starting at `start`.
    Span(u32),
    /// A constant table used as a whole vector.
    Table(u32),
    /// A scalar register broadcast across the span.
    RegS(Reg),
    /// A constant broadcast across the span.
    ConstS(f64),
}

/// The observed values of a batched score op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VX {
    /// A register span (tracked values, e.g. a parameter vector).
    Span(u32),
    /// Constant reals (data).
    TableF(u32),
    /// Constant integers (data).
    TableI(u32),
}

/// One distribution argument of a batched score op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SA {
    /// A scalar broadcast.
    Sc(A),
    /// One tracked real per element.
    Span(u32),
    /// One constant real per element.
    TableF(u32),
    /// One constant integer per element.
    TableI(u32),
}

/// Differentiable binary functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BinF {
    Add,
    Sub,
    Mul,
    Div,
    /// `max` with the sub-gradient following the winner (ties favor the
    /// left operand, exactly as `Var::max_var`).
    Max,
    /// `min`, ties favor the left operand.
    Min,
    /// A value-only binary (`%`, `atan2`, the untracked `log_mix`
    /// stabilizer `max`): both partials are zero, matching the scalar path
    /// where the result is an untracked `from_f64` constant.
    ZeroMod,
    ZeroAtan2,
    ZeroMaxVal,
}

impl BinF {
    /// The shared differentiation rule, when the function has one (the
    /// `Zero*` variants are value-only).
    #[inline]
    fn rule(self) -> Option<minidiff::rules::BinFn> {
        use minidiff::rules::BinFn;
        Some(match self {
            BinF::Add => BinFn::Add,
            BinF::Sub => BinFn::Sub,
            BinF::Mul => BinFn::Mul,
            BinF::Div => BinFn::Div,
            BinF::Max => BinFn::Max,
            BinF::Min => BinFn::Min,
            BinF::ZeroMod | BinF::ZeroAtan2 | BinF::ZeroMaxVal => return None,
        })
    }

    #[inline]
    fn value(self, a: f64, b: f64) -> f64 {
        match self.rule() {
            Some(r) => r.value(a, b),
            None => match self {
                BinF::ZeroMod => a % b,
                BinF::ZeroAtan2 => a.atan2(b),
                BinF::ZeroMaxVal => {
                    if a >= b {
                        a
                    } else {
                        b
                    }
                }
                _ => unreachable!(),
            },
        }
    }

    /// `(∂f/∂a, ∂f/∂b)` at `(a, b)` — the same table `Var`'s operators
    /// record on the tape ([`minidiff::rules::BinFn`]); value-only
    /// functions have zero partials, matching the scalar path's untracked
    /// `from_f64` results.
    #[inline]
    fn partials(self, a: f64, b: f64) -> (f64, f64) {
        match self.rule() {
            Some(r) => r.partials(a, b),
            None => (0.0, 0.0),
        }
    }

    /// Lane-widened [`BinF::value`]: the function dispatch runs once per
    /// lane row instead of once per lane, and the arithmetic arms are
    /// straight-line loops the compiler can vectorize. Each lane computes
    /// exactly the scalar formula (IEEE `+ - * /` are lane-wise identical).
    #[inline]
    fn value_lanes<const L: usize>(self, a: &[f64; L], b: &[f64; L]) -> [f64; L] {
        let mut o = [0.0; L];
        match self {
            BinF::Add => {
                for l in 0..L {
                    o[l] = a[l] + b[l];
                }
            }
            BinF::Sub => {
                for l in 0..L {
                    o[l] = a[l] - b[l];
                }
            }
            BinF::Mul => {
                for l in 0..L {
                    o[l] = a[l] * b[l];
                }
            }
            BinF::Div => {
                for l in 0..L {
                    o[l] = a[l] / b[l];
                }
            }
            _ => {
                for l in 0..L {
                    o[l] = self.value(a[l], b[l]);
                }
            }
        }
        o
    }

    /// Lane-widened [`BinF::partials`] (same dispatch-once rationale as
    /// [`BinF::value_lanes`]); formulas are the shared rule table's.
    #[inline]
    fn partials_lanes<const L: usize>(self, a: &[f64; L], b: &[f64; L]) -> ([f64; L], [f64; L]) {
        match self {
            BinF::Add => ([1.0; L], [1.0; L]),
            BinF::Sub => ([1.0; L], [-1.0; L]),
            BinF::Mul => (*b, *a),
            BinF::Div => {
                let mut pa = [0.0; L];
                let mut pb = [0.0; L];
                for l in 0..L {
                    pa[l] = 1.0 / b[l];
                    pb[l] = -a[l] / (b[l] * b[l]);
                }
                (pa, pb)
            }
            _ => {
                let mut pa = [0.0; L];
                let mut pb = [0.0; L];
                for l in 0..L {
                    let (x, y) = self.partials(a[l], b[l]);
                    pa[l] = x;
                    pb[l] = y;
                }
                (pa, pb)
            }
        }
    }
}

/// Differentiable or value-only unary functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum UF {
    /// A rule from the shared [`minidiff::rules`] table.
    R(UnFn),
    /// Value-only functions: the scalar path computes them through
    /// `from_f64(..)`, so their recorded partial is zero.
    Floor,
    Ceil,
    Round,
    Step,
    Digamma,
    Erf,
    NormCdf,
    Atan,
}

impl UF {
    #[inline]
    fn value(self, x: f64) -> f64 {
        match self {
            UF::R(f) => f.value(x),
            UF::Floor => x.floor(),
            UF::Ceil => x.ceil(),
            UF::Round => x.round(),
            UF::Step => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UF::Digamma => minidiff::special::digamma(x),
            UF::Erf => minidiff::special::erf(x),
            UF::NormCdf => minidiff::special::std_normal_cdf(x),
            UF::Atan => x.atan(),
        }
    }

    #[inline]
    fn partial(self, x: f64, fx: f64) -> f64 {
        match self {
            UF::R(f) => f.partial(x, fx),
            _ => 0.0,
        }
    }

    /// Lane-widened [`UF::value`] with the dispatch hoisted out of the lane
    /// loop; the specialized arms match [`minidiff::rules::UnFn::value`]
    /// exactly (and `sqrt`/negation are IEEE lane-wise identical).
    #[inline]
    fn value_lanes<const L: usize>(self, x: &[f64; L]) -> [f64; L] {
        let mut o = [0.0; L];
        match self {
            UF::R(UnFn::Neg) => {
                for l in 0..L {
                    o[l] = -x[l];
                }
            }
            UF::R(UnFn::Sqrt) => {
                for l in 0..L {
                    o[l] = x[l].sqrt();
                }
            }
            UF::R(UnFn::Recip) => {
                for l in 0..L {
                    o[l] = 1.0 / x[l];
                }
            }
            _ => {
                for l in 0..L {
                    o[l] = self.value(x[l]);
                }
            }
        }
        o
    }

    /// Lane-widened [`UF::partial`]; the specialized arms are the shared
    /// rule table's formulas verbatim.
    #[inline]
    fn partial_lanes<const L: usize>(self, x: &[f64; L], fx: &[f64; L]) -> [f64; L] {
        let mut o = [0.0; L];
        match self {
            UF::R(UnFn::Neg) => return [-1.0; L],
            UF::R(UnFn::Exp) => return *fx,
            UF::R(UnFn::Ln) => {
                for l in 0..L {
                    o[l] = 1.0 / x[l];
                }
            }
            UF::R(UnFn::Sqrt) => {
                for l in 0..L {
                    o[l] = 0.5 / fx[l];
                }
            }
            UF::R(UnFn::Recip) => {
                for l in 0..L {
                    o[l] = -1.0 / (x[l] * x[l]);
                }
            }
            _ => {
                for l in 0..L {
                    o[l] = self.partial(x[l], fx[l]);
                }
            }
        }
        o
    }
}

/// One operation of a density program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `dst = f(a, b)`.
    Bin { f: BinF, dst: Reg, a: A, b: A },
    /// `dst = f(a)`.
    Un { f: UF, dst: Reg, a: A },
    /// `dst = a`.
    Mov { dst: Reg, a: A },
    /// `dst[i] = f(a[i], b[i])` for `i in 0..len` (scalars broadcast).
    VBin {
        f: BinF,
        dst: u32,
        a: VA,
        b: VA,
        len: u32,
    },
    /// `dst[i] = f(a[i])`.
    VUn { f: UF, dst: u32, a: VA, len: u32 },
    /// `dst = Σ a[i] · b[i]` (row-vector × vector).
    Dot { dst: u32, a: VA, b: VA, len: u32 },
    /// `dst = Σ a[i]`, summed in element order.
    Sum { dst: u32, a: VA, len: u32 },
    /// `dst[r] = Σ_c mat[r][c] · x[c]` with a constant matrix
    /// (`tables_f[mat]`, row-major).
    MatVec {
        dst: u32,
        mat: u32,
        x: VA,
        rows: u32,
        cols: u32,
    },
    /// `dst = max_i a[i]` **by value** (zero partials) — the untracked
    /// stabilizer of `log_sum_exp` / `softmax`-style reductions.
    MaxVal { dst: u32, a: VA, len: u32 },
    /// Constrain `len` components: reads unconstrained `src + c`, writes
    /// constrained `dst + c`, accumulates the log-Jacobian.
    Constrain {
        kind: Constraint,
        src: u32,
        dst: u32,
        len: u32,
    },
    /// `score += lpdf(kind; x | args[..k])` for one scalar site.
    ScoreElem {
        kind: DistKind,
        x: A,
        args: [A; 3],
        k: u8,
    },
    /// `dst = lpdf(kind; x | args[..k])` — a `*_lpdf` call as a value.
    ScoreVal {
        kind: DistKind,
        dst: Reg,
        x: A,
        args: [A; 3],
        k: u8,
    },
    /// `score += Σ_i lpdf(kind; xs[i] | args[i])` — one batched site.
    ScoreSweep {
        kind: DistKind,
        xs: VX,
        args: [SA; 3],
        k: u8,
        len: u32,
    },
    /// `dst = Σ_i lpdf(kind; xs[i] | args[i])` — a container `*_lpdf` call
    /// as a value.
    ScoreSweepVal {
        kind: DistKind,
        dst: u32,
        xs: VX,
        args: [SA; 3],
        k: u8,
        len: u32,
    },
    /// `score += a` (a `factor` / `target +=` contribution).
    AddScore { a: A },
    /// `score += Σ a[i]` (a container `factor`), summed in element order.
    AddScoreSpan { a: VA, len: u32 },
    /// Execute `body` `trip` times with `iter = 0, 1, …, trip-1`.
    Loop { trip: u32, body: Vec<Op> },
}

/// A compiled density program. Build one with [`compile`]; evaluate with
/// [`DProg::value`] / [`DProg::value_and_grad`] against a pooled
/// [`DProgWorkspace`].
#[derive(Debug, Clone)]
pub struct DProg {
    n_inputs: usize,
    n_regs: usize,
    /// Constant register initializations (data), applied once per workspace.
    const_init: Vec<(u32, f64)>,
    ops: Vec<Op>,
    tables_f: Vec<Vec<f64>>,
    tables_i: Vec<Vec<i64>>,
}

/// A fixed-length `f64` pool allocated at 64-byte alignment, so register
/// rows start on cache-line boundaries and the lane loops vectorize without
/// split loads (a `Vec<f64>` only guarantees 8 bytes). The length is fixed at
/// construction — the pool is allocated exactly once per (workspace, shape)
/// and never reallocated, which `capacities`-style regression tests pin.
struct AlignedBuf {
    ptr: std::ptr::NonNull<f64>,
    len: usize,
}

impl AlignedBuf {
    const ALIGN: usize = 64;

    fn zeroed(len: usize) -> AlignedBuf {
        if len == 0 {
            return AlignedBuf {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        let raw = unsafe { std::alloc::alloc_zeroed(layout) } as *mut f64;
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    fn layout(len: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(len * std::mem::size_of::<f64>(), Self::ALIGN)
            .expect("register pool layout")
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
        }
    }
}

// The buffer exclusively owns its allocation, exactly like Vec<f64>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl std::ops::Deref for AlignedBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> AlignedBuf {
        let mut out = AlignedBuf::zeroed(self.len);
        out.copy_from_slice(self);
        out
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One lane-widened register file: the struct-of-arrays image of the
/// program's registers at a fixed lane count L, register `r` occupying
/// `regs[r·L .. (r+1)·L]` (see the module-level lane layout diagram).
#[derive(Debug, Clone)]
struct LaneFile {
    regs: AlignedBuf,
    adj: AlignedBuf,
}

/// Pooled scratch for one chain's density-program evaluations: the register
/// file (constants pre-written) and the adjoint buffer, both carved from
/// 64-byte-aligned pools, plus lane-widened register files grown lazily per
/// lane width. Nothing is allocated per evaluation: every pool is sized by
/// the program shape once and reused verbatim afterwards.
#[derive(Debug, Clone)]
pub struct DProgWorkspace {
    regs: AlignedBuf,
    adj: AlignedBuf,
    /// Lane files for L = 2, 4, 8 (slot `lane_slot(L)`), built on first use
    /// at that width and then reused for every batch.
    lanes: [Option<LaneFile>; 3],
}

impl DProgWorkspace {
    /// Total `f64` capacity of the pooled buffers:
    /// `(single-lane registers, single-lane adjoints, lane-file f64s across
    /// all prepared widths)`. Capacities never shrink and — for a fixed
    /// program and set of lane widths — never grow after first use, which is
    /// what the zero-reallocation regression tests pin.
    pub fn capacities(&self) -> (usize, usize, usize) {
        let lane_total = self
            .lanes
            .iter()
            .flatten()
            .map(|lf| lf.regs.len + lf.adj.len)
            .sum();
        (self.regs.len, self.adj.len, lane_total)
    }
}

#[inline]
fn lane_slot(l: usize) -> usize {
    match l {
        2 => 0,
        4 => 1,
        _ => 2,
    }
}

/// Loads one register's lane row as a fixed-size array.
#[inline]
fn lane_row<const L: usize>(pool: &[f64], r: usize) -> [f64; L] {
    let mut out = [0.0; L];
    out.copy_from_slice(&pool[r * L..r * L + L]);
    out
}

/// A sweep operand resolved **once per sweep** for the lane element loops:
/// replaces the per-element `sweep_x_lanes` / `sweep_arg_lanes` operand
/// matches with a pre-cut slice (or a pre-loaded fixed row), so the hot
/// loops are branch-free loads. Element `i`'s lane row reads exactly the
/// values the per-element resolution would load.
#[derive(Clone, Copy)]
enum LaneOp<'a, const L: usize> {
    /// Contiguous lane rows in the register pool (a `Span` operand):
    /// element `i` is `rows[i*L..][..L]`.
    Rows(&'a [f64]),
    /// A per-element real table, broadcast across lanes.
    Table(&'a [f64]),
    /// A per-element integer table, broadcast across lanes.
    Ints(&'a [i64]),
    /// A fixed lane row (scalar operand), constant over the sweep.
    Fixed([f64; L]),
}

impl<const L: usize> LaneOp<'_, L> {
    #[inline(always)]
    fn row(&self, i: usize) -> [f64; L] {
        match self {
            LaneOp::Rows(rows) => {
                let mut out = [0.0; L];
                out.copy_from_slice(&rows[i * L..i * L + L]);
                out
            }
            LaneOp::Table(t) => [t[i]; L],
            LaneOp::Ints(t) => [t[i] as f64; L],
            LaneOp::Fixed(v) => *v,
        }
    }
}

impl DProg {
    /// Number of unconstrained inputs.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of registers in the program's register file.
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// Number of ops, counting loop bodies once (the static program size).
    pub fn n_ops(&self) -> usize {
        fn count(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Loop { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.ops)
    }

    /// Builds a pooled workspace: the register file with the constant
    /// region pre-written.
    pub fn workspace(&self) -> DProgWorkspace {
        let mut regs = AlignedBuf::zeroed(self.n_regs);
        for &(r, v) in &self.const_init {
            regs[r as usize] = v;
        }
        DProgWorkspace {
            regs,
            adj: AlignedBuf::zeroed(self.n_regs),
            lanes: [None, None, None],
        }
    }

    /// Returns the lane file for width L, building (and constant-initializing)
    /// it on first use at that width. Constants are broadcast across lanes
    /// once here; per-batch evaluation only rewrites the input region.
    fn prepare_lanes<'w, const L: usize>(&self, ws: &'w mut DProgWorkspace) -> &'w mut LaneFile {
        let slot = &mut ws.lanes[lane_slot(L)];
        if slot.is_none() {
            let mut regs = AlignedBuf::zeroed(self.n_regs * L);
            for &(r, v) in &self.const_init {
                let o = r as usize * L;
                regs[o..o + L].fill(v);
            }
            *slot = Some(LaneFile {
                regs,
                adj: AlignedBuf::zeroed(self.n_regs * L),
            });
        }
        slot.as_mut().expect("lane file just prepared")
    }

    fn check_len(&self, theta_u: &[f64]) -> Result<(), RuntimeError> {
        if theta_u.len() != self.n_inputs {
            return Err(RuntimeError::new(format!(
                "expected {} unconstrained values, got {}",
                self.n_inputs,
                theta_u.len()
            )));
        }
        Ok(())
    }

    /// Log-density (score + log-Jacobian) of the unconstrained vector — the
    /// forward pass alone.
    ///
    /// # Errors
    /// Fails only on a wrong input length; numeric trouble surfaces as
    /// `-inf` / `NaN` exactly as on the interpreted path.
    pub fn value(&self, theta_u: &[f64], ws: &mut DProgWorkspace) -> Result<f64, RuntimeError> {
        self.check_len(theta_u)?;
        ws.regs[..self.n_inputs].copy_from_slice(theta_u);
        Ok(self.forward_sum::<1>(&mut ws.regs)[0])
    }

    /// Log-density and its gradient: one forward pass, one analytic reverse
    /// sweep accumulating adjoints straight into `grad_out`.
    ///
    /// # Errors
    /// Fails only on a wrong input length.
    ///
    /// # Panics
    /// Panics if `grad_out` is shorter than the input dimension (matching
    /// `minidiff::grad_into`).
    pub fn value_and_grad(
        &self,
        theta_u: &[f64],
        grad_out: &mut [f64],
        ws: &mut DProgWorkspace,
    ) -> Result<f64, RuntimeError> {
        self.check_len(theta_u)?;
        assert!(grad_out.len() >= self.n_inputs, "gradient buffer too short");
        ws.regs[..self.n_inputs].copy_from_slice(theta_u);
        let value = self.forward_sum::<1>(&mut ws.regs)[0];
        ws.adj.fill(0.0);
        self.reverse_lanes::<1>(&self.ops, &ws.regs, &mut ws.adj, 0);
        grad_out[..self.n_inputs].copy_from_slice(&ws.adj[..self.n_inputs]);
        Ok(value)
    }

    /// Log-densities and gradients of a batch of independent unconstrained
    /// points, evaluated in lane groups: `values.len()` points packed
    /// row-major in `thetas` (point `i` at `thetas[i·dim .. (i+1)·dim]`),
    /// gradients written row-major into `grads` the same way.
    ///
    /// The batch is chunked greedily into lane groups of 8, 4, then 2 (see
    /// the module-level lane model); a final odd point runs through
    /// [`DProg::value_and_grad`] itself. Each point's value and gradient are
    /// bitwise identical to a single-point evaluation.
    ///
    /// # Errors
    /// Fails only when `thetas` is not `values.len() · n_inputs` long.
    ///
    /// # Panics
    /// Panics if `grads` is shorter than `thetas` (matching the single-lane
    /// gradient-buffer contract).
    pub fn value_and_grad_lanes(
        &self,
        thetas: &[f64],
        values: &mut [f64],
        grads: &mut [f64],
        ws: &mut DProgWorkspace,
    ) -> Result<(), RuntimeError> {
        let n = values.len();
        let d = self.n_inputs;
        if thetas.len() != n * d {
            return Err(RuntimeError::new(format!(
                "expected {} unconstrained values for {n} points, got {}",
                n * d,
                thetas.len()
            )));
        }
        assert!(grads.len() >= n * d, "gradient buffer too short");
        let mut done = 0usize;
        while n - done >= 2 {
            let l = match n - done {
                rem if rem >= 8 => 8,
                rem if rem >= 4 => 4,
                _ => 2,
            };
            let t = &thetas[done * d..(done + l) * d];
            let v = &mut values[done..done + l];
            let g = &mut grads[done * d..(done + l) * d];
            match l {
                8 => self.eval_lane_chunk::<8>(t, v, g, ws),
                4 => self.eval_lane_chunk::<4>(t, v, g, ws),
                _ => self.eval_lane_chunk::<2>(t, v, g, ws),
            }
            done += l;
        }
        // Odd remainder: the single-lane entry itself (byte-identical path).
        for i in done..n {
            values[i] = self.value_and_grad(
                &thetas[i * d..(i + 1) * d],
                &mut grads[i * d..(i + 1) * d],
                ws,
            )?;
        }
        Ok(())
    }

    /// One lane group: transpose L points into the SoA lane file, run the
    /// lane-widened forward and reverse sweeps, scatter results back.
    fn eval_lane_chunk<const L: usize>(
        &self,
        thetas: &[f64],
        values: &mut [f64],
        grads: &mut [f64],
        ws: &mut DProgWorkspace,
    ) {
        let d = self.n_inputs;
        let lf = self.prepare_lanes::<L>(ws);
        for i in 0..d {
            for l in 0..L {
                lf.regs[i * L + l] = thetas[l * d + i];
            }
        }
        values.copy_from_slice(&self.forward_sum::<L>(&mut lf.regs));
        lf.adj.fill(0.0);
        self.reverse_lanes::<L>(&self.ops, &lf.regs, &mut lf.adj, 0);
        for l in 0..L {
            for i in 0..d {
                grads[l * d + i] = lf.adj[i * L + l];
            }
        }
    }

    // -- The op walk --------------------------------------------------------
    //
    // One walk serves every lane count. A single point is the `L = 1`
    // instance over the workspace's own register file, whose one-lane layout
    // is exactly register `r` at offset `r`. Every per-lane formula,
    // accumulation order and reverse zero-guard depends on its lane alone,
    // so lane l of an L-wide walk computes bitwise what the `L = 1` walk
    // computes on lane l's point.

    /// One forward sweep over a register file: per-lane `score + jac`. The
    /// two accumulators stay separate so the sum reproduces the tape path's
    /// `result.score + log_jac` summation exactly.
    fn forward_sum<const L: usize>(&self, regs: &mut [f64]) -> [f64; L] {
        let mut score = [0.0; L];
        let mut jac = [0.0; L];
        self.forward_lanes::<L>(&self.ops, regs, &mut score, &mut jac, 0);
        std::array::from_fn(|l| score[l] + jac[l])
    }

    /// Loads a scalar operand's lane row (constants broadcast).
    #[inline]
    fn ra_l<const L: usize>(&self, a: A, regs: &[f64], iter: u32) -> [f64; L] {
        match a {
            A::Reg(r) => lane_row::<L>(regs, r.at(iter)),
            A::Const(c) => [c; L],
            A::Table(t) => [self.tables_f[t as usize][iter as usize]; L],
        }
    }

    /// Loads element `i` of a vector operand's lane rows.
    #[inline]
    fn va_l<const L: usize>(&self, a: VA, regs: &[f64], i: usize) -> [f64; L] {
        match a {
            VA::Span(s) => lane_row::<L>(regs, s as usize + i),
            VA::Table(t) => [self.tables_f[t as usize][i]; L],
            VA::RegS(r) => lane_row::<L>(regs, r.at(0)),
            VA::ConstS(c) => [c; L],
        }
    }

    #[inline]
    fn bump_l<const L: usize>(&self, a: A, adj: &mut [f64], iter: u32, v: &[f64; L]) {
        if let A::Reg(r) = a {
            let o = r.at(iter) * L;
            for l in 0..L {
                adj[o + l] += v[l];
            }
        }
    }

    #[inline]
    fn vbump_l<const L: usize>(&self, a: VA, adj: &mut [f64], i: usize, v: &[f64; L]) {
        match a {
            VA::Span(s) => {
                let o = (s as usize + i) * L;
                for l in 0..L {
                    adj[o + l] += v[l];
                }
            }
            VA::RegS(r) => {
                let o = r.at(0) * L;
                for l in 0..L {
                    adj[o + l] += v[l];
                }
            }
            VA::Table(_) | VA::ConstS(_) => {}
        }
    }

    /// Loads element `i` of a sweep's observed values as a lane row.
    #[inline]
    fn sweep_x_lanes<const L: usize>(&self, xs: VX, regs: &[f64], i: usize) -> [f64; L] {
        match xs {
            VX::Span(s) => lane_row::<L>(regs, s as usize + i),
            VX::TableF(t) => [self.tables_f[t as usize][i]; L],
            VX::TableI(t) => [self.tables_i[t as usize][i] as f64; L],
        }
    }

    /// Resolves a sweep's observed values for the lane element loops (one
    /// operand match per sweep — see [`LaneOp`]).
    #[inline]
    fn lane_x_op<'r, const L: usize>(&'r self, xs: VX, regs: &'r [f64], n: usize) -> LaneOp<'r, L> {
        match xs {
            VX::Span(s) => LaneOp::Rows(&regs[s as usize * L..(s as usize + n) * L]),
            VX::TableF(t) => LaneOp::Table(&self.tables_f[t as usize][..n]),
            VX::TableI(t) => LaneOp::Ints(&self.tables_i[t as usize][..n]),
        }
    }

    /// Resolves one sweep argument for the lane element loops.
    #[inline]
    fn lane_arg_op<'r, const L: usize>(
        &'r self,
        a: SA,
        regs: &'r [f64],
        n: usize,
    ) -> LaneOp<'r, L> {
        match a {
            SA::Sc(s) => LaneOp::Fixed(self.ra_l::<L>(s, regs, 0)),
            SA::Span(s) => LaneOp::Rows(&regs[s as usize * L..(s as usize + n) * L]),
            SA::TableF(t) => LaneOp::Table(&self.tables_f[t as usize][..n]),
            SA::TableI(t) => LaneOp::Ints(&self.tables_i[t as usize][..n]),
        }
    }

    /// Per-lane log-density sums of one batched score site, in element
    /// order; unsupported families and missing arguments surface as NaN.
    /// At `L = 1` (a one-lane register file is laid out exactly like the
    /// single-point one) this is the single-point kernel of the interpreter
    /// and, through the `sweep_sum_c` shim, of the JIT.
    fn sweep_sum_lanes<const L: usize>(
        &self,
        kind: DistKind,
        xs: VX,
        args: &[SA; 3],
        k: u8,
        len: u32,
        regs: &[f64],
    ) -> [f64; L] {
        let n = len as usize;
        let mut sum = [0.0; L];
        if kind == DistKind::ImproperUniform {
            let mut argv = [[0.0; L]; 3];
            for j in 0..(k as usize).min(sweep_arity(kind)) {
                if let SA::Sc(s) = args[j] {
                    argv[j] = self.ra_l::<L>(s, regs, 0);
                }
            }
            for i in 0..n {
                let xv = self.sweep_x_lanes::<L>(xs, regs, i);
                let lp = lpdf_elem_value_lanes::<L>(kind, &xv, &argv).unwrap_or([f64::NAN; L]);
                for l in 0..L {
                    sum[l] += lp[l];
                }
            }
            return sum;
        }
        // `lpdf_sweep`'s guards surface as NaN exactly like the single-lane
        // path (compile-time validation makes them unreachable in practice).
        if !supports_sweep(kind) || (k as usize) < sweep_arity(kind) {
            return [f64::NAN; L];
        }
        if kind == DistKind::Normal && k == 2 {
            return self.normal_sweep_sum_lanes::<L>(xs, args, n, regs);
        }
        match (kind, args[0], args[1]) {
            (DistKind::Bernoulli, SA::Sc(p), _) | (DistKind::Binomial, _, SA::Sc(p)) => {
                return self.log_p_sweep_sum_lanes::<L>(kind, xs, args[0], p, n, regs);
            }
            _ => {}
        }
        let xo = self.lane_x_op::<L>(xs, regs, n);
        let mut aops = [LaneOp::Fixed([0.0; L]); 3];
        for j in 0..k as usize {
            aops[j] = self.lane_arg_op::<L>(args[j], regs, n);
        }
        for i in 0..n {
            let xv = xo.row(i);
            let argv = [aops[0].row(i), aops[1].row(i), aops[2].row(i)];
            let lp = lpdf_elem_value_lanes::<L>(kind, &xv, &argv).unwrap_or([f64::NAN; L]);
            for l in 0..L {
                sum[l] += lp[l];
            }
        }
        sum
    }

    /// Normal-sweep forward fast path: hoists the per-scale additive
    /// constant `-½·ln(2π) - ln σ` out of the element loop — per lane for a
    /// scalar-broadcast sigma, per element for a table sigma. Bitwise equal
    /// to the generic walk because the shared kernel computes exactly
    /// `normal_lpdf_from_const(normal_lpdf_const(σ), …)` per element, and
    /// `normal_lpdf_const` is deterministic in σ.
    fn normal_sweep_sum_lanes<const L: usize>(
        &self,
        xs: VX,
        args: &[SA; 3],
        n: usize,
        regs: &[f64],
    ) -> [f64; L] {
        let xo = self.lane_x_op::<L>(xs, regs, n);
        let mo = self.lane_arg_op::<L>(args[0], regs, n);
        let mut sum = [0.0; L];
        match self.lane_arg_op::<L>(args[1], regs, n) {
            LaneOp::Fixed(sig) => {
                let mut c = [0.0; L];
                for l in 0..L {
                    c[l] = normal_lpdf_const(sig[l]);
                }
                for i in 0..n {
                    let x = xo.row(i);
                    let mu = mo.row(i);
                    for l in 0..L {
                        sum[l] += normal_lpdf_from_const(c[l], x[l], mu[l], sig[l]);
                    }
                }
            }
            so @ (LaneOp::Table(_) | LaneOp::Ints(_)) => {
                for i in 0..n {
                    let sg = so.row(i);
                    // One scale per element, shared by every lane.
                    let ci = normal_lpdf_const(sg[0]);
                    let x = xo.row(i);
                    let mu = mo.row(i);
                    for l in 0..L {
                        sum[l] += normal_lpdf_from_const(ci, x[l], mu[l], sg[l]);
                    }
                }
            }
            so => {
                // Lane-varying per-element sigma: nothing to hoist but the
                // operand resolution and family dispatch.
                for i in 0..n {
                    let x = xo.row(i);
                    let mu = mo.row(i);
                    let sg = so.row(i);
                    for l in 0..L {
                        sum[l] +=
                            normal_lpdf_from_const(normal_lpdf_const(sg[l]), x[l], mu[l], sg[l]);
                    }
                }
            }
        }
        sum
    }

    /// Bernoulli/binomial forward fast path for a scalar-broadcast
    /// probability `p`: `ln p` and `ln(1-p)` are taken once per lane per
    /// sweep instead of per element. Bitwise equal to the generic walk
    /// because the shared kernels select or combine exactly these two
    /// logs ([`probdist::bernoulli_lpmf_from_logs`],
    /// [`probdist::binomial_lpmf_from_logs`]) and `ln` is deterministic.
    /// `trials` is the binomial count operand (unused for Bernoulli).
    fn log_p_sweep_sum_lanes<const L: usize>(
        &self,
        kind: DistKind,
        xs: VX,
        trials: SA,
        p: A,
        n: usize,
        regs: &[f64],
    ) -> [f64; L] {
        let p = self.ra_l::<L>(p, regs, 0);
        let mut ln_p = [0.0; L];
        let mut ln_1mp = [0.0; L];
        for l in 0..L {
            ln_p[l] = p[l].ln();
            ln_1mp[l] = (1.0 - p[l]).ln();
        }
        let xo = self.lane_x_op::<L>(xs, regs, n);
        let mut sum = [0.0; L];
        if kind == DistKind::Bernoulli {
            for i in 0..n {
                let x = xo.row(i);
                for l in 0..L {
                    sum[l] += bernoulli_lpmf_from_logs(x[l], ln_p[l], ln_1mp[l]);
                }
            }
        } else {
            let to = self.lane_arg_op::<L>(trials, regs, n);
            for i in 0..n {
                let x = xo.row(i);
                let t = to.row(i);
                for l in 0..L {
                    sum[l] += binomial_lpmf_from_logs(x[l], t[l], ln_p[l], ln_1mp[l]);
                }
            }
        }
        sum
    }

    /// Reverse of [`DProg::sweep_sum_lanes`] with per-lane adjoint seeds:
    /// scalar-broadcast partials accumulate over the sweep and are bumped
    /// once; a lane whose seed is zero contributes nothing, and an all-zero
    /// seed skips the sweep. At `L = 1` this is the single-point reverse of
    /// the interpreter and, through the `sweep_reverse_c` shim, of the JIT.
    #[allow(clippy::too_many_arguments)]
    fn sweep_reverse_lanes<const L: usize>(
        &self,
        kind: DistKind,
        xs: VX,
        args: &[SA; 3],
        k: u8,
        len: u32,
        seed: &[f64; L],
        regs: &[f64],
        adj: &mut [f64],
    ) {
        if seed.iter().all(|&s| s == 0.0) || kind == DistKind::ImproperUniform {
            // Improper-uniform partials are identically zero.
            return;
        }
        let n = len as usize;
        if kind == DistKind::Normal && k == 2 {
            return self.normal_sweep_reverse_lanes::<L>(xs, args, n, seed, regs, adj);
        }
        let all_scalar = (0..k as usize).all(|j| matches!(args[j], SA::Sc(_)));
        let xo = self.lane_x_op::<L>(xs, regs, n);
        let mut aops = [LaneOp::Fixed([0.0; L]); 3];
        for j in 0..k as usize {
            aops[j] = self.lane_arg_op::<L>(args[j], regs, n);
        }
        if !matches!(xs, VX::Span(_)) && all_scalar {
            // Scalar-broadcast partials accumulate into per-argument lane
            // totals, bumped once after the element walk.
            let mut d = [[0.0; L]; 3];
            for i in 0..n {
                let xv = xo.row(i);
                let argv = [aops[0].row(i), aops[1].row(i), aops[2].row(i)];
                let Some((_dx, dp)) = lpdf_elem_partials_only_lanes::<L>(kind, &xv, &argv) else {
                    continue;
                };
                for j in 0..k as usize {
                    for l in 0..L {
                        if seed[l] != 0.0 {
                            d[j][l] += dp[j][l] * seed[l];
                        }
                    }
                }
            }
            for j in 0..k as usize {
                if let SA::Sc(a) = args[j] {
                    self.bump_l::<L>(a, adj, 0, &d[j]);
                }
            }
            return;
        }
        for i in 0..n {
            let xv = xo.row(i);
            let argv = [aops[0].row(i), aops[1].row(i), aops[2].row(i)];
            let Some((dx, dp)) = lpdf_elem_partials_only_lanes::<L>(kind, &xv, &argv) else {
                continue;
            };
            if let VX::Span(s) = xs {
                let o = (s as usize + i) * L;
                for l in 0..L {
                    if seed[l] != 0.0 {
                        adj[o + l] += dx[l] * seed[l];
                    }
                }
            }
            for j in 0..k as usize {
                match args[j] {
                    SA::Sc(a) => {
                        let mut b = [0.0; L];
                        for l in 0..L {
                            if seed[l] != 0.0 {
                                b[l] = dp[j][l] * seed[l];
                            }
                        }
                        self.bump_l::<L>(a, adj, 0, &b);
                    }
                    SA::Span(s) => {
                        let o = (s as usize + i) * L;
                        for l in 0..L {
                            if seed[l] != 0.0 {
                                adj[o + l] += dp[j][l] * seed[l];
                            }
                        }
                    }
                    SA::TableF(_) | SA::TableI(_) => {}
                }
            }
        }
    }

    /// Normal-sweep reverse fast path: partials via [`normal_partials_only`]
    /// — no per-element `ln` at all (the log appears only in the density
    /// value, which the reverse pass never consumes). The walk preserves the
    /// generic structure exactly: the scalar-broadcast accumulate-then-bump
    /// split, the element order, the x-then-args update order, and the
    /// per-lane zero-seed guards.
    fn normal_sweep_reverse_lanes<const L: usize>(
        &self,
        xs: VX,
        args: &[SA; 3],
        n: usize,
        seed: &[f64; L],
        regs: &[f64],
        adj: &mut [f64],
    ) {
        let xo = self.lane_x_op::<L>(xs, regs, n);
        let mo = self.lane_arg_op::<L>(args[0], regs, n);
        let so = self.lane_arg_op::<L>(args[1], regs, n);
        let all_scalar = matches!(args[0], SA::Sc(_)) && matches!(args[1], SA::Sc(_));
        if !matches!(xs, VX::Span(_)) && all_scalar {
            let mut dm = [0.0; L];
            let mut ds = [0.0; L];
            for i in 0..n {
                let x = xo.row(i);
                let mu = mo.row(i);
                let sg = so.row(i);
                for l in 0..L {
                    if seed[l] != 0.0 {
                        let (_, dmu, dsig) = normal_partials_only(x[l], mu[l], sg[l]);
                        dm[l] += dmu * seed[l];
                        ds[l] += dsig * seed[l];
                    }
                }
            }
            if let SA::Sc(a) = args[0] {
                self.bump_l::<L>(a, adj, 0, &dm);
            }
            if let SA::Sc(a) = args[1] {
                self.bump_l::<L>(a, adj, 0, &ds);
            }
            return;
        }
        for i in 0..n {
            let x = xo.row(i);
            let mu = mo.row(i);
            let sg = so.row(i);
            let mut dx = [0.0; L];
            let mut dmu = [0.0; L];
            let mut dsg = [0.0; L];
            for l in 0..L {
                let (a, b, c) = normal_partials_only(x[l], mu[l], sg[l]);
                dx[l] = a;
                dmu[l] = b;
                dsg[l] = c;
            }
            if let VX::Span(s) = xs {
                let o = (s as usize + i) * L;
                for l in 0..L {
                    if seed[l] != 0.0 {
                        adj[o + l] += dx[l] * seed[l];
                    }
                }
            }
            for (j, dp) in [dmu, dsg].iter().enumerate() {
                match args[j] {
                    SA::Sc(a) => {
                        let mut b = [0.0; L];
                        for l in 0..L {
                            if seed[l] != 0.0 {
                                b[l] = dp[l] * seed[l];
                            }
                        }
                        self.bump_l::<L>(a, adj, 0, &b);
                    }
                    SA::Span(s) => {
                        let o = (s as usize + i) * L;
                        for l in 0..L {
                            if seed[l] != 0.0 {
                                adj[o + l] += dp[l] * seed[l];
                            }
                        }
                    }
                    SA::TableF(_) | SA::TableI(_) => {}
                }
            }
        }
    }

    /// The forward walk: each op's values into fresh registers, score and
    /// log-Jacobian terms into the per-lane accumulators; `iter` addresses a
    /// loop body's per-iteration registers and tables.
    fn forward_lanes<const L: usize>(
        &self,
        ops: &[Op],
        regs: &mut [f64],
        score: &mut [f64; L],
        jac: &mut [f64; L],
        iter: u32,
    ) {
        for op in ops {
            match op {
                Op::Bin { f, dst, a, b } => {
                    let va = self.ra_l::<L>(*a, regs, iter);
                    let vb = self.ra_l::<L>(*b, regs, iter);
                    let o = dst.at(iter) * L;
                    regs[o..o + L].copy_from_slice(&f.value_lanes::<L>(&va, &vb));
                }
                Op::Un { f, dst, a } => {
                    let va = self.ra_l::<L>(*a, regs, iter);
                    let o = dst.at(iter) * L;
                    regs[o..o + L].copy_from_slice(&f.value_lanes::<L>(&va));
                }
                Op::Mov { dst, a } => {
                    let va = self.ra_l::<L>(*a, regs, iter);
                    let o = dst.at(iter) * L;
                    regs[o..o + L].copy_from_slice(&va);
                }
                Op::VBin { f, dst, a, b, len } => {
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        let vb = self.va_l::<L>(*b, regs, i);
                        let o = (*dst as usize + i) * L;
                        regs[o..o + L].copy_from_slice(&f.value_lanes::<L>(&va, &vb));
                    }
                }
                Op::VUn { f, dst, a, len } => {
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        let o = (*dst as usize + i) * L;
                        regs[o..o + L].copy_from_slice(&f.value_lanes::<L>(&va));
                    }
                }
                Op::Dot { dst, a, b, len } => {
                    let mut s = [0.0; L];
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        let vb = self.va_l::<L>(*b, regs, i);
                        for l in 0..L {
                            s[l] += va[l] * vb[l];
                        }
                    }
                    let o = *dst as usize * L;
                    regs[o..o + L].copy_from_slice(&s);
                }
                Op::Sum { dst, a, len } => {
                    let mut s = [0.0; L];
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        for l in 0..L {
                            s[l] += va[l];
                        }
                    }
                    let o = *dst as usize * L;
                    regs[o..o + L].copy_from_slice(&s);
                }
                Op::MatVec {
                    dst,
                    mat,
                    x,
                    rows,
                    cols,
                } => {
                    let cols_ = *cols as usize;
                    for r in 0..*rows as usize {
                        let mut s = [0.0; L];
                        for c in 0..cols_ {
                            let m = self.tables_f[*mat as usize][r * cols_ + c];
                            let vx = self.va_l::<L>(*x, regs, c);
                            for l in 0..L {
                                s[l] += m * vx[l];
                            }
                        }
                        let o = (*dst as usize + r) * L;
                        regs[o..o + L].copy_from_slice(&s);
                    }
                }
                Op::MaxVal { dst, a, len } => {
                    let mut m = [f64::NEG_INFINITY; L];
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        for l in 0..L {
                            m[l] = m[l].max(va[l]);
                        }
                    }
                    let o = *dst as usize * L;
                    regs[o..o + L].copy_from_slice(&m);
                }
                Op::Constrain {
                    kind,
                    src,
                    dst,
                    len,
                } => {
                    for c in 0..*len as usize {
                        let so = (*src as usize + c) * L;
                        let dof = (*dst as usize + c) * L;
                        for l in 0..L {
                            let u = regs[so + l];
                            regs[dof + l] = kind.to_constrained(u);
                            jac[l] += kind.log_jacobian(u);
                        }
                    }
                }
                Op::ScoreElem { kind, x, args, k } => {
                    let mut argv = [[0.0; L]; 3];
                    for j in 0..*k as usize {
                        argv[j] = self.ra_l::<L>(args[j], regs, iter);
                    }
                    let xv = self.ra_l::<L>(*x, regs, iter);
                    let lp = lpdf_elem_value_lanes::<L>(*kind, &xv, &argv).unwrap_or([f64::NAN; L]);
                    for l in 0..L {
                        score[l] += lp[l];
                    }
                }
                Op::ScoreVal {
                    kind,
                    dst,
                    x,
                    args,
                    k,
                } => {
                    let mut argv = [[0.0; L]; 3];
                    for j in 0..*k as usize {
                        argv[j] = self.ra_l::<L>(args[j], regs, iter);
                    }
                    let xv = self.ra_l::<L>(*x, regs, iter);
                    let lp = lpdf_elem_value_lanes::<L>(*kind, &xv, &argv).unwrap_or([f64::NAN; L]);
                    let o = dst.at(iter) * L;
                    regs[o..o + L].copy_from_slice(&lp);
                }
                Op::ScoreSweep {
                    kind,
                    xs,
                    args,
                    k,
                    len,
                } => {
                    let s = self.sweep_sum_lanes::<L>(*kind, *xs, args, *k, *len, regs);
                    for l in 0..L {
                        score[l] += s[l];
                    }
                }
                Op::ScoreSweepVal {
                    kind,
                    dst,
                    xs,
                    args,
                    k,
                    len,
                } => {
                    let s = self.sweep_sum_lanes::<L>(*kind, *xs, args, *k, *len, regs);
                    let o = *dst as usize * L;
                    regs[o..o + L].copy_from_slice(&s);
                }
                Op::AddScore { a } => {
                    let va = self.ra_l::<L>(*a, regs, iter);
                    for l in 0..L {
                        score[l] += va[l];
                    }
                }
                Op::AddScoreSpan { a, len } => {
                    for i in 0..*len as usize {
                        let va = self.va_l::<L>(*a, regs, i);
                        for l in 0..L {
                            score[l] += va[l];
                        }
                    }
                }
                Op::Loop { trip, body } => {
                    for it in 0..*trip {
                        self.forward_lanes::<L>(body, regs, score, jac, it);
                    }
                }
            }
        }
    }

    /// The reverse walk: ops in reverse order, each deriving its local
    /// partials from the forward registers and bumping operand adjoints. The
    /// `g != 0.0` guards are semantic (they keep `0 · ∞` from minting NaNs),
    /// so they apply **per lane**: a zero-adjoint lane contributes exactly
    /// 0.0, never a masked garbage product.
    fn reverse_lanes<const L: usize>(&self, ops: &[Op], regs: &[f64], adj: &mut [f64], iter: u32) {
        for op in ops.iter().rev() {
            match op {
                Op::Bin { f, dst, a, b } => {
                    let g = lane_row::<L>(adj, dst.at(iter));
                    if g.iter().any(|&x| x != 0.0) {
                        let va = self.ra_l::<L>(*a, regs, iter);
                        let vb = self.ra_l::<L>(*b, regs, iter);
                        // Partials for every lane (dispatch-once); the g != 0
                        // guard still gates the accumulation, so zero-adjoint
                        // lanes contribute exactly 0.0 as before.
                        let (pa, pb) = f.partials_lanes::<L>(&va, &vb);
                        let mut ga = [0.0; L];
                        let mut gb = [0.0; L];
                        for l in 0..L {
                            if g[l] != 0.0 {
                                ga[l] = pa[l] * g[l];
                                gb[l] = pb[l] * g[l];
                            }
                        }
                        self.bump_l::<L>(*a, adj, iter, &ga);
                        self.bump_l::<L>(*b, adj, iter, &gb);
                    }
                }
                Op::Un { f, dst, a } => {
                    let g = lane_row::<L>(adj, dst.at(iter));
                    if g.iter().any(|&x| x != 0.0) {
                        let va = self.ra_l::<L>(*a, regs, iter);
                        let fx = lane_row::<L>(regs, dst.at(iter));
                        let p = f.partial_lanes::<L>(&va, &fx);
                        let mut ga = [0.0; L];
                        for l in 0..L {
                            if g[l] != 0.0 {
                                ga[l] = p[l] * g[l];
                            }
                        }
                        self.bump_l::<L>(*a, adj, iter, &ga);
                    }
                }
                Op::Mov { dst, a } => {
                    let g = lane_row::<L>(adj, dst.at(iter));
                    if g.iter().any(|&x| x != 0.0) {
                        self.bump_l::<L>(*a, adj, iter, &g);
                    }
                }
                Op::VBin { f, dst, a, b, len } => {
                    for i in 0..*len as usize {
                        let g = lane_row::<L>(adj, *dst as usize + i);
                        if g.iter().any(|&x| x != 0.0) {
                            let va = self.va_l::<L>(*a, regs, i);
                            let vb = self.va_l::<L>(*b, regs, i);
                            let (pa, pb) = f.partials_lanes::<L>(&va, &vb);
                            let mut ga = [0.0; L];
                            let mut gb = [0.0; L];
                            for l in 0..L {
                                if g[l] != 0.0 {
                                    ga[l] = pa[l] * g[l];
                                    gb[l] = pb[l] * g[l];
                                }
                            }
                            self.vbump_l::<L>(*a, adj, i, &ga);
                            self.vbump_l::<L>(*b, adj, i, &gb);
                        }
                    }
                }
                Op::VUn { f, dst, a, len } => {
                    for i in 0..*len as usize {
                        let g = lane_row::<L>(adj, *dst as usize + i);
                        if g.iter().any(|&x| x != 0.0) {
                            let va = self.va_l::<L>(*a, regs, i);
                            let fx = lane_row::<L>(regs, *dst as usize + i);
                            let p = f.partial_lanes::<L>(&va, &fx);
                            let mut ga = [0.0; L];
                            for l in 0..L {
                                if g[l] != 0.0 {
                                    ga[l] = p[l] * g[l];
                                }
                            }
                            self.vbump_l::<L>(*a, adj, i, &ga);
                        }
                    }
                }
                Op::Dot { dst, a, b, len } => {
                    let g = lane_row::<L>(adj, *dst as usize);
                    if g.iter().any(|&x| x != 0.0) {
                        for i in 0..*len as usize {
                            let va = self.va_l::<L>(*a, regs, i);
                            let vb = self.va_l::<L>(*b, regs, i);
                            let mut ba = [0.0; L];
                            let mut bb = [0.0; L];
                            for l in 0..L {
                                if g[l] != 0.0 {
                                    ba[l] = vb[l] * g[l];
                                    bb[l] = va[l] * g[l];
                                }
                            }
                            self.vbump_l::<L>(*a, adj, i, &ba);
                            self.vbump_l::<L>(*b, adj, i, &bb);
                        }
                    }
                }
                Op::Sum { dst, a, len } => {
                    let g = lane_row::<L>(adj, *dst as usize);
                    if g.iter().any(|&x| x != 0.0) {
                        for i in 0..*len as usize {
                            self.vbump_l::<L>(*a, adj, i, &g);
                        }
                    }
                }
                Op::MatVec {
                    dst,
                    mat,
                    x,
                    rows,
                    cols,
                } => {
                    let cols_ = *cols as usize;
                    for r in 0..*rows as usize {
                        let g = lane_row::<L>(adj, *dst as usize + r);
                        if g.iter().any(|&x| x != 0.0) {
                            for c in 0..cols_ {
                                let m = self.tables_f[*mat as usize][r * cols_ + c];
                                let mut bx = [0.0; L];
                                for l in 0..L {
                                    if g[l] != 0.0 {
                                        bx[l] = m * g[l];
                                    }
                                }
                                self.vbump_l::<L>(*x, adj, c, &bx);
                            }
                        }
                    }
                }
                Op::MaxVal { .. } => {}
                Op::Constrain {
                    kind,
                    src,
                    dst,
                    len,
                } => {
                    for c in 0..*len as usize {
                        let so = (*src as usize + c) * L;
                        let dof = (*dst as usize + c) * L;
                        for l in 0..L {
                            let u = regs[so + l];
                            let g = adj[dof + l];
                            let (dxdu, djdu) = constraint_partials(*kind, u);
                            adj[so + l] += g * dxdu + djdu;
                        }
                    }
                }
                Op::ScoreElem { kind, x, args, k } => {
                    let mut argv = [[0.0; L]; 3];
                    for j in 0..*k as usize {
                        argv[j] = self.ra_l::<L>(args[j], regs, iter);
                    }
                    let xv = self.ra_l::<L>(*x, regs, iter);
                    if let Some((dx, dp)) = lpdf_elem_partials_only_lanes::<L>(*kind, &xv, &argv) {
                        self.bump_l::<L>(*x, adj, iter, &dx);
                        for j in 0..*k as usize {
                            self.bump_l::<L>(args[j], adj, iter, &dp[j]);
                        }
                    }
                }
                Op::ScoreVal {
                    kind,
                    dst,
                    x,
                    args,
                    k,
                } => {
                    let g = lane_row::<L>(adj, dst.at(iter));
                    if g.iter().any(|&x| x != 0.0) {
                        let mut argv = [[0.0; L]; 3];
                        for j in 0..*k as usize {
                            argv[j] = self.ra_l::<L>(args[j], regs, iter);
                        }
                        let xv = self.ra_l::<L>(*x, regs, iter);
                        if let Some((dx, dp)) =
                            lpdf_elem_partials_only_lanes::<L>(*kind, &xv, &argv)
                        {
                            let mut gx = [0.0; L];
                            let mut gp = [[0.0; L]; 3];
                            for l in 0..L {
                                if g[l] != 0.0 {
                                    gx[l] = dx[l] * g[l];
                                    for (gpj, dpj) in gp.iter_mut().zip(&dp).take(*k as usize) {
                                        gpj[l] = dpj[l] * g[l];
                                    }
                                }
                            }
                            self.bump_l::<L>(*x, adj, iter, &gx);
                            for j in 0..*k as usize {
                                self.bump_l::<L>(args[j], adj, iter, &gp[j]);
                            }
                        }
                    }
                }
                Op::ScoreSweep {
                    kind,
                    xs,
                    args,
                    k,
                    len,
                } => {
                    self.sweep_reverse_lanes::<L>(*kind, *xs, args, *k, *len, &[1.0; L], regs, adj);
                }
                Op::ScoreSweepVal {
                    kind,
                    dst,
                    xs,
                    args,
                    k,
                    len,
                } => {
                    let g = lane_row::<L>(adj, *dst as usize);
                    self.sweep_reverse_lanes::<L>(*kind, *xs, args, *k, *len, &g, regs, adj);
                }
                Op::AddScore { a } => {
                    self.bump_l::<L>(*a, adj, iter, &[1.0; L]);
                }
                Op::AddScoreSpan { a, len } => {
                    for i in 0..*len as usize {
                        self.vbump_l::<L>(*a, adj, i, &[1.0; L]);
                    }
                }
                Op::Loop { trip, body } => {
                    for it in (0..*trip).rev() {
                        self.reverse_lanes::<L>(body, regs, adj, it);
                    }
                }
            }
        }
    }
}

/// `(∂x/∂u, ∂log|J|/∂u)` of a constraint transform — the analytic partials
/// of [`Constraint::to_constrained`] / [`Constraint::log_jacobian`].
fn constraint_partials(kind: Constraint, u: f64) -> (f64, f64) {
    match kind {
        Constraint::None => (1.0, 0.0),
        Constraint::Lower(_) => (u.exp(), 1.0),
        Constraint::Upper(_) => (-u.exp(), 1.0),
        Constraint::Bounded(l, h) => {
            let s = minidiff::special::sigmoid(u);
            ((h - l) * s * (1.0 - s), 1.0 - 2.0 * s)
        }
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

static NO_EXT: NoExternals = NoExternals;

/// One element of a symbolic vector: a baked constant or an absolute
/// register.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Elem {
    K(f64),
    R(u32),
}

/// The compile-time binding of a frame slot on the symbolic side.
#[derive(Debug, Clone, PartialEq)]
enum SymVal {
    Scalar(u32),
    Vector(Vec<Elem>),
}

/// An expression compilation result.
#[derive(Debug, Clone, PartialEq)]
enum CVal {
    /// Fully data-determined: folded at compile time.
    Known(Value<f64>),
    /// A symbolic scalar in an absolute register.
    Scalar(u32),
    /// A symbolic flat real vector.
    Vector(Vec<Elem>),
}

/// A scalar-or-span view used by the element-wise combinators.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CV1 {
    S(A),
    V(VA, u32),
}

/// The compile-time binding of a slot *inside* a compiled loop body.
#[derive(Debug, Clone)]
enum LBind {
    /// The loop counter (`value = lo + iter`).
    Counter,
    /// Known per-iteration values (data indexed by the counter).
    IterKnown(std::rc::Rc<Vec<Value<f64>>>),
    /// A symbolic scalar, possibly strided by the iteration.
    Reg(Reg),
}

/// Scalar-expansion chain of one loop-carried slot: `w` writes per
/// iteration over `w·trip + 1` registers, `chain[0]` holding the pre-loop
/// value.
#[derive(Debug, Clone, Copy)]
struct Chain {
    start: u32,
    w: u32,
    k: u32,
}

/// A pending element-map update from an indexed write inside a loop.
#[derive(Debug, Clone, Copy)]
struct ElemWrite {
    slot: u32,
    base: u32,
    idx0: usize,
}

/// Loop-compilation state (one level; a body holding a loop expands instead).
struct Lc {
    counter: u32,
    lo: i64,
    trip: u32,
    ops: Vec<Op>,
    binds: HashMap<u32, LBind>,
    chains: HashMap<u32, Chain>,
    elem_writes: Vec<ElemWrite>,
    /// Slots whose elements the loop writes (reads of these decline).
    vec_writes: Vec<u32>,
}

/// Classification of an expression's dependencies inside a loop body.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum Dep {
    /// Only globally known slots: folds to one constant.
    Invariant,
    /// Known slots plus the counter / per-iteration-known slots: folds to a
    /// per-iteration table.
    CounterKnown,
    /// Reads a symbolic register somewhere.
    Symbolic,
}

struct Compiler<'a> {
    resolved: &'a ResolvedProgram,
    functions: &'a [FunDecl],
    /// Data-determined slot values; symbolic slots are cleared here.
    known: Frame<f64>,
    sym: HashMap<u32, SymVal>,
    /// Constrained-register layout of each parameter slot. The frame slot is
    /// only *bound* when its `sample` site executes, mirroring the
    /// interpreter's trace semantics (a parameter read before its site is an
    /// unbound-variable error, which such programs keep by declining).
    param_regs: HashMap<u32, SymVal>,
    /// Cache of materialized spans per slot, invalidated on rebinding.
    span_cache: HashMap<u32, u32>,
    next_reg: u32,
    const_init: Vec<(u32, f64)>,
    tables_f: Vec<Vec<f64>>,
    tables_i: Vec<Vec<i64>>,
    outer_ops: Vec<Op>,
    lc: Option<Lc>,
    /// Entries held by `tables_f`/`tables_i`, for the expansion budget.
    table_words: usize,
    /// Iterations lowered inside loop expansions so far (see
    /// [`MAX_EXPAND_TRIPS`]).
    expanded_trips: u64,
    /// Depth of the loop expansions being lowered (0 outside any).
    expand_depth: u32,
    /// Per-iteration register and table words charged by rolled loops so
    /// far (see [`MAX_LOOP_WORDS`]).
    loop_words: u64,
}

/// Budget of bind-time loop expansion (`Compiler::expand_loop`), beside the
/// JIT's own code-size cap (`jit::emit::MAX_CODE_BYTES`). `serve` binds
/// client source, so an expansion must stop in bounded time and memory; past
/// any bound the loop declines with a stated reason and the model keeps the
/// tape.
///
/// Iterations lowered inside expansions, over the whole program: each
/// expanded loop, and each rolled loop nested in one, charges its trip count
/// before it is lowered.
const MAX_EXPAND_TRIPS: u64 = 1 << 16;
/// Top-level ops in the program (a rolled loop counts once), checked after
/// every expanded iteration.
const MAX_EXPAND_OPS: usize = 1 << 16;
/// Registers plus table entries (f64/i64 words) in the program, checked
/// after every expanded iteration: an iteration's ops may carry data tables
/// or a rolled loop's register chain, which the op count does not see.
const MAX_EXPAND_WORDS: usize = 1 << 22;
/// Per-iteration words of rolled loops, over the whole program: a rolled
/// loop holds `trip` registers per body value, `writes · trip + 1` per
/// loop-carried scalar and `trip` table entries per data-and-counter value.
/// Each is charged, in `u64`, before it is allocated, so a loop like
/// `for (i in 1:N) acc = acc + mu;` at a hostile `N` declines instead of
/// sizing the register file (and every lane file) by `N` or overflowing
/// the `u32` register index.
const MAX_LOOP_WORDS: u64 = 1 << 22;

/// Whether a sweep could not compile directly but its retained fallback
/// loop should be compiled instead (shapes where the runtime would also
/// take the fallback — and succeed).
struct UseLoop;

fn decline(reason: impl Into<String>) -> Decline {
    Decline::new(reason)
}

fn for_each_slot(e: &RExpr, f: &mut impl FnMut(u32)) {
    match e {
        RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) => {}
        RExpr::Slot(s) => f(*s),
        RExpr::Call(_, _, args) => args.iter().for_each(|a| for_each_slot(a, f)),
        RExpr::Binary(_, a, b) | RExpr::Range(a, b) => {
            for_each_slot(a, f);
            for_each_slot(b, f);
        }
        RExpr::Unary(_, a) => for_each_slot(a, f),
        RExpr::Index(base, indices) => {
            for_each_slot(base, f);
            for idx in indices {
                match idx {
                    RIndex::One(e) => for_each_slot(e, f),
                    RIndex::Slice(a, b) => {
                        for_each_slot(a, f);
                        for_each_slot(b, f);
                    }
                }
            }
        }
        RExpr::ArrayLit(items) | RExpr::VectorLit(items) => {
            items.iter().for_each(|i| for_each_slot(i, f))
        }
        RExpr::Ternary(c, a, b) => {
            for_each_slot(c, f);
            for_each_slot(a, f);
            for_each_slot(b, f);
        }
    }
}

impl<'a> Compiler<'a> {
    fn alloc(&mut self, n: u32) -> u32 {
        let base = self.next_reg;
        self.next_reg += n;
        base
    }

    /// Charges `n` per-iteration words of a rolled loop before they are
    /// allocated ([`MAX_LOOP_WORDS`]).
    fn charge_loop_words(&mut self, n: u64) -> Result<(), Decline> {
        self.loop_words = self.loop_words.saturating_add(n);
        if self.loop_words > MAX_LOOP_WORDS {
            return Err(decline(format!(
                "rolled loops past {MAX_LOOP_WORDS} per-iteration register and table words"
            )));
        }
        Ok(())
    }

    fn emit(&mut self, op: Op) {
        match &mut self.lc {
            Some(lc) => lc.ops.push(op),
            None => self.outer_ops.push(op),
        }
    }

    fn emit_outer(&mut self, op: Op) {
        self.outer_ops.push(op);
    }

    /// A fresh destination register: a single register at top level, a span
    /// of `trip` stride-1 registers inside a loop body.
    fn fresh_dst(&mut self) -> Result<Reg, Decline> {
        Ok(match &self.lc {
            Some(lc) => {
                let trip = lc.trip;
                self.charge_loop_words(u64::from(trip))?;
                Reg {
                    base: self.alloc(trip),
                    stride: 1,
                }
            }
            None => Reg::abs(self.alloc(1)),
        })
    }

    fn table_f(&mut self, v: Vec<f64>) -> u32 {
        self.table_words += v.len();
        self.tables_f.push(v);
        (self.tables_f.len() - 1) as u32
    }

    fn table_i(&mut self, v: Vec<i64>) -> u32 {
        self.table_words += v.len();
        self.tables_i.push(v);
        (self.tables_i.len() - 1) as u32
    }

    fn keval(&self, e: &RExpr) -> Result<Value<f64>, Decline> {
        let ctx = RCtx::new(self.resolved, self.functions, &NO_EXT);
        reval_expr(e, &self.known, &ctx)
            .map_err(|err| decline(format!("compile-time evaluation failed: {}", err.message())))
    }

    fn kint(&self, e: &RExpr) -> Result<i64, Decline> {
        self.keval(e)?
            .as_int()
            .map_err(|err| decline(format!("compile-time evaluation failed: {}", err.message())))
    }

    fn bind_known(&mut self, slot: u32, v: Value<f64>) {
        self.sym.remove(&slot);
        self.span_cache.remove(&slot);
        self.known.set(slot, v);
    }

    fn bind_sym(&mut self, slot: u32, sv: SymVal) {
        self.known.clear(slot);
        self.span_cache.remove(&slot);
        self.sym.insert(slot, sv);
    }

    fn unbind(&mut self, slot: u32) {
        self.sym.remove(&slot);
        self.span_cache.remove(&slot);
        self.known.clear(slot);
    }

    fn bind_cval(&mut self, slot: u32, v: CVal) {
        match v {
            CVal::Known(v) => self.bind_known(slot, v),
            CVal::Scalar(r) => self.bind_sym(slot, SymVal::Scalar(r)),
            CVal::Vector(elems) => self.bind_sym(slot, SymVal::Vector(elems)),
        }
    }

    /// Dependency class of an expression given the current bindings.
    fn dep(&self, e: &RExpr) -> Dep {
        let mut d = Dep::Invariant;
        for_each_slot(e, &mut |s| {
            let class = if let Some(lc) = &self.lc {
                match lc.binds.get(&s) {
                    Some(LBind::Counter) | Some(LBind::IterKnown(_)) => Dep::CounterKnown,
                    Some(LBind::Reg(_)) => Dep::Symbolic,
                    None => {
                        if self.sym.contains_key(&s) {
                            Dep::Symbolic
                        } else {
                            Dep::Invariant
                        }
                    }
                }
            } else if self.sym.contains_key(&s) {
                Dep::Symbolic
            } else {
                Dep::Invariant
            };
            if class > d {
                d = class;
            }
        });
        d
    }

    /// Materializes a symbolic vector as a contiguous register span,
    /// emitting (outer) moves only for non-contiguous layouts. `slot_hint`
    /// enables caching across repeated reads of the same binding.
    fn materialize(&mut self, elems: &[Elem], slot_hint: Option<u32>) -> u32 {
        if let Some(slot) = slot_hint {
            if let Some(&span) = self.span_cache.get(&slot) {
                return span;
            }
        }
        // Already-contiguous registers alias for free.
        if let Some(Elem::R(first)) = elems.first() {
            if elems
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, Elem::R(r) if *r == first + i as u32))
            {
                if let Some(slot) = slot_hint {
                    self.span_cache.insert(slot, *first);
                }
                return *first;
            }
        }
        let span = self.alloc(elems.len() as u32);
        for (i, e) in elems.iter().enumerate() {
            let dst = span + i as u32;
            match e {
                Elem::K(v) => self.const_init.push((dst, *v)),
                Elem::R(r) => self.emit_outer(Op::Mov {
                    dst: Reg::abs(dst),
                    a: A::Reg(Reg::abs(*r)),
                }),
            }
        }
        if let Some(slot) = slot_hint {
            self.span_cache.insert(slot, span);
        }
        span
    }

    /// Converts an expression result to the scalar-or-span view used by the
    /// element-wise combinators. Known containers become constant tables;
    /// known nested arrays flatten exactly as `as_real_vec` does.
    fn cv1(&mut self, v: CVal) -> Result<CV1, Decline> {
        Ok(match v {
            CVal::Known(Value::Real(x)) => CV1::S(A::Const(x)),
            CVal::Known(Value::Int(k)) => CV1::S(A::Const(k as f64)),
            CVal::Known(ref kv @ (Value::Vector(_) | Value::IntArray(_) | Value::Array(_))) => {
                let flat = kv
                    .as_real_vec()
                    .map_err(|e| decline(format!("container flatten failed: {}", e.message())))?;
                let n = flat.len() as u32;
                CV1::V(VA::Table(self.table_f(flat)), n)
            }
            CVal::Known(Value::Unit) => return Err(decline("unit value in arithmetic")),
            CVal::Scalar(r) => CV1::S(A::Reg(Reg::abs(r))),
            CVal::Vector(elems) => {
                let n = elems.len() as u32;
                let span = self.materialize(&elems, None);
                CV1::V(VA::Span(span), n)
            }
        })
    }

    fn cval_of(&mut self, v: CV1) -> CVal {
        match v {
            CV1::S(A::Reg(r)) => CVal::Scalar(r.base),
            CV1::S(A::Const(c)) => CVal::Known(Value::Real(c)),
            CV1::S(A::Table(_)) => unreachable!("tables do not appear at top level"),
            CV1::V(VA::Span(s), n) => CVal::Vector((0..n).map(|i| Elem::R(s + i)).collect()),
            CV1::V(VA::Table(t), _) => {
                CVal::Known(Value::Vector(self.tables_f[t as usize].clone()))
            }
            CV1::V(..) => unreachable!("broadcast operands are not results"),
        }
    }

    /// Emits `f` element-wise (or scalar) over one operand.
    fn map1(&mut self, f: UF, a: CV1) -> Result<CV1, Decline> {
        Ok(match a {
            CV1::S(a) => {
                let dst = self.fresh_dst()?;
                self.emit(Op::Un { f, dst, a });
                CV1::S(A::Reg(dst))
            }
            CV1::V(a, len) => {
                let dst = self.alloc(len);
                self.emit(Op::VUn { f, dst, a, len });
                CV1::V(VA::Span(dst), len)
            }
        })
    }

    /// Compiles a top-level expression (no enclosing loop).
    fn cexpr(&mut self, e: &RExpr) -> Result<CVal, Decline> {
        if self.dep(e) == Dep::Invariant {
            return Ok(CVal::Known(self.keval(e)?));
        }
        match e {
            RExpr::Slot(s) => match self.sym.get(s) {
                Some(SymVal::Scalar(r)) => Ok(CVal::Scalar(*r)),
                Some(SymVal::Vector(elems)) => Ok(CVal::Vector(elems.clone())),
                None => Err(decline("symbolic slot lost its binding")),
            },
            RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) | RExpr::Range(..) => {
                Err(decline("literal classified symbolic")) // unreachable
            }
            RExpr::Unary(op, a) => {
                let v = self.cexpr(a)?;
                match op {
                    UnOp::Plus => Ok(v),
                    UnOp::Neg => {
                        let v = self.cv1(v)?;
                        let r = self.map1(UF::R(UnFn::Neg), v)?;
                        Ok(self.cval_of(r))
                    }
                    UnOp::Not => Err(decline("logical not of a parameter-dependent value")),
                }
            }
            RExpr::Binary(op, a, b) => self.cbinary(*op, a, b),
            RExpr::Index(base, indices) => self.cindex(base, indices),
            RExpr::Ternary(c, a, b) => {
                if self.dep(c) != Dep::Invariant {
                    return Err(decline("parameter-dependent ternary condition"));
                }
                let cond = self
                    .keval(c)?
                    .as_real()
                    .map_err(|e| decline(e.message().to_string()))?;
                if cond != 0.0 {
                    self.cexpr(a)
                } else {
                    self.cexpr(b)
                }
            }
            RExpr::ArrayLit(items) | RExpr::VectorLit(items) => {
                // All-scalar literals promote to a flat vector on both
                // evaluators; symbolic literals with non-scalar items decline.
                let mut elems = Vec::with_capacity(items.len());
                for item in items {
                    match self.cexpr(item)? {
                        CVal::Known(v) => elems.push(Elem::K(
                            v.as_real().map_err(|e| decline(e.message().to_string()))?,
                        )),
                        CVal::Scalar(r) => elems.push(Elem::R(r)),
                        CVal::Vector(_) => {
                            return Err(decline("nested symbolic container literal"))
                        }
                    }
                }
                Ok(CVal::Vector(elems))
            }
            RExpr::Call(name, target, args) => {
                if matches!(target, crate::resolved::CallTarget::User(_)) {
                    return Err(decline(format!(
                        "user-defined function call `{name}` (interpreted via EnvView)"
                    )));
                }
                self.cbuiltin(name, args)
            }
        }
    }

    fn cbinary(&mut self, op: BinOp, a: &RExpr, b: &RExpr) -> Result<CVal, Decline> {
        use BinOp::*;
        if matches!(op, Eq | Neq | Lt | Leq | Gt | Geq | And | Or) {
            return Err(decline(
                "comparison or logical operator on parameter-dependent values",
            ));
        }
        let va = self.cexpr(a)?;
        let vb = self.cexpr(b)?;
        // Known matrix × symbolic vector: a regression head.
        if matches!(op, Mul) {
            if let (CVal::Known(Value::Array(rows)), vb @ (CVal::Vector(_) | CVal::Known(_))) =
                (&va, &vb)
            {
                let xb = self.cv1(vb.clone())?;
                if let CV1::V(x, xlen) = xb {
                    let nrows = rows.len();
                    let mut flat = Vec::with_capacity(nrows * xlen as usize);
                    for row in rows {
                        let r = row
                            .as_real_vec()
                            .map_err(|e| decline(e.message().to_string()))?;
                        if r.len() != xlen as usize {
                            return Err(decline("matrix-vector dimension mismatch"));
                        }
                        flat.extend(r);
                    }
                    let mat = self.table_f(flat);
                    let dst = self.alloc(nrows as u32);
                    self.emit(Op::MatVec {
                        dst,
                        mat,
                        x,
                        rows: nrows as u32,
                        cols: xlen,
                    });
                    return Ok(CVal::Vector(
                        (0..nrows as u32).map(|i| Elem::R(dst + i)).collect(),
                    ));
                }
            }
            if matches!(&va, CVal::Vector(_) | CVal::Known(Value::Array(_)))
                && matches!(&vb, CVal::Known(Value::Array(_)))
            {
                return Err(decline("symbolic value times matrix"));
            }
        }
        if matches!(&va, CVal::Known(Value::Array(_)))
            || matches!(&vb, CVal::Known(Value::Array(_)))
        {
            return Err(decline("nested-array operand in symbolic arithmetic"));
        }
        let ca = self.cv1(va)?;
        let cb = self.cv1(vb)?;
        let f = match op {
            Add => BinF::Add,
            Sub => BinF::Sub,
            EltMul => BinF::Mul,
            Div | EltDiv => BinF::Div,
            Mod => BinF::ZeroMod,
            Mul => {
                if let (CV1::V(a, n), CV1::V(b, m)) = (ca, cb) {
                    // vector · vector is the dot product.
                    if n != m {
                        return Err(decline(format!("vector length mismatch: {n} vs {m}")));
                    }
                    let dst = self.alloc(1);
                    self.emit(Op::Dot { dst, a, b, len: n });
                    return Ok(CVal::Scalar(dst));
                }
                BinF::Mul
            }
            Pow => {
                // Constant exponents keep gradients exact (powi/powf); a
                // parameter-dependent exponent declines.
                let CV1::S(A::Const(p)) = cb else {
                    return Err(decline("parameter-dependent exponent"));
                };
                let f = if p.fract() == 0.0 && p.abs() < 1e6 {
                    UF::R(UnFn::Powi(p as i32))
                } else {
                    UF::R(UnFn::Powf(p))
                };
                let r = self.map1(f, ca)?;
                return Ok(self.cval_of(r));
            }
            _ => unreachable!(),
        };
        let r = self.map2(f, ca, cb)?;
        Ok(self.cval_of(r))
    }

    fn cindex(&mut self, base: &RExpr, indices: &[RIndex]) -> Result<CVal, Decline> {
        let mut cur = self.cexpr(base)?;
        for idx in indices {
            match idx {
                RIndex::One(i) => {
                    if self.dep(i) != Dep::Invariant {
                        return Err(decline("parameter-dependent index"));
                    }
                    let i = self.kint(i)?;
                    cur = match cur {
                        CVal::Known(v) => {
                            CVal::Known(v.index(i).map_err(|e| decline(e.message().to_string()))?)
                        }
                        CVal::Vector(elems) => {
                            if i < 1 || i as usize > elems.len() {
                                return Err(decline(format!(
                                    "index {i} out of bounds for length {}",
                                    elems.len()
                                )));
                            }
                            match elems[(i - 1) as usize] {
                                Elem::K(v) => CVal::Known(Value::Real(v)),
                                Elem::R(r) => CVal::Scalar(r),
                            }
                        }
                        CVal::Scalar(_) => return Err(decline("cannot index a scalar")),
                    };
                }
                RIndex::Slice(lo, hi) => {
                    if self.dep(lo) != Dep::Invariant || self.dep(hi) != Dep::Invariant {
                        return Err(decline("parameter-dependent slice bounds"));
                    }
                    let lo = self.kint(lo)?;
                    let hi = self.kint(hi)?;
                    cur = match cur {
                        CVal::Known(v) => CVal::Known(
                            crate::eval::slice_value(&v, lo, hi)
                                .map_err(|e| decline(e.message().to_string()))?,
                        ),
                        CVal::Vector(elems) => {
                            if lo < 1 || hi as usize > elems.len() || lo > hi + 1 {
                                return Err(decline(format!(
                                    "slice {lo}:{hi} out of bounds for length {}",
                                    elems.len()
                                )));
                            }
                            CVal::Vector(elems[(lo - 1) as usize..hi as usize].to_vec())
                        }
                        CVal::Scalar(_) => return Err(decline("cannot slice a scalar")),
                    };
                }
            }
        }
        Ok(cur)
    }

    /// Emits `f` element-wise with scalar broadcast over two operands.
    /// Vector–vector shapes must have equal lengths (callers validate).
    fn map2(&mut self, f: BinF, a: CV1, b: CV1) -> Result<CV1, Decline> {
        let broadcast = |v: CV1| -> VA {
            match v {
                CV1::S(A::Reg(r)) => VA::RegS(r),
                CV1::S(A::Const(c)) => VA::ConstS(c),
                CV1::S(A::Table(_)) => unreachable!("tables are loop-local"),
                CV1::V(va, _) => va,
            }
        };
        match (a, b) {
            (CV1::S(a), CV1::S(b)) => {
                let dst = self.fresh_dst()?;
                self.emit(Op::Bin { f, dst, a, b });
                Ok(CV1::S(A::Reg(dst)))
            }
            (a, b) => {
                let len = match (a, b) {
                    (CV1::V(_, n), CV1::S(_)) | (CV1::S(_), CV1::V(_, n)) => n,
                    (CV1::V(_, n), CV1::V(_, m)) => {
                        if n != m {
                            return Err(decline(format!("vector length mismatch: {n} vs {m}")));
                        }
                        n
                    }
                    _ => unreachable!(),
                };
                let dst = self.alloc(len);
                self.emit(Op::VBin {
                    f,
                    dst,
                    a: broadcast(a),
                    b: broadcast(b),
                    len,
                });
                Ok(CV1::V(VA::Span(dst), len))
            }
        }
    }

    /// Compiles a builtin call with at least one symbolic argument.
    fn cbuiltin(&mut self, name: &str, args: &[RExpr]) -> Result<CVal, Decline> {
        // `*_lpdf` family first: scored through the elem/sweep kernels.
        if let Some(dist_name) = crate::eval::strip_lpdf_suffix(name) {
            let Some(kind) = DistKind::from_name(dist_name) else {
                return Err(decline(format!("unknown distribution `{dist_name}`")));
            };
            if args.is_empty() {
                return Err(decline(format!("{name}: missing observed value")));
            }
            let x = self.cexpr(&args[0])?;
            let dargs: Vec<CVal> = args[1..]
                .iter()
                .map(|a| self.cexpr(a))
                .collect::<Result<_, _>>()?;
            return match self.site_operands(kind, x, dargs)? {
                Site::Elem { x, args, k } => {
                    let dst = self.fresh_dst()?;
                    self.emit(Op::ScoreVal {
                        kind,
                        dst,
                        x,
                        args,
                        k,
                    });
                    Ok(CVal::Scalar(dst.base))
                }
                Site::Sweep { xs, args, k, len } => {
                    let dst = self.alloc(1);
                    self.emit(Op::ScoreSweepVal {
                        kind,
                        dst,
                        xs,
                        args,
                        k,
                        len,
                    });
                    Ok(CVal::Scalar(dst))
                }
            };
        }
        if name.ends_with("_lcdf") || name.ends_with("_lccdf") || name.ends_with("_cdf") {
            return Err(decline(format!("cumulative distribution `{name}`")));
        }
        if name.ends_with("_rng") {
            return Err(decline(format!("rng builtin `{name}` in the density body")));
        }

        let one = |c: &mut Self, args: &[RExpr]| -> Result<CV1, Decline> {
            let v = c.cexpr(&args[0])?;
            c.cv1(v)
        };
        let scalar_arg = |c: &mut Self, e: &RExpr| -> Result<A, Decline> {
            match c.cexpr(e)? {
                CVal::Known(v) => Ok(A::Const(
                    v.as_real().map_err(|e| decline(e.message().to_string()))?,
                )),
                CVal::Scalar(r) => Ok(A::Reg(Reg::abs(r))),
                CVal::Vector(_) => Err(decline(format!("{name}: container where scalar expected"))),
            }
        };
        let need = |n: usize| -> Result<(), Decline> {
            if args.len() < n {
                Err(decline(format!("{name}: missing arguments")))
            } else {
                Ok(())
            }
        };

        const UNARY: &[&str] = &[
            "log",
            "log1p",
            "log1m",
            "log1p_exp",
            "exp",
            "expm1",
            "sqrt",
            "square",
            "inv",
            "inv_sqrt",
            "inv_logit",
            "logit",
            "fabs",
            "abs",
            "floor",
            "ceil",
            "round",
            "step",
            "sin",
            "cos",
            "tan",
            "tanh",
            "atan",
            "lgamma",
            "tgamma",
            "digamma",
            "erf",
            "Phi",
            "Phi_approx",
            "std_normal_cdf",
        ];
        if UNARY.contains(&name) {
            need(1)?;
            let v = one(self, args)?;
            if let Some(r) = self.unary_map(name, v)? {
                return Ok(self.cval_of(r));
            }
        }

        match name {
            "sum" => {
                need(1)?;
                match one(self, args)? {
                    CV1::S(a) => Ok(self.cval_of(CV1::S(a))),
                    CV1::V(a, len) => {
                        let dst = self.alloc(1);
                        self.emit(Op::Sum { dst, a, len });
                        Ok(CVal::Scalar(dst))
                    }
                }
            }
            "mean" => {
                need(1)?;
                match one(self, args)? {
                    CV1::S(a) => {
                        let r = self.map2(BinF::Div, CV1::S(a), CV1::S(A::Const(1.0)))?;
                        Ok(self.cval_of(r))
                    }
                    CV1::V(a, len) => {
                        let dst = self.alloc(1);
                        self.emit(Op::Sum { dst, a, len });
                        let r = self.map2(
                            BinF::Div,
                            CV1::S(A::Reg(Reg::abs(dst))),
                            CV1::S(A::Const(len as f64)),
                        )?;
                        Ok(self.cval_of(r))
                    }
                }
            }
            "prod" => {
                need(1)?;
                match one(self, args)? {
                    CV1::S(a) => {
                        let r = self.map2(BinF::Mul, CV1::S(A::Const(1.0)), CV1::S(a))?;
                        Ok(self.cval_of(r))
                    }
                    CV1::V(a, len) => {
                        let mut acc = CV1::S(A::Const(1.0));
                        for i in 0..len {
                            let e = self.span_elem(a, i);
                            acc = self.map2(BinF::Mul, acc, CV1::S(e))?;
                        }
                        Ok(self.cval_of(acc))
                    }
                }
            }
            "min" | "max" => {
                let f = if name == "min" { BinF::Min } else { BinF::Max };
                if args.len() == 2 {
                    let a = scalar_arg(self, &args[0])?;
                    let b = scalar_arg(self, &args[1])?;
                    let r = self.map2(f, CV1::S(a), CV1::S(b))?;
                    return Ok(self.cval_of(r));
                }
                need(1)?;
                match one(self, args)? {
                    CV1::S(a) => Ok(self.cval_of(CV1::S(a))),
                    CV1::V(a, len) => {
                        if len == 0 {
                            return Err(decline(format!("{name} of an empty vector")));
                        }
                        let mut acc = CV1::S(self.span_elem(a, 0));
                        for i in 1..len {
                            let e = self.span_elem(a, i);
                            acc = self.map2(f, acc, CV1::S(e))?;
                        }
                        Ok(self.cval_of(acc))
                    }
                }
            }
            "dot_product" | "dot_self" => {
                need(1)?;
                let a = one(self, args)?;
                let b = if name == "dot_self" {
                    a
                } else {
                    need(2)?;
                    let v = self.cexpr(&args[1])?;
                    self.cv1(v)?
                };
                match (a, b) {
                    (CV1::V(a, n), CV1::V(b, m)) => {
                        if n != m {
                            return Err(decline("dot_product length mismatch"));
                        }
                        let dst = self.alloc(1);
                        self.emit(Op::Dot { dst, a, b, len: n });
                        Ok(CVal::Scalar(dst))
                    }
                    (CV1::S(a), CV1::S(b)) => {
                        let r = self.map2(BinF::Mul, CV1::S(a), CV1::S(b))?;
                        Ok(self.cval_of(r))
                    }
                    _ => Err(decline("dot_product length mismatch")),
                }
            }
            "log_sum_exp" => {
                if args.len() == 2 {
                    let a = scalar_arg(self, &args[0])?;
                    let b = scalar_arg(self, &args[1])?;
                    return self.log_sum_exp_pair(a, b);
                }
                need(1)?;
                match one(self, args)? {
                    CV1::S(a) => {
                        // Single scalar: m = x, result = x + ln(exp(0)) = x.
                        // The builtin computes m + ln(exp(x - m)) with m = x.
                        let m = self.map2(
                            BinF::ZeroMaxVal,
                            CV1::S(a),
                            CV1::S(A::Const(f64::NEG_INFINITY)),
                        )?;
                        let d = self.map2(BinF::Sub, CV1::S(a), m)?;
                        let e = self.map1(UF::R(UnFn::Exp), d)?;
                        let l = self.map1(UF::R(UnFn::Ln), e)?;
                        let r = self.map2(BinF::Add, m, l)?;
                        Ok(self.cval_of(r))
                    }
                    CV1::V(a, len) => {
                        let m = self.alloc(1);
                        self.emit(Op::MaxVal { dst: m, a, len });
                        let mm = CV1::S(A::Reg(Reg::abs(m)));
                        let d = self.map2(BinF::Sub, CV1::V(a, len), mm)?;
                        let e = self.map1(UF::R(UnFn::Exp), d)?;
                        let CV1::V(ea, _) = e else { unreachable!() };
                        let s = self.alloc(1);
                        self.emit(Op::Sum { dst: s, a: ea, len });
                        let l = self.map1(UF::R(UnFn::Ln), CV1::S(A::Reg(Reg::abs(s))))?;
                        let r = self.map2(BinF::Add, mm, l)?;
                        Ok(self.cval_of(r))
                    }
                }
            }
            "log_mix" => {
                need(3)?;
                let theta = scalar_arg(self, &args[0])?;
                let a = scalar_arg(self, &args[1])?;
                let b = scalar_arg(self, &args[2])?;
                // m = max(a.value, b.value) (untracked); then
                // m + ln(theta·e^{a-m} + (1-theta)·e^{b-m}).
                let m = self.map2(BinF::ZeroMaxVal, CV1::S(a), CV1::S(b))?;
                let da = self.map2(BinF::Sub, CV1::S(a), m)?;
                let ea = self.map1(UF::R(UnFn::Exp), da)?;
                let t1 = self.map2(BinF::Mul, CV1::S(theta), ea)?;
                let onem = self.map2(BinF::Sub, CV1::S(A::Const(1.0)), CV1::S(theta))?;
                let db = self.map2(BinF::Sub, CV1::S(b), m)?;
                let eb = self.map1(UF::R(UnFn::Exp), db)?;
                let t2 = self.map2(BinF::Mul, onem, eb)?;
                let s = self.map2(BinF::Add, t1, t2)?;
                let l = self.map1(UF::R(UnFn::Ln), s)?;
                let r = self.map2(BinF::Add, m, l)?;
                Ok(self.cval_of(r))
            }
            "pow" => {
                need(2)?;
                let x = scalar_arg(self, &args[0])?;
                let p = match self.cexpr(&args[1])? {
                    CVal::Known(v) => v.as_real().map_err(|e| decline(e.message().to_string()))?,
                    _ => return Err(decline("parameter-dependent exponent")),
                };
                let f = if p.fract() == 0.0 && p.abs() < 1e6 {
                    UF::R(UnFn::Powi(p as i32))
                } else {
                    UF::R(UnFn::Powf(p))
                };
                let r = self.map1(f, CV1::S(x))?;
                Ok(self.cval_of(r))
            }
            "fmax" | "fmin" => {
                need(2)?;
                let a = scalar_arg(self, &args[0])?;
                let b = scalar_arg(self, &args[1])?;
                let f = if name == "fmax" { BinF::Max } else { BinF::Min };
                let r = self.map2(f, CV1::S(a), CV1::S(b))?;
                Ok(self.cval_of(r))
            }
            "fma" => {
                need(3)?;
                let a = scalar_arg(self, &args[0])?;
                let b = scalar_arg(self, &args[1])?;
                let cc = scalar_arg(self, &args[2])?;
                let t = self.map2(BinF::Mul, CV1::S(a), CV1::S(b))?;
                let r = self.map2(BinF::Add, t, CV1::S(cc))?;
                Ok(self.cval_of(r))
            }
            "hypot" => {
                need(2)?;
                let a = scalar_arg(self, &args[0])?;
                let b = scalar_arg(self, &args[1])?;
                let aa = self.map2(BinF::Mul, CV1::S(a), CV1::S(a))?;
                let bb = self.map2(BinF::Mul, CV1::S(b), CV1::S(b))?;
                let s = self.map2(BinF::Add, aa, bb)?;
                let r = self.map1(UF::R(UnFn::Sqrt), s)?;
                Ok(self.cval_of(r))
            }
            "atan2" => {
                need(2)?;
                let a = scalar_arg(self, &args[0])?;
                let b = scalar_arg(self, &args[1])?;
                let r = self.map2(BinF::ZeroAtan2, CV1::S(a), CV1::S(b))?;
                Ok(self.cval_of(r))
            }
            "if_else" => {
                need(3)?;
                if self.dep(&args[0]) != Dep::Invariant {
                    return Err(decline("parameter-dependent if_else condition"));
                }
                // The builtin evaluates every argument eagerly.
                let c = self
                    .keval(&args[0])?
                    .as_real()
                    .map_err(|e| decline(e.message().to_string()))?;
                let t = self.cexpr(&args[1])?;
                let f = self.cexpr(&args[2])?;
                Ok(if c != 0.0 { t } else { f })
            }
            "num_elements" | "size" | "rows" | "cols" => {
                need(1)?;
                let len = match self.cexpr(&args[0])? {
                    CVal::Known(v) => v.len(),
                    CVal::Scalar(_) => 1,
                    CVal::Vector(elems) => elems.len(),
                };
                Ok(CVal::Known(Value::Int(len as i64)))
            }
            "to_vector" | "to_array_1d" | "to_row_vector" => {
                need(1)?;
                match self.cexpr(&args[0])? {
                    CVal::Vector(elems) => Ok(CVal::Vector(elems)),
                    CVal::Scalar(r) => Ok(CVal::Vector(vec![Elem::R(r)])),
                    CVal::Known(v) => {
                        let flat = v
                            .as_real_vec()
                            .map_err(|e| decline(e.message().to_string()))?;
                        Ok(CVal::Known(Value::Vector(flat)))
                    }
                }
            }
            "rep_vector" | "rep_row_vector" => {
                need(2)?;
                let x = scalar_arg(self, &args[0])?;
                if self.dep(&args[1]) != Dep::Invariant {
                    return Err(decline("parameter-dependent replication count"));
                }
                let n = self.kint(&args[1])?.max(0) as usize;
                let e = match x {
                    A::Const(c) => Elem::K(c),
                    A::Reg(r) => Elem::R(r.base),
                    A::Table(_) => unreachable!(),
                };
                Ok(CVal::Vector(vec![e; n]))
            }
            other => Err(decline(format!(
                "builtin `{other}` has no density-program rule"
            ))),
        }
    }

    /// Unary element-wise builtin chains, mirroring `call_builtin`'s
    /// `map_unary` formulas operation for operation (so primal values match
    /// the interpreter exactly). Returns `None` for names outside the table.
    fn unary_map(&mut self, name: &str, v: CV1) -> Result<Option<CV1>, Decline> {
        let r = |f: UnFn| UF::R(f);
        let c = self;
        Ok(Some(match name {
            "log" => c.map1(r(UnFn::Ln), v)?,
            "log1p" => c.map1(r(UnFn::Ln1p), v)?,
            "log1m" => {
                let t = c.map2(BinF::Sub, CV1::S(A::Const(1.0)), v)?;
                c.map1(r(UnFn::Ln), t)?
            }
            "log1p_exp" => c.map1(r(UnFn::Softplus), v)?,
            "exp" => c.map1(r(UnFn::Exp), v)?,
            "expm1" => {
                let t = c.map1(r(UnFn::Exp), v)?;
                c.map2(BinF::Sub, t, CV1::S(A::Const(1.0)))?
            }
            "sqrt" => c.map1(r(UnFn::Sqrt), v)?,
            "square" => c.map2(BinF::Mul, v, v)?,
            "inv" => c.map2(BinF::Div, CV1::S(A::Const(1.0)), v)?,
            "inv_sqrt" => {
                let t = c.map1(r(UnFn::Sqrt), v)?;
                c.map2(BinF::Div, CV1::S(A::Const(1.0)), t)?
            }
            "inv_logit" => c.map1(r(UnFn::Sigmoid), v)?,
            "logit" => {
                let d = c.map2(BinF::Sub, CV1::S(A::Const(1.0)), v)?;
                let t = c.map2(BinF::Div, v, d)?;
                c.map1(r(UnFn::Ln), t)?
            }
            "fabs" | "abs" => c.map1(r(UnFn::Abs), v)?,
            "floor" => c.map1(UF::Floor, v)?,
            "ceil" => c.map1(UF::Ceil, v)?,
            "round" => c.map1(UF::Round, v)?,
            "step" => c.map1(UF::Step, v)?,
            "sin" => c.map1(r(UnFn::Sin), v)?,
            "cos" => c.map1(r(UnFn::Cos), v)?,
            "tan" => {
                let s = c.map1(r(UnFn::Sin), v)?;
                let co = c.map1(r(UnFn::Cos), v)?;
                c.map2(BinF::Div, s, co)?
            }
            "tanh" => c.map1(r(UnFn::Tanh), v)?,
            "atan" => c.map1(UF::Atan, v)?,
            "lgamma" => c.map1(r(UnFn::Lgamma), v)?,
            "tgamma" => {
                let t = c.map1(r(UnFn::Lgamma), v)?;
                c.map1(r(UnFn::Exp), t)?
            }
            "digamma" => c.map1(UF::Digamma, v)?,
            "erf" => c.map1(UF::Erf, v)?,
            "Phi" | "Phi_approx" | "std_normal_cdf" => c.map1(UF::NormCdf, v)?,
            _ => return Ok(None),
        }))
    }

    /// One element of a span-like operand as a scalar A (sequential folds).
    fn span_elem(&mut self, a: VA, i: u32) -> A {
        match a {
            VA::Span(s) => A::Reg(Reg::abs(s + i)),
            VA::Table(t) => A::Const(self.tables_f[t as usize][i as usize]),
            VA::RegS(r) => A::Reg(r),
            VA::ConstS(c) => A::Const(c),
        }
    }

    fn log_sum_exp_pair(&mut self, a: A, b: A) -> Result<CVal, Decline> {
        // vec![a, b] then the stabilized fold: m = max by value; then
        // m + ln(e^{a-m} + e^{b-m}), summed in element order.
        let m = self.map2(BinF::ZeroMaxVal, CV1::S(a), CV1::S(b))?;
        let da = self.map2(BinF::Sub, CV1::S(a), m)?;
        let ea = self.map1(UF::R(UnFn::Exp), da)?;
        let db = self.map2(BinF::Sub, CV1::S(b), m)?;
        let eb = self.map1(UF::R(UnFn::Exp), db)?;
        let s = self.map2(BinF::Add, ea, eb)?;
        let l = self.map1(UF::R(UnFn::Ln), s)?;
        let r = self.map2(BinF::Add, m, l)?;
        Ok(self.cval_of(r))
    }

    /// Resolves a score site's observed value and distribution arguments to
    /// op operands, mirroring `score_tilde`'s fused dispatch: scalar values
    /// score through the elem kernel, flat containers through the batched
    /// sweep kernel. Shapes the runtime path would reject decline (so the
    /// retained path owns the identical error).
    fn site_operands(&mut self, kind: DistKind, x: CVal, args: Vec<CVal>) -> Result<Site, Decline> {
        if kind.is_multivariate() || kind.has_vector_param() {
            return Err(decline(format!(
                "distribution `{}` has no elem kernel",
                kind.name()
            )));
        }
        if !supports_elem(kind) {
            return Err(decline(format!(
                "distribution `{}` has no elem kernel",
                kind.name()
            )));
        }
        let k = sweep_arity(kind);
        // improper_uniform tolerates missing bounds (they default to ±inf);
        // every other family requires its full arity.
        let improper = kind == DistKind::ImproperUniform;
        if !improper && args.len() < k {
            return Err(decline(format!("{}: missing arguments", kind.name())));
        }
        let scalar_of = |c: &mut Self, v: &CVal| -> Result<Option<A>, Decline> {
            Ok(match v {
                CVal::Known(Value::Real(x)) => Some(A::Const(*x)),
                CVal::Known(Value::Int(i)) => Some(A::Const(*i as f64)),
                CVal::Scalar(r) => Some(A::Reg(Reg::abs(*r))),
                _ => {
                    let _ = c;
                    None
                }
            })
        };
        let mut sargs = [A::Const(0.0); 3];
        if improper {
            // dist_from_kind maps a missing or non-scalar bound to ±inf.
            for (j, default) in [(0usize, f64::NEG_INFINITY), (1usize, f64::INFINITY)] {
                sargs[j] = match args.get(j) {
                    Some(CVal::Known(v)) => A::Const(v.as_real().unwrap_or(default)),
                    Some(CVal::Scalar(_)) | Some(CVal::Vector(_)) => {
                        return Err(decline("parameter-dependent improper_uniform bound"))
                    }
                    None => A::Const(default),
                };
            }
        }
        match x {
            CVal::Known(Value::Real(_)) | CVal::Known(Value::Int(_)) | CVal::Scalar(_) => {
                let x = scalar_of(self, &x)?.expect("scalar checked");
                if !improper {
                    for j in 0..k {
                        sargs[j] = scalar_of(self, &args[j])?.ok_or_else(|| {
                            decline(format!(
                                "{}: container argument where a scalar is required",
                                kind.name()
                            ))
                        })?;
                    }
                }
                Ok(Site::Elem {
                    x,
                    args: sargs,
                    k: k as u8,
                })
            }
            CVal::Known(ref v @ (Value::Vector(_) | Value::IntArray(_) | Value::Array(_))) => {
                let xs = match v {
                    Value::IntArray(ints) => VX::TableI(self.table_i(ints.clone())),
                    other => {
                        let flat = other
                            .as_real_vec()
                            .map_err(|e| decline(e.message().to_string()))?;
                        VX::TableF(self.table_f(flat))
                    }
                };
                let n = match xs {
                    VX::TableF(t) => self.tables_f[t as usize].len(),
                    VX::TableI(t) => self.tables_i[t as usize].len(),
                    VX::Span(_) => unreachable!(),
                };
                self.sweep_args(kind, xs, n, args, sargs, improper, k)
            }
            CVal::Vector(elems) => {
                let n = elems.len();
                let span = self.materialize(&elems, None);
                self.sweep_args(kind, VX::Span(span), n, args, sargs, improper, k)
            }
            CVal::Known(Value::Unit) => Err(decline("unit observed value")),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn sweep_args(
        &mut self,
        kind: DistKind,
        xs: VX,
        n: usize,
        args: Vec<CVal>,
        scalar_args: [A; 3],
        improper: bool,
        k: usize,
    ) -> Result<Site, Decline> {
        let mut out = [SA::Sc(A::Const(0.0)); 3];
        if improper {
            for j in 0..k {
                out[j] = SA::Sc(scalar_args[j]);
            }
            return Ok(Site::Sweep {
                xs,
                args: out,
                k: k as u8,
                len: n as u32,
            });
        }
        for j in 0..k {
            out[j] = match &args[j] {
                CVal::Known(Value::Real(x)) => SA::Sc(A::Const(*x)),
                CVal::Known(Value::Int(i)) => SA::Sc(A::Const(*i as f64)),
                CVal::Scalar(r) => SA::Sc(A::Reg(Reg::abs(*r))),
                CVal::Known(Value::IntArray(v)) if v.len() == n && n > 1 => {
                    SA::TableI(self.table_i(v.clone()))
                }
                CVal::Known(kv @ (Value::Vector(_) | Value::Array(_))) => {
                    let flat = kv
                        .as_real_vec()
                        .map_err(|e| decline(e.message().to_string()))?;
                    if flat.len() == n && n > 1 {
                        SA::TableF(self.table_f(flat))
                    } else {
                        return Err(decline(format!(
                            "{}: broadcast shape not batchable",
                            kind.name()
                        )));
                    }
                }
                CVal::Vector(elems) if elems.len() == n && n > 1 => {
                    SA::Span(self.materialize(elems, None))
                }
                _ => {
                    return Err(decline(format!(
                        "{}: broadcast shape not batchable",
                        kind.name()
                    )))
                }
            };
        }
        Ok(Site::Sweep {
            xs,
            args: out,
            k: k as u8,
            len: n as u32,
        })
    }

    /// Scores `value ~ dist(args)` at the top level.
    fn score_site(&mut self, dist: &RDistCall, value: CVal) -> Result<(), Decline> {
        let Some(kind) = dist.kind else {
            return Err(decline(format!("unknown distribution `{}`", dist.name)));
        };
        let args: Vec<CVal> = dist
            .args
            .iter()
            .map(|a| self.cexpr(a))
            .collect::<Result<_, _>>()?;
        match self.site_operands(kind, value, args)? {
            Site::Elem { x, args, k } => self.emit(Op::ScoreElem { kind, x, args, k }),
            Site::Sweep { xs, args, k, len } => {
                self.emit(Op::ScoreSweep {
                    kind,
                    xs,
                    args,
                    k,
                    len,
                });
            }
        }
        Ok(())
    }
}

/// Resolved operands of one score site.
enum Site {
    Elem {
        x: A,
        args: [A; 3],
        k: u8,
    },
    Sweep {
        xs: VX,
        args: [SA; 3],
        k: u8,
        len: u32,
    },
}

/// Syntactic scan of a symbolic loop body.
#[derive(Default)]
struct BodyScan {
    whole_writes: Vec<(u32, u32)>,
    indexed_writes: Vec<u32>,
    reads: Vec<u32>,
    /// Why the body cannot roll into one [`Op::Loop`]; such a loop expands
    /// at bind time instead (`Compiler::expand_loop`).
    no_roll: Option<&'static str>,
}

impl BodyScan {
    fn read_expr(&mut self, e: &RExpr) {
        for_each_slot(e, &mut |s| self.reads.push(s));
    }

    fn bump_write(&mut self, slot: u32) {
        match self.whole_writes.iter_mut().find(|(s, _)| *s == slot) {
            Some((_, n)) => *n += 1,
            None => self.whole_writes.push((slot, 1)),
        }
    }

    fn scan(&mut self, e: &RGExpr) {
        let mut cur = e;
        loop {
            match cur {
                RGExpr::Unit => return,
                RGExpr::LetDet { slot, value, body } => {
                    self.read_expr(value);
                    self.bump_write(*slot);
                    cur = body;
                }
                RGExpr::LetIndexed {
                    slot,
                    indices,
                    value,
                    body,
                } => {
                    for i in indices {
                        self.read_expr(i);
                    }
                    self.read_expr(value);
                    self.indexed_writes.push(*slot);
                    cur = body;
                }
                RGExpr::Observe { dist, value, body } => {
                    self.read_expr(value);
                    for a in &dist.args {
                        self.read_expr(a);
                    }
                    cur = body;
                }
                RGExpr::Factor { value, body } => {
                    self.read_expr(value);
                    cur = body;
                }
                RGExpr::Return(_) => {
                    // The `return(lhs(s))` state tuple that closes a
                    // compiled loop body: a whole-value read that compiles
                    // to no ops (lstmt verifies it is a plain bound-slot
                    // tuple), so it does not constrain element writes.
                    return;
                }
                RGExpr::LetDecl { .. } => {
                    self.no_roll = Some("a declaration");
                    return;
                }
                RGExpr::LetSample { .. } => {
                    self.no_roll = Some("a sample site");
                    return;
                }
                RGExpr::If { .. } => {
                    self.no_roll = Some("a conditional");
                    return;
                }
                RGExpr::LetLoop { .. } => {
                    self.no_roll = Some("a nested loop");
                    return;
                }
                RGExpr::ObserveSweep { .. } => {
                    self.no_roll = Some("a batched sweep");
                    return;
                }
            }
        }
    }
}

fn push_expr_slots(x: &RExpr, out: &mut Vec<u32>) {
    for_each_slot(x, &mut |s| out.push(s));
}

fn subtree_slots(e: &RGExpr, out: &mut Vec<u32>) {
    match e {
        RGExpr::Unit => {}
        RGExpr::Return(v) => push_expr_slots(v, out),
        RGExpr::LetDecl { decl, body } => {
            out.push(decl.slot);
            for d in &decl.dims {
                push_expr_slots(d, out);
            }
            if let Some(i) = &decl.init {
                push_expr_slots(i, out);
            }
            dims_of_decl(decl, &mut |x| push_expr_slots(x, out));
            subtree_slots(body, out);
        }
        RGExpr::LetDet { slot, value, body } => {
            out.push(*slot);
            push_expr_slots(value, out);
            subtree_slots(body, out);
        }
        RGExpr::LetIndexed {
            slot,
            indices,
            value,
            body,
        } => {
            out.push(*slot);
            for i in indices {
                push_expr_slots(i, out);
            }
            push_expr_slots(value, out);
            subtree_slots(body, out);
        }
        RGExpr::LetSample { slot, dist, body } => {
            out.push(*slot);
            for a in &dist.args {
                push_expr_slots(a, out);
            }
            for s in &dist.shape {
                push_expr_slots(s, out);
            }
            subtree_slots(body, out);
        }
        RGExpr::Observe { dist, value, body } => {
            push_expr_slots(value, out);
            for a in &dist.args {
                push_expr_slots(a, out);
            }
            subtree_slots(body, out);
        }
        RGExpr::Factor { value, body } => {
            push_expr_slots(value, out);
            subtree_slots(body, out);
        }
        RGExpr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            push_expr_slots(cond, out);
            subtree_slots(then_branch, out);
            subtree_slots(else_branch, out);
        }
        RGExpr::LetLoop {
            kind,
            loop_body,
            body,
        } => {
            match kind {
                RLoopKind::Range { slot, lo, hi } => {
                    out.push(*slot);
                    push_expr_slots(lo, out);
                    push_expr_slots(hi, out);
                }
                RLoopKind::ForEach { slot, collection } => {
                    out.push(*slot);
                    push_expr_slots(collection, out);
                }
                RLoopKind::While { cond } => push_expr_slots(cond, out),
            }
            subtree_slots(loop_body, out);
            subtree_slots(body, out);
        }
        RGExpr::ObserveSweep {
            sweep,
            fallback,
            body,
        } => {
            out.push(sweep.loop_slot);
            subtree_slots(fallback, out);
            subtree_slots(body, out);
        }
    }
}

fn dims_of_decl(decl: &RDecl, expr: &mut impl FnMut(&RExpr)) {
    match &decl.kind {
        crate::resolved::RDeclKind::Int | crate::resolved::RDeclKind::Real => {}
        crate::resolved::RDeclKind::Vector(n) | crate::resolved::RDeclKind::Square(n) => expr(n),
        crate::resolved::RDeclKind::Matrix(r, c) => {
            expr(r);
            expr(c);
        }
    }
}

fn subtree_has_effects(e: &RGExpr) -> bool {
    match e {
        RGExpr::Unit => false,
        RGExpr::Return(_) => true,
        RGExpr::LetDecl { body, .. }
        | RGExpr::LetDet { body, .. }
        | RGExpr::LetIndexed { body, .. } => subtree_has_effects(body),
        RGExpr::LetSample { .. } | RGExpr::Observe { .. } | RGExpr::Factor { .. } => true,
        RGExpr::If {
            then_branch,
            else_branch,
            ..
        } => subtree_has_effects(then_branch) || subtree_has_effects(else_branch),
        RGExpr::LetLoop {
            loop_body, body, ..
        } => subtree_has_effects(loop_body) || subtree_has_effects(body),
        RGExpr::ObserveSweep { .. } => true,
    }
}

impl<'a> Compiler<'a> {
    /// Compiles the resolved body (top level).
    fn cstmt(&mut self, e: &RGExpr) -> Result<(), Decline> {
        let mut cur = e;
        loop {
            match cur {
                RGExpr::Unit => return Ok(()),
                RGExpr::Return(v) => {
                    // The density path discards the return value, but the
                    // expression must still evaluate without error. The
                    // compiler-generated parameter tuple (an `ArrayLit` of
                    // bound slots) trivially cannot fail; anything else must
                    // compile (and is then discarded).
                    if !self.safe_discard(v) {
                        let _ = self.cexpr(v)?;
                    }
                    return Ok(());
                }
                RGExpr::LetDecl { decl, body } => {
                    self.do_decl(decl)?;
                    cur = body;
                }
                RGExpr::LetDet { slot, value, body } => {
                    let v = self.cexpr(value)?;
                    self.bind_cval(*slot, v);
                    cur = body;
                }
                RGExpr::LetIndexed {
                    slot,
                    indices,
                    value,
                    body,
                } => {
                    self.do_indexed(*slot, indices, value)?;
                    cur = body;
                }
                RGExpr::LetSample { slot, dist, body } => {
                    let Some(binding) = self.param_regs.get(slot).cloned() else {
                        return Err(decline(format!(
                            "sample site `{}` is not a parameter",
                            self.resolved.name_of(*slot)
                        )));
                    };
                    let v = match &binding {
                        SymVal::Scalar(r) => CVal::Scalar(*r),
                        SymVal::Vector(elems) => CVal::Vector(elems.clone()),
                    };
                    // The runtime evaluates the site's arguments *before*
                    // binding the traced value into the frame; mirror that
                    // order so self-referential arguments see the pre-site
                    // state (or its unbound-variable error, via decline).
                    let args: Vec<CVal> = dist
                        .args
                        .iter()
                        .map(|a| self.cexpr(a))
                        .collect::<Result<_, _>>()?;
                    self.bind_sym(*slot, binding);
                    let Some(kind) = dist.kind else {
                        return Err(decline(format!("unknown distribution `{}`", dist.name)));
                    };
                    match self.site_operands(kind, v, args)? {
                        Site::Elem { x, args, k } => self.emit(Op::ScoreElem { kind, x, args, k }),
                        Site::Sweep { xs, args, k, len } => self.emit(Op::ScoreSweep {
                            kind,
                            xs,
                            args,
                            k,
                            len,
                        }),
                    }
                    cur = body;
                }
                RGExpr::Observe { dist, value, body } => {
                    let v = self.cexpr(value)?;
                    self.score_site(dist, v)?;
                    cur = body;
                }
                RGExpr::Factor { value, body } => {
                    self.do_factor(value)?;
                    cur = body;
                }
                RGExpr::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    if self.dep(cond) != Dep::Invariant {
                        return Err(decline("parameter-dependent branch"));
                    }
                    let c = self
                        .keval(cond)?
                        .as_real()
                        .map_err(|e| decline(e.message().to_string()))?;
                    // The compiler pushed the continuation into both
                    // branches, so the chosen branch is the whole rest.
                    cur = if c != 0.0 { then_branch } else { else_branch };
                }
                RGExpr::LetLoop {
                    kind,
                    loop_body,
                    body,
                } => {
                    self.do_loop(kind, loop_body)?;
                    cur = body;
                }
                RGExpr::ObserveSweep {
                    sweep,
                    fallback,
                    body,
                } => {
                    if self.try_sweep_compile(sweep)?.is_some() {
                        // Shapes the runtime fallback would handle: compile
                        // the retained scalar loop instead.
                        self.cstmt(fallback)?;
                    }
                    cur = body;
                }
            }
        }
    }

    fn do_decl(&mut self, decl: &RDecl) -> Result<(), Decline> {
        match &decl.init {
            Some(e) => {
                let v = self.cexpr(e)?;
                self.bind_cval(decl.slot, v);
            }
            None => {
                let ctx = RCtx::new(self.resolved, self.functions, &NO_EXT);
                let v = default_rvalue(decl, &self.known, &ctx).map_err(|e| {
                    decline(format!(
                        "declaration default failed at compile time: {}",
                        e.message()
                    ))
                })?;
                self.bind_known(decl.slot, v);
            }
        }
        Ok(())
    }

    fn do_indexed(&mut self, slot: u32, indices: &[RExpr], value: &RExpr) -> Result<(), Decline> {
        for i in indices {
            if self.dep(i) != Dep::Invariant {
                return Err(decline("parameter-dependent index in assignment"));
            }
        }
        let idx: Vec<i64> = indices
            .iter()
            .map(|i| self.kint(i))
            .collect::<Result<_, _>>()?;
        let v = self.cexpr(value)?;
        let target_known = self.known.get(slot).is_some();
        match (target_known, v) {
            (true, CVal::Known(v)) => {
                let target = self
                    .known
                    .get_mut(slot)
                    .expect("known binding checked above");
                crate::eval::set_nested(target, &idx, v)
                    .map_err(|e| decline(e.message().to_string()))?;
                self.span_cache.remove(&slot);
                Ok(())
            }
            (_, v) => {
                // A symbolic write (or a write into a symbolic container):
                // flat single-index vectors only.
                let [i] = idx.as_slice() else {
                    return Err(decline("multi-dimensional symbolic indexed assignment"));
                };
                let elem = match v {
                    CVal::Known(kv) => {
                        Elem::K(kv.as_real().map_err(|e| decline(e.message().to_string()))?)
                    }
                    CVal::Scalar(r) => Elem::R(r),
                    CVal::Vector(_) => {
                        return Err(decline("container value in indexed assignment"))
                    }
                };
                let mut elems = self.promote_vector(slot)?;
                if *i < 1 || *i as usize > elems.len() {
                    return Err(decline(format!(
                        "index {i} out of bounds for length {}",
                        elems.len()
                    )));
                }
                elems[(*i - 1) as usize] = elem;
                self.bind_sym(slot, SymVal::Vector(elems));
                Ok(())
            }
        }
    }

    /// Whether discarding this expression's value is trivially error-free:
    /// literals, reads of bound slots, and array literals of those (the
    /// shape of every compiler-generated `return` tuple). Such expressions
    /// need no ops at all on the density path.
    fn safe_discard(&self, e: &RExpr) -> bool {
        match e {
            RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) => true,
            RExpr::Slot(s) => {
                if let Some(lc) = &self.lc {
                    if lc.binds.contains_key(s) {
                        return true;
                    }
                }
                self.sym.contains_key(s) || self.known.get(*s).is_some()
            }
            RExpr::ArrayLit(items) => items.iter().all(|i| self.safe_discard(i)),
            _ => false,
        }
    }

    /// The slot's value as a flat element vector (promoting known flat
    /// containers, mirroring `Value::set_index`'s int-array promotion).
    fn promote_vector(&mut self, slot: u32) -> Result<Vec<Elem>, Decline> {
        if let Some(sv) = self.sym.get(&slot) {
            return match sv {
                SymVal::Vector(elems) => Ok(elems.clone()),
                SymVal::Scalar(_) => Err(decline("cannot assign into a scalar")),
            };
        }
        match self.known.get(slot) {
            Some(Value::Vector(v)) => Ok(v.iter().map(|&x| Elem::K(x)).collect()),
            Some(Value::IntArray(v)) => Ok(v.iter().map(|&k| Elem::K(k as f64)).collect()),
            Some(other) => Err(decline(format!(
                "symbolic assignment into a {}",
                other.kind()
            ))),
            None => Err(decline("assignment into an unbound container")),
        }
    }

    fn do_factor(&mut self, value: &RExpr) -> Result<(), Decline> {
        match self.cexpr(value)? {
            CVal::Known(v) => {
                let s = v
                    .sum_as_real()
                    .map_err(|e| decline(e.message().to_string()))?;
                self.emit(Op::AddScore { a: A::Const(s) });
            }
            CVal::Scalar(r) => self.emit(Op::AddScore {
                a: A::Reg(Reg::abs(r)),
            }),
            CVal::Vector(elems) => {
                let len = elems.len() as u32;
                let span = self.materialize(&elems, None);
                self.emit(Op::AddScoreSpan {
                    a: VA::Span(span),
                    len,
                });
            }
        }
        Ok(())
    }

    /// Compiles a loop: fully data-determined score-free subtrees fold by
    /// compile-time execution; counted loops with symbolic work compile to a
    /// [`Op::Loop`] when their body rolls, and expand at bind time when it
    /// does not; everything else declines.
    fn do_loop(&mut self, kind: &RLoopKind, loop_body: &RGExpr) -> Result<(), Decline> {
        // Fold: no symbolic slots anywhere in the subtree and no
        // probabilistic statements — execute the loop now against the known
        // frame with the shared interpreter.
        let node = RGExpr::LetLoop {
            kind: kind.clone(),
            loop_body: Box::new(loop_body.clone()),
            body: Box::new(RGExpr::Unit),
        };
        let mut touched = Vec::new();
        subtree_slots(&node, &mut touched);
        let any_sym = touched.iter().any(|s| self.sym.contains_key(s));
        if !any_sym && !subtree_has_effects(&node) {
            let ctx = RCtx::new(self.resolved, self.functions, &NO_EXT);
            let empty = Frame::new(0);
            let mut interp = RInterp::new(&ctx, RMode::Trace(&empty));
            return match interp.run(&node, &mut self.known) {
                Ok(_) => {
                    for s in touched {
                        self.span_cache.remove(&s);
                    }
                    Ok(())
                }
                Err(e) => Err(decline(format!(
                    "compile-time loop execution failed: {}",
                    e.message()
                ))),
            };
        }
        let RLoopKind::Range { slot, lo, hi } = kind else {
            return Err(decline(
                "only counted loops compile; foreach/while with symbolic work decline",
            ));
        };
        if self.lc.is_some() {
            return Err(decline("nested loop inside a compiled loop"));
        }
        if self.dep(lo) != Dep::Invariant || self.dep(hi) != Dep::Invariant {
            return Err(decline("parameter-dependent loop bounds"));
        }
        let lo = self.kint(lo)?;
        let hi = self.kint(hi)?;
        if hi < lo {
            self.unbind(*slot);
            return Ok(());
        }
        let trip = u64::try_from(i128::from(hi) - i128::from(lo) + 1).unwrap_or(u64::MAX);
        let mut scan = BodyScan::default();
        scan.scan(loop_body);
        if let Some(why) = scan.no_roll {
            self.charge_expansion(trip, &format!("whose body holds {why}"))?;
            return self.expand_loop(*slot, lo, trip, loop_body);
        }
        if self.expand_depth > 0 {
            self.charge_expansion(trip, "rolled inside an expanded loop")?;
        }
        let trip = u32::try_from(trip).map_err(|_| {
            decline(format!(
                "loop of {trip} iterations overflows the register file"
            ))
        })?;
        self.do_sym_loop(*slot, lo, trip, loop_body, scan)
    }

    /// Charges `trip` iterations to the expansion budget before lowering
    /// them ([`MAX_EXPAND_TRIPS`]).
    fn charge_expansion(&mut self, trip: u64, what: &str) -> Result<(), Decline> {
        self.expanded_trips = self.expanded_trips.saturating_add(trip);
        if self.expanded_trips > MAX_EXPAND_TRIPS {
            return Err(decline(format!(
                "loop expansion past {MAX_EXPAND_TRIPS} iterations \
                 (a loop of {trip} iterations {what})"
            )));
        }
        Ok(())
    }

    /// Lowers a counted loop whose body cannot roll into one [`Op::Loop`] by
    /// expanding it at bind time: each iteration binds the counter as a
    /// known int and lowers the body as straight-line code, as the
    /// interpreter runs it. Whatever the straight-line lowering declines
    /// (a parameter-dependent branch, a user function) still declines, and
    /// so does an expansion past [`MAX_EXPAND_OPS`] or [`MAX_EXPAND_WORDS`].
    /// A decline abandons the whole compile, so no state is restored on
    /// that path.
    fn expand_loop(
        &mut self,
        counter: u32,
        lo: i64,
        trip: u64,
        loop_body: &RGExpr,
    ) -> Result<(), Decline> {
        self.expand_depth += 1;
        for it in 0..trip {
            self.bind_known(counter, Value::Int(lo + it as i64));
            self.cstmt(loop_body)?;
            if self.outer_ops.len() > MAX_EXPAND_OPS {
                return Err(decline(format!("loop expansion past {MAX_EXPAND_OPS} ops")));
            }
            if self.next_reg as usize + self.table_words > MAX_EXPAND_WORDS {
                return Err(decline(format!(
                    "loop expansion past {MAX_EXPAND_WORDS} register and table words"
                )));
            }
        }
        self.expand_depth -= 1;
        self.unbind(counter);
        Ok(())
    }

    /// The register chain of a loop-carried scalar written `nwrites` times
    /// per iteration: its entry value, then one register per write.
    fn alloc_chain(&mut self, nwrites: u32, trip: u32) -> Result<u32, Decline> {
        let n = u64::from(nwrites) * u64::from(trip) + 1;
        self.charge_loop_words(n)?;
        // In range: the charge above bounds `n` by MAX_LOOP_WORDS.
        Ok(self.alloc(n as u32))
    }

    fn do_sym_loop(
        &mut self,
        counter: u32,
        lo: i64,
        trip: u32,
        loop_body: &RGExpr,
        scan: BodyScan,
    ) -> Result<(), Decline> {
        if scan.indexed_writes.iter().any(|s| scan.reads.contains(s)) {
            return Err(decline(
                "loop both reads and element-writes the same container",
            ));
        }
        let mut binds: HashMap<u32, LBind> = HashMap::new();
        let mut chains: HashMap<u32, Chain> = HashMap::new();
        binds.insert(counter, LBind::Counter);
        for &(w, nwrites) in &scan.whole_writes {
            match self.sym.get(&w).cloned() {
                Some(SymVal::Scalar(r)) => {
                    let start = self.alloc_chain(nwrites, trip)?;
                    self.emit_outer(Op::Mov {
                        dst: Reg::abs(start),
                        a: A::Reg(Reg::abs(r)),
                    });
                    chains.insert(
                        w,
                        Chain {
                            start,
                            w: nwrites,
                            k: 0,
                        },
                    );
                    binds.insert(
                        w,
                        LBind::Reg(Reg {
                            base: start,
                            stride: nwrites,
                        }),
                    );
                    self.bind_sym(w, SymVal::Scalar(start)); // placeholder; fixed after the loop
                }
                Some(SymVal::Vector(_)) => {
                    return Err(decline("container rebound inside a compiled loop"));
                }
                None => match self.known.get(w).cloned() {
                    Some(v @ (Value::Real(_) | Value::Int(_))) => {
                        let init = v.as_real().map_err(|e| decline(e.message().to_string()))?;
                        let start = self.alloc_chain(nwrites, trip)?;
                        self.const_init.push((start, init));
                        chains.insert(
                            w,
                            Chain {
                                start,
                                w: nwrites,
                                k: 0,
                            },
                        );
                        binds.insert(
                            w,
                            LBind::Reg(Reg {
                                base: start,
                                stride: nwrites,
                            }),
                        );
                        self.bind_sym(w, SymVal::Scalar(start));
                    }
                    Some(_) => {
                        return Err(decline("container rebound inside a compiled loop"));
                    }
                    // Fresh loop-local: first write binds it.
                    None => {}
                },
            }
        }
        self.lc = Some(Lc {
            counter,
            lo,
            trip,
            ops: Vec::new(),
            binds,
            chains,
            elem_writes: Vec::new(),
            vec_writes: scan.indexed_writes,
        });
        let result = self.lstmt(loop_body);
        let lc = self.lc.take().expect("loop context present");
        result?;
        self.emit_outer(Op::Loop { trip, body: lc.ops });
        // Post-loop bindings.
        for (w, chain) in &lc.chains {
            self.bind_sym(*w, SymVal::Scalar(chain.start + chain.w * trip));
        }
        for (w, bind) in &lc.binds {
            if *w == counter || lc.chains.contains_key(w) {
                continue;
            }
            match bind {
                LBind::Reg(r) => {
                    self.bind_sym(*w, SymVal::Scalar(r.base + r.stride * (trip - 1)));
                }
                LBind::IterKnown(vals) => {
                    self.bind_known(*w, vals[trip as usize - 1].clone());
                }
                LBind::Counter => {}
            }
        }
        // Apply indexed writes iteration-major (last write per cell wins).
        if !lc.elem_writes.is_empty() {
            let mut vectors: HashMap<u32, Vec<Elem>> = HashMap::new();
            for ew in &lc.elem_writes {
                if let std::collections::hash_map::Entry::Vacant(e) = vectors.entry(ew.slot) {
                    e.insert(self.promote_vector(ew.slot)?);
                }
            }
            for it in 0..trip as usize {
                for ew in &lc.elem_writes {
                    let elems = vectors.get_mut(&ew.slot).expect("promoted above");
                    elems[ew.idx0 + it] = Elem::R(ew.base + it as u32);
                }
            }
            for (slot, elems) in vectors {
                self.bind_sym(slot, SymVal::Vector(elems));
            }
        }
        self.unbind(counter);
        Ok(())
    }

    /// Compiles one loop-body statement chain.
    fn lstmt(&mut self, e: &RGExpr) -> Result<(), Decline> {
        let mut cur = e;
        loop {
            match cur {
                RGExpr::Unit => return Ok(()),
                RGExpr::LetDet { slot, value, body } => {
                    self.l_letdet(*slot, value)?;
                    cur = body;
                }
                RGExpr::LetIndexed {
                    slot,
                    indices,
                    value,
                    body,
                } => {
                    self.l_letindexed(*slot, indices, value)?;
                    cur = body;
                }
                RGExpr::Observe { dist, value, body } => {
                    self.l_observe(dist, value)?;
                    cur = body;
                }
                RGExpr::Factor { value, body } => {
                    self.l_factor(value)?;
                    cur = body;
                }
                RGExpr::Return(v) => {
                    // The state tuple closing the body: must be error-free
                    // per iteration (its value is discarded).
                    if !self.safe_discard(v) {
                        return Err(decline("loop-body return is not a plain state tuple"));
                    }
                    return Ok(());
                }
                other => {
                    // The pre-scan sent every other form to expansion.
                    return Err(decline(format!(
                        "unsupported statement inside a compiled loop: {other:?}"
                    )));
                }
            }
        }
    }

    /// Evaluates a data-and-counter-determined expression for every
    /// iteration at compile time.
    fn eval_per_iter(&mut self, e: &RExpr) -> Result<Vec<Value<f64>>, Decline> {
        let (counter, lo, trip, iter_known) = {
            let lc = self.lc.as_ref().expect("loop context");
            let ik: Vec<(u32, std::rc::Rc<Vec<Value<f64>>>)> = lc
                .binds
                .iter()
                .filter_map(|(s, b)| match b {
                    LBind::IterKnown(v) => Some((*s, v.clone())),
                    _ => None,
                })
                .collect();
            (lc.counter, lc.lo, lc.trip, ik)
        };
        self.charge_loop_words(u64::from(trip))?;
        let mut out = Vec::with_capacity(trip as usize);
        let mut failure = None;
        for it in 0..trip {
            self.known.set(counter, Value::Int(lo + it as i64));
            for (s, vals) in &iter_known {
                self.known.set(*s, vals[it as usize].clone());
            }
            match self.keval(e) {
                Ok(v) => out.push(v),
                Err(d) => {
                    failure = Some(d);
                    break;
                }
            }
        }
        self.known.clear(counter);
        for (s, _) in &iter_known {
            self.known.clear(*s);
        }
        match failure {
            Some(d) => Err(d),
            None => Ok(out),
        }
    }

    /// A per-iteration scalar table from compile-time values.
    fn iter_table(&mut self, vals: &[Value<f64>]) -> Result<u32, Decline> {
        let mut flat = Vec::with_capacity(vals.len());
        for v in vals {
            flat.push(v.as_real().map_err(|e| decline(e.message().to_string()))?);
        }
        Ok(self.table_f(flat))
    }

    /// Compiles a scalar expression inside a loop body to an operand.
    fn cexpr_loop(&mut self, e: &RExpr) -> Result<A, Decline> {
        match self.dep(e) {
            Dep::Invariant => {
                let saved = self.lc.take();
                let r = self.cexpr(e);
                self.lc = saved;
                match r? {
                    CVal::Known(v) => Ok(A::Const(
                        v.as_real().map_err(|e| decline(e.message().to_string()))?,
                    )),
                    CVal::Scalar(r) => Ok(A::Reg(Reg::abs(r))),
                    CVal::Vector(_) => Err(decline("container value inside a compiled loop")),
                }
            }
            Dep::CounterKnown => {
                let vals = self.eval_per_iter(e)?;
                let t = self.iter_table(&vals)?;
                Ok(A::Table(t))
            }
            Dep::Symbolic => self.cexpr_loop_sym(e),
        }
    }

    fn cexpr_loop_sym(&mut self, e: &RExpr) -> Result<A, Decline> {
        match e {
            RExpr::Slot(s) => {
                let lb = self
                    .lc
                    .as_ref()
                    .expect("loop context")
                    .binds
                    .get(s)
                    .cloned();
                match lb {
                    Some(LBind::Reg(r)) => Ok(A::Reg(r)),
                    Some(_) => unreachable!("counter/iter-known reads classify CounterKnown"),
                    None => match self.sym.get(s) {
                        Some(SymVal::Scalar(r)) => Ok(A::Reg(Reg::abs(*r))),
                        Some(SymVal::Vector(_)) => {
                            Err(decline("container value inside a compiled loop"))
                        }
                        None => Err(decline("symbolic slot lost its binding")),
                    },
                }
            }
            RExpr::Unary(op, a) => match op {
                UnOp::Plus => self.cexpr_loop(a),
                UnOp::Neg => {
                    let a = self.cexpr_loop(a)?;
                    let r = self.map1(UF::R(UnFn::Neg), CV1::S(a))?;
                    let CV1::S(a) = r else { unreachable!() };
                    Ok(a)
                }
                UnOp::Not => Err(decline("logical not of a parameter-dependent value")),
            },
            RExpr::Binary(op, a, b) => {
                use BinOp::*;
                if matches!(op, Eq | Neq | Lt | Leq | Gt | Geq | And | Or) {
                    return Err(decline(
                        "comparison or logical operator on parameter-dependent values",
                    ));
                }
                if matches!(op, Pow) {
                    if self.dep(b) != Dep::Invariant {
                        return Err(decline("parameter-dependent exponent"));
                    }
                    let p = self
                        .keval(b)?
                        .as_real()
                        .map_err(|e| decline(e.message().to_string()))?;
                    let a = self.cexpr_loop(a)?;
                    let f = if p.fract() == 0.0 && p.abs() < 1e6 {
                        UF::R(UnFn::Powi(p as i32))
                    } else {
                        UF::R(UnFn::Powf(p))
                    };
                    let CV1::S(r) = self.map1(f, CV1::S(a))? else {
                        unreachable!()
                    };
                    return Ok(r);
                }
                let f = match op {
                    Add => BinF::Add,
                    Sub => BinF::Sub,
                    Mul | EltMul => BinF::Mul,
                    Div | EltDiv => BinF::Div,
                    Mod => BinF::ZeroMod,
                    _ => unreachable!(),
                };
                let a = self.cexpr_loop(a)?;
                let b = self.cexpr_loop(b)?;
                let CV1::S(r) = self.map2(f, CV1::S(a), CV1::S(b))? else {
                    unreachable!()
                };
                Ok(r)
            }
            RExpr::Index(base, indices) => self.l_index(base, indices),
            RExpr::Call(name, target, args) => {
                if matches!(target, crate::resolved::CallTarget::User(_)) {
                    return Err(decline(format!("user-defined function call `{name}`")));
                }
                self.l_builtin(name, args)
            }
            RExpr::Ternary(c, ..) => {
                if self.dep(c) == Dep::Invariant {
                    // Condition constant: pick the branch.
                    let cond = self
                        .keval(c)?
                        .as_real()
                        .map_err(|e| decline(e.message().to_string()))?;
                    let RExpr::Ternary(_, a, b) = e else {
                        unreachable!()
                    };
                    if cond != 0.0 {
                        self.cexpr_loop(a)
                    } else {
                        self.cexpr_loop(b)
                    }
                } else {
                    Err(decline("loop-varying ternary condition"))
                }
            }
            RExpr::ArrayLit(_) | RExpr::VectorLit(_) | RExpr::Range(..) => {
                Err(decline("container value inside a compiled loop"))
            }
            RExpr::IntLit(_) | RExpr::RealLit(_) | RExpr::StringLit(_) => {
                unreachable!("literals classify invariant")
            }
        }
    }

    /// A symbolic element read `vec[counter + c]` (or known-index element)
    /// inside a loop body.
    fn l_index(&mut self, base: &RExpr, indices: &[RIndex]) -> Result<A, Decline> {
        let RExpr::Slot(s) = base else {
            return Err(decline("unsupported indexing in a compiled loop"));
        };
        let [RIndex::One(idx)] = indices else {
            return Err(decline("unsupported indexing in a compiled loop"));
        };
        let Some(SymVal::Vector(elems)) = self.sym.get(s).cloned() else {
            return Err(decline("unsupported indexing in a compiled loop"));
        };
        let (counter, lo, trip) = {
            let lc = self.lc.as_ref().expect("loop context");
            if lc.vec_writes.contains(s) {
                return Err(decline(
                    "loop both reads and element-writes the same container",
                ));
            }
            (lc.counter, lc.lo, lc.trip)
        };
        if let Some(off) = affine_offset(idx, counter) {
            let first = lo + off - 1; // 0-based element index at iter 0
            if first < 0 || (first + trip as i64) > elems.len() as i64 {
                return Err(decline(format!(
                    "loop window {}..{} out of bounds for length {}",
                    first + 1,
                    first + trip as i64,
                    elems.len()
                )));
            }
            let span = self.materialize(&elems, Some(*s));
            return Ok(A::Reg(Reg {
                base: span + first as u32,
                stride: 1,
            }));
        }
        if self.dep(idx) == Dep::Invariant {
            let i = self.kint(idx)?;
            if i < 1 || i as usize > elems.len() {
                return Err(decline(format!(
                    "index {i} out of bounds for length {}",
                    elems.len()
                )));
            }
            return Ok(match elems[(i - 1) as usize] {
                Elem::K(v) => A::Const(v),
                Elem::R(r) => A::Reg(Reg::abs(r)),
            });
        }
        Err(decline("unsupported indexing in a compiled loop"))
    }

    /// Scalar builtin calls inside a loop body.
    fn l_builtin(&mut self, name: &str, args: &[RExpr]) -> Result<A, Decline> {
        if let Some(dist_name) = crate::eval::strip_lpdf_suffix(name) {
            let Some(kind) = DistKind::from_name(dist_name) else {
                return Err(decline(format!("unknown distribution `{dist_name}`")));
            };
            if args.is_empty() {
                return Err(decline(format!("{name}: missing observed value")));
            }
            let x = self.cexpr_loop(&args[0])?;
            let (sargs, k) = self.l_site_args(kind, &args[1..])?;
            let dst = self.fresh_dst()?;
            self.emit(Op::ScoreVal {
                kind,
                dst,
                x,
                args: sargs,
                k,
            });
            return Ok(A::Reg(dst));
        }
        if name.ends_with("_lcdf") || name.ends_with("_lccdf") || name.ends_with("_cdf") {
            return Err(decline(format!("cumulative distribution `{name}`")));
        }
        if name.ends_with("_rng") {
            return Err(decline(format!("rng builtin `{name}` in the density body")));
        }
        // Unary chains over scalar operands reuse the shared table.
        if args.len() == 1 {
            let a = self.cexpr_loop(&args[0])?;
            if let Some(r) = self.unary_map(name, CV1::S(a))? {
                let CV1::S(a) = r else { unreachable!() };
                return Ok(a);
            }
            // Not in the unary table: fall through to the n-ary matches.
        }
        let sarg = |c: &mut Self, i: usize| -> Result<A, Decline> {
            args.get(i)
                .ok_or_else(|| decline(format!("{name}: missing argument {i}")))
                .and_then(|e| c.cexpr_loop(e))
        };
        let s = |a: A| CV1::S(a);
        let unwrap = |v: CV1| -> A {
            let CV1::S(a) = v else { unreachable!() };
            a
        };
        match name {
            "pow" => {
                if self.dep(&args[1]) != Dep::Invariant {
                    return Err(decline("parameter-dependent exponent"));
                }
                let p = self
                    .keval(&args[1])?
                    .as_real()
                    .map_err(|e| decline(e.message().to_string()))?;
                let x = sarg(self, 0)?;
                let f = if p.fract() == 0.0 && p.abs() < 1e6 {
                    UF::R(UnFn::Powi(p as i32))
                } else {
                    UF::R(UnFn::Powf(p))
                };
                Ok(unwrap(self.map1(f, s(x))?))
            }
            "fmax" | "max" => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                Ok(unwrap(self.map2(BinF::Max, s(a), s(b))?))
            }
            "fmin" | "min" => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                Ok(unwrap(self.map2(BinF::Min, s(a), s(b))?))
            }
            "fma" => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                let c0 = sarg(self, 2)?;
                let t = self.map2(BinF::Mul, s(a), s(b))?;
                Ok(unwrap(self.map2(BinF::Add, t, s(c0))?))
            }
            "hypot" => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                let aa = self.map2(BinF::Mul, s(a), s(a))?;
                let bb = self.map2(BinF::Mul, s(b), s(b))?;
                let sum = self.map2(BinF::Add, aa, bb)?;
                Ok(unwrap(self.map1(UF::R(UnFn::Sqrt), sum)?))
            }
            "atan2" => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                Ok(unwrap(self.map2(BinF::ZeroAtan2, s(a), s(b))?))
            }
            "log_sum_exp" if args.len() == 2 => {
                let a = sarg(self, 0)?;
                let b = sarg(self, 1)?;
                match self.log_sum_exp_pair(a, b)? {
                    CVal::Scalar(r) => Ok(A::Reg(Reg::abs(r))),
                    _ => unreachable!(),
                }
            }
            "log_mix" => {
                let theta = sarg(self, 0)?;
                let a = sarg(self, 1)?;
                let b = sarg(self, 2)?;
                let m = self.map2(BinF::ZeroMaxVal, s(a), s(b))?;
                let da = self.map2(BinF::Sub, s(a), m)?;
                let ea = self.map1(UF::R(UnFn::Exp), da)?;
                let t1 = self.map2(BinF::Mul, s(theta), ea)?;
                let onem = self.map2(BinF::Sub, s(A::Const(1.0)), s(theta))?;
                let db = self.map2(BinF::Sub, s(b), m)?;
                let eb = self.map1(UF::R(UnFn::Exp), db)?;
                let t2 = self.map2(BinF::Mul, onem, eb)?;
                let sum = self.map2(BinF::Add, t1, t2)?;
                let l = self.map1(UF::R(UnFn::Ln), sum)?;
                Ok(unwrap(self.map2(BinF::Add, m, l)?))
            }
            other => Err(decline(format!(
                "builtin `{other}` has no in-loop density-program rule"
            ))),
        }
    }

    /// Distribution arguments of an in-loop score site.
    fn l_site_args(&mut self, kind: DistKind, args: &[RExpr]) -> Result<([A; 3], u8), Decline> {
        if kind.is_multivariate() || kind.has_vector_param() || !supports_elem(kind) {
            return Err(decline(format!(
                "distribution `{}` has no elem kernel",
                kind.name()
            )));
        }
        let k = sweep_arity(kind);
        let mut out = [A::Const(0.0); 3];
        if kind == DistKind::ImproperUniform {
            for (j, default) in [(0usize, f64::NEG_INFINITY), (1usize, f64::INFINITY)] {
                out[j] = match args.get(j) {
                    None => A::Const(default),
                    Some(e) => {
                        if self.dep(e) == Dep::Invariant {
                            A::Const(self.keval(e)?.as_real().unwrap_or(default))
                        } else {
                            return Err(decline("parameter-dependent improper_uniform bound"));
                        }
                    }
                };
            }
            return Ok((out, k as u8));
        }
        if args.len() < k {
            return Err(decline(format!("{}: missing arguments", kind.name())));
        }
        for (j, item) in out.iter_mut().enumerate().take(k) {
            *item = self.cexpr_loop(&args[j])?;
        }
        Ok((out, k as u8))
    }

    fn l_observe(&mut self, dist: &RDistCall, value: &RExpr) -> Result<(), Decline> {
        let Some(kind) = dist.kind else {
            return Err(decline(format!("unknown distribution `{}`", dist.name)));
        };
        let x = self.cexpr_loop(value)?;
        let (args, k) = self.l_site_args(kind, &dist.args)?;
        self.emit(Op::ScoreElem { kind, x, args, k });
        Ok(())
    }

    fn l_factor(&mut self, value: &RExpr) -> Result<(), Decline> {
        match self.dep(value) {
            Dep::Invariant | Dep::CounterKnown => {
                let vals = self.eval_per_iter(value)?;
                let mut flat = Vec::with_capacity(vals.len());
                for v in vals {
                    flat.push(
                        v.sum_as_real()
                            .map_err(|e| decline(e.message().to_string()))?,
                    );
                }
                let t = self.table_f(flat);
                self.emit(Op::AddScore { a: A::Table(t) });
            }
            Dep::Symbolic => {
                let a = self.cexpr_loop(value)?;
                self.emit(Op::AddScore { a });
            }
        }
        Ok(())
    }

    fn l_letdet(&mut self, slot: u32, value: &RExpr) -> Result<(), Decline> {
        let dep = self.dep(value);
        let chained = self
            .lc
            .as_ref()
            .expect("loop context")
            .chains
            .contains_key(&slot);
        if chained {
            let a = match dep {
                Dep::Invariant | Dep::CounterKnown => {
                    let vals = self.eval_per_iter(value)?;
                    let t = self.iter_table(&vals)?;
                    A::Table(t)
                }
                Dep::Symbolic => self.cexpr_loop(value)?,
            };
            let lc = self.lc.as_mut().expect("loop context");
            let chain = lc.chains.get_mut(&slot).expect("chained");
            chain.k += 1;
            let dst = Reg {
                base: chain.start + chain.k,
                stride: chain.w,
            };
            lc.binds.insert(slot, LBind::Reg(dst));
            self.emit(Op::Mov { dst, a });
            return Ok(());
        }
        match dep {
            Dep::Invariant | Dep::CounterKnown => {
                let vals = self.eval_per_iter(value)?;
                self.lc
                    .as_mut()
                    .expect("loop context")
                    .binds
                    .insert(slot, LBind::IterKnown(std::rc::Rc::new(vals)));
            }
            Dep::Symbolic => {
                let a = self.cexpr_loop(value)?;
                let r = match a {
                    A::Reg(r) => r,
                    // A constant/table value written to a fresh local still
                    // needs a register so later reads are uniform.
                    other => {
                        let dst = self.fresh_dst()?;
                        self.emit(Op::Mov { dst, a: other });
                        dst
                    }
                };
                self.lc
                    .as_mut()
                    .expect("loop context")
                    .binds
                    .insert(slot, LBind::Reg(r));
            }
        }
        Ok(())
    }

    fn l_letindexed(&mut self, slot: u32, indices: &[RExpr], value: &RExpr) -> Result<(), Decline> {
        let [index] = indices else {
            return Err(decline(
                "multi-dimensional indexed write in a compiled loop",
            ));
        };
        let (counter, lo, trip) = {
            let lc = self.lc.as_ref().expect("loop context");
            (lc.counter, lc.lo, lc.trip)
        };
        let Some(off) = affine_offset(index, counter) else {
            return Err(decline(
                "indexed write without a unit-stride affine index in a compiled loop",
            ));
        };
        // Validate the target window against the container's length now.
        let len = match (self.sym.get(&slot), self.known.get(slot)) {
            (Some(SymVal::Vector(elems)), _) => elems.len(),
            (Some(SymVal::Scalar(_)), _) => return Err(decline("cannot assign into a scalar")),
            (None, Some(Value::Vector(v))) => v.len(),
            (None, Some(Value::IntArray(v))) => v.len(),
            (None, Some(other)) => {
                return Err(decline(format!(
                    "symbolic assignment into a {}",
                    other.kind()
                )))
            }
            (None, None) => return Err(decline("assignment into an unbound container")),
        };
        let first = lo + off - 1;
        if first < 0 || (first + trip as i64) > len as i64 {
            return Err(decline(format!(
                "loop write window {}..{} out of bounds for length {len}",
                first + 1,
                first + trip as i64
            )));
        }
        let a = match self.dep(value) {
            Dep::Invariant | Dep::CounterKnown => {
                let vals = self.eval_per_iter(value)?;
                let t = self.iter_table(&vals)?;
                A::Table(t)
            }
            Dep::Symbolic => self.cexpr_loop(value)?,
        };
        self.charge_loop_words(u64::from(trip))?;
        let base = self.alloc(trip);
        self.emit(Op::Mov {
            dst: Reg { base, stride: 1 },
            a,
        });
        self.lc
            .as_mut()
            .expect("loop context")
            .elem_writes
            .push(ElemWrite {
                slot,
                base,
                idx0: first as usize,
            });
        Ok(())
    }

    /// Compiles a lowered observe sweep as a batch-kernel op. `Ok(Some(_))`
    /// means the shapes are ones the *runtime* would send to the retained
    /// fallback loop (which may succeed) — the caller compiles that loop
    /// instead. Hard errors (shapes whose runtime path raises) decline the
    /// whole program so the retained path reports them identically.
    fn try_sweep_compile(&mut self, sweep: &RSweep) -> Result<Option<UseLoop>, Decline> {
        if !supports_sweep(sweep.kind) {
            return Ok(Some(UseLoop));
        }
        if self.dep(&sweep.lo) != Dep::Invariant || self.dep(&sweep.hi) != Dep::Invariant {
            return Err(decline("parameter-dependent loop bounds"));
        }
        let lo = self.kint(&sweep.lo)?;
        let hi = self.kint(&sweep.hi)?;
        if hi < lo {
            self.unbind(sweep.loop_slot);
            return Ok(None);
        }
        let n = (hi - lo + 1) as usize;
        let window = |len: usize, off: i64| -> Result<usize, Decline> {
            let start = lo + off;
            let end = hi + off;
            if start < 1 || end as usize > len {
                Err(decline(format!(
                    "sweep window {start}..{end} out of bounds for length {len}"
                )))
            } else {
                Ok((start - 1) as usize)
            }
        };
        let target_hint = match &sweep.target.base {
            RExpr::Slot(s) => Some(*s),
            _ => None,
        };
        let xs = match self.cexpr(&sweep.target.base)? {
            CVal::Known(Value::Vector(v)) => {
                let s = window(v.len(), sweep.target.offset)?;
                VX::TableF(self.table_f(v[s..s + n].to_vec()))
            }
            CVal::Known(Value::IntArray(v)) => {
                let s = window(v.len(), sweep.target.offset)?;
                VX::TableI(self.table_i(v[s..s + n].to_vec()))
            }
            CVal::Vector(elems) => {
                let s = window(elems.len(), sweep.target.offset)?;
                let span = self.materialize(&elems, target_hint);
                VX::Span(span + s as u32)
            }
            // Nested arrays (and scalars) make the runtime take the
            // fallback loop; compile that loop instead.
            _ => return Ok(Some(UseLoop)),
        };
        let mut sargs = [SA::Sc(A::Const(0.0)); 3];
        let k = sweep.args.len().min(3);
        for (j, spec) in sweep.args.iter().enumerate().take(3) {
            sargs[j] = match spec {
                SweepArgSpec::Invariant(e) => match self.cexpr(e)? {
                    CVal::Known(Value::Real(x)) => SA::Sc(A::Const(x)),
                    CVal::Known(Value::Int(i)) => SA::Sc(A::Const(i as f64)),
                    CVal::Scalar(r) => SA::Sc(A::Reg(Reg::abs(r))),
                    _ => return Err(decline("container-valued invariant sweep argument")),
                },
                SweepArgSpec::Indexed(access) => {
                    let hint = match &access.base {
                        RExpr::Slot(s) => Some(*s),
                        _ => None,
                    };
                    match self.cexpr(&access.base)? {
                        CVal::Known(Value::Vector(v)) => {
                            let s = window(v.len(), access.offset)?;
                            SA::TableF(self.table_f(v[s..s + n].to_vec()))
                        }
                        CVal::Known(Value::IntArray(v)) => {
                            let s = window(v.len(), access.offset)?;
                            SA::TableI(self.table_i(v[s..s + n].to_vec()))
                        }
                        CVal::Vector(elems) => {
                            let s = window(elems.len(), access.offset)?;
                            let span = self.materialize(&elems, hint);
                            SA::Span(span + s as u32)
                        }
                        _ => return Ok(Some(UseLoop)),
                    }
                }
                SweepArgSpec::Elementwise(e) => {
                    match self.windowed(e, sweep.loop_slot, lo, hi) {
                        Ok(CV1::V(VA::Span(s), m)) if m as usize == n => SA::Span(s),
                        Ok(CV1::V(VA::Table(t), m)) if m as usize == n => SA::TableF(t),
                        // Anything else (including failures): the generic
                        // loop path owns the precise outcome.
                        _ => return Ok(Some(UseLoop)),
                    }
                }
            };
        }
        self.emit(Op::ScoreSweep {
            kind: sweep.kind,
            xs,
            args: sargs,
            k: k as u8,
            len: n as u32,
        });
        self.unbind(sweep.loop_slot);
        Ok(None)
    }

    /// Vectorizes an element-wise sweep argument over the counter window:
    /// the expression's affine element reads become window spans/tables and
    /// scalar operations become span ops. Any failure routes the sweep to
    /// the generic loop path.
    fn windowed(&mut self, e: &RExpr, counter: u32, lo: i64, hi: i64) -> Result<CV1, Decline> {
        let n = (hi - lo + 1) as u32;
        if !crate::resolved::mentions_slot(e, counter) {
            // Loop-invariant: one scalar broadcast.
            return match self.cexpr(e)? {
                CVal::Known(Value::Real(x)) => Ok(CV1::S(A::Const(x))),
                CVal::Known(Value::Int(i)) => Ok(CV1::S(A::Const(i as f64))),
                CVal::Scalar(r) => Ok(CV1::S(A::Reg(Reg::abs(r)))),
                _ => Err(decline("container-valued element in a windowed expression")),
            };
        }
        // Counter-dependent but data-determined: evaluate per element.
        let mut all_known = true;
        for_each_slot(e, &mut |s| {
            if s != counter && self.sym.contains_key(&s) {
                all_known = false;
            }
        });
        if all_known {
            let vals = self.eval_window(e, counter, lo, hi)?;
            return Ok(CV1::V(VA::Table(self.table_f(vals)), n));
        }
        match e {
            RExpr::Slot(_) => Err(decline("loop counter used as a value")), // only the counter reaches here
            RExpr::Unary(op, a) => match op {
                UnOp::Plus => self.windowed(a, counter, lo, hi),
                UnOp::Neg => {
                    let v = self.windowed(a, counter, lo, hi)?;
                    self.map1(UF::R(UnFn::Neg), v)
                }
                UnOp::Not => Err(decline("logical not in a windowed expression")),
            },
            RExpr::Binary(op, a, b) => {
                use BinOp::*;
                if matches!(op, Eq | Neq | Lt | Leq | Gt | Geq | And | Or) {
                    return Err(decline("comparison in a windowed expression"));
                }
                if matches!(op, Pow) {
                    let CV1::S(A::Const(p)) = self.windowed(b, counter, lo, hi)? else {
                        return Err(decline("non-constant exponent in a windowed expression"));
                    };
                    let va = self.windowed(a, counter, lo, hi)?;
                    let f = if p.fract() == 0.0 && p.abs() < 1e6 {
                        UF::R(UnFn::Powi(p as i32))
                    } else {
                        UF::R(UnFn::Powf(p))
                    };
                    return self.map1(f, va);
                }
                let f = match op {
                    Add => BinF::Add,
                    Sub => BinF::Sub,
                    // Per-element scalar semantics: multiplication is
                    // element-wise here, never a dot product.
                    Mul | EltMul => BinF::Mul,
                    Div | EltDiv => BinF::Div,
                    Mod => BinF::ZeroMod,
                    _ => unreachable!(),
                };
                let va = self.windowed(a, counter, lo, hi)?;
                let vb = self.windowed(b, counter, lo, hi)?;
                self.map2(f, va, vb)
            }
            RExpr::Index(base, indices) => {
                let RExpr::Slot(s) = &**base else {
                    return Err(decline("unsupported windowed indexing"));
                };
                let [RIndex::One(idx)] = indices.as_slice() else {
                    return Err(decline("unsupported windowed indexing"));
                };
                let Some(off) = affine_offset(idx, counter) else {
                    return Err(decline("unsupported windowed indexing"));
                };
                let Some(SymVal::Vector(elems)) = self.sym.get(s).cloned() else {
                    return Err(decline("unsupported windowed indexing"));
                };
                let first = lo + off - 1;
                if first < 0 || (first + n as i64) > elems.len() as i64 {
                    return Err(decline("windowed read out of bounds"));
                }
                let span = self.materialize(&elems, Some(*s));
                Ok(CV1::V(VA::Span(span + first as u32), n))
            }
            RExpr::Call(name, target, args) => {
                if matches!(target, crate::resolved::CallTarget::User(_)) {
                    return Err(decline(format!("user-defined function call `{name}`")));
                }
                if args.len() == 1 {
                    let v = self.windowed(&args[0], counter, lo, hi)?;
                    if let Some(r) = self.unary_map(name, v)? {
                        return Ok(r);
                    }
                }
                Err(decline(format!(
                    "builtin `{name}` has no windowed density-program rule"
                )))
            }
            _ => Err(decline("unsupported windowed expression")),
        }
    }

    /// Per-element compile-time evaluation of a data-and-counter expression.
    fn eval_window(
        &mut self,
        e: &RExpr,
        counter: u32,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<f64>, Decline> {
        let mut out = Vec::with_capacity((hi - lo + 1) as usize);
        let mut failure = None;
        for v in lo..=hi {
            self.known.set(counter, Value::Int(v));
            match self
                .keval(e)
                .and_then(|x| x.as_real().map_err(|e| decline(e.message().to_string())))
            {
                Ok(x) => out.push(x),
                Err(d) => {
                    failure = Some(d);
                    break;
                }
            }
        }
        self.known.clear(counter);
        match failure {
            Some(d) => Err(d),
            None => Ok(out),
        }
    }
}

/// Compiles a bound model's resolved body into a tape-free density program,
/// or declines with a stated reason (the model then keeps the `Var`/tape
/// gradient path).
///
/// `slots` is the unconstrained parameter layout (parallel to
/// `resolved.params`), and `data_frame` the post-`transformed data` frame
/// the model evaluates against.
///
/// # Errors
/// Returns a [`Decline`] naming the construct without a compiled rule.
pub fn compile(
    program: &GProbProgram,
    resolved: &ResolvedProgram,
    data_frame: &Frame<f64>,
    slots: &[ParamSlot],
) -> Result<DProg, Decline> {
    if !program.networks.is_empty() {
        return Err(decline("model declares external network functions"));
    }
    if !resolved.fused {
        return Err(decline("scalar (unfused) resolution configuration"));
    }
    let dim: usize = slots.iter().map(|s| s.size).sum();
    let mut c = Compiler {
        resolved,
        functions: &program.functions,
        known: data_frame.clone(),
        sym: HashMap::new(),
        param_regs: HashMap::new(),
        span_cache: HashMap::new(),
        next_reg: dim as u32,
        const_init: Vec::new(),
        tables_f: Vec::new(),
        tables_i: Vec::new(),
        outer_ops: Vec::new(),
        lc: None,
        table_words: 0,
        expanded_trips: 0,
        expand_depth: 0,
        loop_words: 0,
    };
    for (ps, rp) in slots.iter().zip(&resolved.params) {
        if ps.dims.len() > 1 {
            return Err(decline(format!("matrix-shaped parameter `{}`", ps.name)));
        }
        let len = ps.size as u32;
        let dst = c.alloc(len);
        c.emit_outer(Op::Constrain {
            kind: ps.constraint,
            src: ps.offset as u32,
            dst,
            len,
        });
        let binding = if ps.dims.is_empty() {
            SymVal::Scalar(dst)
        } else {
            SymVal::Vector((0..len).map(|i| Elem::R(dst + i)).collect())
        };
        // Ensure the data frame cannot shadow a parameter slot.
        c.known.clear(rp.slot);
        c.param_regs.insert(rp.slot, binding);
    }
    c.cstmt(&resolved.body)?;
    Ok(DProg {
        n_inputs: dim,
        n_regs: c.next_reg as usize,
        const_init: c.const_init,
        ops: c.outer_ops,
        tables_f: c.tables_f,
        tables_i: c.tables_i,
    })
}

#[cfg(test)]
mod tests {
    use super::AlignedBuf;

    #[test]
    fn aligned_pools_are_64_byte_aligned_zeroed_and_cloneable() {
        for len in [1usize, 7, 8, 64, 1000] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_ptr() as usize % 64, 0, "len {len} misaligned");
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&x| x == 0.0), "len {len} not zeroed");
            buf[len - 1] = 3.5;
            let clone = buf.clone();
            assert_eq!(clone.as_ptr() as usize % 64, 0);
            assert_eq!(clone[len - 1], 3.5);
            // The clone owns its storage.
            assert_ne!(clone.as_ptr(), buf.as_ptr());
        }
        let empty = AlignedBuf::zeroed(0);
        assert_eq!(empty.len(), 0);
    }
}
