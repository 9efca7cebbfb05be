//! Evaluation of slot-resolved programs over [`Frame`] environments.
//!
//! This is the hot path of the runtime: the mirror of [`crate::eval`] /
//! [`crate::interp`] for the resolved IR of [`crate::resolved`]. Every
//! variable access is a vector index instead of a string hash. Value-level
//! helpers (binary operators, the builtin library, distribution scoring and
//! sampling) are shared with the string-keyed evaluator, so the two runtimes
//! cannot drift apart semantically.
//!
//! User-defined functions and external functions (DeepStan networks) remain
//! name-addressed; they receive the frame through the
//! [`crate::value::EnvView`] boundary without any copying.

use std::cell::RefCell;
use std::rc::Rc;

use minidiff::Real;
use rand::rngs::StdRng;
use stan_frontend::ast::FunDecl;

use probdist::sweep::{lpdf_sweep, SweepArg, SweepVals};

use crate::eval::{
    call_builtin, call_user_function, eval_binary, eval_unary, set_nested, slice_value,
    tilde_lpdf_kind_batched, EvalCtx, ExternalFns,
};

use crate::interp::draw_site;
use crate::resolved::{
    CallTarget, Frame, FrameView, RDecl, RDeclKind, RDistCall, RExpr, RGExpr, RIndex, RLoopKind,
    RSweep, ResolvedProgram, SweepArgSpec,
};
use crate::value::{count_while_iteration, RuntimeError, Value};

/// Evaluation context for resolved programs: the resolved program (for the
/// symbol table), the user-function table, and the shared value-level
/// context (builtins RNG, externals) reused from the string evaluator.
pub struct RCtx<'a, T: Real> {
    /// The resolved program (symbol table, slot count).
    pub resolved: &'a ResolvedProgram,
    /// User-defined functions, indexed by [`CallTarget::User`].
    pub functions: &'a [FunDecl],
    /// Value-level context shared with the string evaluator (used when
    /// dropping into interpreted user functions and builtins).
    pub eval: EvalCtx<'a, T>,
}

impl<'a, T: Real> RCtx<'a, T> {
    /// Builds a context over a resolved program and its function table. The
    /// user-function dispatch table is borrowed from the resolved program —
    /// contexts are free to construct, so the density hot path can build one
    /// per evaluation without cloning a single `String`.
    pub fn new(
        resolved: &'a ResolvedProgram,
        functions: &'a [FunDecl],
        externals: &'a dyn ExternalFns<T>,
    ) -> Self {
        RCtx {
            resolved,
            functions,
            eval: EvalCtx::with_table(functions, &resolved.fn_table).externals(externals),
        }
    }

    fn unbound(&self, slot: u32) -> RuntimeError {
        RuntimeError::new(format!(
            "unbound variable `{}`",
            self.resolved.name_of(slot)
        ))
    }
}

/// A possibly-borrowed evaluation result. Slot reads and container-element
/// reads borrow straight from the frame — the key win over the string
/// runtime, which clones a container out of the environment before every
/// `y[i]` access (quadratic in vector length across an observation loop).
pub enum RefValue<'a, T: Real> {
    /// A value borrowed from the frame.
    Borrowed(&'a Value<T>),
    /// A freshly computed value.
    Owned(Value<T>),
}

impl<'a, T: Real> RefValue<'a, T> {
    /// A shared reference to the value.
    #[inline]
    pub fn as_value(&self) -> &Value<T> {
        match self {
            RefValue::Borrowed(v) => v,
            RefValue::Owned(v) => v,
        }
    }

    /// Extracts an owned value (cloning only if borrowed).
    #[inline]
    pub fn into_owned(self) -> Value<T> {
        match self {
            RefValue::Borrowed(v) => v.clone(),
            RefValue::Owned(v) => v,
        }
    }
}

impl<T: Real> std::borrow::Borrow<Value<T>> for RefValue<'_, T> {
    fn borrow(&self) -> &Value<T> {
        self.as_value()
    }
}

/// Evaluates a resolved expression, borrowing from the frame when the
/// expression is a plain slot read or an element access into one.
///
/// # Errors
/// Same as [`reval_expr`].
pub fn reval_ref<'a, T: Real>(
    e: &RExpr,
    frame: &'a Frame<T>,
    ctx: &RCtx<T>,
) -> Result<RefValue<'a, T>, RuntimeError> {
    match e {
        RExpr::Slot(slot) => frame
            .get(*slot)
            .map(RefValue::Borrowed)
            .ok_or_else(|| ctx.unbound(*slot)),
        RExpr::Index(base, indices) => {
            let mut cur = reval_ref(base, frame, ctx)?;
            for idx in indices {
                match idx {
                    RIndex::Slice(lo, hi) => {
                        let lo = reval_expr(lo, frame, ctx)?.as_int()?;
                        let hi = reval_expr(hi, frame, ctx)?.as_int()?;
                        cur = RefValue::Owned(slice_value(cur.as_value(), lo, hi)?);
                    }
                    RIndex::One(i) => {
                        let i = reval_expr(i, frame, ctx)?.as_int()?;
                        cur = match cur {
                            // Indexing a borrowed nested array yields a
                            // borrow of the element; scalars are copied out.
                            RefValue::Borrowed(Value::Array(items)) => {
                                let len = items.len();
                                if i < 1 || i as usize > len {
                                    return Err(RuntimeError::new(format!(
                                        "index {i} out of bounds for length {len}"
                                    )));
                                }
                                RefValue::Borrowed(&items[(i - 1) as usize])
                            }
                            other => RefValue::Owned(other.as_value().index(i)?),
                        };
                    }
                }
            }
            Ok(cur)
        }
        other => reval_expr(other, frame, ctx).map(RefValue::Owned),
    }
}

/// Evaluates a resolved expression against a frame.
///
/// # Errors
/// Returns a [`RuntimeError`] on unbound slots, unknown functions, shape
/// mismatches, or out-of-bounds indexing.
pub fn reval_expr<T: Real>(
    e: &RExpr,
    frame: &Frame<T>,
    ctx: &RCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    match e {
        RExpr::IntLit(v) => Ok(Value::Int(*v)),
        RExpr::RealLit(v) => Ok(Value::Real(T::from_f64(*v))),
        RExpr::StringLit(_) => Ok(Value::Unit),
        RExpr::Slot(slot) => frame.get(*slot).cloned().ok_or_else(|| ctx.unbound(*slot)),
        RExpr::Unary(op, a) => {
            let va = reval_expr(a, frame, ctx)?;
            eval_unary(*op, va)
        }
        RExpr::Binary(op, a, b) => {
            let va = reval_expr(a, frame, ctx)?;
            let vb = reval_expr(b, frame, ctx)?;
            eval_binary(*op, va, vb)
        }
        RExpr::Index(..) => reval_ref(e, frame, ctx).map(RefValue::into_owned),
        RExpr::ArrayLit(items) => {
            let vals: Vec<Value<T>> = items
                .iter()
                .map(|i| reval_expr(i, frame, ctx))
                .collect::<Result<_, _>>()?;
            crate::eval::promote_array_lit(vals)
        }
        RExpr::VectorLit(items) => {
            let vals: Vec<T> = items
                .iter()
                .map(|i| reval_expr(i, frame, ctx)?.as_real())
                .collect::<Result<_, _>>()?;
            Ok(Value::Vector(vals))
        }
        RExpr::Range(lo, hi) => {
            let lo = reval_expr(lo, frame, ctx)?.as_int()?;
            let hi = reval_expr(hi, frame, ctx)?.as_int()?;
            Ok(Value::IntArray((lo..=hi).collect()))
        }
        RExpr::Ternary(c, a, b) => {
            let cond = reval_expr(c, frame, ctx)?.as_real()?;
            if cond.value() != 0.0 {
                reval_expr(a, frame, ctx)
            } else {
                reval_expr(b, frame, ctx)
            }
        }
        RExpr::Call(name, target, args) => {
            let vals: Vec<Value<T>> = args
                .iter()
                .map(|a| reval_expr(a, frame, ctx))
                .collect::<Result<_, _>>()?;
            // 1. External hook (neural networks) — probed first, as in the
            //    string evaluator.
            let view = FrameView {
                frame,
                interner: &ctx.resolved.interner,
            };
            if let Some(result) = ctx.eval.externals.call(name, &vals, &view) {
                return result;
            }
            // 2. User-defined functions, dispatch-resolved at compile time.
            if let CallTarget::User(idx) = target {
                return call_user_function(&ctx.functions[*idx as usize], &vals, &view, &ctx.eval);
            }
            // 3. Built-ins.
            call_builtin(name, &vals, &ctx.eval)
        }
    }
}

/// Builds the default (zero) value for a resolved declaration.
///
/// # Errors
/// Fails if a dimension expression cannot be evaluated.
pub fn default_rvalue<T: Real>(
    decl: &RDecl,
    frame: &Frame<T>,
    ctx: &RCtx<T>,
) -> Result<Value<T>, RuntimeError> {
    let int_dim = |e: &RExpr| -> Result<i64, RuntimeError> { reval_expr(e, frame, ctx)?.as_int() };
    let zero_vec = |n: i64| Value::Vector(vec![T::from_f64(0.0); n.max(0) as usize]);
    let base: Value<T> = match &decl.kind {
        RDeclKind::Int => Value::Int(0),
        RDeclKind::Real => Value::Real(T::from_f64(0.0)),
        RDeclKind::Vector(n) => zero_vec(int_dim(n)?),
        RDeclKind::Matrix(r, c) => {
            let (rows, cols) = (int_dim(r)?, int_dim(c)?);
            Value::Array((0..rows).map(|_| zero_vec(cols)).collect())
        }
        RDeclKind::Square(n) => {
            let n = int_dim(n)?;
            Value::Array((0..n).map(|_| zero_vec(n)).collect())
        }
    };
    let mut val = base;
    for dim in decl.dims.iter().rev() {
        let n = int_dim(dim)?;
        match (&val, &decl.kind) {
            (Value::Int(_), _) => val = Value::IntArray(vec![0; n.max(0) as usize]),
            (Value::Real(_), _) => val = zero_vec(n),
            _ => val = Value::Array(vec![val.clone(); n.max(0) as usize]),
        }
    }
    Ok(val)
}

/// How `sample` sites are resolved by the frame interpreter.
pub enum RMode<'a, T: Real> {
    /// Look values up in a trace frame; contribute their log-density.
    Trace(&'a Frame<T>),
    /// Draw fresh untracked values from the prior.
    Prior(Rc<RefCell<StdRng>>),
    /// Draw reparameterized (gradient-tracked) values.
    Reparam(Rc<RefCell<StdRng>>),
}

/// Scores `value ~ dist(args)` through the kind resolved at compile time,
/// falling back to the name-matching path (and its "unknown distribution"
/// error) only for unresolved families. When the program was resolved with
/// batching (`fused`), vectorized statements go through the sweep kernels
/// ([`tilde_lpdf_kind_batched`]); the scalar configuration keeps the
/// element-wise path for differential comparison.
fn score_tilde<T: Real, V: std::borrow::Borrow<Value<T>>>(
    dist: &RDistCall,
    value: &Value<T>,
    args: &[V],
    fused: bool,
) -> Result<T, RuntimeError> {
    match dist.kind {
        Some(kind) if fused => tilde_lpdf_kind_batched(value, kind, args),
        Some(kind) => crate::eval::tilde_lpdf_kind(value, kind, args),
        None => crate::eval::tilde_lpdf(value, &dist.name, args),
    }
}

/// Borrows the 1-based inclusive window `[lo+offset, hi+offset]` of a flat
/// container as a contiguous slice, or `None` when the value is not a flat
/// container or the window is out of bounds (the scalar fallback then owns
/// the error reporting). Shared with the generated-quantities sweeps
/// ([`crate::gq`]).
pub(crate) fn slice_window<T: Real>(
    v: &Value<T>,
    lo: i64,
    hi: i64,
    offset: i64,
) -> Option<SweepVals<'_, T>> {
    let start = lo + offset;
    let end = hi + offset;
    if start < 1 {
        return None;
    }
    let (s, e) = ((start - 1) as usize, end as usize);
    match v {
        Value::Vector(x) if e <= x.len() => Some(SweepVals::Reals(&x[s..e])),
        Value::IntArray(x) if e <= x.len() => Some(SweepVals::Ints(&x[s..e])),
        _ => None,
    }
}

/// The result of running a resolved GProb body.
#[derive(Debug, Clone)]
pub struct RRunResult<T: Real> {
    /// Accumulated log-score.
    pub score: T,
    /// The part of `score` contributed by `sample` sites alone (the prior
    /// log-density of the drawn values). `score - site_score` is therefore
    /// the observation log-likelihood — the importance weight when the run
    /// itself was the proposal.
    pub site_score: T,
    /// Values of all `sample` sites, keyed by their frame slot. Populated
    /// only in the sampling modes ([`RMode::Prior`] / [`RMode::Reparam`]);
    /// in [`RMode::Trace`] the caller already owns the trace, so collecting
    /// a copy would only add a clone per site to the density hot path.
    pub trace: Frame<T>,
    /// The value of the final `return` expression.
    pub value: Value<T>,
}

/// The slot-frame probabilistic interpreter (mirror of [`crate::interp::Interp`]).
pub struct RInterp<'a, T: Real> {
    ctx: &'a RCtx<'a, T>,
    mode: RMode<'a, T>,
    score: T,
    site_score: T,
    trace: Frame<T>,
    /// Pooled scratch for `Elementwise` sweep arguments, lent by a
    /// [`crate::workspace::DensityWorkspace`]; interpreters without one fall
    /// back to per-sweep local buffers.
    scratch: Option<&'a mut [Vec<T>; 3]>,
    /// When `false`, observation sites (`Observe`, `ObserveSweep`, `Factor`)
    /// contribute nothing to the score and their likelihood arithmetic is
    /// skipped entirely — the draw-only proposal mode of batched importance
    /// sampling, where the likelihood is recovered from a separate batched
    /// density evaluation. Sample sites are unaffected, so RNG consumption
    /// is identical to a scoring run.
    score_observes: bool,
}

impl<'a, T: Real> RInterp<'a, T> {
    /// Creates an interpreter in the given mode.
    pub fn new(ctx: &'a RCtx<'a, T>, mode: RMode<'a, T>) -> Self {
        let trace = match mode {
            // Density evaluation never reads the collected trace.
            RMode::Trace(_) => Frame::new(0),
            _ => ctx.resolved.frame(),
        };
        RInterp {
            mode,
            score: T::from_f64(0.0),
            site_score: T::from_f64(0.0),
            trace,
            ctx,
            scratch: None,
            score_observes: true,
        }
    }

    /// Disables observation scoring (builder style): `Observe` /
    /// `ObserveSweep` / `Factor` sites are skipped without evaluating their
    /// log-densities. Used by [`crate::GModel::run_prior_draw`] to generate
    /// importance-sampling proposals whose likelihood is scored afterwards
    /// through the batched density program.
    pub fn without_observe_scores(mut self) -> Self {
        self.score_observes = false;
        self
    }

    /// Attaches a pooled scratch-buffer set for `Elementwise` sweep
    /// arguments (builder style) — workspace-backed density evaluations pass
    /// their [`crate::workspace::DensityWorkspace`] buffers here so compound
    /// sweep arguments stop allocating per evaluation.
    pub fn with_scratch(mut self, scratch: &'a mut [Vec<T>; 3]) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Runs a resolved body in the given frame.
    ///
    /// # Errors
    /// Propagates evaluation errors, unknown distributions, and missing
    /// trace values.
    pub fn run(
        &mut self,
        body: &RGExpr,
        frame: &mut Frame<T>,
    ) -> Result<RRunResult<T>, RuntimeError> {
        let value = self.eval(body, frame)?;
        Ok(RRunResult {
            score: self.score,
            site_score: self.site_score,
            trace: std::mem::replace(&mut self.trace, Frame::new(0)),
            value,
        })
    }

    fn eval(&mut self, e: &RGExpr, frame: &mut Frame<T>) -> Result<Value<T>, RuntimeError> {
        match e {
            RGExpr::Unit => Ok(Value::Unit),
            RGExpr::Return(expr) => reval_expr(expr, frame, self.ctx),
            RGExpr::LetDecl { decl, body } => {
                let v = match &decl.init {
                    Some(e) => reval_expr(e, frame, self.ctx)?,
                    None => default_rvalue(decl, frame, self.ctx)?,
                };
                frame.set(decl.slot, v);
                self.eval(body, frame)
            }
            RGExpr::LetDet { slot, value, body } => {
                let v = reval_expr(value, frame, self.ctx)?;
                frame.set(*slot, v);
                self.eval(body, frame)
            }
            RGExpr::LetIndexed {
                slot,
                indices,
                value,
                body,
            } => {
                let v = reval_expr(value, frame, self.ctx)?;
                let idx: Vec<i64> = indices
                    .iter()
                    .map(|i| reval_expr(i, frame, self.ctx)?.as_int())
                    .collect::<Result<_, _>>()?;
                let target = frame
                    .get_mut(*slot)
                    .ok_or_else(|| self.ctx.unbound(*slot))?;
                set_nested(target, &idx, v)?;
                self.eval(body, frame)
            }
            RGExpr::LetSample { slot, dist, body } => {
                let value = self.handle_sample(*slot, dist, frame)?;
                if !matches!(self.mode, RMode::Trace(_)) {
                    self.trace.set(*slot, value.clone());
                }
                frame.set(*slot, value);
                self.eval(body, frame)
            }
            RGExpr::Observe { dist, value, body } => {
                if self.score_observes {
                    // Borrow both the observed value and the distribution
                    // arguments from the frame — no container is cloned.
                    let score = {
                        let observed = reval_ref(value, frame, self.ctx)?;
                        let args = self.eval_dist_args(dist, frame)?;
                        score_tilde(dist, observed.as_value(), &args, self.fused())?
                    };
                    self.score = self.score + score;
                }
                self.eval(body, frame)
            }
            RGExpr::ObserveSweep {
                sweep,
                fallback,
                body,
            } => {
                if !self.score_observes {
                    // Draw-only mode: the whole sweep (and its scalar
                    // fallback, whose body is a single observe) is a no-op.
                    // The scalar loop would clear its loop variable on exit;
                    // clearing an unset slot is harmless, so preserve that.
                    frame.clear(sweep.loop_slot);
                    return self.eval(body, frame);
                }
                match self.try_sweep(sweep, frame) {
                    Some(score) => {
                        self.score = self.score + score;
                        // The scalar loop clears its loop variable on exit;
                        // the lowered sweep preserves that.
                        frame.clear(sweep.loop_slot);
                    }
                    // Shapes (or an evaluation error) didn't admit the
                    // batched path: run the original loop, which reproduces
                    // the scalar result or error exactly.
                    None => {
                        self.eval(fallback, frame)?;
                    }
                }
                self.eval(body, frame)
            }
            RGExpr::Factor { value, body } => {
                if self.score_observes {
                    let v = reval_ref(value, frame, self.ctx)?;
                    self.score = self.score + v.as_value().sum_as_real()?;
                }
                self.eval(body, frame)
            }
            RGExpr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = reval_expr(cond, frame, self.ctx)?.as_real()?;
                if c.value() != 0.0 {
                    self.eval(then_branch, frame)
                } else {
                    self.eval(else_branch, frame)
                }
            }
            RGExpr::LetLoop {
                kind,
                loop_body,
                body,
            } => {
                match kind {
                    RLoopKind::Range { slot, lo, hi } => {
                        let lo = reval_expr(lo, frame, self.ctx)?.as_int()?;
                        let hi = reval_expr(hi, frame, self.ctx)?.as_int()?;
                        for i in lo..=hi {
                            frame.set(*slot, Value::Int(i));
                            self.eval(loop_body, frame)?;
                        }
                        frame.clear(*slot);
                    }
                    RLoopKind::ForEach { slot, collection } => {
                        let coll = reval_expr(collection, frame, self.ctx)?;
                        for i in 1..=coll.len() as i64 {
                            frame.set(*slot, coll.index(i)?);
                            self.eval(loop_body, frame)?;
                        }
                        frame.clear(*slot);
                    }
                    RLoopKind::While { cond } => {
                        let mut iterations = 0usize;
                        loop {
                            let c = reval_expr(cond, frame, self.ctx)?.as_real()?;
                            if c.value() == 0.0 {
                                break;
                            }
                            count_while_iteration(&mut iterations)?;
                            self.eval(loop_body, frame)?;
                        }
                    }
                }
                self.eval(body, frame)
            }
        }
    }

    fn eval_dist_args<'f>(
        &self,
        dist: &RDistCall,
        frame: &'f Frame<T>,
    ) -> Result<Vec<RefValue<'f, T>>, RuntimeError> {
        dist.args
            .iter()
            .map(|a| reval_ref(a, frame, self.ctx))
            .collect()
    }

    fn fused(&self) -> bool {
        self.ctx.resolved.fused
    }

    /// Attempts the batched evaluation of a lowered observation sweep.
    ///
    /// Returns the sweep's total log score, or `None` when the runtime
    /// shapes don't admit slice borrowing — a non-vector target, an
    /// out-of-window affine index, a non-scalar invariant argument, or any
    /// evaluation error — in which case the caller re-runs the retained
    /// scalar loop (which reproduces the exact scalar result or error).
    ///
    /// Evaluation order differs from the scalar loop only in grouping (all
    /// elements of one argument before the next); every evaluated expression
    /// is pure, so the observable semantics are identical.
    fn try_sweep(&mut self, sweep: &RSweep, frame: &mut Frame<T>) -> Option<T> {
        let lo = reval_expr(&sweep.lo, frame, self.ctx).ok()?.as_int().ok()?;
        let hi = reval_expr(&sweep.hi, frame, self.ctx).ok()?.as_int().ok()?;
        if hi < lo {
            // Empty range: the scalar loop scores nothing (and still clears
            // the loop variable, which our caller does).
            return Some(T::from_f64(0.0));
        }
        let n = (hi - lo + 1) as usize;

        // 1. Materialize invariant and element-wise arguments. Element-wise
        //    evaluation binds the loop slot per element, exactly like the
        //    scalar loop body would, writing into the workspace's pooled
        //    scratch buffers (or per-sweep locals when no workspace is
        //    attached).
        enum OwnedArg<T: Real> {
            Scalar(T),
            Elems,
            Indexed,
        }
        // The lowering pass only builds sweeps with <= 3 arguments (the
        // widest kernel arity), so everything below the per-element scratch
        // fits fixed-size buffers — no per-evaluation Vec for the argument
        // bookkeeping itself.
        let k = sweep.args.len();
        debug_assert!(k <= 3, "lowering admits at most 3 sweep arguments");
        if k > 3 {
            return None;
        }
        let mut local: [Vec<T>; 3];
        let scratch: &mut [Vec<T>; 3] = match &mut self.scratch {
            Some(s) => s,
            None => {
                local = [Vec::new(), Vec::new(), Vec::new()];
                &mut local
            }
        };
        let ctx = self.ctx;
        let mut owned: [OwnedArg<T>; 3] = [OwnedArg::Indexed, OwnedArg::Indexed, OwnedArg::Indexed];
        for ((spec, slot), buf) in sweep
            .args
            .iter()
            .zip(owned.iter_mut())
            .zip(scratch.iter_mut())
        {
            match spec {
                SweepArgSpec::Invariant(e) => {
                    match reval_expr(e, frame, ctx).ok()? {
                        Value::Real(x) => *slot = OwnedArg::Scalar(x),
                        Value::Int(i) => *slot = OwnedArg::Scalar(T::from_f64(i as f64)),
                        // Container-valued invariant arguments error on the
                        // scalar path for these families; let it report.
                        _ => return None,
                    }
                }
                SweepArgSpec::Elementwise(e) => {
                    buf.clear();
                    buf.reserve(n);
                    for v in lo..=hi {
                        frame.set(sweep.loop_slot, Value::Int(v));
                        buf.push(reval_expr(e, frame, ctx).ok()?.as_real().ok()?);
                    }
                    *slot = OwnedArg::Elems;
                }
                SweepArgSpec::Indexed(_) => {}
            }
        }
        let scratch: &[Vec<T>; 3] = scratch;

        // 2. Borrow the target window and the directly indexed argument
        //    windows as contiguous slices (no per-element RefValue
        //    indexing). The frame is read-only from here on.
        let frame_ro: &Frame<T> = frame;
        let target_base = reval_ref(&sweep.target.base, frame_ro, ctx).ok()?;
        let xs = slice_window(target_base.as_value(), lo, hi, sweep.target.offset)?;
        let mut indexed: [Option<RefValue<T>>; 3] = [None, None, None];
        for (spec, slot) in sweep.args.iter().zip(indexed.iter_mut()) {
            if let SweepArgSpec::Indexed(access) = spec {
                *slot = Some(reval_ref(&access.base, frame_ro, ctx).ok()?);
            }
        }
        let zero = T::from_f64(0.0);
        let mut args: [SweepArg<T>; 3] = [SweepArg::Scalar(zero); 3];
        for (j, spec) in sweep.args.iter().enumerate() {
            args[j] = match (spec, &owned[j], &indexed[j]) {
                (_, OwnedArg::Scalar(x), _) => SweepArg::Scalar(*x),
                (_, OwnedArg::Elems, _) => SweepArg::Reals(&scratch[j]),
                (SweepArgSpec::Indexed(access), OwnedArg::Indexed, Some(base)) => {
                    match slice_window(base.as_value(), lo, hi, access.offset)? {
                        SweepVals::Reals(v) => SweepArg::Reals(v),
                        SweepVals::Ints(v) => SweepArg::Ints(v),
                    }
                }
                _ => return None,
            };
        }

        // 3. One fused kernel call for the whole sweep.
        lpdf_sweep(sweep.kind, xs, &args[..k]).ok()
    }

    fn handle_sample(
        &mut self,
        slot: u32,
        dist: &RDistCall,
        frame: &mut Frame<T>,
    ) -> Result<Value<T>, RuntimeError> {
        match &self.mode {
            RMode::Trace(trace) => {
                let value = trace.get(slot).ok_or_else(|| {
                    RuntimeError::new(format!(
                        "trace is missing a value for sample site `{}`",
                        self.ctx.resolved.name_of(slot)
                    ))
                })?;
                let args = self.eval_dist_args(dist, frame)?;
                let score = score_tilde(dist, value, &args, self.fused())?;
                self.score = self.score + score;
                self.site_score = self.site_score + score;
                // The clone binds the traced value into the frame; the trace
                // itself stays untouched.
                Ok(value.clone())
            }
            RMode::Prior(rng) | RMode::Reparam(rng) => {
                let reparam = matches!(self.mode, RMode::Reparam(_));
                let args: Vec<Value<T>> = self
                    .eval_dist_args(dist, frame)?
                    .into_iter()
                    .map(RefValue::into_owned)
                    .collect();
                let mut dims: Vec<i64> = Vec::with_capacity(dist.shape.len());
                for s in &dist.shape {
                    dims.push(reval_expr(s, frame, self.ctx)?.as_int()?);
                }
                let value = draw_site(&dist.name, &args, &dims, rng, reparam)?;
                let score = score_tilde(dist, &value, &args, self.fused())?;
                self.score = self.score + score;
                self.site_score = self.site_score + score;
                Ok(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DistCall, GExpr, GProbProgram};
    use crate::resolved::resolve_program;
    use crate::value::Env;
    use rand::SeedableRng;
    use stan_frontend::ast::Expr;

    fn coin_program() -> GProbProgram {
        GProbProgram {
            body: GExpr::LetSample {
                name: "z".into(),
                dist: DistCall::new("uniform", vec![Expr::RealLit(0.0), Expr::RealLit(1.0)]),
                body: Box::new(GExpr::Observe {
                    dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
                    value: Expr::var("z"),
                    body: Box::new(GExpr::LetLoop {
                        kind: crate::ir::LoopKind::Range {
                            var: "i".into(),
                            lo: Expr::IntLit(1),
                            hi: Expr::var("N"),
                        },
                        state: vec![],
                        loop_body: Box::new(GExpr::Observe {
                            dist: DistCall::new("bernoulli", vec![Expr::var("z")]),
                            value: Expr::Index(Box::new(Expr::var("x")), vec![Expr::var("i")]),
                            body: Box::new(GExpr::Unit),
                        }),
                        body: Box::new(GExpr::Return(Expr::var("z"))),
                    }),
                }),
            },
            ..Default::default()
        }
    }

    #[test]
    fn trace_mode_matches_string_interpreter() {
        let program = coin_program();
        let resolved = resolve_program(&program);
        let mut data: Env<f64> = Env::new();
        data.insert("N".into(), Value::Int(4));
        data.insert("x".into(), Value::IntArray(vec![1, 0, 1, 1]));
        // String-keyed baseline.
        let mut trace_env: Env<f64> = Env::new();
        trace_env.insert("z".into(), Value::Real(0.7));
        let expect = crate::interp::score_trace(&program.body, &data, &trace_env).unwrap();
        // Slot-resolved path.
        let mut frame = resolved.frame_from_env(&data);
        let mut trace = resolved.frame::<f64>();
        trace.set(resolved.slot_of("z").unwrap(), Value::Real(0.7));
        let ctx = RCtx::new(&resolved, &[], &crate::eval::NoExternals);
        let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
        let run = interp.run(&resolved.body, &mut frame).unwrap();
        assert!(
            (run.score - expect).abs() < 1e-15,
            "{} vs {expect}",
            run.score
        );
        assert_eq!(run.value, Value::Real(0.7));
        // Loop variable slot was cleared on exit.
        assert!(frame.get(resolved.slot_of("i").unwrap()).is_none());
    }

    #[test]
    fn prior_mode_draws_and_scores() {
        let program = coin_program();
        let resolved = resolve_program(&program);
        let mut data: Env<f64> = Env::new();
        data.insert("N".into(), Value::Int(4));
        data.insert("x".into(), Value::IntArray(vec![1, 0, 1, 1]));
        let ctx = RCtx::new(&resolved, &[], &crate::eval::NoExternals);
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(11)));
        for _ in 0..20 {
            let mut frame = resolved.frame_from_env(&data);
            let mut interp = RInterp::new(&ctx, RMode::Prior(rng.clone()));
            let run = interp.run(&resolved.body, &mut frame).unwrap();
            let z = run
                .trace
                .get(resolved.slot_of("z").unwrap())
                .unwrap()
                .as_real()
                .unwrap();
            assert!((0.0..=1.0).contains(&z));
            assert!(run.score.is_finite());
        }
    }

    #[test]
    fn lowered_sweeps_match_the_scalar_loop_and_fall_back_on_bad_windows() {
        let program = coin_program();
        let fused = resolve_program(&program);
        let scalar = crate::resolved::resolve_program_scalar(&program);
        assert_eq!(crate::resolved::count_sweeps(&fused.body), 1);
        assert_eq!(crate::resolved::count_sweeps(&scalar.body), 0);
        let mut data: Env<f64> = Env::new();
        data.insert("N".into(), Value::Int(4));
        data.insert("x".into(), Value::IntArray(vec![1, 0, 1, 1]));
        let run_on = |resolved: &crate::resolved::ResolvedProgram| {
            let mut frame = resolved.frame_from_env(&data);
            let mut trace = resolved.frame::<f64>();
            trace.set(resolved.slot_of("z").unwrap(), Value::Real(0.7));
            let ctx = RCtx::new(resolved, &[], &crate::eval::NoExternals);
            let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
            let run = interp.run(&resolved.body, &mut frame).unwrap();
            // Loop variable cleared on both paths.
            assert!(frame.get(resolved.slot_of("i").unwrap()).is_none());
            run.score
        };
        let a = run_on(&fused);
        let b = run_on(&scalar);
        assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        // Out-of-window bounds (N larger than the data vector): the sweep
        // falls back to the scalar loop, which reports the scalar error.
        data.insert("N".into(), Value::Int(9));
        let err_fused = {
            let mut frame = fused.frame_from_env(&data);
            let mut trace = fused.frame::<f64>();
            trace.set(fused.slot_of("z").unwrap(), Value::Real(0.7));
            let ctx = RCtx::new(&fused, &[], &crate::eval::NoExternals);
            let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
            interp.run(&fused.body, &mut frame).unwrap_err()
        };
        assert!(
            err_fused.message().contains("out of bounds"),
            "{}",
            err_fused.message()
        );
        // Empty ranges score nothing and still clear the loop slot.
        data.insert("N".into(), Value::Int(0));
        let mut frame = fused.frame_from_env(&data);
        let mut trace = fused.frame::<f64>();
        trace.set(fused.slot_of("z").unwrap(), Value::Real(0.7));
        let ctx = RCtx::new(&fused, &[], &crate::eval::NoExternals);
        let mut interp = RInterp::new(&ctx, RMode::Trace(&trace));
        let run = interp.run(&fused.body, &mut frame).unwrap();
        assert!(run.score.is_finite());
        assert!(frame.get(fused.slot_of("i").unwrap()).is_none());
    }

    #[test]
    fn unbound_slots_report_the_original_name() {
        let program = GProbProgram {
            body: GExpr::Return(Expr::var("mystery")),
            ..Default::default()
        };
        let resolved = resolve_program(&program);
        let ctx = RCtx::new(&resolved, &[], &crate::eval::NoExternals);
        let mut frame = resolved.frame::<f64>();
        let empty_trace = resolved.frame();
        let mut interp = RInterp::new(&ctx, RMode::Trace(&empty_trace));
        let err = interp.run(&resolved.body, &mut frame).unwrap_err();
        assert!(err.message().contains("mystery"), "{}", err.message());
    }
}
