//! The probabilistic interpreter for GProb programs.
//!
//! This module plays the role that the Pyro / NumPyro effect handlers play in
//! the paper's backends. A GProb body is executed in one of three modes:
//!
//! * **Trace** — every `sample` site takes its value from a provided trace
//!   (parameter assignment) and contributes its log-density to the score;
//!   `observe` and `factor` contribute as usual. This is the density used by
//!   NUTS/HMC and corresponds to Pyro's `trace` + `replay` handlers.
//! * **Prior** — every `sample` site draws an (untracked) value from its
//!   distribution; used for generative runs, prior prediction, importance
//!   sampling proposals and the "run one iteration" generality check of the
//!   paper's Table 2.
//! * **Reparam** — `sample` sites draw reparameterized values that keep
//!   gradient information flowing into the distribution parameters (normal,
//!   lognormal and uniform sites); this is how variational guides are
//!   executed during SVI.

use std::cell::RefCell;
use std::rc::Rc;

use minidiff::Real;
use probdist::dist::{dist_from_name, Dist, DistArg};
use probdist::sampling;
use rand::rngs::StdRng;
use rand::Rng;

use crate::eval::{eval_expr, tilde_lpdf, write_indexed, EvalCtx};
use crate::ir::{DistCall, GExpr, LoopKind};
use crate::value::{count_while_iteration, Env, RuntimeError, Value};

/// How `sample` sites are resolved during interpretation.
pub enum Mode<'a, T: Real> {
    /// Look values up in a trace; contributes their log-density to the score.
    Trace(&'a Env<T>),
    /// Draw fresh untracked values from the prior.
    Prior(Rc<RefCell<StdRng>>),
    /// Draw reparameterized (gradient-tracked) values — used for guides.
    Reparam(Rc<RefCell<StdRng>>),
}

/// The result of running a GProb body.
#[derive(Debug, Clone)]
pub struct RunResult<T: Real> {
    /// Accumulated log-score (observations, factors, and sample densities).
    pub score: T,
    /// Values of all `sample` sites encountered, keyed by site name.
    pub trace: Env<T>,
    /// The value of the final `return` expression.
    pub value: Value<T>,
}

/// The interpreter state.
pub struct Interp<'a, T: Real> {
    ctx: &'a EvalCtx<'a, T>,
    mode: Mode<'a, T>,
    score: T,
    trace: Env<T>,
}

impl<'a, T: Real> Interp<'a, T> {
    /// Creates an interpreter in the given mode.
    pub fn new(ctx: &'a EvalCtx<'a, T>, mode: Mode<'a, T>) -> Self {
        Interp {
            ctx,
            mode,
            score: T::from_f64(0.0),
            trace: Env::new(),
        }
    }

    /// Runs a GProb body in the given (mutable) environment.
    ///
    /// # Errors
    /// Propagates evaluation errors, unknown distributions, and missing trace
    /// values.
    pub fn run(&mut self, body: &GExpr, env: &mut Env<T>) -> Result<RunResult<T>, RuntimeError> {
        let value = self.eval(body, env)?;
        Ok(RunResult {
            score: self.score,
            trace: std::mem::take(&mut self.trace),
            value,
        })
    }

    fn eval(&mut self, e: &GExpr, env: &mut Env<T>) -> Result<Value<T>, RuntimeError> {
        match e {
            GExpr::Unit => Ok(Value::Unit),
            GExpr::Return(expr) => eval_expr(expr, env, self.ctx),
            GExpr::LetDecl { decl, body } => {
                let v = match &decl.init {
                    Some(e) => eval_expr(e, env, self.ctx)?,
                    None => crate::eval::default_value(decl, env, self.ctx)?,
                };
                env.insert(decl.name.clone(), v);
                self.eval(body, env)
            }
            GExpr::LetDet { name, value, body } => {
                let v = eval_expr(value, env, self.ctx)?;
                env.insert(name.clone(), v);
                self.eval(body, env)
            }
            GExpr::LetIndexed {
                name,
                indices,
                value,
                body,
            } => {
                let v = eval_expr(value, env, self.ctx)?;
                write_indexed(name, indices, v, env, self.ctx)?;
                self.eval(body, env)
            }
            GExpr::LetSample { name, dist, body } => {
                let value = self.handle_sample(name, dist, env)?;
                self.trace.insert(name.clone(), value.clone());
                // Reuse the existing binding's key allocation when present.
                match env.get_mut(name.as_str()) {
                    Some(slot) => *slot = value,
                    None => {
                        env.insert(name.clone(), value);
                    }
                }
                self.eval(body, env)
            }
            GExpr::Observe { dist, value, body } => {
                let observed = eval_expr(value, env, self.ctx)?;
                let args = self.eval_dist_args(dist, env)?;
                self.score = self.score + tilde_lpdf(&observed, &dist.name, &args)?;
                self.eval(body, env)
            }
            GExpr::Factor { value, body } => {
                let v = eval_expr(value, env, self.ctx)?;
                self.score = self.score + v.sum_as_real()?;
                self.eval(body, env)
            }
            GExpr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = eval_expr(cond, env, self.ctx)?.as_real()?;
                if c.value() != 0.0 {
                    self.eval(then_branch, env)
                } else {
                    self.eval(else_branch, env)
                }
            }
            GExpr::LetLoop {
                kind,
                state: _,
                loop_body,
                body,
            } => {
                match kind {
                    LoopKind::Range { var, lo, hi } => {
                        let lo = eval_expr(lo, env, self.ctx)?.as_int()?;
                        let hi = eval_expr(hi, env, self.ctx)?.as_int()?;
                        for i in lo..=hi {
                            // Clone the key only on the first iteration.
                            match env.get_mut(var) {
                                Some(slot) => *slot = Value::Int(i),
                                None => {
                                    env.insert(var.clone(), Value::Int(i));
                                }
                            }
                            self.eval(loop_body, env)?;
                        }
                        env.remove(var);
                    }
                    LoopKind::ForEach { var, collection } => {
                        let coll = eval_expr(collection, env, self.ctx)?;
                        for i in 1..=coll.len() as i64 {
                            let item = coll.index(i)?;
                            match env.get_mut(var) {
                                Some(slot) => *slot = item,
                                None => {
                                    env.insert(var.clone(), item);
                                }
                            }
                            self.eval(loop_body, env)?;
                        }
                        env.remove(var);
                    }
                    LoopKind::While { cond } => {
                        let mut iterations = 0usize;
                        loop {
                            let c = eval_expr(cond, env, self.ctx)?.as_real()?;
                            if c.value() == 0.0 {
                                break;
                            }
                            count_while_iteration(&mut iterations)?;
                            self.eval(loop_body, env)?;
                        }
                    }
                }
                self.eval(body, env)
            }
        }
    }

    fn eval_dist_args(&self, dist: &DistCall, env: &Env<T>) -> Result<Vec<Value<T>>, RuntimeError> {
        dist.args
            .iter()
            .map(|a| eval_expr(a, env, self.ctx))
            .collect()
    }

    fn handle_sample(
        &mut self,
        name: &str,
        dist: &DistCall,
        env: &mut Env<T>,
    ) -> Result<Value<T>, RuntimeError> {
        let args = self.eval_dist_args(dist, env)?;
        match &self.mode {
            Mode::Trace(trace) => {
                let value = trace.get(name).cloned().ok_or_else(|| {
                    RuntimeError::new(format!("trace is missing a value for sample site `{name}`"))
                })?;
                self.score = self.score + tilde_lpdf(&value, &dist.name, &args)?;
                Ok(value)
            }
            Mode::Prior(rng) => {
                let value = self.draw(dist, &args, env, rng, false)?;
                self.score = self.score + tilde_lpdf(&value, &dist.name, &args)?;
                Ok(value)
            }
            Mode::Reparam(rng) => {
                let value = self.draw(dist, &args, env, rng, true)?;
                self.score = self.score + tilde_lpdf(&value, &dist.name, &args)?;
                Ok(value)
            }
        }
    }

    fn draw(
        &self,
        dist: &DistCall,
        args: &[Value<T>],
        env: &Env<T>,
        rng: &Rc<RefCell<StdRng>>,
        reparam: bool,
    ) -> Result<Value<T>, RuntimeError> {
        // Total number of scalar draws implied by the declared shape.
        let mut dims: Vec<i64> = Vec::new();
        for s in &dist.shape {
            dims.push(eval_expr(s, env, self.ctx)?.as_int()?);
        }
        draw_site(&dist.name, args, &dims, rng, reparam)
    }
}

/// Draws a value for a sample site whose distribution arguments and shape
/// dimensions have already been evaluated. Shared by the string-keyed and the
/// slot-resolved interpreters.
pub(crate) fn draw_site<T: Real>(
    dist_name: &str,
    args: &[Value<T>],
    dims: &[i64],
    rng: &Rc<RefCell<StdRng>>,
    reparam: bool,
) -> Result<Value<T>, RuntimeError> {
    let total: i64 = dims.iter().map(|&n| n.max(0)).product();
    let multivariate = matches!(
        dist_name,
        "dirichlet" | "multi_normal" | "multi_normal_diag"
    );
    let mut rng = rng.borrow_mut();
    let mut draw_scalar = |i: usize| -> Result<Value<T>, RuntimeError> {
        // When a distribution argument is a vector of the same length as
        // the site (e.g. `theta ~ normal(mu_vec, sigma)` under the mixed
        // scheme), use the i-th component.
        let elem_args: Vec<DistArg<T>> = args
            .iter()
            .map(|a| -> Result<DistArg<T>, RuntimeError> {
                if a.len() as i64 == total && total > 1 {
                    Ok(DistArg::Scalar(a.as_real_vec()?[i]))
                } else {
                    match a {
                        Value::Vector(_) | Value::IntArray(_) | Value::Array(_) => {
                            Ok(DistArg::Vector(a.as_real_vec()?))
                        }
                        other => Ok(DistArg::Scalar(other.as_real()?)),
                    }
                }
            })
            .collect::<Result<_, _>>()?;
        let di = dist_from_name::<T>(dist_name, &elem_args)?;
        if reparam {
            Ok(reparam_draw(&di, &mut rng))
        } else {
            Ok(match di.sample(&mut *rng)? {
                probdist::SampleValue::Real(x) => Value::Real(T::from_f64(x)),
                probdist::SampleValue::Int(k) => Value::Int(k),
                probdist::SampleValue::Vec(v) => {
                    Value::Vector(v.into_iter().map(T::from_f64).collect())
                }
            })
        }
    };

    if dims.is_empty() || multivariate {
        return draw_scalar(0);
    }
    // Build the shaped container (nested arrays of vectors).
    let flat: Vec<Value<T>> = (0..total as usize)
        .map(draw_scalar)
        .collect::<Result<_, _>>()?;
    Ok(shape_values(&flat, dims))
}

fn shape_values<T: Real>(flat: &[Value<T>], dims: &[i64]) -> Value<T> {
    if dims.len() <= 1 {
        if flat.iter().all(|v| matches!(v, Value::Int(_))) {
            return Value::IntArray(flat.iter().map(|v| v.as_int().unwrap_or(0)).collect());
        }
        return Value::Vector(
            flat.iter()
                .map(|v| v.as_real().unwrap_or_else(|_| T::from_f64(0.0)))
                .collect(),
        );
    }
    let chunk = (flat.len() as i64 / dims[0].max(1)) as usize;
    Value::Array(
        flat.chunks(chunk.max(1))
            .map(|c| shape_values(c, &dims[1..]))
            .collect(),
    )
}

/// Reparameterized draw: the returned value keeps gradient flow into the
/// distribution parameters for location-scale families; other families fall
/// back to an untracked draw.
fn reparam_draw<T: Real>(d: &Dist<T>, rng: &mut StdRng) -> Value<T> {
    match d {
        Dist::Normal { mu, sigma } => {
            let eps = sampling::standard_normal(rng);
            Value::Real(*mu + *sigma * T::from_f64(eps))
        }
        Dist::LogNormal { mu, sigma } => {
            let eps = sampling::standard_normal(rng);
            Value::Real((*mu + *sigma * T::from_f64(eps)).exp())
        }
        Dist::Uniform { lo, hi } => {
            let u: f64 = rng.gen();
            Value::Real(*lo + (*hi - *lo) * T::from_f64(u))
        }
        Dist::Exponential { rate } => {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            Value::Real(-T::from_f64(u.ln()) / *rate)
        }
        other => match other.sample(rng) {
            Ok(probdist::SampleValue::Real(x)) => Value::Real(T::from_f64(x)),
            Ok(probdist::SampleValue::Int(k)) => Value::Int(k),
            Ok(probdist::SampleValue::Vec(v)) => {
                Value::Vector(v.into_iter().map(T::from_f64).collect())
            }
            Err(_) => Value::Real(T::from_f64(0.0)),
        },
    }
}

/// Scores a parameter trace against a GProb body: the sum of all `sample`
/// log-densities, `observe` log-densities and `factor` increments.
///
/// # Errors
/// Fails if the trace is missing a sample site or evaluation fails.
pub fn score_trace<T: Real>(
    body: &GExpr,
    data: &Env<T>,
    trace: &Env<T>,
) -> Result<T, RuntimeError> {
    let ctx = EvalCtx::empty();
    let mut env = data.clone();
    let mut interp = Interp::new(&ctx, Mode::Trace(trace));
    Ok(interp.run(body, &mut env)?.score)
}

/// Runs a GProb body generatively, drawing every `sample` site from its
/// distribution.
///
/// # Errors
/// Fails if evaluation fails (e.g. invalid distribution parameters).
pub fn run_generative<T: Real>(
    body: &GExpr,
    data: &Env<T>,
    ctx: &EvalCtx<T>,
    rng: Rc<RefCell<StdRng>>,
) -> Result<RunResult<T>, RuntimeError> {
    let mut env = data.clone();
    let mut interp = Interp::new(ctx, Mode::Prior(rng));
    interp.run(body, &mut env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stan_frontend::ast::Expr;

    fn coin_comprehensive() -> GExpr {
        // let z = sample(uniform(0,1)) in
        // let () = observe(beta(1,1), z) in
        // for (i in 1:N) observe(bernoulli(z), x[i]) ; return z
        GExpr::LetSample {
            name: "z".into(),
            dist: DistCall::new("uniform", vec![Expr::RealLit(0.0), Expr::RealLit(1.0)]),
            body: Box::new(GExpr::Observe {
                dist: DistCall::new("beta", vec![Expr::RealLit(1.0), Expr::RealLit(1.0)]),
                value: Expr::var("z"),
                body: Box::new(GExpr::LetLoop {
                    kind: LoopKind::Range {
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
        }
    }

    fn coin_data() -> Env<f64> {
        let mut env = Env::new();
        env.insert("N".into(), Value::Int(4));
        env.insert("x".into(), Value::IntArray(vec![1, 0, 1, 1]));
        env
    }

    #[test]
    fn trace_mode_scores_the_coin_model() {
        let body = coin_comprehensive();
        let data = coin_data();
        let mut trace = Env::new();
        trace.insert("z".to_string(), Value::Real(0.7f64));
        let score = score_trace(&body, &data, &trace).unwrap();
        // uniform(0,1) lpdf = 0, beta(1,1) lpdf = 0, bernoulli: 3 heads, 1 tail
        let expect = 3.0 * 0.7f64.ln() + 0.3f64.ln();
        assert!((score - expect).abs() < 1e-12, "{score} vs {expect}");
    }

    #[test]
    fn trace_mode_errors_on_missing_site() {
        let body = coin_comprehensive();
        let data = coin_data();
        let err = score_trace::<f64>(&body, &data, &Env::new()).unwrap_err();
        assert!(err.message().contains("missing a value"));
    }

    #[test]
    fn prior_mode_draws_values_in_support() {
        let body = coin_comprehensive();
        let data = coin_data();
        let ctx = EvalCtx::empty();
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(3)));
        for _ in 0..50 {
            let result = run_generative::<f64>(&body, &data, &ctx, rng.clone()).unwrap();
            let z = result.trace.get("z").unwrap().as_real().unwrap();
            assert!((0.0..=1.0).contains(&z));
            assert!(result.score.is_finite());
            assert_eq!(result.value.as_real().unwrap(), z);
        }
    }

    #[test]
    fn shaped_sample_sites_draw_containers() {
        // let theta = sample(normal(0, 1)) with shape [3]
        let body = GExpr::LetSample {
            name: "theta".into(),
            dist: DistCall::with_shape(
                "normal",
                vec![Expr::RealLit(0.0), Expr::RealLit(1.0)],
                vec![Expr::IntLit(3)],
            ),
            body: Box::new(GExpr::Return(Expr::var("theta"))),
        };
        let ctx = EvalCtx::empty();
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(4)));
        let result = run_generative::<f64>(&body, &Env::new(), &ctx, rng).unwrap();
        match result.trace.get("theta").unwrap() {
            Value::Vector(v) => assert_eq!(v.len(), 3),
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn factor_and_let_det_update_score_and_env() {
        let body = GExpr::LetDet {
            name: "a".into(),
            value: Expr::RealLit(2.5),
            body: Box::new(GExpr::Factor {
                value: Expr::var("a"),
                body: Box::new(GExpr::Return(Expr::var("a"))),
            }),
        };
        let score = score_trace::<f64>(&body, &Env::new(), &Env::new()).unwrap();
        assert_eq!(score, 2.5);
    }

    #[test]
    fn reparam_mode_keeps_gradients() {
        use minidiff::{grad, tape, Var};
        // guide: z ~ normal(m, exp(s))  with learnable m, s
        let body = GExpr::LetSample {
            name: "z".into(),
            dist: DistCall::new(
                "normal",
                vec![
                    Expr::var("m"),
                    Expr::Call("exp".into(), vec![Expr::var("s")]),
                ],
            ),
            body: Box::new(GExpr::Return(Expr::var("z"))),
        };
        tape::reset();
        let m = Var::new(0.3);
        let s = Var::new(-1.0);
        let mut env: Env<Var> = Env::new();
        env.insert("m".into(), Value::Real(m));
        env.insert("s".into(), Value::Real(s));
        let ctx = EvalCtx::empty();
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(5)));
        let mut interp = Interp::new(&ctx, Mode::Reparam(rng));
        let result = interp.run(&body, &mut env).unwrap();
        let z = result.trace.get("z").unwrap().as_real().unwrap();
        let g = grad(z, &[m, s]);
        // dz/dm = 1 for a location-scale reparameterization.
        assert!((g[0] - 1.0).abs() < 1e-12);
        // dz/ds = sigma' * eps = exp(s) * eps = z - m
        assert!((g[1] - (z.value() - 0.3)).abs() < 1e-9);
    }

    #[test]
    fn if_branches_select_on_condition() {
        let body = GExpr::If {
            cond: Expr::Binary(
                stan_frontend::ast::BinOp::Gt,
                Box::new(Expr::var("flag")),
                Box::new(Expr::IntLit(0)),
            ),
            then_branch: Box::new(GExpr::Factor {
                value: Expr::RealLit(1.0),
                body: Box::new(GExpr::Unit),
            }),
            else_branch: Box::new(GExpr::Factor {
                value: Expr::RealLit(-1.0),
                body: Box::new(GExpr::Unit),
            }),
        };
        let mut data = Env::new();
        data.insert("flag".into(), Value::Int(1));
        assert_eq!(score_trace::<f64>(&body, &data, &Env::new()).unwrap(), 1.0);
        data.insert("flag".into(), Value::Int(0));
        assert_eq!(score_trace::<f64>(&body, &data, &Env::new()).unwrap(), -1.0);
    }
}
