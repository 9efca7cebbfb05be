//! Per-layer measurements taken by calling each crate's public functions
//! directly on a workload's models, in the traced run only.
//!
//! * bind phases: `stan_frontend` parse and typecheck, `stan2gprob`
//!   compile (all three schemes, as `DeepStan::compile_named` does), and
//!   the `gprob` bind with its resolve, DProg-lowering and JIT-emit parts;
//! * the density: routed single-point gradients at posterior draws, the
//!   four-lane batch path, and the tape on models the DProg declines;
//! * generated quantities per draw;
//! * single-chain NUTS, whose wall minus `n_grad_evals` times the
//!   single-point gradient cost is the sampler's own work. With two or
//!   more chains the lanes and threads overlap gradient evaluations, so
//!   that subtraction only holds for one chain.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use deepstan::{ChainResult, CompiledProgram, DeepStan, Method, NutsSettings};
use gprob::value::Value;
use gprob::GModel;
use stan2gprob::Scheme;

use crate::report::Metric;
use crate::stats::{geomean, median};
use crate::trace::Span;

/// Repetitions of each bind-phase call; the median is kept.
const BIND_REPS: usize = 5;
/// Posterior draws each model's gradients are timed at.
pub const DRAWS: usize = 8;

/// One model a workload runs, as the probe sees it.
pub struct ProbeModel {
    pub label: String,
    pub source: String,
    pub data: Vec<(String, Value<f64>)>,
    /// NUTS settings the workload fits it with, when it runs NUTS.
    pub nuts: Option<(usize, usize)>,
}

/// Seed of the single-chain attribution runs: fixed, so their gradient
/// evaluation and divergence counts depend on the code alone and repeat
/// exactly from run to run.
const ATTRIBUTION_SEED: u64 = 1;

/// Data bindings in the borrowed form `Session` and `bind_with` take.
pub fn refs(data: &[(String, Value<f64>)]) -> Vec<(&str, Value<f64>)> {
    data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect()
}

/// `DRAWS` evenly spaced draws of a constrained chain, mapped to the
/// unconstrained scale the density takes.
pub fn unconstrained_draws(model: &GModel, chain: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let step = (chain.len() / DRAWS).max(1);
    chain
        .iter()
        .step_by(step)
        .take(DRAWS)
        .map(|row| {
            let mut u = vec![0.0; model.dim()];
            for slot in model.slots() {
                for i in 0..slot.size {
                    u[slot.offset + i] = slot.constraint.to_unconstrained(row[slot.offset + i]);
                }
            }
            u
        })
        .collect()
}

fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Median nanoseconds per call of `eval`, over 9 timed batches that each
/// cycle every point `reps` times.
fn ns_per_eval(points: usize, mut eval: impl FnMut(usize)) -> f64 {
    let reps = 8;
    let mut batches = Vec::with_capacity(9);
    for _ in 0..9 {
        let t = Instant::now();
        for _ in 0..reps {
            for i in 0..points {
                eval(i);
            }
        }
        batches.push(t.elapsed().as_nanos() as f64 / (reps * points) as f64);
    }
    median(&batches)
}

fn bind_histogram_ns(name: &str) -> u64 {
    obs::global().histogram(name).snapshot().sum
}

/// What the probe measured on one model.
#[derive(Default)]
struct ModelRow {
    parse_us: f64,
    typecheck_us: f64,
    compile_us: f64,
    bind_us: f64,
    resolve_us: f64,
    dprog_lower_us: Option<f64>,
    jit_emit_us: Option<f64>,
    jit_code_bytes: usize,
    grad_ns: f64,
    lanes4_ns: Option<f64>,
    tape_ns: Option<f64>,
    gq_us: Option<f64>,
    nuts: Option<NutsRow>,
}

struct NutsRow {
    grad_evals: usize,
    divergences: usize,
    overhead_share: f64,
    overhead_us_per_iter: f64,
}

fn probe_one(m: &ProbeModel) -> Result<ModelRow, String> {
    let group = crate::trace::new_group();
    let root = Span::enter("probe.model", group, 0);
    let mut row = ModelRow::default();
    let data = refs(&m.data);

    let (mut parse, mut check, mut compile, mut bind) = (vec![], vec![], vec![], vec![]);
    let (mut resolve, mut lower, mut emit) = (vec![], vec![], vec![]);
    let mut bound = None;
    for _ in 0..BIND_REPS {
        let (ast, us) = time_us(|| {
            let _s = Span::enter("stan_frontend.parse", group, root.id());
            stan_frontend::parse_program(&m.source)
        });
        let ast = ast.map_err(|e| format!("{}: parse: {e}", m.label))?;
        parse.push(us);
        let (ok, us) = time_us(|| {
            let _s = Span::enter("stan_frontend.typecheck", group, root.id());
            stan_frontend::typecheck(&ast)
        });
        ok.map_err(|e| format!("{}: typecheck: {e}", m.label))?;
        check.push(us);
        let (ok, us) = time_us(|| {
            let _s = Span::enter("stan2gprob.compile", group, root.id());
            let c = stan2gprob::compile(&ast, Scheme::Comprehensive)?;
            let mixed = stan2gprob::compile(&ast, Scheme::Mixed)?;
            let _ = black_box(stan2gprob::compile(&ast, Scheme::Generative));
            Ok::<_, stan2gprob::CompileError>((c, mixed))
        });
        ok.map_err(|e| format!("{}: compile: {e}", m.label))?;
        compile.push(us);

        let program = DeepStan::compile_named(&m.label, &m.source)
            .map_err(|e| format!("{}: compile: {e}", m.label))?;
        let emit_before = bind_histogram_ns("bind.jit_emit_ns");
        let (model, us) = time_us(|| {
            let _s = Span::enter("gprob.bind", group, root.id());
            program.bind_with(Scheme::Mixed, &data)
        });
        let model = model.map_err(|e| format!("{}: bind: {e}", m.label))?;
        bind.push(us);
        if model.jit().is_some() {
            emit.push((bind_histogram_ns("bind.jit_emit_ns") - emit_before) as f64 / 1e3);
        }
        let (resolved, us) = time_us(|| {
            let _s = Span::enter("gprob.resolve", group, root.id());
            gprob::resolve_program(model.program())
        });
        resolve.push(us);
        let frame = resolved.frame_from_env(model.data());
        let (dprog, us) = time_us(|| {
            let _s = Span::enter("gprob.dprog_lower", group, root.id());
            gprob::dprog::compile(model.program(), &resolved, &frame, model.slots())
        });
        if dprog.is_ok() {
            lower.push(us);
        }
        bound = Some((program, model));
    }
    let (program, model) = bound.expect("BIND_REPS > 0");
    row.parse_us = median(&parse);
    row.typecheck_us = median(&check);
    row.compile_us = median(&compile);
    row.bind_us = median(&bind);
    row.resolve_us = median(&resolve);
    row.dprog_lower_us = (!lower.is_empty()).then(|| median(&lower));
    row.jit_emit_us = (!emit.is_empty()).then(|| median(&emit));
    row.jit_code_bytes = model.jit().map_or(0, |j| j.code_len());

    let model = Arc::new(model);
    let (chain, wall_s) = single_chain(m, &program, &model, group, root.id())?;
    let draws = &chain.draws;
    let points = unconstrained_draws(&model, draws);
    let dim = model.dim();
    let mut ws = model.grad_workspace();
    let mut grad = vec![0.0; dim];
    {
        let _s = Span::enter("gprob.grad", group, root.id());
        row.grad_ns = ns_per_eval(points.len(), |i| {
            black_box(model.log_density_and_grad_with(&mut ws, &points[i], &mut grad)).ok();
        });
    }
    if model.dprog().is_some() && !points.is_empty() {
        let _s = Span::enter("gprob.grad_lanes4", group, root.id());
        let thetas: Vec<f64> = (0..4)
            .flat_map(|i| points[i % points.len()].clone())
            .collect();
        let (mut values, mut grads) = (vec![0.0; 4], vec![0.0; 4 * dim]);
        let per_batch = ns_per_eval(1, |_| {
            black_box(model.log_density_and_grad_batch_with(
                &mut ws,
                &thetas,
                &mut values,
                &mut grads,
            ))
            .ok();
        });
        row.lanes4_ns = Some(per_batch / 4.0);
    } else {
        let _s = Span::enter("gprob.grad_tape", group, root.id());
        row.tape_ns = Some(ns_per_eval(points.len(), |i| {
            black_box(model.log_density_and_grad_tape_with(&mut ws, &points[i], &mut grad)).ok();
        }));
    }
    if let Some(mut gq_ws) = model.gq_workspace() {
        let _s = Span::enter("gprob.gq", group, root.id());
        let mut out = Vec::new();
        let rows: Vec<&Vec<f64>> = draws.iter().step_by((draws.len() / DRAWS).max(1)).collect();
        let ns = ns_per_eval(rows.len(), |i| {
            out.clear();
            black_box(
                model.generated_quantities_into(&mut gq_ws, rows[i], true, i as u64, &mut out),
            )
            .ok();
        });
        row.gq_us = Some(ns / 1e3);
    }
    if let Some((warmup, samples)) = m.nuts {
        let overhead_s = wall_s - chain.n_grad_evals as f64 * row.grad_ns * 1e-9;
        row.nuts = Some(NutsRow {
            grad_evals: chain.n_grad_evals,
            divergences: chain.divergences,
            overhead_share: overhead_s / wall_s,
            overhead_us_per_iter: overhead_s * 1e6 / (warmup + samples) as f64,
        });
    }
    Ok(row)
}

/// A single-chain NUTS fit at the workload's settings (the sampler
/// attribution run), or a short one for models the workload does not fit
/// with NUTS; its draws are the posterior points gradients are timed at.
/// Returns the chain and the session wall in seconds.
fn single_chain(
    m: &ProbeModel,
    program: &CompiledProgram,
    model: &Arc<GModel>,
    group: u64,
    parent: u64,
) -> Result<(ChainResult, f64), String> {
    let (warmup, samples) = m.nuts.unwrap_or((200, 200));
    let mut session = program
        .session(&refs(&m.data))
        .map_err(|e| e.to_string())?
        .with_bound_model(Scheme::Mixed, model.clone())
        .chains(1)
        .seed(ATTRIBUTION_SEED);
    let _s = Span::enter("inference.nuts_1chain", group, parent);
    let t = Instant::now();
    let fit = session
        .run(Method::Nuts(NutsSettings {
            warmup,
            samples,
            seed: ATTRIBUTION_SEED,
            max_depth: 10,
        }))
        .map_err(|e| format!("{}: single-chain NUTS: {e}", m.label))?;
    let wall_s = t.elapsed().as_secs_f64();
    let chain = fit.chains.into_iter().next().ok_or("no chain")?;
    Ok((chain, wall_s))
}

/// Runs the probe over a workload's models and returns the per-layer
/// metrics it owns. Metrics with no model to measure them are NaN.
pub fn probe(models: &[ProbeModel]) -> Result<Vec<Metric>, String> {
    let rows: Vec<ModelRow> = models.iter().map(probe_one).collect::<Result<_, _>>()?;
    let n = rows.len() as f64;
    let g = |f: &dyn Fn(&ModelRow) -> Option<f64>| {
        let xs: Vec<f64> = rows.iter().filter_map(f).collect();
        geomean(&xs)
    };
    let nuts: Vec<&NutsRow> = rows.iter().filter_map(|r| r.nuts.as_ref()).collect();
    let note = format!("geomean over {} models", rows.len());
    Ok(vec![
        Metric::new("stan_frontend.parse_us", g(&|r| Some(r.parse_us)), "us").note(&note),
        Metric::new(
            "stan_frontend.typecheck_us",
            g(&|r| Some(r.typecheck_us)),
            "us",
        )
        .note(&note),
        Metric::new("stan2gprob.compile_us", g(&|r| Some(r.compile_us)), "us")
            .note(format!("{note}; three schemes")),
        Metric::new("gprob.bind_us", g(&|r| Some(r.bind_us)), "us").note(&note),
        Metric::new("gprob.resolve_us", g(&|r| Some(r.resolve_us)), "us").note(&note),
        Metric::new("gprob.dprog_lower_us", g(&|r| r.dprog_lower_us), "us")
            .note("geomean over models the DProg accepts"),
        Metric::new("gprob.jit_emit_us", g(&|r| r.jit_emit_us), "us")
            .note("bind.jit_emit span sum around each bind; geomean over JIT models"),
        Metric::new(
            "gprob.dprog_compiled_frac",
            rows.iter().filter(|r| r.dprog_lower_us.is_some()).count() as f64 / n,
            "frac",
        ),
        Metric::new(
            "gprob.jit_compiled_frac",
            rows.iter().filter(|r| r.jit_emit_us.is_some()).count() as f64 / n,
            "frac",
        ),
        Metric::new(
            "gprob.jit_code_bytes",
            rows.iter().map(|r| r.jit_code_bytes).sum::<usize>() as f64,
            "bytes",
        )
        .note("sum over models"),
        Metric::new("gprob.grad_ns", g(&|r| Some(r.grad_ns)), "ns").note(format!(
            "{note}; routed single-point at {DRAWS} posterior draws"
        )),
        Metric::new("gprob.grad_lanes4_ns_per_state", g(&|r| r.lanes4_ns), "ns")
            .note("geomean over DProg models"),
        Metric::new("gprob.grad_tape_ns", g(&|r| r.tape_ns), "ns")
            .note("geomean over models the DProg declines"),
        Metric::new("gprob.gq_us_per_draw", g(&|r| r.gq_us), "us")
            .note("geomean over models with a GQ block"),
        Metric::new(
            "inference.nuts_grad_evals",
            nuts.iter().map(|r| r.grad_evals).sum::<usize>() as f64,
            "count",
        )
        .note(format!("single-chain runs of {} models", nuts.len())),
        Metric::new(
            "inference.nuts_overhead_share",
            median(&nuts.iter().map(|r| r.overhead_share).collect::<Vec<_>>()),
            "frac",
        )
        .note("median over single-chain runs"),
        Metric::new(
            "inference.nuts_overhead_us_per_iter",
            median(
                &nuts
                    .iter()
                    .map(|r| r.overhead_us_per_iter)
                    .collect::<Vec<_>>(),
            ),
            "us",
        )
        .note("median over single-chain runs"),
        Metric::new(
            "inference.divergences",
            nuts.iter().map(|r| r.divergences).sum::<usize>() as f64,
            "count",
        )
        .note("single-chain runs"),
    ])
}
