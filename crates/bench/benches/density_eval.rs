//! Log-density (and gradient) evaluation throughput: baseline Stan-semantics
//! interpreter vs the compiled GProb runtime — the per-evaluation cost that
//! drives the end-to-end speed comparison of Table 3.
//!
//! The `gprob_*` rows run the slot-resolved frame runtime; the
//! `gprob_*_string_baseline` rows run the retained `HashMap<String, _>`
//! evaluation path on the *same* compiled program, isolating the speedup of
//! compile-time name resolution. The `gprob_*_workspace` rows evaluate
//! through a pooled `DensityWorkspace` / `GradWorkspace` on the `Var`/tape
//! interpreter path (pinned explicitly via `log_density_and_grad_tape_with`
//! since the DProg backend landed). Since the sweep-lowering pass, the
//! workspace rows score element-wise observation loops and vectorized `~`
//! statements through the fused batch kernels; the
//! `gprob_*_scalar_workspace` rows bind the same program *without* lowering
//! (`bind_scalar_with`), isolating the sweep win over the element-by-element
//! configuration those rows used to measure.
//!
//! The `gprob_{grad,value}_dprog` rows evaluate the same workspace
//! configuration through the *interpreted* tape-free density program
//! (`gprob::dprog`, pinned via `log_density_and_grad_dprog_with` since the
//! native backend landed). `gprob_grad_dprog` vs `gprob_grad_workspace` is
//! therefore the tape-free-vs-tape ratio on identical programs.
//!
//! The `gprob_{grad,value}_dprog_jit` rows run the routed entry — the
//! density program JIT-compiled to native x86_64 code
//! (`gprob::dprog::jit`), the route `Session` samplers actually take when
//! the platform compiles it. `gprob_grad_dprog_jit` vs `gprob_grad_dprog`
//! is the native-vs-interpreted ratio the PR 8 acceptance gates on
//! (geomean ≥ 1.3x, scalar-heavy recurrence models ≥ 1.5x).
//!
//! The `gprob_grad_dprog_lanes{2,4,8}` rows score a batch of L distinct
//! unconstrained points through the struct-of-arrays lane evaluator
//! (`GModel::log_density_and_grad_batch_with`) in ONE forward + ONE reverse
//! sweep. Each iteration evaluates the whole batch, so the per-state cost is
//! the reported time divided by L; per-state throughput vs the single-lane
//! `gprob_grad_dprog` row is the lane-scaling ratio the PR 6 acceptance
//! gates on. The `advi_step_{batched,sequential}` rows run the same short
//! ADVI fit through `advi_fit_batch` (all K Monte-Carlo guide draws per step
//! in one multi-lane pass) vs the per-draw `advi_fit_mut` loop.

use std::cell::RefCell;
use std::rc::Rc;

use criterion::{criterion_group, criterion_main, Criterion};
use deepstan::DeepStan;
use gprob::eval::NoExternals;
use gprob::value::Value;
use minidiff::{grad, tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stan2gprob::Scheme;

fn bench_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_eval");
    group.sample_size(20);
    for name in [
        "kidscore_momhs",
        "eight_schools_centered",
        "arK",
        "nes_logit",
        "garch11",
        "arma11",
    ] {
        let entry = model_zoo::find(name).unwrap();
        let program = DeepStan::compile_named(name, entry.source).unwrap();
        let data = entry.dataset(5);
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let gmodel = program.bind(&data_refs).unwrap();
        let scalar_model = program.bind_scalar_with(Scheme::Mixed, &data_refs).unwrap();
        let smodel = program.bind_reference(&data_refs).unwrap();
        let theta = vec![0.1; gmodel.dim()];
        assert!(
            gmodel.dprog().is_some(),
            "{name}: expected a compiled density program"
        );

        group.bench_function(format!("{name}/gprob_grad_dprog"), |b| {
            let mut ws = gmodel.grad_workspace();
            let mut g = vec![0.0; gmodel.dim()];
            b.iter(|| {
                gmodel
                    .log_density_and_grad_dprog_with(&mut ws, std::hint::black_box(&theta), &mut g)
                    .unwrap()
            })
        });
        if gmodel.jit().is_some() {
            group.bench_function(format!("{name}/gprob_grad_dprog_jit"), |b| {
                let mut ws = gmodel.grad_workspace();
                let mut g = vec![0.0; gmodel.dim()];
                b.iter(|| {
                    gmodel
                        .log_density_and_grad_with(&mut ws, std::hint::black_box(&theta), &mut g)
                        .unwrap()
                })
            });
            group.bench_function(format!("{name}/gprob_value_dprog_jit"), |b| {
                let mut ws = gmodel.workspace::<f64>();
                b.iter(|| {
                    gmodel
                        .log_density_f64_with(&mut ws, std::hint::black_box(&theta))
                        .unwrap()
                })
            });
        }
        for lanes in [2usize, 4, 8] {
            group.bench_function(format!("{name}/gprob_grad_dprog_lanes{lanes}"), |b| {
                let dim = gmodel.dim();
                let mut ws = gmodel.grad_workspace();
                // L distinct points spread around the probe point, so every
                // lane does real (and slightly different) constraint work.
                let mut thetas = Vec::with_capacity(lanes * dim);
                for l in 0..lanes {
                    for (i, &t) in theta.iter().enumerate() {
                        thetas.push(t + 0.01 * ((l * 7 + i * 3) % 5) as f64);
                    }
                }
                let mut values = vec![0.0; lanes];
                let mut grads = vec![0.0; lanes * dim];
                b.iter(|| {
                    gmodel
                        .log_density_and_grad_batch_with(
                            &mut ws,
                            std::hint::black_box(&thetas),
                            &mut values,
                            &mut grads,
                        )
                        .unwrap()
                })
            });
        }
        group.bench_function(format!("{name}/gprob_value_dprog"), |b| {
            let mut ws = gmodel.workspace::<f64>();
            b.iter(|| {
                gmodel
                    .log_density_f64_dprog_with(&mut ws, std::hint::black_box(&theta))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/stan_ref_grad"), |b| {
            b.iter(|| {
                smodel
                    .log_density_and_grad(std::hint::black_box(&theta))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_grad"), |b| {
            b.iter(|| {
                gmodel
                    .log_density_and_grad(std::hint::black_box(&theta))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_grad_workspace"), |b| {
            let mut ws = gmodel.grad_workspace();
            let mut g = vec![0.0; gmodel.dim()];
            b.iter(|| {
                gmodel
                    .log_density_and_grad_tape_with(&mut ws, std::hint::black_box(&theta), &mut g)
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_grad_scalar_workspace"), |b| {
            let mut ws = scalar_model.grad_workspace();
            let mut g = vec![0.0; scalar_model.dim()];
            b.iter(|| {
                scalar_model
                    .log_density_and_grad_tape_with(&mut ws, std::hint::black_box(&theta), &mut g)
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_grad_string_baseline"), |b| {
            b.iter(|| {
                tape::reset();
                let vars: Vec<Var> = std::hint::black_box(&theta)
                    .iter()
                    .map(|&x| Var::new(x))
                    .collect();
                let lp = gmodel.log_density_baseline(&vars, &NoExternals).unwrap();
                grad(lp, &vars)
            })
        });
        group.bench_function(format!("{name}/gprob_value_only"), |b| {
            b.iter(|| {
                gmodel
                    .log_density_f64(std::hint::black_box(&theta))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_value_workspace"), |b| {
            let mut ws = gmodel.workspace::<f64>();
            b.iter(|| {
                gmodel
                    .log_density_with(&mut ws, std::hint::black_box(&theta), &NoExternals)
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_value_scalar_workspace"), |b| {
            let mut ws = scalar_model.workspace::<f64>();
            b.iter(|| {
                scalar_model
                    .log_density_with(&mut ws, std::hint::black_box(&theta), &NoExternals)
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_value_string_baseline"), |b| {
            b.iter(|| {
                gmodel
                    .log_density_f64_baseline(std::hint::black_box(&theta))
                    .unwrap()
            })
        });
        // Short ADVI fits, identical config and RNG stream: the batched
        // entry scores all `grad_samples` guide draws per step through one
        // multi-lane pass, the sequential entry loops them one by one.
        let advi_cfg = inference::AdviConfig {
            steps: 25,
            grad_samples: 8,
            lr: 0.05,
            output_samples: 4,
            seed: 11,
            ..Default::default()
        };
        group.bench_function(format!("{name}/advi_step_batched"), |b| {
            let mut target = DProgTarget {
                model: &gmodel,
                ws: gmodel.grad_workspace(),
            };
            b.iter(|| {
                inference::advi_fit_batch(
                    &mut target,
                    gmodel.dim(),
                    std::hint::black_box(&advi_cfg),
                )
            })
        });
        group.bench_function(format!("{name}/advi_step_sequential"), |b| {
            let mut target = DProgTarget {
                model: &gmodel,
                ws: gmodel.grad_workspace(),
            };
            b.iter(|| {
                inference::advi_fit_mut(&mut target, gmodel.dim(), std::hint::black_box(&advi_cfg))
            })
        });
    }
    // Single-point gradients of the small models whose observe sweeps take
    // the hoisted kernels: Bernoulli (coin) and binomial (seeds_binomial)
    // with a scalar probability, normal with a scalar scale
    // (implicit_prior). Interpreted and routed (JIT) rows.
    for name in ["coin", "seeds_binomial", "implicit_prior"] {
        let entry = model_zoo::find(name).unwrap();
        let program = DeepStan::compile_named(name, entry.source).unwrap();
        let data = entry.dataset(5);
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let gmodel = program.bind(&data_refs).unwrap();
        let theta = vec![0.1; gmodel.dim()];
        assert!(
            gmodel.dprog().is_some(),
            "{name}: expected a compiled density program"
        );
        group.bench_function(format!("{name}/gprob_grad_dprog"), |b| {
            let mut ws = gmodel.grad_workspace();
            let mut g = vec![0.0; gmodel.dim()];
            b.iter(|| {
                gmodel
                    .log_density_and_grad_dprog_with(&mut ws, std::hint::black_box(&theta), &mut g)
                    .unwrap()
            })
        });
        if gmodel.jit().is_some() {
            group.bench_function(format!("{name}/gprob_grad_dprog_jit"), |b| {
                let mut ws = gmodel.grad_workspace();
                let mut g = vec![0.0; gmodel.dim()];
                b.iter(|| {
                    gmodel
                        .log_density_and_grad_with(&mut ws, std::hint::black_box(&theta), &mut g)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

/// Minimal inference target over a bound [`gprob::GModel`] for the ADVI step
/// rows: batched evaluation routes through the struct-of-arrays lane
/// evaluator, sequential evaluation through the single-lane DProg entry.
struct DProgTarget<'m> {
    model: &'m gprob::GModel,
    ws: gprob::GradWorkspace,
}

impl inference::GradTargetMut for DProgTarget<'_> {
    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
        match self.model.log_density_and_grad_with(&mut self.ws, q, grad) {
            Ok(lp) => lp,
            Err(_) => {
                grad.fill(0.0);
                f64::NEG_INFINITY
            }
        }
    }
}

impl inference::GradTargetBatch for DProgTarget<'_> {
    fn logp_grad_batch(&mut self, qs: &[f64], logps: &mut [f64], grads: &mut [f64]) {
        if self
            .model
            .log_density_and_grad_batch_with(&mut self.ws, qs, logps, grads)
            .is_err()
        {
            logps.fill(f64::NEG_INFINITY);
            grads.fill(0.0);
        }
    }
}

/// Generated-quantities throughput, per posterior draw: the slot-resolved
/// streaming path (`gq_resolved`, pooled `GqWorkspace`, sweep-lowered rows)
/// vs the same program without lowering (`gq_resolved_scalar`) vs the
/// retained string-keyed statement interpreter (`gq_string_baseline`, which
/// clones the data environment per draw). Acceptance for the predictive
/// engine is `gq_resolved` ≥ 1.5x `gq_string_baseline`.
fn bench_gq(c: &mut Criterion) {
    let mut group = c.benchmark_group("gq_eval");
    group.sample_size(20);
    for name in ["kidscore_momhs", "eight_schools_centered", "seeds_binomial"] {
        let entry = model_zoo::find(name).unwrap();
        let program = DeepStan::compile_named(name, entry.source).unwrap();
        let data = entry.dataset(5);
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let gmodel = program.bind(&data_refs).unwrap();
        let scalar_model = program.bind_scalar_with(Scheme::Mixed, &data_refs).unwrap();
        let theta = vec![0.1; gmodel.dim()];

        group.bench_function(format!("{name}/gq_resolved"), |b| {
            let mut ws = gmodel.gq_workspace().unwrap();
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                gmodel
                    .generated_quantities_into(
                        &mut ws,
                        std::hint::black_box(&theta),
                        false,
                        7,
                        &mut out,
                    )
                    .unwrap();
                out.len()
            })
        });
        group.bench_function(format!("{name}/gq_resolved_scalar"), |b| {
            let mut ws = scalar_model.gq_workspace().unwrap();
            let mut out = Vec::new();
            b.iter(|| {
                out.clear();
                scalar_model
                    .generated_quantities_into(
                        &mut ws,
                        std::hint::black_box(&theta),
                        false,
                        7,
                        &mut out,
                    )
                    .unwrap();
                out.len()
            })
        });
        group.bench_function(format!("{name}/gq_string_baseline"), |b| {
            b.iter(|| {
                gmodel
                    .generated_quantities(
                        std::hint::black_box(&theta),
                        Rc::new(RefCell::new(StdRng::seed_from_u64(7))),
                    )
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_density, bench_gq);
criterion_main!(benches);
