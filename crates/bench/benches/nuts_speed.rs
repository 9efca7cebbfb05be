//! Short end-to-end NUTS runs per backend — the sampling-throughput shape
//! behind Table 3 and Table 5.
//!
//! `gprob_mixed` runs the slot-resolved frame runtime through the
//! chain-first `Session` API (one pooled density workspace per chain);
//! `gprob_string_baseline` drives the same NUTS engine through the retained
//! `HashMap<String, _>` density path, isolating the end-to-end effect of
//! compile-time name resolution. `gprob_mixed_4chain_parallel` runs four
//! chains over the Session's default thread count (one workspace per
//! worker) and `gprob_mixed_4chain_1thread` runs them back to back on one
//! thread — on a multicore machine the first should stay well under the
//! second.
//!
//! The `gprob_jit_target` / `gprob_dprog_target` pair drives one identical
//! NUTS harness (`nuts_sample_mut`) through the routed gradient entry
//! (native code when the platform JITs the density program) vs the entry
//! pinned to the interpreted DProg — the end-to-end effect of
//! `gprob::dprog::jit` on sampling wall time, with everything else held
//! fixed. `gprob_mixed` (the `Session` route) should track
//! `gprob_jit_target`.

use criterion::{criterion_group, criterion_main, Criterion};
use deepstan::{DeepStan, Method, NutsSettings};
use gprob::eval::NoExternals;
use gprob::value::Value;
use inference::nuts::{nuts_sample, NutsConfig};
use minidiff::{grad, tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_nuts(c: &mut Criterion) {
    let mut group = c.benchmark_group("nuts_speed");
    group.sample_size(10);
    let settings = NutsSettings {
        warmup: 50,
        samples: 50,
        seed: 1,
        max_depth: 8,
    };
    for name in [
        "coin",
        "kidscore_momhs",
        "eight_schools_centered",
        "garch11",
    ] {
        let entry = model_zoo::find(name).unwrap();
        let program = DeepStan::compile_named(name, entry.source).unwrap();
        let data = entry.dataset(5);
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        group.bench_function(format!("{name}/stan_ref"), |b| {
            b.iter(|| {
                program
                    .session(&data_refs)
                    .unwrap()
                    .reference(true)
                    .run(Method::Nuts(settings.clone()))
                    .unwrap()
            })
        });
        group.bench_function(format!("{name}/gprob_mixed"), |b| {
            b.iter(|| {
                program
                    .session(&data_refs)
                    .unwrap()
                    .run(Method::Nuts(settings.clone()))
                    .unwrap()
            })
        });
        // The same single-chain NUTS run driven through the retained
        // `Var`/tape gradient path: `gprob_mixed` vs this row is the
        // end-to-end effect of the tape-free density programs within one
        // capture.
        group.bench_function(format!("{name}/gprob_tape_target"), |b| {
            b.iter(|| {
                let model = program.bind(&data_refs).unwrap();
                let mut rng = StdRng::seed_from_u64(settings.seed);
                let init = model.initial_unconstrained(&mut rng);
                let mut ws = model.grad_workspace();
                struct TapeTarget<'m> {
                    model: &'m gprob::GModel,
                    ws: &'m mut gprob::GradWorkspace,
                }
                impl inference::GradTargetMut for TapeTarget<'_> {
                    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
                        match self.model.log_density_and_grad_tape_with(self.ws, q, grad) {
                            Ok(lp) => lp,
                            Err(_) => {
                                grad.fill(0.0);
                                f64::NEG_INFINITY
                            }
                        }
                    }
                }
                let config = NutsConfig {
                    warmup: settings.warmup,
                    samples: settings.samples,
                    seed: settings.seed,
                    max_depth: settings.max_depth,
                    ..Default::default()
                };
                let mut target = TapeTarget {
                    model: &model,
                    ws: &mut ws,
                };
                inference::nuts::nuts_sample_mut(&mut target, init, &config)
            })
        });
        // The same NUTS harness over the two density-program entries:
        // routed (JIT-first) vs pinned interpreted. One bound model per
        // iteration keeps the shape identical to `gprob_tape_target`.
        struct DpTarget<'m> {
            model: &'m gprob::GModel,
            ws: &'m mut gprob::GradWorkspace,
            jit: bool,
        }
        impl inference::GradTargetMut for DpTarget<'_> {
            fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
                let r = if self.jit {
                    self.model.log_density_and_grad_with(self.ws, q, grad)
                } else {
                    self.model.log_density_and_grad_dprog_with(self.ws, q, grad)
                };
                match r {
                    Ok(lp) => lp,
                    Err(_) => {
                        grad.fill(0.0);
                        f64::NEG_INFINITY
                    }
                }
            }
        }
        for (row, jit) in [("gprob_jit_target", true), ("gprob_dprog_target", false)] {
            group.bench_function(format!("{name}/{row}"), |b| {
                b.iter(|| {
                    let model = program.bind(&data_refs).unwrap();
                    let mut rng = StdRng::seed_from_u64(settings.seed);
                    let init = model.initial_unconstrained(&mut rng);
                    let mut ws = model.grad_workspace();
                    let config = NutsConfig {
                        warmup: settings.warmup,
                        samples: settings.samples,
                        seed: settings.seed,
                        max_depth: settings.max_depth,
                        ..Default::default()
                    };
                    let mut target = DpTarget {
                        model: &model,
                        ws: &mut ws,
                        jit,
                    };
                    inference::nuts::nuts_sample_mut(&mut target, init, &config)
                })
            });
        }
        // Draws are bitwise identical across the two multi-chain rows.
        for (row, threads) in [
            ("gprob_mixed_4chain_parallel", None),
            ("gprob_mixed_4chain_1thread", Some(1)),
        ] {
            group.bench_function(format!("{name}/{row}"), |b| {
                b.iter(|| {
                    let mut session = program.session(&data_refs).unwrap().chains(4);
                    if let Some(t) = threads {
                        session = session.threads(t);
                    }
                    session.run(Method::Nuts(settings.clone())).unwrap()
                })
            });
        }
        group.bench_function(format!("{name}/gprob_string_baseline"), |b| {
            b.iter(|| {
                let model = program.bind(&data_refs).unwrap();
                let mut rng = StdRng::seed_from_u64(settings.seed);
                let init = model.initial_unconstrained(&mut rng);
                let target = |q: &[f64]| {
                    tape::reset();
                    let vars: Vec<Var> = q.iter().map(|&x| Var::new(x)).collect();
                    match model.log_density_baseline(&vars, &NoExternals) {
                        Ok(lp) => (lp.value(), grad(lp, &vars)),
                        Err(_) => (f64::NEG_INFINITY, vec![0.0; q.len()]),
                    }
                };
                let config = NutsConfig {
                    warmup: settings.warmup,
                    samples: settings.samples,
                    max_depth: settings.max_depth,
                    seed: settings.seed,
                    ..Default::default()
                };
                nuts_sample(&target, init, &config)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nuts);
criterion_main!(benches);
