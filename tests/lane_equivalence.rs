//! Differential suite for the struct-of-arrays lane evaluator of the
//! tape-free density programs (`gprob::dprog`):
//!
//! * across the whole corpus and every scheme, across the loop shapes that
//!   expand at bind time, and across seeded generated rolled-loop programs
//!   (`common::loop_shape`), batched multi-lane evaluation
//!   (`GModel::log_density_and_grad_batch_with`) must be *bitwise* identical
//!   per point to single-lane evaluation, at batch sizes covering every lane
//!   width (2, 4, 8) and ragged remainders (3 = 2+1, 5 = 4+1, 11 = 8+2+1);
//! * the same batches must agree with the `Var`/tape differential oracle —
//!   values to 1e-12, gradients to 1e-10;
//! * declined models batch through the per-point fallback, byte-identically;
//! * the aligned lane register pools must never reallocate across same-shape
//!   batched evaluations (capacities and base pointers pinned);
//! * multi-chain NUTS through the `Session` API must give every chain the
//!   same draws whatever thread it ran on (one chain runs one point per
//!   gradient evaluation, so this pins placement, not lanes);
//! * a proptest over random chain states confirms batch-vs-single bitwise
//!   identity on arbitrary inputs.

use deepstan::{ChainResult, DeepStan, Method, NutsSettings};
use gprob::value::{Env, Value};
use gprob::GModel;
use proptest::prelude::*;
use stan2gprob::{compile, Scheme};
use stan_frontend::parse_program;

mod common;

fn env_of(data: &[(String, Value<f64>)]) -> Env<f64> {
    data.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

fn bind(source: &str, scheme: Scheme, data: &Env<f64>) -> Option<GModel> {
    let ast = parse_program(source).ok()?;
    let compiled = compile(&ast, scheme).ok()?;
    GModel::new(compiled, data.clone()).ok()
}

/// A deterministic batch of `n` unconstrained points of dimension `dim`,
/// spread over a few units around the origin.
fn batch_points(n: usize, dim: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * dim);
    for j in 0..n {
        for i in 0..dim {
            let v = ((j * 31 + i * 17 + 5) % 23) as f64 * 0.13 - 1.4;
            out.push(v);
        }
    }
    out
}

/// Batched lane evaluation vs single-lane DProg (bitwise) vs tape oracle
/// (values to 1e-12, gradients to 1e-10), at every lane width and ragged
/// remainder. Returns the number of points checked.
fn assert_lanes_match(model: &GModel, label: &str) -> usize {
    let mut checked_points = 0;
    let dim = model.dim();
    let mut ws_batch = model.grad_workspace();
    let mut ws_single = model.grad_workspace();
    let mut ws_tape = model.grad_workspace();
    for n in [2usize, 3, 4, 5, 8, 11] {
        let thetas = batch_points(n, dim);
        let mut values = vec![0.0; n];
        let mut grads = vec![0.0; n * dim];
        model
            .log_density_and_grad_batch_with(&mut ws_batch, &thetas, &mut values, &mut grads)
            .unwrap_or_else(|e| panic!("{label}: batch failed: {e:?}"));
        let mut g_single = vec![0.0; dim];
        let mut g_tape = vec![0.0; dim];
        for j in 0..n {
            let theta = &thetas[j * dim..(j + 1) * dim];
            // Bitwise identity against the single-lane DProg entry.
            let lp_single = model
                .log_density_and_grad_with(&mut ws_single, theta, &mut g_single)
                .unwrap();
            assert_eq!(
                values[j].to_bits(),
                lp_single.to_bits(),
                "{label} n={n} point {j}: batch lp {} vs single {}",
                values[j],
                lp_single
            );
            for i in 0..dim {
                assert_eq!(
                    grads[j * dim + i].to_bits(),
                    g_single[i].to_bits(),
                    "{label} n={n} point {j} grad[{i}]: batch {} vs single {}",
                    grads[j * dim + i],
                    g_single[i]
                );
            }
            // Tolerance against the tape differential oracle.
            let lp_tape = model
                .log_density_and_grad_tape_with(&mut ws_tape, theta, &mut g_tape)
                .unwrap();
            if values[j].is_finite() || lp_tape.is_finite() {
                assert!(
                    (values[j] - lp_tape).abs() < 1e-12,
                    "{label} n={n} point {j}: batch lp {} vs tape {}",
                    values[j],
                    lp_tape
                );
                for i in 0..dim {
                    let (x, y) = (grads[j * dim + i], g_tape[i]);
                    let tol = 1e-10 * (1.0 + x.abs().max(y.abs()));
                    assert!(
                        (x - y).abs() < tol,
                        "{label} n={n} point {j} grad[{i}]: batch {x} vs tape {y}"
                    );
                }
            }
            checked_points += 1;
        }
    }
    checked_points
}

/// Batched lane evaluation vs single-lane DProg (bitwise) vs tape oracle
/// (tolerance) across the corpus and the loop shapes that expand at bind
/// time, at every lane width and ragged remainder.
#[test]
fn lane_batches_match_single_lane_bitwise_and_the_tape_oracle() {
    let mut compiled_models = 0;
    let mut checked_points = 0;
    for entry in model_zoo::corpus() {
        if !entry.should_run() {
            continue;
        }
        let data = env_of(&entry.dataset(3));
        for scheme in [Scheme::Comprehensive, Scheme::Mixed, Scheme::Generative] {
            let Some(model) = bind(entry.source, scheme, &data) else {
                continue;
            };
            if model.dprog().is_none() {
                continue;
            }
            compiled_models += 1;
            checked_points += assert_lanes_match(&model, &format!("{} ({scheme:?})", entry.name));
        }
    }
    // Loops expanded at bind time batch like any straight-line program.
    for (label, source, data) in common::loop_expansion_shapes() {
        let model =
            bind(source, Scheme::Mixed, &data).unwrap_or_else(|| panic!("{label}: failed to bind"));
        assert!(model.dprog().is_some(), "{label}: no density program");
        checked_points += assert_lanes_match(&model, label);
    }
    assert!(
        compiled_models >= 15,
        "only {compiled_models} model/scheme pairs compiled a density program"
    );
    assert!(
        checked_points >= 100,
        "only {checked_points} points checked"
    );
}

/// Generated rolled-loop programs (`common::loop_shape`): lanes match
/// single points bitwise and the tape oracle within tolerance.
#[test]
fn generated_loop_shapes_batch_bitwise() {
    for seed in common::LOOP_SHAPE_SEEDS {
        let (label, source, data, _) = common::loop_shape(seed);
        let model = bind(&source, Scheme::Mixed, &data)
            .unwrap_or_else(|| panic!("{label}\nfailed to bind"));
        assert!(model.dprog().is_some(), "{label}\nno density program");
        assert!(
            assert_lanes_match(&model, &label) > 0,
            "{label}\nno point checked"
        );
    }
}

/// Declined models batch through the per-point fallback loop: the batched
/// entry must be byte-identical to single-point tape evaluations.
#[test]
fn declined_models_batch_through_the_per_point_fallback() {
    let src = r#"
        functions { real f(real x) { return x * 2; } }
        data { int N; real y[N]; }
        parameters { real mu; real<lower=0> sigma; }
        model { y ~ normal(f(mu), sigma); }
    "#;
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(3));
    data.insert("y".into(), Value::Vector(vec![0.1, 0.2, 0.3]));
    let model = bind(src, Scheme::Mixed, &data).unwrap();
    assert!(model.dprog().is_none(), "user functions must decline");
    let dim = model.dim();
    let mut ws_batch = model.grad_workspace();
    let mut ws_single = model.grad_workspace();
    for n in [2usize, 3, 5] {
        let thetas = batch_points(n, dim);
        let mut values = vec![0.0; n];
        let mut grads = vec![0.0; n * dim];
        model
            .log_density_and_grad_batch_with(&mut ws_batch, &thetas, &mut values, &mut grads)
            .unwrap();
        let mut g = vec![0.0; dim];
        for j in 0..n {
            let lp = model
                .log_density_and_grad_with(&mut ws_single, &thetas[j * dim..(j + 1) * dim], &mut g)
                .unwrap();
            assert_eq!(values[j].to_bits(), lp.to_bits());
            for i in 0..dim {
                assert_eq!(grads[j * dim + i].to_bits(), g[i].to_bits());
            }
        }
    }
}

/// Same-shape batched evaluations must never reallocate the aligned lane
/// pools: capacities grow once per lane width seen, then stay put.
#[test]
fn lane_register_pools_never_reallocate_across_same_shape_evals() {
    let entry = model_zoo::find("eight_schools_centered").unwrap();
    let data = env_of(&entry.dataset(0));
    let model = bind(entry.source, Scheme::Mixed, &data).unwrap();
    assert!(model.dprog().is_some());
    let dim = model.dim();
    let mut ws = model.grad_workspace();
    // Warm every lane width (8, 4, 2 and the single-point remainder).
    let n = 15;
    let thetas = batch_points(n, dim);
    let mut values = vec![0.0; n];
    let mut grads = vec![0.0; n * dim];
    model
        .log_density_and_grad_batch_with(&mut ws, &thetas, &mut values, &mut grads)
        .unwrap();
    let warm = ws.dprog_capacities().unwrap();
    assert!(warm.2 > 0, "lane pools were never built");
    // Repeat the same-shape evaluation many times: capacities must be frozen.
    for _ in 0..10 {
        model
            .log_density_and_grad_batch_with(&mut ws, &thetas, &mut values, &mut grads)
            .unwrap();
        assert_eq!(
            ws.dprog_capacities().unwrap(),
            warm,
            "lane register pools reallocated on a same-shape evaluation"
        );
    }
    // Smaller batches reuse the already-built lane files too.
    for n in [2usize, 4, 8] {
        let thetas = batch_points(n, dim);
        let mut values = vec![0.0; n];
        let mut grads = vec![0.0; n * dim];
        model
            .log_density_and_grad_batch_with(&mut ws, &thetas, &mut values, &mut grads)
            .unwrap();
        assert_eq!(ws.dprog_capacities().unwrap(), warm);
    }
}

/// Chain placement never changes a chain: across `threads(1)`,
/// `threads(2)` and the default thread count, every chain's draws,
/// gradient-evaluation count and divergences are bitwise identical, and
/// chain `c` equals the single chain of a run seeded `seed + c`. The
/// observer always runs on the calling thread, and with one thread it sees
/// the chains in index order. A model calling a user-defined function
/// covers the tape path.
#[test]
fn session_chains_are_bitwise_independent_of_thread_placement() {
    let settings = NutsSettings {
        warmup: 80,
        samples: 80,
        ..Default::default()
    };
    let user_fn = r#"
        functions { real f(real x) { return x * 2; } }
        data { int N; real y[N]; }
        parameters { real mu; real<lower=0> sigma; }
        model { mu ~ normal(0, 2); sigma ~ lognormal(0, 1); y ~ normal(f(mu), sigma); }
    "#;
    let user_fn_data = vec![
        ("N".to_string(), Value::Int(4)),
        ("y".to_string(), Value::Vector(vec![0.3, -0.2, 1.1, 0.6])),
    ];
    let tape_model = bind(user_fn, Scheme::Mixed, &env_of(&user_fn_data)).unwrap();
    assert!(tape_model.dprog().is_none(), "user functions must decline");
    let mut cases: Vec<_> = [
        "coin",
        "kidscore_momhs",
        "eight_schools_noncentered",
        "garch11",
    ]
    .into_iter()
    .map(|name| {
        let entry = model_zoo::find(name).unwrap();
        (entry.name, entry.source, entry.dataset(0))
    })
    .collect();
    cases.push(("user_function", user_fn, user_fn_data));
    for (name, source, data) in cases {
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let program = DeepStan::compile_named(name, source).unwrap();
        let caller = std::thread::current().id();
        let run = |threads: Option<usize>| {
            let mut session = program.session(&data_refs).unwrap().chains(3).seed(42);
            if let Some(t) = threads {
                session = session.threads(t);
            }
            let mut seen = Vec::new();
            let fit = session
                .run_with_observer(Method::Nuts(settings.clone()), &mut |c, _| {
                    assert_eq!(
                        std::thread::current().id(),
                        caller,
                        "{name}: observer thread"
                    );
                    seen.push(c);
                })
                .unwrap();
            (fit, seen)
        };
        let (base, order) = run(Some(1));
        assert_eq!(
            order,
            [0, 1, 2],
            "{name}: one thread observes in index order"
        );
        for threads in [Some(2), None] {
            let (fit, mut seen) = run(threads);
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2], "{name}: every chain observed once");
            for c in 0..3 {
                assert_same_chain(name, c, &fit.chains[c], &base.chains[c]);
            }
        }
        for c in 0..3 {
            let single = program
                .session(&data_refs)
                .unwrap()
                .chains(1)
                .seed(42 + c as u64)
                .run(Method::Nuts(settings.clone()))
                .unwrap();
            assert_same_chain(name, c, &single.chains[0], &base.chains[c]);
        }
    }
}

fn assert_same_chain(name: &str, c: usize, got: &ChainResult, want: &ChainResult) {
    assert_eq!(got.draws.len(), want.draws.len(), "{name} chain {c}");
    for (g, w) in got.draws.iter().flatten().zip(want.draws.iter().flatten()) {
        assert_eq!(g.to_bits(), w.to_bits(), "{name} chain {c}: {g} vs {w}");
    }
    assert_eq!(got.n_grad_evals, want.n_grad_evals, "{name} chain {c}");
    assert_eq!(got.divergences, want.divergences, "{name} chain {c}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random chain states: batched lane evaluation is bitwise identical to
    /// single-lane evaluation at every batch size, wherever the chains are.
    #[test]
    fn prop_random_chain_states_batch_bitwise_identically(
        n in 2usize..12,
        scale in 0.1f64..3.0,
        shift in -2.0f64..2.0,
    ) {
        let entry = model_zoo::find("kidscore_momiq").unwrap();
        let data = env_of(&entry.dataset(3));
        let model = bind(entry.source, Scheme::Mixed, &data).unwrap();
        prop_assert!(model.dprog().is_some());
        let dim = model.dim();
        let mut thetas = batch_points(n, dim);
        for (k, t) in thetas.iter_mut().enumerate() {
            *t = *t * scale + shift * ((k % 7) as f64 - 3.0) * 0.2;
        }
        let mut ws_batch = model.grad_workspace();
        let mut ws_single = model.grad_workspace();
        let mut values = vec![0.0; n];
        let mut grads = vec![0.0; n * dim];
        model
            .log_density_and_grad_batch_with(&mut ws_batch, &thetas, &mut values, &mut grads)
            .unwrap();
        let mut g = vec![0.0; dim];
        for j in 0..n {
            let lp = model
                .log_density_and_grad_with(&mut ws_single, &thetas[j * dim..(j + 1) * dim], &mut g)
                .unwrap();
            prop_assert_eq!(values[j].to_bits(), lp.to_bits());
            for i in 0..dim {
                prop_assert_eq!(grads[j * dim + i].to_bits(), g[i].to_bits());
            }
        }
    }
}
