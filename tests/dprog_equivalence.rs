//! Differential suite for the tape-free density programs (`gprob::dprog`):
//!
//! * across the whole corpus and every scheme, across the loop shapes that
//!   expand at bind time, and across seeded generated rolled-loop programs
//!   (`common::loop_shape`, each one rolled loop op), models whose density
//!   compiles to a DProg must agree with the retained `Var`/tape oracle
//!   *and* the string baseline — values to 1e-12, gradients to 1e-10;
//! * the compiler must compile the shapes it claims to (eight_schools both
//!   variants, the kidscore family, arK's lagged sweep, garch11 / arma11
//!   recurrence loops as loop ops, mesquite's matrix-vector head,
//!   radon_hierarchical's expanded loop) and decline the ones it cannot
//!   (parameter-dependent branches, user-defined function calls,
//!   missing-stdlib CDFs, loops past the expansion budget, rolled loops
//!   past the per-iteration word budget) with a stated reason;
//! * declined models evaluate byte-identically to the tape path (same code
//!   path, pinned here against the oracle);
//! * a proptest over random expression bodies confirms compiling (or
//!   declining) never changes density or gradient.

use gprob::value::{Env, Value};
use gprob::GModel;
use proptest::prelude::*;
use stan2gprob::{compile, Scheme};
use stan_frontend::parse_program;

mod common;

fn probe_points(dim: usize) -> Vec<Vec<f64>> {
    let seeds = [
        vec![0.1, -0.3, 0.7],
        vec![0.5, 0.2, -0.1],
        vec![-0.8, 1.1, 0.4],
        vec![1.5, -1.5, 0.0],
    ];
    seeds
        .iter()
        .map(|p| (0..dim).map(|i| p[i % p.len()]).collect())
        .collect()
}

fn env_of(data: &[(String, Value<f64>)]) -> Env<f64> {
    data.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
}

fn bind(source: &str, scheme: Scheme, data: &Env<f64>) -> Option<GModel> {
    let ast = parse_program(source).ok()?;
    let compiled = compile(&ast, scheme).ok()?;
    GModel::new(compiled, data.clone()).ok()
}

/// Values (DProg pooled path vs interpreter vs string baseline, 1e-12) and
/// gradients (DProg reverse sweep vs the `Var`/tape oracle, 1e-10) at the
/// probe points; returns the number of points whose values were checked.
fn assert_matches_tape(model: &GModel, label: &str) -> usize {
    let mut checked_points = 0;
    let dim = model.dim();
    let mut ws_dprog = model.grad_workspace();
    let mut ws_tape = model.grad_workspace();
    let mut ws_value = model.workspace::<f64>();
    let mut g_dprog = vec![0.0; dim];
    let mut g_tape = vec![0.0; dim];
    for theta in probe_points(dim) {
        // Values: DProg (pooled f64 path) vs interpreter vs string.
        let a = model.log_density_f64_with(&mut ws_value, &theta);
        let b = model.log_density_f64(&theta);
        let c = model.log_density_f64_baseline(&theta);
        match (a, b, c) {
            (Ok(a), Ok(b), Ok(c)) => {
                if a.is_finite() || b.is_finite() || c.is_finite() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{label} at {theta:?}: dprog {a} vs interp {b}"
                    );
                    assert!(
                        (a - c).abs() < 1e-12,
                        "{label} at {theta:?}: dprog {a} vs baseline {c}"
                    );
                }
                checked_points += 1;
            }
            (Err(_), Err(_), Err(_)) => {}
            (a, b, c) => panic!(
                "{label}: value paths diverge: dprog {a:?} vs interp {b:?} vs baseline {c:?}"
            ),
        }
        // Gradients: DProg reverse sweep vs the Var/tape oracle.
        let lp_d = model.log_density_and_grad_with(&mut ws_dprog, &theta, &mut g_dprog);
        let lp_t = model.log_density_and_grad_tape_with(&mut ws_tape, &theta, &mut g_tape);
        match (lp_d, lp_t) {
            (Ok(ld), Ok(lt)) => {
                if ld.is_finite() || lt.is_finite() {
                    assert!(
                        (ld - lt).abs() < 1e-12,
                        "{label}: grad-path lp {ld} vs {lt}"
                    );
                    for (i, (x, y)) in g_dprog.iter().zip(&g_tape).enumerate() {
                        let tol = 1e-10 * (1.0 + x.abs().max(y.abs()));
                        assert!(
                            (x - y).abs() < tol,
                            "{label} grad[{i}]: dprog {x} vs tape {y}"
                        );
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{label}: gradient paths diverge: {a:?} vs {b:?}"),
        }
    }
    checked_points
}

/// DProg vs tape oracle vs string baseline across the corpus and the loop
/// shapes that expand at bind time.
#[test]
fn dprog_densities_and_gradients_match_the_tape_oracle_and_baseline() {
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
            // Every corpus model either compiles or declines with a reason.
            match model.dprog() {
                Some(p) => {
                    assert!(p.n_ops() > 0, "{}: empty program", entry.name);
                    compiled_models += 1;
                }
                None => {
                    let reason = model
                        .dprog_decline()
                        .unwrap_or_else(|| panic!("{}: no decline reason", entry.name))
                        .reason();
                    assert!(!reason.is_empty(), "{}: empty decline reason", entry.name);
                    continue;
                }
            }
            checked_points += assert_matches_tape(&model, &format!("{} ({scheme:?})", entry.name));
        }
    }
    // Loops whose body cannot roll into one loop op expand at bind time:
    // every shape compiles and keeps the op kinds its body asks for. The
    // sweep stays one batched kernel op per non-empty window, and the inner
    // loop of the nested shape one rolled loop op per outer iteration.
    for (label, source, data) in common::loop_expansion_shapes() {
        let model =
            bind(source, Scheme::Mixed, &data).unwrap_or_else(|| panic!("{label}: failed to bind"));
        let p = model
            .dprog()
            .unwrap_or_else(|| panic!("{label} should compile: {:?}", model.dprog_decline()));
        let ops = format!("{p:?}");
        let want = match label {
            "sweep with offset and ragged windows" => Some(("ScoreSweep { kind: Normal", 3)),
            "nested loop with a rolled inner loop" => Some(("Loop {", 4)),
            _ => None,
        };
        if let Some((op, n)) = want {
            assert_eq!(ops.matches(op).count(), n, "{label}: {ops}");
        }
        checked_points += assert_matches_tape(&model, label);
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

/// Generated rolled-loop programs (`common::loop_shape`): each compiles
/// its loop to one rolled loop op and matches the tape oracle.
#[test]
fn generated_loop_shapes_roll_and_match_the_tape() {
    for seed in common::LOOP_SHAPE_SEEDS {
        let (label, source, data, trip) = common::loop_shape(seed);
        let model = bind(&source, Scheme::Mixed, &data)
            .unwrap_or_else(|| panic!("{label}\nfailed to bind"));
        let p = model
            .dprog()
            .unwrap_or_else(|| panic!("{label}\nno density program: {:?}", model.dprog_decline()));
        let loops = format!("{p:?}").matches("Loop {").count();
        assert_eq!(loops, usize::from(trip > 0), "{label}\nloop ops");
        assert_eq!(
            assert_matches_tape(&model, &label),
            probe_points(model.dim()).len(),
            "{label}\na probe point errored"
        );
    }
}

/// Per-model compile / decline assertions.
#[test]
fn corpus_models_compile_or_decline_as_documented() {
    let status = |name: &str, scheme: Scheme| -> Result<(usize, usize), String> {
        let entry = model_zoo::find(name).unwrap();
        let data = env_of(&entry.dataset(3));
        let model = bind(entry.source, scheme, &data)
            .unwrap_or_else(|| panic!("{name} failed to bind under {scheme:?}"));
        match model.dprog() {
            Some(p) => Ok((p.n_ops(), p.n_regs())),
            None => Err(model.dprog_decline().unwrap().reason().to_string()),
        }
    };
    // Both eight_schools variants, the kidscore family, and arK compile.
    for name in [
        "eight_schools_centered",
        "eight_schools_noncentered",
        "kidscore_momhs",
        "kidscore_momiq",
        "kidscore_momhsiq",
        "kidscore_mom_work",
        "arK",
        "coin",
        "nes_logit",
        "seeds_binomial",
        "mesquite",
        "blr",
        "low_dim_gauss_mix",
        "sum_to_zero_left_expr",
    ] {
        for scheme in [Scheme::Mixed, Scheme::Comprehensive] {
            assert!(
                status(name, scheme).is_ok(),
                "{name} should compile under {scheme:?}: {:?}",
                status(name, scheme)
            );
        }
    }
    // Fixed-trip-count recurrence loops compile as loop ops — compactly:
    // the op count must not scale with the data length (N = 80).
    for name in ["garch11", "arma11"] {
        let (ops, _) = status(name, Scheme::Mixed).unwrap();
        assert!(
            ops < 40,
            "{name} should compile compactly via loop ops, got {ops} ops"
        );
    }
    // Parameter-dependent control flow declines at compile time.
    let err = status("multimodal_guide", Scheme::Mixed).unwrap_err();
    assert!(err.contains("branch"), "multimodal_guide: {err}");
    // Missing-stdlib CDF calls decline (the retained path owns the error).
    let err = status("censored_lccdf", Scheme::Mixed).unwrap_err();
    assert!(err.contains("lccdf"), "censored_lccdf: {err}");
    // A sweep nested in a counted loop expands at bind time: one prior
    // site and one sweep per group (J = 8), so the program grows with J.
    let (ops, _) = status("radon_hierarchical", Scheme::Mixed).unwrap();
    assert!(ops < 40, "radon_hierarchical: {ops} ops");
}

/// Bind-time expansion is bounded, since `serve` binds client source: a
/// loop past the iteration bound declines before one iteration is lowered,
/// rolled loops inside an expansion count against that bound too, and an
/// expansion past the op or the register-and-table bound declines part way.
/// Each keeps the tape path.
#[test]
fn over_budget_expansions_decline_and_keep_the_tape() {
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(4200));
    data.insert(
        "y".into(),
        Value::Vector((0..4200).map(|i| (i % 7) as f64 * 0.1).collect()),
    );
    let cases = [
        (
            "for (j in 1:1000000000) { real m; m = mu * j; target += -m * m; }",
            "past 65536 iterations",
            false,
        ),
        (
            "real acc; acc = 0; for (j in 1:300) { real m; m = mu * j; for (t in 1:300) acc = acc + m; } target += -acc * acc;",
            "rolled inside an expanded loop",
            true,
        ),
        (
            "for (j in 1:40000) { real m; m = mu * j; target += -m * m; }",
            "past 65536 ops",
            true,
        ),
        (
            "for (j in 1:1000) { real m; m = mu; y ~ normal(m, 1); }",
            "register and table words",
            false,
        ),
    ];
    for (body, want, evaluate) in cases {
        let src =
            format!("data {{ int N; real y[N]; }} parameters {{ real mu; }} model {{ {body} }}");
        let model = bind(&src, Scheme::Mixed, &data).unwrap();
        assert!(model.dprog().is_none(), "{body}: should decline");
        let reason = model.dprog_decline().unwrap().reason();
        assert!(reason.contains(want), "{body}: {reason}");
        if evaluate {
            let mut ws_a = model.grad_workspace();
            let mut ws_b = model.grad_workspace();
            let (mut ga, mut gb) = (vec![0.0; 1], vec![0.0; 1]);
            let la = model
                .log_density_and_grad_with(&mut ws_a, &[0.4], &mut ga)
                .unwrap();
            let lb = model
                .log_density_and_grad_tape_with(&mut ws_b, &[0.4], &mut gb)
                .unwrap();
            assert_eq!(la.to_bits(), lb.to_bits(), "{body}");
            assert_eq!(ga[0].to_bits(), gb[0].to_bits(), "{body}");
        }
    }
}

/// Rolled loops charge their per-iteration registers before allocating
/// them, since `serve` binds client source: a loop-carried scalar at a
/// hostile trip count, and one whose writes times trip passes `u32`, both
/// decline with a stated reason instead of sizing the register file by the
/// trip or overflowing the register index.
#[test]
fn over_budget_rolled_loops_decline() {
    for (n, body) in [
        (100_000_000i64, "acc = acc + mu;"),
        (1i64 << 31, "acc = acc + mu; acc = 0.5 * acc + mu;"),
    ] {
        let src = format!(
            "data {{ int N; }} parameters {{ real mu; }}
             model {{ real acc; acc = 0; for (i in 1:N) {{ {body} }} target += -acc * acc; }}"
        );
        let mut data: Env<f64> = Env::new();
        data.insert("N".into(), Value::Int(n));
        let model = bind(&src, Scheme::Mixed, &data).unwrap();
        assert!(model.dprog().is_none(), "N = {n}: should decline");
        let reason = model.dprog_decline().unwrap().reason();
        assert!(
            reason.contains("per-iteration register and table words"),
            "N = {n}: {reason}"
        );
    }
}

/// User-defined function calls decline (they evaluate through the
/// interpreted EnvView path).
#[test]
fn user_function_models_decline() {
    let src = r#"
        functions { real f(real x) { return x * 2; } }
        data { int N; real y[N]; }
        parameters { real mu; }
        model { y ~ normal(f(mu), 1); }
    "#;
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(3));
    data.insert("y".into(), Value::Vector(vec![0.1, 0.2, 0.3]));
    let model = bind(src, Scheme::Mixed, &data).unwrap();
    assert!(model.dprog().is_none());
    let reason = model.dprog_decline().unwrap().reason();
    assert!(reason.contains("user-defined"), "{reason}");
    // And the declined model still evaluates through the tape path,
    // identically on both gradient entry points (same code path).
    let mut ws_a = model.grad_workspace();
    let mut ws_b = model.grad_workspace();
    let mut ga = vec![0.0; 1];
    let mut gb = vec![0.0; 1];
    let la = model
        .log_density_and_grad_with(&mut ws_a, &[0.4], &mut ga)
        .unwrap();
    let lb = model
        .log_density_and_grad_tape_with(&mut ws_b, &[0.4], &mut gb)
        .unwrap();
    assert_eq!(la.to_bits(), lb.to_bits());
    assert_eq!(ga[0].to_bits(), gb[0].to_bits());
}

/// A hand-built parameter-dependent `while` loop declines.
#[test]
fn parameter_dependent_while_declines() {
    let src = r#"
        data { int N; real y[N]; }
        parameters { real<lower=0> mu; }
        model {
          real acc;
          acc = mu;
          while (acc < 3) { acc = acc + 1; }
          y ~ normal(acc, 1);
        }
    "#;
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(3));
    data.insert("y".into(), Value::Vector(vec![0.1, 0.2, 0.3]));
    let model = bind(src, Scheme::Mixed, &data).unwrap();
    assert!(model.dprog().is_none(), "while on a parameter must decline");
    assert!(!model.dprog_decline().unwrap().reason().is_empty());
}

/// Out-of-window sweeps decline so the retained path reports the identical
/// runtime error.
#[test]
fn out_of_window_sweeps_decline_and_keep_the_scalar_error() {
    let src = r#"
        data { int N; real y[N]; }
        parameters { real mu; }
        model {
          mu ~ normal(0, 1);
          for (i in 1:N + 2) y[i] ~ normal(mu, 1);
        }
    "#;
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(4));
    data.insert("y".into(), Value::Vector(vec![0.1, 0.2, 0.3, 0.4]));
    let model = bind(src, Scheme::Comprehensive, &data).unwrap();
    assert!(model.dprog().is_none());
    let reason = model.dprog_decline().unwrap().reason();
    assert!(reason.contains("out of bounds"), "{reason}");
    let err = model.log_density_f64(&[0.3]).unwrap_err();
    assert!(err.message().contains("out of bounds"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Random expression bodies: whatever the compiler decides (compile or
    /// decline), density and gradient match the tape oracle.
    #[test]
    fn prop_random_bodies_never_change_density_or_gradient(
        n in 2i64..9,
        shape in 0i64..6,
        u1 in -2.0f64..2.0,
        u2 in -2.0f64..2.0,
    ) {
        let stmt = match shape {
            0 => "y ~ normal(mu + sigma, exp(sigma))",
            1 => "for (i in 1:N) y[i] ~ normal(mu * x[i], sigma + 1)",
            2 => "target += normal_lpdf(y[1] | mu, sigma + 0.5)",
            3 => "y ~ normal(log(fabs(mu) + 1) * to_vector(x), sigma + 0.1)",
            4 => "{ real acc; acc = 0; for (i in 1:N) { acc = acc + mu * x[i]; y[i] ~ normal(acc, sigma + 1); } }",
            _ => "target += log_mix(inv_logit(mu), normal_lpdf(y[1] | 0, 1), normal_lpdf(y[1] | sigma, 1))",
        };
        let src = format!(
            r#"
            data {{ int N; real x[N]; real y[N]; }}
            parameters {{ real mu; real<lower=0> sigma; }}
            model {{
              mu ~ normal(0, 2);
              sigma ~ lognormal(0, 1);
              {stmt};
            }}
            "#
        );
        let mut data: Env<f64> = Env::new();
        data.insert("N".into(), Value::Int(n));
        data.insert(
            "x".into(),
            Value::Vector((0..n).map(|i| 0.3 * i as f64 - 0.7).collect()),
        );
        data.insert(
            "y".into(),
            Value::Vector((0..n).map(|i| 0.41 * i as f64 - 1.1).collect()),
        );
        let model = bind(&src, Scheme::Mixed, &data).unwrap();
        let mut ws_d = model.grad_workspace();
        let mut ws_t = model.grad_workspace();
        let mut gd = vec![0.0; 2];
        let mut gt = vec![0.0; 2];
        for theta in [[u1, u2], [u2, u1]] {
            let ld = model.log_density_and_grad_with(&mut ws_d, &theta, &mut gd).unwrap();
            let lt = model.log_density_and_grad_tape_with(&mut ws_t, &theta, &mut gt).unwrap();
            prop_assert!((ld - lt).abs() < 1e-12, "lp {} vs {}", ld, lt);
            for (a, b) in gd.iter().zip(&gt) {
                let tol = 1e-10 * (1.0 + a.abs().max(b.abs()));
                prop_assert!((a - b).abs() < tol, "grad {} vs {}", a, b);
            }
        }
    }
}
