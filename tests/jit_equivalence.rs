//! Differential suite for the native x86_64 density-program backend
//! (`gprob::dprog::jit`):
//!
//! * across the whole corpus and every scheme, across the loop shapes that
//!   expand at bind time, and across seeded generated rolled-loop programs
//!   (`common::loop_shape`), models whose density program JIT-compiles
//!   must produce **bitwise identical** values and gradients to the
//!   interpreted DProg at every probe point — same IEEE operations in the
//!   same order is the emitter's contract, not an approximation;
//! * with their data replicated to a few thousand rows, kidscore_momhs and
//!   garch11 compile to native code of one size at every N (the emitted
//!   loops are rolled, so code follows the program, not the data);
//! * the models the emitter claims to support must actually compile to
//!   native code (both eight_schools variants, the kidscore family, arK,
//!   the garch11 / arma11 recurrence loops, coin, nes_logit, and
//!   radon_hierarchical's loop expanded at bind time);
//! * models whose density program declines keep the tape path bitwise, and
//!   the JIT decline states a reason;
//! * repeated evaluation never reallocates the executable page (the code
//!   pointer and length are pinned across evaluations);
//! * the reverse pass's adjoint register cache stays bitwise at its edges
//!   (more hot slots than registers, a slot on both operands, a cached
//!   slot read as a seed, zero and NaN seeds, wide matrix-vector
//!   products);
//! * a proptest over random expression bodies confirms the native and
//!   interpreted programs never diverge by a single bit.
//!
//! The suite is environment-aware: under `GPROB_JIT=0` (or on a target
//! without the emitter) it instead asserts the graceful-decline contract —
//! every model declines with a stated reason and evaluates through the
//! interpreter unchanged. CI runs the same binary both ways.

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

/// Whether this process expects native compilation to succeed at all.
/// Declining (`GPROB_JIT=0` or an unsupported target) is itself a contract
/// the suite checks, so the expectations branch rather than skip.
fn jit_expected() -> bool {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return false;
    }
    match std::env::var("GPROB_JIT") {
        Ok(v) => v != "0" && v != "off",
        Err(_) => true,
    }
}

fn assert_bits_eq(a: f64, b: f64, what: &std::fmt::Arguments) {
    if a.is_nan() && b.is_nan() {
        return;
    }
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: jit {a} ({:#018x}) vs interpreted {b} ({:#018x})",
        a.to_bits(),
        b.to_bits()
    );
}

/// Routed (JIT-first) vs pinned interpreted DProg at the probe points:
/// values and gradients bitwise (NaN pairs agree whatever their payload).
/// Returns the number of points whose gradients were checked.
fn assert_jit_matches_interpreter(model: &GModel, label: &str) -> usize {
    let mut checked_points = 0;
    let dim = model.dim();
    let mut ws_jit = model.grad_workspace();
    let mut ws_int = model.grad_workspace();
    let mut wsv_jit = model.workspace::<f64>();
    let mut wsv_int = model.workspace::<f64>();
    let mut g_jit = vec![0.0; dim];
    let mut g_int = vec![0.0; dim];
    for theta in probe_points(dim) {
        let va = model.log_density_f64_with(&mut wsv_jit, &theta);
        let vb = model.log_density_f64_dprog_with(&mut wsv_int, &theta);
        match (va, vb) {
            (Ok(a), Ok(b)) => assert_bits_eq(a, b, &format_args!("{label} value at {theta:?}")),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{label}: value paths diverge: {a:?} vs {b:?}"),
        }
        let la = model.log_density_and_grad_with(&mut ws_jit, &theta, &mut g_jit);
        let lb = model.log_density_and_grad_dprog_with(&mut ws_int, &theta, &mut g_int);
        match (la, lb) {
            (Ok(a), Ok(b)) => {
                assert_bits_eq(a, b, &format_args!("{label} grad-lp at {theta:?}"));
                for (i, (x, y)) in g_jit.iter().zip(&g_int).enumerate() {
                    assert_bits_eq(*x, *y, &format_args!("{label} grad[{i}] at {theta:?}"));
                }
                checked_points += 1;
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{label}: gradient paths diverge: {a:?} vs {b:?}"),
        }
    }
    checked_points
}

/// Routed (JIT-first) vs pinned interpreted DProg across the corpus and the
/// loop shapes that expand at bind time: values and gradients bitwise.
#[test]
fn jit_densities_and_gradients_match_the_interpreter_bitwise() {
    let expect_jit = jit_expected();
    let mut jitted_models = 0;
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
                // No interpreted program → nothing to JIT; the decline must
                // say so and the tape path is covered by dprog_equivalence.
                let reason = model
                    .jit_decline()
                    .unwrap_or_else(|| panic!("{}: no jit decline reason", entry.name))
                    .reason();
                assert!(!reason.is_empty(), "{}: empty jit decline", entry.name);
                continue;
            }
            match model.jit() {
                Some(j) => {
                    assert!(expect_jit, "{}: jit compiled while disabled", entry.name);
                    assert!(j.code_len() > 0, "{}: empty code buffer", entry.name);
                    jitted_models += 1;
                }
                None => {
                    let reason = model
                        .jit_decline()
                        .unwrap_or_else(|| panic!("{}: no jit decline reason", entry.name))
                        .reason();
                    assert!(!reason.is_empty(), "{}: empty jit decline", entry.name);
                    if !expect_jit {
                        // Disabled / unsupported: the routed path must be the
                        // interpreter, checked below all the same.
                    }
                }
            }
            checked_points +=
                assert_jit_matches_interpreter(&model, &format!("{} ({scheme:?})", entry.name));
        }
    }
    // Loops expanded at bind time compile to native code like any
    // straight-line program.
    for (label, source, data) in common::loop_expansion_shapes() {
        let model =
            bind(source, Scheme::Mixed, &data).unwrap_or_else(|| panic!("{label}: failed to bind"));
        assert!(model.dprog().is_some(), "{label}: no density program");
        assert_eq!(model.jit().is_some(), expect_jit, "{label}: jit");
        assert_eq!(
            assert_jit_matches_interpreter(&model, label),
            probe_points(model.dim()).len(),
            "{label}: a probe point errored"
        );
    }
    if expect_jit {
        assert!(
            jitted_models >= 15,
            "only {jitted_models} model/scheme pairs compiled to native code"
        );
    } else {
        assert_eq!(jitted_models, 0, "jit compiled while declined globally");
    }
    assert!(
        checked_points >= 100,
        "only {checked_points} points checked"
    );
}

/// Generated rolled-loop programs (`common::loop_shape`): each compiles to
/// native code and matches the interpreter bitwise at every probe point.
#[test]
fn generated_loop_shapes_match_the_interpreter_bitwise() {
    for seed in common::LOOP_SHAPE_SEEDS {
        let (label, source, data, _) = common::loop_shape(seed);
        let model = bind(&source, Scheme::Mixed, &data)
            .unwrap_or_else(|| panic!("{label}\nfailed to bind"));
        assert!(
            model.dprog().is_some(),
            "{label}\nno density program: {:?}",
            model.dprog_decline()
        );
        assert_eq!(
            model.jit().is_some(),
            jit_expected(),
            "{label}\njit: {:?}",
            model.jit_decline()
        );
        assert_eq!(
            assert_jit_matches_interpreter(&model, &label),
            probe_points(model.dim()).len(),
            "{label}\na probe point errored"
        );
    }
}

/// Data-scaled pins: with their data replicated, kidscore_momhs (span ops)
/// and garch11 (a rolled recurrence) compile to native code at every N,
/// emit the same code at every N (rolled code is sized by the program, not
/// the data), and match the interpreter bitwise.
#[test]
fn data_scaled_models_keep_one_code_size_and_match_the_interpreter() {
    for (name, sizes) in [
        ("kidscore_momhs", [60, 1280, 15360]),
        ("garch11", [80, 1280, 5120]),
    ] {
        let entry = model_zoo::find(name).unwrap();
        let base = entry.dataset(3);
        let mut code_lens = Vec::new();
        for n in sizes {
            let label = format!("{name} at N = {n}");
            let data = env_of(&model_zoo::data::replicated(&base, n));
            let model = bind(entry.source, Scheme::Mixed, &data)
                .unwrap_or_else(|| panic!("{label}: failed to bind"));
            assert!(model.dprog().is_some(), "{label}: no density program");
            assert_eq!(
                model.jit().is_some(),
                jit_expected(),
                "{label}: jit {:?}",
                model.jit_decline()
            );
            code_lens.extend(model.jit().map(|j| j.code_len()));
            assert_eq!(
                assert_jit_matches_interpreter(&model, &label),
                probe_points(model.dim()).len(),
                "{label}: a probe point errored"
            );
        }
        assert!(
            code_lens.windows(2).all(|w| w[0] == w[1]),
            "{name}: code size moved with N: {code_lens:?}"
        );
    }
}

/// Per-model native-compilation assertions: the shapes the emitter supports
/// must compile, end to end, when the environment allows JIT at all.
#[test]
fn supported_corpus_models_compile_to_native_code() {
    let expect_jit = jit_expected();
    for name in [
        "eight_schools_centered",
        "eight_schools_noncentered",
        "kidscore_momhs",
        "kidscore_momiq",
        "kidscore_momhsiq",
        "kidscore_mom_work",
        "arK",
        "garch11",
        "arma11",
        "coin",
        "nes_logit",
        "seeds_binomial",
        "mesquite",
        "blr",
        "radon_hierarchical",
    ] {
        let entry = model_zoo::find(name).unwrap();
        let data = env_of(&entry.dataset(3));
        let model = bind(entry.source, Scheme::Mixed, &data)
            .unwrap_or_else(|| panic!("{name} failed to bind"));
        assert!(model.dprog().is_some(), "{name}: no density program");
        if expect_jit {
            assert!(
                model.jit().is_some(),
                "{name} should JIT-compile: {:?}",
                model.jit_decline().map(|d| d.reason().to_string())
            );
        } else {
            assert!(model.jit().is_none());
            let reason = model.jit_decline().unwrap().reason();
            assert!(!reason.is_empty(), "{name}: empty decline reason");
        }
    }
}

/// A model whose density program declines also declines the JIT — with a
/// reason that points at the missing program — and evaluates through the
/// tape path bitwise on both gradient entry points.
#[test]
fn declined_density_programs_decline_the_jit_and_keep_the_tape_path() {
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
    assert!(model.jit().is_none());
    let reason = model.jit_decline().unwrap().reason();
    assert!(reason.contains("no density program"), "{reason}");
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

/// Repeated evaluation through one bound model: the executable page is
/// mapped once at bind time and never reallocated — its address and length
/// are stable across evaluations, and results are deterministic bit for bit.
#[test]
fn repeated_evaluation_never_reallocates_the_code_page() {
    if !jit_expected() {
        return;
    }
    let entry = model_zoo::find("eight_schools_noncentered").unwrap();
    let data = env_of(&entry.dataset(3));
    let model = bind(entry.source, Scheme::Mixed, &data).unwrap();
    let jit = model.jit().expect("eight_schools_noncentered should JIT");
    let (ptr0, len0) = (jit.code_ptr(), jit.code_len());
    let dim = model.dim();
    let theta: Vec<f64> = (0..dim).map(|i| 0.3 * i as f64 - 0.8).collect();
    let mut ws = model.grad_workspace();
    let mut g = vec![0.0; dim];
    let lp0 = model
        .log_density_and_grad_with(&mut ws, &theta, &mut g)
        .unwrap();
    let g0 = g.clone();
    for _ in 0..50 {
        let lp = model
            .log_density_and_grad_with(&mut ws, &theta, &mut g)
            .unwrap();
        assert_eq!(lp.to_bits(), lp0.to_bits());
        for (a, b) in g.iter().zip(&g0) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let jit = model.jit().unwrap();
        assert_eq!(jit.code_ptr(), ptr0, "code page moved");
        assert_eq!(jit.code_len(), len0, "code length changed");
    }
}

/// The reverse pass keeps repeatedly bumped adjoints in registers
/// (xmm8..xmm15, at most 8 per region). Each body below aims one region at
/// an edge of that cache; every one must stay bitwise equal to the
/// interpreter:
///
/// * a call-free loop bumping 10 broadcast scalars N times each (more hot
///   slots than cache registers), next to a 10-column matrix-vector
///   product;
/// * one span as both operands of a multiply and of a dot product;
/// * a loop-carried accumulator used twice per trip, so its cached slots
///   are also read as the seeds of the previous trip;
/// * zero and NaN seeds through the zero-guards: a data weight with zeros
///   and a NaN skips or poisons elements, and `sqrt` of a sign-changing
///   product yields NaN partials.
#[test]
fn adjoint_register_cache_regions_match_the_interpreter_bitwise() {
    let n = 11usize;
    let k = 10usize;
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(n as i64));
    data.insert("K".into(), Value::Int(k as i64));
    data.insert(
        "x".into(),
        Value::Vector((0..n).map(|i| 0.3 * i as f64 - 0.7).collect()),
    );
    data.insert(
        "y".into(),
        Value::Vector((0..n).map(|i| 0.41 * i as f64 - 1.1).collect()),
    );
    let mut w: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 - 1.0).collect();
    w[0] = 0.0;
    w[3] = -0.0;
    w[7] = 0.0;
    let mut z = w.clone();
    z[5] = f64::NAN;
    data.insert("w".into(), Value::Vector(w));
    data.insert("z".into(), Value::Vector(z));
    data.insert(
        "X".into(),
        Value::Array(
            (0..n)
                .map(|r| Value::Vector((0..k).map(|c| 0.07 * (r * k + c) as f64 - 3.0).collect()))
                .collect(),
        ),
    );
    let bodies = [
        (
            "overflow",
            "parameters { real b1; real b2; real b3; real b4; real b5; real b6; real b7; real b8; real b9; real b10; vector[K] beta; real<lower=0> sigma; }",
            "{ real acc; acc = 0; for (i in 1:N) acc = acc + b1 * x[i] + b2 * x[i] + b3 * x[i] + b4 * x[i] + b5 * x[i] + b6 * x[i] + b7 * x[i] + b8 * x[i] + b9 * x[i] + b10 * x[i]; target += -0.01 * acc * acc; }
             y ~ normal(X * beta, sigma);",
        ),
        (
            "same slot, both operands",
            "parameters { vector[N] v; real mu; }",
            "target += -0.5 * sum(v .* v); target += -0.25 * dot_self(v); target += -dot_self(mu * to_vector(x) + mu);",
        ),
        (
            "cached seed",
            "parameters { real mu; real<lower=0> sigma; }",
            "{ real acc; acc = 0; for (i in 1:N) acc = acc * x[i] + acc * mu + sigma; target += -acc * acc; }",
        ),
        (
            "zero and NaN seeds",
            "parameters { real mu; real tau; real<lower=0> sigma; }",
            "target += sum(w .* exp(tau * to_vector(x) + sigma)); target += sum(z .* exp(mu * to_vector(x))); target += sum(sqrt(mu * to_vector(x)));",
        ),
    ];
    for (label, params, body) in bodies {
        let src = format!(
            "data {{ int N; int K; real x[N]; real y[N]; vector[N] w; vector[N] z; matrix[N, K] X; }}
             {params}
             model {{ {body} }}"
        );
        let model =
            bind(&src, Scheme::Mixed, &data).unwrap_or_else(|| panic!("{label}: failed to bind"));
        assert!(model.dprog().is_some(), "{label}: no density program");
        assert_eq!(model.jit().is_some(), jit_expected(), "{label}: jit");
        assert_eq!(
            assert_jit_matches_interpreter(&model, label),
            probe_points(model.dim()).len(),
            "{label}: a probe point errored"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    /// Random expression bodies: the routed (JIT-first) and pinned
    /// interpreted gradient paths agree bit for bit, whatever the emitter
    /// decided about the body.
    #[test]
    fn prop_random_bodies_jit_matches_interpreter_bitwise(
        n in 2i64..12,
        shape in 0i64..10,
        u1 in -2.0f64..2.0,
        u2 in -2.0f64..2.0,
    ) {
        let stmt = match shape {
            0 => "y ~ normal(mu + sigma, exp(sigma))",
            1 => "for (i in 1:N) y[i] ~ normal(mu * x[i], sigma + 1)",
            2 => "target += normal_lpdf(y[1] | mu, sigma + 0.5)",
            3 => "y ~ normal(log(fabs(mu) + 1) * to_vector(x), sigma + 0.1)",
            4 => "{ real acc; acc = 0; for (i in 1:N) { acc = acc + mu * x[i]; y[i] ~ normal(acc, sigma + 1); } }",
            // Adjoint-cache regions: a call-free loop whose accumulator is
            // both bumped and seed-read, zero seeds (floor(x) hits 0), NaN
            // seeds (sqrt of a sign-changing product), one span as both
            // dot operands.
            6 => "{ real acc; acc = 0; for (i in 1:N) acc = acc * x[i] + acc * mu + sigma; target += -acc * acc; }",
            7 => "target += sum(floor(to_vector(x)) .* exp(mu * to_vector(x) + sigma))",
            8 => "target += sum(sqrt(mu * to_vector(x) + sigma))",
            9 => "target += -dot_self(mu * to_vector(x) + sigma)",
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
        let mut ws_j = model.grad_workspace();
        let mut ws_i = model.grad_workspace();
        let mut gj = vec![0.0; 2];
        let mut gi = vec![0.0; 2];
        for theta in [[u1, u2], [u2, u1]] {
            let lj = model.log_density_and_grad_with(&mut ws_j, &theta, &mut gj).unwrap();
            let li = model.log_density_and_grad_dprog_with(&mut ws_i, &theta, &mut gi).unwrap();
            prop_assert!(
                lj.to_bits() == li.to_bits() || (lj.is_nan() && li.is_nan()),
                "lp {} vs {}", lj, li
            );
            for (a, b) in gj.iter().zip(&gi) {
                prop_assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "grad {} vs {}", a, b
                );
            }
        }
    }
}
