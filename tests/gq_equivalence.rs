//! Differential suite for the resolved generated-quantities engine:
//!
//! * across every corpus model with a `generated quantities` block, the
//!   slot-resolved streaming path (sweep-lowered AND scalar configurations)
//!   must match the retained string-keyed path and the baseline
//!   `stan_ref::generated_quantities` oracle to 1e-12 — including `_rng`
//!   draws, which all three paths must take identically from identical
//!   seeds;
//! * element-wise sweep arguments lifted to whole columns must be bitwise
//!   what per-element evaluation gives, and the shapes the lift declines
//!   (integer arithmetic, calls) must keep the per-element loop;
//! * the lowering pass must batch the row shapes it claims to (pointwise
//!   `lpdf` accumulation, element-wise `_rng` simulation) and decline the
//!   rest, with the retained scalar loop reproducing declines exactly;
//! * a property test over randomized RNG-free GQ bodies pins lowered and
//!   declined shapes to the string path;
//! * PSIS-LOO over a streamed `log_lik` matrix must agree with the analytic
//!   leave-one-out posterior of a conjugate model, and `loo_compare` must
//!   rank the kidscore variants consistently with WAIC.

use std::cell::RefCell;
use std::rc::Rc;

use deepstan::{DeepStan, ImportanceSettings, Method, NutsSettings};
use gprob::value::{Env, Value};
use gprob::{count_gq_sweeps, GModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stan_ref::StanModel;

fn data_env(data: &[(String, Value<f64>)]) -> Vec<(&str, Value<f64>)> {
    data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect()
}

/// Compares two GQ result environments key by key to 1e-12.
fn assert_env_close(a: &Env<f64>, b: &Env<f64>, what: &str) {
    assert_eq!(
        a.keys().collect::<std::collections::BTreeSet<_>>(),
        b.keys().collect::<std::collections::BTreeSet<_>>(),
        "{what}: output keys differ"
    );
    for (k, va) in a {
        let vb = &b[k];
        let fa = va.as_real_vec().unwrap();
        let fb = vb.as_real_vec().unwrap();
        assert_eq!(fa.len(), fb.len(), "{what}/{k}: shapes differ");
        for (x, y) in fa.iter().zip(&fb) {
            assert!(
                (x - y).abs() < 1e-12 || (x.is_nan() && y.is_nan()),
                "{what}/{k}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn resolved_gq_matches_string_and_stan_ref_across_the_corpus() {
    let mut checked = 0usize;
    for entry in model_zoo::corpus() {
        if !entry.should_run() || !entry.source.contains("generated quantities") {
            continue;
        }
        let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
        let data = entry.dataset(17);
        let refs = data_env(&data);
        let fused = program.bind(&refs).unwrap();
        let scalar = program
            .bind_scalar_with(stan2gprob::Scheme::Mixed, &refs)
            .unwrap();
        let reference = program.bind_reference(&refs).unwrap();
        assert!(fused.resolved_gq().is_some(), "{}", entry.name);

        let dim = fused.dim();
        for (case, scale) in [(0usize, 0.2f64), (1, -0.4), (2, 0.9)] {
            let theta_u: Vec<f64> = (0..dim)
                .map(|i| scale * ((i as f64 * 0.7).sin() + 0.3))
                .collect();
            let seed = 1000 + case as u64;
            let resolved = fused.generated_quantities_resolved(&theta_u, seed).unwrap();
            let resolved_scalar = scalar
                .generated_quantities_resolved(&theta_u, seed)
                .unwrap();
            let string = fused
                .generated_quantities(&theta_u, Rc::new(RefCell::new(StdRng::seed_from_u64(seed))))
                .unwrap();
            let oracle = reference
                .generated_quantities(&theta_u, Rc::new(RefCell::new(StdRng::seed_from_u64(seed))))
                .unwrap();
            assert_env_close(&resolved, &string, entry.name);
            assert_env_close(&resolved_scalar, &string, entry.name);
            assert_env_close(&resolved, &oracle, entry.name);
        }
        checked += 1;
    }
    assert!(checked >= 7, "only {checked} GQ models checked");
}

#[test]
fn corpus_gq_rows_lower_or_decline_as_documented() {
    let sweeps_of = |name: &str| -> usize {
        let entry = model_zoo::find(name).unwrap();
        let program = DeepStan::compile_named(name, entry.source).unwrap();
        let gq = gprob::resolve_gq(&program.mixed).unwrap();
        count_gq_sweeps(&gq.stmts)
    };
    // Pointwise log-lik + rng replication rows both lower.
    assert_eq!(sweeps_of("coin"), 2);
    assert_eq!(sweeps_of("kidscore_momhs"), 2);
    assert_eq!(sweeps_of("kidscore_mom_work"), 2);
    assert_eq!(sweeps_of("seeds_binomial"), 2);
    // Pure log-lik blocks lower their single row; indexed dist args
    // (sigma[j], theta[j]) ride the slice-borrow path.
    assert_eq!(sweeps_of("eight_schools_centered"), 1);
    assert_eq!(sweeps_of("eight_schools_noncentered"), 1);
    assert_eq!(sweeps_of("kidscore_momiq"), 1);
    // The scalar configuration never lowers.
    let entry = model_zoo::find("kidscore_momhs").unwrap();
    let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
    let gq = gprob::resolve_gq_scalar(&program.mixed).unwrap();
    assert_eq!(count_gq_sweeps(&gq.stmts), 0);
}

#[test]
fn declining_shapes_keep_the_scalar_loop_and_its_behavior() {
    // Indirect target index, loop variable as a value, and an aliased
    // argument must all decline to the scalar loop but still agree with the
    // string path.
    let src = r#"
        data { int N; real y[N]; int idx[N]; }
        parameters { real mu; }
        model { mu ~ normal(0, 1); y ~ normal(mu, 1); }
        generated quantities {
          vector[N] a;
          vector[N] b;
          vector[N] c;
          for (i in 1:N) a[idx[i]] = normal_lpdf(y[i] | mu, 1);
          for (i in 1:N) b[i] = normal_lpdf(y[i] | mu + i, 1);
          c[1] = 0;
          for (i in 2:N) c[i] = normal_lpdf(c[i - 1] | mu, 1);
        }
    "#;
    let program = DeepStan::compile(src).unwrap();
    let gq = gprob::resolve_gq(&program.mixed).unwrap();
    assert_eq!(count_gq_sweeps(&gq.stmts), 0, "all three shapes decline");
    let data = vec![
        ("N", Value::Int(4)),
        ("y", Value::Vector(vec![0.1, -0.5, 0.8, 0.3])),
        ("idx", Value::IntArray(vec![4, 3, 2, 1])),
    ];
    let model = program.bind(&data).unwrap();
    let resolved = model.generated_quantities_resolved(&[0.3], 5).unwrap();
    let string = model
        .generated_quantities(&[0.3], Rc::new(RefCell::new(StdRng::seed_from_u64(5))))
        .unwrap();
    assert_env_close(&resolved, &string, "declining shapes");
}

/// Compares two GQ result environments key by key, bitwise (NaN pairs
/// agree whatever their payload).
fn assert_env_bits_eq(a: &Env<f64>, b: &Env<f64>, what: &str) {
    assert_eq!(
        a.keys().collect::<std::collections::BTreeSet<_>>(),
        b.keys().collect::<std::collections::BTreeSet<_>>(),
        "{what}: output keys differ"
    );
    for (k, va) in a {
        let fa = va.as_real_vec().unwrap();
        let fb = b[k].as_real_vec().unwrap();
        assert_eq!(fa.len(), fb.len(), "{what}/{k}: shapes differ");
        for (x, y) in fa.iter().zip(&fb) {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}/{k}: {x} vs {y}"
            );
        }
    }
}

/// The per-element twin of a source: every arithmetic argument of a
/// generated-quantities call is wrapped in `(1 ? e : e)`. The row still
/// lowers to a sweep with an element-wise argument, but the column lift
/// declines ternaries, so the twin evaluates the argument element by
/// element. Returns the twin and the number of arguments wrapped.
fn per_element_twin(src: &str) -> (String, usize) {
    let at = src.find("generated quantities").expect("a GQ block");
    let mut out = src[..at].to_string();
    let mut wrapped = 0;
    for line in src[at..].split_inclusive('\n') {
        let call = line
            .find("= ")
            .and_then(|eq| Some((eq + line[eq..].find('(')?, line.rfind(')')?)));
        let Some((open, close)) = call else {
            out.push_str(line);
            continue;
        };
        out.push_str(&line[..=open]);
        let mut rest = &line[open + 1..close];
        loop {
            let cut = rest.find([',', '|']).unwrap_or(rest.len());
            let arg = rest[..cut].trim();
            if arg.contains(['+', '*', '/']) {
                out.push_str(&format!(" (1 ? {arg} : {arg})"));
                wrapped += 1;
            } else {
                out.push_str(&rest[..cut]);
            }
            if cut == rest.len() {
                break;
            }
            out.push_str(&rest[cut..=cut]);
            rest = &rest[cut + 1..];
        }
        out.push_str(&line[close..]);
    }
    (out, wrapped)
}

/// Element-wise sweep arguments (`alpha + b1 * x1[i] + b2 * x2[i]`) are
/// evaluated once over the whole window as columns. On every corpus GQ
/// model the lifted rows, `_rng` draws included, must be bitwise what the
/// per-element evaluation of the same sweep produces.
#[test]
fn lifted_sweep_arguments_match_the_per_element_path_bitwise() {
    let mut lifted_models = 0usize;
    for entry in model_zoo::corpus() {
        if !entry.should_run() || !entry.source.contains("generated quantities") {
            continue;
        }
        let (twin_src, wrapped) = per_element_twin(entry.source);
        let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
        let twin = DeepStan::compile_named(entry.name, &twin_src).unwrap();
        let sweeps = |p: &deepstan::CompiledProgram| {
            count_gq_sweeps(&gprob::resolve_gq(&p.mixed).unwrap().stmts)
        };
        assert_eq!(
            sweeps(&program),
            sweeps(&twin),
            "{}: the twin must lower the same rows",
            entry.name
        );
        let data = entry.dataset(17);
        let refs = data_env(&data);
        let lifted = program.bind(&refs).unwrap();
        let per_element = twin.bind(&refs).unwrap();
        let dim = lifted.dim();
        for (case, scale) in [(0u64, 0.2f64), (1, -0.4), (2, 0.9)] {
            let theta_u: Vec<f64> = (0..dim)
                .map(|i| scale * ((i as f64 * 0.7).sin() + 0.3))
                .collect();
            let a = lifted
                .generated_quantities_resolved(&theta_u, 50 + case)
                .unwrap();
            let b = per_element
                .generated_quantities_resolved(&theta_u, 50 + case)
                .unwrap();
            assert_env_bits_eq(&a, &b, entry.name);
        }
        if wrapped > 0 {
            lifted_models += 1;
        }
    }
    assert!(
        lifted_models >= 3,
        "only {lifted_models} models lift a column"
    );
}

/// Integer ⊕ integer arithmetic (`n[i] / 2` is integer division) and calls
/// keep the per-element loop; int ⊕ real promotes exactly as the
/// per-element path does. All three rows lower and match the string path.
#[test]
fn column_lift_declines_integer_arithmetic_and_calls() {
    let src = r#"
        data { int N; real y[N]; int n[N]; real x[N]; }
        parameters { real mu; }
        model { mu ~ normal(0, 1); y ~ normal(mu, 1); }
        generated quantities {
          vector[N] a;
          vector[N] b;
          vector[N] c;
          for (i in 1:N) a[i] = normal_lpdf(y[i] | mu + n[i] / 2, 1);
          for (i in 1:N) b[i] = normal_lpdf(y[i] | mu + fabs(x[i]), 1);
          for (i in 1:N) c[i] = normal_lpdf(y[i] | -(mu * x[i]) - n[i] / 2.0, 1);
        }
    "#;
    let program = DeepStan::compile(src).unwrap();
    let gq = gprob::resolve_gq(&program.mixed).unwrap();
    assert_eq!(count_gq_sweeps(&gq.stmts), 3, "all three rows lower");
    let data = vec![
        ("N", Value::Int(4)),
        ("y", Value::Vector(vec![0.1, -0.5, 0.8, 0.3])),
        ("n", Value::IntArray(vec![3, -5, 4, 7])),
        ("x", Value::Vector(vec![-0.7, 0.2, 1.3, -2.1])),
    ];
    let model = program.bind(&data).unwrap();
    let resolved = model.generated_quantities_resolved(&[0.3], 5).unwrap();
    let string = model
        .generated_quantities(&[0.3], Rc::new(RefCell::new(StdRng::seed_from_u64(5))))
        .unwrap();
    assert_env_close(&resolved, &string, "lift declines");
}

#[test]
fn real_rng_draws_into_int_arrays_promote_like_the_scalar_path() {
    // `Value::set_index` promotes an int array to a vector when a real draw
    // lands in it; the lowered rng sweep must decline (before consuming any
    // RNG) so the scalar fallback reproduces that promotion and the exact
    // draw sequence.
    let src = r#"
        data { int N; }
        parameters { real mu; }
        model { mu ~ normal(0, 1); }
        generated quantities {
          int y_rep[N];
          for (i in 1:N) y_rep[i] = normal_rng(mu, 1);
        }
    "#;
    let program = DeepStan::compile(src).unwrap();
    let gq = gprob::resolve_gq(&program.mixed).unwrap();
    assert_eq!(count_gq_sweeps(&gq.stmts), 1, "the shape itself lowers");
    let data = vec![("N", Value::Int(5))];
    let model = program.bind(&data).unwrap();
    let resolved = model.generated_quantities_resolved(&[0.4], 13).unwrap();
    let string = model
        .generated_quantities(&[0.4], Rc::new(RefCell::new(StdRng::seed_from_u64(13))))
        .unwrap();
    assert!(
        matches!(resolved["y_rep"], Value::Vector(_)),
        "promoted to a real vector"
    );
    assert_env_close(&resolved, &string, "int-array promotion");
}

#[test]
fn loo_matches_the_analytic_leave_one_out_posterior() {
    // Beta(1,1)-Bernoulli: the exact leave-one-out predictive is
    // p(x_i | x_{-i}) = (heads_{-i} + 1) / (N + 1).
    let entry = model_zoo::find("coin").unwrap();
    let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
    let data = entry.dataset(3);
    let refs = data_env(&data);
    let xs: Vec<f64> = refs
        .iter()
        .find(|(k, _)| *k == "x")
        .unwrap()
        .1
        .as_real_vec()
        .unwrap();
    let n = xs.len() as f64;
    let heads: f64 = xs.iter().sum();
    let exact: f64 = xs
        .iter()
        .map(|&x| {
            let p1 = (heads - x + 1.0) / (n + 1.0);
            if x == 1.0 {
                p1.ln()
            } else {
                (1.0 - p1).ln()
            }
        })
        .sum();
    let mut session = program.session(&refs).unwrap().chains(2).seed(8);
    let mut fit = session
        .run(Method::Nuts(NutsSettings {
            warmup: 300,
            samples: 500,
            ..Default::default()
        }))
        .unwrap();
    let loo = session.loo(&mut fit).unwrap();
    assert!(
        (loo.elpd - exact).abs() < 0.5,
        "elpd {} vs exact {exact}",
        loo.elpd
    );
    assert!(loo.se.is_finite() && loo.se > 0.0);
    assert!(loo.p_eff > 0.0 && loo.p_eff < 3.0, "p_loo {}", loo.p_eff);
    assert_eq!(loo.khat.len(), xs.len());
    assert!(loo.max_khat() < 0.7, "max khat {}", loo.max_khat());

    // A second corpus model reports healthy criticism too (acceptance: LOO
    // on >= 2 corpus models).
    let entry = model_zoo::find("seeds_binomial").unwrap();
    let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
    let data = entry.dataset(3);
    let mut session = program.session(&data_env(&data)).unwrap().seed(8);
    let mut fit = session
        .run(Method::Importance(ImportanceSettings { particles: 1500 }))
        .unwrap();
    let loo = session.loo(&mut fit).unwrap();
    let w = fit.waic().unwrap();
    assert!(loo.elpd.is_finite() && w.elpd.is_finite());
    assert!(
        (loo.elpd - w.elpd).abs() < 2.0,
        "{} vs {}",
        loo.elpd,
        w.elpd
    );
    assert_eq!(loo.khat.len(), 40);
}

#[test]
fn loo_compare_ranks_kidscore_variants_consistently_with_waic() {
    // Both variants share the regression_1cov dataset; the flat-prior
    // `kidscore_momiq` and the weak-prior `kidscore_momhs` fit the same
    // likelihood, while a deliberately truncated variant (slope forced to
    // zero through its data) fits worse.
    let data = model_zoo::find("kidscore_momhs").unwrap().dataset(21);
    let refs = data_env(&data);
    let fit_model = |name: &str, source: &str| {
        let program = DeepStan::compile_named(name, source).unwrap();
        let mut session = program.session(&refs).unwrap().chains(2).seed(5);
        let mut fit = session
            .run(Method::Nuts(NutsSettings {
                warmup: 300,
                samples: 400,
                ..Default::default()
            }))
            .unwrap();
        let loo = session.loo(&mut fit).unwrap();
        let waic = fit.waic().unwrap();
        (loo, waic)
    };
    let momhs = model_zoo::find("kidscore_momhs").unwrap();
    let (loo_full, waic_full) = fit_model(momhs.name, momhs.source);
    // An intercept-only variant of the same likelihood: strictly less able
    // to explain data generated with a true slope of 2.
    let intercept_only = r#"
        data { int N; real x[N]; real y[N]; }
        parameters { real alpha; real<lower=0> sigma; }
        model {
          alpha ~ normal(0, 10);
          sigma ~ cauchy(0, 5);
          for (i in 1:N) y[i] ~ normal(alpha, sigma);
        }
        generated quantities {
          vector[N] log_lik;
          for (i in 1:N) log_lik[i] = normal_lpdf(y[i] | alpha, sigma);
        }
    "#;
    let (loo_flat, waic_flat) = fit_model("kidscore_intercept", intercept_only);

    let by_loo = deepstan::compare_by_loo(&[
        ("kidscore_momhs", &loo_full),
        ("kidscore_intercept", &loo_flat),
    ]);
    assert_eq!(by_loo[0].name, "kidscore_momhs");
    assert!(by_loo[1].elpd_diff < 0.0);
    assert!(by_loo[1].se_diff > 0.0);
    // WAIC agrees on the ranking.
    let by_waic = inference::loo_compare(&[
        ("kidscore_momhs", &waic_full),
        ("kidscore_intercept", &waic_flat),
    ]);
    assert_eq!(
        by_loo.iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
        by_waic.iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
        "LOO and WAIC must rank the variants identically"
    );
    // The slope model wins decisively (true slope is 2 with sd 1).
    assert!(
        by_loo[1].elpd_diff < -3.0 * by_loo[1].se_diff,
        "diff {} se {}",
        by_loo[1].elpd_diff,
        by_loo[1].se_diff
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Randomized RNG-free GQ bodies: affine rows must lower, value-uses of
    /// the loop variable must decline, and both must match the string path
    /// bit-for-bit (no RNG involved, so exact equality is required).
    #[test]
    fn prop_rng_free_gq_bodies_match_the_string_path(
        n in 2i64..9,
        offset in 0i64..3,
        affine_flag in 0i64..2,
        u in -1.5f64..1.5,
    ) {
        let affine = affine_flag == 1;
        let arg = if affine { "mu + y[i]" } else { "mu + i" };
        let src = format!(
            r#"
            data {{ int N; real y[N]; }}
            parameters {{ real mu; }}
            model {{ mu ~ normal(0, 1); y ~ normal(mu, 1); }}
            generated quantities {{
              vector[N] log_lik;
              for (i in 1:N - {offset}) log_lik[i + {offset}] = normal_lpdf(y[i] | {arg}, 1);
              for (i in 1:{offset}) log_lik[i] = 0;
            }}
            "#
        );
        let program = DeepStan::compile(&src).unwrap();
        let gq = gprob::resolve_gq(&program.mixed).unwrap();
        prop_assert_eq!(count_gq_sweeps(&gq.stmts), usize::from(affine));
        let ys: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let data = vec![("N", Value::Int(n)), ("y", Value::Vector(ys))];
        let model: GModel = program.bind(&data).unwrap();
        let scalar = program
            .bind_scalar_with(stan2gprob::Scheme::Mixed, &data)
            .unwrap();
        let resolved = model.generated_quantities_resolved(&[u], 2).unwrap();
        let unlowered = scalar.generated_quantities_resolved(&[u], 2).unwrap();
        let string = model
            .generated_quantities(&[u], Rc::new(RefCell::new(StdRng::seed_from_u64(2))))
            .unwrap();
        let a = resolved["log_lik"].as_real_vec().unwrap();
        let b = string["log_lik"].as_real_vec().unwrap();
        let c = unlowered["log_lik"].as_real_vec().unwrap();
        prop_assert_eq!(a.len(), b.len());
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            prop_assert!((x - y).abs() < 1e-12, "{} vs {}", x, y);
            prop_assert!((x - z).abs() < 1e-12, "{} vs {}", x, z);
        }
    }
}

/// The reference oracle is exercised against a transformed-parameters
/// replay: `stan_ref` runs the block separately while the compiled paths
/// inline it, and all must agree.
#[test]
fn transformed_parameter_replay_matches_across_paths() {
    let entry = model_zoo::find("eight_schools_noncentered").unwrap();
    let program = DeepStan::compile_named(entry.name, entry.source).unwrap();
    let data = entry.dataset(0);
    let refs = data_env(&data);
    let model = program.bind(&refs).unwrap();
    let reference: StanModel = program.bind_reference(&refs).unwrap();
    let theta_u: Vec<f64> = (0..model.dim()).map(|i| 0.1 * i as f64 - 0.4).collect();
    let resolved = model.generated_quantities_resolved(&theta_u, 7).unwrap();
    let oracle = reference
        .generated_quantities(&theta_u, Rc::new(RefCell::new(StdRng::seed_from_u64(7))))
        .unwrap();
    assert_env_close(&resolved, &oracle, "eight_schools_noncentered");
}
