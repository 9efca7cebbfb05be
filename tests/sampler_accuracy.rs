//! The sampler against exact answers: three corpus models whose posteriors
//! have closed forms, fitted as the `fit_corpus` benchmark fits them
//! (2-chain NUTS, 1000 warmup + 1000 draws, max depth 10, inits uniform in
//! `[-1, 1]` on the unconstrained scale, corpus data seed 3) over `K`
//! chain seeds.
//!
//! Per fit, each checked quantity gets a z-score: the error of its
//! posterior-mean estimate in Monte-Carlo standard errors (`sd / √ESS`).
//! An unbiased sampler with honest MCSEs gives z-scores of mean 0, so the
//! mean over `K` fits must sit within 4 of its standard errors of 0. The
//! posterior variance estimate over the exact variance must likewise
//! average 1 within 4 standard errors.
//!
//! - coin: `theta ~ beta(1, 1)`, Bernoulli data — a Beta posterior.
//! - multiple_updates: a normal mean under two normal priors — a normal
//!   posterior with precision `1 + 1/4 + N`.
//! - sum_to_zero_left_expr: `phi ~ normal(0, 1)`, `sum(phi) ~ normal(0,
//!   0.012)`, `y ~ normal(phi, 0.5)` — a Gaussian posterior with precision
//!   `P = 5I + 11ᵀ/0.012²` and mean `P⁻¹·4y`; checked per component and
//!   along the narrow sum direction.
//!
//! Release-only: a debug build takes minutes for these fits (run with
//! `cargo test --release --test sampler_accuracy`).

use deepstan::{DeepStan, Fit, Init, Method, NutsSettings};
use gprob::value::Value;
use inference::diagnostics::multi_ess;

/// Chain seeds per model.
const K: u64 = 40;
/// How many standard errors the mean z-score and the mean variance ratio
/// may sit from their exact values.
const TOL_SE: f64 = 4.0;
const DATA_SEED: u64 = 3;

/// A quantity checked per fit: its draws (one vector per chain), its
/// exact posterior mean and variance.
struct Quantity {
    name: String,
    chains: Vec<Vec<f64>>,
    mean: f64,
    var: f64,
}

fn fit(name: &str, seed: u64) -> (Fit, Vec<(String, Value<f64>)>) {
    let entry = model_zoo::find(name).expect("corpus model");
    let data = entry.dataset(DATA_SEED);
    let refs: Vec<(&str, Value<f64>)> = data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    let program = DeepStan::compile_named(entry.name, entry.source).expect("compiles");
    let fit = program
        .session(&refs)
        .expect("binds")
        .chains(2)
        .init(Init::Random { radius: 1.0 })
        .seed(seed)
        .run(Method::Nuts(NutsSettings {
            warmup: 1000,
            samples: 1000,
            seed,
            max_depth: 10,
        }))
        .expect("fits");
    (fit, data)
}

fn vector(data: &[(String, Value<f64>)], key: &str) -> Vec<f64> {
    data.iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            (k2, Value::Vector(y)) if k2 == key => Some(y.clone()),
            (k2, Value::IntArray(x)) if k2 == key => Some(x.iter().map(|&i| i as f64).collect()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no data `{key}`"))
}

/// Component `j`'s draws, one vector per chain.
fn component(fit: &Fit, j: usize) -> Vec<Vec<f64>> {
    fit.chains
        .iter()
        .map(|c| c.draws.iter().map(|row| row[j]).collect())
        .collect()
}

fn mean_and_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Fits `name` at `K` seeds and checks every quantity `quantities`
/// extracts from a fit; prints one report line per quantity and fails on
/// any that is off.
fn check(name: &str, quantities: impl Fn(&Fit, &[(String, Value<f64>)]) -> Vec<Quantity>) {
    let mut z: Vec<Vec<f64>> = Vec::new();
    let mut ratio: Vec<Vec<f64>> = Vec::new();
    let mut names = Vec::new();
    for seed in 0..K {
        let (fit, data) = fit(name, 1000 + seed);
        let qs = quantities(&fit, &data);
        if z.is_empty() {
            z = vec![Vec::new(); qs.len()];
            ratio = vec![Vec::new(); qs.len()];
            names = qs.iter().map(|q| q.name.clone()).collect();
        }
        for (i, q) in qs.iter().enumerate() {
            let pooled: Vec<f64> = q.chains.iter().flatten().copied().collect();
            let (mean, se_iid) = mean_and_se(&pooled);
            let var = se_iid.powi(2) * pooled.len() as f64;
            let views: Vec<&[f64]> = q.chains.iter().map(Vec::as_slice).collect();
            let mcse = var.sqrt() / multi_ess(&views).sqrt();
            z[i].push((mean - q.mean) / mcse);
            ratio[i].push(var / q.var);
        }
    }
    let mut failures = Vec::new();
    for (i, q) in names.iter().enumerate() {
        let (mz, se_z) = mean_and_se(&z[i]);
        let (mr, se_r) = mean_and_se(&ratio[i]);
        let line = format!(
            "{name} {q}: mean z {mz:+.3} ± {se_z:.3}, variance ratio {mr:.4} ± {se_r:.4} over {K} fits"
        );
        eprintln!("{line}");
        if mz.abs() > TOL_SE * se_z || (mr - 1.0).abs() > TOL_SE * se_r {
            failures.push(line);
        }
    }
    assert!(
        failures.is_empty(),
        "biased estimates:\n{}",
        failures.join("\n")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn coin_matches_its_beta_posterior() {
    check("coin", |fit, data| {
        let x = vector(data, "x");
        let heads: f64 = x.iter().sum();
        let (a, b) = (1.0 + heads, 1.0 + x.len() as f64 - heads);
        vec![Quantity {
            name: "theta".into(),
            chains: component(fit, 0),
            mean: a / (a + b),
            var: a * b / ((a + b).powi(2) * (a + b + 1.0)),
        }]
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn multiple_updates_matches_its_normal_posterior() {
    check("multiple_updates", |fit, data| {
        let y = vector(data, "y");
        let precision = 1.0 + 0.25 + y.len() as f64;
        vec![Quantity {
            name: "phi".into(),
            chains: component(fit, 0),
            mean: y.iter().sum::<f64>() / precision,
            var: 1.0 / precision,
        }]
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run with --release")]
fn sum_to_zero_matches_its_gaussian_posterior() {
    check("sum_to_zero_left_expr", |fit, data| {
        let y = vector(data, "y");
        let n = y.len();
        let nf = n as f64;
        // P = a·I + b·11ᵀ, so P⁻¹ = (I − b/(a + n·b)·11ᵀ)/a.
        let (a, b) = (5.0, 1.0 / (0.001 * nf).powi(2));
        let c = b / (a + nf * b);
        let sum4y: f64 = y.iter().map(|yi| 4.0 * yi).sum();
        let mean: Vec<f64> = y.iter().map(|yi| (4.0 * yi - c * sum4y) / a).collect();
        let mut qs: Vec<Quantity> = (0..n)
            .map(|j| Quantity {
                name: format!("phi[{}]", j + 1),
                chains: component(fit, j),
                mean: mean[j],
                var: (1.0 - c) / a,
            })
            .collect();
        let sums = fit
            .chains
            .iter()
            .map(|ch| ch.draws.iter().map(|row| row.iter().sum()).collect())
            .collect();
        qs.push(Quantity {
            name: "sum(phi)".into(),
            chains: sums,
            mean: mean.iter().sum(),
            var: nf / (a + nf * b),
        });
        qs
    });
}
