//! Shared harness code for the benchmark binaries that regenerate the
//! paper's tables and figures.
//!
//! The binaries in `src/bin/` print the same rows/series as the paper:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_features`   | Table 1 — prevalence of non-generative features |
//! | `table2_generality` | Table 2 — successful 1-iteration inference runs |
//! | `table3_posteriordb`| Table 3 — accuracy ✓/❍/✗, durations, speedups |
//! | `table4_accuracy`   | Table 4 — mean relative error per model/scheme |
//! | `table5_speed`      | Table 5 — mean(std) duration over seeded runs |
//! | `fig10_multimodal`  | Figure 10 — posterior histograms (NUTS, VI, ADVI) |
//! | `rq5_vae`           | Section 6.2 — VAE pairwise-F1 clustering |
//! | `rq5_bnn`           | Section 6.2 — Bayesian MLP accuracy & agreement |
//!
//! Iteration counts are scaled by the `DEEPSTAN_SCALE` environment variable
//! (default 1.0); use e.g. `DEEPSTAN_SCALE=0.2` for a quick smoke run.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use deepstan::{DeepStan, Method, NutsSettings, Posterior};
use gprob::value::Value;
use inference::diagnostics::accuracy_pass;
use model_zoo::{ExpectedFailure, ModelEntry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stan2gprob::Scheme;

/// A backend configuration evaluated in the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Baseline: Stan semantics interpreter (the paper's "Stan" column).
    StanRef,
    /// GProb runtime, comprehensive scheme (the paper's NumPyro Compr.).
    GProbComprehensive,
    /// GProb runtime, mixed scheme.
    GProbMixed,
    /// GProb runtime, generative scheme (when available).
    GProbGenerative,
}

impl BackendKind {
    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::StanRef => "Stan(ref)",
            BackendKind::GProbComprehensive => "Compr.",
            BackendKind::GProbMixed => "Mixed",
            BackendKind::GProbGenerative => "Gener.",
        }
    }

    /// All backends, in table order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::StanRef,
            BackendKind::GProbComprehensive,
            BackendKind::GProbMixed,
            BackendKind::GProbGenerative,
        ]
    }
}

/// Result of running one backend on one model.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Whether sampling completed.
    pub ok: bool,
    /// Error message when it did not.
    pub error: Option<String>,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Posterior (when sampling completed).
    pub posterior: Option<Posterior>,
}

/// Global iteration scaling from the `DEEPSTAN_SCALE` environment variable.
pub fn scale() -> f64 {
    std::env::var("DEEPSTAN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales an iteration count, keeping a sensible minimum.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(20)
}

/// NUTS settings used for the backend columns.
pub fn backend_settings(seed: u64, cost: u32) -> NutsSettings {
    let divisor = cost.max(1) as usize;
    NutsSettings {
        warmup: scaled(300 / divisor + 50),
        samples: scaled(600 / divisor + 100),
        seed,
        max_depth: 10,
    }
}

/// NUTS settings used to build the reference posterior (longer run, like the
/// PosteriorDB references).
pub fn reference_settings(seed: u64, cost: u32) -> NutsSettings {
    let s = backend_settings(seed, cost);
    NutsSettings {
        warmup: s.warmup * 2,
        samples: s.samples * 2,
        seed: seed + 1000,
        ..s
    }
}

/// Seed of the one data set every table run fits per model, so runs of
/// different backends and chain seeds see the same observations.
pub const DATA_SEED: u64 = 3;

/// Runs one backend on one corpus model: chain seed `seed` on the model's
/// [`DATA_SEED`] data set.
pub fn run_backend(entry: &ModelEntry, backend: BackendKind, seed: u64) -> RunOutcome {
    let start = Instant::now();
    let result = (|| -> Result<Posterior, String> {
        let program =
            DeepStan::compile_named(entry.name, entry.source).map_err(|e| e.to_string())?;
        let data = entry.dataset(DATA_SEED);
        let data_refs: Vec<(&str, Value<f64>)> =
            data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
        let settings = if backend == BackendKind::StanRef {
            reference_settings(seed, entry.cost)
        } else {
            backend_settings(seed, entry.cost)
        };
        let mut session = program.session(&data_refs).map_err(|e| e.to_string())?;
        session = match backend {
            BackendKind::StanRef => session.reference(true),
            BackendKind::GProbComprehensive => session.scheme(Scheme::Comprehensive),
            BackendKind::GProbMixed => session.scheme(Scheme::Mixed),
            BackendKind::GProbGenerative => session.scheme(Scheme::Generative),
        };
        session
            .run(Method::Nuts(settings))
            .map(|fit| fit.to_posterior())
            .map_err(|e| e.to_string())
    })();
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(p) => RunOutcome {
            ok: true,
            error: None,
            seconds,
            posterior: Some(p),
        },
        Err(e) => RunOutcome {
            ok: false,
            error: Some(e),
            seconds,
            posterior: None,
        },
    }
}

/// Compares a posterior against a reference with the paper's criterion; the
/// returned pair is `(all components pass, mean relative error)`.
pub fn accuracy_vs_reference(posterior: &Posterior, reference: &Posterior) -> (bool, f64) {
    let means = posterior.means();
    let ref_means = reference.means();
    let ref_sds = reference.stddevs();
    let mut pass = true;
    let mut rel = 0.0;
    let n = means.len().min(ref_means.len());
    for i in 0..n {
        if !accuracy_pass(means[i], ref_means[i], ref_sds[i]) {
            pass = false;
        }
        rel += (means[i] - ref_means[i]).abs() / ref_sds[i].max(1e-12);
    }
    (pass, rel / n.max(1) as f64)
}

/// The cheap "does one inference transition run" check behind Table 2.
pub fn one_iteration_runs(entry: &ModelEntry, scheme: Scheme, interpreted: bool) -> bool {
    let Ok(program) = DeepStan::compile_named(entry.name, entry.source) else {
        return false;
    };
    if program.scheme(scheme).is_none() {
        return false;
    }
    let data = entry.dataset(11);
    let data_refs: Vec<(&str, Value<f64>)> =
        data.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    if interpreted {
        // "Pyro analog": one generative run through the tree-walking
        // interpreter plus one density evaluation.
        let Ok(model) = program.bind_with(scheme, &data_refs) else {
            return false;
        };
        let rng = Rc::new(RefCell::new(StdRng::seed_from_u64(1)));
        if model.run_prior(rng).is_err() {
            return false;
        }
        model
            .log_density_f64(&vec![0.1; model.dim()])
            .map(|lp| lp.is_finite() || lp == f64::NEG_INFINITY)
            .unwrap_or(false)
    } else {
        // "NumPyro analog": one NUTS transition (gradient path).
        let settings = NutsSettings {
            warmup: 1,
            samples: 1,
            seed: 1,
            max_depth: 5,
        };
        program
            .session(&data_refs)
            .and_then(|mut s| {
                s = s.scheme(scheme);
                s.run(Method::Nuts(settings))
            })
            .is_ok()
    }
}

/// Geometric mean of a set of positive ratios.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return f64::NAN;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Formats a duration in the paper's `hh:mm:ss` style.
pub fn fmt_duration(seconds: f64) -> String {
    let total = seconds.round() as u64;
    format!(
        "{:02}:{:02}:{:05.2}",
        total / 3600,
        (total % 3600) / 60,
        seconds % 60.0
    )
}

/// Expected-failure helper for the tables.
pub fn expected_failure_mark(e: Option<ExpectedFailure>) -> &'static str {
    match e {
        Some(_) => "✗ (expected)",
        None => "",
    }
}

// ---------------------------------------------------------------------------
// Clustering / classification metrics for the RQ5 experiments.
// ---------------------------------------------------------------------------

/// Plain k-means over row vectors; returns the cluster index of every row.
pub fn kmeans(points: &[Vec<f64>], k: usize, iterations: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = points.first().map(|p| p.len()).unwrap_or(0);
    let mut centers: Vec<Vec<f64>> = (0..k)
        .map(|_| points[rng.gen_range(0..points.len())].clone())
        .collect();
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..iterations {
        for (i, p) in points.iter().enumerate() {
            let mut best = (f64::INFINITY, 0usize);
            for (c, center) in centers.iter().enumerate() {
                let d: f64 = p.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best.0 {
                    best = (d, c);
                }
            }
            assignment[i] = best.1;
        }
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in points.iter().zip(&assignment) {
            counts[a] += 1;
            for j in 0..dim {
                sums[a][j] += p[j];
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..dim {
                    centers[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
    }
    assignment
}

/// Pairwise precision / recall / F1 of a clustering against true labels — the
/// VAE metric of Section 6.2.
pub fn pairwise_f1(clusters: &[usize], labels: &[i64]) -> (f64, f64, f64) {
    let n = clusters.len();
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for i in 0..n {
        for j in (i + 1)..n {
            let same_cluster = clusters[i] == clusters[j];
            let same_label = labels[i] == labels[j];
            match (same_cluster, same_label) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_constant_ratios() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_f1_perfect_and_degenerate() {
        let labels = vec![1, 1, 2, 2];
        let perfect = vec![0, 0, 1, 1];
        let (_, _, f1) = pairwise_f1(&perfect, &labels);
        assert!((f1 - 1.0).abs() < 1e-12);
        let all_one = vec![0, 0, 0, 0];
        let (p, r, _) = pairwise_f1(&all_one, &labels);
        assert!(r > 0.99 && p < 0.5);
    }

    #[test]
    fn kmeans_separates_two_blobs() {
        let mut points = Vec::new();
        for i in 0..20 {
            points.push(vec![0.0 + (i % 3) as f64 * 0.01, 0.0]);
            points.push(vec![5.0 + (i % 3) as f64 * 0.01, 5.0]);
        }
        let assign = kmeans(&points, 2, 20, 1);
        // All even indices (first blob) share a cluster distinct from odds.
        let first = assign[0];
        assert!(assign.iter().step_by(2).all(|&a| a == first));
        assert!(assign.iter().skip(1).step_by(2).all(|&a| a != first));
    }

    #[test]
    fn table2_check_accepts_the_coin_model() {
        let entry = model_zoo::find("coin").unwrap();
        assert!(one_iteration_runs(&entry, Scheme::Comprehensive, true));
        assert!(one_iteration_runs(&entry, Scheme::Mixed, false));
        let truncated = model_zoo::find("truncated_normal").unwrap();
        assert!(!one_iteration_runs(&truncated, Scheme::Comprehensive, true));
    }

    #[test]
    fn accuracy_comparison_detects_mismatches() {
        let a = Posterior::from_constrained(vec!["x".into()], vec![vec![1.0], vec![1.2]]);
        let b = Posterior::from_constrained(vec!["x".into()], vec![vec![1.05], vec![1.15]]);
        let (ok, rel) = accuracy_vs_reference(&a, &b);
        assert!(ok);
        assert!(rel < 0.3);
        let far = Posterior::from_constrained(vec!["x".into()], vec![vec![9.0], vec![9.1]]);
        let (ok, _) = accuracy_vs_reference(&far, &b);
        assert!(!ok);
    }

    #[test]
    fn mixed_backend_meets_the_paper_criterion_against_the_reference() {
        // Reference and backend fit the same data set and differ only in
        // their chain seeds, as in Table 4.
        for name in ["kidscore_momiq", "multiple_updates", "radon_hierarchical"] {
            let entry = model_zoo::find(name).unwrap();
            let reference = run_backend(&entry, BackendKind::StanRef, 42);
            let mixed = run_backend(&entry, BackendKind::GProbMixed, 7);
            let (pass, err) = accuracy_vs_reference(
                mixed.posterior.as_ref().expect("Mixed run"),
                reference.posterior.as_ref().expect("reference run"),
            );
            assert!(pass, "{name}: mean relative error {err:.3}");
        }
    }
}
