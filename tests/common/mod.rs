//! Shared inputs for the differential suites.

use gprob::value::{Env, Value};

/// Loop shapes the density program lowers by expanding the loop at bind
/// time (their bodies cannot roll into one loop op), as
/// `(label, source, data)`. The differential suites check each one against
/// the tape, the JIT against the interpreter, and lanes against single
/// points.
pub fn loop_expansion_shapes() -> Vec<(&'static str, &'static str, Env<f64>)> {
    let mut data: Env<f64> = Env::new();
    data.insert("J".into(), Value::Int(4));
    data.insert("T".into(), Value::Int(5));
    data.insert("K".into(), Value::Int(0));
    data.insert("N".into(), Value::Int(12));
    // Ragged windows over `y[i + 1]`: lengths 3, 1, 0 (empty) and 5.
    data.insert("lo".into(), Value::IntArray(vec![1, 4, 6, 6]));
    data.insert("hi".into(), Value::IntArray(vec![3, 4, 5, 10]));
    data.insert("g".into(), Value::IntArray(vec![1, 0, 0, 1]));
    data.insert(
        "x".into(),
        Value::Vector((0..5).map(|t| 0.3 * t as f64 - 0.5).collect()),
    );
    data.insert(
        "y".into(),
        Value::Vector((0..20).map(|i| 0.37 * i as f64 - 1.9).collect()),
    );
    let shapes = [
        (
            "sweep with offset and ragged windows",
            "data { int J; int N; int lo[J]; int hi[J]; real y[20]; }
             parameters { real mu[J]; real<lower=0> sigma; }
             model {
               sigma ~ lognormal(0, 1);
               for (j in 1:J) {
                 mu[j] ~ normal(0, 2);
                 for (i in lo[j]:hi[j]) y[i + 1] ~ normal(mu[j], sigma);
               }
             }",
        ),
        (
            "nested loop with a rolled inner loop",
            "data { int J; int T; real x[T]; real y[20]; }
             parameters { real mu[J]; real<lower=0> sigma; }
             model {
               real acc;
               acc = 0;
               sigma ~ lognormal(0, 1);
               for (j in 1:J) {
                 mu[j] ~ normal(0, 2);
                 for (t in 1:T) {
                   acc = 0.5 * acc + mu[j] * x[t];
                   target += normal_lpdf(y[(j - 1) * T + t] | acc, sigma);
                 }
               }
             }",
        ),
        (
            "declaration in the body",
            "data { int J; real x[5]; real y[20]; }
             parameters { real mu; real<lower=0> sigma; }
             model {
               mu ~ normal(0, 2);
               sigma ~ lognormal(0, 1);
               for (j in 1:J) {
                 real m;
                 m = mu * x[j] + j;
                 y[j] ~ normal(m, sigma);
               }
             }",
        ),
        (
            "data-dependent conditional in the body",
            "data { int J; int g[J]; real y[20]; }
             parameters { real mu; real<lower=0> sigma; }
             model {
               mu ~ normal(0, 2);
               sigma ~ lognormal(0, 1);
               for (j in 1:J) {
                 if (g[j] > 0) y[j] ~ normal(mu, sigma);
                 else y[j] ~ normal(-mu, 2 * sigma);
               }
             }",
        ),
        (
            "zero-trip loop",
            "data { int K; int N; real y[20]; }
             parameters { real mu; real<lower=0> sigma; }
             model {
               mu ~ normal(0, 2);
               sigma ~ lognormal(0, 1);
               for (k in 1:K) {
                 real m;
                 m = mu * k;
                 for (i in 1:N) y[i] ~ normal(m, sigma);
               }
               y[1] ~ normal(mu, sigma);
             }",
        ),
    ];
    shapes
        .into_iter()
        .map(|(label, source)| (label, source, data.clone()))
        .collect()
}
