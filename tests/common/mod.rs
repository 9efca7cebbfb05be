//! Shared inputs for the differential suites.

use gprob::value::{Env, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds of the generated rolled-loop programs ([`loop_shape`]) each
/// differential suite checks.
pub const LOOP_SHAPE_SEEDS: std::ops::Range<u64> = 0..12;

/// Trip counts of the generated loops, one per seed in turn, so every seed
/// range covers the empty, single and double trips and one long loop.
const LOOP_SHAPE_TRIPS: [usize; 8] = [0, 1, 2, 3, 7, 40, 250, 2000];

/// A rolled-loop program drawn from `seed`, as `(label, source, data,
/// trip)`. The label names the seed and carries the source, so a failing
/// check prints both.
///
/// Every program is one counted loop whose body rolls into a single loop
/// op (assignments, observes and factors only), next to span ops over a
/// data vector. The draws cover:
///
/// * recurrences written 1-3 times per iteration (register chains of
///   stride 1-3), one or two of them;
/// * per-iteration data reads (`x[t]`, `x[t + 1]`, `y[t]`);
/// * element writes `z[t] = …` with an affine index, read after the loop;
/// * `target +=` and `~ normal` inside the body;
/// * constrained parameters read in the body, and a parameter vector read
///   both at `[t]` and at a fixed index (the same adjoint slot reached per
///   iteration and as a loop-invariant scalar);
/// * shim calls in the body (`square`, `log1p`, `fmax`) or none;
/// * trips of 0, 1, 2 and up to a few thousand, and span ops over data of
///   up to a few thousand elements.
pub fn loop_shape(seed: u64) -> (String, String, Env<f64>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let trip = LOOP_SHAPE_TRIPS[seed as usize % LOOP_SHAPE_TRIPS.len()];
    let m = [1usize, 3, 40, 1500][rng.gen_range(0..4usize)];
    // A parameter per iteration, up to a few hundred of them.
    let with_eta = (1..=250).contains(&trip) && rng.gen::<bool>();
    let calls = rng.gen::<bool>();

    let mut params = vec![
        "real mu;".to_string(),
        "real<lower=0> sigma;".to_string(),
        "real<lower=0, upper=1> rho;".to_string(),
    ];
    let mut model = vec![
        "mu ~ normal(0, 2);".to_string(),
        "sigma ~ lognormal(0, 1);".to_string(),
        "rho ~ beta(2, 2);".to_string(),
    ];
    if with_eta {
        params.push("vector[N] eta;".to_string());
        model.push("eta ~ normal(0, 1);".to_string());
    }

    // Loop-carried scalars and how many times the body writes each one.
    let n_acc = rng.gen_range(1..3usize);
    let writes: Vec<usize> = (0..n_acc).map(|_| rng.gen_range(1..4usize)).collect();
    let mut decls = Vec::new();
    for a in 0..n_acc {
        decls.push(format!("real acc{a};"));
        decls.push(format!("acc{a} = {:.2};", 0.1 * a as f64 + 0.2));
    }
    // An element write `z[t + off]` into a local one longer than the trip.
    let elem_write = rng.gen::<bool>().then(|| rng.gen_range(0..2usize));
    if elem_write.is_some() {
        decls.push("vector[N1] z;".to_string());
    }

    let mut body = Vec::new();
    for (a, &w) in writes.iter().enumerate() {
        for _ in 0..w {
            let other = (a + 1) % n_acc;
            let update = match rng.gen_range(0..6usize) {
                0 => format!("acc{a} = rho * acc{a} + mu * x[t];"),
                1 => format!("acc{a} = 0.5 * acc{a} + sigma * x[t + 1];"),
                2 => format!("acc{a} = acc{a} * rho - 0.1 * mu + acc{other} * 0.25;"),
                3 if with_eta => format!("acc{a} = rho * acc{a} + eta[t] - 0.3 * eta[1];"),
                4 if calls => format!("acc{a} = 0.5 * acc{a} + log1p(square(acc{a} - y[t]));"),
                5 if calls => format!("acc{a} = fmax(0.5 * acc{a}, -sigma) + x[t];"),
                _ => format!("acc{a} = tanh(acc{a}) * rho + x[t] / (1 + sigma);"),
            };
            body.push(update);
            if rng.gen_range(0..3usize) == 0 {
                body.push(site(&mut rng, a));
            }
        }
    }
    body.push(site(&mut rng, 0));
    if let Some(off) = elem_write {
        body.push(format!("z[t + {off}] = acc0 * sigma + mu * x[t];"));
    }

    let mut after = Vec::new();
    for a in 0..n_acc {
        after.push(format!("target += -0.01 * square(acc{a});"));
    }
    if elem_write.is_some() {
        after.push("target += -0.5 * dot_self(z);".to_string());
    }
    let spans = [
        "target += -0.5 * dot_self(mu * d + sigma);",
        "target += -0.001 * sum(exp(-sigma * d));",
        "target += -0.5 * sum(square(d - mu)) / (1 + sigma);",
        "target += sum(log1p(square(rho * d)));",
        "d ~ normal(mu, sigma);",
    ];
    for _ in 0..rng.gen_range(1..4usize) {
        after.push(spans[rng.gen_range(0..spans.len())].to_string());
    }

    let source = format!(
        "data {{ int N; int N1; int M; real x[N1]; real y[N]; vector[M] d; }}
parameters {{ {} }}
model {{
  {}
  {{
    {}
    for (t in 1:N) {{
      {}
    }}
    {}
  }}
}}",
        params.join(" "),
        model.join("\n  "),
        decls.join("\n    "),
        body.join("\n      "),
        after.join("\n    "),
    );
    let mut data: Env<f64> = Env::new();
    data.insert("N".into(), Value::Int(trip as i64));
    data.insert("N1".into(), Value::Int(trip as i64 + 1));
    data.insert("M".into(), Value::Int(m as i64));
    let mut draws = |n: usize, scale: f64| -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
    };
    data.insert("x".into(), Value::Vector(draws(trip + 1, 1.5)));
    data.insert("y".into(), Value::Vector(draws(trip, 2.0)));
    data.insert("d".into(), Value::Vector(draws(m, 2.0)));
    let label = format!("loop shape seed {seed} (trip {trip}, span {m}):\n{source}");
    (label, source, data, trip)
}

/// One score site inside the loop body, reading accumulator `a`.
fn site(rng: &mut StdRng, a: usize) -> String {
    match rng.gen_range(0..4usize) {
        0 => format!("y[t] ~ normal(acc{a}, sigma);"),
        1 => format!("target += normal_lpdf(y[t] | mu + 0.1 * acc{a}, sigma + 1);"),
        2 => format!("target += -0.5 * (acc{a} - y[t]) * (acc{a} - y[t]);"),
        _ => format!("target += -sigma * x[t] * acc{a};"),
    }
}

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
