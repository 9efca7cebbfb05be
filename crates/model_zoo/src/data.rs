//! Synthetic data generation.
//!
//! Every data set is drawn from the corresponding model's own generative
//! process (with fixed "true" parameter values), so posterior inference has a
//! well-defined target to recover. The synthetic digits data set stands in
//! for MNIST in the VAE / Bayesian-MLP experiments (Section 6.2): ten class
//! prototypes on an 8×8 binary grid, perturbed with Bernoulli pixel noise.

use gprob::value::Value;
use probdist::sampling;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named data binding.
pub type DataSet = Vec<(String, Value<f64>)>;

/// Helper: builds a binding.
pub fn bind(name: &str, value: Value<f64>) -> (String, Value<f64>) {
    (name.to_string(), value)
}

/// `data` scaled up by replication: every container of the data set's
/// length `N` cycles to length `n`, and `N` becomes `n`.
///
/// # Panics
/// Panics if `data` has no integer `N`.
pub fn replicated(data: &DataSet, n: usize) -> DataSet {
    let n0 = data
        .iter()
        .find_map(|(k, v)| match v {
            Value::Int(k0) if k == "N" => Some(*k0 as usize),
            _ => None,
        })
        .expect("data set with an `N`");
    let cycle = |len: usize| (0..n).map(move |i| i % len.max(1));
    data.iter()
        .map(|(k, v)| {
            let v = match v {
                Value::Int(_) if k == "N" => Value::Int(n as i64),
                Value::Vector(x) if x.len() == n0 => {
                    Value::Vector(cycle(n0).map(|i| x[i]).collect())
                }
                Value::IntArray(x) if x.len() == n0 => {
                    Value::IntArray(cycle(n0).map(|i| x[i]).collect())
                }
                other => other.clone(),
            };
            (k.clone(), v)
        })
        .collect()
}

/// Draws `n` standard-normal covariate values.
pub fn covariates(rng: &mut StdRng, n: usize, loc: f64, scale: f64) -> Vec<f64> {
    (0..n).map(|_| sampling::normal(rng, loc, scale)).collect()
}

/// Linear-regression response `y = alpha + beta' x + eps`.
pub fn linear_response(
    rng: &mut StdRng,
    xs: &[Vec<f64>],
    alpha: f64,
    betas: &[f64],
    sigma: f64,
) -> Vec<f64> {
    let n = xs[0].len();
    (0..n)
        .map(|i| {
            let mut mu = alpha;
            for (b, x) in betas.iter().zip(xs) {
                mu += b * x[i];
            }
            sampling::normal(rng, mu, sigma)
        })
        .collect()
}

/// Bernoulli-logit response.
pub fn logit_response(rng: &mut StdRng, xs: &[Vec<f64>], alpha: f64, betas: &[f64]) -> Vec<i64> {
    let n = xs[0].len();
    (0..n)
        .map(|i| {
            let mut eta = alpha;
            for (b, x) in betas.iter().zip(xs) {
                eta += b * x[i];
            }
            let p = 1.0 / (1.0 + (-eta).exp());
            (rng.gen::<f64>() < p) as i64
        })
        .collect()
}

/// The synthetic stand-in for MNIST: `n` binary images of `side × side`
/// pixels, with labels `1..=10`. Each digit class has a fixed prototype
/// pattern; pixels are flipped with probability `noise`.
pub fn synthetic_digits(n: usize, side: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let npix = side * side;
    // Ten deterministic prototypes: class k lights up a distinct band and a
    // diagonal, which is enough structure for clustering / classification.
    let prototypes: Vec<Vec<f64>> = (0..10)
        .map(|k| {
            (0..npix)
                .map(|p| {
                    let (r, c) = (p / side, p % side);
                    let band = r == (k * side) / 10;
                    let diag = (r + c) % 10 == k;
                    let col = c == (k * side) / 10;
                    if band || diag || col {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let mut images = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % 10;
        let img: Vec<f64> = prototypes[k]
            .iter()
            .map(|&v| if rng.gen::<f64>() < noise { 1.0 - v } else { v })
            .collect();
        images.push(img);
        labels.push((k + 1) as i64);
    }
    (images, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_have_the_requested_shape_and_labels() {
        let (images, labels) = synthetic_digits(40, 8, 0.05, 1);
        assert_eq!(images.len(), 40);
        assert_eq!(images[0].len(), 64);
        assert!(labels.iter().all(|&l| (1..=10).contains(&l)));
        assert!(images.iter().flatten().all(|&p| p == 0.0 || p == 1.0));
        // Noise is small, so images of the same class are more alike than
        // images of different classes.
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).filter(|(x, y)| x != y).count() as f64
        };
        let same = dist(&images[0], &images[10]);
        let diff = dist(&images[0], &images[5]);
        assert!(same < diff, "{same} vs {diff}");
    }

    #[test]
    fn regression_helpers_produce_consistent_lengths() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = covariates(&mut rng, 30, 0.0, 1.0);
        let y = linear_response(&mut rng, std::slice::from_ref(&x), 1.0, &[2.0], 0.5);
        assert_eq!(y.len(), 30);
        let z = logit_response(&mut rng, &[x], -0.5, &[1.5]);
        assert!(z.iter().all(|&v| v == 0 || v == 1));
    }
}
