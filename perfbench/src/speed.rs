//! Machine speed, for timings that compare across runs.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by 20-40% over minutes as other tenants come and go: with the work of
//! a pass fixed (gradient evaluations within 3%), a `fit_corpus` pass took
//! 2.7 s in one run and 3.1-4.1 s a minute later, and process CPU time
//! drifted with it, so the drift is a slower core, not lost time slices.
//! A drift that lasts a whole run moves every timing of the run, and no
//! median inside the run removes it.
//!
//! So the benchmark times a fixed calibration kernel — its own code, not
//! the program's, so no change to the program moves it — between the
//! operations it measures, and scales each timing by
//! `REFERENCE_S / calibration time` measured at the same stretch of the
//! run. A scaled timing reads in seconds of a machine on which the kernel
//! takes [`REFERENCE_S`]: on a uniformly slower machine the scaled figure
//! stays put, and a change that makes the program faster lowers it in
//! proportion. The kernel's raw time is reported, so the scaling can be
//! undone.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time on the machine the bounds were fixed on (the median
/// over a calm stretch, 2-vCPU shared host). Only the ratio to it
/// matters: it sets the scale of the speed-adjusted figures.
pub const REFERENCE_S: f64 = 3.5e-3;

/// Rounds of the kernel over its working set.
const ROUNDS: usize = 30;
/// Working set: 32 KiB of `f64`, resident in the first-level cache like
/// the small models' parameter and register files.
const LEN: usize = 4096;

/// Runs the calibration kernel once and returns its wall time in seconds.
/// The kernel mixes what the samplers' inner loops do: transcendental
/// math, dependent floating-point adds and strided loads.
pub fn calibrate() -> f64 {
    let mut x = [0.0f64; LEN];
    let mut state = black_box(0x5eed_u64);
    for v in x.iter_mut() {
        *v = crate::uniform(&mut state);
    }
    let t = Instant::now();
    let mut acc = 0.0;
    for r in 0..ROUNDS {
        let shift = r as f64 * 1e-3;
        for i in 0..LEN {
            let y = x[i] * 1.0001 + shift;
            acc += (y.exp() - 1.0).ln_1p() * x[(i * 7 + r) % LEN];
            x[i] = y.fract();
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The factor that scales timings measured alongside these calibration
/// samples to the reference speed: `REFERENCE_S` over their median (a
/// median, so one preempted sample does not move it).
pub fn factor(samples: &[f64]) -> f64 {
    REFERENCE_S / median(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_undoes_a_uniform_slowdown() {
        // A fit of 0.2 s at reference speed, on a machine 30% slower.
        let slow = 1.3;
        let samples = [REFERENCE_S * slow; 5];
        let measured = 0.2 * slow;
        assert!((measured * factor(&samples) - 0.2).abs() < 1e-12);
        // At reference speed the factor is one.
        assert!((factor(&[REFERENCE_S]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_ignores_one_preempted_sample() {
        let samples = [REFERENCE_S, REFERENCE_S, 50.0 * REFERENCE_S];
        assert!((factor(&samples) - 1.0).abs() < 1e-12);
    }
}
