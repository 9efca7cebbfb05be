//! Special functions needed by probability densities and their gradients.
//!
//! These are plain `f64` implementations; the [`Var`](crate::Var) methods use
//! them for both the primal value and (via [`digamma`]) the tape partials.

/// Log-gamma via the Lanczos approximation (g = 7, n = 9 coefficients).
///
/// Accurate to ~1e-13 for positive arguments; uses the reflection formula for
/// `x < 0.5`.
pub fn lgamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - lgamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + 7.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Entries of the [`ln_factorial`] table.
const LN_FACTORIAL_TABLE: usize = 1024;

/// `ln m!`, bitwise equal to `lgamma(m + 1.0)`: an integral `0 ≤ m < 1024`
/// reads a table filled once by that same [`lgamma`], and anything else
/// (larger, negative, non-integral or NaN) calls [`lgamma`]. Count
/// distributions take it for their log-coefficients, which the table turns
/// from three Lanczos series into three loads.
pub fn ln_factorial(m: f64) -> f64 {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    if (0.0..LN_FACTORIAL_TABLE as f64).contains(&m) && m.fract() == 0.0 {
        let table = TABLE.get_or_init(|| {
            (0..LN_FACTORIAL_TABLE)
                .map(|i| lgamma(i as f64 + 1.0))
                .collect()
        });
        table[m as usize]
    } else {
        lgamma(m + 1.0)
    }
}

/// Digamma function ψ(x) = d/dx ln Γ(x), by upward recurrence plus the
/// asymptotic series.
pub fn digamma(x: f64) -> f64 {
    let mut x = x;
    let mut result = 0.0;
    if x <= 0.0 && x == x.floor() {
        return f64::NAN;
    }
    if x < 0.0 {
        // Reflection formula ψ(1-x) - ψ(x) = π cot(πx)
        let pi = std::f64::consts::PI;
        return digamma(1.0 - x) - pi / (pi * x).tan();
    }
    while x < 6.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Log of the Beta function `ln B(a, b)`.
pub fn lbeta(a: f64, b: f64) -> f64 {
    lgamma(a) + lgamma(b) - lgamma(a + b)
}

/// Numerically stable `ln(1 + e^x)`.
pub fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Stable `ln(sum_i exp(x_i))`.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

/// Error function, Abramowitz & Stegun 7.1.26 approximation (|err| < 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (the probit function Φ⁻¹), via
/// Acklam's rational approximation (|relative err| < 1.15e-9), used by the
/// rank-normalization step of the Vehtari et al. (2021) convergence
/// diagnostics.
pub fn inv_std_normal_cdf(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        -inv_std_normal_cdf(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lgamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi)
        assert!(lgamma(1.0).abs() < 1e-10);
        assert!(lgamma(2.0).abs() < 1e-10);
        assert!((lgamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((lgamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn ln_factorial_is_lgamma_of_m_plus_one_bitwise() {
        let same = |m: f64| {
            let (a, b) = (ln_factorial(m), lgamma(m + 1.0));
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "m={m}: {a} vs {b}"
            );
        };
        // Across the table and as far again past it.
        for i in 0..2 * LN_FACTORIAL_TABLE {
            same(i as f64);
        }
        for m in [
            -0.0,
            0.5,
            1.5,
            1023.5,
            1e-300,
            -0.5,
            -1.0,
            -3.0,
            -1e6,
            1e9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            same(m);
        }
    }

    #[test]
    fn digamma_matches_finite_difference_of_lgamma() {
        for &x in &[0.3, 1.0, 2.5, 7.0, 42.0] {
            let h = 1e-6;
            let fd = (lgamma(x + h) - lgamma(x - h)) / (2.0 * h);
            assert!((digamma(x) - fd).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn lbeta_symmetry_and_value() {
        assert!((lbeta(2.0, 3.0) - lbeta(3.0, 2.0)).abs() < 1e-12);
        // B(2,3) = 1/12
        assert!((lbeta(2.0, 3.0) - (1.0f64 / 12.0).ln()).abs() < 1e-10);
    }

    #[test]
    fn log_sum_exp_is_stable() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn inv_std_normal_cdf_matches_known_quantiles() {
        assert!((inv_std_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inv_std_normal_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
        assert!((inv_std_normal_cdf(0.025) + 1.959_963_984_540_054).abs() < 1e-8);
        assert!((inv_std_normal_cdf(0.001) + 3.090_232_306_167_813).abs() < 1e-8);
        assert_eq!(inv_std_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inv_std_normal_cdf(1.0), f64::INFINITY);
        assert!(inv_std_normal_cdf(-0.1).is_nan());
        // Round trip through the (approximate) forward CDF.
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            let z = inv_std_normal_cdf(p);
            assert!((std_normal_cdf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn erf_and_cdf_bounds() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(std_normal_cdf(5.0) > 0.999_999);
        assert!(std_normal_cdf(-5.0) < 1e-6);
    }
}
