//! The target-density interface shared by all gradient-based samplers.
//!
//! Two tiers:
//!
//! * [`GradTarget`] — the simple, stateless interface: `(log p, ∇ log p)` as
//!   a fresh `Vec` per call. Closures implement it via the blanket impl, so
//!   quick experiments and tests stay one-liners.
//! * [`GradTargetMut`] — the buffer-reusing interface the samplers actually
//!   drive: `logp_grad_into` writes the gradient into a caller-owned slice
//!   and may mutate internal scratch state (a `gprob::DensityWorkspace`,
//!   pooled tape leaves, ...). One target instance is one chain; multi-chain
//!   runs give each thread its own target, which is exactly the sharding
//!   model of `deepstan`'s `Session`.
//!
//! Every [`GradTarget`] is automatically a [`GradTargetMut`] (with one
//! `Vec` allocation per call), so existing closures keep working with the
//! rewritten samplers.
//!
//! A third tier, [`GradTargetBatch`], scores a *batch* of independent points
//! in one call. Multi-draw ELBO estimators and importance weighting hand
//! the target all their points at once, so lane-widened backends
//! (`gprob::dprog`'s struct-of-arrays register files) evaluate them with one
//! forward/reverse sweep per lane group instead of one interpreter walk per
//! point. The provided default simply loops [`GradTargetMut::logp_grad_into`]
//! — point `i`'s result is bitwise identical either way, which is what lets
//! the batched estimators promise bit-equality with their per-point
//! counterparts.

/// A log-density with gradient, evaluated on the unconstrained scale.
pub trait GradTarget {
    /// Returns `(log p(q), ∇ log p(q))`.
    fn logp_grad(&self, q: &[f64]) -> (f64, Vec<f64>);
}

impl<F: Fn(&[f64]) -> (f64, Vec<f64>)> GradTarget for F {
    fn logp_grad(&self, q: &[f64]) -> (f64, Vec<f64>) {
        self(q)
    }
}

/// A log-density with gradient that may reuse internal scratch state and
/// writes the gradient into a caller-provided buffer — the interface the
/// samplers' hot loops call.
pub trait GradTargetMut {
    /// Writes `∇ log p(q)` into `grad` (which has length `q.len()`) and
    /// returns `log p(q)`.
    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64;
}

/// Stateless targets are trivially buffer-reusing (at the cost of the `Vec`
/// each [`GradTarget::logp_grad`] call allocates).
impl<T: GradTarget + ?Sized> GradTargetMut for &T {
    fn logp_grad_into(&mut self, q: &[f64], grad: &mut [f64]) -> f64 {
        let (lp, g) = self.logp_grad(q);
        grad.copy_from_slice(&g);
        lp
    }
}

/// A target that can score a batch of independent points in one call — the
/// surface lane-widened density programs plug into. Implementors override
/// [`GradTargetBatch::logp_grad_batch`] when they have a genuinely batched
/// backend; the provided default loops the single-point entry, so *any*
/// [`GradTargetMut`] can opt in with an empty `impl` block and batch-driven
/// samplers run unchanged (and bit-identically) over scalar targets.
pub trait GradTargetBatch: GradTargetMut {
    /// Scores `logps.len()` points packed row-major in `qs` (point `i` at
    /// `qs[i·dim .. (i+1)·dim]`), writing log-densities into `logps` and
    /// gradients row-major into `grads`. Point `i`'s results must be exactly
    /// what [`GradTargetMut::logp_grad_into`] would produce for that point.
    fn logp_grad_batch(&mut self, qs: &[f64], logps: &mut [f64], grads: &mut [f64]) {
        let n = logps.len();
        if n == 0 {
            return;
        }
        debug_assert_eq!(qs.len(), grads.len());
        let dim = qs.len() / n;
        for (i, lp) in logps.iter_mut().enumerate() {
            *lp = self.logp_grad_into(
                &qs[i * dim..(i + 1) * dim],
                &mut grads[i * dim..(i + 1) * dim],
            );
        }
    }
}

/// Stateless targets batch by looping, like their `GradTargetMut` adapter.
impl<T: GradTarget + ?Sized> GradTargetBatch for &T {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Quadratic;
    impl GradTarget for Quadratic {
        fn logp_grad(&self, q: &[f64]) -> (f64, Vec<f64>) {
            (-0.5 * q[0] * q[0], vec![-q[0]])
        }
    }

    #[test]
    fn closures_and_structs_both_implement_the_trait() {
        let closure = |q: &[f64]| (-0.5 * q[0] * q[0], vec![-q[0]]);
        let (lp_c, g_c) = closure.logp_grad(&[2.0]);
        let (lp_s, g_s) = Quadratic.logp_grad(&[2.0]);
        assert_eq!((lp_c, g_c), (lp_s, g_s));
    }

    #[test]
    fn grad_targets_adapt_to_the_buffered_interface() {
        let mut adapted = &Quadratic;
        let mut buf = [0.0];
        let lp = adapted.logp_grad_into(&[2.0], &mut buf);
        assert_eq!(lp, -2.0);
        assert_eq!(buf[0], -2.0);
    }
}
