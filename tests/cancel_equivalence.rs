//! Cancellation-equivalence tests: cooperative cancellation may shorten a
//! run, never change it.
//!
//! The `CancelToken` is polled only in outer loops (per NUTS iteration,
//! per ADVI/SVI step, per importance particle), so the arithmetic of every
//! completed draw is untouched. Two consequences, both asserted here:
//!
//! * A cancelled run's completed draws are **bitwise identical** to the
//!   prefix of the same-seed run to completion.
//! * A run that finishes just under its deadline is **byte-identical** to
//!   the same run with no deadline at all — an unfired token is free.

use std::time::Duration;

use deepstan::{DeepStan, ImportanceSettings, Method, NutsSettings};
use gprob::value::Value;
use inference::CancelToken;

const COIN: &str = r#"
    data { int N; int<lower=0,upper=1> x[N]; }
    parameters { real<lower=0,upper=1> z; }
    model { z ~ beta(1, 1); for (i in 1:N) x[i] ~ bernoulli(z); }
"#;

fn coin_data() -> Vec<(&'static str, Value<f64>)> {
    vec![
        ("N", Value::Int(4)),
        ("x", Value::IntArray(vec![1, 0, 1, 1])),
    ]
}

fn nuts_fit(samples: usize, cancel: Option<CancelToken>) -> deepstan::Fit {
    let program = DeepStan::compile(COIN).unwrap();
    let mut session = program.session(&coin_data()).unwrap().chains(2).seed(42);
    if let Some(cancel) = cancel {
        session = session.cancel(cancel);
    }
    session
        .run(Method::Nuts(NutsSettings {
            warmup: 50,
            samples,
            ..Default::default()
        }))
        .unwrap()
}

#[test]
fn cancelled_nuts_chains_are_bitwise_prefixes_of_the_full_run() {
    // Cancel mid-sampling from another thread; far more iterations are
    // requested than the cancellation window allows.
    let cancel = CancelToken::new();
    let trigger = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            cancel.cancel();
        })
    };
    let partial = nuts_fit(50_000_000, Some(cancel));
    trigger.join().unwrap();
    assert!(partial.cancelled, "the token must have cut the run short");
    let longest = partial
        .chains
        .iter()
        .map(|c| c.draws.len())
        .max()
        .unwrap_or(0);
    assert!(longest < 50_000_000, "the run cannot have finished");
    if longest == 0 {
        return; // Cancelled inside warmup on a very slow machine.
    }
    // NUTS iteration i does not depend on the total iteration count, so a
    // full same-seed run of `longest` draws must reproduce every partial
    // chain bit for bit.
    let full = nuts_fit(longest, None);
    assert!(!full.cancelled);
    for (p, f) in partial.chains.iter().zip(&full.chains) {
        for (prow, frow) in p.draws.iter().zip(&f.draws) {
            assert_eq!(prow.len(), frow.len());
            for (a, b) in prow.iter().zip(frow) {
                assert_eq!(a.to_bits(), b.to_bits(), "partial {a} != full {b}");
            }
        }
    }
}

#[test]
fn finishing_under_the_deadline_is_byte_identical_to_no_deadline() {
    // A deadline generous enough to never fire must leave no trace.
    let timed = nuts_fit(
        60,
        Some(CancelToken::with_timeout(Duration::from_secs(600))),
    );
    let untimed = nuts_fit(60, None);
    assert!(!timed.cancelled);
    assert!(!untimed.cancelled);
    assert_eq!(timed.names, untimed.names);
    assert_eq!(timed.chains.len(), untimed.chains.len());
    for (t, u) in timed.chains.iter().zip(&untimed.chains) {
        assert_eq!(t.divergences, u.divergences);
        assert_eq!(t.n_grad_evals, u.n_grad_evals);
        assert_eq!(t.draws.len(), u.draws.len());
        for (trow, urow) in t.draws.iter().zip(&u.draws) {
            for (a, b) in trow.iter().zip(urow) {
                assert_eq!(a.to_bits(), b.to_bits(), "timed {a} != untimed {b}");
            }
        }
    }
}

#[test]
fn pre_cancelled_tokens_yield_empty_partial_fits_not_errors() {
    let cancel = CancelToken::new();
    cancel.cancel();
    let program = DeepStan::compile(COIN).unwrap();

    // NUTS: cancelled before any chain started — empty chains that never
    // evaluated the density, no error.
    let fit = program
        .session(&coin_data())
        .unwrap()
        .chains(2)
        .seed(7)
        .cancel(cancel.clone())
        .run(Method::Nuts(NutsSettings {
            warmup: 10,
            samples: 10,
            ..Default::default()
        }))
        .unwrap();
    assert!(fit.cancelled);
    assert!(fit.chains.iter().all(|c| c.draws.is_empty()));
    assert!(fit.chains.iter().all(|c| c.n_grad_evals == 0));

    // Importance: cancelled before the first particle.
    let fit = program
        .session(&coin_data())
        .unwrap()
        .seed(7)
        .cancel(cancel)
        .run(Method::Importance(ImportanceSettings { particles: 100 }))
        .unwrap();
    assert!(fit.cancelled);
    assert!(fit.chains[0].draws.is_empty());
}
