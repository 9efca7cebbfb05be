//! `fit_corpus`: every runnable corpus model compiled, bound and fitted
//! in process, the paper's time-to-posterior use case.
//!
//! Closed loop: one caller fits the models in sequence, pass after pass,
//! for the whole run; each NUTS model gets 2-chain NUTS at Stan's defaults
//! (1000 warmup, 1000 draws, max depth 10) plus generated quantities where
//! the model has the block, and `multimodal_guide` gets a 2000-step SVI
//! fit with its explicit guide.
//!
//! Every time it reports is speed-adjusted (see [`crate::speed`]): the
//! calibration kernel runs before each fit, and each pass's timings are
//! scaled by the factor of that pass's calibration samples; set-up rounds
//! by the factor of the whole run. The raw pass walls and the kernel's own
//! time go to stderr.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use deepstan::{CompiledProgram, DeepStan, Fit, Init, Method, NutsSettings, SviSettings};
use gprob::value::Value;
use gprob::GModel;
use stan2gprob::Scheme;

use crate::layers::{self, refs, ProbeModel};
use crate::oracle;
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::speed;
use crate::stats::{geomean, median, quantile};
use crate::trace::{self, Span};
use crate::{mix, Args, DATA_SEED};

const WARMUP: usize = 1000;
const SAMPLES: usize = 1000;
const CHAINS: usize = 2;
const SVI_STEPS: usize = 2000;
/// The explicit-guide model, fitted with SVI instead of NUTS.
const SVI_MODEL: &str = "multimodal_guide";
/// Chains start uniform in `[-1, 1]` on the unconstrained scale, not
/// Stan's `[-2, 2]`: from `[-2, 2]` about a quarter of arma11 fits start a
/// chain at |theta| > 1 (a non-invertible moving average), where it sticks
/// at maximum tree depth for 50-100x the normal fit time with split R-hat
/// up to 99, so the fit time would measure init luck.
const INIT_RADIUS: f64 = 1.0;
/// Set-up rounds before the first pass, and after each pass; `setup_s` is
/// the median of all of them. A round takes a few milliseconds, so rounds
/// taken only at the start sampled the machine for a tenth of a second and
/// their median moved by up to a quarter from one set of runs to the next.
const SETUP_REPS: usize = 9;
const SETUP_REPS_PER_PASS: usize = 3;
/// The percentile of each model's fit walls behind the `p99` metrics,
/// which report the geomean over models of these per-model tails. Pooled
/// over models, a percentile measures which model sits there, not slow
/// fits: the pooled p90 fell in the gap between a 150 ms and a 250 ms
/// model, and over five seeds in a slow stretch (6-7 passes) it spread by
/// 0.25 of its median, against 0.075 for the per-model form. A run holds
/// only 6-10 fits per model, so no per-model percentile has ten beyond it;
/// p90 is near each model's slowest fit, and the geomean pools 27 of them.
const TAIL_PERCENTILE: f64 = 90.0;

struct Model {
    name: &'static str,
    source: &'static str,
    data: Vec<(String, Value<f64>)>,
    program: CompiledProgram,
    bound: Arc<GModel>,
    svi: bool,
}

/// One fit's outcome.
struct FitRecord {
    model: usize,
    /// The speed factor of the fit's pass; multiplies every time below.
    scale: f64,
    wall_s: f64,
    ttfc_s: f64,
    run_s: f64,
    ess_per_s: f64,
    chain_imbalance: f64,
    /// Chain 0's draws, kept from the first pass for the gradient oracle.
    draws: Option<Vec<Vec<f64>>>,
}

fn set_up() -> Result<Vec<Model>, String> {
    model_zoo::corpus()
        .into_iter()
        .filter(|e| e.should_run())
        .map(|e| {
            let data = e.dataset(DATA_SEED);
            let program = DeepStan::compile_named(e.name, e.source)
                .map_err(|err| format!("{}: compile: {err}", e.name))?;
            let bound = program
                .bind_with(Scheme::Mixed, &refs(&data))
                .map_err(|err| format!("{}: bind: {err}", e.name))?;
            Ok(Model {
                name: e.name,
                source: e.source,
                data,
                program,
                bound: Arc::new(bound),
                svi: e.name == SVI_MODEL,
            })
        })
        .collect()
}

/// Fits one model and checks the result. Timing covers the session run
/// and generated quantities; the checks run after the clock stops.
fn fit_one(
    m: &Model,
    index: usize,
    seed: u64,
    keep_draws: bool,
    outcome: &Mutex<Outcome>,
) -> Option<FitRecord> {
    let group = trace::new_group();
    let data = refs(&m.data);
    let mut session = match m.program.session(&data) {
        Ok(s) => s
            .with_bound_model(Scheme::Mixed, m.bound.clone())
            .chains(if m.svi { 1 } else { CHAINS })
            .init(Init::Random {
                radius: INIT_RADIUS,
            })
            .seed(seed),
        Err(e) => {
            record_failure(outcome, format!("{}: session: {e}", m.name));
            return None;
        }
    };
    let method = if m.svi {
        Method::Svi(SviSettings {
            steps: SVI_STEPS,
            lr: 0.05,
            seed,
            ..Default::default()
        })
    } else {
        Method::Nuts(NutsSettings {
            warmup: WARMUP,
            samples: SAMPLES,
            seed,
            max_depth: 10,
        })
    };
    let root = Span::enter("fit", group, 0);
    let start = Instant::now();
    let mut first_chain = None;
    let run = {
        let _s = Span::enter("deepstan.session_run", group, root.id());
        session.run_with_observer(method, &mut |_, _| {
            first_chain.get_or_insert_with(|| start.elapsed().as_secs_f64());
        })
    };
    let run_s = start.elapsed().as_secs_f64();
    let fit = run.and_then(|mut fit| {
        if !m.svi && m.bound.resolved_gq().is_some() {
            let _s = Span::enter("gprob.gq", group, root.id());
            session.generated_quantities(&mut fit)?;
        }
        Ok(fit)
    });
    let wall_s = start.elapsed().as_secs_f64();
    drop(root);
    let fit = match fit {
        Ok(fit) => fit,
        Err(e) => {
            record_failure(outcome, format!("{}: fit: {e}", m.name));
            return None;
        }
    };
    let verdict = check_fit(m, &fit, keep_draws);
    let ok = verdict.is_ok();
    outcome
        .lock()
        .expect("outcome lock poisoned")
        .check(ok, || {
            format!("{} (seed {seed}): {}", m.name, verdict.unwrap_err())
        });
    let walls: Vec<f64> = fit.chains.iter().map(|c| c.wall_time).collect();
    let chain_imbalance = walls.iter().copied().fold(0.0, f64::max)
        / (walls.iter().sum::<f64>() / walls.len() as f64);
    Some(FitRecord {
        model: index,
        scale: 1.0,
        wall_s,
        ttfc_s: first_chain.unwrap_or(run_s),
        run_s,
        ess_per_s: oracle::fit_min_bulk_ess(&fit) / wall_s,
        chain_imbalance,
        draws: (keep_draws && !m.svi).then(|| fit.chains[0].draws.clone()),
    })
    .filter(|_| ok)
}

fn record_failure(outcome: &Mutex<Outcome>, why: String) {
    outcome
        .lock()
        .expect("outcome lock poisoned")
        .check(false, || why);
}

/// The output checks of one fit. The closed-form check of coin's
/// posterior runs on the first pass only, so a run makes it once.
fn check_fit(m: &Model, fit: &Fit, first_pass: bool) -> Result<(), String> {
    if fit.cancelled {
        return Err("fit was cancelled".into());
    }
    let (chains, draws) = if m.svi { (1, 1000) } else { (CHAINS, SAMPLES) };
    if fit.chains.len() != chains || fit.chains.iter().any(|c| c.draws.len() != draws) {
        return Err(format!("expected {chains} chains of {draws} draws"));
    }
    let finite = |rows: &[Vec<f64>]| rows.iter().flatten().all(|x| x.is_finite());
    if !fit.chains.iter().all(|c| finite(&c.draws)) {
        return Err("non-finite draw".into());
    }
    if m.svi {
        // The guide must put mass on both modes (theta near 0 and near 20),
        // which mean-field methods cannot.
        let theta = fit.component("theta").ok_or("no theta component")?;
        let near = |c: f64| theta.iter().filter(|t| (*t - c).abs() < 5.0).count();
        let (low, high) = (near(0.0), near(20.0));
        if low < 50 || high < 50 {
            return Err(format!("guide mass {low} near 0 and {high} near 20"));
        }
        return Ok(());
    }
    if m.bound.resolved_gq().is_some() {
        let gq = fit.gq.as_ref().ok_or("no generated quantities")?;
        if gq.chains.len() != CHAINS
            || gq
                .chains
                .iter()
                .any(|rows| rows.len() != SAMPLES || !finite(rows))
        {
            return Err("generated quantities missing or non-finite".into());
        }
    }
    let rhat = oracle::max_split_rhat(fit);
    if rhat.is_nan() || rhat >= oracle::rhat_limit(m.name) {
        return Err(format!("max split R-hat {rhat:.3}"));
    }
    if m.name == "coin" && first_pass {
        let x = m
            .data
            .iter()
            .find_map(|(k, v)| match (k.as_str(), v) {
                ("x", Value::IntArray(x)) => Some(x.clone()),
                _ => None,
            })
            .ok_or("coin data has no x")?;
        oracle::coin_matches_beta(fit, &x)?;
    }
    Ok(())
}

/// One pass over the corpus, with a calibration before each fit. Returns
/// the fits, each tagged with the pass's speed factor, the pass's wall
/// without the calibrations, and the calibration samples.
fn pass(
    models: &[Model],
    seed: u64,
    keep_draws: bool,
    outcome: &Mutex<Outcome>,
) -> (Vec<FitRecord>, f64, Vec<f64>) {
    let start = Instant::now();
    let mut calibrations = Vec::with_capacity(models.len());
    let mut fits = Vec::with_capacity(models.len());
    for (i, m) in models.iter().enumerate() {
        calibrations.push(speed::calibrate());
        fits.extend(fit_one(m, i, seed, keep_draws, outcome));
    }
    let wall_s = start.elapsed().as_secs_f64() - calibrations.iter().sum::<f64>();
    let scale = speed::factor(&calibrations);
    for f in &mut fits {
        f.scale = scale;
    }
    (fits, wall_s, calibrations)
}

/// Times `rounds` set-ups into `setups`; returns the last one's models.
fn timed_set_up(rounds: usize, setups: &mut Vec<f64>) -> Result<Vec<Model>, String> {
    let mut models = Vec::new();
    for _ in 0..rounds {
        let t = Instant::now();
        models = set_up()?;
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok(models)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let models = timed_set_up(SETUP_REPS, &mut setups)?;
    let outcome = Mutex::new(Outcome::default());
    let start = Instant::now();

    // One caller, new chain seeds every pass. In the traced run odd passes
    // record spans and repeat the previous pass's seeds, so each traced
    // pass has an untraced twin doing identical work.
    let mut nominal: Vec<FitRecord> = Vec::new();
    // Per pass: traced, raw wall, speed factor.
    let mut pass_walls: Vec<(bool, f64, f64)> = Vec::new();
    let mut calibrations = Vec::new();
    let mut p = 0u64;
    // A pass starts only when one as long as the last still fits the run.
    let last = |walls: &[(bool, f64, f64)]| walls.last().map_or(0.0, |w| w.1);
    while p < 2 || start.elapsed().as_secs_f64() + last(&pass_walls) <= args.seconds {
        let traced = args.trace && p % 2 == 1;
        trace::set_enabled(traced);
        let seed = mix(args.seed, if args.trace { p / 2 } else { p });
        let (fits, wall_s, cal) = pass(&models, seed, p == 0, &outcome);
        let scale = speed::factor(&cal);
        nominal.extend(fits);
        pass_walls.push((traced, wall_s, scale));
        calibrations.extend(cal);
        timed_set_up(SETUP_REPS_PER_PASS, &mut setups)?;
        p += 1;
    }
    trace::set_enabled(false);
    // Set-up rounds sit between passes: they take the whole run's factor.
    let run_scale = speed::factor(&calibrations);
    let setups: Vec<f64> = setups.iter().map(|s| s * run_scale).collect();
    let loop_s: f64 = pass_walls.iter().map(|w| w.1 * w.2).sum();

    let mut outcome = outcome.into_inner().expect("outcome lock poisoned");
    let raw: Vec<String> = pass_walls.iter().map(|w| format!("{:.3}", w.1)).collect();
    eprintln!(
        "fit_corpus: {p} passes, raw walls [{}] s; calibration median {:.4} ms \
         (reference {:.4} ms), run speed factor {run_scale:.4}",
        raw.join(", "),
        median(&calibrations) * 1e3,
        speed::REFERENCE_S * 1e3
    );
    // Gradient oracle at posterior draws of the first pass.
    for r in nominal.iter().filter(|r| r.draws.is_some()) {
        let m = &models[r.model];
        let points = layers::unconstrained_draws(&m.bound, r.draws.as_deref().unwrap_or(&[]));
        let verdict = oracle::gradients_match(&m.program, &m.bound, &refs(&m.data), &points);
        outcome.check(verdict.is_ok(), || {
            format!("{}: gradient oracle: {}", m.name, verdict.unwrap_err())
        });
    }

    if args.trace {
        per_layer(args, &models, &nominal, &pass_walls, &mut outcome)?;
    } else {
        end_to_end(&models, &setups, &nominal, loop_s, &mut outcome);
    }
    Ok(outcome)
}

fn end_to_end(
    models: &[Model],
    setups: &[f64],
    nominal: &[FitRecord],
    loop_s: f64,
    outcome: &mut Outcome,
) {
    let per_model_q = |f: &dyn Fn(&FitRecord) -> f64, q: f64| -> Vec<f64> {
        (0..models.len())
            .map(|i| {
                let xs: Vec<f64> = nominal.iter().filter(|r| r.model == i).map(f).collect();
                quantile(&xs, q)
            })
            .collect()
    };
    let per_model = |f: &dyn Fn(&FitRecord) -> f64| per_model_q(f, 0.5);
    let walls = per_model(&|r| r.wall_s * r.scale);
    let all_ms: Vec<f64> = nominal.iter().map(|r| r.wall_s * r.scale * 1e3).collect();
    let ttfc_ms: Vec<f64> = nominal.iter().map(|r| r.ttfc_s * r.scale * 1e3).collect();
    let passes = nominal.len() / models.len().max(1);
    let per = format!(
        "median of {passes} passes per model, {} models, speed-adjusted",
        models.len()
    );
    let n = |xs: &[f64]| format!("n={}", xs.len());
    let tail_ms = geomean(&per_model_q(&|r| r.wall_s * r.scale * 1e3, TAIL_PERCENTILE / 100.0));
    let tail_note = format!(
        "geomean over {} models of each model's p{TAIL_PERCENTILE} of {passes} fits",
        models.len()
    );
    for m in [
        Metric::new("setup_s", median(setups), "s")
            .note(format!("median of {} compile+bind rounds, speed-adjusted", setups.len())),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        Metric::new("fit_s_geomean", geomean(&walls), "s").note(&per),
        Metric::new("fit_s_total", walls.iter().sum(), "s").note(&per),
        Metric::new(
            "ess_per_s_geomean",
            geomean(&per_model(&|r| r.ess_per_s / r.scale)),
            "1/s",
        )
        .note(&per),
        Metric::new("p50_ms", median(&all_ms), "ms").note(n(&all_ms)),
        Metric::new("p99_ms", tail_ms, "ms").note(&tail_note),
        Metric::new("ttfc_p50_ms", median(&ttfc_ms), "ms").note(n(&ttfc_ms)),
        // One caller, no second rate: the high-rate metrics repeat the tail
        // and give the caller's throughput.
        Metric::new("p99_ms_high", tail_ms, "ms").note(format!("{tail_note}; same as p99_ms")),
        Metric::new("goodput_rps", nominal.len() as f64 / loop_s, "1/s")
            .note("correct fits per second, one caller"),
    ] {
        outcome.push(m);
    }
}

fn per_layer(
    args: &Args,
    models: &[Model],
    nominal: &[FitRecord],
    pass_walls: &[(bool, f64, f64)],
    outcome: &mut Outcome,
) -> Result<(), String> {
    trace::set_enabled(true);
    let probes: Vec<ProbeModel> = models
        .iter()
        .map(|m| ProbeModel {
            label: m.name.to_string(),
            source: m.source.to_string(),
            data: m.data.clone(),
            nuts: (!m.svi).then_some((WARMUP, SAMPLES)),
        })
        .collect();
    for metric in layers::probe(&probes)? {
        outcome.push(metric);
    }
    let svi = models.iter().find(|m| m.svi).ok_or("no SVI model")?;
    let t = Instant::now();
    svi.program
        .svi(
            &refs(&svi.data),
            &[],
            &SviSettings {
                steps: SVI_STEPS,
                lr: 0.05,
                seed: args.seed,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{SVI_MODEL}: svi: {e}"))?;
    let svi_step_us = t.elapsed().as_secs_f64() * 1e6 / SVI_STEPS as f64;
    trace::set_enabled(false);

    let nuts: Vec<&FitRecord> = nominal.iter().filter(|r| !models[r.model].svi).collect();
    let run_ms: Vec<f64> = nuts.iter().map(|r| r.run_s * 1e3).collect();
    let imbalance: Vec<f64> = nuts.iter().map(|r| r.chain_imbalance).collect();
    // Each traced pass against its untraced twin just before it, both
    // speed-adjusted.
    let ratios: Vec<f64> = pass_walls
        .windows(2)
        .filter(|w| !w[0].0 && w[1].0)
        .map(|w| (w[1].1 * w[1].2) / (w[0].1 * w[0].2) - 1.0)
        .collect();
    for m in [
        Metric::new("inference.svi_step_us", svi_step_us, "us")
            .note(format!("{SVI_MODEL}, {SVI_STEPS} steps")),
        Metric::new("deepstan.session_run_ms", median(&run_ms), "ms")
            .note(format!("median over {} NUTS runs", run_ms.len())),
        Metric::new("deepstan.chain_wall_imbalance", median(&imbalance), "ratio")
            .note("max/mean chain wall, median over fits"),
        Metric::new("obs.trace_overhead_frac", median(&ratios), "frac").note(format!(
            "median over {} traced/untraced pass pairs",
            ratios.len()
        )),
    ] {
        outcome.push(m);
    }
    Ok(())
}
