//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fit_corpus|serve_hot|serve_cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a metric table on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with span
//! recording off; with `--trace 1` they are the per-layer ones, and the
//! run also writes a Chrome trace and a self-time table to
//! `perfbench/out/`. See `perfbench/README.md` for what each workload and
//! metric means.

mod fit;
mod layers;
mod oracle;
mod report;
mod serving;
mod speed;
mod stats;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The seed of every corpus model's data set. Data stay fixed so that a
/// run's cost does not swing with the data draw (the posterior geometry,
/// and with it the NUTS trajectory lengths, changes with the data); the
/// workload seed picks chain seeds and the cold workload's fresh data and
/// tenant ids.
pub const DATA_SEED: u64 = 3;

/// The seed of the serving workloads' load pattern: arrival times and
/// which request kind (and, on cold, which kind of miss) each arrival is.
/// Fixed for the same reason as the data: with it drawn from the workload
/// seed, the p99 latencies spread about twice as much from seed to seed
/// as from run to run of one seed, so the spread measured the draw rather
/// than the code.
pub const LOAD_SEED: u64 = 11;

/// splitmix64 of `seed` and a stream index: the seeds of every derived
/// input (data sets, chains, arrival schedules, request mixes).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a splitmix64 state.
pub fn uniform(state: &mut u64) -> f64 {
    *state = mix(*state, 1);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    trace::set_enabled(false);
    let result = match args.workload.as_str() {
        "fit_corpus" => fit::run(&args),
        "serve_hot" => serving::run(&args, serving::Kind::Hot),
        "serve_cold" => serving::run(&args, serving::Kind::Cold),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(outcome) => {
            if args.trace {
                let spans = trace::spans();
                let dir = report::out_dir();
                let trace_path = dir.join(format!("{}-trace.json", args.workload));
                if let Err(e) = trace::write_chrome(&trace_path, &spans) {
                    eprintln!("perfbench: writing {}: {e}", trace_path.display());
                    return ExitCode::from(1);
                }
                let table = trace::render_self_times(&trace::self_times(&spans));
                let table_path = dir.join(format!("{}-selftime.txt", args.workload));
                if let Err(e) = std::fs::write(&table_path, &table) {
                    eprintln!("perfbench: writing {}: {e}", table_path.display());
                    return ExitCode::from(1);
                }
                eprintln!("{} spans -> {}\n{table}", spans.len(), trace_path.display());
            }
            outcome.print(&args.workload, args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
