//! Table 4 (appendix) — mean relative error of every backend against the
//! reference posterior, for every corpus model. Every run fits the model's
//! one `DATA_SEED` data set; runs differ only in their chain seeds.

use deepstan_bench::{accuracy_vs_reference, run_backend, BackendKind};

fn main() {
    let corpus = model_zoo::corpus();
    println!(
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "Model", "Stan(ref)", "Compr.", "Mixed", "Gener."
    );
    for entry in corpus.iter().filter(|e| e.name != "multimodal_guide") {
        if !entry.should_run() {
            println!(
                "{:<28} {:>10} {:>10} {:>10} {:>10}",
                entry.name, "✗", "✗", "✗", "✗"
            );
            continue;
        }
        let reference = run_backend(entry, BackendKind::StanRef, 42);
        let Some(ref_post) = reference.posterior.as_ref() else {
            println!("{:<28} reference failed", entry.name);
            continue;
        };
        // Self-error of a second reference run with a different chain seed
        // on the same data, the analogue of the paper's "Stan" error column.
        let second = run_backend(entry, BackendKind::StanRef, 43);
        let self_err = second
            .posterior
            .as_ref()
            .map(|p| accuracy_vs_reference(p, ref_post).1);
        let mut row = vec![self_err
            .map(|e| format!("{e:.2}"))
            .unwrap_or_else(|| "✗".to_string())];
        for backend in [
            BackendKind::GProbComprehensive,
            BackendKind::GProbMixed,
            BackendKind::GProbGenerative,
        ] {
            let outcome = run_backend(entry, backend, 7);
            row.push(match &outcome.posterior {
                Some(p) => format!("{:.2}", accuracy_vs_reference(p, ref_post).1),
                None => "✗".to_string(),
            });
        }
        println!(
            "{:<28} {:>10} {:>10} {:>10} {:>10}",
            entry.name, row[0], row[1], row[2], row[3]
        );
    }
    println!(
        "\nErrors are mean |mean - mean_ref| / stddev_ref; the paper's pass threshold is 0.3."
    );
}
