//! Regenerates the paper's evaluation artifacts (Fig. 3a–f, Table I, and
//! the §IV-B summary numbers).
//!
//! ```text
//! cargo run --release -p qrc-bench --bin evaluate -- <target> [flags]
//!
//! targets:
//!   fig3a | fig3b | fig3c   histograms (fidelity / critical depth /
//!                           combination reward differences)
//!   fig3d | fig3e | fig3f   per-family mean differences
//!   table1                  3×3 model-vs-metric cross evaluation
//!   summary                 the §IV-B headline percentages
//!   ablation                design-choice ablations (shaping, masking,
//!                           features, policy baselines)
//!   perf                    serial-vs-parallel scoring throughput only
//!                           (writes BENCH_eval.json)
//!   serve                   replay a synthetic traffic mix through the
//!                           qrc-serve compilation service in seven
//!                           arms (serial / blocking batched /
//!                           pipelined socket replay, sharded registry,
//!                           restart warmup, observability, fleet
//!                           router, closed-loop retrain, dynamic
//!                           devices), print each arm's block, write
//!                           BENCH_serve.json, then check every row of
//!                           `serve_bench::GATES` on it: each failing
//!                           row is printed, and any failure exits 1
//!   all                     everything above except `serve` from one
//!                           evaluation run
//!
//! flags:
//!   --timesteps N    PPO budget per model        (default 8000)
//!   --max-qubits N   largest benchmark width     (default 6)
//!   --seed N         master seed                 (default 3)
//!   --full           paper scale: 2–20 qubits, 100k steps (hours)
//!   --sparse         disable reward shaping (paper's pure sparse reward)
//!   --penalty X      set the shaping step penalty (default 0.005)
//!   --quiet          suppress training progress
//!   --serial         disable rayon-parallel scoring/ablations
//!                    (skips the BENCH_eval.json report for `all`;
//!                    conflicts with `perf` and `serve`)
//!   --bench-out P    where `all`/`perf` write BENCH_eval.json and
//!                    `serve` writes BENCH_serve.json
//!   --requests N     (`serve`) synthetic traffic size  (default 400)
//!   --batch N        (`serve`) requests per batch      (default 32)
//!   --listen ADDR    (`serve`) preferred address for the pipelined
//!                    socket arm; a busy port retries on an ephemeral
//!                    one and the bound port lands in the report
//!                    (default: ephemeral loopback)
//! ```

use qrc_bench::{
    histogram, per_family_means, render_histogram, render_table1, reward_differences,
    run_evaluation, summary, table1, Compare, EvalSettings, Evaluation,
};
use qrc_predictor::RewardKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let target = args[0].clone();
    // Reject unknown targets before spending minutes on training.
    const TARGETS: [&str; 12] = [
        "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "table1", "summary", "ablation",
        "perf", "serve", "all",
    ];
    if !TARGETS.contains(&target.as_str()) {
        eprintln!("unknown target `{target}`");
        print_usage();
        std::process::exit(2);
    }
    let mut settings = EvalSettings::default();
    let mut serve_settings = qrc_bench::serve_bench::ServeBenchSettings::default();
    let mut bench_out = std::path::PathBuf::from(if target == "serve" {
        "BENCH_serve.json"
    } else {
        "BENCH_eval.json"
    });
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--timesteps" => {
                settings.timesteps = parse_next(&args, &mut i, "timesteps");
            }
            "--max-qubits" => {
                settings.max_qubits = parse_next(&args, &mut i, "max-qubits");
            }
            "--seed" => {
                settings.seed = parse_next(&args, &mut i, "seed");
            }
            "--full" => settings = EvalSettings::paper_scale(),
            "--sparse" => settings.step_penalty = 0.0,
            "--penalty" => {
                settings.step_penalty = parse_next(&args, &mut i, "penalty");
            }
            "--quiet" => settings.verbose = false,
            "--serial" => settings.parallel = false,
            "--requests" => {
                serve_settings.requests = parse_next(&args, &mut i, "requests");
            }
            "--batch" => {
                serve_settings.batch_size = parse_next(&args, &mut i, "batch");
            }
            "--listen" => {
                serve_settings.listen = Some(parse_next::<String>(&args, &mut i, "listen"));
            }
            "--bench-out" => {
                bench_out = parse_next::<String>(&args, &mut i, "bench-out").into();
            }
            other => {
                eprintln!("unknown flag `{other}`");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if target == "ablation" {
        let ab = qrc_bench::ablation::AblationSettings {
            max_qubits: settings.max_qubits.min(5),
            timesteps: settings.timesteps,
            reward: qrc_predictor::RewardKind::ExpectedFidelity,
            seed: settings.seed,
            parallel: settings.parallel,
            verbose: settings.verbose,
        };
        println!("\n=== Ablations (objective: fidelity) ===");
        let results = qrc_bench::ablation::run_ablations(&ab);
        print!("{}", qrc_bench::ablation::render_ablations(&results));
        return;
    }
    if target == "serve" {
        if !settings.parallel {
            eprintln!("--serial conflicts with `serve`: it measures serial vs batched serving");
            std::process::exit(2);
        }
        run_serve(&settings, &serve_settings, &bench_out);
        return;
    }
    // `all` and `perf` train once, then score the suite twice (serial
    // and rayon-parallel) to measure the parallel speedup and persist
    // it as BENCH_eval.json. `--serial` disables that comparison: it
    // contradicts `perf` (whose whole point is serial-vs-parallel) and
    // downgrades `all` to a plain serial evaluation with no report.
    if target == "perf" && !settings.parallel {
        eprintln!("--serial conflicts with `perf`: it measures serial vs parallel scoring");
        std::process::exit(2);
    }
    let eval = if (target == "all" || target == "perf") && settings.parallel {
        let eval = run_instrumented(&settings, &bench_out);
        if target == "perf" {
            return;
        }
        eval
    } else {
        run_evaluation(&settings)
    };
    match target.as_str() {
        "fig3a" => print_fig3_histogram(&eval, RewardKind::ExpectedFidelity, "Fig. 3a"),
        "fig3b" => print_fig3_histogram(&eval, RewardKind::CriticalDepth, "Fig. 3b"),
        "fig3c" => print_fig3_histogram(&eval, RewardKind::Combination, "Fig. 3c"),
        "fig3d" => print_fig3_families(&eval, RewardKind::ExpectedFidelity, "Fig. 3d"),
        "fig3e" => print_fig3_families(&eval, RewardKind::CriticalDepth, "Fig. 3e"),
        "fig3f" => print_fig3_families(&eval, RewardKind::Combination, "Fig. 3f"),
        "table1" => print_table1(&eval),
        "summary" => print_summary(&eval),
        "ablation" => unreachable!("handled before evaluation"),
        "all" => {
            print_fig3_histogram(&eval, RewardKind::ExpectedFidelity, "Fig. 3a");
            print_fig3_histogram(&eval, RewardKind::CriticalDepth, "Fig. 3b");
            print_fig3_histogram(&eval, RewardKind::Combination, "Fig. 3c");
            print_fig3_families(&eval, RewardKind::ExpectedFidelity, "Fig. 3d");
            print_fig3_families(&eval, RewardKind::CriticalDepth, "Fig. 3e");
            print_fig3_families(&eval, RewardKind::Combination, "Fig. 3f");
            print_table1(&eval);
            print_summary(&eval);
        }
        other => unreachable!("target `{other}` was validated before evaluation"),
    }
}

/// Trains the models, scores the suite serially and in parallel,
/// verifies the results agree, writes `BENCH_eval.json`, and returns
/// the (parallel-scored) evaluation.
fn run_instrumented(settings: &EvalSettings, bench_out: &std::path::Path) -> Evaluation {
    let suite = qrc_benchgen::paper_suite(2, settings.max_qubits);
    let train_start = std::time::Instant::now();
    let models = qrc_bench::train_models(&suite, settings);
    let train_secs = train_start.elapsed().as_secs_f64();
    let device = qrc_device::Device::get(settings.device);
    let (throughput, circuits) =
        qrc_bench::report::measure_throughput(&suite, &models, &device, settings.seed);
    assert!(
        throughput.results_identical,
        "parallel evaluation diverged from the serial path"
    );
    let eval = Evaluation {
        circuits,
        settings: settings.clone(),
        timing: qrc_bench::EvalTiming {
            train_secs,
            score_secs: throughput.parallel_secs,
        },
    };
    println!("\n=== Evaluation throughput ===");
    println!(
        "{} circuits | {} threads | serial {:.3}s | parallel {:.3}s | \
         {:.1} circuits/s | speedup {:.2}x",
        throughput.circuits,
        throughput.threads,
        throughput.serial_secs,
        throughput.parallel_secs,
        throughput.circuits_per_sec(),
        throughput.speedup()
    );
    match qrc_bench::report::write_bench_eval_json(bench_out, &eval, &throughput) {
        Ok(()) => println!("wrote {}", bench_out.display()),
        Err(e) => eprintln!("could not write {}: {e}", bench_out.display()),
    }
    eval
}

/// Runs the serve arms, prints each arm's block, and writes
/// `BENCH_serve.json`; then checks every row of `GATES` on that
/// artifact, prints each failing row, and exits 1 if any failed.
fn run_serve(
    settings: &EvalSettings,
    serve_settings: &qrc_bench::serve_bench::ServeBenchSettings,
    bench_out: &std::path::Path,
) {
    let blocks = qrc_bench::serve_bench::run_serve_bench(settings, serve_settings);
    for (arm, block) in &blocks {
        println!(
            "\n=== serve: {arm} ===\n{}",
            serde_json::to_string_pretty(block)
        );
    }
    let artifact = qrc_bench::report::bench_serve_value(blocks, settings);
    match qrc_bench::report::write_bench_serve_json(bench_out, &artifact) {
        Ok(()) => println!("wrote {}", bench_out.display()),
        Err(e) => eprintln!("could not write {}: {e}", bench_out.display()),
    }
    let gates = qrc_bench::serve_bench::GATES;
    let mut failed = 0;
    for gate in gates {
        if let Err(message) = (gate.check)(&artifact) {
            eprintln!("FAIL: {}: {message}", gate.name);
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} gates failed", gates.len());
        std::process::exit(1);
    }
    println!("all {} gates passed", gates.len());
}

/// Parses the value following flag `--name`, printing the shared
/// helper's message and exiting with a usage error on missing or
/// malformed input.
fn parse_next<T: std::str::FromStr>(args: &[String], i: &mut usize, name: &str) -> T {
    match qrc_serve::cliargs::flag_value(args, i, name) {
        Ok(v) => v,
        Err(message) => {
            eprintln!("error: {message}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    println!(
        "usage: evaluate <fig3a|fig3b|fig3c|fig3d|fig3e|fig3f|table1|summary|ablation|perf|serve|all> \
         [--timesteps N] [--max-qubits N] [--seed N] [--full] [--sparse] [--penalty X] [--quiet] \
         [--serial] [--bench-out PATH] [--requests N] [--batch N] [--listen ADDR]"
    );
}

fn print_fig3_histogram(eval: &Evaluation, metric: RewardKind, label: &str) {
    println!("\n=== {label}: reward difference histogram ({metric}) ===");
    for (against, name) in [(Compare::Qiskit, "Qiskit"), (Compare::Tket, "TKET")] {
        let diffs: Vec<f64> = reward_differences(eval, metric, against)
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        let bins = histogram(&diffs, 0.05, -1.0, 1.0);
        // Trim empty margins for readability. Unlike the serve shard
        // tags, a missing position here is purely display-shaping: an
        // all-empty histogram falls back to printing bin 0, and no
        // identifier or cache key is derived from the index.
        let first = bins.iter().position(|b| b.frequency > 0.0).unwrap_or(0);
        let last = bins.iter().rposition(|b| b.frequency > 0.0).unwrap_or(0);
        println!("--- compared to {name} (x > 0 ⇒ RL better) ---");
        print!("{}", render_histogram(&bins[first..=last]));
    }
}

fn print_fig3_families(eval: &Evaluation, metric: RewardKind, label: &str) {
    println!("\n=== {label}: mean reward difference per benchmark ({metric}) ===");
    println!("{:<16} {:>12} {:>12}", "benchmark", "vs Qiskit", "vs TKET");
    for (family, dq, dt) in per_family_means(eval, metric) {
        println!("{:<16} {:>12.4} {:>12.4}", family.name(), dq, dt);
    }
}

fn print_table1(eval: &Evaluation) {
    println!("\n=== Table I: cross-evaluation of the three models ===");
    print!("{}", render_table1(&table1(eval)));
    println!(
        "(diagonal should dominate each column: each model is best at its \
         own objective)"
    );
}

fn print_summary(eval: &Evaluation) {
    println!("\n=== §IV-B summary (paper: 73%/80%, 84%/86%, 75%/78.5%) ===");
    println!(
        "{:<16} {:>18} {:>18} {:>14} {:>14}",
        "metric", "≥ Qiskit", "≥ TKET", "Δ̄ vs Qiskit", "Δ̄ vs TKET"
    );
    for metric in RewardKind::ALL {
        let q = summary(eval, metric, Compare::Qiskit);
        let t = summary(eval, metric, Compare::Tket);
        println!(
            "{:<16} {:>17.1}% {:>17.1}% {:>14.4} {:>14.4}",
            metric.name(),
            q.wins_or_ties * 100.0,
            t.wins_or_ties * 100.0,
            q.mean_improvement,
            t.mean_improvement
        );
    }
    println!(
        "\n({} circuits, 2–{} qubits, {} timesteps/model, seed {})",
        eval.circuits.len(),
        eval.settings.max_qubits,
        eval.settings.timesteps,
        eval.settings.seed
    );
}
