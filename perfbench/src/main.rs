//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! stc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --set key=value ...
//! ```
//!
//! With `--trace 0` it repeats the workload at least twice and until
//! `--seconds` have passed, and reports the end-to-end metrics as medians
//! over the repetitions (over deploy windows, for the deploy metrics).  With
//! `--trace 1` it runs one traced and one untraced repetition and reports
//! the per-layer metrics of the traced one.  Either way it prints a table,
//! then one JSON line, and exits non-zero when an output check failed.

use std::process::ExitCode;
use std::time::Instant;

use stc_perfbench::trace::Trace;
use stc_perfbench::{check_rep, compare_reps, median, run_rep, Layers, Rep, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    settings: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut settings = Vec::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("{flag} has a malformed value `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--set" => settings.push(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        settings,
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics: medians over the repetitions, or, for the deploy
/// metrics, over every deploy window of every repetition scaled to the
/// reference host speed.  Returns the reported metrics, the deploy windows
/// as measured, and four metrics printed in the table only: they are
/// deterministic per seed (or zero when nothing fails), so they are checked
/// rather than bounded.
fn end_to_end(
    reps: &[Rep],
    attempted: usize,
    failed: usize,
) -> (Vec<Metric>, Vec<Metric>, Vec<Metric>) {
    let over = |f: &dyn Fn(&Rep) -> f64| median(reps.iter().map(f).collect());
    let windows = |f: &dyn Fn(&Rep) -> Vec<f64>| median(reps.iter().flat_map(f).collect());
    let first = &reps[0];
    let measured = vec![
        ("setup_s", over(&|r| r.setup_s), "s"),
        ("compact_s", over(&|r| r.compact_s), "s"),
        ("deploy_devices_per_s", windows(&|r| r.deploy.scaled_window_rates().collect()), "1/s"),
        ("deploy_us_p99", windows(&|r| r.deploy.scaled_window_p99s_us().collect()), "us"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let unscaled = vec![
        ("deploy_devices_per_s", windows(&|r| r.deploy.window_rates().collect()), "1/s"),
        ("deploy_us_p99", windows(&|r| r.deploy.window_p99s_us().collect()), "us"),
        ("host_slowdown", windows(&|r| r.deploy.window_slowdowns().collect()), "ratio"),
    ];
    let checked = vec![
        ("defect_escape", first.deploy.breakdown.defect_escape(), "fraction"),
        ("yield_loss", first.deploy.breakdown.yield_loss(), "fraction"),
        ("cost_reduction", first.report.cost.reduction, "fraction"),
        ("error_rate", ratio(failed as f64, attempted as f64), "fraction"),
    ];
    (measured, unscaled, checked)
}

fn per_layer(rep: &Rep, layers: &Layers, mc_threads: usize, overhead: f64) -> Vec<Metric> {
    let Layers { total, after_setup: svm, deploy, .. } = layers;
    let report = &rep.report;
    let cache = report.compaction.cache;
    let warm = report.warm_start();
    let sessions = rep.deploy.sessions as f64;
    let session_busy_s = rep.deploy.latencies_ns.iter().sum::<u64>() as f64 * 1e-9;
    let fits = svm.fits.calls as f64;
    vec![
        ("device.simulate_calls", total.simulate.calls as f64, "count"),
        ("device.simulate_busy_s", total.simulate.busy_s, "s"),
        ("device.rows_kept", layers.rows_kept as f64, "count"),
        (
            "device.useful_ratio",
            ratio(layers.rows_kept as f64, total.simulate.calls as f64),
            "ratio",
        ),
        ("device.failed", total.simulate.failed as f64, "count"),
        ("montecarlo.wall_s", layers.montecarlo_wall_s, "s"),
        (
            "montecarlo.parallel_eff",
            ratio(total.simulate.busy_s, mc_threads as f64 * layers.montecarlo_wall_s),
            "ratio",
        ),
        ("search.pairs_trained", report.budget().trainings as f64, "count"),
        ("search.solver_iterations", report.budget().solver_iterations as f64, "count"),
        (
            "search.cache_hit_ratio",
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        (
            "search.warm_ratio",
            ratio(warm.warm_trainings as f64, (warm.warm_trainings + warm.cold_trainings) as f64),
            "ratio",
        ),
        ("pipeline.wall_s", layers.pipeline_wall_s, "s"),
        ("pipeline.self_s", layers.pipeline_self_s, "s"),
        ("svm.fits", fits, "count"),
        ("svm.fit_busy_s", svm.fits.busy_s, "s"),
        ("svm.fit_ms_mean", ratio(svm.fits.busy_s * 1e3, fits), "ms"),
        ("svm.iterations_per_fit", ratio(svm.iterations as f64, fits), "count"),
        ("svm.bank_seeded_rows", svm.bank.seeded_rows as f64, "count"),
        ("svm.bank_rebuilt_rows", svm.bank.rebuilt_rows as f64, "count"),
        ("svm.bank_ignored", svm.bank.ignored_banks as f64, "count"),
        ("svm.decisions", svm.decisions.calls as f64, "count"),
        ("svm.decision_busy_s", svm.decisions.busy_s, "s"),
        (
            "svm.decision_us_mean",
            ratio(svm.decisions.busy_s * 1e6, svm.decisions.calls as f64),
            "us",
        ),
        ("svm.box_calls", svm.boxes.calls as f64, "count"),
        ("svm.box_busy_s", svm.boxes.busy_s, "s"),
        ("svm.box_us_mean", ratio(svm.boxes.busy_s * 1e6, svm.boxes.calls as f64), "us"),
        ("tester.sessions", sessions, "count"),
        ("tester.early_exit_frac", ratio(rep.deploy.early_exits as f64, sessions), "ratio"),
        ("tester.mean_depth", ratio(rep.deploy.measurements as f64, sessions), "count"),
        ("tester.self_s", session_busy_s - deploy.decisions.busy_s - deploy.boxes.busy_s, "s"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for (name, value, unit) in metrics {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Pipeline runs plus deploy sessions of one repetition.
fn operations(rep: &Rep) -> usize {
    1 + rep.deploy.sessions
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("stc-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let workload = match Workload::parse(&args.settings) {
        Ok(workload) => workload,
        Err(message) => {
            eprintln!("stc-perfbench: workload {}: {message}", args.workload);
            return ExitCode::from(2);
        }
    };

    let mut reps: Vec<Rep> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut record = |rep: Result<Rep, String>, reps: &mut Vec<Rep>, problems: &mut Vec<String>| {
        attempted += 1;
        match rep {
            Ok(rep) => {
                eprintln!(
                    "repetition {}: set-up {:.3} s, compaction {:.3} s, deploy {:.3} s",
                    reps.len() + 1,
                    rep.setup_s,
                    rep.compact_s,
                    rep.deploy.wall_s
                );
                attempted += operations(&rep) - 1;
                failed += rep.deploy.failed;
                let mut found = check_rep(&rep, &workload, reps.is_empty());
                if let Some(first) = reps.first() {
                    found.extend(compare_reps(first, &rep, true));
                }
                failed += found.len();
                problems.extend(found);
                reps.push(rep);
            }
            Err(message) => {
                failed += 1;
                problems.push(message);
            }
        }
    };

    let start = Instant::now();
    let mut overhead = 0.0;
    if args.trace {
        let trace = Trace::new();
        record(run_rep(&workload, args.seed, Some(&trace)), &mut reps, &mut problems);
        record(run_rep(&workload, args.seed, None), &mut reps, &mut problems);
        if let [traced, untraced] = &reps[..] {
            overhead = traced.total_s / untraced.total_s - 1.0;
        }
    } else {
        loop {
            record(run_rep(&workload, args.seed, None), &mut reps, &mut problems);
            let done = reps.len() >= 2 && start.elapsed().as_secs_f64() >= args.seconds;
            if !problems.is_empty() || done {
                break;
            }
        }
    }
    for problem in &problems {
        eprintln!("stc-perfbench: check failed: {problem}");
    }
    let correct = problems.is_empty();

    println!("workload {} (seed {}), {} repetitions", args.workload, args.seed, reps.len());
    if let Some(first) = reps.first() {
        println!(
            "kept {:?}, eliminated {:?}, {} search trainings",
            first.report.kept(),
            first.report.eliminated(),
            first.report.budget().trainings
        );
    }
    let metrics = match reps.first() {
        Some(first) if args.trace => match &first.layers {
            Some(layers) => {
                let metrics = per_layer(first, layers, workload.mc_threads, overhead);
                print_table("per-layer metrics (traced repetition):", &metrics);
                metrics
            }
            None => Vec::new(),
        },
        Some(_) => {
            let (measured, unscaled, checked) = end_to_end(&reps, attempted, failed);
            print_table("end-to-end metrics (medians over repetitions):", &measured);
            print_table(
                "deploy windows as measured, before scaling to the reference speed:",
                &unscaled,
            );
            print_table("quality and failures (checked, not bounded):", &checked);
            measured
        }
        None => Vec::new(),
    };
    println!("{}", json(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
