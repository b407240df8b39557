//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it sets the workload up five times (generation,
//! spec building and one untimed warm-up pass), runs timed passes until
//! `--seconds` of pass time are measured, checks every pass's outputs,
//! and re-runs one pass at one worker to compare digests. With
//! `--trace 1` it alternates untraced and traced single-worker replays
//! for `--seconds` and reports the per-layer breakdown of the replay
//! with the median traced wall time, writing its spans as Chrome
//! trace-event JSON.
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

use perfbench::{build_input, check_pass, median, replay, run_pass, Metric, Scale, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed passes per run at the least, however long they take.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <paper_sweep|loss_campaign> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut args = Args {
        workload: Workload::PaperSweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        workers: nproc.min(2),
        trace_out: None,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What one run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records a digest that must equal `expected`.
    fn expect_digest(&mut self, what: &str, digest: u64, expected: u64) {
        if digest != expected {
            self.failed += 1;
            self.failures
                .push(format!("{what}: digest {digest:016x} != {expected:016x}"));
        }
    }
}

/// Starts a fresh peak-RSS window for this workload (Linux: writing 5
/// to `clear_refs` resets `VmHWM`). Best effort: elsewhere the peak
/// covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn timed_run(args: &Args) -> Report {
    let scale = Scale::full();
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut baseline = None;
    let mut input = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = build_input(args.workload, args.seed, &scale);
        let warm = run_pass(&built, args.workers);
        setup_s.push(start.elapsed().as_secs_f64());
        let checked = check_pass(&built, &warm);
        report.failed += checked.failures.len() as u64;
        report.failures.extend(checked.failures);
        let expected = *baseline.get_or_insert(checked.digest);
        report.expect_digest("warm-up pass", checked.digest, expected);
        input = Some(built);
    }
    let input = input.expect("at least one set-up");
    let baseline = baseline.expect("at least one warm-up pass");

    let mut rates = Vec::new();
    let mut measured = 0.0;
    while rates.len() < MIN_PASSES || measured < args.seconds {
        let pass = run_pass(&input, args.workers);
        let wall = pass.wall.as_secs_f64();
        measured += wall;
        let checked = check_pass(&input, &pass);
        rates.push(checked.ops as f64 / wall);
        report.attempted += checked.ops;
        report.failed += checked.failed_ops;
        report.failures.extend(checked.failures);
        report.expect_digest("timed pass", checked.digest, baseline);
    }
    let rss = peak_rss_mb();

    // The digest contract: one worker gives the rows `workers` gave.
    if args.workers != 1 {
        let pass = run_pass(&input, 1);
        let checked = check_pass(&input, &pass);
        report.failed += checked.failures.len() as u64;
        report.failures.extend(checked.failures);
        report.expect_digest("one-worker pass", checked.digest, baseline);
    }

    let per_s = median(&rates);
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("perfbench: set-ups (s): {}", list(&setup_s));
    println!("perfbench: pass rates (1/s): {}", list(&rates));
    println!(
        "perfbench: {} seed {} workers {}: {} timed passes over {measured:.3} s, digest {baseline:016x}",
        args.workload.name(),
        args.seed,
        args.workers,
        rates.len()
    );
    let unit_rate = format!("{}_per_s", args.workload.op_unit());
    println!("perfbench: {unit_rate} = {per_s} 1/s (median over passes)");
    report.metrics.push(("ops_per_s", per_s, "1/s"));
    report.metrics.push(("setup_s", median(&setup_s), "s"));
    match rss {
        Some(mb) => report.metrics.push(("peak_rss_mb", mb, "MiB")),
        None => {
            report.failed += 1;
            report
                .failures
                .push("VmHWM unreadable from /proc/self/status".into());
        }
    }
    report
}

fn traced_run(args: &Args) -> Report {
    let mut report = Report::new();
    let input = build_input(args.workload, args.seed, &Scale::full());
    let warm = run_pass(&input, args.workers);
    let checked = check_pass(&input, &warm);
    drop(warm);
    report.failed += checked.failures.len() as u64;
    report.failures.extend(checked.failures);

    let start = Instant::now();
    let mut traced = Vec::new();
    let mut ratios = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate which side runs first so neither always follows
        // the other's allocations.
        let (plain, with_spans) = if traced.len() % 2 == 0 {
            let plain = replay(&input, false);
            (plain, replay(&input, true))
        } else {
            let with_spans = replay(&input, true);
            (replay(&input, false), with_spans)
        };
        ratios.push(with_spans.wall / plain.wall);
        for r in [&plain, &with_spans] {
            report.attempted += r.ops;
            report.failed += r.failed_ops;
            report.failures.extend(r.failures.iter().cloned());
        }
        traced.push(with_spans);
    }
    traced.sort_by(|a, b| a.wall.total_cmp(&b.wall));
    let chosen = &traced[traced.len() / 2];
    report.metrics = chosen.metrics.clone();
    report
        .metrics
        .push(("trace.overhead_ratio", median(&ratios), "ratio"));

    let path = args.trace_out.clone().unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        dir.join("perfbench")
            .join(format!("trace-{}-{}.json", args.workload.name(), args.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, chosen.tracer.chrome_json()));
    match written {
        Ok(()) => println!(
            "perfbench: {} spans of the median traced replay ({} replays) written to {}",
            chosen.tracer.spans().len(),
            traced.len(),
            path.display()
        ),
        Err(e) => {
            report.failed += 1;
            report
                .failures
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    report
}

fn json_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips.
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    reset_peak_rss();
    let report = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "perfbench: error_rate = {error_rate} ({} failed of {} {} attempted)",
        report.failed,
        report.attempted,
        args.workload.op_unit()
    );
    for (name, value, unit) in &report.metrics {
        println!("perfbench: {name} = {value} {unit}");
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
