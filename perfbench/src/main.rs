//! `perfbench`: the two-clock benchmark for GPMR.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `sio_shuffle`, `wo_map`, `kmeans_journal`, `service_mix`
//! (`all` runs each in its own child process). Untraced, a run prints
//! every end-to-end metric; traced, every per-layer metric, the host self
//! time of each layer, and a Perfetto trace of the benchmark's spans
//! under `.perfbench/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Inputs come only from `--seed`. Simulated-clock facts of every run
//! are kept in `.perfbench/sim-ledger.tsv`, keyed by the binary's
//! content hash, workload, seed and fact; a later run of the same binary
//! and seed that reads a different value is reported as incorrect,
//! because host scheduling must never reach the simulated clock.

mod common;
mod kmeans;
mod service;
mod single;
mod timed;
mod trace;

use std::io::Write as _;
use std::process::{Command, ExitCode};

use gpmr_telemetry::json::{self, Value};

use common::{peak_rss_mb, work_dir, Report, RunArgs};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// A workload: runs under the given arguments and reports.
type Workload = fn(&RunArgs) -> Report;

const WORKLOADS: [(&str, Workload); 4] = [
    ("sio_shuffle", single::sio_shuffle),
    ("wo_map", single::wo_map),
    ("kmeans_journal", kmeans::kmeans_journal),
    ("service_mix", service::service_mix),
];

/// End-to-end metrics (untraced runs), with units. Every run prints all
/// of them; see `perfbench/METRICS.md` for how each applies per workload.
const END_TO_END: [(&str, &str); 10] = [
    ("host_job_s_p50", "s"),
    ("sim_makespan_ms", "ms"),
    ("host_jobs_s", "1/s"),
    ("sim_e2e_p50_ms", "ms"),
    ("sim_e2e_p99_ms", "ms"),
    ("deadline_hit_rate", "frac"),
    ("sim_max_rate_jobs_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (traced runs), with units. A layer a workload does
/// not exercise reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("apps.gen_s", "s"),
    ("apps.map_host_s", "s"),
    ("apps.reduce_host_s", "s"),
    ("apps.kernel_calls", "count"),
    ("sim-gpu.upload_sim_ms", "ms"),
    ("sim-gpu.map_sim_ms", "ms"),
    ("sim-gpu.mem_peak_mb", "MB"),
    ("sim-gpu.pool_scaling", "ratio"),
    ("sim-net.bin_sim_ms", "ms"),
    ("sim-net.shuffle_mb", "MB"),
    ("sim-net.transfer_retries", "count"),
    ("primitives.sort_sim_ms", "ms"),
    ("primitives.sort_host_melem_s", "Melem/s"),
    ("core.run_job_host_s", "s"),
    ("core.engine_self_s", "s"),
    ("core.reduce_sim_ms", "ms"),
    ("core.imbalance_cv", "cv"),
    ("core.chunks_dispatched", "count"),
    ("core.chunks_stolen", "count"),
    ("core.chunks_requeued", "count"),
    ("core.journal_overhead_s", "s"),
    ("core.journal_replay_s", "s"),
    ("core.journal_kb", "kB"),
    ("core.journal_records", "count"),
    ("core.rounds_resident_frac", "frac"),
    ("service.wait_p99_ms", "ms"),
    ("service.jobs_per_pass", "jobs"),
    ("service.rejected_frac", "frac"),
    ("service.gpu_busy_frac", "frac"),
    ("service.peak_queue_depth", "count"),
    ("service.host_ms_per_pass", "ms"),
    ("service.submit_host_us", "us"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.spans", "count"),
    ("bench.trace_spans", "count"),
    ("bench.peak_rss_mb", "MB"),
];

struct Cli {
    workload: String,
    args: RunArgs,
}

fn parse_cli() -> Result<Cli, String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Cli { workload, args })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir().join("tmp")) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir().display());
        return ExitCode::FAILURE;
    }
    // The service journals into the temporary directory; keep those
    // files inside the benchmark's own directory.
    match std::fs::canonicalize(work_dir().join("tmp")) {
        Ok(tmp) => std::env::set_var("TMPDIR", tmp),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if cli.workload == "all" {
        return run_all(&cli.args);
    }
    let (name, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == cli.workload)
        .expect("validated in parse_cli");
    if cli.args.traced {
        trace::enable();
    }
    let mut report = trace::scope("bench", *name, || run(&cli.args));
    finish(name, &cli.args, &mut report);
    print_report(name, &cli.args, &report);
    ExitCode::SUCCESS
}

/// Add the metrics every workload shares, check the ledger, and write
/// the trace.
fn finish(name: &str, args: &RunArgs, report: &mut Report) {
    let rss = peak_rss_mb().unwrap_or_else(|| {
        report.problem("cannot read peak RSS from /proc/self/status");
        0.0
    });
    let ok = if report.attempted == 0 {
        0.0
    } else {
        1.0 - report.failed as f64 / report.attempted as f64
    };
    if args.traced {
        report.metric("bench.peak_rss_mb", rss, "MB");
    } else {
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("ok_frac", ok, "frac");
    }
    report.note(format!(
        "jobs: {} attempted, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        1.0 - ok
    ));
    if let Err(e) = check_ledger(name, args.seed, report) {
        report.problem(format!("simulated-clock ledger: {e}"));
    }
    if let Some(rec) = trace::recording() {
        for (layer, t) in &rec.self_time {
            report.note(format!("self time {layer:<10} {:.4} s", t.as_secs_f64()));
        }
        report.metric(
            "bench.trace_spans",
            (rec.spans.len() + rec.dropped) as f64,
            "count",
        );
        let path = work_dir().join(format!("trace-{name}-seed{}.json", args.seed));
        match trace::to_perfetto(&rec.spans) {
            Ok((doc, events)) => match std::fs::write(&path, doc) {
                Ok(()) => report.note(format!(
                    "trace: {events} spans written to {} (validated), {} more only in the self times",
                    path.display(),
                    rec.dropped
                )),
                Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
            },
            Err(e) => report.problem(format!("trace fails validate_perfetto: {e}")),
        }
    }
    let table: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    for &(metric, unit) in table {
        if !report.metrics.iter().any(|(n, _, _)| *n == metric) {
            report.metric(metric, 0.0, unit);
        }
    }
    for &(metric, value, unit) in &report.metrics.clone() {
        match table.iter().find(|(n, _)| *n == metric) {
            Some((_, u)) if *u == unit => {}
            _ => report.problem(format!(
                "metric {metric} ({unit}) is not in the metric table"
            )),
        }
        if !value.is_finite() {
            report.problem(format!("metric {metric} is not finite"));
        }
    }
}

/// FNV-1a of the running executable: "same code" for the ledger.
fn binary_hash() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(gpmr_core::journal::fnv1a(&bytes))
}

/// Compare this run's simulated facts with earlier runs of the same
/// binary, workload and seed, then record the new ones.
fn check_ledger(name: &str, seed: u64, report: &mut Report) -> Result<(), String> {
    let path = work_dir().join("sim-ledger.tsv");
    let exe = format!("{:016x}", binary_hash()?);
    let seed = seed.to_string();
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    let mut fresh = String::new();
    let mut checked = 0;
    for (fact, bits) in &report.sim_facts {
        let prefix = format!("{exe}\t{name}\t{seed}\t{fact}\t");
        match known.lines().find_map(|l| l.strip_prefix(prefix.as_str())) {
            Some(old) if old == bits.to_string() => checked += 1,
            Some(old) => report.problems.push(format!(
                "simulated fact {fact} drifted: {bits} now, {old} in an earlier run"
            )),
            None => fresh.push_str(&format!("{prefix}{bits}\n")),
        }
    }
    report.notes.push(format!(
        "simulated-clock guard: {checked} facts match earlier runs, {} recorded",
        fresh.lines().count()
    ));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| e.to_string())?;
    f.write_all(fresh.as_bytes()).map_err(|e| e.to_string())
}

fn print_report(name: &str, args: &RunArgs, report: &Report) {
    println!(
        "perfbench {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    for n in &report.notes {
        println!("  {n}");
    }
    for p in &report.problems {
        println!("  PROBLEM: {p}");
    }
    for (metric, value, unit) in &report.metrics {
        println!("  {metric:<30} {value:>16.6} {unit}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|&(n, v, u)| {
            (
                n.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(v)),
                    ("unit".into(), Value::str(u)),
                ]),
            )
        })
        .collect();
    println!(
        "{}",
        result_line(
            report.problems.is_empty(),
            report.attempted,
            report.failed,
            metrics
        )
    );
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

/// Run every workload in a child process of its own (so peak memory is
/// per workload), relay their output, and end with one combined line
/// whose metric names carry the workload as a prefix.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for (name, _) in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {name} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let Some(last) = lines.pop().and_then(|l| json::parse(l).ok()) else {
            eprintln!("perfbench: {name} printed no result line");
            return ExitCode::FAILURE;
        };
        for l in lines {
            println!("{l}");
        }
        correct &= matches!(last.get("correct"), Some(Value::Bool(true)));
        attempted += last.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        failed += last.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(Value::Obj(fields)) = last.get("metrics") {
            for (k, v) in fields {
                metrics.push((format!("{name}.{k}"), v.clone()));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    ExitCode::SUCCESS
}
