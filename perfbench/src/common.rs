//! Shared pieces: run arguments, the result report, small statistics,
//! output fingerprints, the standalone sort probe and host memory.

use std::time::{Duration, Instant};

use gpmr_core::journal::hash_pairs;
use gpmr_core::{KvSet, Pod};
use gpmr_primitives::{bits_for_radix, sort_pairs_with_bits};
use gpmr_sim_gpu::{Gpu, GpuSpec, SimTime};
use gpmr_telemetry::analyze::{analyze, Analysis, Stage};
use gpmr_telemetry::TelemetrySnapshot;

use crate::timed::CallbackTimes;
use crate::trace;

/// One run's parameters, as given on the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl RunArgs {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics for the final JSON line: end-to-end ones untraced,
    /// per-layer ones traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Jobs attempted and jobs that errored or produced wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Simulated-clock facts that must repeat bit-exactly for the same
    /// seed and binary, whatever the host does.
    pub sim_facts: Vec<(String, u64)>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a simulated quantity by its exact bits.
    pub fn fact(&mut self, name: impl Into<String>, value: f64) {
        self.fact_u64(name, value.to_bits());
    }

    pub fn fact_u64(&mut self, name: impl Into<String>, value: u64) {
        self.sim_facts.push((name.into(), value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn problem(&mut self, line: impl Into<String>) {
        self.problems.push(line.into());
    }

    /// Count one attempted job; `ok == false` counts it as failed.
    pub fn job(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Median of durations, in seconds (0 for an empty set).
pub fn median_s(xs: &[Duration]) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(Duration::as_secs_f64).collect();
    median(&mut v)
}

/// Median of values (mean of the middle pair for even counts).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank quantile of a sorted slice (`q` in `[0, 1]`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Time `f` on the host clock.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Order-sensitive fingerprint of per-rank outputs.
pub fn fingerprint<K: Pod, V: Pod>(outputs: &[KvSet<K, V>]) -> u64 {
    let mut h = gpmr_core::journal::Fnv64::new();
    for o in outputs {
        h.write_u64(hash_pairs(&o.keys, &o.vals));
    }
    h.finish()
}

/// Peak resident set of this process in MB (10^6 bytes), from the
/// kernel's high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Small deterministic generator for benchmark-side randomness (arrival
/// times, job mixes, probe keys).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Time a standalone `sort_pairs_with_bits` of `pairs` random keys below
/// `key_space` (one reducer's bin), returning host Melem/s. Repeats until
/// `min_time` has passed (at least three sorts) and takes the median.
pub fn sort_probe(pairs: usize, key_space: u64, seed: u64, min_time: Duration) -> f64 {
    let pairs = pairs.max(1);
    let mut rng = SplitMix::new(seed ^ 0x736f_7274);
    let keys: Vec<u32> = (0..pairs)
        .map(|_| rng.below(key_space.max(1)) as u32)
        .collect();
    let vals = vec![1u32; pairs];
    let bits = bits_for_radix(key_space.saturating_sub(1));
    trace::scope("primitives", "sort_probe", || {
        let start = Instant::now();
        let mut times = Vec::new();
        while times.len() < 3 || start.elapsed() < min_time {
            let mut gpu = Gpu::new(GpuSpec::gt200());
            let (_, dt) = timed(|| {
                let out = sort_pairs_with_bits(&mut gpu, SimTime::ZERO, &keys, &vals, bits)
                    .expect("sort probe fits on one simulated device");
                std::hint::black_box(out)
            });
            times.push(dt);
        }
        pairs as f64 / median_s(&times) / 1e6
    })
}

/// Simulated per-stage attribution of a recorded run. A multi-round
/// recording restarts every round's engine clock at zero, so it is cut
/// at each `Round` span and every round is analyzed on its own; stage
/// times add up across rounds and the imbalance is averaged.
pub struct SimBreakdown {
    pub stage_ms: std::collections::BTreeMap<Stage, f64>,
    pub imbalance_cv: f64,
}

pub fn sim_breakdown(snap: &TelemetrySnapshot) -> SimBreakdown {
    let mut groups: Vec<Vec<gpmr_telemetry::SpanRecord>> = vec![Vec::new()];
    for s in &snap.spans {
        if s.kind == "Round" {
            groups.push(Vec::new());
        } else {
            groups
                .last_mut()
                .expect("one group always open")
                .push(s.clone());
        }
    }
    groups.retain(|g| !g.is_empty());
    let mut stage_ms = std::collections::BTreeMap::new();
    let mut cv_sum = 0.0;
    for spans in &groups {
        let part = TelemetrySnapshot {
            spans: spans.clone(),
            tracks: snap.tracks.clone(),
            metrics: snap.metrics.clone(),
            ..TelemetrySnapshot::default()
        };
        let a: Analysis = analyze(&part);
        for (stage, s) in &a.stage_s {
            *stage_ms.entry(*stage).or_insert(0.0) += s * 1e3;
        }
        cv_sum += a.imbalance_cv;
    }
    SimBreakdown {
        stage_ms,
        imbalance_cv: cv_sum / groups.len().max(1) as f64,
    }
}

impl SimBreakdown {
    pub fn ms(&self, stage: Stage) -> f64 {
        self.stage_ms.get(&stage).copied().unwrap_or(0.0)
    }
}

/// Largest `gpu.rank*.mem_peak_bytes` gauge, in MB.
pub fn mem_peak_mb(snap: &TelemetrySnapshot) -> f64 {
    snap.metrics
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("gpu.rank") && k.ends_with(".mem_peak_bytes"))
        .map(|(_, v)| *v)
        .fold(0.0, f64::max)
        / 1e6
}

/// The benchmark's scratch directory (journals, traces, the simulated
/// clock ledger), relative to the directory it runs from.
pub fn work_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".perfbench")
}

/// End-to-end metrics of a workload that runs one job at a time: `host`
/// are the timed jobs' host times.
pub fn single_job_metrics(report: &mut Report, host: &[Duration], makespan_s: f64, setup_s: f64) {
    let p50 = median_s(host);
    let ms = makespan_s * 1e3;
    let times: Vec<String> = host
        .iter()
        .map(|d| format!("{:.3}", d.as_secs_f64()))
        .collect();
    report.note(format!(
        "host jobs timed after a warm-up: {} ({})",
        host.len(),
        times.join(" ")
    ));
    report.metric("host_job_s_p50", p50, "s");
    report.metric("sim_makespan_ms", ms, "ms");
    // The median job's rate: steadier than the mean under host noise.
    report.metric("host_jobs_s", 1.0 / p50, "1/s");
    // A lone job finishes at its makespan, so every latency quantile is
    // the makespan and back-to-back jobs sustain 1/makespan. It carries
    // no deadline: a hit is a job that completed correctly.
    report.metric("sim_e2e_p50_ms", ms, "ms");
    report.metric("sim_e2e_p99_ms", ms, "ms");
    report.metric(
        "deadline_hit_rate",
        1.0 - report.failed as f64 / report.attempted as f64,
        "frac",
    );
    report.metric("sim_max_rate_jobs_s", 1.0 / makespan_s, "1/s");
    report.metric("setup_s", setup_s, "s");
}

/// What a traced run of engine jobs measured.
pub struct EngineTrace<'a> {
    /// The recording of one telemetry-on rep.
    pub snap: &'a TelemetrySnapshot,
    /// The median telemetry-off rep: its host time and callback times.
    pub job: Duration,
    pub callbacks: CallbackTimes,
    /// Host times of the telemetry-off, telemetry-on and one-worker reps.
    pub untraced: &'a [Duration],
    pub traced: &'a [Duration],
    pub one_worker: &'a [Duration],
    pub gens: &'a [Duration],
    /// One reducer's bin per pass, for the sort probe.
    pub bin_pairs: usize,
    pub key_space: u64,
    pub seed: u64,
}

/// The per-layer metrics every engine workload reports.
pub fn engine_layer_metrics(report: &mut Report, t: &EngineTrace) {
    let sim = trace::scope("telemetry", "analyze", || sim_breakdown(t.snap));
    let probe = sort_probe(t.bin_pairs, t.key_space, t.seed, Duration::from_millis(300));
    let counter = |name: &str| t.snap.metrics.counter(name) as f64;
    let cb = t.callbacks;
    let engine_self = t.job - cb.total();
    let untraced_s = median_s(t.untraced);
    report.note(format!(
        "job {:.4} s = map {:.4} s + reduce {:.4} s + engine self {:.4} s",
        t.job.as_secs_f64(),
        cb.map.as_secs_f64(),
        cb.reduce.as_secs_f64(),
        engine_self.as_secs_f64()
    ));
    report.metric("apps.gen_s", median_s(t.gens), "s");
    report.metric("apps.map_host_s", cb.map.as_secs_f64(), "s");
    report.metric("apps.reduce_host_s", cb.reduce.as_secs_f64(), "s");
    report.metric("apps.kernel_calls", cb.calls as f64, "count");
    report.metric("sim-gpu.upload_sim_ms", sim.ms(Stage::Upload), "ms");
    report.metric("sim-gpu.map_sim_ms", sim.ms(Stage::Map), "ms");
    report.metric("sim-gpu.mem_peak_mb", mem_peak_mb(t.snap), "MB");
    let scaling = median_s(t.one_worker) / untraced_s;
    report.metric("sim-gpu.pool_scaling", scaling, "ratio");
    report.metric("sim-net.bin_sim_ms", sim.ms(Stage::Bin), "ms");
    report.metric("sim-net.shuffle_mb", counter("fabric.bytes") / 1e6, "MB");
    let retries = counter("engine.transfer_retries");
    report.metric("sim-net.transfer_retries", retries, "count");
    report.metric("primitives.sort_sim_ms", sim.ms(Stage::Sort), "ms");
    report.metric("primitives.sort_host_melem_s", probe, "Melem/s");
    report.metric("core.run_job_host_s", t.job.as_secs_f64(), "s");
    report.metric("core.engine_self_s", engine_self.as_secs_f64(), "s");
    report.metric("core.reduce_sim_ms", sim.ms(Stage::Reduce), "ms");
    report.metric("core.imbalance_cv", sim.imbalance_cv, "cv");
    for (metric, counter_name) in [
        ("core.chunks_dispatched", "engine.chunks_dispatched"),
        ("core.chunks_stolen", "engine.chunks_stolen"),
        ("core.chunks_requeued", "engine.chunks_requeued"),
    ] {
        report.metric(metric, counter(counter_name), "count");
        report.fact_u64(counter_name, t.snap.metrics.counter(counter_name));
    }
    let overhead = median_s(t.traced) / untraced_s - 1.0;
    report.metric("telemetry.overhead_frac", overhead, "frac");
    let spans = t.snap.spans.len() as u64 + t.snap.dropped_spans;
    report.metric("telemetry.spans", spans as f64, "count");
    for (stage, ms) in &sim.stage_ms {
        report.fact(format!("stage_ms.{stage}"), *ms);
    }
    report.fact("imbalance_cv", sim.imbalance_cv);
    report.fact_u64("fabric.bytes", t.snap.metrics.counter("fabric.bytes"));
}
