//! `service_mix`: an open loop into the multi-tenant job service.
//!
//! Arrivals are due at seeded Poisson times on the simulated clock,
//! whatever the service's progress: the loop advances the service to
//! each arrival and submits. Three tenants share the default pool (2
//! engines × 4 GPUs); tenant `c` may run one job at a time. The mix is
//! small SIO (half opted into batching) and small WO jobs, some
//! journaled, some with a GPU kill, some with a deadline. One ladder pass
//! runs the same seeded streams of jobs at each of a few offered rates,
//! each stream on a fresh service, and checks every completed job's
//! output against its regenerated input's reference. Knee streams then
//! repeat while the time budget lasts: host time is the median over the
//! knee's short stream runs, and each repetition must reproduce the
//! ladder's run of that stream bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpmr_apps::sio;
use gpmr_apps::text::{generate_text, Dictionary};
use gpmr_apps::wo;
use gpmr_core::journal::Fnv64;
use gpmr_core::KvSet;
use gpmr_service::{JobId, JobKind, JobService, JobSpec, JobStatus, ServiceConfig, TenantConfig};
use gpmr_telemetry::Telemetry;

use crate::common::{fingerprint, median, nearest_rank, timed, Report, RunArgs, SplitMix};
use crate::trace;

/// Offered rates, jobs per simulated second. The first rung, at about
/// half of what the pool sustains, is the knee whose latency `sim_e2e_*`
/// reports: the last rate before queueing takes over the tail. The
/// others bracket the rate at which 1% of jobs exceed the limit (about
/// 1300/s).
const LADDER: [f64; 4] = [600.0, 1200.0, 1300.0, 1400.0];
const KNEE: usize = 0;
/// Jobs in one stream; each stream runs on a fresh service.
const STREAM_JOBS: usize = 500;
/// Streams each rung runs: the first this many of the seed's streams,
/// pooled. The knee's p99 then rests on 30 of its 3000 jobs, and each
/// probe rung's share over the limit on 1500 jobs: a single stream of
/// 1000 jobs left `sim_max_rate_jobs_s` spreading 2-5% across seeds and
/// the knee's p99 10-15%.
const STREAMS: [usize; 4] = [6, 3, 3, 3];
/// Arrival gaps are stratified in blocks of this many jobs, so each
/// block offers exactly the rung's rate.
const GAP_BLOCK: usize = 64;
/// Latency limit for `sim_max_rate_jobs_s`, and the deadline jobs carry.
const LIMIT_S: f64 = 0.010;
/// Fewest repetitions of knee streams, whatever the budget. Traced runs
/// repeat every knee stream twice, with service telemetry on and off.
const MIN_KNEE_REPS: usize = 2;
const MIN_TRACED_REPS: usize = 2 * STREAMS[KNEE];
/// Setup is well under a millisecond; many reps steady its median.
const SETUP_REPS: usize = 51;
/// Distinct input seeds per job kind.
const INPUT_SEEDS: u64 = 16;
/// Dictionary size of the small WO jobs.
const WO_DICT_WORDS: usize = 1_000;

fn tenants() -> Vec<TenantConfig> {
    vec![
        TenantConfig::unlimited("a"),
        TenantConfig::unlimited("b"),
        TenantConfig {
            max_concurrent: 1,
            ..TenantConfig::unlimited("c")
        },
    ]
}

/// Every rung's arrivals, by stream: (due time, spec).
type Schedule = Vec<Vec<Vec<(f64, JobSpec)>>>;

/// `n` unit-mean exponential gaps. Each block of `GAP_BLOCK` holds the
/// distribution's quantiles at the block's midpoints, shuffled by the
/// seed: gaps are exponential and bursty within a block, but every block
/// offers the nominal rate exactly. Plain Poisson arrivals let the load
/// realised over a few hundred jobs wander by several percent, which near
/// the pool's capacity moved the 1% tail, and with it
/// `sim_max_rate_jobs_s`, by over 20% from seed to seed.
fn stratified_gaps(n: usize, rng: &mut SplitMix) -> Vec<f64> {
    let mut gaps = Vec::with_capacity(n);
    for start in (0..n).step_by(GAP_BLOCK) {
        let m = GAP_BLOCK.min(n - start);
        gaps.extend((0..m).map(|i| -(1.0 - (i as f64 + 0.5) / m as f64).ln()));
        for i in (start + 1..start + m).rev() {
            let j = start + rng.below((i - start) as u64 + 1) as usize;
            gaps.swap(i, j);
        }
    }
    gaps
}

/// `n` values of an attribute in exact proportions, shuffled: each
/// `(value, weight)` fills `weight / total` of the slots.
fn stratified<T: Copy>(n: usize, parts: &[(T, usize)], rng: &mut SplitMix) -> Vec<T> {
    let total: usize = parts.iter().map(|(_, w)| w).sum();
    let mut out = Vec::with_capacity(n);
    let mut filled = 0;
    for (i, &(v, w)) in parts.iter().enumerate() {
        filled += w;
        let upto = if i + 1 == parts.len() {
            n
        } else {
            n * filled / total
        };
        out.resize(upto, v);
    }
    for i in (1..n).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// Every rung's arrivals: the first few of the seed's streams, their
/// unit-rate arrival times scaled to the rung's rate, so rungs differ
/// only in load and the tail grows smoothly from rung to rung.
fn schedule(seed: u64) -> Schedule {
    let mut seeds = SplitMix::new(seed ^ (0x5e7_u64 << 32));
    let streams: Vec<Vec<(f64, JobSpec)>> = (0..STREAMS.iter().copied().max().unwrap_or(0))
        .map(|_| stream(seed, &mut SplitMix::new(seeds.next_u64())))
        .collect();
    LADDER
        .iter()
        .zip(STREAMS)
        .map(|(&rate, n)| {
            streams[..n]
                .iter()
                .map(|s| s.iter().map(|(t, spec)| (t / rate, spec.clone())).collect())
                .collect()
        })
        .collect()
}

/// One stream of jobs at unit rate. Each job attribute comes in exact
/// proportions shuffled by the seed, so streams differ in arrival times,
/// order and combinations but not in the mix itself: 65% SIO (half of it
/// batchable) and 35% WO over five sizes, 45/40/15% to tenants a/b/c, 5%
/// journaled, 2% with a GPU kill, 30% with a deadline.
fn stream(seed: u64, rng: &mut SplitMix) -> Vec<(f64, JobSpec)> {
    let n = STREAM_JOBS;
    let sio_job = stratified(n, &[(true, 65), (false, 35)], rng);
    let batchable = stratified(n, &[(true, 1), (false, 1)], rng);
    let size = stratified(n, &[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], rng);
    let tenant = stratified(n, &[("a", 45), ("b", 40), ("c", 15)], rng);
    let journal = stratified(n, &[(true, 5), (false, 95)], rng);
    let kill = stratified(n, &[(true, 2), (false, 98)], rng);
    let deadline = stratified(n, &[(true, 30), (false, 70)], rng);
    let gaps = stratified_gaps(n, rng);
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            t += gaps[i];
            // Inputs repeat across jobs, as popular requests do: a few
            // seeds for each size and kind.
            let job_seed = seed.wrapping_mul(31).wrapping_add(rng.below(INPUT_SEEDS));
            let kind = if sio_job[i] {
                JobKind::Sio {
                    n: 16_384 + 8_192 * size[i],
                    seed: job_seed,
                    chunk_kb: 16,
                }
            } else {
                JobKind::Wo {
                    bytes: (32 << 10) + (16 << 10) * size[i],
                    dict_words: WO_DICT_WORDS,
                    seed: job_seed,
                    chunk_kb: 16,
                }
            };
            let mut spec = JobSpec::new(tenant[i], kind);
            spec.batchable = sio_job[i] && batchable[i];
            spec.journal = journal[i];
            spec.kill = kill[i].then_some((1, 0.0002));
            spec.deadline_s = deadline[i].then_some(LIMIT_S);
            (t, spec)
        })
        .collect()
}

/// One job's result as the benchmark sees it.
#[derive(Clone, Debug)]
struct JobOutcome {
    status: &'static str,
    e2e_s: f64,
    wait_s: f64,
    exec_s: f64,
    output: Option<u64>,
    /// Whether the output matched the reference; `None` when unchecked.
    correct: Option<bool>,
}

/// One stream's run on a fresh service.
#[derive(Clone, Copy, Debug)]
struct StreamRun {
    /// Host time, without the reference checks.
    host: Duration,
    completed: usize,
    passes: u64,
    /// Everything the run must reproduce on the simulated clock.
    fingerprint: u64,
}

/// The runs of one offered rate, pooled.
#[derive(Debug)]
struct Rung {
    jobs: Vec<JobOutcome>,
    passes: u64,
    dispatched: u64,
    rejected: u64,
    peak_depth: usize,
    /// Simulated time the backlog needed to clear after the last arrival.
    drain_s: f64,
    gpu_seconds: f64,
    span_s: f64,
    spans: usize,
    slo_sums_ok: bool,
    streams: Vec<StreamRun>,
}

impl Rung {
    /// Pool another stream's run at the same rate into this one.
    fn absorb(&mut self, other: Rung) {
        self.jobs.extend(other.jobs);
        self.passes += other.passes;
        self.dispatched += other.dispatched;
        self.rejected += other.rejected;
        self.peak_depth = self.peak_depth.max(other.peak_depth);
        self.drain_s = self.drain_s.max(other.drain_s);
        self.gpu_seconds += other.gpu_seconds;
        self.span_s += other.span_s;
        self.spans += other.spans;
        self.slo_sums_ok &= other.slo_sums_ok;
        self.streams.extend(other.streams);
    }

    fn host(&self) -> Duration {
        self.streams.iter().map(|s| s.host).sum()
    }
}

struct Pass {
    rungs: Vec<Rung>,
    submit_host: Duration,
    submits: u64,
}

/// Reference outputs already computed, by job input.
type References = Vec<(JobKind, Reference)>;

enum Reference {
    Sio(std::collections::HashMap<u32, u32>),
    Wo(Arc<Dictionary>, Vec<u32>),
}

fn outcome(svc: &JobService, id: JobId, refs: Option<&mut References>) -> JobOutcome {
    let status = svc.poll(id).expect("every submitted id is known");
    let submit = svc.submitted_at(id).unwrap_or(0.0);
    let (e2e_s, wait_s, exec_s) = match &status {
        JobStatus::Completed {
            started_s,
            finished_s,
            wait_s,
            ..
        } => (finished_s - submit, *wait_s, finished_s - started_s),
        _ => (f64::INFINITY, f64::INFINITY, 0.0),
    };
    JobOutcome {
        status: status.word(),
        e2e_s,
        wait_s,
        exec_s,
        output: svc.outputs(id).map(fingerprint),
        correct: match (refs, svc.spec(id), svc.outputs(id)) {
            (Some(refs), Some(spec), Some(outputs)) => {
                Some(reference_ok(refs, &spec.kind, outputs))
            }
            _ => None,
        },
    }
}

fn run_stream(
    arrivals: &[(f64, JobSpec)],
    tel: Telemetry,
    mut refs: Option<&mut References>,
    pass: &mut Pass,
) -> Rung {
    let start = Instant::now();
    let mut svc = JobService::new(ServiceConfig::default(), tenants(), tel);
    let mut depths = Vec::with_capacity(arrivals.len());
    let mut ids = Vec::with_capacity(arrivals.len());
    for (t, spec) in arrivals {
        trace::scope("service", "advance_to", || svc.advance_to(*t));
        let spec = spec.clone();
        let (id, dt) = trace::scope("service", "submit", || timed(|| svc.submit(spec)));
        pass.submit_host += dt;
        pass.submits += 1;
        ids.push(id);
        depths.push(svc.queue_depth());
    }
    let end = trace::scope("service", "drain", || svc.drain());
    let stats = svc.stats();
    let report = svc.slo_report();
    let (jobs, check): (Vec<JobOutcome>, _) = timed(|| {
        ids.iter()
            .map(|&id| outcome(&svc, id, refs.as_deref_mut()))
            .collect()
    });
    let run = StreamRun {
        host: start.elapsed() - check,
        completed: jobs.iter().filter(|j| j.status == "completed").count(),
        passes: stats.cluster_passes,
        fingerprint: stream_fingerprint(&jobs, stats.cluster_passes),
    };
    Rung {
        jobs,
        passes: stats.cluster_passes,
        dispatched: stats.cluster_passes - stats.batches_formed + stats.batched_jobs,
        rejected: stats.rejected,
        peak_depth: depths.iter().copied().max().unwrap_or(0),
        drain_s: end - arrivals.last().map_or(0.0, |(t, _)| *t),
        gpu_seconds: report.tenants.iter().map(|t| t.gpu_seconds).sum(),
        span_s: end,
        spans: svc.telemetry().snapshot().spans.len(),
        slo_sums_ok: report.tenants.iter().filter(|t| t.terminal() > 0).all(|t| {
            (t.hit_rate() + t.miss_rate() + t.cancel_rate() + t.fail_rate() - 1.0).abs() < 1e-9
        }),
        streams: vec![run],
    }
}

/// Run the given (rung, stream) pairs, each on a fresh service, pooling
/// consecutive runs of the same rung.
fn run_pass(
    sched: &Schedule,
    plan: &[(usize, usize)],
    traced_service: bool,
    check: bool,
    label: &str,
) -> Pass {
    let mut pass = Pass {
        rungs: Vec::new(),
        submit_host: Duration::ZERO,
        submits: 0,
    };
    let mut refs = check.then(References::new);
    let mut last = None;
    trace::scope("bench", label.to_string(), || {
        for &(rung, stream) in plan {
            let tel = if traced_service {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let label = format!("rate {}/s stream {stream}", LADDER[rung]);
            let r = trace::scope("bench", label, || {
                run_stream(&sched[rung][stream], tel, refs.as_mut(), &mut pass)
            });
            match pass.rungs.last_mut() {
                Some(pooled) if last == Some(rung) => pooled.absorb(r),
                _ => pass.rungs.push(r),
            }
            last = Some(rung);
        }
    });
    pass
}

/// Check the first pass: every completed job's output against its
/// regenerated input's reference, and the service's own invariants. A
/// deadline miss or a refusal is an SLO outcome, not an error.
fn verify(sched: &Schedule, pass: &Pass, report: &mut Report) {
    for (rung, (streams, r)) in sched.iter().zip(&pass.rungs).enumerate() {
        if !r.slo_sums_ok {
            report.problem(format!(
                "rate {}: tenant SLO rates do not sum to 1",
                LADDER[rung]
            ));
        }
        for ((_, spec), job) in streams.iter().flatten().zip(&r.jobs) {
            let ok = match job.status {
                "completed" => job.correct == Some(true),
                "deadline-missed" | "rejected" => true,
                _ => false,
            };
            report.job(ok);
            if !ok {
                report.problem(format!(
                    "rate {}: {} job ended {} with a wrong or missing output",
                    LADDER[rung],
                    spec.kind.name(),
                    job.status
                ));
            }
        }
    }
}

/// Regenerate a job's input the way the service does and compare the
/// job's merged output with the app's CPU reference (computed once per
/// distinct input).
fn reference_ok(refs: &mut References, kind: &JobKind, outputs: &[KvSet<u32, u32>]) -> bool {
    let mut out = KvSet::new();
    for o in outputs {
        out.extend_from_set(o);
    }
    if !refs.iter().any(|(k, _)| k == kind) {
        let reference = match *kind {
            JobKind::Sio { n, seed, .. } => {
                Reference::Sio(sio::cpu_reference(&sio::generate_integers(n, seed)))
            }
            JobKind::Wo {
                bytes,
                dict_words,
                seed,
                ..
            } => {
                let dict = Arc::new(Dictionary::generate(dict_words, seed));
                let counts = wo::cpu_reference(&dict, &generate_text(&dict, bytes, seed + 1));
                Reference::Wo(dict, counts)
            }
        };
        refs.push((*kind, reference));
    }
    let (_, reference) = refs
        .iter()
        .find(|(k, _)| k == kind)
        .expect("inserted above");
    match reference {
        Reference::Sio(expect) => {
            out.len() == expect.len() && out.iter().all(|(k, v)| expect.get(k) == Some(v))
        }
        Reference::Wo(dict, expect) => wo::counts_from_output(dict, &out) == *expect,
    }
}

/// Everything a stream's run must reproduce on the simulated clock.
fn stream_fingerprint(jobs: &[JobOutcome], passes: u64) -> u64 {
    let mut h = Fnv64::new();
    for j in jobs {
        h.write(j.status.as_bytes());
        h.write_u64(j.e2e_s.to_bits());
        h.write_u64(j.output.unwrap_or(0));
    }
    h.write_u64(passes);
    h.finish()
}

/// 99th percentile of submit-to-finish latency over every job, with a
/// job that did not complete (deadline missed, refused, failed) counted
/// at twice the limit: over it, yet finite, so the notes can print it.
fn p99_all(r: &Rung) -> f64 {
    let mut e2e: Vec<f64> = r.jobs.iter().map(|j| j.e2e_s.min(2.0 * LIMIT_S)).collect();
    e2e.sort_by(f64::total_cmp);
    nearest_rank(&e2e, 0.99)
}

fn completed_quantile(r: &Rung, q: f64, field: fn(&JobOutcome) -> f64) -> f64 {
    let mut v: Vec<f64> = r
        .jobs
        .iter()
        .filter(|j| j.status == "completed")
        .map(field)
        .collect();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q)
}

/// Share of jobs over the limit: submit-to-finish later than it, or
/// not completed at all (deadline missed, refused, failed).
fn over_limit(r: &Rung) -> f64 {
    let over = r.jobs.iter().filter(|j| j.e2e_s > LIMIT_S).count();
    over as f64 / r.jobs.len().max(1) as f64
}

/// The highest offered rate whose p99 over all jobs stays within the
/// limit, that is, at which at most 1% of jobs are over it. The share
/// over the limit is interpolated linearly between the last rung at or
/// under 1% and the first above it; interpolating the p99 itself would
/// jump, because it leaps from under the limit to a missed job's
/// latency. A growing queue shows as a share over 1%: its jobs wait,
/// miss deadlines or are refused.
fn max_rate(rungs: &[Rung]) -> f64 {
    const SHARE: f64 = 0.01;
    let Some(j) = rungs.iter().position(|r| over_limit(r) > SHARE) else {
        return LADDER[LADDER.len() - 1];
    };
    if j == 0 {
        return LADDER[0] * SHARE / over_limit(&rungs[0]);
    }
    let (lo, hi) = (over_limit(&rungs[j - 1]), over_limit(&rungs[j]));
    LADDER[j - 1] + (LADDER[j] - LADDER[j - 1]) * (SHARE - lo) / (hi - lo)
}

pub fn service_mix(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut sched = None;
    for rep in 0..SETUP_REPS {
        let ((s, svc), dt) = trace::scope("service", format!("setup {rep}"), || {
            timed(|| {
                let s = schedule(args.seed);
                let svc =
                    JobService::new(ServiceConfig::default(), tenants(), Telemetry::disabled());
                (s, svc)
            })
        });
        drop(svc);
        setups.push(dt.as_secs_f64());
        sched = Some(s);
    }
    let sched = sched.expect("SETUP_REPS > 0");
    let setup_s = median(&mut setups);

    let budget = args.budget();
    let start = Instant::now();
    let plan: Vec<(usize, usize)> = (0..LADDER.len())
        .flat_map(|r| (0..STREAMS[r]).map(move |s| (r, s)))
        .collect();
    let ladder = run_pass(&sched, &plan, false, true, "ladder");
    verify(&sched, &ladder, &mut report);
    let knee = &ladder.rungs[KNEE];
    // Knee streams repeat in turn while the budget lasts; traced runs
    // run each twice in a row, service telemetry on, then off.
    let mut untraced = knee.streams.clone();
    let mut traced = Vec::new();
    let (mut submits, mut submit_host) = (ladder.submits, ladder.submit_host);
    let mut spans = 0;
    let mut overheads = Vec::new();
    let mut reps = 0;
    let min_reps = if args.traced {
        MIN_TRACED_REPS
    } else {
        MIN_KNEE_REPS
    };
    while reps < min_reps || start.elapsed() < budget {
        let (stream, on) = if args.traced {
            ((reps / 2) % STREAMS[KNEE], reps % 2 == 0)
        } else {
            (reps % STREAMS[KNEE], false)
        };
        let label = format!("knee rep {reps}{}", if on { " traced" } else { "" });
        let p = run_pass(&sched, &[(KNEE, stream)], on, false, &label);
        let r = &p.rungs[0];
        if r.streams[0].fingerprint != knee.streams[stream].fingerprint {
            report.problem(format!(
                "{label}: simulated outcome differs from the ladder's run of stream {stream}"
            ));
            report.job(false);
        }
        if on {
            traced.push(r.streams[0]);
            spans = r.spans;
        } else {
            if let (true, Some(on)) = (args.traced, traced.last()) {
                overheads.push(on.host.as_secs_f64() / r.streams[0].host.as_secs_f64() - 1.0);
            }
            untraced.push(r.streams[0]);
            submits += p.submits;
            submit_host += p.submit_host;
        }
        reps += 1;
    }

    let jobs: usize = ladder.rungs.iter().map(|r| r.jobs.len()).sum();
    let completed: Vec<&JobOutcome> = ladder
        .rungs
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| j.status == "completed")
        .collect();
    let with_deadline: Vec<(&JobSpec, &JobOutcome)> = sched
        .iter()
        .zip(&ladder.rungs)
        .flat_map(|(streams, r)| streams.iter().flatten().map(|(_, s)| s).zip(&r.jobs))
        .filter(|(s, _)| s.deadline_s.is_some())
        .collect();
    let hit = with_deadline
        .iter()
        .filter(|(_, j)| j.status == "completed")
        .count();
    let med = |runs: &[StreamRun], f: fn(&StreamRun) -> f64| -> f64 {
        median(&mut runs.iter().map(f).collect::<Vec<_>>())
    };
    let knee_s = med(&untraced, |r| r.host.as_secs_f64());
    let e2e_p50 = completed_quantile(knee, 0.5, |j| j.e2e_s);
    let e2e_p99 = completed_quantile(knee, 0.99, |j| j.e2e_s);
    let mean_exec = completed.iter().map(|j| j.exec_s).sum::<f64>() / completed.len().max(1) as f64;
    let rate = max_rate(&ladder.rungs);
    for (r, rung) in ladder.rungs.iter().enumerate() {
        report.note(format!(
            "rate {:>6}/s: p99 {:.3} ms (misses count as twice the limit), {:.2}% over the limit, backlog cleared in {:.3} ms, {} rejected, peak queue {}, {} jobs in {:.3} host s",
            LADDER[r],
            p99_all(rung) * 1e3,
            over_limit(rung) * 100.0,
            rung.drain_s * 1e3,
            rung.rejected,
            rung.peak_depth,
            rung.jobs.len(),
            rung.host().as_secs_f64(),
        ));
        report.fact(format!("rate{r}.p99_all_s"), p99_all(rung));
        report.fact(format!("rate{r}.over_limit"), over_limit(rung));
        report.fact_u64(format!("rate{r}.passes"), rung.passes);
        for (i, s) in rung.streams.iter().enumerate() {
            report.fact_u64(format!("rate{r}.stream{i}.fnv"), s.fingerprint);
        }
    }
    report.note(format!(
        "knee stream runs of {} jobs: {} untraced, {} traced; untraced host s: {}",
        STREAM_JOBS,
        untraced.len(),
        traced.len(),
        untraced
            .iter()
            .map(|r| format!("{:.3}", r.host.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.fact("max_rate_jobs_s", rate);

    if !args.traced {
        report.metric("host_job_s_p50", knee_s / STREAM_JOBS as f64, "s");
        report.metric(
            "host_jobs_s",
            med(&untraced, |r| r.completed as f64 / r.host.as_secs_f64()),
            "1/s",
        );
        report.metric("sim_makespan_ms", mean_exec * 1e3, "ms");
        report.metric("sim_e2e_p50_ms", e2e_p50 * 1e3, "ms");
        report.metric("sim_e2e_p99_ms", e2e_p99 * 1e3, "ms");
        report.metric(
            "deadline_hit_rate",
            hit as f64 / with_deadline.len().max(1) as f64,
            "frac",
        );
        report.metric("sim_max_rate_jobs_s", rate, "1/s");
        report.metric("setup_s", setup_s, "s");
        return report;
    }

    let sum = |f: fn(&Rung) -> f64| ladder.rungs.iter().map(f).sum::<f64>();
    let passes = sum(|r| r.passes as f64);
    let cfg = ServiceConfig::default();
    let capacity = cfg.engines as f64 * f64::from(cfg.gpus) * sum(|r| r.span_s);
    report.metric(
        "service.wait_p99_ms",
        completed_quantile(knee, 0.99, |j| j.wait_s) * 1e3,
        "ms",
    );
    report.metric(
        "service.jobs_per_pass",
        sum(|r| r.dispatched as f64) / passes,
        "jobs",
    );
    report.metric(
        "service.rejected_frac",
        sum(|r| r.rejected as f64) / jobs as f64,
        "frac",
    );
    report.metric(
        "service.gpu_busy_frac",
        sum(|r| r.gpu_seconds) / capacity,
        "frac",
    );
    report.metric(
        "service.peak_queue_depth",
        ladder.rungs.iter().map(|r| r.peak_depth).max().unwrap_or(0) as f64,
        "count",
    );
    report.metric(
        "service.host_ms_per_pass",
        med(&untraced, |r| r.host.as_secs_f64() * 1e3 / r.passes as f64),
        "ms",
    );
    report.metric(
        "service.submit_host_us",
        submit_host.as_secs_f64() * 1e6 / submits.max(1) as f64,
        "us",
    );
    // Each stream's run with telemetry on against its run just after,
    // with it off.
    report.metric("telemetry.overhead_frac", median(&mut overheads), "frac");
    report.metric("telemetry.spans", spans as f64, "count");
    report
}
