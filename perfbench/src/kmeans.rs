//! `kmeans_journal`: Lloyd's iterations on `core::rounds`, journaled.
//!
//! Each rep runs a fixed number of rounds (the tolerance is negative, so
//! convergence never stops the loop early) with a write-ahead journal,
//! then cuts the journal at half its records and resumes from the cut.
//! The resumed run must end with the same centers and the same
//! cross-round clock, bit for bit. The first rep's centers must equal
//! `reference_kmeans` bit for bit. Traced, a plain (unjournaled) run joins
//! each rep to price the journal, then a telemetry-on rep and a one-worker
//! rep follow.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpmr_apps::iterative::{reference_kmeans, KmcRounds};
use gpmr_apps::kmc::{generate_points, initial_centers, Point, DIMS};
use gpmr_core::rounds::{run_rounds, run_rounds_journaled};
use gpmr_core::{EngineTuning, Journal, SliceChunk};
use gpmr_sim_gpu::GpuSpec;
use gpmr_sim_net::Cluster;
use gpmr_telemetry::Telemetry;

use crate::common::{
    engine_layer_metrics, median_s, single_job_metrics, timed, work_dir, EngineTrace, Report,
    RunArgs,
};
use crate::timed::{CallbackClock, CallbackTimes, TimedRounds};
use crate::trace;

const GPUS: u32 = 4;
/// Points: about a million. The seed takes up to 1023 points off every
/// chunk (under 1% in all), so simulated times differ between seeds.
const POINTS: usize = 1_000_000;
const K: usize = 16;
const ROUNDS: u32 = 20;
/// Negative: no movement is ever below it, so every run does `ROUNDS`.
const TOLERANCE: f64 = -1.0;
/// Equal chunks, two per GPU, so every chunk's size follows the seeded
/// point count.
const CHUNKS: usize = 8;
const SETUP_REPS: usize = 5;
/// Fewest journaled jobs per untraced run, whatever the budget.
const MIN_JOBS: usize = 3;

struct Input {
    points: Vec<Point>,
    init: Vec<Point>,
    chunks: Vec<SliceChunk<Point>>,
    cluster: Cluster,
    gen: Duration,
}

fn setup(seed: u64) -> Input {
    let ((points, init), gen) = trace::scope("apps", "generate", || {
        timed(|| {
            (
                generate_points(POINTS - (seed % 1_024) as usize * CHUNKS, K, seed),
                initial_centers(K, seed.wrapping_add(1)),
            )
        })
    });
    let chunks = SliceChunk::split(&points, points.len().div_ceil(CHUNKS));
    Input {
        points,
        init,
        chunks,
        cluster: Cluster::accelerator(GPUS, GpuSpec::gt200()),
        gen,
    }
}

/// What a finished drive must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    center_bits: Vec<u32>,
    clock_bits: u64,
    rounds: u32,
    resident_rounds: usize,
}

fn center_bits(centers: &[Point]) -> Vec<u32> {
    centers
        .iter()
        .flat_map(|c| c.iter().take(DIMS).map(|x| x.to_bits()))
        .collect()
}

/// Journal files live in the benchmark's work directory, one set per
/// process.
fn journal_path(tag: &str) -> PathBuf {
    work_dir().join(format!("kmeans-{}-{tag}.jnl", std::process::id()))
}

struct Drive {
    outcome: Outcome,
    host: Duration,
    callbacks: CallbackTimes,
    key_space: u64,
}

/// One drive of `ROUNDS` rounds, journaled into `journal` when given.
fn drive(
    input: &mut Input,
    clock: &Arc<CallbackClock>,
    tel: &Telemetry,
    journal: Option<&mut Journal>,
    span: &str,
) -> Result<Drive, String> {
    let mut rounds = TimedRounds::new(
        KmcRounds::new(input.init.clone(), ROUNDS, TOLERANCE),
        Arc::clone(clock),
    );
    let chunks = input.chunks.clone();
    let tuning = EngineTuning::default();
    let cluster = &mut input.cluster;
    let before = clock.read();
    let (res, host) = trace::scope("core", span, || {
        timed(|| match journal {
            Some(j) => run_rounds_journaled(cluster, &mut rounds, chunks, &tuning, tel, j),
            None => run_rounds(cluster, &mut rounds, chunks, &tuning, tel),
        })
    });
    let callbacks = clock.read().since(&before);
    let res = res.map_err(|e| format!("{span}: engine error: {e}"))?;
    let key_space = res
        .outputs
        .iter()
        .flat_map(|o| o.keys.iter())
        .max()
        .map_or(1, |&k| u64::from(k) + 1);
    Ok(Drive {
        outcome: Outcome {
            center_bits: center_bits(rounds.inner.centers()),
            clock_bits: res.total_time.as_secs().to_bits(),
            rounds: res.rounds,
            resident_rounds: res.per_round.iter().filter(|r| r.resident).count(),
        },
        host,
        callbacks,
        key_space,
    })
}

/// A journaled drive followed by a resume from the journal cut at half
/// its records.
struct JournaledRep {
    full: Drive,
    resume_host: Duration,
    journal_bytes: u64,
    journal_records: usize,
}

fn journaled_rep(
    input: &mut Input,
    clock: &Arc<CallbackClock>,
    tel: &Telemetry,
    label: &str,
    resume: bool,
) -> Result<JournaledRep, String> {
    let path = journal_path("full");
    let cut_path = journal_path("cut");
    let io = |e: std::io::Error| format!("{label}: journal file: {e}");
    let mut journal = Journal::create(&path, 1).map_err(|e| format!("{label}: {e}"))?;
    let full = drive(
        input,
        clock,
        tel,
        Some(&mut journal),
        "run_rounds_journaled",
    )?;
    drop(journal);
    if !resume {
        let _ = std::fs::remove_file(&path);
        return Ok(JournaledRep {
            full,
            resume_host: Duration::ZERO,
            journal_bytes: 0,
            journal_records: 0,
        });
    }

    let (journal_records, journal_bytes, resumed) = trace::scope("core", "journal_resume", || {
        let (records, offsets) = Journal::scan(&path).map_err(|e| format!("{label}: {e}"))?;
        let bytes = std::fs::read(&path).map_err(io)?;
        let cut = offsets[records.len() / 2] as usize;
        std::fs::write(&cut_path, &bytes[..cut]).map_err(io)?;
        let (resumed, resume_host) = timed(|| -> Result<Drive, String> {
            let mut journal = Journal::resume(&cut_path, 1).map_err(|e| format!("{label}: {e}"))?;
            drive(input, clock, tel, Some(&mut journal), "resume from half")
        });
        Ok::<_, String>((records.len(), bytes.len() as u64, (resumed?, resume_host)))
    })?;
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
    let (resumed, resume_host) = resumed;
    if resumed.outcome != full.outcome {
        return Err(format!(
            "{label}: resumed drive differs from the uninterrupted one: {:?} vs {:?}",
            resumed.outcome, full.outcome
        ));
    }
    Ok(JournaledRep {
        full,
        resume_host,
        journal_bytes,
        journal_records,
    })
}

pub fn kmeans_journal(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut input = None;
    for rep in 0..SETUP_REPS {
        drop(input.take());
        let (inp, dt) = trace::scope("bench", format!("setup {rep}"), || {
            timed(|| setup(args.seed))
        });
        setups.push(dt);
        gens.push(inp.gen);
        input = Some(inp);
    }
    let mut input = input.expect("SETUP_REPS > 0");
    let (reference, _) = reference_kmeans(
        &input.points,
        input.init.clone(),
        ROUNDS as usize,
        TOLERANCE,
    );
    let reference = center_bits(&reference);

    let clock = Arc::new(CallbackClock::default());
    let off = Telemetry::disabled();
    let mut first: Option<Outcome> = None;
    // Check one journaled rep against the reference (first rep) or the
    // first rep (later ones); returns the rep when it was correct.
    let mut accept = |rep: Result<JournaledRep, String>, report: &mut Report| {
        let ok = match &rep {
            Err(e) => {
                report.problem(e.clone());
                false
            }
            Ok(r) => match &first {
                None if r.full.outcome.center_bits == reference
                    && r.full.outcome.rounds == ROUNDS =>
                {
                    first = Some(r.full.outcome.clone());
                    true
                }
                None => {
                    report.problem("centers differ from reference_kmeans");
                    false
                }
                Some(f) if *f == r.full.outcome => true,
                Some(f) => {
                    report.problem(format!(
                        "simulated outcome drifted: {:?} vs first {f:?}",
                        r.full.outcome
                    ));
                    false
                }
            },
        };
        report.job(ok);
        rep.ok().filter(|_| ok)
    };

    // The warm-up rep runs the reference check and is not timed.
    let warm = trace::scope("bench", "warm-up", || {
        journaled_rep(&mut input, &clock, &off, "warm-up", true)
    });
    accept(warm, &mut report);
    let budget = args.budget();
    let start = Instant::now();
    if !args.traced {
        let mut host = Vec::new();
        let mut n = 0;
        while n < MIN_JOBS || start.elapsed() < budget {
            let label = format!("rep {n}");
            let rep = trace::scope("bench", label.clone(), || {
                journaled_rep(&mut input, &clock, &off, &label, true)
            });
            n += 1;
            if let Some(r) = accept(rep, &mut report) {
                host.push(r.full.host);
            }
        }
        let Some(out) = first else {
            return report;
        };
        let total_s = f64::from_bits(out.clock_bits);
        single_job_metrics(&mut report, &host, total_s, median_s(&setups));
        report.fact("total_time_s", total_s);
        report.fact_u64("resident_rounds", out.resident_rounds as u64);
        return report;
    }

    // Traced run: rounds of a plain drive, a journaled drive with its
    // resume, a telemetry-on journaled drive and a one-worker journaled
    // drive, so host drift hits every variant alike.
    let mut plain = Vec::new();
    let mut reps: Vec<JournaledRep> = Vec::new();
    let mut traced = Vec::new();
    let mut single = Vec::new();
    let mut snap = None;
    let mut n = 0;
    while n == 0 || start.elapsed() < budget {
        trace::scope("bench", format!("round {n}"), || {
            match drive(&mut input, &clock, &off, None, "run_rounds") {
                Ok(d) => plain.push(d.host),
                Err(e) => report.problem(e),
            }
            let rep = journaled_rep(&mut input, &clock, &off, "untraced", true);
            reps.extend(accept(rep, &mut report));
            let tel = Telemetry::with_capacity(1 << 22);
            let rep = journaled_rep(&mut input, &clock, &tel, "traced", false);
            traced.extend(accept(rep, &mut report).map(|r| r.full.host));
            snap.get_or_insert_with(|| tel.snapshot());
            let workers: Vec<usize> = (0..GPUS)
                .map(|r| input.cluster.gpu(r).worker_threads)
                .collect();
            for r in 0..GPUS {
                input.cluster.gpu(r).worker_threads = 1;
            }
            let rep = journaled_rep(&mut input, &clock, &off, "1-worker", false);
            single.extend(accept(rep, &mut report).map(|r| r.full.host));
            for (r, w) in workers.into_iter().enumerate() {
                input.cluster.gpu(r as u32).worker_threads = w;
            }
        });
        n += 1;
    }
    let (Some(out), Some(snap), false) = (first.clone(), snap, reps.is_empty()) else {
        return report;
    };

    let journaled: Vec<Duration> = reps.iter().map(|r| r.full.host).collect();
    let resumes: Vec<Duration> = reps.iter().map(|r| r.resume_host).collect();
    let untraced_s = median_s(&journaled);
    reps.sort_by_key(|r| r.full.host);
    let mid = &reps[reps.len() / 2];
    report.note(format!(
        "rounds of (plain, journaled + resume, traced, 1-worker) drives after a warm-up: {n}"
    ));
    engine_layer_metrics(
        &mut report,
        &EngineTrace {
            snap: &snap,
            job: mid.full.host,
            callbacks: mid.full.callbacks,
            untraced: &journaled,
            traced: &traced,
            one_worker: &single,
            gens: &gens,
            bin_pairs: (snap.metrics.counter("engine.pairs_shuffled") / u64::from(GPUS * ROUNDS))
                as usize,
            key_space: mid.full.key_space,
            seed: args.seed,
        },
    );
    let overhead = untraced_s - median_s(&plain);
    report.metric("core.journal_overhead_s", overhead, "s");
    report.metric("core.journal_replay_s", median_s(&resumes), "s");
    report.metric("core.journal_kb", mid.journal_bytes as f64 / 1e3, "kB");
    report.metric("core.journal_records", mid.journal_records as f64, "count");
    let resident = out.resident_rounds as f64 / f64::from(out.rounds);
    report.metric("core.rounds_resident_frac", resident, "frac");
    report.fact("total_time_s", f64::from_bits(out.clock_bits));
    report.fact_u64("resident_rounds", out.resident_rounds as u64);
    report.fact_u64("journal_records", mid.journal_records as u64);
    report
}
