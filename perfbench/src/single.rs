//! The single-pass workloads: `sio_shuffle` and `wo_map`.
//!
//! Both run one GPMR job per rep on an 8-GPU cluster. Untraced, the run
//! sets up several times (for `setup_s`), then runs the plain app job
//! back to back for the time budget. Traced, it runs the job wrapped in
//! [`TimedJob`] in three phases: telemetry off at the default pool size
//! (host breakdown), telemetry on (simulated breakdown and tracing
//! overhead), and telemetry off with one pool worker per device (pool
//! scaling). Every phase must reproduce the first rep's makespan and
//! output bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpmr_apps::sio::{self, SioJob};
use gpmr_apps::text::{chunk_text, generate_text, Dictionary, PAPER_DICTIONARY_WORDS};
use gpmr_apps::wo::{self, WoJob};
use gpmr_core::{run_job_instrumented, EngineTuning, GpmrJob, JobResult, KvSet, Pod, SliceChunk};
use gpmr_sim_gpu::GpuSpec;
use gpmr_sim_net::Cluster;
use gpmr_telemetry::Telemetry;

use crate::common::{
    engine_layer_metrics, fingerprint, median_s, single_job_metrics, timed, EngineTrace, Report,
    RunArgs,
};
use crate::timed::{CallbackClock, CallbackTimes, TimedJob};
use crate::trace;

/// GPUs in the cluster both workloads run on.
const GPUS: u32 = 8;
/// SIO input: about 2^24 uniform `u32` over a key space as large as the
/// input; the seed trims the count by under 0.4%.
const SIO_ELEMENTS: usize = 1 << 24;
/// WO corpus size (the seed trims it by under 0.4%); the dictionary is
/// the paper's 43 k words.
const WO_BYTES: usize = 1 << 28;

/// The input size for `seed`: `full` less a seeded trim of under 1/256,
/// so simulated times differ a little between seeds.
fn seeded_size(full: usize, seed: u64) -> usize {
    full - (seed.wrapping_mul(0x9e37_79b9) % (full as u64 / 256)) as usize
}
/// Full setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed jobs per untraced run, whatever the budget.
const MIN_JOBS: usize = 3;

/// Checks a job's per-rank outputs against the reference computed from
/// its input chunks.
type Check<C, K, V> = Box<dyn Fn(&[C], &[KvSet<K, V>]) -> Result<(), String>>;

/// One set-up input: the job, its chunks and the cluster it runs on,
/// plus the reference check.
struct Input<J: GpmrJob> {
    job: J,
    chunks: Vec<J::Chunk>,
    cluster: Cluster,
    gen: Duration,
    key_space: u64,
    check: Check<J::Chunk, J::Key, J::Value>,
}

/// Chunk size for `total` input bytes: enough chunks to keep every
/// rank's upload pipeline full (the repository's tuned sizing at full
/// scale).
fn chunk_bytes(total: usize) -> usize {
    let depth = EngineTuning::default().pipeline_depth.max(1) as usize;
    (total / (2 * depth * GPUS as usize)).clamp(64 << 10, (64 << 20) / depth)
}

fn sio_setup(seed: u64) -> Input<SioJob> {
    let elements = seeded_size(SIO_ELEMENTS, seed);
    let (data, gen) = trace::scope("apps", "generate", || {
        timed(|| sio::generate_integers(elements, seed))
    });
    let chunks = sio::sio_chunks(&data, chunk_bytes(4 * SIO_ELEMENTS));
    // `generate_integers` draws keys below the element count.
    let key_space = (elements as u64).max(16);
    // The counts of `sio::cpu_reference`, kept in a dense table: every
    // key is below `key_space`, and a hash map of 2^24 keys would cost
    // the run seconds and hundreds of MB.
    let check: Check<SliceChunk<u32>, u32, u32> = Box::new(move |chunks, outputs| {
        let mut expect = vec![0u32; key_space as usize];
        for c in chunks {
            for &x in &c.items {
                expect[x as usize] += 1;
            }
        }
        for o in outputs {
            for (&k, &v) in o.iter() {
                match expect.get_mut(k as usize) {
                    Some(c) if *c == v && v > 0 => *c = 0,
                    _ => return Err(format!("key {k}: wrong or duplicate count {v}")),
                }
            }
        }
        match expect.iter().filter(|&&c| c > 0).count() {
            0 => Ok(()),
            n => Err(format!("{n} keys missing from the output")),
        }
    });
    Input {
        job: SioJob::default(),
        chunks,
        cluster: Cluster::accelerator(GPUS, GpuSpec::gt200()),
        gen,
        key_space,
        check,
    }
}

fn wo_setup(seed: u64) -> Input<WoJob> {
    let ((dict, text), gen) = trace::scope("apps", "generate", || {
        timed(|| {
            let dict = Arc::new(Dictionary::generate(PAPER_DICTIONARY_WORDS, seed));
            let text = generate_text(&dict, seeded_size(WO_BYTES, seed), seed + 1);
            (dict, text)
        })
    });
    let chunks = chunk_text(&text, chunk_bytes(WO_BYTES));
    drop(text);
    let key_space = dict.len() as u64;
    let job = WoJob::new(Arc::clone(&dict), GPUS);
    // Chunks are cut at line boundaries, so the corpus reference is the
    // sum of the per-chunk references.
    let check: Check<SliceChunk<u8>, u32, u32> = Box::new(move |chunks, outputs| {
        let mut expect = vec![0u32; dict.len()];
        for c in chunks {
            for (e, n) in expect.iter_mut().zip(wo::cpu_reference(&dict, &c.items)) {
                *e += n;
            }
        }
        let mut merged = KvSet::new();
        for o in outputs {
            merged.extend_from_set(o);
        }
        if wo::counts_from_output(&dict, &merged) == expect {
            Ok(())
        } else {
            Err("word counts differ from wo::cpu_reference".into())
        }
    });
    Input {
        job,
        chunks,
        cluster: Cluster::accelerator(GPUS, GpuSpec::gt200()),
        gen,
        key_space,
        check,
    }
}

pub fn sio_shuffle(args: &RunArgs) -> Report {
    run(args, sio_setup)
}

pub fn wo_map(args: &RunArgs) -> Report {
    run(args, wo_setup)
}

/// Set up `SETUP_REPS` times, keeping the last input. Returns it with
/// the setup and generation times of every rep.
fn set_up<J: GpmrJob>(
    args: &RunArgs,
    setup: fn(u64) -> Input<J>,
) -> (Input<J>, Vec<Duration>, Vec<Duration>) {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut input = None;
    for rep in 0..SETUP_REPS {
        // Free the previous rep's input first so peak memory stays at
        // one input.
        drop(input.take());
        let (inp, dt) = trace::scope("bench", format!("setup {rep}"), || {
            timed(|| setup(args.seed))
        });
        setups.push(dt);
        gens.push(inp.gen);
        input = Some(inp);
    }
    (input.expect("SETUP_REPS > 0"), setups, gens)
}

/// The expected result of every rep: set by the first and checked
/// against the reference once.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Outcome {
    makespan_s: f64,
    fingerprint: u64,
}

struct Tracker<'a, J: GpmrJob> {
    first: Option<Outcome>,
    checked: bool,
    chunks: &'a [J::Chunk],
    check: Check<J::Chunk, J::Key, J::Value>,
}

impl<J: GpmrJob> Tracker<'_, J>
where
    J::Key: Pod,
    J::Value: Pod,
{
    /// Check one rep's result and count it.
    fn observe(
        &mut self,
        rep: &str,
        res: Result<JobResult<J::Key, J::Value>, gpmr_core::EngineError>,
        report: &mut Report,
    ) {
        let res = match res {
            Ok(r) => r,
            Err(e) => {
                report.job(false);
                report.problem(format!("{rep}: engine error: {e}"));
                return;
            }
        };
        let got = Outcome {
            makespan_s: res.total_time().as_secs(),
            fingerprint: fingerprint(&res.outputs),
        };
        let ok = match (self.first, std::mem::replace(&mut self.checked, true)) {
            (None, false) => match (self.check)(self.chunks, &res.outputs) {
                Ok(()) => {
                    self.first = Some(got);
                    true
                }
                Err(e) => {
                    report.problem(format!("{rep}: {e}"));
                    false
                }
            },
            (Some(first), _) if first == got => true,
            (Some(first), _) => {
                report.problem(format!(
                    "{rep}: simulated outcome drifted: {got:?} vs first {first:?}"
                ));
                false
            }
            (None, true) => false,
        };
        report.job(ok);
    }
}

fn run<J>(args: &RunArgs, setup: fn(u64) -> Input<J>) -> Report
where
    J: GpmrJob + Clone,
    J::Chunk: Clone,
    J::Key: Pod,
    J::Value: Pod,
{
    let mut report = Report::default();
    let (input, setups, gens) = set_up(args, setup);
    let Input {
        job,
        chunks,
        mut cluster,
        key_space,
        check,
        ..
    } = input;
    let mut tracker: Tracker<J> = Tracker {
        first: None,
        checked: false,
        chunks: &chunks,
        check,
    };
    let setup_s = median_s(&setups);
    if !args.traced {
        // The warm-up rep runs the reference check and is not timed.
        let res = gpmr_core::run_job(&mut cluster, &job, chunks.clone());
        tracker.observe("warm-up", res, &mut report);
        let start = Instant::now();
        let mut host = Vec::new();
        while host.len() < MIN_JOBS || start.elapsed() < args.budget() {
            let input = chunks.clone();
            let (res, dt) = timed(|| gpmr_core::run_job(&mut cluster, &job, input));
            host.push(dt);
            tracker.observe(&format!("rep {}", host.len()), res, &mut report);
        }
        let Some(first) = tracker.first else {
            return report;
        };
        single_job_metrics(&mut report, &host, first.makespan_s, setup_s);
        report.fact("makespan_s", first.makespan_s);
        report.fact_u64("output_fnv", first.fingerprint);
        return report;
    }

    // Traced run: after a warm-up rep, rounds of three reps share the
    // budget so host drift hits every phase alike: telemetry off at the
    // default pool size, telemetry on, and one pool worker per device.
    let clock = Arc::new(CallbackClock::default());
    let timed_job = TimedJob::new(job, Arc::clone(&clock));
    let run_rep = |label: String,
                   cluster: &mut Cluster,
                   tel: &Telemetry,
                   tracker: &mut Tracker<J>,
                   report: &mut Report|
     -> (Duration, CallbackTimes) {
        let input = chunks.clone();
        let before = clock.read();
        let (res, dt) = trace::scope("bench", label.clone(), || {
            trace::scope("core", "run_job", || {
                timed(|| {
                    run_job_instrumented(cluster, &timed_job, input, &EngineTuning::default(), tel)
                })
            })
        });
        tracker.observe(&label, res, report);
        (dt, clock.read().since(&before))
    };
    let off = Telemetry::disabled();
    run_rep(
        "warm-up".into(),
        &mut cluster,
        &off,
        &mut tracker,
        &mut report,
    );
    let start = Instant::now();
    let mut plain: Vec<(Duration, CallbackTimes)> = Vec::new();
    let mut traced = Vec::new();
    let mut single = Vec::new();
    let mut snap = None;
    while plain.is_empty() || start.elapsed() < args.budget() {
        let n = plain.len();
        plain.push(run_rep(
            format!("untraced rep {n}"),
            &mut cluster,
            &off,
            &mut tracker,
            &mut report,
        ));
        let tel = Telemetry::with_capacity(1 << 22);
        traced.push(
            run_rep(
                format!("traced rep {n}"),
                &mut cluster,
                &tel,
                &mut tracker,
                &mut report,
            )
            .0,
        );
        snap.get_or_insert_with(|| tel.snapshot());
        let workers: Vec<usize> = (0..GPUS).map(|r| cluster.gpu(r).worker_threads).collect();
        for r in 0..GPUS {
            cluster.gpu(r).worker_threads = 1;
        }
        single.push(
            run_rep(
                format!("1-worker rep {n}"),
                &mut cluster,
                &off,
                &mut tracker,
                &mut report,
            )
            .0,
        );
        for (r, w) in workers.into_iter().enumerate() {
            cluster.gpu(r as u32).worker_threads = w;
        }
    }

    let snap = snap.expect("the loop ran at least once");
    // Host breakdown from the median untraced rep, so the parts tile it.
    plain.sort_by_key(|(dt, _)| *dt);
    let (job, callbacks) = plain[plain.len() / 2];
    let untraced: Vec<Duration> = plain.iter().map(|(dt, _)| *dt).collect();
    report.note(format!(
        "rounds of (untraced, traced, 1-worker) reps after a warm-up: {}",
        plain.len()
    ));
    engine_layer_metrics(
        &mut report,
        &EngineTrace {
            snap: &snap,
            job,
            callbacks,
            untraced: &untraced,
            traced: &traced,
            one_worker: &single,
            gens: &gens,
            bin_pairs: (snap.metrics.counter("engine.pairs_shuffled") / u64::from(GPUS)) as usize,
            key_space,
            seed: args.seed,
        },
    );
    if let Some(first) = tracker.first {
        report.fact("makespan_s", first.makespan_s);
        report.fact_u64("output_fnv", first.fingerprint);
    }
    report
}
