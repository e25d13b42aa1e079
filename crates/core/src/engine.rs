//! The GPMR execution engine: a discrete-event simulation of the paper's
//! per-GPU MapReduce pipeline over a whole cluster.
//!
//! One logical process drives each GPU (paper §4). The engine advances the
//! process with the earliest ready-time, so dynamic load balancing, stream
//! overlap (double-buffered chunk uploads against map kernels), and the
//! Map/Bin communication overlap all emerge from the resource timelines:
//!
//! * chunk uploads reserve the (possibly shared) PCI-e link;
//! * map kernels reserve the GPU compute timeline;
//! * pair downloads reserve the PCI-e link's other direction;
//! * Bin sends reserve NIC send/receive engines through the fabric;
//! * Sort and Reduce run per-rank after all inbound pairs arrive.
//!
//! Every job goes through one entry point, [`run`], configured by
//! [`RunOptions`]; [`run_job`] is the paper-default shorthand. Internally
//! a run is an `Engine` with one method per pipeline stage: dispatch,
//! map, bin-and-send, gather, sort, reduce, and timing assembly.
//!
//! Data is computed for real — the output of [`run`] is bit-exact and is
//! verified against CPU references in the application crates.

use std::collections::{HashSet, VecDeque};

use gpmr_primitives::{
    bitonic_sort_pairs_by, bits_for_radix, extract_segments, sort_pairs_with_bits, RadixKey,
    Segments,
};
use gpmr_sim_gpu::{SimDuration, SimTime};
use gpmr_sim_net::{Cluster, Mailbox};
use gpmr_telemetry::{Counter, Registry, Telemetry};

use crate::error::{EngineError, EngineResult};
use crate::helpers::{charge_partition, combine_pairs, split_buckets_bounded};
use crate::job::{GpmrJob, MapMode, PartitionMode, PipelineConfig, SortMode};
use crate::journal::{fnv1a, hash_pairs, Fnv64, Journal, JournalRecord, RecordOutcome};
use crate::pod::Pod;
use crate::scheduler::WorkQueues;
use crate::stats::{JobTimings, StageTimes};
use crate::types::KvSet;
use crate::Chunk;

/// Engine policy knobs: scheduler behaviour and fixed-cost calibration.
///
/// These are *software* parameters (the hardware lives in the cluster);
/// the defaults reproduce the paper's measured overheads. Research uses:
/// disable stealing to measure what the dynamic scheduler buys, or zero
/// the overheads to see the ideal-software ceiling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineTuning {
    /// Dynamic load balancing: idle ranks steal chunks from loaded queues
    /// (paper §4.1). Off = static round-robin assignment only.
    pub allow_stealing: bool,
    /// CPU-side scheduler overhead charged per chunk dequeue (queue
    /// management, callback dispatch), in seconds.
    pub sched_overhead_s: f64,
    /// One-time job setup (context creation, scheduler initialization),
    /// charged before the first chunk on every rank, in seconds.
    pub setup_base_s: f64,
    /// Per-rank share of cluster-wide job setup (MPI-style collective
    /// startup and the final barrier grow with the communicator size), in
    /// seconds. Together with the base cost this is the paper's "GPMR
    /// internal / scheduler" floor that erodes efficiency at 64 GPUs on
    /// light jobs.
    pub setup_per_rank_s: f64,
    /// How many times a failing fabric transfer is retried (with capped
    /// exponential backoff) before the job aborts with
    /// [`EngineError::TransferFailed`].
    pub max_transfer_retries: u32,
    /// First retry backoff, in seconds; each further retry doubles it.
    pub retry_backoff_base_s: f64,
    /// Ceiling on the exponential backoff, in seconds.
    pub retry_backoff_cap_s: f64,
    /// Depth of the chunk upload pipeline: how many chunk staging buffers
    /// each rank keeps resident. `1` serializes upload behind the previous
    /// map (no overlap), `2` is the classic double buffer, and deeper
    /// values let uploads for chunks N+1..N+k-1 queue on the device's copy
    /// engine while chunk N maps — hiding per-chunk dispatch and PCI-e
    /// latency on upload-bound jobs. Device memory must hold the chunk
    /// `pipeline_depth` times (see [`EngineError::ChunkTooLarge`]).
    pub pipeline_depth: u32,
    /// GPU-direct networking (the source paper's future-work hardware):
    /// intermediate pairs are sourced and sunk by the GPU for network I/O,
    /// skipping the PCI-e round trips through host memory that bracket
    /// every Bin send and the sort-input upload. Also enabled by
    /// [`Cluster::with_gpu_direct`]; either switch turns it on.
    pub gpu_direct: bool,
}

impl Default for EngineTuning {
    fn default() -> Self {
        EngineTuning {
            allow_stealing: true,
            sched_overhead_s: 30.0e-6,
            setup_base_s: 0.5e-3,
            setup_per_rank_s: 0.25e-3,
            max_transfer_retries: 8,
            retry_backoff_base_s: 50.0e-6,
            retry_backoff_cap_s: 5.0e-3,
            pipeline_depth: 4,
            gpu_direct: false,
        }
    }
}

impl EngineTuning {
    /// Staging slots a chunk must fit into device memory simultaneously:
    /// the upload pipeline depth, plus one GPU-direct staging slot when
    /// that mode is on (pass the cluster's own gpu-direct flag — either
    /// switch enables it). This is the [`EngineError::ChunkTooLarge`]
    /// admission formula; the job service reuses it for memory admission
    /// control before a job ever reaches the engine.
    pub fn staging_slots(&self, cluster_gpu_direct: bool) -> u64 {
        u64::from(self.pipeline_depth.max(1)) + u64::from(self.gpu_direct || cluster_gpu_direct)
    }
}

/// Caller-side control over a running job ([`RunOptions::control`]). The
/// default is unrestricted: the job runs to completion.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunControl {
    /// Stop the job at this simulated instant (cancellation, deadline).
    /// Ranks whose scheduler cursor reaches the instant take no more
    /// chunks; in-flight chunks finish at their chunk boundary; then the
    /// engine drains every queue, releases device state, and returns
    /// [`EngineError::Cancelled`] with conservation accounting instead of
    /// running Bin/Sort/Reduce.
    pub stop_at: Option<SimTime>,
    /// The input chunks are already resident in device memory on the rank
    /// that dequeues them (the round driver's chained rounds: round k's
    /// reduce output never left the cluster, so round k+1's map reads it
    /// in place). Chunks that *move* ranks — steals and fault-plan
    /// requeues — are displaced from their home device and pay the full
    /// H2D upload as usual; only stationary chunks skip it. The caller is
    /// responsible for the claim being true (the driver checks a per-rank
    /// fit bound before setting this).
    pub inputs_resident: bool,
}

impl RunControl {
    /// Stop (cancel) the job at simulated instant `t`.
    pub fn stop_at(t: SimTime) -> Self {
        RunControl {
            stop_at: Some(t),
            ..RunControl::default()
        }
    }
}

/// Everything a caller can set on one [`run`] besides the cluster, the job
/// and its input. [`RunOptions::default`] is exactly [`run_job`]: default
/// tuning, telemetry off, no stop, no journal.
pub struct RunOptions<'j, K, V> {
    /// Scheduler policy and overhead calibration.
    pub tuning: EngineTuning,
    /// Where chunk lifecycle spans, stage spans, queue-depth samples and
    /// `engine.*` counters go; the cluster's devices and fabric are
    /// attached for `gpu.*` and `fabric.*` metrics when it is enabled. A
    /// disabled handle records nothing at near-zero cost.
    pub telemetry: Telemetry,
    /// Caller-side stop and residency control.
    pub control: RunControl,
    /// Write-ahead journal, attached with [`RunOptions::with_journal`].
    pub journal: Option<JournalHook<'j, K, V>>,
}

impl<K, V> Default for RunOptions<'_, K, V> {
    fn default() -> Self {
        RunOptions {
            tuning: EngineTuning::default(),
            telemetry: Telemetry::disabled(),
            control: RunControl::default(),
            journal: None,
        }
    }
}

impl<'j, K: Pod, V: Pod> RunOptions<'j, K, V> {
    /// Attach a write-ahead [`Journal`] (`None` leaves the run plain).
    /// Every scheduling decision and stage commit is verified against (on
    /// resume) or appended to (fresh, or once past the replay prefix) the
    /// journal, so an interrupted run restarted with [`Journal::resume`]
    /// finishes bit-identically to an uninterrupted one. Commits are
    /// content-hashed, hence the `Pod` bounds. Journaling charges no
    /// simulated time, and a stopped run leaves a consistent prefix that a
    /// resume without the stop replays.
    pub fn with_journal(mut self, journal: Option<&'j mut Journal>) -> Self {
        self.journal = journal.map(|journal| JournalHook {
            journal,
            hash_pairs: hash_pairs::<K, V>,
        });
        self
    }
}

/// A journal attached to a run, with the content hash for the job's pair
/// types captured where the `Pod` bounds live.
pub struct JournalHook<'j, K, V> {
    pub(crate) journal: &'j mut Journal,
    pub(crate) hash_pairs: fn(&[K], &[V]) -> u64,
}

impl<K, V> JournalHook<'_, K, V> {
    /// A shorter-lived hook on the same journal (one per round).
    pub(crate) fn reborrow(&mut self) -> JournalHook<'_, K, V> {
        JournalHook {
            journal: &mut *self.journal,
            hash_pairs: self.hash_pairs,
        }
    }
}

/// The outcome of one GPMR job.
#[derive(Debug)]
pub struct JobResult<K, V> {
    /// Final pairs produced on each rank (reducer output, or binned map
    /// output for jobs that bypass sort+reduce).
    pub outputs: Vec<KvSet<K, V>>,
    /// Timing statistics.
    pub timings: JobTimings,
}

impl<K: crate::types::Key, V: crate::types::Value> JobResult<K, V> {
    /// All output pairs concatenated in rank order (copied; the per-rank
    /// outputs stay available). See [`JobResult::into_merged_output`] for
    /// the owning variant that avoids the copy.
    pub fn merged_output(&self) -> KvSet<K, V> {
        let total: usize = self.outputs.iter().map(KvSet::len).sum();
        let mut out = KvSet::with_capacity(total);
        for o in &self.outputs {
            out.extend_from_set(o);
        }
        out
    }

    /// Consume the result, concatenating all output pairs in rank order
    /// without copying rank 0's (usually dominant) buffer when it is the
    /// only one.
    pub fn into_merged_output(self) -> KvSet<K, V> {
        let total: usize = self.outputs.iter().map(KvSet::len).sum();
        let mut outputs = self.outputs.into_iter();
        let mut out = outputs.next().unwrap_or_default();
        out.reserve(total - out.len());
        for o in outputs {
            out.append(o);
        }
        out
    }

    /// The job makespan.
    pub fn total_time(&self) -> SimDuration {
        self.timings.total
    }
}

/// Run `job` over `chunks` on `cluster` with the paper's defaults,
/// returning per-rank outputs and the timing breakdown.
pub fn run_job<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    run(cluster, job, chunks, RunOptions::default())
}

/// [`run`] with explicit tuning and telemetry.
pub fn run_job_instrumented<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    tuning: &EngineTuning,
    tel: &Telemetry,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    run(
        cluster,
        job,
        chunks,
        RunOptions {
            tuning: *tuning,
            telemetry: tel.clone(),
            ..RunOptions::default()
        },
    )
}

/// Run `job` over `chunks` on `cluster` under `opts`, returning per-rank
/// outputs and the timing breakdown. Clocks are reset at entry so results
/// of consecutive jobs on one cluster are independent. With a stop
/// instant set the run is aborted there and surfaces as
/// [`EngineError::Cancelled`] carrying chunk-conservation accounting.
pub fn run<J: GpmrJob>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
    opts: RunOptions<'_, J::Key, J::Value>,
) -> EngineResult<JobResult<J::Key, J::Value>> {
    let mut engine = Engine::new(cluster, job, chunks, opts)?;
    engine.start()?;
    while let Some(r) = engine.next_rank() {
        if let Some((chunk_id, chunk)) = engine.dispatch(r)? {
            engine.map_chunk(r, chunk_id, chunk)?;
        }
    }
    if let Some(stop) = engine.control.stop_at {
        return Err(engine.cancel(stop));
    }
    engine.deferred_bin()?;
    let inbound = engine.gather_inbound()?;
    let mut outputs = Vec::with_capacity(inbound.len());
    for (r, inb) in (0..engine.ranks).zip(inbound) {
        let out = if !engine.cfg.sort_and_reduce || inb.pairs.is_empty() {
            engine.pass_through(r, inb.pairs)?
        } else {
            let (vals, segs) = engine.sort_rank(r, inb)?;
            engine.reduce_rank(r, vals, segs)?
        };
        outputs.push(out);
    }
    engine.finish(outputs)
}

#[derive(Clone, Debug)]
struct RankState<K, V, C> {
    cursor: SimTime,
    /// Earliest instant kernels may run (job setup done, and in accumulate
    /// mode the accumulator initialized). Uploads may start earlier.
    compute_ready: SimTime,
    /// When this rank's setup charge ends (the cluster-wide setup for
    /// initial ranks; join instant plus local setup for elastic adds).
    /// Stage accounting measures Map from here.
    setup_end: SimTime,
    /// The join instant of a rank with a scheduled elastic add that has
    /// not joined yet; taken (once) the first time the scheduler picks
    /// the rank.
    pending_join: Option<SimTime>,
    /// When the fault plan kills this rank's GPU, if ever.
    kill_at: Option<SimTime>,
    /// Injected stalls not yet applied, in schedule order.
    stalls: VecDeque<(SimTime, SimDuration)>,
    /// Map-end instants of chunks whose staging buffer is still occupied;
    /// an upload for a new chunk gates on the oldest entry once all
    /// `pipeline_depth` buffers are in flight.
    inflight: VecDeque<SimTime>,
    last_map_end: SimTime,
    last_d2h: SimTime,
    bin_done: SimTime,
    sort_ready: SimTime,
    sort_done: SimTime,
    reduce_done: SimTime,
    chunks_done: u32,
    accum: Option<KvSet<K, V>>,
    store: KvSet<K, V>,
    active: bool,
    /// False once the rank's GPU has been lost to an injected fault.
    alive: bool,
    /// Chunks already folded into this rank's GPU-resident accumulate
    /// state. Retained only when the fault plan schedules a kill for this
    /// rank in accumulate mode: the state dies with the device, so these
    /// must be rerun on survivors.
    processed: Vec<(u64, C)>,
}

impl<K: crate::types::Key, V: crate::types::Value, C> Default for RankState<K, V, C> {
    fn default() -> Self {
        RankState {
            cursor: SimTime::ZERO,
            compute_ready: SimTime::ZERO,
            setup_end: SimTime::ZERO,
            pending_join: None,
            kill_at: None,
            stalls: VecDeque::new(),
            inflight: VecDeque::new(),
            last_map_end: SimTime::ZERO,
            last_d2h: SimTime::ZERO,
            bin_done: SimTime::ZERO,
            sort_ready: SimTime::ZERO,
            sort_done: SimTime::ZERO,
            reduce_done: SimTime::ZERO,
            chunks_done: 0,
            accum: None,
            store: KvSet::new(),
            active: true,
            alive: true,
            processed: Vec::new(),
        }
    }
}

/// An `engine.*` counter plus its value when this run started, so a
/// registry shared across jobs still yields per-job numbers.
struct RunCounter {
    counter: Counter,
    base: u64,
}

impl RunCounter {
    fn new(reg: &Registry, name: &str) -> Self {
        let counter = reg.counter(name);
        RunCounter {
            base: counter.get(),
            counter,
        }
    }

    fn inc(&self) {
        self.counter.inc();
    }

    fn add(&self, n: u64) {
        self.counter.add(n);
    }

    /// What this run added to the counter.
    fn this_run(&self) -> u64 {
        self.counter.get().saturating_sub(self.base)
    }
}

/// The engine's telemetry context: the caller's [`Telemetry`] handle (for
/// spans and counter samples) plus the `engine.*` counters.
///
/// Counters are always real — when the caller's handle is disabled they go
/// to a private registry — so [`JobTimings`] is a thin consumer of
/// telemetry counters in every mode.
struct EngineTel {
    tel: Telemetry,
    dispatched: RunCounter,
    stolen: RunCounter,
    requeued: RunCounter,
    gpus_lost: RunCounter,
    retries: RunCounter,
    stalls: RunCounter,
    pairs_emitted: RunCounter,
    pairs_shuffled: RunCounter,
    gpus_added: RunCounter,
}

impl EngineTel {
    fn new(tel: &Telemetry) -> Self {
        let reg = tel.registry().cloned().unwrap_or_else(Registry::new);
        EngineTel {
            tel: tel.clone(),
            dispatched: RunCounter::new(&reg, "engine.chunks_dispatched"),
            stolen: RunCounter::new(&reg, "engine.chunks_stolen"),
            requeued: RunCounter::new(&reg, "engine.chunks_requeued"),
            gpus_lost: RunCounter::new(&reg, "engine.gpus_lost"),
            retries: RunCounter::new(&reg, "engine.transfer_retries"),
            stalls: RunCounter::new(&reg, "engine.stalls_injected"),
            pairs_emitted: RunCounter::new(&reg, "engine.pairs_emitted"),
            pairs_shuffled: RunCounter::new(&reg, "engine.pairs_shuffled"),
            gpus_added: RunCounter::new(&reg, "engine.gpus_added"),
        }
    }

    /// Record a pipeline stage event as a span of `kind` (a name from
    /// `gpmr_telemetry::analyze::SPAN_KINDS`) on the rank's track. The
    /// `detail` closure only runs when telemetry is enabled.
    fn event(
        &self,
        rank: u32,
        kind: &str,
        start: SimTime,
        end: SimTime,
        detail: impl FnOnce() -> String,
    ) {
        self.child_event(rank, kind, start, end, 0, detail);
    }

    /// [`EngineTel::event`] under a parent chunk span (0 = no parent).
    fn child_event(
        &self,
        rank: u32,
        kind: &str,
        start: SimTime,
        end: SimTime,
        parent: u64,
        detail: impl FnOnce() -> String,
    ) {
        if !self.tel.is_enabled() {
            return;
        }
        self.tel
            .span(rank, kind, start.as_secs(), end.as_secs())
            .parent(parent)
            .attr_with("detail", detail)
            .record();
    }

    /// Record a chunk's container span under a pre-reserved id.
    fn chunk_span(&self, rank: u32, id: u64, chunk_id: u64, start: SimTime, end: SimTime) {
        if id == 0 {
            return;
        }
        self.tel
            .span(rank, "Chunk", start.as_secs(), end.as_secs())
            .id(id)
            .name(format!("chunk {chunk_id}"))
            .attr("chunk", chunk_id.to_string())
            .record();
    }
}

/// A journal hook plus its `engine.journal_*` counters. Plain runs have
/// none, so the disabled path does no hashing, no I/O, and no extra
/// counter work — journal-less runs stay byte-identical in timing and
/// output to an engine without the journal.
struct JournalCtx<'j, K, V> {
    hook: JournalHook<'j, K, V>,
    /// `engine.journal_records` — records verified or appended.
    records: Counter,
    /// `engine.journal_replayed` — records verified against the prefix.
    replayed: Counter,
    /// `engine.journal_flushes` — disk flushes performed.
    flushes: Counter,
}

/// Everything a rank received for its sort stage: the concatenated pairs,
/// the per-delivery (arrival, bytes) schedule for streamed input uploads,
/// and the folded key-range bound.
struct Inbound<K, V> {
    pairs: KvSet<K, V>,
    parts: Vec<(SimTime, u64)>,
    max_radix: u64,
}

/// A rank's sorted values and the unique-key segments over them.
type Sorted<K, V> = (Vec<V>, Segments<K>);

/// One run in progress: the cluster and job, the options, and all
/// scheduler state. Each method is one pipeline stage.
struct Engine<'a, 'j, J: GpmrJob> {
    cluster: &'a mut Cluster,
    job: &'a J,
    cfg: PipelineConfig,
    tuning: EngineTuning,
    control: RunControl,
    tel: EngineTel,
    journal: Option<JournalCtx<'j, J::Key, J::Value>>,
    ranks: u32,
    gpu_direct: bool,
    depth: usize,
    staging_slots: u64,
    n_chunks: u64,
    /// Cluster-wide setup end: when initial ranks may run kernels.
    setup: SimTime,
    /// Ranks that started the job; elastic adds are excluded so the
    /// shuffle destinations do not depend on mid-job joins.
    reducers: Vec<u32>,
    st: Vec<RankState<J::Key, J::Value, J::Chunk>>,
    queues: WorkQueues<(u64, J::Chunk)>,
    mailbox: Mailbox<ShuffleMsg<J::Key, J::Value>>,
    /// Chunk ids that moved off their home rank (steals, fault-plan
    /// requeues): under `RunControl::inputs_resident` these still pay the
    /// full upload — residency only holds where the chunk was born.
    displaced: HashSet<u64>,
}

impl<'a, 'j, J: GpmrJob> Engine<'a, 'j, J> {
    /// Validate the job against the cluster and the fault plan, journal the
    /// job fingerprint, and lay out the initial per-rank state.
    fn new(
        cluster: &'a mut Cluster,
        job: &'a J,
        chunks: Vec<J::Chunk>,
        opts: RunOptions<'j, J::Key, J::Value>,
    ) -> EngineResult<Self> {
        let (tuning, telemetry) = (opts.tuning, opts.telemetry);
        let journal = opts.journal.map(|hook| {
            let reg = telemetry.registry().cloned().unwrap_or_else(Registry::new);
            JournalCtx {
                hook,
                records: reg.counter("engine.journal_records"),
                replayed: reg.counter("engine.journal_replayed"),
                flushes: reg.counter("engine.journal_flushes"),
            }
        });
        let cfg = job.pipeline();
        cfg.validate().map_err(EngineError::InvalidPipeline)?;
        let ranks = cluster.size();
        let gpu_direct = tuning.gpu_direct || cluster.gpu_direct();
        let depth = tuning.pipeline_depth.max(1) as usize;
        cluster.reset_clocks();
        if telemetry.is_enabled() {
            cluster.attach_telemetry(&telemetry);
        }
        let tel = EngineTel::new(&telemetry);

        // Every staging slot of the upload pipeline must fit on the device
        // at once, plus one slot of GPU-direct staging (pairs parked in
        // device memory for the NIC to source).
        let staging_slots = tuning.staging_slots(cluster.gpu_direct());
        let capacity = cluster.gpu(0).mem.capacity();
        if let Some(c) = chunks
            .iter()
            .find(|c| c.size_bytes().saturating_mul(staging_slots) > capacity)
        {
            return Err(EngineError::ChunkTooLarge {
                bytes: c.size_bytes(),
                capacity,
                slots: staging_slots,
            });
        }

        // Fault injection. Kills and stalls are read by the scheduler at
        // its touch-points (chunk dispatch, chunk commit, sort readiness);
        // transfer faults are applied inside `Engine::transfer`. Elastic
        // adds: ranks with a scheduled GPU-add event join mid-job. They
        // take no part in the initial distribution and are excluded from
        // the reducer set, so the shuffle destinations — and therefore the
        // per-rank outputs — are identical to a run on the initial cluster
        // alone; added GPUs contribute map throughput by stealing.
        let plan = cluster.fault_plan().cloned();
        let join_at: Vec<Option<SimTime>> = (0..ranks)
            .map(|r| plan.as_ref().and_then(|p| p.add_time(r)))
            .collect();
        if let Some(p) = plan.as_ref() {
            if let Some(r) = p.added_ranks().into_iter().find(|&r| r >= ranks) {
                return Err(EngineError::InvalidPipeline(format!(
                    "fault plan adds rank {r} but the cluster has only {ranks} GPUs"
                )));
            }
        }
        let reducers: Vec<u32> = (0..ranks)
            .filter(|&r| join_at[r as usize].is_none())
            .collect();
        if reducers.is_empty() {
            return Err(EngineError::InvalidPipeline(
                "fault plan defers every GPU with an add event; no rank can start the job".into(),
            ));
        }

        // Chunks carry their original index as a canonical id: requeues and
        // steals change *which rank* processes a chunk, never its identity,
        // so receivers can order inbound buckets identically across fault
        // plans.
        let n_chunks = chunks.len() as u64;
        let ids: Vec<(u64, J::Chunk)> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| (i as u64, c))
            .collect();
        let setup =
            SimTime::from_secs(tuning.setup_base_s + tuning.setup_per_rank_s * f64::from(ranks));
        // Uploads are host-driven DMA enqueues: with a pipelined engine they
        // start once the local context exists (base setup), overlapping the
        // cluster-wide collective startup. Kernels still wait for full
        // setup (`compute_ready`). Depth 1 keeps the legacy serialized
        // start.
        let upload_ready = if depth >= 2 {
            SimTime::from_secs(tuning.setup_base_s)
        } else {
            setup
        };
        let st = (0..ranks)
            .map(|r| {
                let base = RankState {
                    kill_at: plan.as_ref().and_then(|p| p.kill_time(r)),
                    stalls: plan
                        .as_ref()
                        .map_or_else(Vec::new, |p| p.stalls_for(r))
                        .into(),
                    ..RankState::default()
                };
                match join_at[r as usize] {
                    // Initial ranks pay the cluster-wide collective setup.
                    None => RankState {
                        cursor: upload_ready,
                        compute_ready: setup,
                        setup_end: setup,
                        ..base
                    },
                    // Elastic adds pay only their local context creation,
                    // starting at the join instant; the collective already
                    // happened.
                    Some(join) => RankState {
                        cursor: join,
                        compute_ready: join + SimDuration::from_secs(tuning.setup_base_s),
                        setup_end: join + SimDuration::from_secs(tuning.setup_base_s),
                        pending_join: Some(join),
                        ..base
                    },
                }
            })
            .collect();
        let start_rec = journal
            .is_some()
            .then(|| job_start(&cfg, ranks, &reducers, depth, gpu_direct, &ids));
        let queues = WorkQueues::distribute_on(ids, ranks, &reducers);
        let mut engine = Engine {
            cluster,
            job,
            cfg,
            tuning,
            control: opts.control,
            tel,
            journal,
            ranks,
            gpu_direct,
            depth,
            staging_slots,
            n_chunks,
            setup,
            reducers,
            st,
            queues,
            mailbox: Mailbox::new(ranks),
            displaced: HashSet::new(),
        };
        if let Some(rec) = start_rec {
            engine.jrecord(0, SimTime::ZERO, rec)?;
        }
        Ok(engine)
    }

    /// Record job setup on the initial ranks and, in accumulate mode,
    /// initialize their accumulators.
    fn start(&mut self) -> EngineResult<()> {
        for &r in &self.reducers {
            self.tel
                .event(r, "Setup", SimTime::ZERO, self.setup, || "job setup".into());
        }
        if self.cfg.map_mode == MapMode::Accumulate {
            for r in self.reducers.clone() {
                self.accumulate_init(r, self.setup)?;
            }
        }
        Ok(())
    }

    /// Seed rank `r`'s GPU-resident accumulator from `t0`. Chunk uploads
    /// may overlap the init kernel; maps may not.
    fn accumulate_init(&mut self, r: u32, t0: SimTime) -> EngineResult<()> {
        let (state, t) = self.job.accumulate_init(self.cluster.gpu(r), t0)?;
        self.tel
            .event(r, "AccumulateInit", t0, t, || "accumulate init".into());
        let s = &mut self.st[r as usize];
        s.accum = Some(state);
        s.compute_ready = s.compute_ready.max(t);
        Ok(())
    }

    /// The earliest-ready active rank, lowest index on ties.
    fn next_rank(&self) -> Option<u32> {
        (0..self.ranks)
            .filter(|&r| self.st[r as usize].active)
            .min_by(|&a, &b| {
                self.st[a as usize]
                    .cursor
                    .partial_cmp(&self.st[b as usize].cursor)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
    }

    /// One scheduler pick of rank `r`: honour a stop, apply due stalls, a
    /// due kill and a pending join, then take a chunk from the rank's own
    /// queue or steal one. `None` means the pick dispatched nothing (the
    /// rank retired or was killed).
    fn dispatch(&mut self, r: u32) -> EngineResult<Option<(u64, J::Chunk)>> {
        let ri = r as usize;
        // Caller-requested stop: a rank whose clock has reached the stop
        // instant dequeues no more work. Its in-flight chunks already
        // committed (dispatch is synchronous per chunk), so stopping here
        // is a clean chunk boundary; the leftover queue is drained and
        // accounted for by `Engine::cancel`.
        if self
            .control
            .stop_at
            .is_some_and(|stop| self.st[ri].cursor >= stop)
        {
            self.st[ri].active = false;
            return Ok(None);
        }

        // Straggler injection: a stall due at or before this dispatch
        // freezes the rank before it takes more work.
        while let Some(&(at, dur)) = self.st[ri].stalls.front() {
            if at > self.st[ri].cursor {
                break;
            }
            self.st[ri].stalls.pop_front();
            let begin = self.st[ri].cursor;
            self.st[ri].cursor += dur;
            self.tel.stalls.inc();
            self.tel.event(r, "Stall", begin, self.st[ri].cursor, || {
                format!("injected stall ({dur})")
            });
        }

        // Fail-stop check at dispatch: a GPU whose kill instant has passed
        // takes no more work, and everything it held migrates away.
        if self.st[ri].kill_at.is_some_and(|k| k <= self.st[ri].cursor) {
            self.kill_rank(r, self.st[ri].cursor, None)?;
            return Ok(None);
        }

        // Elastic add: a rank scheduled to join mid-job runs its local
        // setup at its first scheduler pick. It owns no queued work (the
        // initial distribution skipped it) and is not a reducer, so it
        // contributes by stealing map work from loaded survivors.
        if let Some(join) = self.st[ri].pending_join.take() {
            self.tel.gpus_added.inc();
            self.tel.event(r, "GpuAdded", join, join, || {
                "GPU joined the job mid-run".into()
            });
            self.tel
                .event(r, "Setup", join, self.st[ri].compute_ready, || {
                    "late-join setup".into()
                });
            self.jrecord(r, join, JournalRecord::GpuAdded { rank: r })?;
            if self.cfg.map_mode == MapMode::Accumulate {
                self.accumulate_init(r, self.st[ri].compute_ready)?;
            }
        }

        // Obtain a chunk: own queue, else steal, else retire.
        let local = self.queues.pop_local(r);
        let taken = match local {
            Some(c) => Some(c),
            None if self.tuning.allow_stealing => self.steal(r)?,
            None => None,
        };
        let Some((chunk_id, chunk)) = taken else {
            self.st[ri].active = false;
            return Ok(None);
        };
        self.st[ri].cursor += SimDuration::from_secs(self.tuning.sched_overhead_s);
        let cursor = self.st[ri].cursor;
        self.jrecord(
            r,
            cursor,
            JournalRecord::ChunkDispatch { chunk_id, rank: r },
        )?;
        Ok(Some((chunk_id, chunk)))
    }

    /// Work-aware stealing: take the heaviest chunk from the rank with the
    /// most queued bytes, but only while the steal pays for itself (see
    /// `WorkQueues::steal_profitable`) — late steals queue their migration
    /// behind the victim's outbound shuffle traffic and arrive after the
    /// victim would have processed the chunk locally.
    fn steal(&mut self, r: u32) -> EngineResult<Option<(u64, J::Chunk)>> {
        let Some((victim, c)) = self.queues.steal_profitable(r, |c| c.1.size_bytes()) else {
            return Ok(None);
        };
        let ri = r as usize;
        self.tel.stolen.inc();
        self.displaced.insert(c.0);
        // Migration: serialized chunk crosses the fabric from the victim's
        // host memory to the thief's.
        let bytes = c.1.serialize().len() as u64;
        let before = self.st[ri].cursor;
        let arrival = self.transfer(victim, r, before, bytes)?;
        self.tel.event(r, "Steal", before, arrival, || {
            format!("stole chunk from rank {victim}")
        });
        self.st[ri].cursor = arrival;
        let rec = JournalRecord::Steal {
            chunk_id: c.0,
            victim,
            thief: r,
        };
        self.jrecord(r, arrival, rec)?;
        Ok(Some(c))
    }

    /// Upload a dispatched chunk and run its map kernels; per-chunk binning
    /// follows immediately unless the pipeline defers it.
    fn map_chunk(&mut self, r: u32, chunk_id: u64, chunk: J::Chunk) -> EngineResult<()> {
        let ri = r as usize;
        let cursor = self.st[ri].cursor;
        let compute_ready = self.st[ri].compute_ready;
        // k-deep upload pipeline: the upload may only start once a staging
        // slot frees — i.e. when the map of the chunk `depth` dispatches
        // back has finished. Until then uploads queue on the copy engine
        // while earlier chunks map.
        let mut gate = SimTime::ZERO;
        while self.st[ri].inflight.len() >= self.depth {
            gate = gate.max(self.st[ri].inflight.pop_front().expect("len checked"));
        }
        self.tel.dispatched.inc();
        let depth = self.queues.remaining(r) as f64;
        self.tel
            .tel
            .sample(r, "queue_depth", cursor.as_secs(), depth);
        // Container span grouping this chunk's stage spans; its id is
        // reserved now so children can link to it, and the span itself is
        // written once the chunk's window is known.
        let span = self.tel.tel.reserve_span_id();

        let gpu = self.cluster.gpu(r);
        // Round chaining: a chunk the driver left resident on this device
        // skips its upload entirely — the window collapses to the gated
        // dispatch instant. Displaced chunks (steals, requeues) moved
        // hosts, so they pay the full transfer like any cold chunk.
        let up = if self.control.inputs_resident && !self.displaced.contains(&chunk_id) {
            let at = cursor.max(gate);
            gpmr_sim_gpu::Reservation { start: at, end: at }
        } else {
            gpu.h2d_gated(cursor, gate, chunk.size_bytes())
        };
        gpu.note_resident(self.staging_slots * chunk.size_bytes());
        self.tel
            .child_event(r, "Upload", up.start, up.end, span, || {
                format!("{} bytes", chunk.size_bytes())
            });
        let map_start = up.end.max(compute_ready);

        let t = match self.cfg.map_mode {
            MapMode::Accumulate => {
                let mut state = self.st[ri]
                    .accum
                    .take()
                    .expect("accumulate state initialized");
                let t =
                    self.job
                        .map_accumulate(self.cluster.gpu(r), map_start, &chunk, &mut state)?;
                if self.st[ri].kill_at.is_some_and(|k| k <= t) {
                    // The device died before this map finished. The whole
                    // accumulate state dies with it, so every chunk it
                    // covered — plus this one — reruns on survivors.
                    drop(state);
                    return self.kill_rank(r, t, Some((chunk_id, chunk)));
                }
                self.tel
                    .child_event(r, "Map", map_start, t, span, || "map+accumulate".into());
                self.tel.chunk_span(r, span, chunk_id, up.start, t);
                // Accumulate folds emissions into device state, so the
                // commit hashes the chunk itself: replay re-folds it.
                if self.journal.is_some() {
                    let rec = JournalRecord::ChunkCommit {
                        chunk_id,
                        rank: r,
                        pairs: chunk.item_count() as u64,
                        hash: fnv1a(&chunk.serialize()),
                    };
                    self.jrecord(r, t, rec)?;
                }
                let resident = self.staging_slots * chunk.size_bytes() + state.size_bytes();
                self.cluster.gpu(r).note_resident(resident);
                self.st[ri].accum = Some(state);
                if self.st[ri].kill_at.is_some() {
                    self.st[ri].processed.push((chunk_id, chunk));
                }
                t
            }
            MapMode::Plain | MapMode::PartialReduce => {
                match self.map_pairs(r, chunk_id, chunk, map_start, up.start, span)? {
                    Some(t) => t,
                    None => return Ok(()),
                }
            }
        };
        // The host is free to dispatch again once this upload has left
        // the queue; the staging gate and the compute timeline keep the
        // device honest.
        let s = &mut self.st[ri];
        s.last_map_end = s.last_map_end.max(t);
        s.cursor = up.start;
        s.inflight.push_back(t);
        s.chunks_done += 1;
        Ok(())
    }

    /// Map (and partially reduce) one chunk into pairs, then either store
    /// them on the host for the global Combine or bin them right away —
    /// overlapped with the next chunk's upload and map. Returns the map
    /// end, or `None` when the GPU died before the kernels completed.
    fn map_pairs(
        &mut self,
        r: u32,
        chunk_id: u64,
        chunk: J::Chunk,
        map_start: SimTime,
        up_start: SimTime,
        span: u64,
    ) -> EngineResult<Option<SimTime>> {
        let gpu = self.cluster.gpu(r);
        let (mut pairs, mut t) = self.job.map(gpu, map_start, &chunk)?;
        let map_end = t;
        let map_pairs = pairs.len();
        let mut partial = None;
        if self.cfg.map_mode == MapMode::PartialReduce {
            let (p, tp) = self.job.partial_reduce(gpu, t, pairs)?;
            partial = Some((t, tp, p.len()));
            pairs = p;
            t = tp;
        }
        if self.st[r as usize].kill_at.is_some_and(|k| k <= t) {
            // Kernels never completed: nothing was emitted, and the chunk
            // reruns on a survivor.
            drop(pairs);
            self.kill_rank(r, t, Some((chunk_id, chunk)))?;
            return Ok(None);
        }
        if let Some(hash) = self.hash(&pairs.keys, &pairs.vals) {
            let rec = JournalRecord::ChunkCommit {
                chunk_id,
                rank: r,
                pairs: pairs.len() as u64,
                hash,
            };
            self.jrecord(r, t, rec)?;
        }
        self.tel
            .child_event(r, "Map", map_start, map_end, span, || {
                format!("{map_pairs} pairs")
            });
        if let Some((pr_start, pr_end, pr_pairs)) = partial {
            self.tel
                .child_event(r, "PartialReduce", pr_start, pr_end, span, || {
                    format!("-> {pr_pairs} pairs")
                });
        }
        self.tel.pairs_emitted.add(map_pairs as u64);
        let gpu = self.cluster.gpu(r);
        gpu.note_resident(chunk.size_bytes() + pairs.size_bytes());
        if self.cfg.combine {
            // Pairs are stored in CPU memory until all maps finish.
            let down = gpu.d2h(t, pairs.size_bytes());
            self.tel.chunk_span(r, span, chunk_id, up_start, down.end);
            let s = &mut self.st[r as usize];
            s.store.append(pairs);
            s.last_d2h = s.last_d2h.max(down.end);
        } else {
            let end = self.bin_and_send(r, r, pairs, t, chunk_id, Some(span))?;
            self.tel.chunk_span(r, span, chunk_id, up_start, end);
        }
        Ok(Some(t))
    }

    /// The Bin stage for one batch of pairs: partition on `exec`'s GPU from
    /// `t`, download to the host (skipped with GPU-direct networking: the
    /// pairs leave the GPU through the NIC), route every pair to its
    /// reducer, and send each non-empty bucket from `src` under message id
    /// `msg`. The streaming path passes its chunk span so the download and
    /// partition are recorded under it; deferred bins record only their
    /// sends. Returns the last arrival (at least the send-ready instant).
    fn bin_and_send(
        &mut self,
        src: u32,
        exec: u32,
        pairs: KvSet<J::Key, J::Value>,
        t: SimTime,
        msg: u64,
        chunk_span: Option<u64>,
    ) -> EngineResult<SimTime> {
        self.tel.pairs_shuffled.add(pairs.len() as u64);
        let gpu = self.cluster.gpu(exec);
        let t_part = charge_partition::<J::Key, J::Value>(gpu, t, pairs.len());
        let send_ready = if self.gpu_direct {
            t_part
        } else {
            let down = gpu.d2h(t_part, pairs.size_bytes());
            if let Some(span) = chunk_span {
                self.tel
                    .child_event(src, "Download", down.start, down.end, span, || {
                        format!("{} bytes", pairs.size_bytes())
                    });
            }
            down.end
        };
        if let Some(span) = chunk_span {
            self.tel
                .child_event(src, "Partition", t, t_part, span, String::new);
        }
        let buckets = route_pairs(
            self.job,
            &self.cfg.partition,
            pairs,
            &self.reducers,
            self.ranks,
        );
        let mut end = send_ready;
        for (dest, bucket) in buckets.into_iter().enumerate() {
            if bucket.pairs.is_empty() {
                continue;
            }
            let bytes = bucket.pairs.size_bytes();
            let arrival = self.transfer(src, dest as u32, send_ready, bytes)?;
            self.mailbox.deliver(dest as u32, src, msg, arrival, bucket);
            let parent = chunk_span.unwrap_or(0);
            self.tel
                .child_event(src, "Send", send_ready, arrival, parent, || {
                    format!("{bytes} bytes to rank {dest}")
                });
            let s = &mut self.st[src as usize];
            s.bin_done = s.bin_done.max(arrival);
            end = end.max(arrival);
        }
        Ok(end)
    }

    /// Deferred binning after the Map stage: each rank's accumulator
    /// (Accumulate) or host-side store, combined on the GPU first
    /// (Combine), goes through [`Engine::bin_and_send`] once.
    fn deferred_bin(&mut self) -> EngineResult<()> {
        let accumulate = self.cfg.map_mode == MapMode::Accumulate;
        if !accumulate && !self.cfg.combine {
            return Ok(());
        }
        for r in 0..self.ranks {
            let ri = r as usize;
            let msg = self.n_chunks + u64::from(r);
            if accumulate {
                if !self.st[ri].alive {
                    // The accumulate state died with the device; its chunks
                    // were rerun on survivors, so there is nothing to ship.
                    continue;
                }
                let state = self.st[ri].accum.take().unwrap_or_default();
                // Accumulate-mode maps fold emissions into device state
                // immediately, so the committed accumulator entries are the
                // map output: count them as emitted here, where the state
                // is committed for binning (keeps `pairs_emitted >=
                // pairs_shuffled` in every map mode, and counts nothing for
                // state that died with its GPU and was rerun elsewhere).
                self.tel.pairs_emitted.add(state.len() as u64);
                let t = self.st[ri].last_map_end;
                self.bin_and_send(r, r, state, t, msg, None)?;
                continue;
            }
            let store = std::mem::take(&mut self.st[ri].store);
            if store.is_empty() {
                continue;
            }
            // The store lives in host memory, so it survives a GPU loss; a
            // lost rank's combine runs on a surviving GPU.
            let (exec, note) = self.exec_rank(r);
            let t0 = self.st[ri].last_map_end.max(self.st[ri].last_d2h);
            let job = self.job;
            let gpu = self.cluster.gpu(exec);
            // Stream stored pairs back down to the GPU for combination.
            let up = gpu.h2d(t0, store.size_bytes());
            let (combined, t1) = combine_pairs(gpu, up.end, store, |a, b| job.combine_op(a, b))?;
            self.tel.event(r, "Combine", up.start, t1, || {
                format!("-> {} pairs{note}", combined.len())
            });
            self.bin_and_send(r, exec, combined, t1, msg, None)?;
        }
        Ok(())
    }

    /// The rank that does `r`'s remaining pipeline work — `r` itself while
    /// its GPU lives, else the next live rank cyclically past it — and the
    /// `" (on rank N)"` note a takeover adds to span details.
    fn exec_rank(&self, r: u32) -> (u32, String) {
        if self.st[r as usize].alive {
            return (r, String::new());
        }
        let exec = (1..self.ranks)
            .map(|i| (r + i) % self.ranks)
            .find(|&x| self.st[x as usize].alive)
            .expect("kill_rank guarantees a survivor");
        (exec, format!(" (on rank {exec})"))
    }

    /// Drain all inbound pairs. Sort-readiness must be known for every rank
    /// before lost GPUs are assigned takeover ranks. Deliveries are consumed
    /// in canonical (chunk-id, sender) order, so the concatenated set is
    /// identical no matter how faults, retries, or stalls reshuffled
    /// arrival times. A rank whose GPU died after its map work completed is
    /// discovered here: its sort and reduce run on the next surviving rank,
    /// with the output still stored in the lost rank's slot.
    fn gather_inbound(&mut self) -> EngineResult<Vec<Inbound<J::Key, J::Value>>> {
        let mut inbound = Vec::with_capacity(self.ranks as usize);
        for r in 0..self.ranks {
            let deliveries = self.mailbox.drain_canonical(r);
            let mut incoming: KvSet<J::Key, J::Value> =
                KvSet::with_capacity(deliveries.iter().map(|d| d.payload.pairs.len()).sum());
            let mut last_arrival = SimTime::ZERO;
            let mut parts = Vec::with_capacity(deliveries.len());
            let mut max_radix = 0u64;
            for d in deliveries {
                last_arrival = last_arrival.max(d.arrival);
                max_radix = max_radix.max(d.payload.max_radix);
                parts.push((d.arrival, d.payload.pairs.size_bytes()));
                incoming.append(d.payload.pairs);
            }
            let s = &mut self.st[r as usize];
            s.sort_ready = s.last_map_end.max(s.bin_done).max(last_arrival);
            inbound.push(Inbound {
                pairs: incoming,
                parts,
                max_radix,
            });
        }

        let mut last_sort_loss = None;
        for r in 0..self.ranks {
            let ri = r as usize;
            let sort_ready = self.st[ri].sort_ready;
            if self.st[ri].alive && self.st[ri].kill_at.is_some_and(|k| k <= sort_ready) {
                self.st[ri].alive = false;
                self.tel.gpus_lost.inc();
                last_sort_loss = Some(r);
                self.tel.event(r, "GpuLost", sort_ready, sort_ready, || {
                    "GPU lost before sort".to_string()
                });
                self.jrecord(r, sort_ready, JournalRecord::GpuLost { rank: r })?;
            }
        }
        if self.st.iter().all(|s| !s.alive) {
            return Err(EngineError::GpuLost {
                rank: last_sort_loss.unwrap_or(0),
            });
        }
        Ok(inbound)
    }

    /// A rank that bypasses sort and reduce (or received nothing) outputs
    /// its inbound pairs as they are.
    fn pass_through(
        &mut self,
        r: u32,
        incoming: KvSet<J::Key, J::Value>,
    ) -> EngineResult<KvSet<J::Key, J::Value>> {
        let s = &mut self.st[r as usize];
        s.sort_done = s.sort_ready;
        s.reduce_done = s.sort_ready;
        let at = s.sort_ready;
        if let Some(hash) = self.hash(&incoming.keys, &incoming.vals) {
            let rec = JournalRecord::BinReduced {
                rank: r,
                pairs: incoming.len() as u64,
                hash,
            };
            self.jrecord(r, at, rec)?;
        }
        Ok(incoming)
    }

    /// The Sort stage for rank `r`'s inbound pairs: stream them up to the
    /// executing GPU, spill out of core when they do not fit, then sort and
    /// extract the unique-key segments.
    fn sort_rank(
        &mut self,
        r: u32,
        inb: Inbound<J::Key, J::Value>,
    ) -> EngineResult<Sorted<J::Key, J::Value>> {
        let ri = r as usize;
        let sort_ready = self.st[ri].sort_ready;
        let incoming = inb.pairs;
        let (exec, exec_note) = self.exec_rank(r);

        // Sort input: stream inbound buckets up to the device as they
        // arrive, overlapping the upload with the map/bin tail instead of
        // paying one bulk transfer after the last arrival. The host stages
        // arrivals in a pinned buffer and coalesces everything that lands
        // while the previous DMA is in flight into the next one, so
        // hundreds of small deliveries cost a handful of transfers — not
        // one initiation latency each. Free with GPU-direct networking —
        // the pairs arrived in device memory.
        let gpu = self.cluster.gpu(exec);
        let mut device_ready = sort_ready;
        if !self.gpu_direct {
            let mut parts = inb.parts;
            parts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut first_start: Option<SimTime> = None;
            let mut last_end = sort_ready;
            let mut transfers = 0u32;
            let mut i = 0usize;
            while i < parts.len() {
                let issue = parts[i].0.max(gpu.copy_free_at());
                let mut bytes = 0u64;
                while i < parts.len() && parts[i].0 <= issue {
                    bytes += parts[i].1;
                    i += 1;
                }
                let u = gpu.h2d(issue, bytes);
                first_start.get_or_insert(u.start);
                last_end = u.end;
                transfers += 1;
            }
            device_ready = device_ready.max(last_end);
            if let Some(first) = first_start {
                self.tel.event(r, "Upload", first, last_end, || {
                    format!(
                        "{} bytes of sort input in {transfers} transfers{exec_note}",
                        incoming.size_bytes(),
                    )
                });
            }
        }
        // Out-of-core sort: when the pairs (with the sort's ping-pong
        // buffer) exceed device memory, external passes stream the data
        // back and forth across PCI-e. This is what makes SIO's speedup
        // super-linear at the GPU count where the data first fits in core
        // (paper Figure 3).
        let mut sort_start = device_ready;
        let capacity = gpu.mem.capacity();
        let need = 2 * incoming.size_bytes();
        // In-core working set: pairs plus the ping-pong buffer, capped at
        // device capacity when the sort spills out of core.
        gpu.note_resident(if capacity > 0 {
            need.min(capacity)
        } else {
            need
        });
        if capacity > 0 && need > capacity {
            let extra_passes = need / capacity;
            for _ in 0..extra_passes {
                let d = gpu.d2h(sort_start, incoming.size_bytes());
                let u = gpu.h2d(d.end, incoming.size_bytes());
                sort_start = u.end;
            }
        }
        // The partitioner already bounded every bucket's key range while
        // routing, so the sort starts on the right digit count without a
        // max-radix reduction pass.
        let (keys, vals, t1) = match self.cfg.sort {
            SortMode::Radix => sort_pairs_with_bits(
                gpu,
                sort_start,
                &incoming.keys,
                &incoming.vals,
                bits_for_radix(inb.max_radix),
            )?,
            SortMode::Bitonic => {
                bitonic_sort_pairs_by(gpu, sort_start, &incoming.keys, &incoming.vals, |a, b| {
                    a.radix().cmp(&b.radix())
                })?
            }
        };
        let (segs, done) = extract_segments(gpu, t1, &keys)?;
        self.tel.event(r, "Sort", device_ready, done, || {
            format!(
                "{} pairs, {} unique keys{exec_note}",
                keys.len(),
                segs.len()
            )
        });
        if let Some(hash) = self.hash(&keys, &vals) {
            let rec = JournalRecord::BinSorted {
                rank: r,
                pairs: keys.len() as u64,
                unique: segs.len() as u64,
                hash,
            };
            self.jrecord(r, done, rec)?;
        }
        self.st[ri].sort_done = done;
        // Stage accounting: Bin absorbs the wait for arrivals and the
        // streamed input upload; Sort is kernel time only.
        self.st[ri].sort_ready = device_ready;
        Ok((vals, segs))
    }

    /// The Reduce stage over rank `r`'s sorted values, from the end of its
    /// sort: chunked by the job's callback, then the output comes back to
    /// the host.
    fn reduce_rank(
        &mut self,
        r: u32,
        vals: Vec<J::Value>,
        segs: Segments<J::Key>,
    ) -> EngineResult<KvSet<J::Key, J::Value>> {
        let (exec, exec_note) = self.exec_rank(r);
        let done = self.st[r as usize].sort_done;
        let gpu = self.cluster.gpu(exec);
        let capacity = gpu.mem.capacity();
        // Typical reducers emit one pair per unique key, so size for that.
        let mut out: KvSet<J::Key, J::Value> = KvSet::with_capacity(segs.len());
        let mut t = done;
        let mut i = 0usize;
        let val_bytes = std::mem::size_of::<J::Value>().max(1);
        let reduce_budget = (capacity as usize / 4).max(val_bytes);
        while i < segs.len() {
            let mut take = self
                .job
                .reduce_sets_per_chunk(segs.len() - i)
                .clamp(1, segs.len() - i);
            // Memory safety net: a reduce chunk's values must fit on the
            // device (quarter of memory, leaving room for outputs and the
            // double buffer) regardless of what the callback asked for.
            while take > 1 && (segs.offsets[i + take] - segs.offsets[i]) * val_bytes > reduce_budget
            {
                take /= 2;
            }
            let sub = Segments {
                keys: segs.keys[i..i + take].to_vec(),
                offsets: segs.offsets[i..=i + take]
                    .iter()
                    .map(|o| o - segs.offsets[i])
                    .collect(),
            };
            let sub_vals = &vals[segs.offsets[i]..segs.offsets[i + take]];
            let (part, tn) = self.job.reduce(gpu, t, &sub, sub_vals)?;
            out.append(part);
            t = tn;
            i += take;
        }
        let down = gpu.d2h(t, out.size_bytes());
        self.tel.event(r, "Reduce", done, down.end, || {
            format!("{} output pairs{exec_note}", out.len())
        });
        self.st[r as usize].reduce_done = down.end;
        if let Some(hash) = self.hash(&out.keys, &out.vals) {
            let rec = JournalRecord::BinReduced {
                rank: r,
                pairs: out.len() as u64,
                hash,
            };
            self.jrecord(r, down.end, rec)?;
        }
        Ok(out)
    }

    /// Publish device memory peaks, journal the job-end manifest, and
    /// assemble the timing breakdown.
    fn finish(
        mut self,
        outputs: Vec<KvSet<J::Key, J::Value>>,
    ) -> EngineResult<JobResult<J::Key, J::Value>> {
        // Job is done: publish each device's memory high-water mark to its
        // `gpu.rank{r}.mem_peak_bytes` gauge (teardown flush).
        self.cluster.flush_telemetry();
        let makespan = self
            .st
            .iter()
            .map(|s| s.reduce_done)
            .fold(SimTime::ZERO, SimTime::max);
        if let Some(ctx) = self.journal.as_ref() {
            // Job-end manifest: a fold of every rank's output hash plus the
            // exact makespan bits. A resumed run that reaches this record
            // with the same values is bit-identical to the uninterrupted
            // run.
            let mut h = Fnv64::new();
            for o in &outputs {
                h.write_u64((ctx.hook.hash_pairs)(&o.keys, &o.vals));
            }
            let rec = JournalRecord::JobEnd {
                output_hash: h.finish(),
                makespan_bits: makespan.since(SimTime::ZERO).as_secs().to_bits(),
            };
            self.jrecord(0, makespan, rec)?;
        }
        let per_rank: Vec<StageTimes> = self
            .st
            .iter()
            .map(|s| StageTimes {
                map: s.last_map_end.since(s.setup_end),
                bin: s.sort_ready.since(s.last_map_end.max(s.setup_end)),
                sort: s.sort_done.since(s.sort_ready),
                reduce: s.reduce_done.since(s.sort_done),
                // Job setup plus the end-of-job barrier wait. An elastic
                // add's setup ends at its join instant plus local setup, so
                // its idle pre-join span lands here, not in Map.
                scheduler: s.setup_end.since(SimTime::ZERO) + makespan.since(s.reduce_done),
            })
            .collect();
        let tel = &self.tel;
        Ok(JobResult {
            outputs,
            timings: JobTimings {
                total: makespan.since(SimTime::ZERO),
                per_rank,
                chunks_per_rank: self.st.iter().map(|s| s.chunks_done).collect(),
                chunks_stolen: tel.stolen.this_run() as u32,
                pairs_emitted: tel.pairs_emitted.this_run(),
                pairs_shuffled: tel.pairs_shuffled.this_run(),
                gpus_lost: tel.gpus_lost.this_run() as u32,
                gpus_added: tel.gpus_added.this_run() as u32,
                chunks_requeued: tel.requeued.this_run() as u32,
                transfer_retries: tel.retries.this_run() as u32,
                stalls_injected: tel.stalls.this_run() as u32,
            },
        })
    }

    /// Caller-requested stop: every rank halted at a chunk boundary at or
    /// after `stop`. Drain the leftover queues so no chunk stays parked in
    /// scheduler state, and account for the whole input: chunks committed
    /// by maps plus chunks released here cover every dispatched chunk
    /// (fault-plan kills may rerun chunks, which only raises the committed
    /// count). Device memory holds no engine allocations across chunks
    /// (working sets are modeled via `note_resident`), so dropping per-rank
    /// state releases everything.
    fn cancel(mut self, stop: SimTime) -> EngineError {
        let chunks_committed: u32 = self.st.iter().map(|s| s.chunks_done).sum();
        let chunks_released = self.queues.drain_all().len() as u32;
        self.tel.event(0, "Cancelled", stop, stop, || {
            format!(
                "run stopped: {chunks_committed} chunk(s) committed, {chunks_released} released"
            )
        });
        self.cluster.flush_telemetry();
        EngineError::Cancelled {
            at_ns: (stop.as_secs() * 1e9).round() as u64,
            chunks_committed,
            chunks_released,
        }
    }

    /// Handle a fail-stop GPU loss on rank `r` detected at simulated
    /// instant `now`: mark the rank dead, collect every chunk whose work
    /// died with the device (the in-flight chunk, anything still queued,
    /// and — in accumulate mode — chunks already folded into the lost
    /// GPU-resident state), and migrate them to surviving ranks
    /// round-robin, charging the fabric for each move. Errors with
    /// [`EngineError::GpuLost`] when no rank survives.
    fn kill_rank(
        &mut self,
        r: u32,
        now: SimTime,
        in_flight: Option<(u64, J::Chunk)>,
    ) -> EngineResult<()> {
        let ri = r as usize;
        self.tel.gpus_lost.inc();
        self.jrecord(r, now, JournalRecord::GpuLost { rank: r })?;
        let s = &mut self.st[ri];
        s.alive = false;
        s.active = false;
        s.accum = None;
        let mut orphans: Vec<(u64, J::Chunk)> = std::mem::take(&mut s.processed);
        orphans.extend(in_flight);
        orphans.extend(self.queues.drain_rank(r));
        // Canonical migration order, independent of how the orphans mixed.
        orphans.sort_by_key(|&(id, _)| id);
        self.tel.event(r, "GpuLost", now, now, || {
            format!("GPU lost; {} chunks orphaned", orphans.len())
        });
        let live: Vec<u32> = (0..self.ranks)
            .filter(|&x| self.st[x as usize].alive)
            .collect();
        if live.is_empty() {
            return Err(EngineError::GpuLost { rank: r });
        }
        // Spread orphans over survivors, starting just past the victim. The
        // chunk data sits in the victim's *host* memory (chunks are
        // streamed from rank-local storage and Bin is a CPU stage), so the
        // surviving host forwards it across the fabric even though its GPU
        // is gone.
        let first = live.iter().position(|&x| x > r).unwrap_or(0);
        for (i, (id, chunk)) in orphans.into_iter().enumerate() {
            let dest = live[(first + i) % live.len()];
            // The chunk leaves its home rank: any device residency is gone.
            self.displaced.insert(id);
            let bytes = chunk.serialize().len() as u64;
            let arrival = self.transfer(r, dest, now, bytes)?;
            self.tel.event(r, "Requeue", now, arrival, || {
                format!("chunk {id} -> rank {dest}")
            });
            let rec = JournalRecord::Requeue {
                chunk_id: id,
                from: r,
                to: dest,
            };
            self.jrecord(r, arrival, rec)?;
            self.queues.push_back(dest, (id, chunk));
            let d = &mut self.st[dest as usize];
            d.cursor = d.cursor.max(arrival);
            d.active = true;
            self.tel.requeued.inc();
        }
        Ok(())
    }

    /// Time a transfer through the fabric, retrying plan-injected failures
    /// with capped exponential backoff. Returns the arrival instant at
    /// `to`, or [`EngineError::TransferFailed`] once the retry budget is
    /// exhausted.
    fn transfer(
        &mut self,
        from: u32,
        to: u32,
        mut ready: SimTime,
        bytes: u64,
    ) -> EngineResult<SimTime> {
        let mut attempt = 0u32;
        loop {
            match self
                .cluster
                .fabric()
                .try_send(from, to, ready, bytes, attempt)
            {
                Ok(arrival) => return Ok(arrival),
                Err(fault) => {
                    attempt += 1;
                    self.tel.retries.inc();
                    if attempt > self.tuning.max_transfer_retries {
                        return Err(EngineError::TransferFailed { attempt, fault });
                    }
                    let backoff = SimDuration::from_secs(
                        (self.tuning.retry_backoff_base_s
                            * f64::from(1u32 << (attempt - 1).min(31)))
                        .min(self.tuning.retry_backoff_cap_s),
                    );
                    self.tel.event(from, "Retry", ready, ready + backoff, || {
                        format!("transfer to rank {to} failed (attempt {attempt}); backing off")
                    });
                    ready += backoff;
                }
            }
        }
    }

    /// Content hash of an ordered pair buffer, when journaling.
    fn hash(&self, keys: &[J::Key], vals: &[J::Value]) -> Option<u64> {
        self.journal
            .as_ref()
            .map(|j| (j.hook.hash_pairs)(keys, vals))
    }

    /// Verify-or-append one journal record (no-op without a journal).
    /// Journaling never charges simulated time; a flush is recorded as a
    /// zero-duration `JournalFlush` span at the commit instant.
    fn jrecord(&mut self, rank: u32, at: SimTime, rec: JournalRecord) -> EngineResult<()> {
        let Some(ctx) = self.journal.as_mut() else {
            return Ok(());
        };
        match ctx.hook.journal.record(&rec).map_err(EngineError::from)? {
            RecordOutcome::Replayed => ctx.replayed.inc(),
            RecordOutcome::Buffered => ctx.records.inc(),
            RecordOutcome::Flushed => {
                ctx.records.inc();
                ctx.flushes.inc();
                let on_disk = ctx.hook.journal.replay_len() + ctx.hook.journal.appended();
                self.tel.event(rank, "JournalFlush", at, at, || {
                    format!("{on_disk} record(s) durable")
                });
            }
        }
        Ok(())
    }
}

/// The journal's first record, a job fingerprint over everything that
/// shapes the schedule and the data. A resume against a journal written by
/// a different job (or the same job on a different cluster shape) diverges
/// on record 0 instead of replaying garbage.
fn job_start<C: Chunk>(
    cfg: &PipelineConfig,
    ranks: u32,
    reducers: &[u32],
    depth: usize,
    gpu_direct: bool,
    ids: &[(u64, C)],
) -> JournalRecord {
    let n_chunks = ids.len() as u64;
    let mut fp = Fnv64::new();
    fp.write_u64(u64::from(ranks));
    fp.write_u64(reducers.len() as u64);
    for &r in reducers {
        fp.write_u64(u64::from(r));
    }
    fp.write_u64(n_chunks);
    fp.write_u64(depth as u64);
    fp.write_u64(u64::from(gpu_direct));
    fp.write_u64(cfg.map_mode as u64);
    fp.write_u64(u64::from(cfg.combine));
    fp.write_u64(cfg.partition.discriminant());
    if let PartitionMode::Range { splitters } = &cfg.partition {
        fp.write_u64(splitters.len() as u64);
        for &s in splitters {
            fp.write_u64(s);
        }
    }
    fp.write_u64(cfg.sort as u64);
    fp.write_u64(u64::from(cfg.sort_and_reduce));
    for (_, c) in ids {
        fp.write_u64(fnv1a(&c.serialize()));
    }
    JournalRecord::JobStart {
        fingerprint: fp.finish(),
        n_chunks,
        ranks,
        reducers: reducers.len() as u32,
    }
}

/// One binned bucket in flight to its reducer rank, carrying the key-range
/// bound the partition pass computed while routing (the pass touches every
/// key anyway, so folding a max costs nothing extra). The receiver uses it
/// to size its radix sort without a max-radix reduction.
struct ShuffleMsg<K, V> {
    pairs: KvSet<K, V>,
    max_radix: u64,
}

/// Partition `pairs` over the `reducers` (the ranks that started the job;
/// elastic adds are excluded so the destination set — and the output — is
/// independent of mid-job joins), scattered into a `ranks`-wide bucket
/// vector indexed by destination rank. With every rank a reducer this is
/// the classic placement.
fn route_pairs<J: GpmrJob>(
    job: &J,
    mode: &PartitionMode,
    pairs: KvSet<J::Key, J::Value>,
    reducers: &[u32],
    ranks: u32,
) -> Vec<ShuffleMsg<J::Key, J::Value>> {
    fn scatter<K: crate::types::Key, V: crate::types::Value>(
        buckets: Vec<(KvSet<K, V>, u64)>,
        reducers: &[u32],
        ranks: u32,
    ) -> Vec<ShuffleMsg<K, V>> {
        let mut out: Vec<ShuffleMsg<K, V>> = (0..ranks)
            .map(|_| ShuffleMsg {
                pairs: KvSet::new(),
                max_radix: 0,
            })
            .collect();
        for (i, (pairs, max_radix)) in buckets.into_iter().enumerate() {
            out[reducers[i] as usize] = ShuffleMsg { pairs, max_radix };
        }
        out
    }
    let nred = reducers.len() as u32;
    match mode {
        PartitionMode::None => {
            let max_radix = pairs.keys.iter().map(|k| k.radix()).max().unwrap_or(0);
            scatter(vec![(pairs, max_radix)], reducers, ranks)
        }
        PartitionMode::RoundRobin => scatter(
            split_buckets_bounded(pairs, nred, |k| (k.radix() % u64::from(nred)) as u32),
            reducers,
            ranks,
        ),
        PartitionMode::Custom => scatter(
            split_buckets_bounded(pairs, nred, |k| job.partition(k, nred)),
            reducers,
            ranks,
        ),
        PartitionMode::Range { splitters } => scatter(
            split_buckets_bounded(pairs, nred, |k| {
                splitters.partition_point(|&s| s <= k.radix()) as u32
            }),
            reducers,
            ranks,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::SliceChunk;
    use crate::job::PipelineConfig;
    use gpmr_sim_gpu::{FaultPlan, Gpu, GpuSpec, LaunchConfig, SimGpuResult};

    /// A minimal counting job with a configurable pipeline, used to
    /// exercise engine paths directly.
    struct TestJob {
        cfg: PipelineConfig,
    }

    impl TestJob {
        fn with(cfg: PipelineConfig) -> Self {
            TestJob { cfg }
        }
    }

    impl GpmrJob for TestJob {
        type Chunk = SliceChunk<u32>;
        type Key = u32;
        type Value = u32;

        fn pipeline(&self) -> PipelineConfig {
            self.cfg.clone()
        }

        fn map(
            &self,
            gpu: &mut Gpu,
            at: SimTime,
            chunk: &Self::Chunk,
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            let n = chunk.items.len();
            let cfg = LaunchConfig::for_items(n, 1024, 128);
            let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                let range = ctx.item_range(n);
                ctx.charge_read::<u32>(range.len());
                let mut out = KvSet::with_capacity(range.len());
                for &x in &chunk.items[range] {
                    out.push(x % 16, 1);
                }
                out
            })?;
            let mut pairs = KvSet::new();
            for p in launch.outputs {
                pairs.append(p);
            }
            Ok((pairs, res.end))
        }

        fn combine_op(&self, a: u32, b: u32) -> u32 {
            a + b
        }

        fn reduce(
            &self,
            gpu: &mut Gpu,
            at: SimTime,
            segs: &Segments<u32>,
            vals: &[u32],
        ) -> SimGpuResult<(KvSet<u32, u32>, SimTime)> {
            let cfg = LaunchConfig::grid(1, 128);
            let (launch, res) = gpu.launch(at, &cfg, |ctx| {
                let mut out = KvSet::new();
                for s in 0..segs.len() {
                    let r = segs.range(s);
                    ctx.charge_read_uncoalesced::<u32>(r.len());
                    out.push(segs.keys[s], vals[r].iter().sum());
                }
                out
            })?;
            let mut out = KvSet::new();
            for p in launch.outputs {
                out.append(p);
            }
            Ok((out, res.end))
        }
    }

    fn input(n: u32) -> Vec<SliceChunk<u32>> {
        let data: Vec<u32> = (0..n).collect();
        SliceChunk::split(&data, 500)
    }

    fn counts(result: &JobResult<u32, u32>) -> Vec<u32> {
        let mut c = vec![0u32; 16];
        for (k, v) in result.merged_output().iter() {
            c[*k as usize] += *v;
        }
        c
    }

    #[test]
    fn combine_mode_defers_binning_and_matches_plain() {
        let plain = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(8000),
            )
            .unwrap()
        };
        let combined = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            let cfg = PipelineConfig::default().with_combine(true);
            run_job(&mut cl, &TestJob::with(cfg), input(8000)).unwrap()
        };
        assert_eq!(counts(&plain), counts(&combined));
        // Combine collapses the shuffle to at most (keys x ranks) pairs.
        assert!(combined.timings.pairs_shuffled <= 16 * 4);
        assert_eq!(plain.timings.pairs_shuffled, 8000);
    }

    #[test]
    fn partition_none_routes_everything_to_rank_zero() {
        let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
        let cfg = PipelineConfig::default().with_partition(PartitionMode::None);
        let result = run_job(&mut cl, &TestJob::with(cfg), input(4000)).unwrap();
        assert!(!result.outputs[0].is_empty());
        assert!(result.outputs[1..].iter().all(KvSet::is_empty));
        assert_eq!(counts(&result).iter().sum::<u32>(), 4000);
    }

    #[test]
    fn map_only_jobs_skip_sort_and_reduce() {
        let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
        let cfg = PipelineConfig::default().map_only();
        let result = run_job(&mut cl, &TestJob::with(cfg), input(2000)).unwrap();
        // Raw pairs, not reduced: one pair per input element.
        assert_eq!(result.merged_output().len(), 2000);
        for st in &result.timings.per_rank {
            assert_eq!(st.sort.as_secs(), 0.0);
            assert_eq!(st.reduce.as_secs(), 0.0);
        }
    }

    #[test]
    fn bitonic_sorter_path_matches_radix_path() {
        let radix = {
            let mut cl = Cluster::accelerator(3, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(5000),
            )
            .unwrap()
        };
        let bitonic = {
            let mut cl = Cluster::accelerator(3, GpuSpec::gt200());
            let cfg = PipelineConfig::default().with_sort(SortMode::Bitonic);
            run_job(&mut cl, &TestJob::with(cfg), input(5000)).unwrap()
        };
        assert_eq!(counts(&radix), counts(&bitonic));
    }

    #[test]
    fn out_of_core_sort_charges_extra_pcie_passes() {
        // A device too small to hold the incoming pairs twice must stream
        // them in and out for external sort passes.
        let small = GpuSpec::gt200().with_mem_capacity(48 * 1024);
        let large = GpuSpec::gt200();
        let run_with = |spec: GpuSpec| {
            let mut cl = Cluster::new(gpmr_sim_net::Topology::new(1, 1, 1), spec);
            let r = run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(4000),
            )
            .unwrap();
            let stats = cl.gpu(0).stats();
            (r, stats.h2d_bytes)
        };
        let (r_small, h2d_small) = run_with(small);
        let (r_large, h2d_large) = run_with(large);
        assert_eq!(counts(&r_small), counts(&r_large));
        assert!(
            h2d_small > h2d_large,
            "small device should re-upload for external passes ({h2d_small} vs {h2d_large})"
        );
        assert!(r_small.total_time().as_secs() > r_large.total_time().as_secs());
    }

    #[test]
    fn single_rank_cluster_runs_every_pipeline() {
        for cfg in [
            PipelineConfig::default(),
            PipelineConfig::default().with_combine(true),
            PipelineConfig::default().with_partition(PartitionMode::None),
            PipelineConfig::default().map_only(),
        ] {
            let mut cl = Cluster::accelerator(1, GpuSpec::gt200());
            let result = run_job(&mut cl, &TestJob::with(cfg.clone()), input(3000)).unwrap();
            let total: u32 = result.merged_output().vals.iter().sum();
            assert_eq!(total, 3000, "{cfg:?}");
        }
    }

    #[test]
    fn elastic_add_is_output_invariant_and_steals_work() {
        // Reference: the initial four-GPU cluster, no fault plan. 20
        // chunks land 5 per rank, deep enough for profitable steals.
        let base = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(10_000),
            )
            .unwrap()
        };
        // Elastic run: a fifth GPU joins almost immediately. It is not a
        // reducer and owns no initial queue, so the shuffle destinations —
        // and the per-rank outputs — match the four-GPU run exactly; the
        // new GPU contributes by stealing map work.
        let mut cl = Cluster::accelerator(5, GpuSpec::gt200());
        cl.set_fault_plan(Some(FaultPlan::new().add(4, 1e-4)));
        let elastic = run_job(
            &mut cl,
            &TestJob::with(PipelineConfig::default()),
            input(10_000),
        )
        .unwrap();
        assert_eq!(elastic.timings.gpus_added, 1);
        assert_eq!(&elastic.outputs[..4], &base.outputs[..]);
        assert!(elastic.outputs[4].is_empty(), "added rank is not a reducer");
        assert!(
            elastic.timings.chunks_per_rank[4] >= 1,
            "the added GPU must steal map work: {:?}",
            elastic.timings.chunks_per_rank
        );
        assert_eq!(counts(&elastic), counts(&base));
    }

    #[test]
    fn adding_every_rank_or_an_unknown_rank_is_rejected() {
        let run_with = |plan: FaultPlan| {
            let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
            cl.set_fault_plan(Some(plan));
            run_job(
                &mut cl,
                &TestJob::with(PipelineConfig::default()),
                input(1000),
            )
        };
        let err = run_with(FaultPlan::new().add(7, 1e-4)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPipeline(_)), "{err}");
        let err = run_with(FaultPlan::new().add(0, 1e-4).add(1, 2e-4)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPipeline(_)), "{err}");
    }

    #[test]
    fn journaled_run_matches_plain_and_replays_verbatim() {
        use crate::journal::JournalError;

        let dir = std::env::temp_dir().join("gpmr_engine_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.gpj");
        let job = TestJob::with(PipelineConfig::default());
        fn journaled(j: &mut Journal) -> RunOptions<'_, u32, u32> {
            RunOptions::default().with_journal(Some(j))
        }

        let plain = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run_job(&mut cl, &job, input(8000)).unwrap()
        };

        // A journaled run pays no simulated time: outputs AND timings
        // match the plain engine bit for bit.
        let mut journal = Journal::create(&path, 1).unwrap();
        let first = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run(&mut cl, &job, input(8000), journaled(&mut journal)).unwrap()
        };
        let written = journal.appended();
        drop(journal);
        assert_eq!(first.outputs, plain.outputs);
        assert_eq!(first.timings, plain.timings);

        let bytes = std::fs::read(&path).unwrap();
        let (records, _) = crate::journal::scan_bytes(&bytes);
        assert_eq!(records.len() as u64, written);
        assert!(matches!(
            records.first(),
            Some(JournalRecord::JobStart { .. })
        ));
        assert!(matches!(records.last(), Some(JournalRecord::JobEnd { .. })));

        // Resume over the complete journal: a pure verified replay that
        // appends nothing and leaves the file byte-identical.
        let mut journal = Journal::resume(&path, 1).unwrap();
        let second = {
            let mut cl = Cluster::accelerator(4, GpuSpec::gt200());
            run(&mut cl, &job, input(8000), journaled(&mut journal)).unwrap()
        };
        assert_eq!(journal.replayed(), records.len() as u64);
        assert_eq!(journal.appended(), 0);
        drop(journal);
        assert_eq!(second.outputs, first.outputs);
        assert_eq!(second.timings, first.timings);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // A different job shape diverges on the fingerprint record instead
        // of silently replaying someone else's journal.
        let mut journal = Journal::resume(&path, 1).unwrap();
        let err = {
            let mut cl = Cluster::accelerator(2, GpuSpec::gt200());
            run(&mut cl, &job, input(8000), journaled(&mut journal)).unwrap_err()
        };
        assert!(
            matches!(
                err,
                EngineError::Journal(JournalError::Diverged { index: 0, .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
