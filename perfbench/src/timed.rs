//! Host-clock timers around the application layer.
//!
//! [`TimedJob`] delegates every [`GpmrJob`] method to the real app job
//! and times the kernel callbacks the engine calls into: `map`,
//! `map_accumulate` and `accumulate_init` count as map time,
//! `partial_reduce` and `reduce` as reduce time. The engine drives these
//! callbacks from the thread that called `run_job`, so `run_job` host
//! time minus callback time is the engine's own (self) time.
//! [`TimedRounds`] does the same for every round of a multi-round job.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpmr_core::rounds::{RoundJob, RoundOutputs, RoundStep};
use gpmr_core::{GpmrJob, KvSet, PipelineConfig};
use gpmr_primitives::Segments;
use gpmr_sim_gpu::{Gpu, SimGpuResult, SimTime};

use crate::trace;

/// Accumulated callback host time. Counters are plain statistics, so
/// relaxed atomics suffice.
#[derive(Debug, Default)]
pub struct CallbackClock {
    map_ns: AtomicU64,
    reduce_ns: AtomicU64,
    calls: AtomicU64,
}

/// A reading of a [`CallbackClock`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallbackTimes {
    pub map: Duration,
    pub reduce: Duration,
    pub calls: u64,
}

impl CallbackClock {
    pub fn read(&self) -> CallbackTimes {
        CallbackTimes {
            map: Duration::from_nanos(self.map_ns.load(Ordering::Relaxed)),
            reduce: Duration::from_nanos(self.reduce_ns.load(Ordering::Relaxed)),
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    fn time<R>(&self, reduce_side: bool, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        let slot = if reduce_side {
            &self.reduce_ns
        } else {
            &self.map_ns
        };
        slot.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        trace::leaf("apps", name, start, end);
        out
    }
}

impl CallbackTimes {
    /// Callback time accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &CallbackTimes) -> CallbackTimes {
        CallbackTimes {
            map: self.map - earlier.map,
            reduce: self.reduce - earlier.reduce,
            calls: self.calls - earlier.calls,
        }
    }

    pub fn total(&self) -> Duration {
        self.map + self.reduce
    }
}

/// An app job with timed kernel callbacks.
pub struct TimedJob<J> {
    inner: J,
    clock: Arc<CallbackClock>,
}

impl<J> TimedJob<J> {
    pub fn new(inner: J, clock: Arc<CallbackClock>) -> Self {
        TimedJob { inner, clock }
    }
}

impl<J: GpmrJob> GpmrJob for TimedJob<J> {
    type Chunk = J::Chunk;
    type Key = J::Key;
    type Value = J::Value;

    fn pipeline(&self) -> PipelineConfig {
        self.inner.pipeline()
    }

    fn map(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
    ) -> SimGpuResult<(KvSet<J::Key, J::Value>, SimTime)> {
        self.clock
            .time(false, "map", || self.inner.map(gpu, at, chunk))
    }

    fn partial_reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        pairs: KvSet<J::Key, J::Value>,
    ) -> SimGpuResult<(KvSet<J::Key, J::Value>, SimTime)> {
        self.clock.time(true, "partial_reduce", || {
            self.inner.partial_reduce(gpu, at, pairs)
        })
    }

    fn accumulate_init(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
    ) -> SimGpuResult<(KvSet<J::Key, J::Value>, SimTime)> {
        self.clock.time(false, "accumulate_init", || {
            self.inner.accumulate_init(gpu, at)
        })
    }

    fn map_accumulate(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        chunk: &Self::Chunk,
        state: &mut KvSet<J::Key, J::Value>,
    ) -> SimGpuResult<SimTime> {
        self.clock.time(false, "map_accumulate", || {
            self.inner.map_accumulate(gpu, at, chunk, state)
        })
    }

    fn combine_op(&self, a: J::Value, b: J::Value) -> J::Value {
        self.inner.combine_op(a, b)
    }

    fn partition(&self, key: &J::Key, ranks: u32) -> u32 {
        self.inner.partition(key, ranks)
    }

    fn reduce(
        &self,
        gpu: &mut Gpu,
        at: SimTime,
        segs: &Segments<J::Key>,
        vals: &[J::Value],
    ) -> SimGpuResult<(KvSet<J::Key, J::Value>, SimTime)> {
        self.clock
            .time(true, "reduce", || self.inner.reduce(gpu, at, segs, vals))
    }

    fn reduce_sets_per_chunk(&self, remaining: usize) -> usize {
        self.inner.reduce_sets_per_chunk(remaining)
    }
}

/// A multi-round job whose every round runs a [`TimedJob`].
pub struct TimedRounds<D> {
    pub inner: D,
    clock: Arc<CallbackClock>,
}

impl<D> TimedRounds<D> {
    pub fn new(inner: D, clock: Arc<CallbackClock>) -> Self {
        TimedRounds { inner, clock }
    }
}

impl<D: RoundJob> RoundJob for TimedRounds<D> {
    type Job = TimedJob<D::Job>;

    fn max_rounds(&self) -> u32 {
        self.inner.max_rounds()
    }

    fn job(&self, round: u32) -> Self::Job {
        TimedJob::new(self.inner.job(round), Arc::clone(&self.clock))
    }

    fn control_hash(&self) -> u64 {
        self.inner.control_hash()
    }

    fn absorb(&mut self, round: u32, outputs: &[RoundOutputs<Self::Job>]) -> RoundStep {
        self.inner.absorb(round, outputs)
    }

    fn rechunk(
        &self,
        round: u32,
        outputs: Vec<RoundOutputs<Self::Job>>,
    ) -> Vec<<Self::Job as GpmrJob>::Chunk> {
        self.inner.rechunk(round, outputs)
    }

    fn rechunk_preserves_affinity(&self) -> bool {
        self.inner.rechunk_preserves_affinity()
    }
}
