//! Structural invariants of execution traces: the spans a run records
//! must be consistent with the timing result and the pipeline's ordering
//! rules.

use gpmr::core::{run, EngineResult, GpmrJob, JobResult, RunOptions};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr::telemetry::analyze::SpanKind;
use gpmr::telemetry::{export, SpanRecord, Telemetry, TelemetrySnapshot};
use gpmr_apps::sio::{generate_integers, sio_chunks};
use gpmr_apps::wo;
use std::sync::Arc;

/// Run `job` with telemetry on and return the result with its recording.
fn run_traced<J: GpmrJob<Key = u32, Value = u32>>(
    cluster: &mut Cluster,
    job: &J,
    chunks: Vec<J::Chunk>,
) -> EngineResult<(JobResult<u32, u32>, TelemetrySnapshot)> {
    let tel = Telemetry::enabled();
    let opts = RunOptions {
        telemetry: tel.clone(),
        ..RunOptions::default()
    };
    let result = run(cluster, job, chunks, opts)?;
    Ok((result, tel.snapshot()))
}

fn on_rank<'a>(
    snap: &'a TelemetrySnapshot,
    rank: u32,
    kind: &'a str,
) -> impl Iterator<Item = &'a SpanRecord> {
    snap.spans_on(rank).filter(move |s| s.kind == kind)
}

#[test]
fn trace_covers_every_stage_and_respects_the_makespan() {
    let data = generate_integers(100_000, 1);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let (result, trace) = run_traced(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 32 * 1024),
    )
    .unwrap();

    // Every stage kind shows up for a full-pipeline job.
    for kind in [
        "Setup",
        "Upload",
        "Map",
        "Partition",
        "Download",
        "Send",
        "Sort",
        "Reduce",
    ] {
        assert!(trace.spans_of(kind).count() > 0, "no {kind} spans recorded");
    }
    // One setup span per rank.
    assert_eq!(trace.spans_of("Setup").count(), 4);

    // No span starts after it ends, and nothing ends after the makespan.
    let makespan = result.total_time().as_secs();
    for s in &trace.spans {
        assert!(s.start_s <= s.end_s, "{s:?}");
        assert!(
            s.end_s <= makespan + 1e-12,
            "span ends after makespan: {s:?}"
        );
    }

    // Per rank: the first map starts no earlier than the first upload
    // ends, and sort starts after the last map ends.
    for r in 0..4 {
        let first_upload = on_rank(&trace, r, "Upload").next().unwrap();
        let first_map = on_rank(&trace, r, "Map").next().unwrap();
        assert!(first_map.start_s >= first_upload.end_s);

        let last_map_end = on_rank(&trace, r, "Map")
            .map(|s| s.end_s)
            .fold(0.0, f64::max);
        if let Some(sort) = on_rank(&trace, r, "Sort").next() {
            assert!(sort.start_s >= last_map_end);
        }
    }
}

#[test]
fn traced_and_untraced_runs_are_identical() {
    let data = generate_integers(50_000, 2);
    let mut c1 = Cluster::accelerator(4, GpuSpec::gt200());
    let plain =
        gpmr::core::run_job(&mut c1, &SioJob::default(), sio_chunks(&data, 16 * 1024)).unwrap();
    let mut c2 = Cluster::accelerator(4, GpuSpec::gt200());
    let (traced, _) =
        run_traced(&mut c2, &SioJob::default(), sio_chunks(&data, 16 * 1024)).unwrap();
    assert_eq!(plain.total_time(), traced.total_time());
    assert_eq!(plain.merged_output(), traced.merged_output());
}

#[test]
fn accumulate_jobs_trace_init_and_deferred_sends() {
    let dict = Arc::new(Dictionary::generate(150, 3));
    let text = gpmr::apps::text::generate_text(&dict, 30_000, 4);
    let chunks = gpmr::apps::text::chunk_text(&text, 4_000);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    let job = WoJob::new(dict.clone(), 4);
    let (result, trace) = run_traced(&mut cluster, &job, chunks).unwrap();
    assert_eq!(
        wo::counts_from_output(&dict, &result.merged_output()),
        wo::cpu_reference(&dict, &text)
    );
    // One accumulate-init per rank; binning happens only after all maps.
    assert_eq!(trace.spans_of("AccumulateInit").count(), 4);
    for r in 0..4 {
        let last_map = on_rank(&trace, r, "Map")
            .map(|s| s.end_s)
            .fold(0.0, f64::max);
        for send in on_rank(&trace, r, "Send") {
            assert!(
                send.start_s >= last_map,
                "accumulate-mode send before maps finished"
            );
        }
    }
}

#[test]
fn gantt_renders_one_row_per_rank() {
    let data = generate_integers(30_000, 5);
    let mut cluster = Cluster::accelerator(6, GpuSpec::gt200());
    let (_, trace) = run_traced(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    )
    .unwrap();
    let chart = export::gantt(&trace, 6, 72);
    let rows = chart.lines().filter(|l| l.starts_with("rank")).count();
    assert_eq!(rows, 6);
    assert!(chart.contains('M'));
    assert!(chart.contains('S'));
}

#[test]
fn every_recorded_span_kind_is_in_the_vocabulary() {
    // A faulty streaming run (kill, stall, failing transfers) and an
    // elastic accumulate run between them exercise every recovery path.
    let data = generate_integers(60_000, 6);
    let mut cluster = Cluster::accelerator(4, GpuSpec::gt200());
    cluster.set_fault_plan(Some(
        FaultPlan::new()
            .kill(1, 1e-3)
            .stall(2, 5e-4, 2e-4)
            .transfer_fail(Some(0), Some(2), 0.0, 1e-2, 2),
    ));
    let (_, faulty) = run_traced(
        &mut cluster,
        &SioJob::default(),
        sio_chunks(&data, 8 * 1024),
    )
    .unwrap();

    let dict = Arc::new(Dictionary::generate(150, 7));
    let text = gpmr::apps::text::generate_text(&dict, 60_000, 8);
    let mut cluster = Cluster::accelerator(5, GpuSpec::gt200());
    cluster.set_fault_plan(Some(FaultPlan::new().add(4, 1e-4)));
    let job = WoJob::new(dict, 4);
    let chunks = gpmr::apps::text::chunk_text(&text, 2_000);
    let (_, elastic) = run_traced(&mut cluster, &job, chunks).unwrap();

    let mut seen = std::collections::BTreeSet::new();
    for s in faulty.spans.iter().chain(&elastic.spans) {
        assert!(
            SpanKind::of(&s.kind).is_some() || s.kind == "Chunk" || s.kind == "NetSend",
            "span kind {:?} is not in the vocabulary",
            s.kind
        );
        seen.insert(s.kind.as_str());
    }
    for kind in [
        "GpuLost",
        "Requeue",
        "Retry",
        "Stall",
        "GpuAdded",
        "AccumulateInit",
    ] {
        assert!(seen.contains(kind), "no {kind} span recorded: {seen:?}");
    }
}
