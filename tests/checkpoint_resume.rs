//! Crash-point / replay matrix for the write-ahead job journal.
//!
//! The contract under test: a `gpmr` run journaled to disk and killed at
//! **any** point — after any record, or mid-record through a torn write —
//! resumes to a job that finishes **bit-identically** to the
//! uninterrupted run: same outputs, same simulated timings, and the same
//! final journal bytes. Resume is verified deterministic replay: the
//! engine re-executes from scratch while the journal checks every
//! would-be record against the stored prefix, so a journal written by a
//! *different* job (other data, other cluster shape) aborts with a typed
//! divergence error instead of silently replaying garbage.

use std::path::PathBuf;
use std::sync::OnceLock;

use gpmr::core::journal::{scan_bytes, Journal, JournalError, JournalRecord};
use gpmr::core::{run, EngineError, EngineTuning, JobTimings, RunOptions};
use gpmr::prelude::*;
use gpmr::sim_gpu::FaultPlan;
use gpmr_apps::sio::{self, sio_chunks};
use proptest::prelude::*;

const DATA_N: usize = 12_000;
const DATA_SEED: u64 = 7;

/// Unique scratch path per test (tests run concurrently in one binary).
fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpmr_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}.gpj"))
}

fn cluster(ranks: u32, plan: &Option<FaultPlan>) -> Cluster {
    let mut cl = Cluster::accelerator(ranks, GpuSpec::gt200());
    cl.set_fault_plan(plan.clone());
    cl
}

fn tuning(gpu_direct: bool) -> EngineTuning {
    EngineTuning {
        gpu_direct,
        ..EngineTuning::default()
    }
}

/// One journaled SIO run (integer-exact, so outputs are bit-comparable).
fn run_journaled(
    ranks: u32,
    gpu_direct: bool,
    plan: &Option<FaultPlan>,
    seed: u64,
    journal: &mut Journal,
) -> Result<(Vec<KvSet<u32, u32>>, JobTimings), EngineError> {
    let data = sio::generate_integers(DATA_N, seed);
    let mut cl = cluster(ranks, plan);
    let opts = RunOptions {
        tuning: tuning(gpu_direct),
        ..RunOptions::default()
    };
    let chunks = sio_chunks(&data, 2 * 1024);
    let result = run(
        &mut cl,
        &SioJob::default(),
        chunks,
        opts.with_journal(Some(journal)),
    )?;
    Ok((result.outputs, result.timings))
}

/// Everything an uninterrupted journaled run leaves behind.
struct Reference {
    outputs: Vec<KvSet<u32, u32>>,
    timings: JobTimings,
    bytes: Vec<u8>,
    /// Byte offset of each record boundary, `[0, .., bytes.len()]`.
    offsets: Vec<u64>,
}

fn record_reference(
    path: &PathBuf,
    ranks: u32,
    gpu_direct: bool,
    plan: &Option<FaultPlan>,
    every: u32,
) -> Reference {
    let mut journal = Journal::create(path, every).expect("create journal");
    let (outputs, timings) =
        run_journaled(ranks, gpu_direct, plan, DATA_SEED, &mut journal).expect("reference run");
    drop(journal);
    let bytes = std::fs::read(path).unwrap();
    let (records, offsets) = scan_bytes(&bytes);
    assert!(
        matches!(records.first(), Some(JournalRecord::JobStart { .. })),
        "journal must open with JobStart"
    );
    assert!(
        matches!(records.last(), Some(JournalRecord::JobEnd { .. })),
        "journal must close with JobEnd"
    );
    assert_eq!(
        *offsets.last().unwrap() as usize,
        bytes.len(),
        "reference journal has no torn tail"
    );
    Reference {
        outputs,
        timings,
        bytes,
        offsets,
    }
}

/// Crash the reference journal at byte `cut`, resume, and assert the
/// finished job is bit-identical to the uninterrupted run — outputs,
/// timings, and the re-grown journal bytes.
fn crash_and_resume(
    path: &PathBuf,
    reference: &Reference,
    cut: usize,
    ranks: u32,
    gd: bool,
    plan: &Option<FaultPlan>,
) {
    std::fs::write(path, &reference.bytes[..cut]).unwrap();
    let mut journal = Journal::resume(path, 1).expect("resume after crash");
    let (outputs, timings) =
        run_journaled(ranks, gd, plan, DATA_SEED, &mut journal).expect("resumed run completes");
    let replayed = journal.replayed();
    drop(journal);
    assert_eq!(
        outputs, reference.outputs,
        "outputs diverged resuming from byte {cut}"
    );
    assert_eq!(
        timings, reference.timings,
        "timings diverged resuming from byte {cut}"
    );
    assert_eq!(
        std::fs::read(path).unwrap(),
        reference.bytes,
        "re-grown journal differs after a crash at byte {cut}"
    );
    assert!(
        (replayed as usize) < reference.offsets.len(),
        "replayed more records than the journal holds"
    );
}

#[test]
fn resume_from_every_record_boundary_is_bit_identical() {
    // Canonical config: 2 ranks, host-staged transfers, a mid-job kill so
    // the journal carries the full record vocabulary (loss, requeue,
    // steal, dispatch, commit, bins).
    let path = tmp("every_boundary");
    let plan = Some(FaultPlan::new().kill(1, 5e-4));
    let reference = record_reference(&path, 2, false, &plan, 1);
    assert!(
        reference.timings.gpus_lost == 1,
        "the kill must land mid-job for this matrix to mean anything"
    );
    for (i, &off) in reference.offsets.iter().enumerate() {
        std::fs::write(&path, &reference.bytes[..off as usize]).unwrap();
        let mut journal = Journal::resume(&path, 1).expect("resume");
        let (outputs, timings) = run_journaled(2, false, &plan, DATA_SEED, &mut journal)
            .unwrap_or_else(|e| panic!("resume from record boundary {i} failed: {e}"));
        assert_eq!(
            journal.replayed(),
            i as u64,
            "replay length at boundary {i}"
        );
        assert_eq!(journal.torn_bytes(), 0, "boundary cut has no torn bytes");
        drop(journal);
        assert_eq!(
            outputs, reference.outputs,
            "outputs diverged at boundary {i}"
        );
        assert_eq!(
            timings, reference.timings,
            "timings diverged at boundary {i}"
        );
        assert_eq!(
            std::fs::read(&path).unwrap(),
            reference.bytes,
            "journal bytes diverged at boundary {i}"
        );
    }
}

#[test]
fn crash_point_matrix_across_ranks_and_transfer_modes() {
    // {1, 2, 8} ranks x {host-staged, GPU-direct} x {fault-free, killed}.
    // Boundaries are sampled (ends, thirds, halves) — the exhaustive walk
    // lives in `resume_from_every_record_boundary_is_bit_identical`.
    for ranks in [1u32, 2, 8] {
        for gd in [false, true] {
            let plans: Vec<Option<FaultPlan>> = if ranks >= 2 {
                vec![None, Some(FaultPlan::new().kill(1, 3e-4))]
            } else {
                vec![None]
            };
            for (pi, plan) in plans.iter().enumerate() {
                let path = tmp(&format!("matrix_r{ranks}_gd{gd}_p{pi}"));
                let reference = record_reference(&path, ranks, gd, plan, 1);
                let n = reference.offsets.len();
                let picks = [0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1];
                for &i in picks.iter().filter(|&&i| i < n) {
                    crash_and_resume(
                        &path,
                        &reference,
                        reference.offsets[i] as usize,
                        ranks,
                        gd,
                        plan,
                    );
                }
            }
        }
    }
}

#[test]
fn elastic_add_plans_resume_bit_identically() {
    // A journaled job on a 3-GPU cluster where the third GPU joins
    // mid-run: the GpuAdded and Steal records replay like any others.
    let path = tmp("elastic_resume");
    let plan = Some(FaultPlan::new().add(2, 2e-4));
    let reference = record_reference(&path, 3, false, &plan, 1);
    assert_eq!(reference.timings.gpus_added, 1, "the add must land");
    let n = reference.offsets.len();
    for &i in &[1, n / 2, n - 2] {
        crash_and_resume(
            &path,
            &reference,
            reference.offsets[i] as usize,
            3,
            false,
            &plan,
        );
    }
}

#[test]
fn buffered_checkpoints_lose_only_unflushed_records() {
    // checkpoint-every 8 buffers non-barrier records: a crash loses at
    // most the buffered tail, and resume still converges to the same
    // final journal (the reference, written with the same cadence).
    let path = tmp("buffered");
    let reference = record_reference(&path, 2, false, &None, 8);
    let every1 = {
        let path1 = tmp("buffered_every1");
        record_reference(&path1, 2, false, &None, 1)
    };
    // Flush cadence never changes the records, outputs, or timings —
    // only when they hit the disk.
    assert_eq!(reference.bytes, every1.bytes);
    assert_eq!(reference.outputs, every1.outputs);
    assert_eq!(reference.timings, every1.timings);
    let n = reference.offsets.len();
    for &i in &[n / 4, n / 2, n - 2] {
        std::fs::write(&path, &reference.bytes[..reference.offsets[i] as usize]).unwrap();
        let mut journal = Journal::resume(&path, 8).expect("resume");
        let (outputs, timings) =
            run_journaled(2, false, &None, DATA_SEED, &mut journal).expect("resumed run");
        drop(journal);
        assert_eq!(outputs, reference.outputs);
        assert_eq!(timings, reference.timings);
        assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
    }
}

#[test]
fn resuming_someone_elses_journal_diverges_with_a_typed_error() {
    let path = tmp("diverge");
    let plan = None;
    let reference = record_reference(&path, 2, false, &plan, 1);
    assert!(!reference.bytes.is_empty());

    // Same journal, different cluster shape: the JobStart fingerprint
    // catches it on record 0.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_journaled(4, false, &plan, DATA_SEED, &mut journal)
        .expect_err("a 4-rank resume of a 2-rank journal must diverge");
    assert!(
        matches!(
            err,
            EngineError::Journal(JournalError::Diverged { index: 0, .. })
        ),
        "{err}"
    );

    // Same shape, different input data: ditto.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_journaled(2, false, &plan, DATA_SEED + 1, &mut journal)
        .expect_err("a resume over different data must diverge");
    assert!(
        matches!(
            err,
            EngineError::Journal(JournalError::Diverged { index: 0, .. })
        ),
        "{err}"
    );

    // GPU-direct reshapes the schedule: fingerprint divergence again.
    let mut journal = Journal::resume(&path, 1).unwrap();
    let err = run_journaled(2, true, &plan, DATA_SEED, &mut journal)
        .expect_err("a resume under a different transfer mode must diverge");
    assert!(
        matches!(err, EngineError::Journal(JournalError::Diverged { .. })),
        "{err}"
    );
}

#[test]
fn corrupt_byte_mid_journal_self_heals_by_truncating_there() {
    // A flipped byte fails the frame checksum: everything from that frame
    // on is a torn tail. Resume replays the intact prefix and re-appends
    // the rest, converging on the reference bytes.
    let path = tmp("tamper");
    let reference = record_reference(&path, 2, false, &None, 1);
    let mut tampered = reference.bytes.clone();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x5a;
    std::fs::write(&path, &tampered).unwrap();

    let mut journal = Journal::resume(&path, 1).expect("tampered journal still resumes");
    let (outputs, timings) =
        run_journaled(2, false, &None, DATA_SEED, &mut journal).expect("resumed run");
    let replayed = journal.replayed();
    drop(journal);
    assert!(
        (replayed as usize) < reference.offsets.len() - 1,
        "corruption must shorten the replay prefix"
    );
    assert_eq!(outputs, reference.outputs);
    assert_eq!(timings, reference.timings);
    assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
}

#[test]
fn resume_on_an_empty_journal_is_a_fresh_run() {
    let path = tmp("empty");
    let reference = record_reference(&path, 2, false, &None, 1);
    std::fs::write(&path, b"").unwrap();
    let mut journal = Journal::resume(&path, 1).expect("empty journal resumes");
    let (outputs, timings) =
        run_journaled(2, false, &None, DATA_SEED, &mut journal).expect("fresh run");
    assert_eq!(journal.replayed(), 0);
    drop(journal);
    assert_eq!(outputs, reference.outputs);
    assert_eq!(timings, reference.timings);
    assert_eq!(std::fs::read(&path).unwrap(), reference.bytes);
}

/// Shared reference for the proptest below (recording it once keeps the
/// 32 cases cheap). The fault plan exercises loss/requeue records too.
fn torn_reference() -> &'static (PathBuf, Reference) {
    static REF: OnceLock<(PathBuf, Reference)> = OnceLock::new();
    REF.get_or_init(|| {
        let path = tmp("torn_prop_ref");
        let plan = Some(FaultPlan::new().kill(1, 5e-4));
        let reference = record_reference(&path, 2, false, &plan, 1);
        (path, reference)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncating the journal at ANY byte offset — record boundaries and
    /// torn mid-record writes alike — must resume to a bit-identical job.
    #[test]
    fn torn_writes_at_any_byte_offset_self_heal(cut_sel in any::<u64>()) {
        let (_, reference) = torn_reference();
        let plan = Some(FaultPlan::new().kill(1, 5e-4));
        let cut = (cut_sel % reference.bytes.len() as u64) as usize;
        // Each case gets its own file: proptest cases share the process.
        let path = tmp(&format!("torn_prop_{cut}"));
        std::fs::write(&path, &reference.bytes[..cut]).unwrap();

        let mut journal = Journal::resume(&path, 1).expect("torn journal resumes");
        let at_boundary = reference.offsets.iter().any(|&o| o as usize == cut);
        prop_assert_eq!(
            journal.torn_bytes() > 0,
            !at_boundary,
            "torn byte accounting wrong for cut {}", cut
        );
        let (outputs, timings) =
            run_journaled(2, false, &plan, DATA_SEED, &mut journal).expect("resumed run");
        drop(journal);
        prop_assert_eq!(&outputs, &reference.outputs, "outputs diverged at cut {}", cut);
        prop_assert_eq!(&timings, &reference.timings, "timings diverged at cut {}", cut);
        prop_assert_eq!(
            &std::fs::read(&path).unwrap(),
            &reference.bytes,
            "journal bytes diverged at cut {}", cut
        );
        std::fs::remove_file(&path).ok();
    }
}
