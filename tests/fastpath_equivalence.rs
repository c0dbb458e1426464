//! Fingerprint-prefilter equivalence.
//!
//! The footprint-fingerprint fast path must be *semantically invisible*:
//! skipping a history segment whose fingerprint is disjoint from the
//! transaction's may never change a verdict, for any detector, any
//! random segmentation of the committed history, and any clock-advance
//! interleaving — including footprints wide enough to force Bloom-bit
//! collisions (false "may intersect" answers are allowed to cost a scan,
//! never a wrong answer). Beyond verdicts, the per-cell work must be
//! bit-identical: a sound prefilter only dismisses segments that index
//! no transaction-touched location, so `ops_scanned` with the filter on
//! equals `ops_scanned` with it off.

use std::sync::Arc;

use janus::detect::{
    CachedSequenceDetector, ConflictDetector, MapState, SequenceDetector, WriteSetDetector,
};
use janus::log::{ClassId, CommittedLog, HistoryWindow, LocId, Op, OpKind, ScalarOp};
use janus::relational::{Scalar, Value};
use janus::train::{train, TrainConfig, TrainingRun};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum K {
    Read,
    Add(i64),
    Write(i64),
    Max(i64),
}

fn kind(k: K) -> OpKind {
    match k {
        K::Read => OpKind::Scalar(ScalarOp::Read),
        K::Add(d) => OpKind::Scalar(ScalarOp::Add(d)),
        K::Write(v) => OpKind::Scalar(ScalarOp::Write(Scalar::Int(v))),
        K::Max(v) => OpKind::Scalar(ScalarOp::Max(v)),
    }
}

/// How many distinct locations the generators draw from. Wide enough
/// that multi-segment histories regularly touch locations that hash onto
/// colliding Bloom bits, narrow enough that genuine overlaps also occur.
const LOC_SPACE: u64 = 40;

fn access_strategy() -> impl Strategy<Value = (u64, K)> {
    (
        0u64..LOC_SPACE,
        prop_oneof![
            Just(K::Read),
            (-2i64..3).prop_map(K::Add),
            (0i64..3).prop_map(K::Write),
            (0i64..3).prop_map(K::Max),
        ],
    )
}

/// Executes accesses against an evolving state, producing a log with
/// real footprints. Locations share classes in groups of four, so the
/// class filter sees both overlap and disjointness.
fn mk_log(accesses: &[(u64, K)], state: &mut MapState) -> Vec<Op> {
    accesses
        .iter()
        .map(|&(loc, k)| {
            let v = state
                .0
                .get_mut(&LocId(loc))
                .expect("all locations preallocated");
            Op::execute(
                LocId(loc),
                ClassId::new(format!("g{}", loc / 4)),
                kind(k),
                v,
            )
            .0
        })
        .collect()
}

fn initial_state() -> MapState {
    let mut s = MapState::default();
    for loc in 0..LOC_SPACE {
        s.0.insert(LocId(loc), Value::int(0));
    }
    s
}

fn mk_segments(committed: &[Vec<(u64, K)>], state: &mut MapState) -> Vec<Arc<CommittedLog>> {
    committed
        .iter()
        .map(|accesses| Arc::new(CommittedLog::new(mk_log(accesses, state))))
        .collect()
}

/// Runs one incremental validation (deltas grouped by `cuts`) and
/// returns (verdict, ops_scanned, segments_skipped, segments_scanned)
/// attributable to this session alone.
fn session_verdict(
    det: &dyn ConflictDetector,
    entry: &MapState,
    txn: &CommittedLog,
    segments: &[Arc<CommittedLog>],
    cuts: &[bool],
) -> (bool, u64, u64, u64) {
    let ops0 = det.stats().ops_scanned();
    let skip0 = det.stats().segments_skipped();
    let scan0 = det.stats().segments_scanned();
    let mut session = det.begin_validation(entry, txn);
    let mut verdict = false;
    let mut batch_start = 0;
    for i in 0..=segments.len() {
        let at_cut = i == segments.len() || (i > 0 && cuts.get(i).copied().unwrap_or(false));
        if at_cut {
            verdict = session.extend(&HistoryWindow::new(&segments[batch_start..i]));
            batch_start = i;
        }
    }
    (
        verdict,
        det.stats().ops_scanned() - ops0,
        det.stats().segments_skipped() - skip0,
        det.stats().segments_scanned() - scan0,
    )
}

fn trained_cached_detector(
    prefilter: bool,
) -> CachedSequenceDetector<janus::train::CommutativityCache> {
    let mut initial = initial_state();
    let mut mk = |accesses: &[(u64, K)]| mk_log(accesses, &mut initial);
    let task_logs = vec![
        mk(&[(0, K::Add(1)), (0, K::Add(-1))]),
        mk(&[(1, K::Write(2)), (1, K::Read)]),
        mk(&[(2, K::Max(1)), (2, K::Max(2))]),
        mk(&[(0, K::Read), (1, K::Add(1))]),
    ];
    let run = TrainingRun {
        initial: initial_state(),
        task_logs,
    };
    let (cache, _) = train(&[run], TrainConfig::default());
    CachedSequenceDetector::new(cache.freeze()).prefilter(prefilter)
}

/// Asserts filtered-vs-unfiltered equivalence for one detector pair and
/// returns the filtered run's (skipped, scanned) split.
fn assert_equivalent(
    label: &str,
    on: &dyn ConflictDetector,
    off: &dyn ConflictDetector,
    entry: &MapState,
    txn: &CommittedLog,
    segments: &[Arc<CommittedLog>],
    cuts: &[bool],
) -> (u64, u64) {
    let (v_on, ops_on, skip_on, scan_on) = session_verdict(on, entry, txn, segments, cuts);
    let (v_off, ops_off, skip_off, scan_off) = session_verdict(off, entry, txn, segments, cuts);
    prop_assert_eq!(v_on, v_off, "{}: prefilter changed the verdict", label);
    prop_assert_eq!(
        ops_on,
        ops_off,
        "{}: prefilter changed per-cell work (unsound skip)",
        label
    );
    prop_assert_eq!(skip_off, 0, "{}: disabled prefilter still skipped", label);
    // A conflicted session returns early from later extensions, so full
    // segment coverage is only guaranteed for conflict-free runs.
    if !v_off {
        prop_assert_eq!(
            scan_off,
            segments.len() as u64,
            "{}: unfiltered run must scan every segment",
            label
        );
        prop_assert_eq!(
            skip_on + scan_on,
            segments.len() as u64,
            "{}: every segment is either skipped or scanned",
            label
        );
    }
    (skip_on, scan_on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three detectors: the fingerprint-filtered session and the
    /// unfiltered session render bit-identical verdicts and identical
    /// per-cell work, for every random log, segmentation and
    /// clock-advance interleaving.
    #[test]
    fn prefilter_is_semantically_invisible(
        txn_accesses in proptest::collection::vec(access_strategy(), 0..8),
        committed in proptest::collection::vec(
            proptest::collection::vec(access_strategy(), 0..5),
            0..6,
        ),
        cuts in proptest::collection::vec(any::<bool>(), 0..7),
    ) {
        let entry = initial_state();
        let mut evolving = initial_state();
        let segments = mk_segments(&committed, &mut evolving);
        let txn = CommittedLog::new(mk_log(&txn_accesses, &mut initial_state()));

        assert_equivalent(
            "write-set",
            &WriteSetDetector::new(),
            &WriteSetDetector::new().prefilter(false),
            &entry, &txn, &segments, &cuts,
        );
        assert_equivalent(
            "sequence",
            &SequenceDetector::new(),
            &SequenceDetector::new().prefilter(false),
            &entry, &txn, &segments, &cuts,
        );
        assert_equivalent(
            "cached",
            &trained_cached_detector(true),
            &trained_cached_detector(false),
            &entry, &txn, &segments, &cuts,
        );
    }

    /// Adversarial collision pressure: transaction and history each touch
    /// many distinct locations, so the 128-bit filters operate near
    /// saturation where false "may intersect" answers are the norm. The
    /// equivalence must hold regardless; the only legal failure mode of
    /// a collision is a wasted scan.
    #[test]
    fn prefilter_survives_collision_pressure(
        seed in 0u64..1000,
        committed in proptest::collection::vec(
            proptest::collection::vec(access_strategy(), 1..4),
            1..5,
        ),
    ) {
        // A wide-footprint transaction: ~90 distinct locations drawn
        // from a seed-offset range, disjoint from the generated history
        // locations except where the hash collides.
        let mut state = MapState::default();
        let wide: Vec<(u64, K)> = (0..90u64)
            .map(|i| (1_000 + seed * 97 + i, K::Add(1)))
            .collect();
        for &(loc, _) in &wide {
            state.0.insert(LocId(loc), Value::int(0));
        }
        let txn = CommittedLog::new(mk_log(&wide, &mut state));

        let entry = initial_state();
        let mut evolving = initial_state();
        let segments = mk_segments(&committed, &mut evolving);

        let (skip_on, scan_on) = assert_equivalent(
            "write-set/wide",
            &WriteSetDetector::new(),
            &WriteSetDetector::new().prefilter(false),
            &entry, &txn, &segments, &[],
        );
        prop_assert!(skip_on + scan_on <= segments.len() as u64);
    }
}

/// A transaction whose footprint saturates both Bloom filters degrades
/// the fast path to scan-everything — it may never skip a segment, and
/// verdicts stay correct.
#[test]
fn saturated_fingerprint_degrades_to_scan_everything() {
    // ~700 distinct locations, each with its own class: with two bits
    // per member the 128-bit filters are saturated with overwhelming
    // margin (the hash is deterministic, so this either always passes
    // or never does).
    let mut state = MapState::default();
    for loc in 0..700u64 {
        state.0.insert(LocId(loc), Value::int(0));
    }
    let txn_ops: Vec<Op> = (0..700u64)
        .map(|loc| {
            let v = state.0.get_mut(&LocId(loc)).unwrap();
            Op::execute(
                LocId(loc),
                ClassId::new(format!("s{loc}")),
                kind(K::Add(1)),
                v,
            )
            .0
        })
        .collect();
    let txn = CommittedLog::new(txn_ops);
    assert!(
        txn.fingerprint().is_saturated(),
        "700 distinct members must saturate the 128-bit filters"
    );

    // Foreign segments on locations the transaction never touches.
    let mut foreign_state = MapState::default();
    for loc in 10_000..10_020u64 {
        foreign_state.0.insert(LocId(loc), Value::int(0));
    }
    let segments: Vec<Arc<CommittedLog>> = (10_000..10_020u64)
        .map(|loc| {
            let accesses = [(loc, K::Add(1)), (loc, K::Add(-1))];
            Arc::new(CommittedLog::new(mk_log(&accesses, &mut foreign_state)))
        })
        .collect();

    let entry = initial_state();
    let det = SequenceDetector::new();
    let mut session = det.begin_validation(&entry, &txn);
    let conflict = session.extend(&HistoryWindow::new(&segments));
    assert!(!conflict, "foreign segments cannot conflict");
    assert_eq!(
        det.stats().segments_skipped(),
        0,
        "a saturated fingerprint must never skip"
    );
    assert_eq!(det.stats().segments_scanned(), segments.len() as u64);

    // The empty-footprint transaction is the opposite pole: it can skip
    // everything, because an empty log conflicts with nothing.
    let empty_txn = CommittedLog::new(Vec::new());
    assert!(empty_txn.fingerprint().is_empty());
    let det = SequenceDetector::new();
    let mut session = det.begin_validation(&entry, &empty_txn);
    assert!(!session.extend(&HistoryWindow::new(&segments)));
    assert_eq!(det.stats().segments_skipped(), segments.len() as u64);
    assert_eq!(det.stats().segments_scanned(), 0);
}
