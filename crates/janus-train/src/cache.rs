//! The commutativity cache: what training produces and production
//! queries (Figure 6).
//!
//! One structure serves training, production and online learning:
//!
//! * entries live in a two-level index, `HashMap<ClassId, _>` keyed by
//!   class and then split by cell shape, so a lookup is one hash probe
//!   that borrows the caller's `ClassId` (**no key clone**);
//! * hit/miss totals are plain atomic counters;
//! * the §7.1 *unique*-signature set is an open-addressed table of
//!   `AtomicU64` slots claimed by compare-and-swap — readers and writers
//!   never block, and the table is bounded (1 MiB) regardless of run
//!   length.
//!
//! Combined with the compact-NFA matcher and inline abstraction buffers,
//! a query performs **zero heap allocations** for transactions touching
//! ≤ [`INLINE_OPS`] operations per cell (the common case by a wide
//! margin), and acquires no mutex ever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use janus_detect::{Relaxation, SequenceOracle};
use janus_log::{splitmix64, CellKey, ClassId, Op};
use janus_relational::Value;

use crate::abstraction::{abstract_kind, AbstractOp, Nfa, Pattern};
use crate::condition::{evaluate_condition, Condition};

/// Abstract operations buffered on the stack per query side; longer
/// sequences spill to a heap vector.
pub const INLINE_OPS: usize = 32;

/// Number of `AtomicU64` slots in the unique-signature table. Power of
/// two; at 2× [`CacheStats::UNIQUE_SIG_CAP`] the load factor stays
/// ≤ 0.5, keeping linear probes short.
const SIG_SLOTS: usize = 1 << 17;

/// Probes attempted before a signature is counted as overflow instead of
/// inserted. Bounds worst-case work under adversarial clustering.
const MAX_PROBES: usize = 64;

/// Stand-in for the (astronomically unlikely) signature value 0, which
/// the table reserves as the empty-slot marker.
const ZERO_SIG_ALIAS: u64 = 0x9e37_79b9_7f4a_7c15;

/// The granularity of a cached cell: whole-object or per-key. The key
/// value itself is abstracted away — conditions are key-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellShape {
    /// A scalar location or whole relational object.
    Whole,
    /// One key of a relational object.
    Keyed,
}

impl CellShape {
    /// The shape of a concrete cell.
    pub fn of(cell: &CellKey) -> CellShape {
        match cell {
            CellKey::Whole => CellShape::Whole,
            CellKey::Key(_) => CellShape::Keyed,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    pat_a: Pattern,
    pat_b: Pattern,
    /// Precompiled matchers: queries run the NFA directly, so per-query
    /// matching is linear with no compilation cost.
    nfa_a: Nfa,
    nfa_b: Nfa,
    condition: Condition,
}

/// Statistics of cache usage, recorded without any mutex. Following
/// §7.1, *unique* queries are counted: multiple hits/misses for the same
/// abstract query signature count once. Signatures are 64-bit hashes of
/// the abstract query, held in a fixed open-addressed table of
/// [`AtomicU64`] slots; a slot is claimed exactly once by
/// compare-and-swap, and the thread that wins the claim attributes the
/// signature's first outcome. Signatures that arrive after
/// [`UNIQUE_SIG_CAP`](CacheStats::UNIQUE_SIG_CAP) distinct entries (or
/// whose probe window is full) are counted in
/// [`unique_overflow`](CacheStats::unique_overflow); the Figure 11
/// unique-miss-rate is exact whenever that counter is zero.
#[derive(Debug)]
pub struct CacheStats {
    /// Total per-cell queries answered from the cache.
    pub hits: AtomicU64,
    /// Total per-cell queries that missed.
    pub misses: AtomicU64,
    slots: Box<[AtomicU64]>,
    occupied: AtomicU64,
    unique_hits: AtomicU64,
    unique_misses: AtomicU64,
    unique_overflow: AtomicU64,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slots: (0..SIG_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            occupied: AtomicU64::new(0),
            unique_hits: AtomicU64::new(0),
            unique_misses: AtomicU64::new(0),
            unique_overflow: AtomicU64::new(0),
        }
    }
}

impl CacheStats {
    /// Maximum number of distinct query signatures tracked for the
    /// unique-miss-rate metric.
    pub const UNIQUE_SIG_CAP: usize = 1 << 16;

    /// Unique query signatures that hit, and that missed.
    pub fn unique_counts(&self) -> (u64, u64) {
        (
            self.unique_hits.load(Ordering::Relaxed),
            self.unique_misses.load(Ordering::Relaxed),
        )
    }

    /// Signatures not tracked because the unique set was full (or the
    /// bounded probe window was exhausted).
    pub fn unique_overflow(&self) -> u64 {
        self.unique_overflow.load(Ordering::Relaxed)
    }

    /// The unique-query miss rate in percent (the Figure 11 metric), or
    /// `None` if no queries were recorded.
    pub fn miss_rate_percent(&self) -> Option<f64> {
        let (h, m) = self.unique_counts();
        let total = h + m;
        (total > 0).then(|| 100.0 * m as f64 / total as f64)
    }

    /// Resets all statistics. Not linearizable against concurrent
    /// `record` calls — call between measurement phases.
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.occupied.store(0, Ordering::Relaxed);
        self.unique_hits.store(0, Ordering::Relaxed);
        self.unique_misses.store(0, Ordering::Relaxed);
        self.unique_overflow.store(0, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    fn record(&self, sig: u64, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let sig = if sig == 0 { ZERO_SIG_ALIAS } else { sig };
        let mask = SIG_SLOTS - 1;
        let mut idx = splitmix64(sig) as usize & mask;
        for _ in 0..MAX_PROBES {
            let slot = &self.slots[idx];
            match slot.load(Ordering::Relaxed) {
                0 => {
                    // Reserve capacity before claiming the slot so the
                    // distinct-signature count never exceeds the cap.
                    if self.occupied.fetch_add(1, Ordering::Relaxed)
                        >= CacheStats::UNIQUE_SIG_CAP as u64
                    {
                        self.occupied.fetch_sub(1, Ordering::Relaxed);
                        self.unique_overflow.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    match slot.compare_exchange(0, sig, Ordering::Relaxed, Ordering::Relaxed) {
                        Ok(_) => {
                            if hit {
                                self.unique_hits.fetch_add(1, Ordering::Relaxed);
                            } else {
                                self.unique_misses.fetch_add(1, Ordering::Relaxed);
                            }
                            return;
                        }
                        Err(existing) => {
                            // Lost the race: return the reservation and
                            // re-examine what the winner wrote.
                            self.occupied.fetch_sub(1, Ordering::Relaxed);
                            if existing == sig {
                                return;
                            }
                        }
                    }
                }
                s if s == sig => return,
                _ => {}
            }
            idx = (idx + 1) & mask;
        }
        self.unique_overflow.fetch_add(1, Ordering::Relaxed);
    }
}

impl janus_obs::Snapshot for CacheStats {
    fn source(&self) -> &'static str {
        "cache"
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let (unique_hits, unique_misses) = self.unique_counts();
        vec![
            ("hits".to_string(), self.hits.load(Ordering::Relaxed)),
            ("misses".to_string(), self.misses.load(Ordering::Relaxed)),
            ("unique_hits".to_string(), unique_hits),
            ("unique_misses".to_string(), unique_misses),
            ("unique_overflow".to_string(), self.unique_overflow()),
        ]
    }
}

/// Summary of a training session.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TrainReport {
    /// Candidate pairs mined from the dependence graphs.
    pub pairs_mined: u64,
    /// Distinct cache entries added.
    pub entries_added: u64,
    /// Pairs rejected because the condition evaluation disagreed with the
    /// exact online check on the training observation.
    pub pairs_rejected: u64,
    /// Relational pairs submitted to the SAT-backed symbolic verifier.
    pub symbolic_attempted: u64,
    /// Relational pairs proven universally commutative by the verifier.
    pub symbolic_proved: u64,
}

/// Per-class entry lists, split by cell shape so a query indexes its
/// shape without composing a hashed key. Entries keep insertion order.
#[derive(Debug, Default)]
struct Bucket {
    whole: Vec<Entry>,
    keyed: Vec<Entry>,
}

impl Bucket {
    fn of(&self, shape: CellShape) -> &[Entry] {
        match shape {
            CellShape::Whole => &self.whole,
            CellShape::Keyed => &self.keyed,
        }
    }
}

/// The commutativity cache built by [`crate::train`] (or read back with
/// [`CommutativityCache::from_text`]) and queried — as a
/// [`SequenceOracle`] — by `janus_detect::CachedSequenceDetector`,
/// typically shared across worker threads behind an `Arc`.
#[derive(Debug, Default)]
pub struct CommutativityCache {
    buckets: HashMap<ClassId, Bucket>,
    use_abstraction: bool,
    entries: usize,
    stats: CacheStats,
}

impl CommutativityCache {
    /// An empty cache. `use_abstraction` controls whether production
    /// queries are matched against Kleene-cross patterns (it must match
    /// the setting used during training).
    pub fn new(use_abstraction: bool) -> Self {
        CommutativityCache {
            use_abstraction,
            ..CommutativityCache::default()
        }
    }

    /// Whether sequence abstraction is in force.
    pub fn uses_abstraction(&self) -> bool {
        self.use_abstraction
    }

    /// Adds an entry for a class/shape bucket.
    pub fn insert(
        &mut self,
        class: ClassId,
        shape: CellShape,
        pat_a: Pattern,
        pat_b: Pattern,
        condition: Condition,
    ) {
        let (pat_a, pat_b) = if pat_a <= pat_b {
            (pat_a, pat_b)
        } else {
            (pat_b, pat_a)
        };
        let (nfa_a, nfa_b) = (Nfa::compile(&pat_a), Nfa::compile(&pat_b));
        let bucket = self.buckets.entry(class).or_default();
        let list = match shape {
            CellShape::Whole => &mut bucket.whole,
            CellShape::Keyed => &mut bucket.keyed,
        };
        list.push(Entry {
            pat_a,
            pat_b,
            nfa_a,
            nfa_b,
            condition,
        });
        self.entries += 1;
    }

    /// Marks the boundary between training and production: the same
    /// cache with its statistics zeroed, so production measurements do
    /// not count training-time queries.
    pub fn freeze(self) -> Self {
        self.stats.reset();
        self
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Cache usage statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Iterates over the cached entries (for serialization and
    /// diagnostics): classes in [`ClassId`] order, whole-cell entries
    /// before keyed ones, and insertion order within a bucket.
    pub fn entries_iter(
        &self,
    ) -> impl Iterator<Item = (&ClassId, CellShape, &Pattern, &Pattern, Condition)> {
        let mut classes: Vec<(&ClassId, &Bucket)> = self.buckets.iter().collect();
        classes.sort_unstable_by_key(|&(class, _)| class);
        classes.into_iter().flat_map(|(class, bucket)| {
            [CellShape::Whole, CellShape::Keyed]
                .into_iter()
                .flat_map(move |shape| {
                    bucket
                        .of(shape)
                        .iter()
                        .map(move |e| (class, shape, &e.pat_a, &e.pat_b, e.condition))
                })
        })
    }

    fn find(
        &self,
        class: &ClassId,
        shape: CellShape,
        qa: &[AbstractOp],
        qb: &[AbstractOp],
    ) -> Option<Condition> {
        let entries = self.buckets.get(class)?.of(shape);
        entries
            .iter()
            .find(|e| {
                (e.nfa_a.matches(qa) && e.nfa_b.matches(qb))
                    || (e.nfa_a.matches(qb) && e.nfa_b.matches(qa))
            })
            .map(|e| e.condition)
    }
}

/// Abstracts `ops` into `buf` when it fits, spilling to `heap` otherwise.
fn abstract_into<'a>(
    ops: &[&Op],
    buf: &'a mut [AbstractOp; INLINE_OPS],
    heap: &'a mut Vec<AbstractOp>,
) -> &'a [AbstractOp] {
    if ops.len() <= INLINE_OPS {
        for (slot, op) in buf.iter_mut().zip(ops) {
            *slot = abstract_kind(op);
        }
        &buf[..ops.len()]
    } else {
        heap.extend(ops.iter().map(|op| abstract_kind(op)));
        &heap[..]
    }
}

/// Feeds `Display` output straight into a hasher, so signatures keep the
/// rendered-string identity of the abstract query without building a
/// string per query.
struct HashWriter<H>(H);

impl<H: std::hash::Hasher> std::fmt::Write for HashWriter<H> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// The 64-bit signature of one abstract query: class, shape, and the two
/// rendered operation streams in symmetric (order-independent) order.
fn signature(class: &ClassId, shape: CellShape, qa: &[AbstractOp], qb: &[AbstractOp]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write;
    use std::hash::Hasher;

    let side = |ops: &[AbstractOp]| {
        let mut w = HashWriter(DefaultHasher::new());
        for op in ops {
            let _ = write!(w, "{op}#");
        }
        w.0.finish()
    };
    let (sa, sb) = (side(qa), side(qb));
    let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
    let mut w = HashWriter(DefaultHasher::new());
    let _ = write!(w, "{class}#{shape:?}#");
    w.0.write_u64(lo);
    w.0.write_u64(hi);
    w.0.finish()
}

impl SequenceOracle for CommutativityCache {
    fn query(
        &self,
        class: &ClassId,
        entry: Option<&Value>,
        cell: &CellKey,
        txn: &[&Op],
        committed: &[&Op],
        relax: Relaxation,
    ) -> Option<bool> {
        let (mut buf_a, mut heap_a) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
        let (mut buf_b, mut heap_b) = ([AbstractOp::Read; INLINE_OPS], Vec::new());
        let qa = abstract_into(txn, &mut buf_a, &mut heap_a);
        let qb = abstract_into(committed, &mut buf_b, &mut heap_b);
        let shape = CellShape::of(cell);
        let sig = signature(class, shape, qa, qb);
        let condition = self.find(class, shape, qa, qb);
        let answer =
            condition.and_then(|c| evaluate_condition(c, entry, cell, txn, committed, relax));
        self.stats.record(sig, answer.is_some());
        answer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::Element;
    use janus_log::{LocId, OpKind, ScalarOp};

    fn mk_ops(kinds: Vec<OpKind>, class: &str) -> Vec<Op> {
        let mut v = Value::int(0);
        kinds
            .into_iter()
            .map(|k| Op::execute(LocId(0), ClassId::new(class), k, &mut v).0)
            .collect()
    }

    fn add_pattern_plus() -> Pattern {
        Pattern(vec![Element::Plus(vec![
            Element::Atom(AbstractOp::Add),
            Element::Atom(AbstractOp::Add),
        ])])
    }

    fn trained() -> CommutativityCache {
        let mut cache = CommutativityCache::new(true);
        cache.insert(
            ClassId::new("work"),
            CellShape::Whole,
            add_pattern_plus(),
            add_pattern_plus(),
            Condition::CommutesAlways,
        );
        cache
    }

    fn query(cache: &CommutativityCache, class: &str, ops: &[Op]) -> Option<bool> {
        let refs: Vec<&Op> = ops.iter().collect();
        cache.query(
            &ClassId::new(class),
            None,
            &CellKey::Whole,
            &refs,
            &refs,
            Relaxation::strict(),
        )
    }

    fn balanced_adds(n: usize) -> Vec<Op> {
        mk_ops(
            (0..n)
                .map(|i| OpKind::Scalar(ScalarOp::Add(if i % 2 == 0 { 1 } else { -1 })))
                .collect(),
            "work",
        )
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let cache = trained();
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert!(cache.uses_abstraction());
        let a = balanced_adds(2);
        assert_eq!(query(&cache, "work", &a), Some(false));
        assert_eq!(cache.stats().unique_counts(), (1, 0));
        // The same abstract query again: totals grow, uniques do not.
        assert_eq!(query(&cache, "work", &a), Some(false));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 2);
        assert_eq!(cache.stats().unique_counts(), (1, 0));
        assert_eq!(cache.stats().miss_rate_percent(), Some(0.0));
    }

    #[test]
    fn wrong_class_misses() {
        let cache = trained();
        let a = mk_ops(
            vec![
                OpKind::Scalar(ScalarOp::Add(1)),
                OpKind::Scalar(ScalarOp::Add(-1)),
            ],
            "other",
        );
        assert_eq!(query(&cache, "other", &a), None);
        assert_eq!(cache.stats().unique_counts(), (0, 1));
        assert_eq!(cache.stats().miss_rate_percent(), Some(100.0));
    }

    #[test]
    fn unique_counting_deduplicates() {
        let cache = CommutativityCache::new(true);
        let a = mk_ops(vec![OpKind::Scalar(ScalarOp::Read)], "x");
        for _ in 0..5 {
            query(&cache, "x", &a);
        }
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 5);
        let (uh, um) = cache.stats().unique_counts();
        assert_eq!((uh, um), (0, 1), "five identical queries count once");
    }

    #[test]
    fn symmetric_matching() {
        let mut cache = CommutativityCache::new(true);
        // pat_a = read, pat_b = {aa}+ — inserted in one order, queried in
        // the other.
        cache.insert(
            ClassId::new("x"),
            CellShape::Whole,
            Pattern(vec![Element::Atom(AbstractOp::Read)]),
            add_pattern_plus(),
            Condition::InputDependent,
        );
        let reader = mk_ops(vec![OpKind::Scalar(ScalarOp::Read)], "x");
        let adder = mk_ops(
            vec![
                OpKind::Scalar(ScalarOp::Add(2)),
                OpKind::Scalar(ScalarOp::Add(-2)),
            ],
            "x",
        );
        let rr: Vec<&Op> = reader.iter().collect();
        let rad: Vec<&Op> = adder.iter().collect();
        let entry = Value::int(0);
        // (adder, reader) — reversed relative to insertion order.
        let ans = cache.query(
            &ClassId::new("x"),
            Some(&entry),
            &CellKey::Whole,
            &rad,
            &rr,
            Relaxation::strict(),
        );
        assert_eq!(ans, Some(false), "identity delta does not disturb the read");
    }

    #[test]
    fn oversized_sequences_spill_and_still_answer() {
        let cache = trained();
        let a = balanced_adds(INLINE_OPS + 6);
        assert!(
            query(&cache, "work", &a).is_some(),
            "spill path must reach the same entries"
        );
    }

    #[test]
    fn freeze_zeroes_statistics_and_keeps_entries() {
        let cache = trained();
        query(&cache, "work", &balanced_adds(2));
        query(&cache, "other", &balanced_adds(2));
        let frozen = cache.freeze();
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen.stats().hits.load(Ordering::Relaxed), 0);
        assert_eq!(frozen.stats().misses.load(Ordering::Relaxed), 0);
        assert_eq!(frozen.stats().unique_counts(), (0, 0));
        // Signatures seen before freezing count as new afterwards.
        assert_eq!(query(&frozen, "work", &balanced_adds(2)), Some(false));
        assert_eq!(frozen.stats().unique_counts(), (1, 0));
    }

    #[test]
    fn signature_table_caps_and_overflows() {
        let stats = CacheStats::default();
        let extra = 10u64;
        for sig in 1..=(CacheStats::UNIQUE_SIG_CAP as u64 + extra) {
            stats.record(sig, false);
        }
        let (uh, um) = stats.unique_counts();
        assert_eq!((uh, um), (0, CacheStats::UNIQUE_SIG_CAP as u64));
        assert_eq!(stats.unique_overflow(), extra);
        // Re-recording a tracked signature is not overflow.
        stats.record(1, true);
        assert_eq!(stats.unique_overflow(), extra);
        assert_eq!(
            stats.unique_counts(),
            (0, CacheStats::UNIQUE_SIG_CAP as u64),
            "first outcome decides a signature's class"
        );
        stats.reset();
        assert_eq!(stats.unique_counts(), (0, 0));
        assert_eq!(stats.unique_overflow(), 0);
        // The table is reusable after reset.
        stats.record(7, true);
        assert_eq!(stats.unique_counts(), (1, 0));
    }

    #[test]
    fn zero_signature_is_remapped() {
        let stats = CacheStats::default();
        stats.record(0, true);
        stats.record(0, true);
        assert_eq!(stats.unique_counts(), (1, 0));
        assert_eq!(stats.hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_recording_loses_no_totals() {
        use std::sync::Arc;
        let stats = Arc::new(CacheStats::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        // Half the signatures are shared across threads,
                        // half are thread-private.
                        let sig = if i % 2 == 0 { i } else { t * 1_000_000 + i };
                        stats.record(sig, i % 3 == 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = stats.hits.load(Ordering::Relaxed) + stats.misses.load(Ordering::Relaxed);
        assert_eq!(total, 4000);
        let (uh, um) = stats.unique_counts();
        // 500 shared + 4×500 private distinct signatures (sig 0 is
        // even, so its alias is one of the shared ones).
        assert_eq!(uh + um, 500 + 4 * 500);
        assert_eq!(stats.unique_overflow(), 0);
    }

    #[test]
    fn signature_is_symmetric() {
        let a = vec![AbstractOp::Add, AbstractOp::Read];
        let b = vec![AbstractOp::Add];
        let class = ClassId::new("x");
        assert_eq!(
            signature(&class, CellShape::Whole, &a, &b),
            signature(&class, CellShape::Whole, &b, &a)
        );
        assert_ne!(
            signature(&class, CellShape::Whole, &a, &b),
            signature(&class, CellShape::Keyed, &a, &b)
        );
    }

    #[test]
    fn stats_reset() {
        let cache = CommutativityCache::new(true);
        let a = mk_ops(vec![OpKind::Scalar(ScalarOp::Read)], "x");
        query(&cache, "x", &a);
        cache.stats().reset();
        assert_eq!(cache.stats().unique_counts(), (0, 0));
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 0);
    }
}
