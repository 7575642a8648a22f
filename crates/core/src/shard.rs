//! Horizontal sharding: N [`OnlineTable`] shards behind one facade, with a
//! scheduler that grants merge threads *across* shards.
//!
//! The paper engineers a single table that absorbs writes while staying
//! read-optimized (Sections 3 and 9) and argues the merge should be granted
//! resources by a scheduler rather than take the machine (Section 6.2). At
//! production scale the natural next step is horizontal: partition rows
//! across independent tables so that (a) merges are per-shard and touch
//! `1/N`-th of the data, (b) writes to different shards never contend on a
//! table lock, and (c) scans fan out and stitch. Each shard keeps the exact
//! online-merge protocol of [`crate::manager`]; nothing about the paper's
//! merge changes — this layer only routes and coordinates.
//!
//! * [`ShardedTable`] — hash- or range-partitions rows by a key column;
//!   batched [`ShardedTable::insert_rows`], per-shard
//!   [`TableSnapshot`]s for lock-free scans (the fan-out operators live in
//!   `hyrise-query`).
//! * [`ShardedScheduler`] — the background merge scheduler (Section 3's
//!   strategy (b)): at most `max_concurrent` merges in flight, shards
//!   picked by highest delta fraction first, pause/resume globally. A
//!   1-shard table is the paper's single-table case.

use crate::error::Result;
use crate::governor::{GovernorConfig, GrantRecord, LoadView, ResourceGovernor};
use crate::manager::{MergePolicy, OnlineTable, TableSnapshot};
use crate::pipeline::{MergeGrant, SpareBank};
use crate::stats::{StageTimings, TableMergeStats};
use hyrise_storage::{MemoryReport, Value};
use parking_lot::Mutex;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The process-wide consistent-cut clock: a pair of monotonic write
/// counters (`started`, `finished`) that bracket every sharded write
/// operation, plus a `paused` flag for the fallback path.
///
/// A multi-shard write batch is *torn* when a fan-out read observes some
/// of its per-shard groups but not others. Each shard's own batch publish
/// is atomic (the tail watermark), so tearing can only happen *across*
/// shards — and the clock makes it detectable: a cut taken while
/// `started == finished` and over which `started` does not move cannot
/// overlap any write operation, hence sees every batch fully or not at
/// all. See [`ShardedTable::consistent_snapshots`].
///
/// Writers never block readers on the happy path: `begin_write` is one
/// `fetch_add` plus one load. Only the (rare) paused fallback makes a
/// writer wait, and a writer that raced the pause *retracts* its start —
/// it has not touched any shard yet — so the drain always terminates.
struct CutClock {
    started: AtomicU64,
    finished: AtomicU64,
    paused: AtomicBool,
}

static CUT_CLOCK: CutClock = CutClock {
    started: AtomicU64::new(0),
    finished: AtomicU64::new(0),
    paused: AtomicBool::new(false),
};

/// Serializes the paused fallback in [`ShardedTable::consistent_snapshots`]
/// so concurrent cutters cannot clear each other's pause.
static CUT_PAUSE: Mutex<()> = Mutex::new(());

impl CutClock {
    /// Enter a write operation; the returned guard marks it finished on
    /// drop. Increment-first, check-paused, retract-on-conflict: the
    /// increment is visible before the paused check in the `SeqCst` order,
    /// so a cutter that drained `started == finished` afterwards cannot
    /// have missed us.
    fn begin_write(&'static self) -> WriteTicket {
        loop {
            self.started.fetch_add(1, Ordering::SeqCst);
            if !self.paused.load(Ordering::SeqCst) {
                return WriteTicket { clock: self };
            }
            // A cut is draining writers: retract (we have not written
            // anything yet) and wait it out.
            self.finished.fetch_add(1, Ordering::SeqCst);
            while self.paused.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    }
}

/// RAII marker of an in-flight sharded write operation.
struct WriteTicket {
    clock: &'static CutClock,
}

impl Drop for WriteTicket {
    fn drop(&mut self) {
        self.clock.finished.fetch_add(1, Ordering::SeqCst);
    }
}

/// Global address of a row in a [`ShardedTable`]: which shard, and the
/// tuple id within that shard. Tuple ids are shard-local (each shard's
/// merge keeps its own ids stable), so the pair is the stable global key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShardRowId {
    /// Index of the shard holding the row.
    pub shard: usize,
    /// Tuple id within that shard.
    pub row: usize,
}

/// How rows are routed to shards (always on one key column's value).
#[derive(Clone, Debug)]
pub enum ShardBy<V> {
    /// Hash of the key value modulo the shard count — uniform spread, no
    /// ordering guarantees across shards.
    Hash,
    /// Range partitioning over `bounds` (sorted, ascending): shard `i`
    /// holds keys below `bounds[i]`; the last shard holds the rest. With
    /// `k` bounds there are `k + 1` shards. Range sharding keeps key
    /// locality, so range scans touch few shards.
    Range(Vec<V>),
}

/// Check a sharded layout: at least one column and one shard, a key
/// column in range and, for range partitioning, strictly ascending bounds
/// that imply exactly `n_shards` shards. The builder and recovery (whose
/// manifest comes from disk) both call this before
/// [`ShardedTable::from_parts`]; routing relies on every condition.
/// Returns the reason a layout is rejected.
pub(crate) fn check_layout<V: Value>(
    by: &ShardBy<V>,
    n_shards: usize,
    key_col: usize,
    n_cols: usize,
) -> std::result::Result<(), String> {
    if n_cols == 0 {
        return Err("a table needs at least one column".into());
    }
    if key_col >= n_cols {
        return Err(format!(
            "key column {key_col} out of range for {n_cols} columns"
        ));
    }
    if n_shards == 0 {
        return Err("a sharded table needs at least one shard".into());
    }
    if let ShardBy::Range(bounds) = by {
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("range bounds must be strictly ascending".into());
        }
        if bounds.len() + 1 != n_shards {
            return Err(format!(
                "{} range bounds imply {} shards, not {n_shards}",
                bounds.len(),
                bounds.len() + 1
            ));
        }
    }
    Ok(())
}

/// N [`OnlineTable`] shards behind one facade: rows are routed by a key
/// column, reads fan out, and every shard merges independently.
pub struct ShardedTable<V: Value> {
    shards: Vec<Arc<OnlineTable<V>>>,
    by: ShardBy<V>,
    key_col: usize,
}

impl<V: Value> ShardedTable<V> {
    /// The one construction surface: shard count or range bounds, key
    /// column, columns, durability — see
    /// [`crate::config::ShardedTableBuilder`].
    pub fn builder() -> crate::config::ShardedTableBuilder<V> {
        crate::config::ShardedTableBuilder::new()
    }

    /// Assemble a sharded table whose layout passed [`check_layout`]
    /// (builder/recovery back door).
    /// All shards already share one [`SpareBank`] when built by the
    /// builder, so a merge on any shard can reuse buffers retired by any
    /// other.
    pub(crate) fn from_parts(shards: Vec<OnlineTable<V>>, by: ShardBy<V>, key_col: usize) -> Self {
        Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            by,
            key_col,
        }
    }

    /// The spare-buffer bank shared by every shard.
    pub fn spare_bank(&self) -> &Arc<SpareBank<V>> {
        self.shards[0].spare_bank()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of columns (same for every shard).
    pub fn num_columns(&self) -> usize {
        self.shards[0].num_columns()
    }

    /// The routing key column.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// All shards (for fan-out drivers and schedulers).
    pub fn shards(&self) -> &[Arc<OnlineTable<V>>] {
        &self.shards
    }

    /// One shard.
    pub fn shard(&self, i: usize) -> &Arc<OnlineTable<V>> {
        &self.shards[i]
    }

    /// The shard a key value routes to.
    pub fn shard_of_key(&self, key: &V) -> usize {
        match &self.by {
            ShardBy::Hash => {
                // DefaultHasher with `new()` uses fixed keys, so routing is
                // deterministic across processes and runs.
                let mut h = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut h);
                (h.finish() % self.shards.len() as u64) as usize
            }
            ShardBy::Range(bounds) => bounds.partition_point(|b| key >= b),
        }
    }

    /// The shard a full row routes to (its key column's value).
    pub fn shard_of(&self, values: &[V]) -> usize {
        self.shard_of_key(&values[self.key_col])
    }

    /// Insert one row, routed by its key; returns its global address.
    /// Fails when the shard's WAL append fails.
    pub fn try_insert_row(&self, values: &[V]) -> Result<ShardRowId> {
        let _write = CUT_CLOCK.begin_write();
        let shard = self.shard_of(values);
        Ok(ShardRowId {
            shard,
            row: self.shards[shard].try_insert_row(values)?,
        })
    }

    /// Batched insert: rows are grouped by target shard and each group is
    /// appended as one lock-free reservation + publish
    /// ([`OnlineTable::insert_rows`]), so a large batch costs `O(shards)`
    /// watermark publishes instead of `O(rows)`. The whole operation runs
    /// under one `CutClock` ticket, so a
    /// [`Self::consistent_snapshots`] cut sees all of the batch's shard
    /// groups or none of them. Returns each row's global address, in
    /// input order.
    ///
    /// Durability is per shard: each shard group's WAL record is durable
    /// before that group becomes visible, and an error aborts the
    /// remaining groups. A crash (or error) part-way can therefore leave
    /// a multi-shard batch *torn across shards* on disk — already-logged
    /// groups replay, the rest don't. Cross-shard batch atomicity would
    /// need a two-phase commit across the per-shard logs, which this
    /// engine deliberately does not do; the `CutClock` consistency
    /// guarantee applies to in-memory reads, not to crash recovery.
    pub fn insert_rows<R: AsRef<[V]>>(&self, rows: &[R]) -> Result<Vec<ShardRowId>> {
        let _write = CUT_CLOCK.begin_write();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, r) in rows.iter().enumerate() {
            groups[self.shard_of(r.as_ref())].push(i);
        }
        let mut ids = vec![ShardRowId { shard: 0, row: 0 }; rows.len()];
        for (shard, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let batch: Vec<&[V]> = group.iter().map(|&i| rows[i].as_ref()).collect();
            let range = self.shards[shard].insert_rows(&batch)?;
            for (&i, row) in group.iter().zip(range) {
                ids[i] = ShardRowId { shard, row };
            }
        }
        Ok(ids)
    }

    /// Read one cell.
    pub fn get(&self, id: ShardRowId, col: usize) -> V {
        self.shards[id.shard].get(col, id.row)
    }

    /// Read a whole row.
    pub fn row(&self, id: ShardRowId) -> Vec<V> {
        self.shards[id.shard].row(id.row)
    }

    /// Is the row visible?
    pub fn is_valid(&self, id: ShardRowId) -> bool {
        self.shards[id.shard].is_valid(id.row)
    }

    /// Insert-only update: the new version is routed by its *new* key (it
    /// may land on a different shard than `old`), then the old row is
    /// invalidated. Returns the new version's address.
    pub fn try_update_row(&self, old: ShardRowId, values: &[V]) -> Result<ShardRowId> {
        // One ticket across both shards: a cut never sees the new version
        // without the old one's invalidation (or vice versa).
        let _write = CUT_CLOCK.begin_write();
        let shard = self.shard_of(values);
        let new_id = ShardRowId {
            shard,
            row: self.shards[shard].try_insert_row(values)?,
        };
        self.shards[old.shard].try_delete_row(old.row)?;
        Ok(new_id)
    }

    /// Invalidate a row: the validity flip is logged on the owning shard
    /// before the in-memory bit drops.
    pub fn try_delete_row(&self, id: ShardRowId) -> Result<()> {
        let _write = CUT_CLOCK.begin_write();
        self.shards[id.shard].try_delete_row(id.row)
    }

    /// Total rows across shards (valid + history).
    pub fn row_count(&self) -> usize {
        self.shards.iter().map(|s| s.row_count()).sum()
    }

    /// Visible rows across shards.
    pub fn valid_row_count(&self) -> usize {
        self.shards.iter().map(|s| s.valid_row_count()).sum()
    }

    /// Tuples awaiting a merge, across shards.
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta_len()).sum()
    }

    /// Tuples in main partitions, across shards.
    pub fn main_len(&self) -> usize {
        self.shards.iter().map(|s| s.main_len()).sum()
    }

    /// Every shard's merge-trigger ratio (finite; see
    /// [`OnlineTable::delta_fraction`]).
    pub fn delta_fractions(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.delta_fraction()).collect()
    }

    /// The worst shard's trigger ratio — what a global back-pressure check
    /// should look at.
    pub fn max_delta_fraction(&self) -> f64 {
        self.delta_fractions().into_iter().fold(0.0, f64::max)
    }

    /// Byte-level memory accounting summed over every shard — the
    /// governor's memory-pressure sample for the whole sharded table.
    pub fn memory_report(&self) -> MemoryReport {
        self.shards
            .iter()
            .map(|s| s.memory_report())
            .fold(MemoryReport::default(), |a, b| a + b)
    }

    /// A per-shard snapshot set for lock-free fan-out scans. Each snapshot
    /// is internally consistent (per-shard snapshot isolation), but the
    /// snapshots are taken in sequence, so a write operation spanning
    /// shards may be half-visible across them. Use
    /// [`Self::consistent_snapshots`] when the fan-out result must not
    /// observe torn multi-shard batches.
    pub fn snapshots(&self) -> Vec<TableSnapshot<V>> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// A **globally consistent cut**: a per-shard snapshot set that no
    /// multi-shard write operation straddles — every batched insert (and
    /// cross-shard update) is fully visible or fully invisible. This is
    /// what the sharded query executor fans out over, so cross-shard
    /// `count()` / `sum()` aggregates never observe a torn batch.
    ///
    /// Optimistic first: read the `CutClock`, require no write in
    /// flight, snapshot every shard (each snapshot is one epoch pin — no
    /// lock), and verify no write *started* meanwhile; retry on conflict.
    /// Under sustained write pressure the fallback briefly pauses writers
    /// (they retract and wait before touching any shard), drains the
    /// in-flight ones, and cuts — bounded work, no reader/writer lock
    /// anywhere.
    pub fn consistent_snapshots(&self) -> Vec<TableSnapshot<V>> {
        const OPTIMISTIC_TRIES: usize = 8;
        for _ in 0..OPTIMISTIC_TRIES {
            let finished = CUT_CLOCK.finished.load(Ordering::SeqCst);
            let started = CUT_CLOCK.started.load(Ordering::SeqCst);
            if started != finished {
                // A write is mid-flight; snapshotting now could tear it.
                std::thread::yield_now();
                continue;
            }
            let snaps = self.snapshots();
            if CUT_CLOCK.started.load(Ordering::SeqCst) == started {
                return snaps;
            }
        }
        // Contended: pause writers for the duration of one snapshot pass.
        // The lock only serializes concurrent *cutters* (so one cannot
        // clear another's pause); writers never take it.
        let _cut = CUT_PAUSE.lock();
        CUT_CLOCK.paused.store(true, Ordering::SeqCst);
        while CUT_CLOCK.started.load(Ordering::SeqCst) != CUT_CLOCK.finished.load(Ordering::SeqCst)
        {
            std::thread::yield_now();
        }
        let snaps = self.snapshots();
        CUT_CLOCK.paused.store(false, Ordering::SeqCst);
        snaps
    }

    /// Cumulative rows inserted per shard (monotonic counters). The
    /// sharded scheduler's governor differences these over its poll
    /// window to rank shards by sustained write rate.
    pub fn inserted_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.inserted_rows()).collect()
    }

    /// Merge every shard that has delta tuples, one after the other (the
    /// quiesce path; the scheduler is the concurrent path). Returns the
    /// per-shard stats of the merges that ran.
    pub fn merge_all(&self, threads: usize) -> Result<Vec<TableMergeStats>> {
        self.merge_all_with(MergeGrant::with_threads(threads))
    }

    /// As [`Self::merge_all`] with an explicit [`MergeGrant`] — strategy
    /// and [`crate::pipeline::MergeBudget`] apply per shard, so a budget of
    /// `K` columns caps every shard merge's peak extra memory. The first
    /// shard merge to fail aborts the sweep (each shard merge is
    /// individually atomic, so earlier shards stay merged and the failing
    /// shard rolled back).
    pub fn merge_all_with(&self, grant: MergeGrant) -> Result<Vec<TableMergeStats>> {
        self.shards
            .iter()
            .filter(|s| s.delta_len() > 0)
            .map(|s| s.merge_with(grant, None))
            .collect()
    }
}

/// What one completed background merge moved and cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Tuples moved from delta partitions into main partitions (per-column
    /// sum).
    pub tuples_moved: u64,
    /// Delta **rows** drained by the merge (`tuples_moved / N_C` — every
    /// column drains the same rows). This is the unit the governor's
    /// write-pressure window corrects with: delta lengths are row counts,
    /// so crediting the per-column sum back would overstate the insert
    /// rate by the column count.
    pub rows_moved: u64,
    /// Wall time of the merge.
    pub wall: Duration,
    /// Per-stage breakdown (summed over columns) — what the paper's
    /// Figure 7/8 stage-level plots are built from.
    pub stages: StageTimings,
}

/// One shard's cumulative merge accounting, with the per-stage breakdown
/// ([`crate::stats::ColumnMergeStats`] summed over columns and merges) that
/// the figure binaries need to reproduce the paper's stage-level plots
/// (Figures 7/8 stack Step 1 and Step 2 per configuration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardMergeStats {
    /// Merges completed on this shard.
    pub merges: u64,
    /// Microseconds in Stage 1a (delta dictionary + re-coding).
    pub step1a_micros: u64,
    /// Microseconds in Stage 1b (dictionary union + aux tables).
    pub step1b_micros: u64,
    /// Microseconds in Stage 2 (re-encode).
    pub step2_micros: u64,
}

impl ShardMergeStats {
    /// Total microseconds across all stages.
    pub fn total_micros(&self) -> u64 {
        self.step1a_micros + self.step1b_micros + self.step2_micros
    }
}

/// Cumulative [`ShardedScheduler`] statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardedSchedulerStats {
    /// Merges completed across all shards.
    pub merges: u64,
    /// Tuples moved from delta to main, across all shards and columns.
    pub tuples_merged: u64,
    /// Total milliseconds spent inside merges (sums across concurrent
    /// merges, so it can exceed wall time). Accumulated in microseconds,
    /// so sub-millisecond merges count too.
    pub merge_millis: u64,
    /// Per-shard merge counts with per-stage timing breakdown.
    pub per_shard: Vec<ShardMergeStats>,
    /// Bounded trace of the governor's recent grant decisions (strategy,
    /// threads, budget K, triggering signal), oldest first — one entry per
    /// poll round that selected at least one shard.
    pub grants: Vec<GrantRecord>,
}

/// Background merge scheduler over a [`ShardedTable`]: each poll round its
/// [`ResourceGovernor`] samples read/write/memory pressure, ranks the
/// eligible shards by `delta fraction × pressure` (worst first), grants at
/// most `max_concurrent` of them the round's adaptive [`MergeGrant`], and
/// runs those merges concurrently — the multi-table realization of the
/// paper's "scheduling algorithm \[that\] could constantly analyze the
/// available bandwidth and thus adjust the degree of parallelization"
/// (Section 9). The decision core is [`ResourceGovernor::plan`].
/// Pause/resume apply globally across all shards.
pub struct ShardedScheduler<V: Value> {
    table: Arc<ShardedTable<V>>,
    governor: Arc<ResourceGovernor>,
    max_concurrent: usize,
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    merges: Arc<AtomicU64>,
    tuples: Arc<AtomicU64>,
    micros: Arc<AtomicU64>,
    per_shard: Arc<Vec<ShardCells>>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Lock-free accumulation cells behind one [`ShardMergeStats`] entry.
#[derive(Default)]
struct ShardCells {
    merges: AtomicU64,
    step1a_micros: AtomicU64,
    step1b_micros: AtomicU64,
    step2_micros: AtomicU64,
}

impl ShardCells {
    fn record(&self, out: &MergeOutcome) {
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.step1a_micros
            .fetch_add(out.stages.step1a.as_micros() as u64, Ordering::Relaxed);
        self.step1b_micros
            .fetch_add(out.stages.step1b.as_micros() as u64, Ordering::Relaxed);
        self.step2_micros
            .fetch_add(out.stages.step2.as_micros() as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ShardMergeStats {
        ShardMergeStats {
            merges: self.merges.load(Ordering::Relaxed),
            step1a_micros: self.step1a_micros.load(Ordering::Relaxed),
            step1b_micros: self.step1b_micros.load(Ordering::Relaxed),
            step2_micros: self.step2_micros.load(Ordering::Relaxed),
        }
    }
}

impl<V: Value> ShardedScheduler<V> {
    /// Spawn the scheduler daemon: check triggers every `poll`, run at most
    /// `max_concurrent` shard merges at a time. The policy is wrapped in a
    /// default [`ResourceGovernor`] ([`GovernorConfig::from_policy`]), so
    /// at baseline each chosen shard gets `policy.threads` threads exactly
    /// as before; use [`Self::spawn_governed`] to tune the adaptive
    /// behavior.
    pub fn spawn(
        table: Arc<ShardedTable<V>>,
        policy: MergePolicy,
        max_concurrent: usize,
        poll: Duration,
    ) -> Self {
        Self::spawn_governed(
            table,
            ResourceGovernor::new(GovernorConfig::from_policy(policy)),
            max_concurrent,
            poll,
        )
    }

    /// Spawn the scheduler daemon with per-round grants from `governor`.
    pub fn spawn_governed(
        table: Arc<ShardedTable<V>>,
        governor: ResourceGovernor,
        max_concurrent: usize,
        poll: Duration,
    ) -> Self {
        let governor = Arc::new(governor);
        let max_concurrent = max_concurrent.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let merges = Arc::new(AtomicU64::new(0));
        let tuples = Arc::new(AtomicU64::new(0));
        let micros = Arc::new(AtomicU64::new(0));
        let per_shard: Arc<Vec<ShardCells>> = Arc::new(
            (0..table.num_shards())
                .map(|_| ShardCells::default())
                .collect(),
        );

        let handle = {
            let table = Arc::clone(&table);
            let governor = Arc::clone(&governor);
            let stop = Arc::clone(&stop);
            let paused = Arc::clone(&paused);
            let merges = Arc::clone(&merges);
            let tuples = Arc::clone(&tuples);
            let micros = Arc::clone(&micros);
            let per_shard = Arc::clone(&per_shard);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if !paused.load(Ordering::Relaxed) {
                        // One governor round: sample pressure, rank shards
                        // by delta fraction × pressure, emit the adaptive
                        // grant for the chosen few.
                        let plan = governor.plan(&LoadView::of_table(&table, max_concurrent));
                        if !plan.selected.is_empty() {
                            // Grant merge threads to the chosen shards; the
                            // scope is the at-most-K concurrency bound.
                            std::thread::scope(|s| {
                                for &i in &plan.selected {
                                    let shard = Arc::clone(table.shard(i));
                                    let grant = plan.grant;
                                    let (merges, tuples, micros, per_shard, governor) =
                                        (&merges, &tuples, &micros, &per_shard, &governor);
                                    s.spawn(move || {
                                        if let Some(out) = shard.run_merge(grant) {
                                            merges.fetch_add(1, Ordering::Relaxed);
                                            tuples.fetch_add(out.tuples_moved, Ordering::Relaxed);
                                            micros.fetch_add(
                                                out.wall.as_micros() as u64,
                                                Ordering::Relaxed,
                                            );
                                            per_shard[i].record(&out);
                                            governor.record_outcome(&out);
                                        }
                                    });
                                }
                            });
                        }
                    }
                    std::thread::sleep(poll);
                }
            })
        };
        Self {
            table,
            governor,
            max_concurrent,
            stop,
            paused,
            merges,
            tuples,
            micros,
            per_shard,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// The sharded table being managed.
    pub fn table(&self) -> &Arc<ShardedTable<V>> {
        &self.table
    }

    /// The governor granting this scheduler's merges.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.governor
    }

    /// The concurrency bound (merge slots per poll round).
    pub fn max_concurrent(&self) -> usize {
        self.max_concurrent
    }

    /// Pause scheduling globally: no shard starts a new merge until
    /// [`Self::resume`]; in-flight merges complete.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::Relaxed);
    }

    /// Resume scheduling after [`Self::pause`].
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Is the scheduler currently paused?
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Snapshot of cumulative statistics (including the governor's recent
    /// grant trace).
    pub fn stats(&self) -> ShardedSchedulerStats {
        ShardedSchedulerStats {
            merges: self.merges.load(Ordering::Relaxed),
            tuples_merged: self.tuples.load(Ordering::Relaxed),
            merge_millis: self.micros.load(Ordering::Relaxed) / 1_000,
            per_shard: self.per_shard.iter().map(|c| c.snapshot()).collect(),
            grants: self.governor.recent_grants(),
        }
    }

    /// Stop the daemon and wait for it (and any in-flight merges) to
    /// finish. Called automatically on drop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }
}

impl<V: Value> Drop for ShardedScheduler<V> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: u64, cols: usize) -> Vec<u64> {
        (0..cols as u64).map(|c| i * 10 + c).collect()
    }

    #[test]
    fn hash_routing_is_deterministic_and_covers_shards() {
        let t = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(2)
            .build()
            .unwrap();
        let mut seen = [false; 4];
        for i in 0..1_000u64 {
            let a = t.shard_of(&row(i, 2));
            let b = t.shard_of(&row(i, 2));
            assert_eq!(a, b, "routing must be deterministic");
            seen[a] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 keys must hit all 4 shards");
    }

    #[test]
    fn range_routing_respects_bounds() {
        let t = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![100, 200]))
            .columns(1)
            .build()
            .unwrap();
        assert_eq!(t.num_shards(), 3);
        assert_eq!(t.shard_of_key(&0), 0);
        assert_eq!(t.shard_of_key(&99), 0);
        assert_eq!(t.shard_of_key(&100), 1, "bounds are inclusive lower ends");
        assert_eq!(t.shard_of_key(&199), 1);
        assert_eq!(t.shard_of_key(&200), 2);
        assert_eq!(t.shard_of_key(&u64::MAX), 2);
    }

    #[test]
    fn unsorted_range_bounds_rejected_by_builder() {
        let r = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![200, 100]))
            .columns(1)
            .build();
        assert!(matches!(r, Err(crate::Error::Config { .. })));
    }

    #[test]
    fn insert_read_roundtrip_across_shards() {
        let t = ShardedTable::<u64>::builder()
            .shards(3)
            .columns(2)
            .build()
            .unwrap();
        let ids: Vec<ShardRowId> = (0..300u64)
            .map(|i| t.try_insert_row(&row(i, 2)).unwrap())
            .collect();
        assert_eq!(t.row_count(), 300);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(t.row(*id), row(i as u64, 2), "row {i}");
            assert!(t.is_valid(*id));
        }
    }

    #[test]
    fn batched_insert_matches_single_inserts() {
        let a = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(3)
            .build()
            .unwrap();
        let b = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(3)
            .build()
            .unwrap();
        let rows: Vec<Vec<u64>> = (0..500u64).map(|i| row(i, 3)).collect();
        let batch_ids = a.insert_rows(&rows).unwrap();
        let single_ids: Vec<ShardRowId> =
            rows.iter().map(|r| b.try_insert_row(r).unwrap()).collect();
        assert_eq!(batch_ids, single_ids, "same routing, same local ids");
        for (r, id) in rows.iter().zip(&batch_ids) {
            assert_eq!(&a.row(*id), r);
        }
        assert_eq!(a.row_count(), 500);
        assert_eq!(a.valid_row_count(), 500);
    }

    #[test]
    fn update_may_move_rows_across_shards() {
        let t = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![1_000]))
            .columns(2)
            .key_col(0)
            .build()
            .unwrap();
        let old = t.try_insert_row(&[5, 50]).unwrap();
        assert_eq!(old.shard, 0);
        let new = t.try_update_row(old, &[2_000, 50]).unwrap();
        assert_eq!(new.shard, 1, "new key routes to the other shard");
        assert!(!t.is_valid(old), "old version invalidated");
        assert!(t.is_valid(new));
        assert_eq!(t.valid_row_count(), 1);
        assert_eq!(t.row_count(), 2, "insert-only model keeps history");
    }

    #[test]
    fn merges_are_per_shard_and_preserve_reads() {
        let t = ShardedTable::<u64>::builder()
            .shards(4)
            .columns(2)
            .build()
            .unwrap();
        let rows: Vec<Vec<u64>> = (0..2_000u64).map(|i| row(i, 2)).collect();
        let ids = t.insert_rows(&rows).unwrap();
        assert_eq!(t.main_len(), 0);
        let stats = t.merge_all(2).unwrap();
        assert_eq!(stats.len(), 4, "every shard had delta tuples");
        assert_eq!(t.main_len(), 2_000);
        assert_eq!(t.delta_len(), 0);
        for (r, id) in rows.iter().zip(&ids).step_by(97) {
            assert_eq!(&t.row(*id), r, "ids stable across per-shard merges");
        }
    }

    #[test]
    fn sharded_scheduler_keeps_all_shards_bounded() {
        let t = Arc::new(
            ShardedTable::<u64>::builder()
                .shards(4)
                .columns(2)
                .build()
                .unwrap(),
        );
        t.insert_rows(&(0..8_000u64).map(|i| row(i, 2)).collect::<Vec<_>>())
            .unwrap();
        t.merge_all(2).unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.02,
            threads: 1,
            ..MergePolicy::default()
        };
        let sched = ShardedScheduler::spawn(Arc::clone(&t), policy, 2, Duration::from_millis(1));
        // Write through the facade from two threads.
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        t.try_insert_row(&row(1_000_000 * (w + 1) + i, 2)).unwrap();
                    }
                });
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while t.max_delta_fraction() > policy.delta_fraction && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        let stats = sched.stats();
        assert_eq!(t.row_count(), 28_000, "no rows lost");
        assert!(stats.merges >= 4, "sustained writes force many merges");
        assert_eq!(stats.per_shard.len(), 4);
        assert_eq!(
            stats.per_shard.iter().map(|s| s.merges).sum::<u64>(),
            stats.merges
        );
        assert!(
            stats.per_shard.iter().all(|s| s.merges > 0),
            "hash routing loads every shard, so every shard must merge: {:?}",
            stats.per_shard
        );
        assert!(
            t.max_delta_fraction() <= policy.delta_fraction,
            "every shard's delta bounded after drain"
        );
    }

    #[test]
    fn sharded_scheduler_pause_resume_is_global() {
        let t = Arc::new(
            ShardedTable::<u64>::builder()
                .shards(3)
                .columns(1)
                .build()
                .unwrap(),
        );
        t.insert_rows(&(0..900u64).map(|i| vec![i]).collect::<Vec<_>>())
            .unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.01,
            threads: 1,
            ..MergePolicy::default()
        };
        let sched = ShardedScheduler::spawn(Arc::clone(&t), policy, 3, Duration::from_millis(2));
        sched.pause();
        assert!(sched.is_paused());
        std::thread::sleep(Duration::from_millis(80));
        let before = sched.stats().merges;
        assert!(
            before <= 3,
            "at most one in-flight round may finish after pause, ran {before}"
        );
        // Refill every shard while paused (the daemon may have won the race).
        t.insert_rows(&(0..900u64).map(|i| vec![7_000 + i]).collect::<Vec<_>>())
            .unwrap();
        sched.resume();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sched.stats().merges == before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        assert!(sched.stats().merges > before, "resume re-enables merging");
    }

    /// An in-memory 1-shard table — the paper's single-table case.
    fn one_shard(cols: usize) -> Arc<ShardedTable<u64>> {
        Arc::new(ShardedTable::builder().columns(cols).build().unwrap())
    }

    fn insert_pairs(table: &ShardedTable<u64>, n: u64, tag: u64) {
        let rows: Vec<[u64; 2]> = (0..n).map(|i| [tag + i, tag + i + 1]).collect();
        table.insert_rows(&rows).unwrap();
    }

    #[test]
    fn scheduler_merges_when_triggered() {
        let table = one_shard(2);
        insert_pairs(&table, 10_000, 0);
        table.merge_all(2).unwrap();

        let policy = MergePolicy {
            delta_fraction: 0.01,
            threads: 2,
            ..MergePolicy::default()
        };
        let sched =
            ShardedScheduler::spawn(Arc::clone(&table), policy, 1, Duration::from_millis(5));
        // Push past the trigger and wait for the daemon.
        insert_pairs(&table, 500, 1_000_000);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sched.stats().merges == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        sched.shutdown();
        let stats = sched.stats();
        assert!(stats.merges >= 1, "daemon must have merged");
        assert!(
            stats.tuples_merged >= 500 * 2,
            "both columns' delta tuples counted"
        );
        assert_eq!(table.delta_len(), 0);
        assert_eq!(table.row_count(), 10_500);
    }

    #[test]
    fn paused_scheduler_does_not_merge() {
        let table = one_shard(2);
        insert_pairs(&table, 1_000, 0); // fraction N_D/1: always triggered
        let policy = MergePolicy {
            delta_fraction: 0.01,
            threads: 1,
            ..MergePolicy::default()
        };
        let sched =
            ShardedScheduler::spawn(Arc::clone(&table), policy, 1, Duration::from_millis(2));
        sched.pause();
        assert!(sched.is_paused());
        // Give the daemon time it would have used to merge.
        std::thread::sleep(Duration::from_millis(100));
        // It may have completed at most one merge started before the pause.
        let before = sched.stats().merges;
        assert!(
            before <= 1,
            "paused scheduler must not keep merging, ran {before}"
        );
        // Refill the delta while paused: if the daemon won the race and merged
        // everything before the pause landed, resume would otherwise have
        // nothing to do and the test would hang on an empty delta.
        insert_pairs(&table, 1_000, 2_000_000);
        sched.resume();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sched.stats().merges == before && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        assert!(
            sched.stats().merges > before,
            "resume must re-enable merging"
        );
    }

    #[test]
    fn drop_stops_the_daemon() {
        let table = one_shard(2);
        insert_pairs(&table, 100, 0);
        let weak = {
            let sched = ShardedScheduler::spawn(
                Arc::clone(&table),
                MergePolicy::default(),
                1,
                Duration::from_millis(1),
            );
            let _ = sched.stats();
            Arc::downgrade(sched.table())
        };
        // Scheduler dropped: its table Arc released; ours remains.
        assert!(weak.upgrade().is_some());
        drop(table);
        assert!(
            weak.upgrade().is_none(),
            "daemon thread must have released the table"
        );
    }

    #[test]
    fn scheduler_under_concurrent_writes() {
        let table = one_shard(2);
        insert_pairs(&table, 5_000, 0);
        table.merge_all(2).unwrap();
        let policy = MergePolicy {
            delta_fraction: 0.02,
            threads: 2,
            ..MergePolicy::default()
        };
        let sched =
            ShardedScheduler::spawn(Arc::clone(&table), policy, 1, Duration::from_millis(1));
        let writer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    table.try_insert_row(&[i, i + 1]).unwrap();
                }
            })
        };
        writer.join().unwrap();
        // Let the scheduler drain the tail.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while table.max_delta_fraction() > policy.delta_fraction
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        sched.shutdown();
        assert_eq!(
            table.row_count(),
            25_000,
            "no rows lost under daemon merging"
        );
        assert!(
            sched.stats().merges > 1,
            "sustained writes force repeated merges"
        );
        assert!(
            table.max_delta_fraction() <= policy.delta_fraction,
            "scheduler must keep the delta bounded"
        );
    }

    #[test]
    fn governed_scheduler_records_grants_and_shrinks_budget_under_pressure() {
        use crate::governor::GrantSignal;
        let table = one_shard(2);
        insert_pairs(&table, 4_000, 0);
        // A soft limit of one byte: every round is memory-pressured, so
        // every grant must carry the shrunk pressure budget.
        let config = GovernorConfig::from_policy(MergePolicy {
            delta_fraction: 0.01,
            threads: 2,
            ..MergePolicy::default()
        })
        .with_memory_soft_limit(1);
        let sched = ShardedScheduler::spawn_governed(
            Arc::clone(&table),
            ResourceGovernor::new(config),
            1,
            Duration::from_millis(2),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while sched.stats().merges == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sched.shutdown();
        let stats = sched.stats();
        assert!(stats.merges >= 1, "governed daemon must merge");
        assert!(!stats.grants.is_empty(), "grant decisions are traced");
        let g = stats.grants.last().unwrap();
        assert_eq!(g.signal, GrantSignal::MemoryPressure);
        assert_eq!(
            g.budget_columns,
            sched.governor().config().pressure_budget.max_columns(),
            "memory pressure shrinks the merge budget"
        );
        assert_eq!(table.delta_len(), 0, "pressure never blocks draining");
    }

    #[test]
    fn merge_millis_counts_sub_millisecond_merges() {
        // Many one-row merges of a tiny 1-column table, each far below a
        // millisecond: together they must still show up in merge_millis.
        // One thread keeps every merge's stages inside its wall time.
        let table = one_shard(1);
        let config = GovernorConfig::from_policy(MergePolicy {
            delta_fraction: 0.0,
            threads: 1,
            ..MergePolicy::default()
        })
        .with_max_threads(1);
        let sched = ShardedScheduler::spawn_governed(
            Arc::clone(&table),
            ResourceGovernor::new(config),
            1,
            Duration::from_millis(1),
        );
        let stage_micros = |s: &ShardedSchedulerStats| -> u64 {
            s.per_shard.iter().map(|c| c.total_micros()).sum()
        };
        const STAGE_TARGET_MICROS: u64 = 3_000;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        let mut next = 0u64;
        while stage_micros(&sched.stats()) < STAGE_TARGET_MICROS
            && std::time::Instant::now() < deadline
        {
            let before = sched.stats().merges;
            table.try_insert_row(&[next]).unwrap();
            next += 1;
            while sched.stats().merges == before && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        sched.shutdown();
        let stats = sched.stats();
        let stage = stage_micros(&stats);
        assert!(
            stage >= STAGE_TARGET_MICROS,
            "only {stage} us of stage time in {} merges",
            stats.merges
        );
        assert!(
            stats.merge_millis >= stage / 1_000,
            "merge_millis {} must cover the {stage} us the stages took over {} merges",
            stats.merge_millis,
            stats.merges
        );
    }

    #[test]
    fn snapshots_cover_every_shard_consistently() {
        let t = ShardedTable::<u64>::builder()
            .shards(3)
            .columns(2)
            .build()
            .unwrap();
        let ids = t
            .insert_rows(&(0..600u64).map(|i| row(i, 2)).collect::<Vec<_>>())
            .unwrap();
        t.try_delete_row(ids[5]).unwrap();
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 3);
        let total: usize = snaps.iter().map(|s| s.row_count()).sum();
        assert_eq!(total, 600);
        let valid: usize = snaps.iter().map(|s| s.validity().valid_count()).sum();
        assert_eq!(valid, 599);
        // Writes after the snapshot are invisible.
        t.try_insert_row(&row(9_999, 2)).unwrap();
        assert_eq!(snaps.iter().map(|s| s.row_count()).sum::<usize>(), 600);
        // Every inserted row is present in exactly its shard's snapshot.
        for (i, id) in ids.iter().enumerate().step_by(83) {
            assert_eq!(snaps[id.shard].row(id.row), row(i as u64, 2));
        }
    }

    #[test]
    fn consistent_cut_never_tears_a_batch() {
        // One writer inserts multi-shard batches of a fixed size; cutters
        // must always observe a multiple of the batch size.
        const BATCH: usize = 32;
        let t = Arc::new(
            ShardedTable::<u64>::builder()
                .shards(4)
                .columns(1)
                .build()
                .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let (tw, stop_w) = (Arc::clone(&t), Arc::clone(&stop));
            s.spawn(move || {
                let mut next = 0u64;
                while !stop_w.load(Ordering::Relaxed) {
                    let rows: Vec<Vec<u64>> = (0..BATCH as u64).map(|k| vec![next + k]).collect();
                    tw.insert_rows(&rows).unwrap();
                    next += BATCH as u64;
                }
            });
            for _ in 0..3 {
                let (tr, stop_r) = (Arc::clone(&t), Arc::clone(&stop));
                s.spawn(move || {
                    while !stop_r.load(Ordering::Relaxed) {
                        let snaps = tr.consistent_snapshots();
                        let total: usize = snaps.iter().map(|s| s.row_count()).sum();
                        assert_eq!(total % BATCH, 0, "cut observed a torn batch: {total} rows");
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(200));
            stop.store(true, Ordering::Relaxed);
        });
        assert!(t.row_count() > 0, "writer made progress");
    }
}
