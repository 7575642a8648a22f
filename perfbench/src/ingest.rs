//! Phase `ingest_merge`: the paper's own metric — sustained update rate
//! with the merge cost amortised in.
//!
//! One writer replays the Figure-1 OLTP write split against a durable
//! (buffered WAL) 1-shard table and merges synchronously whenever the
//! delta passes the default 5% trigger. Each table runs a fixed number of
//! merge cycles, so merge points and bytes written repeat exactly for a
//! seed, and several tables run the same cycles one after another. No
//! query work runs on the clock.

use crate::trace::{record, Tracer};
use crate::util::{cell, median, quantile, secs, IoCounters};
use crate::{Ctx, Metric, PhaseOut};
use hyrise_core::{
    recover_sharded, Durability, MergeGrant, MergePolicy, MergeScenario, ShardRowId, ShardedTable,
    TableMergeStats,
};
use hyrise_query::Query;
use hyrise_workload::{Operation, QueryMix, UpdateStream, VbapScenario};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

pub const COLUMNS: usize = 8;
/// Rows per insert: one sales document's line items.
const DOC_ROWS: usize = 16;

/// Column value domains. The schema is fixed; only the data varies with
/// the seed. It is the first `VbapScenario` draw from the Figure 4
/// Financial Accounting model whose bucket mix over 8 columns matches the
/// model's shares (78% / 9% / 13% → 6 small, 1 medium, 1 large column).
fn cardinalities(preload: usize) -> Vec<u64> {
    (0..)
        .map(|seed| {
            VbapScenario {
                rows: preload,
                cols: COLUMNS,
                merge_rows: 1,
                seed,
            }
            .column_distinct_counts()
        })
        .find(|d| {
            let medium = d.iter().filter(|&&n| (33..1024).contains(&n)).count();
            let large = d.iter().filter(|&&n| n >= 1024).count();
            (medium, large) == (1, 1)
        })
        .expect("the model yields such a schema")
        .into_iter()
        .map(|d| d.max(1) as u64)
        .collect()
}

struct Data {
    seed: u64,
    preload: usize,
    card: Vec<u64>,
}

impl Data {
    /// Row `r`'s values. Rows written after the preload draw from a ~2%
    /// wider domain, so every merge also grows some dictionaries.
    fn row(&self, r: usize) -> [u64; COLUMNS] {
        std::array::from_fn(|c| {
            let domain = if r < self.preload {
                self.card[c]
            } else {
                self.card[c] + self.card[c] / 50 + 1
            };
            cell(self.seed, r as u64, c as u64) % domain
        })
    }
}

/// Visible-state oracle: validity per physical row plus running
/// per-column sums of the visible rows.
struct Oracle {
    valid: Vec<bool>,
    sums: [u128; COLUMNS],
    live: usize,
}

impl Oracle {
    fn add(&mut self, vals: &[u64; COLUMNS]) {
        self.valid.push(true);
        self.live += 1;
        for (s, v) in self.sums.iter_mut().zip(vals) {
            *s += *v as u128;
        }
    }

    fn remove(&mut self, row: usize, vals: &[u64; COLUMNS]) {
        self.valid[row] = false;
        self.live -= 1;
        for (s, v) in self.sums.iter_mut().zip(vals) {
            *s -= *v as u128;
        }
    }

    /// The visible row nearest to `row`, searching older rows first.
    fn visible_near(&self, row: usize) -> Option<usize> {
        let row = row.min(self.valid.len() - 1);
        (0..=row)
            .rev()
            .chain(row + 1..self.valid.len())
            .find(|&r| self.valid[r])
    }

    /// Compare a table's visible state with the oracle.
    fn check(&self, t: &ShardedTable<u64>, what: &str, errors: &mut Vec<String>) {
        let count = Query::scan(0).count().run(t).count();
        if count != self.live || t.valid_row_count() != self.live {
            errors.push(format!(
                "ingest {what}: {count} visible rows, oracle has {}",
                self.live
            ));
        }
        for (c, want) in self.sums.iter().enumerate() {
            let got = Query::scan(0).sum(c).run(t).sum();
            if got != *want {
                errors.push(format!(
                    "ingest {what}: column {c} sums to {got}, oracle {want}"
                ));
            }
        }
    }
}

struct State {
    table: ShardedTable<u64>,
    data: Data,
    oracle: Oracle,
}

fn setup(ctx: &Ctx, dir: &Path) -> State {
    let preload = ctx.sizes.ingest_rows;
    let data = Data {
        seed: ctx.seed ^ 0x1A6E,
        preload,
        card: cardinalities(preload),
    };
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the WAL directory");
    }
    let table = ShardedTable::<u64>::builder()
        .shards(1)
        .columns(COLUMNS)
        .durability(Durability::Wal {
            dir: dir.to_path_buf(),
            fsync: false,
        })
        .build()
        .expect("durable table");
    let mut oracle = Oracle {
        valid: Vec::with_capacity(preload * 2),
        sums: [0; COLUMNS],
        live: 0,
    };
    let mut batch = Vec::with_capacity(65_536);
    for start in (0..preload).step_by(65_536) {
        batch.clear();
        batch.extend((start..preload.min(start + 65_536)).map(|r| data.row(r)));
        table.insert_rows(&batch).expect("preload insert");
        batch.iter().for_each(|r| oracle.add(r));
    }
    table
        .merge_all_with(MergeGrant::with_threads(ctx.nproc))
        .expect("preload merge");
    State {
        table,
        data,
        oracle,
    }
}

struct MergeRecord {
    wall: Duration,
    io: IoCounters,
    stats: TableMergeStats,
}

/// What the timed writer measured, summed over the tables.
#[derive(Default)]
struct Tally {
    /// Per table, the median and p99 of its document insert calls.
    insert_p50: Vec<f64>,
    insert_p99: Vec<f64>,
    /// Per table, the wall time of each merge cycle: its writes plus the
    /// merge they trigger.
    cycle_s: Vec<Vec<f64>>,
    merges: Vec<MergeRecord>,
    rows_written: usize,
    write_calls: usize,
    wall: Duration,
    io: IoCounters,
}

/// The timed writer: replay the write mix until the table has merged
/// `ingest_merges` times.
fn replay(ctx: &Ctx, st: &mut State, tally: &mut Tally, out: &mut PhaseOut) {
    let State {
        table,
        data,
        oracle,
    } = st;
    // Figure 1's OLTP write split: insert : update : delete = 9 : 6 : 2.
    let writes = QueryMix {
        name: "oltp-writes",
        percent: [0.0, 0.0, 0.0, 900.0 / 17.0, 600.0 / 17.0, 200.0 / 17.0],
    };
    let mut stream = UpdateStream::new(writes, oracle.valid.len() as u64);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x3E1);
    let trigger = MergePolicy::default().delta_fraction;
    let grant = MergeGrant::with_threads(ctx.nproc);
    let tr = ctx.tr;

    let mut merges = 0;
    let mut rows_written = 0usize;
    let io0 = IoCounters::now();
    let start = Instant::now();
    let mut cycle_start = start;
    let mut op_idx = 0u64;
    let (mut insert_us, mut cycle_s) = (Vec::new(), Vec::new());
    while merges < ctx.sizes.ingest_merges {
        let op = stream.next_op(&mut rng);
        let op_id = tr.map_or(0, Tracer::id);
        let op_t0 = Instant::now();
        // Map the stream's logical row onto the physical row space, keeping
        // its recency skew.
        let target = |row: u64, oracle: &Oracle| {
            let phys = (row as u128 * oracle.valid.len() as u128 / stream.rows() as u128) as usize;
            oracle.visible_near(phys)
        };
        let next = oracle.valid.len();
        let (name, ok, t0, t1) = match op {
            Operation::Insert { .. } => {
                let rows: Vec<[u64; COLUMNS]> =
                    (next..next + DOC_ROWS).map(|r| data.row(r)).collect();
                let t0 = Instant::now();
                let res = table.insert_rows(&rows);
                let t1 = Instant::now();
                let ok = matches!(&res, Ok(ids) if ids.first().map(|i| i.row) == Some(next));
                if ok {
                    rows.iter().for_each(|r| oracle.add(r));
                    rows_written += DOC_ROWS;
                }
                insert_us.push(secs(t1 - t0) * 1e6);
                ("write.insert", ok, t0, t1)
            }
            Operation::Update { row, .. } => {
                let Some(old) = target(row, oracle) else {
                    continue;
                };
                let vals = data.row(next);
                let t0 = Instant::now();
                let res = table.try_update_row(ShardRowId { shard: 0, row: old }, &vals);
                let t1 = Instant::now();
                let ok = matches!(res, Ok(id) if id.row == next);
                if ok {
                    oracle.add(&vals);
                    oracle.remove(old, &data.row(old));
                    rows_written += 1;
                }
                ("write.update", ok, t0, t1)
            }
            Operation::Delete { row } => {
                let Some(old) = target(row, oracle) else {
                    continue;
                };
                let t0 = Instant::now();
                let res = table.try_delete_row(ShardRowId { shard: 0, row: old });
                let t1 = Instant::now();
                if res.is_ok() {
                    oracle.remove(old, &data.row(old));
                }
                ("write.delete", res.is_ok(), t0, t1)
            }
            _ => unreachable!("write-only mix"),
        };
        tally.write_calls += 1;
        record(tr, name, t0, t1, op_id, op_idx);
        out.attempted += 1;
        out.failed += (!ok) as u64;

        if table.max_delta_fraction() > trigger {
            let io_before = IoCounters::now();
            let t0 = Instant::now();
            let res = table.merge_all_with(grant);
            let t1 = Instant::now();
            record(tr, "merge", t0, t1, op_id, op_idx);
            merges += 1;
            cycle_s.push(secs(t1 - cycle_start));
            cycle_start = t1;
            match res {
                Ok(mut stats) if stats.len() == 1 => tally.merges.push(MergeRecord {
                    wall: t1 - t0,
                    io: IoCounters::now().since(io_before),
                    stats: stats.remove(0),
                }),
                other => {
                    out.errors.push(format!(
                        "ingest: merge failed: {:?}",
                        other.map(|s| s.len())
                    ));
                    break;
                }
            }
        }
        if let Some(t) = tr {
            t.push_id(op_id, "ingest.op", op_t0, Instant::now(), 0, op_idx);
        }
        op_idx += 1;
    }
    tally.wall += start.elapsed();
    tally.insert_p50.push(median(&insert_us));
    tally.insert_p99.push(quantile(&insert_us, 0.99));
    tally.cycle_s.push(cycle_s);
    let io = IoCounters::now().since(io0);
    tally.io.wchar += io.wchar;
    tally.io.syscw += io.syscw;
    tally.rows_written += rows_written;
}

/// The phase's samples, pooled over the tables.
#[derive(Default)]
pub struct Ingest {
    out: PhaseOut,
    tally: Tally,
}

impl Ingest {
    /// One table: set up, run the timed writer, check the visible state.
    /// The last table also checks recovery from the WAL.
    pub fn table(&mut self, ctx: &Ctx, last: bool) {
        let out = &mut self.out;
        let dir = ctx.work_dir.join("ingest-wal");
        let t = Instant::now();
        let mut st = setup(ctx, &dir);
        out.setup_s.push(secs(t.elapsed()));
        record(ctx.tr, "setup.ingest", t, Instant::now(), 0, 0);
        replay(ctx, &mut st, &mut self.tally, out);
        st.oracle
            .check(&st.table, "after the timed phase", &mut out.errors);
        if last {
            out.facts
                .push(("ingest_cardinalities".into(), format!("{:?}", st.data.card)));
            out.memory = Some((st.table.memory_report(), st.table.row_count() * COLUMNS));
            drop(st.table);
            let t0 = Instant::now();
            match recover_sharded::<u64>(&dir) {
                Ok(t) => st.oracle.check(&t, "after recovery", &mut out.errors),
                Err(e) => out.errors.push(format!("ingest: recovery failed: {e}")),
            }
            record(ctx.tr, "recover", t0, Instant::now(), 0, 0);
        } else {
            drop(st);
        }
        // Deleting the log right away also drops its unwritten pages, so no
        // write-back runs under the next phase.
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            eprintln!("warning: could not remove {}: {e}", dir.display());
        }
    }

    pub fn finish(mut self, ctx: &Ctx) -> PhaseOut {
        let (out, tally) = (&mut self.out, &self.tally);
        let user_bytes = (tally.rows_written * COLUMNS * 8) as f64;
        // Every table writes the same rows in the same cycles; the rate sets
        // one table's rows against the sum of each cycle's median time over
        // the tables, so a cycle that interference slowed on one table does
        // not count.
        let cycles = tally.cycle_s.iter().map(Vec::len).max().unwrap_or(0);
        let time: f64 = (0..cycles)
            .map(|i| {
                let at: Vec<f64> = tally
                    .cycle_s
                    .iter()
                    .filter_map(|t| t.get(i).copied())
                    .collect();
                median(&at)
            })
            .sum();
        let rows = tally.rows_written as f64 / tally.cycle_s.len().max(1) as f64;
        out.e2e
            .push(Metric::new("ingest_rows_per_s", rows / time, "rows/s"));
        out.e2e.push(Metric::new(
            "write_amp",
            tally.io.wchar as f64 / user_bytes,
            "ratio",
        ));
        out.e2e
            .push(Metric::new("write_p50_us", median(&tally.insert_p50), "us"));
        out.e2e
            .push(Metric::new("write_p99_us", median(&tally.insert_p99), "us"));
        out.facts
            .push(("ingest_rows_written".into(), tally.rows_written.to_string()));
        if let Some(tr) = ctx.tr {
            layer_metrics(ctx, tr, tally, out);
        }
        self.out
    }
}

fn layer_metrics(ctx: &Ctx, tr: &Tracer, tally: &Tally, out: &mut PhaseOut) {
    let Tally {
        merges,
        wall,
        io,
        rows_written,
        write_calls,
        ..
    } = tally;
    for kind in ["insert", "update", "delete"] {
        let d = tr.durations_us(&format!("write.{kind}"));
        out.layer.push(Metric::new(
            format!("write.{kind}_p50_us"),
            median(&d),
            "us",
        ));
    }
    let merge_io = merges
        .iter()
        .fold(IoCounters::default(), |a, m| IoCounters {
            wchar: a.wchar + m.io.wchar,
            syscw: a.syscw + m.io.syscw,
        });
    out.layer.push(Metric::new(
        "wal.bytes_per_row",
        (io.wchar - merge_io.wchar) as f64 / *rows_written as f64,
        "B/row",
    ));
    out.layer.push(Metric::new(
        "wal.syscalls_per_write",
        (io.syscw - merge_io.syscw) as f64 / *write_calls as f64,
        "syscalls/write",
    ));

    let n = merges.len().max(1) as f64;
    let merge_wall: f64 = merges.iter().map(|m| secs(m.wall)).sum();
    let tuples: usize = merges.iter().map(|m| m.stats.total_tuples()).sum();
    let stage = |f: fn(&TableMergeStats) -> Duration| -> f64 {
        merges.iter().map(|m| secs(f(&m.stats))).sum::<f64>() / n
    };
    let step1a = stage(|s| s.stage_timings().step1a);
    let step1b = stage(|s| s.stage_timings().step1b);
    let step2 = stage(|s| s.stage_timings().step2);
    out.layer
        .push(Metric::new("merge.count", merges.len() as f64, "count"));
    out.layer.push(Metric::new(
        "merge.share",
        merge_wall / secs(*wall),
        "ratio",
    ));
    out.layer.push(Metric::new(
        "merge.ns_per_tuple",
        merge_wall * 1e9 / tuples.max(1) as f64,
        "ns/tuple",
    ));
    out.layer.push(Metric::new("merge.step1a_s", step1a, "s"));
    out.layer.push(Metric::new("merge.step1b_s", step1b, "s"));
    out.layer.push(Metric::new("merge.step2_s", step2, "s"));
    out.layer.push(Metric::new(
        "merge.outside_stages_s",
        merge_wall / n - (step1a + step1b + step2) / ctx.nproc as f64,
        "s",
    ));
    out.layer.push(Metric::new(
        "merge.bytes_written_per_merge",
        merge_io.wchar as f64 / n,
        "B",
    ));
    out.layer.push(Metric::new(
        "merge.peak_extra_bytes",
        merges
            .iter()
            .map(|m| m.stats.peak_extra_bytes)
            .max()
            .unwrap_or(0) as f64,
        "B",
    ));

    // The Sec 6.1/7.4 model's prediction for the merges that ran, as a
    // share of their measured stage times.
    let (mut pred1b, mut pred2) = (0.0, 0.0);
    if let Some(m) = ctx.profile_n {
        for c in merges.iter().flat_map(|r| &r.stats.columns) {
            let s = MergeScenario::from_stats(c, 8);
            let p = m.predict(&s);
            pred1b += p.step1b_cpt * s.total_tuples() as f64 / m.hz;
            pred2 += p.step2_cpt * s.total_tuples() as f64 / m.hz;
        }
    }
    out.layer.push(Metric::new(
        "merge.model_frac.step1b",
        pred1b / (step1b * n),
        "ratio",
    ));
    out.layer.push(Metric::new(
        "merge.model_frac.step2",
        pred2 / (step2 * n),
        "ratio",
    ));
}
