//! Phase `olap_scan`: read-only analytics on a merged 1-shard table with a
//! small unmerged tail and scattered invalidations.
//!
//! Five query shapes run round-robin through `Query::run` with the morsel
//! hint set to the core count. No WAL, merge or wire work happens while
//! the clock runs, so a scan-side change moves only the `scan_*` metrics.

use crate::trace::{record, Tracer};
use crate::util::{cell, median, quantile, secs, time_median, WINDOW};
use crate::{Ctx, Metric, PhaseOut};
use hyrise_core::{MergeGrant, ShardRowId, ShardedTable};
use hyrise_query::Query;
use hyrise_workload::{Operation, QueryMix, UpdateStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Distinct values per column: the key, then 100K, 1K and 10 — 24/17/10/4
/// bit codes at 16M rows.
fn cardinality(rows: usize, col: usize) -> u64 {
    [rows as u64, 100_000, 1_000, 10][col]
}

pub const SHAPES: [&str; 5] = ["range", "fused", "sum", "sum_where", "select"];
const SPANS: [&str; 5] = [
    "query.range",
    "query.fused",
    "query.sum",
    "query.sum_where",
    "query.select",
];

/// Unmerged tail as a share of the merged rows.
const TAIL_FRACTION: f64 = 0.003;
/// Invalidated rows as a share of all rows.
const INVALID_FRACTION: f64 = 0.01;
/// Predicates per shape checked against the oracle.
const CHECKS_PER_SHAPE: usize = 3;

struct Data {
    seed: u64,
    rows: usize,
}

impl Data {
    fn value(&self, row: usize, col: usize) -> u64 {
        if col == 0 {
            row as u64
        } else {
            cell(self.seed, row as u64, col as u64) % cardinality(self.rows, col)
        }
    }

    fn row(&self, row: usize) -> [u64; 4] {
        [0, 1, 2, 3].map(|c| self.value(row, c))
    }
}

/// One query instance: its shape index and predicate bounds.
#[derive(Clone, Copy, Debug)]
struct Probe {
    shape: usize,
    a: (u64, u64),
    b: (u64, u64),
}

impl Probe {
    /// A seeded predicate of fixed selectivity per shape: only the position
    /// of each range varies, so every seed does the same amount of work.
    fn draw(rng: &mut StdRng, shape: usize, rows: usize) -> Self {
        let range = |rng: &mut StdRng, col: usize, share: f64| {
            let card = cardinality(rows, col);
            let width = (card as f64 * share) as u64;
            let lo = rng.gen_range(0..card - width);
            (lo, lo + width - 1)
        };
        let (a, b) = match shape {
            0 => (range(rng, 1, 0.25), (0, 0)),
            1 => (range(rng, 1, 0.4), range(rng, 2, 0.4)),
            2 => ((0, 0), (0, 0)),
            3 => (range(rng, 2, 0.25), (0, 0)),
            _ => {
                let v = rng.gen_range(0..cardinality(rows, 2));
                ((v, v), (0, 0))
            }
        };
        Probe { shape, a, b }
    }

    fn query(&self, threads: usize) -> Query<u64> {
        let q = match self.shape {
            0 => Query::scan(1).between(self.a.0, self.a.1).count(),
            1 => Query::scan(1)
                .between(self.a.0, self.a.1)
                .and(2)
                .between(self.b.0, self.b.1)
                .count(),
            2 => Query::scan(0).sum(1),
            3 => Query::scan(2).between(self.a.0, self.a.1).sum(1),
            _ => Query::scan(2).eq(self.a.0),
        };
        q.with_threads(threads)
    }
}

/// A query's answer, reduced so it can be compared with the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Count(usize),
    Sum(u128),
    Rows(Vec<usize>),
}

fn run(table: &ShardedTable<u64>, p: &Probe, threads: usize) -> Answer {
    let out = p.query(threads).run(table);
    match p.shape {
        0 | 1 => Answer::Count(out.count()),
        2 | 3 => Answer::Sum(out.sum()),
        _ => Answer::Rows(out.into_rows().iter().map(|id| id.row).collect()),
    }
}

struct State {
    table: ShardedTable<u64>,
    data: Data,
    valid: Vec<bool>,
}

fn setup(ctx: &Ctx) -> State {
    let rows = ctx.sizes.olap_rows;
    let data = Data {
        seed: ctx.seed ^ 0x01A9,
        rows,
    };
    let table = ShardedTable::<u64>::builder()
        .shards(1)
        .columns(4)
        .build()
        .expect("volatile 4-column table");
    let insert = |from: usize, to: usize| {
        let mut batch = Vec::with_capacity(65_536);
        for start in (from..to).step_by(65_536) {
            batch.clear();
            batch.extend((start..to.min(start + 65_536)).map(|r| data.row(r)));
            let ids = table.insert_rows(&batch).expect("volatile insert");
            assert_eq!(
                ids.first().map(|i| i.row),
                Some(start),
                "rows append in order"
            );
        }
    };
    insert(0, rows);
    table
        .merge_all_with(MergeGrant::with_threads(ctx.nproc))
        .expect("volatile merge");
    let total = rows + (rows as f64 * TAIL_FRACTION) as usize;
    insert(rows, total);

    // Invalidate ~1% of all rows, skewed toward recent ones.
    let mut valid = vec![true; total];
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xDE1E);
    let deletes = QueryMix {
        name: "delete-only",
        percent: [0.0, 0.0, 0.0, 0.0, 0.0, 100.0],
    };
    let mut stream = UpdateStream::new(deletes, total as u64);
    let target = (total as f64 * INVALID_FRACTION) as usize;
    let mut invalid = 0;
    while invalid < target {
        let Operation::Delete { row } = stream.next_op(&mut rng) else {
            unreachable!("delete-only mix");
        };
        let row = row as usize;
        if valid[row] {
            valid[row] = false;
            table
                .try_delete_row(ShardRowId { shard: 0, row })
                .expect("volatile delete");
            invalid += 1;
        }
    }

    // Warm up: one query of every shape at full width.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x3A3);
    for shape in 0..SHAPES.len() {
        std::hint::black_box(run(&table, &Probe::draw(&mut rng, shape, rows), ctx.nproc));
    }
    State { table, data, valid }
}

/// The oracle: every probe answered by a plain pass over the generated
/// columns, skipping invalidated rows.
fn oracle(st: &State, probes: &[Probe]) -> Vec<Answer> {
    let mut out: Vec<Answer> = probes
        .iter()
        .map(|p| match p.shape {
            0 | 1 => Answer::Count(0),
            2 | 3 => Answer::Sum(0),
            _ => Answer::Rows(Vec::new()),
        })
        .collect();
    let inside = |v: u64, r: (u64, u64)| v >= r.0 && v <= r.1;
    for (row, _) in st.valid.iter().enumerate().filter(|(_, v)| **v) {
        let (c1, c2) = (st.data.value(row, 1), st.data.value(row, 2));
        for (p, ans) in probes.iter().zip(out.iter_mut()) {
            match ans {
                Answer::Count(n) => {
                    let hit = inside(c1, p.a) && (p.shape == 0 || inside(c2, p.b));
                    *n += hit as usize;
                }
                Answer::Sum(s) => {
                    if p.shape == 2 || inside(c2, p.a) {
                        *s += c1 as u128;
                    }
                }
                Answer::Rows(r) => {
                    if c2 == p.a.0 {
                        r.push(row);
                    }
                }
            }
        }
    }
    out
}

/// The phase: the scan table and what the rounds measured.
pub struct Olap {
    out: PhaseOut,
    /// Every set-up's table, built alike; windows take turns over them, so
    /// the result covers several memory layouts of the same data, not one.
    tables: Vec<State>,
    rng: StdRng,
    /// Per shape, the median latency in each window.
    window_ms: Vec<Vec<f64>>,
    queries: usize,
    /// The first round's probes, re-run by the traced probes.
    first: Vec<Probe>,
}

impl Olap {
    /// Build the table `setup_reps` times, keeping every copy.
    pub fn new(ctx: &Ctx) -> Self {
        let mut out = PhaseOut::default();
        let mut tables = Vec::new();
        for _ in 0..ctx.setup_reps {
            let t = Instant::now();
            tables.push(setup(ctx));
            out.setup_s.push(secs(t.elapsed()));
            record(ctx.tr, "setup.olap", t, Instant::now(), 0, 0);
        }
        Self {
            out,
            tables,
            rng: StdRng::seed_from_u64(ctx.seed ^ 0x5CA7),
            window_ms: vec![Vec::new(); SHAPES.len()],
            queries: 0,
            first: Vec::new(),
        }
    }

    /// One round: windows of complete round-robin passes over the five
    /// shapes for 40% of the round's time.
    pub fn round(&mut self, ctx: &Ctx) {
        let budget = Duration::from_secs_f64(ctx.round_seconds() * 0.4);
        let start = Instant::now();
        loop {
            self.window(ctx);
            if start.elapsed() >= budget {
                break;
            }
        }
    }

    /// One window: passes over the five shapes for at least WINDOW (and
    /// MIN_PASSES); each shape's median latency in it is one sample.
    fn window(&mut self, ctx: &Ctx) {
        const MIN_PASSES: usize = 2;
        let rows = ctx.sizes.olap_rows;
        let table = &self.tables[self.window_ms[0].len() % self.tables.len()].table;
        let mut lat_ms = vec![Vec::new(); SHAPES.len()];
        let start = Instant::now();
        let mut passes = 0;
        while passes < MIN_PASSES || start.elapsed() < WINDOW {
            let req = self.queries as u64;
            for (shape, span) in SPANS.iter().enumerate() {
                let p = Probe::draw(&mut self.rng, shape, rows);
                if self.first.len() < SHAPES.len() {
                    self.first.push(p);
                }
                let t0 = Instant::now();
                std::hint::black_box(run(table, &p, ctx.nproc));
                let t1 = Instant::now();
                lat_ms[shape].push(secs(t1 - t0) * 1e3);
                record(ctx.tr, span, t0, t1, 0, req);
            }
            self.queries += SHAPES.len();
            passes += 1;
        }
        for (all, window) in self.window_ms.iter_mut().zip(&lat_ms) {
            all.push(median(window));
        }
    }

    /// Correctness of every table on a fixed sample of predicates per
    /// shape, outside the timed samples; then the traced probes and the
    /// report.
    pub fn finish(mut self, ctx: &Ctx) -> PhaseOut {
        let out = &mut self.out;
        let rows = ctx.sizes.olap_rows;
        out.attempted += self.queries as u64;
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0AC1E);
        let probes: Vec<Probe> = (0..CHECKS_PER_SHAPE)
            .flat_map(|_| {
                (0..SHAPES.len())
                    .map(|s| Probe::draw(&mut rng, s, rows))
                    .collect::<Vec<_>>()
            })
            .collect();
        let st = &self.tables[0];
        let expected = oracle(st, &probes);
        for t in &self.tables {
            for (p, want) in probes.iter().zip(&expected) {
                let got = run(&t.table, p, ctx.nproc);
                if &got != want {
                    out.errors.push(format!(
                        "olap {} {:?}: engine {:?} != oracle {:?}",
                        SHAPES[p.shape],
                        p,
                        short(&got),
                        short(want)
                    ));
                }
            }
            if t.table.valid_row_count() != st.valid.iter().filter(|v| **v).count() {
                out.errors
                    .push("olap: valid row count differs from the oracle".into());
            }
        }
        out.memory = Some((st.table.memory_report(), st.table.row_count() * 4));
        if let Some(tr) = ctx.tr {
            probe_layers(ctx, tr, st, &self.first, out);
        }
        for (s, name) in SHAPES.iter().enumerate() {
            out.e2e.push(Metric::new(
                format!("scan_{name}_ms"),
                median(&self.window_ms[s]),
                "ms",
            ));
        }
        out.facts.push((
            "olap_samples".into(),
            format!(
                "{} queries in {} rounds",
                self.queries,
                self.window_ms[0].len()
            ),
        ));
        self.out
    }
}

fn short(a: &Answer) -> String {
    match a {
        Answer::Rows(r) => format!("{} rows", r.len()),
        other => format!("{other:?}"),
    }
}

/// Trace-only probes: serial variants, direct kernel calls on the main
/// partitions' packed codes, and derived per-layer ratios.
fn probe_layers(ctx: &Ctx, tr: &Tracer, st: &State, probes: &[Probe], out: &mut PhaseOut) {
    const KERNEL_REPS: usize = 5;
    let snap = st.table.shard(0).snapshot();
    let main = |c: usize| snap.col(c).main();
    let codes = |c: usize| main(c).packed_codes();
    let code_range = |c: usize, r: (u64, u64)| {
        main(c)
            .dictionary()
            .value_id_range(&r.0, &r.1)
            .map_or((1, 0), |r| (*r.start() as u64, *r.end() as u64))
    };
    let rows = codes(1).len();
    let mut masks = vec![0u64; hyrise_bitpack::mask_words(rows)];
    let mut sel = Vec::new();
    let bytes = |c: usize| codes(c).packed_bytes() as f64;

    // Kernel timings (one thread), each the median of KERNEL_REPS calls.
    let t_kernels = Instant::now();
    let p_range = probes[0];
    let p_fused = probes[1];
    let p_where = probes[3];
    let p_sel = probes[4];
    let (r1, f1, f2, w2) = (
        code_range(1, p_range.a),
        code_range(1, p_fused.a),
        code_range(2, p_fused.b),
        code_range(2, p_where.a),
    );
    let k_range = time_median(KERNEL_REPS, || codes(1).count_in_range(r1.0, r1.1));
    let k_mask = time_median(KERNEL_REPS, || {
        codes(1).fill_range_mask(f1.0, f1.1, &mut masks);
        codes(2).and_range_mask(f2.0, f2.1, &mut masks);
        hyrise_bitpack::mask_count(&masks)
    });
    let k_sum = time_median(KERNEL_REPS, || codes(1).sum());
    // A filtered sum's kernel is its predicate mask; gathering and
    // decoding the matches is executor work.
    let k_where = time_median(KERNEL_REPS, || {
        codes(2).fill_range_mask(w2.0, w2.1, &mut masks);
        masks[0]
    });
    let eq_code = main(2).dictionary().code_of(&p_sel.a.0).unwrap_or(u32::MAX) as u64;
    let k_eq = time_median(KERNEL_REPS, || codes(2).count_eq(eq_code));
    let k_sel = time_median(KERNEL_REPS, || {
        sel.clear();
        codes(2).select_eq_into(eq_code, 0, &mut sel);
        sel.len()
    });
    let kernel = [k_range, k_mask, k_sum, k_where, k_sel];
    record(Some(tr), "probe.kernels", t_kernels, Instant::now(), 0, 0);

    let stream_gbps = ctx
        .profile1
        .map_or(f64::NAN, |m| m.streaming_bytes_per_cycle * m.hz / 1e9);
    for (name, b, t) in [
        ("count_in_range", bytes(1), k_range),
        ("count_eq", bytes(2), k_eq),
        ("range_mask", bytes(1) + bytes(2), k_mask),
        ("sum", bytes(1), k_sum),
    ] {
        let gbps = b / t / 1e9;
        out.layer
            .push(Metric::new(format!("bitpack.{name}.gbps"), gbps, "GB/s"));
        out.layer.push(Metric::new(
            format!("bitpack.{name}.bw_frac"),
            gbps / stream_gbps,
            "ratio",
        ));
    }

    // Serial and parallel runs of the same probes, and the timed tail.
    let mut serial = [0f64; 5];
    for (s, p) in probes.iter().enumerate().take(SHAPES.len()) {
        let t0 = Instant::now();
        let t = time_median(KERNEL_REPS, || run(&st.table, p, 1));
        let par = time_median(KERNEL_REPS, || run(&st.table, p, ctx.nproc));
        serial[s] = t;
        record(Some(tr), "probe.serial", t0, Instant::now(), 0, s as u64);
        let name = SHAPES[s];
        out.layer.push(Metric::new(
            format!("query.{name}.p95_ms"),
            quantile(&tr.durations_us(SPANS[s]), 0.95) / 1e3,
            "ms",
        ));
        out.layer.push(Metric::new(
            format!("query.{name}.serial_ms"),
            t * 1e3,
            "ms",
        ));
        out.layer.push(Metric::new(
            format!("query.{name}.kernel_frac"),
            kernel[s] / t,
            "ratio",
        ));
        out.layer
            .push(Metric::new(format!("pool.{name}.speedup"), t / par, "x"));
    }
    out.layer.push(Metric::new(
        "storage.decode_ns_per_row",
        (serial[2] - k_sum) / rows as f64 * 1e9,
        "ns/row",
    ));
}
