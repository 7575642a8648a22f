//! Phase `oltp_wire`: the Figure-1 OLTP mix through the network service.
//!
//! An in-process server with default configuration serves one volatile
//! 2-shard table. Two closed-loop clients (each waits for its reply, as an
//! SAP work process holding one connection does) replay `SwarmWorkload`
//! streams while the table's background scheduler merges at its 2%
//! trigger. This is the only phase with frame codec, admission, catalog
//! dispatch and the cross-shard consistent cut on the clock.
//!
//! The server and the client connections live through the whole run. Each
//! round reloads the table and the clients replay the same fixed number of
//! operations from the start of their streams. Between rounds the
//! scheduler is paused, so no background merge runs under the other
//! phases.

use crate::trace::{record, Tracer};
use crate::util::{median, quantile, secs, WINDOW};
use crate::{Ctx, Metric, PhaseOut};
use hyrise_core::{MergeGrant, Pool};
use hyrise_query::Query;
use hyrise_server::swarm::swarm_row;
use hyrise_server::{
    start, Client, ClientError, ServerConfig, ServerHandle, TableSpec, WireOutput, WireRowId,
};
use hyrise_workload::{Operation, SwarmWorkload, UpdateStream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const TABLE: &str = "oltp";
const COLUMNS: usize = 4;
const SHARDS: u32 = 2;
const CLIENTS: usize = 2;
const INSERT_ROWS: usize = 8;
const MAX_RETRIES: usize = 8;
/// Share of the preloaded rows left unmerged, just under the scheduler's 2%
/// trigger.
const DELTA_SHARE: f64 = 0.015;
/// Pause after a round for a background merge under way to finish.
const SETTLE: Duration = Duration::from_millis(50);

struct State {
    server: ServerHandle,
    preload: u64,
}

/// Rows whose key lies in `[lo, hi]`. Only preloaded keys (`0..preload`)
/// can match: client keys start at 2^40 and preloaded rows are never
/// deleted, so the count is exact under any interleaving.
fn expected(lo: u64, hi: u64, preload: u64) -> u64 {
    if lo >= preload || hi < lo {
        0
    } else {
        hi.min(preload - 1) - lo + 1
    }
}

/// Retry a throttled write after the server's suggested back-off.
fn write_with_retry<T>(
    mut f: impl FnMut() -> Result<T, ClientError>,
) -> Result<Option<T>, ClientError> {
    for _ in 0..=MAX_RETRIES {
        match f() {
            Ok(v) => return Ok(Some(v)),
            Err(ClientError::Throttled { retry_after }) => {
                std::thread::sleep(retry_after.min(Duration::from_millis(100)))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

fn setup(ctx: &Ctx) -> State {
    let server = start("127.0.0.1:0", ServerConfig::default()).expect("start the server");
    let mut c = Client::connect(server.addr()).expect("connect");
    let st = State {
        server,
        preload: ctx.sizes.wire_rows as u64,
    };
    load_table(&st, &mut c, ctx.nproc);
    st
}

/// Create the served table and preload it over the wire: all but the last
/// DELTA_SHARE of the rows are merged, those stay in the delta, so a
/// round's writes cross the scheduler's 2% trigger early and background
/// merges run beside the clients in every round. The table is warmed up and
/// its merges stay paused until a round starts.
fn load_table(st: &State, c: &mut Client, nproc: usize) {
    c.create_table(&TableSpec::volatile(TABLE, COLUMNS as u32, SHARDS))
        .expect("create table");
    let entry = st.server.catalog().get(TABLE).expect("served table");
    entry.scheduler().pause();
    let merged = st.preload - (st.preload as f64 * DELTA_SHARE) as u64;
    let mut insert = |from: u64, to: u64| {
        let mut key = from;
        while key < to {
            let n = 512.min(to - key);
            let rows: Vec<Vec<u64>> = (key..key + n).map(|k| swarm_row(k, COLUMNS)).collect();
            match write_with_retry(|| c.insert(TABLE, &rows)) {
                Ok(Some(_)) => key += n,
                Ok(None) => {}
                Err(e) => panic!("preload failed: {e}"),
            }
        }
    };
    insert(0, merged);
    entry
        .table()
        .merge_all_with(MergeGrant::with_threads(nproc))
        .expect("preload merge");
    insert(merged, st.preload);
    for k in 0..200 {
        let _ = c.query(
            TABLE,
            &Query::scan(0).between(k * 100, k * 100 + 99).count(),
        );
    }
}

/// A read plan from one stream operation, with its exact answer.
fn read_plan(op: Operation, preload: u64) -> Option<(Query<u64>, u64)> {
    let (lo, hi) = match op {
        Operation::Lookup { row } => (row, row),
        Operation::Scan { start, len } => (start, start + len),
        Operation::RangeSelect { lo, hi } => {
            // The stream draws value seeds from a 2^31 domain; fold them
            // into the key space so range selects do real work.
            let lo = lo % preload;
            (lo, lo + (hi - lo) % (preload / 4).max(1))
        }
        _ => return None,
    };
    Some((
        Query::scan(0).between(lo, hi).count(),
        expected(lo, hi, preload),
    ))
}

#[derive(Default)]
struct ClientReport {
    ops: u64,
    failed: u64,
    read_us: Vec<f64>,
    /// 8-row insert round trips, the dominant write.
    insert_us: Vec<f64>,
    /// Per window: operations per second (times the client count), and the
    /// median read and insert round trips.
    window_ops_per_s: Vec<f64>,
    window_read_p50: Vec<f64>,
    window_insert_p50: Vec<f64>,
    inserted: u64,
    deleted: u64,
    errors: Vec<String>,
}

/// One client's write side: the keys it has used and the rows it owns.
#[derive(Default)]
struct Writer {
    /// Client keys are `tag | n`, disjoint from the preload and from other
    /// clients.
    tag: u64,
    next_key: u64,
    owned: Vec<WireRowId>,
    inserted: u64,
    deleted: u64,
}

impl Writer {
    fn new(client: usize) -> Self {
        Self {
            tag: (client as u64 + 1) << 40,
            ..Writer::default()
        }
    }

    fn insert(&mut self, c: &mut Client, n: usize) -> Result<bool, ClientError> {
        let rows: Vec<Vec<u64>> = (0..n as u64)
            .map(|i| swarm_row(self.tag | (self.next_key + i), COLUMNS))
            .collect();
        let Some(ids) = write_with_retry(|| c.insert(TABLE, &rows))? else {
            return Ok(false);
        };
        self.next_key += n as u64;
        self.inserted += ids.len() as u64;
        self.owned.extend_from_slice(&ids);
        Ok(true)
    }

    fn delete(&mut self, c: &mut Client, id: WireRowId) -> Result<bool, ClientError> {
        let done = write_with_retry(|| c.delete(TABLE, &[id]))?.is_some();
        if done {
            self.deleted += 1;
        } else {
            self.owned.push(id);
        }
        Ok(done)
    }

    /// Execute one write operation; `Ok(false)` when a throttled write was
    /// dropped after its retries.
    fn write(&mut self, c: &mut Client, op: Operation) -> Result<bool, ClientError> {
        match op {
            Operation::Insert { .. } => self.insert(c, INSERT_ROWS),
            Operation::Update { .. } => {
                // Insert-only update: a new version, then the client's
                // oldest own row is invalidated.
                if !self.insert(c, 1)? {
                    return Ok(false);
                }
                let old = self.owned.remove(0);
                self.delete(c, old)
            }
            Operation::Delete { .. } => match self.owned.pop() {
                Some(id) => self.delete(c, id),
                None => self.insert(c, INSERT_ROWS),
            },
            _ => unreachable!("reads are not writes"),
        }
    }
}

/// One closed-loop client: its connection and where it is in its stream.
struct ClientState {
    idx: usize,
    c: Client,
    rng: StdRng,
    stream: UpdateStream,
    own: Writer,
    /// Operations issued so far, the request id of the next one.
    ops: u64,
}

impl ClientState {
    fn connect(addr: std::net::SocketAddr, workload: &SwarmWorkload, idx: usize) -> Self {
        Self {
            idx,
            c: Client::connect(addr).expect("connect"),
            rng: StdRng::seed_from_u64(workload.client_seed(idx)),
            stream: workload.stream(idx),
            own: Writer::new(idx),
            ops: 0,
        }
    }

    /// Go back to the start of the stream, for a freshly loaded table.
    fn restart(&mut self, workload: &SwarmWorkload) {
        self.rng = StdRng::seed_from_u64(workload.client_seed(self.idx));
        self.stream = workload.stream(self.idx);
        self.own = Writer::new(self.idx);
    }

    /// Run the next `ops` operations of the stream.
    fn run(&mut self, preload: u64, ops: usize, tr: Option<&Tracer>) -> ClientReport {
        let mut rep = ClientReport::default();
        let (idx, c, own) = (self.idx, &mut self.c, &mut self.own);
        let (inserted, deleted) = (own.inserted, own.deleted);
        let mut window = Instant::now();
        let (mut w_ops, mut w_read, mut w_insert) = (0, 0, 0);
        // Close the current window: its rate and the medians of the round
        // trips it holds.
        let close =
            |rep: &mut ClientReport, start: Instant, ops: usize, read: usize, insert: usize| {
                rep.window_ops_per_s
                    .push((ops * CLIENTS) as f64 / secs(start.elapsed()));
                if rep.read_us.len() > read {
                    rep.window_read_p50.push(median(&rep.read_us[read..]));
                }
                if rep.insert_us.len() > insert {
                    rep.window_insert_p50.push(median(&rep.insert_us[insert..]));
                }
            };
        for _ in 0..ops {
            let op = self.stream.next_op(&mut self.rng);
            let req = ((idx as u64) << 32) | self.ops;
            self.ops += 1;
            let t0 = Instant::now();
            let res: Result<bool, ClientError> = if let Some((plan, want)) = read_plan(op, preload)
            {
                let r = c.query(TABLE, &plan);
                let t1 = Instant::now();
                rep.read_us.push(secs(t1 - t0) * 1e6);
                record(tr, "wire.read", t0, t1, 0, req);
                r.map(|o| {
                    if o != WireOutput::Count(want) && rep.errors.len() < 8 {
                        rep.errors.push(format!(
                            "wire: {:?} returned {o:?}, expected {want}",
                            plan.predicates()
                        ));
                    }
                    true
                })
            } else {
                let r = own.write(c, op);
                let t1 = Instant::now();
                if matches!(op, Operation::Insert { .. }) {
                    rep.insert_us.push(secs(t1 - t0) * 1e6);
                }
                record(tr, "wire.write", t0, t1, 0, req);
                r
            };
            rep.ops += 1;
            match res {
                Ok(true) => {}
                Ok(false) | Err(ClientError::Shed) | Err(ClientError::Server { .. }) => {
                    rep.failed += 1
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.errors.push(format!("wire client {idx}: {e}"));
                    break;
                }
            }
            w_ops += 1;
            if window.elapsed() >= WINDOW {
                close(&mut rep, window, w_ops, w_read, w_insert);
                window = Instant::now();
                (w_ops, w_read, w_insert) = (0, rep.read_us.len(), rep.insert_us.len());
            }
        }
        // A short last window would be a noisy sample; it is dropped.
        if window.elapsed() >= WINDOW / 2 {
            close(&mut rep, window, w_ops, w_read, w_insert);
        }
        rep.inserted = own.inserted - inserted;
        rep.deleted = own.deleted - deleted;
        rep
    }
}

/// Samples of the timed metrics: the rates and medians of every client's
/// windows, and the tails of every round.
#[derive(Default)]
struct Samples {
    ops_per_s: Vec<f64>,
    read_p50: Vec<f64>,
    insert_p50: Vec<f64>,
    read_p999: Vec<f64>,
    insert_p99: Vec<f64>,
}

/// The phase: a served table, its clients, and what the rounds measured.
pub struct Wire {
    out: PhaseOut,
    st: State,
    workload: SwarmWorkload,
    clients: Vec<ClientState>,
    probe: Client,
    samples: Samples,
    rounds: usize,
    reads: usize,
    inserts: usize,
    /// Queued reads, shed reads and throttled writes while the clients ran.
    admission: [u64; 3],
    background_merges: u64,
    delta_rows_end: u64,
    peak_depth: usize,
}

impl Wire {
    /// Start and preload a server `setup_reps` times, keeping the last, and
    /// connect the clients.
    pub fn new(ctx: &Ctx) -> Self {
        let mut out = PhaseOut::default();
        let mut st: Option<State> = None;
        for _ in 0..ctx.setup_reps {
            if let Some(mut old) = st.take() {
                old.server.shutdown();
            }
            let t = Instant::now();
            st = Some(setup(ctx));
            out.setup_s.push(secs(t.elapsed()));
            record(ctx.tr, "setup.wire", t, Instant::now(), 0, 0);
        }
        let st = st.expect("at least one set-up");
        let addr = st.server.addr();
        let workload = SwarmWorkload::oltp(CLIENTS)
            .with_volumes(st.preload, 0)
            .with_insert_batch(INSERT_ROWS)
            .with_seed(ctx.seed);
        let clients = (0..CLIENTS)
            .map(|i| ClientState::connect(addr, &workload, i))
            .collect();
        let probe = Client::connect(addr).expect("connect");
        Pool::global().reset_peak_depth();
        Self {
            out,
            st,
            workload,
            clients,
            probe,
            samples: Samples::default(),
            rounds: 0,
            reads: 0,
            inserts: 0,
            admission: [0; 3],
            background_merges: 0,
            delta_rows_end: 0,
            peak_depth: 0,
        }
    }

    /// One round: every client runs a fixed number of operations while the
    /// scheduler merges in the background, then the table is checked. Each
    /// round reloads the table and restarts the clients' streams first, so
    /// all rounds replay the same operations on the same table.
    pub fn round(&mut self, ctx: &Ctx) {
        self.probe.drop_table(TABLE).expect("drop table");
        load_table(&self.st, &mut self.probe, ctx.nproc);
        let w = &self.workload;
        self.clients.iter_mut().for_each(|c| c.restart(w));
        let ops = (ctx.sizes.wire_ops as f64 * ctx.round_seconds()) as usize;
        let preload = self.st.preload;
        let stats0 = self.probe.table_stats(TABLE).expect("table stats");
        let gate0 = self.st.server.gate().stats();
        pause_merges(&self.st, false);
        let reports: Vec<ClientReport> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| s.spawn(move || c.run(preload, ops, ctx.tr)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        pause_merges(&self.st, true);
        // Let a merge already under way finish before the next phase runs.
        std::thread::sleep(SETTLE);
        self.peak_depth = self.peak_depth.max(Pool::global().peak_queue_depth());
        let gate1 = self.st.server.gate().stats();
        self.admission[0] += gate1.queued_reads - gate0.queued_reads;
        self.admission[1] += gate1.shed_reads - gate0.shed_reads;
        self.admission[2] += gate1.throttled_writes - gate0.throttled_writes;

        let (mut ops, mut read_us, mut insert_us) = (0, Vec::new(), Vec::new());
        let (mut inserted, mut deleted) = (0, 0);
        let sm = &mut self.samples;
        for r in reports {
            ops += r.ops;
            self.out.failed += r.failed;
            read_us.extend(r.read_us);
            insert_us.extend(r.insert_us);
            sm.ops_per_s.extend(r.window_ops_per_s);
            sm.read_p50.extend(r.window_read_p50);
            sm.insert_p50.extend(r.window_insert_p50);
            inserted += r.inserted;
            deleted += r.deleted;
            self.out.errors.extend(r.errors);
        }
        let stats1 = self.probe.table_stats(TABLE).expect("table stats");
        self.background_merges += stats1.merges - stats0.merges;
        self.delta_rows_end = stats1.delta_rows;
        let want = preload + inserted - deleted;
        if stats1.valid_rows != want {
            self.out.errors.push(format!(
                "wire: {} visible rows, expected {want} (preload {preload} + inserted {inserted} - deleted {deleted})",
                stats1.valid_rows
            ));
        }
        self.out.attempted += ops;
        self.reads += read_us.len();
        self.inserts += insert_us.len();
        sm.read_p999.push(quantile(&read_us, 0.999));
        sm.insert_p99.push(quantile(&insert_us, 0.99));
        self.rounds += 1;
    }

    /// Check the served table, run the traced probes and report.
    pub fn finish(mut self, ctx: &Ctx) -> PhaseOut {
        let out = &mut self.out;
        if let Some(tr) = ctx.tr {
            probe_server(tr, &self.st, &self.workload, &mut self.probe, out);
        }
        self.st.server.shutdown();

        let r = &self.samples;
        out.e2e
            .push(Metric::new("wire_ops_per_s", median(&r.ops_per_s), "ops/s"));
        out.e2e
            .push(Metric::new("read_p50_us", median(&r.read_p50), "us"));
        out.e2e.push(Metric::new(
            "wire_write_p50_us",
            median(&r.insert_p50),
            "us",
        ));
        // The read tail is p99.9, the highest percentile with at least ten
        // samples beyond it in a round.
        out.tails
            .push(Metric::new("tail.read_p999_us", median(&r.read_p999), "us"));
        out.tails.push(Metric::new(
            "tail.wire_write_p99_us",
            median(&r.insert_p99),
            "us",
        ));
        out.facts.push((
            "wire_samples".into(),
            format!(
                "{} reads, {} inserts in {} rounds, {} windows",
                self.reads,
                self.inserts,
                self.rounds,
                r.ops_per_s.len()
            ),
        ));
        if ctx.tr.is_some() {
            let per_k = |n: u64| n as f64 * 1e3 / out.attempted.max(1) as f64;
            for (name, n) in ["queued_reads", "shed_reads", "throttled_writes"]
                .iter()
                .zip(self.admission)
            {
                out.layer.push(Metric::new(
                    format!("admission.{name}"),
                    per_k(n),
                    "per_1k_ops",
                ));
            }
            out.layer.push(Metric::new(
                "pool.peak_queue_depth",
                self.peak_depth as f64,
                "count",
            ));
            out.layer.push(Metric::new(
                "merge.background_count",
                self.background_merges as f64,
                "count",
            ));
            out.layer.push(Metric::new(
                "merge.delta_rows_end",
                self.delta_rows_end as f64,
                "count",
            ));
        }
        self.out
    }
}

/// Pause or resume the served table's background merges.
fn pause_merges(st: &State, pause: bool) {
    let entry = st.server.catalog().get(TABLE).expect("served table");
    if pause {
        entry.scheduler().pause();
    } else {
        entry.scheduler().resume();
    }
}

/// Trace-only probes on the idle server: ping round trips, and read round
/// trips set against an in-process run of the same plan.
fn probe_server(
    tr: &Tracer,
    st: &State,
    workload: &SwarmWorkload,
    c: &mut Client,
    out: &mut PhaseOut,
) {
    const PINGS: u64 = 1000;
    const READS: u64 = 300;
    for i in 0..PINGS {
        let t0 = Instant::now();
        c.ping().expect("ping");
        record(Some(tr), "server.ping", t0, Instant::now(), 0, i);
    }
    let entry = st.server.catalog().get(TABLE).expect("served table");
    let table = entry.table();
    let mut rng = StdRng::seed_from_u64(workload.client_seed(CLIENTS));
    let mut stream = workload.stream(CLIENTS);
    let mut overhead = Vec::new();
    let mut i = 0;
    while i < READS {
        let Some((plan, _)) = read_plan(stream.next_op(&mut rng), st.preload) else {
            continue;
        };
        let t0 = Instant::now();
        let wire = c.query(TABLE, &plan);
        let t1 = Instant::now();
        let local = std::hint::black_box(plan.run(&**table));
        let t2 = Instant::now();
        record(Some(tr), "probe.wire_read", t0, t1, 0, i);
        record(Some(tr), "query.exec", t1, t2, 0, i);
        if wire.ok() != Some(WireOutput::from_output(local)) {
            out.errors
                .push(format!("wire: {:?} differs in process", plan.predicates()));
        }
        overhead.push(secs(t1 - t0) * 1e6 - secs(t2 - t1) * 1e6);
        i += 1;
    }
    out.layer.push(Metric::new(
        "server.ping_p50_us",
        median(&tr.durations_us("server.ping")),
        "us",
    ));
    out.layer.push(Metric::new(
        "server.read_overhead_p50_us",
        median(&overhead),
        "us",
    ));
    out.layer.push(Metric::new(
        "query.exec_p50_us",
        median(&tr.durations_us("query.exec")),
        "us",
    ));
}
