//! End-to-end benchmark of the column store.
//!
//! One invocation runs three phases — `oltp_wire` (the OLTP mix through
//! the network service), `olap_scan` (compressed scans through the morsel
//! executor) and `ingest_merge` (durable writes through repeated merge
//! cycles) — in short interleaved rounds, checks every answer against an
//! oracle, and prints one JSON result line. Every timing is a median over
//! short sampling windows (over repeated ingest tables for the ingest
//! numbers), so a burst of interference on a shared machine spoils a few
//! samples and not the result. The workload argument picks the data sizes: `fits_l2` keeps
//! every table's packed codes within a core's L2 cache, `beyond_l2` makes
//! them many times larger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fits_l2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 1` the run is made twice, untraced and then traced, and
//! the result holds the per-layer metrics derived from the traced run's
//! spans plus the tracing overhead on every end-to-end metric. Spans are
//! written to `.bench_run/` when the run ends.

mod ingest;
mod olap;
mod trace;
mod util;
mod wire;

use hyrise_core::{calibrate, MachineProfile};
use hyrise_storage::MemoryReport;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use util::{median, secs};

/// Table sizes and round counts of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Merged rows of the 4-column scan table.
    pub olap_rows: usize,
    /// Preloaded, merged rows of the 8-column durable table.
    pub ingest_rows: usize,
    /// Merge cycles the writer runs through on one ingest table.
    pub ingest_merges: usize,
    /// Ingest tables built and written through, one after another.
    pub ingest_tables: usize,
    /// Rows preloaded over the wire into the served table.
    pub wire_rows: usize,
    /// Operations per client per second of `--seconds`.
    pub wire_ops: usize,
    /// Rounds the wire and olap phases' timed work is cut into.
    pub rounds: usize,
}

fn sizes(workload: &str) -> Option<Sizes> {
    match workload {
        // Scan table: 256K rows of 18+17+10+4-bit codes ≈ 1.6 MB.
        "fits_l2" => Some(Sizes {
            olap_rows: 256 << 10,
            ingest_rows: 128 << 10,
            ingest_merges: 32,
            ingest_tables: 6,
            wire_rows: 64 << 10,
            wire_ops: 2400,
            rounds: 16,
        }),
        // Scan table: 16M rows of 24+17+10+4-bit codes ≈ 110 MB.
        "beyond_l2" => Some(Sizes {
            olap_rows: 16 << 20,
            ingest_rows: 4 << 20,
            ingest_merges: 5,
            ingest_tables: 3,
            wire_rows: 256 << 10,
            wire_ops: 800,
            rounds: 10,
        }),
        _ => None,
    }
}

/// Set-up repetitions of the wire and olap phases; `setup_s` sums each
/// phase's median set-up time. A traced run makes two passes with half
/// the rounds and ingest tables each, so it stays well inside the time one
/// run may take.
const SETUP_REPS: usize = 3;
const TRACED_SETUP_REPS: usize = 2;

#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub seed: u64,
    pub nproc: usize,
    pub sizes: Sizes,
    /// The `--seconds` argument.
    pub seconds: f64,
    /// Set-up repetitions of the wire and olap phases in this pass.
    pub setup_reps: usize,
    /// Rounds in this pass; each is as long as in an untraced run.
    pub rounds: usize,
    /// Ingest tables in this pass.
    pub ingest_tables: usize,
    pub tr: Option<&'a Tracer>,
    /// Scratch directory inside the checkout (WAL, span dumps).
    pub work_dir: &'a Path,
    /// Single-thread calibration (traced runs only).
    pub profile1: Option<&'a MachineProfile>,
    /// `nproc`-thread calibration (traced runs only).
    pub profile_n: Option<&'a MachineProfile>,
}

impl Ctx<'_> {
    /// The untraced run's share of `--seconds` that one round takes.
    pub fn round_seconds(&self) -> f64 {
        self.seconds / self.sizes.rounds as f64
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one phase reports.
#[derive(Default)]
pub struct PhaseOut {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub e2e: Vec<Metric>,
    pub layer: Vec<Metric>,
    /// Tail latencies, reported with the per-layer metrics: under CPU
    /// contention on a shared machine they move too far from run to run
    /// to hold an end-to-end bound.
    pub tails: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any makes the run fail.
    pub errors: Vec<String>,
    /// Memory of the phase's table at the end, and the values it stores.
    pub memory: Option<(MemoryReport, usize)>,
    /// Facts printed with the result.
    pub facts: Vec<(String, String)>,
}

/// One pass over the three phases, their results merged.
fn pass(ctx: &Ctx) -> PhaseOut {
    let mut wire = wire::Wire::new(ctx);
    let mut olap = olap::Olap::new(ctx);
    let mut ingest = ingest::Ingest::default();
    // The timed work runs in short rounds with the phases interleaved, and
    // the ingest tables are spread evenly over them, so each phase's samples
    // are taken across the whole run.
    let mut table = 0;
    for round in 0..ctx.rounds {
        let t = Instant::now();
        wire.round(ctx);
        let t_olap = Instant::now();
        olap.round(ctx);
        let t_ingest = Instant::now();
        while table < ctx.ingest_tables && table * ctx.rounds <= round * ctx.ingest_tables {
            table += 1;
            ingest.table(ctx, table == ctx.ingest_tables);
        }
        eprintln!(
            "  round {round}: oltp_wire {:.2} s, olap_scan {:.2} s, ingest_merge {:.2} s",
            secs(t_olap - t),
            secs(t_ingest - t_olap),
            secs(t_ingest.elapsed())
        );
    }
    let phases = [wire.finish(ctx), olap.finish(ctx), ingest.finish(ctx)];

    let mut p = PhaseOut::default();
    let setup: f64 = phases.iter().map(|ph| median(&ph.setup_s)).sum();
    p.e2e.push(Metric::new("setup_s", setup, "s"));
    let (mem, values) = phases
        .iter()
        .filter_map(|ph| ph.memory)
        .fold((MemoryReport::default(), 0), |(m, v), (pm, pv)| {
            (m + pm, v + pv)
        });
    let per_value = |bytes: usize| bytes as f64 / values as f64;
    p.e2e.push(Metric::new(
        "mem_bytes_per_value",
        per_value(mem.total()),
        "B/value",
    ));
    if ctx.tr.is_some() {
        p.layer.push(Metric::new(
            "mem.main_codes_bpv",
            per_value(mem.main_codes),
            "B/value",
        ));
        p.layer.push(Metric::new(
            "mem.main_dict_bpv",
            per_value(mem.main_dict),
            "B/value",
        ));
        p.layer.push(Metric::new(
            "mem.delta_bpv",
            per_value(mem.delta_total()),
            "B/value",
        ));
    }
    for ph in phases {
        p.e2e.extend(ph.e2e);
        p.layer.extend(ph.layer);
        p.tails.extend(ph.tails);
        p.attempted += ph.attempted;
        p.failed += ph.failed;
        p.errors.extend(ph.errors);
        p.facts.extend(ph.facts);
    }
    p
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fits_l2|beyond_l2> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(sizes) = sizes(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (fits_l2, beyond_l2)",
            args.workload
        );
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&work_dir).expect("create the scratch directory");

    let (profile1, profile_n) = if args.trace {
        eprintln!("calibrating memory bandwidth");
        (Some(calibrate(1)), Some(calibrate(nproc)))
    } else {
        (None, None)
    };
    let mut ctx = Ctx {
        seed: args.seed,
        nproc,
        sizes,
        seconds: args.seconds,
        setup_reps: if args.trace {
            TRACED_SETUP_REPS
        } else {
            SETUP_REPS
        },
        rounds: if args.trace {
            (sizes.rounds / 2).max(2)
        } else {
            sizes.rounds
        },
        ingest_tables: if args.trace {
            (sizes.ingest_tables / 2).max(2)
        } else {
            sizes.ingest_tables
        },
        tr: None,
        work_dir: &work_dir,
        profile1: profile1.as_ref(),
        profile_n: profile_n.as_ref(),
    };

    let mut facts = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("nproc".into(), nproc.to_string()),
        ("l2_bytes".into(), util::cache_bytes(2).to_string()),
        ("l3_bytes".into(), util::cache_bytes(3).to_string()),
        ("wal_dir_fs".into(), json_str(&util::fs_type(&work_dir))),
        ("fsync".into(), "false".into()),
        ("sizes".into(), json_str(&format!("{sizes:?}"))),
    ];
    if let Some(m) = &profile1 {
        facts.push((
            "stream_gbps_1thread".into(),
            json_num(m.streaming_bytes_per_cycle * m.hz / 1e9),
        ));
    }

    eprintln!("untraced pass");
    let mut plain = pass(&ctx);
    let mut errors = std::mem::take(&mut plain.errors);
    let (metrics, attempted, failed, extra_facts) = if args.trace {
        let tracer = Tracer::new();
        ctx.tr = Some(&tracer);
        eprintln!("traced pass");
        let traced = pass(&ctx);
        errors.extend(traced.errors);
        let mut metrics = traced.layer;
        metrics.extend(std::mem::take(&mut plain.tails));
        for (t, u) in traced.e2e.iter().zip(&plain.e2e) {
            debug_assert_eq!(t.name, u.name);
            metrics.push(Metric::new(
                format!("trace.overhead.{}", t.name),
                t.value - u.value,
                t.unit,
            ));
        }
        let dump = work_dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.dump(&dump) {
            Ok(n) => facts.push((
                "spans".into(),
                json_str(&format!("{n} in {}", dump.display())),
            )),
            Err(e) => errors.push(format!("writing spans to {}: {e}", dump.display())),
        }
        (metrics, traced.attempted, traced.failed, traced.facts)
    } else {
        (plain.e2e, plain.attempted, plain.failed, plain.facts)
    };
    for (k, v) in extra_facts {
        facts.push((k, json_str(&v)));
    }

    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let machine: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("machine {{{}}}", machine.join(", "));
    for m in &metrics {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
