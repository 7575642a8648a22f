//! End-to-end acceptance: a live server, a durable table, and a swarm of
//! wire clients inserting and querying concurrently while the merge
//! scheduler runs underneath — checked against an in-memory oracle
//! rebuilt from the swarm's own report. Then the write-burst half: a
//! write-heavy swarm against a tight backlog limit observably trips the
//! throttle valve, and the merge scheduler catches the backlog back up.

use hyrise_query::Query;
use hyrise_server::admission::AdmissionConfig;
use hyrise_server::catalog::CatalogConfig;
use hyrise_server::protocol::TableSpec;
use hyrise_server::server::{start, ServerConfig};
use hyrise_server::swarm::drive_swarm;
use hyrise_server::Client;
use hyrise_workload::{QueryMix, SwarmWorkload};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hyrise-server-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn swarm_against_durable_table_matches_oracle_while_merging() {
    let dir = scratch_dir("oracle");
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            // Every swarm client owns a connection for its whole run, so
            // the pool must out-size the swarm.
            workers: 8,
            catalog: CatalogConfig {
                data_dir: Some(dir.clone()),
                ..CatalogConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = srv.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.create_table(&TableSpec::durable("ledger", 3, 2, false))
        .unwrap();

    let workload = SwarmWorkload::oltp(4)
        .with_volumes(2_000, 300)
        .with_insert_batch(4);
    let report = drive_swarm(&addr, "ledger", &workload).unwrap();
    // Delete ops with nothing yet owned are skipped, so ops is bounded by,
    // but not necessarily equal to, the nominal volume.
    assert!(report.ops > 0 && report.ops <= workload.total_ops() as u64);
    assert!(report.lookups + report.range_reads > 0, "mix ran reads");
    assert!(report.rows_inserted > 0, "mix ran writes");

    // The scheduler merged underneath the swarm (delta_fraction 0.02 over
    // 2k+ rows trips many times during the run).
    let entry = srv.catalog().get("ledger").unwrap();
    assert!(
        entry.scheduler().stats().merges > 0,
        "merges must have run during the swarm"
    );

    // Oracle: preload keys plus the report's inserted keys, minus its
    // deleted keys. Every key is unique (preload 0..N, clients tag-disjoint),
    // so set arithmetic is exact.
    let mut expected: HashSet<u64> = (0..workload.initial_rows).collect();
    for k in &report.inserted_keys {
        assert!(expected.insert(*k), "key {k} inserted twice");
    }
    for k in &report.deleted_keys {
        assert!(expected.remove(k), "deleted key {k} never inserted");
    }

    // Row-count level: the server's valid-row accounting matches.
    let stats = c.table_stats("ledger").unwrap();
    assert_eq!(stats.valid_rows, expected.len() as u64);
    assert_eq!(
        stats.rows,
        workload.initial_rows + report.rows_inserted,
        "physical rows = preload + inserts (deletes only invalidate)"
    );

    // Key level: point lookups agree with the oracle for present, deleted,
    // and never-inserted keys.
    let count_of = |c: &mut Client, key: u64| {
        c.query("ledger", &Query::scan(0).eq(key).count())
            .unwrap()
            .count()
            .unwrap()
    };
    let deleted: Vec<u64> = report.deleted_keys.iter().copied().take(40).collect();
    for k in &deleted {
        assert_eq!(count_of(&mut c, *k), 0, "deleted key {k} visible");
    }
    for k in report
        .inserted_keys
        .iter()
        .filter(|k| expected.contains(k))
        .take(40)
    {
        assert_eq!(count_of(&mut c, *k), 1, "live key {k} missing");
    }
    assert_eq!(
        count_of(&mut c, workload.initial_rows + 1),
        0,
        "phantom key"
    );

    // Aggregate level: preload keys are never deleted (clients only delete
    // rows they inserted), so the sum over the preload key range is exact.
    let n = workload.initial_rows;
    let out = c
        .query("ledger", &Query::scan(0).between(0, n - 1).sum(0))
        .unwrap();
    assert_eq!(out.sum(), Some((n as u128) * (n as u128 - 1) / 2));

    // Full-table count through the scan path agrees with the stats path.
    let out = c.query("ledger", &Query::scan(0).count()).unwrap();
    assert_eq!(out.count(), Some(expected.len() as u64));

    // Durability is real: the table's WAL lives under data_dir/<name>.
    assert!(dir.join("ledger").is_dir());
    srv.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_burst_swarm_trips_the_throttle_and_merge_catches_up() {
    let mut srv = start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            admission: AdmissionConfig {
                // Tight backlog against batch-heavy writers.
                write_backlog_limit: 2_500,
                write_release_fraction: 0.5,
                throttle_retry_after: Duration::from_millis(2),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = srv.addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    c.create_table(&TableSpec::volatile("burst", 2, 2)).unwrap();

    // Hold merges off so the burst deterministically outruns the drain —
    // the Equation 1 race with the merge side pinned at zero. The preload
    // (500 rows) stays under the limit, so only the swarm's writers trip
    // the valve.
    let entry = srv.catalog().get("burst").unwrap();
    entry.scheduler().pause();

    let workload = SwarmWorkload::oltp(4)
        .with_mix(QueryMix::tpcc()) // 46% writes: the paper's burst case
        .with_volumes(500, 200)
        .with_insert_batch(32);
    let report = drive_swarm(&addr, "burst", &workload).unwrap();

    // The gate observably throttled writers, both in the swarm's own
    // accounting and in the server's counters.
    assert!(report.throttled > 0, "burst never throttled: {report:?}");
    let gate_stats = srv.gate().stats();
    assert!(gate_stats.throttled_writes > 0, "{gate_stats:?}");
    // Reads were never punished for the write burst.
    assert_eq!(gate_stats.shed_reads, 0, "{gate_stats:?}");
    // Backlog really did exceed the limit at some point.
    assert!(
        entry.table().delta_len() > 2_500,
        "delta backlog should be past the limit while paused"
    );

    // Merge catches back up: resume the scheduler and the backlog drains
    // below the release line within the time bound.
    entry.scheduler().resume();
    let deadline = Instant::now() + Duration::from_secs(30);
    while entry.table().delta_len() >= 1_250 {
        assert!(Instant::now() < deadline, "merge never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The daemon counts a merge only after it returns, so the drained
    // delta can be visible before the counter moves: poll under the same
    // deadline.
    while entry.scheduler().stats().merges == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(entry.scheduler().stats().merges > 0);

    // With the valve open again a writer is admitted straight away.
    c.insert("burst", &[vec![9_999, 1], vec![9_998, 2]])
        .unwrap();

    // The swarm's report still reconciles: dropped writes (retries
    // exhausted during the paused phase) are excluded from its counts, so
    // accounting stays exact.
    let stats = c.table_stats("burst").unwrap();
    assert_eq!(
        stats.rows,
        workload.initial_rows + report.rows_inserted + 2,
        "rows = preload + admitted swarm inserts + the final probe"
    );
    assert_eq!(
        stats.valid_rows,
        workload.initial_rows + report.rows_inserted + 2 - report.deletes,
    );
    srv.shutdown();
}
