//! Table construction: [`ShardedTableBuilder`] and [`Durability`].
//!
//! Durability made construction configuration-heavy — columns, a WAL
//! directory and fsync policy, sharding layout — so one builder is the
//! construction surface. A 1-shard table is the paper's single table:
//!
//! ```
//! use hyrise_core::{Durability, ShardedTable};
//! # fn main() -> hyrise_core::Result<()> {
//! let table: ShardedTable<u64> = ShardedTable::builder()
//!     .columns(3)
//!     .durability(Durability::None)
//!     .build()?;
//! assert_eq!(table.num_shards(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! A durable table writes its manifests and opens each shard's first WAL
//! segment at build time; building over a directory that already holds a
//! table is a [`Error::Config`] — re-open those with
//! [`crate::recovery::recover_sharded`].

use crate::error::{Error, Result};
use crate::manager::OnlineTable;
use crate::pipeline::SpareBank;
use crate::shard::{check_layout, ShardBy, ShardedTable};
use crate::wal::{self, Wal};
use hyrise_storage::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Whether (and how) a table's delta survives a crash.
#[derive(Clone, Debug, Default)]
pub enum Durability {
    /// In-memory only — the existing zero-I/O path, byte-for-byte. A
    /// crash loses the delta (and everything else).
    #[default]
    None,
    /// Append a write-ahead record per insert batch / validity flip to
    /// `dir`, so [`crate::recovery::recover_sharded`] rebuilds the table
    /// after a crash.
    Wal {
        /// The table's root directory: the sharded manifest plus one
        /// `shard-<i>/` directory per shard (manifest, WAL segments,
        /// checkpoint, merge log). One table per directory.
        dir: PathBuf,
        /// `true`: records are fdatasync'd before the rows become
        /// visible — durable against power loss, at a large insert
        /// latency cost. `false` (*buffered*): records reach the OS
        /// page cache before the rows become visible — durable against
        /// process death (`kill -9`), not against kernel panic or power
        /// loss.
        fsync: bool,
    },
}

/// One shard of a fresh table: `n_cols` columns sharing `bank`, logging
/// into `wal_dir` (directory, fsync policy) when durable.
fn build_shard<V: Value>(
    n_cols: usize,
    bank: &Arc<SpareBank<V>>,
    wal_dir: Option<(PathBuf, bool)>,
) -> Result<OnlineTable<V>> {
    let mut table = OnlineTable::new(n_cols).with_spare_bank(Arc::clone(bank));
    if let Some((dir, fsync)) = wal_dir {
        table.set_wal(Some(open_fresh_wal::<V>(&dir, fsync, n_cols)?));
    }
    Ok(table)
}

/// Create `dir`, refuse it if it already holds a table, write the
/// manifest, and open segment 0.
fn open_fresh_wal<V: Value>(dir: &Path, fsync: bool, n_cols: usize) -> Result<Wal<V>> {
    std::fs::create_dir_all(dir).map_err(|e| Error::io("create table directory", e))?;
    if wal::manifest_exists(dir) || !wal::list_segments(dir)?.is_empty() {
        return Err(Error::config(format!(
            "{} already holds a table; re-open it with hyrise_core::recover_sharded",
            dir.display()
        )));
    }
    wal::write_manifest(
        dir,
        &wal::Manifest {
            n_cols,
            value_bytes: V::BYTES,
            fsync,
        },
    )?;
    Wal::create(dir, fsync, 0)
}

/// Builder for [`ShardedTable`]: shard count or range bounds, routing key
/// column, columns per shard and durability.
///
/// With [`Durability::Wal`] the directory becomes the *root*: a sharded
/// manifest plus one `shard-<i>/` table directory per shard, each with
/// its own segments and checkpoint.
#[derive(Debug)]
pub struct ShardedTableBuilder<V> {
    shards: Option<usize>,
    by: ShardBy<V>,
    key_col: usize,
    columns: usize,
    durability: Durability,
}

impl<V: Value> ShardedTableBuilder<V> {
    /// An empty builder: 1 hash shard, 1 column, key column 0,
    /// [`Durability::None`].
    pub fn new() -> Self {
        Self {
            shards: None,
            by: ShardBy::Hash,
            key_col: 0,
            columns: 1,
            durability: Durability::None,
        }
    }

    /// Number of shards (hash partitioning only; range partitioning
    /// derives the count from its bounds).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Routing scheme. [`ShardBy::Range`] bounds must be strictly
    /// ascending and imply `bounds.len() + 1` shards.
    pub fn partitioning(mut self, by: ShardBy<V>) -> Self {
        self.by = by;
        self
    }

    /// Route on `col` instead of column 0.
    pub fn key_col(mut self, col: usize) -> Self {
        self.key_col = col;
        self
    }

    /// Number of columns per shard.
    pub fn columns(mut self, n: usize) -> Self {
        self.columns = n;
        self
    }

    /// Crash-durability policy (per shard, under one root directory).
    pub fn durability(mut self, d: Durability) -> Self {
        self.durability = d;
        self
    }

    /// Build the sharded table, validating the layout first
    /// ([`Error::Config`] on unsorted range bounds, a shard-count
    /// mismatch, zero shards/columns, or a key column out of range). A
    /// durable build also fails with [`Error::Config`] over a directory
    /// that already holds a table, and with [`Error::Io`] when a
    /// directory, manifest or segment cannot be created.
    pub fn build(self) -> Result<ShardedTable<V>> {
        let num_shards = match &self.by {
            ShardBy::Hash => self.shards.unwrap_or(1),
            ShardBy::Range(bounds) => self.shards.unwrap_or(bounds.len() + 1),
        };
        check_layout(&self.by, num_shards, self.key_col, self.columns).map_err(Error::config)?;
        let bank = Arc::new(SpareBank::new());
        let mut shards = Vec::with_capacity(num_shards);
        for i in 0..num_shards {
            let wal_dir = match &self.durability {
                Durability::Wal { dir, fsync } => Some((wal::shard_dir(dir, i), *fsync)),
                Durability::None => None,
            };
            shards.push(build_shard(self.columns, &bank, wal_dir)?);
        }
        if let Durability::Wal { dir, fsync } = &self.durability {
            wal::write_sharded_manifest(
                dir,
                &wal::ShardedManifest {
                    n_shards: num_shards,
                    n_cols: self.columns,
                    value_bytes: V::BYTES,
                    fsync: *fsync,
                    key_col: self.key_col,
                    by: self.by.clone(),
                },
            )?;
        }
        Ok(ShardedTable::from_parts(shards, self.by, self.key_col))
    }
}

impl<V: Value> Default for ShardedTableBuilder<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_new() {
        let t: ShardedTable<u64> = ShardedTable::builder().columns(3).build().unwrap();
        assert_eq!(t.num_shards(), 1);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn zero_columns_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .columns(0)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn unsorted_range_bounds_are_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .partitioning(ShardBy::Range(vec![200, 100]))
            .columns(1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn shard_count_mismatch_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .shards(5)
            .partitioning(ShardBy::Range(vec![100]))
            .columns(1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn key_col_out_of_range_is_a_config_error() {
        let err = ShardedTable::<u64>::builder()
            .shards(2)
            .columns(2)
            .key_col(2)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
    }

    #[test]
    fn building_over_an_existing_table_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "hyrise-config-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            ShardedTable::<u64>::builder()
                .columns(2)
                .durability(Durability::Wal {
                    dir: dir.clone(),
                    fsync: false,
                })
                .build()
        };
        drop(build().unwrap());
        let err = build().map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::Config { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
