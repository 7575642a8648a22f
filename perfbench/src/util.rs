//! Small helpers shared by the phases: deterministic value hashing,
//! order statistics, process I/O counters and machine facts.

use std::path::Path;
use std::time::{Duration, Instant};

/// Shortest sampling window of the scan and wire timings. Each timing is a
/// median (or a rate) per window, and the result the median over all
/// windows of the run: interference on a shared machine that lasts a
/// second or two spoils a few windows and moves the result little.
pub const WINDOW: Duration = Duration::from_millis(100);

/// SplitMix64 finaliser: a fixed, seedable hash from which every generated
/// value is derived, so the same seed always yields the same inputs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of (seed, a, b): the generated value of cell `b` of row `a`.
pub fn cell(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a.wrapping_mul(0x1000_0000_01B3) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)))
}

/// The `q` quantile (0..=1) of `xs` by nearest rank; `xs` need not be
/// sorted. Returns 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Bytes and write syscalls the process has issued so far
/// (`wchar`/`syscw` of `/proc/self/io`). Zero where the file is absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoCounters {
    pub wchar: u64,
    pub syscw: u64,
}

impl IoCounters {
    pub fn now() -> Self {
        let mut c = IoCounters::default();
        if let Ok(s) = std::fs::read_to_string("/proc/self/io") {
            for line in s.lines() {
                let mut it = line.split(':');
                let (Some(k), Some(v)) = (it.next(), it.next()) else {
                    continue;
                };
                let v: u64 = v.trim().parse().unwrap_or(0);
                match k {
                    "wchar" => c.wchar = v,
                    "syscw" => c.syscw = v,
                    _ => {}
                }
            }
        }
        c
    }

    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

/// Size in bytes of the data or unified cache at `level` of CPU 0, from
/// sysfs; 0 when not reported.
pub fn cache_bytes(level: u32) -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    for e in entries.flatten() {
        let p = e.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1024),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024 * 1024),
                None => (size, 1),
            },
        };
        return num.parse::<u64>().unwrap_or(0) * mult;
    }
    0
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`), or "unknown".
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || !abs.starts_with(f[1]) {
            continue;
        }
        if best.as_ref().is_none_or(|(len, _)| f[1].len() > *len) {
            best = Some((f[1].len(), f[2].to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Median wall time in seconds of `reps` calls of `f`.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t.elapsed())
        })
        .collect();
    median(&times)
}
