//! `repro commit_scaling`: the three hot-path primitives this repo's MVCC
//! machinery puts on every commit and every snapshot, measured standalone
//! and end-to-end at 1/4/8 worker threads.
//!
//! Emitted metrics (ops/second, per thread count):
//!
//! * `clock_ops` — raw [`bamboo_core::db::CommitClock`] `allocate`+`finish`
//!   pairs, the per-commit timestamp cost every protocol pays around its
//!   commit point.
//! * `snapshot_ops` — `register_snapshot`+`release_snapshot` pairs, the
//!   per-snapshot begin/end cost of the MVCC read path.
//! * `commit_tput` — end-to-end committed single-update transactions
//!   through [`bamboo_core::executor::run_bench`] under Bamboo, with each
//!   worker updating a private key range so the lock table is uncontended
//!   and the commit pipeline (clock + WAL + install + watermark)
//!   dominates.
//!
//! Output is a JSON document with two sections: `baseline` (the numbers
//! recorded *before* the lock-free commit-pipeline rework, frozen below)
//! and `current` (measured by this run). CI uploads the file as
//! `BENCH_commit_scaling.json`; the committed copy at the repo root is the
//! first point of the perf trajectory.

use std::sync::Arc;
use std::time::Duration;

use bamboo_core::executor::{run_bench, BenchConfig, TxnSpec, Workload};
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::sync::atomic::{AtomicBool, Ordering};
use bamboo_core::{Abort, Database, Txn};
use bamboo_storage::{DataType, Row, Schema, TableId, Value};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::harness::{emit, run_workers, Args};

/// Flags `repro commit_scaling` accepts.
pub const FLAGS: &[&str] = &["--duration-ms", "--out"];

/// `repro commit_scaling` options.
#[derive(Debug)]
pub struct Opts {
    /// Measured duration per primitive and thread count.
    pub duration: Duration,
    /// JSON output file (stdout when absent).
    pub out: Option<String>,
}

impl Opts {
    /// Reads the options from a parsed command line.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        Ok(Opts {
            duration: args.millis("--duration-ms", Duration::from_millis(200))?,
            out: args.text("--out")?,
        })
    }
}

/// Thread counts swept.
const THREADS: &[usize] = &[1, 4, 8];

/// Pre-change baseline, measured on a 1-CPU container at commit `adbb9b8`
/// with the mutex-based `CommitClock` (`Mutex<BTreeSet>`) and mutex
/// `SnapshotRegistry` (mean of two 300 ms/point runs).
const BASELINE: Measurement = Measurement {
    label: "mutex commit clock + mutex snapshot registry (pre lock-free rework, commit adbb9b8)",
    clock_ops: [18_245_501.0, 19_957_228.0, 19_431_122.0],
    snapshot_ops: [12_858_771.0, 18_041_557.0, 18_899_665.0],
    commit_tput: [1_230_015.0, 1_147_736.0, 1_053_421.0],
};

/// One full sweep: ops/second per metric, indexed like [`THREADS`].
struct Measurement {
    label: &'static str,
    clock_ops: [f64; 3],
    snapshot_ops: [f64; 3],
    commit_tput: [f64; 3],
}

/// Ops/second of `pair`, run in batches of 64 on `threads` workers.
fn pairs_per_sec(threads: usize, dur: Duration, pair: impl Fn() + Sync) -> f64 {
    let (ops, elapsed) = run_workers(threads, dur, |_, stop: &AtomicBool| {
        let mut ops = 0u64;
        while !stop.load(Ordering::Relaxed) {
            for _ in 0..64 {
                pair();
            }
            ops += 64;
        }
        ops
    });
    ops.iter().sum::<u64>() as f64 / elapsed.as_secs_f64()
}

/// Keys per worker in the private-range commit workload.
const KEYS_PER_WORKER: u64 = 16;

/// Single-update transactions, each worker on its own key range.
struct PrivateKeys {
    table: TableId,
}

struct Increment {
    table: TableId,
    key: u64,
}

impl TxnSpec for Increment {
    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        txn.update(self.table, self.key, |row| {
            row.set(1, Value::I64(row.get_i64(1) + 1))
        })
    }
}

impl Workload for PrivateKeys {
    fn name(&self) -> &str {
        "private_keys"
    }

    fn generate(&self, worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        Box::new(Increment {
            table: self.table,
            key: worker as u64 * KEYS_PER_WORKER + rng.gen_range(0..KEYS_PER_WORKER),
        })
    }
}

fn commits_per_sec(threads: usize, dur: Duration) -> f64 {
    let mut b = Database::builder();
    let table = b.add_table(
        "kv",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
    );
    let db = b.build();
    for k in 0..(threads as u64 * KEYS_PER_WORKER) {
        db.table(table)
            .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
    }
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let wl: Arc<dyn Workload> = Arc::new(PrivateKeys { table });
    let cfg = BenchConfig::quick(threads)
        .with_duration(dur)
        .with_warmup(Duration::ZERO);
    run_bench(&db, &proto, &wl, &cfg).throughput()
}

fn sweep(dur: Duration) -> Measurement {
    let mut m = Measurement {
        label: "lock-free commit pipeline",
        clock_ops: [0.0; 3],
        snapshot_ops: [0.0; 3],
        commit_tput: [0.0; 3],
    };
    for (i, &threads) in THREADS.iter().enumerate() {
        let db = Database::builder().build();
        m.clock_ops[i] = pairs_per_sec(threads, dur, || {
            let ts = db.commit_clock.allocate();
            db.commit_clock.finish(ts);
        });
        m.snapshot_ops[i] = pairs_per_sec(threads, dur, || {
            db.release_snapshot(db.register_snapshot());
        });
        m.commit_tput[i] = commits_per_sec(threads, dur);
        eprintln!(
            "threads={threads:<2} clock={:>12.0} ops/s  snapshot={:>12.0} ops/s  commits={:>10.0} txn/s",
            m.clock_ops[i], m.snapshot_ops[i], m.commit_tput[i]
        );
    }
    m
}

fn json_section(m: &Measurement) -> String {
    let series = |v: &[f64; 3]| {
        THREADS
            .iter()
            .zip(v.iter())
            .map(|(t, ops)| format!("{{\"threads\": {t}, \"ops_per_sec\": {ops:.0}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n    \"label\": \"{}\",\n    \"clock_ops\": [{}],\n    \"snapshot_ops\": [{}],\n    \"commit_tput\": [{}]\n  }}",
        m.label,
        series(&m.clock_ops),
        series(&m.snapshot_ops),
        series(&m.commit_tput)
    )
}

/// Runs the sweep and writes `BENCH_commit_scaling.json`.
pub fn run(opts: &Opts) {
    let current = sweep(opts.duration);
    let doc = format!(
        "{{\n  \"bench\": \"commit_scaling\",\n  \"threads\": {THREADS:?},\n  \"baseline\": {},\n  \"current\": {}\n}}\n",
        json_section(&BASELINE),
        json_section(&current)
    );
    emit(opts.out.as_deref(), &doc);
}
