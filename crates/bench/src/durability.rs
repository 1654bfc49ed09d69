//! `repro durability`: what the WAL costs and what recovery buys back.
//!
//! Three sweeps, all over the partitioned bank (transfers from a
//! partition-0 account to a partition-1 account, so every commit is a
//! genuine group commit spanning two per-partition WALs):
//!
//! * **fsync sweep** — committed throughput and commit-latency
//!   percentiles (p50/p99/p999) of synchronous transfers, driven by
//!   [`run_part_bench`], under the in-memory ring baseline and both
//!   durable fsync policies (`never`, `group_commit`). The spread is the
//!   headline: how much of the commit path the durability horizon costs,
//!   from "buffered appends only" to "every ack survives `kill -9`".
//! * **group-commit bench** — deferred-ack flights
//!   ([`bamboo_core::Session::run_many`]) against synchronous commits
//!   under the same policy (the fsync sweep's `group_commit` run): locks
//!   release and versions install immediately, a few leader fsyncs cover
//!   the whole flight, acks ride the durability horizon. Written to a
//!   separate `BENCH_group_commit.json` when `--group-out` is given.
//! * **recovery sweep** — wall-clock time of `PartitionedDb::recover` as
//!   the replayable log grows (transfers past the genesis checkpoint),
//!   split into restore + replay by the recovery report's counters.
//!
//! Output: `BENCH_durability.json` (and optionally
//! `BENCH_group_commit.json`) — committed at the repo root and
//! regenerated by CI each run.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_core::executor::{run_part_bench, BenchConfig, TxnSpec, Workload};
use bamboo_core::partition::{PartSession, PartitionedDb};
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::stats::{BenchResult, WorkerStats};
use bamboo_core::sync::atomic::Ordering;
use bamboo_core::{Abort, DbOptions, Txn};
use bamboo_storage::{
    DataType, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema, TableId, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{best_of, emit, run_workers, Args};

/// Flags `repro durability` accepts.
pub const FLAGS: &[&str] = &[
    "--duration-ms",
    "--threads",
    "--repeat",
    "--batch",
    "--txns",
    "--out",
    "--group-out",
];

/// `repro durability` options.
#[derive(Debug)]
pub struct Opts {
    /// Measured duration per run.
    pub duration: Duration,
    /// Worker threads.
    pub threads: usize,
    /// Runs per point; the best is kept.
    pub repeat: usize,
    /// Transactions per deferred-ack flight.
    pub batch: usize,
    /// Log sizes (transfers past the checkpoint) of the recovery sweep.
    pub txns: Vec<u64>,
    /// `BENCH_durability.json` output file (stdout when absent).
    pub out: Option<String>,
    /// `BENCH_group_commit.json` output file (group-commit bench skipped
    /// when absent).
    pub group_out: Option<String>,
}

impl Opts {
    /// Reads the options from a parsed command line.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        Ok(Opts {
            duration: args.millis("--duration-ms", Duration::from_millis(300))?,
            threads: args.get("--threads", 4)?,
            repeat: args.get("--repeat", 3usize)?.max(1),
            batch: args.get("--batch", 32usize)?.max(1),
            txns: args.list("--txns", vec![1_000, 5_000, 20_000])?,
            out: args.text("--out")?,
            group_out: args.text("--group-out")?,
        })
    }
}

const ACCOUNTS_PER_PART: u64 = 64;
const PARTS: u32 = 2;
const INITIAL: i64 = 1_000;

/// Coordinator parameters used everywhere this bench runs `GroupCommit`.
const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait_us: 100,
};

/// Moves `amount` from account `from` to account `to`.
struct Transfer {
    table: TableId,
    from: u64,
    to: u64,
    amount: i64,
}

impl TxnSpec for Transfer {
    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        txn.update(self.table, self.from, |r| {
            r.set(1, Value::I64(r.get_i64(1) - self.amount))
        })?;
        txn.update(self.table, self.to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + self.amount))
        })
    }
}

/// Random transfers from a partition-0 account to a partition-1 account
/// (homed on partition 0).
struct Bank {
    table: TableId,
}

impl Workload for Bank {
    fn name(&self) -> &str {
        "bank"
    }

    fn generate(&self, _worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        Box::new(Transfer {
            table: self.table,
            from: rng.gen_range(0..ACCOUNTS_PER_PART),
            to: ACCOUNTS_PER_PART + rng.gen_range(0..ACCOUNTS_PER_PART),
            amount: rng.gen_range(1..=10),
        })
    }
}

/// The `p50`/`p99`/`p999` commit latencies of `r`, in µs, as JSON.
fn latency_json(r: &BenchResult) -> String {
    format!(
        "{{\"p50\": {}, \"p99\": {}, \"p999\": {}}}",
        r.latency_percentile_us(0.50),
        r.latency_percentile_us(0.99),
        r.latency_percentile_us(0.999)
    )
}

fn bamboo() -> Arc<dyn Protocol> {
    Arc::new(LockingProtocol::bamboo())
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bamboo-bench-dur-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A range-partitioned bank; durable when `dir` is set, ring otherwise.
fn bank(dir: Option<(&PathBuf, FsyncPolicy)>) -> (Arc<PartitionedDb>, TableId) {
    let bounds = (1..PARTS as u64).map(|i| i * ACCOUNTS_PER_PART).collect();
    let mut b = PartitionedDb::builder(PARTS);
    let t = b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range(bounds),
    );
    if let Some((dir, policy)) = dir {
        b.with_options(
            DbOptions::new()
                .with_wal_dir(dir.clone())
                .with_fsync_policy(policy),
        );
    }
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(t, a, Row::from(vec![Value::U64(a), Value::I64(INITIAL)]));
    }
    (pdb, t)
}

/// One run of `measure` on a fresh bank under `policy` (ring when
/// `None`), in a scratch WAL directory removed afterwards.
fn on_fresh_bank(
    tag: &str,
    policy: Option<FsyncPolicy>,
    measure: impl FnOnce(&Arc<PartitionedDb>, Arc<dyn Workload>) -> BenchResult,
) -> BenchResult {
    let dir = tmp_dir(tag);
    let (pdb, table) = bank(policy.map(|p| (&dir, p)));
    let res = measure(&pdb, Arc::new(Bank { table }));
    drop(pdb);
    let _ = std::fs::remove_dir_all(&dir);
    res
}

/// Synchronous transfers: each commit acks before it returns.
fn synchronous(opts: &Opts, tag: &str, policy: Option<FsyncPolicy>) -> BenchResult {
    let cfg = BenchConfig::quick(opts.threads)
        .with_duration(opts.duration)
        .with_warmup(Duration::ZERO);
    best_of(opts.repeat, || {
        on_fresh_bank(tag, policy, |pdb, wl| {
            run_part_bench(pdb, &bamboo(), &wl, &cfg)
        })
    })
}

/// Deferred-ack flights: each worker submits `opts.batch` transfers at a
/// time through [`bamboo_core::Session::run_many`], which commits them
/// back to back and acknowledges them together at the end, so a few
/// leader fsyncs cover the flight. Each transaction's latency is its
/// flight's submit→return time: what a client of the batched API
/// observes.
fn flights(opts: &Opts) -> BenchResult {
    best_of(opts.repeat, || {
        on_fresh_bank("gc", Some(GROUP_POLICY), |pdb, wl| {
            let (stats, elapsed) = run_workers(opts.threads, opts.duration, |w, stop| {
                let session = PartSession::new(Arc::clone(pdb), bamboo());
                let home = session.session(PartitionId(0));
                let mut rng = SmallRng::seed_from_u64(w as u64);
                let mut stats = WorkerStats::default();
                while !stop.load(Ordering::Relaxed) {
                    let specs: Vec<_> = (0..opts.batch).map(|_| wl.generate(w, &mut rng)).collect();
                    let flight: Vec<&dyn TxnSpec> = specs.iter().map(|s| s.as_ref()).collect();
                    let t0 = Instant::now();
                    let acked = home.run_many(&flight);
                    let latency = t0.elapsed();
                    for _ in acked.iter().filter(|r| r.is_ok()) {
                        stats.record_commit(latency);
                    }
                }
                stats
            });
            let mut totals = WorkerStats::default();
            for s in &stats {
                totals.merge(s);
            }
            totals.group_commit_fsyncs = pdb.group_fsyncs();
            totals.group_commit_acks = pdb.group_acks();
            BenchResult {
                protocol: "BAMBOO".into(),
                threads: opts.threads,
                elapsed,
                totals,
            }
        })
    })
}

/// The fsync sweep's JSON series, plus its `group_commit` run (the
/// group-commit bench's synchronous baseline).
fn fsync_sweep(opts: &Opts) -> (String, BenchResult) {
    let policies: [(&str, Option<FsyncPolicy>); 3] = [
        ("ring", None),
        ("never", Some(FsyncPolicy::Never)),
        ("group_commit", Some(GROUP_POLICY)),
    ];
    let mut out = Vec::new();
    let mut last = None;
    for (name, policy) in policies {
        let r = synchronous(opts, name, policy);
        eprintln!(
            "fsync {name:<13} {:>10.0} txn/s  lat(p50={}us p99={}us p999={}us)",
            r.throughput(),
            r.latency_percentile_us(0.50),
            r.latency_percentile_us(0.99),
            r.latency_percentile_us(0.999)
        );
        out.push(format!(
            "{{\"policy\": \"{name}\", \"tput\": {:.0}, \"lat_us\": {}}}",
            r.throughput(),
            latency_json(&r)
        ));
        last = Some(r);
    }
    let group_commit = last.expect("the sweep ends with group_commit");
    (format!("[{}]", out.join(", ")), group_commit)
}

/// The headline group-commit comparison under [`GROUP_POLICY`]:
/// synchronous acks (`base`, each commit waits for its own batch fsync)
/// vs deferred-ack flights. Returns the full `BENCH_group_commit.json`
/// document.
fn group_commit_bench(opts: &Opts, base: &BenchResult) -> String {
    let group = flights(opts);
    let speedup = group.throughput() / base.throughput();
    let (fsyncs, acks) = (
        group.totals.group_commit_fsyncs,
        group.totals.group_commit_acks,
    );
    let mean_batch = if fsyncs > 0 {
        acks as f64 / fsyncs as f64
    } else {
        0.0
    };
    eprintln!(
        "group_commit  sync={:.0} txn/s  deferred={:.0} txn/s  speedup={speedup:.1}x  \
         leader_fsyncs={fsyncs} acks={acks} mean_batch={mean_batch:.1}",
        base.throughput(),
        group.throughput()
    );
    format!(
        "{{\n  \"bench\": \"group_commit\",\n  \"protocol\": \"bamboo\",\n  \
         \"threads\": {},\n  \"partitions\": {PARTS},\n  \"repeat\": {},\n  \
         \"batch\": {},\n  \
         \"note\": \"cross-partition bank transfers under one GroupCommit policy; baseline \
         acks each commit synchronously, group_commit submits flights of batch transfers \
         through Session::run_many and acks on the durability horizon; a flight's \
         transactions each count the flight's submit-to-return time as their latency\",\n  \
         \"baseline_sync\": {{\"tput\": {:.0}, \"lat_us\": {}}},\n  \
         \"group_commit\": {{\"tput\": {:.0}, \"lat_us\": {}, \"leader_fsyncs\": {fsyncs}, \
         \"acks\": {acks}, \"mean_batch\": {mean_batch:.1}}},\n  \
         \"speedup\": {speedup:.2}\n}}\n",
        opts.threads,
        opts.repeat,
        opts.batch,
        base.throughput(),
        latency_json(base),
        group.throughput(),
        latency_json(&group),
    )
}

fn recovery_sweep(txn_counts: &[u64]) -> String {
    let mut out = Vec::new();
    for &n in txn_counts {
        let dir = tmp_dir(&format!("rec{n}"));
        let (pdb, table) = bank(Some((&dir, FsyncPolicy::Never)));
        pdb.checkpoint().expect("genesis checkpoint");

        // n committed transfers past the checkpoint, then force the tail
        // out (Never policy buffers) and "crash".
        let session = PartSession::new(Arc::clone(&pdb), bamboo());
        for k in 1..=n {
            let transfer = Transfer {
                table,
                from: k % ACCOUNTS_PER_PART,
                to: ACCOUNTS_PER_PART + k % ACCOUNTS_PER_PART,
                amount: 1,
            };
            session
                .session(PartitionId(0))
                .run(&transfer)
                .expect("a lone transfer commits");
        }
        for p in pdb.parts() {
            p.wal().sync().expect("bench WAL runs on the real backend");
        }
        let log_bytes: u64 = pdb.parts().iter().map(|p| p.wal().current_lsn()).sum();
        drop(session);
        drop(pdb);

        let t0 = Instant::now();
        let (rec, report) =
            PartitionedDb::recover(DbOptions::new().with_wal_dir(dir.clone())).expect("recovery");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            report.replayed_txns, n,
            "bench invariant: all transfers replay"
        );
        drop(rec);
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "recover {n:>6} txns ({:>8} log bytes): {ms:>8.2} ms  \
             ({} tuples restored, {} writes replayed)",
            log_bytes, report.restored_tuples, report.replayed_writes
        );
        out.push(format!(
            "{{\"txns\": {n}, \"log_bytes\": {log_bytes}, \"recover_ms\": {ms:.2}, \
             \"restored_tuples\": {}, \"replayed_writes\": {}}}",
            report.restored_tuples, report.replayed_writes
        ));
    }
    format!("[{}]", out.join(", "))
}

/// Runs the sweeps and writes `BENCH_durability.json` (and
/// `BENCH_group_commit.json` with `--group-out`).
pub fn run(opts: &Opts) {
    let (fsync, group_commit_sync) = fsync_sweep(opts);
    if let Some(path) = &opts.group_out {
        emit(Some(path), &group_commit_bench(opts, &group_commit_sync));
    }
    let recovery = recovery_sweep(&opts.txns);
    let doc = format!(
        "{{\n  \"bench\": \"durability\",\n  \"protocol\": \"bamboo\",\n  \
         \"threads\": {},\n  \"repeat\": {},\n  \"partitions\": {PARTS},\n  \
         \"fsync\": {{\n    \"note\": \"cross-partition bank transfers; ring = in-memory baseline\",\n    \
         \"series\": {fsync}\n  }},\n  \
         \"recovery\": {{\n    \"note\": \"genesis checkpoint + N transfers, recover from cold\",\n    \
         \"series\": {recovery}\n  }}\n}}\n",
        opts.threads, opts.repeat,
    );
    emit(opts.out.as_deref(), &doc);
}
