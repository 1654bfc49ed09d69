//! `repro partition_scaling`: committed throughput as the database is
//! split into 1/2/4/8 partitions, under single-partition and
//! cross-partition transaction mixes.
//!
//! TPC-C is partitioned by warehouse with `warehouses == partitions` — the
//! canonical split: the 1-partition point is the paper's high-contention
//! 1-warehouse configuration, and each added partition adds a warehouse
//! with its own lock-entry space, WAL segment and stats slab. The *single*
//! mix pins `remote_ratio = 0` (every transaction stays on its home
//! partition); the *cross* mix uses the spec's remote ratios (15% remote
//! payments, 15% remote-stock lines), making a sizable fraction of commits
//! genuine cross-partition commits. YCSB runs the same sweep over a
//! range-partitioned table with a zipfian hotspot per partition.
//!
//! The default protocol is **interactive Wound-Wait** (the paper's
//! client-server deployment: each operation pays a simulated RPC while
//! holding its locks). That makes each partition's hot rows a genuine
//! serialization bottleneck independent of core count — the bottleneck
//! partitioning removes — so the sweep measures the *architecture* even
//! on a small CI box, where stored-procedure transactions are too short
//! for cross-thread conflicts to dominate. `--protocol bamboo` /
//! `--protocol wound_wait` run the stored-procedure variants. Each point
//! is best-of-`--repeat` runs.
//!
//! Output: `BENCH_partition_scaling.json` — committed at the repo root
//! and regenerated by CI each run.

use std::sync::Arc;
use std::time::Duration;

use bamboo_core::executor::{run_part_bench, BenchConfig, Workload};
use bamboo_core::partition::PartitionedDb;
use bamboo_core::protocol::{InteractiveProtocol, LockingProtocol, Protocol};
use bamboo_core::stats::BenchResult;
use bamboo_workload::tpcc::{self, TpccConfig, TpccWorkload};
use bamboo_workload::ycsb::{self, YcsbConfig, YcsbWorkload};

use crate::harness::{best_of, emit, Args};

/// Flags `repro partition_scaling` accepts.
pub const FLAGS: &[&str] = &[
    "--duration-ms",
    "--threads",
    "--repeat",
    "--protocol",
    "--partitions",
    "--out",
];

/// `repro partition_scaling` options.
#[derive(Debug)]
pub struct Opts {
    /// Measured duration per run.
    pub duration: Duration,
    /// Worker threads.
    pub threads: usize,
    /// Runs per point; the best is kept.
    pub repeat: usize,
    /// `interactive`, `bamboo` or `wound_wait`.
    pub protocol: String,
    /// Partition counts swept.
    pub partitions: Vec<u32>,
    /// JSON output file (stdout when absent).
    pub out: Option<String>,
}

impl Opts {
    /// Reads the options from a parsed command line.
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let opts = Opts {
            duration: args.millis("--duration-ms", Duration::from_millis(200))?,
            threads: args.get("--threads", 8)?,
            repeat: args.get("--repeat", 3usize)?.max(1),
            protocol: args.get("--protocol", "interactive".to_string())?,
            partitions: args.list("--partitions", vec![1, 2, 4, 8])?,
            out: args.text("--out")?,
        };
        protocol(&opts.protocol)?;
        Ok(opts)
    }
}

fn protocol(name: &str) -> Result<Arc<dyn Protocol>, String> {
    Ok(match name {
        "bamboo" => Arc::new(LockingProtocol::bamboo()),
        "wound_wait" => Arc::new(LockingProtocol::wound_wait()),
        // Every operation pays a simulated RPC while holding its locks, so
        // a partition's hot rows serialize its throughput regardless of
        // core count: the bottleneck partitioning removes.
        "interactive" => Arc::new(InteractiveProtocol::new(
            LockingProtocol::wound_wait(),
            Duration::from_micros(100),
        )),
        other => {
            return Err(format!(
                "unknown protocol `{other}` (bamboo | wound_wait | interactive)"
            ))
        }
    })
}

/// Best-of-`repeat` runs of `wl` on `pdb`.
fn point(opts: &Opts, pdb: &Arc<PartitionedDb>, wl: Arc<dyn Workload>) -> BenchResult {
    let proto = protocol(&opts.protocol).expect("validated by from_args");
    let cfg = BenchConfig::quick(opts.threads)
        .with_duration(opts.duration)
        .with_warmup(opts.duration / 5)
        .with_seed(17);
    best_of(opts.repeat, || run_part_bench(pdb, &proto, &wl, &cfg))
}

fn tpcc_point(opts: &Opts, partitions: u32, remote_ratio: f64) -> BenchResult {
    let cfg = TpccConfig {
        warehouses: partitions as u64,
        items: 2_000,
        customers_per_district: 200,
        partitions: partitions as u64,
        ..TpccConfig::default()
    }
    .with_remote_ratio(remote_ratio);
    let (pdb, tables, lastname) = tpcc::load_partitioned(&cfg);
    let wl = TpccWorkload::new_partitioned(cfg, &pdb, tables, lastname);
    point(opts, &pdb, Arc::new(wl))
}

fn ycsb_point(opts: &Opts, partitions: u32, remote_ratio: f64) -> BenchResult {
    let cfg = YcsbConfig {
        rows: 1 << 15,
        theta: 0.9,
        read_ratio: 0.5,
        ops_per_txn: 8,
        ..YcsbConfig::default()
    }
    .with_partitions(partitions, remote_ratio);
    let (pdb, t) = ycsb::load_partitioned(&cfg);
    point(opts, &pdb, Arc::new(YcsbWorkload::new(cfg, t)))
}

fn series_json(partitions: &[u32], points: &[BenchResult]) -> String {
    let inner = partitions
        .iter()
        .zip(points)
        .map(|(n, r)| {
            format!(
                "{{\"partitions\": {n}, \"tput\": {:.0}, \"abort_rate\": {:.4}, \"cross_share\": {:.4}}}",
                r.throughput(),
                r.abort_rate(),
                r.cross_partition_share()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

/// Runs the sweep and writes `BENCH_partition_scaling.json`.
pub fn run(opts: &Opts) {
    let mut series: [Vec<BenchResult>; 4] = Default::default();
    for &n in &opts.partitions {
        let [ts, tc, ys, yc] = [
            tpcc_point(opts, n, 0.0),
            tpcc_point(opts, n, 0.15),
            ycsb_point(opts, n, 0.0),
            ycsb_point(opts, n, 0.2),
        ];
        eprintln!(
            "partitions={n:<2} tpcc single={:>9.0} txn/s  cross={:>9.0} txn/s ({:>4.1}% x-part) | \
             ycsb single={:>9.0} txn/s  cross={:>9.0} txn/s ({:>4.1}% x-part)",
            ts.throughput(),
            tc.throughput(),
            tc.cross_partition_share() * 100.0,
            ys.throughput(),
            yc.throughput(),
            yc.cross_partition_share() * 100.0,
        );
        for (s, r) in series.iter_mut().zip([ts, tc, ys, yc]) {
            s.push(r);
        }
    }
    let [tpcc_single, tpcc_cross, ycsb_single, ycsb_cross] =
        series.map(|s| series_json(&opts.partitions, &s));
    let doc = format!(
        "{{\n  \"bench\": \"partition_scaling\",\n  \"protocol\": \"{}\",\n  \
         \"threads\": {},\n  \"repeat\": {},\n  \
         \"partitions\": {:?},\n  \
         \"tpcc\": {{\n    \"note\": \"warehouses == partitions; 1 partition = the 1-warehouse high-contention baseline\",\n    \
         \"single\": {tpcc_single},\n    \"cross\": {tpcc_cross}\n  }},\n  \
         \"ycsb\": {{\n    \"note\": \"range-partitioned, zipfian theta 0.9 per partition\",\n    \
         \"single\": {ycsb_single},\n    \"cross\": {ycsb_cross}\n  }}\n}}\n",
        opts.protocol, opts.threads, opts.repeat, opts.partitions,
    );
    emit(opts.out.as_deref(), &doc);
}
