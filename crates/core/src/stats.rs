//! Execution statistics — the paper's measurement vocabulary.
//!
//! §4.2 evaluates cascading aborts through three metrics: *length of abort
//! chain*, *abort rate*, and *abort time*, alongside *wait time* (lock
//! waits) and commit-semaphore waits. The runtime-analysis figures
//! (4b, 5b, 6b, 7b, 8b, 11b, 11d) plot amortized per-committed-transaction
//! time split into `lock wait / abort / commit wait`; [`BenchResult`]
//! reproduces exactly those series.

use std::time::Duration;

use crate::txn::AbortReason;

/// Number of distinct abort reasons (array-indexed counters).
pub const REASONS: usize = 11;

fn reason_idx(r: AbortReason) -> usize {
    match r {
        AbortReason::Wounded => 0,
        AbortReason::Cascade => 1,
        AbortReason::WaitDie => 2,
        AbortReason::NoWait => 3,
        AbortReason::SiloValidation => 4,
        AbortReason::SiloLockFail => 5,
        AbortReason::User => 6,
        AbortReason::Ic3Validation => 7,
        AbortReason::SnapshotNotVisible => 8,
        AbortReason::SnapshotTooOld => 9,
        AbortReason::DurabilityFailed => 10,
    }
}

/// Label for the reason at array index `i` (report printing).
pub fn reason_name(i: usize) -> &'static str {
    match i {
        0 => "wounded",
        1 => "cascade",
        2 => "wait_die",
        3 => "no_wait",
        4 => "silo_validation",
        5 => "silo_lock_fail",
        6 => "user",
        7 => "ic3_validation",
        8 => "snapshot_not_visible",
        9 => "snapshot_too_old",
        _ => "durability_failed",
    }
}

/// Linear sub-buckets per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// A log-linear latency histogram in whole microseconds
/// (HdrHistogram-style): values below 32 µs get a bucket each, and every
/// power of two above splits into 16 equal sub-buckets, so a percentile
/// is within 1/16 of the exact value at any scale. Buckets are allocated
/// up to the largest value recorded.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LatencyHistogram {
    /// Bucket of `us`: one per value below 32, then 16 per octave.
    fn index(us: u64) -> usize {
        if us < SUB_BUCKETS {
            return us as usize;
        }
        let shift = 63 - us.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB_BUCKETS + (us >> shift) - SUB_BUCKETS) as usize
    }

    /// The largest value bucket `i` holds.
    fn highest(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let shift = i / SUB_BUCKETS - 1;
        ((SUB_BUCKETS + i % SUB_BUCKETS) << shift) + ((1 << shift) - 1)
    }

    /// Records one latency, truncated to whole microseconds; anything
    /// under 1 µs counts as 1 µs, so a non-empty histogram never reads 0.
    pub fn record(&mut self, d: Duration) {
        let i = Self::index((d.as_micros() as u64).max(1));
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value recorded in `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile (`0.99` for p99) in microseconds,
    /// reported as the largest value of its bucket: at most 1/16 above
    /// the exact value, never below it. 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let target = ((self.total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::highest(i);
            }
        }
        0
    }
}

/// Per-worker counters, merged after the run.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Aborted attempts by reason.
    pub aborts_by_reason: [u64; REASONS],
    /// Wall time of committed attempts.
    pub committed_wall: Duration,
    /// Wall time of aborted attempts (the paper's *abort time*: "total CPU
    /// time wasted on executing transactions that aborted in the end").
    pub aborted_wall: Duration,
    /// Time parked waiting for locks, across all attempts.
    pub lock_wait: Duration,
    /// Time parked waiting for the commit semaphore, across all attempts.
    pub commit_wait: Duration,
    /// Number of cascade events this worker *initiated* (its abort wounded
    /// dependents).
    pub cascade_events: u64,
    /// Total transactions aborted across those cascades.
    pub cascade_victims: u64,
    /// Longest single abort chain seen.
    pub max_chain: u64,
    /// Redo-log bytes written.
    pub log_bytes: u64,
    /// Commit latencies of committed attempts.
    pub latency: LatencyHistogram,
    /// Lock-manager acquisitions across all non-snapshot attempts (lock
    /// table requests, upgrades, Silo write-set locks).
    pub lock_acquisitions: u64,
    /// Committed read-only snapshot transactions (own bucket — not
    /// included in [`WorkerStats::commits`]).
    pub snapshot_commits: u64,
    /// Aborted snapshot attempts (should stay 0: snapshot mode can neither
    /// block nor be wounded; also counted in [`WorkerStats::aborts`]).
    pub snapshot_aborts: u64,
    /// Lock-manager acquisitions by snapshot-mode attempts. The snapshot
    /// read path bypasses the lock manager entirely, so this must be 0 —
    /// benches assert it.
    pub snapshot_lock_acquisitions: u64,
    /// Commit latencies of snapshot commits (own histogram so 1000-tuple
    /// scans do not pollute the short-transaction percentiles).
    pub snapshot_latency: LatencyHistogram,
    /// Committed transactions whose access set spanned more than one
    /// partition (0 on a monolithic database; also counted in
    /// [`WorkerStats::commits`]). The partition-scaling benches report the
    /// cross-partition share from this.
    pub cross_partition_commits: u64,
    /// WAL transient-fault retries (snapshot of the handles'
    /// [`crate::wal::WalHandle::io_retries`] counters, taken once per run —
    /// not additive across workers; the executor fills it on the merged
    /// totals).
    pub wal_io_retries: u64,
    /// WAL permanent failures that degraded a partition (snapshot of
    /// [`crate::wal::WalHandle::io_failures`], same convention).
    pub wal_io_failures: u64,
    /// Partitions degraded (read-only) at the end of the run.
    pub degraded_partitions: u64,
    /// Batch fsyncs issued by group-commit leaders (snapshot of the
    /// handles' [`crate::wal::WalHandle::group_fsyncs`] counters, same
    /// run-level convention as [`WorkerStats::wal_io_retries`]).
    pub group_commit_fsyncs: u64,
    /// Commits acknowledged through the global durability horizon
    /// (snapshot of [`crate::wal::DurabilityHorizon::acked`], same
    /// convention). `group_commit_acks / group_commit_fsyncs` is the mean
    /// batch size the coordinator achieved.
    pub group_commit_acks: u64,
}

impl WorkerStats {
    /// Records one aborted attempt.
    pub fn record_abort(&mut self, reason: AbortReason, wall: Duration, cascaded: usize) {
        self.aborts += 1;
        self.aborts_by_reason[reason_idx(reason)] += 1;
        self.aborted_wall += wall;
        if cascaded > 0 {
            self.cascade_events += 1;
            self.cascade_victims += cascaded as u64;
            self.max_chain = self.max_chain.max(cascaded as u64 + 1);
        }
    }

    /// Records one committed attempt.
    pub fn record_commit(&mut self, wall: Duration) {
        self.commits += 1;
        self.committed_wall += wall;
        self.latency.record(wall);
    }

    /// Records one committed read-only snapshot attempt (own bucket).
    pub fn record_snapshot_commit(&mut self, wall: Duration) {
        self.snapshot_commits += 1;
        self.snapshot_latency.record(wall);
    }

    /// Accumulates another worker's counters into this one.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        for i in 0..REASONS {
            self.aborts_by_reason[i] += other.aborts_by_reason[i];
        }
        self.committed_wall += other.committed_wall;
        self.aborted_wall += other.aborted_wall;
        self.lock_wait += other.lock_wait;
        self.commit_wait += other.commit_wait;
        self.cascade_events += other.cascade_events;
        self.cascade_victims += other.cascade_victims;
        self.max_chain = self.max_chain.max(other.max_chain);
        self.log_bytes += other.log_bytes;
        self.lock_acquisitions += other.lock_acquisitions;
        self.snapshot_commits += other.snapshot_commits;
        self.snapshot_aborts += other.snapshot_aborts;
        self.snapshot_lock_acquisitions += other.snapshot_lock_acquisitions;
        self.cross_partition_commits += other.cross_partition_commits;
        // Run-level snapshots, not per-worker counters: merging takes the
        // max so a value stamped on one side survives without double
        // counting when both sides were stamped from the same handles.
        self.wal_io_retries = self.wal_io_retries.max(other.wal_io_retries);
        self.wal_io_failures = self.wal_io_failures.max(other.wal_io_failures);
        self.degraded_partitions = self.degraded_partitions.max(other.degraded_partitions);
        self.group_commit_fsyncs = self.group_commit_fsyncs.max(other.group_commit_fsyncs);
        self.group_commit_acks = self.group_commit_acks.max(other.group_commit_acks);
        self.latency.merge(&other.latency);
        self.snapshot_latency.merge(&other.snapshot_latency);
    }
}

/// Aggregated result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Protocol name.
    pub protocol: String,
    /// Worker threads.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Merged counters.
    pub totals: WorkerStats,
}

impl BenchResult {
    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.totals.commits as f64 / self.elapsed.as_secs_f64()
    }

    /// Fraction of attempts that aborted.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.totals.commits + self.totals.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.totals.aborts as f64 / attempts as f64
        }
    }

    /// Amortized *lock wait* per committed transaction, in milliseconds —
    /// the paper's runtime-analysis bar.
    pub fn lock_wait_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.lock_wait)
    }

    /// Amortized *commit wait* (semaphore) per committed transaction, ms.
    pub fn commit_wait_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.commit_wait)
    }

    /// Amortized *abort time* per committed transaction, ms.
    pub fn abort_ms_per_commit(&self) -> f64 {
        self.per_commit_ms(self.totals.aborted_wall)
    }

    /// Mean abort-chain length over cascade events.
    pub fn mean_chain(&self) -> f64 {
        if self.totals.cascade_events == 0 {
            0.0
        } else {
            self.totals.cascade_victims as f64 / self.totals.cascade_events as f64
        }
    }

    /// Commit-latency percentile in microseconds, e.g.
    /// `latency_percentile_us(0.99)` for p99 (within 1/16 of the exact
    /// value; see [`LatencyHistogram::percentile_us`]).
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        self.totals.latency.percentile_us(q)
    }

    /// Commits per second of the read-only snapshot bucket.
    pub fn snapshot_throughput(&self) -> f64 {
        self.totals.snapshot_commits as f64 / self.elapsed.as_secs_f64()
    }

    /// Commits per second across *both* buckets (locking + snapshot).
    /// Use this when comparing runs whose read-only transactions land in
    /// different buckets (e.g. fig7's locking vs snapshot series) — the
    /// per-bucket rates have mismatched denominators.
    pub fn total_throughput(&self) -> f64 {
        (self.totals.commits + self.totals.snapshot_commits) as f64 / self.elapsed.as_secs_f64()
    }

    /// Latency percentile of the snapshot-commit bucket, in microseconds.
    pub fn snapshot_latency_percentile_us(&self, q: f64) -> u64 {
        self.totals.snapshot_latency.percentile_us(q)
    }

    /// Fraction of commits whose access set spanned more than one
    /// partition (0.0 on a monolithic database).
    pub fn cross_partition_share(&self) -> f64 {
        if self.totals.commits == 0 {
            0.0
        } else {
            self.totals.cross_partition_commits as f64 / self.totals.commits as f64
        }
    }

    fn per_commit_ms(&self, d: Duration) -> f64 {
        if self.totals.commits == 0 {
            0.0
        } else {
            d.as_secs_f64() * 1e3 / self.totals.commits as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{:>12} thr={:<3} tput={:>10.0} txn/s abort_rate={:>5.1}% lock_wait={:.4}ms abort={:.4}ms commit_wait={:.4}ms chain(max={} mean={:.1}) lat(p50={}us p99={}us p999={}us)",
            self.protocol,
            self.threads,
            self.throughput(),
            self.abort_rate() * 100.0,
            self.lock_wait_ms_per_commit(),
            self.abort_ms_per_commit(),
            self.commit_wait_ms_per_commit(),
            self.totals.max_chain,
            self.mean_chain(),
            self.latency_percentile_us(0.50),
            self.latency_percentile_us(0.99),
            self.latency_percentile_us(0.999),
        );
        // Fault observability: printed only when something actually
        // happened, so fault-free runs keep the historical line format.
        if self.totals.wal_io_retries > 0
            || self.totals.wal_io_failures > 0
            || self.totals.degraded_partitions > 0
        {
            s.push_str(&format!(
                " wal_io(retries={} failures={} degraded={})",
                self.totals.wal_io_retries,
                self.totals.wal_io_failures,
                self.totals.degraded_partitions,
            ));
        }
        if self.totals.group_commit_fsyncs > 0 {
            s.push_str(&format!(
                " group_commit(fsyncs={} acks={})",
                self.totals.group_commit_fsyncs, self.totals.group_commit_acks,
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = WorkerStats::default();
        a.record_commit(Duration::from_millis(10));
        a.record_abort(AbortReason::Wounded, Duration::from_millis(5), 0);
        let mut b = WorkerStats::default();
        b.record_commit(Duration::from_millis(20));
        b.record_abort(AbortReason::Cascade, Duration::from_millis(5), 3);
        a.merge(&b);
        assert_eq!(a.commits, 2);
        assert_eq!(a.aborts, 2);
        assert_eq!(a.aborts_by_reason[0], 1);
        assert_eq!(a.aborts_by_reason[1], 1);
        assert_eq!(a.cascade_victims, 3);
        assert_eq!(a.max_chain, 4);
    }

    #[test]
    fn derived_metrics() {
        let mut t = WorkerStats::default();
        t.record_commit(Duration::from_millis(10));
        t.record_abort(AbortReason::NoWait, Duration::from_millis(30), 0);
        t.lock_wait = Duration::from_millis(4);
        let r = BenchResult {
            protocol: "TEST".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: t,
        };
        assert_eq!(r.throughput(), 1.0);
        assert_eq!(r.abort_rate(), 0.5);
        assert!((r.lock_wait_ms_per_commit() - 4.0).abs() < 1e-9);
        assert!((r.abort_ms_per_commit() - 30.0).abs() < 1e-9);
        assert_eq!(r.mean_chain(), 0.0);
        assert!(!r.summary().is_empty());
    }

    #[test]
    fn reason_names_cover_all_indices() {
        for i in 0..REASONS {
            assert!(!reason_name(i).is_empty());
        }
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;

    #[test]
    fn latency_histogram_bucket_layout() {
        // One bucket per value below 32 µs.
        for us in 0..32 {
            assert_eq!(LatencyHistogram::index(us), us as usize);
            assert_eq!(LatencyHistogram::highest(us as usize), us);
        }
        // Then 16 buckets per octave: [32, 64) splits into pairs.
        assert_eq!(LatencyHistogram::index(32), 32);
        assert_eq!(LatencyHistogram::index(33), 32);
        assert_eq!(LatencyHistogram::index(34), 33);
        assert_eq!(LatencyHistogram::index(63), 47);
        assert_eq!(LatencyHistogram::index(64), 48);
        assert_eq!(LatencyHistogram::highest(32), 33);
        assert_eq!(LatencyHistogram::highest(47), 63);
        // Buckets tile the whole range: each starts right after the last.
        for i in 1..976 {
            let low = LatencyHistogram::highest(i - 1) + 1;
            assert_eq!(LatencyHistogram::index(low), i);
            assert_eq!(LatencyHistogram::index(LatencyHistogram::highest(i)), i);
        }
        assert_eq!(LatencyHistogram::index(u64::MAX), 975);
        assert_eq!(LatencyHistogram::highest(975), u64::MAX);
        // Recording lands in the bucket; sub-microsecond counts as 1 µs.
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(300));
        h.record(Duration::from_micros(1000));
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[LatencyHistogram::index(1000)], 1);
        assert_eq!(h.count(), 2);
    }

    /// Exact nearest-rank percentile of a sorted sample.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_within_a_sixteenth_from_1us_to_10s() {
        // A fixed log-spread sample from 1 µs to 10 s, plus a dense
        // cluster so repeated values are covered.
        let mut sample: Vec<u64> = (0..=4000)
            .map(|k| 10f64.powf(7.0 * k as f64 / 4000.0) as u64)
            .collect();
        sample.extend((0..2000).map(|k| 700 + k % 37));
        let mut h = LatencyHistogram::default();
        for &us in &sample {
            h.record(Duration::from_micros(us));
        }
        sample.sort_unstable();
        assert_eq!(*sample.first().unwrap(), 1);
        assert_eq!(*sample.last().unwrap(), 10_000_000);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let (got, want) = (h.percentile_us(q), exact(&sample, q));
            assert!(got >= want, "q={q}: {got} below exact {want}");
            assert!(
                (got - want) * 16 <= want,
                "q={q}: {got} more than 1/16 above exact {want}"
            );
        }
    }

    #[test]
    fn merge_is_additive_and_empty_reads_zero() {
        let empty = LatencyHistogram::default();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.percentile_us(0.5), 0);
        assert_eq!(empty.percentile_us(0.99), 0);
        let (mut a, mut b, mut both) = Default::default();
        let record = |h: &mut LatencyHistogram, us: u64| h.record(Duration::from_micros(us));
        for us in [1, 5, 40, 900] {
            record(&mut a, us);
            record(&mut both, us);
        }
        for us in [3, 70_000, 2_000_000] {
            record(&mut b, us);
            record(&mut both, us);
        }
        let mut merged: LatencyHistogram = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        for q in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            assert_eq!(merged.percentile_us(q), both.percentile_us(q));
        }
        // Merging an empty histogram changes nothing, in either direction.
        let mut e = LatencyHistogram::default();
        e.merge(&a);
        a.merge(&LatencyHistogram::default());
        assert_eq!((e.count(), e.percentile_us(0.5)), (4, a.percentile_us(0.5)));
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let mut t = WorkerStats::default();
        for _ in 0..99 {
            t.record_commit(Duration::from_micros(3));
        }
        t.record_commit(Duration::from_millis(100));
        let r = BenchResult {
            protocol: "T".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: t,
        };
        assert!(r.latency_percentile_us(0.5) <= 4);
        assert!(r.latency_percentile_us(0.999) >= 100_000 / 2);
    }

    #[test]
    fn empty_percentile_is_zero() {
        let r = BenchResult {
            protocol: "T".into(),
            threads: 1,
            elapsed: Duration::from_secs(1),
            totals: WorkerStats::default(),
        };
        assert_eq!(r.latency_percentile_us(0.99), 0);
    }
}
