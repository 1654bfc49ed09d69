//! The write-ahead log.
//!
//! The paper logs commit records "to main memory — modern non-volatile
//! memory would offer similar performance" (§5.1). [`WalBuffer`] reproduces
//! that cost profile: each commit serializes its redo record (transaction
//! id + after-images) into a per-worker ring buffer, so committing pays a
//! realistic memcpy without any I/O syscalls. Algorithm 1 line 6 — the log
//! write happens after the commit-semaphore wait and defines the commit
//! point together with the status CAS.
//!
//! [`WalHandle`] is the seam the commit path logs through, and it fronts
//! one of two sinks, fixed when the handle is built:
//!
//! * the in-memory **ring** ([`WalBuffer`]) — the default, and what every
//!   monolithic [`crate::Database`] uses;
//! * a **durable** per-partition segment writer
//!   ([`bamboo_storage::log::SegmentWriter`]) when
//!   [`crate::DbOptions::with_wal_dir`] is set on a partitioned database —
//!   checksummed `Begin`/`Update`/`Insert`/`Commit` records that
//!   [`crate::durability`] replays after a crash.
//!
//! Either way the protocol code calls [`WalHandle::append_txn`] exactly
//! once per written partition, after the commit point succeeded — so only
//! committed work ever reaches a durable sink, which is what makes
//! recovery redo-only.
//!
//! # Group commit
//!
//! The append itself never fsyncs. Under [`FsyncPolicy::GroupCommit`]
//! committers log, install, and release their locks immediately (early
//! lock release — sound because the log-before-install ordering means a
//! dependent's group always lands at a higher LSN than its writer's), then
//! park on [`WalHandle::wait_covered`]: the first parked committer becomes
//! the **leader**, waits a short accumulation window for more committers
//! to join, and issues one `fsync` covering every group written so far,
//! advancing the per-partition durability watermark. The leader holds the
//! sink lock only to push the buffered bytes to the OS; the `fsync` runs
//! unlocked, so appends keep landing behind it. The acknowledgment
//! additionally waits on the process-wide [`DurabilityHorizon`] so that
//! *every* commit with a lower timestamp is durable before the client
//! hears `Ok` — that is what lets crash recovery's horizon cut keep every
//! acknowledged commit (see `DURABILITY.md` "Group commit"). The horizon
//! reads coverage straight off the partitions' watermarks, so no
//! committer waits for another committer's acknowledgment.
//!
//! # Abort markers
//!
//! A cross-partition commit whose append fails on a later partition leaves
//! *orphan* groups on the earlier ones. `WalHandle::log_abort` voids each
//! orphan with a durable `Abort` record before the commit's timestamp
//! finishes, so recovery drops the orphan alone instead of cutting every
//! later commit. A marker that cannot be made durable stays pending on its
//! handle: the horizon stays below its timestamp until
//! [`WalHandle::replace_writer`] (the heal path) lands it.
//!
//! # Failed batch fsyncs
//!
//! A commit whose batch fsync failed is installed, and its group may
//! vanish from the log later (the kernel may drop a failed write-back's
//! pages). `DurabilityHorizon::withdraw` keeps it as an *unsealed*
//! timestamp the horizon stays below, failing every later acknowledgment,
//! until a checkpoint whose dump holds it lands
//! (`DurabilityHorizon::seal`; `PartitionedDb::heal` takes one).

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_storage::log::{
    frame_insert, frame_record, frame_update, IoClass, IoFailure, Lsn, SegmentWriter, WalRecord,
};
use bamboo_storage::{FsyncPolicy, Row, RowId, TableId, Value};
use parking_lot::{Condvar, Mutex};

/// Default per-worker ring capacity (16 MiB, comfortably larger than any
/// single record).
const DEFAULT_CAP: usize = 16 << 20;

/// A per-worker in-memory redo log ring.
pub struct WalBuffer {
    buf: Vec<u8>,
    pos: usize,
    /// Total bytes ever appended (wraps the ring, never resets).
    bytes_logged: u64,
    /// Number of commit records appended.
    records: u64,
    /// Reusable encode buffer: each commit record is serialized here and
    /// copied into the ring with a single `put`, so the append allocates
    /// nothing once the buffer warmed up to the session's largest record
    /// (and the ring's wrap-seam branching runs once per record instead
    /// of once per field).
    scratch: Vec<u8>,
}

impl WalBuffer {
    /// Creates a ring of `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        WalBuffer {
            buf: vec![0u8; cap],
            pos: 0,
            bytes_logged: 0,
            records: 0,
            scratch: Vec::with_capacity(256),
        }
    }

    /// Default-sized ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// Small ring for unit tests and doctests.
    pub fn for_tests() -> Self {
        Self::with_capacity(64 << 10)
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        // Ring semantics: wrap on overflow. Records may straddle the seam;
        // nothing ever reads the ring back (it models NVM write cost), so
        // only the copy matters.
        let cap = self.buf.len();
        let mut off = self.pos;
        for chunk in bytes.chunks(cap) {
            if off + chunk.len() <= cap {
                self.buf[off..off + chunk.len()].copy_from_slice(chunk);
                off += chunk.len();
            } else {
                let first = cap - off;
                self.buf[off..].copy_from_slice(&chunk[..first]);
                let rest = chunk.len() - first;
                self.buf[..rest].copy_from_slice(&chunk[first..]);
                off = rest;
            }
            if off == cap {
                off = 0;
            }
        }
        self.pos = off;
        self.bytes_logged += bytes.len() as u64;
    }

    /// Appends one commit record: txn id plus the after-image of every
    /// write `(table, row, image)`. Encoded into the reusable scratch
    /// buffer, then copied into the ring in one `put` — no per-record
    /// allocation.
    pub fn append_commit<'a>(
        &mut self,
        txn_id: u64,
        writes: impl Iterator<Item = (TableId, RowId, &'a Row)>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(b"CMT!");
        enc_u64(&mut scratch, txn_id);
        let mut n = 0u64;
        for (table, row_id, row) in writes {
            enc_u64(&mut scratch, table.0 as u64);
            enc_u64(&mut scratch, row_id);
            enc_u64(&mut scratch, row.len() as u64);
            for v in row.values() {
                enc_value(&mut scratch, v);
            }
            n += 1;
        }
        enc_u64(&mut scratch, n);
        self.put(&scratch);
        self.scratch = scratch;
        self.records += 1;
    }

    /// Total bytes appended over the buffer's lifetime.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// Number of commit records appended.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[inline]
fn enc_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.push(0);
            enc_u64(buf, *x);
        }
        Value::I64(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            enc_u64(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

impl Default for WalBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// One write inside a commit's redo group, as handed to
/// [`WalHandle::append_txn`]. Borrowed from the transaction context — the
/// log append clones nothing on the ring path and encodes borrowed bytes
/// on the durable path.
pub enum WalWrite<'a> {
    /// After-image of an updated row.
    Update {
        /// Owning table.
        table: TableId,
        /// Dense row id (what the ring's historical record format carries).
        row_id: RowId,
        /// Primary key (what the durable format carries — keys are stable
        /// across recoveries by construction, row ids only per shard).
        key: u64,
        /// The full after-image.
        after: &'a Row,
    },
    /// A freshly inserted row.
    Insert {
        /// Owning table.
        table: TableId,
        /// Primary key.
        key: u64,
        /// The inserted row.
        row: &'a Row,
        /// Optional `(secondary index slot, secondary key)` maintained with
        /// the insert.
        secondary: Option<(usize, u64)>,
    },
}

/// The sink behind a [`WalHandle`].
enum WalSink {
    /// The in-memory ring (default; models NVM logging cost).
    Ring(WalBuffer),
    /// A durable per-partition segment writer plus its commit-group count.
    Durable {
        writer: Box<SegmentWriter>,
        records: u64,
    },
    /// A durable sink whose writer could not be opened (or was torn down by
    /// a permanent failure): every append fails fast until
    /// [`WalHandle::replace_writer`] heals it.
    Poisoned,
}

/// Total write/fsync attempts per operation before a transient fault is
/// escalated to a permanent one (1 initial try + 2 retries).
const WAL_IO_ATTEMPTS: u32 = 3;

/// Bound on one park in the group-commit coordinator and on the
/// durability horizon: lost wakeups, concurrent degrades, and a moving
/// stable timestamp are re-checked at least this often.
const GROUP_PARK: Duration = Duration::from_micros(100);

/// Backoff before retry `attempt` (1-based): 100µs, then 1ms.
fn retry_backoff(attempt: u32) {
    let us = 100u64.saturating_mul(10u64.saturating_pow(attempt.saturating_sub(1)));
    std::thread::sleep(Duration::from_micros(us));
}

fn degraded_error(op: &'static str) -> IoFailure {
    IoFailure::with_class(
        IoClass::Permanent,
        op,
        io::Error::other("partition WAL is degraded (read-only until healed)"),
    )
}

/// Bits of a [`LogMark`] that hold the LSN; the writer generation sits
/// above them.
const MARK_LSN_BITS: u32 = 48;

/// A position in one partition's log, tagged with the generation of the
/// segment writer that wrote it. [`WalHandle::replace_writer`] starts a new
/// generation, so a watermark published after a heal never covers bytes
/// written before it (bytes whose fsync may have failed). Marks order by
/// generation, then LSN, so `fetch_max` keeps a watermark monotone across
/// heals and drops a retired generation's late publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogMark(u64);

impl LogMark {
    fn new(generation: u64, lsn: Lsn) -> Self {
        assert!(
            lsn >> MARK_LSN_BITS == 0 && generation >> (64 - MARK_LSN_BITS) == 0,
            "log mark out of range: generation {generation}, lsn {lsn}"
        );
        LogMark(generation << MARK_LSN_BITS | lsn)
    }

    /// The LSN.
    pub fn lsn(self) -> Lsn {
        self.0 & ((1 << MARK_LSN_BITS) - 1)
    }

    /// The writer generation (0 until the first heal).
    pub fn generation(self) -> u64 {
        self.0 >> MARK_LSN_BITS
    }
}

/// Group-commit coordinator state: who is leading the current batch fsync
/// and how many committers are parked waiting to be covered by it.
#[derive(Default)]
struct GroupState {
    /// A leader is currently accumulating or syncing.
    leader_active: bool,
    /// Committers parked on the condvar (followers + window joiners).
    waiting: u32,
}

thread_local! {
    /// Per-thread encode buffers for the durable append path: the whole
    /// framed record group is built here *before* the partition sink lock
    /// is taken, so the lock covers only the file write. `(framed group,
    /// per-record payload scratch)`.
    static GROUP_ENCODE: RefCell<(Vec<u8>, Vec<u8>)> =
        RefCell::new((Vec::with_capacity(512), Vec::with_capacity(256)));
}

/// A shareable handle to a WAL sink: an in-memory ring or a durable
/// segment writer behind a mutex that is taken **only for the duration of
/// one append**.
///
/// [`Protocol::commit`](crate::protocol::Protocol::commit) receives this
/// instead of `&mut WalBuffer` so that a commit which *waits* (the
/// commit-semaphore wait of Algorithm 1 lines 4–5) never holds the log:
/// with an exclusive borrow, a dependent transaction pinned at its commit
/// wait would block its own predecessor's log append on the same session —
/// a deadlock the type system would otherwise force on every caller
/// sharing a ring. One handle per [`Session`](crate::session::Session)
/// keeps the ring per-worker in the benchmark executor, so the lock is
/// uncontended on the hot path. Durable handles are per *partition* (the
/// segment file is the serialization point anyway), shared by every
/// session of the partitioned database.
///
/// Durable sinks surface storage faults as [`IoFailure`] instead of
/// panicking: transient faults are retried in place with bounded backoff,
/// permanent ones (or an exhausted retry budget) poison the handle into a
/// **degraded** mode where every further append fails fast until
/// [`WalHandle::replace_writer`] installs a freshly opened writer.
pub struct WalHandle {
    sink: parking_lot::Mutex<WalSink>,
    /// Set on permanent failure; checked (fail-fast) before every append.
    degraded: AtomicBool,
    /// Whether the sink is durable (a segment writer, or a poisoned one
    /// awaiting heal) rather than the ring. Fixed at construction, so the
    /// append path picks its encoding without taking the sink lock.
    durable: bool,
    /// Transient faults retried successfully or not (observability).
    io_retries: AtomicU64,
    /// Permanent failures that degraded the handle.
    io_failures: AtomicU64,
    /// The durability watermark, a packed [`LogMark`]: the current writer
    /// generation and the LSN up to which its log is known durable. Raised
    /// only with `fetch_max` under the sink lock (a leader re-takes the
    /// lock after its unlocked fsync), and moved to a new generation only
    /// by `replace_writer`.
    durable_mark: AtomicU64,
    /// The final watermark LSN of every generation a heal retired, indexed
    /// by generation; its length is the current generation.
    retired: Mutex<Vec<Lsn>>,
    /// Batch fsyncs issued by group-commit leaders.
    group_fsyncs: AtomicU64,
    /// Group-commit coordinator state, guarded separately from the sink so
    /// followers can park without blocking the appenders.
    group: Mutex<GroupState>,
    group_cond: Condvar,
    /// `(txn id, commit ts)` of every abort marker not yet known durable
    /// (see [`WalHandle::log_abort`]). Lock order: after the sink lock.
    pending_aborts: Mutex<Vec<(u64, u64)>>,
    /// The smallest commit timestamp in `pending_aborts`, `u64::MAX` when
    /// empty. The durability horizon stays below it.
    abort_floor: AtomicU64,
}

impl WalHandle {
    fn from_sink(sink: WalSink, degraded: bool) -> Self {
        let mark = match &sink {
            WalSink::Durable { writer, .. } => LogMark::new(0, writer.synced_lsn()),
            _ => LogMark(0),
        };
        WalHandle {
            durable: !matches!(sink, WalSink::Ring(_)),
            sink: parking_lot::Mutex::new(sink),
            degraded: AtomicBool::new(degraded),
            io_retries: AtomicU64::new(0),
            io_failures: AtomicU64::new(0),
            durable_mark: AtomicU64::new(mark.0),
            retired: Mutex::new(Vec::new()),
            group_fsyncs: AtomicU64::new(0),
            group: Mutex::new(GroupState::default()),
            group_cond: Condvar::new(),
            pending_aborts: Mutex::new(Vec::new()),
            abort_floor: AtomicU64::new(u64::MAX),
        }
    }

    /// Wraps an existing ring.
    pub fn from_buffer(buf: WalBuffer) -> Self {
        Self::from_sink(WalSink::Ring(buf), false)
    }

    /// Default-sized ring.
    pub fn new() -> Self {
        Self::from_buffer(WalBuffer::new())
    }

    /// Small ring for unit tests and doctests.
    pub fn for_tests() -> Self {
        Self::from_buffer(WalBuffer::for_tests())
    }

    /// Wraps a durable segment writer (one per partition; see
    /// [`crate::DbOptions::with_wal_dir`]).
    pub(crate) fn durable(writer: SegmentWriter) -> Self {
        Self::from_sink(
            WalSink::Durable {
                writer: Box::new(writer),
                records: 0,
            },
            false,
        )
    }

    /// A durable handle whose writer failed to open: born degraded, every
    /// append fails fast with [`IoFailure`] until healed. Lets a
    /// partitioned database come up (serving snapshot reads and the other
    /// partitions' writes) even when one partition's log is unopenable.
    pub(crate) fn poisoned() -> Self {
        Self::from_sink(WalSink::Poisoned, true)
    }

    /// True when this handle logs to durable segment files (including a
    /// degraded handle whose writer is torn down: the *intent* is durable).
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// True when the handle is degraded (writes fail fast; see
    /// [`WalHandle::replace_writer`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Transient-fault retries performed (successful or not).
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Permanent failures that degraded this handle.
    pub fn io_failures(&self) -> u64 {
        self.io_failures.load(Ordering::Relaxed)
    }

    /// Heals a degraded durable handle: installs the writer `open` returns
    /// and re-admits writes. The commit-group count carries over.
    ///
    /// The retired writer's buffered bytes are pushed to the OS first, so
    /// the scan `open` runs ([`SegmentWriter::open`] truncates a torn
    /// tail) sees every byte the retired writer will ever write. Every
    /// abort marker left pending by a failure is then landed and synced
    /// on the new writer; if any step fails the handle stays degraded and
    /// keeps the markers for the next heal.
    ///
    /// The fresh writer starts a new generation. Its watermark starts at
    /// the end of the log it scanned, which may include bytes whose fsync
    /// failed; a [`LogMark`] of the old generation is judged only against
    /// the old generation's final watermark, so those bytes never count as
    /// durable. (The LSN can move *backwards* across a heal: commits
    /// beyond the old watermark were never acknowledged, so nothing is
    /// retracted.) Returns whether the old generation ended past its final
    /// watermark: the commits logged there can never be acknowledged, and
    /// only a checkpoint makes them durable.
    ///
    /// # Panics
    ///
    /// On a ring handle: a handle's sink kind is fixed when it is built.
    pub fn replace_writer(
        &self,
        open: impl FnOnce() -> io::Result<SegmentWriter>,
    ) -> Result<bool, IoFailure> {
        assert!(self.durable, "replace_writer on a ring WAL handle");
        let mut sink = self.sink.lock();
        let (records, end) = match &mut *sink {
            WalSink::Durable { writer, records } => {
                writer
                    .detach_sync()
                    .map_err(|e| IoFailure::new("retired writer flush", e))?;
                (*records, writer.lsn())
            }
            _ => (0, 0),
        };
        let mut writer = open().map_err(|e| IoFailure::new("wal open", e))?;
        {
            let mut held = self.pending_aborts.lock();
            if !held.is_empty() {
                for &(txn_id, commit_ts) in held.iter() {
                    writer
                        .append_record(&WalRecord::Abort { txn_id, commit_ts })
                        .map_err(|e| IoFailure::new("abort marker append", e))?;
                }
                writer
                    .sync()
                    .map_err(|e| IoFailure::new("abort marker fsync", e))?;
                held.clear();
                self.publish_abort_floor(&held);
            }
        }
        let unsynced = {
            // A reader that sees the new generation then reads `retired`,
            // so push the old generation's final watermark while holding
            // its lock. `swap`, not `fetch_max`: the old generation's last
            // watermark is exactly what it held at this instant.
            let mut retired = self.retired.lock();
            let next = LogMark::new(retired.len() as u64 + 1, writer.synced_lsn());
            let old = LogMark(self.durable_mark.swap(next.0, Ordering::AcqRel));
            debug_assert_eq!(old.generation(), retired.len() as u64);
            retired.push(old.lsn());
            end > old.lsn()
        };
        *sink = WalSink::Durable {
            writer: Box::new(writer),
            records,
        };
        // Clear the flag only after the sink is swapped: an append racing
        // the heal either fails fast on the flag or serializes behind the
        // sink mutex and lands in the new writer.
        self.degraded.store(false, Ordering::Release);
        Ok(unsynced)
    }

    /// Records a permanent failure: counts it, degrades the handle, and
    /// forces the failure's class to permanent for the caller. Parked
    /// group-commit waiters observe the degrade within one bounded park
    /// tick (`GROUP_PARK`) — no explicit wakeup is needed. An unlocked
    /// leader fsync already in flight may still succeed and raise the
    /// watermark afterwards: its bytes really are durable.
    fn fail(&self, f: IoFailure) -> IoFailure {
        self.io_failures.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Release);
        IoFailure::with_class(IoClass::Permanent, f.op, f.error)
    }

    /// LSN up to which this partition's log is known durable (advanced by
    /// group-commit leader fsyncs).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_mark().lsn()
    }

    fn durable_mark(&self) -> LogMark {
        // ordering: Acquire pairs with the watermark's Release publishes —
        // a covered reader must also observe the sink state that made it
        // durable.
        LogMark(self.durable_mark.load(Ordering::Acquire))
    }

    /// Raises the watermark to `lsn` in the current generation. Caller
    /// holds the sink lock, which pins the generation. `fetch_max`, not a
    /// store: an unlocked leader fsync publishes after re-taking the lock,
    /// and a sync under the lock may have published further meanwhile.
    fn publish_locked(&self, lsn: Lsn) {
        let mark = LogMark::new(self.durable_mark().generation(), lsn);
        // ordering: Release pairs with `durable_mark`'s Acquire load.
        self.durable_mark.fetch_max(mark.0, Ordering::Release);
    }

    /// Whether the log is durable up to `mark`: `Ok(true)` when it is,
    /// `Ok(false)` while a sync may still cover it, and an error when none
    /// ever will — the handle is degraded, or a heal retired the mark's
    /// generation before a sync covered it.
    fn coverage(&self, mark: LogMark) -> Result<bool, IoFailure> {
        let now = self.durable_mark();
        if now.generation() == mark.generation() {
            if now >= mark {
                return Ok(true);
            }
            // Re-read after the flag: a sync may have covered the mark
            // just before the degrade.
            if self.is_degraded() && self.durable_mark() < mark {
                return Err(degraded_error("group fsync"));
            }
            return Ok(false);
        }
        if self.retired.lock()[mark.generation() as usize] >= mark.lsn() {
            Ok(true)
        } else {
            Err(IoFailure::with_class(
                IoClass::Permanent,
                "group fsync",
                io::Error::other("partition WAL was healed before the group was durable"),
            ))
        }
    }

    /// Batch fsyncs issued by group-commit leaders on this handle.
    pub fn group_fsyncs(&self) -> u64 {
        self.group_fsyncs.load(Ordering::Relaxed)
    }

    /// Parks until the partition's durability watermark covers `mark` —
    /// the group-commit coordinator. Any thread may call it for any mark:
    /// the committer that wrote the group, or a horizon waiter driving an
    /// older commit's fsync on its behalf.
    ///
    /// The fast path is one atomic load (a previous leader's fsync already
    /// covered us). Otherwise the caller joins the parked queue; the first
    /// to find no active leader **becomes** the leader: it waits up to the
    /// policy's `max_wait_us` for more committers to join (cut short once
    /// `max_batch` are parked, or as soon as arrivals stall — parked
    /// committers' groups are already written, so waiting longer only adds
    /// latency), then issues ONE fsync covering every group written so far
    /// and publishes the new watermark. Followers re-check
    /// the watermark on bounded parks, so a lost wakeup or a concurrent
    /// degrade costs at most one `GROUP_PARK` tick.
    ///
    /// Returns [`IoFailure`] when the mark can no longer be covered — the
    /// handle degraded first, or a heal retired the mark's generation: the
    /// commit is installed but not durable, and must surface
    /// `DurabilityFailed` instead of acknowledging.
    pub fn wait_covered(&self, mark: LogMark) -> Result<(), IoFailure> {
        if self.coverage(mark)? {
            return Ok(());
        }
        let (max_batch, max_wait) = match self.fsync_policy() {
            Some(FsyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            }) => (max_batch.max(1), Duration::from_micros(max_wait_us)),
            _ => (1, Duration::ZERO),
        };
        let mut announced = false;
        let mut state = self.group.lock();
        loop {
            if self.coverage(mark)? {
                return Ok(());
            }
            if state.leader_active {
                // Follower: park until the leader publishes (bounded, so a
                // missed notify or a degrade is re-checked promptly). The
                // first park announces our arrival so an accumulating
                // leader can count us without waiting out its window.
                state.waiting += 1;
                if !announced {
                    announced = true;
                    self.group_cond.notify_all();
                }
                self.group_cond.wait_for(&mut state, GROUP_PARK);
                state.waiting -= 1;
                continue;
            }
            // Leader: accumulate joiners while the group keeps growing, up
            // to the policy window, then sync once for everyone staged so
            // far. The short park quantum doubles as a stall detector: a
            // timeout with no new arrival means waiting longer only adds
            // latency (every parked committer's group is already written,
            // so the sync covers them regardless).
            state.leader_active = true;
            if !max_wait.is_zero() {
                let deadline = Instant::now() + max_wait;
                let quantum = (max_wait / 4).max(Duration::from_micros(1));
                while state.waiting + 1 < max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let before = state.waiting;
                    self.group_cond
                        .wait_for(&mut state, quantum.min(deadline - now));
                    if state.waiting <= before {
                        break;
                    }
                }
            }
            drop(state); // never hold the queue lock across the sink lock
            let synced = self.sync_batch();
            state = self.group.lock();
            state.leader_active = false;
            if synced.is_ok() {
                self.group_fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            self.group_cond.notify_all();
            match synced {
                // Loop back: the watermark check decides our own fate (it
                // covers us unless our group raced in after the sync).
                Ok(()) => continue,
                Err(f) => return Err(f),
            }
        }
    }

    /// One batch fsync on behalf of every parked committer. The sink lock
    /// covers only pushing the buffered bytes to the OS and reading the
    /// LSN they end at; the fsync runs unlocked, so appends keep landing
    /// behind it, and a success publishes the watermark up to that LSN.
    /// Transient faults are retried; permanent failure degrades the
    /// handle.
    fn sync_batch(&self) -> Result<(), IoFailure> {
        let mut attempt = 1;
        loop {
            let detached = match &mut *self.sink.lock() {
                WalSink::Ring(_) => return Ok(()),
                WalSink::Poisoned => return Err(degraded_error("group fsync")),
                WalSink::Durable { writer, .. } => writer
                    .detach_sync()
                    .map(|(sync, lsn)| (sync, LogMark::new(self.durable_mark().generation(), lsn))),
            };
            match detached.and_then(|(sync, mark)| sync.sync_data().map(|()| mark)) {
                Ok(mark) => {
                    if let WalSink::Durable { writer, .. } = &mut *self.sink.lock() {
                        // A heal may have swapped the writer meanwhile; the
                        // old generation's late sync then publishes nothing.
                        if self.durable_mark().generation() == mark.generation() {
                            writer.mark_synced(mark.lsn());
                            self.publish_locked(mark.lsn());
                        }
                    }
                    return Ok(());
                }
                Err(e) => {
                    let f = IoFailure::new("group fsync", e);
                    if f.is_transient() && attempt < WAL_IO_ATTEMPTS {
                        self.io_retries.fetch_add(1, Ordering::Relaxed);
                        retry_backoff(attempt);
                        attempt += 1;
                        continue;
                    }
                    return Err(self.fail(f));
                }
            }
        }
    }

    /// Appends one transaction's redo group — its share on this handle's
    /// partition — after the commit point succeeded.
    ///
    /// * Ring sink: one ring-format record (updates use the row id,
    ///   inserts the key; the ring is never read back).
    /// * Durable sink: a `Begin` / writes / `Commit` record group carrying
    ///   `commit_ts` and `parts_mask`. The whole framed group is encoded
    ///   into a per-thread buffer *before* the sink lock is taken, so the
    ///   lock covers only the file write every committer serializes on.
    ///
    /// Returns the [`LogMark`] just past the group: the coverage target a
    /// group-commit acknowledgment waits for ([`WalHandle::wait_covered`]).
    /// Nothing is fsynced here. The mark is zero on the ring.
    ///
    /// Durable I/O errors surface as [`IoFailure`] instead of a panic:
    /// transient faults are retried up to `WAL_IO_ATTEMPTS` times with
    /// backoff (the whole record group is staged up front, so a retry
    /// rewrites identical bytes without re-consuming `writes`); a permanent
    /// fault, an exhausted budget, or a failed rewind degrades the handle
    /// and returns an `IoClass::Permanent` failure — the caller must abort
    /// the transaction (`AbortReason::DurabilityFailed`) without acking.
    pub fn append_txn<'a>(
        &self,
        txn_id: u64,
        commit_ts: u64,
        parts_mask: u64,
        writes: impl Iterator<Item = WalWrite<'a>>,
    ) -> Result<LogMark, IoFailure> {
        if self.is_degraded() {
            return Err(degraded_error("wal append"));
        }
        if !self.durable {
            if let WalSink::Ring(buf) = &mut *self.sink.lock() {
                buf.append_commit(
                    txn_id,
                    writes.map(|w| match w {
                        WalWrite::Update {
                            table,
                            row_id,
                            after,
                            ..
                        } => (table, row_id, after),
                        WalWrite::Insert {
                            table, key, row, ..
                        } => (table, key, row),
                    }),
                );
            }
            return Ok(LogMark(0));
        }
        // Frame the whole Begin / writes / Commit group into the
        // per-thread buffer before taking the sink lock. The iterator is
        // consumed exactly once, and retries rewrite the staged bytes
        // verbatim.
        GROUP_ENCODE.with(|cell| {
            let (framed, scratch) = &mut *cell.borrow_mut();
            framed.clear();
            frame_record(
                framed,
                scratch,
                &WalRecord::Begin {
                    txn_id,
                    commit_ts,
                    parts_mask,
                },
            );
            for w in writes {
                match w {
                    WalWrite::Update {
                        table, key, after, ..
                    } => frame_update(framed, scratch, table.0, key, after),
                    WalWrite::Insert {
                        table,
                        key,
                        row,
                        secondary,
                    } => frame_insert(
                        framed,
                        scratch,
                        table.0,
                        key,
                        row,
                        secondary.map(|(i, k)| (i as u32, k)),
                    ),
                }
            }
            frame_record(framed, scratch, &WalRecord::Commit { txn_id, commit_ts });
            match &mut *self.sink.lock() {
                WalSink::Durable { writer, records } => {
                    writer.stage_framed(framed);
                    let end = self.land_group(writer)?;
                    *records += 1;
                    Ok(end)
                }
                _ => Err(degraded_error("wal append")),
            }
        })
    }

    /// Lands the staged record group, retrying transients after cutting
    /// any torn prefix back out, and returns the mark just past it. Called
    /// with the sink lock held (`writer` borrows from it).
    fn land_group(&self, writer: &mut SegmentWriter) -> Result<LogMark, IoFailure> {
        let mut attempt = 1;
        loop {
            match writer.flush_group() {
                Ok(_) => return Ok(LogMark::new(self.durable_mark().generation(), writer.lsn())),
                Err(e) => {
                    let f = IoFailure::new("wal append", e);
                    if let Err(re) = writer.rewind_partial() {
                        // The segment tail is in an unknown state: nothing
                        // more can be written safely.
                        writer.clear_group();
                        return Err(self.fail(IoFailure::new("wal rewind", re)));
                    }
                    if f.is_transient() && attempt < WAL_IO_ATTEMPTS {
                        self.io_retries.fetch_add(1, Ordering::Relaxed);
                        retry_backoff(attempt);
                        attempt += 1;
                        continue;
                    }
                    writer.clear_group();
                    return Err(self.fail(f));
                }
            }
        }
    }

    /// Appends `rec` as a single-record group and returns the mark just
    /// past it (zero on the ring, which keeps no markers).
    fn append_marker(&self, rec: &WalRecord) -> Result<LogMark, IoFailure> {
        if self.is_degraded() {
            return Err(degraded_error("wal append"));
        }
        match &mut *self.sink.lock() {
            WalSink::Durable { writer, .. } => {
                writer.stage_record(rec);
                self.land_group(writer)
            }
            WalSink::Ring(_) => Ok(LogMark(0)),
            WalSink::Poisoned => Err(degraded_error("wal append")),
        }
    }

    /// Appends a checkpoint marker and waits until it is durable (a no-op
    /// on the ring).
    pub fn append_checkpoint(&self, stable_ts: u64, cuts: &[Lsn]) -> Result<(), IoFailure> {
        let mark = self.append_marker(&WalRecord::Checkpoint {
            stable_ts,
            cuts: cuts.to_vec(),
        })?;
        self.wait_covered(mark)
    }

    /// Voids `txn_id`'s orphan group on this partition: appends an `Abort`
    /// marker and waits until it is durable. The commit path calls this
    /// for every partition that took the transaction's group before a
    /// later partition's append failed, and before the transaction's
    /// timestamp finishes on the commit clock — so the durability horizon
    /// cannot pass the orphan meanwhile.
    ///
    /// On failure the marker stays pending: the handle is degraded, the
    /// horizon stays below `commit_ts`, and [`WalHandle::replace_writer`]
    /// lands the marker before it re-admits writes.
    pub(crate) fn log_abort(&self, txn_id: u64, commit_ts: u64) -> Result<(), IoFailure> {
        // Hold first: a heal racing the append below then lands the marker
        // itself, so it is never dropped between a failure and the heal.
        {
            let mut held = self.pending_aborts.lock();
            held.push((txn_id, commit_ts));
            self.publish_abort_floor(&held);
        }
        self.append_marker(&WalRecord::Abort { txn_id, commit_ts })
            .and_then(|mark| self.wait_covered(mark))?;
        let mut held = self.pending_aborts.lock();
        held.retain(|&(id, _)| id != txn_id);
        self.publish_abort_floor(&held);
        Ok(())
    }

    /// Publishes the smallest pending abort timestamp. Caller holds the
    /// `pending_aborts` lock, so stores stay in lock order.
    fn publish_abort_floor(&self, held: &[(u64, u64)]) {
        let floor = held.iter().map(|&(_, ts)| ts).min().unwrap_or(u64::MAX);
        // ordering: Release pairs with `abort_floor`'s Acquire load. The
        // store precedes the commit clock's finish of the orphan's
        // timestamp, so a horizon advance whose stable sample covers that
        // timestamp also observes the floor.
        self.abort_floor.store(floor, Ordering::Release);
    }

    /// The smallest commit timestamp of an abort marker not yet known
    /// durable (`u64::MAX` when none): the horizon stays below it.
    fn abort_floor(&self) -> u64 {
        self.abort_floor.load(Ordering::Acquire)
    }

    /// Forces buffered bytes to disk (durable sinks; a no-op on the ring).
    pub fn sync(&self) -> Result<(), IoFailure> {
        if self.is_degraded() {
            return Err(degraded_error("wal fsync"));
        }
        self.sync_batch()
    }

    /// The sink's current end position: the next LSN on a durable sink,
    /// total bytes appended on a ring.
    pub fn current_lsn(&self) -> Lsn {
        match &*self.sink.lock() {
            WalSink::Ring(buf) => buf.bytes_logged(),
            WalSink::Durable { writer, .. } => writer.lsn(),
            WalSink::Poisoned => 0,
        }
    }

    /// The durable sink's fsync policy (`None` on a ring or a poisoned
    /// handle).
    pub fn fsync_policy(&self) -> Option<FsyncPolicy> {
        match &*self.sink.lock() {
            WalSink::Ring(_) => None,
            WalSink::Durable { writer, .. } => Some(writer.policy()),
            WalSink::Poisoned => None,
        }
    }

    /// Total bytes appended over the sink's lifetime.
    pub fn bytes_logged(&self) -> u64 {
        match &*self.sink.lock() {
            WalSink::Ring(buf) => buf.bytes_logged(),
            WalSink::Durable { writer, .. } => writer.lsn(),
            WalSink::Poisoned => 0,
        }
    }

    /// Number of commit records (ring) / commit groups (durable) appended.
    pub fn records(&self) -> u64 {
        match &*self.sink.lock() {
            WalSink::Ring(buf) => buf.records(),
            WalSink::Durable { records, .. } => *records,
            WalSink::Poisoned => 0,
        }
    }
}

impl Default for WalHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// `(partition index, end mark)` of every redo group one commit logged, in
/// append order: shared by its ticket and its horizon entry.
pub(crate) type GroupEnds = Arc<[(u32, LogMark)]>;

/// What a group-commit acknowledgment must wait for: the commit's
/// timestamp on the process-wide [`DurabilityHorizon`], plus — per
/// partition the commit logged to — the [`LogMark`] its redo group ends
/// at. Created by the commit path under [`FsyncPolicy::GroupCommit`] and
/// consumed by [`Session::ack_ticket`](crate::session::Session::ack_ticket)
/// before acknowledging the client. Not `Clone`: one ticket, one
/// acknowledgment.
#[must_use = "a commit is not acknowledged until its ticket is passed to `Session::ack_ticket`"]
#[derive(Debug)]
pub struct DurabilityTicket {
    /// The commit timestamp registered on the horizon.
    pub(crate) commit_ts: u64,
    /// `(partition index, end mark)` for every partition the commit's redo
    /// groups landed on, in the order they were appended. Shared with the
    /// horizon entry.
    pub(crate) parts: GroupEnds,
}

/// The process-wide durability horizon: the highest timestamp `t` such
/// that every committed transaction with `commit_ts <= t` is durable on
/// every partition it touched.
///
/// Group commit installs versions and releases locks *before* the batch
/// fsync (early lock release), so crash recovery keeps a timestamp-prefix
/// of the commit order — the horizon cut in [`crate::durability`]. An
/// acknowledgment is therefore safe exactly when the commit's timestamp
/// is at or below this horizon: everything the kept prefix could depend
/// on is durable too, so the recovered state always contains every
/// acknowledged commit.
///
/// A registered commit counts as durable once every partition it logged
/// to has a durability watermark at or past its group's end mark — read
/// off the partitions' [`WalHandle`]s, not reported by the commit's owner,
/// so no acknowledgment waits for another session to acknowledge.
///
/// A commit whose batch fsync failed stays installed but may be missing
/// from the log (the kernel may drop the pages of a failed write-back), so
/// it holds the horizon until a checkpoint whose stable bound covers it
/// lands (`DurabilityHorizon::seal`): the checkpoint's dump then carries
/// its effects, and recovery never reads its log again.
///
/// The invariant that makes `min(stable, first_pending - 1)` sound:
/// committers register their timestamp *after* their last log append
/// succeeds and *before* installing (and before the commit clock marks
/// the allocation finished) — so the clock's stable timestamp can never
/// pass a committed transaction that has not yet registered here.
pub struct DurabilityHorizon {
    /// The horizon itself. Written only under `pending`'s lock, so plain
    /// stores stay monotone.
    durable_ts: AtomicU64,
    /// Commits acknowledged through [`DurabilityHorizon::acknowledge`]
    /// (observability).
    acked: AtomicU64,
    /// Every partition's WAL, indexed by partition. Empty on a monolithic
    /// database: its sessions log to an in-memory ring, which hands out no
    /// tickets, so nothing registers.
    wals: Arc<[Arc<WalHandle>]>,
    pending: Mutex<Pending>,
    cond: Condvar,
}

/// The horizon's lock-protected state.
#[derive(Default)]
struct Pending {
    /// Registered commits not yet known durable: `commit_ts -> (partition,
    /// end mark)` of each of its groups. The horizon advances past leading
    /// covered entries.
    groups: BTreeMap<u64, GroupEnds>,
    /// Withdrawn commits (installed, never durable) that no checkpoint
    /// covers yet. The horizon stays below the oldest.
    unsealed: BTreeSet<u64>,
    /// Stable bound of the newest checkpoint sealed through
    /// `DurabilityHorizon::seal`: a commit withdrawn at or below it is
    /// already in that checkpoint's dump.
    sealed_ts: u64,
}

impl DurabilityHorizon {
    /// An empty horizon (no commit registered, horizon at 0) over the
    /// partitions' WAL handles.
    pub(crate) fn new(wals: Arc<[Arc<WalHandle>]>) -> Self {
        DurabilityHorizon {
            durable_ts: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            wals,
            pending: Mutex::new(Pending::default()),
            cond: Condvar::new(),
        }
    }

    /// The current horizon: every committed transaction with a timestamp
    /// at or below this is durable on every partition it touched.
    pub fn durable_ts(&self) -> u64 {
        self.durable_ts.load(Ordering::Acquire)
    }

    /// Commits acknowledged through the horizon.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// True while something only a heal or a checkpoint can clear holds
    /// every later acknowledgment: a withdrawn commit no checkpoint covers
    /// yet, or an abort marker pending on a degraded partition.
    pub fn held(&self) -> bool {
        !self.pending.lock().unsealed.is_empty()
            || self
                .wals
                .iter()
                .any(|w| w.is_degraded() && w.abort_floor() != u64::MAX)
    }

    /// Registers a committed transaction and the end mark of each of its
    /// groups. Must be called after its last log append succeeded and
    /// before it installs (see the type-level invariant).
    pub(crate) fn register(&self, commit_ts: u64, parts: GroupEnds) {
        self.pending.lock().groups.insert(commit_ts, parts);
    }

    /// Withdraws a registered commit that will never be durable (a batch
    /// fsync or a heal lost one of its groups): its acknowledgment fails
    /// with `DurabilityFailed`. It is installed, so unless a sealed
    /// checkpoint already covers it, it holds the horizon until
    /// [`DurabilityHorizon::seal`] does.
    pub(crate) fn withdraw(&self, commit_ts: u64, stable: u64) {
        let mut pending = self.pending.lock();
        if pending.groups.remove(&commit_ts).is_some() && commit_ts > pending.sealed_ts {
            pending.unsealed.insert(commit_ts);
        }
        self.advance_locked(&mut pending, stable);
    }

    /// Records that a checkpoint with stable bound `stable_ts` is complete
    /// on disk: every withdrawn commit at or below it is in its dump, so
    /// it no longer holds the horizon.
    pub(crate) fn seal(&self, stable_ts: u64, stable: u64) {
        let mut pending = self.pending.lock();
        pending.sealed_ts = pending.sealed_ts.max(stable_ts);
        pending.unsealed.retain(|&ts| ts > stable_ts);
        self.advance_locked(&mut pending, stable);
    }

    /// Acknowledges `ticket`: returns once the horizon reaches its
    /// timestamp, or an error (after withdrawing it) when one of its
    /// groups can never be covered.
    ///
    /// The caller first drives its own partitions' batch fsyncs
    /// ([`WalHandle::wait_covered`]). While an older registered commit
    /// still holds the horizon back, the caller drives *that* commit's
    /// fsyncs too rather than waiting for its owner — which may be busy,
    /// or may have dropped its ticket — and withdraws it if they fail.
    /// Only a horizon held back by the commit clock (a committer between
    /// its allocation and its finish) parks; `stable` is re-sampled every
    /// bounded park. A horizon held back by an unsealed withdrawn commit,
    /// or by an abort marker pending on a degraded partition, fails the
    /// acknowledgment instead: only a heal or a checkpoint clears those,
    /// and the commit stands, unacknowledged, like a batch-fsync failure.
    pub(crate) fn acknowledge(
        &self,
        ticket: DurabilityTicket,
        stable: impl Fn() -> u64,
    ) -> Result<(), IoFailure> {
        let DurabilityTicket { commit_ts, parts } = ticket;
        if let Err(f) = self.drive(&parts) {
            self.withdraw(commit_ts, stable());
            return Err(f);
        }
        loop {
            if self.durable_ts() >= commit_ts {
                break;
            }
            let mut pending = self.pending.lock();
            self.advance_locked(&mut pending, stable());
            if self.durable_ts() >= commit_ts {
                break;
            }
            match pending.groups.first_key_value() {
                // Leading entries are uncovered after the advance.
                Some((&older, parts)) if older < commit_ts => {
                    let parts = Arc::clone(parts);
                    drop(pending);
                    if self.drive(&parts).is_err() {
                        self.withdraw(older, stable());
                    }
                }
                _ if pending.unsealed.first().is_some_and(|&ts| ts < commit_ts) => {
                    return Err(degraded_error("unsealed failed commit"));
                }
                _ if self
                    .wals
                    .iter()
                    .any(|w| w.abort_floor() < commit_ts && w.is_degraded()) =>
                {
                    return Err(degraded_error("abort marker"));
                }
                _ => {
                    self.cond.wait_for(&mut pending, GROUP_PARK);
                }
            }
        }
        self.acked.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Waits until every group in `parts` is covered, leading batch
    /// fsyncs where none is in flight.
    fn drive(&self, parts: &[(u32, LogMark)]) -> Result<(), IoFailure> {
        for &(p, mark) in parts {
            self.wals[p as usize].wait_covered(mark)?;
        }
        Ok(())
    }

    /// True when every group in `parts` is durable.
    fn covered(&self, parts: &[(u32, LogMark)]) -> bool {
        parts
            .iter()
            .all(|&(p, mark)| matches!(self.wals[p as usize].coverage(mark), Ok(true)))
    }

    /// Pops leading covered entries and publishes the new horizon:
    /// `min(stable, first still-pending timestamp - 1, oldest unsealed
    /// withdrawn timestamp - 1, lowest pending abort marker timestamp -
    /// 1)`. Caller holds the `pending` lock.
    fn advance_locked(&self, pending: &mut Pending, stable: u64) {
        while pending
            .groups
            .first_key_value()
            .is_some_and(|(_, parts)| self.covered(parts))
        {
            pending.groups.pop_first();
        }
        let blocked = self
            .wals
            .iter()
            .map(|w| w.abort_floor())
            .chain(pending.groups.keys().next().copied())
            .chain(pending.unsealed.first().copied())
            .min()
            .unwrap_or(u64::MAX);
        let horizon = stable.min(blocked.saturating_sub(1));
        if horizon > self.durable_ts.load(Ordering::Acquire) {
            // ordering: Release pairs with the Acquire load in
            // `durable_ts`; only written under the `pending` lock, so the
            // plain store stays monotone.
            self.durable_ts.store(horizon, Ordering::Release);
            self.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::from(vec![Value::U64(7), Value::I64(-3), Value::from("hi")])
    }

    #[test]
    fn append_accounts_bytes_and_records() {
        let mut w = WalBuffer::for_tests();
        let r = row();
        w.append_commit(1, [(TableId(0), 5u64, &r)].into_iter());
        assert_eq!(w.records(), 1);
        // 4 magic + 8 txn + 8 table + 8 row + 8 len + (1+8)*2 values +
        // (1+8+2) string + 8 count.
        assert!(w.bytes_logged() > 40);
    }

    #[test]
    fn ring_wraps_without_panicking() {
        let mut w = WalBuffer::with_capacity(64);
        let r = row();
        for i in 0..100 {
            w.append_commit(i, [(TableId(0), i, &r)].into_iter());
        }
        assert_eq!(w.records(), 100);
        assert!(w.bytes_logged() > 64 * 10);
    }

    #[test]
    fn empty_write_set_still_logs_header() {
        let mut w = WalBuffer::for_tests();
        w.append_commit(9, std::iter::empty());
        assert_eq!(w.records(), 1);
        assert_eq!(w.bytes_logged(), 4 + 8 + 8);
    }

    #[test]
    fn scratch_encoding_preserves_record_format() {
        // Byte-exact format lock for the scratch-encoded record: magic +
        // txn id + per-write (table + row id + len + tagged values) +
        // write count. Guards the single-put rewrite of the append path.
        let mut w = WalBuffer::for_tests();
        let r = row(); // [U64, I64, Str("hi")]
        w.append_commit(1, [(TableId(0), 5u64, &r)].into_iter());
        let per_write = 8 + 8 + 8 + (1 + 8) + (1 + 8) + (1 + 8 + 2);
        assert_eq!(w.bytes_logged(), 4 + 8 + per_write + 8);
        // The scratch buffer is reused: a second identical append adds
        // exactly the same byte count (no header drift, no realloc-driven
        // size change).
        let before = w.bytes_logged();
        w.append_commit(2, [(TableId(0), 5u64, &r)].into_iter());
        assert_eq!(w.bytes_logged() - before, before);
        assert_eq!(w.records(), 2);
    }

    /// A horizon over `n` partitions whose watermarks the test sets by
    /// hand (ring handles: no file behind them).
    fn horizon(n: usize) -> (DurabilityHorizon, Vec<Arc<WalHandle>>) {
        let wals: Vec<Arc<WalHandle>> = (0..n).map(|_| Arc::new(WalHandle::for_tests())).collect();
        (DurabilityHorizon::new(wals.clone().into()), wals)
    }

    fn publish(wal: &WalHandle, lsn: Lsn) {
        wal.durable_mark
            .fetch_max(LogMark::new(0, lsn).0, Ordering::Release);
    }

    fn register(h: &DurabilityHorizon, commit_ts: u64, ends: &[(u32, Lsn)]) -> DurabilityTicket {
        let parts: GroupEnds = ends
            .iter()
            .map(|&(p, lsn)| (p, LogMark::new(0, lsn)))
            .collect();
        h.register(commit_ts, Arc::clone(&parts));
        DurabilityTicket { commit_ts, parts }
    }

    fn advance(h: &DurabilityHorizon, stable: u64) -> u64 {
        h.advance_locked(&mut h.pending.lock(), stable);
        h.durable_ts()
    }

    #[test]
    fn horizon_never_passes_a_commit_with_an_uncovered_partition() {
        let (h, wals) = horizon(2);
        let _t = register(&h, 5, &[(0, 100), (1, 50)]);
        publish(&wals[0], 100);
        publish(&wals[1], 49);
        assert_eq!(advance(&h, 10), 4, "partition 1 is one byte short");
        publish(&wals[1], 50);
        assert_eq!(advance(&h, 10), 10);
    }

    #[test]
    fn horizon_passes_a_covered_commit_whose_owner_never_acks() {
        let (h, wals) = horizon(2);
        let unacked = register(&h, 3, &[(0, 10)]);
        let acked = register(&h, 7, &[(1, 20)]);
        publish(&wals[0], 10);
        publish(&wals[1], 20);
        drop(unacked);
        h.acknowledge(acked, || 7)
            .expect("both commits are covered");
        assert_eq!(h.durable_ts(), 7);
        assert_eq!(h.acked(), 1);
    }

    #[test]
    fn withdrawn_entry_holds_the_horizon_until_a_checkpoint_covers_it() {
        let (h, wals) = horizon(2);
        let _lost = register(&h, 2, &[(0, 100)]);
        let t = register(&h, 4, &[(1, 10)]);
        publish(&wals[1], 10);
        assert_eq!(advance(&h, 10), 1);
        h.withdraw(2, 10);
        assert_eq!(h.durable_ts(), 1, "its group may still vanish");
        assert!(h.held());
        assert!(h.acknowledge(t, || 10).is_err(), "later acks fail fast");
        h.seal(1, 10);
        assert_eq!(h.durable_ts(), 1, "a checkpoint below it covers nothing");
        h.seal(3, 10);
        assert_eq!(h.durable_ts(), 10);
        assert!(!h.held());
        let _covered = register(&h, 3, &[(0, 200)]);
        h.withdraw(3, 10);
        assert_eq!(h.durable_ts(), 10, "already in the sealed checkpoint");
    }

    #[test]
    fn durable_ts_is_monotone() {
        let (h, wals) = horizon(1);
        assert_eq!(advance(&h, 10), 10);
        assert_eq!(advance(&h, 5), 10, "a lower stable point never lowers it");
        let _t = register(&h, 15, &[(0, 30)]);
        assert_eq!(advance(&h, 20), 14);
        assert_eq!(advance(&h, 12), 14);
        publish(&wals[0], 30);
        assert_eq!(advance(&h, 20), 20);
        h.withdraw(15, 3);
        assert_eq!(h.durable_ts(), 20);
    }

    #[test]
    fn horizon_stays_below_a_pending_abort_marker() {
        let (h, wals) = horizon(2);
        let t = register(&h, 9, &[(1, 10)]);
        publish(&wals[1], 10);
        {
            let mut held = wals[0].pending_aborts.lock();
            held.push((77, 6));
            wals[0].publish_abort_floor(&held);
        }
        assert_eq!(advance(&h, 20), 5, "the marker's timestamp holds it back");
        wals[0].degraded.store(true, Ordering::Release);
        assert!(
            h.acknowledge(t, || 20).is_err(),
            "a marker pending on a degraded partition fails the ack"
        );
        {
            let mut held = wals[0].pending_aborts.lock();
            held.clear();
            wals[0].publish_abort_floor(&held);
        }
        assert_eq!(advance(&h, 20), 20);
    }

    #[test]
    fn heal_scans_bytes_the_retired_writer_still_buffered() {
        let dir = std::env::temp_dir().join(format!("bamboo-wal-buffered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20);
        let wal = WalHandle::durable(open().unwrap());
        // A small group stays in the writer's buffer: no sync pushed it.
        let end = wal.append_txn(1, 1, 1, std::iter::empty()).unwrap();
        wal.degraded.store(true, Ordering::Release);
        assert!(wal.replace_writer(open).unwrap());
        assert_eq!(
            wal.current_lsn(),
            end.lsn(),
            "the new writer resumes behind every byte the old one wrote"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heal_starts_a_generation_that_covers_nothing_written_before_it() {
        let dir = std::env::temp_dir().join(format!("bamboo-wal-heal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = FsyncPolicy::GroupCommit {
            max_batch: 4,
            max_wait_us: 0,
        };
        let open = || SegmentWriter::open(&dir, 0, policy, 1 << 20).unwrap();
        let wal = WalHandle::durable(open());
        let append = |txn: u64| wal.append_txn(txn, txn, 1, std::iter::empty()).unwrap();
        let synced = append(1);
        wal.wait_covered(synced).unwrap();
        let unsynced = append(2);
        assert!(!wal.coverage(unsynced).unwrap());
        // Push the group to the OS without syncing it — what a failed
        // fsync leaves behind.
        if let WalSink::Durable { writer, .. } = &mut *wal.sink.lock() {
            let _ = writer.detach_sync().unwrap();
        }

        assert!(
            wal.replace_writer(|| Ok(open())).unwrap(),
            "the old generation ended unsynced"
        );
        assert!(
            wal.durable_lsn() >= unsynced.lsn(),
            "the healed writer resumes past the unsynced group"
        );
        assert!(wal.coverage(synced).unwrap(), "synced before the heal");
        assert!(
            wal.coverage(unsynced).is_err(),
            "a new generation never covers bytes written before it"
        );
        assert!(wal.wait_covered(unsynced).is_err());
        let fresh = append(3);
        assert_eq!(fresh.generation(), 1);
        wal.wait_covered(fresh).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
