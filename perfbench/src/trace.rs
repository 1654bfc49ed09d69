//! The traced run's instruments: in-memory spans recorded around calls
//! into the public API, their self times, and a protocol decorator that
//! reads the per-attempt figures `Txn::commit` consumes with the guard.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bamboo_core::protocol::Protocol;
use bamboo_core::wal::WalHandle;
use bamboo_core::{Abort, Database, TxnCtx};
use bamboo_storage::{Row, TableId};

/// Span names, one per layer boundary the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    SetupLoad,
    SetupCheckpoint,
    /// The root of one client transaction (or one flight on the batched
    /// workload), spanning all retries and the acknowledgment.
    Txn,
    Generate,
    Begin,
    Exec,
    Commit,
    Ack,
    Abort,
    Backoff,
    Recover,
}

impl SpanName {
    pub const ALL: [SpanName; 11] = [
        SpanName::SetupLoad,
        SpanName::SetupCheckpoint,
        SpanName::Txn,
        SpanName::Generate,
        SpanName::Begin,
        SpanName::Exec,
        SpanName::Commit,
        SpanName::Ack,
        SpanName::Abort,
        SpanName::Backoff,
        SpanName::Recover,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::SetupLoad => "setup.load",
            SpanName::SetupCheckpoint => "setup.checkpoint",
            SpanName::Txn => "txn",
            SpanName::Generate => "generate",
            SpanName::Begin => "begin",
            SpanName::Exec => "exec",
            SpanName::Commit => "commit",
            SpanName::Ack => "ack",
            SpanName::Abort => "abort",
            SpanName::Backoff => "backoff",
            SpanName::Recover => "recover",
        }
    }

    fn index(self) -> usize {
        SpanName::ALL
            .iter()
            .position(|&n| n == self)
            .expect("ALL lists every span name")
    }
}

/// One recorded interval. Spans of one transaction share `txn`; `parent`
/// indexes the causing span in the same recorder.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub txn: u64,
    pub parent: Option<u32>,
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Part of the span the transaction spent parked, as the protocol's
    /// own timers report it: lock wait on `exec`, commit-semaphore wait on
    /// `commit`.
    pub wait_ns: u64,
}

/// A per-client span recorder. Spans stay in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the run's shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        txn: u64,
        parent: Option<u32>,
        name: SpanName,
        start_ns: u64,
        end_ns: u64,
        wait_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            txn,
            parent,
            name,
            start_ns,
            end_ns,
            wait_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of an open span (a root recorded before its children).
    pub fn close(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time and parked time summed per span name.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    self_ns: [u64; SpanName::ALL.len()],
    wait_ns: [u64; SpanName::ALL.len()],
    count: [u64; SpanName::ALL.len()],
    /// Summed duration of the `txn` roots.
    root_ns: u64,
}

impl LayerTimes {
    pub fn add(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let i = s.name.index();
            self.self_ns[i] += own;
            self.wait_ns[i] += s.wait_ns;
            self.count[i] += 1;
            if s.name == SpanName::Txn {
                self.root_ns += s.end_ns - s.start_ns;
            }
        }
    }

    pub fn self_ns(&self, name: SpanName) -> u64 {
        self.self_ns[name.index()]
    }

    pub fn wait_ns(&self, name: SpanName) -> u64 {
        self.wait_ns[name.index()]
    }

    pub fn count(&self, name: SpanName) -> u64 {
        self.count[name.index()]
    }

    /// Share of the `txn` roots' time that no child span covers.
    pub fn unattributed_share(&self) -> f64 {
        crate::stats::per_unit(self.self_ns(SpanName::Txn) as f64, self.root_ns)
    }
}

/// Writes spans as tab-separated lines, one group per recorder; `span`
/// and `parent` index within the recorder.
pub fn write_spans(path: &std::path::Path, recorders: &[&[Span]]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "recorder\tspan\tparent\ttxn\tname\tstart_ns\tend_ns\twait_ns"
    )?;
    for (r, spans) in recorders.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{r}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.txn,
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.wait_ns
            )?;
        }
    }
    out.flush()
}

/// Delegates every call to `inner` and keeps what `Txn::commit` and the
/// abort paths would otherwise discard: the commit-semaphore wait and
/// commit timestamp of the last commit call, and the cascade count of
/// every abort. One instance per client session, read by that client only.
pub struct TracingProtocol<P> {
    inner: P,
    commit_wait_ns: AtomicU64,
    commit_ts: AtomicU64,
    cascaded: AtomicU64,
}

impl<P: Protocol> TracingProtocol<P> {
    pub fn new(inner: P) -> Self {
        TracingProtocol {
            inner,
            commit_wait_ns: AtomicU64::new(0),
            commit_ts: AtomicU64::new(0),
            cascaded: AtomicU64::new(0),
        }
    }

    /// Commit-semaphore wait and commit timestamp of the last commit call.
    pub fn last_commit(&self) -> (u64, u64) {
        (
            self.commit_wait_ns.load(Ordering::Relaxed),
            self.commit_ts.load(Ordering::Relaxed),
        )
    }

    /// Cascade victims reported by aborts since the last call.
    pub fn take_cascaded(&self) -> u64 {
        self.cascaded.swap(0, Ordering::Relaxed)
    }
}

impl<P: Protocol> Protocol for TracingProtocol<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&self, db: &Database) -> TxnCtx {
        self.inner.begin(db)
    }

    fn begin_snapshot(&self, db: &Database) -> TxnCtx {
        self.inner.begin_snapshot(db)
    }

    fn read<'c>(
        &self,
        db: &Database,
        ctx: &'c mut TxnCtx,
        table: TableId,
        key: u64,
    ) -> Result<&'c Row, Abort> {
        self.inner.read(db, ctx, table, key)
    }

    fn update(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        f: &mut dyn FnMut(&mut Row),
    ) -> Result<(), Abort> {
        self.inner.update(db, ctx, table, key, f)
    }

    fn insert(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        key: u64,
        row: Row,
        secondary: Option<(usize, u64)>,
    ) -> Result<(), Abort> {
        self.inner.insert(db, ctx, table, key, row, secondary)
    }

    fn scan(
        &self,
        db: &Database,
        ctx: &mut TxnCtx,
        table: TableId,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Row>, Abort> {
        self.inner.scan(db, ctx, table, range)
    }

    fn commit(&self, db: &Database, ctx: &mut TxnCtx, wal: &WalHandle) -> Result<(), Abort> {
        let res = self.inner.commit(db, ctx, wal);
        self.commit_wait_ns
            .store(ctx.timers.commit_wait.as_nanos() as u64, Ordering::Relaxed);
        self.commit_ts.store(ctx.commit_ts, Ordering::Relaxed);
        res
    }

    fn abort(&self, db: &Database, ctx: &mut TxnCtx) -> usize {
        let n = self.inner.abort(db, ctx);
        self.cascaded.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    fn piece_begin(&self, db: &Database, ctx: &mut TxnCtx, piece: usize) -> Result<(), Abort> {
        self.inner.piece_begin(db, ctx, piece)
    }

    fn piece_end(&self, db: &Database, ctx: &mut TxnCtx) -> Result<(), Abort> {
        self.inner.piece_end(db, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            txn: 1,
            parent,
            name: if parent.is_none() {
                SpanName::Txn
            } else {
                SpanName::Exec
            },
            start_ns,
            end_ns,
            wait_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            // Overlaps the first child: 25..30 must not count twice.
            span(Some(0), 25, 40),
            // Sticks out past the parent: only 90..100 is covered.
            span(Some(0), 90, 120),
            // A grandchild covers part of child 1, not of the root.
            span(Some(1), 12, 20),
        ];
        let own = self_times(&spans);
        // Root: 100 - (10..40 = 30) - (90..100 = 10) = 60.
        assert_eq!(own[0], 60);
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 15);
        assert_eq!(own[3], 30);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn layer_times_report_unattributed_share() {
        let spans = [span(None, 0, 100), span(Some(0), 0, 75)];
        let mut lt = LayerTimes::default();
        lt.add(&spans);
        assert_eq!(lt.self_ns(SpanName::Exec), 75);
        assert_eq!(lt.unattributed_share(), 0.25);
        assert_eq!(lt.count(SpanName::Txn), 1);
    }
}
