//! Closed-loop clients. Each client sends its next transaction (or flight)
//! only after the previous one returned. The untraced loop calls
//! `Session::run` / `run_many` exactly as a user would and feeds the
//! end-to-end metrics; the traced loop drives the same attempt/retry
//! sequence by hand so every layer call gets a span.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_core::executor::TxnSpec;
use bamboo_core::partition::PartSession;
use bamboo_core::protocol::{LockingProtocol, Protocol};
use bamboo_core::wal::DurabilityTicket;
use bamboo_core::{Abort, AbortReason, Session, TxnOptions};
use bamboo_storage::PartitionId;
use rand::rngs::SmallRng;

use crate::trace::{Span, SpanName, Tracer, TracingProtocol};
use crate::workloads::{ClientLedger, Kind, Loaded, Target};

/// Every abort reason, in report order. The match in [`reason_index`] is
/// exhaustive, so a new reason fails the build until it is listed here.
pub const REASONS: [AbortReason; 11] = [
    AbortReason::Wounded,
    AbortReason::Cascade,
    AbortReason::WaitDie,
    AbortReason::NoWait,
    AbortReason::SiloValidation,
    AbortReason::SiloLockFail,
    AbortReason::User,
    AbortReason::Ic3Validation,
    AbortReason::SnapshotNotVisible,
    AbortReason::SnapshotTooOld,
    AbortReason::DurabilityFailed,
];

pub fn reason_index(r: AbortReason) -> usize {
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

/// A client's inputs and outcome record, carried across phases.
pub struct ClientState {
    pub rng: SmallRng,
    pub ledger: ClientLedger,
}

/// Counts the traced loop takes per attempt.
#[derive(Clone, Debug, Default)]
pub struct TraceCounts {
    pub attempts: u64,
    pub aborts: [u64; REASONS.len()],
    pub cascade_victims: u64,
    /// Wall time of attempts that aborted, begin to abort.
    pub wasted_ns: u64,
    pub locks: u64,
    pub cross_partition_commits: u64,
}

impl TraceCounts {
    fn merge(&mut self, o: &TraceCounts) {
        self.attempts += o.attempts;
        for (a, b) in self.aborts.iter_mut().zip(o.aborts) {
            *a += b;
        }
        self.cascade_victims += o.cascade_victims;
        self.wasted_ns += o.wasted_ns;
        self.locks += o.locks;
        self.cross_partition_commits += o.cross_partition_commits;
    }

    pub fn aborted_attempts(&self) -> u64 {
        self.aborts.iter().sum()
    }
}

/// What one phase of all clients produced.
#[derive(Default)]
pub struct PhaseOut {
    pub elapsed_ns: u64,
    /// One `(completion time since the phase started, latency)` pair in ns
    /// per committed (acknowledged) transaction. Latency runs from the
    /// first attempt's begin (the flight's submission on `durable_batched`)
    /// to the commit or acknowledgment returning.
    pub samples: Vec<(u64, u64)>,
    pub submitted: u64,
    pub committed: u64,
    pub failed: u64,
    /// TPC-C's specified invalid-item rollbacks: completed, not failed.
    pub rolled_back: u64,
    /// Bytes and records the sessions' in-memory ring WALs took.
    pub ring_log_bytes: u64,
    pub ring_log_records: u64,
    pub spans: Vec<Vec<Span>>,
    pub counts: TraceCounts,
}

impl PhaseOut {
    fn merge(&mut self, o: PhaseOut) {
        self.samples.extend(o.samples);
        self.submitted += o.submitted;
        self.committed += o.committed;
        self.failed += o.failed;
        self.rolled_back += o.rolled_back;
        self.ring_log_bytes += o.ring_log_bytes;
        self.ring_log_records += o.ring_log_records;
        self.spans.extend(o.spans);
        self.counts.merge(&o.counts);
    }

    /// Records the results of one unit (transaction or flight) whose
    /// transactions carry sequence numbers `first_seq..`.
    fn tally(
        &mut self,
        st: &mut ClientState,
        first_seq: u64,
        results: &[Result<(), Abort>],
        start: Instant,
        t0: Instant,
        t1: Instant,
    ) {
        let sample = ((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64);
        for (i, res) in results.iter().enumerate() {
            self.submitted += 1;
            match res {
                Ok(()) => {
                    self.committed += 1;
                    st.ledger.committed += 1;
                    self.samples.push(sample);
                }
                Err(e) => {
                    if e.0 == AbortReason::User {
                        self.rolled_back += 1;
                    } else {
                        self.failed += 1;
                    }
                    st.ledger.unacked.push(first_seq + i as u64);
                }
            }
        }
    }
}

/// A client's sessions: one per partition on the bank.
enum Sessions {
    Mono(Session),
    Parts(PartSession),
}

impl Sessions {
    fn new(target: &Target, proto: Arc<dyn Protocol>) -> Self {
        match target {
            Target::Mono(db) => Sessions::Mono(Session::new(Arc::clone(db), proto)),
            Target::Parts(pdb) => Sessions::Parts(PartSession::new(Arc::clone(pdb), proto)),
        }
    }

    /// The session a unit whose first transaction is `spec` runs on.
    fn for_spec(&self, spec: &dyn TxnSpec) -> &Session {
        match self {
            Sessions::Mono(s) => s,
            Sessions::Parts(ps) => ps.session(PartitionId(spec.home_partition())),
        }
    }

    /// In-memory ring WAL bytes and records (the bank logs to its
    /// partitions' file WALs instead, counted on the database).
    fn ring_log(&self) -> (u64, u64) {
        match self {
            Sessions::Mono(s) => (s.log_bytes(), s.log_records()),
            Sessions::Parts(_) => (0, 0),
        }
    }
}

/// Runs every client for `dur`, traced or not, and merges their output.
pub fn run_phase(
    loaded: &Loaded,
    kind: Kind,
    clients: &mut [ClientState],
    dur: Duration,
    traced: bool,
    epoch: Instant,
) -> PhaseOut {
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let start = Instant::now();
    let deadline = start + dur;
    let outs: Vec<PhaseOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, st)| {
                let proto = Arc::clone(&proto);
                s.spawn(move || {
                    if traced {
                        traced_client(c, st, loaded, kind, start, deadline, epoch)
                    } else {
                        untraced_client(c, st, loaded, kind, proto, start, deadline)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = PhaseOut {
        elapsed_ns: start.elapsed().as_nanos() as u64,
        ..PhaseOut::default()
    };
    for o in outs {
        phase.merge(o);
    }
    phase
}

fn generate(c: usize, st: &mut ClientState, loaded: &Loaded, n: usize) -> Vec<Box<dyn TxnSpec>> {
    st.ledger.generated += n as u64;
    (0..n)
        .map(|_| loaded.workload.generate(c, &mut st.rng))
        .collect()
}

fn untraced_client(
    c: usize,
    st: &mut ClientState,
    loaded: &Loaded,
    kind: Kind,
    proto: Arc<dyn Protocol>,
    start: Instant,
    deadline: Instant,
) -> PhaseOut {
    let sessions = Sessions::new(&loaded.target, proto);
    let mut out = PhaseOut::default();
    while Instant::now() < deadline {
        let first_seq = st.ledger.generated;
        let specs = generate(c, st, loaded, kind.flight());
        let session = sessions.for_spec(&*specs[0]);
        let t0 = Instant::now();
        let results = if specs.len() == 1 {
            vec![session.run(&*specs[0])]
        } else {
            let refs: Vec<&dyn TxnSpec> = specs.iter().map(|s| &**s).collect();
            session.run_many(&refs)
        };
        let t1 = Instant::now();
        out.tally(st, first_seq, &results, start, t0, t1);
    }
    (out.ring_log_bytes, out.ring_log_records) = sessions.ring_log();
    out
}

fn traced_client(
    c: usize,
    st: &mut ClientState,
    loaded: &Loaded,
    kind: Kind,
    start: Instant,
    deadline: Instant,
    epoch: Instant,
) -> PhaseOut {
    let proto = Arc::new(TracingProtocol::new(LockingProtocol::bamboo()));
    let sessions = Sessions::new(&loaded.target, Arc::clone(&proto) as Arc<dyn Protocol>);
    let mut tr = Tracer::new(epoch);
    let mut out = PhaseOut::default();
    let mut unit = 0u64;
    while Instant::now() < deadline {
        let id = ((c as u64) << 48) | unit;
        unit += 1;
        let root_start = tr.now();
        let root = tr.record(id, None, SpanName::Txn, root_start, root_start, 0);
        let first_seq = st.ledger.generated;
        let specs = generate(c, st, loaded, kind.flight());
        tr.record(id, Some(root), SpanName::Generate, root_start, tr.now(), 0);
        let session = sessions.for_spec(&*specs[0]);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(specs.len());
        let mut tickets = Vec::new();
        let attempts = Attempts {
            session,
            proto: &proto,
            defer_ack: kind.durable(),
            txn: id,
            root,
        };
        for (i, spec) in specs.iter().enumerate() {
            match attempts.run(&**spec, &mut tr, &mut out.counts) {
                Ok(Some((commit_ts, ticket))) => {
                    tickets.push((commit_ts, i, ticket));
                    results.push(Ok(()));
                }
                Ok(None) => results.push(Ok(())),
                Err(e) => results.push(Err(e)),
            }
        }
        // Acknowledge in commit-timestamp order, as `Session::run_many`
        // does: the durability horizon advances in that order.
        tickets.sort_by_key(|&(ts, _, _)| ts);
        for (_, i, ticket) in tickets {
            let a0 = tr.now();
            results[i] = session.ack_ticket(ticket);
            tr.record(id, Some(root), SpanName::Ack, a0, tr.now(), 0);
        }
        let t1 = Instant::now();
        tr.close(root, tr.now());
        out.tally(st, first_seq, &results, start, t0, t1);
    }
    (out.ring_log_bytes, out.ring_log_records) = sessions.ring_log();
    out.spans.push(tr.spans);
    out
}

/// The attempt/retry loop of `Session::run`, one span per layer call.
struct Attempts<'a> {
    session: &'a Session,
    proto: &'a TracingProtocol<LockingProtocol>,
    /// Commit with `commit_deferred` and hand the ticket back, so the
    /// acknowledgment gets its own span.
    defer_ack: bool,
    txn: u64,
    root: u32,
}

impl Attempts<'_> {
    fn run(
        &self,
        spec: &dyn TxnSpec,
        tr: &mut Tracer,
        counts: &mut TraceCounts,
    ) -> Result<Option<(u64, DurabilityTicket)>, Abort> {
        let (id, root) = (self.txn, Some(self.root));
        let mut failures = 0u32;
        loop {
            counts.attempts += 1;
            let a0 = tr.now();
            let mut txn = self.session.begin_with(TxnOptions::for_spec(spec));
            let b1 = tr.now();
            tr.record(id, root, SpanName::Begin, a0, b1, 0);
            let exec = (|| -> Result<(), Abort> {
                for p in 0..spec.pieces() {
                    txn.piece_begin(p)?;
                    spec.run_piece(p, &mut txn)?;
                    txn.piece_end()?;
                }
                Ok(())
            })();
            let e1 = tr.now();
            let lock_wait = txn.ctx().timers.lock_wait.as_nanos() as u64;
            tr.record(id, root, SpanName::Exec, b1, e1, lock_wait);
            counts.locks += txn.locks_acquired();
            let res = match exec {
                Ok(()) => {
                    let spanned = txn.partitions_spanned();
                    let committed = if self.defer_ack {
                        txn.commit_deferred()
                    } else {
                        txn.commit().map(|()| None)
                    };
                    let (commit_wait, commit_ts) = self.proto.last_commit();
                    tr.record(id, root, SpanName::Commit, e1, tr.now(), commit_wait);
                    if committed.is_ok() && spanned > 1 {
                        counts.cross_partition_commits += 1;
                    }
                    committed.map(|t| t.map(|t| (commit_ts, t)))
                }
                Err(e) => {
                    txn.abort();
                    tr.record(id, root, SpanName::Abort, e1, tr.now(), 0);
                    Err(e)
                }
            };
            let e = match res {
                Ok(ticket) => return Ok(ticket),
                Err(e) => e,
            };
            counts.aborts[reason_index(e.0)] += 1;
            counts.cascade_victims += self.proto.take_cascaded();
            counts.wasted_ns += tr.now() - a0;
            let retry = self.session.retry();
            if !retry.retryable(e.0) {
                return Err(e);
            }
            failures += 1;
            let k0 = tr.now();
            match retry.backoff(failures) {
                None => std::thread::yield_now(),
                Some(d) => std::thread::sleep(d),
            }
            tr.record(id, root, SpanName::Backoff, k0, tr.now(), 0);
        }
    }
}
