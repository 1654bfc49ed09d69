//! The chaos suite: transfer fire under a *seeded* storage-fault schedule.
//!
//! A [`bamboo_storage::FaultBackend`] sits between the durable commit
//! pipeline and the filesystem, injecting transient fsync failures, short
//! (torn) writes and `ENOSPC` from a reproducible per-seed schedule. The
//! suite asserts the graceful-degradation contract end to end:
//!
//! * no process panic, ever — storage faults surface as
//!   `AbortReason::DurabilityFailed` aborts of the one affected commit;
//! * money is conserved, in memory while the faults fire and on disk after
//!   recovery;
//! * no acked-but-lost commits: every transfer acknowledged under
//!   `FsyncPolicy::GroupCommit` survives recovery, including when a
//!   cross-partition append fails after an earlier partition took its
//!   group (the orphan is voided by an `Abort` marker), and when a failed
//!   batch fsync's group is lost from the file after the heal;
//! * a poisoned partition serves snapshot reads while degraded and the
//!   other partitions keep installing commits. Their acknowledgments fail
//!   with `DurabilityFailed` — on every partition — while an abort marker
//!   is pending or a failed batch member is not yet covered by a
//!   checkpoint (`PartitionedDb::acks_held`), until `heal` clears it;
//! * `PartitionedDb::heal` + recovery converge.
//!
//! Every test prints its seed (`chaos seed: N`); export
//! `BAMBOO_CHAOS_SEED=N` to reproduce a failing schedule exactly. The CI
//! `chaos` job sweeps six fixed seeds in debug and release.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bamboo_repro::core::partition::{PartSession, PartitionedDb};
use bamboo_repro::core::protocol::{
    Ic3Protocol, LockingProtocol, PieceAccess, PieceDecl, Protocol, SiloProtocol, TemplateDecl,
};
use bamboo_repro::core::wal::DurabilityTicket;
use bamboo_repro::core::{AbortReason, DbOptions, TxnOptions};
use bamboo_repro::storage::log::{
    scan_partition_log_from, DataSync, FaultInjector, LogFile, RealBackend,
};
use bamboo_repro::storage::{
    DataType, FaultBackend, FaultPlan, FsyncPolicy, LogBackend, PartitionId, RouteStrategy, Row,
    Schema, TableId, Value, WalRecord,
};

const ACCOUNTS_PER_PART: u64 = 8;
const INITIAL: i64 = 1000;
const PARTS: u32 = 2;
const ACCOUNTS: TableId = TableId(0);
const LEDGER: TableId = TableId(1);

/// The coordinator parameters every durable chaos case runs.
const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 8,
    max_wait_us: 100,
};

/// The schedule seed: `BAMBOO_CHAOS_SEED` when set (the CI sweep and the
/// failing-run repro path), a fixed default otherwise.
fn chaos_seed() -> u64 {
    std::env::var("BAMBOO_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bamboo-chaos-{tag}-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds the two-partition bank (accounts range-routed, ledger hashed)
/// on a fault-injecting backend. The injector starts disarmed, so schema
/// load and the genesis checkpoint run fault-free.
fn build_faulty(
    dir: &Path,
    plan: FaultPlan,
    policy: FsyncPolicy,
) -> (Arc<PartitionedDb>, Arc<FaultInjector>) {
    let injector = FaultInjector::new(plan);
    let backend = Arc::new(FaultBackend::new(Arc::clone(&injector)));
    let mut b = PartitionedDb::builder(PARTS);
    b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
    );
    b.add_table(
        "ledger",
        Schema::build()
            .column("seq", DataType::U64)
            .column("from", DataType::U64)
            .column("to", DataType::U64)
            .column("amount", DataType::I64),
        RouteStrategy::Hash,
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.to_path_buf())
            .with_fsync_policy(policy)
            .with_log_backend(backend),
    );
    let pdb = b.build();
    for a in 0..PARTS as u64 * ACCOUNTS_PER_PART {
        pdb.insert(
            ACCOUNTS,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL)]),
        );
    }
    pdb.checkpoint().expect("genesis checkpoint (disarmed)");
    (pdb, injector)
}

fn balances(pdb: &PartitionedDb) -> BTreeMap<u64, i64> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let table = p.db().table(ACCOUNTS);
        for r in 0..table.len() as u64 {
            let t = table.get_by_row_id(r).unwrap();
            m.insert(t.key, t.read_row().get_i64(1));
        }
    }
    m
}

fn ledger_rows(pdb: &PartitionedDb) -> BTreeMap<u64, (u64, u64, i64)> {
    let mut m = BTreeMap::new();
    for p in pdb.parts() {
        let table = p.db().table(LEDGER);
        for r in 0..table.len() as u64 {
            let t = table.get_by_row_id(r).unwrap();
            let row = t.read_row();
            m.insert(t.key, (row.get_u64(1), row.get_u64(2), row.get_i64(3)));
        }
    }
    m
}

/// One transfer attempt: `from` and `to` debit/credit plus a unique ledger
/// row, all in one transaction. Returns the commit outcome.
fn transfer(
    session: &PartSession,
    seq: u64,
    from: u64,
    to: u64,
    amount: i64,
) -> Result<(), AbortReason> {
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(ACCOUNTS, from, |r| {
        r.set(1, Value::I64(r.get_i64(1) - amount))
    })
    .and_then(|_| {
        txn.update(ACCOUNTS, to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + amount))
        })
    })
    .and_then(|_| {
        txn.insert(
            LEDGER,
            seq,
            Row::from(vec![
                Value::U64(seq),
                Value::U64(from),
                Value::U64(to),
                Value::I64(amount),
            ]),
            None,
        )
    })
    .and_then(|_| txn.commit())
    .map_err(|e| e.0)
}

/// The tentpole chaos run: seeded fsync/short-write/ENOSPC fire during
/// cross-partition transfers. Money conserved, every acked commit durable,
/// heal keeps the fire going after permanent faults, recovery converges.
#[test]
fn seeded_fault_fire_preserves_acked_commits_and_money() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("fire");
    let plan = FaultPlan {
        seed,
        fsync_permille: 40,
        short_write_permille: 25,
        enospc_permille: 12,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    let mut acks: Vec<(u64, u64, u64, i64)> = Vec::new();
    let mut failed = 0u64;
    for seq in 1u64..=400 {
        // Alternate partition-local and cross-partition transfers so both
        // the single-append and the multi-append (orphan-group) paths see
        // faults.
        let from = seq % ACCOUNTS_PER_PART;
        let to = if seq % 2 == 0 {
            ACCOUNTS_PER_PART + seq % ACCOUNTS_PER_PART
        } else {
            (seq + 3) % ACCOUNTS_PER_PART
        };
        if from == to {
            continue;
        }
        let amount = (seq % 10) as i64 + 1;
        match transfer(&session, seq, from, to, amount) {
            Ok(()) => acks.push((seq, from, to, amount)),
            Err(reason) => {
                assert_eq!(
                    reason,
                    AbortReason::DurabilityFailed,
                    "storage faults must surface as DurabilityFailed (seed {seed})"
                );
                failed += 1;
                // Heal degraded partitions in place — with the injector
                // still armed, so the heal path itself is under fire. A
                // failed heal just leaves the partition degraded for the
                // next attempt.
                for p in 0..PARTS {
                    if pdb.parts()[p as usize].wal().is_degraded() {
                        let _ = pdb.heal(PartitionId(p));
                    }
                }
            }
        }
    }
    injector.disarm();
    assert!(
        injector.injected() > 0,
        "the schedule never fired — permilles too low for seed {seed}"
    );
    assert!(
        !acks.is_empty(),
        "every transfer failed under seed {seed} — fire too hot to test durability"
    );
    println!(
        "chaos seed {seed}: {} acked, {failed} aborted, {} faults injected, {} retries, {} failures",
        acks.len(),
        injector.injected(),
        pdb.wal_io_retries(),
        pdb.wal_io_failures(),
    );

    // In-memory invariant while the wreckage is still live: no transfer
    // was half-applied.
    let live = balances(&pdb);
    assert_eq!(
        live.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "faults leaked money in memory (seed {seed})"
    );

    // Heal any leftover degradation so the directory ends on a clean tail,
    // then recover on the real filesystem.
    for p in 0..PARTS {
        if pdb.parts()[p as usize].wal().is_degraded() {
            pdb.heal(PartitionId(p)).expect("disarmed heal succeeds");
        }
    }
    drop(session);
    drop(pdb);
    // No checkpoint after the final heal: the acked transfers must come
    // back from the log. Orphaned cross-partition groups sit mid-log; their
    // abort markers keep them from cutting the history after them. (A heal
    // after a batch fsync that exhausted its retries seals the failed
    // members with a checkpoint; recovery then replays the log after it.)
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap_or_else(|e| panic!("recovery after chaos fire (seed {seed}): {e}"));
    println!("chaos seed {seed}: {report:?}");

    let recovered = balances(&rec);
    assert_eq!(
        recovered.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "recovery leaked money (seed {seed}, report: {report:?})"
    );
    let ledger = ledger_rows(&rec);
    for (seq, from, to, amount) in &acks {
        assert_eq!(
            ledger.get(seq),
            Some(&(*from, *to, *amount)),
            "acked commit {seq} lost (seed {seed}, report: {report:?})"
        );
    }
    // Atomicity: the recovered ledger replayed over the initial balances
    // reproduces the recovered balances — aborted transfers left nothing.
    let mut expected: BTreeMap<u64, i64> = (0..PARTS as u64 * ACCOUNTS_PER_PART)
        .map(|a| (a, INITIAL))
        .collect();
    for (from, to, amount) in ledger.values() {
        *expected.get_mut(from).unwrap() -= amount;
        *expected.get_mut(to).unwrap() += amount;
    }
    assert_eq!(
        recovered, expected,
        "a transfer was half-applied (seed {seed}, report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A permanent fault poisons exactly its partition: writes there abort
/// fast with `DurabilityFailed`, snapshot reads keep serving, the sibling
/// partition keeps committing, and `heal` re-admits writes. Recovery after
/// heal converges.
#[test]
fn degraded_partition_is_read_only_until_heal() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("degrade");
    // Every write tears: the first durable append exhausts its transient
    // retries and escalates to a permanent degrade before anything
    // installs.
    let plan = FaultPlan {
        seed,
        short_write_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    // Partition-0-local transfer: only wal-p000 sees the fault.
    let err = transfer(&session, 1, 0, 1, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    injector.disarm();

    assert_eq!(pdb.degraded_partitions(), 1, "only partition 0 degrades");
    assert!(pdb.parts()[0].wal().is_degraded());
    assert!(!pdb.parts()[1].wal().is_degraded());
    assert!(
        pdb.wal_io_retries() >= 2,
        "transient write faults are retried before escalating"
    );
    assert!(pdb.wal_io_failures() >= 1);

    // Degraded flag persists after the injector stops: writes targeting
    // partition 0 fail fast without touching the filesystem.
    let err = transfer(&session, 2, 2, 3, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed, "degraded fails fast");

    // The failed transfers installed nothing.
    let live = balances(&pdb);
    assert!(live.values().all(|&v| v == INITIAL), "aborts left no trace");

    // Snapshot reads on the degraded partition keep serving.
    let mut snap = session.snapshot_on(PartitionId(0));
    assert_eq!(snap.read(ACCOUNTS, 0).unwrap().get_i64(1), INITIAL);
    snap.commit().unwrap();

    // The sibling partition keeps committing. No ledger row here: the
    // ledger is hash-routed and could land on the degraded partition, and
    // this assertion is about a *strictly* partition-1-local write.
    {
        let mut txn = session.begin_on(PartitionId(1));
        txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 1, |r| {
            r.set(1, Value::I64(r.get_i64(1) - 7))
        })
        .and_then(|_| {
            txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 2, |r| {
                r.set(1, Value::I64(r.get_i64(1) + 7))
            })
        })
        .and_then(|_| txn.commit())
        .expect("healthy partition commits while its sibling is degraded");
    }

    // A cross-partition transfer touching the degraded partition aborts
    // *before* writing an orphan group to the healthy sibling.
    let p1_records = pdb.parts()[1].wal().records();
    let err = transfer(&session, 4, 1, ACCOUNTS_PER_PART + 3, 5).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert_eq!(
        pdb.parts()[1].wal().records(),
        p1_records,
        "degraded pre-check must fire before any sibling append"
    );

    // Checkpoints refuse while any partition is degraded.
    assert!(pdb.checkpoint().is_err(), "checkpoint requires health");

    // Heal partition 0 and re-admit writes.
    pdb.heal(PartitionId(0)).expect("heal re-opens the segment");
    assert_eq!(pdb.degraded_partitions(), 0);
    transfer(&session, 5, 0, 1, 9).expect("healed partition commits again");
    pdb.checkpoint().expect("checkpoint after heal");

    // Recovery converges on the healed history.
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, _report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap();
    assert_eq!(balances(&rec), before, "recovery after heal converges");
    assert_eq!(
        balances(&rec).values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same seed produces the same schedule: two single-threaded fires
/// over identical workloads commit and abort identically, file for file.
#[test]
fn same_seed_reproduces_the_same_outcomes() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let run = |tag: &str| -> (Vec<bool>, u64) {
        let dir = tmp_dir(tag);
        let plan = FaultPlan {
            seed,
            fsync_permille: 60,
            short_write_permille: 30,
            enospc_permille: 15,
            ..FaultPlan::quiet(seed)
        };
        let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
        let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
        let session = PartSession::new(Arc::clone(&pdb), proto);
        injector.arm();
        let mut outcomes = Vec::new();
        for seq in 1u64..=120 {
            let from = seq % ACCOUNTS_PER_PART;
            let to = ACCOUNTS_PER_PART + (seq + 1) % ACCOUNTS_PER_PART;
            outcomes.push(transfer(&session, seq, from, to, 1).is_ok());
            for p in 0..PARTS {
                if pdb.parts()[p as usize].wal().is_degraded() {
                    let _ = pdb.heal(PartitionId(p));
                }
            }
        }
        injector.disarm();
        let injected = injector.injected();
        drop(session);
        drop(pdb);
        let _ = std::fs::remove_dir_all(&dir);
        (outcomes, injected)
    };
    let (a, ia) = run("det-a");
    let (b, ib) = run("det-b");
    assert_eq!(a, b, "same seed, same commit/abort sequence (seed {seed})");
    assert_eq!(ia, ib, "same seed, same injected-fault count (seed {seed})");
    assert!(ia > 0, "schedule fired at least once under seed {seed}");
}

/// Group-commit batch-fsync failure: the whole staged batch surfaces
/// `DurabilityFailed` at *ack* time — the commit points all passed (the
/// append path never syncs), versions installed and locks released, so
/// the batch fsync is the first thing that can fail.
/// The failing partition degrades, the sibling keeps committing, and
/// heal + checkpoint + recovery converge on the installed state.
#[test]
fn group_commit_batch_fsync_failure_fails_whole_batch_and_degrades() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("group-batch");
    // Every fsync fails: the leader's batch sync exhausts its transient
    // retries and escalates to a permanent degrade.
    let plan = FaultPlan {
        seed,
        fsync_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    injector.arm();
    // Stage a batch of partition-0-local transfers through the
    // deferred-ack pipeline (accounts only — the ledger is hash-routed
    // and could drag the healthy sibling's WAL into the ticket).
    let mut tickets = Vec::new();
    for seq in 1u64..=4 {
        let (from, to) = (seq, (seq + 3) % ACCOUNTS_PER_PART);
        let mut txn = session.begin_on(PartitionId(0));
        txn.update(ACCOUNTS, from, |r| r.set(1, Value::I64(r.get_i64(1) - 5)))
            .and_then(|_| txn.update(ACCOUNTS, to, |r| r.set(1, Value::I64(r.get_i64(1) + 5))))
            .expect("fsync faults cannot touch the commit point under GroupCommit");
        let ticket = txn
            .commit_deferred()
            .expect("commit point passes — only the ack can fail")
            .expect("durable GroupCommit commits always carry a ticket");
        tickets.push((seq, ticket));
    }
    // Every member of the batch fails at ack time, not just the leader.
    for (seq, ticket) in tickets {
        let err = session
            .session(PartitionId(0))
            .ack_ticket(ticket)
            .expect_err("the batch fsync failed — no member may ack");
        assert_eq!(
            err.0,
            AbortReason::DurabilityFailed,
            "batch member {seq} must surface DurabilityFailed (seed {seed})"
        );
    }
    injector.disarm();
    assert!(injector.injected() > 0, "the batch fsync never fired");
    assert_eq!(pdb.degraded_partitions(), 1, "only partition 0 degrades");
    assert!(pdb.parts()[0].wal().is_degraded());
    assert!(!pdb.parts()[1].wal().is_degraded());

    // Ack-time failure is post-commit: the batch is installed in memory
    // (that is the documented durability gap until heal + checkpoint),
    // and no transfer was half-applied.
    let live = balances(&pdb);
    assert!(
        live.values().any(|&v| v != INITIAL),
        "batch members must be installed despite the failed ack"
    );
    assert_eq!(
        live.values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "the failed batch leaked money in memory (seed {seed})"
    );

    // The sibling partition keeps committing while partition 0 is
    // degraded — its commit installs — but no acknowledgment passes the
    // failed batch until a checkpoint covers it: the failed groups may
    // still vanish from the log.
    assert!(pdb.acks_held(), "the failed batch holds every later ack");
    {
        let mut txn = session.begin_on(PartitionId(1));
        let err = txn
            .update(ACCOUNTS, ACCOUNTS_PER_PART + 1, |r| {
                r.set(1, Value::I64(r.get_i64(1) - 7))
            })
            .and_then(|_| {
                txn.update(ACCOUNTS, ACCOUNTS_PER_PART + 2, |r| {
                    r.set(1, Value::I64(r.get_i64(1) + 7))
                })
            })
            .and_then(|_| txn.commit())
            .expect_err("no ack above an unsealed failed batch");
        assert_eq!(err.0, AbortReason::DurabilityFailed);
    }
    assert_eq!(
        balances(&pdb)[&(ACCOUNTS_PER_PART + 1)],
        INITIAL - 7,
        "the healthy partition's commit installed"
    );

    // Later tickets on the degraded partition fail fast without parking.
    {
        let mut txn = session.begin_on(PartitionId(0));
        txn.update(ACCOUNTS, 6, |r| r.set(1, Value::I64(r.get_i64(1) - 1)))
            .and_then(|_| txn.update(ACCOUNTS, 7, |r| r.set(1, Value::I64(r.get_i64(1) + 1))))
            .and_then(|_| txn.commit())
            .expect_err("degraded partition must refuse new commits");
    }

    // Heal (which seals the failed batch with a checkpoint), recommit,
    // checkpoint; recovery converges on the installed state (including the
    // never-acked batch, which the checkpoints made durable).
    pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
    assert_eq!(pdb.degraded_partitions(), 0);
    assert!(!pdb.acks_held(), "the heal's checkpoint sealed the batch");
    transfer(&session, 100, 0, 1, 3).expect("healed partition commits and acks again");
    pdb.checkpoint().expect("checkpoint after heal");
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap_or_else(|e| panic!("recovery after batch failure + heal (seed {seed}): {e}"));
    assert_eq!(
        balances(&rec),
        before,
        "recovery diverged from the healed state (seed {seed}, report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partition-0-local transfer of 5 from `from` to `to`, committed with
/// its acknowledgment deferred. `Ok(None)` never happens under
/// `GroupCommit` (a durable commit always carries a ticket).
fn deferred_transfer(
    session: &PartSession,
    from: u64,
    to: u64,
) -> Result<Option<DurabilityTicket>, AbortReason> {
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(ACCOUNTS, from, |r| r.set(1, Value::I64(r.get_i64(1) - 5)))
        .and_then(|_| txn.update(ACCOUNTS, to, |r| r.set(1, Value::I64(r.get_i64(1) + 5))))
        .map_err(|e| e.0)?;
    txn.commit_deferred().map_err(|e| e.0)
}

/// The leader's batch fsync runs outside the partition's append lock, so a
/// second session keeps appending while a failing fsync retries and
/// degrades the partition. No member of the failed batch — nor any commit
/// appended behind it — may be acknowledged, and the durability watermark
/// never moves past the last successful fsync (here: the genesis
/// checkpoint's, since every fsync fails).
#[test]
fn group_commit_fsync_failure_with_concurrent_appends_acks_nothing() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("group-concurrent");
    let plan = FaultPlan {
        seed,
        fsync_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let wal = Arc::clone(pdb.parts()[0].wal());
    let synced = wal.durable_lsn();

    injector.arm();
    let batch: Vec<DurabilityTicket> = (0..4)
        .map(|i| {
            deferred_transfer(&session, i, (i + 1) % 4)
                .expect("fsync faults cannot touch the commit point under GroupCommit")
                .expect("durable GroupCommit commits always carry a ticket")
        })
        .collect();
    let stop = AtomicBool::new(false);
    let (batch_acks, appender_acks) = std::thread::scope(|s| {
        // Samples the watermark for as long as the fsyncs fail.
        let watcher = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                assert_eq!(
                    wal.durable_lsn(),
                    synced,
                    "the watermark moved without a successful fsync (seed {seed})"
                );
                std::thread::yield_now();
            }
        });
        // Appends behind the failing batch until the degrade stops it.
        let appender = s.spawn(|| {
            let mut tickets = Vec::new();
            for _ in 0..10_000 {
                match deferred_transfer(&session, 4, 5) {
                    Ok(Some(ticket)) => tickets.push(ticket),
                    Ok(None) => panic!("durable GroupCommit commit without a ticket"),
                    Err(AbortReason::DurabilityFailed) => break,
                    Err(_) => {} // a conflict abort; retry
                }
            }
            let pending = tickets.len();
            let acks: Vec<_> = tickets
                .into_iter()
                .map(|t| session.session(PartitionId(0)).ack_ticket(t))
                .collect();
            assert_eq!(acks.len(), pending);
            acks
        });
        let acks: Vec<_> = batch
            .into_iter()
            .map(|t| session.session(PartitionId(0)).ack_ticket(t))
            .collect();
        let appended = appender.join().unwrap();
        stop.store(true, Ordering::Release);
        watcher.join().unwrap();
        (acks, appended)
    });
    injector.disarm();
    for (i, ack) in batch_acks.iter().chain(&appender_acks).enumerate() {
        let err = ack
            .as_ref()
            .expect_err("every fsync failed — no commit may ack");
        assert_eq!(
            err.0,
            AbortReason::DurabilityFailed,
            "commit {i} must surface DurabilityFailed (seed {seed})"
        );
    }
    assert_eq!(pdb.group_acks(), 0, "nothing was acknowledged");
    assert_eq!(wal.durable_lsn(), synced);
    assert_eq!(pdb.degraded_partitions(), 1, "only partition 0 degrades");
    assert_eq!(
        balances(&pdb).values().sum::<i64>(),
        PARTS as i64 * ACCOUNTS_PER_PART as i64 * INITIAL,
        "the failed batch leaked money in memory (seed {seed})"
    );

    // Heal, seal with a checkpoint; recovery converges on the installed
    // state.
    pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
    pdb.checkpoint().expect("checkpoint after heal");
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap_or_else(|e| panic!("recovery after concurrent batch failure (seed {seed}): {e}"));
    assert_eq!(
        balances(&rec),
        before,
        "recovery diverged from the healed state (seed {seed}, report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A heal between a failed batch fsync and the acknowledgment must not
/// make the failed commit look durable. The healed writer's watermark
/// starts at the end of the log it scanned, which includes the commit's
/// bytes (they reached the OS; only their fsync failed), but that
/// watermark belongs to a new writer generation and covers nothing
/// written before the heal.
#[test]
fn group_commit_heal_before_ack_never_counts_the_failed_commit_durable() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let dir = tmp_dir("group-heal");
    let plan = FaultPlan {
        seed,
        fsync_permille: 1000,
        ..FaultPlan::quiet(seed)
    };
    let (pdb, injector) = build_faulty(&dir, plan, GROUP_POLICY);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let wal = Arc::clone(pdb.parts()[0].wal());

    injector.arm();
    let first = deferred_transfer(&session, 0, 1)
        .expect("commit point passes")
        .expect("ticket");
    let second = deferred_transfer(&session, 2, 3)
        .expect("commit point passes")
        .expect("ticket");
    let end = wal.current_lsn();
    // The first ack leads the batch fsync covering both groups; it fails.
    let err = session
        .session(PartitionId(0))
        .ack_ticket(first)
        .expect_err("the batch fsync failed");
    assert_eq!(err.0, AbortReason::DurabilityFailed);
    assert!(wal.is_degraded());
    assert!(wal.durable_lsn() < end);

    injector.disarm();
    pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
    assert!(
        wal.durable_lsn() >= end,
        "the healed writer resumes past the failed batch's bytes"
    );
    let err = session
        .session(PartitionId(0))
        .ack_ticket(second)
        .expect_err("a heal must not acknowledge a commit whose fsync failed");
    assert_eq!(
        err.0,
        AbortReason::DurabilityFailed,
        "the unsynced member must surface DurabilityFailed (seed {seed})"
    );
    assert_eq!(pdb.group_acks(), 0, "the horizon acknowledged nothing");

    // The healed partition acknowledges new commits again.
    transfer(&session, 100, 4, 5, 3).expect("healed partition commits and acks");
    assert_eq!(pdb.group_acks(), 1);
    drop(session);
    drop(pdb);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `DurabilityFailed` release contract, across every protocol family:
/// a commit that reaches its commit point and is then revoked by a
/// storage fault must release its locks exactly once — the tuples end
/// quiescent, nothing installed, and a follow-up transaction on the same
/// keys commits immediately once the partition is healed.
#[test]
fn durability_failed_abort_releases_locks_under_every_protocol() {
    let ic3_generic = || {
        vec![TemplateDecl {
            name: "generic".into(),
            pieces: vec![PieceDecl::new(vec![PieceAccess::write(
                ACCOUNTS,
                u64::MAX,
                u64::MAX,
            )])],
        }]
    };
    let protocols: Vec<(&str, Arc<dyn Protocol>)> = vec![
        ("bamboo", Arc::new(LockingProtocol::bamboo())),
        ("wound_wait", Arc::new(LockingProtocol::wound_wait())),
        ("wait_die", Arc::new(LockingProtocol::wait_die())),
        ("no_wait", Arc::new(LockingProtocol::no_wait())),
        ("silo", Arc::new(SiloProtocol::new())),
        ("ic3", Arc::new(Ic3Protocol::new(ic3_generic(), false))),
    ];
    for (name, proto) in protocols {
        let dir = tmp_dir(&format!("release-{name}"));
        // Every write fails with ENOSPC: the first durable append fails
        // permanently and its commit is revoked before anything installs.
        let plan = FaultPlan {
            seed: chaos_seed(),
            enospc_permille: 1000,
            ..FaultPlan::quiet(chaos_seed())
        };
        let injector = FaultInjector::new(plan);
        let backend = Arc::new(FaultBackend::new(Arc::clone(&injector)));
        let mut b = PartitionedDb::builder(1);
        let t = b.add_table(
            "accounts",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
            RouteStrategy::Hash,
        );
        b.with_options(
            DbOptions::new()
                .with_wal_dir(dir.clone())
                .with_fsync_policy(GROUP_POLICY)
                .with_log_backend(backend),
        );
        let pdb = b.build();
        for k in 0..4u64 {
            pdb.insert(t, k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        pdb.checkpoint().expect("genesis checkpoint (disarmed)");
        let session = PartSession::new(Arc::clone(&pdb), proto);

        injector.arm();
        {
            let mut txn = session.begin_on_with(PartitionId(0), TxnOptions::new().template(0));
            txn.piece_begin(0).unwrap();
            for k in 0..2u64 {
                txn.update(t, k, |r| r.set(1, Value::I64(99))).unwrap();
            }
            txn.piece_end().unwrap();
            let err = txn.commit().unwrap_err();
            assert_eq!(
                err.0,
                AbortReason::DurabilityFailed,
                "{name}: the revoked commit must surface as DurabilityFailed"
            );
            // `commit` consumed the txn and aborted in place; the drop
            // here must NOT release a second time.
        }
        injector.disarm();

        let db0 = pdb.parts()[0].db();
        for k in 0..2u64 {
            let tup = db0.table(t).get(k).unwrap();
            assert!(
                tup.meta.lock.lock().is_quiescent(),
                "{name}: key {k} left residual lock state after DurabilityFailed"
            );
            assert!(
                tup.meta.ic3.lock().is_quiescent(),
                "{name}: key {k} left residual ic3 state after DurabilityFailed"
            );
            assert_eq!(
                tup.read_row().get_i64(1),
                0,
                "{name}: revoked commit installed its write into key {k}"
            );
        }

        pdb.heal(PartitionId(0)).expect("disarmed heal succeeds");
        let mut txn = session.begin_on_with(PartitionId(0), TxnOptions::new().template(0));
        txn.piece_begin(0).unwrap();
        for k in 0..2u64 {
            txn.update(t, k, |r| r.set(1, Value::I64(7))).unwrap();
        }
        txn.piece_end().unwrap();
        txn.commit().unwrap_or_else(|e| {
            panic!("{name}: follow-up txn blocked by a leaked lock or stuck degraded flag: {e}")
        });
        for k in 0..2u64 {
            assert_eq!(db0.table(t).get(k).unwrap().read_row().get_i64(1), 7);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Write budgets per partition for [`TargetedBackend`]: `Some(n)` lets `n`
/// more writes to that partition's segments succeed, then fails every
/// write with `ENOSPC`; `None` never fails.
type Budgets = Arc<Mutex<Vec<Option<u64>>>>;

/// Per partition, whether [`TargetedBackend`] fails its segments' fsyncs
/// with `EIO`.
type FailingSyncs = Arc<Mutex<Vec<bool>>>;

/// A backend that fails writes to chosen partitions' segments with
/// `ENOSPC`, or their fsyncs with `EIO` — the deterministic counterpart of
/// the seeded schedule, for tests that need one exact failure at one exact
/// append or batch fsync.
#[derive(Debug)]
struct TargetedBackend {
    budgets: Budgets,
    syncs: FailingSyncs,
}

struct TargetedFile {
    inner: Box<dyn LogFile>,
    partition: Option<usize>,
    budgets: Budgets,
    syncs: FailingSyncs,
}

impl LogFile for TargetedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(p) = self.partition {
            match &mut self.budgets.lock().unwrap()[p] {
                Some(0) => return Err(io::Error::from_raw_os_error(28)),
                Some(n) => *n -= 1,
                None => {}
            }
        }
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn detach_sync(&mut self) -> io::Result<Arc<dyn DataSync>> {
        // Push the bytes to the OS first, as a real failed fsync would
        // leave them: readable now, gone after a power cut.
        let sync = self.inner.detach_sync()?;
        if self
            .partition
            .is_some_and(|p| self.syncs.lock().unwrap()[p])
        {
            return Ok(Arc::new(EioSync));
        }
        Ok(sync)
    }
}

/// A batch fsync that fails with `EIO`.
struct EioSync;

impl DataSync for EioSync {
    fn sync_data(&self) -> io::Result<()> {
        Err(io::Error::from_raw_os_error(5))
    }
}

impl TargetedBackend {
    fn wrap(&self, path: &Path, inner: Box<dyn LogFile>) -> Box<dyn LogFile> {
        let name = path.file_name().unwrap().to_string_lossy();
        let partition = name
            .strip_prefix("wal-p")
            .and_then(|rest| rest.get(..3))
            .map(|p| p.parse().unwrap());
        Box::new(TargetedFile {
            inner,
            partition,
            budgets: Arc::clone(&self.budgets),
            syncs: Arc::clone(&self.syncs),
        })
    }
}

impl LogBackend for TargetedBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        RealBackend.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealBackend.list_dir(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        Ok(self.wrap(path, RealBackend.create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        Ok(self.wrap(path, RealBackend.open_append(path)?))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        RealBackend.file_len(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealBackend.read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        RealBackend.truncate(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealBackend.remove_file(path)
    }
}

/// A range-partitioned accounts-only bank over `parts` partitions on a
/// [`TargetedBackend`] with no fault set, after its genesis checkpoint.
fn build_targeted(dir: &Path, parts: u32) -> (Arc<PartitionedDb>, Budgets, FailingSyncs) {
    let budgets: Budgets = Arc::new(Mutex::new(vec![None; parts as usize]));
    let syncs: FailingSyncs = Arc::new(Mutex::new(vec![false; parts as usize]));
    let mut b = PartitionedDb::builder(parts);
    b.add_table(
        "accounts",
        Schema::build()
            .column("k", DataType::U64)
            .column("v", DataType::I64),
        RouteStrategy::Range((1..parts as u64).map(|p| p * ACCOUNTS_PER_PART).collect()),
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(dir.to_path_buf())
            .with_fsync_policy(GROUP_POLICY)
            .with_log_backend(Arc::new(TargetedBackend {
                budgets: Arc::clone(&budgets),
                syncs: Arc::clone(&syncs),
            })),
    );
    let pdb = b.build();
    for a in 0..parts as u64 * ACCOUNTS_PER_PART {
        pdb.insert(
            ACCOUNTS,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL)]),
        );
    }
    pdb.checkpoint().expect("genesis checkpoint");
    (pdb, budgets, syncs)
}

/// Moves `amount` from account `from` to `to` (no ledger row, so the
/// partitions written are exactly the two accounts' owners), committing
/// with its acknowledgment deferred.
fn deferred_move(
    session: &PartSession,
    from: u64,
    to: u64,
    amount: i64,
) -> Result<Option<DurabilityTicket>, AbortReason> {
    let mut txn = session.begin_on(PartitionId(0));
    txn.update(ACCOUNTS, from, |r| {
        r.set(1, Value::I64(r.get_i64(1) - amount))
    })
    .and_then(|_| {
        txn.update(ACCOUNTS, to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + amount))
        })
    })
    .map_err(|e| e.0)?;
    txn.commit_deferred().map_err(|e| e.0)
}

/// Like [`deferred_move`], but acknowledged before returning.
fn acked_move(session: &PartSession, from: u64, to: u64, amount: i64) -> Result<(), AbortReason> {
    let ticket = deferred_move(session, from, to, amount)?.expect("GroupCommit carries a ticket");
    session
        .session(PartitionId(0))
        .ack_ticket(ticket)
        .map_err(|e| e.0)
}

/// Transaction ids voided by `Abort` markers in partition `p`'s log.
fn abort_markers(dir: &Path, p: u32) -> Vec<u64> {
    scan_partition_log_from(dir, p, 0)
        .unwrap()
        .records
        .into_iter()
        .filter_map(|(_, rec)| match rec {
            WalRecord::Abort { txn_id, .. } => Some(txn_id),
            _ => None,
        })
        .collect()
}

/// A cross-partition commit whose partition-1 append fails after its
/// partition-0 group landed leaves an orphan group on partition 0. The
/// commit path voids it with a durable `Abort` marker, so partition-0
/// commits after it are acknowledged, and recovery keeps them while
/// dropping the orphan alone — no horizon cut at the orphan's timestamp.
#[test]
fn orphan_group_is_voided_and_later_commits_survive_recovery() {
    let dir = tmp_dir("orphan");
    let (pdb, budgets, _) = build_targeted(&dir, 2);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);

    budgets.lock().unwrap()[1] = Some(0);
    let err = acked_move(&session, 1, ACCOUNTS_PER_PART + 1, 9).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert!(pdb.parts()[1].wal().is_degraded());
    assert!(!pdb.parts()[0].wal().is_degraded());
    assert_eq!(abort_markers(&dir, 0).len(), 1, "the orphan is voided");

    for i in 0..3 {
        acked_move(&session, i, i + 4, 5).expect("partition-0 commits ack past the orphan");
    }
    assert_eq!(pdb.group_acks(), 3);

    budgets.lock().unwrap()[1] = None;
    pdb.heal(PartitionId(1)).expect("heal");
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap();
    assert_eq!(report.dropped_aborted, 1, "report: {report:?}");
    assert_eq!(report.dropped_incomplete, 0, "report: {report:?}");
    assert_eq!(report.dropped_horizon, 0, "report: {report:?}");
    assert_eq!(report.replayed_txns, 3, "report: {report:?}");
    assert_eq!(balances(&rec), before, "the acked commits survive");
    let _ = std::fs::remove_dir_all(&dir);
}

/// When the orphan's abort marker cannot be written either, the marker
/// stays pending on its degraded partition: no later commit — even one on
/// an unrelated healthy partition — is acknowledged until `heal` lands the
/// marker. Recovery then drops the orphan and keeps everything else.
#[test]
fn pending_abort_marker_blocks_later_acks_until_heal() {
    let dir = tmp_dir("orphan-pending");
    let (pdb, budgets, _) = build_targeted(&dir, 3);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let p2 = 2 * ACCOUNTS_PER_PART;

    // Partition 0 takes the orphan group, then refuses its marker.
    *budgets.lock().unwrap() = vec![Some(1), Some(0), None];
    let err = acked_move(&session, 1, ACCOUNTS_PER_PART + 1, 9).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert!(pdb.parts()[0].wal().is_degraded());
    assert!(pdb.parts()[1].wal().is_degraded());
    assert!(abort_markers(&dir, 0).is_empty(), "the marker never landed");

    // A partition-2 commit installs, but its acknowledgment fails while
    // the marker is pending.
    let err = acked_move(&session, p2, p2 + 1, 4).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert_eq!(pdb.group_acks(), 0, "nothing acks ahead of the marker");

    *budgets.lock().unwrap() = vec![None; 3];
    pdb.heal(PartitionId(0))
        .expect("heal lands the pending marker");
    assert_eq!(abort_markers(&dir, 0).len(), 1);
    acked_move(&session, p2 + 1, p2 + 2, 3).expect("acks resume after the heal");
    assert_eq!(pdb.group_acks(), 1);

    pdb.heal(PartitionId(1)).expect("heal");
    let before = balances(&pdb);
    drop(session);
    drop(pdb);
    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap();
    assert_eq!(report.dropped_aborted, 1, "report: {report:?}");
    assert_eq!(report.dropped_horizon, 0, "report: {report:?}");
    assert_eq!(balances(&rec), before, "report: {report:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit whose batch fsync failed stays installed, but the kernel may
/// drop the pages of a failed write-back, so its group can vanish from the
/// log later — at a power cut long after the heal. Until a checkpoint
/// covers it, no later commit is acknowledged, even on the healthy
/// partition; `heal` takes that checkpoint. The test then cuts the failed
/// group's bytes out of the file, as the power cut would, and every
/// acknowledged commit still recovers.
#[test]
fn failed_fsync_holds_acks_until_a_checkpoint_covers_the_lost_group() {
    let dir = tmp_dir("lost-group");
    let (pdb, _, syncs) = build_targeted(&dir, 2);
    let proto: Arc<dyn Protocol> = Arc::new(LockingProtocol::bamboo());
    let session = PartSession::new(Arc::clone(&pdb), proto);
    let wal1 = Arc::clone(pdb.parts()[1].wal());

    // A cross-partition commit: its partition-0 group becomes durable,
    // its partition-1 group's batch fsync fails.
    syncs.lock().unwrap()[1] = true;
    let start = wal1.current_lsn();
    let ticket = deferred_move(&session, 1, ACCOUNTS_PER_PART + 1, 9)
        .expect("the commit point passes")
        .expect("GroupCommit carries a ticket");
    let lost = wal1.current_lsn() - start;
    let err = session
        .session(PartitionId(0))
        .ack_ticket(ticket)
        .expect_err("the batch fsync failed");
    assert_eq!(err.0, AbortReason::DurabilityFailed);
    assert!(wal1.is_degraded());
    assert!(pdb.acks_held());

    // A partition-0-local commit installs, but its acknowledgment fails:
    // recovery could not keep it if the failed group vanished.
    let err = acked_move(&session, 2, 3, 4).unwrap_err();
    assert_eq!(err, AbortReason::DurabilityFailed);
    assert_eq!(pdb.group_acks(), 0, "nothing acks above the failed commit");

    syncs.lock().unwrap()[1] = false;
    pdb.heal(PartitionId(1))
        .expect("heal re-opens the log and seals the failed commit");
    assert!(!pdb.acks_held());
    acked_move(&session, 4, 5, 3).expect("acks resume after the heal");
    acked_move(&session, 6, ACCOUNTS_PER_PART + 2, 2).expect("cross-partition acks resume");
    assert_eq!(pdb.group_acks(), 2);
    let before = balances(&pdb);
    drop(session);
    drop(pdb);

    // The power cut: the failed write-back never reached the disk. The
    // heal moved partition 1 on to a fresh segment, so the lost bytes are
    // the tail of the one before it.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("wal-p001-")
        })
        .collect();
    segments.sort();
    let failed = &segments[segments.len() - 2];
    let len = std::fs::metadata(failed).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(failed)
        .unwrap()
        .set_len(len - lost)
        .unwrap();

    let (rec, report) = PartitionedDb::recover(
        DbOptions::new()
            .with_wal_dir(dir.clone())
            .with_fsync_policy(GROUP_POLICY),
    )
    .unwrap();
    assert_eq!(report.dropped_incomplete, 0, "report: {report:?}");
    assert_eq!(report.dropped_horizon, 0, "report: {report:?}");
    assert_eq!(
        balances(&rec),
        before,
        "every acked commit survives the lost group (report: {report:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
