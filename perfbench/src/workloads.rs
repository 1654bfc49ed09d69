//! The four workloads: how each is loaded, the bank transfer generator
//! the durable pair shares, and each workload's correctness checks.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bamboo_core::executor::{TxnSpec, Workload};
use bamboo_core::partition::PartitionedDb;
use bamboo_core::{Abort, Database, DbOptions, RecoveryReport, Txn};
use bamboo_storage::{
    DataType, FsyncPolicy, PartitionId, RouteStrategy, Row, Schema, TableId, Value,
};
use bamboo_workload::tpcc::schema::{dist, orders, wh, DISTRICTS_PER_WAREHOUSE};
use bamboo_workload::tpcc::{self, TpccTables};
use bamboo_workload::{synthetic, SyntheticConfig, SyntheticWorkload, TpccConfig, TpccWorkload};
use rand::rngs::SmallRng;
use rand::Rng;

/// Closed-loop clients per workload: one per core of the 2-vCPU host the
/// benchmark was sized on.
pub const CLIENTS: usize = 2;
/// Transfers per `Session::run_many` flight on `durable_batched`. Large
/// enough that staging and encoding a flight outlasts the leader's fsync
/// and the park/wake hand-offs around it, so the rate follows the commit
/// pipeline's CPU cost rather than the host's wake-up latency (which with
/// 32-transfer flights swung the rate by a quarter between idle and busy
/// periods of the same host).
pub const FLIGHT: usize = 64;
/// Accounts on each of the bank's two partitions: far more than clients,
/// so the lock layer stays nearly idle and the WAL dominates. The load is
/// large enough (131,072 accounts, ~73 MB) that set-up time is mostly the
/// loader's CPU work, not the few fsyncs the genesis checkpoint issues.
pub const ACCOUNTS_PER_PART: u64 = 1 << 16;
const BANK_PARTS: u32 = 2;
const INITIAL_BALANCE: i64 = 1_000_000;
/// The group-commit coordinator settings both durable workloads run.
pub const GROUP_POLICY: FsyncPolicy = FsyncPolicy::GroupCommit {
    max_batch: 64,
    max_wait_us: 100,
};
/// Ledger ids carry the client index above this many sequence bits.
const LEDGER_SEQ_BITS: u32 = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Hotspot,
    Tpcc,
    DurableSync,
    DurableBatched,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Hotspot,
        Kind::Tpcc,
        Kind::DurableSync,
        Kind::DurableBatched,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hotspot => "hotspot",
            Kind::Tpcc => "tpcc",
            Kind::DurableSync => "durable_sync",
            Kind::DurableBatched => "durable_batched",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the workload runs on the durable bank (file WAL, group
    /// commit, recovery at the end).
    pub fn durable(self) -> bool {
        matches!(self, Kind::DurableSync | Kind::DurableBatched)
    }

    /// Transactions a client submits at once: a `run_many` flight on
    /// `durable_batched`, one everywhere else.
    pub fn flight(self) -> usize {
        if self == Kind::DurableBatched {
            FLIGHT
        } else {
            1
        }
    }

    pub fn fsync_policy(self) -> Option<FsyncPolicy> {
        self.durable().then_some(GROUP_POLICY)
    }
}

/// The database a workload runs on.
pub enum Target {
    Mono(Arc<Database>),
    Parts(Arc<PartitionedDb>),
}

/// What a workload's checks read back.
enum Tables {
    Hotspot(TableId),
    Tpcc(TpccTables),
    Bank(Arc<Bank>),
}

/// A loaded workload, ready for clients.
pub struct Loaded {
    pub target: Target,
    pub workload: Arc<dyn Workload>,
    tables: Tables,
    wal_dir: Option<PathBuf>,
    /// Loader time (for the durable bank this includes opening the WAL).
    pub load_ns: u64,
    /// Genesis checkpoint time (durable workloads only).
    pub checkpoint_ns: u64,
}

/// Per-client outcome record the checks need.
#[derive(Clone, Debug, Default)]
pub struct ClientLedger {
    /// Transactions generated so far (the next one's sequence number).
    pub generated: u64,
    /// Sequence numbers of transactions that were not committed or
    /// acknowledged.
    pub unacked: Vec<u64>,
    /// Transactions committed (acknowledged on durable workloads).
    pub committed: u64,
}

/// Loads `kind`. Durable workloads open their WAL in `wal_dir` (which must
/// not exist yet) and take the genesis checkpoint there.
pub fn setup(kind: Kind, wal_dir: &Path) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let (target, workload, tables): (Target, Arc<dyn Workload>, Tables) = match kind {
        Kind::Hotspot => {
            let cfg = SyntheticConfig::default();
            let (db, t) = synthetic::load(&cfg);
            let wl = SyntheticWorkload::new(cfg, t);
            (Target::Mono(db), Arc::new(wl), Tables::Hotspot(t))
        }
        Kind::Tpcc => {
            let cfg = TpccConfig::default();
            let (db, tables, lastname) = tpcc::load(&cfg);
            let wl = TpccWorkload::new(cfg, Arc::clone(&db), tables, lastname);
            (Target::Mono(db), Arc::new(wl), Tables::Tpcc(tables))
        }
        Kind::DurableSync | Kind::DurableBatched => {
            let (pdb, bank) = load_bank(wal_dir);
            let bank = Arc::new(bank);
            (
                Target::Parts(pdb),
                Arc::clone(&bank) as Arc<dyn Workload>,
                Tables::Bank(bank),
            )
        }
    };
    let load_ns = t0.elapsed().as_nanos() as u64;
    let mut checkpoint_ns = 0;
    if let Target::Parts(pdb) = &target {
        let t1 = Instant::now();
        pdb.checkpoint()
            .map_err(|e| format!("genesis checkpoint failed: {e}"))?;
        checkpoint_ns = t1.elapsed().as_nanos() as u64;
    }
    Ok(Loaded {
        target,
        workload,
        tables,
        wal_dir: kind.durable().then(|| wal_dir.to_path_buf()),
        load_ns,
        checkpoint_ns,
    })
}

fn load_bank(wal_dir: &Path) -> (Arc<PartitionedDb>, Bank) {
    let mut b = PartitionedDb::builder(BANK_PARTS);
    let accounts = b.add_table(
        "accounts",
        Schema::build()
            .column("id", DataType::U64)
            .column("balance", DataType::I64),
        RouteStrategy::Range(vec![ACCOUNTS_PER_PART]),
    );
    let ledger = b.add_table(
        "ledger",
        Schema::build()
            .column("id", DataType::U64)
            .column("from", DataType::U64)
            .column("to", DataType::U64)
            .column("amount", DataType::I64),
        RouteStrategy::Hash,
    );
    b.with_options(
        DbOptions::new()
            .with_wal_dir(wal_dir.to_path_buf())
            .with_fsync_policy(GROUP_POLICY),
    );
    let pdb = b.build();
    for a in 0..u64::from(BANK_PARTS) * ACCOUNTS_PER_PART {
        pdb.insert(
            accounts,
            a,
            Row::from(vec![Value::U64(a), Value::I64(INITIAL_BALANCE)]),
        );
    }
    let bank = Bank {
        accounts,
        ledger,
        next: (0..CLIENTS).map(|_| AtomicU64::new(0)).collect(),
    };
    (pdb, bank)
}

/// The durable workloads' generator: each transfer moves money from an
/// account on one partition to an account on the other and records itself
/// in the ledger under an id unique per (client, sequence number).
pub struct Bank {
    accounts: TableId,
    ledger: TableId,
    next: Vec<AtomicU64>,
}

impl Bank {
    fn ledger_id(client: usize, seq: u64) -> u64 {
        ((client as u64) << LEDGER_SEQ_BITS) | seq
    }
}

impl Workload for Bank {
    fn name(&self) -> &str {
        "bank"
    }

    fn generate(&self, worker: usize, rng: &mut SmallRng) -> Box<dyn TxnSpec> {
        let low = rng.gen_range(0..ACCOUNTS_PER_PART);
        let high = ACCOUNTS_PER_PART + rng.gen_range(0..ACCOUNTS_PER_PART);
        let (from, to) = if rng.gen_bool(0.5) {
            (low, high)
        } else {
            (high, low)
        };
        Box::new(Transfer {
            accounts: self.accounts,
            ledger: self.ledger,
            from,
            to,
            amount: rng.gen_range(1..=100),
            id: Bank::ledger_id(worker, self.next[worker].fetch_add(1, Ordering::Relaxed)),
        })
    }
}

struct Transfer {
    accounts: TableId,
    ledger: TableId,
    from: u64,
    to: u64,
    amount: i64,
    id: u64,
}

impl TxnSpec for Transfer {
    fn planned_ops(&self) -> Option<usize> {
        Some(3)
    }

    fn home_partition(&self) -> u32 {
        u32::from(self.from >= ACCOUNTS_PER_PART)
    }

    fn run_piece(&self, _piece: usize, txn: &mut Txn<'_>) -> Result<(), Abort> {
        let amount = self.amount;
        txn.update(self.accounts, self.from, |r| {
            r.set(1, Value::I64(r.get_i64(1) - amount))
        })?;
        txn.update(self.accounts, self.to, |r| {
            r.set(1, Value::I64(r.get_i64(1) + amount))
        })?;
        let row = Row::from(vec![
            Value::U64(self.id),
            Value::U64(self.from),
            Value::U64(self.to),
            Value::I64(amount),
        ]);
        txn.insert(self.ledger, self.id, row, None)
    }
}

impl Loaded {
    /// Checks the in-memory state against what the clients counted.
    pub fn check(&self, clients: &[ClientLedger]) -> Result<(), String> {
        match (&self.tables, &self.target) {
            (Tables::Hotspot(t), Target::Mono(db)) => check_hotspot(db, *t, clients),
            (Tables::Tpcc(t), Target::Mono(db)) => check_tpcc(db, t),
            (Tables::Bank(bank), Target::Parts(pdb)) => {
                for (c, ledger) in clients.iter().enumerate() {
                    let generated = bank.next[c].load(Ordering::Relaxed);
                    if generated != ledger.generated {
                        return Err(format!(
                            "client {c}: bank generated {generated} transfers, client counted {}",
                            ledger.generated
                        ));
                    }
                }
                check_money(pdb, bank, "in memory")
            }
            _ => unreachable!("setup pairs each workload's tables with its database"),
        }
    }

    /// Durable workloads: drops the database, recovers it cold from its
    /// WAL directory and checks the recovered state. Returns the report
    /// and the recovery time, or `None` for in-memory workloads.
    pub fn recover_and_check(
        self,
        clients: &[ClientLedger],
    ) -> Result<Option<(RecoveryReport, u64)>, String> {
        let (Tables::Bank(bank), Some(dir)) = (self.tables, self.wal_dir) else {
            return Ok(None);
        };
        drop(self.target);
        drop(self.workload);
        let t0 = Instant::now();
        let (pdb, report) = PartitionedDb::recover(
            DbOptions::new()
                .with_wal_dir(dir)
                .with_fsync_policy(GROUP_POLICY),
        )
        .map_err(|e| format!("recovery failed: {e}"))?;
        let recover_ns = t0.elapsed().as_nanos() as u64;
        check_money(&pdb, &bank, "after recovery")?;
        let mut acked = 0u64;
        for (c, ledger) in clients.iter().enumerate() {
            for seq in (0..ledger.generated).filter(|s| ledger.unacked.binary_search(s).is_err()) {
                acked += 1;
                let id = Bank::ledger_id(c, seq);
                let p = pdb.route(bank.ledger, id);
                if pdb.table(p, bank.ledger).get(id).is_none() {
                    return Err(format!("acknowledged transfer {id:#x} lost by recovery"));
                }
            }
        }
        if report.replayed_txns < acked {
            return Err(format!(
                "recovery replayed {} transactions but {acked} were acknowledged",
                report.replayed_txns
            ));
        }
        Ok(Some((report, recover_ns)))
    }
}

fn check_hotspot(db: &Database, t: TableId, clients: &[ClientLedger]) -> Result<(), String> {
    let hot = db
        .table(t)
        .get(0)
        .ok_or("hot tuple missing")?
        .read_row()
        .get_i64(1);
    let committed: u64 = clients.iter().map(|c| c.committed).sum();
    if hot != committed as i64 {
        return Err(format!(
            "hot counter is {hot}, but the clients counted {committed} commits"
        ));
    }
    Ok(())
}

/// TPC-C consistency conditions 1 and 2 (spec §3.3.2.1–2) over the public
/// tables: W_YTD = Σ D_YTD per warehouse, and D_NEXT_O_ID − 1 = max O_ID
/// per district. The loader populates no initial orders, so a district
/// without orders has max O_ID 3000 (the spec's initial population).
fn check_tpcc(db: &Database, t: &TpccTables) -> Result<(), String> {
    let warehouses = db.table(t.warehouse).len() as u64;
    for w in 0..warehouses {
        let w_ytd = db
            .table(t.warehouse)
            .get(w)
            .ok_or("warehouse row missing")?
            .read_row()
            .get_f64(wh::W_YTD);
        let mut d_ytd = 0.0;
        for d in 0..DISTRICTS_PER_WAREHOUSE {
            let key = tpcc::schema::dist_key(w, d);
            d_ytd += db
                .table(t.district)
                .get(key)
                .ok_or("district row missing")?
                .read_row()
                .get_f64(dist::D_YTD);
        }
        // Payments are at least 1.0; the tolerance only absorbs float
        // summation order.
        if (w_ytd - d_ytd).abs() > 0.5 {
            return Err(format!(
                "consistency 1: warehouse {w} W_YTD {w_ytd} != sum of D_YTD {d_ytd}"
            ));
        }
    }
    let districts = db.table(t.district).len();
    let mut max_o_id = vec![3000u64; districts];
    let ot = db.table(t.orders);
    for r in 0..ot.len() as u64 {
        let okey = ot
            .get_by_row_id(r)
            .ok_or("order row id gap")?
            .read_row()
            .get_u64(orders::O_KEY);
        let (dkey, o_id) = ((okey >> 32) as usize, okey & 0xFFFF_FFFF);
        let slot = max_o_id
            .get_mut(dkey)
            .ok_or_else(|| format!("order {okey:#x} names no district"))?;
        *slot = (*slot).max(o_id);
    }
    for (dkey, max) in max_o_id.into_iter().enumerate() {
        let next = db
            .table(t.district)
            .get(dkey as u64)
            .ok_or("district row missing")?
            .read_row()
            .get_u64(dist::D_NEXT_O_ID);
        if next - 1 != max {
            return Err(format!(
                "consistency 2: district {dkey} D_NEXT_O_ID {next} but max O_ID {max}"
            ));
        }
    }
    Ok(())
}

fn check_money(pdb: &PartitionedDb, bank: &Bank, when: &str) -> Result<(), String> {
    let mut total = 0i64;
    let mut count = 0u64;
    for a in 0..u64::from(BANK_PARTS) * ACCOUNTS_PER_PART {
        let p: PartitionId = pdb.route(bank.accounts, a);
        let row = pdb
            .table(p, bank.accounts)
            .get(a)
            .ok_or_else(|| format!("account {a} missing {when}"))?
            .read_row();
        total += row.get_i64(1);
        count += 1;
    }
    let expected = count as i64 * INITIAL_BALANCE;
    if total != expected {
        return Err(format!("money not conserved {when}: {total} != {expected}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_core::protocol::LockingProtocol;
    use bamboo_core::Session;
    use rand::SeedableRng;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run_some(loaded: &Loaded, n: u64) -> Vec<ClientLedger> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut ledger = vec![ClientLedger::default(); CLIENTS];
        let proto = Arc::new(LockingProtocol::bamboo());
        for _ in 0..n {
            let spec = loaded.workload.generate(0, &mut rng);
            ledger[0].generated += 1;
            let res = match &loaded.target {
                Target::Mono(db) => Session::new(Arc::clone(db), proto.clone()).run(&*spec),
                Target::Parts(pdb) => bamboo_core::PartSession::new(Arc::clone(pdb), proto.clone())
                    .session(PartitionId(spec.home_partition()))
                    .run(&*spec),
            };
            match res {
                Ok(()) => ledger[0].committed += 1,
                Err(_) => {
                    let seq = ledger[0].generated - 1;
                    ledger[0].unacked.push(seq);
                }
            }
        }
        ledger
    }

    #[test]
    fn hotspot_check_catches_a_lost_increment() {
        let loaded = setup(Kind::Hotspot, &scratch("hot")).unwrap();
        let ledger = run_some(&loaded, 20);
        loaded.check(&ledger).expect("untouched run passes");
        let (Target::Mono(db), Tables::Hotspot(t)) = (&loaded.target, &loaded.tables) else {
            unreachable!()
        };
        // Break the invariant: undo one increment behind the protocol's back.
        let hot = db.table(*t).get(0).unwrap();
        let mut row = hot.read_row();
        row.set(1, Value::I64(row.get_i64(1) - 1));
        hot.install(row);
        assert!(loaded.check(&ledger).is_err());
    }

    #[test]
    fn tpcc_check_passes_after_a_mix_and_catches_a_skipped_payment() {
        let loaded = setup(Kind::Tpcc, &scratch("tpcc")).unwrap();
        let ledger = run_some(&loaded, 200);
        loaded
            .check(&ledger)
            .expect("consistent after a NewOrder/Payment mix");
        let (Target::Mono(db), Tables::Tpcc(t)) = (&loaded.target, &loaded.tables) else {
            unreachable!()
        };
        let w = db.table(t.warehouse).get(0).unwrap();
        let mut row = w.read_row();
        row.set(wh::W_YTD, Value::F64(row.get_f64(wh::W_YTD) + 10.0));
        w.install(row);
        assert!(loaded.check(&ledger).is_err());
    }

    #[test]
    fn bank_checks_hold_across_recovery_and_catch_a_lost_ack() {
        let dir = scratch("bank");
        let loaded = setup(Kind::DurableSync, &dir).unwrap();
        let mut ledger = run_some(&loaded, 50);
        loaded.check(&ledger).expect("money conserved in memory");
        // Claim one more acknowledged transfer than was ever generated on
        // client 1: recovery cannot produce its ledger row.
        ledger[1].generated = 1;
        let err = loaded.recover_and_check(&ledger).unwrap_err();
        assert!(err.contains("lost by recovery"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
