//! Workloads: topology, preload and the per-connection request streams,
//! each carrying the reply it must get back.
//!
//! Every stream is a pure function of `(workload, seed, connection)`.
//! Connections never write the same key, so each stream keeps a model
//! of the keys it owns and knows the exact record any GET must return
//! and the state every acked write leaves behind.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use jnvm_kvstore::{encode_record, Record};
use jnvm_server::{op_for, value_for, LoadgenConfig, Request};
use jnvm_ycsb::{record_key, Generator, ZipfianGenerator};

/// Client connections, one client thread each (the host has 2 CPUs).
pub const CONNS: usize = 2;
/// Requests each connection keeps in flight.
pub const PIPELINE: usize = 16;
/// Per-pool map shards of the J-PFA backend.
pub const MAP_SHARDS: usize = 16;

/// The traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Loadgen mix on 1×1: fresh-key SETs, DELs, SETFs, read-your-writes.
    Ingest,
    /// YCSB-A (50 % GET) over a small hot set, 2 shards × 2 replicas.
    ReplicatedUpdate,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "replicated_update" => Some(Workload::ReplicatedUpdate),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::ReplicatedUpdate => "replicated_update",
        }
    }
}

/// Everything a run of one workload is sized by.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Pool shards (one group committer each).
    pub shards: usize,
    /// Replicas per shard (1 = solo, 2 = primary + backup).
    pub replicas: usize,
    /// Bytes per pool.
    pub pool_bytes: u64,
    /// Records preloaded before the timed window.
    pub records: u64,
    /// Fields per record.
    pub fields: usize,
    /// Bytes per field value.
    pub field_len: usize,
    /// Share of GETs in percent (YCSB mixes only).
    pub read_pct: u64,
    /// Requests per connection the store has taken when power fails:
    /// after the socket run, each stream is continued in-process up to
    /// this count, so the live set that recovery and memory are measured
    /// on does not grow with the run's throughput (0: no top-up). Set
    /// above what the socket run reaches on its own.
    pub settle_per_conn: usize,
}

impl Spec {
    /// The pinned sizing of `workload`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        match workload {
            Workload::Ingest => Spec {
                workload,
                seed,
                shards: 1,
                replicas: 1,
                pool_bytes: 1 << 30,
                records: 0,
                fields: 4,
                field_len: 64,
                read_pct: 0,
                settle_per_conn: 360_000,
            },
            Workload::ReplicatedUpdate => Spec {
                workload,
                seed,
                shards: 2,
                replicas: 2,
                pool_bytes: 128 << 20,
                records: 2_000,
                fields: 10,
                field_len: 100,
                read_pct: 50,
                // SETFs over a fixed preloaded set: the live set is the
                // same however many requests the run gets through.
                settle_per_conn: 0,
            },
        }
    }

    /// The loadgen shape the ingest stream replays.
    fn loadgen(&self) -> LoadgenConfig {
        LoadgenConfig {
            conns: CONNS,
            ops_per_conn: usize::MAX,
            pipeline: PIPELINE,
            fields: self.fields,
            value_size: self.field_len,
            seed: self.seed,
        }
    }

    /// Field `field` of preloaded key `k` after `version` updates.
    fn value(&self, k: u64, field: usize, version: u32) -> Vec<u8> {
        // A salt keeps YCSB values apart from the loadgen's for one seed.
        value_for(
            self.seed ^ 0x5943_5342,
            k as usize,
            version as usize,
            field,
            self.field_len,
        )
    }

    /// Record `k` with every field at the given versions.
    fn record(&self, k: u64, versions: &[u32]) -> Record {
        let values: Vec<Vec<u8>> = versions
            .iter()
            .enumerate()
            .map(|(f, &v)| self.value(k, f, v))
            .collect();
        Record::ycsb(&record_key(k), &values)
    }

    /// The preloaded records, in key order.
    pub fn preload(&self) -> impl Iterator<Item = Record> + '_ {
        let zero = vec![0u32; self.fields];
        (0..self.records).map(move |k| self.record(k, &zero))
    }
}

/// What the reply to a request must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A write: `Ok`, durable.
    Ack,
    /// A GET of a live key: exactly this record, as the codec encodes it
    /// (the encoding is deterministic, so equal bytes mean equal records).
    Value(Arc<[u8]>),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request.
    pub req: Request,
    /// Its required reply.
    pub expect: Expect,
    /// User value bytes the request writes (0 for GET and DEL).
    pub user_bytes: u64,
}

/// One connection's request stream.
pub struct ConnStream {
    spec: Spec,
    conn: usize,
    next: usize,
    kind: StreamKind,
}

enum StreamKind {
    /// `jnvm_server::op_for`. An op touches only the key of its own
    /// index or the one before, so the model is a two-key window.
    Ingest(IngestModel),
    /// YCSB over this connection's partition (keys `k ≡ conn` mod
    /// [`CONNS`]); `versions[j * fields + f]` is field `f` of local key `j`,
    /// and `encoded[j]` caches its expected GET payload until it is written.
    Ycsb {
        keys: Box<dyn Generator + Send>,
        rng: u64,
        versions: Vec<u32>,
        encoded: Vec<Option<Arc<[u8]>>>,
    },
}

impl ConnStream {
    /// The stream of connection `conn`.
    pub fn new(spec: &Spec, conn: usize) -> ConnStream {
        let kind = match spec.workload {
            Workload::Ingest => StreamKind::Ingest(IngestModel::new(spec.loadgen(), conn)),
            Workload::ReplicatedUpdate => {
                let part = spec.records / CONNS as u64;
                let gen_seed = spec.seed.wrapping_mul(31).wrapping_add(conn as u64);
                // Unscrambled over a small set: a few keys take most
                // requests, so one batch often holds a key twice and the
                // committer must defer the second write.
                let keys: Box<dyn Generator + Send> =
                    Box::new(ZipfianGenerator::new(part, gen_seed));
                StreamKind::Ycsb {
                    keys,
                    rng: splitmix(spec.seed ^ (conn as u64) << 32),
                    versions: vec![0; part as usize * spec.fields],
                    encoded: vec![None; part as usize],
                }
            }
        };
        ConnStream {
            spec: *spec,
            conn,
            next: 0,
            kind,
        }
    }

    /// Requests generated so far.
    pub fn generated(&self) -> usize {
        self.next
    }

    /// The next request, with the reply it must get given every earlier
    /// request of this connection was acked.
    pub fn next_op(&mut self) -> Op {
        let i = self.next;
        self.next += 1;
        let spec = self.spec;
        match &mut self.kind {
            StreamKind::Ingest(model) => model.step(i, |_, _| {}),
            StreamKind::Ycsb {
                keys,
                rng,
                versions,
                encoded,
            } => {
                let j = keys.next() as usize;
                let k = (j * CONNS + self.conn) as u64;
                *rng = splitmix(*rng);
                let row = &mut versions[j * spec.fields..(j + 1) * spec.fields];
                if *rng % 100 < spec.read_pct {
                    let want = encoded[j]
                        .get_or_insert_with(|| encode_record(&spec.record(k, row)).into());
                    Op {
                        req: Request::Get(record_key(k)),
                        expect: Expect::Value(Arc::clone(want)),
                        user_bytes: 0,
                    }
                } else {
                    let field = ((*rng >> 32) % spec.fields as u64) as usize;
                    row[field] += 1;
                    encoded[j] = None;
                    Op {
                        req: Request::SetField {
                            key: record_key(k),
                            field,
                            value: spec.value(k, field, row[field]),
                        },
                        expect: Expect::Ack,
                        user_bytes: spec.field_len as u64,
                    }
                }
            }
        }
    }

    /// Visit every key this connection's requests so far touched (plus,
    /// for YCSB, every preloaded key it owns) with the record it must
    /// hold once they are all acked: `None` means deleted.
    pub fn for_each_final(&self, mut visit: impl FnMut(&str, Option<&Record>)) {
        match &self.kind {
            StreamKind::Ingest(model) => {
                let mut replay = IngestModel::new(model.cfg, self.conn);
                for i in 0..self.next {
                    replay.step(i, &mut visit);
                }
                for (_, key) in replay.order.drain(..) {
                    visit(&key, replay.window.get(&key));
                }
            }
            StreamKind::Ycsb { versions, .. } => {
                let f = self.spec.fields;
                for (j, row) in versions.chunks(f).enumerate() {
                    let k = (j * CONNS + self.conn) as u64;
                    let rec = self.spec.record(k, row);
                    visit(&rec.key, Some(&rec));
                }
            }
        }
    }
}

/// The ingest model: the keys a loadgen connection may still touch.
/// `op_for`'s op `i` touches only key `i` or key `i - 1`, so a key is
/// retired (never touched again) once the stream is two ops past it.
struct IngestModel {
    cfg: LoadgenConfig,
    conn: usize,
    /// Live keys of the window; a DELeted key is absent.
    window: HashMap<String, Record>,
    /// Keys in creation order, with their creating op index.
    order: VecDeque<(usize, String)>,
}

impl IngestModel {
    fn new(cfg: LoadgenConfig, conn: usize) -> IngestModel {
        IngestModel {
            cfg,
            conn,
            window: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Generate op `i` and apply it; `retire` sees each key that left the
    /// window with its final record. A request on a key outside the
    /// window breaks the two-key assumption and is a bug here.
    fn step(&mut self, i: usize, mut retire: impl FnMut(&str, Option<&Record>)) -> Op {
        let req = op_for(self.conn, i, &self.cfg);
        let (expect, user_bytes) = match &req {
            Request::Set(rec) => {
                self.window.insert(rec.key.clone(), rec.clone());
                self.order.push_back((i, rec.key.clone()));
                (Expect::Ack, rec.value_bytes() as u64)
            }
            Request::SetField { key, field, value } => {
                let rec = self.window.get_mut(key).expect("SETF targets a live key");
                rec.fields[*field].1 = value.clone();
                (Expect::Ack, value.len() as u64)
            }
            Request::Del(key) => {
                self.window.remove(key).expect("DEL targets a live key");
                (Expect::Ack, 0)
            }
            Request::Get(key) => {
                let rec = self.window.get(key).expect("GET targets a live key");
                (Expect::Value(encode_record(rec).into()), 0)
            }
            other => unreachable!("loadgen never sends {other:?}"),
        };
        while self.order.front().is_some_and(|(j, _)| j + 2 < i) {
            let (_, key) = self.order.pop_front().expect("front exists");
            let rec = self.window.remove(&key);
            retire(&key, rec.as_ref());
        }
        Op {
            req,
            expect,
            user_bytes,
        }
    }
}

/// SplitMix64 step.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
