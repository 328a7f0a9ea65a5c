//! The traced replay: the socket run's request stream, replayed on one
//! thread through the same public functions the server calls, with a
//! span around each call.
//!
//! Per round, each connection contributes [`PIPELINE`] requests, as if
//! its whole window arrived at once. A request is parsed
//! (`proto::parse_frame`) and routed (`shard_for_key`). Writes queue per
//! shard and commit in batches of at most `batch_max`
//! (`kvstore::commit_writes`); on a replicated topology each batch is
//! first encoded as `REPL_APPLY` frames, parsed back and committed on
//! the backup. A GET first commits every queued write (the server
//! answers it after the connection's earlier writes), then reads
//! (`DataGrid::read`), encodes the record and the reply, and the client
//! side decodes and checks it. Request generation happens outside the
//! spans.

use std::hint::black_box;
use std::time::Instant;

use jnvm_kvstore::{commit_writes, decode_record, encode_record, shard_for_key, WriteOp};
use jnvm_pmem::StatsSnapshot;
use jnvm_server::proto::encode_repl_apply;
use jnvm_server::{
    encode_reply, encode_request, parse_frame, parse_reply, ParseOutcome, Reply, Request,
    ServerConfig,
};

use crate::spans::{self, Span};
use crate::stack::Stack;
use crate::workload::{ConnStream, Expect, Spec, CONNS, PIPELINE};

/// The layers a span can belong to, in [`LAYERS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One replay round; its self time is routing, batching and checks.
    Round,
    /// `proto::parse_frame` of a client request.
    Parse,
    /// `kvstore::commit_writes` on the primary.
    Commit,
    /// `proto::encode_repl_apply` of a batch.
    ReplEncode,
    /// The backup's `parse_frame` + `commit_writes` of a batch.
    BackupCommit,
    /// `DataGrid::read`.
    Read,
    /// `codec::encode_record` of a GET's record.
    CodecEncode,
    /// `proto::encode_reply`.
    EncodeReply,
    /// Client-side `parse_reply` + `codec::decode_record` of a GET reply.
    CodecDecode,
}

/// Layer names, indexed by `Layer as usize`.
pub const LAYERS: [&str; 9] = [
    "replay.round",
    "server.parse",
    "kvstore.commit",
    "server.repl_encode",
    "server.backup_commit",
    "kvstore.read",
    "kvstore.codec_encode",
    "server.encode_reply",
    "kvstore.codec_decode",
];

/// What one replay did.
pub struct ReplayOut {
    /// Requests replayed.
    pub ops: u64,
    /// Writes committed.
    pub writes: u64,
    /// GETs served.
    pub gets: u64,
    /// Primary commit batches.
    pub batches: u64,
    /// Primary commit groups.
    pub groups: u64,
    /// Requests whose reply was not the expected one.
    pub failed: u64,
    /// Summed wall time of the rounds, ns (generation excluded).
    pub wall_ns: u64,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Device counter deltas inside each layer's spans (traced only).
    pub device: Vec<StatsSnapshot>,
}

impl ReplayOut {
    /// Self time per layer, ns, in [`LAYERS`] order.
    pub fn self_ns(&self) -> Vec<u64> {
        spans::self_times_by_layer(&self.spans, LAYERS.len())
    }
}

struct Pending {
    op: WriteOp,
    id: u64,
}

struct Replayer<'a> {
    stack: &'a Stack,
    traced: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    device: Vec<StatsSnapshot>,
    pending: Vec<Vec<Pending>>,
    batch_max: usize,
    seq: u64,
    out: ReplayOut,
}

/// A span in progress; `None` when untraced.
type Token = Option<(usize, Option<StatsSnapshot>)>;

impl<'a> Replayer<'a> {
    fn begin(&mut self, layer: Layer, req: u64, device: Option<(usize, usize)>) -> Token {
        if !self.traced {
            return None;
        }
        // Counters are read outside the span's own interval, so their
        // cost lands in the parent's self time, not in the layer's.
        let before = device.map(|(r, s)| self.stack.kvs[r].shard(s).pmem.stats());
        let idx = self.spans.len();
        self.spans.push(Span {
            req,
            layer: layer as usize,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some((idx, before))
    }

    fn end(&mut self, tok: Token, device: Option<(usize, usize)>) {
        let Some((idx, before)) = tok else { return };
        self.spans[idx].end = self.t0.elapsed().as_nanos() as u64;
        self.open.pop();
        if let (Some(before), Some((r, s))) = (before, device) {
            let d = self.stack.kvs[r].shard(s).pmem.stats().delta(&before);
            self.device[self.spans[idx].layer].absorb(&d);
        }
    }

    fn request(&mut self, frame: &[u8], expect: &Expect, id: u64) {
        let t = self.begin(Layer::Parse, id, None);
        let req = match parse_frame(frame) {
            ParseOutcome::Frame(req, _) => req,
            other => panic!("the benchmark's own frame did not parse: {other:?}"),
        };
        self.end(t, None);
        let nshards = self.stack.kvs[0].num_shards();
        let op = match req {
            Request::Get(key) => return self.get(&key, expect, id),
            Request::Set(rec) => WriteOp::Set(rec),
            Request::SetField { key, field, value } => WriteOp::SetField { key, field, value },
            Request::Del(key) => WriteOp::Del(key),
            other => panic!("the workloads never send {other:?}"),
        };
        let s = shard_for_key(op.key(), nshards);
        self.pending[s].push(Pending { op, id });
        if self.pending[s].len() == self.batch_max {
            self.commit(s);
        }
    }

    fn get(&mut self, key: &str, expect: &Expect, id: u64) {
        self.flush();
        let s = shard_for_key(key, self.stack.kvs[0].num_shards());
        let dev = Some((0, s));
        let t = self.begin(Layer::Read, id, dev);
        let stack = self.stack;
        let rec = stack.kvs[0].shard(s).grid.read(key);
        self.end(t, dev);
        let t = self.begin(Layer::CodecEncode, id, None);
        let reply = match &rec {
            Some(rec) => Reply::Value(encode_record(rec)),
            None => Reply::NotFound,
        };
        self.end(t, None);
        let t = self.begin(Layer::EncodeReply, id, None);
        let bytes = encode_reply(&reply);
        self.end(t, None);
        let t = self.begin(Layer::CodecDecode, id, None);
        let payload = match parse_reply(&bytes) {
            Ok(Some((Reply::Value(payload), _))) => payload,
            _ => Vec::new(),
        };
        // The socket client compares bytes; decoding here prices the
        // codec's read side for `kvstore.codec_decode_ns`.
        black_box(decode_record(&payload));
        self.end(t, None);
        if !matches!(expect, Expect::Value(want) if payload[..] == want[..]) {
            self.out.failed += 1;
        }
        self.out.gets += 1;
    }

    fn commit(&mut self, s: usize) {
        let batch = std::mem::take(&mut self.pending[s]);
        if batch.is_empty() {
            return;
        }
        let stack = self.stack;
        let id0 = batch[0].id;
        let ops: Vec<WriteOp> = batch.iter().map(|p| p.op.clone()).collect();
        if stack.kvs.len() > 1 {
            let t = self.begin(Layer::ReplEncode, id0, None);
            let mut seq = self.seq;
            let frames = encode_repl_apply(&ops, || {
                seq += 1;
                seq
            });
            self.seq = seq;
            self.end(t, None);
            let dev = Some((1, s));
            let t = self.begin(Layer::BackupCommit, id0, dev);
            let backup = stack.kvs[1].shard(s);
            let mut refused = 0;
            for (frame, _) in &frames {
                let ParseOutcome::Frame(Request::ReplApply { ops, .. }, _) = parse_frame(frame)
                else {
                    panic!("a REPL_APPLY frame did not parse back");
                };
                let out = commit_writes(&backup.grid, &backup.be, &ops);
                refused += out.results.iter().filter(|&&ok| !ok).count() as u64;
            }
            self.end(t, dev);
            self.out.failed += refused;
        }
        let dev = Some((0, s));
        let t = self.begin(Layer::Commit, id0, dev);
        let primary = stack.kvs[0].shard(s);
        let out = commit_writes(&primary.grid, &primary.be, &ops);
        self.end(t, dev);
        self.out.batches += 1;
        self.out.groups += out.groups as u64;
        self.out.writes += ops.len() as u64;
        for (p, ok) in batch.iter().zip(&out.results) {
            let t = self.begin(Layer::EncodeReply, p.id, None);
            black_box(encode_reply(&Reply::Ok));
            self.end(t, None);
            if !ok {
                self.out.failed += 1;
            }
        }
    }

    fn flush(&mut self) {
        for s in 0..self.pending.len() {
            self.commit(s);
        }
    }
}

/// Fresh streams of every connection of `spec`.
pub fn streams(spec: &Spec) -> Vec<ConnStream> {
    (0..CONNS).map(|c| ConnStream::new(spec, c)).collect()
}

/// Continue every stream on `stack` until it has generated `per_conn`
/// requests, with spans when `traced`. On a fresh set-up and fresh
/// streams this replays their first `per_conn` requests; on the socket
/// run's stack and streams it carries on where the clients stopped.
pub fn replay<'s>(
    stack: &Stack,
    streams: impl IntoIterator<Item = &'s mut ConnStream>,
    per_conn: usize,
    traced: bool,
) -> ReplayOut {
    let mut streams: Vec<&mut ConnStream> = streams.into_iter().collect();
    let mut r = Replayer {
        stack,
        traced,
        t0: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        device: vec![StatsSnapshot::default(); LAYERS.len()],
        pending: (0..stack.kvs[0].num_shards()).map(|_| Vec::new()).collect(),
        batch_max: ServerConfig::default().batch_max,
        seq: 0,
        out: ReplayOut {
            ops: 0,
            writes: 0,
            gets: 0,
            batches: 0,
            groups: 0,
            failed: 0,
            wall_ns: 0,
            spans: Vec::new(),
            device: Vec::new(),
        },
    };
    let mut round: Vec<(Vec<u8>, Expect, u64)> = Vec::with_capacity(streams.len() * PIPELINE);
    let mut next_id = 0u64;
    while streams.iter().any(|s| s.generated() < per_conn) {
        round.clear();
        for s in streams.iter_mut() {
            for _ in 0..PIPELINE {
                if s.generated() >= per_conn {
                    break;
                }
                let op = s.next_op();
                round.push((encode_request(&op.req), op.expect, next_id));
                next_id += 1;
            }
        }
        let start = Instant::now();
        let t = r.begin(Layer::Round, round[0].2, None);
        for (frame, expect, id) in &round {
            r.request(frame, expect, *id);
        }
        r.flush();
        r.end(t, None);
        r.out.wall_ns += start.elapsed().as_nanos() as u64;
        r.out.ops += round.len() as u64;
    }
    let mut out = r.out;
    out.spans = r.spans;
    out.device = r.device;
    out
}
