//! The device under test: pools, preload, the self-hosted server, the
//! simulated power failure and the timed reopen.
//!
//! Every pool is pinned here whatever the environment says: CrashSim,
//! no injected latency, sanitizer as asked (Off for timed runs), grid
//! cache off, J-PFA backend with [`MAP_SHARDS`] map shards.

use std::sync::Arc;
use std::time::Instant;

use jnvm::{RecoveryOptions, RecoveryReport};
use jnvm_kvstore::{commit_writes, GridConfig, Record, ShardedKv, WriteOp};
use jnvm_pmem::{
    CrashPolicy, LatencyProfile, Pmem, PmemConfig, SanitizeMode, SimMode, StatsSnapshot,
};
use jnvm_server::{Server, ServerConfig, ShardHandle};

use crate::socket::host_steal_s;
use crate::workload::{ConnStream, Spec, MAP_SHARDS};

/// Grid settings of every run: no volatile cache (the paper's J-NVM
/// setting, §5.3.1).
const GRID: GridConfig = GridConfig {
    cache_capacity: 0,
    cache_shards: 64,
    lock_stripes: 256,
};

/// Batch size the preload commits with (the server's default batch).
const PRELOAD_BATCH: usize = 64;

/// The pinned device configuration.
fn pool_config(bytes: u64, label: &str, sanitize: SanitizeMode) -> PmemConfig {
    PmemConfig {
        size: bytes,
        mode: SimMode::CrashSim,
        latency: LatencyProfile::off(),
        sanitize,
        label: label.to_string(),
    }
}

/// One formatted and preloaded topology: `kvs[r]` is replica `r`'s pool
/// set (0 = primary), one pool per shard.
pub struct Stack {
    /// Replica sets, primary first.
    pub kvs: Vec<ShardedKv>,
}

impl Stack {
    /// Format every pool of `spec`'s topology and preload it.
    pub fn build(spec: &Spec, sanitize: SanitizeMode) -> Stack {
        let kvs = (0..spec.replicas)
            .map(|r| {
                let pools: Vec<Arc<Pmem>> = (0..spec.shards)
                    .map(|s| {
                        Pmem::new(pool_config(
                            spec.pool_bytes,
                            &format!("s{s}/r{r}"),
                            sanitize,
                        ))
                    })
                    .collect();
                let kv = ShardedKv::create(&pools, MAP_SHARDS, true, GRID).expect("format pools");
                preload(&kv, spec.preload());
                kv
            })
            .collect();
        Stack { kvs }
    }

    /// Every device, all replicas.
    fn pools(&self) -> Vec<Arc<Pmem>> {
        self.kvs
            .iter()
            .flat_map(|kv| kv.shards().iter().map(|s| Arc::clone(&s.pmem)))
            .collect()
    }

    /// Summed device counters over every pool.
    pub fn device_stats(&self) -> StatsSnapshot {
        let mut d = StatsSnapshot::default();
        for p in self.pools() {
            d.absorb(&p.stats());
        }
        d
    }

    /// Blocks allocated and freed so far, summed over every heap.
    pub fn heap_blocks(&self) -> (u64, u64) {
        let mut out = (0, 0);
        for kv in &self.kvs {
            for s in kv.shards() {
                let h = s.rt.heap().stats();
                out.0 += h.blocks_allocated;
                out.1 += h.blocks_freed;
            }
        }
        out
    }

    /// Start the server over this stack on an ephemeral loopback port.
    pub fn serve(&self) -> Server {
        let shard_sets: Vec<Vec<ShardHandle>> = (0..self.kvs[0].num_shards())
            .map(|s| {
                self.kvs
                    .iter()
                    .map(|kv| {
                        let shard = kv.shard(s);
                        ShardHandle {
                            grid: Arc::clone(&shard.grid),
                            be: Arc::clone(&shard.be),
                            pmem: Arc::clone(&shard.pmem),
                        }
                    })
                    .collect()
            })
            .collect();
        Server::start_replicated(shard_sets, ServerConfig::default()).expect("bind server")
    }

    /// Cut power on every pool (strict policy: only what was fenced
    /// survives), then reopen each replica set with two recovery threads.
    /// Only the primaries' reopen is timed: that is when the store can
    /// serve again. The primaries go through crash-and-reopen cycles
    /// while `more(times so far)` asks for another (recovery is
    /// idempotent, so each finds the same live set); `recovery_s` is the
    /// median of the quieter half (see [`crate::stats::quiet_median`]).
    pub fn crash_and_reopen(self, more: impl Fn(&[f64]) -> bool) -> Reopened {
        let pools: Vec<Vec<Arc<Pmem>>> = self
            .kvs
            .iter()
            .map(|kv| kv.shards().iter().map(|s| Arc::clone(&s.pmem)).collect())
            .collect();
        drop(self.kvs);
        let cycle = |set: &[Arc<Pmem>]| {
            for p in set {
                p.crash(&CrashPolicy::strict()).expect("crash-sim pool");
            }
            let (t, steal) = (Instant::now(), host_steal_s());
            let (kv, rep) =
                ShardedKv::open(set, true, GRID, RecoveryOptions::parallel(2)).expect("reopen");
            (kv, rep, (t.elapsed().as_secs_f64(), host_steal_s() - steal))
        };
        // The first reopen's report describes the recovery from the
        // crash itself; the repeats only re-time it.
        let (kv, reports, sample) = cycle(&pools[0]);
        let mut samples = vec![sample];
        let mut primary = kv;
        while more(&samples.iter().map(|s| s.0).collect::<Vec<_>>()) {
            drop(primary);
            let (kv, _, sample) = cycle(&pools[0]);
            samples.push(sample);
            primary = kv;
        }
        let mut kvs = vec![primary];
        kvs.extend(pools[1..].iter().map(|set| cycle(set).0));
        Reopened {
            kvs,
            reports,
            recovery_s: crate::stats::quiet_median(&samples),
            recovery_samples: samples,
        }
    }
}

/// Commit `records` as SETs in server-sized batches, shard by shard.
fn preload(kv: &ShardedKv, records: impl Iterator<Item = Record>) {
    let mut batches: Vec<Vec<WriteOp>> = vec![Vec::new(); kv.num_shards()];
    let flush = |s: usize, ops: &mut Vec<WriteOp>| {
        let shard = kv.shard(s);
        let out = commit_writes(&shard.grid, &shard.be, ops);
        assert!(out.results.iter().all(|&ok| ok), "preload write refused");
        ops.clear();
    };
    for rec in records {
        let s = kv.route(&rec.key);
        batches[s].push(WriteOp::Set(rec));
        if batches[s].len() == PRELOAD_BATCH {
            flush(s, &mut batches[s]);
        }
    }
    for (s, ops) in batches.iter_mut().enumerate() {
        if !ops.is_empty() {
            flush(s, ops);
        }
    }
}

/// The stack after the power failure and reopen.
pub struct Reopened {
    /// Reopened replica sets, primary first.
    pub kvs: Vec<ShardedKv>,
    /// The primaries' recovery reports from the first reopen, one per shard.
    pub reports: Vec<RecoveryReport>,
    /// Median wall time of the primaries' reopens that saw the least host
    /// steal time (the quieter half).
    pub recovery_s: f64,
    /// Every timed reopen: (wall s, host steal s during it).
    pub recovery_samples: Vec<(f64, f64)>,
}

/// What the post-crash check found.
#[derive(Debug, Default, Clone, Copy)]
pub struct Durability {
    /// Keys checked per replica.
    pub keys: u64,
    /// Acked records missing, torn or stale, or deleted keys resurrected,
    /// summed over replicas.
    pub wrong: u64,
    /// Live records expected on each replica.
    pub live: u64,
    /// User value bytes of those records.
    pub live_value_bytes: u64,
}

impl Reopened {
    /// Check every key the streams touched on every replica: each acked
    /// write is there with its last acked value, no record is torn, no
    /// deleted key came back, and the record count matches.
    pub fn verify<'s>(&self, streams: impl IntoIterator<Item = &'s ConnStream>) -> Durability {
        let mut d = Durability::default();
        for stream in streams {
            stream.for_each_final(|key, want| {
                d.keys += 1;
                if let Some(rec) = want {
                    d.live += 1;
                    d.live_value_bytes += rec.value_bytes() as u64;
                }
                for kv in &self.kvs {
                    if kv.read(key).as_ref() != want {
                        d.wrong += 1;
                    }
                }
            });
        }
        for kv in &self.kvs {
            d.wrong += (kv.records() as u64).abs_diff(d.live);
        }
        d
    }

    /// Live heap bytes the primaries' recovery found.
    pub fn live_heap_bytes(&self) -> u64 {
        self.kvs[0]
            .shards()
            .iter()
            .zip(&self.reports)
            .map(|(s, r)| r.live_blocks * s.rt.heap().block_size())
            .sum()
    }
}
