//! The timed run: closed-loop pipelined clients over loopback TCP.
//!
//! Each connection has its own client thread. It keeps [`PIPELINE`]
//! requests in flight, sends the next one only when the oldest is
//! answered, stops sending when the window closes and then drains what
//! is in flight. Every reply is checked against the request's expected
//! reply as it arrives.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use jnvm_server::{encode_request, handshake, parse_reply, Reply, Request};

use crate::workload::{ConnStream, Expect, PIPELINE};

/// Latency sample of a request that failed: it misses every limit.
pub const FAILED: u64 = u64::MAX;

/// One answered (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When its reply arrived (or it was given up), ns since the start.
    pub done: u64,
    /// Its latency, ns ([`FAILED`] when it failed).
    pub ns: u64,
}

/// One connection's outcome.
pub struct ConnRun {
    /// The stream, advanced past every request sent.
    pub stream: ConnStream,
    /// Requests sent.
    pub sent: u64,
    /// Error replies, refused writes and wrong replies.
    pub err: u64,
    /// GETs whose payload did not match the expected record.
    pub bad_reads: u64,
    /// Requests that never got a reply.
    pub no_reply: u64,
    /// Write acks.
    pub writes: Vec<Sample>,
    /// GET replies.
    pub reads: Vec<Sample>,
    /// User value bytes of acked writes.
    pub user_bytes: u64,
    /// Wall time from the start signal to the last reply.
    pub elapsed: Duration,
}

impl ConnRun {
    /// Every failed request: error replies, bad reads, missing replies.
    pub fn failed(&self) -> u64 {
        self.err + self.bad_reads + self.no_reply
    }
}

/// The socket run: each connection's outcome, the host's steal time at
/// each window boundary, and the server's CPU time over the measured
/// window.
pub struct SocketRun {
    /// One per connection.
    pub conns: Vec<ConnRun>,
    /// `steal[k]`: [`host_steal_ticks`] at the start of window `k`; the
    /// last entry is at the end of the measured window.
    pub steal: Vec<u64>,
    /// [`server_cpu_ns`] from the start to the end of the measured window.
    pub server_cpu_ns: u64,
}

/// Drive `streams` (one connection each) against `addr` for `warmup`
/// plus `seconds` seconds, sampling host steal time at the boundaries of
/// `windows` equal windows after the warm-up.
pub fn run(
    addr: SocketAddr,
    streams: Vec<ConnStream>,
    warmup: f64,
    seconds: f64,
    windows: usize,
) -> SocketRun {
    let start = Barrier::new(streams.len() + 1);
    let window = Duration::from_secs_f64(warmup + seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let start = &start;
                std::thread::Builder::new()
                    .name(CLIENT_THREAD.into())
                    .spawn_scoped(s, move || run_conn(addr, stream, start, window))
                    .expect("spawn a client thread")
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let mut cpu = [0u64; 2];
        let steal = (0..=windows)
            .map(|k| {
                let at = Duration::from_secs_f64(warmup + seconds * k as f64 / windows as f64);
                std::thread::sleep(at.saturating_sub(t0.elapsed()));
                if k == 0 || k == windows {
                    cpu[usize::from(k == windows)] = server_cpu_ns();
                }
                host_steal_ticks()
            })
            .collect();
        let conns = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        SocketRun {
            conns,
            steal,
            server_cpu_ns: cpu[1].saturating_sub(cpu[0]),
        }
    })
}

/// Name of the load generator's threads, which [`server_cpu_ns`] leaves
/// out.
const CLIENT_THREAD: &str = "perfbench-conn";

/// CPU time the server's threads have run so far, ns: every live thread
/// of this process except the main thread and the load generator's
/// (`/proc/self/task/*/schedstat`; the server's threads live as long as
/// it does). The kernel charges time the hypervisor takes from a CPU
/// (steal) to no thread, so a busy host does not inflate it the way it
/// stretches wall time.
pub fn server_cpu_ns() -> u64 {
    let main = std::process::id().to_string();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| t.file_name().to_str() != Some(main.as_str()))
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.trim_end() != CLIENT_THREAD)
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `/proc/stat` ticks per second (`USER_HZ`).
pub const TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has taken from this machine so far, in
/// `/proc/stat` ticks summed over CPUs; 0 where it is not available.
pub fn host_steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|x| x.parse::<u64>().ok())
        .unwrap_or(0)
}

/// [`host_steal_ticks`] in seconds.
pub fn host_steal_s() -> f64 {
    host_steal_ticks() as f64 / TICKS_PER_S
}

struct InFlight {
    sent_at: Instant,
    write: bool,
    expect: Expect,
    user_bytes: u64,
}

fn run_conn(addr: SocketAddr, stream: ConnStream, start: &Barrier, window: Duration) -> ConnRun {
    let mut run = ConnRun {
        stream,
        sent: 0,
        err: 0,
        bad_reads: 0,
        no_reply: 0,
        writes: Vec::new(),
        reads: Vec::new(),
        user_bytes: 0,
        elapsed: Duration::ZERO,
    };
    let mut sock = TcpStream::connect(addr).expect("connect to the server");
    sock.set_nodelay(true).expect("TCP_NODELAY");
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    handshake(&mut sock).expect("protocol hello");
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE);
    let mut rbuf = ReplyBuf::default();
    start.wait();
    let t0 = Instant::now();
    let mut alive = true;
    while alive && t0.elapsed() < window {
        let op = run.stream.next_op();
        let write = !matches!(op.req, Request::Get(_));
        let frame = encode_request(&op.req);
        run.sent += 1;
        let sent_at = Instant::now();
        if sock.write_all(&frame).is_err() {
            run.no_reply += 1;
            break;
        }
        inflight.push_back(InFlight {
            sent_at,
            write,
            expect: op.expect,
            user_bytes: op.user_bytes,
        });
        while alive && inflight.len() >= PIPELINE {
            alive = settle(&mut run, t0, &mut sock, &mut rbuf, &mut inflight);
        }
    }
    while alive && !inflight.is_empty() {
        alive = settle(&mut run, t0, &mut sock, &mut rbuf, &mut inflight);
    }
    // Whatever is still in flight after the connection broke never got
    // its reply.
    for f in inflight.drain(..) {
        run.no_reply += 1;
        record(&mut run, t0, &f, FAILED);
    }
    run.elapsed = t0.elapsed();
    run
}

fn record(run: &mut ConnRun, t0: Instant, f: &InFlight, ns: u64) {
    let sample = Sample {
        done: t0.elapsed().as_nanos() as u64,
        ns,
    };
    if f.write {
        run.writes.push(sample);
    } else {
        run.reads.push(sample);
    }
}

/// Wait for the oldest request's reply and check it. `false` once the
/// connection is unusable.
fn settle(
    run: &mut ConnRun,
    t0: Instant,
    sock: &mut TcpStream,
    rbuf: &mut ReplyBuf,
    inflight: &mut VecDeque<InFlight>,
) -> bool {
    let Some(reply) = read_reply(sock, rbuf) else {
        return false;
    };
    let f = inflight.pop_front().expect("a reply without a request");
    let ns = f.sent_at.elapsed().as_nanos() as u64;
    let ok = match (&f.expect, reply) {
        (Expect::Ack, Reply::Ok) => {
            run.user_bytes += f.user_bytes;
            true
        }
        (Expect::Value(want), Reply::Value(payload)) => {
            let good = payload[..] == want[..];
            if !good {
                run.bad_reads += 1;
            }
            good
        }
        _ => {
            run.err += 1;
            false
        }
    };
    record(run, t0, &f, if ok { ns } else { FAILED });
    true
}

/// Received bytes not yet parsed, plus the socket read buffer.
struct ReplyBuf {
    pending: Vec<u8>,
    tmp: Vec<u8>,
}

impl Default for ReplyBuf {
    fn default() -> Self {
        ReplyBuf {
            pending: Vec::with_capacity(64 << 10),
            tmp: vec![0; 64 << 10],
        }
    }
}

/// The next reply, or `None` when the stream ended, broke or stalled.
fn read_reply(sock: &mut TcpStream, rbuf: &mut ReplyBuf) -> Option<Reply> {
    loop {
        match parse_reply(&rbuf.pending) {
            Ok(Some((reply, n))) => {
                rbuf.pending.drain(..n);
                return Some(reply);
            }
            Ok(None) => {}
            Err(_) => return None,
        }
        match sock.read(&mut rbuf.tmp) {
            Ok(0) => return None,
            Ok(n) => rbuf.pending.extend_from_slice(&rbuf.tmp[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}
