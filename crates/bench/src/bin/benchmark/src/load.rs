//! Closed-loop load: each connection sends its next request only after
//! the previous reply, the way a cache or a join that checks membership
//! before an expensive lookup calls a filter. Request bodies are
//! generated before timing starts; the loop only picks the next one.

use crate::keys::{Keys, Rng};
use crate::replay::{Replay, Standalone};
use crate::trace::{Span, Tracer};
use crate::workload::{Mix, Shape};
use mpcbf_concurrent::ShardedMpcbf;
use mpcbf_core::{CountingFilter, Filter, Mpcbf, PlanBuffer};
use mpcbf_hash::Murmur3;
use mpcbf_server::{Client, KeyOutcome};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// A connection replays every `REPLAY_EVERY`-th request of each kind
/// (counting kinds apart, so a mix whose cycle divides the interval
/// still replays all of its request kinds).
pub const REPLAY_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Query,
    Insert,
    Remove,
}

/// A query request: its first `members` keys are members, the rest are
/// absent keys.
pub struct Query {
    pub keys: Vec<Vec<u8>>,
    pub members: usize,
}

/// One connection's pre-generated requests.
pub struct Pools {
    pub queries: Vec<Query>,
    /// Fresh-key batches, inserted and later removed round-robin.
    pub fresh: Vec<Vec<Vec<u8>>>,
}

/// Query requests of `shape.batch` keys: 80 % members (the paper's mix)
/// sampled uniformly, the rest absent keys. The churn mix alternates a
/// pure-member and a pure-absent scalar query instead.
pub fn pools(keys: &Keys, shape: &Shape, fresh: Vec<Vec<Vec<u8>>>, conn: u64) -> Pools {
    let mut rng = Rng::new(keys.seed ^ (conn + 1).wrapping_mul(0x51_7cc1_b727_220a));
    let count = if shape.batch == 1 { 1 << 16 } else { 256 };
    let members_per = if shape.batch == 1 {
        0
    } else {
        shape.batch * 4 / 5
    };
    let queries = (0..count)
        .map(|i| {
            let members = match shape.mix {
                Mix::Churn => usize::from(i % 2 == 0),
                Mix::Point | Mix::Writes => usize::from(rng.below(5) < 4),
                Mix::Batch => members_per,
            };
            let mut ks: Vec<Vec<u8>> = (0..members)
                .map(|_| keys.member(rng.below(keys.members)))
                .collect();
            ks.extend((members..shape.batch).map(|_| keys.absent(rng.below(1 << 20))));
            Query { keys: ks, members }
        })
        .collect();
    Pools { queries, fresh }
}

/// Where a request goes: a server connection or a filter in process.
pub trait Target {
    /// Runs one request; per key, the presence bit (queries) or whether
    /// the mutation was applied.
    fn execute(&mut self, op: Op, keys: &[Vec<u8>]) -> Result<Vec<bool>, String>;
    /// A `PING` round trip, for targets behind a socket.
    fn ping(&mut self) -> Option<Result<(), String>>;
}

/// A bulk-built filter used in process, the way an embedding program
/// (a join, a cache) uses the image it loaded: the traced bulk-ingest
/// run's load, behind its read and write layer figures.
pub struct Embedded<'a> {
    pub filter: &'a mut Mpcbf<u64, Murmur3>,
    pub plans: PlanBuffer,
}

impl Target for Embedded<'_> {
    fn execute(&mut self, op: Op, keys: &[Vec<u8>]) -> Result<Vec<bool>, String> {
        let views: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        Ok(match op {
            Op::Query => self.filter.contains_batch_with(&views, &mut self.plans).0,
            Op::Insert => self
                .filter
                .insert_batch_with(&views, &mut self.plans)
                .0
                .iter()
                .map(Result::is_ok)
                .collect(),
            Op::Remove => self
                .filter
                .remove_batch_with(&views, &mut self.plans)
                .0
                .iter()
                .map(Result::is_ok)
                .collect(),
        })
    }

    fn ping(&mut self) -> Option<Result<(), String>> {
        None
    }
}

impl Target for Client {
    fn execute(&mut self, op: Op, keys: &[Vec<u8>]) -> Result<Vec<bool>, String> {
        let applied = |outcomes: Vec<KeyOutcome>| outcomes.iter().map(|o| o.is_applied()).collect();
        let r = match (op, keys) {
            (Op::Query, [key]) => self.query(key).map(|hit| vec![hit]),
            (Op::Query, _) => self.query_batch(keys),
            (Op::Insert, [key]) => self.insert(key).map(|o| vec![o.is_applied()]),
            (Op::Insert, _) => self.insert_batch(keys).map(applied),
            (Op::Remove, [key]) => self.remove(key).map(|o| vec![o.is_applied()]),
            (Op::Remove, _) => self.remove_batch(keys).map(applied),
        };
        r.map_err(|e| e.to_string())
    }

    fn ping(&mut self) -> Option<Result<(), String>> {
        Some(Client::ping(self).map_err(|e| e.to_string()))
    }
}

#[derive(Clone, Copy)]
enum Slot {
    Query,
    Insert,
    RemovePrev,
}

fn cycle(mix: Mix) -> &'static [Slot] {
    match mix {
        Mix::Point => &[Slot::Query],
        Mix::Writes => &[Slot::Insert, Slot::RemovePrev],
        Mix::Churn => &[Slot::Insert, Slot::Query, Slot::RemovePrev, Slot::Query],
        Mix::Batch => &[
            Slot::Query,
            Slot::Query,
            Slot::Query,
            Slot::Insert,
            Slot::RemovePrev,
        ],
    }
}

/// A connection's position in its request cycle, kept across phases so
/// the timed phase continues where warm-up stopped.
pub struct Cursor {
    mix: Mix,
    cycle: u64,
    slot: usize,
    query: usize,
    /// Request ids are `lane << 40` plus a per-connection count, so ids
    /// from different connections never collide.
    lane: u64,
    requests: u64,
    /// Requests sent so far of each kind, by `Op as usize`.
    per_kind: [u64; 3],
    /// Fresh batches inserted and not yet removed, oldest first.
    live: VecDeque<usize>,
}

impl Cursor {
    pub fn new(mix: Mix, lane: u64) -> Cursor {
        Cursor {
            mix,
            cycle: 0,
            slot: 0,
            query: 0,
            lane,
            requests: 0,
            per_kind: [0; 3],
            live: VecDeque::new(),
        }
    }

    /// Switches to another request pattern; only valid while no fresh
    /// batch is inserted.
    pub fn switch(&mut self, mix: Mix) {
        assert!(
            self.live.is_empty(),
            "switching mix with fresh keys inserted"
        );
        self.mix = mix;
        self.cycle = 0;
        self.slot = 0;
    }

    /// The next request: operation, keys, and how many leading keys
    /// must be present.
    fn next<'p>(&mut self, pools: &'p Pools) -> (Op, &'p [Vec<u8>], usize) {
        loop {
            let slots = cycle(self.mix);
            let slot = slots[self.slot];
            let c = self.cycle;
            self.slot += 1;
            if self.slot == slots.len() {
                self.slot = 0;
                self.cycle += 1;
            }
            let ring = pools.fresh.len().max(1) as u64;
            match slot {
                Slot::Query => {
                    let q = &pools.queries[self.query % pools.queries.len()];
                    self.query += 1;
                    return (Op::Query, &q.keys, q.members);
                }
                Slot::Insert => {
                    let i = (c % ring) as usize;
                    self.live.push_back(i);
                    return (Op::Insert, &pools.fresh[i], 0);
                }
                Slot::RemovePrev if c > 0 => {
                    let i = ((c - 1) % ring) as usize;
                    debug_assert_eq!(self.live.front(), Some(&i));
                    self.live.pop_front();
                    return (Op::Remove, &pools.fresh[i], 0);
                }
                Slot::RemovePrev => {}
            }
        }
    }

    /// Removes every fresh batch still inserted, so the filter ends the
    /// run holding exactly its members.
    pub fn drain(&mut self, target: &mut dyn Target, pools: &Pools) -> Result<(), String> {
        while let Some(i) = self.live.pop_front() {
            let applied = target.execute(Op::Remove, &pools.fresh[i])?;
            if !applied.iter().all(|&a| a) {
                return Err("a cleanup removal was not applied".into());
            }
        }
        Ok(())
    }
}

/// What one connection saw during one phase.
#[derive(Default)]
pub struct Phase {
    /// Per-request latency in nanoseconds.
    pub reads_ns: Vec<u32>,
    pub writes_ns: Vec<u32>,
    /// Keys in completed requests.
    pub keys: u64,
    /// Keys attempted, and keys whose request failed, missed a member or
    /// was not applied.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Seconds from the phase start to the last reply.
    pub elapsed_s: f64,
    /// Replayed requests: (request id, operation, keys).
    pub replayed: Vec<(u64, Op, usize)>,
}

impl Phase {
    pub fn merge(mut parts: Vec<Phase>) -> Phase {
        let mut all = parts.pop().unwrap_or_default();
        for p in parts {
            all.reads_ns.extend(p.reads_ns);
            all.writes_ns.extend(p.writes_ns);
            all.keys += p.keys;
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.errors.extend(p.errors);
            all.elapsed_s = all.elapsed_s.max(p.elapsed_s);
            all.replayed.extend(p.replayed);
        }
        all
    }

    /// Adds a window that ran after this one.
    pub fn then(&mut self, later: Phase) {
        let elapsed = self.elapsed_s + later.elapsed_s;
        *self = Phase::merge(vec![std::mem::take(self), later]);
        self.elapsed_s = elapsed;
    }

    /// Completed keys per second.
    pub fn throughput(&self) -> f64 {
        self.keys as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Tracing state of one connection: its span recorder and replayer.
pub struct Traced<'a> {
    pub tracer: Tracer,
    pub replay: Replay<'a>,
}

/// Drives one connection until `until`, or until the first failure (a
/// timed-out or refused request leaves the connection in an unknown
/// state). With `trace`, every request gets a span and every
/// [`REPLAY_EVERY`]-th of each kind is replayed through the layers in
/// process.
pub fn drive(
    target: &mut dyn Target,
    pools: &Pools,
    cursor: &mut Cursor,
    start: Instant,
    until: Instant,
    mut trace: Option<&mut Traced<'_>>,
) -> Phase {
    let mut phase = Phase::default();
    let mut now = Instant::now();
    while now < until {
        let (op, keys, members) = cursor.next(pools);
        let request = (cursor.lane << 40) + cursor.requests;
        cursor.requests += 1;
        let of_kind = cursor.per_kind[op as usize];
        cursor.per_kind[op as usize] += 1;
        phase.attempted += keys.len() as u64;
        let sent = Instant::now();
        let result = target.execute(op, keys);
        now = Instant::now();
        let ns = (now - sent).as_nanos().min(u128::from(u32::MAX)) as u32;
        let bad = match &result {
            Err(e) => {
                phase.errors.push(format!("{op:?} request failed: {e}"));
                keys.len()
            }
            Ok(bits) if bits.len() != keys.len() => {
                phase
                    .errors
                    .push(format!("{op:?} reply has {} results", bits.len()));
                keys.len()
            }
            Ok(bits) if op == Op::Query => {
                let missed = bits[..members].iter().filter(|&&hit| !hit).count();
                if missed > 0 {
                    phase.errors.push(format!("{missed} member queries missed"));
                }
                missed
            }
            Ok(bits) => {
                let refused = bits.iter().filter(|&&a| !a).count();
                if refused > 0 {
                    phase
                        .errors
                        .push(format!("{refused} {op:?} keys not applied"));
                }
                refused
            }
        };
        if bad > 0 {
            phase.failed += bad as u64;
            break;
        }
        phase.keys += keys.len() as u64;
        match op {
            Op::Query => phase.reads_ns.push(ns),
            Op::Insert | Op::Remove => phase.writes_ns.push(ns),
        }
        phase.elapsed_s = (now - start).as_secs_f64();
        if let Some(t) = trace.as_deref_mut() {
            let start_ns = (sent - t.tracer.origin()).as_nanos() as u64;
            let end_ns = (now - t.tracer.origin()).as_nanos() as u64;
            let name = match op {
                Op::Query => "client.query",
                Op::Insert => "client.insert",
                Op::Remove => "client.remove",
            };
            let span = t.tracer.record(name, None, request, start_ns, end_ns);
            if of_kind.is_multiple_of(REPLAY_EVERY) {
                if let Err(e) =
                    t.replay
                        .run(&mut t.tracer, target, span, request, op, keys, members)
                {
                    phase
                        .errors
                        .push(format!("replay of request {request}: {e}"));
                    phase.failed += keys.len() as u64;
                    break;
                }
                phase.replayed.push((request, op, keys.len()));
            }
            now = Instant::now();
        }
    }
    phase
}

/// One connection: where requests go and where it is in its cycle.
pub struct Conn<T> {
    pub target: T,
    pub cursor: Cursor,
}

/// What a traced window replays against.
pub struct TraceSetup<'a> {
    pub origin: Instant,
    pub replica: &'a ShardedMpcbf<u64, Murmur3>,
    pub standalone: &'a Standalone,
    /// Each connection gets its scratch WAL under here.
    pub wal_root: &'a Path,
    pub sync_each: bool,
    /// The replica mirrors the filter the load runs against.
    pub mirrors: bool,
    /// Span-id lane of the first connection; windows traced in one run
    /// take disjoint lanes so their span ids never collide.
    pub first_lane: u64,
}

/// One window of load across every connection.
#[derive(Default)]
pub struct Window {
    pub phase: Phase,
    pub spans: Vec<Span>,
    pub record_bytes: u64,
    pub record_keys: u64,
}

/// Runs every connection on its own thread for `secs`.
pub fn window<T: Target + Send>(
    conns: &mut [Conn<T>],
    pools: &[Pools],
    secs: f64,
    trace: Option<&TraceSetup<'_>>,
) -> Result<Window, String> {
    let results: Vec<Result<Window, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(pools)
            .enumerate()
            .map(|(lane, (conn, pool))| {
                scope.spawn(move || {
                    let mut traced = match trace {
                        Some(t) => {
                            let lane = t.first_lane + lane as u64;
                            let wal_dir = t.wal_root.join(format!("lane-{lane}"));
                            Some(Traced {
                                tracer: Tracer::new(t.origin, lane),
                                replay: Replay::new(
                                    t.replica,
                                    t.standalone,
                                    &wal_dir,
                                    t.sync_each,
                                    t.mirrors,
                                )?,
                            })
                        }
                        None => None,
                    };
                    let start = Instant::now();
                    let until = start + Duration::from_secs_f64(secs);
                    let phase = drive(
                        &mut conn.target,
                        pool,
                        &mut conn.cursor,
                        start,
                        until,
                        traced.as_mut(),
                    );
                    Ok(match traced {
                        Some(t) => Window {
                            phase,
                            spans: t.tracer.spans,
                            record_bytes: t.replay.record_bytes,
                            record_keys: t.replay.record_keys,
                        },
                        None => Window {
                            phase,
                            ..Window::default()
                        },
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a load thread panicked".into()))
            })
            .collect()
    });
    let mut merged = Window::default();
    let mut phases = Vec::new();
    for r in results {
        let w = r?;
        phases.push(w.phase);
        merged.spans.extend(w.spans);
        merged.record_bytes += w.record_bytes;
        merged.record_keys += w.record_keys;
    }
    merged.phase = Phase::merge(phases);
    Ok(merged)
}

/// Untraced and traced load over the same stretch of time.
#[derive(Default)]
pub struct Alternated {
    pub plain: Phase,
    pub traced: Window,
    /// CPU time and context switches of the server during the untraced
    /// slices.
    pub server_cpu_ns: u64,
    pub server_ctx_switches: u64,
    /// The first span lane no slice used.
    pub next_lane: u64,
}

/// Alternates untraced and traced slices, `secs` in total on each side,
/// so that drift on a shared machine lands on both alike. Traced slices
/// take span lanes from `first_lane` on; `server` is the process whose
/// CPU time and context switches the untraced slices are charged.
pub fn alternate<T: Target + Send>(
    conns: &mut [Conn<T>],
    pools: &[Pools],
    secs: f64,
    slices: usize,
    setup: &TraceSetup<'_>,
    server: Option<u32>,
) -> Result<Alternated, String> {
    let slice = secs / slices as f64;
    let mut out = Alternated {
        next_lane: setup.first_lane,
        ..Alternated::default()
    };
    let sample =
        || server.and_then(|pid| crate::proc::cpu_ns(pid).zip(crate::proc::ctx_switches(pid)));
    for _ in 0..slices {
        let before = sample();
        let plain = window(conns, pools, slice, None)?.phase;
        if let Some(((cpu1, ctx1), (cpu0, ctx0))) = sample().zip(before) {
            out.server_cpu_ns += cpu1.saturating_sub(cpu0);
            out.server_ctx_switches += ctx1.saturating_sub(ctx0);
        }
        out.plain.then(plain);
        let lanes = TraceSetup {
            first_lane: out.next_lane,
            ..*setup
        };
        let traced = window(conns, pools, slice, Some(&lanes))?;
        out.next_lane += conns.len() as u64;
        out.traced.spans.extend(traced.spans);
        out.traced.record_bytes += traced.record_bytes;
        out.traced.record_keys += traced.record_keys;
        out.traced.phase.then(traced.phase);
    }
    Ok(out)
}

/// Removes every connection's outstanding fresh keys.
pub fn drain<T: Target>(conns: &mut [Conn<T>], pools: &[Pools]) -> Result<(), String> {
    for (conn, pool) in conns.iter_mut().zip(pools) {
        conn.cursor.drain(&mut conn.target, pool)?;
    }
    Ok(())
}
