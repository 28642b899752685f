//! In-process replay of a sampled request through each layer's public
//! functions, one child span per stage.
//!
//! The blocking stages mirror what `mpcbf serve` does with the request:
//! a `PING` round trip on the same connection stands for the socket, then
//! protocol encode and decode, then for a query the sharded lookup, for a
//! mutation the shard routing, the WAL append (and fsync, under a policy
//! that syncs every write) and the sharded apply. The replay writes to a
//! scratch WAL and to a replica filter, undoing each mutation, so the
//! replica keeps matching the served filter. Under an `isolated` span the
//! same keys then go through hashing, probe planning, the HCBF word walk
//! and WAL record encoding on their own; those break the sharded stages
//! down and are left out of the ledger sum.

use crate::load::{Op, Target};
use crate::trace::Tracer;
use mpcbf_analysis::heuristic::MpcbfShape;
use mpcbf_concurrent::{ShardBatch, ShardedMpcbf};
use mpcbf_core::{HcbfWord, PlanBuffer};
use mpcbf_durability::{encode_frame, FsyncPolicy, KillSwitch, Wal, WalOp, WalRecord};
use mpcbf_hash::{Hasher128, Murmur3};
use mpcbf_server::protocol::{decode_request, encode_request, read_frame, write_frame, Request};
use std::hint::black_box;
use std::path::Path;

/// Stages a served read blocks on, in order.
pub const SERVED_READ: [&[&str]; 4] = [
    &["server.socket.ping"],
    &["server.protocol.encode"],
    &["server.protocol.decode"],
    &["concurrent.sharded.contains"],
];

/// Stages a served write blocks on, in order; it applies as an insert or
/// a remove.
pub const SERVED_WRITE: [&[&str]; 7] = [
    &["server.socket.ping"],
    &["server.protocol.encode"],
    &["server.protocol.decode"],
    &["concurrent.sharded.route"],
    &["durability.wal.append"],
    &["durability.wal.sync"],
    &["concurrent.sharded.insert", "concurrent.sharded.remove"],
];

/// Stages an in-process batch call blocks on: hashing, planning, the walk.
pub const EMBEDDED_READ: [&[&str]; 3] = [&["hash.murmur3"], &["core.plan"], &["core.hcbf.query"]];
pub const EMBEDDED_WRITE: [&[&str]; 3] = [&["hash.murmur3"], &["core.plan"], &["core.hcbf.update"]];

/// A plain (unsharded) filter of the workload's shape, for the isolated
/// hash, plan and word-walk stages.
pub struct Standalone {
    pub words: Vec<u64>,
    pub shape: MpcbfShape,
    pub seed: u64,
    /// The build refused no member, so every member's walk must find it.
    pub holds_every_member: bool,
}

pub struct Replay<'a> {
    replica: &'a ShardedMpcbf<u64, Murmur3>,
    standalone: &'a Standalone,
    wal: Wal,
    seq: u64,
    sync_each: bool,
    /// The replica mirrors the served filter, so it must find every
    /// member (false when it only stands in for one).
    mirrors: bool,
    scratch: ShardBatch,
    plans: PlanBuffer,
    digests: Vec<u128>,
    frame: Vec<u8>,
    /// WAL frame bytes and keys of every replayed mutation.
    pub record_bytes: u64,
    pub record_keys: u64,
}

fn request(op: Op, mut keys: Vec<Vec<u8>>) -> Request {
    if keys.len() == 1 {
        let key = keys.pop().expect("one key");
        return match op {
            Op::Query => Request::Query(key),
            Op::Insert => Request::Insert(key),
            Op::Remove => Request::Remove(key),
        };
    }
    match op {
        Op::Query => Request::QueryBatch(keys),
        Op::Insert => Request::InsertBatch(keys),
        Op::Remove => Request::RemoveBatch(keys),
    }
}

fn request_keys(req: Request) -> Vec<Vec<u8>> {
    match req {
        Request::Query(k) | Request::Insert(k) | Request::Remove(k) => vec![k],
        Request::QueryBatch(ks) | Request::InsertBatch(ks) | Request::RemoveBatch(ks) => ks,
        _ => Vec::new(),
    }
}

/// The WAL operation the server logs for a request: scalar requests log
/// scalar records, batches one batch record per touched shard.
fn wal_op(op: Op, scalar: bool, mut keys: Vec<Vec<u8>>) -> WalOp {
    match (op, scalar) {
        (Op::Insert, true) => WalOp::Insert(keys.pop().expect("one key")),
        (Op::Remove, true) => WalOp::Remove(keys.pop().expect("one key")),
        (Op::Remove, false) => WalOp::RemoveBatch(keys),
        _ => WalOp::InsertBatch(keys),
    }
}

/// Applies a mutation to the replica; true when every key was applied.
fn apply(
    replica: &ShardedMpcbf<u64, Murmur3>,
    op: Op,
    views: &[&[u8]],
    scratch: &mut ShardBatch,
) -> bool {
    match (op, views) {
        (Op::Insert, [key]) => replica.insert_bytes(key).is_ok(),
        (Op::Remove, [key]) => replica.remove_bytes(key).is_ok(),
        (Op::Insert, _) => replica
            .insert_batch_bytes_with(views, scratch)
            .iter()
            .all(Result::is_ok),
        _ => replica
            .remove_batch_bytes_with(views, scratch)
            .iter()
            .all(Result::is_ok),
    }
}

impl<'a> Replay<'a> {
    /// `sync_each`: the workload's policy fsyncs every append, so the
    /// median write waits for one.
    pub fn new(
        replica: &'a ShardedMpcbf<u64, Murmur3>,
        standalone: &'a Standalone,
        wal_dir: &Path,
        sync_each: bool,
        mirrors: bool,
    ) -> Result<Replay<'a>, String> {
        let wal = Wal::new(
            wal_dir,
            "replay",
            FsyncPolicy::EveryN(u32::MAX),
            8 << 20,
            KillSwitch::new(),
        )
        .map_err(|e| format!("scratch wal: {e}"))?;
        Ok(Replay {
            replica,
            standalone,
            wal,
            seq: 0,
            sync_each,
            mirrors,
            scratch: ShardBatch::new(),
            plans: PlanBuffer::new(),
            digests: Vec::new(),
            frame: Vec::new(),
            record_bytes: 0,
            record_keys: 0,
        })
    }

    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        tracer: &mut Tracer,
        target: &mut dyn Target,
        parent: u64,
        req: u64,
        op: Op,
        keys: &[Vec<u8>],
        members: usize,
    ) -> Result<(), String> {
        let replay = tracer.open("replay", Some(parent), req);
        let rid = replay.id;
        let start = tracer.now();
        if let Some(pong) = target.ping() {
            pong?;
            let end = tracer.now();
            tracer.record("server.socket.ping", Some(rid), req, start, end);
        }

        let frame = &mut self.frame;
        tracer
            .span("server.protocol.encode", rid, req, || {
                frame.clear();
                write_frame(frame, &encode_request(&request(op, keys.to_vec())))
            })
            .map_err(|e| format!("frame write: {e}"))?;
        let decoded = tracer.span("server.protocol.decode", rid, req, || {
            read_frame(&mut &frame[..])
                .ok()
                .flatten()
                .and_then(|payload| decode_request(&payload).ok())
        });
        let decoded = decoded.map(request_keys).unwrap_or_default();
        if decoded != keys {
            return Err("protocol round trip changed the request".into());
        }

        let replica = self.replica;
        let views: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let scratch = &mut self.scratch;
        match op {
            Op::Query => {
                let hits =
                    tracer.span(
                        "concurrent.sharded.contains",
                        rid,
                        req,
                        || match &views[..] {
                            [key] => vec![replica.contains_bytes(key)],
                            _ => replica.contains_batch_bytes_with(&views, scratch),
                        },
                    );
                if self.mirrors && hits[..members].iter().any(|&hit| !hit) {
                    return Err("the replica missed a member".into());
                }
            }
            Op::Insert | Op::Remove => {
                let groups = tracer.span("concurrent.sharded.route", rid, req, || {
                    let mut groups = vec![Vec::new(); replica.shard_count()];
                    for key in decoded {
                        groups[replica.home_shard(&key)].push(key);
                    }
                    groups
                });
                let scalar = keys.len() == 1;
                let records: Vec<WalRecord> = groups
                    .into_iter()
                    .filter(|g| !g.is_empty())
                    .map(|g| {
                        self.seq += 1;
                        WalRecord {
                            seq: self.seq,
                            op: wal_op(op, scalar, g),
                        }
                    })
                    .collect();
                let wal = &mut self.wal;
                tracer
                    .span("durability.wal.append", rid, req, || {
                        records.iter().try_for_each(|r| wal.append(r))
                    })
                    .map_err(|e| format!("wal append: {e}"))?;
                if self.sync_each {
                    tracer
                        .span("durability.wal.sync", rid, req, || wal.sync())
                        .map_err(|e| format!("wal sync: {e}"))?;
                }
                // Leave the replica as it was: a removal replays against a
                // key put back first, an insertion is undone after.
                let (name, undo) = match op {
                    Op::Insert => ("concurrent.sharded.insert", Op::Remove),
                    _ => ("concurrent.sharded.remove", Op::Insert),
                };
                let mut ok = true;
                if op == Op::Remove {
                    ok &= apply(replica, undo, &views, scratch);
                }
                ok &= tracer.span(name, rid, req, || apply(replica, op, &views, scratch));
                if op == Op::Insert {
                    ok &= apply(replica, undo, &views, scratch);
                }
                if !ok {
                    return Err("the replica refused a replayed mutation".into());
                }
            }
        }

        let isolated = tracer.open("isolated", Some(rid), req);
        let iid = isolated.id;
        let s = self.standalone;
        let (digests, plans) = (&mut self.digests, &mut self.plans);
        tracer.span("hash.murmur3", iid, req, || {
            digests.clear();
            digests.extend(keys.iter().map(|k| Murmur3::hash128(s.seed, k)));
        });
        let shape = s.shape;
        tracer.span("core.plan", iid, req, || {
            plans.plan_partitioned(
                digests.iter().copied(),
                shape.l,
                shape.k,
                shape.g,
                u64::from(shape.b1),
            )
        });
        let word = |w: usize| HcbfWord::<u64>::from_raw(s.words[w]);
        match op {
            Op::Query => {
                let present: Vec<bool> = tracer.span("core.hcbf.query", iid, req, || {
                    (0..plans.keys())
                        .map(|i| {
                            plans
                                .groups_of(i)
                                .all(|(w, probes)| word(w).query_all(probes).0)
                        })
                        .collect()
                });
                if s.holds_every_member && present[..members].iter().any(|&p| !p) {
                    return Err("the isolated word walk missed a member".into());
                }
            }
            Op::Insert | Op::Remove => {
                tracer.span("core.hcbf.update", iid, req, || {
                    for i in 0..plans.keys() {
                        for (w, probes) in plans.groups_of(i) {
                            let mut copy = word(w);
                            let _ = black_box(copy.increment_all(probes, shape.b1));
                        }
                    }
                });
                let record = WalRecord {
                    seq: self.seq,
                    op: wal_op(op, keys.len() == 1, keys.to_vec()),
                };
                let bytes = tracer.span("durability.record.encode", iid, req, || {
                    encode_frame(black_box(&record)).len()
                });
                self.record_bytes += bytes as u64;
                self.record_keys += keys.len() as u64;
            }
        }
        tracer.close(isolated);
        tracer.close(replay);
        Ok(())
    }
}
