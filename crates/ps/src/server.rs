//! PS-server and checkpoint-storage processes.

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ps2_simnet::{Envelope, Proc, ProcId, SimRuntime, SimTime, StepCtx};

use crate::plan::{MatrixId, PartitionPlan, PlanKind};
use crate::protocol::{
    tags, AggKind, AggReq, AxpyReq, CheckpointReq, ColsSel, CreateReq, CrossDotReq, CrossElemReq,
    DotReq, ElemReq, EnvelopeReq, FetchSegReq, FillReq, FreeReq, InitKind, PullBlockReq, PullReq,
    PushBlockReq, PushData, PushReq, ReplicaFlag, ReplicaReq, RestoreReq, RowPullReply, ScaleReq,
    Snapshot, StoreGetReq, StoreGetResp, StorePutReq, ZipArgmaxReq, ZipMapReq, ZipReq, ZipSegs,
};
use crate::replica::{AckOutcome, Fanouts, RowReplication};

/// splitmix64: the deterministic per-element hash behind `InitKind::Uniform`,
/// so initialization is identical no matter which server materializes a cell.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn init_value(init: &InitKind, row: u32, col: u64) -> f64 {
    match init {
        InitKind::Zero => 0.0,
        InitKind::Const(c) => *c,
        InitKind::Uniform { lo, hi, seed } => {
            let h = mix64(seed ^ mix64((row as u64) << 40 ^ col));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }
    }
}

/// One matrix's data on one server.
struct Shard {
    plan: Arc<PartitionPlan>,
    /// Column plans: the ranges this server owns, column order.
    /// Row plans: one pseudo-range `(0, dim)` per owned row.
    ranges: Vec<(u64, u64)>,
    /// Where each range starts within a row slot's values, plus the row
    /// width as the last entry.
    starts: Vec<usize>,
    /// Row plans only: which rows the pseudo-ranges belong to.
    owned_rows: Vec<u32>,
    /// Every held row's values in one allocation, row slot after row slot,
    /// each row slot's ranges back to back. Column plans: the row slot is
    /// the row index (all rows present). Row plans: it indexes
    /// `owned_rows`.
    data: Vec<f64>,
    /// Row plans on a fleet of two or more: hot-row replication state.
    repl: Option<Box<RowReplication>>,
}

impl Shard {
    fn build(
        slot: usize,
        plan: Arc<PartitionPlan>,
        init: &InitKind,
        fleet: &Arc<Vec<ProcId>>,
    ) -> Shard {
        let (ranges, owned_rows, repl) = match plan.kind {
            PlanKind::Column { .. } => (plan.ranges_of(slot), Vec::new(), None),
            PlanKind::Row { n_slots } => (
                vec![(0, plan.dim)],
                (0..plan.rows)
                    .filter(|&r| plan.row_owner(r) == slot)
                    .collect(),
                RowReplication::new(Arc::clone(fleet), slot, n_slots).map(Box::new),
            ),
        };
        let mut starts = vec![0];
        for &(lo, hi) in &ranges {
            starts.push(starts[starts.len() - 1] + (hi - lo) as usize);
        }
        let held_rows: Vec<u32> = match plan.kind {
            PlanKind::Column { .. } => (0..plan.rows).collect(),
            PlanKind::Row { .. } => owned_rows.clone(),
        };
        let mut data = Vec::with_capacity(held_rows.len() * starts[ranges.len()]);
        for &row in &held_rows {
            for &(lo, hi) in &ranges {
                data.extend((lo..hi).map(|c| init_value(init, row, c)));
            }
        }
        Shard {
            plan,
            ranges,
            starts,
            owned_rows,
            data,
            repl,
        }
    }

    /// Values per row slot.
    fn width(&self) -> usize {
        self.starts[self.ranges.len()]
    }

    /// Resolve a row to its row slot, or `None` when this server holds no
    /// part of it. `owned_rows` is ascending by construction, so row plans
    /// binary-search it.
    fn try_slot(&self, row: u32) -> Option<usize> {
        match self.plan.kind {
            PlanKind::Column { .. } => Some(row as usize),
            PlanKind::Row { .. } => self.owned_rows.binary_search(&row).ok(),
        }
    }

    /// [`Shard::try_slot`] for a row this server must hold; panics
    /// otherwise (a routing bug).
    fn slot(&self, row: u32) -> usize {
        self.try_slot(row)
            .unwrap_or_else(|| panic!("row {row} not owned by this server"))
    }

    /// A row slot's values, every range back to back.
    fn row(&self, slot: usize) -> &[f64] {
        let w = self.width();
        &self.data[slot * w..(slot + 1) * w]
    }

    fn row_mut(&mut self, slot: usize) -> &mut [f64] {
        let w = self.width();
        &mut self.data[slot * w..(slot + 1) * w]
    }

    /// A row slot's values in range `ri`.
    fn seg(&self, slot: usize, ri: usize) -> &[f64] {
        &self.row(slot)[self.starts[ri]..self.starts[ri + 1]]
    }

    /// A row slot's values as one vector per range, the shape replies and
    /// replicas carry.
    fn seg_vecs(&self, slot: usize) -> Vec<Vec<f64>> {
        (0..self.ranges.len())
            .map(|ri| self.seg(slot, ri).to_vec())
            .collect()
    }

    /// Index of `col` of `row` in `data`.
    fn index(&self, row: u32, col: u64) -> usize {
        let slot = self.slot(row);
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if col >= lo && col < hi {
                return slot * self.width() + self.starts[i] + (col - lo) as usize;
            }
        }
        panic!("column {col} not owned by this server");
    }

    fn get(&self, row: u32, col: u64) -> f64 {
        self.data[self.index(row, col)]
    }

    fn add(&mut self, row: u32, col: u64, delta: f64) {
        let i = self.index(row, col);
        self.data[i] += delta;
    }
}

/// Bounded memory of recently applied mutating op ids.
///
/// A client whose push timed out resends it with the same op id; if the
/// original was in fact applied (the server was slow, not dead), the server
/// recognizes the duplicate here, skips the re-apply, and still acknowledges
/// success. The memory is bounded (FIFO eviction), which is safe because a
/// retry of op `k` can only race the handful of ops in flight around `k` —
/// never something [`OP_LOG_CAP`] mutations in the past. A *replacement*
/// server starts with an empty log, so an update that was applied by the
/// dead server *and* retried against the replacement lands twice; that
/// bounded double-push window is the documented recovery tolerance.
#[derive(Default)]
struct OpLog {
    seen: HashSet<(MatrixId, u64)>,
    order: VecDeque<(MatrixId, u64)>,
}

const OP_LOG_CAP: usize = 4096;

impl OpLog {
    /// True when `(id, op_id)` was already applied; records it otherwise.
    fn check_and_record(&mut self, id: MatrixId, op_id: u64) -> bool {
        let key = (id, op_id);
        if self.seen.contains(&key) {
            return true;
        }
        if self.order.len() == OP_LOG_CAP {
            let oldest = self.order.pop_front().expect("cap > 0");
            self.seen.remove(&oldest);
        }
        self.order.push_back(key);
        self.seen.insert(key);
        false
    }
}

/// Row-touch counters are only kept for matrices this small: envelope
/// coalescing lowers `pull_rows_in`/`push_dense_many_in` to per-row subs, and
/// embedding tables with thousands of rows would otherwise mint a metric
/// name per vertex.
const ROW_TOUCH_MAX_ROWS: u32 = 64;

/// A mutating request's `(matrix, op_id)` dedup key and the rows it
/// writes (on row plans, the rows whose replicas a write must refresh);
/// `None` for read-only requests, which are harmless to re-execute. Works
/// on the bare payload so envelope sub-requests dedup exactly like bare
/// ones. The rows borrow from the payload, so the common path — no
/// promoted rows to refresh — allocates nothing.
fn mutation(tag: u32, payload: &dyn Any) -> Option<((MatrixId, u64), &[u32])> {
    use std::slice::from_ref;
    Some(match tag {
        tags::PUSH => {
            let r: &PushReq = cast(tag, payload);
            ((r.id, r.op_id), from_ref(&r.row))
        }
        tags::AXPY => {
            let r: &AxpyReq = cast(tag, payload);
            ((r.id, r.op_id), from_ref(&r.dst_row))
        }
        tags::ELEM => {
            let r: &ElemReq = cast(tag, payload);
            ((r.id, r.op_id), from_ref(&r.dst_row))
        }
        tags::ZIP => {
            let r: &ZipReq = cast(tag, payload);
            ((r.id, r.op_id), &r.rows[..])
        }
        tags::FILL => {
            let r: &FillReq = cast(tag, payload);
            ((r.id, r.op_id), from_ref(&r.row))
        }
        tags::SCALE => {
            let r: &ScaleReq = cast(tag, payload);
            ((r.id, r.op_id), from_ref(&r.row))
        }
        tags::PUSH_BLOCK => {
            let r: &PushBlockReq = cast(tag, payload);
            ((r.id, r.op_id), &r.rows[..])
        }
        _ => return None,
    })
}

/// Everything one PS server holds. [`PsServerAgent`] feeds every delivered
/// message to [`ServerState::on_message`]: requests, and the replies to the
/// requests the server itself sent (replica installs and refreshes, segment
/// fetches of cross-matrix ops, checkpoint storage I/O).
#[derive(Default)]
struct ServerState {
    shards: HashMap<MatrixId, Shard>,
    oplog: OpLog,
    /// Requests this server sent and awaits replies to, and the client
    /// replies and parked split-phase requests waiting on them.
    fanouts: Fanouts,
    /// Rows promoted while handling the current request. They are
    /// installed on the peers once its reply is out, so the read that
    /// promoted a row is not delayed behind the install.
    to_install: Vec<(MatrixId, u32)>,
}

/// Wire bytes of a replica install/refresh: a request header plus the
/// row's values at full width.
fn replica_bytes(segs: &[Vec<f64>]) -> u64 {
    48 + 8 * segs.iter().map(|s| s.len() as u64).sum::<u64>()
}

impl ServerState {
    /// Serve one delivered message: a reply to a request this server sent,
    /// or a request.
    ///
    /// Each request records its queue time (arrival → dequeue: how long it
    /// sat behind earlier work) and service time (dequeue → reply sent)
    /// into per-variant histograms `ps.server.{op}.queue` / `.service`.
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        if env.is_reply() {
            self.on_reply(ctx, env);
            return;
        }
        let op = tags::name(env.tag);
        let t0 = ctx.now();
        let queue = t0.saturating_sub(env.arrival);
        // Tag the handler's compute charges with the op so trace analysis
        // can break server busy time down by request kind.
        ctx.op_label(op);
        let parked = self.handle(ctx, env, t0);
        ctx.op_label_clear();
        // Per-server load counter: the windowed deltas of these feed the
        // watchdog's Gini skew detector across the server fleet.
        let served = format!("ps.server.p{}.served", ctx.id().0);
        ctx.metric_add(&served, 1);
        ctx.metric_observe(&format!("ps.server.{op}.queue"), queue);
        if !parked {
            ctx.metric_observe(&format!("ps.server.{op}.service"), ctx.now() - t0);
        }
    }

    /// Handle one request; true when it parked (see
    /// [`ServerState::start_split`]).
    fn handle(&mut self, ctx: &mut StepCtx<'_>, env: Envelope, t0: SimTime) -> bool {
        if matches!(
            env.tag,
            tags::CROSS_DOT | tags::CROSS_ELEM | tags::CHECKPOINT | tags::RESTORE
        ) {
            return self.start_split(ctx, env, t0);
        }
        let mut waits = Vec::new();
        let (reply, bytes) = if env.tag == tags::ENVELOPE {
            // The coalescing container: run each sub-request as if it had
            // arrived bare — own op label, own dedup check — and ship all
            // the replies back in one message.
            let req: &EnvelopeReq = env.downcast_ref();
            ctx.trace_mark_with("ps.server.envelope", req.op_id);
            let subs = Arc::clone(&req.subs);
            let mut replies: Vec<Box<dyn Any + Send>> = Vec::with_capacity(subs.len());
            let mut bytes = 16u64;
            for (tag, payload, _) in subs.iter() {
                ctx.op_label(tags::name(*tag));
                let (reply, b) = self.dispatch_one(ctx, *tag, payload.as_ref(), &mut waits);
                replies.push(reply);
                bytes += b;
            }
            ctx.op_label("envelope");
            (Box::new(replies) as Box<dyn Any + Send>, bytes)
        } else {
            self.dispatch_one(ctx, env.tag, env.payload.as_ref(), &mut waits)
        };
        if waits.is_empty() {
            ctx.reply_boxed(&env, reply, bytes);
        } else {
            // A write to a promoted row: acknowledge once every replica
            // holds the new value. An envelope carrying a write and its
            // retried duplicate names the same fan-out twice.
            waits.sort_unstable();
            waits.dedup();
            self.fanouts.defer(env, reply, bytes, &waits);
        }
        for (id, row) in std::mem::take(&mut self.to_install) {
            self.install(ctx, id, row);
        }
        false
    }

    /// First phase of a request whose handler needs other processes:
    /// CROSS_DOT/CROSS_ELEM fetch the segments of misaligned pieces from
    /// their peers (FETCH_SEG), CHECKPOINT stores a snapshot (STORE_PUT)
    /// and RESTORE loads one (STORE_GET). The requests go out, and the
    /// request parks in `fanouts` until their replies come back through
    /// the message loop ([`ServerState::resume`]); meanwhile the server
    /// keeps serving. With nothing to wait for (co-located pieces) it runs
    /// to completion here. Returns whether it parked.
    fn start_split(&mut self, ctx: &mut StepCtx<'_>, env: Envelope, started: SimTime) -> bool {
        let mut op = None;
        let corrs: Vec<u64> = match env.tag {
            tags::CROSS_DOT => {
                let r: &CrossDotReq = env.downcast_ref();
                fetch_remote(ctx, r.remote_id, r.remote_row, &r.pieces, r.value_bytes)
            }
            tags::CROSS_ELEM => {
                let r: &CrossElemReq = env.downcast_ref();
                let key = (r.dst_id, r.op_id);
                if self.oplog.check_and_record(key.0, key.1) {
                    // A retry of a write this server already took:
                    // acknowledge it once the original has applied.
                    match self.fanouts.write_in_flight(key) {
                        Some(fan) => self.fanouts.defer(env, Box::new(()), 8, &[fan]),
                        None => ctx.reply(&env, (), 8),
                    }
                    return false;
                }
                op = Some(key);
                fetch_remote(ctx, r.src_id, r.src_row, &r.pieces, r.value_bytes)
            }
            tags::CHECKPOINT => {
                let r: &CheckpointReq = env.downcast_ref();
                let (snapshot, bytes) = snapshot(ctx, &self.shards);
                let put = StorePutReq {
                    key: r.key,
                    snapshot,
                };
                vec![ctx.send_request(r.storage, tags::STORE_PUT, put, bytes)]
            }
            tags::RESTORE => {
                let r: &RestoreReq = env.downcast_ref();
                let get = StoreGetReq { key: r.key };
                vec![ctx.send_request(r.storage, tags::STORE_GET, get, 16)]
            }
            other => unreachable!("tag {other} has no split-phase handler"),
        };
        if corrs.is_empty() {
            self.resume(ctx, env, Vec::new());
            return false;
        }
        let fan = self.fanouts.park(env, op, started, corrs.len());
        for corr in corrs {
            self.fanouts.track(corr, fan);
        }
        true
    }

    /// Second phase of a split-phase request: `replies` answer the
    /// requests its first phase sent, in send order. Run the handler and
    /// reply to the client.
    fn resume(&mut self, ctx: &mut StepCtx<'_>, request: Envelope, replies: Vec<Envelope>) {
        let mut replies = replies.into_iter();
        let me = ctx.id();
        let (reply, bytes): (Box<dyn Any + Send>, u64) = match request.tag {
            tags::CROSS_DOT => {
                let r: &CrossDotReq = request.downcast_ref();
                let (id, row) = (r.remote_id, r.remote_row);
                let srcs = cross_sources(&self.shards, me, id, row, &r.pieces, &mut replies);
                let shard = shard_of(&self.shards, r.local_id);
                let mut acc = 0.0;
                for (&(lo, hi, _), vals) in r.pieces.iter().zip(&srcs) {
                    let local = (lo..hi).map(|c| shard.get(r.local_row, c));
                    acc += local.zip(vals).map(|(l, rv)| l * rv).sum::<f64>();
                    ctx.charge_flops(2 * (hi - lo));
                }
                (Box::new(acc), 16)
            }
            tags::CROSS_ELEM => {
                let r: &CrossElemReq = request.downcast_ref();
                let (id, row) = (r.src_id, r.src_row);
                let srcs = cross_sources(&self.shards, me, id, row, &r.pieces, &mut replies);
                let shard = shard_mut(&mut self.shards, r.dst_id);
                for (&(lo, hi, _), vals) in r.pieces.iter().zip(&srcs) {
                    for (i, sv) in vals.iter().enumerate() {
                        let c = lo + i as u64;
                        let cur = shard.get(r.dst_row, c);
                        let new = r.op.apply(cur, *sv);
                        shard.add(r.dst_row, c, new - cur);
                    }
                    ctx.charge_flops(2 * (hi - lo));
                }
                (Box::new(()), 8)
            }
            tags::CHECKPOINT => (Box::new(()), 8),
            tags::RESTORE => {
                let resp = replies.next().expect("storage replied").downcast();
                let StoreGetResp::Found(snapshot) = resp else {
                    return ctx.reply(&request, false, 8);
                };
                for (id, data) in &snapshot.shards {
                    if let Some(shard) = self.shards.get_mut(id) {
                        shard.data = data.clone();
                    }
                }
                (Box::new(true), 8)
            }
            other => unreachable!("tag {other} has no split-phase handler"),
        };
        ctx.reply_boxed(&request, reply, bytes);
    }

    /// Dedup-then-execute for one request, bare or enveloped, keeping the
    /// replicas of promoted rows in step. Pushes onto `waits` the replica
    /// fan-outs the request's reply must wait for.
    fn dispatch_one(
        &mut self,
        ctx: &mut StepCtx<'_>,
        tag: u32,
        payload: &dyn Any,
        waits: &mut Vec<u64>,
    ) -> (Box<dyn Any + Send>, u64) {
        match tag {
            tags::PULL => {
                let req: &PullReq = cast(tag, payload);
                if matches!(req.cols, ColsSel::All) {
                    return self.row_pull(ctx, req);
                }
            }
            tags::REPLICA => return self.store_replica(ctx, cast(tag, payload)),
            _ => {}
        }
        let Some((key, rows)) = mutation(tag, payload) else {
            return execute(ctx, &mut self.shards, tag, payload);
        };
        if self.oplog.check_and_record(key.0, key.1) {
            // Duplicate of an update this server already applied (the client
            // timed out and resent): acknowledge without re-applying — once
            // the original's replica refresh, if any, has completed.
            waits.extend(self.fanouts.write_in_flight(key));
            return (Box::new(()), 8);
        }
        let out = execute(ctx, &mut self.shards, tag, payload);
        waits.extend(self.refresh(ctx, key, rows));
        out
    }

    /// A whole-row read: every segment of the row this server holds. The
    /// owner serves it, counting it toward promotion and flagging rows
    /// every peer holds; a row-plan peer serves its replica, or answers a
    /// miss so the client re-sends to the owner. Column plans hold every
    /// row, so they always answer [`ReplicaFlag::Owned`].
    fn row_pull(&mut self, ctx: &mut StepCtx<'_>, req: &PullReq) -> (Box<dyn Any + Send>, u64) {
        let shard = shard_mut(&mut self.shards, req.id);
        let (segs, flag) = match shard.try_slot(req.row) {
            Some(slot) => {
                // Per-matrix hot-row counter (NuPS-style access-skew
                // tracking), bounded-cardinality matrices only.
                if shard.plan.rows <= ROW_TOUCH_MAX_ROWS {
                    ctx.metric_add(
                        &format!("ps.server.row_touch.m{}.r{}", req.id.0, req.row),
                        1,
                    );
                }
                let mut flag = ReplicaFlag::Owned;
                if let Some(repl) = shard.repl.as_deref_mut() {
                    if repl.hinting(req.row) {
                        flag = ReplicaFlag::Replicated;
                    }
                    if repl.on_owned_read(req.row) {
                        self.to_install.push((req.id, req.row));
                    }
                }
                (shard.seg_vecs(slot), flag)
            }
            None => match shard.repl.as_deref().and_then(|r| r.replica(req.row)) {
                Some(segs) => (segs.to_vec(), ReplicaFlag::Replicated),
                None => (Vec::new(), ReplicaFlag::Miss),
            },
        };
        let n: u64 = segs.iter().map(|s| s.len() as u64).sum();
        ctx.charge_mem(n * 8);
        (
            Box::new(RowPullReply { segs, flag }),
            16 + n * req.value_bytes,
        )
    }

    /// A peer's install or refresh of one of its promoted rows. Dropped
    /// (and still acked) when the matrix is gone here: a write never waits
    /// on a server that cannot serve the row anyway.
    fn store_replica(
        &mut self,
        ctx: &mut StepCtx<'_>,
        req: &ReplicaReq,
    ) -> (Box<dyn Any + Send>, u64) {
        if let Some(repl) = self
            .shards
            .get_mut(&req.id)
            .and_then(|s| s.repl.as_deref_mut())
        {
            let n: u64 = req.segs.iter().map(|s| s.len() as u64).sum();
            ctx.charge_mem(n * 8);
            repl.store_replica(req.row, req.version, &req.segs);
        }
        (Box::new(()), 8)
    }

    /// Ship the value of `rows` of `id` at `versions` to every peer under
    /// one new fan-out.
    fn ship(
        &mut self,
        ctx: &mut StepCtx<'_>,
        id: MatrixId,
        rows: &[(u32, u64)],
        open: impl FnOnce(&mut Fanouts, usize) -> u64,
    ) -> u64 {
        let shard = shard_of(&self.shards, id);
        let peers: Vec<ProcId> = shard
            .repl
            .as_deref()
            .expect("replicated rows live on a replicated shard")
            .peers()
            .collect();
        let fan = open(&mut self.fanouts, peers.len() * rows.len());
        for &(row, version) in rows {
            let segs = Arc::new(shard.seg_vecs(shard.slot(row)));
            let bytes = replica_bytes(&segs);
            for &peer in &peers {
                let req = ReplicaReq {
                    id,
                    row,
                    version,
                    segs: Arc::clone(&segs),
                };
                let corr = ctx.send_request(peer, tags::REPLICA, req, bytes);
                self.fanouts.track(corr, fan);
            }
        }
        fan
    }

    /// Install newly promoted `row` of `id` on every peer; the owner hints
    /// it once all of them acked.
    fn install(&mut self, ctx: &mut StepCtx<'_>, id: MatrixId, row: u32) {
        let Some(version) = self
            .shards
            .get(&id)
            .and_then(|s| s.repl.as_deref())
            .and_then(|r| r.version(row))
        else {
            return;
        };
        self.ship(ctx, id, &[(row, version)], |f, acks| {
            f.open_install(id, row, acks)
        });
        ctx.trace_mark_with("ps.server.replica.promote", row as u64);
        ctx.metric_add("ps.server.replica.promoted", 1);
        let at = ctx.now();
        ctx.metric_observe("ps.server.replica.promote_at", at);
    }

    /// After write `key` to the `written` rows was applied: ship the new
    /// value of every promoted row it touched to every peer. Returns the
    /// fan-out the write's ack waits for, if any.
    fn refresh(
        &mut self,
        ctx: &mut StepCtx<'_>,
        key: (MatrixId, u64),
        written: &[u32],
    ) -> Option<u64> {
        let repl = self.shards.get_mut(&key.0)?.repl.as_deref_mut()?;
        if !repl.has_promoted() {
            return None;
        }
        let mut written = written.to_vec();
        written.sort_unstable();
        written.dedup();
        let rows: Vec<(u32, u64)> = written
            .into_iter()
            .filter_map(|row| repl.bump(row).map(|v| (row, v)))
            .collect();
        if rows.is_empty() {
            return None;
        }
        Some(self.ship(ctx, key.0, &rows, |f, acks| f.open_write(key, acks)))
    }

    /// Account a reply to a request this server sent, and act on a
    /// completed fan-out.
    fn on_reply(&mut self, ctx: &mut StepCtx<'_>, reply: Envelope) {
        match self.fanouts.on_reply(reply) {
            AckOutcome::Pending => {}
            AckOutcome::Hint { id, row } => {
                if let Some(repl) = self.shards.get_mut(&id).and_then(|s| s.repl.as_deref_mut()) {
                    repl.start_hinting(row);
                }
            }
            AckOutcome::Release(ready) => {
                for (request, reply, bytes) in ready {
                    ctx.reply_boxed(&request, reply, bytes);
                }
            }
            AckOutcome::Resume {
                request,
                started,
                replies,
                release,
            } => {
                let op = tags::name(request.tag);
                ctx.op_label(op);
                self.resume(ctx, request, replies);
                ctx.op_label_clear();
                ctx.metric_observe(&format!("ps.server.{op}.service"), ctx.now() - started);
                for (request, reply, bytes) in release {
                    ctx.reply_boxed(&request, reply, bytes);
                }
            }
        }
    }
}

/// The PS server: stores shards and executes row- and column-access ops,
/// as an event-driven agent with no OS thread. Spawn one per server with
/// [`ps2_simnet::SimRuntime::spawn_agent_daemon`] (or [`deploy_ps`]). Ops
/// that need replies from other processes — cross-matrix segment fetches,
/// checkpoint storage I/O — run split-phase: the request parks until the
/// replies come back through the message loop, and the server keeps
/// serving meanwhile.
#[derive(Default)]
pub struct PsServerAgent {
    state: ServerState,
}

impl PsServerAgent {
    pub fn new() -> PsServerAgent {
        PsServerAgent::default()
    }
}

impl Proc for PsServerAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        self.state.on_message(ctx, env);
    }
}

fn cast<T: 'static>(tag: u32, payload: &dyn Any) -> &T {
    // Arc-transparent, mirroring `Envelope::downcast_ref`: the fabric ships
    // request payloads as `Arc<T>` so retries resend without deep-cloning.
    payload
        .downcast_ref::<T>()
        .or_else(|| payload.downcast_ref::<std::sync::Arc<T>>().map(|a| &**a))
        .unwrap_or_else(|| panic!("ps-server: payload type mismatch for tag {tag}"))
}

/// Execute one request and return `(reply payload, reply wire bytes)`.
/// Pure of reliability concerns: dedup happened in the caller, the reply is
/// sent by the caller (so envelopes can collect many replies into one
/// message).
fn execute(
    ctx: &mut StepCtx<'_>,
    shards: &mut HashMap<MatrixId, Shard>,
    tag: u32,
    payload: &dyn Any,
) -> (Box<dyn Any + Send>, u64) {
    match tag {
        tags::CREATE => {
            let req: &CreateReq = cast(tag, payload);
            // Idempotent: fleet recovery replays creates into a replacement
            // server, and the fabric may then re-deliver the original
            // request — rebuilding here would wipe the restored values.
            if let std::collections::hash_map::Entry::Vacant(e) = shards.entry(req.id) {
                let shard = Shard::build(req.slot, Arc::clone(&req.plan), &req.init, &req.fleet);
                // Materializing the shard touches every owned element.
                ctx.charge_mem(shard.data.len() as u64 * 8);
                e.insert(shard);
            }
            (Box::new(()), 8)
        }
        tags::FREE => {
            let req: &FreeReq = cast(tag, payload);
            shards.remove(&req.id);
            (Box::new(()), 8)
        }
        tags::PULL => {
            let req: &PullReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            // Per-matrix hot-row counter (NuPS-style access-skew tracking),
            // bounded-cardinality matrices only.
            if shard.plan.rows <= ROW_TOUCH_MAX_ROWS {
                ctx.metric_add(
                    &format!("ps.server.row_touch.m{}.r{}", req.id.0, req.row),
                    1,
                );
            }
            // A column list also scans its indices.
            let (values, scan): (Vec<f64>, u64) = match &req.cols {
                ColsSel::All => unreachable!("whole-row pulls are served by row_pull"),
                ColsSel::Range(lo, hi) => ((*lo..*hi).map(|c| shard.get(req.row, c)).collect(), 8),
                ColsSel::List(cols) => (cols.iter().map(|&c| shard.get(req.row, c)).collect(), 16),
            };
            let n = values.len() as u64;
            ctx.charge_mem(n * scan);
            (Box::new(values), 16 + n * req.value_bytes)
        }
        tags::PUSH => {
            let req: &PushReq = cast(tag, payload);
            let (id, row) = (req.id, req.row);
            let shard = shard_mut(shards, id);
            if shard.plan.rows <= ROW_TOUCH_MAX_ROWS {
                ctx.metric_add(&format!("ps.server.row_touch.m{}.r{}", id.0, row), 1);
            }
            match &req.data {
                PushData::DenseSeg { lo, values } => {
                    for (i, v) in values.iter().enumerate() {
                        shard.add(row, lo + i as u64, *v);
                    }
                    ctx.charge_flops(values.len() as u64);
                }
                PushData::Sparse(pairs) => {
                    for &(c, v) in pairs.iter() {
                        shard.add(row, c, v);
                    }
                    ctx.charge_flops(2 * pairs.len() as u64);
                }
            }
            (Box::new(()), 8)
        }
        tags::AGG => {
            let req: &AggReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let slot = shard.slot(req.row);
            let mut acc = match req.kind {
                AggKind::Max => f64::NEG_INFINITY,
                _ => 0.0,
            };
            let row = shard.row(slot);
            for &v in row {
                match req.kind {
                    AggKind::Sum => acc += v,
                    AggKind::Nnz => acc += if v != 0.0 { 1.0 } else { 0.0 },
                    AggKind::Norm2Sq => acc += v * v,
                    AggKind::Max => acc = acc.max(v),
                }
            }
            ctx.charge_flops(row.len() as u64);
            (Box::new(acc), 16)
        }
        tags::DOT => {
            let req: &DotReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let sa = shard.slot(req.row_a);
            let sb = shard.slot(req.row_b);
            let mut acc = 0.0;
            let mut n = 0u64;
            for ri in 0..shard.ranges.len() {
                let (a, b) = (shard.seg(sa, ri), shard.seg(sb, ri));
                n += a.len() as u64;
                acc += a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
            }
            ctx.charge_flops(2 * n);
            (Box::new(acc), 16)
        }
        tags::AXPY => {
            let req: &AxpyReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let src = shard.row(shard.slot(req.src_row)).to_vec();
            let dst = shard.row_mut(shard.slot(req.dst_row));
            for (d, s) in dst.iter_mut().zip(&src) {
                *d += req.alpha * s;
            }
            ctx.charge_flops(2 * dst.len() as u64);
            (Box::new(()), 8)
        }
        tags::ELEM => {
            let req: &ElemReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let av = shard.row(shard.slot(req.a_row)).to_vec();
            let bv = shard.row(shard.slot(req.b_row)).to_vec();
            let dv = shard.row_mut(shard.slot(req.dst_row));
            for (d, (a, b)) in dv.iter_mut().zip(av.iter().zip(&bv)) {
                *d = req.op.apply(*a, *b);
            }
            ctx.charge_flops(dv.len() as u64);
            (Box::new(()), 8)
        }
        tags::ZIP => {
            let req: &ZipReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let slots: Vec<usize> = req.rows.iter().map(|&r| shard.slot(r)).collect();
            let width = shard.width();
            let mut taken = rows_mut(&mut shard.data, width, &slots);
            let mut n = 0u64;
            for (&(lo, _), w) in shard.ranges.iter().zip(shard.starts.windows(2)) {
                let segs: Vec<&mut [f64]> = taken.iter_mut().map(|r| &mut r[w[0]..w[1]]).collect();
                n += segs.first().map_or(0, |s| s.len() as u64);
                (req.f)(&mut ZipSegs { segs, lo });
            }
            ctx.charge_flops(req.flops_per_elem * n);
            (Box::new(()), 8)
        }
        tags::ZIP_MAP => {
            let req: &ZipMapReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            fold_segments(ctx, shard, &req.rows, req.flops_per_elem, &*req.f, 8)
        }
        tags::ZIP_ARGMAX => {
            let req: &ZipArgmaxReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            fold_segments(ctx, shard, &req.rows, req.flops_per_elem, &*req.f, 16)
        }
        tags::FILL => {
            let req: &FillReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let values = shard.row_mut(shard.slot(req.row));
            values.fill(req.value);
            ctx.charge_mem(values.len() as u64 * 8);
            (Box::new(()), 8)
        }
        tags::SCALE => {
            let req: &ScaleReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let values = shard.row_mut(shard.slot(req.row));
            for v in values.iter_mut() {
                *v *= req.alpha;
            }
            ctx.charge_flops(values.len() as u64);
            (Box::new(()), 8)
        }
        tags::PULL_BLOCK => {
            let req: &PullBlockReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            // [col_idx][row_idx] layout.
            let block: Vec<Vec<f64>> = req
                .cols
                .iter()
                .map(|&c| req.rows.iter().map(|&r| shard.get(r, c)).collect())
                .collect();
            let n = (req.cols.len() * req.rows.len()) as u64;
            ctx.charge_mem(n * 16);
            (
                Box::new(block),
                16 + n * req.value_bytes + 4 * req.cols.len() as u64,
            )
        }
        tags::PUSH_BLOCK => {
            let req: &PushBlockReq = cast(tag, payload);
            let shard = shard_mut(shards, req.id);
            let mut n = 0u64;
            for (c, deltas) in req.updates.iter() {
                for (&r, &d) in req.rows.iter().zip(deltas) {
                    shard.add(r, *c, d);
                    n += 1;
                }
            }
            ctx.charge_flops(2 * n);
            (Box::new(()), 8)
        }
        tags::FETCH_SEG => {
            let req: &FetchSegReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let values: Vec<f64> = (req.lo..req.hi).map(|c| shard.get(req.row, c)).collect();
            let n = values.len() as u64;
            ctx.charge_mem(n * 8);
            (Box::new(values), 16 + n * req.value_bytes)
        }
        tags::PING => {
            // Liveness heartbeat: answer immediately. A server stuck in a
            // long op answers late, which the prober treats the same as any
            // slow reply; only a dead server never answers.
            (Box::new(()), 8)
        }
        // Split-phase ops (CROSS_*, CHECKPOINT, RESTORE) arrive bare only.
        other => panic!(
            "ps-server: tag {other} ({}) is not served here",
            tags::name(other)
        ),
    }
}

/// The read-only fold behind ZIP_MAP and ZIP_ARGMAX: `f` sees the
/// co-located segments of `rows` once per owned range and yields one
/// partial per range, each `partial_bytes` on the wire.
fn fold_segments<T: Send + 'static>(
    ctx: &mut StepCtx<'_>,
    shard: &Shard,
    rows: &[u32],
    flops_per_elem: u64,
    f: &dyn Fn(&[&[f64]], u64) -> T,
    partial_bytes: u64,
) -> (Box<dyn Any + Send>, u64) {
    let slots: Vec<usize> = rows.iter().map(|&r| shard.slot(r)).collect();
    let mut partials = Vec::with_capacity(shard.ranges.len());
    let mut n = 0u64;
    for (ri, &(lo, _)) in shard.ranges.iter().enumerate() {
        let segs: Vec<&[f64]> = slots.iter().map(|&s| shard.seg(s, ri)).collect();
        n += segs.first().map_or(0, |s| s.len() as u64);
        partials.push(f(&segs, lo));
    }
    ctx.charge_flops(flops_per_elem * n);
    let bytes = 16 + partial_bytes * partials.len() as u64;
    (Box::new(partials), bytes)
}

/// The rows at `slots` of row-major `data` (`width` values per row), as
/// disjoint mutable slices in `slots` order.
fn rows_mut<'a>(data: &'a mut [f64], width: usize, slots: &[usize]) -> Vec<&'a mut [f64]> {
    if width == 0 {
        return slots.iter().map(|_| <&mut [f64]>::default()).collect();
    }
    let mut rows: Vec<Option<&mut [f64]>> = data.chunks_mut(width).map(Some).collect();
    slots
        .iter()
        .map(|&s| rows[s].take().expect("zip rows must be distinct"))
        .collect()
}

fn shard_of(shards: &HashMap<MatrixId, Shard>, id: MatrixId) -> &Shard {
    shards
        .get(&id)
        .unwrap_or_else(|| panic!("matrix {id:?} not present on this server"))
}

fn shard_mut(shards: &mut HashMap<MatrixId, Shard>, id: MatrixId) -> &mut Shard {
    shards
        .get_mut(&id)
        .unwrap_or_else(|| panic!("matrix {id:?} not present on this server"))
}

/// The pieces' source values of a cross-matrix op, in piece order: read
/// here for a local piece, else taken from the next of `fetched`, the
/// FETCH_SEG replies in piece order.
fn cross_sources(
    shards: &HashMap<MatrixId, Shard>,
    me: ProcId,
    id: MatrixId,
    row: u32,
    pieces: &[(u64, u64, ProcId)],
    fetched: &mut impl Iterator<Item = Envelope>,
) -> Vec<Vec<f64>> {
    pieces
        .iter()
        .map(|&(lo, hi, remote)| {
            if remote == me {
                let shard = shard_of(shards, id);
                (lo..hi).map(|c| shard.get(row, c)).collect()
            } else {
                fetched
                    .next()
                    .expect("a reply per fetched piece")
                    .downcast()
            }
        })
        .collect()
}

/// Send a FETCH_SEG for every piece of `row` of `id` held by another
/// server; returns the requests' correlation ids, in piece order.
fn fetch_remote(
    ctx: &mut StepCtx<'_>,
    id: MatrixId,
    row: u32,
    pieces: &[(u64, u64, ProcId)],
    value_bytes: u64,
) -> Vec<u64> {
    let me = ctx.id();
    pieces
        .iter()
        .filter(|&&(_, _, remote)| remote != me)
        .map(|&(lo, hi, remote)| {
            let fetch = FetchSegReq {
                id,
                row,
                lo,
                hi,
                value_bytes,
            };
            ctx.send_request(remote, tags::FETCH_SEG, fetch, 48)
        })
        .collect()
}

/// Copy every shard into a checkpoint snapshot; returns it with its wire
/// size.
fn snapshot(ctx: &mut StepCtx<'_>, shards: &HashMap<MatrixId, Shard>) -> (Arc<Snapshot>, u64) {
    let shards: Vec<_> = shards
        .iter()
        .map(|(&id, sh)| (id, sh.data.clone()))
        .collect();
    let total: u64 = shards.iter().map(|(_, data)| data.len() as u64).sum();
    ctx.charge_mem(total * 8);
    let bytes = 32 + total * 8;
    (Arc::new(Snapshot { shards, bytes }), bytes)
}

/// The checkpoint storage process ("reliable external storage", e.g. HDFS).
/// Charges a disk-bandwidth cost per operation on top of the network cost of
/// getting bytes to it.
struct StorageAgent {
    disk_bytes_per_sec: f64,
    store: HashMap<u64, Arc<Snapshot>>,
}

impl Proc for StorageAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        let disk_time = |bytes| SimTime::from_secs_f64(bytes as f64 / self.disk_bytes_per_sec);
        match env.tag {
            tags::STORE_PUT => {
                let req: &StorePutReq = env.downcast_ref();
                ctx.advance(disk_time(req.snapshot.bytes));
                self.store.insert(req.key, Arc::clone(&req.snapshot));
                ctx.reply(&env, (), 8);
            }
            tags::STORE_GET => {
                let req: &StoreGetReq = env.downcast_ref();
                match self.store.get(&req.key) {
                    Some(snap) => {
                        ctx.advance(disk_time(snap.bytes));
                        let found = StoreGetResp::Found(Arc::clone(snap));
                        ctx.reply(&env, found, snap.bytes);
                    }
                    None => ctx.reply(&env, StoreGetResp::Missing, 8),
                }
            }
            other => panic!("storage: unknown tag {other}"),
        }
    }
}

/// Spawn `n` PS-servers plus one storage process.
pub fn deploy_ps(sim: &mut SimRuntime, n: usize, disk_bytes_per_sec: f64) -> (Vec<ProcId>, ProcId) {
    let servers = (0..n)
        .map(|i| sim.spawn_agent_daemon(&format!("ps-server-{i}"), PsServerAgent::new()))
        .collect();
    let storage = StorageAgent {
        disk_bytes_per_sec,
        store: HashMap::new(),
    };
    let storage = sim.spawn_agent_daemon("ps-storage", storage);
    (servers, storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::protocol::{ColsSel, ElemOp, PullReq, PushData, PushReq};
    use ps2_simnet::{SimBuilder, SimCtx};

    /// Create `id` with a one-slot column plan of width 8 on `server`.
    fn create_on(ctx: &mut SimCtx, server: ProcId, id: MatrixId, init: InitKind) {
        let create = CreateReq {
            id,
            plan: Arc::new(PartitionPlan::new(8, 1, 1, Partitioning::Column)),
            init,
            slot: 0,
            fleet: Arc::new(vec![server]),
        };
        let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
    }

    /// Row 0 of `id` as held by `server` (one segment).
    fn row0(ctx: &mut SimCtx, server: ProcId, id: MatrixId) -> Vec<f64> {
        let pull = PullReq {
            id,
            row: 0,
            cols: ColsSel::All,
            value_bytes: 8,
        };
        let reply: RowPullReply = ctx.call(server, tags::PULL, pull, 48).downcast();
        reply.segs.concat()
    }

    /// A PS server whose FETCH_SEG replies leave 1 ms late.
    struct SlowFetches(PsServerAgent);

    const FETCH_DELAY: SimTime = SimTime(1_000_000);

    impl Proc for SlowFetches {
        fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
            if env.tag == tags::FETCH_SEG {
                ctx.advance(FETCH_DELAY);
            }
            self.0.on_message(ctx, env);
        }
    }

    #[test]
    fn a_retried_cross_elem_is_applied_once_and_acked_after_the_original() {
        let mut sim = SimBuilder::new().seed(6).build();
        let local = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let remote = sim.spawn_agent_daemon("ps-server-1", SlowFetches(PsServerAgent::new()));
        let out = sim.spawn_collect("driver", move |ctx| {
            let (dst, src) = (MatrixId(1), MatrixId(2));
            create_on(ctx, local, dst, InitKind::Zero);
            create_on(ctx, remote, src, InitKind::Const(1.0));
            let req = CrossElemReq {
                dst_id: dst,
                dst_row: 0,
                src_id: src,
                src_row: 0,
                op: ElemOp::Add,
                pieces: vec![(0, 8, remote)],
                value_bytes: 8,
                op_id: 5,
            };
            // The original, then its retry while the original's FETCH_SEG
            // is still out at the slow peer.
            let t0 = ctx.now();
            let first = ctx.send_request(local, tags::CROSS_ELEM, req.clone(), 64);
            let retry = ctx.send_request(local, tags::CROSS_ELEM, req, 64);
            let a = ctx.recv_reply(&[first, retry], None).expect("an ack");
            let b = ctx.recv_reply(&[first, retry], None).expect("both acks");
            let acks: Vec<(u64, SimTime)> = [a, b].iter().map(|e| (e.corr, e.sent_at)).collect();
            (first, retry, t0, acks, row0(ctx, local, dst))
        });
        sim.run().unwrap();
        let (first, retry, t0, acks, row) = out.take();
        assert_eq!(row, vec![1.0; 8], "applied exactly once");
        assert_eq!(acks[0].0, first, "the original is acked first");
        assert_eq!(acks[1].0, retry);
        assert!(
            acks[1].1 >= acks[0].1 && acks[1].1 - t0 > FETCH_DELAY,
            "the retry was acked at {:?}, before the original applied at {:?}",
            acks[1].1,
            acks[0].1
        );
    }

    #[test]
    fn checkpoint_kill_restore_round_trips_on_agents() {
        let mut sim = SimBuilder::new().seed(8).build();
        let (servers, storage) = deploy_ps(&mut sim, 2, 500e6);
        let out = sim.spawn_collect("driver", move |ctx| {
            let id = MatrixId(1);
            create_on(ctx, servers[1], id, InitKind::Const(2.0));
            let checkpoint = CheckpointReq { storage, key: 1 };
            let _: () = ctx
                .call(servers[1], tags::CHECKPOINT, checkpoint, 48)
                .downcast();
            // A write after the checkpoint, then the server dies.
            let push = PushReq {
                id,
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![1.0; 8]),
                },
                op_id: 1,
            };
            let _: () = ctx.call(servers[1], tags::PUSH, push, 96).downcast();
            ctx.kill(servers[1]);
            let fresh = ctx.spawn_agent_daemon("ps-server-1r1", PsServerAgent::new());
            create_on(ctx, fresh, id, InitKind::Zero);
            let restore = |key| RestoreReq { storage, key };
            let missing: bool = ctx.call(fresh, tags::RESTORE, restore(7), 48).downcast();
            let before = row0(ctx, fresh, id);
            let found: bool = ctx.call(fresh, tags::RESTORE, restore(1), 48).downcast();
            (missing, before, found, row0(ctx, fresh, id))
        });
        sim.run().unwrap();
        let (missing, before, found, after) = out.take();
        assert!(!missing, "no snapshot under key 7");
        assert_eq!(
            before,
            vec![0.0; 8],
            "a missing snapshot leaves the shard as created"
        );
        assert!(found);
        assert_eq!(
            after,
            vec![2.0; 8],
            "the checkpointed values, not the later write"
        );
    }

    #[test]
    fn op_log_recognizes_duplicates() {
        let mut log = OpLog::default();
        let id = MatrixId(1);
        assert!(!log.check_and_record(id, 7));
        assert!(log.check_and_record(id, 7));
        assert!(!log.check_and_record(MatrixId(2), 7));
        assert!(!log.check_and_record(id, 8));
    }

    #[test]
    fn op_log_evicts_oldest_at_capacity() {
        let mut log = OpLog::default();
        let id = MatrixId(1);
        for op in 0..OP_LOG_CAP as u64 {
            assert!(!log.check_and_record(id, op));
        }
        // One past capacity evicts the oldest entry (op 0)...
        assert!(!log.check_and_record(id, OP_LOG_CAP as u64));
        // ...so op 0 is forgotten, while the newest entry is remembered.
        assert!(!log.check_and_record(id, 0));
        assert!(log.check_and_record(id, OP_LOG_CAP as u64));
    }

    #[test]
    fn duplicate_push_is_applied_once() {
        let mut sim = SimBuilder::new().seed(3).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let plan = Arc::new(PartitionPlan::new(8, 1, 1, Partitioning::Column));
            let create = CreateReq {
                id: MatrixId(1),
                plan: Arc::clone(&plan),
                init: InitKind::Zero,
                slot: 0,
                fleet: Arc::new(vec![server]),
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushReq {
                id: MatrixId(1),
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![1.0; 8]),
                },
                op_id: 77,
            };
            // Same op id twice — the model of a client retry racing a slow
            // server. Both must be acknowledged; only one may be applied.
            let _: () = ctx.call(server, tags::PUSH, push.clone(), 48).downcast();
            let _: () = ctx.call(server, tags::PUSH, push, 48).downcast();
            let pull = PullReq {
                id: MatrixId(1),
                row: 0,
                cols: ColsSel::All,
                value_bytes: 8,
            };
            let reply: RowPullReply = ctx.call(server, tags::PULL, pull, 48).downcast();
            reply.segs[0][0]
        });
        sim.run().unwrap();
        assert_eq!(out.take(), 1.0);
    }

    #[test]
    fn duplicate_envelope_subs_are_applied_once() {
        let mut sim = SimBuilder::new().seed(5).build();
        let server = sim.spawn_agent_daemon("ps-server-0", PsServerAgent::new());
        let out = sim.spawn_collect("driver", move |ctx| {
            let plan = Arc::new(PartitionPlan::new(8, 1, 1, Partitioning::Column));
            let create = CreateReq {
                id: MatrixId(1),
                plan: Arc::clone(&plan),
                init: InitKind::Zero,
                slot: 0,
                fleet: Arc::new(vec![server]),
            };
            let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            let push = PushReq {
                id: MatrixId(1),
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![1.0; 8]),
                },
                op_id: 91,
            };
            let env = EnvelopeReq {
                op_id: 1,
                epoch: 0,
                subs: Arc::new(vec![(
                    tags::PUSH,
                    Arc::new(push) as Arc<dyn Any + Send + Sync>,
                    48,
                )]),
            };
            // An enveloped mutation retried whole must dedup per sub.
            let _ = ctx.call(server, tags::ENVELOPE, env.clone(), 64);
            let _ = ctx.call(server, tags::ENVELOPE, env, 64);
            let pull = PullReq {
                id: MatrixId(1),
                row: 0,
                cols: ColsSel::All,
                value_bytes: 8,
            };
            let reply: RowPullReply = ctx.call(server, tags::PULL, pull, 48).downcast();
            reply.segs[0][0]
        });
        sim.run().unwrap();
        assert_eq!(out.take(), 1.0);
    }

    /// Promote row 0 of a row table by reading it at its owner until a
    /// reply carries the hint, push a delta, and — once the push is acked —
    /// read row 0 from every server. Returns the values read before and
    /// after the push and after a deduplicated second push, per server, and
    /// the first push's round trip.
    fn push_to_promoted_row() -> (Vec<f64>, Vec<f64>, Vec<f64>, SimTime) {
        let mut sim = SimBuilder::new().seed(9).build();
        let servers: Vec<ProcId> = (0..4)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-server-{i}"), PsServerAgent::new()))
            .collect();
        let out = sim.spawn_collect("driver", move |ctx| {
            let id = MatrixId(3);
            let plan = Arc::new(PartitionPlan::new(4, 64, 4, Partitioning::Row));
            let fleet = Arc::new(servers.clone());
            for (slot, &server) in servers.iter().enumerate() {
                let create = CreateReq {
                    id,
                    plan: Arc::clone(&plan),
                    init: InitKind::Const(1.0),
                    slot,
                    fleet: Arc::clone(&fleet),
                };
                let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            }
            let pull = |ctx: &mut SimCtx, server: ProcId| -> RowPullReply {
                let req = PullReq {
                    id,
                    row: 0,
                    cols: ColsSel::All,
                    value_bytes: 8,
                };
                ctx.call(server, tags::PULL, req, 48).downcast()
            };
            let mut reads = 0;
            while pull(ctx, servers[0]).flag != ReplicaFlag::Replicated {
                reads += 1;
                assert!(reads < 10_000, "row 0 never promoted");
            }
            let before: Vec<f64> = servers.iter().map(|&s| pull(ctx, s).segs[0][0]).collect();
            let push = PushReq {
                id,
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![0.5; 4]),
                },
                op_id: 1,
            };
            let t0 = ctx.now();
            let _: () = ctx.call(servers[0], tags::PUSH, push, 80).downcast();
            let push_rtt = ctx.now() - t0;
            let after: Vec<f64> = servers.iter().map(|&s| pull(ctx, s).segs[0][0]).collect();
            // A write and its retried duplicate in one envelope: applied
            // once, acked once the single refresh completed.
            let push = PushReq {
                id,
                row: 0,
                data: PushData::DenseSeg {
                    lo: 0,
                    values: Arc::new(vec![0.5; 4]),
                },
                op_id: 2,
            };
            let sub = Arc::new(push) as Arc<dyn Any + Send + Sync>;
            let env = EnvelopeReq {
                op_id: 7,
                epoch: 0,
                subs: Arc::new(vec![
                    (tags::PUSH, Arc::clone(&sub), 48),
                    (tags::PUSH, sub, 48),
                ]),
            };
            let _ = ctx.call(servers[0], tags::ENVELOPE, env, 112);
            let deduped: Vec<f64> = servers.iter().map(|&s| pull(ctx, s).segs[0][0]).collect();
            (before, after, deduped, push_rtt)
        });
        sim.run().unwrap();
        out.take()
    }

    #[test]
    fn reads_after_a_promoted_push_is_acked_see_it_everywhere() {
        let latency = ps2_simnet::NetConfig::default().latency;
        let (before, after, deduped, push_rtt) = push_to_promoted_row();
        assert_eq!(before, vec![1.0; 4], "replicas installed");
        assert_eq!(after, vec![1.5; 4], "replicas refreshed");
        assert_eq!(deduped, vec![2.0; 4], "duplicate applied once");
        // The ack waited for a peer round trip: two network crossings
        // beyond the client's own two.
        assert!(
            push_rtt.as_nanos() > 4 * latency.as_nanos(),
            "push acked in {push_rtt:?}"
        );
    }

    #[test]
    fn a_peer_without_the_replica_answers_a_miss() {
        let mut sim = SimBuilder::new().seed(4).build();
        let servers: Vec<ProcId> = (0..2)
            .map(|i| sim.spawn_agent_daemon(&format!("ps-server-{i}"), PsServerAgent::new()))
            .collect();
        let out = sim.spawn_collect("driver", move |ctx| {
            let id = MatrixId(1);
            let plan = Arc::new(PartitionPlan::new(4, 8, 2, Partitioning::Row));
            let fleet = Arc::new(servers.clone());
            for (slot, &server) in servers.iter().enumerate() {
                let create = CreateReq {
                    id,
                    plan: Arc::clone(&plan),
                    init: InitKind::Zero,
                    slot,
                    fleet: Arc::clone(&fleet),
                };
                let _: () = ctx.call(server, tags::CREATE, create, 96).downcast();
            }
            // Row 0 lives on slot 0 and was never promoted.
            let req = PullReq {
                id,
                row: 0,
                cols: ColsSel::All,
                value_bytes: 8,
            };
            let owner: RowPullReply = ctx.call(servers[0], tags::PULL, req.clone(), 48).downcast();
            let peer: RowPullReply = ctx.call(servers[1], tags::PULL, req, 48).downcast();
            (owner.flag, owner.segs.len(), peer.flag, peer.segs.len())
        });
        sim.run().unwrap();
        assert_eq!(out.take(), (ReplicaFlag::Owned, 1, ReplicaFlag::Miss, 0));
    }
}
