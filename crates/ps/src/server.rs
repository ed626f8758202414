//! PS-server and checkpoint-storage processes.

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ps2_simnet::{Envelope, Proc, ProcId, SimCtx, SimRuntime, SimTime, StepCtx};

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
    /// Row plans only: which rows the pseudo-ranges belong to.
    owned_rows: Vec<u32>,
    /// `data[row_slot][range_idx]` → dense segment.
    /// Column plans: `row_slot` is the row index (all rows present).
    /// Row plans: `row_slot` indexes `owned_rows`, with one range.
    data: Vec<Vec<Vec<f64>>>,
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
        match &plan.kind {
            PlanKind::Column { .. } => {
                let ranges = plan.ranges_of(slot);
                let data = (0..plan.rows)
                    .map(|row| {
                        ranges
                            .iter()
                            .map(|&(lo, hi)| (lo..hi).map(|c| init_value(init, row, c)).collect())
                            .collect()
                    })
                    .collect();
                Shard {
                    plan,
                    ranges,
                    owned_rows: Vec::new(),
                    data,
                    repl: None,
                }
            }
            &PlanKind::Row { n_slots } => {
                let owned_rows: Vec<u32> = (0..plan.rows)
                    .filter(|&r| plan.row_owner(r) == slot)
                    .collect();
                let data = owned_rows
                    .iter()
                    .map(|&row| vec![(0..plan.dim).map(|c| init_value(init, row, c)).collect()])
                    .collect();
                let dim = plan.dim;
                Shard {
                    plan,
                    ranges: vec![(0, dim)],
                    owned_rows,
                    data,
                    repl: RowReplication::new(Arc::clone(fleet), slot, n_slots).map(Box::new),
                }
            }
        }
    }

    /// Resolve a row to its slot in `data`, or `None` when this server
    /// holds no part of it. `owned_rows` is ascending by construction, so
    /// row plans binary-search it.
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

    /// Index of the range containing `col`.
    fn range_of(&self, col: u64) -> (usize, usize) {
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if col >= lo && col < hi {
                return (i, (col - lo) as usize);
            }
        }
        panic!("column {col} not owned by this server");
    }

    fn get(&self, row: u32, col: u64) -> f64 {
        let slot = self.slot(row);
        let (ri, off) = self.range_of(col);
        self.data[slot][ri][off]
    }

    fn add(&mut self, row: u32, col: u64, delta: f64) {
        let slot = self.slot(row);
        let (ri, off) = self.range_of(col);
        self.data[slot][ri][off] += delta;
    }

    fn owned_cols(&self) -> u64 {
        let per_row: u64 = self.ranges.iter().map(|&(lo, hi)| hi - lo).sum();
        per_row
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
struct OpLog {
    seen: HashSet<(MatrixId, u64)>,
    order: VecDeque<(MatrixId, u64)>,
}

const OP_LOG_CAP: usize = 4096;

impl OpLog {
    fn new() -> OpLog {
        OpLog {
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }

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
        tags::CROSS_ELEM => {
            let r: &CrossElemReq = cast(tag, payload);
            ((r.dst_id, r.op_id), from_ref(&r.dst_row))
        }
        _ => return None,
    })
}

/// The slice of a simulation context the request handlers need, so one
/// handler chain ([`ServerState`]) serves both server flavors: the classic
/// thread server ([`ps_server_main`], blocking `recv` loop on a [`SimCtx`])
/// and the steppable [`PsServerAgent`] (stepped inline on a [`StepCtx`], no
/// OS thread — the flavor serving scenarios use to stand up large fleets).
pub(crate) trait ServerCtx {
    fn id(&self) -> ProcId;
    fn now(&self) -> SimTime;
    fn charge_flops(&mut self, flops: u64);
    fn charge_mem(&mut self, bytes: u64);
    fn metric_add(&mut self, name: &str, delta: u64);
    fn metric_observe(&mut self, name: &str, dt: SimTime);
    fn trace_mark_with(&mut self, label: &'static str, payload: u64);
    fn op_label(&mut self, label: &'static str);
    fn op_label_clear(&mut self);
    fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64);
    /// Non-blocking request to a peer server. Its reply comes back through
    /// the server's own message loop ([`ServerState::on_message`]); replica
    /// installs and refreshes use it, so both flavors run them alike.
    fn send_request<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64)
        -> u64;
    /// Blocking mid-request RPC (cross-matrix segment fetches, checkpoint
    /// storage I/O). Only the thread server supports it; the steppable
    /// server panics, which is fine for serving fleets that only see
    /// CREATE/PULL-family traffic.
    fn call<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64) -> Envelope;
}

impl ServerCtx for SimCtx {
    fn id(&self) -> ProcId {
        SimCtx::id(self)
    }
    fn now(&self) -> SimTime {
        SimCtx::now(self)
    }
    fn charge_flops(&mut self, flops: u64) {
        SimCtx::charge_flops(self, flops)
    }
    fn charge_mem(&mut self, bytes: u64) {
        SimCtx::charge_mem(self, bytes)
    }
    fn metric_add(&mut self, name: &str, delta: u64) {
        SimCtx::metric_add(self, name, delta)
    }
    fn metric_observe(&mut self, name: &str, dt: SimTime) {
        SimCtx::metric_observe(self, name, dt)
    }
    fn trace_mark_with(&mut self, label: &'static str, payload: u64) {
        SimCtx::trace_mark_with(self, label, payload)
    }
    fn op_label(&mut self, label: &'static str) {
        SimCtx::op_label(self, label)
    }
    fn op_label_clear(&mut self) {
        SimCtx::op_label_clear(self)
    }
    fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) {
        SimCtx::reply_boxed(self, request, payload, bytes)
    }
    fn send_request<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
    ) -> u64 {
        SimCtx::send_request(self, dst, tag, payload, bytes)
    }
    fn call<P: Any + Send>(&mut self, dst: ProcId, tag: u32, payload: P, bytes: u64) -> Envelope {
        SimCtx::call(self, dst, tag, payload, bytes)
    }
}

impl ServerCtx for StepCtx<'_> {
    fn id(&self) -> ProcId {
        StepCtx::id(self)
    }
    fn now(&self) -> SimTime {
        StepCtx::now(self)
    }
    fn charge_flops(&mut self, flops: u64) {
        StepCtx::charge_flops(self, flops)
    }
    fn charge_mem(&mut self, bytes: u64) {
        StepCtx::charge_mem(self, bytes)
    }
    fn metric_add(&mut self, name: &str, delta: u64) {
        StepCtx::metric_add(self, name, delta)
    }
    fn metric_observe(&mut self, name: &str, dt: SimTime) {
        StepCtx::metric_observe(self, name, dt)
    }
    fn trace_mark_with(&mut self, label: &'static str, payload: u64) {
        StepCtx::trace_mark_with(self, label, payload)
    }
    fn op_label(&mut self, label: &'static str) {
        StepCtx::op_label(self, label)
    }
    fn op_label_clear(&mut self) {
        StepCtx::op_label_clear(self)
    }
    fn reply_boxed(&mut self, request: &Envelope, payload: Box<dyn Any + Send>, bytes: u64) {
        StepCtx::reply_boxed(self, request, payload, bytes)
    }
    fn send_request<P: Any + Send>(
        &mut self,
        dst: ProcId,
        tag: u32,
        payload: P,
        bytes: u64,
    ) -> u64 {
        StepCtx::send_request(self, dst, tag, payload, bytes)
    }
    fn call<P: Any + Send>(
        &mut self,
        _dst: ProcId,
        tag: u32,
        _payload: P,
        _bytes: u64,
    ) -> Envelope {
        panic!(
            "ps-server (steppable): op tag {} ({}) needs a blocking mid-request \
             RPC, which only the thread server (ps_server_main) supports",
            tag,
            tags::name(tag)
        );
    }
}

/// Everything one PS server holds. Both flavors feed every delivered
/// message to [`ServerState::on_message`], so they share one handler chain,
/// including hot-row replication ([`crate::replica`]).
struct ServerState {
    shards: HashMap<MatrixId, Shard>,
    oplog: OpLog,
    /// Replica fan-outs in flight and the client replies waiting on them.
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
    fn new() -> ServerState {
        ServerState {
            shards: HashMap::new(),
            oplog: OpLog::new(),
            fanouts: Fanouts::default(),
            to_install: Vec::new(),
        }
    }

    /// Serve one delivered message: a peer's replica ack, or a request.
    ///
    /// Each request records its queue time (arrival → dequeue: how long it
    /// sat behind earlier work) and service time (dequeue → reply sent)
    /// into per-variant histograms `ps.server.{op}.queue` / `.service`.
    fn on_message<C: ServerCtx>(&mut self, ctx: &mut C, env: Envelope) {
        if env.is_reply() {
            // Servers only send non-blocking requests for replica fan-outs;
            // blocking `call`s consume their own replies.
            self.on_ack(ctx, env.corr);
            return;
        }
        let op = tags::name(env.tag);
        let t0 = ctx.now();
        let queue = t0.saturating_sub(env.arrival);
        // Tag the handler's compute charges with the op so trace analysis
        // can break server busy time down by request kind.
        ctx.op_label(op);
        self.handle(ctx, env);
        ctx.op_label_clear();
        // Per-server load counter: the windowed deltas of these feed the
        // watchdog's Gini skew detector across the server fleet.
        let served = format!("ps.server.p{}.served", ctx.id().0);
        ctx.metric_add(&served, 1);
        ctx.metric_observe(&format!("ps.server.{op}.queue"), queue);
        ctx.metric_observe(&format!("ps.server.{op}.service"), ctx.now() - t0);
    }

    fn handle<C: ServerCtx>(&mut self, ctx: &mut C, env: Envelope) {
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
    }

    /// Dedup-then-execute for one request, bare or enveloped, keeping the
    /// replicas of promoted rows in step. Pushes onto `waits` the replica
    /// fan-outs the request's reply must wait for.
    fn dispatch_one<C: ServerCtx>(
        &mut self,
        ctx: &mut C,
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
    fn row_pull<C: ServerCtx>(&mut self, ctx: &mut C, req: &PullReq) -> (Box<dyn Any + Send>, u64) {
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
                (shard.data[slot].clone(), flag)
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
    fn store_replica<C: ServerCtx>(
        &mut self,
        ctx: &mut C,
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
    fn ship<C: ServerCtx>(
        &mut self,
        ctx: &mut C,
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
            let segs = Arc::new(shard.data[shard.slot(row)].clone());
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
    fn install<C: ServerCtx>(&mut self, ctx: &mut C, id: MatrixId, row: u32) {
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
    fn refresh<C: ServerCtx>(
        &mut self,
        ctx: &mut C,
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

    /// Account a peer's replica ack, and act on a completed fan-out.
    fn on_ack<C: ServerCtx>(&mut self, ctx: &mut C, corr: u64) {
        match self.fanouts.on_ack(corr) {
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
        }
    }
}

/// Steppable PS server: the same handler chain as [`ps_server_main`], run as
/// an event-driven agent with no OS thread. Spawn one per server with
/// [`ps2_simnet::SimRuntime::spawn_agent_daemon`]; it serves every
/// non-blocking op (CREATE, PULL/PUSH and friends, coalesced ENVELOPEs,
/// replica installs) and panics on the few ops that need mid-request RPCs
/// (CROSS_*, CHECKPOINT, RESTORE).
pub struct PsServerAgent {
    state: ServerState,
}

impl Default for PsServerAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl PsServerAgent {
    pub fn new() -> PsServerAgent {
        PsServerAgent {
            state: ServerState::new(),
        }
    }
}

impl Proc for PsServerAgent {
    fn on_message(&mut self, ctx: &mut StepCtx<'_>, env: Envelope) {
        self.state.on_message(ctx, env);
    }
}

/// The PS-server loop: stores shards, executes row- and column-access ops.
pub fn ps_server_main(ctx: &mut SimCtx) {
    let mut state = ServerState::new();
    loop {
        let env = ctx.recv();
        state.on_message(ctx, env);
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
fn execute<C: ServerCtx>(
    ctx: &mut C,
    shards: &mut HashMap<MatrixId, Shard>,
    tag: u32,
    payload: &dyn Any,
) -> (Box<dyn Any + Send>, u64) {
    let me = ctx.id();
    match tag {
        tags::CREATE => {
            let req: &CreateReq = cast(tag, payload);
            // Idempotent: fleet recovery replays creates into a replacement
            // server, and the fabric may then re-deliver the original
            // request — rebuilding here would wipe the restored values.
            if let std::collections::hash_map::Entry::Vacant(e) = shards.entry(req.id) {
                let shard = Shard::build(req.slot, Arc::clone(&req.plan), &req.init, &req.fleet);
                // Materializing the shard touches every owned element.
                ctx.charge_mem(shard.owned_cols() * shard.data.len() as u64 * 8);
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
            match &req.cols {
                ColsSel::All => unreachable!("whole-row pulls are served by row_pull"),
                ColsSel::Range(lo, hi) => {
                    let values: Vec<f64> = (*lo..*hi).map(|c| shard.get(req.row, c)).collect();
                    let n = values.len() as u64;
                    ctx.charge_mem(n * 8);
                    (Box::new(values), 16 + n * req.value_bytes)
                }
                ColsSel::List(cols) => {
                    let values: Vec<f64> = cols.iter().map(|&c| shard.get(req.row, c)).collect();
                    let n = values.len() as u64;
                    ctx.charge_mem(n * 16);
                    (Box::new(values), 16 + n * req.value_bytes)
                }
            }
        }
        tags::PUSH => {
            let req: &PushReq = cast(tag, payload);
            let id = req.id;
            let row = req.row;
            if shard_of(shards, id).plan.rows <= ROW_TOUCH_MAX_ROWS {
                ctx.metric_add(&format!("ps.server.row_touch.m{}.r{}", id.0, row), 1);
            }
            match &req.data {
                PushData::DenseSeg { lo, values } => {
                    let values = Arc::clone(values);
                    let shard = shard_mut(shards, id);
                    for (i, v) in values.iter().enumerate() {
                        shard.add(row, lo + i as u64, *v);
                    }
                    ctx.charge_flops(values.len() as u64);
                }
                PushData::Sparse(pairs) => {
                    let pairs = Arc::clone(pairs);
                    let shard = shard_mut(shards, id);
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
            let mut n = 0u64;
            for seg in &shard.data[slot] {
                n += seg.len() as u64;
                for &v in seg {
                    match req.kind {
                        AggKind::Sum => acc += v,
                        AggKind::Nnz => acc += if v != 0.0 { 1.0 } else { 0.0 },
                        AggKind::Norm2Sq => acc += v * v,
                        AggKind::Max => acc = acc.max(v),
                    }
                }
            }
            ctx.charge_flops(n);
            (Box::new(acc), 16)
        }
        tags::DOT => {
            let req: &DotReq = cast(tag, payload);
            let shard = shard_of(shards, req.id);
            let sa = shard.slot(req.row_a);
            let sb = shard.slot(req.row_b);
            let mut acc = 0.0;
            let mut n = 0u64;
            for (a, b) in shard.data[sa].iter().zip(&shard.data[sb]) {
                n += a.len() as u64;
                acc += a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
            }
            ctx.charge_flops(2 * n);
            (Box::new(acc), 16)
        }
        tags::AXPY => {
            let req: &AxpyReq = cast(tag, payload);
            let (alpha, id, dst, src) = (req.alpha, req.id, req.dst_row, req.src_row);
            let shard = shard_mut(shards, id);
            let n = apply_axpy(shard, dst, src, alpha);
            ctx.charge_flops(2 * n);
            (Box::new(()), 8)
        }
        tags::ELEM => {
            let req: &ElemReq = cast(tag, payload);
            let (id, dst, a, b, op) = (req.id, req.dst_row, req.a_row, req.b_row, req.op);
            let shard = shard_mut(shards, id);
            let sa = shard.slot(a);
            let sb = shard.slot(b);
            let sd = shard.slot(dst);
            let mut n = 0u64;
            for ri in 0..shard.ranges.len() {
                let av = shard.data[sa][ri].clone();
                let bv = shard.data[sb][ri].clone();
                let dv = &mut shard.data[sd][ri];
                n += dv.len() as u64;
                for i in 0..dv.len() {
                    dv[i] = op.apply(av[i], bv[i]);
                }
            }
            ctx.charge_flops(n);
            (Box::new(()), 8)
        }
        tags::ZIP => {
            let req: &ZipReq = cast(tag, payload);
            let f = Arc::clone(&req.f);
            let rows = req.rows.clone();
            let flops_per_elem = req.flops_per_elem;
            let id = req.id;
            let shard = shard_mut(shards, id);
            let slots: Vec<usize> = rows.iter().map(|&r| shard.slot(r)).collect();
            assert_unique(&slots);
            let mut taken: Vec<Vec<Vec<f64>>> = slots
                .iter()
                .map(|&s| std::mem::take(&mut shard.data[s]))
                .collect();
            let mut n = 0u64;
            for ri in 0..shard.ranges.len() {
                let lo = shard.ranges[ri].0;
                let mut segs: Vec<&mut [f64]> = taken
                    .iter_mut()
                    .map(|rowsegs| rowsegs[ri].as_mut_slice())
                    .collect();
                n += segs.first().map_or(0, |s| s.len() as u64);
                let mut zs = ZipSegs {
                    segs: std::mem::take(&mut segs),
                    lo,
                };
                f(&mut zs);
            }
            for (s, rowsegs) in slots.iter().zip(taken) {
                shard.data[*s] = rowsegs;
            }
            ctx.charge_flops(flops_per_elem * n);
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
            let (id, row, value) = (req.id, req.row, req.value);
            let shard = shard_mut(shards, id);
            let slot = shard.slot(row);
            let mut n = 0u64;
            for seg in &mut shard.data[slot] {
                n += seg.len() as u64;
                seg.fill(value);
            }
            ctx.charge_mem(n * 8);
            (Box::new(()), 8)
        }
        tags::SCALE => {
            let req: &ScaleReq = cast(tag, payload);
            let (id, row, alpha) = (req.id, req.row, req.alpha);
            let shard = shard_mut(shards, id);
            let slot = shard.slot(row);
            let mut n = 0u64;
            for seg in &mut shard.data[slot] {
                n += seg.len() as u64;
                for v in seg.iter_mut() {
                    *v *= alpha;
                }
            }
            ctx.charge_flops(n);
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
            let rows = Arc::clone(&req.rows);
            let updates = Arc::clone(&req.updates);
            let shard = shard_mut(shards, req.id);
            let mut n = 0u64;
            for (c, deltas) in updates.iter() {
                for (&r, &d) in rows.iter().zip(deltas) {
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
        tags::CROSS_DOT => {
            let req: &CrossDotReq = cast(tag, payload);
            let pieces = req.pieces.clone();
            let (local_id, local_row, remote_id, remote_row, vb) = (
                req.local_id,
                req.local_row,
                req.remote_id,
                req.remote_row,
                req.value_bytes,
            );
            let mut acc = 0.0;
            for (lo, hi, remote) in pieces {
                let remote_vals: Vec<f64> = if remote == me {
                    (lo..hi)
                        .map(|c| shard_of(shards, remote_id).get(remote_row, c))
                        .collect()
                } else {
                    let fetch = FetchSegReq {
                        id: remote_id,
                        row: remote_row,
                        lo,
                        hi,
                        value_bytes: vb,
                    };
                    ctx.call(remote, tags::FETCH_SEG, fetch, 48).downcast()
                };
                let shard = shard_of(shards, local_id);
                let mut partial = 0.0;
                for (i, rv) in remote_vals.iter().enumerate() {
                    partial += shard.get(local_row, lo + i as u64) * rv;
                }
                ctx.charge_flops(2 * (hi - lo));
                acc += partial;
            }
            (Box::new(acc), 16)
        }
        tags::CROSS_ELEM => {
            let req: &CrossElemReq = cast(tag, payload);
            let pieces = req.pieces.clone();
            let (dst_id, dst_row, src_id, src_row, op, vb) = (
                req.dst_id,
                req.dst_row,
                req.src_id,
                req.src_row,
                req.op,
                req.value_bytes,
            );
            for (lo, hi, remote) in pieces {
                let src_vals: Vec<f64> = if remote == me {
                    (lo..hi)
                        .map(|c| shard_of(shards, src_id).get(src_row, c))
                        .collect()
                } else {
                    let fetch = FetchSegReq {
                        id: src_id,
                        row: src_row,
                        lo,
                        hi,
                        value_bytes: vb,
                    };
                    ctx.call(remote, tags::FETCH_SEG, fetch, 48).downcast()
                };
                let shard = shard_mut(shards, dst_id);
                for (i, sv) in src_vals.iter().enumerate() {
                    let c = lo + i as u64;
                    let cur = shard.get(dst_row, c);
                    let new = op.apply(cur, *sv);
                    shard.add(dst_row, c, new - cur);
                }
                ctx.charge_flops(2 * (hi - lo));
            }
            (Box::new(()), 8)
        }
        tags::CHECKPOINT => {
            let req: &CheckpointReq = cast(tag, payload);
            let (storage, key) = (req.storage, req.key);
            let mut total = 0u64;
            let shard_data: Vec<(MatrixId, Vec<Vec<Vec<f64>>>)> = shards
                .iter()
                .map(|(&id, sh)| {
                    for row in &sh.data {
                        for seg in row {
                            total += seg.len() as u64;
                        }
                    }
                    (id, sh.data.clone())
                })
                .collect();
            let bytes = 32 + total * 8;
            ctx.charge_mem(total * 8);
            let snapshot = Arc::new(Snapshot {
                shards: shard_data,
                bytes,
            });
            let _ = ctx.call(
                storage,
                tags::STORE_PUT,
                StorePutReq { key, snapshot },
                bytes,
            );
            (Box::new(()), 8)
        }
        tags::RESTORE => {
            let req: &RestoreReq = cast(tag, payload);
            let (storage, key) = (req.storage, req.key);
            let resp: StoreGetResp = ctx
                .call(storage, tags::STORE_GET, StoreGetReq { key }, 16)
                .downcast();
            let restored = match resp {
                StoreGetResp::Found(snapshot) => {
                    for (id, data) in &snapshot.shards {
                        if let Some(shard) = shards.get_mut(id) {
                            shard.data = data.clone();
                        }
                    }
                    true
                }
                StoreGetResp::Missing => false,
            };
            (Box::new(restored), 8)
        }
        tags::PING => {
            // Liveness heartbeat: answer immediately. A server stuck in a
            // long op answers late, which the prober treats the same as any
            // slow reply; only a dead server never answers.
            (Box::new(()), 8)
        }
        other => panic!("ps-server: unknown tag {other}"),
    }
}

fn apply_axpy(shard: &mut Shard, dst: u32, src: u32, alpha: f64) -> u64 {
    let sd = shard.slot(dst);
    let ss = shard.slot(src);
    let mut n = 0u64;
    for ri in 0..shard.ranges.len() {
        let src_seg = shard.data[ss][ri].clone();
        let dst_seg = &mut shard.data[sd][ri];
        n += dst_seg.len() as u64;
        for (d, s) in dst_seg.iter_mut().zip(&src_seg) {
            *d += alpha * s;
        }
    }
    n
}

/// The read-only fold behind ZIP_MAP and ZIP_ARGMAX: `f` sees the
/// co-located segments of `rows` once per owned range and yields one
/// partial per range, each `partial_bytes` on the wire.
fn fold_segments<C: ServerCtx, T: Send + 'static>(
    ctx: &mut C,
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
        let segs: Vec<&[f64]> = slots
            .iter()
            .map(|&s| shard.data[s][ri].as_slice())
            .collect();
        n += segs.first().map_or(0, |s| s.len() as u64);
        partials.push(f(&segs, lo));
    }
    ctx.charge_flops(flops_per_elem * n);
    let bytes = 16 + partial_bytes * partials.len() as u64;
    (Box::new(partials), bytes)
}

fn assert_unique(slots: &[usize]) {
    for (i, a) in slots.iter().enumerate() {
        for b in &slots[i + 1..] {
            assert_ne!(a, b, "zip rows must be distinct");
        }
    }
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

/// The checkpoint storage process ("reliable external storage", e.g. HDFS).
/// Charges a disk-bandwidth cost per operation on top of the network cost of
/// getting bytes to it.
pub fn storage_main(disk_bytes_per_sec: f64) -> impl FnOnce(&mut SimCtx) {
    move |ctx: &mut SimCtx| {
        let mut store: HashMap<u64, Arc<Snapshot>> = HashMap::new();
        loop {
            let env = ctx.recv();
            match env.tag {
                tags::STORE_PUT => {
                    let req: &StorePutReq = env.downcast_ref();
                    let secs = req.snapshot.bytes as f64 / disk_bytes_per_sec;
                    ctx.advance(SimTime::from_secs_f64(secs));
                    store.insert(req.key, Arc::clone(&req.snapshot));
                    ctx.reply(&env, (), 8);
                }
                tags::STORE_GET => {
                    let req: &StoreGetReq = env.downcast_ref();
                    match store.get(&req.key) {
                        Some(snap) => {
                            let secs = snap.bytes as f64 / disk_bytes_per_sec;
                            ctx.advance(SimTime::from_secs_f64(secs));
                            let bytes = snap.bytes;
                            ctx.reply(&env, StoreGetResp::Found(Arc::clone(snap)), bytes);
                        }
                        None => ctx.reply(&env, StoreGetResp::Missing, 8),
                    }
                }
                other => panic!("storage: unknown tag {other}"),
            }
        }
    }
}

/// Spawn `n` PS-servers plus one storage process.
pub fn deploy_ps(sim: &mut SimRuntime, n: usize, disk_bytes_per_sec: f64) -> (Vec<ProcId>, ProcId) {
    let servers = (0..n)
        .map(|i| sim.spawn_daemon(&format!("ps-server-{i}"), ps_server_main))
        .collect();
    let storage = sim.spawn_daemon("ps-storage", storage_main(disk_bytes_per_sec));
    (servers, storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Partitioning;
    use crate::protocol::{ColsSel, PullReq, PushData, PushReq};
    use ps2_simnet::SimBuilder;

    #[test]
    fn op_log_recognizes_duplicates() {
        let mut log = OpLog::new();
        let id = MatrixId(1);
        assert!(!log.check_and_record(id, 7));
        assert!(log.check_and_record(id, 7));
        assert!(!log.check_and_record(MatrixId(2), 7));
        assert!(!log.check_and_record(id, 8));
    }

    #[test]
    fn op_log_evicts_oldest_at_capacity() {
        let mut log = OpLog::new();
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
        let server = sim.spawn_daemon("ps-server-0", ps_server_main);
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
        let server = sim.spawn_daemon("ps-server-0", ps_server_main);
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

    /// Drive one server flavor: promote row 0 of a row table by reading it
    /// at its owner until a reply carries the hint, push a delta, and —
    /// once the push is acked — read row 0 from every server. Returns the
    /// values read before and after the push and after a deduplicated
    /// second push, per server, and the first push's round trip.
    fn push_to_promoted_row(agents: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>, SimTime) {
        let mut sim = SimBuilder::new().seed(9).build();
        let servers: Vec<ProcId> = (0..4)
            .map(|i| {
                let name = format!("ps-server-{i}");
                if agents {
                    sim.spawn_agent_daemon(&name, PsServerAgent::new())
                } else {
                    sim.spawn_daemon(&name, ps_server_main)
                }
            })
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
        for agents in [true, false] {
            let (before, after, deduped, push_rtt) = push_to_promoted_row(agents);
            assert_eq!(before, vec![1.0; 4], "agents={agents}: replicas installed");
            assert_eq!(after, vec![1.5; 4], "agents={agents}: replicas refreshed");
            assert_eq!(
                deduped,
                vec![2.0; 4],
                "agents={agents}: duplicate applied once"
            );
            // The ack waited for a peer round trip: two network crossings
            // beyond the client's own two.
            assert!(
                push_rtt.as_nanos() > 4 * latency.as_nanos(),
                "agents={agents}: push acked in {push_rtt:?}"
            );
        }
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
