//! The PS-master: matrix lifecycle, routing, checkpoints and server
//! recovery. Lives inside the coordinator (driver) process, per §5.1.

use std::any::Any;
use std::sync::Arc;

use parking_lot::Mutex;
use ps2_simnet::{fabric, LivenessProbe, ProcId, SimCtx, SimTime};

use crate::client::{ps_policy, MatrixHandle, PsRouter};
use crate::plan::{MatrixId, PartitionPlan, Partitioning, RouteTable};
use crate::protocol::{tags, CheckpointReq, CreateReq, FreeReq, InitKind, RestoreReq};
use crate::server::ps_server_main;

/// Master-level configuration.
#[derive(Clone, Debug, Default)]
pub struct PsConfig {
    /// Ship parameters as 4-byte floats (the paper's message-compression
    /// engineering, §6.3.3) instead of 8-byte doubles.
    pub compress: bool,
}

/// How long a liveness ping waits before a server is suspected dead.
fn ping_timeout() -> SimTime {
    SimTime::from_secs_f64(5.0)
}

#[derive(Clone, Copy, Default)]
struct FleetStats {
    recoveries: u64,
    silent_reinits: u64,
    respawns: u64,
}

/// Shared, recovery-capable view of the PS-server fleet.
///
/// Extracted from [`PsMaster`] so that *any* process noticing a dead server
/// can replace it: the driver (from the scheduler's timeout branch, via
/// [`LivenessProbe`]) and every PS-client holding a [`MatrixHandle`] (from a
/// timed-out request). Recovery is single-flight: whoever wins the
/// `in_recovery` try-lock performs it; everyone else backs off and retries
/// their request once the [`RouteTable`] epoch advances.
///
/// Lock discipline: `matrices` and `stats` are held only for non-yielding
/// metadata reads/writes. `in_recovery` *is* held across simulator yield
/// points, which is safe only because it is exclusively `try_lock`ed —
/// blocking on it from another simulated process would wedge the scheduler.
pub struct PsFleet {
    route: Arc<RouteTable>,
    storage: ProcId,
    /// Metadata replayed into replacement servers on recovery.
    matrices: Mutex<Vec<(MatrixId, Arc<PartitionPlan>, InitKind)>>,
    stats: Mutex<FleetStats>,
    in_recovery: Mutex<()>,
}

impl PsFleet {
    fn new(servers: Vec<ProcId>, storage: ProcId) -> PsFleet {
        PsFleet {
            route: RouteTable::new(servers),
            storage,
            matrices: Mutex::new(Vec::new()),
            stats: Mutex::new(FleetStats::default()),
            in_recovery: Mutex::new(()),
        }
    }

    pub fn route(&self) -> Arc<RouteTable> {
        Arc::clone(&self.route)
    }

    /// Servers replaced after failures.
    pub fn recoveries(&self) -> u64 {
        self.stats.lock().recoveries
    }

    /// Recoveries that found no checkpoint and fell back to re-initialized
    /// parameters — the failure mode `recover_dead_servers` used to swallow.
    pub fn silent_reinits(&self) -> u64 {
        self.stats.lock().silent_reinits
    }

    /// Heartbeat every slot (protocol tag `PING`) and return the slots that
    /// did not answer within the ping timeout: dead servers, or servers
    /// stuck long enough to deserve a closer look.
    ///
    /// Deliberately *not* routed through the request fabric: the fabric
    /// retries and recovers on timeout, but this ping IS the detector that
    /// recovery consults — a single raw deadline-bounded scatter whose
    /// misses are the answer, not a failure to mask.
    pub fn ping_all(&self, ctx: &mut SimCtx) -> Vec<usize> {
        let slots: Vec<usize> = (0..self.route.n_slots()).collect();
        let reqs: Vec<_> = slots
            .iter()
            .map(|&slot| {
                (
                    self.route.resolve(slot),
                    tags::PING,
                    Box::new(()) as Box<dyn Any + Send>,
                    8u64,
                )
            })
            .collect();
        let deadline = ctx.now() + ping_timeout();
        let replies = ctx.call_many_deadline(reqs, deadline);
        slots
            .into_iter()
            .zip(replies)
            .filter(|(_, r)| r.is_none())
            .map(|(slot, _)| slot)
            .collect()
    }

    /// Detect dead servers and replace each with a fresh process whose state
    /// is rebuilt from matrix metadata plus the latest checkpoint. The route
    /// table flips to the replacement (bumping the recovery epoch) only
    /// after it is fully initialized, so a concurrent client never reaches a
    /// half-built server. Returns the slots recovered; empty when nothing is
    /// dead *or* when another process is already mid-recovery.
    pub fn recover_dead_servers(&self, ctx: &mut SimCtx) -> Vec<usize> {
        let Some(_guard) = self.in_recovery.try_lock() else {
            return Vec::new();
        };
        let mut recovered = Vec::new();
        for slot in 0..self.route.n_slots() {
            if ctx.is_alive(self.route.resolve(slot)) {
                continue;
            }
            let respawn = {
                let mut stats = self.stats.lock();
                stats.respawns += 1;
                stats.respawns
            };
            let name = format!("ps-server-{slot}r{respawn}");
            let fresh = ctx.spawn_daemon(&name, ps_server_main);
            // Replay metadata, then load checkpointed values.
            let metas: Vec<_> = self.matrices.lock().clone();
            let mut fleet: Vec<ProcId> = (0..self.route.n_slots())
                .map(|s| self.route.resolve(s))
                .collect();
            fleet[slot] = fresh;
            let fleet = Arc::new(fleet);
            for (id, plan, init) in &metas {
                let req = CreateReq {
                    id: *id,
                    plan: Arc::clone(plan),
                    init: init.clone(),
                    slot,
                    fleet: Arc::clone(&fleet),
                };
                let _: () = ctx.call(fresh, tags::CREATE, req, 96).downcast();
            }
            let req = RestoreReq {
                storage: self.storage,
                key: slot as u64,
            };
            let restored: bool = ctx.call(fresh, tags::RESTORE, req, 48).downcast();
            {
                let mut stats = self.stats.lock();
                stats.recoveries += 1;
                if !restored {
                    stats.silent_reinits += 1;
                }
            }
            ctx.metric_add("ps.fleet.recoveries", 1);
            if !restored {
                ctx.metric_add("ps.fleet.silent_reinits", 1);
            }
            ctx.trace_mark_with("ps.fleet.recover", slot as u64);
            self.route.set(slot, fresh);
            recovered.push(slot);
        }
        recovered
    }
}

impl LivenessProbe for PsFleet {
    /// Scheduler hook: heartbeat the fleet, and when any slot misses the
    /// ping deadline, run dead-server recovery. Counts replaced servers.
    fn probe(&self, ctx: &mut SimCtx) -> u64 {
        if self.ping_all(ctx).is_empty() {
            return 0;
        }
        self.recover_dead_servers(ctx).len() as u64
    }
}

/// Coordinator-side manager of the parameter-server fleet.
pub struct PsMaster {
    fleet: Arc<PsFleet>,
    next_id: u64,
    pub config: PsConfig,
}

impl PsMaster {
    pub fn new(servers: Vec<ProcId>, storage: ProcId, config: PsConfig) -> PsMaster {
        assert!(!servers.is_empty(), "need at least one PS-server");
        PsMaster {
            fleet: Arc::new(PsFleet::new(servers, storage)),
            next_id: 1,
            config,
        }
    }

    pub fn n_servers(&self) -> usize {
        self.fleet.route.n_slots()
    }

    pub fn route(&self) -> Arc<RouteTable> {
        self.fleet.route()
    }

    /// The shared fleet view (register it as a scheduler liveness probe).
    pub fn fleet(&self) -> Arc<PsFleet> {
        Arc::clone(&self.fleet)
    }

    /// Servers replaced after failures.
    pub fn recoveries(&self) -> u64 {
        self.fleet.recoveries()
    }

    /// Recoveries that found no checkpoint to restore from.
    pub fn silent_reinits(&self) -> u64 {
        self.fleet.silent_reinits()
    }

    fn value_bytes(&self) -> u64 {
        if self.config.compress {
            4
        } else {
            8
        }
    }

    /// Scatter a lifecycle request to every slot through the shared request
    /// fabric — the same retry/re-resolution pipeline data ops use, so a
    /// server dying mid-create or mid-checkpoint is recovered, not hung on.
    fn fabric_call<P: Any + Send + Sync>(
        &self,
        ctx: &mut SimCtx,
        tag: u32,
        reqs: Vec<(usize, P, u64)>,
    ) -> Vec<ps2_simnet::Envelope> {
        let router = PsRouter {
            route: &self.fleet.route,
            fleet: Some(&self.fleet),
        };
        let n = reqs.len() as u64;
        fabric::call_slots(ctx, &router, &ps_policy(), tags::name(tag), tag, reqs, n)
    }

    /// Allocate a `rows × dim` matrix across the servers.
    pub fn create_matrix(
        &mut self,
        ctx: &mut SimCtx,
        dim: u64,
        rows: u32,
        partitioning: Partitioning,
        init: InitKind,
    ) -> MatrixHandle {
        let id = MatrixId(self.next_id);
        self.next_id += 1;
        let route = self.fleet.route();
        let plan = Arc::new(PartitionPlan::new(dim, rows, route.n_slots(), partitioning));
        // Metadata is registered *before* the scatter so a recovery racing
        // the create replays this matrix into any replacement server; the
        // fabric's resend of a CreateReq is idempotent server-side.
        self.fleet
            .matrices
            .lock()
            .push((id, Arc::clone(&plan), init.clone()));
        let fleet: Arc<Vec<ProcId>> =
            Arc::new((0..route.n_slots()).map(|s| route.resolve(s)).collect());
        let reqs: Vec<(usize, CreateReq, u64)> = (0..route.n_slots())
            .map(|slot| {
                let req = CreateReq {
                    id,
                    plan: Arc::clone(&plan),
                    init: init.clone(),
                    slot,
                    fleet: Arc::clone(&fleet),
                };
                (slot, req, 96)
            })
            .collect();
        let _ = self.fabric_call(ctx, tags::CREATE, reqs);
        MatrixHandle {
            id,
            plan,
            route,
            value_bytes: self.value_bytes(),
            fleet: Some(Arc::clone(&self.fleet)),
        }
    }

    /// Release a matrix on all servers.
    pub fn free_matrix(&mut self, ctx: &mut SimCtx, handle: &MatrixHandle) {
        self.fleet
            .matrices
            .lock()
            .retain(|(id, _, _)| *id != handle.id);
        let route = self.fleet.route();
        let reqs: Vec<(usize, FreeReq, u64)> = (0..route.n_slots())
            .map(|slot| (slot, FreeReq { id: handle.id }, 32))
            .collect();
        let _ = self.fabric_call(ctx, tags::FREE, reqs);
    }

    /// Checkpoint every server's shards to the reliable external storage
    /// (paper §5.3 "periodically checkpoints the model parameters").
    pub fn checkpoint_all(&mut self, ctx: &mut SimCtx) {
        let route = self.fleet.route();
        let reqs: Vec<(usize, CheckpointReq, u64)> = (0..route.n_slots())
            .map(|slot| {
                let req = CheckpointReq {
                    storage: self.fleet.storage,
                    key: slot as u64,
                };
                (slot, req, 48)
            })
            .collect();
        let _ = self.fabric_call(ctx, tags::CHECKPOINT, reqs);
    }

    /// Detect dead servers and replace each with a fresh process whose state
    /// is rebuilt from matrix metadata plus the latest checkpoint. Updates
    /// the shared route table so existing handles keep working. Returns the
    /// slots recovered.
    pub fn recover_dead_servers(&mut self, ctx: &mut SimCtx) -> Vec<usize> {
        self.fleet.recover_dead_servers(ctx)
    }
}
