//! Adaptive hot-row replication for row-partitioned tables (NuPS-style).
//!
//! Under the row plan a row lives on exactly one server (`row % n`), so a
//! Zipf-skewed read stream piles its head onto whichever servers own the
//! hottest rows — the "single-point problem" the paper describes for row
//! partitioning. This module holds the state that lets a server fix that
//! without operator input:
//!
//! * **Detect** — each server counts whole-row reads of the rows it owns in
//!   a bounded [`SpaceSaving`] heavy-hitter sketch. A row is *promoted* once
//!   its guaranteed (lower-bound) count reaches `1/n` of this server's
//!   counted reads, `n` being the plan's fleet size, after a minimum sample
//!   of [`MIN_SAMPLE`] reads. Lower bounds of distinct rows sum to at most
//!   the reads counted, so at most `n` rows can qualify at once, and
//!   promotion is capped at `n` rows per server: replica memory is at most
//!   `n·(n-1)` rows per server whatever the traffic. Uniform traffic over a
//!   large table (about `1/25,000` of the reads per row on the serving
//!   presets) never qualifies.
//! * **Install** — the owner ships the promoted row to every peer (tag
//!   `REPLICA`) and starts flagging its pull replies `Replicated` only after
//!   every peer acked, so a hinted client never reaches a peer that lacks
//!   the row on the normal path.
//! * **Write** — a mutation of a promoted row ships the new full row to
//!   every peer and its acknowledgement to the writer waits for every
//!   peer's ack ([`Fanouts`]): a read that starts after the write's ack sees
//!   the write wherever it is routed.
//!
//! Column plans (every training table) never construct any of this.

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use ps2_simnet::{Envelope, ProcId};

use crate::plan::MatrixId;

/// Monitored counters of the heavy-hitter sketch. Space-Saving
/// overestimates any monitored count by at most `reads / SKETCH_CAPACITY`.
pub(crate) const SKETCH_CAPACITY: usize = 32;

/// Counted reads before any promotion decision: twice the sketch capacity,
/// so the sketch has filled and started evicting — a row's lower bound then
/// reflects a share of the traffic rather than an early arrival.
pub(crate) const MIN_SAMPLE: u64 = 2 * SKETCH_CAPACITY as u64;

/// One monitored row: `count` overestimates its reads by at most `err`.
struct Counter {
    row: u32,
    count: u64,
    err: u64,
}

/// The Space-Saving heavy-hitter sketch (Metwally et al.) over row reads,
/// with a fixed [`SKETCH_CAPACITY`]. Deterministic: the map is only used for
/// lookups, and eviction picks the lowest-count counter, ties to the lowest
/// position.
pub(crate) struct SpaceSaving {
    counters: Vec<Counter>,
    index: HashMap<u32, usize>,
    total: u64,
}

impl SpaceSaving {
    pub(crate) fn new() -> SpaceSaving {
        SpaceSaving {
            counters: Vec::with_capacity(SKETCH_CAPACITY),
            index: HashMap::with_capacity(SKETCH_CAPACITY),
            total: 0,
        }
    }

    /// Count one read of `row`; returns the row's guaranteed read count
    /// (`count - err`, a lower bound on its true count).
    pub(crate) fn record(&mut self, row: u32) -> u64 {
        self.total += 1;
        if let Some(&i) = self.index.get(&row) {
            let c = &mut self.counters[i];
            c.count += 1;
            return c.count - c.err;
        }
        if self.counters.len() < SKETCH_CAPACITY {
            self.index.insert(row, self.counters.len());
            self.counters.push(Counter {
                row,
                count: 1,
                err: 0,
            });
            return 1;
        }
        let (i, min) = self
            .counters
            .iter()
            .enumerate()
            .min_by_key(|&(i, c)| (c.count, i))
            .map(|(i, c)| (i, c.count))
            .expect("sketch is full");
        self.index.remove(&self.counters[i].row);
        self.index.insert(row, i);
        self.counters[i] = Counter {
            row,
            count: min + 1,
            err: min,
        };
        1
    }

    /// Reads counted so far.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

/// A promoted row on its owner.
struct Promoted {
    /// Bumped by every write; replicas keep the newest version they saw.
    version: u64,
    /// Every peer acked the install: pull replies may carry the hint.
    hinting: bool,
}

/// A peer's promoted row held on this server.
struct Replica {
    version: u64,
    segs: Arc<Vec<Vec<f64>>>,
}

/// Hot-row replication state of one row-partitioned shard.
pub(crate) struct RowReplication {
    /// The fleet by slot (`fleet[me]` is this server).
    fleet: Arc<Vec<ProcId>>,
    me: usize,
    sketch: SpaceSaving,
    promoted: HashMap<u32, Promoted>,
    replicas: HashMap<u32, Replica>,
}

impl RowReplication {
    /// `None` unless there is a peer to replicate to and the fleet list
    /// matches the plan's `n_slots`.
    pub(crate) fn new(fleet: Arc<Vec<ProcId>>, me: usize, n_slots: usize) -> Option<Self> {
        (n_slots >= 2 && fleet.len() == n_slots).then(|| RowReplication {
            fleet,
            me,
            sketch: SpaceSaving::new(),
            promoted: HashMap::new(),
            replicas: HashMap::new(),
        })
    }

    fn n(&self) -> u64 {
        self.fleet.len() as u64
    }

    /// Count an owner-side whole-row read of `row`; true when this read
    /// promotes it (the caller then installs it on the peers).
    pub(crate) fn on_owned_read(&mut self, row: u32) -> bool {
        let lower = self.sketch.record(row);
        let total = self.sketch.total();
        if total < MIN_SAMPLE
            || lower * self.n() < total
            || self.promoted.len() as u64 >= self.n()
            || self.promoted.contains_key(&row)
        {
            return false;
        }
        self.promoted.insert(
            row,
            Promoted {
                version: 1,
                hinting: false,
            },
        );
        true
    }

    /// Current version of promoted `row`.
    pub(crate) fn version(&self, row: u32) -> Option<u64> {
        self.promoted.get(&row).map(|p| p.version)
    }

    /// Whether pull replies for owned `row` carry the `Replicated` hint.
    pub(crate) fn hinting(&self, row: u32) -> bool {
        self.promoted.get(&row).is_some_and(|p| p.hinting)
    }

    /// The install of `row` completed on every peer: start hinting.
    pub(crate) fn start_hinting(&mut self, row: u32) {
        if let Some(p) = self.promoted.get_mut(&row) {
            p.hinting = true;
        }
    }

    pub(crate) fn has_promoted(&self) -> bool {
        !self.promoted.is_empty()
    }

    /// Bump `row`'s version for a write if it is promoted; returns the new
    /// version to ship to the peers.
    pub(crate) fn bump(&mut self, row: u32) -> Option<u64> {
        self.promoted.get_mut(&row).map(|p| {
            p.version += 1;
            p.version
        })
    }

    /// Every server but this one.
    pub(crate) fn peers(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.fleet
            .iter()
            .enumerate()
            .filter(move |&(slot, _)| slot != self.me)
            .map(|(_, &p)| p)
    }

    /// A peer's replica of `row`, if held here.
    pub(crate) fn replica(&self, row: u32) -> Option<&Arc<Vec<Vec<f64>>>> {
        self.replicas.get(&row).map(|r| &r.segs)
    }

    /// Keep `segs` as the replica of `row` unless a newer version is held.
    pub(crate) fn store_replica(&mut self, row: u32, version: u64, segs: &Arc<Vec<Vec<f64>>>) {
        let r = self.replicas.entry(row).or_insert_with(|| Replica {
            version: 0,
            segs: Arc::clone(segs),
        });
        if version >= r.version {
            r.version = version;
            r.segs = Arc::clone(segs);
        }
    }
}

/// What completes when a fan-out's last ack arrives.
enum FanDone {
    /// An install: the owner starts hinting `row` of `id`.
    Hint { id: MatrixId, row: u32 },
    /// A write's replica refresh: release the replies waiting on it, and
    /// forget the write's dedup key `op` (a retry of it no longer waits).
    Write { op: (MatrixId, u64) },
}

struct Fan {
    acks_left: usize,
    done: FanDone,
    /// Deferred replies (keys of [`Fanouts::deferred`]) waiting on this fan.
    waiters: Vec<u64>,
}

/// A client reply held until the replica fan-outs it depends on complete.
struct Deferred {
    request: Envelope,
    reply: Box<dyn Any + Send>,
    bytes: u64,
    fans_left: usize,
}

/// Server-wide bookkeeping of replica fan-outs in flight: which peer acks
/// are outstanding, and which client replies wait for them.
#[derive(Default)]
pub(crate) struct Fanouts {
    next_id: u64,
    /// Correlation id of each outstanding REPLICA request → its fan.
    by_corr: HashMap<u64, u64>,
    fans: HashMap<u64, Fan>,
    /// Writes whose refresh is still in flight, by dedup key: a retried
    /// duplicate acks only once the original's refresh completed.
    by_op: HashMap<(MatrixId, u64), u64>,
    deferred: HashMap<u64, Deferred>,
}

/// What a completed ack released.
pub(crate) enum AckOutcome {
    /// Nothing yet (more acks outstanding, or an unknown correlation id).
    Pending,
    /// An install finished: hint `row` of `id` from now on.
    Hint { id: MatrixId, row: u32 },
    /// A write's refresh finished: send these held replies.
    Release(Vec<(Envelope, Box<dyn Any + Send>, u64)>),
}

impl Fanouts {
    fn open(&mut self, acks: usize, done: FanDone) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        if let FanDone::Write { op } = done {
            self.by_op.insert(op, id);
        }
        self.fans.insert(
            id,
            Fan {
                acks_left: acks,
                done,
                waiters: Vec::new(),
            },
        );
        id
    }

    /// Open the fan-out of installing `row` of `id` on `acks` peers.
    pub(crate) fn open_install(&mut self, id: MatrixId, row: u32, acks: usize) -> u64 {
        self.open(acks, FanDone::Hint { id, row })
    }

    /// Open the fan-out of refreshing the replicas a write (dedup key `op`)
    /// touched, `acks` peer acks in all.
    pub(crate) fn open_write(&mut self, op: (MatrixId, u64), acks: usize) -> u64 {
        self.open(acks, FanDone::Write { op })
    }

    /// Expect one ack with correlation id `corr` for fan `fan`.
    pub(crate) fn track(&mut self, corr: u64, fan: u64) {
        self.by_corr.insert(corr, fan);
    }

    /// The in-flight refresh of write `op`, if any.
    pub(crate) fn write_in_flight(&self, op: (MatrixId, u64)) -> Option<u64> {
        self.by_op.get(&op).copied()
    }

    /// Hold `reply` to `request` until every fan in `fans` completed.
    pub(crate) fn defer(
        &mut self,
        request: Envelope,
        reply: Box<dyn Any + Send>,
        bytes: u64,
        fans: &[u64],
    ) {
        self.next_id += 1;
        let id = self.next_id;
        for f in fans {
            self.fans
                .get_mut(f)
                .expect("deferred on a live fan")
                .waiters
                .push(id);
        }
        self.deferred.insert(
            id,
            Deferred {
                request,
                reply,
                bytes,
                fans_left: fans.len(),
            },
        );
    }

    /// Account one peer ack.
    pub(crate) fn on_ack(&mut self, corr: u64) -> AckOutcome {
        let Some(fan_id) = self.by_corr.remove(&corr) else {
            return AckOutcome::Pending;
        };
        let fan = self.fans.get_mut(&fan_id).expect("tracked fan exists");
        fan.acks_left -= 1;
        if fan.acks_left > 0 {
            return AckOutcome::Pending;
        }
        let fan = self.fans.remove(&fan_id).expect("fan exists");
        match fan.done {
            FanDone::Hint { id, row } => AckOutcome::Hint { id, row },
            FanDone::Write { op } => {
                self.by_op.remove(&op);
                let mut ready = Vec::new();
                for w in fan.waiters {
                    let d = self.deferred.get_mut(&w).expect("waiter exists");
                    d.fans_left -= 1;
                    if d.fans_left == 0 {
                        let d = self.deferred.remove(&w).expect("waiter exists");
                        ready.push((d.request, d.reply, d.bytes));
                    }
                }
                AckOutcome::Release(ready)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize) -> Arc<Vec<ProcId>> {
        Arc::new((0..n).map(ProcId).collect())
    }

    #[test]
    fn sketch_lower_bounds_never_exceed_true_counts() {
        let mut s = SpaceSaving::new();
        let mut truth: HashMap<u32, u64> = HashMap::new();
        // A skewed stream over more distinct rows than the sketch holds.
        for i in 0..10_000u32 {
            let row = if i % 3 == 0 {
                7
            } else {
                i.wrapping_mul(2_654_435_761) % 997
            };
            *truth.entry(row).or_default() += 1;
            let lower = s.record(row);
            assert!(lower <= truth[&row], "row {row}: {lower} > {}", truth[&row]);
        }
        assert_eq!(s.total(), 10_000);
        // The heavy hitter's lower bound trails its true count by at most
        // the Space-Saving error bound, reads / capacity.
        *truth.entry(7).or_default() += 1;
        let lower = s.record(7);
        assert!(lower + s.total() / SKETCH_CAPACITY as u64 >= truth[&7]);
    }

    #[test]
    fn uniform_reads_never_promote() {
        let mut r = RowReplication::new(fleet(8), 0, 8).unwrap();
        // Rows this server owns under `row % 8`, read round-robin.
        for i in 0..200_000u32 {
            assert!(!r.on_owned_read((i % 25_000) * 8));
        }
    }

    #[test]
    fn promotion_waits_for_the_minimum_sample_and_caps_at_n() {
        let mut r = RowReplication::new(fleet(2), 0, 2).unwrap();
        // One row read every time: it qualifies only once the sample is in.
        for _ in 1..MIN_SAMPLE {
            assert!(!r.on_owned_read(0));
        }
        assert!(r.on_owned_read(0));
        assert!(!r.on_owned_read(0), "promotes once");
        // The hot spot moves twice. Each new hot row comes to hold half the
        // reads, but only the first of them fits under the cap of n = 2.
        let mut promoted = vec![0];
        for row in [2, 4] {
            for _ in 0..10_000 {
                if r.on_owned_read(row) {
                    promoted.push(row);
                }
            }
        }
        assert_eq!(promoted, vec![0, 2]);
        assert_eq!(r.peers().collect::<Vec<_>>(), vec![ProcId(1)]);
    }

    #[test]
    fn single_server_fleets_do_not_replicate() {
        assert!(RowReplication::new(fleet(1), 0, 1).is_none());
        assert!(RowReplication::new(fleet(3), 0, 4).is_none());
    }

    #[test]
    fn replicas_keep_the_newest_version() {
        let mut r = RowReplication::new(fleet(2), 0, 2).unwrap();
        let v2 = Arc::new(vec![vec![2.0]]);
        let v1 = Arc::new(vec![vec![1.0]]);
        r.store_replica(5, 2, &v2);
        r.store_replica(5, 1, &v1);
        assert_eq!(r.replica(5).unwrap()[0][0], 2.0);
        assert!(r.replica(6).is_none());
    }
}
