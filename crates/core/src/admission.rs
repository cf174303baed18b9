//! Aggregate selections (§7.1) as the engine's admission gate, and the §8
//! tombstone / revival machinery that keeps the gate correct when routes
//! die.
//!
//! Every tuple about to be stored or shipped is checked against the best
//! value known for its prune group; dominated tuples stop here. The group
//! is per next hop, so alternates survive for failure recovery. One
//! [`Admission`] holds all of that state for one installed query.

use crate::localize::LocalizedProgram;
use crate::wire::ProvTag;
use dr_datalog::database::Database;
use dr_datalog::rewrite::AggSelection;
use dr_types::hash::{HashMap, HashSet};
use dr_types::{Cost, NodeId, RelId, Tuple, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Consecutive idle, tombstone-free batches required before a queued
/// revival round may run. A batch that starts with no pending deltas only
/// proves the invalidation wave has passed *this node*; on dense overlays
/// a wave keeps bouncing between farther nodes for many batch intervals,
/// and reviving into it re-floods routes the in-flight poisons are about
/// to kill — each re-flood feeds the wave new tombstones, whose arrival
/// queues further revivals, a self-sustaining storm that melts the 36-node
/// dense-overlay churn figure. Demanding a short window with no ∞
/// tombstone sightings either is a cheap local proxy for "the wave has
/// died down globally", and it spaces repeat rounds automatically: a round
/// drains the whole queue, so the queue can only refill through new
/// tombstones, which reset this very counter.
const REVIVE_QUIET_BATCHES: u32 = 2;

/// Outcome of the admission check for one tuple.
pub(crate) enum Verdict {
    /// Store/ship the tuple.
    Admit,
    /// Store/ship the tuple — the ∞ tombstone of its prune group's recorded
    /// best, whose prune entry was evicted with it.
    Poisoned,
    /// A strictly better tuple for the prune group is already known.
    Dominated,
    /// An ∞-cost tombstone that invalidates nothing this node stored or
    /// shipped — dropped instead of propagated (§8).
    TombstoneCollapsed,
}

/// A revival request: `(input relation, its aggregate value field, required
/// (field, value) bindings)` — see the `revive` field of [`Admission`].
type ReviveRequest = (RelId, usize, Vec<(usize, Value)>);

/// Aggregate-selection state of one installed query.
#[derive(Default)]
pub(crate) struct Admission {
    /// (input relation, prune key) → (identity key of current best, its
    /// value). Every recorded best is finite: the tombstone that poisons
    /// one evicts the entry, so dead groups do not accumulate under churn.
    prune: HashMap<(RelId, Vec<Value>), (Vec<Value>, Value)>,
    /// Prune groups whose recorded best was just poisoned to ∞.
    /// Semi-naïve evaluation alone cannot repair such a group: the
    /// surviving alternatives are *stored* tuples, not deltas, so the joins
    /// that would re-derive (and re-ship) them never re-fire. Each request
    /// re-injects this node's stored finite tuples matching the dead
    /// group's non-location columns as deltas, once the wave has passed
    /// (see [`Admission::begin_batch`]).
    revive: HashSet<ReviveRequest>,
    /// An ∞ tombstone reached this query since the last batch — the signal
    /// that an invalidation wave is still active nearby.
    poison_seen: bool,
    /// Consecutive batches that started idle with no tombstone sightings.
    revive_quiet: u32,
}

/// The prune-map coordinates of a tuple: its group key (aggregate group
/// extended with every node-valued field outside the group and the first
/// hop of any path-vector field — i.e. per next hop, needed for recovery
/// after failures, §8) and its identity (the catalog key fields,
/// distinguishing updates of one route from competing routes).
fn prune_key_and_identity(
    sel: &AggSelection,
    program: &LocalizedProgram,
    tuple: &Tuple,
) -> ((RelId, Vec<Value>), Vec<Value>) {
    let mut group: Vec<Value> =
        sel.group_fields.iter().filter_map(|&i| tuple.field(i).cloned()).collect();
    for (i, field) in tuple.fields().iter().enumerate() {
        if i == sel.value_field || sel.group_fields.contains(&i) {
            continue;
        }
        match field {
            Value::Node(_) => group.push(field.clone()),
            Value::Path(p) if p.len() >= 2 => group.push(Value::Node(p.nodes()[1])),
            _ => {}
        }
    }
    let key_fields = program.catalog.key_fields(tuple.rel(), tuple.arity());
    let identity = key_fields.iter().filter_map(|&i| tuple.field(i).cloned()).collect();
    ((tuple.rel(), group), identity)
}

impl Admission {
    /// Number of prune-map entries held.
    pub(crate) fn entries(&self) -> usize {
        self.prune.len()
    }

    /// True while revival requests wait for a quiet batch — they need a
    /// next batch to run in.
    pub(crate) fn revivals_queued(&self) -> bool {
        !self.revive.is_empty()
    }

    /// True when the tuple with this `identity` is the recorded best of its
    /// prune group.
    fn is_live_best(&self, key: &(RelId, Vec<Value>), identity: &[Value]) -> bool {
        self.prune.get(key).is_some_and(|(best_id, _)| best_id == identity)
    }

    /// The admission check. Keeps: updates of the current best (same
    /// identity key), and tuples at least as good as the best known for
    /// their prune key. Tuples of relations no selection covers are always
    /// admitted.
    ///
    /// Infinite-cost derivations are special-cased: an ∞ tombstone's only
    /// job is invalidating the stored/shipped best path and its cache
    /// entries (§8 rule NR3). Since every ∞ derivation ties in the
    /// aggregate, admitting them all would enumerate the whole failed path
    /// space; instead only the tombstones that actually invalidate
    /// something this node stored or shipped are admitted — one per
    /// (destination, next-hop) prune group plus one per stale stored tuple
    /// — and every other ∞ derivation collapses. Failure recovery becomes a
    /// single invalidation wave over the existing routing state instead of
    /// an exponential re-exploration.
    pub(crate) fn check(
        &mut self,
        program: &LocalizedProgram,
        db: &Database,
        tuple: &Tuple,
        me: NodeId,
    ) -> Verdict {
        let Some(sel) = program.agg_selections.iter().find(|s| s.input_relation == tuple.rel())
        else {
            return Verdict::Admit;
        };
        let Some(value) = tuple.field(sel.value_field).cloned() else {
            return Verdict::Admit;
        };
        let (key, identity) = prune_key_and_identity(sel, program, tuple);

        if value.is_infinite_cost() {
            // Tombstone sighted (whatever its fate below): the invalidation
            // wave is still active here — hold queued revivals back.
            self.poison_seen = true;
            let loc = program.catalog.location_field(tuple.rel());
            // Tombstone of the group's shipped/stored best: let the
            // invalidation propagate, and evict the entry so any finite
            // alternative (other next hop) is admitted fresh. Only this
            // tombstone may evict: a finite entry can back a best that was
            // *shipped* rather than stored here, and it is what lets exactly
            // this derivation through the gate — dropping it any earlier
            // would collapse a tombstone the remote home still needs.
            // Further ∞ ties of the dead group still collapse through the
            // stored-tuple check below.
            if self.is_live_best(&key, &identity) {
                // The group's surviving alternatives (other downstream
                // continuations through this node) are stored state, not
                // deltas — schedule a revival so a later batch re-derives
                // and re-ships the group's new best from them.
                let bindings = sel
                    .group_fields
                    .iter()
                    .filter(|&&g| g != loc)
                    .filter_map(|&g| tuple.field(g).cloned().map(|v| (g, v)))
                    .collect();
                self.revive.insert((tuple.rel(), sel.value_field, bindings));
                self.prune.remove(&key);
                return Verdict::Poisoned;
            }
            // Tombstone addressed to a remote home: this node only derives
            // and forwards it — whether it invalidates anything is a fact
            // about the *home's* store, which is invisible here. Collapsing
            // on the local group best loses real invalidations whenever two
            // equal-cost routes share a prune group at the deriving node
            // (the local best covers one of them; the other's home keeps a
            // route that is now dead). Ship it and let the home run the
            // real check — a tombstone nothing at the home matches
            // collapses there, so each one travels at most one hop.
            if tuple.node_at(loc) != Some(me) {
                return Verdict::Admit;
            }
            // Tombstone of a dominated-but-stored tuple (an older route this
            // node still holds): admit so the keyed upsert poisons the stale
            // entry, but without touching the group best.
            let key_fields = program.catalog.key_fields(tuple.rel(), tuple.arity());
            let poisons_stored =
                db.get_by_key(&tuple.key(&key_fields)).is_some_and(|stored| stored != tuple);
            return if poisons_stored { Verdict::Admit } else { Verdict::TombstoneCollapsed };
        }

        if let Some((best_id, best_val)) = self.prune.get(&key) {
            // An update of the current best is admitted even when worse.
            if *best_id != identity && sel.func.rank(&value, best_val) == Ordering::Greater {
                return Verdict::Dominated;
            }
        }
        self.prune.insert(key, (identity, value));
        Verdict::Admit
    }

    /// Start-of-batch bookkeeping for the revival gate; returns the stored
    /// tuples to re-inject as deltas when a revival round runs now.
    ///
    /// Revival is deferred to an *idle* batch: one that starts with no
    /// pending deltas (`idle`), meaning nothing arrived since the previous
    /// batch and the invalidation wave has passed this node. Reviving
    /// mid-wave would re-flood routes the in-flight poisons are about to
    /// kill — and since most prune groups are evicted during the wave, every
    /// revived derivation would be admitted, stored, extended and shipped,
    /// re-exploring the path space the tombstone collapse exists to avoid.
    /// Idleness alone is necessary but not sufficient — see
    /// [`REVIVE_QUIET_BATCHES`].
    pub(crate) fn begin_batch(
        &mut self,
        idle: bool,
        program: &LocalizedProgram,
        db: &Database,
        neighbors: &BTreeMap<NodeId, Cost>,
    ) -> Vec<Tuple> {
        if !idle || self.poison_seen {
            self.poison_seen = false;
            self.revive_quiet = 0;
            return Vec::new();
        }
        self.revive_quiet = self.revive_quiet.saturating_add(1);
        if self.revive_quiet < REVIVE_QUIET_BATCHES {
            return Vec::new();
        }
        self.revivals(program, db, neighbors)
    }

    /// Re-arm the joins of prune groups whose recorded best was poisoned
    /// to ∞ since the last round: collect this node's stored finite tuples
    /// matching each dead group's non-location columns.
    ///
    /// Without this, recovery is incomplete whenever every retained
    /// alternative at the route's home also dies: the home's per-next-hop
    /// fallbacks cover the failure only if their own downstream segments
    /// survived. The anchor node still stores finite paths for the group's
    /// destination, but they are old state — no delta ever re-fires the
    /// `link ⋈ path` join that would ship the group's new best (the
    /// nodes=10/seed=291 Dense-UUNET hub failure is a concrete case:
    /// without revival two pairs settle on detours ~25% worse than the
    /// surviving optimum).
    ///
    /// Only tuples that are the *current recorded best of their own prune
    /// group* are re-injected — at most one per surviving next hop. The
    /// store also holds every historically-admitted route (dominated
    /// alternatives are kept for exactly this kind of fallback), and during
    /// an invalidation wave most groups are dead, so re-injecting the full
    /// per-destination history would re-explore the path space the
    /// tombstone-collapse design exists to avoid (the 16-node hub-failure
    /// budget test blows up ~200×). The group bests are sufficient: any
    /// repaired route the dead group can still ship extends some current
    /// best at this node. Re-injection is idempotent — re-derived tuples
    /// that are already stored are not re-shipped — and self-limiting:
    /// revived finite tuples never create new tombstone transitions.
    fn revivals(
        &mut self,
        program: &LocalizedProgram,
        db: &Database,
        neighbors: &BTreeMap<NodeId, Cost>,
    ) -> Vec<Tuple> {
        let mut revived = Vec::new();
        let requests: Vec<ReviveRequest> = self.revive.drain().collect();
        for (rel, value_field, bindings) in requests {
            let Some(sel) = program.agg_selections.iter().find(|s| s.input_relation == rel) else {
                continue;
            };
            // A candidate whose next hop is a dead (or vanished) neighbor
            // is guaranteed dead on arrival: re-flooding it just feeds the
            // next invalidation wave, whose tombstones queue further
            // revivals of this destination's sibling groups — a
            // self-sustaining oscillation that melts the 36-node
            // dense-overlay churn figure. The link state needed to rule
            // those out is local and exact, so check it here; when the
            // neighbor later revives, the link update's copy re-injection
            // re-fires these joins anyway.
            let next_hop_alive = |t: &Tuple| {
                t.fields().iter().all(|f| match f {
                    Value::Path(p) if p.len() >= 2 => {
                        neighbors.get(&p.nodes()[1]).is_some_and(|c| c.is_finite())
                    }
                    _ => true,
                })
            };
            revived.extend(
                db.scan(rel)
                    .filter(|t| {
                        t.field(value_field).is_none_or(|v| !v.is_infinite_cost())
                            && bindings.iter().all(|(i, v)| t.field(*i) == Some(v))
                    })
                    .filter(|t| next_hop_alive(t))
                    .filter(|t| {
                        let (key, identity) = prune_key_and_identity(sel, program, t);
                        self.is_live_best(&key, &identity)
                    })
                    .cloned(),
            );
        }
        revived
    }

    /// Reorder one delivered batch so the admission gate sees, per selected
    /// relation, ∞ tombstones first and finite tuples best-value first.
    ///
    /// Network reordering (loss, retransmission, duplication) otherwise
    /// defeats the prune: finite routes arriving worst-first are each
    /// better than the last, so every one of them is admitted, stored,
    /// shipped, and re-joined downstream — the lossy churn benchmark
    /// derives ~90× more tuples than its lossless twin mostly from this.
    /// Sorting is per relation and stable; tuples of non-selected relations
    /// (and the relative order of different relations) are untouched, so a
    /// batch with no aggregate selections is processed exactly as it
    /// arrived. Any processing order is semantically valid — delivery order
    /// was never guaranteed — this one just minimizes admissions.
    pub(crate) fn sort_batch(program: &LocalizedProgram, batch: &mut [(Tuple, ProvTag)]) {
        for sel in &program.agg_selections {
            let idx: Vec<usize> =
                (0..batch.len()).filter(|&i| batch[i].0.rel() == sel.input_relation).collect();
            if idx.len() < 2 {
                continue;
            }
            // Tombstones first: they only invalidate, and admitting them
            // before the finite alternatives avoids comparing fresh routes
            // against a best that is about to die.
            let vf = sel.value_field;
            let tombstone = |t: &Tuple| t.field(vf).is_some_and(Value::is_infinite_cost);
            let mut members: Vec<(Tuple, ProvTag)> =
                idx.iter().map(|&i| batch[i].clone()).collect();
            members.sort_by(|(a, _), (b, _)| {
                tombstone(b).cmp(&tombstone(a)).then_with(|| match (a.field(vf), b.field(vf)) {
                    (Some(x), Some(y)) => sel.func.rank(x, y),
                    _ => Ordering::Equal,
                })
            });
            for (&i, member) in idx.iter().zip(members) {
                batch[i] = member;
            }
        }
    }
}
