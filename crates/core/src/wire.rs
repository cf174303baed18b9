//! The messages query processors exchange, and what each costs on the wire.

use crate::query::QueryId;
use dr_provenance::{ProvId, ProvRecord};
use dr_types::{Cost, NodeId, RelId, Tuple};

/// Wire tag linking a shipped tuple back to its derivation record:
/// `Some((node, id))` points at the record `id` in `node`'s provenance
/// arena; `None` marks a base fact (or a deployment not recording
/// provenance at all).
pub type ProvTag = Option<(NodeId, ProvId)>;

/// Messages exchanged between query processors.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// Install (disseminate) a query known to the shared
    /// [`crate::query::QueryLibrary`].
    Install {
        /// The query being installed.
        qid: QueryId,
    },
    /// A batch of tuples addressed to the receiving node. Each tuple's
    /// relation travels as its fixed-width interned [`RelId`] instead of
    /// the relation name; the receiver validates every id against the
    /// query's symbol catalog (`rel_catalog`) and drops unbound ids. In
    /// this single-process simulation the interned id *is* the wire
    /// representation; a multi-process transport must translate through
    /// the catalog's dense wire tags (`RelCatalog::wire_tag` /
    /// `RelCatalog::decode`) at the boundary instead, since raw interner
    /// ids are only meaningful within one process.
    Tuples {
        /// The query these tuples belong to (also selects the catalog the
        /// receiver validates the relation ids against).
        qid: QueryId,
        /// Sequencing header of this batch on the (sender, receiver, query)
        /// stream, when the deployment runs the reliable transport. `None`
        /// is the legacy fire-and-forget path: no acknowledgment, no
        /// retransmission, no duplicate suppression.
        seq: Option<StreamSeq>,
        /// The shipped tuples, each with the provenance tag linking it back
        /// to the record of the firing that derived it (`None` for base
        /// facts, and for every tuple of a query that does not record
        /// provenance — such a batch pays zero tag bytes).
        batch: Vec<(Tuple, ProvTag)>,
    },
    /// Cumulative acknowledgment of sequence-numbered [`NetMsg::Tuples`]
    /// batches: every batch with sequence number below `cumulative` on the
    /// (sender, receiver, query) stream has been applied.
    Ack {
        /// The acknowledged query stream.
        qid: QueryId,
        /// The next sequence number the receiver expects.
        cumulative: u64,
    },
    /// Ask the sender of tuples for an unknown query to re-offer its
    /// installation (repair of a missed `Install` flood — the counterpart
    /// of the lazy teardown repair).
    QueryRequest {
        /// The query being requested.
        qid: QueryId,
    },
    /// Tear down a query: every node that handles this removes the query's
    /// instance (stored tuples, pending buffers, prune state, compiled
    /// plans), drops the shared cache relation when the query was its last
    /// user, and forwards the teardown to its neighbors exactly once.
    Teardown {
        /// The query being torn down.
        qid: QueryId,
    },
    /// Ask `qid`'s provenance arena at the receiving node for derivation
    /// record `id` (on-demand resolution of a `ProvRef::Remote` pointer
    /// while materializing a distributed proof tree).
    ProvFetch {
        /// The query whose provenance store holds the record.
        qid: QueryId,
        /// The arena id being resolved.
        id: ProvId,
        /// The node the reply should be sent to (the holder of the remote
        /// pointer — a direct neighbor of the record's owner, since that is
        /// who the tagged tuple was shipped to).
        requester: NodeId,
    },
    /// Reply to a [`NetMsg::ProvFetch`]: the record, or `None` when it has
    /// been pruned (or the query is gone). `Local` body refs inside the
    /// record are relative to `node`, the replying owner.
    ProvReply {
        /// The query the record belongs to.
        qid: QueryId,
        /// The node that owns (and replied with) the record.
        node: NodeId,
        /// The arena id that was asked for.
        id: ProvId,
        /// The record, if it still exists.
        record: Option<Box<ProvRecord>>,
    },
    /// Install a cached best path along the reverse path (multi-query
    /// sharing, §7.3). Forwarded hop by hop along `suffix`.
    CacheInstall {
        /// Cross-query cache relation to install into.
        cache: RelId,
        /// Final destination of the cached path.
        dest: NodeId,
        /// Remaining path from the receiving node to `dest` (first element
        /// is the receiving node itself).
        suffix: Vec<NodeId>,
        /// Cost of the remaining path.
        cost: Cost,
    },
}

/// Sequencing header carried by every reliable-transport tuple batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSeq {
    /// Sequence number of this batch on its (sender, receiver, query)
    /// stream.
    pub seq: u64,
    /// Lowest sequence number the sender still retains for retransmission.
    /// Everything below `base` has either been acknowledged or abandoned
    /// (retry budget exhausted), so a receiver waiting on a gap below
    /// `base` must skip it: those batches are never coming, and a low-rate
    /// stream would otherwise stay wedged behind the hole forever — e.g.
    /// a batch lost into a failed node's down-time blocking the fresh
    /// link-state copies shipped after the node rejoins.
    pub base: u64,
}

impl NetMsg {
    /// Approximate wire size used for bandwidth accounting. Relation
    /// identity costs the fixed-width [`dr_types::rel::WIRE_TAG_BYTES`]
    /// tag (inside [`Tuple::wire_size`]) rather than `name.len()` bytes
    /// per tuple.
    pub fn wire_size(&self) -> usize {
        match self {
            NetMsg::Install { .. } | NetMsg::Teardown { .. } | NetMsg::QueryRequest { .. } => 64,
            NetMsg::Tuples { seq, batch, .. } => {
                // The sequencing header costs 20 bytes (tag + seq + base)
                // only when the reliable transport is on, so fire-and-forget
                // deployments keep their exact legacy wire accounting. The
                // same holds for provenance tags: a batch in which no tuple
                // carries one (every batch of a non-recording query) ships
                // no tag column at all; otherwise a tag costs 13 bytes and
                // an absent one a 1-byte marker.
                let seq_bytes = if seq.is_some() { 20 } else { 0 };
                let tagged = batch.iter().any(|(_, tag)| tag.is_some());
                let tag_bytes = |tag: &ProvTag| match (tagged, tag) {
                    (false, _) => 0,
                    (true, Some(_)) => 13,
                    (true, None) => 1,
                };
                let tuple_bytes =
                    |(tuple, tag): &(Tuple, ProvTag)| tuple.wire_size() + tag_bytes(tag);
                16 + seq_bytes + batch.iter().map(tuple_bytes).sum::<usize>()
            }
            NetMsg::Ack { .. } => 24,
            NetMsg::ProvFetch { .. } => 64,
            NetMsg::ProvReply { record, .. } => {
                let record_bytes = record.as_ref().map_or(0, |rec| {
                    rec.tuple.wire_size()
                        + rec.body.iter().map(|(t, _)| t.wire_size() + 13).sum::<usize>()
                });
                64 + record_bytes
            }
            NetMsg::CacheInstall { suffix, .. } => {
                24 + dr_types::rel::WIRE_TAG_BYTES + 4 * suffix.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_types::Value;

    /// The accounting before the batch became one vector: parallel
    /// `items`/`provs` columns, with the tag column emptied when it held no
    /// tag at all.
    fn legacy_tuples_size(seq: Option<StreamSeq>, batch: &[(Tuple, ProvTag)]) -> usize {
        let mut provs: Vec<ProvTag> = batch.iter().map(|(_, tag)| *tag).collect();
        if provs.iter().all(Option::is_none) {
            provs.clear();
        }
        let seq_bytes = if seq.is_some() { 20 } else { 0 };
        let prov_bytes = provs.iter().map(|tag| if tag.is_some() { 13 } else { 1 }).sum::<usize>();
        16 + seq_bytes + prov_bytes + batch.iter().map(|(t, _)| t.wire_size()).sum::<usize>()
    }

    #[test]
    fn tuples_wire_bytes_match_the_parallel_column_formula() {
        let n = NodeId::new;
        let tuple = |d: u32| {
            Tuple::new("path", vec![Value::Node(n(0)), Value::Node(n(d)), Value::from(1.5)])
        };
        let tag: ProvTag = Some((n(3), ProvId(7)));
        let batches: [Vec<(Tuple, ProvTag)>; 4] = [
            vec![],
            vec![(tuple(1), None), (tuple(2), None)], // untagged / all-`None`
            vec![(tuple(1), tag), (tuple(2), None), (tuple(3), tag)], // mixed
            vec![(tuple(1), tag)],
        ];
        for batch in batches {
            for seq in [None, Some(StreamSeq { seq: 4, base: 2 })] {
                let msg = NetMsg::Tuples { qid: 1, seq, batch: batch.clone() };
                assert_eq!(msg.wire_size(), legacy_tuples_size(seq, &batch), "{batch:?} {seq:?}");
            }
        }
        // Pinned absolute numbers, so the formula cannot drift in step with
        // its twin above: 16 header + 2 × tuple, +20 sequenced, +13 +1 tags.
        let t = tuple(1).wire_size();
        let plain = vec![(tuple(1), None), (tuple(2), None)];
        assert_eq!(NetMsg::Tuples { qid: 1, seq: None, batch: plain }.wire_size(), 16 + 2 * t);
        let mixed = vec![(tuple(1), tag), (tuple(2), None)];
        let seq = Some(StreamSeq { seq: 0, base: 0 });
        assert_eq!(NetMsg::Tuples { qid: 1, seq, batch: mixed }.wire_size(), 16 + 20 + 2 * t + 14);
    }
}
