//! The loss-tolerant tuple transport as a sans-IO state machine.
//!
//! [`Streams`] owns every sequence-numbered (hop, query) stream of one node
//! — what was sent and not yet acknowledged, what arrived ahead of order —
//! and turns calls into values: `send` wraps a batch in the message to put
//! on the wire, `receive` returns the batches now deliverable in order plus
//! the acknowledgment to send back, `scan` returns the retransmissions that
//! are due. It never sends, sets a timer or looks inside a tuple; the
//! caller does the I/O, so the protocol is testable with no simulator.

use crate::query::QueryId;
use crate::wire::{NetMsg, ProvTag, StreamSeq};
use dr_netsim::{SimDuration, SimTime};
use dr_types::{NodeId, Tuple};
use std::collections::BTreeMap;

/// Tuning knobs of the loss-tolerant tuple transport.
///
/// The transport is hop-by-hop: each processor keeps one sequence-numbered
/// stream per (direct-neighbor hop, query). Unacked batches are resent on a
/// timeout with exponential backoff; after `max_retries` the batch is
/// abandoned and the soft-state repair paths (periodic link refresh, lazy
/// query repair) are left to reconcile whatever the loss broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Base retransmission timeout; retry `n` waits `rto · 2^min(n, 6)`.
    pub retransmit_timeout: SimDuration,
    /// Retransmissions attempted before a batch is abandoned. At 20% loss
    /// the default of 8 leaves a residual loss below 3·10⁻⁶ per batch.
    pub max_retries: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> ReliabilityConfig {
        ReliabilityConfig { retransmit_timeout: SimDuration::from_millis(500), max_retries: 8 }
    }
}

/// Out-of-order batches buffered per stream before the receiver gives up on
/// the gap and skips ahead (bounds memory if a batch is permanently lost —
/// retransmission makes that astronomically unlikely at the loss rates the
/// chaos tests run, but the bound must exist).
const REORDER_BUFFER_CAP: usize = 64;

/// One shipped batch. Opaque here: the transport stores, clones and hands
/// batches back, and never reads one.
type Batch = Vec<(Tuple, ProvTag)>;

/// One sent batch awaiting acknowledgment.
#[derive(Debug)]
struct Unacked {
    batch: Batch,
    /// Retransmissions performed so far.
    retries: u32,
    /// When the next retransmission is due.
    due: SimTime,
}

/// Send side of one (hop, query) stream.
#[derive(Debug, Default)]
struct OutStream {
    /// Sequence number the next batch will carry.
    next_seq: u64,
    /// Sent-but-unacknowledged batches, keyed by sequence number.
    unacked: BTreeMap<u64, Unacked>,
}

/// Receive side of one (hop, query) stream.
#[derive(Debug, Default)]
struct InStream {
    /// Next sequence number expected in order (== the cumulative ack).
    next_expected: u64,
    /// Out-of-order batches held until the gap before them fills.
    buffered: BTreeMap<u64, Batch>,
}

/// What [`Streams::receive`] made of one arrived batch.
#[derive(Debug)]
pub(crate) struct Received {
    /// Batches now deliverable, in stream order (empty for a duplicate or
    /// an ahead-of-order arrival).
    pub ready: Vec<Batch>,
    /// The cumulative acknowledgment to send back — always, so a sender
    /// whose earlier ack was lost stops retransmitting.
    pub ack: NetMsg,
    /// The batch was already applied or already buffered, and was dropped.
    pub duplicate: bool,
    /// Sequence numbers given up on: holes the sender advertised as
    /// abandoned, or skipped because the reorder buffer overflowed.
    pub gaps_skipped: u64,
}

/// All reliable-transport state of one node.
#[derive(Debug)]
pub(crate) struct Streams {
    /// `None` is the legacy fire-and-forget wire: `send` attaches no header
    /// and remembers nothing.
    config: Option<ReliabilityConfig>,
    outgoing: BTreeMap<(NodeId, QueryId), OutStream>,
    incoming: BTreeMap<(NodeId, QueryId), InStream>,
}

impl Streams {
    pub(crate) fn new(config: Option<ReliabilityConfig>) -> Streams {
        Streams { config, outgoing: BTreeMap::new(), incoming: BTreeMap::new() }
    }

    /// Wrap `batch` for shipping to direct-neighbor `hop`. With reliability
    /// on, the batch takes the stream's next sequence number and is kept
    /// until the hop's cumulative ack covers it.
    pub(crate) fn send(&mut self, now: SimTime, hop: NodeId, qid: QueryId, batch: Batch) -> NetMsg {
        let Some(config) = self.config else {
            return NetMsg::Tuples { qid, seq: None, batch };
        };
        let stream = self.outgoing.entry((hop, qid)).or_default();
        let seq = stream.next_seq;
        stream.next_seq += 1;
        let due = now + config.retransmit_timeout;
        stream.unacked.insert(seq, Unacked { batch: batch.clone(), retries: 0, due });
        let base = *stream.unacked.keys().next().expect("just inserted");
        NetMsg::Tuples { qid, seq: Some(StreamSeq { seq, base }), batch }
    }

    /// `from` acknowledged everything below `cumulative` on `qid`'s stream.
    pub(crate) fn on_ack(&mut self, from: NodeId, qid: QueryId, cumulative: u64) {
        if let Some(stream) = self.outgoing.get_mut(&(from, qid)) {
            stream.unacked.retain(|&seq, _| seq >= cumulative);
        }
    }

    /// How long from now the caller must run [`Streams::scan`], while
    /// anything is in flight.
    pub(crate) fn scan_after(&self) -> Option<SimDuration> {
        let in_flight = self.outgoing.values().any(|s| !s.unacked.is_empty());
        self.config.filter(|_| in_flight).map(|c| c.retransmit_timeout)
    }

    /// Every overdue unacked batch, re-wrapped for resending (exponential
    /// backoff per batch); batches past the retry budget are abandoned.
    ///
    /// The stream's newest unacked batch is never abandoned: it keeps
    /// retransmitting at the capped backoff interval until acknowledged.
    /// Its `StreamSeq::base` is what tells a receiver wedged on an
    /// abandoned gap to skip ahead — if the whole stream went silent after
    /// abandonment, a hole punched during a peer's down-time would block
    /// the batches behind it (including the post-rejoin link-state
    /// refresh) forever.
    pub(crate) fn scan(&mut self, now: SimTime) -> Vec<(NodeId, NetMsg)> {
        let Some(config) = self.config else { return Vec::new() };
        let mut resend = Vec::new();
        for (&(hop, qid), stream) in self.outgoing.iter_mut() {
            // The soft-state repair paths own an abandoned batch's content.
            let newest = stream.unacked.keys().next_back().copied();
            stream.unacked.retain(|&seq, sent| {
                sent.due > now || sent.retries < config.max_retries || Some(seq) == newest
            });
            let Some(&base) = stream.unacked.keys().next() else { continue };
            for (&seq, sent) in stream.unacked.iter_mut().filter(|(_, sent)| sent.due <= now) {
                sent.retries = sent.retries.saturating_add(1);
                sent.due = now + config.retransmit_timeout.times(1 << sent.retries.min(6));
                let header = Some(StreamSeq { seq, base });
                resend.push((hop, NetMsg::Tuples { qid, seq: header, batch: sent.batch.clone() }));
            }
        }
        resend
    }

    /// Take one sequence-numbered batch from `from`: suppress duplicates,
    /// buffer ahead-of-order arrivals, release the in-order prefix.
    ///
    /// The header's `base` advertises the lowest sequence number the sender
    /// can still retransmit; gaps below it are abandoned holes, so whatever
    /// is held from the gap is released (in order) and the rest skipped
    /// rather than waited for.
    pub(crate) fn receive(
        &mut self,
        from: NodeId,
        qid: QueryId,
        header: StreamSeq,
        batch: Batch,
    ) -> Received {
        let StreamSeq { seq, base } = header;
        let stream = self.incoming.entry((from, qid)).or_default();
        let mut ready = Vec::new();
        let mut gaps_skipped = 0;
        while stream.next_expected < base {
            match stream.buffered.remove(&stream.next_expected) {
                Some(held) => ready.push(held),
                None => gaps_skipped += 1,
            }
            stream.next_expected += 1;
        }
        // Already applied or already held: a retransmit crossed the ack (or
        // the wire duplicated the batch).
        let duplicate = seq < stream.next_expected || stream.buffered.contains_key(&seq);
        if !duplicate {
            stream.buffered.insert(seq, batch);
            // A permanently lost batch must not pin unbounded buffer: skip
            // the gap once too much is held and let soft-state repair cover
            // whatever the abandoned batch carried.
            if stream.buffered.len() > REORDER_BUFFER_CAP {
                let lowest = *stream.buffered.keys().next().expect("buffer is over its cap");
                gaps_skipped += lowest - stream.next_expected;
                stream.next_expected = lowest;
            }
            while let Some(held) = stream.buffered.remove(&stream.next_expected) {
                ready.push(held);
                stream.next_expected += 1;
            }
        }
        let ack = NetMsg::Ack { qid, cumulative: stream.next_expected };
        Received { ready, ack, duplicate, gaps_skipped }
    }

    /// Retire both directions of every stream of `qid`: unacked batches
    /// must not be retransmitted into a torn-down query, and the receive
    /// side has nothing left to order.
    pub(crate) fn drop_query(&mut self, qid: QueryId) {
        self.outgoing.retain(|(_, q), _| *q != qid);
        self.incoming.retain(|(_, q), _| *q != qid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_types::Value;

    const PEER: NodeId = NodeId::new(7);
    const QID: QueryId = 1;

    fn reliable() -> Streams {
        Streams::new(Some(ReliabilityConfig::default()))
    }

    /// A one-tuple batch recognisable by `mark`.
    fn batch(mark: i64) -> Batch {
        vec![(Tuple::new("t", vec![Value::Int(mark)]), None)]
    }

    fn marks(ready: &[Batch]) -> Vec<i64> {
        ready.iter().map(|b| b[0].0.field(0).and_then(Value::as_int).unwrap()).collect()
    }

    fn header(msg: &NetMsg) -> StreamSeq {
        match msg {
            NetMsg::Tuples { seq: Some(header), .. } => *header,
            other => panic!("not a sequenced batch: {other:?}"),
        }
    }

    fn cumulative(r: &Received) -> u64 {
        match r.ack {
            NetMsg::Ack { qid: QID, cumulative } => cumulative,
            ref other => panic!("not an ack for the stream: {other:?}"),
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn recv(s: &mut Streams, seq: u64, base: u64) -> Received {
        s.receive(PEER, QID, StreamSeq { seq, base }, batch(seq as i64))
    }

    #[test]
    fn in_order_batches_are_delivered_and_acked_one_by_one() {
        let mut rx = reliable();
        for seq in 0..3 {
            let r = recv(&mut rx, seq, 0);
            assert_eq!(marks(&r.ready), [seq as i64]);
            assert_eq!(cumulative(&r), seq + 1);
            assert!(!r.duplicate);
            assert_eq!(r.gaps_skipped, 0);
        }
    }

    #[test]
    fn a_duplicate_is_suppressed_and_re_acked() {
        let mut rx = reliable();
        recv(&mut rx, 0, 0);
        let applied_again = recv(&mut rx, 0, 0);
        assert!(applied_again.duplicate && applied_again.ready.is_empty());
        assert_eq!(cumulative(&applied_again), 1);
        // A copy of a batch still waiting in the reorder buffer is one too.
        recv(&mut rx, 2, 0);
        let buffered_again = recv(&mut rx, 2, 0);
        assert!(buffered_again.duplicate && buffered_again.ready.is_empty());
        assert_eq!(cumulative(&buffered_again), 1);
    }

    #[test]
    fn a_reordered_batch_is_buffered_then_drained_in_order() {
        let mut rx = reliable();
        let ahead = recv(&mut rx, 1, 0);
        assert!(ahead.ready.is_empty() && !ahead.duplicate);
        assert_eq!(cumulative(&ahead), 0);
        let filled = recv(&mut rx, 0, 0);
        assert_eq!(marks(&filled.ready), [0, 1]);
        assert_eq!(cumulative(&filled), 2);
        assert_eq!(filled.gaps_skipped, 0);
    }

    #[test]
    fn a_base_advance_skips_the_abandoned_hole_but_keeps_what_was_held() {
        let mut rx = reliable();
        recv(&mut rx, 0, 0);
        recv(&mut rx, 2, 0); // held; 1 and 3 are lost
        let r = recv(&mut rx, 4, 4);
        assert_eq!(marks(&r.ready), [2, 4]);
        assert_eq!(r.gaps_skipped, 2);
        assert_eq!(cumulative(&r), 5);
    }

    #[test]
    fn a_reorder_buffer_overflow_skips_the_gap_and_counts_it() {
        let mut rx = reliable();
        recv(&mut rx, 0, 0);
        // 1 and 2 never arrive; everything after them piles up.
        let cap = REORDER_BUFFER_CAP as u64;
        for seq in 3..3 + cap {
            let r = recv(&mut rx, seq, 0);
            assert!(r.ready.is_empty());
            assert_eq!((r.gaps_skipped, cumulative(&r)), (0, 1));
        }
        let r = recv(&mut rx, 3 + cap, 0);
        assert_eq!(marks(&r.ready), (3..=3 + cap as i64).collect::<Vec<_>>());
        assert_eq!(r.gaps_skipped, 2);
        assert_eq!(cumulative(&r), 4 + cap);
    }

    #[test]
    fn unacked_batches_back_off_and_are_abandoned_except_the_newest() {
        let config =
            ReliabilityConfig { retransmit_timeout: SimDuration::from_millis(100), max_retries: 2 };
        let mut tx = Streams::new(Some(config));
        assert_eq!(tx.scan_after(), None);
        for mark in 0..2 {
            let sent = header(&tx.send(at(0), PEER, QID, batch(mark)));
            assert_eq!(sent, StreamSeq { seq: mark as u64, base: 0 });
        }
        assert_eq!(tx.scan_after(), Some(config.retransmit_timeout));
        assert!(tx.scan(at(99)).is_empty(), "nothing is overdue yet");

        // Retry 1 at rto, retry 2 after a further 2·rto, both batches each time.
        for due in [100, 300] {
            let resent: Vec<StreamSeq> = tx.scan(at(due)).iter().map(|(_, m)| header(m)).collect();
            assert_eq!(resent, [StreamSeq { seq: 0, base: 0 }, StreamSeq { seq: 1, base: 0 }]);
        }
        // Budget spent, 4·rto later: 0 is abandoned; 1 is the newest, lives
        // on, and advertises the hole through its base.
        for due in [700, 10_000, 100_000] {
            let resent = tx.scan(at(due));
            assert_eq!(resent.len(), 1);
            assert_eq!(resent[0].0, PEER);
            assert_eq!(header(&resent[0].1), StreamSeq { seq: 1, base: 1 });
        }
        tx.on_ack(PEER, QID, 2);
        assert!(tx.scan(at(1_000_000)).is_empty());
        assert_eq!(tx.scan_after(), None);
    }

    #[test]
    fn drop_query_retires_both_directions() {
        let mut s = reliable();
        s.send(at(0), PEER, QID, batch(0));
        s.send(at(0), PEER, QID + 1, batch(0));
        recv(&mut s, 0, 0);
        s.drop_query(QID);
        // The other query's stream still retransmits; QID's is gone.
        let resent = s.scan(at(500));
        assert_eq!(resent.len(), 1);
        assert!(matches!(resent[0].1, NetMsg::Tuples { qid, .. } if qid == QID + 1));
        // Both directions restart from sequence number zero.
        assert_eq!(header(&s.send(at(500), PEER, QID, batch(1))), StreamSeq { seq: 0, base: 0 });
        let r = recv(&mut s, 0, 0);
        assert!(!r.duplicate);
        assert_eq!(marks(&r.ready), [0]);
    }

    #[test]
    fn reliability_off_sends_bare_batches_at_the_legacy_byte_count() {
        let mut s = Streams::new(None);
        let msg = s.send(at(0), PEER, QID, batch(5));
        let NetMsg::Tuples { qid: QID, seq: None, batch: sent } = &msg else {
            panic!("expected an unsequenced batch, got {msg:?}");
        };
        assert_eq!(marks(std::slice::from_ref(sent)), [5]);
        assert_eq!(msg.wire_size(), 16 + batch(5)[0].0.wire_size());
        assert_eq!(s.scan_after(), None);
        assert!(s.scan(at(1_000_000)).is_empty());
    }
}
