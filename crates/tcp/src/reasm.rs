//! Receive-side reassembly.
//!
//! Tracks which byte ranges have arrived, delivers the in-order prefix to
//! the application, and reports whether an arriving segment was in order —
//! the signal that decides between a cumulative ACK and a *duplicate* ACK.
//!
//! Sequence numbers wrap at 2³²; internally everything is converted to a
//! monotone `u64` stream offset anchored at the initial `rcv.nxt`, which
//! removes wraparound from the interval logic entirely.

use crate::seq::SeqNum;
use std::collections::BTreeMap;

/// Effect of an arriving data segment on the receive buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataOutcome {
    /// Bytes newly delivered in order to the application by this segment
    /// (includes previously buffered out-of-order data it unlocked).
    pub delivered: u64,
    /// True when the segment did *not* advance `rcv.nxt` — either a hole
    /// precedes it or it was entirely duplicate — i.e. a DUPACK is due.
    pub out_of_order: bool,
}

/// Reassembly state for one direction of a connection.
#[derive(Debug, Clone)]
pub struct Reassembly {
    /// Next expected sequence number (what we ACK).
    rcv_nxt: SeqNum,
    /// Monotone stream offset of `rcv_nxt`.
    nxt_offset: u64,
    /// Out-of-order intervals, as `start -> end` stream offsets (end
    /// exclusive), non-overlapping and non-adjacent.
    ooo: BTreeMap<u64, u64>,
    /// Total bytes delivered in order.
    delivered_total: u64,
}

impl Reassembly {
    /// Creates reassembly state expecting `initial` as the first byte.
    pub fn new(initial: SeqNum) -> Self {
        Reassembly {
            rcv_nxt: initial,
            nxt_offset: 0,
            ooo: BTreeMap::new(),
            delivered_total: 0,
        }
    }

    /// The cumulative acknowledgement to advertise.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Total in-order bytes delivered so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Bytes buffered out of order (waiting behind a hole).
    pub fn buffered_ooo(&self) -> u64 {
        self.ooo.iter().map(|(&s, &e)| e - s).sum()
    }

    /// Processes a data segment `[seq, seq+len)`.
    ///
    /// `len == 0` (a pure ACK) never counts as out of order.
    pub fn on_data(&mut self, seq: SeqNum, len: u32) -> DataOutcome {
        if len == 0 {
            return DataOutcome {
                delivered: 0,
                out_of_order: false,
            };
        }
        // Convert to stream offsets. A segment at or before rcv_nxt has a
        // relative distance that, interpreted signed, is <= 0.
        let rel = self.rcv_nxt.distance_to(seq) as i32;
        let start = if rel >= 0 {
            self.nxt_offset + rel as u64
        } else {
            // Starts before rcv_nxt: the overlap before nxt is duplicate.
            let behind = (-rel) as u64;
            if behind >= len as u64 {
                // Entirely old data: duplicate -> dupack.
                return DataOutcome {
                    delivered: 0,
                    out_of_order: true,
                };
            }
            self.nxt_offset
        };
        let end = if rel >= 0 {
            start + len as u64
        } else {
            self.nxt_offset + (len as u64 - (-rel) as u64)
        };

        self.insert_interval(start, end);

        // Drain the in-order prefix.
        let mut delivered = 0u64;
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.nxt_offset {
                break;
            }
            self.ooo.pop_first();
            if e > self.nxt_offset {
                delivered += e - self.nxt_offset;
                self.nxt_offset = e;
            }
        }
        if delivered > 0 {
            // Delivered fits in u32 per segment batch by construction
            // (bounded by the receive window), but accumulate as u64.
            self.rcv_nxt = self.rcv_nxt.add(delivered as u32);
            self.delivered_total += delivered;
        }
        DataOutcome {
            delivered,
            out_of_order: delivered == 0,
        }
    }

    /// Consumes the sequence number occupied by an in-order FIN.
    ///
    /// The caller must have verified the FIN is at `rcv_nxt`.
    pub fn on_fin(&mut self) {
        debug_assert!(
            self.ooo.is_empty(),
            "in-order FIN implies no out-of-order data remains"
        );
        self.rcv_nxt = self.rcv_nxt.add(1);
        self.nxt_offset += 1;
    }

    /// Inserts `[start, end)` into the interval set, merging overlaps.
    fn insert_interval(&mut self, start: u64, end: u64) {
        debug_assert!(start < end);
        let mut new_start = start;
        let mut new_end = end;
        // Merge with a predecessor that overlaps or touches.
        if let Some((&s, &e)) = self.ooo.range(..=start).next_back() {
            if e >= start {
                new_start = s;
                new_end = new_end.max(e);
                self.ooo.remove(&s);
            }
        }
        // Merge with successors.
        while let Some((&s, &e)) = self.ooo.range(new_start..).next() {
            if s > new_end {
                break;
            }
            new_end = new_end.max(e);
            self.ooo.remove(&s);
        }
        self.ooo.insert(new_start, new_end);
    }
}

simnet::snap_struct!(Reassembly {
    rcv_nxt,
    nxt_offset,
    ooo,
    delivered_total,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut r = Reassembly::new(SeqNum(100));
        let out = r.on_data(SeqNum(100), 50);
        assert_eq!(out.delivered, 50);
        assert!(!out.out_of_order);
        assert_eq!(r.rcv_nxt(), SeqNum(150));
        assert_eq!(r.delivered_total(), 50);
    }

    #[test]
    fn gap_buffers_and_flags_ooo() {
        let mut r = Reassembly::new(SeqNum(0));
        let out = r.on_data(SeqNum(100), 50);
        assert_eq!(out.delivered, 0);
        assert!(out.out_of_order);
        assert_eq!(r.rcv_nxt(), SeqNum(0));
        assert_eq!(r.buffered_ooo(), 50);
        // Filling the hole delivers everything.
        let out = r.on_data(SeqNum(0), 100);
        assert_eq!(out.delivered, 150);
        assert!(!out.out_of_order);
        assert_eq!(r.rcv_nxt(), SeqNum(150));
        assert_eq!(r.buffered_ooo(), 0);
    }

    #[test]
    fn duplicate_data_is_ooo() {
        let mut r = Reassembly::new(SeqNum(0));
        r.on_data(SeqNum(0), 100);
        let out = r.on_data(SeqNum(0), 100);
        assert_eq!(out.delivered, 0);
        assert!(out.out_of_order);
        assert_eq!(r.delivered_total(), 100);
    }

    #[test]
    fn partial_overlap_delivers_new_suffix() {
        let mut r = Reassembly::new(SeqNum(0));
        r.on_data(SeqNum(0), 100);
        let out = r.on_data(SeqNum(50), 100);
        assert_eq!(out.delivered, 50);
        assert!(!out.out_of_order);
        assert_eq!(r.rcv_nxt(), SeqNum(150));
    }

    #[test]
    fn interval_merging() {
        let mut r = Reassembly::new(SeqNum(0));
        r.on_data(SeqNum(100), 50); // [100,150)
        r.on_data(SeqNum(200), 50); // [200,250)
        r.on_data(SeqNum(150), 50); // bridges them
        assert_eq!(r.buffered_ooo(), 150);
        let out = r.on_data(SeqNum(0), 100);
        assert_eq!(out.delivered, 250);
    }

    #[test]
    fn works_across_seq_wrap() {
        let start = SeqNum(u32::MAX - 49);
        let mut r = Reassembly::new(start);
        let out = r.on_data(start, 100); // crosses the wrap point
        assert_eq!(out.delivered, 100);
        assert_eq!(r.rcv_nxt(), SeqNum(50));
        let out = r.on_data(SeqNum(50), 10);
        assert_eq!(out.delivered, 10);
    }

    #[test]
    fn zero_length_is_not_ooo() {
        let mut r = Reassembly::new(SeqNum(0));
        let out = r.on_data(SeqNum(0), 0);
        assert_eq!(out.delivered, 0);
        assert!(!out.out_of_order);
    }
}
