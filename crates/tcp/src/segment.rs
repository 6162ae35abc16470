//! TCP segment representation.
//!
//! Segments carry a *byte count* rather than actual payload bytes: the
//! simulation models data as opaque in-order octets, and the framing layer
//! above TCP reconstitutes application messages from delivered byte counts.
//! Everything that matters to the paper — on-wire length, piggybacked vs.
//! pure ACKs, DUPACK identification — is preserved exactly.

use crate::seq::SeqNum;
use std::fmt;

/// TCP/IP header overhead per segment, in bytes (20 TCP + 20 IP).
pub const HEADER_BYTES: u32 = 40;

/// Control-flag bits carried by a segment.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// Synchronize: connection setup.
    pub syn: bool,
    /// Acknowledgement field is valid. Per the TCP specification (noted in
    /// the paper, §3.2 fn. 2) every segment except the initial SYN carries
    /// a valid ACK.
    pub ack: bool,
    /// Finish: sender has no more data.
    pub fin: bool,
    /// Reset: abort the connection.
    pub rst: bool,
}

impl fmt::Debug for SegFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        write!(f, "[{}]", parts.join("|"))
    }
}

/// One TCP segment on the wire.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Cumulative acknowledgement: the next byte expected from the peer.
    pub ack: SeqNum,
    /// Control flags.
    pub flags: SegFlags,
    /// Payload length in bytes (zero for pure ACKs and control segments).
    pub payload: u32,
    /// Advertised receive window in bytes.
    pub window: u32,
}

impl Segment {
    /// Total on-wire size: headers plus payload. This is what the link and
    /// wireless BER models see — the reason a piggybacked ACK is more
    /// likely to be lost than a pure one.
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + self.payload
    }

    /// A pure ACK: acknowledgement with no payload and no SYN/FIN/RST.
    pub fn is_pure_ack(&self) -> bool {
        self.flags.ack && self.payload == 0 && !self.flags.syn && !self.flags.fin && !self.flags.rst
    }

    /// A data segment carrying a (piggybacked) acknowledgement.
    pub fn is_piggybacked(&self) -> bool {
        self.flags.ack && self.payload > 0
    }

    /// Sequence number of the byte after this segment's payload (and
    /// SYN/FIN, which each occupy one sequence number).
    pub fn seq_end(&self) -> SeqNum {
        let mut n = self.payload;
        if self.flags.syn {
            n += 1;
        }
        if self.flags.fin {
            n += 1;
        }
        self.seq.add(n)
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Segment {{ seq={} ack={} {:?} len={} win={} }}",
            self.seq, self.ack, self.flags, self.payload, self.window
        )
    }
}

impl simnet::snapshot::Snap for SegFlags {
    fn snap(&self, w: &mut simnet::snapshot::SnapWriter) {
        w.put_u8(u8::from(self.syn) | u8::from(self.ack) << 1 | u8::from(self.fin) << 2 | u8::from(self.rst) << 3);
    }
    fn unsnap(r: &mut simnet::snapshot::SnapReader<'_>) -> Self {
        let b = r.get_u8();
        SegFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        }
    }
}

simnet::snap_struct!(Segment {
    seq,
    ack,
    flags,
    payload,
    window,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn data_seg(payload: u32) -> Segment {
        Segment {
            seq: SeqNum(1000),
            ack: SeqNum(500),
            flags: SegFlags {
                ack: true,
                ..Default::default()
            },
            payload,
            window: 65535,
        }
    }

    #[test]
    fn wire_size_includes_headers() {
        assert_eq!(data_seg(1460).wire_bytes(), 1500);
        assert_eq!(data_seg(0).wire_bytes(), 40);
    }

    #[test]
    fn pure_ack_classification() {
        assert!(data_seg(0).is_pure_ack());
        assert!(!data_seg(100).is_pure_ack());
        assert!(data_seg(100).is_piggybacked());
        let mut syn = data_seg(0);
        syn.flags.syn = true;
        assert!(!syn.is_pure_ack());
    }

    #[test]
    fn seq_end_counts_flags() {
        let mut s = data_seg(10);
        assert_eq!(s.seq_end(), SeqNum(1010));
        s.flags.fin = true;
        assert_eq!(s.seq_end(), SeqNum(1011));
        s.flags.syn = true;
        assert_eq!(s.seq_end(), SeqNum(1012));
    }

    #[test]
    fn debug_format_mentions_flags() {
        let s = data_seg(5);
        let d = format!("{s:?}");
        assert!(d.contains("ACK"));
        assert!(d.contains("len=5"));
    }
}
