//! The peer wire protocol (BEP 3): handshake and length-prefixed messages.
//!
//! Messages are modelled structurally; block payloads are carried *by
//! reference* ([`BlockRef`]) so large simulated transfers never allocate
//! content. [`Message::wire_len`] reports the exact on-wire size (length
//! prefix + id + fields + payload) — the number the links and TCP see.
//! A real byte codec ([`encode`]/[`decode`]) is also provided and is
//! byte-compatible with the BitTorrent specification; the `piece` payload
//! bytes are supplied/returned separately.

use crate::bitfield::Bitfield;
use crate::metainfo::InfoHash;
use crate::peer_id::PeerId;
use simnet::addr::SimAddr;
use std::fmt;

/// Identifies one block (sub-piece): the request/transfer unit. Clients
/// conventionally use 16 KB blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockRef {
    /// Piece index.
    pub piece: u32,
    /// Byte offset within the piece.
    pub offset: u32,
    /// Block length in bytes.
    pub len: u32,
}

/// The conventional block (sub-piece) size: 16 KB.
pub const BLOCK_SIZE: u32 = 16 * 1024;

/// Fixed size of the BitTorrent handshake on the wire.
pub const HANDSHAKE_LEN: u32 = 68;

/// A peer wire message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    /// The 68-byte connection preamble (protocol string, info-hash,
    /// peer-id). Not length-prefixed on the real wire; modelled as a
    /// message for uniformity.
    Handshake {
        /// Swarm being joined.
        info_hash: InfoHash,
        /// The sender's identity.
        peer_id: PeerId,
    },
    /// Zero-length keepalive.
    KeepAlive,
    /// The sender will not fulfil requests.
    Choke,
    /// The sender will fulfil requests.
    Unchoke,
    /// The sender wants pieces the receiver has.
    Interested,
    /// The sender no longer wants anything.
    NotInterested,
    /// The sender completed and verified a piece.
    Have {
        /// The completed piece index.
        index: u32,
    },
    /// The sender's full piece map, sent once after the handshake.
    Bitfield(Bitfield),
    /// Request for one block.
    Request(BlockRef),
    /// One block of data. Payload bytes travel out of band in the
    /// simulation; `wire_len` accounts for them.
    Piece(BlockRef),
    /// Cancels a previous request (endgame).
    Cancel(BlockRef),
    /// Peer exchange: gossips known-good swarm addresses with a
    /// per-entry age (seconds since the sender last verified the
    /// address live). The discovery fallback when the tracker tier is
    /// dark — modelled on ut_pex but carried as a first-class message
    /// (id 20) instead of an extension-protocol envelope.
    Pex {
        /// `(address, age in seconds)` entries, sender-sorted by address.
        peers: Vec<(SimAddr, u32)>,
    },
}

impl Message {
    /// Exact on-wire size in bytes, including the 4-byte length prefix
    /// (or the fixed 68 bytes for the handshake).
    pub fn wire_len(&self) -> u32 {
        match self {
            Message::Handshake { .. } => HANDSHAKE_LEN,
            Message::KeepAlive => 4,
            Message::Choke | Message::Unchoke | Message::Interested | Message::NotInterested => 5,
            Message::Have { .. } => 9,
            Message::Bitfield(bf) => 5 + bf.byte_len(),
            Message::Request(_) | Message::Cancel(_) => 17,
            Message::Piece(b) => 13 + b.len,
            // prefix + id + u32 count + 8 bytes (addr + age) per entry.
            Message::Pex { peers } => 9 + 8 * peers.len() as u32,
        }
    }

    /// True for messages that carry piece payload.
    pub fn is_piece(&self) -> bool {
        matches!(self, Message::Piece(_))
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Message::Handshake { info_hash, peer_id } => {
                write!(f, "handshake({info_hash}, {peer_id})")
            }
            Message::KeepAlive => write!(f, "keepalive"),
            Message::Choke => write!(f, "choke"),
            Message::Unchoke => write!(f, "unchoke"),
            Message::Interested => write!(f, "interested"),
            Message::NotInterested => write!(f, "not-interested"),
            Message::Have { index } => write!(f, "have({index})"),
            Message::Bitfield(bf) => write!(f, "bitfield({}/{})", bf.count(), bf.len()),
            Message::Request(b) => write!(f, "request({}, {}, {})", b.piece, b.offset, b.len),
            Message::Piece(b) => write!(f, "piece({}, {}, {})", b.piece, b.offset, b.len),
            Message::Cancel(b) => write!(f, "cancel({}, {}, {})", b.piece, b.offset, b.len),
            Message::Pex { peers } => write!(f, "pex({} peers)", peers.len()),
        }
    }
}

/// Codec errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes than a complete message.
    Truncated,
    /// Unknown message id.
    UnknownId(u8),
    /// Length prefix inconsistent with the message id.
    BadLength {
        /// Message id whose body had the wrong size.
        id: u8,
        /// The offending declared length.
        len: u32,
    },
    /// Handshake protocol string mismatch.
    BadProtocol,
    /// A bitfield with spare bits set or the wrong byte count.
    BadBitfield,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::UnknownId(id) => write!(f, "unknown message id {id}"),
            WireError::BadLength { id, len } => {
                write!(f, "bad length {len} for message id {id}")
            }
            WireError::BadProtocol => write!(f, "bad handshake protocol string"),
            WireError::BadBitfield => write!(f, "malformed bitfield"),
        }
    }
}

impl std::error::Error for WireError {}

const PROTOCOL: &[u8; 19] = b"BitTorrent protocol";

/// Encodes a handshake to its fixed 68-byte wire form.
pub fn encode_handshake(info_hash: InfoHash, peer_id: PeerId) -> [u8; 68] {
    let mut out = [0u8; 68];
    out[0] = 19;
    out[1..20].copy_from_slice(PROTOCOL);
    // 8 reserved bytes stay zero.
    out[28..48].copy_from_slice(&info_hash.0);
    out[48..68].copy_from_slice(&peer_id.0);
    out
}

/// Decodes a 68-byte handshake.
///
/// # Errors
///
/// [`WireError::Truncated`] if shorter than 68 bytes, or
/// [`WireError::BadProtocol`] on a protocol-string mismatch.
pub fn decode_handshake(buf: &[u8]) -> Result<(InfoHash, PeerId), WireError> {
    if buf.len() < 68 {
        return Err(WireError::Truncated);
    }
    if buf[0] != 19 || &buf[1..20] != PROTOCOL {
        return Err(WireError::BadProtocol);
    }
    let mut ih = [0u8; 20];
    ih.copy_from_slice(&buf[28..48]);
    let mut pid = [0u8; 20];
    pid.copy_from_slice(&buf[48..68]);
    Ok((InfoHash(ih), PeerId(pid)))
}

/// Encodes a (non-handshake) message; `payload` supplies the block bytes
/// for `Piece` and must match `BlockRef::len`.
///
/// # Panics
///
/// Panics when encoding a `Piece` whose payload length disagrees with its
/// `BlockRef`, or a `Handshake` (use [`encode_handshake`]).
pub fn encode(msg: &Message, payload: Option<&[u8]>, out: &mut Vec<u8>) {
    fn prefix(out: &mut Vec<u8>, len: u32, id: u8) {
        out.extend_from_slice(&len.to_be_bytes());
        out.push(id);
    }
    match msg {
        Message::Handshake { .. } => panic!("use encode_handshake for handshakes"),
        Message::KeepAlive => out.extend_from_slice(&0u32.to_be_bytes()),
        Message::Choke => prefix(out, 1, 0),
        Message::Unchoke => prefix(out, 1, 1),
        Message::Interested => prefix(out, 1, 2),
        Message::NotInterested => prefix(out, 1, 3),
        Message::Have { index } => {
            prefix(out, 5, 4);
            out.extend_from_slice(&index.to_be_bytes());
        }
        Message::Bitfield(bf) => {
            prefix(out, 1 + bf.byte_len(), 5);
            out.extend_from_slice(bf.as_bytes());
        }
        Message::Request(b) => {
            prefix(out, 13, 6);
            out.extend_from_slice(&b.piece.to_be_bytes());
            out.extend_from_slice(&b.offset.to_be_bytes());
            out.extend_from_slice(&b.len.to_be_bytes());
        }
        Message::Piece(b) => {
            let data = payload.expect("piece payload required");
            assert_eq!(data.len() as u32, b.len, "payload length mismatch");
            prefix(out, 9 + b.len, 7);
            out.extend_from_slice(&b.piece.to_be_bytes());
            out.extend_from_slice(&b.offset.to_be_bytes());
            out.extend_from_slice(data);
        }
        Message::Cancel(b) => {
            prefix(out, 13, 8);
            out.extend_from_slice(&b.piece.to_be_bytes());
            out.extend_from_slice(&b.offset.to_be_bytes());
            out.extend_from_slice(&b.len.to_be_bytes());
        }
        Message::Pex { peers } => {
            let count = u32::try_from(peers.len()).expect("pex entry count fits u32");
            prefix(out, 5 + 8 * count, 20);
            out.extend_from_slice(&count.to_be_bytes());
            for &(addr, age) in peers {
                out.extend_from_slice(&addr.0.to_be_bytes());
                out.extend_from_slice(&age.to_be_bytes());
            }
        }
    }
}

/// Decoded message plus how many input bytes it consumed; `Piece` also
/// yields the payload byte range within the input.
#[derive(Debug, PartialEq, Eq)]
pub struct Decoded {
    /// The message.
    pub message: Message,
    /// Bytes consumed from the input.
    pub consumed: usize,
    /// For `Piece`: `(start, end)` of the payload within the input.
    pub payload: Option<(usize, usize)>,
}

/// Decodes one message from the front of `buf`; `num_pieces` sizes
/// bitfield validation.
///
/// Returns `Ok(None)` when more bytes are needed (stream reassembly).
///
/// # Errors
///
/// Returns a [`WireError`] for malformed input.
pub fn decode(buf: &[u8], num_pieces: u32) -> Result<Option<Decoded>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if buf.len() < 4 + len {
        return Ok(None);
    }
    if len == 0 {
        return Ok(Some(Decoded {
            message: Message::KeepAlive,
            consumed: 4,
            payload: None,
        }));
    }
    let id = buf[4];
    let body = &buf[5..4 + len];
    let read_u32 =
        |b: &[u8], at: usize| u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
    let need = |n: usize| -> Result<(), WireError> {
        if body.len() != n {
            Err(WireError::BadLength {
                id,
                len: len as u32,
            })
        } else {
            Ok(())
        }
    };
    let message = match id {
        0 => {
            need(0)?;
            Message::Choke
        }
        1 => {
            need(0)?;
            Message::Unchoke
        }
        2 => {
            need(0)?;
            Message::Interested
        }
        3 => {
            need(0)?;
            Message::NotInterested
        }
        4 => {
            need(4)?;
            Message::Have {
                index: read_u32(body, 0),
            }
        }
        5 => {
            let bf = Bitfield::from_bytes(body, num_pieces).ok_or(WireError::BadBitfield)?;
            Message::Bitfield(bf)
        }
        6 | 8 => {
            need(12)?;
            let b = BlockRef {
                piece: read_u32(body, 0),
                offset: read_u32(body, 4),
                len: read_u32(body, 8),
            };
            if id == 6 {
                Message::Request(b)
            } else {
                Message::Cancel(b)
            }
        }
        7 => {
            if body.len() < 8 {
                return Err(WireError::BadLength {
                    id,
                    len: len as u32,
                });
            }
            let b = BlockRef {
                piece: read_u32(body, 0),
                offset: read_u32(body, 4),
                len: (body.len() - 8) as u32,
            };
            return Ok(Some(Decoded {
                message: Message::Piece(b),
                consumed: 4 + len,
                payload: Some((13, 4 + len)),
            }));
        }
        20 => {
            if body.len() < 4 {
                return Err(WireError::BadLength {
                    id,
                    len: len as u32,
                });
            }
            let count = read_u32(body, 0) as usize;
            if body.len() != 4 + 8 * count {
                return Err(WireError::BadLength {
                    id,
                    len: len as u32,
                });
            }
            let peers = (0..count)
                .map(|i| {
                    let at = 4 + 8 * i;
                    (SimAddr(read_u32(body, at)), read_u32(body, at + 4))
                })
                .collect();
            Message::Pex { peers }
        }
        other => return Err(WireError::UnknownId(other)),
    };
    Ok(Some(Decoded {
        message,
        consumed: 4 + len,
        payload: None,
    }))
}

/// A message plus its owned `Piece` payload, as yielded by
/// [`MessageReader::next_message`].
pub type ReadMessage = (Message, Option<Vec<u8>>);

/// A streaming decoder: feed arbitrary byte chunks (as TCP delivers
/// them), pop complete messages. Payload bytes of `Piece` messages are
/// returned owned.
#[derive(Debug, Default)]
pub struct MessageReader {
    buf: Vec<u8>,
    num_pieces: u32,
}

impl MessageReader {
    /// Creates a reader; `num_pieces` sizes bitfield validation.
    pub fn new(num_pieces: u32) -> Self {
        MessageReader {
            buf: Vec::new(),
            num_pieces,
        }
    }

    /// Appends newly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete message, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the stream is malformed; the reader is
    /// then poisoned (callers should drop the connection, as real clients
    /// do).
    pub fn next_message(&mut self) -> Result<Option<ReadMessage>, WireError> {
        match decode(&self.buf, self.num_pieces)? {
            None => Ok(None),
            Some(d) => {
                let payload = d.payload.map(|(s, e)| self.buf[s..e].to_vec());
                self.buf.drain(..d.consumed);
                Ok(Some((d.message, payload)))
            }
        }
    }
}

use simnet::snapshot::{snap_enum, snap_struct};

snap_struct!(BlockRef {
    piece,
    offset,
    len,
});

snap_enum!(Message {
    0 => Handshake { info_hash, peer_id },
    1 => KeepAlive,
    2 => Choke,
    3 => Unchoke,
    4 => Interested,
    5 => NotInterested,
    6 => Have { index },
    7 => Bitfield(bits),
    8 => Request(block),
    9 => Piece(block),
    10 => Cancel(block),
    11 => Pex { peers },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message, payload: Option<&[u8]>, num_pieces: u32) {
        let mut buf = Vec::new();
        encode(&msg, payload, &mut buf);
        assert_eq!(buf.len() as u32, msg.wire_len(), "wire_len for {msg}");
        let dec = decode(&buf, num_pieces).unwrap().expect("complete");
        assert_eq!(dec.message, msg);
        assert_eq!(dec.consumed, buf.len());
        if let Some((s, e)) = dec.payload {
            assert_eq!(&buf[s..e], payload.unwrap());
        }
    }

    #[test]
    fn roundtrips_all_messages() {
        roundtrip(Message::KeepAlive, None, 8);
        roundtrip(Message::Choke, None, 8);
        roundtrip(Message::Unchoke, None, 8);
        roundtrip(Message::Interested, None, 8);
        roundtrip(Message::NotInterested, None, 8);
        roundtrip(Message::Have { index: 1234 }, None, 8);
        let mut bf = Bitfield::new(8);
        bf.set(2);
        roundtrip(Message::Bitfield(bf), None, 8);
        let b = BlockRef {
            piece: 3,
            offset: 16384,
            len: 5,
        };
        roundtrip(Message::Request(b), None, 8);
        roundtrip(Message::Cancel(b), None, 8);
        roundtrip(Message::Piece(b), Some(b"hello"), 8);
        roundtrip(Message::Pex { peers: Vec::new() }, None, 8);
        roundtrip(
            Message::Pex {
                peers: vec![(SimAddr(11), 0), (SimAddr(42), 600)],
            },
            None,
            8,
        );
    }

    #[test]
    fn pex_rejects_inconsistent_count() {
        // Declares 2 entries but carries bytes for 1.
        let mut buf = Vec::new();
        encode(
            &Message::Pex {
                peers: vec![(SimAddr(7), 30)],
            },
            None,
            &mut buf,
        );
        buf[8] = 2; // count low byte (big-endian u32 at offset 5..9)
        assert!(matches!(
            decode(&buf, 8),
            Err(WireError::BadLength { id: 20, .. })
        ));
    }

    #[test]
    fn handshake_roundtrip() {
        let ih = InfoHash([7u8; 20]);
        let pid = PeerId([9u8; 20]);
        let bytes = encode_handshake(ih, pid);
        assert_eq!(bytes.len() as u32, HANDSHAKE_LEN);
        let (ih2, pid2) = decode_handshake(&bytes).unwrap();
        assert_eq!(ih2, ih);
        assert_eq!(pid2, pid);
    }

    #[test]
    fn handshake_rejects_bad_protocol() {
        let mut bytes = encode_handshake(InfoHash([0; 20]), PeerId([0; 20]));
        bytes[3] ^= 0xFF;
        assert_eq!(decode_handshake(&bytes), Err(WireError::BadProtocol));
        assert_eq!(decode_handshake(&bytes[..10]), Err(WireError::Truncated));
    }

    #[test]
    fn partial_input_returns_none() {
        let mut buf = Vec::new();
        encode(&Message::Have { index: 5 }, None, &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode(&buf[..cut], 8).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn rejects_unknown_id_and_bad_lengths() {
        // id 99 with empty body.
        let buf = [0, 0, 0, 1, 99];
        assert_eq!(decode(&buf, 8), Err(WireError::UnknownId(99)));
        // `have` with a 2-byte body.
        let buf = [0, 0, 0, 3, 4, 1, 2];
        assert!(matches!(
            decode(&buf, 8),
            Err(WireError::BadLength { id: 4, .. })
        ));
    }

    #[test]
    fn wire_len_matches_spec_sizes() {
        assert_eq!(Message::KeepAlive.wire_len(), 4);
        assert_eq!(Message::Choke.wire_len(), 5);
        assert_eq!(Message::Have { index: 0 }.wire_len(), 9);
        let b = BlockRef {
            piece: 0,
            offset: 0,
            len: BLOCK_SIZE,
        };
        assert_eq!(Message::Request(b).wire_len(), 17);
        assert_eq!(Message::Piece(b).wire_len(), 13 + BLOCK_SIZE);
    }

    #[test]
    fn message_reader_reassembles_byte_by_byte() {
        let mut wire = Vec::new();
        encode(&Message::Interested, None, &mut wire);
        let b = BlockRef {
            piece: 1,
            offset: 0,
            len: 4,
        };
        encode(&Message::Piece(b), Some(b"data"), &mut wire);
        encode(&Message::Have { index: 9 }, None, &mut wire);

        let mut reader = MessageReader::new(16);
        let mut got = Vec::new();
        for byte in wire {
            reader.feed(&[byte]);
            while let Some((msg, payload)) = reader.next_message().unwrap() {
                got.push((msg, payload));
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, Message::Interested);
        assert_eq!(got[1].0, Message::Piece(b));
        assert_eq!(got[1].1.as_deref(), Some(&b"data"[..]));
        assert_eq!(got[2].0, Message::Have { index: 9 });
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn message_reader_reports_stream_corruption() {
        let mut reader = MessageReader::new(8);
        reader.feed(&[0, 0, 0, 1, 99]); // unknown id
        assert_eq!(reader.next_message(), Err(WireError::UnknownId(99)));
    }

    #[test]
    fn two_messages_stream_decode() {
        let mut buf = Vec::new();
        encode(&Message::Interested, None, &mut buf);
        encode(&Message::Have { index: 3 }, None, &mut buf);
        let first = decode(&buf, 8).unwrap().unwrap();
        assert_eq!(first.message, Message::Interested);
        let second = decode(&buf[first.consumed..], 8).unwrap().unwrap();
        assert_eq!(second.message, Message::Have { index: 3 });
    }
}
