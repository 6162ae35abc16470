//! Piece/block download bookkeeping.
//!
//! Pieces are subdivided into 16 KB blocks, the request/transfer unit.
//! [`TorrentProgress`] tracks which blocks have arrived, which are in
//! flight to which connection, piece completion, and supports request
//! timeout/requeue, per-connection cancellation (a mobile peer vanishing),
//! and endgame duplication.

use crate::bitfield::Bitfield;
use crate::wire::{BlockRef, BLOCK_SIZE};
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Connection key type (matches `choker::ConnKey`).
pub type ConnKey = u64;

#[derive(Debug, Clone)]
struct PartialPiece {
    /// Per-block received flags.
    received: Vec<bool>,
    received_count: u32,
    /// Outstanding requests per block: connections asked and when.
    in_flight: HashMap<u32, Vec<(ConnKey, SimTime)>>,
}

/// Outcome of an arriving block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockOutcome {
    /// New data; `completed_piece` is set when it finished its piece.
    Progress {
        /// The piece this block completed, if any.
        completed_piece: Option<u32>,
    },
    /// The block had already been received (endgame duplicate).
    Duplicate,
}

/// Download-state bookkeeping for one torrent.
#[derive(Debug, Clone)]
pub struct TorrentProgress {
    piece_length: u32,
    length: u64,
    num_pieces: u32,
    block_size: u32,
    have: Bitfield,
    partial: BTreeMap<u32, PartialPiece>,
    bytes_have: u64,
    /// Allow duplicate in-flight requests per block in endgame, capped.
    endgame_dup_cap: usize,
}

impl TorrentProgress {
    /// Creates empty progress for a torrent of `length` bytes in pieces of
    /// `piece_length`.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn new(piece_length: u32, length: u64) -> Self {
        Self::with_block_size(piece_length, length, BLOCK_SIZE.min(piece_length))
    }

    /// As [`TorrentProgress::new`] with a custom block size (tests).
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or `block_size > piece_length`.
    pub fn with_block_size(piece_length: u32, length: u64, block_size: u32) -> Self {
        assert!(piece_length > 0 && length > 0 && block_size > 0);
        assert!(block_size <= piece_length, "block larger than piece");
        let num_pieces = length.div_ceil(piece_length as u64) as u32;
        TorrentProgress {
            piece_length,
            length,
            num_pieces,
            block_size,
            have: Bitfield::new(num_pieces),
            partial: BTreeMap::new(),
            bytes_have: 0,
            endgame_dup_cap: 2,
        }
    }

    /// Progress for a peer that already has the whole file (a seed).
    pub fn complete(piece_length: u32, length: u64) -> Self {
        let mut p = Self::new(piece_length, length);
        p.have = Bitfield::full(p.num_pieces);
        p.bytes_have = length;
        p
    }

    /// Number of pieces.
    pub fn num_pieces(&self) -> u32 {
        self.num_pieces
    }

    /// Piece length (bytes); the final piece may be shorter.
    pub fn piece_length(&self) -> u32 {
        self.piece_length
    }

    /// Total torrent length in bytes.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// The verified-piece bitfield.
    pub fn have(&self) -> &Bitfield {
        &self.have
    }

    /// Bytes of completed pieces.
    pub fn bytes_downloaded(&self) -> u64 {
        self.bytes_have
    }

    /// Fraction of the torrent completed, in `[0, 1]`.
    pub fn downloaded_fraction(&self) -> f64 {
        self.bytes_have as f64 / self.length as f64
    }

    /// True when every piece is complete.
    pub fn is_complete(&self) -> bool {
        self.have.is_complete()
    }

    /// Size of piece `index` in bytes.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn piece_size(&self, index: u32) -> u32 {
        assert!(index < self.num_pieces, "piece {index} out of range");
        let start = index as u64 * self.piece_length as u64;
        let end = (start + self.piece_length as u64).min(self.length);
        (end - start) as u32
    }

    /// Number of blocks in piece `index`.
    pub fn blocks_in_piece(&self, index: u32) -> u32 {
        self.piece_size(index).div_ceil(self.block_size)
    }

    /// The `BlockRef` for block `block` of piece `index`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn block_ref(&self, index: u32, block: u32) -> BlockRef {
        let nblocks = self.blocks_in_piece(index);
        assert!(block < nblocks, "block {block} out of range");
        let offset = block * self.block_size;
        let len = (self.piece_size(index) - offset).min(self.block_size);
        BlockRef {
            piece: index,
            offset,
            len,
        }
    }

    fn partial_entry(&mut self, index: u32) -> &mut PartialPiece {
        let nblocks = self.blocks_in_piece(index) as usize;
        self.partial.entry(index).or_insert_with(|| PartialPiece {
            received: vec![false; nblocks],
            received_count: 0,
            in_flight: HashMap::new(),
        })
    }

    /// Pieces currently partially downloaded or requested (in progress),
    /// in ascending index order.
    pub fn partial_pieces(&self) -> impl Iterator<Item = u32> + '_ {
        self.partial.keys().copied()
    }

    /// True when every missing block of `index` already has at least one
    /// outstanding request.
    pub fn fully_requested(&self, index: u32) -> bool {
        if self.have.get(index) {
            return true;
        }
        match self.partial.get(&index) {
            None => false,
            Some(p) => (0..p.received.len() as u32)
                .all(|b| p.received[b as usize] || p.in_flight.contains_key(&b)),
        }
    }

    /// True when all missing blocks of the whole torrent are in flight —
    /// the endgame condition.
    pub fn in_endgame(&self) -> bool {
        self.have
            .iter_unset()
            .all(|piece| self.fully_requested(piece))
    }

    /// Picks up to `max` blocks of piece `index` to request on `conn`,
    /// marking them in flight. With `allow_duplicates` (endgame), blocks
    /// already in flight elsewhere may be re-requested up to the dup cap;
    /// the same connection is never asked twice for one block.
    pub fn take_blocks(
        &mut self,
        index: u32,
        conn: ConnKey,
        now: SimTime,
        max: usize,
        allow_duplicates: bool,
    ) -> Vec<BlockRef> {
        if max == 0 || self.have.get(index) {
            return Vec::new();
        }
        let dup_cap = self.endgame_dup_cap;
        let nblocks = self.blocks_in_piece(index);
        let entry = self.partial_entry(index);
        let mut out = Vec::new();
        for b in 0..nblocks {
            if out.len() >= max {
                break;
            }
            if entry.received[b as usize] {
                continue;
            }
            let flights = entry.in_flight.entry(b).or_default();
            let already_here = flights.iter().any(|(c, _)| *c == conn);
            if already_here {
                continue;
            }
            if !flights.is_empty() && (!allow_duplicates || flights.len() >= dup_cap) {
                continue;
            }
            flights.push((conn, now));
            out.push((index, b));
        }
        // Clean up empty vecs created for received blocks.
        let to_refs: Vec<BlockRef> = out.iter().map(|&(p, b)| self.block_ref(p, b)).collect();
        to_refs
    }

    /// Registers an arrived block from `conn`.
    ///
    /// Returns whether it made progress and (maybe) completed its piece.
    /// Unknown or out-of-range blocks count as duplicates.
    pub fn on_block(&mut self, block: BlockRef, _conn: ConnKey) -> BlockOutcome {
        if block.piece >= self.num_pieces || self.have.get(block.piece) {
            return BlockOutcome::Duplicate;
        }
        if !block.offset.is_multiple_of(self.block_size) {
            return BlockOutcome::Duplicate;
        }
        let b = block.offset / self.block_size;
        let nblocks = self.blocks_in_piece(block.piece);
        if b >= nblocks {
            return BlockOutcome::Duplicate;
        }
        let piece_size = self.piece_size(block.piece);
        let entry = self.partial_entry(block.piece);
        if entry.received[b as usize] {
            return BlockOutcome::Duplicate;
        }
        entry.received[b as usize] = true;
        entry.received_count += 1;
        entry.in_flight.remove(&b);
        if entry.received_count == nblocks {
            self.partial.remove(&block.piece);
            self.have.set(block.piece);
            self.bytes_have += piece_size as u64;
            BlockOutcome::Progress {
                completed_piece: Some(block.piece),
            }
        } else {
            BlockOutcome::Progress {
                completed_piece: None,
            }
        }
    }

    /// Other connections still waiting on `block` (for endgame `cancel`).
    pub fn other_requesters(&self, block: BlockRef, conn: ConnKey) -> Vec<ConnKey> {
        let b = block.offset / self.block_size;
        self.partial
            .get(&block.piece)
            .and_then(|p| p.in_flight.get(&b))
            .map(|v| v.iter().map(|(c, _)| *c).filter(|c| *c != conn).collect())
            .unwrap_or_default()
    }

    /// Drops all in-flight requests on `conn` (connection died); the blocks
    /// become requestable again.
    pub fn cancel_conn(&mut self, conn: ConnKey) -> usize {
        let mut freed = 0;
        for p in self.partial.values_mut() {
            p.in_flight.retain(|_, flights| {
                let before = flights.len();
                flights.retain(|(c, _)| *c != conn);
                freed += before - flights.len();
                !flights.is_empty()
            });
        }
        freed
    }

    /// Expires requests older than `timeout`, freeing their blocks.
    /// Returns `(conn, block)` pairs that timed out.
    pub fn expire_requests(
        &mut self,
        now: SimTime,
        timeout: SimDuration,
    ) -> Vec<(ConnKey, BlockRef)> {
        let mut expired = Vec::new();
        let block_size = self.block_size;
        let mut refs: Vec<(u32, u32, ConnKey)> = Vec::new();
        for (&piece, p) in &mut self.partial {
            p.in_flight.retain(|&b, flights| {
                flights.retain(|&(c, at)| {
                    if now.saturating_since(at) > timeout {
                        refs.push((piece, b, c));
                        false
                    } else {
                        true
                    }
                });
                !flights.is_empty()
            });
        }
        // `refs` accumulates in `in_flight`'s hash-map iteration order;
        // sort so the caller's requeue order is identical across runs and
        // across snapshot restores (which canonicalise map layouts).
        refs.sort_unstable();
        for (piece, b, c) in refs {
            let offset = b * block_size;
            // Reconstruct the ref without re-borrowing partials.
            let start = piece as u64 * self.piece_length as u64;
            let psize = ((start + self.piece_length as u64).min(self.length) - start) as u32;
            let len = (psize - offset).min(block_size);
            expired.push((c, BlockRef { piece, offset, len }));
        }
        expired
    }

    /// Marks a whole piece as already downloaded (scenario construction:
    /// e.g. giving two leeches complementary halves of a file).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn mark_piece_complete(&mut self, index: u32) {
        assert!(index < self.num_pieces, "piece {index} out of range");
        if !self.have.get(index) {
            self.have.set(index);
            self.bytes_have += self.piece_size(index) as u64;
            self.partial.remove(&index);
        }
    }

    /// Drops every in-flight request record. Call when resuming progress
    /// in a fresh client after task re-initiation: the old connection keys
    /// are meaningless and would otherwise pin blocks as requested forever.
    pub fn clear_in_flight(&mut self) {
        self.partial.retain(|_, p| {
            p.in_flight.clear();
            // Keep only pieces that actually hold received blocks.
            p.received_count > 0
        });
    }

    /// Count of blocks currently in flight (unique requests, duplicates
    /// counted individually).
    pub fn in_flight_total(&self) -> usize {
        self.partial
            .values()
            .flat_map(|p| p.in_flight.values())
            .map(|v| v.len())
            .sum()
    }
}

use simnet::snapshot::snap_struct;

snap_struct!(PartialPiece {
    received,
    received_count,
    in_flight,
});

snap_struct!(TorrentProgress {
    piece_length,
    length,
    num_pieces,
    block_size,
    have,
    partial,
    bytes_have,
    endgame_dup_cap,
});

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 pieces of 32 bytes (last short: 100 total), 16-byte blocks.
    fn progress() -> TorrentProgress {
        TorrentProgress::with_block_size(32, 100, 16)
    }

    #[test]
    fn geometry() {
        let p = progress();
        assert_eq!(p.num_pieces(), 4);
        assert_eq!(p.piece_size(0), 32);
        assert_eq!(p.piece_size(3), 4, "last piece short");
        assert_eq!(p.blocks_in_piece(0), 2);
        assert_eq!(p.blocks_in_piece(3), 1);
        assert_eq!(p.block_ref(3, 0).len, 4);
    }

    #[test]
    fn take_blocks_marks_in_flight() {
        let mut p = progress();
        let t = SimTime::ZERO;
        let blocks = p.take_blocks(0, 1, t, 10, false);
        assert_eq!(blocks.len(), 2);
        // Second connection gets nothing without endgame.
        assert!(p.take_blocks(0, 2, t, 10, false).is_empty());
        assert!(p.fully_requested(0));
        assert_eq!(p.in_flight_total(), 2);
    }

    #[test]
    fn blocks_complete_pieces() {
        let mut p = progress();
        let t = SimTime::ZERO;
        let blocks = p.take_blocks(0, 1, t, 10, false);
        let first = p.on_block(blocks[0], 1);
        assert_eq!(
            first,
            BlockOutcome::Progress {
                completed_piece: None
            }
        );
        let second = p.on_block(blocks[1], 1);
        assert_eq!(
            second,
            BlockOutcome::Progress {
                completed_piece: Some(0)
            }
        );
        assert!(p.have().get(0));
        assert_eq!(p.bytes_downloaded(), 32);
        assert!(!p.is_complete());
    }

    #[test]
    fn duplicates_are_flagged() {
        let mut p = progress();
        let t = SimTime::ZERO;
        let blocks = p.take_blocks(3, 1, t, 10, false);
        assert_eq!(
            p.on_block(blocks[0], 1),
            BlockOutcome::Progress {
                completed_piece: Some(3)
            }
        );
        assert_eq!(p.on_block(blocks[0], 2), BlockOutcome::Duplicate);
        // Garbage refs are duplicates, not panics.
        assert_eq!(
            p.on_block(
                BlockRef {
                    piece: 99,
                    offset: 0,
                    len: 16
                },
                1
            ),
            BlockOutcome::Duplicate
        );
        assert_eq!(
            p.on_block(
                BlockRef {
                    piece: 0,
                    offset: 7,
                    len: 16
                },
                1
            ),
            BlockOutcome::Duplicate,
            "misaligned offset"
        );
    }

    #[test]
    fn endgame_allows_bounded_duplicates() {
        let mut p = progress();
        let t = SimTime::ZERO;
        let b1 = p.take_blocks(3, 1, t, 10, false);
        assert_eq!(b1.len(), 1);
        // Endgame: another conn may duplicate, up to the cap of 2 total.
        let b2 = p.take_blocks(3, 2, t, 10, true);
        assert_eq!(b2, b1);
        let b3 = p.take_blocks(3, 3, t, 10, true);
        assert!(b3.is_empty(), "dup cap reached");
        // Same conn never duplicates its own request.
        let again = p.take_blocks(3, 1, t, 10, true);
        assert!(again.is_empty());
        // Completion reports the other requester for cancelling.
        let others = p.other_requesters(b1[0], 1);
        assert_eq!(others, vec![2]);
    }

    #[test]
    fn endgame_detection() {
        let mut p = progress();
        let t = SimTime::ZERO;
        assert!(!p.in_endgame());
        for piece in 0..4 {
            p.take_blocks(piece, 1, t, 10, false);
        }
        assert!(p.in_endgame());
    }

    #[test]
    fn cancel_conn_requeues_blocks() {
        let mut p = progress();
        let t = SimTime::ZERO;
        p.take_blocks(0, 1, t, 10, false);
        assert!(p.fully_requested(0));
        let freed = p.cancel_conn(1);
        assert_eq!(freed, 2);
        assert!(!p.fully_requested(0));
        // Another connection can now request them.
        assert_eq!(p.take_blocks(0, 2, t, 10, false).len(), 2);
    }

    #[test]
    fn request_timeout_frees_blocks() {
        let mut p = progress();
        p.take_blocks(0, 1, SimTime::ZERO, 10, false);
        let expired = p.expire_requests(SimTime::from_secs(100), SimDuration::from_secs(60));
        assert_eq!(expired.len(), 2);
        assert!(expired.iter().all(|(c, _)| *c == 1));
        assert!(!p.fully_requested(0));
        // Requests inside the window survive.
        p.take_blocks(0, 2, SimTime::from_secs(100), 1, false);
        let expired = p.expire_requests(SimTime::from_secs(130), SimDuration::from_secs(60));
        assert!(expired.is_empty());
    }

    #[test]
    fn seed_progress_is_complete() {
        let p = TorrentProgress::complete(32, 100);
        assert!(p.is_complete());
        assert_eq!(p.bytes_downloaded(), 100);
        assert_eq!(p.downloaded_fraction(), 1.0);
    }

    #[test]
    fn take_blocks_respects_max() {
        let mut p = TorrentProgress::with_block_size(64, 64, 16);
        let got = p.take_blocks(0, 1, SimTime::ZERO, 3, false);
        assert_eq!(got.len(), 3);
        let rest = p.take_blocks(0, 1, SimTime::ZERO, 10, false);
        assert_eq!(rest.len(), 1, "remaining block of 4");
    }
}
