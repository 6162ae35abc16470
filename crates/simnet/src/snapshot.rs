//! Deterministic world snapshots.
//!
//! A snapshot is a versioned, little-endian binary blob capturing the
//! *dynamic* state of a simulation world — clocks, event queues (the
//! wheel slab verbatim, so outstanding [`crate::event::EventToken`]s
//! stay valid), RNG streams, protocol state machines, and metric cells.
//! Static structure (topology, torrent specs, config closures, piece
//! pickers) is deliberately excluded: a blob is restored *onto* a world
//! freshly built by the same scenario code, overwriting its dynamic
//! state. The contract is byte-identity: `restore(save(w))` followed by
//! running to time `T` produces exactly the bytes that running `w`
//! straight through to `T` would have — including a second `save`.
//!
//! The format has no self-describing field tags; it is a fixed field
//! order per type, guarded by [`FORMAT_VERSION`] in the header and
//! per-section markers that catch writer/reader drift early. Floats are
//! stored as IEEE-754 bit patterns ([`f64::to_bits`]), never formatted,
//! so round-trips are exact.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Magic bytes opening every snapshot blob.
pub const MAGIC: &[u8; 8] = b"WP2PSNAP";

/// Bumped on any change to the field order or encoding of any
/// [`Snap`] implementation. Restoring a blob with a mismatched version
/// fails loudly instead of misinterpreting bytes.
pub const FORMAT_VERSION: u32 = 2;

/// Serializer: appends fixed-width little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A writer with the versioned header already emitted. `world_tag`
    /// distinguishes blob kinds (flow vs. packet world) so a blob cannot
    /// be restored into the wrong world type.
    pub fn new(world_tag: u32) -> Self {
        let mut w = SnapWriter { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(world_tag);
        w
    }

    /// A bare writer without a header (for nested structures serialized
    /// on their own, e.g. metric dumps embedded in a world blob).
    pub fn bare() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a section marker. Readers consume it with
    /// [`SnapReader::section`]; a mismatch means the writer and reader
    /// disagree about field order and panics with both names.
    pub fn section(&mut self, name: &str) {
        self.put_u16(0xA5A5);
        self.put_str(name);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Deserializer over a snapshot blob. Every getter panics on truncation
/// or marker mismatch: a malformed blob is a programming error (version
/// skew is caught by the header check), not a recoverable condition.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Opens a blob, validating magic, [`FORMAT_VERSION`], and the world
    /// tag.
    ///
    /// # Panics
    ///
    /// Panics when the header does not match.
    pub fn new(buf: &'a [u8], world_tag: u32) -> Self {
        let mut r = SnapReader { buf, pos: 0 };
        let magic = r.take(MAGIC.len());
        assert_eq!(magic, MAGIC, "not a snapshot blob");
        let version = r.get_u32();
        assert_eq!(
            version, FORMAT_VERSION,
            "snapshot format version mismatch: blob v{version}, reader v{FORMAT_VERSION}"
        );
        let tag = r.get_u32();
        assert_eq!(tag, world_tag, "snapshot is for a different world kind");
        r
    }

    /// A bare reader without a header.
    pub fn bare(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// True when the whole blob has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.pos + n <= self.buf.len(),
            "snapshot truncated at byte {} (wanted {n} more of {})",
            self.pos,
            self.buf.len()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Consumes a section marker written by [`SnapWriter::section`].
    ///
    /// # Panics
    ///
    /// Panics when the next bytes are not the expected marker.
    pub fn section(&mut self, name: &str) {
        let sentinel = self.get_u16();
        assert_eq!(sentinel, 0xA5A5, "expected section marker '{name}'");
        let found = self.get_string();
        assert_eq!(found, name, "section order drift: wanted '{name}'");
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Reads a bool.
    pub fn get_bool(&mut self) -> bool {
        match self.get_u8() {
            0 => false,
            1 => true,
            b => panic!("invalid bool byte {b}"),
        }
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> i64 {
        i64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> usize {
        let v = self.get_u64();
        usize::try_from(v).expect("usize overflow in snapshot")
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    /// Reads a length-prefixed byte string.
    pub fn get_byte_vec(&mut self) -> Vec<u8> {
        let n = self.get_usize();
        self.take(n).to_vec()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> String {
        String::from_utf8(self.get_byte_vec()).expect("snapshot string not UTF-8")
    }
}

/// Types that serialize to / deserialize from a snapshot blob.
///
/// Implementations must write and read the exact same fields in the
/// exact same order; any change is a [`FORMAT_VERSION`] bump. Types
/// with private fields implement this inside their defining module.
pub trait Snap: Sized {
    /// Appends this value's dynamic state.
    fn snap(&self, w: &mut SnapWriter);
    /// Reads a value previously written by [`Snap::snap`].
    fn unsnap(r: &mut SnapReader<'_>) -> Self;
}

macro_rules! impl_snap_scalar {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Snap for $t {
            fn snap(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Self {
                r.$get()
            }
        }
    )*};
}

impl_snap_scalar! {
    u8 => put_u8 / get_u8,
    u16 => put_u16 / get_u16,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    i64 => put_i64 / get_i64,
    usize => put_usize / get_usize,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        r.get_string()
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        if r.get_bool() {
            Some(T::unsnap(r))
        } else {
            None
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let n = r.get_usize();
        (0..n).map(|_| T::unsnap(r)).collect()
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let n = r.get_usize();
        (0..n).map(|_| T::unsnap(r)).collect()
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        (A::unsnap(r), B::unsnap(r))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        (A::unsnap(r), B::unsnap(r), C::unsnap(r))
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let n = r.get_usize();
        (0..n).map(|_| (K::unsnap(r), V::unsnap(r))).collect()
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let n = r.get_usize();
        (0..n).map(|_| T::unsnap(r)).collect()
    }
}

/// Serializes any `HashMap` in sorted key order. Hash maps (std or
/// [`crate::hash::FastHashMap`]) are rebuilt by re-inserting in sorted
/// key order on restore, which makes the restored iteration order a
/// pure function of the blob — the same blob always rebuilds the same
/// map — independent of the insertion history of the saved map.
pub fn snap_hash_map<K, V, S>(
    map: &std::collections::HashMap<K, V, S>,
    w: &mut SnapWriter,
) where
    K: Snap + Ord + Clone,
    V: Snap + Clone,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w.put_usize(entries.len());
    for (k, v) in entries {
        k.snap(w);
        v.snap(w);
    }
}

/// Restores a `HashMap` written by [`snap_hash_map`].
pub fn unsnap_hash_map<K, V, S>(r: &mut SnapReader<'_>) -> std::collections::HashMap<K, V, S>
where
    K: Snap + Eq + std::hash::Hash,
    V: Snap,
    S: std::hash::BuildHasher + Default,
{
    let n = r.get_usize();
    let mut map = std::collections::HashMap::with_capacity_and_hasher(n, S::default());
    for _ in 0..n {
        let k = K::unsnap(r);
        let v = V::unsnap(r);
        map.insert(k, v);
    }
    map
}

impl Snap for crate::time::SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        crate::time::SimTime::from_micros(r.get_u64())
    }
}

impl Snap for crate::time::SimDuration {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        crate::time::SimDuration::from_micros(r.get_u64())
    }
}

impl Snap for crate::addr::NodeId {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        crate::addr::NodeId(r.get_u32())
    }
}

impl Snap for crate::addr::SimAddr {
    fn snap(&self, w: &mut SnapWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        crate::addr::SimAddr(r.get_u32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new(7);
        w.put_u8(0xAB);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.1);
        w.put_f64(f64::NAN);
        w.put_str("hello");
        w.put_bool(true);
        let blob = w.into_bytes();
        let mut r = SnapReader::new(&blob, 7);
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u64(), u64::MAX - 3);
        assert_eq!(r.get_f64(), -0.1);
        assert!(r.get_f64().is_nan());
        assert_eq!(r.get_string(), "hello");
        assert!(r.get_bool());
        assert!(r.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "different world kind")]
    fn wrong_world_tag_is_rejected() {
        let w = SnapWriter::new(1);
        let blob = w.into_bytes();
        let _ = SnapReader::new(&blob, 2);
    }

    #[test]
    #[should_panic(expected = "section order drift")]
    fn section_drift_panics() {
        let mut w = SnapWriter::bare();
        w.section("alpha");
        let blob = w.into_bytes();
        let mut r = SnapReader::bare(&blob);
        r.section("beta");
    }

    #[test]
    fn container_round_trip() {
        let mut w = SnapWriter::bare();
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<(SimTime, f64)> = [(SimTime::from_secs(1), 0.5)].into_iter().collect();
        let o: Option<SimDuration> = Some(SimDuration::from_millis(250));
        let m: BTreeMap<u32, bool> = [(4, true), (1, false)].into_iter().collect();
        v.snap(&mut w);
        d.snap(&mut w);
        o.snap(&mut w);
        m.snap(&mut w);
        let blob = w.into_bytes();
        let mut r = SnapReader::bare(&blob);
        assert_eq!(Vec::<u64>::unsnap(&mut r), v);
        assert_eq!(VecDeque::<(SimTime, f64)>::unsnap(&mut r), d);
        assert_eq!(Option::<SimDuration>::unsnap(&mut r), o);
        assert_eq!(BTreeMap::<u32, bool>::unsnap(&mut r), m);
        assert!(r.is_exhausted());
    }

    #[test]
    fn hash_map_serializes_sorted_and_rebuilds_canonically() {
        let mut a: crate::hash::FastHashMap<u64, u64> = Default::default();
        let mut b: crate::hash::FastHashMap<u64, u64> = Default::default();
        // Different insertion orders, same contents.
        for k in [9u64, 2, 5, 1] {
            a.insert(k, k * 10);
        }
        for k in [1u64, 5, 2, 9] {
            b.insert(k, k * 10);
        }
        let dump = |m: &crate::hash::FastHashMap<u64, u64>| {
            let mut w = SnapWriter::bare();
            snap_hash_map(m, &mut w);
            w.into_bytes()
        };
        assert_eq!(dump(&a), dump(&b), "blob must not depend on insert order");
        let blob = dump(&a);
        let mut r = SnapReader::bare(&blob);
        let back: crate::hash::FastHashMap<u64, u64> = unsnap_hash_map(&mut r);
        assert_eq!(back, a);
    }

    #[test]
    fn rng_round_trip_preserves_stream() {
        use crate::rng::SimRng;
        let mut rng = SimRng::new(42);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut w = SnapWriter::bare();
        rng.snap(&mut w);
        let blob = w.into_bytes();
        let mut r = SnapReader::bare(&blob);
        let mut back = SimRng::unsnap(&mut r);
        assert_eq!(back.seed(), rng.seed());
        for _ in 0..100 {
            assert_eq!(back.next_u64(), rng.next_u64());
        }
    }
}
