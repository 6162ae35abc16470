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
//!
//! A type's field order has one source: the field list it hands to
//! [`snap_struct!`], [`snap_enum!`] or [`snap_in_place!`], from which
//! both the writer and the reader are generated. Hand-written impls are
//! left only where the encoding is not a field list (scalars,
//! containers, newtypes, derived fields, by-name metric restores).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

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
/// exact same order; any change is a [`FORMAT_VERSION`] bump. Field
/// lists are declared once with [`snap_struct!`] or [`snap_enum!`],
/// which generate both directions, so the two orders cannot drift.
/// Types with private fields implement this inside their defining
/// module.
pub trait Snap: Sized {
    /// Appends this value's dynamic state.
    fn snap(&self, w: &mut SnapWriter);
    /// Reads a value previously written by [`Snap::snap`].
    fn unsnap(r: &mut SnapReader<'_>) -> Self;
}

/// Implements [`Snap`] for a struct from one list of its fields.
///
/// `snap` writes the fields before the `;` in list order; `unsnap`
/// reads them back in the same order into a struct literal and sets the
/// fields after the `;` (metric instruments the embedder re-attaches)
/// to `Default::default()`. Every field type must implement [`Snap`].
/// A generic type is written `snap_struct!(impl<E: Snap> Queue<E> { .. })`;
/// a leading `#[section = "name"]` brackets the fields with a
/// [`SnapWriter::section`] marker.
///
/// ```
/// # use simnet::snapshot::{Snap, SnapReader, SnapWriter};
/// #[derive(Debug, Default, PartialEq)]
/// struct Window { start: u64, bytes: u32, note: u8 }
/// simnet::snap_struct!(Window {
///     start,
///     bytes;
///     note
/// });
/// let mut w = SnapWriter::bare();
/// Window { start: 7, bytes: 9, note: 1 }.snap(&mut w);
/// let blob = w.into_bytes();
/// assert_eq!(blob.len(), 8 + 4);
/// let back = Window::unsnap(&mut SnapReader::bare(&blob));
/// assert_eq!(back, Window { start: 7, bytes: 9, note: 0 });
/// ```
#[macro_export]
macro_rules! snap_struct {
    (@impl [$($gen:tt)*] [$($sec:literal)?] $t:ty {
        $($field:ident),* $(,)? $(; $($skip:ident),* $(,)?)?
    }) => {
        impl<$($gen)*> $crate::snapshot::Snap for $t {
            fn snap(&self, w: &mut $crate::snapshot::SnapWriter) {
                $(w.section($sec);)?
                $($crate::snapshot::Snap::snap(&self.$field, w);)*
            }
            fn unsnap(r: &mut $crate::snapshot::SnapReader<'_>) -> Self {
                $(r.section($sec);)?
                Self {
                    $($field: $crate::snapshot::Snap::unsnap(r),)*
                    $($($skip: ::core::default::Default::default(),)*)?
                }
            }
        }
    };
    ($(#[section = $sec:literal])? impl<$($g:ident: $b:path),*> $t:ty { $($list:tt)* }) => {
        $crate::snap_struct!(@impl [$($g: $b),*] [$($sec)?] $t { $($list)* });
    };
    ($(#[section = $sec:literal])? $t:ty { $($list:tt)* }) => {
        $crate::snap_struct!(@impl [] [$($sec)?] $t { $($list)* });
    };
}

/// Implements [`Snap`] for an enum from one tag table.
///
/// Each variant is written as its `u8` tag followed by its fields in
/// list order; unit, named-field and tuple variants are all accepted
/// (tuple fields are named only to bind them). Reading an unknown tag
/// panics with `snapshot: unknown <type> tag <t>`.
///
/// ```
/// # use simnet::snapshot::{Snap, SnapReader, SnapWriter};
/// #[derive(Debug, PartialEq)]
/// enum Step { Idle, Move { to: u32, by: u64 }, Hold(bool) }
/// simnet::snap_enum!(Step {
///     0 => Idle,
///     1 => Move { to, by },
///     2 => Hold(on),
/// });
/// let mut w = SnapWriter::bare();
/// Step::Move { to: 3, by: 4 }.snap(&mut w);
/// let blob = w.into_bytes();
/// assert_eq!(blob[0], 1);
/// assert_eq!(Step::unsnap(&mut SnapReader::bare(&blob)), Step::Move { to: 3, by: 4 });
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($t:ty {
        $($tag:literal => $v:ident $({ $($f:ident),* $(,)? })? $(( $($x:ident),* $(,)? ))?),* $(,)?
    }) => {
        impl $crate::snapshot::Snap for $t {
            fn snap(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $(Self::$v $({ $($f),* })? $(( $($x),* ))? => {
                        w.put_u8($tag);
                        $($($crate::snapshot::Snap::snap($f, w);)*)?
                        $($($crate::snapshot::Snap::snap($x, w);)*)?
                    })*
                }
            }
            fn unsnap(r: &mut $crate::snapshot::SnapReader<'_>) -> Self {
                match r.get_u8() {
                    $($tag => Self::$v
                        $({ $($f: $crate::snapshot::Snap::unsnap(r)),* })?
                        $(( $($crate::snap_enum!(@read r $x)),* ))?,)*
                    t => panic!("snapshot: unknown {} tag {t}", stringify!($t)),
                }
            }
        }
    };
    (@read $r:ident $x:ident) => {
        $crate::snapshot::Snap::unsnap($r)
    };
}

/// Generates an in-place writer/reader pair over a list of (dotted)
/// field paths, for owners that are restored onto a freshly built value
/// rather than rebuilt from the blob: `save` writes each path's value
/// in list order, `restore` overwrites each path with the value read.
/// Sections, count checks and metric re-attachment stay hand-written
/// around the generated calls.
///
/// ```
/// # use simnet::snapshot::{SnapReader, SnapWriter};
/// #[derive(Default)]
/// struct Limits { up: u64 }
/// #[derive(Default)]
/// struct Host { limits: Limits, tick: u32, scratch: Vec<u8> }
/// impl Host {
///     simnet::snap_in_place!(fn save / restore {
///         limits.up,
///         tick,
///     });
/// }
/// let mut w = SnapWriter::bare();
/// Host { limits: Limits { up: 5 }, tick: 2, scratch: vec![1] }.save(&mut w);
/// let blob = w.into_bytes();
/// let mut h = Host::default();
/// h.restore(&mut SnapReader::bare(&blob));
/// assert_eq!((h.limits.up, h.tick), (5, 2));
/// ```
#[macro_export]
macro_rules! snap_in_place {
    (fn $save:ident / $restore:ident { $($($p:ident).+),* $(,)? }) => {
        fn $save(&self, w: &mut $crate::snapshot::SnapWriter) {
            $($crate::snapshot::Snap::snap(&self.$($p).+, w);)*
        }
        fn $restore(&mut self, r: &mut $crate::snapshot::SnapReader<'_>) {
            $(self.$($p).+ = $crate::snapshot::Snap::unsnap(r);)*
        }
    };
}

pub use crate::{snap_enum, snap_in_place, snap_struct};

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

/// One body for every length-prefixed sequence: the length, then each
/// element in iteration order.
macro_rules! impl_snap_seq {
    ($($c:ident $(+ $bound:path)?),*) => {$(
        impl<T: Snap $(+ $bound)?> Snap for $c<T> {
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
    )*};
}

impl_snap_seq!(Vec, VecDeque, BTreeSet + Ord);

/// One body for the tuples: the elements in order, no length.
macro_rules! impl_snap_tuple {
    ($(($($t:ident . $i:tt),+)),*) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn snap(&self, w: &mut SnapWriter) {
                $(self.$i.snap(w);)+
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Self {
                ($($t::unsnap(r),)+)
            }
        }
    )*};
}

impl_snap_tuple!((A.0, B.1), (A.0, B.1, C.2));

/// Fixed-size arrays carry no length: the elements in index order.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        std::array::from_fn(|_| T::unsnap(r))
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

/// Any `HashMap` (std or [`crate::hash::FastHashMap`]) is written in
/// sorted key order and rebuilt by re-inserting in that order, which
/// makes the restored iteration order a pure function of the blob — the
/// same blob always rebuilds the same map — independent of the
/// insertion history of the saved map.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn snap(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.put_usize(entries.len());
        for (k, v) in entries {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Self {
        let n = r.get_usize();
        let mut map = HashMap::with_capacity_and_hasher(n, S::default());
        for _ in 0..n {
            let k = K::unsnap(r);
            let v = V::unsnap(r);
            map.insert(k, v);
        }
        map
    }
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
            m.snap(&mut w);
            w.into_bytes()
        };
        assert_eq!(dump(&a), dump(&b), "blob must not depend on insert order");
        let blob = dump(&a);
        let mut r = SnapReader::bare(&blob);
        let back = crate::hash::FastHashMap::<u64, u64>::unsnap(&mut r);
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn snap_enum_rejects_an_unknown_tag() {
        enum Two {
            A,
            B(u32),
        }
        snap_enum!(Two {
            0 => A,
            1 => B(x),
        });
        let mut w = SnapWriter::bare();
        Two::B(5).snap(&mut w);
        Two::A.snap(&mut w);
        w.put_u8(2);
        let blob = w.into_bytes();
        let mut r = SnapReader::bare(&blob);
        assert!(matches!(Two::unsnap(&mut r), Two::B(5)));
        assert!(matches!(Two::unsnap(&mut r), Two::A));
        let _ = Two::unsnap(&mut r);
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
