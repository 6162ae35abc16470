//! Node identities and network addresses.
//!
//! A **node** is a stable simulation entity (a laptop, a fixed peer, a
//! tracker host). An **address** is what other endpoints use to reach it —
//! and, crucially for this paper, the thing that *changes* when a mobile
//! host hands off to a new access network. Keeping `NodeId` and `SimAddr`
//! as distinct types makes "identity survived but the address did not"
//! impossible to conflate in the protocol layers above.

use std::collections::HashMap;
use std::fmt;

/// Stable identity of a simulated host. Never changes during a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A network-layer address (an abstract IPv4-like identifier).
///
/// Mobile hand-offs assign a fresh `SimAddr` to the same `NodeId`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SimAddr(pub u32);

impl fmt::Display for SimAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like a dotted quad for readability in traces.
        let v = self.0;
        write!(
            f,
            "{}.{}.{}.{}",
            (v >> 24) & 0xff,
            (v >> 16) & 0xff,
            (v >> 8) & 0xff,
            v & 0xff
        )
    }
}

/// Allocates unique addresses and tracks the current node⇄address binding.
///
/// ```
/// use simnet::addr::{AddressBook, NodeId};
/// let mut book = AddressBook::new();
/// let n = NodeId(1);
/// let a0 = book.assign(n);
/// let a1 = book.reassign(n);
/// assert_ne!(a0, a1);
/// assert_eq!(book.addr_of(n), Some(a1));
/// assert_eq!(book.node_at(a1), Some(n));
/// assert_eq!(book.node_at(a0), None, "old address is unroutable");
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressBook {
    next: u32,
    by_node: HashMap<NodeId, SimAddr>,
    by_addr: HashMap<SimAddr, NodeId>,
    reassignments: u64,
}

impl AddressBook {
    /// Creates an empty address book.
    pub fn new() -> Self {
        AddressBook {
            // Start in a 10.x space, purely cosmetic.
            next: 10 << 24 | 1,
            by_node: HashMap::new(),
            by_addr: HashMap::new(),
            reassignments: 0,
        }
    }

    fn fresh(&mut self) -> SimAddr {
        let a = SimAddr(self.next);
        self.next += 1;
        a
    }

    /// Assigns an initial address to `node`, or returns the existing one.
    pub fn assign(&mut self, node: NodeId) -> SimAddr {
        if let Some(&a) = self.by_node.get(&node) {
            return a;
        }
        let a = self.fresh();
        self.by_node.insert(node, a);
        self.by_addr.insert(a, node);
        a
    }

    /// Gives `node` a brand-new address, invalidating the old one.
    ///
    /// This models an IP-layer hand-off: packets addressed to the previous
    /// address no longer route anywhere.
    pub fn reassign(&mut self, node: NodeId) -> SimAddr {
        if let Some(old) = self.by_node.remove(&node) {
            self.by_addr.remove(&old);
        }
        let a = self.fresh();
        self.by_node.insert(node, a);
        self.by_addr.insert(a, node);
        self.reassignments += 1;
        a
    }

    /// Current address of a node, if assigned.
    pub fn addr_of(&self, node: NodeId) -> Option<SimAddr> {
        self.by_node.get(&node).copied()
    }

    /// Node currently reachable at `addr`, if any.
    pub fn node_at(&self, addr: SimAddr) -> Option<NodeId> {
        self.by_addr.get(&addr).copied()
    }

    /// Total number of hand-offs performed.
    pub fn reassignments(&self) -> u64 {
        self.reassignments
    }
}

impl crate::snapshot::Snap for AddressBook {
    fn snap(&self, w: &mut crate::snapshot::SnapWriter) {
        w.put_u32(self.next);
        crate::snapshot::Snap::snap(&self.by_node, w);
        w.put_u64(self.reassignments);
    }
    fn unsnap(r: &mut crate::snapshot::SnapReader<'_>) -> Self {
        let next = r.get_u32();
        let by_node: HashMap<NodeId, SimAddr> = crate::snapshot::Snap::unsnap(r);
        // The reverse index is derived state: rebuild it.
        let by_addr = by_node.iter().map(|(&n, &a)| (a, n)).collect();
        AddressBook {
            next,
            by_node,
            by_addr,
            reassignments: r.get_u64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_is_idempotent() {
        let mut book = AddressBook::new();
        let a = book.assign(NodeId(3));
        let b = book.assign(NodeId(3));
        assert_eq!(a, b);
    }

    #[test]
    fn addresses_are_unique() {
        let mut book = AddressBook::new();
        let a = book.assign(NodeId(1));
        let b = book.assign(NodeId(2));
        assert_ne!(a, b);
    }

    #[test]
    fn reassignment_invalidates_old_route() {
        let mut book = AddressBook::new();
        let n = NodeId(9);
        let old = book.assign(n);
        let new = book.reassign(n);
        assert_eq!(book.node_at(old), None);
        assert_eq!(book.node_at(new), Some(n));
        assert_eq!(book.reassignments(), 1);
    }

    #[test]
    fn display_is_dotted_quad() {
        assert_eq!(SimAddr(10 << 24 | 1).to_string(), "10.0.0.1");
        assert_eq!(NodeId(4).to_string(), "node4");
    }
}
