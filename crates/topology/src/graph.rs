//! The relationship-labelled AS graph (Gao–Rexford model).

use crate::asn::{AsInfo, Asn};
use serde::Serialize;
use std::collections::HashMap;

/// Business relationship of an edge, from the perspective of the AS holding
/// the adjacency entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Relationship {
    /// The neighbour is my *provider*: I pay them for transit (c2p uphill).
    Provider,
    /// The neighbour is my *customer*: they pay me (p2c downhill).
    Customer,
    /// Settlement-free peering (including direct cloud↔ISP peering — the
    /// paper's "direct" interconnection category, §6.1).
    Peer,
}

impl Relationship {
    /// The same edge seen from the other endpoint.
    pub fn inverse(&self) -> Relationship {
        match self {
            Relationship::Provider => Relationship::Customer,
            Relationship::Customer => Relationship::Provider,
            Relationship::Peer => Relationship::Peer,
        }
    }
}

/// The AS-level Internet graph. Nodes carry [`AsInfo`]; edges carry
/// [`Relationship`] labels and are stored from both endpoints.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    infos: HashMap<Asn, AsInfo>,
    adj: HashMap<Asn, Vec<(Asn, Relationship)>>,
}

impl AsGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an AS. Re-registering replaces the metadata but keeps edges.
    pub fn add_as(&mut self, info: AsInfo) {
        self.adj.entry(info.asn).or_default();
        self.infos.insert(info.asn, info);
    }

    /// Whether the AS exists.
    pub fn contains(&self, asn: Asn) -> bool {
        self.infos.contains_key(&asn)
    }

    /// Metadata for an AS.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.infos.get(&asn)
    }

    /// Add a relationship edge: `a` sees `b` as `rel`. Both directions are
    /// recorded. Panics if either AS is unregistered (catching topology
    /// construction bugs early beats silently routing through ghosts).
    pub fn add_edge(&mut self, a: Asn, b: Asn, rel: Relationship) {
        assert!(self.contains(a), "add_edge: unknown AS {a}");
        assert!(self.contains(b), "add_edge: unknown AS {b}");
        assert_ne!(a, b, "self-loop on {a}");
        // Replace existing edge if present (idempotent updates).
        self.remove_edge(a, b);
        self.adj.get_mut(&a).expect("registered").push((b, rel)); // audit:allow(expect)
        self.adj.get_mut(&b).expect("registered").push((a, rel.inverse())); // audit:allow(expect)
    }

    /// Remove the edge between `a` and `b` if present.
    pub fn remove_edge(&mut self, a: Asn, b: Asn) {
        if let Some(v) = self.adj.get_mut(&a) {
            v.retain(|(n, _)| *n != b);
        }
        if let Some(v) = self.adj.get_mut(&b) {
            v.retain(|(n, _)| *n != a);
        }
    }

    /// Neighbours of `asn` with the relationship as seen from `asn`.
    pub fn neighbors(&self, asn: Asn) -> &[(Asn, Relationship)] {
        self.adj.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The relationship `a` → `b`, if the edge exists.
    pub fn relationship(&self, a: Asn, b: Asn) -> Option<Relationship> {
        self.neighbors(a).iter().find(|(n, _)| *n == b).map(|(_, r)| *r)
    }

    /// Iterate all registered ASes.
    pub fn ases(&self) -> impl Iterator<Item = &AsInfo> {
        self.infos.values()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(Vec::len).sum::<usize>() / 2
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::asn::AsKind;
    use cloudy_geo::{Continent, CountryCode, GeoPoint};

    /// Minimal AS for graph tests.
    pub fn mk(asn: u32, kind: AsKind) -> AsInfo {
        AsInfo::new(
            Asn(asn),
            format!("AS{asn}"),
            kind,
            CountryCode::new("DE"),
            Continent::Europe,
            GeoPoint::new(50.0, 8.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::mk;
    use super::*;
    use crate::asn::AsKind;

    #[test]
    fn relationship_inverse_round_trips() {
        for rel in [Relationship::Provider, Relationship::Customer, Relationship::Peer] {
            assert_eq!(rel.inverse().inverse(), rel);
        }
        assert_eq!(Relationship::Provider.inverse(), Relationship::Customer);
        assert_eq!(Relationship::Peer.inverse(), Relationship::Peer);
    }

    #[test]
    fn add_edge_records_both_directions() {
        let mut g = AsGraph::new();
        g.add_as(mk(1, AsKind::Tier1));
        g.add_as(mk(2, AsKind::AccessIsp));
        g.add_edge(Asn(2), Asn(1), Relationship::Provider);
        assert_eq!(g.relationship(Asn(2), Asn(1)), Some(Relationship::Provider));
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Customer));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn add_edge_is_idempotent_with_replacement() {
        let mut g = AsGraph::new();
        g.add_as(mk(1, AsKind::Tier1));
        g.add_as(mk(2, AsKind::Tier1));
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        g.add_edge(Asn(1), Asn(2), Relationship::Provider);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.relationship(Asn(1), Asn(2)), Some(Relationship::Provider));
    }

    #[test]
    #[should_panic(expected = "unknown AS")]
    fn edge_to_unregistered_as_panics() {
        let mut g = AsGraph::new();
        g.add_as(mk(1, AsKind::Tier1));
        g.add_edge(Asn(1), Asn(99), Relationship::Peer);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = AsGraph::new();
        g.add_as(mk(1, AsKind::Tier1));
        g.add_edge(Asn(1), Asn(1), Relationship::Peer);
    }

    #[test]
    fn remove_edge_works() {
        let mut g = AsGraph::new();
        g.add_as(mk(1, AsKind::Tier1));
        g.add_as(mk(2, AsKind::Tier1));
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        g.remove_edge(Asn(1), Asn(2));
        assert_eq!(g.relationship(Asn(1), Asn(2)), None);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighbors_of_unknown_as_empty() {
        let g = AsGraph::new();
        assert!(g.neighbors(Asn(42)).is_empty());
    }
}
