//! Valley-free (Gao–Rexford) AS-path computation.
//!
//! BGP policy routing in one paragraph: an AS exports routes learned from
//! customers to everyone, but routes learned from peers/providers only to
//! customers. The observable consequence is that any realistic AS path is
//! *valley-free*: zero or more uphill (customer→provider) hops, at most one
//! peer hop, then zero or more downhill (provider→customer) hops. Route
//! selection prefers customer routes over peer routes over provider routes
//! (local-pref beats path length), then shorter paths, then a deterministic
//! tie-break.
//!
//! The paper's §6 interconnection classification is entirely a function of
//! the AS paths this module produces, so fidelity here is what makes Fig. 10
//! reproducible.

use crate::asn::Asn;
use crate::graph::{AsGraph, Relationship};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};

/// How the *source* AS learned the winning route — the Gao–Rexford
/// preference class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum RouteKind {
    /// First hop goes to a customer (or src == dst). Most preferred.
    Customer,
    /// First hop is a settlement-free peer (includes direct cloud peering).
    Peer,
    /// First hop is a paid transit provider. Least preferred.
    Provider,
}

/// A selected AS path from source to destination (inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AsPath {
    pub path: Vec<Asn>,
    pub kind: RouteKind,
}

impl AsPath {
    /// Number of AS-level hops (edges) on the path.
    pub fn hop_count(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// The ASes strictly between source and destination.
    pub fn intermediates(&self) -> &[Asn] {
        if self.path.len() <= 2 {
            &[]
        } else {
            &self.path[1..self.path.len() - 1]
        }
    }
}

/// Phase of the valley-free walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Still climbing customer→provider edges.
    Up,
    /// Peer edge taken or descent begun; only provider→customer edges remain.
    Down,
}

fn step(phase: Phase, rel: Relationship) -> Option<Phase> {
    match (phase, rel) {
        (Phase::Up, Relationship::Provider) => Some(Phase::Up),
        (Phase::Up, Relationship::Peer) => Some(Phase::Down),
        (Phase::Up, Relationship::Customer) => Some(Phase::Down),
        (Phase::Down, Relationship::Customer) => Some(Phase::Down),
        (Phase::Down, _) => None,
    }
}

/// Compute the selected route from `src` to `dst`.
///
/// Preference: [`RouteKind`] class first (customer > peer > provider), then
/// fewest AS hops, then lexicographically smallest ASN sequence — fully
/// deterministic for a given graph.
///
/// ```
/// use cloudy_geo::{Continent, CountryCode, GeoPoint};
/// use cloudy_topology::routing::{select_route, RouteKind};
/// use cloudy_topology::{AsGraph, AsInfo, AsKind, Asn, Relationship};
///
/// let mk = |asn: u32| AsInfo::new(
///     Asn(asn), format!("AS{asn}"), AsKind::Tier2,
///     CountryCode::new("DE"), Continent::Europe, GeoPoint::new(50.0, 8.7),
/// );
/// let mut graph = AsGraph::new();
/// for asn in [10, 20] { graph.add_as(mk(asn)); }
/// graph.add_edge(Asn(10), Asn(20), Relationship::Peer);
/// let route = select_route(&graph, Asn(10), Asn(20)).unwrap();
/// assert_eq!(route.kind, RouteKind::Peer);
/// assert_eq!(route.path, vec![Asn(10), Asn(20)]);
/// ```
pub fn select_route(graph: &AsGraph, src: Asn, dst: Asn) -> Option<AsPath> {
    if !graph.contains(src) || !graph.contains(dst) {
        return None;
    }
    if src == dst {
        return Some(AsPath { path: vec![src], kind: RouteKind::Customer });
    }
    // Try each preference class in order; within a class, BFS finds the
    // fewest-hop valley-free path with deterministic tie-breaking.
    for (kind, first_rel) in [
        (RouteKind::Customer, Relationship::Customer),
        (RouteKind::Peer, Relationship::Peer),
        (RouteKind::Provider, Relationship::Provider),
    ] {
        if let Some(path) = bfs_class(graph, src, dst, first_rel) {
            return Some(AsPath { path, kind });
        }
    }
    None
}

/// Shortest valley-free path whose first edge has relationship `first_rel`
/// (as seen from `src`). Returns the full path src..=dst.
fn bfs_class(graph: &AsGraph, src: Asn, dst: Asn, first_rel: Relationship) -> Option<Vec<Asn>> {
    // Deterministic neighbor order.
    let sorted_neighbors = |a: Asn| {
        let mut v: Vec<(Asn, Relationship)> = graph.neighbors(a).to_vec();
        v.sort_by_key(|(n, _)| *n);
        v
    };

    let mut parent: HashMap<(Asn, Phase), (Asn, Phase)> = HashMap::new();
    let mut queue: VecDeque<(Asn, Phase)> = VecDeque::new();

    for (n, rel) in sorted_neighbors(src) {
        if rel != first_rel {
            continue;
        }
        let phase = match rel {
            Relationship::Provider => Phase::Up,
            _ => Phase::Down,
        };
        let state = (n, phase);
        if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(state) {
            e.insert((src, Phase::Up)); // sentinel parent
            if n == dst {
                return Some(vec![src, dst]);
            }
            queue.push_back(state);
        }
    }

    while let Some((cur, phase)) = queue.pop_front() {
        for (next, rel) in sorted_neighbors(cur) {
            if next == src {
                continue;
            }
            let Some(next_phase) = step(phase, rel) else { continue };
            let state = (next, next_phase);
            if parent.contains_key(&state) {
                continue;
            }
            parent.insert(state, (cur, phase));
            if next == dst {
                // Reconstruct.
                let mut path = vec![dst];
                let mut walk = (cur, phase);
                loop {
                    path.push(walk.0);
                    if walk.0 == src {
                        break;
                    }
                    walk = parent[&walk];
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(state);
        }
    }
    None
}

/// Shortest AS path ignoring business relationships — the strawman router
/// of the `ablation_routing` experiment (DESIGN.md §5.1).
pub fn shortest_unrestricted(graph: &AsGraph, src: Asn, dst: Asn) -> Option<Vec<Asn>> {
    if !graph.contains(src) || !graph.contains(dst) {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent: HashMap<Asn, Asn> = HashMap::new();
    let mut queue = VecDeque::new();
    parent.insert(src, src);
    queue.push_back(src);
    while let Some(cur) = queue.pop_front() {
        let mut neigh: Vec<Asn> = graph.neighbors(cur).iter().map(|(n, _)| *n).collect();
        neigh.sort();
        for next in neigh {
            if parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, cur);
            if next == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Check the valley-free property of an explicit path against a graph.
/// Used by tests and by the path-audit tooling.
pub fn is_valley_free(graph: &AsGraph, path: &[Asn]) -> bool {
    if path.len() < 2 {
        return true;
    }
    let mut phase = Phase::Up;
    for w in path.windows(2) {
        let Some(rel) = graph.relationship(w[0], w[1]) else {
            return false;
        };
        match step(phase, rel) {
            Some(p) => phase = p,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::AsKind;
    use crate::graph::testutil::mk;

    /// Classic test topology:
    ///
    /// ```text
    ///        T1a(1) ---peer--- T1b(2)
    ///        /    \             |
    ///   (c2p)     (c2p)       (c2p)
    ///      /         \          |
    ///   ISPa(10)   ISPb(11)   ISPc(12)
    ///      |
    ///    (p2c)
    ///      |
    ///   Cust(20)
    /// ```
    fn topo() -> AsGraph {
        let mut g = AsGraph::new();
        for (asn, kind) in [
            (1, AsKind::Tier1),
            (2, AsKind::Tier1),
            (10, AsKind::AccessIsp),
            (11, AsKind::AccessIsp),
            (12, AsKind::AccessIsp),
            (20, AsKind::Enterprise),
        ] {
            g.add_as(mk(asn, kind));
        }
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        g.add_edge(Asn(10), Asn(1), Relationship::Provider);
        g.add_edge(Asn(11), Asn(1), Relationship::Provider);
        g.add_edge(Asn(12), Asn(2), Relationship::Provider);
        g.add_edge(Asn(20), Asn(10), Relationship::Provider);
        g
    }

    #[test]
    fn same_as_trivial_route() {
        let g = topo();
        let r = select_route(&g, Asn(10), Asn(10)).unwrap();
        assert_eq!(r.path, vec![Asn(10)]);
        assert_eq!(r.hop_count(), 0);
    }

    #[test]
    fn up_over_down_route() {
        let g = topo();
        let r = select_route(&g, Asn(10), Asn(11)).unwrap();
        assert_eq!(r.path, vec![Asn(10), Asn(1), Asn(11)]);
        assert_eq!(r.kind, RouteKind::Provider);
        assert!(is_valley_free(&g, &r.path));
    }

    #[test]
    fn peer_hop_allowed_once() {
        let g = topo();
        let r = select_route(&g, Asn(10), Asn(12)).unwrap();
        assert_eq!(r.path, vec![Asn(10), Asn(1), Asn(2), Asn(12)]);
        assert!(is_valley_free(&g, &r.path));
    }

    #[test]
    fn no_valley_through_customer() {
        // 11 -> 1 -> 10 -> 20 is valid (up, down, down).
        // But 20 -> 10 -> 1 -> ... -> then back down is fine;
        // what must NOT happen: using AS20 as transit between 10 and anyone.
        let mut g = topo();
        g.add_as(mk(21, AsKind::Enterprise));
        g.add_edge(Asn(21), Asn(10), Relationship::Provider);
        // 20 and 21 are both customers of 10: path 20-10-21 is up-down, fine.
        let r = select_route(&g, Asn(20), Asn(21)).unwrap();
        assert_eq!(r.path, vec![Asn(20), Asn(10), Asn(21)]);
        // A path 10-20-...: 20 has no other links, but assert the principle:
        assert!(!is_valley_free(&g, &[Asn(1), Asn(10), Asn(20), Asn(10)]));
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer() {
        // src has a direct peer edge to dst AND a customer chain of length 2.
        // BGP prefers the customer route despite being longer.
        let mut g = AsGraph::new();
        for asn in [100, 101, 102] {
            g.add_as(mk(asn, AsKind::Tier2));
        }
        g.add_edge(Asn(100), Asn(102), Relationship::Peer);
        g.add_edge(Asn(101), Asn(100), Relationship::Provider); // 101 customer of 100
        g.add_edge(Asn(102), Asn(101), Relationship::Provider); // 102 customer of 101
        let r = select_route(&g, Asn(100), Asn(102)).unwrap();
        assert_eq!(r.kind, RouteKind::Customer);
        assert_eq!(r.path, vec![Asn(100), Asn(101), Asn(102)]);
    }

    #[test]
    fn peer_route_preferred_over_provider() {
        let mut g = AsGraph::new();
        for asn in [200, 201, 202] {
            g.add_as(mk(asn, AsKind::Tier2));
        }
        // dst 202 reachable via peer edge or via provider 201.
        g.add_edge(Asn(200), Asn(202), Relationship::Peer);
        g.add_edge(Asn(200), Asn(201), Relationship::Provider);
        g.add_edge(Asn(202), Asn(201), Relationship::Provider);
        let r = select_route(&g, Asn(200), Asn(202)).unwrap();
        assert_eq!(r.kind, RouteKind::Peer);
        assert_eq!(r.path, vec![Asn(200), Asn(202)]);
    }

    #[test]
    fn two_peer_hops_rejected() {
        // 10 -peer- 1 -peer- 2: a path with two peer edges is not valley-free.
        let mut g = AsGraph::new();
        for asn in [1, 2, 10] {
            g.add_as(mk(asn, AsKind::Tier1));
        }
        g.add_edge(Asn(10), Asn(1), Relationship::Peer);
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        assert!(select_route(&g, Asn(10), Asn(2)).is_none());
        assert!(!is_valley_free(&g, &[Asn(10), Asn(1), Asn(2)]));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = topo();
        g.add_as(mk(99, AsKind::Enterprise));
        assert!(select_route(&g, Asn(10), Asn(99)).is_none());
        assert!(select_route(&g, Asn(10), Asn(12345)).is_none());
    }

    #[test]
    fn unrestricted_can_beat_valley_free() {
        // The ablation router may cross two peering edges.
        let mut g = AsGraph::new();
        for asn in [1, 2, 10] {
            g.add_as(mk(asn, AsKind::Tier1));
        }
        g.add_edge(Asn(10), Asn(1), Relationship::Peer);
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        let p = shortest_unrestricted(&g, Asn(10), Asn(2)).unwrap();
        assert_eq!(p, vec![Asn(10), Asn(1), Asn(2)]);
    }

    #[test]
    fn selected_routes_always_valley_free() {
        let g = topo();
        for src in [1u32, 2, 10, 11, 12, 20] {
            for dst in [1u32, 2, 10, 11, 12, 20] {
                if let Some(r) = select_route(&g, Asn(src), Asn(dst)) {
                    assert!(is_valley_free(&g, &r.path), "{src}->{dst}: {:?}", r.path);
                }
            }
        }
    }

    #[test]
    fn intermediates_excludes_endpoints() {
        let g = topo();
        let r = select_route(&g, Asn(10), Asn(12)).unwrap();
        assert_eq!(r.intermediates(), &[Asn(1), Asn(2)]);
        let direct = select_route(&g, Asn(20), Asn(10)).unwrap();
        assert!(direct.intermediates().is_empty());
    }
}
