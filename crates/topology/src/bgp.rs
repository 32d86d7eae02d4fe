//! BGP route propagation — per-AS route selection to one destination.
//!
//! [`crate::routing::select_route`] answers "what is the *source-optimal*
//! valley-free path?", which is the right primitive for one-off queries but
//! subtly stronger than BGP: real routes are chosen hop by hop, each AS
//! applying Gao–Rexford preferences to what its neighbours *export*, not to
//! the global graph. This module implements the standard three-stage
//! propagation (customer routes, then peer routes, then provider routes)
//! from a destination to every AS at once — the algorithm used by BGP
//! simulation studies.
//!
//! For a single destination it is also asymptotically cheaper than querying
//! [`crate::routing::select_route`] per source, which is why the route-audit
//! tooling uses it for whole-Internet sweeps.

use crate::asn::Asn;
use crate::graph::{AsGraph, Relationship};
use crate::routing::{AsPath, RouteKind};
use std::collections::{HashMap, VecDeque};

/// All selected routes toward `dest`: AS → its chosen path (inclusive of
/// both endpoints). `dest` itself maps to the trivial path.
pub fn routes_to(graph: &AsGraph, dest: Asn) -> HashMap<Asn, AsPath> {
    let mut best: HashMap<Asn, AsPath> = HashMap::new();
    if !graph.contains(dest) {
        return best;
    }
    best.insert(dest, AsPath { path: vec![dest], kind: RouteKind::Customer });

    let sorted_neighbors = |a: Asn| {
        let mut v: Vec<(Asn, Relationship)> = graph.neighbors(a).to_vec();
        v.sort_by_key(|(n, _)| *n);
        v
    };

    // Stage 1 — customer routes: BFS from dest along customer→provider
    // edges. An AS whose *customer* has a customer route (or is the dest)
    // learns the route and will export it to everyone.
    let mut queue: VecDeque<Asn> = VecDeque::new();
    queue.push_back(dest);
    while let Some(cur) = queue.pop_front() {
        let cur_path = best[&cur].path.clone();
        for (n, rel) in sorted_neighbors(cur) {
            // `rel` is cur's view: n is cur's provider ⇒ cur is n's customer.
            if rel != Relationship::Provider {
                continue;
            }
            if should_replace(best.get(&n), RouteKind::Customer, cur_path.len() + 1, cur) {
                let mut p = vec![n];
                p.extend_from_slice(&cur_path);
                best.insert(n, AsPath { path: p, kind: RouteKind::Customer });
                queue.push_back(n);
            }
        }
    }

    // Stage 2 — peer routes: one peer hop onto any AS holding a customer
    // route. (Peers only export customer routes.)
    let customer_holders: Vec<Asn> = best.keys().copied().collect(); // audit:allow(map-iter)
    for cur in customer_holders {
        let cur_path = best[&cur].path.clone();
        let cur_kind = best[&cur].kind;
        if cur_kind != RouteKind::Customer {
            continue;
        }
        for (n, rel) in sorted_neighbors(cur) {
            if rel != Relationship::Peer {
                continue;
            }
            if should_replace(best.get(&n), RouteKind::Peer, cur_path.len() + 1, cur) {
                let mut p = vec![n];
                p.extend_from_slice(&cur_path);
                best.insert(n, AsPath { path: p, kind: RouteKind::Peer });
            }
        }
    }

    // Stage 3 — provider routes: iterative BFS downward. Providers export
    // *everything* to customers, so any routed AS gives its customers a
    // provider route; propagate by increasing path length.
    let mut queue: VecDeque<Asn> = best.keys().copied().collect(); // audit:allow(map-iter)
    while let Some(cur) = queue.pop_front() {
        let cur_path = best[&cur].path.clone();
        for (n, rel) in sorted_neighbors(cur) {
            // n is cur's customer ⇒ cur is n's provider.
            if rel != Relationship::Customer {
                continue;
            }
            if should_replace(best.get(&n), RouteKind::Provider, cur_path.len() + 1, cur) {
                let mut p = vec![n];
                p.extend_from_slice(&cur_path);
                best.insert(n, AsPath { path: p, kind: RouteKind::Provider });
                queue.push_back(n);
            }
        }
    }

    best
}

/// Gao–Rexford selection: better kind wins; within a kind, shorter path;
/// ties broken toward the lower next-hop ASN.
fn should_replace(current: Option<&AsPath>, kind: RouteKind, len: usize, via: Asn) -> bool {
    match current {
        None => true,
        Some(cur) => {
            let cur_next = cur.path.get(1).copied().unwrap_or(cur.path[0]);
            (kind, len, via) < (cur.kind, cur.path.len(), cur_next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::AsKind;
    use crate::graph::testutil::mk;
    use crate::routing::{is_valley_free, select_route};

    /// The same classic topology as the routing tests.
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
    fn all_ases_reach_destination() {
        let g = topo();
        let routes = routes_to(&g, Asn(20));
        assert_eq!(routes.len(), g.len());
        for (src, r) in &routes {
            assert_eq!(r.path.first(), Some(src));
            assert_eq!(r.path.last(), Some(&Asn(20)));
            assert!(is_valley_free(&g, &r.path), "{src}: {:?}", r.path);
        }
    }

    #[test]
    fn customer_routes_preferred() {
        let g = topo();
        // AS1 reaches its (transitive) customer 20 via the customer chain.
        let routes = routes_to(&g, Asn(20));
        assert_eq!(routes[&Asn(1)].kind, RouteKind::Customer);
        assert_eq!(routes[&Asn(1)].path, vec![Asn(1), Asn(10), Asn(20)]);
        // AS2 only has a peer route (via AS1's customer cone).
        assert_eq!(routes[&Asn(2)].kind, RouteKind::Peer);
        // AS12 must climb to its provider.
        assert_eq!(routes[&Asn(12)].kind, RouteKind::Provider);
    }

    #[test]
    fn agrees_with_select_route_on_kind_and_length() {
        let g = topo();
        for dest in [1u32, 2, 10, 11, 12, 20] {
            let routes = routes_to(&g, Asn(dest));
            for src in [1u32, 2, 10, 11, 12, 20] {
                let sr = select_route(&g, Asn(src), Asn(dest));
                match routes.get(&Asn(src)) {
                    Some(bgp) => {
                        let sr = sr.expect("select_route agrees on reachability");
                        assert_eq!(bgp.kind, sr.kind, "{src}->{dest}");
                        assert_eq!(bgp.path.len(), sr.path.len(), "{src}->{dest}");
                    }
                    None => assert!(sr.is_none(), "{src}->{dest} reachability mismatch"),
                }
            }
        }
    }

    #[test]
    fn unreachable_destination_empty() {
        let g = topo();
        assert!(routes_to(&g, Asn(999)).is_empty());
        let mut g2 = g;
        g2.add_as(mk(99, AsKind::Enterprise));
        let routes = routes_to(&g2, Asn(99));
        assert_eq!(routes.len(), 1, "only the isolated dest itself");
    }

    #[test]
    fn peers_do_not_export_peer_routes() {
        // 10 -peer- 1 -peer- 2 -p2c- 12: AS10 must not reach 12 through two
        // peer edges.
        let mut g = AsGraph::new();
        for (asn, kind) in
            [(1, AsKind::Tier1), (2, AsKind::Tier1), (10, AsKind::AccessIsp), (12, AsKind::AccessIsp)]
        {
            g.add_as(mk(asn, kind));
        }
        g.add_edge(Asn(10), Asn(1), Relationship::Peer);
        g.add_edge(Asn(1), Asn(2), Relationship::Peer);
        g.add_edge(Asn(12), Asn(2), Relationship::Provider);
        let routes = routes_to(&g, Asn(12));
        assert!(routes.contains_key(&Asn(2)), "provider of dest routes");
        assert!(routes.contains_key(&Asn(1)), "peer of AS2 gets peer route");
        assert!(
            !routes.contains_key(&Asn(10)),
            "AS10 would need two peer hops: {:?}",
            routes.get(&Asn(10))
        );
    }
}
