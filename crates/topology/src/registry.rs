//! PeeringDB-like registry.
//!
//! §3.3: "We further query PeeringDB and enrich our AS-level topology with
//! additional information, such as organization name, location, network
//! type, etc." The analysis crate consumes this registry — not the raw
//! simulator state — when labelling paths, mirroring the paper's toolchain
//! boundary.

use crate::asn::{AsKind, Asn};
use crate::ixp::IxpId;
use cloudy_geo::CountryCode;
use serde::Serialize;
use std::collections::HashMap;

/// One registry record.
#[derive(Debug, Clone, Serialize)]
pub struct RegistryEntry {
    pub asn: Asn,
    pub org_name: String,
    pub kind: AsKind,
    pub country: CountryCode,
    /// Exchanges where this network is present.
    pub ixps: Vec<IxpId>,
}

/// The queryable registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: HashMap<Asn, RegistryEntry>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a record.
    pub fn insert(&mut self, entry: RegistryEntry) {
        self.entries.insert(entry.asn, entry);
    }

    /// Query by ASN.
    pub fn get(&self, asn: Asn) -> Option<&RegistryEntry> {
        self.entries.get(&asn)
    }

    /// Organization name, if registered.
    pub fn org_name(&self, asn: Asn) -> Option<&str> {
        self.get(asn).map(|e| e.org_name.as_str())
    }

    /// Network type, if registered.
    pub fn kind(&self, asn: Asn) -> Option<AsKind> {
        self.get(asn).map(|e| e.kind)
    }

    /// Whether the AS is a cloud network according to the registry. The
    /// analysis pipeline uses this (not simulator ground truth) to find the
    /// cloud-owned portion of a path, as the paper does via PeeringDB.
    pub fn is_cloud(&self, asn: Asn) -> bool {
        self.kind(asn) == Some(AsKind::Cloud)
    }

    /// Record IXP presence for an AS (no-op for unknown ASes).
    pub fn add_ixp_presence(&mut self, asn: Asn, ixp: IxpId) {
        if let Some(e) = self.entries.get_mut(&asn) {
            if !e.ixps.contains(&ixp) {
                e.ixps.push(ixp);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(asn: u32, org: &str, kind: AsKind) -> RegistryEntry {
        RegistryEntry {
            asn: Asn(asn),
            org_name: org.into(),
            kind,
            country: CountryCode::new("US"),
            ixps: Vec::new(),
        }
    }

    #[test]
    fn insert_and_query() {
        let mut r = Registry::new();
        r.insert(entry(15169, "Google LLC", AsKind::Cloud));
        assert_eq!(r.org_name(Asn(15169)), Some("Google LLC"));
        assert_eq!(r.kind(Asn(15169)), Some(AsKind::Cloud));
        assert!(r.is_cloud(Asn(15169)));
        assert!(r.get(Asn(1)).is_none());
        assert!(!r.is_cloud(Asn(1)));
    }

    #[test]
    fn insert_replaces() {
        let mut r = Registry::new();
        r.insert(entry(100, "Old Name", AsKind::Tier2));
        r.insert(entry(100, "New Name", AsKind::Tier1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.org_name(Asn(100)), Some("New Name"));
    }

    #[test]
    fn ixp_presence_is_idempotent_and_guarded() {
        let mut r = Registry::new();
        r.insert(entry(100, "Net", AsKind::AccessIsp));
        r.add_ixp_presence(Asn(100), IxpId(1));
        r.add_ixp_presence(Asn(100), IxpId(1));
        r.add_ixp_presence(Asn(999), IxpId(1)); // unknown AS: no-op
        assert_eq!(r.get(Asn(100)).unwrap().ixps, vec![IxpId(1)]);
        assert!(r.get(Asn(999)).is_none());
    }
}
