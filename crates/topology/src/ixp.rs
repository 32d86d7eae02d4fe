//! Internet eXchange Points.
//!
//! IXPs matter twice in the paper: (1) their *fabric* prefixes show up as
//! traceroute hops that must be tagged via the CAIDA IXP dataset and removed
//! from AS-level paths before peering classification (§6.1), and (2) the
//! "1 IXP" category appears explicitly in the case-study matrices
//! (Figs. 12a/13a/17a/18a). An IXP here owns a fabric prefix and a member
//! list; it is *not* an AS and never appears in routing decisions — it is
//! where peer edges physically happen.

use crate::asn::Asn;
use crate::prefix::IpPrefix;
use cloudy_geo::GeoPoint;
use serde::Serialize;

/// Identifier for an IXP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct IxpId(pub u32);

/// An Internet eXchange Point.
#[derive(Debug, Clone)]
pub struct Ixp {
    pub id: IxpId,
    pub name: String,
    pub location: GeoPoint,
    /// The peering-LAN prefix; hops with addresses here are "IXP hops".
    pub fabric: IpPrefix,
    /// ASes present at this exchange.
    pub members: Vec<Asn>,
}

impl Ixp {
    pub fn new(id: IxpId, name: impl Into<String>, location: GeoPoint, fabric: IpPrefix) -> Self {
        Ixp { id, name: name.into(), location, fabric, members: Vec::new() }
    }

    /// Add a member (idempotent).
    pub fn add_member(&mut self, asn: Asn) {
        if !self.members.contains(&asn) {
            self.members.push(asn);
        }
    }

    pub fn is_member(&self, asn: Asn) -> bool {
        self.members.contains(&asn)
    }

    /// Whether both ASes can peer across this fabric.
    pub fn can_interconnect(&self, a: Asn, b: Asn) -> bool {
        a != b && self.is_member(a) && self.is_member(b)
    }
}

/// The set of all IXPs — the CAIDA-dataset analog handed to the analysis
/// pipeline for hop tagging.
#[derive(Debug, Clone, Default)]
pub struct IxpDirectory {
    ixps: Vec<Ixp>,
}

impl IxpDirectory {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, ixp: Ixp) -> IxpId {
        let id = ixp.id;
        debug_assert!(
            !self.ixps.iter().any(|x| x.id == id),
            "duplicate IXP id {id:?}"
        );
        self.ixps.push(ixp);
        id
    }

    pub fn get(&self, id: IxpId) -> Option<&Ixp> {
        self.ixps.iter().find(|x| x.id == id)
    }

    pub fn get_mut(&mut self, id: IxpId) -> Option<&mut Ixp> {
        self.ixps.iter_mut().find(|x| x.id == id)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Ixp> {
        self.ixps.iter()
    }

    pub fn len(&self) -> usize {
        self.ixps.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ixps.is_empty()
    }

    /// Whether `addr` lies in any IXP fabric — the hop-tagging primitive.
    pub fn tag(&self, addr: std::net::Ipv4Addr) -> Option<IxpId> {
        self.ixps.iter().find(|x| x.fabric.contains(addr)).map(|x| x.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn mk_ixp(id: u32, name: &str, lat: f64, lon: f64, third_octet: u8) -> Ixp {
        Ixp::new(
            IxpId(id),
            name,
            GeoPoint::new(lat, lon),
            IpPrefix::new(Ipv4Addr::new(80, 81, third_octet, 0), 24),
        )
    }

    #[test]
    fn membership_is_idempotent() {
        let mut ixp = mk_ixp(0, "DE-CIX", 50.11, 8.68, 192);
        ixp.add_member(Asn(1));
        ixp.add_member(Asn(1));
        assert_eq!(ixp.members.len(), 1);
        assert!(ixp.is_member(Asn(1)));
        assert!(!ixp.is_member(Asn(2)));
    }

    #[test]
    fn interconnect_requires_both_members() {
        let mut ixp = mk_ixp(0, "DE-CIX", 50.11, 8.68, 192);
        ixp.add_member(Asn(1));
        ixp.add_member(Asn(2));
        assert!(ixp.can_interconnect(Asn(1), Asn(2)));
        assert!(!ixp.can_interconnect(Asn(1), Asn(3)));
        assert!(!ixp.can_interconnect(Asn(1), Asn(1)));
    }

    #[test]
    fn tag_matches_fabric_prefix() {
        let mut dir = IxpDirectory::new();
        dir.add(mk_ixp(0, "DE-CIX", 50.11, 8.68, 192));
        dir.add(mk_ixp(1, "AMS-IX", 52.37, 4.90, 193));
        assert_eq!(dir.tag(Ipv4Addr::new(80, 81, 192, 7)), Some(IxpId(0)));
        assert_eq!(dir.tag(Ipv4Addr::new(80, 81, 193, 7)), Some(IxpId(1)));
        assert_eq!(dir.tag(Ipv4Addr::new(80, 81, 194, 7)), None);
    }

    #[test]
    fn directory_lookup() {
        let mut dir = IxpDirectory::new();
        dir.add(mk_ixp(7, "LINX", 51.51, -0.13, 10));
        assert_eq!(dir.get(IxpId(7)).unwrap().name, "LINX");
        assert!(dir.get(IxpId(8)).is_none());
        assert_eq!(dir.len(), 1);
    }
}
