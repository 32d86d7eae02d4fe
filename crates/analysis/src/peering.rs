//! §6.1's interconnection classifier.
//!
//! "We classify paths where the cloud and probe ISP AS are directly
//! connected neighbours as direct peering. Paths where an intermediate AS
//! acts as transit [...] are tagged as private peering. Finally, paths with
//! more than one transit AS are categorised as public Internet." Paths
//! crossing a tagged exchange fabric get the "1 IXP" label of the
//! case-study matrices.

use crate::paths::AsLevelPath;
use serde::Serialize;

/// Observable interconnection category (Fig. 10 / matrix cell value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Interconnection {
    /// ISP and cloud adjacent, no fabric hop seen.
    Direct,
    /// ISP and cloud adjacent across a visible exchange fabric.
    OneIxp,
    /// Exactly one intermediate AS — likely a private transit carrier.
    OneAs,
    /// Two or more intermediate ASes — the public Internet.
    TwoPlusAs,
}

impl Interconnection {
    pub fn label(&self) -> &'static str {
        match self {
            Interconnection::Direct => "direct",
            Interconnection::OneIxp => "1 IXP",
            Interconnection::OneAs => "1 AS",
            Interconnection::TwoPlusAs => "2+ AS",
        }
    }

    pub const ALL: [Interconnection; 4] = [
        Interconnection::Direct,
        Interconnection::OneIxp,
        Interconnection::OneAs,
        Interconnection::TwoPlusAs,
    ];
}

/// Classify an AS-level path. Returns `None` for paths too broken to
/// classify (fewer than two resolved ASes — e.g. every transit hop dropped
/// our probes), mirroring the paper's removal of unusable traceroutes.
pub fn classify(path: &AsLevelPath) -> Option<Interconnection> {
    if path.ases.len() < 2 {
        return None;
    }
    Some(match path.intermediate_count() {
        0 if path.via_ixp() => Interconnection::OneIxp,
        0 => Interconnection::Direct,
        1 => Interconnection::OneAs,
        _ => Interconnection::TwoPlusAs,
    })
}

/// Aggregate classification counts — one Fig. 10 bar / matrix cell.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct InterconnectBreakdown {
    pub direct: usize,
    pub one_ixp: usize,
    pub one_as: usize,
    pub two_plus: usize,
    pub unclassifiable: usize,
}

impl InterconnectBreakdown {
    pub fn add(&mut self, c: Option<Interconnection>) {
        match c {
            Some(Interconnection::Direct) => self.direct += 1,
            Some(Interconnection::OneIxp) => self.one_ixp += 1,
            Some(Interconnection::OneAs) => self.one_as += 1,
            Some(Interconnection::TwoPlusAs) => self.two_plus += 1,
            None => self.unclassifiable += 1,
        }
    }

    pub fn classified_total(&self) -> usize {
        self.direct + self.one_ixp + self.one_as + self.two_plus
    }

    /// Fraction of classified paths in each category
    /// (direct, 1 IXP, 1 AS, 2+ AS).
    pub fn fractions(&self) -> Option<[f64; 4]> {
        let t = self.classified_total();
        if t == 0 {
            return None;
        }
        let t = t as f64;
        Some([
            self.direct as f64 / t,
            self.one_ixp as f64 / t,
            self.one_as as f64 / t,
            self.two_plus as f64 / t,
        ])
    }

    /// The dominant category, ties broken in `ALL` order — the colour of a
    /// case-study matrix cell.
    pub fn dominant(&self) -> Option<(Interconnection, f64)> {
        let f = self.fractions()?;
        let mut best = 0;
        for i in 1..4 {
            if f[i] > f[best] {
                best = i;
            }
        }
        Some((Interconnection::ALL[best], f[best]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudy_topology::{Asn, IxpId};

    fn path(ases: Vec<u32>, ixps: Vec<u32>) -> AsLevelPath {
        AsLevelPath {
            ases: ases.into_iter().map(Asn).collect(),
            ixps: ixps.into_iter().map(IxpId).collect(),
            unresolved: 0,
            private_hops: 0,
            cgn_hops: 0,
        }
    }

    #[test]
    fn classification_categories() {
        assert_eq!(classify(&path(vec![1, 2], vec![])), Some(Interconnection::Direct));
        assert_eq!(classify(&path(vec![1, 2], vec![0])), Some(Interconnection::OneIxp));
        assert_eq!(classify(&path(vec![1, 9, 2], vec![])), Some(Interconnection::OneAs));
        assert_eq!(classify(&path(vec![1, 9, 8, 2], vec![])), Some(Interconnection::TwoPlusAs));
        assert_eq!(classify(&path(vec![1], vec![])), None);
        assert_eq!(classify(&path(vec![], vec![])), None);
    }

    #[test]
    fn transit_path_with_ixp_is_still_one_as() {
        // The IXP label only applies to otherwise-direct adjacency.
        assert_eq!(classify(&path(vec![1, 9, 2], vec![0])), Some(Interconnection::OneAs));
    }

    #[test]
    fn breakdown_accumulates_and_fractions() {
        let mut b = InterconnectBreakdown::default();
        b.add(Some(Interconnection::Direct));
        b.add(Some(Interconnection::Direct));
        b.add(Some(Interconnection::OneAs));
        b.add(Some(Interconnection::TwoPlusAs));
        b.add(None);
        assert_eq!(b.classified_total(), 4);
        let f = b.fractions().unwrap();
        assert!((f[0] - 0.5).abs() < 1e-12);
        assert_eq!(b.unclassifiable, 1);
        let (dom, frac) = b.dominant().unwrap();
        assert_eq!(dom, Interconnection::Direct);
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_no_fractions() {
        let b = InterconnectBreakdown::default();
        assert!(b.fractions().is_none());
        assert!(b.dominant().is_none());
    }
}
