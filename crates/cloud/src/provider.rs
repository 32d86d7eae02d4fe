//! The ten cloud provider products of Table 1.

use cloudy_topology::{known, Asn};
use serde::Serialize;
use std::fmt;

/// Backbone network class from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Backbone {
    /// Fully private WAN shielding tenant traffic globally.
    Private,
    /// Private backbone only within certain continents ("Semi").
    Semi,
    /// Relies on the public Internet for both horizontal and vertical
    /// traffic.
    Public,
}

impl Backbone {
    pub fn label(&self) -> &'static str {
        match self {
            Backbone::Private => "Private",
            Backbone::Semi => "Semi",
            Backbone::Public => "Public",
        }
    }
}

/// A measured provider product. Amazon EC2 and Amazon Lightsail are distinct
/// rows in Table 1 (separate region sets, separate edge ASN) even though both
/// belong to Amazon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Provider {
    AmazonEc2,
    Google,
    Microsoft,
    DigitalOcean,
    Alibaba,
    Vultr,
    Linode,
    AmazonLightsail,
    Oracle,
    Ibm,
}

impl Provider {
    /// All providers in Table 1 row order.
    pub const ALL: [Provider; 10] = [
        Provider::AmazonEc2,
        Provider::Google,
        Provider::Microsoft,
        Provider::DigitalOcean,
        Provider::Alibaba,
        Provider::Vultr,
        Provider::Linode,
        Provider::AmazonLightsail,
        Provider::Oracle,
        Provider::Ibm,
    ];

    /// The nine providers shown in Figs. 10–13 (the paper folds Lightsail
    /// into the figures' AMZN or omits it; the interconnection figures list
    /// exactly nine abbreviations).
    pub const FIGURE_NINE: [Provider; 9] = [
        Provider::Alibaba,
        Provider::AmazonEc2,
        Provider::DigitalOcean,
        Provider::Google,
        Provider::Ibm,
        Provider::Linode,
        Provider::Microsoft,
        Provider::Oracle,
        Provider::Vultr,
    ];

    /// Table-1 abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Provider::AmazonEc2 => "AMZN",
            Provider::Google => "GCP",
            Provider::Microsoft => "MSFT",
            Provider::DigitalOcean => "DO",
            Provider::Alibaba => "BABA",
            Provider::Vultr => "VLTR",
            Provider::Linode => "LIN",
            Provider::AmazonLightsail => "LTSL",
            Provider::Oracle => "ORCL",
            Provider::Ibm => "IBM",
        }
    }

    /// Full product name as in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Provider::AmazonEc2 => "Amazon EC2",
            Provider::Google => "Google",
            Provider::Microsoft => "Microsoft",
            Provider::DigitalOcean => "Digital Ocean",
            Provider::Alibaba => "Alibaba",
            Provider::Vultr => "Vultr",
            Provider::Linode => "Linode",
            Provider::AmazonLightsail => "Amazon Lightsail",
            Provider::Oracle => "Oracle",
            Provider::Ibm => "IBM",
        }
    }

    /// Backbone class, Table 1 rightmost column.
    pub fn backbone(&self) -> Backbone {
        match self {
            Provider::AmazonEc2
            | Provider::Google
            | Provider::Microsoft
            | Provider::AmazonLightsail
            | Provider::Oracle => Backbone::Private,
            Provider::DigitalOcean | Provider::Alibaba | Provider::Ibm => Backbone::Semi,
            Provider::Vultr | Provider::Linode => Backbone::Public,
        }
    }

    /// The provider's network ASN (its private WAN / edge network).
    pub fn asn(&self) -> Asn {
        match self {
            Provider::AmazonEc2 => known::AMAZON,
            Provider::Google => known::GOOGLE,
            Provider::Microsoft => known::MICROSOFT,
            Provider::DigitalOcean => known::DIGITALOCEAN,
            Provider::Alibaba => known::ALIBABA,
            Provider::Vultr => known::VULTR,
            Provider::Linode => known::LINODE,
            Provider::AmazonLightsail => known::AMAZON_LIGHTSAIL,
            Provider::Oracle => known::ORACLE,
            Provider::Ibm => known::IBM_CLOUD,
        }
    }

    /// The "big-3 hypergiants" of the paper's §6 takeaway (Amazon, Google,
    /// Microsoft). Lightsail rides Amazon's network and inherits the status.
    pub fn is_hypergiant(&self) -> bool {
        matches!(
            self,
            Provider::AmazonEc2
                | Provider::Google
                | Provider::Microsoft
                | Provider::AmazonLightsail
        )
    }

    /// Resolve an abbreviation back to the provider.
    pub fn from_abbrev(s: &str) -> Option<Provider> {
        Provider::ALL.iter().copied().find(|p| p.abbrev() == s)
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ten_providers_nine_in_figures() {
        assert_eq!(Provider::ALL.len(), 10);
        assert_eq!(Provider::FIGURE_NINE.len(), 9);
        assert!(!Provider::FIGURE_NINE.contains(&Provider::AmazonLightsail));
    }

    #[test]
    fn abbrevs_unique_and_round_trip() {
        let mut seen = HashSet::new();
        for p in Provider::ALL {
            assert!(seen.insert(p.abbrev()));
            assert_eq!(Provider::from_abbrev(p.abbrev()), Some(p));
        }
        assert_eq!(Provider::from_abbrev("NOPE"), None);
    }

    #[test]
    fn backbone_classes_match_table_1() {
        use Backbone::*;
        assert_eq!(Provider::AmazonEc2.backbone(), Private);
        assert_eq!(Provider::Google.backbone(), Private);
        assert_eq!(Provider::Microsoft.backbone(), Private);
        assert_eq!(Provider::DigitalOcean.backbone(), Semi);
        assert_eq!(Provider::Alibaba.backbone(), Semi);
        assert_eq!(Provider::Vultr.backbone(), Public);
        assert_eq!(Provider::Linode.backbone(), Public);
        assert_eq!(Provider::AmazonLightsail.backbone(), Private);
        assert_eq!(Provider::Oracle.backbone(), Private);
        assert_eq!(Provider::Ibm.backbone(), Semi);
    }

    #[test]
    fn hypergiants_are_big3_plus_lightsail() {
        let hg: Vec<_> = Provider::ALL.iter().filter(|p| p.is_hypergiant()).collect();
        assert_eq!(hg.len(), 4);
        assert!(!Provider::Oracle.is_hypergiant());
        assert!(!Provider::Alibaba.is_hypergiant());
    }

    #[test]
    fn asns_unique() {
        let asns: HashSet<_> = Provider::ALL.iter().map(|p| p.asn()).collect();
        assert_eq!(asns.len(), Provider::ALL.len());
    }

    #[test]
    fn display_is_abbrev() {
        assert_eq!(Provider::Google.to_string(), "GCP");
        assert_eq!(Backbone::Semi.label(), "Semi");
    }
}
