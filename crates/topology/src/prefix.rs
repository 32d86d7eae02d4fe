//! Synthetic global IPv4 address plan and longest-prefix-match resolution.
//!
//! The paper's traceroute processing (§3.3) resolves router IPs to ASes with
//! PyASN (a longest-prefix-match over a BGP RIB snapshot), falling back to
//! Team Cymru for unresolved hops. We reproduce that pipeline faithfully: the
//! simulator assigns every AS real-looking prefixes from a deterministic
//! allocator, traceroutes emit bare [`Ipv4Addr`]s, and the analysis side gets
//! them back to ASes only through [`PrefixTable::lookup`] — never by cheating
//! through simulator internals.

use crate::asn::Asn;
use serde::Serialize;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// An IPv4 prefix (`base/len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct IpPrefix {
    base: u32,
    len: u8,
}

impl IpPrefix {
    /// Construct, normalising the base to the prefix boundary.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        let base = u32::from(addr) & Self::mask(len);
        IpPrefix { base, len }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask(self.len) == self.base
    }

    /// Prefix length in bits. (`is_empty` is meaningless for a prefix
    /// length — a /0 is the full table, not an empty one.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Network base address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th host address inside the prefix (wraps within the prefix).
    pub fn host(&self, i: u64) -> Ipv4Addr {
        let span = self.size();
        Ipv4Addr::from(self.base + (i % span) as u32)
    }
}

impl std::fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Whether an address is in RFC1918 private space (home routers in the
/// paper's home-probe classification respond with these).
pub fn is_private(addr: Ipv4Addr) -> bool {
    let o = addr.octets();
    o[0] == 10
        || (o[0] == 172 && (16..=31).contains(&o[1]))
        || (o[0] == 192 && o[1] == 168)
}

/// Whether an address is in RFC6598 carrier-grade NAT space (100.64/10) —
/// the CGN deployments §5 warns can confuse home/cell classification.
pub fn is_cgn(addr: Ipv4Addr) -> bool {
    let o = addr.octets();
    o[0] == 100 && (64..=127).contains(&o[1])
}

/// Longest-prefix-match table from prefixes to ASNs (the PyASN analog).
///
/// ```
/// use cloudy_topology::{Asn, IpPrefix, PrefixTable};
/// use std::net::Ipv4Addr;
/// let mut table = PrefixTable::new();
/// table.announce(IpPrefix::new(Ipv4Addr::new(11, 0, 0, 0), 8), Asn(100));
/// table.announce(IpPrefix::new(Ipv4Addr::new(11, 5, 0, 0), 16), Asn(200));
/// assert_eq!(table.lookup(Ipv4Addr::new(11, 5, 1, 1)), Some(Asn(200)));
/// assert_eq!(table.lookup(Ipv4Addr::new(11, 9, 1, 1)), Some(Asn(100)));
/// assert_eq!(table.lookup(Ipv4Addr::new(99, 0, 0, 1)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PrefixTable {
    /// One exact-match map per prefix length; lookup walks from /32 down.
    by_len: Vec<HashMap<u32, Asn>>,
    count: usize,
}

impl PrefixTable {
    pub fn new() -> Self {
        PrefixTable { by_len: (0..=32).map(|_| HashMap::new()).collect(), count: 0 }
    }

    /// Announce `prefix` as originated by `asn`. Re-announcing replaces.
    pub fn announce(&mut self, prefix: IpPrefix, asn: Asn) {
        let slot = &mut self.by_len[prefix.len as usize];
        if slot.insert(prefix.base, asn).is_none() {
            self.count += 1;
        }
    }

    /// Longest-prefix match. Returns the originating ASN, or `None` for
    /// unrouted space (private ranges are never announced).
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<Asn> {
        let ip = u32::from(addr);
        for len in (0..=32u8).rev() {
            let base = ip & IpPrefix::mask(len);
            if let Some(asn) = self.by_len[len as usize].get(&base) {
                return Some(*asn);
            }
        }
        None
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Deterministic allocator handing out public-looking prefix blocks.
///
/// Allocations start at 11.0.0.0 and walk upward in /16 units, skipping
/// ranges that must stay special (loopback, RFC1918 172.16/12 and 192.168/16,
/// CGN 100.64/10, multicast and above).
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    /// Next /16 index (the upper 16 bits of the next candidate block).
    next_block: u32,
}

impl Default for PrefixAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixAllocator {
    pub fn new() -> Self {
        // 11.0.0.0 == block index 11*256.
        PrefixAllocator { next_block: 11 * 256 }
    }

    fn block_is_reserved(block: u32) -> bool {
        let first_octet = block >> 8;
        let second_octet = block & 0xff;
        match first_octet {
            0 | 10 | 127 => true,
            100 if (64..=127).contains(&second_octet) => true,
            169 if second_octet == 254 => true,
            172 if (16..=31).contains(&second_octet) => true,
            192 if second_octet == 168 => true,
            198 if second_octet == 18 || second_octet == 19 => true,
            f if f >= 224 => true,
            _ => false,
        }
    }

    /// Allocate a fresh prefix of length `len` (must be ≤ 16; finer
    /// allocations should subdivide a /16 themselves). Each call consumes
    /// whole /16 blocks so no two allocations ever overlap.
    pub fn alloc(&mut self, len: u8) -> IpPrefix {
        assert!((8..=16).contains(&len), "allocator hands out /8../16, got /{len}");
        let blocks_needed = 1u32 << (16 - len);
        loop {
            // Align to the allocation size.
            let rem = self.next_block % blocks_needed;
            if rem != 0 {
                self.next_block += blocks_needed - rem;
            }
            let start = self.next_block;
            let range_reserved =
                (start..start + blocks_needed).any(Self::block_is_reserved);
            self.next_block = start + blocks_needed;
            assert!(
                self.next_block <= 224 * 256,
                "IPv4 plan exhausted — topology unexpectedly huge"
            );
            if !range_reserved {
                let base = start << 16;
                return IpPrefix { base, len };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_contains_and_normalises() {
        let p = IpPrefix::new(Ipv4Addr::new(11, 5, 77, 3), 16);
        assert_eq!(p.network(), Ipv4Addr::new(11, 5, 0, 0));
        assert!(p.contains(Ipv4Addr::new(11, 5, 255, 255)));
        assert!(!p.contains(Ipv4Addr::new(11, 6, 0, 0)));
        assert_eq!(p.to_string(), "11.5.0.0/16");
    }

    #[test]
    fn host_generation_stays_in_prefix() {
        let p = IpPrefix::new(Ipv4Addr::new(20, 0, 0, 0), 16);
        for i in [0u64, 1, 65_535, 65_536, 1_000_000] {
            assert!(p.contains(p.host(i)), "host({i}) escaped");
        }
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let p = IpPrefix::new(Ipv4Addr::new(1, 2, 3, 4), 0);
        assert!(p.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(p.size(), 1 << 32);
    }

    #[test]
    fn private_and_cgn_detection() {
        assert!(is_private(Ipv4Addr::new(192, 168, 1, 1)));
        assert!(is_private(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(is_private(Ipv4Addr::new(172, 16, 0, 1)));
        assert!(is_private(Ipv4Addr::new(172, 31, 255, 255)));
        assert!(!is_private(Ipv4Addr::new(172, 32, 0, 1)));
        assert!(!is_private(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(is_cgn(Ipv4Addr::new(100, 64, 0, 1)));
        assert!(is_cgn(Ipv4Addr::new(100, 127, 255, 255)));
        assert!(!is_cgn(Ipv4Addr::new(100, 128, 0, 1)));
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut t = PrefixTable::new();
        t.announce(IpPrefix::new(Ipv4Addr::new(11, 0, 0, 0), 8), Asn(1));
        t.announce(IpPrefix::new(Ipv4Addr::new(11, 5, 0, 0), 16), Asn(2));
        t.announce(IpPrefix::new(Ipv4Addr::new(11, 5, 7, 0), 24), Asn(3));
        assert_eq!(t.lookup(Ipv4Addr::new(11, 5, 7, 9)), Some(Asn(3)));
        assert_eq!(t.lookup(Ipv4Addr::new(11, 5, 8, 9)), Some(Asn(2)));
        assert_eq!(t.lookup(Ipv4Addr::new(11, 9, 9, 9)), Some(Asn(1)));
        assert_eq!(t.lookup(Ipv4Addr::new(12, 0, 0, 1)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn reannounce_replaces() {
        let mut t = PrefixTable::new();
        let p = IpPrefix::new(Ipv4Addr::new(11, 0, 0, 0), 16);
        t.announce(p, Asn(1));
        t.announce(p, Asn(2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Ipv4Addr::new(11, 0, 3, 4)), Some(Asn(2)));
    }

    #[test]
    fn allocator_never_hands_out_reserved_or_overlapping() {
        let mut a = PrefixAllocator::new();
        let mut allocated: Vec<IpPrefix> = Vec::new();
        for i in 0..500 {
            let len = if i % 3 == 0 { 14 } else { 16 };
            let p = a.alloc(len);
            // No reserved space.
            assert!(!is_private(p.network()), "{p}");
            assert!(!is_cgn(p.network()), "{p}");
            assert_ne!(p.network().octets()[0], 127, "{p}");
            // No overlap with previous allocations.
            for q in &allocated {
                assert!(!q.contains(p.network()), "{p} overlaps {q}");
                assert!(!p.contains(q.network()), "{p} overlaps {q}");
            }
            allocated.push(p);
        }
    }

    #[test]
    fn allocator_is_deterministic() {
        let mut a = PrefixAllocator::new();
        let mut b = PrefixAllocator::new();
        for _ in 0..50 {
            assert_eq!(a.alloc(16), b.alloc(16));
        }
    }

    #[test]
    #[should_panic(expected = "/8../16")]
    fn allocator_rejects_fine_lengths() {
        PrefixAllocator::new().alloc(24);
    }
}
