//! Output digests and the digests committed for known seeds.

/// 64-bit FNV-1a: small, stable across platforms and toolchains, which is
/// all a committed digest needs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Content digests committed for known (workload, seed, smoke size). A run
/// on one of these inputs must reproduce the digest exactly; a run on any
/// other seed is checked by agreement across its repetitions instead.
/// `query_mix` has none: its answers follow the store layout, and its
/// oracle check holds on every seed.
const GOLDEN: &[(&str, u64, bool, u64)] = &[
    ("repro", 42, false, 0xe572_86c9_4ac9_bfd1),
    ("repro", 42, true, 0xb1e8_e62c_0e09_206a),
    ("campaign_ping", 42, false, 0x1c6f_5c88_5561_5e5b),
    ("campaign_ping", 42, true, 0x8e47_1ac4_8fec_90f8),
    ("campaign_fresh", 42, false, 0x1969_d1ba_41c5_d448),
    ("campaign_fresh", 42, true, 0x428b_dc6c_cb65_391e),
];

/// The committed digest for this input, if there is one.
pub fn golden(workload: &str, seed: u64, smoke: bool) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|g| g.0 == workload && g.1 == seed && g.2 == smoke)
        .map(|g| g.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_reference_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }
}
