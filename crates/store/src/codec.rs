//! Low-level column encodings: LEB128 varints, zigzag, delta streams,
//! dictionaries, presence bitmaps, and the lossless hybrid RTT codec.
//!
//! Every encoder is paired with a decoder returning `Result<_, StoreError>` —
//! a store file is external input and must never abort the process.

use crate::error::StoreError;

/// Append a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8; // audit:allow(as-truncate)
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Cursor over a byte slice; all reads are bounds-checked.
#[derive(Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes read so far: the offset of the next read within the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| StoreError::corrupt("truncated: expected u8"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end =
            self.pos.checked_add(n).ok_or_else(|| StoreError::corrupt("length overflow"))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| {
            let remain = self.remaining();
            StoreError::corrupt(format!("truncated: expected {n} bytes, {remain} remain"))
        })?;
        self.pos = end;
        Ok(s)
    }

    pub fn varint(&mut self) -> Result<u64, StoreError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8().map_err(|_| StoreError::corrupt("truncated varint"))?;
            if shift >= 64 || (shift == 63 && (b & 0x7f) > 1) {
                return Err(StoreError::corrupt("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn u64_le(&mut self) -> Result<u64, StoreError> {
        let b = self.bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// Decode `n` entries of at least one byte each with `entry`. `n` is
/// checked against the bytes left before anything is allocated.
pub fn get_entries<'a, T>(
    cur: &mut Cursor<'a>,
    n: usize,
    mut entry: impl FnMut(&mut Cursor<'a>) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    if n > cur.remaining() {
        return Err(StoreError::corrupt(format!("{n} entries in {} bytes", cur.remaining())));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(entry(cur)?);
    }
    Ok(out)
}

/// Zigzag-encode a signed value into an unsigned varint payload.
pub fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Delta-zigzag-varint encode a u64 sequence (wrapping diffs, so any
/// sequence — sorted or not — round-trips exactly).
pub fn put_delta_u64(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut prev = 0u64;
    for v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Decode `n` values written by [`put_delta_u64`], each mapped through `f`
/// in the same pass.
pub fn get_delta<T>(
    cur: &mut Cursor<'_>,
    n: usize,
    mut f: impl FnMut(u64) -> Result<T, StoreError>,
) -> Result<Vec<T>, StoreError> {
    let mut prev = 0u64;
    get_entries(cur, n, |c| {
        prev = prev.wrapping_add(unzigzag(c.varint()?) as u64);
        f(prev)
    })
}

/// A presence bitmap over the slots `present` yields, bit i = slot i
/// present.
pub fn put_bitmap(out: &mut Vec<u8>, present: impl IntoIterator<Item = bool>) {
    let (mut byte, mut n) = (0u8, 0usize);
    for p in present {
        if p {
            byte |= 1 << (n % 8);
        }
        n += 1;
        if n.is_multiple_of(8) {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Decode a bitmap of `n` slots.
pub fn get_bitmap(cur: &mut Cursor<'_>, n: usize) -> Result<Vec<bool>, StoreError> {
    let bytes = cur.bytes(n.div_ceil(8))?;
    Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
}

/// Decode a sparse column over `n` slots: a presence bitmap, then `decode`
/// reads the set slots' values, packed in slot order. Yields one `Option`
/// per slot.
pub fn get_sparse<'a, T>(
    bitmap: &mut Cursor<'a>,
    values: &mut Cursor<'a>,
    n: usize,
    decode: impl FnOnce(&mut Cursor<'a>, usize) -> Result<Vec<T>, StoreError>,
) -> Result<impl Iterator<Item = Option<T>>, StoreError> {
    let present = get_bitmap(bitmap, n)?;
    let mut packed = decode(values, present.iter().filter(|p| **p).count())?.into_iter();
    Ok(present.into_iter().map(move |p| if p { packed.next() } else { None }))
}

/// Dictionary builder: ids are assigned in first-appearance order, so the
/// encoding is a pure function of the value sequence (determinism contract).
pub struct DictBuilder<T: Eq + std::hash::Hash + Clone> {
    // HashMap is lookup-only here; the ordered `values` vec is what gets
    // serialized, so iteration order never leaks into the file.
    ids: std::collections::HashMap<T, u32>,
    values: Vec<T>,
    pub indices: Vec<u32>,
}

impl<T: Eq + std::hash::Hash + Clone> Default for DictBuilder<T> {
    fn default() -> Self {
        DictBuilder { ids: Default::default(), values: Vec::new(), indices: Vec::new() }
    }
}

impl<T: Eq + std::hash::Hash + Clone> DictBuilder<T> {
    /// Append `value`'s id, assigning the next one on first sight. The
    /// key is cloned only then: a hit costs a lookup, not an allocation.
    pub fn push(&mut self, value: &T) {
        let id = match self.ids.get(value) {
            Some(id) => *id,
            None => {
                let id = self.values.len() as u32; // audit:allow(as-truncate)
                self.ids.insert(value.clone(), id);
                self.values.push(value.clone());
                id
            }
        };
        self.indices.push(id);
    }

    pub fn entries(&self) -> &[T] {
        &self.values
    }
}

/// Encode dictionary indices (varint per row).
pub fn put_indices(out: &mut Vec<u8>, indices: &[u32]) {
    for ix in indices {
        put_varint(out, u64::from(*ix));
    }
}

/// Decode `n` dictionary indices, validating against `dict_len`.
pub fn get_indices(cur: &mut Cursor<'_>, n: usize, dict_len: usize) -> Result<Vec<u32>, StoreError> {
    get_entries(cur, n, |c| {
        let ix = c.varint()?;
        if ix >= dict_len as u64 {
            return Err(StoreError::corrupt(format!("dictionary index {ix} out of range (dict has {dict_len})")));
        }
        Ok(ix as u32) // audit:allow(as-truncate)
    })
}

/// Hybrid RTT column tag: values stored as integer microseconds.
pub const RTT_MICROS: u8 = 0;
/// Hybrid RTT column tag: values stored as raw f64 bit patterns.
pub const RTT_F64BITS: u8 = 1;

/// Whether `v` is exactly representable as integer microseconds, i.e. the
/// micros encoding is lossless for it.
fn micros_exact(v: f64) -> Option<u64> {
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    let us = (v * 1000.0).round();
    if us <= 9.0e15 && us / 1000.0 == v {
        Some(us as u64)
    } else {
        None
    }
}

/// Encode an RTT (milliseconds) column: delta+varint integer microseconds
/// when that is lossless for the whole chunk, else delta+varint of the raw
/// f64 bit patterns. Either way the decode is bit-exact. Two passes over
/// `values` (the check, then the write), so nothing is buffered.
pub fn put_rtts(out: &mut Vec<u8>, values: impl Iterator<Item = f64> + Clone) {
    if values.clone().all(|v| micros_exact(v).is_some()) {
        out.push(RTT_MICROS);
        put_delta_u64(out, values.filter_map(micros_exact));
    } else {
        out.push(RTT_F64BITS);
        put_delta_u64(out, values.map(f64::to_bits));
    }
}

/// Decode `n` RTT values written by [`put_rtts`], each mapped through `f`.
pub fn get_rtts<T>(
    cur: &mut Cursor<'_>,
    n: usize,
    f: impl Fn(f64) -> T,
) -> Result<Vec<T>, StoreError> {
    match cur.u8()? {
        RTT_MICROS => get_delta(cur, n, |us| Ok(f(us as f64 / 1000.0))),
        RTT_F64BITS => get_delta(cur, n, |bits| Ok(f(f64::from_bits(bits)))),
        other => Err(StoreError::corrupt(format!("unknown rtt encoding tag {other}"))),
    }
}

/// Append a length-prefixed block: callers frame every column this way so
/// readers can skip columns they do not need (projection scans).
pub fn put_block(out: &mut Vec<u8>, body: &[u8]) {
    put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// Read one length-prefixed block.
pub fn get_block<'a>(cur: &mut Cursor<'a>) -> Result<Cursor<'a>, StoreError> {
    let len = cur.varint()? as usize;
    Ok(Cursor::new(cur.bytes(len)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert_eq!(cur.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        let mut cur = Cursor::new(&[0xff; 11]);
        assert!(cur.varint().is_err());
        let mut cur = Cursor::new(&[0x80]);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn zigzag_round_trips() {
        for n in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(n)), n);
        }
    }

    #[test]
    fn delta_u64_round_trips_unsorted_and_extreme() {
        let vals = vec![5u64, 3, u64::MAX, 0, 42, u64::MAX / 2];
        let mut buf = Vec::new();
        put_delta_u64(&mut buf, vals.iter().copied());
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_delta(&mut cur, vals.len(), Ok).unwrap(), vals);
    }

    #[test]
    fn bitmap_round_trips_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 17] {
            let present: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            put_bitmap(&mut buf, present.iter().copied());
            let mut cur = Cursor::new(&buf);
            assert_eq!(get_bitmap(&mut cur, n).unwrap(), present);
        }
    }

    #[test]
    fn dict_assigns_first_appearance_ids() {
        let mut d = DictBuilder::default();
        for s in ["b", "a", "b", "c", "a"] {
            d.push(&s.to_string());
        }
        assert_eq!(d.entries(), &["b".to_string(), "a".into(), "c".into()]);
        assert_eq!(d.indices, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn dict_clones_a_key_only_on_its_first_sight() {
        use std::cell::Cell;
        use std::rc::Rc;
        /// A key that counts its clones; identity is the byte alone.
        struct Key(u8, Rc<Cell<usize>>);
        impl Clone for Key {
            fn clone(&self) -> Key {
                self.1.set(self.1.get() + 1);
                Key(self.0, Rc::clone(&self.1))
            }
        }
        impl PartialEq for Key {
            fn eq(&self, other: &Key) -> bool {
                self.0 == other.0
            }
        }
        impl Eq for Key {}
        impl std::hash::Hash for Key {
            fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
                self.0.hash(h);
            }
        }
        let clones = Rc::new(Cell::new(0));
        let mut d = DictBuilder::default();
        for b in [2u8, 1, 2, 3, 1, 2, 2] {
            d.push(&Key(b, Rc::clone(&clones)));
        }
        assert_eq!(d.indices, vec![0, 1, 0, 2, 1, 0, 0]);
        // Two clones (map key and entry) per distinct key, none per hit.
        assert_eq!(clones.get(), 2 * 3);
    }

    #[test]
    fn indices_validate_against_dict_len() {
        let mut buf = Vec::new();
        put_indices(&mut buf, &[0, 2, 1]);
        let mut cur = Cursor::new(&buf);
        assert!(get_indices(&mut cur, 3, 2).is_err());
    }

    #[test]
    fn rtt_hybrid_uses_micros_when_lossless() {
        // Values that are exact multiples of 1 µs take the integer path.
        let vals = [12.5, 0.001, 34.125, 100.0];
        let mut buf = Vec::new();
        put_rtts(&mut buf, vals.iter().copied());
        assert_eq!(buf[0], RTT_MICROS);
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_rtts(&mut cur, vals.len(), |v| v).unwrap(), vals);
    }

    #[test]
    fn rtt_hybrid_falls_back_to_bits_losslessly() {
        let vals = [1.0 / 3.0, std::f64::consts::PI, 2.5e-9, 7.0];
        let mut buf = Vec::new();
        put_rtts(&mut buf, vals.iter().copied());
        assert_eq!(buf[0], RTT_F64BITS);
        let mut cur = Cursor::new(&buf);
        let back = get_rtts(&mut cur, vals.len(), |v| v).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn blocks_frame_and_skip() {
        let mut buf = Vec::new();
        put_block(&mut buf, b"abc");
        put_block(&mut buf, b"defg");
        let mut cur = Cursor::new(&buf);
        get_block(&mut cur).unwrap();
        let mut inner = get_block(&mut cur).unwrap();
        assert_eq!(inner.bytes(4).unwrap(), b"defg");
    }
}
