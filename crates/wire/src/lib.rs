//! Minimal self-contained binary encoder/decoder shared by the `.cpxr`
//! trace format (`cpx-replay`) and the TCP transport of `cpx-comm`.
//!
//! Deps are vendored stand-ins with no real serialization, so the
//! workspace carries its own wire layer: little-endian fixed-width ints,
//! LEB128 varints for counts and ids, `f64` as raw IEEE-754 bits (the
//! workspace's determinism guarantee is bit-level, so timestamps
//! round-trip exactly), and a table-driven CRC-32 (IEEE polynomial) for
//! per-record integrity.
//!
//! This crate deliberately has no dependencies (not even the vendored
//! stubs): it sits below `cpx-comm` in the crate graph so the comm
//! runtime's TCP framing and `cpx-replay`'s trace container can share
//! one implementation without a cycle.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 of `data` (IEEE, init/xorout `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only byte encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a fixed-width little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an unsigned LEB128 varint.
    pub fn put_uv(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write an `f64` as its raw IEEE-754 bits, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_uv(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// A decode failure: the input ran out or carried an invalid value.
/// Callers map this onto their own typed errors with format-level
/// context (`cpx-replay`'s `TraceError`, `cpx-comm`'s frame rejection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the value needs, at this offset.
    Eof {
        /// Byte offset of the failed read.
        offset: usize,
    },
    /// A value decoded but was not valid for its type (overlong varint,
    /// invalid UTF-8, unknown enum tag).
    Invalid {
        /// Byte offset of the failed read.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `data`, starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof { offset: self.pos });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a fixed-width little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a fixed-width little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an unsigned LEB128 varint.
    pub fn get_uv(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Invalid {
                    offset: self.pos - 1,
                    what: "varint overflows u64",
                });
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Invalid {
                    offset: self.pos,
                    what: "varint longer than 10 bytes",
                });
            }
        }
    }

    /// Read an `f64` from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let b = self.take(8)?;
        Ok(f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ])))
    }

    /// Read a bool byte. Only 0/1 are valid; anything else means
    /// corruption and is rejected.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid {
                offset: self.pos - 1,
                what: "bool byte not 0/1",
            }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_uv()? as usize;
        let offset = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid {
            offset,
            what: "string is not UTF-8",
        })
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_uv(0);
        e.put_uv(300);
        e.put_uv(u64::MAX);
        e.put_f64(-1.5e-300);
        e.put_bool(true);
        e.put_str("hello ω");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.get_uv().unwrap(), 0);
        assert_eq!(d.get_uv().unwrap(), 300);
        assert_eq!(d.get_uv().unwrap(), u64::MAX);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-1.5e-300f64).to_bits());
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "hello ω");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn truncated_reads_report_eof() {
        let mut e = Encoder::new();
        e.put_u32(7);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..2]);
        assert_eq!(d.get_u32(), Err(WireError::Eof { offset: 0 }));
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u64(), Err(WireError::Eof { offset: 0 }));
    }

    #[test]
    fn overlong_varint_rejected() {
        let bytes = [0xFFu8; 11];
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.get_uv(), Err(WireError::Invalid { .. })));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut d = Decoder::new(&[7u8]);
        assert!(matches!(d.get_bool(), Err(WireError::Invalid { .. })));
    }
}
