//! The `.cpxr` trace container: a versioned, CRC-checked binary framing
//! around a sequence of [`ReplayEvent`] records.
//!
//! Layout (all multi-byte integers little-endian):
//!
//! ```text
//! magic            4 bytes   "CPXR"
//! schema_version   u32       currently 1
//! label            varint len + UTF-8
//! seed             u64 (LEB128 varint)
//! world_size       u32
//! event_count      varint
//! repeated event_count times:
//!   payload_len    varint
//!   payload        payload_len bytes (one encoded ReplayEvent)
//!   crc32          u32  (CRC-32/IEEE over payload)
//! ```
//!
//! Every failure mode maps to a typed [`TraceError`]: wrong magic, a
//! schema version this build does not understand, truncation anywhere,
//! a record whose CRC does not match, or a payload that decodes to
//! garbage. Nothing panics on hostile input.

use std::fmt;
use std::path::Path;

use cpx_wire::{crc32, Decoder, Encoder, WireError};

use crate::event::ReplayEvent;

/// File magic, first four bytes of every trace.
pub const MAGIC: [u8; 4] = *b"CPXR";

/// Format version written by this build; older readers reject newer
/// files with [`TraceError::UnsupportedVersion`] instead of misparsing.
pub const SCHEMA_VERSION: u32 = 1;

/// A recorded run: identifying header plus the full event sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Human-readable scenario label (e.g. `"crash_shrink"`).
    pub label: String,
    /// The seed that, together with the scenario configuration, makes
    /// the run reproducible.
    pub seed: u64,
    /// Number of ranks (or DES program width) in the recorded run.
    pub world_size: u32,
    /// The recorded event sequence, in deterministic order.
    pub events: Vec<ReplayEvent>,
}

/// Why a trace could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The first four bytes were not `"CPXR"`.
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The file's schema version is not one this build can read.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file ended before the structure it promised.
    Truncated {
        /// Byte offset where data ran out.
        offset: usize,
    },
    /// A record's stored CRC does not match its payload.
    CorruptRecord {
        /// Zero-based record index.
        index: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A record's payload failed to decode (unknown tag, bad value).
    Malformed {
        /// Zero-based record index.
        index: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// An underlying filesystem error (message preserved).
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic { found } => {
                write!(f, "not a CPXR trace (magic {found:02x?})")
            }
            TraceError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported trace schema version {found} (this build reads {supported})"
            ),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte offset {offset}")
            }
            TraceError::CorruptRecord {
                index,
                stored,
                computed,
            } => write!(
                f,
                "record {index} corrupt: stored CRC {stored:#010x}, computed {computed:#010x}"
            ),
            TraceError::Malformed { index, what } => {
                write!(f, "record {index} malformed: {what}")
            }
            TraceError::Io(msg) => write!(f, "trace I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Serialize to the `.cpxr` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_bytes(&MAGIC);
        enc.put_u32(SCHEMA_VERSION);
        enc.put_str(&self.label);
        enc.put_uv(self.seed);
        enc.put_u32(self.world_size);
        enc.put_uv(self.events.len() as u64);
        for ev in &self.events {
            let mut payload = Encoder::new();
            ev.encode(&mut payload);
            let payload = payload.into_bytes();
            enc.put_uv(payload.len() as u64);
            let crc = crc32(&payload);
            enc.put_bytes(&payload);
            enc.put_u32(crc);
        }
        enc.into_bytes()
    }

    /// Parse a trace from bytes, verifying magic, version, and every
    /// record's CRC.
    pub fn from_bytes(data: &[u8]) -> Result<Trace, TraceError> {
        let mut dec = Decoder::new(data);
        let magic = dec
            .get_bytes(4)
            .map_err(|_| TraceError::Truncated { offset: 0 })?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic {
                found: [magic[0], magic[1], magic[2], magic[3]],
            });
        }
        let version = dec.get_u32().map_err(wire_header)?;
        if version != SCHEMA_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        let label = dec.get_str().map_err(wire_header)?;
        let seed = dec.get_uv().map_err(wire_header)?;
        let world_size = dec.get_u32().map_err(wire_header)?;
        let count = dec.get_uv().map_err(wire_header)? as usize;
        // Sanity bound: each record costs at least 3 bytes (len + one
        // payload byte + CRC would already be 6, but stay conservative),
        // so a count wildly beyond the remaining bytes is corruption —
        // reject it before trying to allocate.
        if count > dec.remaining() {
            return Err(TraceError::Malformed {
                index: 0,
                what: "event count exceeds file size",
            });
        }
        let mut events = Vec::with_capacity(count);
        for index in 0..count {
            let len = dec.get_uv().map_err(|e| wire_record(index, e))? as usize;
            let payload = dec.get_bytes(len).map_err(|e| wire_record(index, e))?;
            let computed = crc32(payload);
            let payload = payload.to_vec();
            let stored = dec.get_u32().map_err(|e| wire_record(index, e))?;
            if stored != computed {
                return Err(TraceError::CorruptRecord {
                    index,
                    stored,
                    computed,
                });
            }
            let mut pdec = Decoder::new(&payload);
            let ev = ReplayEvent::decode(&mut pdec).map_err(|e| wire_record(index, e))?;
            if pdec.remaining() != 0 {
                return Err(TraceError::Malformed {
                    index,
                    what: "trailing bytes after event payload",
                });
            }
            events.push(ev);
        }
        if dec.remaining() != 0 {
            return Err(TraceError::Malformed {
                index: count,
                what: "trailing bytes after last record",
            });
        }
        Ok(Trace {
            label,
            seed,
            world_size,
            events,
        })
    }

    /// Write the trace to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| TraceError::Io(e.to_string()))?;
            }
        }
        std::fs::write(path, self.to_bytes()).map_err(|e| TraceError::Io(e.to_string()))
    }

    /// Read and parse a trace file.
    pub fn load(path: &Path) -> Result<Trace, TraceError> {
        let data = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Trace::from_bytes(&data)
    }
}

fn wire_header(e: WireError) -> TraceError {
    match e {
        WireError::Eof { offset } => TraceError::Truncated { offset },
        WireError::Invalid { what, .. } => TraceError::Malformed { index: 0, what },
    }
}

fn wire_record(index: usize, e: WireError) -> TraceError {
    match e {
        WireError::Eof { offset } => TraceError::Truncated { offset },
        WireError::Invalid { what, .. } => TraceError::Malformed { index, what },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_machine::CollectiveKind;

    fn sample_trace() -> Trace {
        Trace {
            label: "unit".to_string(),
            seed: 0xDEAD_BEEF,
            world_size: 4,
            events: vec![
                ReplayEvent::Send {
                    rank: 0,
                    dst: 1,
                    tag: 3,
                    bytes: 8192,
                    vtime: 1.0e-3,
                },
                ReplayEvent::Recv {
                    rank: 1,
                    src: 0,
                    tag: 3,
                    vtime: 1.1e-3,
                },
                ReplayEvent::Collective {
                    rank: 0,
                    kind: CollectiveKind::Allreduce,
                    group: 0,
                    vtime: 2.0e-3,
                },
                ReplayEvent::Checkpoint { iter: 10 },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        assert_eq!(&bytes[..4], b"CPXR");
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace {
            label: String::new(),
            seed: 0,
            world_size: 0,
            events: vec![],
        };
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_trace().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_rejected_with_typed_error() {
        let mut bytes = sample_trace().to_bytes();
        // schema_version lives right after the 4-byte magic.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion {
                found: 99,
                supported: SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let bytes = sample_trace().to_bytes();
        for cut in 0..bytes.len() {
            let err = Trace::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::Truncated { .. } | TraceError::Malformed { .. }
                ),
                "cut at {cut} produced unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_bit_caught_by_crc() {
        let t = sample_trace();
        let bytes = t.to_bytes();
        // Find the first record payload: header is magic(4) + version(4)
        // + label(1+4) + seed varint + world u32 + count varint. Rather
        // than computing offsets, flip one byte in the middle of the
        // first event's payload region and confirm the CRC catches it.
        let mut corrupted = bytes.clone();
        let idx = bytes.len() - 20; // inside the last record's payload/CRC
        corrupted[idx] ^= 0x40;
        let err = Trace::from_bytes(&corrupted).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::CorruptRecord { .. } | TraceError::Malformed { .. }
            ),
            "bit flip produced {err:?}"
        );
    }

    #[test]
    fn save_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("cpx_replay_fmt_test/nested/deep");
        let path = dir.join("t.cpxr");
        let _ = std::fs::remove_dir_all(dir.parent().unwrap().parent().unwrap());
        let t = sample_trace();
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("cpx_replay_fmt_test"));
    }
}
