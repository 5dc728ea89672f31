//! Dense message channels: the send/receive matching index shared by
//! the DES replayer and the task-graph builder.
//!
//! A channel is one `(src, dst, tag)` triple. Messages on a channel are
//! matched first-in first-out, and each channel has exactly one sending
//! and one receiving rank. [`Channels::build`] makes one pass over a
//! program's *unexpanded* op slots and gives every distinct channel a
//! dense `u32` id, so the per-message path indexes `Vec`s instead of
//! hashing. Each rank owns a contiguous run of slots: its top-level ops
//! in order, then the body of each `Repeat` once, in order. The slot of
//! a top-level op holds its channel id (`Send` / `Recv`), the first
//! slot of its body (`Repeat`) or [`NONE`]. Every iteration of a body
//! reads the same body slots.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::trace::{Op, TraceProgram};

/// Slot word of an op that is neither a message nor a `Repeat`.
const NONE: u32 = u32::MAX;

/// A channel's `(src, dst, tag)`.
pub(crate) type ChannelKey = (usize, usize, u32);

/// Multiplicative hasher for the integer channel keys, hashed once per
/// op slot while the index is built. SipHash's DoS resistance buys
/// nothing for keys the program itself chose.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are well mixed; fold them into the low
        // bits the table indexes by.
        self.0 ^ (self.0 >> 32)
    }
}

/// The channel index of one program (see the module docs).
pub(crate) struct Channels {
    /// First slot of each rank.
    rank_start: Vec<u32>,
    /// One word per op slot.
    slot: Vec<u32>,
    /// `(src, dst, tag)` of each channel id.
    keys: Vec<ChannelKey>,
}

/// `len` as a dense 32-bit id or offset, or an error if it would reach
/// [`NONE`]. Every id and offset the index stores goes through here, so
/// a program too large for the index is rejected instead of wrapping.
fn dense(len: usize, what: &str) -> Result<u32, String> {
    u32::try_from(len)
        .ok()
        .filter(|&id| id != NONE)
        .ok_or_else(|| format!("program has more than {NONE} {what}"))
}

impl Channels {
    /// Index `program`, which must already have passed
    /// [`TraceProgram::validate`] (so `Repeat` bodies do not nest).
    pub(crate) fn build(program: &TraceProgram) -> Result<Channels, String> {
        let mut ids: HashMap<ChannelKey, u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
        let mut keys: Vec<ChannelKey> = Vec::new();
        let mut channel = |key: ChannelKey| -> Result<u32, String> {
            match ids.entry(key) {
                Entry::Occupied(e) => Ok(*e.get()),
                Entry::Vacant(e) => {
                    let id = dense(keys.len(), "message channels")?;
                    keys.push(key);
                    Ok(*e.insert(id))
                }
            }
        };
        let mut word = |rank: usize, op: &Op| -> Result<u32, String> {
            match *op {
                Op::Send { dst, tag, .. } => channel((rank, dst, tag)),
                Op::Recv { src, tag } => channel((src, rank, tag)),
                _ => Ok(NONE),
            }
        };

        let mut rank_start = Vec::with_capacity(program.n_ranks());
        // Exact for a program without `Repeat`s; bodies grow it.
        let mut slot = Vec::with_capacity(program.traces.iter().map(|t| t.ops.len()).sum());
        for (rank, trace) in program.traces.iter().enumerate() {
            rank_start.push(dense(slot.len(), "op slots")?);
            let mut body_start = slot.len() + trace.ops.len();
            for op in &trace.ops {
                slot.push(match op {
                    Op::Repeat { body, .. } => {
                        let first = dense(body_start, "op slots")?;
                        body_start += body.len();
                        first
                    }
                    other => word(rank, other)?,
                });
            }
            for op in &trace.ops {
                if let Op::Repeat { body, .. } = op {
                    for b in body {
                        slot.push(word(rank, b)?);
                    }
                }
            }
        }
        Ok(Channels {
            rank_start,
            slot,
            keys,
        })
    }

    /// Number of distinct channels.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Channel of the message op at top-level position `pc` of `rank`'s
    /// trace or, with `rep_pc = Some(j)`, at position `j` of the body of
    /// the `Repeat` at `pc`.
    #[inline]
    pub(crate) fn of(&self, rank: usize, pc: usize, rep_pc: Option<usize>) -> u32 {
        let top = self.rank_start[rank] as usize + pc;
        match rep_pc {
            None => self.slot[top],
            Some(j) => self.slot[self.slot[top] as usize + j],
        }
    }

    /// The `(src, dst, tag)` of channel `id`.
    pub(crate) fn key(&self, id: u32) -> ChannelKey {
        self.keys[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_shared_across_top_level_and_bodies() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 8, 4);
        p.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::ComputeSecs(1.0),
                Op::Send {
                    dst: 1,
                    bytes: 8,
                    tag: 4,
                },
                Op::Recv { src: 1, tag: 4 },
            ],
        });
        p.rank(0).send(0, 8, 4);
        p.rank(1).ops.push(Op::Repeat {
            count: 0,
            body: vec![],
        });
        p.rank(1).recv(0, 4);
        p.rank(1).send(0, 8, 4);
        let ch = Channels::build(&p).unwrap();
        assert_eq!(ch.len(), 3);
        let down = ch.of(0, 0, None);
        assert_eq!(ch.key(down), (0, 1, 4));
        assert_eq!(ch.of(0, 1, Some(1)), down);
        assert_eq!(ch.of(1, 1, None), down);
        let up = ch.of(0, 1, Some(2));
        assert_eq!(ch.key(up), (1, 0, 4));
        assert_eq!(ch.of(1, 2, None), up);
        assert_eq!(ch.key(ch.of(0, 2, None)), (0, 0, 4));
    }

    #[test]
    fn ids_and_offsets_never_wrap() {
        assert_eq!(dense(0, "op slots"), Ok(0));
        assert_eq!(dense(NONE as usize - 1, "op slots"), Ok(NONE - 1));
        for len in [NONE as usize, NONE as usize + 1, usize::MAX] {
            let err = dense(len, "message channels").unwrap_err();
            assert_eq!(err, "program has more than 4294967295 message channels");
        }
    }
}
