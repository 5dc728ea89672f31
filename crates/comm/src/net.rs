//! TCP multi-process backend for the [`crate::transport::Transport`]
//! trait.
//!
//! Ranks are grouped into OS processes ("nodes"); every pair of nodes
//! is connected by one TCP stream carrying length-prefixed,
//! CRC-32-framed wire messages (the same [`cpx_wire`] primitives the
//! `.cpxr` trace container uses). On top of the data plane sit three
//! control mechanisms:
//!
//! * a **heartbeat failure detector**: each node broadcasts a heartbeat
//!   every [`HEARTBEAT_PERIOD`] carrying the maximum virtual send time
//!   of its local ranks; a peer silent past the configured timeout (or
//!   whose stream hits EOF without a goodbye) has all its unfinished
//!   ranks marked dead *at the last virtual time it reported* — the
//!   exact same dead-rank marks the in-process backend uses, so
//!   checkpoint/shrink recovery fires unmodified;
//! * **lifecycle gossip**: dead marks, done marks and group
//!   revocations made by any rank are broadcast as control frames and
//!   merged first-write-wins into every node's registry;
//! * **connection retry**: mesh bring-up dials lower-numbered nodes
//!   with capped, deterministically jittered exponential backoff (the
//!   crate-wide [`crate::backoff::BackoffPolicy`]).
//!
//! # Framing
//!
//! `[len: u32][crc32: u32][body: len bytes]`, all little-endian. `len`
//! is capped at [`MAX_FRAME`]; a frame that is oversized, fails its
//! CRC, or does not decode is **connection-fatal, never a panic**: the
//! reader drops the stream and the failure detector handles the rest,
//! exactly as it would for a crashed peer.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use cpx_obs::http::{MetricsServer, Response};
use cpx_obs::{Json, NetStats, NetStatsSnapshot, ToJson};
use cpx_wire::{crc32, Decoder, Encoder, WireError};

use crate::backoff::BackoffPolicy;
use crate::payload::Payload;
use crate::transport::{Packet, RecvPoll, Transport};

/// Hard cap on a frame body; anything larger is treated as a corrupt
/// length prefix (connection-fatal), not an allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

/// How often a node broadcasts heartbeats.
pub const HEARTBEAT_PERIOD: Duration = Duration::from_millis(50);

const KIND_HELLO: u8 = 0;
const KIND_PACKET: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_DEAD: u8 = 3;
const KIND_DONE: u8 = 4;
const KIND_REVOKE: u8 = 5;
const KIND_GOODBYE: u8 = 6;
const KIND_PING: u8 = 7;
const KIND_PONG: u8 = 8;

const PAYLOAD_F64: u8 = 0;
const PAYLOAD_U64: u8 = 1;
const PAYLOAD_BYTES: u8 = 2;
const PAYLOAD_EMPTY: u8 = 3;

/// One message on a node-to-node stream: a data packet or a control
/// frame of the failure-detection / lifecycle gossip plane.
#[derive(Debug)]
pub enum Frame {
    /// Handshake: first frame on every stream, identifies the dialer.
    Hello {
        /// Node id of the sending process.
        node: u32,
    },
    /// A rank-to-rank data packet.
    Packet {
        /// Destination world rank.
        dst: u32,
        /// The packet.
        pkt: Packet,
    },
    /// Liveness beacon carrying the sender's virtual-time high water.
    Heartbeat {
        /// Node id of the sending process.
        node: u32,
        /// Max virtual send time across the node's local ranks.
        vclock: f64,
    },
    /// Gossip: `rank` died at virtual time `at`.
    Dead {
        /// The dead world rank.
        rank: u32,
        /// Virtual time of death.
        at: f64,
    },
    /// Gossip: `rank` completed the protocol.
    Done {
        /// The completed world rank.
        rank: u32,
    },
    /// Gossip: rank `by` revoked collective group `sig` after `peer`
    /// failed.
    Revoke {
        /// Group signature.
        sig: u64,
        /// The revoking rank (revocations are per-revoker so waiters
        /// can query the specific rank they are blocked on).
        by: u32,
        /// The failed rank that triggered the revocation.
        peer: u32,
        /// Virtual time of that failure.
        at: f64,
    },
    /// Clean shutdown: the sender's ranks all finished; an EOF after
    /// this is normal exit, not a crash.
    Goodbye {
        /// Node id of the sending process.
        node: u32,
    },
    /// Round-trip probe, sent on the heartbeat cadence. The receiver
    /// echoes the nonce back as a [`Frame::Pong`]; the sender matches
    /// the nonce to its launch instant and records the elapsed wall
    /// time into the per-peer RTT histogram.
    Ping {
        /// Node id of the probing process.
        node: u32,
        /// Correlation nonce (unique per outstanding probe).
        nonce: u64,
    },
    /// Echo of a [`Frame::Ping`].
    Pong {
        /// Node id of the echoing process.
        node: u32,
        /// The probe's nonce, returned unchanged.
        nonce: u64,
    },
}

/// Why a received frame was rejected. Any of these is connection-fatal
/// for the stream it arrived on; none of them panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed body length.
        len: u32,
    },
    /// Body CRC-32 mismatch.
    BadCrc {
        /// CRC carried by the frame header.
        expect: u32,
        /// CRC computed over the received body.
        got: u32,
    },
    /// Body failed to decode (truncated, bad enum tag, trailing bytes).
    Malformed(WireError),
    /// Bytes left over after a complete decode.
    TrailingBytes {
        /// How many.
        count: usize,
    },
}

fn put_payload(e: &mut Encoder, p: &Payload) {
    match p {
        Payload::F64(v) => {
            e.put_u8(PAYLOAD_F64);
            e.put_uv(v.len() as u64);
            for &x in v {
                e.put_f64(x);
            }
        }
        Payload::U64(v) => {
            e.put_u8(PAYLOAD_U64);
            e.put_uv(v.len() as u64);
            for &x in v {
                e.put_u64(x);
            }
        }
        Payload::Bytes(v) => {
            e.put_u8(PAYLOAD_BYTES);
            e.put_uv(v.len() as u64);
            e.put_bytes(v);
        }
        Payload::Empty => e.put_u8(PAYLOAD_EMPTY),
    }
}

fn get_payload(d: &mut Decoder) -> Result<Payload, WireError> {
    let kind = d.get_u8()?;
    match kind {
        PAYLOAD_F64 => {
            let n = d.get_uv()? as usize;
            // Bound the preallocation by what the buffer can actually
            // hold, so a corrupt count can't trigger a huge alloc.
            if n.saturating_mul(8) > d.remaining() {
                return Err(WireError::Eof { offset: d.offset() });
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.get_f64()?);
            }
            Ok(Payload::F64(v))
        }
        PAYLOAD_U64 => {
            let n = d.get_uv()? as usize;
            if n.saturating_mul(8) > d.remaining() {
                return Err(WireError::Eof { offset: d.offset() });
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(d.get_u64()?);
            }
            Ok(Payload::U64(v))
        }
        PAYLOAD_BYTES => {
            let n = d.get_uv()? as usize;
            Ok(Payload::Bytes(d.get_bytes(n)?.to_vec()))
        }
        PAYLOAD_EMPTY => Ok(Payload::Empty),
        _ => Err(WireError::Invalid {
            offset: d.offset() - 1,
            what: "unknown payload kind",
        }),
    }
}

fn encode_body(frame: &Frame) -> Vec<u8> {
    let mut e = Encoder::new();
    match frame {
        Frame::Hello { node } => {
            e.put_u8(KIND_HELLO);
            e.put_u32(*node);
        }
        Frame::Packet { dst, pkt } => {
            e.put_u8(KIND_PACKET);
            e.put_u32(*dst);
            e.put_uv(pkt.src as u64);
            e.put_u64(pkt.tag);
            e.put_f64(pkt.send_time);
            e.put_f64(pkt.extra_delay);
            e.put_bool(pkt.dup);
            e.put_bool(pkt.abort);
            e.put_u64(pkt.crc);
            put_payload(&mut e, &pkt.payload);
        }
        Frame::Heartbeat { node, vclock } => {
            e.put_u8(KIND_HEARTBEAT);
            e.put_u32(*node);
            e.put_f64(*vclock);
        }
        Frame::Dead { rank, at } => {
            e.put_u8(KIND_DEAD);
            e.put_u32(*rank);
            e.put_f64(*at);
        }
        Frame::Done { rank } => {
            e.put_u8(KIND_DONE);
            e.put_u32(*rank);
        }
        Frame::Revoke { sig, by, peer, at } => {
            e.put_u8(KIND_REVOKE);
            e.put_u64(*sig);
            e.put_u32(*by);
            e.put_u32(*peer);
            e.put_f64(*at);
        }
        Frame::Goodbye { node } => {
            e.put_u8(KIND_GOODBYE);
            e.put_u32(*node);
        }
        Frame::Ping { node, nonce } => {
            e.put_u8(KIND_PING);
            e.put_u32(*node);
            e.put_u64(*nonce);
        }
        Frame::Pong { node, nonce } => {
            e.put_u8(KIND_PONG);
            e.put_u32(*node);
            e.put_u64(*nonce);
        }
    }
    e.into_bytes()
}

/// Encode a full frame: `[len][crc32][body]`.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let body = encode_body(frame);
    assert!(
        body.len() as u64 <= MAX_FRAME as u64,
        "frame body exceeds MAX_FRAME"
    );
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut d = Decoder::new(body);
    let frame = (|| -> Result<Frame, WireError> {
        let kind = d.get_u8()?;
        Ok(match kind {
            KIND_HELLO => Frame::Hello { node: d.get_u32()? },
            KIND_PACKET => {
                let dst = d.get_u32()?;
                let src = d.get_uv()? as usize;
                let tag = d.get_u64()?;
                let send_time = d.get_f64()?;
                let extra_delay = d.get_f64()?;
                let dup = d.get_bool()?;
                let abort = d.get_bool()?;
                let crc = d.get_u64()?;
                let payload = get_payload(&mut d)?;
                Frame::Packet {
                    dst,
                    pkt: Packet {
                        src,
                        tag,
                        send_time,
                        extra_delay,
                        dup,
                        abort,
                        crc,
                        payload,
                    },
                }
            }
            KIND_HEARTBEAT => Frame::Heartbeat {
                node: d.get_u32()?,
                vclock: d.get_f64()?,
            },
            KIND_DEAD => Frame::Dead {
                rank: d.get_u32()?,
                at: d.get_f64()?,
            },
            KIND_DONE => Frame::Done { rank: d.get_u32()? },
            KIND_REVOKE => Frame::Revoke {
                sig: d.get_u64()?,
                by: d.get_u32()?,
                peer: d.get_u32()?,
                at: d.get_f64()?,
            },
            KIND_GOODBYE => Frame::Goodbye { node: d.get_u32()? },
            KIND_PING => Frame::Ping {
                node: d.get_u32()?,
                nonce: d.get_u64()?,
            },
            KIND_PONG => Frame::Pong {
                node: d.get_u32()?,
                nonce: d.get_u64()?,
            },
            _ => {
                return Err(WireError::Invalid {
                    offset: 0,
                    what: "unknown frame kind",
                })
            }
        })
    })()
    .map_err(FrameError::Malformed)?;
    if d.remaining() != 0 {
        return Err(FrameError::TrailingBytes {
            count: d.remaining(),
        });
    }
    Ok(frame)
}

/// Decode a complete `[len][crc][body]` frame from `bytes`. Rejects —
/// never panics on — truncated input, oversize lengths, CRC mismatches
/// and malformed bodies. (The streaming reader performs the same checks
/// incrementally; this entry point exists for tests and tooling.)
pub fn decode_frame_bytes(bytes: &[u8]) -> Result<Frame, FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::Malformed(WireError::Eof { offset: 0 }));
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if len > MAX_FRAME {
        return Err(FrameError::Oversize { len });
    }
    let expect = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let body = &bytes[8..];
    if body.len() != len as usize {
        return Err(FrameError::Malformed(WireError::Eof { offset: 8 }));
    }
    let got = crc32(body);
    if got != expect {
        return Err(FrameError::BadCrc { expect, got });
    }
    decode_body(body)
}

/// Marker payload inside the `io::Error` a CRC mismatch produces, so
/// the reader threads can count corruption distinctly from plain I/O
/// failures (both remain connection-fatal).
#[derive(Debug)]
struct CrcMismatch {
    expect: u32,
    got: u32,
}

impl std::fmt::Display for CrcMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame crc mismatch (expect {:#010x}, got {:#010x})",
            self.expect, self.got
        )
    }
}

impl std::error::Error for CrcMismatch {}

fn is_crc_mismatch(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<CrcMismatch>())
}

/// Read one frame from a stream, returning it with its total wire size
/// (header + body). `Ok(None)` means clean EOF at a frame boundary;
/// `Err` covers I/O errors and protocol violations (both
/// connection-fatal for the caller).
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<(Frame, usize)>> {
    let mut header = [0u8; 8];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let expect = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    let got = crc32(&body);
    if got != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            CrcMismatch { expect, got },
        ));
    }
    decode_body(&body)
        .map(|f| Some((f, 8 + body.len())))
        .map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame: {e:?}"),
            )
        })
}

/// Atomic f64 max register (stored as bits) for the virtual-time high
/// water the heartbeats report.
struct AtomicClock(AtomicU64);

impl AtomicClock {
    fn new() -> Self {
        AtomicClock(AtomicU64::new(0f64.to_bits()))
    }

    fn raise(&self, t: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while f64::from_bits(cur) < t {
            match self.0.compare_exchange_weak(
                cur,
                t.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Per-peer connection state.
struct Peer {
    /// Write half, serialized by the mutex (per-stream FIFO is what
    /// preserves the mark-after-sends ordering contract).
    writer: Mutex<TcpStream>,
    /// Host instant of the last frame seen from this peer.
    last_seen: Mutex<Instant>,
    /// Highest virtual time the peer reported (heartbeats + packets).
    vclock: AtomicClock,
    /// Peer announced clean shutdown.
    goodbye: AtomicBool,
    /// Peer has been declared dead (EOF without goodbye, heartbeat
    /// timeout, or fatal protocol violation).
    declared_dead: AtomicBool,
}

/// Node-wide state shared by all local rank transports and the
/// background reader/heartbeat threads.
pub(crate) struct NetShared {
    node: usize,
    /// World rank -> owning node.
    rank_node: Vec<usize>,
    /// Ranks hosted by each node.
    node_ranks: Vec<Vec<usize>>,
    /// Connection per peer node (`None` for self).
    peers: Vec<Option<Peer>>,
    /// Intake sender per local rank.
    mailboxes: HashMap<usize, Sender<Packet>>,
    dead: Mutex<HashMap<usize, f64>>,
    done: Mutex<HashMap<usize, ()>>,
    revoked: Mutex<HashMap<(u64, usize), (usize, f64)>>,
    /// Max virtual send time across local ranks (heartbeat payload).
    local_vclock: AtomicClock,
    /// Set once the local node driver is shutting down.
    closing: AtomicBool,
    heartbeat_timeout: Duration,
    /// Transport counters (no-op unless observability is enabled).
    stats: NetStats,
    /// Outstanding RTT probes: nonce → (peer node, launch instant).
    pings: Mutex<HashMap<u64, (usize, Instant)>>,
    /// Nonce source for RTT probes.
    ping_nonce: AtomicU64,
}

impl NetShared {
    fn write_to(&self, node: usize, bytes: &[u8]) {
        if let Some(peer) = self.peers.get(node).and_then(|p| p.as_ref()) {
            // A write error means the peer is gone; the reader/monitor
            // will declare it dead. The message vanishes exactly as it
            // would on a real network.
            if peer.writer.lock().write_all(bytes).is_ok() {
                self.stats.frame_sent(node, bytes.len());
            }
        }
    }

    fn broadcast(&self, frame: &Frame) {
        let bytes = encode_frame(frame);
        for node in 0..self.peers.len() {
            if node != self.node {
                self.write_to(node, &bytes);
            }
        }
    }

    fn deliver_local(&self, dst: usize, pkt: Packet) {
        if let Some(tx) = self.mailboxes.get(&dst) {
            let _ = tx.send(pkt);
        }
    }

    fn mark_dead(&self, rank: usize, at: f64) {
        self.dead.lock().entry(rank).or_insert(at);
    }

    /// Declare every unfinished rank of `node` dead at the node's last
    /// reported virtual time. Idempotent per node.
    fn declare_node_dead(&self, node: usize) {
        let Some(peer) = self.peers.get(node).and_then(|p| p.as_ref()) else {
            return;
        };
        if peer.goodbye.load(Ordering::Acquire) || peer.declared_dead.swap(true, Ordering::AcqRel) {
            return;
        }
        let at = peer.vclock.get();
        let done = self.done.lock();
        for &rank in &self.node_ranks[node] {
            if !done.contains_key(&rank) {
                self.dead.lock().entry(rank).or_insert(at);
            }
        }
    }

    fn absorb(&self, from_node: usize, frame: Frame) {
        if let Some(peer) = self.peers.get(from_node).and_then(|p| p.as_ref()) {
            *peer.last_seen.lock() = Instant::now();
        }
        match frame {
            Frame::Packet { dst, pkt } => {
                if let Some(peer) = self.peers.get(from_node).and_then(|p| p.as_ref()) {
                    peer.vclock.raise(pkt.send_time);
                }
                self.deliver_local(dst as usize, pkt);
            }
            Frame::Heartbeat { vclock, .. } => {
                self.stats.heartbeat_recv(from_node);
                if let Some(peer) = self.peers.get(from_node).and_then(|p| p.as_ref()) {
                    peer.vclock.raise(vclock);
                }
            }
            Frame::Dead { rank, at } => self.mark_dead(rank as usize, at),
            Frame::Done { rank } => {
                self.done.lock().insert(rank as usize, ());
            }
            Frame::Revoke { sig, by, peer, at } => {
                self.revoked
                    .lock()
                    .entry((sig, by as usize))
                    .or_insert((peer as usize, at));
            }
            Frame::Goodbye { .. } => {
                if let Some(peer) = self.peers.get(from_node).and_then(|p| p.as_ref()) {
                    peer.goodbye.store(true, Ordering::Release);
                }
            }
            Frame::Ping { nonce, .. } => {
                // Echo straight back on the sender's stream.
                let pong = encode_frame(&Frame::Pong {
                    node: self.node as u32,
                    nonce,
                });
                self.write_to(from_node, &pong);
            }
            Frame::Pong { nonce, .. } => {
                if let Some((peer, launched)) = self.pings.lock().remove(&nonce) {
                    let us = launched.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    self.stats.rtt_sample(peer, us);
                }
            }
            Frame::Hello { .. } => {} // handshake frames are consumed during bring-up
        }
    }

    /// Launch one RTT probe per live peer (heartbeat-thread cadence).
    /// Stale probes (a peer died before echoing) are pruned so the
    /// outstanding map stays bounded.
    fn launch_pings(&self) {
        if !self.stats.is_on() {
            return;
        }
        {
            let mut pings = self.pings.lock();
            pings.retain(|_, (_, launched)| launched.elapsed() < Duration::from_secs(5));
        }
        for nd in 0..self.peers.len() {
            let Some(peer) = self.peers.get(nd).and_then(|p| p.as_ref()) else {
                continue;
            };
            if peer.goodbye.load(Ordering::Acquire) || peer.declared_dead.load(Ordering::Acquire) {
                continue;
            }
            let nonce = self.ping_nonce.fetch_add(1, Ordering::Relaxed);
            self.pings.lock().insert(nonce, (nd, Instant::now()));
            let ping = encode_frame(&Frame::Ping {
                node: self.node as u32,
                nonce,
            });
            self.write_to(nd, &ping);
        }
    }
}

/// One rank's endpoint on the TCP mesh.
pub struct TcpTransport {
    rank: usize,
    inbox: Receiver<Packet>,
    shared: Arc<NetShared>,
}

impl Transport for TcpTransport {
    fn send(&mut self, dst: usize, pkt: Packet) {
        self.shared.local_vclock.raise(pkt.send_time);
        let Some(&node) = self.shared.rank_node.get(dst) else {
            return;
        };
        if node == self.shared.node {
            self.shared.deliver_local(dst, pkt);
        } else {
            let bytes = encode_frame(&Frame::Packet {
                dst: dst as u32,
                pkt,
            });
            self.shared.write_to(node, &bytes);
        }
    }

    fn try_recv(&mut self) -> Option<Packet> {
        self.inbox.try_recv().ok()
    }

    fn recv_wait(&mut self, wait: Duration) -> RecvPoll {
        match self.inbox.recv_timeout(wait) {
            Ok(pkt) => RecvPoll::Packet(pkt),
            Err(RecvTimeoutError::Timeout) => RecvPoll::Empty,
            Err(RecvTimeoutError::Disconnected) => RecvPoll::Closed,
        }
    }

    fn mark_dead(&mut self, rank: usize, at: f64) {
        self.shared.local_vclock.raise(at);
        self.shared.mark_dead(rank, at);
        self.shared.broadcast(&Frame::Dead {
            rank: rank as u32,
            at,
        });
    }

    fn dead_time_of(&self, rank: usize) -> Option<f64> {
        self.shared.dead.lock().get(&rank).copied()
    }

    fn mark_done(&mut self, rank: usize) {
        self.shared.done.lock().insert(rank, ());
        self.shared.broadcast(&Frame::Done { rank: rank as u32 });
    }

    fn is_done(&self, rank: usize) -> bool {
        self.shared.done.lock().contains_key(&rank)
    }

    fn revoke(&mut self, sig: u64, by: usize, peer: usize, at: f64) {
        self.shared
            .revoked
            .lock()
            .entry((sig, by))
            .or_insert((peer, at));
        self.shared.broadcast(&Frame::Revoke {
            sig,
            by: by as u32,
            peer: peer as u32,
            at,
        });
    }

    fn revoked_by(&self, sig: u64, by: usize) -> Option<(usize, f64)> {
        self.shared.revoked.lock().get(&(sig, by)).copied()
    }

    fn finish(&mut self) {
        // Node-level shutdown (goodbye) is the mesh driver's job; a
        // single rank finishing requires no wire traffic beyond the
        // done/dead marks the runtime already issued.
        let _ = self.rank;
    }
}

/// A node's established mesh: transports for its local ranks plus the
/// background threads keeping the failure detector honest.
pub struct NetMesh {
    shared: Arc<NetShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    transports: Option<Vec<(usize, TcpTransport)>>,
}

impl NetMesh {
    /// Establish the full node mesh for `node`: bind the node's listen
    /// port, dial every lower-numbered node (with capped jittered
    /// retry), accept every higher-numbered one, then start reader and
    /// heartbeat threads.
    ///
    /// `addrs[i]` is node *i*'s listen address; `node_ranks[i]` its
    /// ranks. `connect_timeout` bounds the total dial time per peer.
    /// `stats` collects transport counters; pass [`NetStats::off`] for
    /// the zero-overhead default.
    pub fn establish(
        node: usize,
        addrs: &[String],
        node_ranks: &[Vec<usize>],
        connect_timeout: Duration,
        heartbeat_timeout: Duration,
        seed: u64,
        stats: NetStats,
    ) -> io::Result<NetMesh> {
        let n_nodes = addrs.len();
        assert!(node < n_nodes, "node id out of range");
        let world: usize = node_ranks.iter().map(|r| r.len()).sum();
        let mut rank_node = vec![0usize; world];
        for (nd, ranks) in node_ranks.iter().enumerate() {
            for &r in ranks {
                rank_node[r] = nd;
            }
        }

        let listener = TcpListener::bind(addrs[node].as_str())?;

        // Dial lower-numbered peers; the backoff keeps restart storms
        // from hammering a node that is still binding its socket.
        let mut streams: Vec<Option<TcpStream>> = (0..n_nodes).map(|_| None).collect();
        for peer in 0..node {
            let policy = BackoffPolicy::jittered(
                25.0, // ms
                6,
                0.5,
                seed ^ ((node as u64) << 32 | peer as u64),
            );
            let deadline = Instant::now() + connect_timeout;
            let mut attempt = 0u64;
            let stream = loop {
                match TcpStream::connect(addrs[peer].as_str()) {
                    Ok(s) => break s,
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(io::Error::new(
                                e.kind(),
                                format!("node {node}: dialing node {peer} timed out: {e}"),
                            ));
                        }
                        let backoff_ms = policy.delay(attempt) as u64;
                        stats.dial_retry(backoff_ms);
                        std::thread::sleep(Duration::from_millis(backoff_ms));
                        attempt += 1;
                    }
                }
            };
            stream.set_nodelay(true)?;
            let mut s = stream;
            let hello = encode_frame(&Frame::Hello { node: node as u32 });
            s.write_all(&hello)?;
            stats.frame_sent(peer, hello.len());
            streams[peer] = Some(s);
        }

        // Accept higher-numbered peers; their Hello tells us who dialed.
        let expected = n_nodes - node - 1;
        listener.set_nonblocking(false)?;
        let accept_deadline = Instant::now() + connect_timeout;
        for _ in 0..expected {
            listener.set_nonblocking(true)?;
            let (mut s, _) = loop {
                match listener.accept() {
                    Ok(conn) => break conn,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() >= accept_deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("node {node}: timed out waiting for peer connections"),
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => return Err(e),
                }
            };
            s.set_nonblocking(false)?;
            s.set_nodelay(true)?;
            match read_frame(&mut s)? {
                Some((Frame::Hello { node: who }, nbytes)) => {
                    let who = who as usize;
                    if who >= n_nodes || who <= node || streams[who].is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("node {node}: bad hello from claimed node {who}"),
                        ));
                    }
                    stats.frame_recv(who, nbytes);
                    streams[who] = Some(s);
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("node {node}: expected hello, got {other:?}"),
                    ));
                }
            }
        }

        // Build shared state.
        let mut mailboxes = HashMap::new();
        let mut inboxes = HashMap::new();
        for &rank in &node_ranks[node] {
            let (tx, rx) = unbounded::<Packet>();
            mailboxes.insert(rank, tx);
            inboxes.insert(rank, rx);
        }
        let mut peers: Vec<Option<Peer>> = Vec::with_capacity(n_nodes);
        let mut readers: Vec<(usize, TcpStream)> = Vec::new();
        for (nd, slot) in streams.into_iter().enumerate() {
            match slot {
                Some(s) => {
                    readers.push((nd, s.try_clone()?));
                    peers.push(Some(Peer {
                        writer: Mutex::new(s),
                        last_seen: Mutex::new(Instant::now()),
                        vclock: AtomicClock::new(),
                        goodbye: AtomicBool::new(false),
                        declared_dead: AtomicBool::new(false),
                    }));
                }
                None => peers.push(None),
            }
        }
        let shared = Arc::new(NetShared {
            node,
            rank_node,
            node_ranks: node_ranks.to_vec(),
            peers,
            mailboxes,
            dead: Mutex::new(HashMap::new()),
            done: Mutex::new(HashMap::new()),
            revoked: Mutex::new(HashMap::new()),
            local_vclock: AtomicClock::new(),
            closing: AtomicBool::new(false),
            heartbeat_timeout,
            stats,
            pings: Mutex::new(HashMap::new()),
            ping_nonce: AtomicU64::new(1),
        });

        let mut threads = Vec::new();
        for (peer_node, mut stream) in readers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-read-{node}-{peer_node}"))
                    .spawn(move || loop {
                        match read_frame(&mut stream) {
                            Ok(Some((frame, nbytes))) => {
                                shared.stats.frame_recv(peer_node, nbytes);
                                let bye = matches!(frame, Frame::Goodbye { .. });
                                shared.absorb(peer_node, frame);
                                if bye {
                                    break;
                                }
                            }
                            Ok(None) => {
                                // EOF: if the peer never said goodbye,
                                // its ranks are dead.
                                shared.declare_node_dead(peer_node);
                                break;
                            }
                            Err(e) => {
                                // Protocol violation: same as EOF, but
                                // corruption is counted separately.
                                if is_crc_mismatch(&e) {
                                    shared.stats.crc_failure(peer_node);
                                }
                                shared.declare_node_dead(peer_node);
                                break;
                            }
                        }
                    })
                    .expect("spawn net reader"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("net-beat-{node}"))
                    .spawn(move || {
                        while !shared.closing.load(Ordering::Acquire) {
                            shared.broadcast(&Frame::Heartbeat {
                                node: shared.node as u32,
                                vclock: shared.local_vclock.get(),
                            });
                            for nd in 0..shared.peers.len() {
                                if nd != shared.node {
                                    shared.stats.heartbeat_sent(nd);
                                }
                            }
                            shared.launch_pings();
                            for nd in 0..shared.peers.len() {
                                if let Some(peer) = shared.peers[nd].as_ref() {
                                    if peer.goodbye.load(Ordering::Acquire)
                                        || peer.declared_dead.load(Ordering::Acquire)
                                    {
                                        continue;
                                    }
                                    let silent = peer.last_seen.lock().elapsed();
                                    if silent > HEARTBEAT_PERIOD {
                                        shared.stats.heartbeat_missed(nd);
                                    }
                                    if silent > shared.heartbeat_timeout {
                                        shared.declare_node_dead(nd);
                                    }
                                }
                            }
                            std::thread::sleep(HEARTBEAT_PERIOD);
                        }
                    })
                    .expect("spawn heartbeat thread"),
            );
        }

        let transports = node_ranks[node]
            .iter()
            .map(|&rank| {
                (
                    rank,
                    TcpTransport {
                        rank,
                        inbox: inboxes.remove(&rank).expect("inbox for local rank"),
                        shared: Arc::clone(&shared),
                    },
                )
            })
            .collect();

        Ok(NetMesh {
            shared,
            threads,
            transports: Some(transports),
        })
    }

    /// Take the per-rank transports (once).
    pub(crate) fn take_transports(&mut self) -> Vec<(usize, TcpTransport)> {
        self.transports.take().expect("transports already taken")
    }

    /// Current transport-counter snapshot (empty when stats are off).
    pub fn net_snapshot(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Serve `/metrics` and `/healthz` for this node on `bind_addr`
    /// (e.g. `"127.0.0.1:9100"` or `"127.0.0.1:0"` for an ephemeral
    /// port). The server holds its own handle on the mesh state, so it
    /// keeps answering until dropped — including through shrink
    /// recoveries, which is the point: it reports group generation and
    /// live peers *while* the cluster degrades.
    pub fn serve_metrics(&self, bind_addr: &str) -> io::Result<MetricsServer> {
        let shared = Arc::clone(&self.shared);
        MetricsServer::serve(bind_addr, move |path| match path {
            "/healthz" => Some(Response::json(health_json(&shared).write())),
            "/metrics" => Some(Response::json(metrics_endpoint_json(&shared).write())),
            _ => None,
        })
    }

    /// Clean shutdown: announce goodbye, stop the heartbeat thread and
    /// join the readers (they exit on the peers' goodbyes or EOFs).
    pub fn shutdown(self) {
        self.shared.broadcast(&Frame::Goodbye {
            node: self.shared.node as u32,
        });
        self.shared.closing.store(true, Ordering::Release);
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// Peer nodes currently connected and active (no goodbye, not declared
/// dead). Self is excluded.
fn live_peers(shared: &NetShared) -> Vec<usize> {
    (0..shared.peers.len())
        .filter(|&nd| {
            shared.peers[nd].as_ref().is_some_and(|p| {
                !p.goodbye.load(Ordering::Acquire) && !p.declared_dead.load(Ordering::Acquire)
            })
        })
        .collect()
}

/// Group generation proxy: distinct revoked group signatures + 1. The
/// initial world group is generation 1; every completed revoke-shrink
/// cycle retires one signature.
fn generation(shared: &NetShared) -> usize {
    let revoked = shared.revoked.lock();
    let mut sigs: Vec<u64> = revoked.keys().map(|&(sig, _)| sig).collect();
    sigs.sort_unstable();
    sigs.dedup();
    sigs.len() + 1
}

/// Body of the `/healthz` endpoint.
fn health_json(shared: &NetShared) -> Json {
    let live = live_peers(shared);
    Json::obj(vec![
        ("status", Json::Str("ok".to_string())),
        ("node", shared.node.to_json()),
        ("generation", generation(shared).to_json()),
        ("live_peers", live.len().to_json()),
    ])
}

/// Body of the `/metrics` endpoint: identity, group state and the full
/// counter snapshot.
fn metrics_endpoint_json(shared: &NetShared) -> Json {
    Json::obj(vec![
        ("schema_version", Json::Num(1.0)),
        ("node", shared.node.to_json()),
        ("generation", generation(shared).to_json()),
        ("live_peers", live_peers(shared).to_json()),
        ("dead_ranks", shared.dead.lock().len().to_json()),
        ("done_ranks", shared.done.lock().len().to_json()),
        ("local_vclock", Json::Num(shared.local_vclock.get())),
        ("net", shared.stats.snapshot().to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_obs::FromJson;

    fn sample_packet() -> Packet {
        Packet {
            src: 3,
            tag: 0x8000_0000_0000_1234,
            send_time: 1.5e-3,
            extra_delay: 2e-6,
            dup: false,
            abort: false,
            crc: 0xDEAD_BEEF_CAFE_F00D,
            payload: Payload::F64(vec![1.0, -2.5, 3.25]),
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello { node: 7 },
            Frame::Packet {
                dst: 5,
                pkt: sample_packet(),
            },
            Frame::Heartbeat {
                node: 2,
                vclock: 0.125,
            },
            Frame::Dead { rank: 9, at: 3.5 },
            Frame::Done { rank: 4 },
            Frame::Revoke {
                sig: 0xABCD,
                by: 3,
                peer: 1,
                at: 0.5,
            },
            Frame::Goodbye { node: 0 },
            Frame::Ping {
                node: 1,
                nonce: 0xFEED_F00D,
            },
            Frame::Pong {
                node: 2,
                nonce: 0xFEED_F00D,
            },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let back = decode_frame_bytes(&bytes).expect("round trip");
            assert_eq!(format!("{f:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = encode_frame(&Frame::Dead { rank: 1, at: 2.0 });
        for cut in 0..bytes.len() {
            assert!(
                decode_frame_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn bit_flips_rejected() {
        let bytes = encode_frame(&Frame::Packet {
            dst: 0,
            pkt: sample_packet(),
        });
        // Flip one bit in the body: CRC must catch it.
        for i in 8..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x10;
            assert!(
                decode_frame_bytes(&mangled).is_err(),
                "body flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn oversize_length_rejected_without_allocating() {
        let mut bytes = vec![0u8; 16];
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame_bytes(&bytes),
            Err(FrameError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = encode_body(&Frame::Done { rank: 1 });
        body.push(0xAA);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        assert!(matches!(
            decode_frame_bytes(&bytes),
            Err(FrameError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn atomic_clock_is_monotonic_max() {
        let c = AtomicClock::new();
        c.raise(1.0);
        c.raise(0.5);
        assert_eq!(c.get(), 1.0);
        c.raise(2.0);
        assert_eq!(c.get(), 2.0);
    }

    /// Two meshes on loopback: counters fill in on both sides, RTT
    /// probes complete, and the live endpoints answer.
    #[test]
    fn loopback_mesh_collects_stats_and_serves_metrics() {
        let ports = crate::cluster::free_ports(2);
        let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
        let node_ranks = vec![vec![0], vec![1]];
        let timeout = Duration::from_secs(10);
        let hb_timeout = Duration::from_secs(5);

        let addrs1 = addrs.clone();
        let ranks1 = node_ranks.clone();
        let peer = std::thread::spawn(move || {
            let mut mesh = NetMesh::establish(
                1,
                &addrs1,
                &ranks1,
                timeout,
                hb_timeout,
                7,
                NetStats::on(1, 2),
            )
            .expect("node 1 mesh");
            let mut transports = mesh.take_transports();
            let (_, t) = &mut transports[0];
            // Wait (bounded) for the packet node 0 sends; a panic here
            // would leave node 0's shutdown joining a reader forever,
            // so fail via a sentinel value instead.
            let mut pkt = None;
            for _ in 0..100 {
                if let RecvPoll::Packet(p) = t.recv_wait(Duration::from_millis(100)) {
                    pkt = Some(p);
                    break;
                }
            }
            let got_packet = pkt.map(|p| p.src) == Some(sample_packet().src);
            // Give heartbeats/pings a couple of cycles.
            std::thread::sleep(HEARTBEAT_PERIOD * 3);
            let snap = mesh.net_snapshot();
            mesh.shutdown();
            (got_packet, snap)
        });

        let mut mesh = NetMesh::establish(
            0,
            &addrs,
            &node_ranks,
            timeout,
            hb_timeout,
            7,
            NetStats::on(0, 2),
        )
        .expect("node 0 mesh");
        let server = mesh.serve_metrics("127.0.0.1:0").expect("metrics server");
        let mut transports = mesh.take_transports();
        let (_, t) = &mut transports[0];
        t.send(1, sample_packet());
        std::thread::sleep(HEARTBEAT_PERIOD * 3);

        // Probe the endpoints over plain TCP.
        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(server.local_addr()).expect("connect metrics");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).expect("read metrics");
            out
        };
        let health = fetch("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        let metrics = fetch("/metrics");
        let body = metrics.split("\r\n\r\n").nth(1).expect("metrics body");
        let v = Json::parse(body).expect("metrics is valid JSON");
        assert_eq!(v.get("node").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("generation").unwrap().as_u64(), Some(1));
        let net = v.get("net").unwrap();
        let snap0_live = NetStatsSnapshot::from_json(net).expect("net snapshot decodes");
        assert!(snap0_live.total(|p| p.frames_sent) > 0);

        let snap0 = mesh.net_snapshot();
        mesh.shutdown();
        drop(server);
        let (got_packet, snap1) = peer.join().expect("peer thread");
        assert!(got_packet, "node 1 never received node 0's packet");

        // Node 0 sent the data packet plus heartbeats/pings to node 1.
        let p1 = &snap0.peers[0];
        assert_eq!(p1.peer, 1);
        assert!(p1.frames_sent > 0 && p1.bytes_sent > 0);
        assert!(p1.heartbeats_sent > 0);
        // Node 1 heard node 0's heartbeats and echoed its pings.
        let p0 = &snap1.peers[0];
        assert_eq!(p0.peer, 0);
        assert!(p0.frames_recv > 0 && p0.bytes_recv > 0);
        assert!(p0.heartbeats_recv > 0);
        // At least one RTT sample completed somewhere.
        assert!(
            snap0.total(|p| p.rtt.count) + snap1.total(|p| p.rtt.count) > 0,
            "no RTT sample completed: {snap0:?} / {snap1:?}"
        );
        assert_eq!(snap0.total(|p| p.crc_failures), 0);
    }
}
