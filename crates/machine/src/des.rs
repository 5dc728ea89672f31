//! Discrete-event replayer for [`TraceProgram`]s.
//!
//! The replayer executes every rank's trace against a [`Machine`],
//! advancing a per-rank virtual clock:
//!
//! * `Compute` advances the rank's clock by the roofline time of the
//!   kernel on one core.
//! * `Send` is eager: the sender is charged only the per-message software
//!   overhead and the message is deposited with an arrival timestamp of
//!   `send_clock + p2p_time`.
//! * `Recv` blocks until the matching `(src, tag)` message exists, then
//!   sets the clock to `max(clock, arrival)`.
//! * `Collective` blocks until every member of the group arrives, then
//!   sets every member's clock to `max(member clocks) + collective_time`.
//!
//! Execution is a simple run-to-block scheduler over runnable ranks, so
//! replay cost is `O(total ops)` — programs with tens of thousands of
//! ranks and millions of ops replay in well under a second. Replay is
//! fully deterministic.
//!
//! Every replay returns each rank's finish time, the message and byte
//! counts, and a [`PhaseBreakdown`]: each cost the walk charges (compute,
//! send overhead, receive wait, collective wait) is attributed to the
//! phase its rank is in, so a program without `Phase` markers gets one
//! phase that holds all of its time.
//!
//! This walk is the only place run-to-block order is decided. It takes
//! one observer, told about every op as the walk executes it: a plain
//! replay has none, [`Replayer::run_logged`] keeps an event log,
//! [`Replayer::run_traced`] phase spans, and
//! [`crate::graph::build_task_graph`] places each node of the task graph.
//!
//! Nothing on the per-message path hashes. Before a replay, one pass
//! over the program's unexpanded op slots gives every `(src, dst, tag)`
//! channel a dense id and records it per slot (the private channel
//! index). Each channel's in-flight messages — arrival time, plus
//! whatever the observer keeps with them — are a FIFO in a `Vec`
//! indexed by that id. A blocked receive records its channel, so a send
//! wakes rank `dst` exactly when `dst` is blocked on a receive on the
//! send's channel. Each group keeps one pending-collective slot whose
//! waiter buffer is reused from occurrence to occurrence.

use std::collections::VecDeque;

use cpx_obs::{RankRecorder, TraceSession};

use crate::channels::{ChannelKey, Channels};
use crate::collectives::collective_time;
use crate::model::Machine;
use crate::trace::{CollectiveKind, Op, PhaseId, RankTrace, TraceProgram};

/// Errors detected during replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The program failed structural validation.
    Invalid(String),
    /// No rank can make progress but not all ranks finished.
    Deadlock {
        /// Ranks still blocked, with a description of what they wait on.
        blocked: Vec<(usize, String)>,
    },
    /// Two members of a group posted different collectives at the same
    /// position in the group's collective sequence.
    CollectiveMismatch {
        group: usize,
        expected: CollectiveKind,
        found: CollectiveKind,
    },
    /// A rank posted a collective on a group it is not a member of.
    NotAMember { rank: usize, group: usize },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Invalid(s) => write!(f, "invalid trace program: {s}"),
            ReplayError::Deadlock { blocked } => {
                write!(f, "deadlock: {} ranks blocked", blocked.len())?;
                for (r, why) in blocked.iter().take(4) {
                    write!(f, "; rank {r}: {why}")?;
                }
                Ok(())
            }
            ReplayError::CollectiveMismatch {
                group,
                expected,
                found,
            } => write!(
                f,
                "collective mismatch on group {group}: {expected:?} vs {found:?}"
            ),
            ReplayError::NotAMember { rank, group } => {
                write!(
                    f,
                    "rank {rank} posted collective on group {group} it is not in"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What happened in one replay-relevant scheduler step (see
/// [`DesEvent`]). Compute ops are *not* logged — their effect is fully
/// captured by the virtual timestamps of the surrounding events — so a
/// log stays compact even for million-op programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesEventKind {
    /// A rank deposited a message. `bytes` saturates at `u32::MAX`
    /// (virtual messages are far smaller; the narrow fields keep the
    /// event 32 bytes so logging stays within the recorder's <5%
    /// overhead budget).
    Send { dst: u32, tag: u32, bytes: u32 },
    /// A rank completed a matching receive.
    Recv { src: u32, tag: u32 },
    /// A rank arrived at a collective.
    Collective { kind: CollectiveKind, group: u32 },
    /// A rank ran out of ops.
    Finish,
}

/// One entry of the deterministic event log produced by
/// [`Replayer::run_logged`]: which rank did what, at which virtual
/// time. The run-to-block scheduler is deterministic, so the *global*
/// order of these events is reproducible bit-for-bit — same program,
/// same machine ⇒ identical log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesEvent {
    /// The rank the event happened on.
    pub rank: u32,
    /// The rank's virtual clock immediately after the event.
    pub vtime: f64,
    /// What happened.
    pub kind: DesEventKind,
}

/// Where each rank's virtual time went, by phase. Row `p` exists for
/// every phase id from 0 to the program's highest [`Op::Phase`] id
/// (`Repeat` bodies included). It is rank-long once some rank enters
/// phase `p`, phase 0 always, and empty otherwise; the accessors read an
/// empty row as 0.0. Summed over phases, a rank's compute + comm is its
/// finish time, up to float rounding.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// `compute[phase][rank]` — seconds of local compute attributed to
    /// `phase` on `rank`.
    pub compute: Vec<Vec<f64>>,
    /// `comm[phase][rank]` — seconds of communication wait attributed.
    pub comm: Vec<Vec<f64>>,
}

impl PhaseBreakdown {
    /// Max over ranks of compute + comm for `phase` — the elapsed time a
    /// profiler would attribute to that function.
    pub fn elapsed(&self, phase: usize) -> f64 {
        self.compute[phase]
            .iter()
            .zip(&self.comm[phase])
            .map(|(c, m)| c + m)
            .fold(0.0, f64::max)
    }

    /// Total compute seconds across ranks for `phase`.
    pub fn total_compute(&self, phase: usize) -> f64 {
        self.compute[phase].iter().sum()
    }

    /// Total communication seconds across ranks for `phase`.
    pub fn total_comm(&self, phase: usize) -> f64 {
        self.comm[phase].iter().sum()
    }

    /// Give `phase` rank-long rows if it has none yet, so only the
    /// phases a rank enters cost memory.
    fn enter(&mut self, phase: PhaseId, n_ranks: usize) {
        let p = phase as usize;
        if self.compute[p].is_empty() {
            self.compute[p] = vec![0.0; n_ranks];
            self.comm[p] = vec![0.0; n_ranks];
        }
    }
}

/// One more than the highest [`Op::Phase`] id of `program`, read from its
/// unexpanded op slots (`Repeat` bodies once each); 1 without markers.
fn phase_count(program: &TraceProgram) -> usize {
    program
        .traces
        .iter()
        .flat_map(|t| &t.ops)
        .flat_map(|op| match op {
            Op::Repeat { body, .. } => body.as_slice(),
            op => std::slice::from_ref(op),
        })
        .filter_map(|op| match *op {
            Op::Phase(p) => Some(p as usize + 1),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

/// Result of a successful replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Virtual finish time of each rank.
    pub finish: Vec<f64>,
    /// Number of point-to-point messages delivered.
    pub messages: u64,
    /// Total point-to-point payload bytes.
    pub bytes: u64,
    /// Each rank's compute and communication time, by phase.
    pub phases: PhaseBreakdown,
}

impl ReplayOutcome {
    /// The virtual runtime of the program (max rank finish time).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().copied().fold(0.0, f64::max)
    }

    /// Max finish time over a subset of ranks (an app instance's runtime
    /// inside a coupled program).
    pub fn makespan_of(&self, ranks: &[usize]) -> f64 {
        ranks.iter().map(|&r| self.finish[r]).fold(0.0, f64::max)
    }
}

/// What a blocked rank waits on: a receive on a channel of the
/// program's channel index, or a collective on a group.
#[derive(Debug, Clone, PartialEq)]
enum Blocked {
    Recv { ch: u32 },
    Collective { group: usize },
}

/// What a replay reports as it runs, beside its outcome: one hook per
/// op, called as the walk executes it.
pub(crate) trait Observer {
    /// Kept with each in-flight message, beside its arrival time.
    type Msg;

    /// `rank` leaves phase `from` at `clock`.
    fn phase(&mut self, _rank: usize, _from: PhaseId, _clock: f64) {}

    /// `rank` computes for `dt` seconds in `phase`.
    fn compute(&mut self, _rank: usize, _phase: PhaseId, _dt: f64) {}

    /// `rank` sends `bytes` to `dst` on `tag`; the message spends `wire`
    /// seconds on the wire, and the sender's clock reads `clock` after
    /// the send.
    fn send(
        &mut self,
        rank: usize,
        phase: PhaseId,
        clock: f64,
        dst: usize,
        tag: u32,
        bytes: usize,
        wire: f64,
    ) -> Self::Msg;

    /// `rank` receives `msg` from `src` on `tag`, its clock then reading
    /// `clock`.
    fn recv(
        &mut self,
        rank: usize,
        phase: PhaseId,
        clock: f64,
        src: usize,
        tag: u32,
        msg: Self::Msg,
    );

    /// `rank` enters a `kind` collective on `group` at `clock`.
    fn arrive(&mut self, _rank: usize, _clock: f64, _kind: CollectiveKind, _group: usize) {}

    /// The last member of `group` entered its `kind` collective: every
    /// member leaves `cost` seconds after the last entry. `phase` holds
    /// every rank's phase.
    fn meet(&mut self, _group: usize, _kind: CollectiveKind, _cost: f64, _phase: &[PhaseId]) {}

    /// `rank` runs out of ops at `clock`, in `phase`.
    fn finish(&mut self, _rank: usize, _phase: PhaseId, _clock: f64) {}

    /// After a replay that completes: `msg`, the oldest message on
    /// channel `key` that no receive took, once per such channel.
    fn unreceived(&mut self, _key: ChannelKey, _msg: &Self::Msg) {}
}

/// A plain replay observes nothing.
impl Observer for () {
    type Msg = ();

    fn send(&mut self, _: usize, _: PhaseId, _: f64, _: usize, _: u32, _: usize, _: f64) {}

    fn recv(&mut self, _: usize, _: PhaseId, _: f64, _: usize, _: u32, _: ()) {}
}

/// A logged replay records each send, receive, collective entry and
/// finish.
impl Observer for Vec<DesEvent> {
    type Msg = ();

    fn send(
        &mut self,
        rank: usize,
        _: PhaseId,
        clock: f64,
        dst: usize,
        tag: u32,
        bytes: usize,
        _: f64,
    ) {
        let bytes = bytes.min(u32::MAX as usize) as u32;
        self.push(DesEvent {
            rank: rank as u32,
            vtime: clock,
            kind: DesEventKind::Send {
                dst: dst as u32,
                tag,
                bytes,
            },
        });
    }

    fn recv(&mut self, rank: usize, _: PhaseId, clock: f64, src: usize, tag: u32, _: ()) {
        self.push(DesEvent {
            rank: rank as u32,
            vtime: clock,
            kind: DesEventKind::Recv {
                src: src as u32,
                tag,
            },
        });
    }

    fn arrive(&mut self, rank: usize, clock: f64, kind: CollectiveKind, group: usize) {
        self.push(DesEvent {
            rank: rank as u32,
            vtime: clock,
            kind: DesEventKind::Collective {
                kind,
                group: group as u32,
            },
        });
    }

    fn finish(&mut self, rank: usize, _: PhaseId, clock: f64) {
        self.push(DesEvent {
            rank: rank as u32,
            vtime: clock,
            kind: DesEventKind::Finish,
        });
    }
}

/// Per-rank phase-segment recorder for traced replays: every maximal
/// run of virtual time a rank spends in one phase becomes a span on
/// that rank's timeline.
struct DesTracer {
    names: Vec<String>,
    recorders: Vec<RankRecorder>,
    seg_start: Vec<f64>,
}

impl DesTracer {
    fn new(n_ranks: usize, phase_names: &[&str]) -> Self {
        DesTracer {
            names: phase_names.iter().map(|s| s.to_string()).collect(),
            recorders: (0..n_ranks).map(|_| RankRecorder::on()).collect(),
            seg_start: vec![0.0; n_ranks],
        }
    }

    /// Close the segment `rank` has occupied since the last phase
    /// switch (no-op for zero-length segments).
    fn close_segment(&mut self, rank: usize, phase: PhaseId, now: f64) {
        let start = self.seg_start[rank];
        if now > start {
            let name = self
                .names
                .get(phase as usize)
                .cloned()
                .unwrap_or_else(|| format!("phase {phase}"));
            self.recorders[rank].push_span(name, start, now);
        }
        self.seg_start[rank] = now;
    }

    fn into_session(self, finish: &[f64]) -> TraceSession {
        TraceSession::new(
            self.recorders
                .into_iter()
                .enumerate()
                .map(|(rank, rec)| rec.into_timeline(rank, finish[rank]))
                .collect(),
        )
    }
}

impl Observer for DesTracer {
    type Msg = ();

    fn phase(&mut self, rank: usize, from: PhaseId, clock: f64) {
        self.close_segment(rank, from, clock);
    }

    fn send(&mut self, _: usize, _: PhaseId, _: f64, _: usize, _: u32, _: usize, _: f64) {}

    fn recv(&mut self, _: usize, _: PhaseId, _: f64, _: usize, _: u32, _: ()) {}

    fn finish(&mut self, rank: usize, phase: PhaseId, clock: f64) {
        self.close_segment(rank, phase, clock);
    }
}

/// A group's open collective occurrence. One per group, reused from
/// occurrence to occurrence, so its waiter buffer is allocated once.
#[derive(Debug)]
struct PendingColl {
    kind: CollectiveKind,
    max_clock: f64,
    max_bytes: usize,
    /// (rank, clock at arrival) for comm-time attribution; empty while
    /// no occurrence is open.
    waiters: Vec<(usize, f64)>,
}

/// Cursor over a rank trace, expanding `Repeat` lazily.
#[derive(Debug, Clone)]
struct Cursor {
    pc: usize,
    rep_iter: u32,
    rep_pc: usize,
    in_repeat: bool,
}

impl Cursor {
    fn new() -> Self {
        Cursor {
            pc: 0,
            rep_iter: 0,
            rep_pc: 0,
            in_repeat: false,
        }
    }

    /// Channel of the message op under the cursor.
    fn channel(&self, channels: &Channels, rank: usize) -> u32 {
        channels.of(rank, self.pc, self.in_repeat.then_some(self.rep_pc))
    }
}

/// The discrete-event replayer. Construct with a machine, optionally
/// enable system noise, then call [`Replayer::run`].
#[derive(Debug, Clone)]
pub struct Replayer {
    machine: Machine,
    /// Optional `(amplitude, seed)` system-noise model.
    noise: Option<(f64, u64)>,
}

impl Replayer {
    /// A replayer for `machine`.
    pub fn new(machine: Machine) -> Self {
        Replayer {
            machine,
            noise: None,
        }
    }

    /// Enable deterministic system noise: every compute op's duration
    /// is scaled by a factor in `[1, 1 + 2·amplitude]` drawn from a
    /// splitmix64 stream keyed by `(seed, rank, op index)` — a simple
    /// model of OS jitter and memory/network contention on a production
    /// machine (one-sided: interference only ever slows a core down).
    /// Replays remain bit-reproducible for a given seed.
    pub fn with_noise(mut self, amplitude: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&amplitude));
        self.noise = if amplitude > 0.0 {
            Some((amplitude, seed))
        } else {
            None
        };
        self
    }

    /// Replay `program`, returning per-rank timings and their phase
    /// breakdown.
    pub fn run(&self, program: &TraceProgram) -> Result<ReplayOutcome, ReplayError> {
        self.run_inner(program, &mut ())
    }

    /// Replay `program` and additionally return the deterministic
    /// event log: every send, receive, collective arrival and rank
    /// finish, in global scheduler order, each stamped with the rank's
    /// virtual clock. Same program + machine ⇒ bit-identical log, which
    /// is what makes the log usable as a golden trace for record/replay
    /// regression checks.
    pub fn run_logged(
        &self,
        program: &TraceProgram,
    ) -> Result<(ReplayOutcome, Vec<DesEvent>), ReplayError> {
        let mut log = Vec::new();
        let out = self.run_logged_into(program, &mut log)?;
        Ok((out, log))
    }

    /// As [`Replayer::run_logged`], recording into a caller-provided
    /// buffer (cleared first, capacity reserved). Reusing one buffer
    /// across many replays avoids the large-allocation round trip to
    /// the OS per run — the recommended shape for repeated recording,
    /// and what keeps recorder overhead under its <5% budget.
    pub fn run_logged_into(
        &self,
        program: &TraceProgram,
        log: &mut Vec<DesEvent>,
    ) -> Result<ReplayOutcome, ReplayError> {
        log.clear();
        // Reserve for the common case — one event per expanded op plus
        // a finish per rank — so logging costs pushes, not
        // reallocation+copy cycles (the <5% recorder-overhead budget).
        let cap: usize = program
            .traces
            .iter()
            .map(RankTrace::expanded_len)
            .sum::<usize>()
            + program.n_ranks();
        log.reserve(cap);
        self.run_inner(program, log)
    }

    /// Replay `program` with span recording: alongside the outcome,
    /// returns a [`TraceSession`] with one lane per rank where every
    /// maximal single-phase stretch of virtual time is a span named
    /// after its phase (`phase_names[id]`, falling back to `"phase
    /// {id}"`). Deterministic: same program ⇒ byte-identical session.
    pub fn run_traced(
        &self,
        program: &TraceProgram,
        phase_names: &[&str],
    ) -> Result<(ReplayOutcome, TraceSession), ReplayError> {
        let mut tracer = DesTracer::new(program.n_ranks(), phase_names);
        let out = self.run_inner(program, &mut tracer)?;
        let session = tracer.into_session(&out.finish);
        Ok((out, session))
    }

    /// The replay walk, telling `obs` about every op it executes.
    /// Monomorphized per observer, so a plain replay carries no
    /// observing code in its hot loop.
    pub(crate) fn run_inner<O: Observer>(
        &self,
        program: &TraceProgram,
        obs: &mut O,
    ) -> Result<ReplayOutcome, ReplayError> {
        program.validate().map_err(ReplayError::Invalid)?;
        let channels = Channels::build(program).map_err(ReplayError::Invalid)?;
        let n = program.n_ranks();

        // Group membership checks are cheaper with a lookup table.
        let mut member: Vec<Vec<bool>> = Vec::with_capacity(program.groups.len());
        for g in &program.groups {
            let mut m = vec![false; n];
            for &r in g {
                m[r] = true;
            }
            member.push(m);
        }

        let mut clock = vec![0.0f64; n];
        let mut phase: Vec<PhaseId> = vec![0; n];
        let mut cursors: Vec<Cursor> = (0..n).map(|_| Cursor::new()).collect();
        let mut blocked: Vec<Option<Blocked>> = vec![None; n];
        let mut done = vec![false; n];

        // Every rank starts in phase 0; other phases get their rows when
        // a rank first enters them.
        let n_phases = phase_count(program);
        let mut phases = PhaseBreakdown {
            compute: vec![Vec::new(); n_phases],
            comm: vec![Vec::new(); n_phases],
        };
        phases.enter(0, n);

        // Per channel: FIFO of arrival times and what `obs` keeps.
        let mut mailbox: Vec<VecDeque<(f64, O::Msg)>> = std::iter::repeat_with(VecDeque::new)
            .take(channels.len())
            .collect();
        let mut pending_colls: Vec<PendingColl> = program
            .groups
            .iter()
            .map(|_| PendingColl {
                kind: CollectiveKind::Barrier,
                max_clock: 0.0,
                max_bytes: 0,
                waiters: Vec::new(),
            })
            .collect();

        let mut messages: u64 = 0;
        let mut total_bytes: u64 = 0;

        let mut runnable: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        // Per-rank compute-op counters for the noise stream.
        let mut op_counter = vec![0u64; n];
        let noise = self.noise;
        let noise_factor = |rank: usize, counter: u64| -> f64 {
            match noise {
                None => 1.0,
                Some((amp, seed)) => {
                    let mut x = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= counter.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    // splitmix64 finalizer.
                    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
                    x ^= x >> 31;
                    let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                    1.0 + 2.0 * amp * u
                }
            }
        };

        while let Some(rank) = runnable.pop_front() {
            queued[rank] = false;
            if done[rank] || blocked[rank].is_some() {
                continue;
            }
            let ops = &program.traces[rank].ops;
            'run: loop {
                // Resolve the current op through the Repeat cursor.
                let cur = &mut cursors[rank];
                let op: &Op = loop {
                    if cur.pc >= ops.len() {
                        done[rank] = true;
                        obs.finish(rank, phase[rank], clock[rank]);
                        break 'run;
                    }
                    match &ops[cur.pc] {
                        Op::Repeat { count, body } => {
                            if cur.rep_iter >= *count || body.is_empty() {
                                cur.pc += 1;
                                cur.rep_iter = 0;
                                cur.rep_pc = 0;
                                cur.in_repeat = false;
                                continue;
                            }
                            if cur.rep_pc >= body.len() {
                                cur.rep_iter += 1;
                                cur.rep_pc = 0;
                                continue;
                            }
                            cur.in_repeat = true;
                            break &body[cur.rep_pc];
                        }
                        other => {
                            cur.in_repeat = false;
                            break other;
                        }
                    }
                };

                // Advance-past helper applied after the op executes.
                macro_rules! advance {
                    () => {{
                        let cur = &mut cursors[rank];
                        if cur.in_repeat {
                            cur.rep_pc += 1;
                        } else {
                            cur.pc += 1;
                        }
                    }};
                }

                match *op {
                    Op::Compute(cost) => {
                        op_counter[rank] += 1;
                        let dt =
                            self.machine.kernel_time(cost) * noise_factor(rank, op_counter[rank]);
                        clock[rank] += dt;
                        phases.compute[phase[rank] as usize][rank] += dt;
                        obs.compute(rank, phase[rank], dt);
                        advance!();
                    }
                    Op::ComputeSecs(dt) => {
                        op_counter[rank] += 1;
                        let dt = dt * noise_factor(rank, op_counter[rank]);
                        clock[rank] += dt;
                        phases.compute[phase[rank] as usize][rank] += dt;
                        obs.compute(rank, phase[rank], dt);
                        advance!();
                    }
                    Op::Phase(p) => {
                        if p != phase[rank] {
                            obs.phase(rank, phase[rank], clock[rank]);
                            phases.enter(p, n);
                            phase[rank] = p;
                        }
                        advance!();
                    }
                    Op::Send { dst, bytes, tag } => {
                        let wire = self.machine.p2p_time(rank, dst, bytes);
                        let arrival = clock[rank] + wire;
                        clock[rank] += self.machine.send_overhead;
                        phases.comm[phase[rank] as usize][rank] += self.machine.send_overhead;
                        messages += 1;
                        total_bytes += bytes as u64;
                        let msg = obs.send(rank, phase[rank], clock[rank], dst, tag, bytes, wire);
                        let ch = cursors[rank].channel(&channels, rank);
                        mailbox[ch as usize].push_back((arrival, msg));
                        if blocked[dst] == Some(Blocked::Recv { ch }) {
                            blocked[dst] = None;
                            if !queued[dst] && !done[dst] {
                                queued[dst] = true;
                                runnable.push_back(dst);
                            }
                        }
                        advance!();
                    }
                    Op::Recv { src, tag } => {
                        let ch = cursors[rank].channel(&channels, rank);
                        match mailbox[ch as usize].pop_front() {
                            Some((arrival, msg)) => {
                                let wait = (arrival - clock[rank]).max(0.0);
                                clock[rank] += wait;
                                phases.comm[phase[rank] as usize][rank] += wait;
                                obs.recv(rank, phase[rank], clock[rank], src, tag, msg);
                                advance!();
                            }
                            None => {
                                blocked[rank] = Some(Blocked::Recv { ch });
                                break 'run;
                            }
                        }
                    }
                    Op::Collective { kind, group, bytes } => {
                        if group >= member.len() || !member[group][rank] {
                            return Err(ReplayError::NotAMember { rank, group });
                        }
                        let gsize = program.groups[group].len();
                        let coll = &mut pending_colls[group];
                        if coll.waiters.is_empty() {
                            coll.kind = kind;
                            coll.max_clock = 0.0;
                            coll.max_bytes = 0;
                        } else if coll.kind != kind {
                            return Err(ReplayError::CollectiveMismatch {
                                group,
                                expected: coll.kind,
                                found: kind,
                            });
                        }
                        coll.max_clock = coll.max_clock.max(clock[rank]);
                        coll.max_bytes = coll.max_bytes.max(bytes);
                        coll.waiters.push((rank, clock[rank]));
                        obs.arrive(rank, clock[rank], kind, group);
                        // Advance this rank's cursor past the collective
                        // now; it will be unblocked when the group is
                        // complete.
                        advance!();
                        if coll.waiters.len() == gsize {
                            let cost =
                                collective_time(&self.machine, coll.kind, gsize, coll.max_bytes);
                            let t_end = coll.max_clock + cost;
                            obs.meet(group, coll.kind, cost, &phase);
                            for &(r, at) in &coll.waiters {
                                let wait = t_end - at;
                                clock[r] = t_end;
                                phases.comm[phase[r] as usize][r] += wait;
                                if r != rank {
                                    blocked[r] = None;
                                    if !queued[r] && !done[r] {
                                        queued[r] = true;
                                        runnable.push_back(r);
                                    }
                                }
                            }
                            coll.waiters.clear();
                            // This rank continues running.
                        } else {
                            blocked[rank] = Some(Blocked::Collective { group });
                            break 'run;
                        }
                    }
                    Op::Repeat { .. } => unreachable!("resolved by cursor"),
                }
            }
        }

        // Every rank must be done; otherwise we deadlocked.
        if done.iter().any(|d| !d) {
            let blocked_list = (0..n)
                .filter(|&r| !done[r])
                .map(|r| {
                    let why = match &blocked[r] {
                        Some(Blocked::Recv { ch }) => {
                            let (src, _, tag) = channels.key(*ch);
                            format!("recv from {src} tag {tag}")
                        }
                        Some(Blocked::Collective { group }) => {
                            format!("collective on group {group}")
                        }
                        None => "runnable but never scheduled (bug)".to_string(),
                    };
                    (r, why)
                })
                .collect();
            return Err(ReplayError::Deadlock {
                blocked: blocked_list,
            });
        }
        for (ch, queue) in mailbox.iter().enumerate() {
            if let Some((_, msg)) = queue.front() {
                obs.unreceived(channels.key(ch as u32), msg);
            }
        }

        Ok(ReplayOutcome {
            finish: clock,
            messages,
            bytes: total_bytes,
            phases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::model::MachineBuilder;

    fn simple_machine() -> Machine {
        MachineBuilder::new("unit")
            .cores_per_node(2)
            .flops_per_core(1.0) // 1 flop = 1 second
            .mem_bw_per_core(1.0)
            .intra(0.5, 10.0)
            .inter(1.0, 1.0)
            .send_overhead(0.0)
            .build()
    }

    #[test]
    fn compute_only() {
        let mut p = TraceProgram::new(2);
        p.rank(0).compute(KernelCost::flops(3.0));
        p.rank(1).compute(KernelCost::flops(5.0));
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert_eq!(out.finish, vec![3.0, 5.0]);
        assert_eq!(out.makespan(), 5.0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn send_recv_timing() {
        // Rank 0 computes 2s then sends 10 bytes to rank 1 (same node:
        // latency 0.5, bw 10 -> transfer 1.0). Rank 1 recvs immediately.
        let mut p = TraceProgram::new(2);
        p.rank(0).compute(KernelCost::flops(2.0));
        p.rank(0).send(1, 10, 0);
        p.rank(1).recv(0, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // Arrival = 2 + 0.5 + 1.0 = 3.5.
        assert!((out.finish[1] - 3.5).abs() < 1e-12);
        assert!((out.phases.comm[0][1] - 3.5).abs() < 1e-12);
        assert_eq!(out.messages, 1);
        assert_eq!(out.bytes, 10);
    }

    #[test]
    fn recv_posted_before_send() {
        let mut p = TraceProgram::new(2);
        p.rank(1).recv(0, 3);
        p.rank(0).compute(KernelCost::flops(4.0));
        p.rank(0).send(1, 0, 3);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[1] - 4.5).abs() < 1e-12); // 4 + latency 0.5
    }

    #[test]
    fn fifo_matching_same_tag() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 10, 0); // arrival 1.5
        p.rank(0).compute(KernelCost::flops(10.0));
        p.rank(0).send(1, 10, 0); // arrival 11.5
        p.rank(1).recv(0, 0);
        p.rank(1).recv(0, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[1] - 11.5).abs() < 1e-12);
    }

    #[test]
    fn tags_demultiplex() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 10, 7); // tag 7 first
        p.rank(0).send(1, 10, 9);
        // Receiver takes tag 9 then tag 7 — must not deadlock.
        p.rank(1).recv(0, 9);
        p.rank(1).recv(0, 7);
        assert!(Replayer::new(simple_machine()).run(&p).is_ok());
    }

    #[test]
    fn allreduce_synchronises() {
        let mut p = TraceProgram::new(4);
        let g = p.add_world_group();
        for r in 0..4 {
            p.rank(r).compute(KernelCost::flops((r + 1) as f64));
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // All ranks finish at the same time, >= slowest compute (4s).
        let f0 = out.finish[0];
        assert!(f0 > 4.0);
        for r in 1..4 {
            assert!((out.finish[r] - f0).abs() < 1e-12);
        }
    }

    #[test]
    fn subgroup_collectives_independent() {
        let mut p = TraceProgram::new(4);
        let g0 = p.add_group(vec![0, 1]);
        let g1 = p.add_group(vec![2, 3]);
        p.rank(0).collective(CollectiveKind::Barrier, g0, 0);
        p.rank(1).collective(CollectiveKind::Barrier, g0, 0);
        p.rank(2).compute(KernelCost::flops(100.0));
        p.rank(2).collective(CollectiveKind::Barrier, g1, 0);
        p.rank(3).collective(CollectiveKind::Barrier, g1, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // Group 0 must not be delayed by group 1's slow member.
        assert!(out.finish[0] < 10.0);
        assert!(out.finish[3] >= 100.0);
    }

    #[test]
    fn deadlock_detected() {
        let mut p = TraceProgram::new(2);
        p.rank(0).recv(1, 3);
        p.rank(1).recv(0, 5);
        let err = Replayer::new(simple_machine()).run(&p).unwrap_err();
        assert_eq!(
            err.to_string(),
            "deadlock: 2 ranks blocked; rank 0: recv from 1 tag 3; rank 1: recv from 0 tag 5"
        );
    }

    #[test]
    fn deadlock_inside_repeat_bodies_names_what_each_rank_waits_on() {
        // Blocked inside bodies after some traffic has matched, and on a
        // collective.
        let mut p = TraceProgram::new(3);
        let g = p.add_group(vec![1, 2]);
        p.rank(0).send(1, 8, 2);
        p.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![Op::ComputeSecs(1.0), Op::Recv { src: 1, tag: 7 }],
        });
        p.rank(1).ops.push(Op::Repeat {
            count: 2,
            body: vec![Op::Recv { src: 0, tag: 2 }],
        });
        p.rank(2).collective(CollectiveKind::Barrier, g, 0);
        match Replayer::new(simple_machine()).run(&p) {
            Err(ReplayError::Deadlock { blocked }) => assert_eq!(
                blocked,
                vec![
                    (0, "recv from 1 tag 7".to_string()),
                    (1, "recv from 0 tag 2".to_string()),
                    (2, format!("collective on group {g}")),
                ]
            ),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn self_message_replays_and_matches() {
        let mut p = TraceProgram::new(1);
        p.rank(0).compute(KernelCost::flops(1.0));
        p.rank(0).send(0, 10, 4);
        p.rank(0).recv(0, 4);
        let (out, log) = Replayer::new(simple_machine()).run_logged(&p).unwrap();
        // A self-message is a memcpy: 10 bytes / (2 × 10 B/s).
        assert_eq!(out.finish, vec![1.5]);
        assert_eq!((out.messages, out.bytes), (1, 10));
        assert_eq!(
            log.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![
                DesEventKind::Send {
                    dst: 0,
                    tag: 4,
                    bytes: 10
                },
                DesEventKind::Recv { src: 0, tag: 4 },
                DesEventKind::Finish,
            ]
        );
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut p = TraceProgram::new(2);
        let g = p.add_world_group();
        p.rank(0).collective(CollectiveKind::Barrier, g, 0);
        p.rank(1).collective(CollectiveKind::Allreduce, g, 8);
        assert!(matches!(
            Replayer::new(simple_machine()).run(&p),
            Err(ReplayError::CollectiveMismatch { .. })
        ));
    }

    #[test]
    fn non_member_collective_detected() {
        let mut p = TraceProgram::new(3);
        let g = p.add_group(vec![0, 1]);
        p.rank(0).collective(CollectiveKind::Barrier, g, 0);
        p.rank(1).collective(CollectiveKind::Barrier, g, 0);
        p.rank(2).collective(CollectiveKind::Barrier, g, 0);
        assert!(matches!(
            Replayer::new(simple_machine()).run(&p),
            Err(ReplayError::NotAMember { rank: 2, group: 0 })
        ));
    }

    #[test]
    fn repeat_expands() {
        let mut p = TraceProgram::new(1);
        p.rank(0).ops.push(Op::Repeat {
            count: 5,
            body: vec![Op::ComputeSecs(2.0)],
        });
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_with_messaging() {
        // Ping-pong inside Repeat across both ranks.
        let mut p = TraceProgram::new(2);
        p.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Send {
                    dst: 1,
                    bytes: 8,
                    tag: 0,
                },
                Op::Recv { src: 1, tag: 1 },
            ],
        });
        p.rank(1).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Recv { src: 0, tag: 0 },
                Op::Send {
                    dst: 0,
                    bytes: 8,
                    tag: 1,
                },
            ],
        });
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!(out.makespan() > 0.0);
        assert_eq!(out.messages, 6);
    }

    #[test]
    fn phase_attribution() {
        let mut p = TraceProgram::new(2);
        for r in 0..2 {
            p.rank(r).phase(0);
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).phase(1);
            p.rank(r).compute(KernelCost::flops(2.0));
        }
        let ph = Replayer::new(simple_machine()).run(&p).unwrap().phases;
        assert_eq!(ph.compute.len(), 2);
        assert!((ph.total_compute(0) - 2.0).abs() < 1e-12);
        assert!((ph.total_compute(1) - 4.0).abs() < 1e-12);
        assert!((ph.elapsed(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn only_entered_phases_get_rank_long_rows() {
        let mut p = TraceProgram::new(2);
        for r in 0..2 {
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).phase(u16::MAX);
            p.rank(r).compute(KernelCost::flops(2.0));
        }
        let ph = Replayer::new(simple_machine()).run(&p).unwrap().phases;
        assert_eq!(ph.compute.len(), 65_536);
        assert_eq!(ph.comm.len(), 65_536);
        for (id, (compute, comm)) in ph.compute.iter().zip(&ph.comm).enumerate() {
            let want = if id == 0 || id == 65_535 { 2 } else { 0 };
            assert_eq!((compute.len(), comm.len()), (want, want), "phase {id}");
        }
        assert_eq!(ph.total_compute(1), 0.0);
        assert_eq!(ph.total_compute(65_535), 4.0);
    }

    #[test]
    fn traced_replay_segments_phases() {
        let mut p = TraceProgram::new(2);
        for r in 0..2 {
            p.rank(r).phase(0);
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).phase(1);
            p.rank(r).compute(KernelCost::flops(2.0));
        }
        let rep = Replayer::new(simple_machine());
        let (out, session) = rep.run_traced(&p, &["alpha", "beta"]).unwrap();
        assert_eq!(session.lanes.len(), 2);
        for lane in &session.lanes {
            assert_eq!(lane.spans.len(), 2);
            assert_eq!(lane.spans[0].name, "alpha");
            assert_eq!(lane.spans[1].name, "beta");
            assert!(lane.spans.iter().all(|s| s.end >= s.start));
        }
        // Traced and untraced replays agree exactly.
        let plain = rep.run(&p).unwrap();
        assert_eq!(out.finish, plain.finish);
        // And the session itself is deterministic.
        let (_, again) = rep.run_traced(&p, &["alpha", "beta"]).unwrap();
        assert_eq!(session, again);
    }

    #[test]
    fn traced_replay_names_unknown_phases() {
        let mut p = TraceProgram::new(1);
        p.rank(0).phase(3);
        p.rank(0).compute(KernelCost::flops(1.0));
        let (_, session) = Replayer::new(simple_machine()).run_traced(&p, &[]).unwrap();
        assert_eq!(session.lanes[0].spans[0].name, "phase 3");
    }

    #[test]
    fn determinism_across_runs() {
        let mut p = TraceProgram::new(8);
        let g = p.add_world_group();
        for r in 0..8 {
            p.rank(r).compute(KernelCost::flops(r as f64 + 1.0));
            p.rank(r).send((r + 1) % 8, 64, 0);
            p.rank(r).recv((r + 7) % 8, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let rep = Replayer::new(simple_machine());
        let a = rep.run(&p).unwrap();
        let b = rep.run(&p).unwrap();
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.phases.compute, b.phases.compute);
        assert_eq!(a.phases.comm, b.phases.comm);
    }

    #[test]
    fn large_rank_count_replays() {
        // 10k ranks in a ring with an allreduce — smoke test for scale.
        let n = 10_000;
        let mut p = TraceProgram::new(n);
        let g = p.add_world_group();
        for r in 0..n {
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).send((r + 1) % n, 8, 0);
            p.rank(r).recv((r + n - 1) % n, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let out = Replayer::new(Machine::archer2()).run(&p).unwrap();
        assert_eq!(out.messages, n as u64);
        assert!(out.makespan() > 0.0);
    }

    #[test]
    fn logged_replay_is_deterministic_and_agrees_with_plain() {
        let mut p = TraceProgram::new(4);
        let g = p.add_world_group();
        for r in 0..4 {
            p.rank(r).compute(KernelCost::flops(r as f64 + 1.0));
            p.rank(r).send((r + 1) % 4, 64, 0);
            p.rank(r).recv((r + 3) % 4, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let rep = Replayer::new(simple_machine());
        let (out, log) = rep.run_logged(&p).unwrap();
        let plain = rep.run(&p).unwrap();
        assert_eq!(out.finish, plain.finish);
        // 4 sends + 4 recvs + 4 collective arrivals + 4 finishes.
        assert_eq!(log.len(), 16);
        assert_eq!(
            log.iter()
                .filter(|e| matches!(e.kind, DesEventKind::Finish))
                .count(),
            4
        );
        let (_, again) = rep.run_logged(&p).unwrap();
        assert_eq!(log, again);
    }

    #[test]
    fn makespan_of_subset() {
        let mut p = TraceProgram::new(3);
        p.rank(0).compute(KernelCost::flops(1.0));
        p.rank(1).compute(KernelCost::flops(5.0));
        p.rank(2).compute(KernelCost::flops(9.0));
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert_eq!(out.makespan_of(&[0, 1]), 5.0);
        assert_eq!(out.makespan_of(&[2]), 9.0);
    }
}
