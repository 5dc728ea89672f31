//! Per-worker wall-clock telemetry for the pool combinators.
//!
//! [`with_telemetry`] wraps any code that drives a [`ParPool`](crate::ParPool) — a
//! single kernel call or a whole solver step — and collects one
//! [`ChunkTiming`] per chunk the combinators execute inside it: which
//! worker ran the chunk, how many items it covered and its start/end
//! timestamps relative to the collection epoch. The result is a
//! [`PoolTelemetry`] with derived busy/idle time per worker, a
//! utilization figure and a load-imbalance ratio — the numbers a
//! work-stealing-free static-stride schedule needs watched, because a
//! skewed chunk cost distribution shows up directly as idle workers.
//!
//! Collection is **observational only**: it never changes which worker
//! runs which chunk, so the `cpx-par` determinism contract (results
//! keyed to chunk count, bit-identical at any thread count) holds with
//! telemetry on or off. When no collection is active the combinators
//! pay one relaxed atomic load per chunk — noise next to
//! [`MIN_WORK_PER_WORKER`](crate::MIN_WORK_PER_WORKER) items of work.
//!
//! The collector is process-global (worker threads are scoped, so a
//! thread-local cannot see them) and non-reentrant: nesting
//! [`with_telemetry`] panics, and two threads collecting concurrently
//! would attribute each other's chunks. Benchmarks collect one kernel
//! at a time, which is the intended shape.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Is a collection window open? Checked (relaxed) once per chunk.
static COLLECTING: AtomicBool = AtomicBool::new(false);

/// The open collection window: epoch + timings gathered so far.
static SINK: Mutex<Option<Sink>> = Mutex::new(None);

struct Sink {
    epoch: Instant,
    chunks: Vec<ChunkTiming>,
}

/// One executed chunk: who ran it, what it covered, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkTiming {
    /// Chunk index within its combinator call.
    pub chunk: usize,
    /// Worker that executed it (0 = the calling thread).
    pub worker: usize,
    /// Items the chunk covered (range length, or 1 for `map`).
    pub items: usize,
    /// Start, seconds since the collection epoch.
    pub start: f64,
    /// End, seconds since the collection epoch.
    pub end: f64,
}

impl ChunkTiming {
    /// Chunk wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Everything observed in one [`with_telemetry`] window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolTelemetry {
    /// Wall seconds of the whole window (includes any non-pool work the
    /// wrapped closure did; utilization is relative to this).
    pub wall: f64,
    /// Workers observed (max worker index + 1 across all chunks).
    pub workers: usize,
    /// Per-chunk timings in execution-record order.
    pub chunks: Vec<ChunkTiming>,
}

impl PoolTelemetry {
    /// Busy seconds per worker (summed chunk durations), indexed by
    /// worker id; length [`PoolTelemetry::workers`].
    pub fn busy_per_worker(&self) -> Vec<f64> {
        let mut busy = vec![0.0; self.workers];
        for c in &self.chunks {
            busy[c.worker] += c.duration();
        }
        busy
    }

    /// Idle seconds per worker: window wall time minus busy time,
    /// clamped at zero (a chunk can straddle the window edge only by
    /// clock-resolution noise).
    pub fn idle_per_worker(&self) -> Vec<f64> {
        self.busy_per_worker()
            .iter()
            .map(|&b| (self.wall - b).max(0.0))
            .collect()
    }

    /// Aggregate utilization in `[0, 1]`: total busy time over
    /// `workers × wall`. 0.0 for an empty window.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.busy_per_worker().iter().sum();
        (busy / (self.workers as f64 * self.wall)).min(1.0)
    }

    /// Load-imbalance ratio: max worker busy time over mean worker busy
    /// time. 1.0 is perfectly balanced; 0.0 for an empty window. With a
    /// static stride schedule this is the direct cost of skewed chunks —
    /// there is no stealing to hide it.
    pub fn imbalance(&self) -> f64 {
        let busy = self.busy_per_worker();
        if busy.is_empty() {
            return 0.0;
        }
        let max = busy.iter().cloned().fold(0.0, f64::max);
        let mean: f64 = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }

    /// Nearest-rank percentile over per-worker busy times; `q` in
    /// percent. Returns 0.0 for an empty window.
    pub fn worker_busy_percentile(&self, q: f64) -> f64 {
        let mut busy = self.busy_per_worker();
        if busy.is_empty() {
            return 0.0;
        }
        busy.sort_by(f64::total_cmp);
        cpx_obs::percentile_sorted(&busy, q)
    }

    /// Total busy seconds across all workers.
    pub fn total_busy(&self) -> f64 {
        self.chunks.iter().map(ChunkTiming::duration).sum()
    }

    /// Total items covered by all chunks.
    pub fn total_items(&self) -> usize {
        self.chunks.iter().map(|c| c.items).sum()
    }
}

/// Run `f` with chunk telemetry collection on, returning its result and
/// the observed [`PoolTelemetry`]. Panics if a collection window is
/// already open (the collector is process-global and non-reentrant).
pub fn with_telemetry<R>(f: impl FnOnce() -> R) -> (R, PoolTelemetry) {
    {
        let mut sink = SINK.lock().expect("telemetry sink poisoned");
        assert!(
            sink.is_none(),
            "cpx-par telemetry windows cannot nest or overlap"
        );
        *sink = Some(Sink {
            epoch: Instant::now(),
            chunks: Vec::new(),
        });
    }
    COLLECTING.store(true, Ordering::Release);
    let result = f();
    COLLECTING.store(false, Ordering::Release);
    let sink = SINK
        .lock()
        .expect("telemetry sink poisoned")
        .take()
        .expect("telemetry window was open");
    let workers = sink.chunks.iter().map(|c| c.worker + 1).max().unwrap_or(0);
    (
        result,
        PoolTelemetry {
            wall: sink.epoch.elapsed().as_secs_f64(),
            workers,
            chunks: sink.chunks,
        },
    )
}

/// Is a collection window open? One relaxed load; the combinators call
/// this once per chunk.
#[inline]
pub(crate) fn collecting() -> bool {
    COLLECTING.load(Ordering::Relaxed)
}

/// Record one executed chunk (no-op if the window closed meanwhile).
pub(crate) fn record(chunk: usize, worker: usize, items: usize, t0: Instant, t1: Instant) {
    let mut sink = SINK.lock().expect("telemetry sink poisoned");
    if let Some(sink) = sink.as_mut() {
        sink.chunks.push(ChunkTiming {
            chunk,
            worker,
            items,
            start: t0.duration_since(sink.epoch).as_secs_f64(),
            end: t1.duration_since(sink.epoch).as_secs_f64(),
        });
    }
}

/// Run one chunk body, recording a [`ChunkTiming`] if a collection
/// window is open.
#[inline]
pub(crate) fn timed_chunk<R>(
    chunk: usize,
    worker: usize,
    items: usize,
    f: impl FnOnce() -> R,
) -> R {
    if !collecting() {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    record(chunk, worker, items, t0, Instant::now());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(chunks: Vec<ChunkTiming>, wall: f64, workers: usize) -> PoolTelemetry {
        PoolTelemetry {
            wall,
            workers,
            chunks,
        }
    }

    fn ct(chunk: usize, worker: usize, start: f64, end: f64) -> ChunkTiming {
        ChunkTiming {
            chunk,
            worker,
            items: 10,
            start,
            end,
        }
    }

    #[test]
    fn busy_idle_and_utilization() {
        // Worker 0 busy 0.8 of 1.0 s, worker 1 busy 0.4.
        let t = fake(vec![ct(0, 0, 0.0, 0.8), ct(1, 1, 0.0, 0.4)], 1.0, 2);
        assert_eq!(t.busy_per_worker(), vec![0.8, 0.4]);
        let idle = t.idle_per_worker();
        assert!((idle[0] - 0.2).abs() < 1e-12 && (idle[1] - 0.6).abs() < 1e-12);
        assert!((t.utilization() - 0.6).abs() < 1e-12);
        // max 0.8 / mean 0.6.
        assert!((t.imbalance() - 0.8 / 0.6).abs() < 1e-12);
        assert!((t.total_busy() - 1.2).abs() < 1e-12);
        assert_eq!(t.total_items(), 20);
    }

    #[test]
    fn percentiles_over_worker_busy() {
        let t = fake(
            vec![
                ct(0, 0, 0.0, 0.1),
                ct(1, 1, 0.0, 0.2),
                ct(2, 2, 0.0, 0.3),
                ct(3, 3, 0.0, 0.4),
            ],
            0.5,
            4,
        );
        assert!((t.worker_busy_percentile(50.0) - 0.3).abs() < 1e-12);
        assert!((t.worker_busy_percentile(99.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_all_zeros() {
        let t = PoolTelemetry::default();
        assert_eq!(t.utilization(), 0.0);
        assert_eq!(t.imbalance(), 0.0);
        assert_eq!(t.worker_busy_percentile(50.0), 0.0);
        assert!(t.busy_per_worker().is_empty());
    }
}
