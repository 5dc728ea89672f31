//! Wall-clock thread-scaling benchmark of the hot kernels.
//!
//! ```text
//! cargo run -p cpx-bench --release --bin bench_kernels -- \
//!     [--smoke] [--baseline BENCH_kernels.json] [--sizes 16,24,32] [out.json]
//! ```
//!
//! Runs each `cpx-par`-threaded kernel across thread counts {1, 2, 4, 8}
//! with a *fixed* chunk count, verifies the outputs are bit-identical to
//! the serial run (the determinism contract), and writes
//! `BENCH_kernels.json` (default): per-kernel median wall times,
//! speedups and parallel efficiencies per thread count, plus a fitted
//! strong-scaling curve ready for `cpx_perfmodel::MeasuredScaling`.
//!
//! Schema v2 additions:
//!
//! * every requested pool is routed through [`ParPool::limited`], so
//!   tiny problems degrade to the serial fast path instead of paying
//!   spawn latency for a guaranteed loss; each sample records the
//!   `effective_threads` the guard granted, and samples whose guard
//!   decision matches an earlier one *reuse* its median (identical
//!   schedule — re-timing it would only manufacture noise speedups);
//! * a `crossover` sweep of SpMV problem sizes showing where the
//!   work-per-worker guard starts granting parallelism
//!   (`--sizes a,b,c` overrides the swept grid dimensions);
//! * a `layout` study comparing serial CSR SpMV against the SELL-C-σ
//!   layout at a bench-sized matrix, measured as the median of
//!   *paired interleaved* per-rep ratios (alternating one CSR rep and
//!   one SELL rep cancels slow frequency drift that back-to-back
//!   timing folds into the comparison);
//! * roofline blocks carry `%-of-peak` against the ARCHER2 sustained
//!   per-core peaks from `cpx-machine`;
//! * `--baseline PATH` gates hardware-independent invariants against a
//!   committed baseline: `bit_identical` must stay true, arithmetic
//!   intensities must not drift by more than [`TOLERANCE`]
//!   (fractional), and the layout speedup must not fall below
//!   `(1 - tolerance) ×` the baseline's. Any violation exits non-zero.
//!
//! Unlike the virtual-time traces, these numbers are real wall clock and
//! therefore hardware-dependent; apart from the gates above the binary
//! reports — it never fails — so it is safe on single-core CI runners
//! (`--smoke` shrinks the problem sizes for that).

use std::time::Instant;

use cpx_bench::{median, write_text};
use cpx_machine::Machine;
use cpx_obs::{Json, KernelIntensity, OpCounts};
use cpx_par::{hardware_threads, with_telemetry, ParPool, PoolTelemetry, MIN_WORK_PER_WORKER};
use cpx_perfmodel::MeasuredScaling;
use cpx_pressure::spray::SprayCloud;
use cpx_simpic::config::SimpicConfig;
use cpx_simpic::pic::Pic1D;
use cpx_sparse::renumber::renumber_hash_merge_with;
use cpx_sparse::spgemm::{spgemm_hash_with, spgemm_spa_with};
use cpx_sparse::{Csr, SellCSigma};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Thread counts swept. Each request is clamped by the work-per-worker
/// guard and the hardware thread count before any timing happens.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// Fixed chunk count for every kernel: the determinism contract keys
/// results to chunks, so sweeping only the thread count demonstrates
/// bit-identity directly.
const CHUNKS: usize = 8;

/// Version of the `BENCH_kernels.json` schema (see EXPERIMENTS.md).
const SCHEMA_VERSION: u32 = 2;

/// SELL-C-σ parameters of the layout study. C=16 won the measured
/// sweep: two cache lines of accumulators, wide enough to amortize the
/// per-slot column base, narrow enough to stay in registers. σ=256
/// sorts broadly enough for ragged AMG coarse operators.
const SELL_C: usize = 16;
const SELL_SIGMA: usize = 256;

/// Fractional drift the `--baseline` gate allows on arithmetic
/// intensities and on the layout speedup.
const TOLERANCE: f64 = 0.5;

/// One timed point of the thread sweep.
struct Sample {
    /// Requested worker count.
    threads: usize,
    /// What the work-per-worker guard actually granted.
    effective: usize,
    median_s: f64,
    /// True when this sample reused an earlier sample's median because
    /// the guard granted the same worker count (identical schedule).
    reused: bool,
}

struct KernelReport {
    name: &'static str,
    samples: Vec<Sample>,
    bit_identical: bool,
    /// What one timed invocation does, as reported by the kernel.
    ops: OpCounts,
    /// Per-worker chunk telemetry from one instrumented run at the
    /// widest granted thread count.
    telemetry: PoolTelemetry,
}

/// Join a sparse kernel's own [`cpx_sparse::SpOpStats`] with the stored
/// entry count it touched.
fn sp_ops(stats: cpx_sparse::SpOpStats, nnz: usize) -> OpCounts {
    OpCounts {
        flops: stats.flops,
        bytes_read: stats.bytes_read,
        bytes_written: stats.bytes_written,
        nnz: nnz as f64,
    }
}

/// Time `run(pool)` at every thread count — every pool routed through
/// the `limited(work)` guard — and check `check(pool)` equals
/// `check(serial)` bitwise.
fn bench<R: PartialEq>(
    name: &'static str,
    reps: usize,
    work: usize,
    ops: OpCounts,
    mut run: impl FnMut(&ParPool),
    mut check: impl FnMut(&ParPool) -> R,
) -> KernelReport {
    let widest_pool = ParPool::with_threads(*THREADS.last().unwrap()).limited(work);
    let serial = check(&ParPool::serial());
    let widest = check(&widest_pool);
    let bit_identical = serial == widest;

    let mut samples: Vec<Sample> = Vec::new();
    for &t in THREADS {
        let pool = ParPool::with_threads(t).limited(work);
        let effective = pool.threads();
        // The guard granted a width we already timed: the schedule is
        // identical, so the measurement is too. Re-timing it would only
        // report runner noise as a fake speedup (or slowdown).
        if let Some(prev) = samples.iter().find(|s| s.effective == effective) {
            let median_s = prev.median_s;
            samples.push(Sample {
                threads: t,
                effective,
                median_s,
                reused: true,
            });
            continue;
        }
        run(&pool); // warm-up
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                run(&pool);
                start.elapsed().as_secs_f64()
            })
            .collect();
        samples.push(Sample {
            threads: t,
            effective,
            median_s: median(times),
            reused: false,
        });
    }
    // One instrumented run at the widest granted thread count for the
    // per-worker utilization stats (observational only: the chunk →
    // worker assignment is unchanged).
    let ((), telemetry) = with_telemetry(|| run(&widest_pool));
    KernelReport {
        name,
        samples,
        bit_identical,
        ops,
        telemetry,
    }
}

/// SpMV size sweep: where does the work-per-worker guard start granting
/// parallelism, and what does the serial baseline cost there?
fn crossover_sweep(sizes: &[usize], reps: usize) -> Json {
    let widest = *THREADS.last().unwrap();
    let points: Vec<Json> = sizes
        .iter()
        .map(|&n| {
            let a = Csr::poisson3d(n, n, n);
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
            let mut y = vec![0.0; a.nrows()];
            // Granularity cap alone (hardware-independent), then the
            // full guard (hardware-capped) the binary actually runs.
            let grain = widest.min((a.nnz() / MIN_WORK_PER_WORKER).max(1));
            let pool = ParPool::with_threads(widest).limited(a.nnz());
            let effective = pool.threads();
            let serial = ParPool::serial();
            a.spmv_with(&serial, CHUNKS, &x, &mut y); // warm-up
            let serial_s = median(
                (0..reps)
                    .map(|_| {
                        let t0 = Instant::now();
                        a.spmv_with(&serial, CHUNKS, &x, &mut y);
                        t0.elapsed().as_secs_f64()
                    })
                    .collect(),
            );
            let limited_s = if effective == 1 {
                serial_s // same schedule: reuse, exactly 1.0 speedup
            } else {
                a.spmv_with(&pool, CHUNKS, &x, &mut y); // warm-up
                median(
                    (0..reps)
                        .map(|_| {
                            let t0 = Instant::now();
                            a.spmv_with(&pool, CHUNKS, &x, &mut y);
                            t0.elapsed().as_secs_f64()
                        })
                        .collect(),
                )
            };
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("rows", Json::Num(a.nrows() as f64)),
                ("nnz", Json::Num(a.nnz() as f64)),
                ("granularity_threads", Json::Num(grain as f64)),
                ("effective_threads", Json::Num(effective as f64)),
                ("serial_median_s", Json::Num(serial_s)),
                ("limited_median_s", Json::Num(limited_s)),
                ("speedup", Json::Num(serial_s / limited_s)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("kernel", Json::Str("spmv".to_string())),
        ("requested_threads", Json::Num(widest as f64)),
        ("min_work_per_worker", Json::Num(MIN_WORK_PER_WORKER as f64)),
        ("points", Json::Arr(points)),
    ])
}

/// Serial CSR vs SELL-C-σ SpMV at a bench-sized matrix, measured as the
/// median of paired interleaved per-rep ratios.
fn layout_study(smoke: bool) -> Json {
    let n = if smoke { 20 } else { 32 };
    let a = Csr::poisson3d(n, n, n);
    let sell = SellCSigma::from_csr(&a, SELL_C, SELL_SIGMA);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
    let serial = ParPool::serial();

    let mut y_csr = vec![0.0; a.nrows()];
    let mut y_sell = vec![0.0; a.nrows()];
    a.spmv_with(&serial, 1, &x, &mut y_csr);
    sell.spmv(&x, &mut y_sell);
    let bit_identical = y_csr == y_sell;

    // Alternating one CSR rep and one SELL rep keeps both sides of each
    // ratio inside the same frequency regime; the median over rep pairs
    // then cancels drift that back-to-back blocks would fold into the
    // comparison as a phantom (de)speedup.
    let (reps, iters) = if smoke { (5, 3) } else { (11, 5) };
    let mut ratios = Vec::with_capacity(reps);
    let mut csr_times = Vec::with_capacity(reps);
    let mut sell_times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            a.spmv_with(&serial, 1, &x, &mut y_csr);
        }
        let t_csr = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        for _ in 0..iters {
            sell.spmv(&x, &mut y_sell);
        }
        let t_sell = t1.elapsed().as_secs_f64();
        ratios.push(t_csr / t_sell.max(1e-12));
        csr_times.push(t_csr / iters as f64);
        sell_times.push(t_sell / iters as f64);
    }
    let honest = sell.spmv_stats();
    Json::obj(vec![
        ("kernel", Json::Str("spmv".to_string())),
        ("layout", Json::Str(format!("sell_c{SELL_C}_s{SELL_SIGMA}"))),
        ("c", Json::Num(SELL_C as f64)),
        ("sigma", Json::Num(SELL_SIGMA as f64)),
        ("n", Json::Num(n as f64)),
        ("rows", Json::Num(a.nrows() as f64)),
        ("nnz", Json::Num(a.nnz() as f64)),
        ("narrow_fraction", Json::Num(sell.narrow_fraction())),
        ("occupancy", Json::Num(sell.occupancy())),
        ("bit_identical", Json::Bool(bit_identical)),
        ("csr_median_s", Json::Num(median(csr_times))),
        ("sell_median_s", Json::Num(median(sell_times))),
        ("speedup", Json::Num(median(ratios))),
        (
            "sell_bytes_per_nnz",
            Json::Num(honest.bytes_read / a.nnz() as f64),
        ),
    ])
}

/// Gate hardware-independent invariants of `doc` against a committed
/// baseline document. Returns human-readable violations.
fn gate_against_baseline(doc: &Json, baseline: &Json, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let base_kernels = baseline.get("kernels").and_then(Json::as_arr);
    let new_kernels = doc.get("kernels").and_then(Json::as_arr);
    if let (Some(base), Some(new)) = (base_kernels, new_kernels) {
        for bk in base {
            let Some(name) = bk.get("name").and_then(Json::as_str) else {
                continue;
            };
            let Some(nk) = new
                .iter()
                .find(|k| k.get("name").and_then(Json::as_str) == Some(name))
            else {
                violations.push(format!("kernel '{name}' missing from this run"));
                continue;
            };
            // Determinism is a contract, not a tolerance.
            if bk.get("bit_identical").and_then(Json::as_bool) == Some(true)
                && nk.get("bit_identical").and_then(Json::as_bool) != Some(true)
            {
                violations.push(format!("kernel '{name}' lost bit-identity"));
            }
            // Intensity is derived from self-reported op counts, so it
            // only moves when the kernel's cost accounting (or its
            // algorithm) changes; problem-size differences between a
            // smoke run and a full baseline stay within the tolerance.
            let b_int = bk
                .get("roofline")
                .and_then(|r| r.get("intensity_flops_per_byte"))
                .and_then(Json::as_f64);
            let n_int = nk
                .get("roofline")
                .and_then(|r| r.get("intensity_flops_per_byte"))
                .and_then(Json::as_f64);
            if let (Some(b), Some(n)) = (b_int, n_int) {
                if b > 0.0 && ((n - b) / b).abs() > tolerance {
                    violations.push(format!(
                        "kernel '{name}' intensity drifted: {b:.4} -> {n:.4} \
                         (> {:.0}% tolerance)",
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    // The layout win is one-sided: faster is fine, a collapse is not.
    if let (Some(bl), Some(nl)) = (baseline.get("layout"), doc.get("layout")) {
        if bl.get("bit_identical").and_then(Json::as_bool) == Some(true)
            && nl.get("bit_identical").and_then(Json::as_bool) != Some(true)
        {
            violations.push("layout study lost bit-identity".to_string());
        }
        let b_s = bl.get("speedup").and_then(Json::as_f64);
        let n_s = nl.get("speedup").and_then(Json::as_f64);
        if let (Some(b), Some(n)) = (b_s, n_s) {
            let floor = b * (1.0 - tolerance);
            if n < floor {
                violations.push(format!(
                    "layout speedup collapsed: baseline {b:.3}x, now {n:.3}x \
                     (floor {floor:.3}x)"
                ));
            }
        }
    }
    violations
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut sizes_override: Option<Vec<usize>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => {
                baseline_path = Some(args.next().expect("--baseline needs a path"));
            }
            "--sizes" | "--size" => {
                let list = args.next().expect("--sizes needs a comma list");
                sizes_override = Some(
                    list.split(',')
                        .map(|s| s.trim().parse().expect("--sizes wants integers"))
                        .collect(),
                );
            }
            _ => out_path = arg,
        }
    }
    let reps = if smoke { 1 } else { 5 };

    let mut reports: Vec<KernelReport> = Vec::new();

    // --- SpMV -----------------------------------------------------------
    {
        let a = if smoke {
            Csr::poisson3d(24, 24, 24)
        } else {
            Csr::poisson3d(48, 48, 48)
        };
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; a.nrows()];
        let stats = a.spmv_with(&ParPool::serial(), CHUNKS, &x, &mut y);
        let ops = sp_ops(stats, a.nnz());
        let work = a.nnz();
        reports.push(bench(
            "spmv",
            reps,
            work,
            ops,
            |pool| {
                a.spmv_with(pool, CHUNKS, &x, &mut y);
            },
            |pool| {
                let mut y = vec![0.0; a.nrows()];
                a.spmv_with(pool, CHUNKS, &x, &mut y);
                y
            },
        ));
    }

    // --- SpMV with identity top block -----------------------------------
    {
        let a = if smoke {
            Csr::poisson2d(96, 96)
        } else {
            Csr::poisson2d(256, 256)
        };
        let k = a.nrows() / 2;
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).cos()).collect();
        let mut y = vec![0.0; a.nrows()];
        let stats = a.spmv_identity_top_with(&ParPool::serial(), CHUNKS, k, &x, &mut y);
        let ops = sp_ops(stats, a.nnz());
        let work = a.nnz();
        reports.push(bench(
            "spmv_identity_top",
            reps,
            work,
            ops,
            |pool| {
                a.spmv_identity_top_with(pool, CHUNKS, k, &x, &mut y);
            },
            |pool| {
                let mut y = vec![0.0; a.nrows()];
                a.spmv_identity_top_with(pool, CHUNKS, k, &x, &mut y);
                y
            },
        ));
    }

    // --- SpGEMM (SPA and hash) ------------------------------------------
    {
        let a = if smoke {
            Csr::poisson2d(96, 96)
        } else {
            Csr::poisson2d(192, 192)
        };
        let spa = spgemm_spa_with(&ParPool::serial(), &a, &a, CHUNKS);
        let spa_ops = sp_ops(spa.stats, spa.product.nnz());
        let hash = spgemm_hash_with(&ParPool::serial(), &a, &a, CHUNKS);
        let hash_ops = sp_ops(hash.stats, hash.product.nnz());
        // Work units: the product's stored entries, roughly the
        // flop-bearing volume of the expansion.
        let work = spa.product.nnz();
        reports.push(bench(
            "spgemm_spa",
            reps,
            work,
            spa_ops,
            |pool| {
                spgemm_spa_with(pool, &a, &a, CHUNKS);
            },
            |pool| spgemm_spa_with(pool, &a, &a, CHUNKS).product,
        ));
        reports.push(bench(
            "spgemm_hash",
            reps,
            work,
            hash_ops,
            |pool| {
                spgemm_hash_with(pool, &a, &a, CHUNKS);
            },
            |pool| spgemm_hash_with(pool, &a, &a, CHUNKS).product,
        ));
    }

    // --- Distributed column renumbering ---------------------------------
    {
        let n = if smoke { 1_000_000 } else { 4_000_000 };
        let mut rng = StdRng::seed_from_u64(17);
        let refs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..60_000)).collect();
        // Logical merge width fixed at 16: the table (and stats) are
        // keyed to it, the pool only maps it onto threads.
        // Integer hash/merge kernel: no flops; traffic is the reference
        // stream in and the merged table out, `nnz` the refs touched.
        let table_len = renumber_hash_merge_with(&ParPool::serial(), &refs, 16)
            .table
            .len();
        let ops = OpCounts {
            flops: 0.0,
            bytes_read: 8.0 * refs.len() as f64,
            bytes_written: 8.0 * table_len as f64,
            nnz: refs.len() as f64,
        };
        let work = refs.len();
        reports.push(bench(
            "renumber_hash_merge",
            reps,
            work,
            ops,
            |pool| {
                renumber_hash_merge_with(pool, &refs, 16);
            },
            |pool| renumber_hash_merge_with(pool, &refs, 16).table,
        ));
    }

    // --- Hybrid Gauss–Seidel sweep --------------------------------------
    {
        let a = if smoke {
            Csr::poisson2d(128, 128)
        } else {
            Csr::poisson2d(384, 384)
        };
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let smoother = cpx_amg::Smoother::HybridGaussSeidel { blocks: 16 };
        let mut x = vec![0.0; n];
        let stats = smoother.sweep_with(&ParPool::serial(), &a, &b, &mut x);
        let ops = sp_ops(stats, a.nnz());
        let work = a.nnz();
        reports.push(bench(
            "hybrid_gs_sweep",
            reps,
            work,
            ops,
            |pool| {
                smoother.sweep_with(pool, &a, &b, &mut x);
            },
            |pool| {
                let mut x = vec![0.0; n];
                smoother.sweep_with(pool, &a, &b, &mut x);
                x
            },
        ));
    }

    // --- SIMPIC particle push -------------------------------------------
    {
        // particles = cells × ppc (100 for the 28M base case).
        let cfg = if smoke {
            SimpicConfig::base_28m().functional(512, 10)
        } else {
            SimpicConfig::base_28m().functional(2048, 10)
        };
        let mut pic = Pic1D::quiet_start(&cfg, 0.02, 7);
        pic.solve_field();
        let frozen = pic.clone();
        let ops = pic.push_counts();
        let work = pic.particles.len();
        reports.push(bench(
            "particle_push",
            reps,
            work,
            ops,
            |pool| {
                pic.push_with(pool, CHUNKS);
            },
            |pool| {
                let mut p = frozen.clone();
                p.push_with(pool, CHUNKS);
                p.particles
            },
        ));
    }

    // --- Pressure spray update ------------------------------------------
    {
        let n = if smoke { 50_000 } else { 400_000 };
        let mut cloud = SprayCloud::inject(n, 11);
        let frozen = cloud.clone();
        let fluid = |x: [f64; 3]| [1.0 - x[1], 0.1 * x[0], 0.0];
        let ops = cloud.update_counts();
        reports.push(bench(
            "spray_update",
            reps,
            n,
            ops,
            |pool| {
                cloud.update_with(pool, CHUNKS, 0.01, fluid);
            },
            |pool| {
                let mut c = frozen.clone();
                c.update_with(pool, CHUNKS, 0.01, fluid);
                (c.pos, c.vel)
            },
        ));
    }

    // --- Crossover sweep & layout study ----------------------------------
    let default_sizes: &[usize] = if smoke {
        &[12, 16, 24]
    } else {
        &[16, 24, 32, 40, 48]
    };
    let sizes = sizes_override.unwrap_or_else(|| default_sizes.to_vec());
    let crossover = crossover_sweep(&sizes, reps.max(3));
    let layout = layout_study(smoke);

    // --- Report ----------------------------------------------------------
    let machine = Machine::archer2();
    let kernels: Vec<Json> = reports
        .iter()
        .map(|r| {
            let base = r.samples[0].median_s;
            let scaling = MeasuredScaling::new(
                r.name,
                r.samples.iter().map(|s| (s.threads, s.median_s)).collect(),
            );
            let curve = scaling.fit_curve();
            let samples: Vec<Json> = r
                .samples
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("threads", Json::Num(s.threads as f64)),
                        ("effective_threads", Json::Num(s.effective as f64)),
                        ("reused", Json::Bool(s.reused)),
                        ("median_s", Json::Num(s.median_s)),
                        ("speedup", Json::Num(base / s.median_s)),
                        (
                            "efficiency",
                            Json::Num(base / s.median_s / s.threads as f64),
                        ),
                    ])
                })
                .collect();
            let speedup_4t = r
                .samples
                .iter()
                .find(|s| s.threads == 4)
                .map_or(0.0, |s| base / s.median_s);
            // Roofline summary: the kernel's self-reported op counts
            // joined with the 1-thread median, placed against the
            // ARCHER2 sustained per-core peaks.
            let roofline = KernelIntensity::new(r.name, r.ops, base).to_json_on(
                &machine.name,
                machine.flops_per_core,
                machine.mem_bw_per_core,
            );
            let tel = &r.telemetry;
            let utilization = Json::obj(vec![
                ("workers", Json::Num(tel.workers as f64)),
                ("chunks", Json::Num(tel.chunks.len() as f64)),
                ("utilization", Json::Num(tel.utilization())),
                ("imbalance", Json::Num(tel.imbalance())),
                (
                    "worker_busy_p50_s",
                    Json::Num(tel.worker_busy_percentile(50.0)),
                ),
                (
                    "worker_busy_p95_s",
                    Json::Num(tel.worker_busy_percentile(95.0)),
                ),
                (
                    "worker_busy_p99_s",
                    Json::Num(tel.worker_busy_percentile(99.0)),
                ),
            ]);
            Json::obj(vec![
                ("name", Json::Str(r.name.to_string())),
                ("bit_identical", Json::Bool(r.bit_identical)),
                ("speedup_4t", Json::Num(speedup_4t)),
                ("samples", Json::Arr(samples)),
                (
                    "fitted_curve",
                    Json::obj(vec![
                        ("a", Json::Num(curve.a)),
                        ("b", Json::Num(curve.b)),
                        ("c", Json::Num(curve.c)),
                        ("d", Json::Num(curve.d)),
                    ]),
                ),
                ("roofline", roofline),
                ("utilization", utilization),
            ])
        })
        .collect();

    let doc = Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("smoke", Json::Bool(smoke)),
        ("reps", Json::Num(reps as f64)),
        ("chunks", Json::Num(CHUNKS as f64)),
        (
            "threads",
            Json::Arr(THREADS.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("hardware_threads", Json::Num(hardware_threads() as f64)),
        ("min_work_per_worker", Json::Num(MIN_WORK_PER_WORKER as f64)),
        (
            "machine",
            Json::obj(vec![
                ("name", Json::Str(machine.name.clone())),
                (
                    "peak_gflops_per_core",
                    Json::Num(machine.flops_per_core / 1e9),
                ),
                (
                    "peak_gbps_per_core",
                    Json::Num(machine.mem_bw_per_core / 1e9),
                ),
            ]),
        ),
        ("kernels", Json::Arr(kernels)),
        ("crossover", crossover),
        ("layout", layout),
    ]);
    write_text(&out_path, &doc.write_pretty());

    let mut all_identical = true;
    println!("kernel                thr  eff  median_s    speedup  eff");
    for r in &reports {
        let base = r.samples[0].median_s;
        for s in &r.samples {
            println!(
                "{:<21} {:>3}  {:>3}  {:>9.6}  {:>7.2}  {:>4.2}{}",
                r.name,
                s.threads,
                s.effective,
                s.median_s,
                base / s.median_s,
                base / s.median_s / s.threads as f64,
                if s.reused { "  (reused)" } else { "" }
            );
        }
        let tel = &r.telemetry;
        println!(
            "{:<21} util {:>5.1}%  imbalance {:>4.2}  worker busy p50/p95/p99 \
             {:.6}/{:.6}/{:.6} s  ({} workers, {} chunks)",
            "",
            tel.utilization() * 100.0,
            tel.imbalance(),
            tel.worker_busy_percentile(50.0),
            tel.worker_busy_percentile(95.0),
            tel.worker_busy_percentile(99.0),
            tel.workers,
            tel.chunks.len()
        );
        if !r.bit_identical {
            all_identical = false;
            println!(
                "{:<21} *** NOT bit-identical across thread counts ***",
                r.name
            );
        }
    }
    if let Some(speedup) = doc
        .get("layout")
        .and_then(|l| l.get("speedup"))
        .and_then(Json::as_f64)
    {
        let nf = doc
            .get("layout")
            .and_then(|l| l.get("narrow_fraction"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        println!(
            "layout: SELL-{SELL_C}-{SELL_SIGMA} vs serial CSR spmv: {speedup:.3}x \
             (paired-ratio median, narrow fraction {:.0}%)",
            nf * 100.0
        );
    }
    println!(
        "bit-identical across thread counts: {}",
        if all_identical { "yes" } else { "NO" }
    );
    println!("(written to {out_path})");

    // --- Baseline gate ----------------------------------------------------
    if let Some(path) = baseline_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline = Json::parse(&text).expect("parse baseline json");
        let violations = gate_against_baseline(&doc, &baseline, TOLERANCE);
        if violations.is_empty() {
            println!("baseline gate vs {path}: clean (tolerance {TOLERANCE})");
        } else {
            for v in &violations {
                eprintln!("baseline drift: {v}");
            }
            std::process::exit(1);
        }
    }

    // Speedups are hardware truth — on a single-core runner every guard
    // routes serial and they are exactly 1.0, which is a valid
    // measurement, not a failure. Determinism, however, is a contract.
    assert!(all_identical, "parallel kernels diverged from serial");
}
