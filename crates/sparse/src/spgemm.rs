//! Sparse general matrix–matrix multiplication.
//!
//! SpGEMM dominates the AMG setup phase (Galerkin triple products) that
//! the paper's profiling identifies as a pressure-field bottleneck
//! (§IV-B). Three functionally identical variants are provided whose
//! *cost profiles* differ exactly as the paper describes:
//!
//! * [`spgemm_twopass`] — the traditional algorithm: a symbolic pass
//!   sizes the output, then a numeric pass fills it. The inputs are read
//!   **twice**.
//! * [`spgemm_spa`] — Gustavson's algorithm with a dense **sparse
//!   accumulator (SPA)**: constant-time access to output entries, one
//!   pass over the inputs, and per-chunk output buffers that are copied
//!   into contiguous storage at the end — the "allocate each thread a
//!   large chunk of memory and copy the disjoint results" optimization.
//! * [`spgemm_hash`] — per-row hash-map accumulation (the variant whose
//!   column-renumbering behaviour §IV-B's distributed optimization
//!   targets; see [`crate::renumber`]).
//!
//! All variants produce bit-identical CSR results (sorted columns,
//! duplicates summed) and report [`SpOpStats`] so callers can compare the
//! modelled cost of each.

use std::collections::HashMap;

use cpx_par::{chunk_ranges, ParPool};

use crate::csr::Csr;
use crate::SpOpStats;

/// Default chunk count for SpGEMM call sites: one chunk per worker of
/// the global pool. The SPA result (and its modelled stats) are
/// independent of the chunk count, so call sites may use this freely
/// without perturbing virtual-time traces.
pub fn spgemm_chunks() -> usize {
    ParPool::current().chunks()
}

/// Result of an SpGEMM: the product and the kernel's op statistics.
#[derive(Debug, Clone)]
pub struct SpGemmResult {
    /// `C = A · B`.
    pub product: Csr,
    /// Operation counts of the chosen algorithm.
    pub stats: SpOpStats,
}

fn check_dims(a: &Csr, b: &Csr) {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "spgemm: inner dimensions {} vs {}",
        a.ncols(),
        b.nrows()
    );
}

/// Multiply-add work (`flops`) of the product, i.e. the number of scalar
/// products formed: `sum over a_ik of nnz(B row k)`.
fn multiply_work(a: &Csr, b: &Csr) -> f64 {
    let mut work = 0usize;
    for r in 0..a.nrows() {
        let (cols, _) = a.row(r);
        for &k in cols {
            work += b.row(k).0.len();
        }
    }
    work as f64
}

/// Classic two-pass SpGEMM: symbolic sizing pass + numeric pass.
pub fn spgemm_twopass(a: &Csr, b: &Csr) -> SpGemmResult {
    check_dims(a, b);
    let n = a.nrows();
    let m = b.ncols();

    // --- symbolic pass: count nnz per output row --------------------
    let mut marker = vec![usize::MAX; m];
    let mut row_nnz = vec![0usize; n];
    for r in 0..n {
        let (acols, _) = a.row(r);
        let mut count = 0usize;
        for &k in acols {
            let (bcols, _) = b.row(k);
            for &c in bcols {
                if marker[c] != r {
                    marker[c] = r;
                    count += 1;
                }
            }
        }
        row_nnz[r] = count;
    }
    let mut rowptr = vec![0usize; n + 1];
    for r in 0..n {
        rowptr[r + 1] = rowptr[r] + row_nnz[r];
    }
    let nnz = rowptr[n];

    // --- numeric pass ------------------------------------------------
    let mut colidx = vec![0usize; nnz];
    let mut vals = vec![0.0f64; nnz];
    let mut acc = vec![0.0f64; m];
    let mut marker2 = vec![usize::MAX; m];
    let mut touched: Vec<usize> = Vec::new();
    for r in 0..n {
        touched.clear();
        let (acols, avals) = a.row(r);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k);
            for (&c, &bv) in bcols.iter().zip(bvals) {
                if marker2[c] != r {
                    marker2[c] = r;
                    acc[c] = av * bv;
                    touched.push(c);
                } else {
                    acc[c] += av * bv;
                }
            }
        }
        touched.sort_unstable();
        let base = rowptr[r];
        for (i, &c) in touched.iter().enumerate() {
            colidx[base + i] = c;
            vals[base + i] = acc[c];
        }
    }

    let work = multiply_work(a, b);
    let read_once = (a.nnz() + b.nnz()) as f64 * 16.0 + (a.nrows() + b.nrows()) as f64 * 8.0;
    let stats = SpOpStats {
        flops: 2.0 * work,
        // Inputs are traversed twice — the cost the SPA variant removes.
        bytes_read: 2.0 * read_once,
        bytes_written: nnz as f64 * 16.0,
        input_passes: 2,
    };
    SpGemmResult {
        product: Csr::from_raw(n, m, rowptr, colidx, vals),
        stats,
    }
}

/// Gustavson SpGEMM with a dense sparse accumulator (SPA) and per-chunk
/// output buffers: a single pass over the inputs.
///
/// `chunks` models the number of parallel workers each given a private
/// output buffer; the disjoint per-chunk results are copied to contiguous
/// storage at the end (that copy is charged in the stats). Functionally
/// the result is independent of `chunks`.
pub fn spgemm_spa(a: &Csr, b: &Csr, chunks: usize) -> SpGemmResult {
    assert!(chunks >= 1, "need at least one chunk");
    let pool = ParPool::current().limited(a.nnz() + b.nnz());
    spgemm_spa_with(&pool, a, b, chunks)
}

/// [`spgemm_spa`] on an explicit pool: chunks run on the pool's workers
/// (one [`SpaWorkspace`] slot each), or serially through one slot when
/// the pool is serial. Bit-identical for any pool and chunk count.
pub fn spgemm_spa_with(pool: &ParPool, a: &Csr, b: &Csr, chunks: usize) -> SpGemmResult {
    spgemm_spa_ws(pool, a, b, chunks, &mut SpaWorkspace::new())
}

/// Reusable SPA scratch arena: one slot per chunk, each a dense
/// accumulator, a marker and a touched list plus that chunk's output
/// buffers, all retained across calls so steady-state SpGEMMs allocate
/// nothing once the high-water capacities are reached.
///
/// Markers are epoch-stamped: instead of re-filling `marker` with
/// `usize::MAX` per call (an O(m) write that would defeat reuse), each
/// row bumps the slot's epoch and matches on the stamp, so stale marks
/// from any previous call or row can never collide.
#[derive(Debug, Default)]
pub struct SpaWorkspace {
    slots: Vec<SpaSlot>,
}

#[derive(Debug, Default)]
struct SpaSlot {
    acc: Vec<f64>,
    /// Epoch stamp per output column; 0 means "never touched".
    marker: Vec<u64>,
    epoch: u64,
    touched: Vec<usize>,
    // Private per-chunk output pieces (parallel path).
    rp: Vec<usize>,
    ci: Vec<usize>,
    va: Vec<f64>,
}

impl SpaWorkspace {
    pub fn new() -> SpaWorkspace {
        SpaWorkspace::default()
    }

    /// Make sure `chunks` slots exist, each sized for `m` output
    /// columns. Only grows — no steady-state work once warmed.
    fn ensure(&mut self, chunks: usize, m: usize) {
        if self.slots.len() < chunks {
            self.slots.resize_with(chunks, SpaSlot::default);
        }
        for slot in &mut self.slots[..chunks] {
            if slot.acc.len() < m {
                slot.acc.resize(m, 0.0);
                slot.marker.resize(m, 0);
            }
        }
    }
}

impl SpaSlot {
    /// Gustavson rows `rows` of `a·b`, appending to `ci`/`va` and row
    /// ends to `rp` (no leading 0 — callers track the base).
    fn spa_rows_into(
        &mut self,
        a: &Csr,
        b: &Csr,
        rows: std::ops::Range<usize>,
        rp: &mut Vec<usize>,
        ci: &mut Vec<usize>,
        va: &mut Vec<f64>,
    ) {
        for r in rows {
            self.epoch += 1;
            let stamp = self.epoch;
            self.touched.clear();
            let (acols, avals) = a.row(r);
            for (&k, &av) in acols.iter().zip(avals) {
                let (bcols, bvals) = b.row(k);
                for (&c, &bv) in bcols.iter().zip(bvals) {
                    if self.marker[c] != stamp {
                        self.marker[c] = stamp;
                        self.acc[c] = av * bv;
                        self.touched.push(c);
                    } else {
                        self.acc[c] += av * bv;
                    }
                }
            }
            self.touched.sort_unstable();
            for &c in &self.touched {
                ci.push(c);
                va.push(self.acc[c]);
            }
            rp.push(ci.len());
        }
    }
}

/// [`spgemm_spa`] writing into caller-owned output buffers through a
/// reusable [`SpaWorkspace`]: the zero-allocation steady-state form.
/// Output vectors are cleared and refilled (capacity is retained);
/// result bits and modelled stats are identical to [`spgemm_spa`].
pub fn spgemm_spa_reuse(
    pool: &ParPool,
    a: &Csr,
    b: &Csr,
    chunks: usize,
    ws: &mut SpaWorkspace,
    rowptr: &mut Vec<usize>,
    colidx: &mut Vec<usize>,
    vals: &mut Vec<f64>,
) -> SpOpStats {
    check_dims(a, b);
    let chunks = chunks.max(1);
    let n = a.nrows();
    let m = b.ncols();
    rowptr.clear();
    colidx.clear();
    vals.clear();
    rowptr.push(0usize);

    if pool.threads() <= 1 {
        // Serial fast path: rows in chunk order are rows in row order,
        // so append straight into the output through one slot — chunk
        // boundaries computed on the fly (same ceil-division layout as
        // `chunk_ranges`) to keep the steady state allocation-free.
        ws.ensure(1, m);
        let slot = &mut ws.slots[0];
        let per = n.div_ceil(chunks);
        for c in 0..chunks {
            let r = (c * per).min(n)..((c + 1) * per).min(n);
            slot.spa_rows_into(a, b, r, rowptr, colidx, vals);
        }
    } else {
        let ranges = chunk_ranges(n, chunks);
        // One private slot (scratch + output piece) per chunk; the
        // slot slice itself is dealt out by the pool, so each worker
        // mutates only its own arena.
        ws.ensure(chunks, m);
        let slots = &mut ws.slots[..chunks];
        pool.chunks_mut(slots, chunks, |c, _, part| {
            let slot = &mut part[0];
            slot.rp.clear();
            slot.ci.clear();
            slot.va.clear();
            // Split-borrow the scratch fields from the output buffers.
            let (mut rp, mut ci, mut va) = (
                std::mem::take(&mut slot.rp),
                std::mem::take(&mut slot.ci),
                std::mem::take(&mut slot.va),
            );
            slot.spa_rows_into(a, b, ranges[c].clone(), &mut rp, &mut ci, &mut va);
            slot.rp = rp;
            slot.ci = ci;
            slot.va = va;
        });
        for slot in ws.slots[..chunks].iter() {
            let base = colidx.len();
            rowptr.extend(slot.rp.iter().map(|&e| base + e));
            colidx.extend_from_slice(&slot.ci);
            vals.extend_from_slice(&slot.va);
        }
    }
    while rowptr.len() < n + 1 {
        rowptr.push(colidx.len());
    }

    let work = multiply_work(a, b);
    let read_once = (a.nnz() + b.nnz()) as f64 * 16.0 + (a.nrows() + b.nrows()) as f64 * 8.0;
    SpOpStats {
        flops: 2.0 * work,
        bytes_read: read_once,
        bytes_written: 2.0 * colidx.len() as f64 * 16.0,
        input_passes: 1,
    }
}

/// [`spgemm_spa_reuse`] returning a fresh [`Csr`] (output allocated,
/// scratch reused from the workspace).
pub fn spgemm_spa_ws(
    pool: &ParPool,
    a: &Csr,
    b: &Csr,
    chunks: usize,
    ws: &mut SpaWorkspace,
) -> SpGemmResult {
    let mut rowptr = Vec::new();
    let mut colidx = Vec::new();
    let mut vals = Vec::new();
    let stats = spgemm_spa_reuse(pool, a, b, chunks, ws, &mut rowptr, &mut colidx, &mut vals);
    SpGemmResult {
        product: Csr::from_raw(a.nrows(), b.ncols(), rowptr, colidx, vals),
        stats,
    }
}

/// Hash-map accumulation SpGEMM (one pass; per-row `HashMap`).
pub fn spgemm_hash(a: &Csr, b: &Csr) -> SpGemmResult {
    let pool = ParPool::current().limited(a.nnz() + b.nnz());
    spgemm_hash_with(&pool, a, b, pool.chunks())
}

/// One chunk of hash-accumulated rows (per-chunk `HashMap`, cleared
/// between rows). Each row's entries are sorted by column, so the
/// concatenated output is identical for any chunking.
fn hash_rows(a: &Csr, b: &Csr, rows: std::ops::Range<usize>) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut rp = Vec::with_capacity(rows.len() + 1);
    rp.push(0usize);
    let mut ci: Vec<usize> = Vec::new();
    let mut va: Vec<f64> = Vec::new();
    let mut map: HashMap<usize, f64> = HashMap::new();
    for r in rows {
        map.clear();
        let (acols, avals) = a.row(r);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k);
            for (&c, &bv) in bcols.iter().zip(bvals) {
                *map.entry(c).or_insert(0.0) += av * bv;
            }
        }
        let mut row: Vec<(usize, f64)> = map.iter().map(|(&c, &v)| (c, v)).collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        for (c, v) in row {
            ci.push(c);
            va.push(v);
        }
        rp.push(ci.len());
    }
    (rp, ci, va)
}

/// [`spgemm_hash`] on an explicit pool, row-chunked like the SPA
/// variant.
pub fn spgemm_hash_with(pool: &ParPool, a: &Csr, b: &Csr, chunks: usize) -> SpGemmResult {
    check_dims(a, b);
    let n = a.nrows();
    let m = b.ncols();
    let ranges = chunk_ranges(n, chunks);
    let chunk_parts: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = if pool.threads() <= 1 {
        ranges.iter().map(|r| hash_rows(a, b, r.clone())).collect()
    } else {
        pool.map(ranges.len(), |c| hash_rows(a, b, ranges[c].clone()))
    };
    let nnz: usize = chunk_parts.iter().map(|(_, ci, _)| ci.len()).sum();
    let mut rowptr = Vec::with_capacity(n + 1);
    rowptr.push(0usize);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (rp, ci, va) in &chunk_parts {
        let base = colidx.len();
        for w in rp.windows(2) {
            rowptr.push(base + w[1]);
        }
        colidx.extend_from_slice(ci);
        vals.extend_from_slice(va);
    }
    while rowptr.len() < n + 1 {
        rowptr.push(colidx.len());
    }
    let work = multiply_work(a, b);
    let read_once = (a.nnz() + b.nnz()) as f64 * 16.0 + (a.nrows() + b.nrows()) as f64 * 8.0;
    let stats = SpOpStats {
        flops: 2.0 * work,
        // Hashing costs extra traffic per multiply (probe + bucket).
        bytes_read: read_once + work * 16.0,
        bytes_written: nnz as f64 * 16.0,
        input_passes: 1,
    };
    SpGemmResult {
        product: Csr::from_raw(n, m, rowptr, colidx, vals),
        stats,
    }
}

/// The Galerkin triple product `R · A · P` (AMG coarse operator), using
/// the SPA variant internally. Returns the product and combined stats.
pub fn triple_product(r: &Csr, a: &Csr, p: &Csr, chunks: usize) -> SpGemmResult {
    triple_product_ws(r, a, p, chunks, &mut GalerkinWorkspace::new())
}

/// Scratch for Galerkin triple products: the SPA arena plus the raw
/// arrays of the intermediate `A·P` product, so a hierarchy build
/// reuses its setup-phase allocations across its levels.
#[derive(Debug, Default)]
pub struct GalerkinWorkspace {
    /// SPA slots shared by both multiplies.
    pub spa: SpaWorkspace,
    ap_rowptr: Vec<usize>,
    ap_colidx: Vec<usize>,
    ap_vals: Vec<f64>,
}

impl GalerkinWorkspace {
    pub fn new() -> GalerkinWorkspace {
        GalerkinWorkspace::default()
    }
}

/// [`triple_product`] through a reusable [`GalerkinWorkspace`]:
/// bit-identical product and stats, but the SPA scratch and the
/// intermediate `A·P` storage come from (and return to) the workspace.
pub fn triple_product_ws(
    r: &Csr,
    a: &Csr,
    p: &Csr,
    chunks: usize,
    ws: &mut GalerkinWorkspace,
) -> SpGemmResult {
    let pool_ap = ParPool::current().limited(a.nnz() + p.nnz());
    let mut rp = std::mem::take(&mut ws.ap_rowptr);
    let mut ci = std::mem::take(&mut ws.ap_colidx);
    let mut va = std::mem::take(&mut ws.ap_vals);
    let ap_stats = spgemm_spa_reuse(
        &pool_ap,
        a,
        p,
        chunks,
        &mut ws.spa,
        &mut rp,
        &mut ci,
        &mut va,
    );
    let ap = Csr::from_raw(a.nrows(), p.ncols(), rp, ci, va);
    let pool_rap = ParPool::current().limited(r.nnz() + ap.nnz());
    let rap = spgemm_spa_ws(&pool_rap, r, &ap, chunks, &mut ws.spa);
    (ws.ap_rowptr, ws.ap_colidx, ws.ap_vals) = ap.into_raw();
    let stats = SpOpStats {
        flops: ap_stats.flops + rap.stats.flops,
        bytes_read: ap_stats.bytes_read + rap.stats.bytes_read,
        bytes_written: ap_stats.bytes_written + rap.stats.bytes_written,
        input_passes: 1,
    };
    SpGemmResult {
        product: rap.product,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn dense_mul(a: &Csr, b: &Csr) -> Vec<Vec<f64>> {
        let da = a.to_dense();
        let db = b.to_dense();
        let mut c = vec![vec![0.0; b.ncols()]; a.nrows()];
        for i in 0..a.nrows() {
            for k in 0..a.ncols() {
                if da[i][k] != 0.0 {
                    for j in 0..b.ncols() {
                        c[i][j] += da[i][k] * db[k][j];
                    }
                }
            }
        }
        c
    }

    fn assert_matches_dense(c: &Csr, want: &[Vec<f64>]) {
        for i in 0..c.nrows() {
            for j in 0..c.ncols() {
                assert!(
                    (c.get(i, j) - want[i][j]).abs() < 1e-12,
                    "mismatch at ({i},{j}): {} vs {}",
                    c.get(i, j),
                    want[i][j]
                );
            }
        }
    }

    fn random_csr(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(nrows, ncols);
        for r in 0..nrows {
            for _ in 0..per_row {
                coo.push(r, rng.gen_range(0..ncols), rng.gen_range(-1.0..1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn all_variants_match_dense_reference() {
        let a = random_csr(20, 15, 4, 1);
        let b = random_csr(15, 25, 3, 2);
        let want = dense_mul(&a, &b);
        assert_matches_dense(&spgemm_twopass(&a, &b).product, &want);
        assert_matches_dense(&spgemm_spa(&a, &b, 1).product, &want);
        assert_matches_dense(&spgemm_spa(&a, &b, 4).product, &want);
        assert_matches_dense(&spgemm_hash(&a, &b).product, &want);
    }

    #[test]
    fn variants_bit_identical() {
        let a = random_csr(30, 30, 5, 3);
        let b = random_csr(30, 30, 5, 4);
        let c1 = spgemm_twopass(&a, &b).product;
        let c2 = spgemm_spa(&a, &b, 3).product;
        let c3 = spgemm_hash(&a, &b).product;
        assert_eq!(c1, c2);
        assert_eq!(c1, c3);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_csr(10, 10, 3, 5);
        let i = Csr::identity(10);
        assert_eq!(spgemm_spa(&a, &i, 2).product, a);
        assert_eq!(spgemm_spa(&i, &a, 2).product, a);
    }

    #[test]
    fn spa_reads_half_of_twopass() {
        let a = Csr::poisson2d(16, 16);
        let two = spgemm_twopass(&a, &a);
        let spa = spgemm_spa(&a, &a, 4);
        assert_eq!(two.stats.input_passes, 2);
        assert_eq!(spa.stats.input_passes, 1);
        assert!(
            (two.stats.bytes_read - 2.0 * spa.stats.bytes_read).abs() < 1e-6,
            "two-pass must read inputs twice"
        );
        assert_eq!(two.stats.flops, spa.stats.flops);
    }

    #[test]
    fn hash_costs_more_traffic_than_spa() {
        let a = Csr::poisson2d(12, 12);
        let spa = spgemm_spa(&a, &a, 1);
        let hash = spgemm_hash(&a, &a);
        assert!(hash.stats.bytes_read > spa.stats.bytes_read);
    }

    #[test]
    fn triple_product_galerkin_symmetry() {
        // R = P^T on a symmetric A keeps the product symmetric.
        let a = Csr::poisson1d(9);
        // Simple aggregation P: 3 fine rows per coarse column.
        let mut coo = Coo::new(9, 3);
        for f in 0..9 {
            coo.push(f, f / 3, 1.0);
        }
        let p = coo.to_csr();
        let r = p.transpose();
        let rap = triple_product(&r, &a, &p, 2).product;
        assert_eq!(rap.nrows(), 3);
        assert_eq!(rap, rap.transpose());
    }

    #[test]
    fn empty_rows_handled() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        let a = coo.to_csr();
        let b = Csr::identity(4);
        let c = spgemm_spa(&a, &b, 3).product;
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), 1.0);
    }

    #[test]
    fn chunk_count_does_not_change_result() {
        let a = random_csr(50, 50, 6, 9);
        let base = spgemm_spa(&a, &a, 1).product;
        for chunks in [2, 3, 7, 50, 64] {
            assert_eq!(spgemm_spa(&a, &a, chunks).product, base, "chunks={chunks}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_pools_and_shapes() {
        let a = random_csr(40, 35, 5, 11);
        let b = random_csr(35, 50, 4, 12);
        let c = random_csr(50, 40, 3, 13);
        // Products from the independent two-pass algorithm; stats from
        // a fresh workspace.
        let want_ab = spgemm_twopass(&a, &b).product;
        let want_cb = spgemm_twopass(&c, &a).product;
        let mut ws = SpaWorkspace::new();
        let mut rp = Vec::new();
        let mut ci = Vec::new();
        let mut va = Vec::new();
        for pool in [ParPool::serial(), ParPool::with_threads(4)] {
            let fresh_ab = spgemm_spa_ws(&pool, &a, &b, 4, &mut SpaWorkspace::new()).stats;
            let fresh_cb = spgemm_spa_ws(&pool, &c, &a, 2, &mut SpaWorkspace::new()).stats;
            // Same workspace across different shapes and repeated calls:
            // stale stamps/capacity must never leak into results.
            for _ in 0..3 {
                let st = spgemm_spa_reuse(&pool, &a, &b, 4, &mut ws, &mut rp, &mut ci, &mut va);
                let got = Csr::from_raw(40, 50, rp.clone(), ci.clone(), va.clone());
                assert_eq!(got, want_ab);
                assert_eq!(st, fresh_ab);
                let st = spgemm_spa_reuse(&pool, &c, &a, 2, &mut ws, &mut rp, &mut ci, &mut va);
                let got = Csr::from_raw(50, 35, rp.clone(), ci.clone(), va.clone());
                assert_eq!(got, want_cb);
                assert_eq!(st, fresh_cb);
            }
        }
    }

    #[test]
    fn triple_product_ws_matches_triple_product() {
        let a = Csr::poisson2d(10, 10);
        let mut coo = Coo::new(100, 25);
        for f in 0..100 {
            coo.push(f, f / 4, 1.0);
        }
        let p = coo.to_csr();
        let r = p.transpose();
        let want = triple_product(&r, &a, &p, 3);
        let mut ws = GalerkinWorkspace::new();
        for _ in 0..2 {
            let got = triple_product_ws(&r, &a, &p, 3, &mut ws);
            assert_eq!(got.product, want.product);
            assert_eq!(got.stats, want.stats);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Csr::identity(3);
        let b = Csr::identity(4);
        spgemm_spa(&a, &b, 1);
    }
}
