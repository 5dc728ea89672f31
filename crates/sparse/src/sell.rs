//! SELL-C-σ: a SIMD-friendly sliced-ELL sparse layout behind the
//! [`Csr`] API.
//!
//! Rows are sorted by descending length inside windows of σ rows, then
//! packed into chunks of C consecutive lanes. Each chunk stores its
//! entries **slot-major**: slot s holds the s-th entry of every lane
//! that is still active, so the inner loop walks C independent
//! accumulators over contiguous memory — the cross-row vectorization
//! shape — instead of one serial dot product per row.
//!
//! On top of the layout, column indices are compressed per slot: when
//! every active lane's column at a slot stays within 255 of the slot's
//! smallest (true for any stencil-like matrix, where a slot addresses
//! the same stencil offset of C consecutive rows), the slot stores one
//! `u32` base plus one `u8` offset per lane — ~1.25 bytes per entry
//! against CSR's 8-byte `usize` columns. Chunks whose slots spread
//! wider fall back to plain `u32` columns, decided per chunk at build
//! time, so the kernel is exact for arbitrary matrices.
//!
//! ## Bit-identity with serial CSR
//!
//! Two properties make the result bit-identical to [`Csr::spmv`]:
//!
//! 1. Lane `l`'s accumulator sees that row's entries in slot order
//!    0, 1, 2, …, which is exactly the row's ascending-column CSR
//!    order, starting from the same `0.0` — the identical sequence of
//!    `acc += v * x[c]` operations, hence identical rounding.
//! 2. Because lanes within a chunk are sorted by descending length,
//!    the lanes active at slot `s` are a contiguous *prefix* — there
//!    is no padding value, so no `-0.0 + 0.0 → +0.0`-style artefact
//!    can ever enter an accumulator.
//!
//! σ windows also bound the permutation: a window's lanes are a
//! permutation of that window's rows, so window `w` owns output rows
//! `[wσ, (w+1)σ)` and parallel execution can hand each task whole
//! windows ([`cpx_par::ParPool::ranges_mut`]) while every row's value
//! stays a single independent write.

use cpx_par::{chunk_ranges, ParPool};
use std::ops::Range;

use crate::csr::Csr;
use crate::SpOpStats;

/// Upper bound on the chunk height C: the per-chunk accumulator block
/// lives on the stack (`[f64; SELL_MAX_C]`, 8 cache lines).
pub const SELL_MAX_C: usize = 64;

/// Metadata for one chunk of up to C lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Chunk {
    /// First lane (index into `perm`).
    lane0: u32,
    /// Lanes in this chunk (`1..=C`).
    lanes: u32,
    /// Slots (= length of the longest lane; lanes are length-sorted).
    width: u32,
    /// Leading slots where every lane is active (active counts are
    /// non-increasing, so these form a prefix): a dense
    /// `full_slots × lanes` block the kernel runs with a constant
    /// trip count, which is what lets LLVM unroll and vectorize it.
    full_slots: u32,
    /// Start of this chunk's values in `vals`.
    val_off: usize,
    /// Start of this chunk's columns in `cols_u32` (wide mode) or
    /// `col_offs` (compressed mode).
    col_off: usize,
    /// Start of this chunk's per-slot active counts in `slot_counts`.
    slot_off: usize,
    /// Start of this chunk's per-slot bases in `slot_bases`
    /// (compressed mode only).
    base_off: usize,
    /// Compressed (`base + u8`) column mode?
    narrow: bool,
}

/// A SELL-C-σ matrix built from a [`Csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct SellCSigma {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    /// Chunk height C.
    c: usize,
    /// Sorting-window size σ.
    sigma: usize,
    /// Lane → row index.
    perm: Vec<u32>,
    chunks: Vec<Chunk>,
    /// Per window, the index of its first chunk (length `nwindows + 1`).
    window_chunk_off: Vec<usize>,
    /// Active-lane count per (chunk, slot), concatenated in chunk order.
    slot_counts: Vec<u32>,
    /// Wide-mode column indices, slot-major within each chunk.
    cols_u32: Vec<u32>,
    /// Compressed-mode per-slot base columns.
    slot_bases: Vec<u32>,
    /// Compressed-mode per-entry offsets from the slot base.
    col_offs: Vec<u8>,
    vals: Vec<f64>,
}

impl SellCSigma {
    /// Build from a CSR matrix. `c` is clamped to `1..=`[`SELL_MAX_C`];
    /// `sigma` is clamped to at least `c`.
    pub fn from_csr(a: &Csr, c: usize, sigma: usize) -> SellCSigma {
        let c = c.clamp(1, SELL_MAX_C);
        let sigma = sigma.max(c);
        let nrows = a.nrows();
        let ncols = a.ncols();
        let rowptr = a.rowptr();
        let row_len = |r: usize| rowptr[r + 1] - rowptr[r];
        // The unchecked gathers in `spmv_with` lean on every stored
        // column being in range; a release-mode CSR is only
        // debug-asserted, so re-verify here, once, at build time.
        for &col in a.colidx() {
            assert!(col < ncols, "SellCSigma: column {col} out of range {ncols}");
        }

        let nwindows = nrows.div_ceil(sigma.max(1));
        let mut perm: Vec<u32> = Vec::with_capacity(nrows);
        let mut chunks = Vec::new();
        let mut window_chunk_off = Vec::with_capacity(nwindows + 1);
        let mut slot_counts: Vec<u32> = Vec::new();
        let mut cols_u32: Vec<u32> = Vec::new();
        let mut slot_bases: Vec<u32> = Vec::new();
        let mut col_offs: Vec<u8> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();

        window_chunk_off.push(0);
        for w in 0..nwindows {
            let wlo = w * sigma;
            let whi = (wlo + sigma).min(nrows);
            let mut lanes: Vec<u32> = (wlo..whi).map(|r| r as u32).collect();
            // Stable sort, descending by length: equal-length rows keep
            // ascending row order, so the layout is deterministic.
            lanes.sort_by_key(|&r| std::cmp::Reverse(row_len(r as usize)));
            for chunk_lanes in lanes.chunks(c) {
                let lane0 = perm.len() as u32;
                let width = row_len(chunk_lanes[0] as usize);
                let val_off = vals.len();
                let slot_off = slot_counts.len();
                let base_off = slot_bases.len();
                perm.extend_from_slice(chunk_lanes);

                // Slot s of lane r is entry `rowptr[row] + s`; lanes
                // still active at s are a prefix (length-sorted).
                let active_at = |s: usize| {
                    chunk_lanes
                        .iter()
                        .take_while(|&&r| row_len(r as usize) > s)
                        .count()
                };
                let col_at = |r: u32, s: usize| a.colidx()[rowptr[r as usize] + s];

                // Mode probe: compressed iff every slot's columns stay
                // within 255 of the slot's minimum.
                let narrow = (0..width).all(|s| {
                    let lanes_s = &chunk_lanes[..active_at(s)];
                    let mn = lanes_s.iter().map(|&r| col_at(r, s)).min().unwrap();
                    lanes_s.iter().all(|&r| col_at(r, s) - mn < 256)
                });
                let col_off = if narrow {
                    col_offs.len()
                } else {
                    cols_u32.len()
                };

                for s in 0..width {
                    let active = active_at(s);
                    slot_counts.push(active as u32);
                    if narrow {
                        let mn = chunk_lanes[..active]
                            .iter()
                            .map(|&r| col_at(r, s))
                            .min()
                            .unwrap();
                        slot_bases.push(mn as u32);
                        for &r in &chunk_lanes[..active] {
                            col_offs.push((col_at(r, s) - mn) as u8);
                            vals.push(a.vals()[rowptr[r as usize] + s]);
                        }
                    } else {
                        for &r in &chunk_lanes[..active] {
                            cols_u32.push(col_at(r, s) as u32);
                            vals.push(a.vals()[rowptr[r as usize] + s]);
                        }
                    }
                }
                let full_slots = slot_counts[slot_off..]
                    .iter()
                    .take_while(|&&a| a as usize == chunk_lanes.len())
                    .count();
                chunks.push(Chunk {
                    lane0,
                    lanes: chunk_lanes.len() as u32,
                    width: width as u32,
                    full_slots: full_slots as u32,
                    val_off,
                    col_off,
                    slot_off,
                    base_off,
                    narrow,
                });
            }
            window_chunk_off.push(chunks.len());
        }

        SellCSigma {
            nrows,
            ncols,
            nnz: vals.len(),
            c,
            sigma,
            perm,
            chunks,
            window_chunk_off,
            slot_counts,
            cols_u32,
            slot_bases,
            col_offs,
            vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries (identical to the source CSR rows' nnz — the
    /// prefix-active layout stores no padding values).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of entries whose columns use the compressed
    /// base-plus-`u8` encoding (1.0 for stencil-like matrices).
    pub fn narrow_fraction(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.col_offs.len() as f64 / self.nnz as f64
        }
    }

    /// Lane occupancy: stored entries over the `width × lanes` slots
    /// the chunk shape implies. 1.0 means every lane in every chunk
    /// has equal length (no divergence); lower means tail lanes idle.
    pub fn occupancy(&self) -> f64 {
        let cells: usize = self
            .chunks
            .iter()
            .map(|ch| ch.width as usize * ch.lanes as usize)
            .sum();
        if cells == 0 {
            1.0
        } else {
            self.nnz as f64 / cells as f64
        }
    }

    /// `y = A x`, bit-identical to [`Csr::spmv`].
    /// Runs on the global pool with granularity limiting.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> SpOpStats {
        let pool = ParPool::current().limited(self.nnz);
        self.spmv_with(&pool, pool.chunks(), x, y)
    }

    /// [`SellCSigma::spmv`] on an explicit pool split into `parts`
    /// window-aligned tasks.
    pub fn spmv_with(&self, pool: &ParPool, parts: usize, x: &[f64], y: &mut [f64]) -> SpOpStats {
        assert_eq!(x.len(), self.ncols, "sell spmv: x length");
        assert_eq!(y.len(), self.nrows, "sell spmv: y length");
        if pool.threads() <= 1 || self.chunks.len() <= 1 {
            self.spmv_chunks(0..self.chunks.len(), x, y, 0);
            return self.spmv_stats();
        }
        // Deal whole σ windows into `parts` contiguous tasks: every
        // task owns whole output rows, so each row is still a single
        // independent write and the result is partition-invariant.
        let nwindows = self.window_chunk_off.len() - 1;
        let wranges = chunk_ranges(nwindows, parts);
        let rranges: Vec<Range<usize>> = wranges
            .iter()
            .map(|wr| {
                (wr.start * self.sigma).min(self.nrows)..(wr.end * self.sigma).min(self.nrows)
            })
            .collect();
        pool.ranges_mut(y, &rranges, |part, rows, y_part| {
            let wr = &wranges[part];
            let chunks = self.window_chunk_off[wr.start]..self.window_chunk_off[wr.end];
            self.spmv_chunks(chunks, x, y_part, rows.start);
        });
        self.spmv_stats()
    }

    /// The serial kernel over a chunk range. `y_base` is the first
    /// row index `y` is offset by (window-aligned partitions).
    /// Dispatches to a monomorphised body for the common chunk heights
    /// so the dense-block loop has a compile-time trip count.
    fn spmv_chunks(&self, chunk_range: Range<usize>, x: &[f64], y: &mut [f64], y_base: usize) {
        match self.c {
            2 => self.spmv_chunks_c::<2>(chunk_range, x, y, y_base),
            4 => self.spmv_chunks_c::<4>(chunk_range, x, y, y_base),
            8 => self.spmv_chunks_c::<8>(chunk_range, x, y, y_base),
            16 => self.spmv_chunks_c::<16>(chunk_range, x, y, y_base),
            32 => self.spmv_chunks_c::<32>(chunk_range, x, y, y_base),
            64 => self.spmv_chunks_c::<64>(chunk_range, x, y, y_base),
            // C = 0 is a sentinel no chunk height equals: every chunk
            // takes the variable-width path.
            _ => self.spmv_chunks_c::<0>(chunk_range, x, y, y_base),
        }
    }

    fn spmv_chunks_c<const C: usize>(
        &self,
        chunk_range: Range<usize>,
        x: &[f64],
        y: &mut [f64],
        y_base: usize,
    ) {
        // SAFETY (all unchecked accesses in the per-chunk kernels):
        // entry cursors stay below the stream lengths because slot
        // counts sum to exactly each chunk's entry count and the
        // streams were filled in the same order; every decoded column
        // equals a stored CSR column `< ncols == x.len()` (verified at
        // build time); lane indices are `< lanes <= c <= SELL_MAX_C`.
        for ch in &self.chunks[chunk_range] {
            if C != 0 && ch.lanes as usize == C {
                if ch.narrow {
                    self.chunk_narrow::<C>(ch, x, y, y_base);
                } else {
                    self.chunk_wide::<C>(ch, x, y, y_base);
                }
            } else {
                self.chunk_short(ch, x, y, y_base);
            }
        }
    }

    /// Full-height chunk, compressed columns: a fixed `[f64; C]`
    /// accumulator block LLVM keeps in registers and constant inner
    /// trip counts it unrolls — the cross-row vectorization shape.
    #[inline(always)]
    fn chunk_narrow<const C: usize>(&self, ch: &Chunk, x: &[f64], y: &mut [f64], y_base: usize) {
        let full = ch.full_slots as usize;
        let mut acc = [0.0f64; C];
        let mut p = ch.val_off;
        let mut q = ch.col_off;
        let mut sb = ch.base_off;
        for _s in 0..full {
            unsafe {
                let base = *self.slot_bases.get_unchecked(sb) as usize;
                for l in 0..C {
                    let c = base + *self.col_offs.get_unchecked(q + l) as usize;
                    let v = *self.vals.get_unchecked(p + l);
                    acc[l] += v * x.get_unchecked(c);
                }
            }
            sb += 1;
            p += C;
            q += C;
        }
        // Ragged tail slots: variable active prefix per slot.
        let slots = &self.slot_counts[ch.slot_off + full..ch.slot_off + ch.width as usize];
        for &active in slots {
            let k = active as usize;
            unsafe {
                let base = *self.slot_bases.get_unchecked(sb) as usize;
                for l in 0..k {
                    let c = base + *self.col_offs.get_unchecked(q + l) as usize;
                    let v = *self.vals.get_unchecked(p + l);
                    *acc.get_unchecked_mut(l) += v * x.get_unchecked(c);
                }
            }
            sb += 1;
            p += k;
            q += k;
        }
        let lane0 = ch.lane0 as usize;
        for (l, &a) in acc.iter().enumerate() {
            let row = self.perm[lane0 + l] as usize;
            y[row - y_base] = a;
        }
    }

    /// Full-height chunk, wide (`u32`) columns.
    #[inline(always)]
    fn chunk_wide<const C: usize>(&self, ch: &Chunk, x: &[f64], y: &mut [f64], y_base: usize) {
        let full = ch.full_slots as usize;
        let mut acc = [0.0f64; C];
        let mut p = ch.val_off;
        let mut q = ch.col_off;
        for _s in 0..full {
            for l in 0..C {
                unsafe {
                    let c = *self.cols_u32.get_unchecked(q + l) as usize;
                    let v = *self.vals.get_unchecked(p + l);
                    acc[l] += v * x.get_unchecked(c);
                }
            }
            p += C;
            q += C;
        }
        let slots = &self.slot_counts[ch.slot_off + full..ch.slot_off + ch.width as usize];
        for &active in slots {
            let k = active as usize;
            for l in 0..k {
                unsafe {
                    let c = *self.cols_u32.get_unchecked(q + l) as usize;
                    let v = *self.vals.get_unchecked(p + l);
                    *acc.get_unchecked_mut(l) += v * x.get_unchecked(c);
                }
            }
            p += k;
            q += k;
        }
        let lane0 = ch.lane0 as usize;
        for (l, &a) in acc.iter().enumerate() {
            let row = self.perm[lane0 + l] as usize;
            y[row - y_base] = a;
        }
    }

    /// Short chunk (window tail) or unspecialised height, either mode.
    fn chunk_short(&self, ch: &Chunk, x: &[f64], y: &mut [f64], y_base: usize) {
        let lanes = ch.lanes as usize;
        let mut acc = [0.0f64; SELL_MAX_C];
        let mut p = ch.val_off;
        let mut q = ch.col_off;
        let mut sb = ch.base_off;
        let slots = &self.slot_counts[ch.slot_off..ch.slot_off + ch.width as usize];
        for &active in slots {
            let k = active as usize;
            if ch.narrow {
                unsafe {
                    let base = *self.slot_bases.get_unchecked(sb) as usize;
                    for l in 0..k {
                        let c = base + *self.col_offs.get_unchecked(q + l) as usize;
                        let v = *self.vals.get_unchecked(p + l);
                        *acc.get_unchecked_mut(l) += v * x.get_unchecked(c);
                    }
                }
                sb += 1;
            } else {
                for l in 0..k {
                    unsafe {
                        let c = *self.cols_u32.get_unchecked(q + l) as usize;
                        let v = *self.vals.get_unchecked(p + l);
                        *acc.get_unchecked_mut(l) += v * x.get_unchecked(c);
                    }
                }
            }
            p += k;
            q += k;
        }
        let lane0 = ch.lane0 as usize;
        for (l, &a) in acc.iter().take(lanes).enumerate() {
            let row = self.perm[lane0 + l] as usize;
            y[row - y_base] = a;
        }
    }

    /// Modelled op statistics of one SpMV in this layout: same flops
    /// as CSR, bytes from the actual compressed storage footprint.
    pub fn spmv_stats(&self) -> SpOpStats {
        let nnz = self.nnz as f64;
        SpOpStats {
            flops: 2.0 * nnz,
            // vals + x gather per entry, then the column streams,
            // per-slot metadata and the lane permutation.
            bytes_read: nnz * (8.0 + 8.0)
                + self.cols_u32.len() as f64 * 4.0
                + self.col_offs.len() as f64
                + self.slot_bases.len() as f64 * 4.0
                + self.slot_counts.len() as f64 * 4.0
                + self.nrows as f64 * 4.0,
            bytes_written: self.nrows as f64 * 8.0,
            input_passes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn csr_spmv_serial(a: &Csr, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.nrows()];
        a.spmv_with(&ParPool::serial(), 1, x, &mut y);
        y
    }

    fn check_bit_identical(a: &Csr, c: usize, sigma: usize) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let want = csr_spmv_serial(a, &x);
        let sell = SellCSigma::from_csr(a, c, sigma);
        assert_eq!(sell.nnz(), a.nnz());
        for threads in [1, 2, 4, 8] {
            let pool = ParPool::with_threads(threads);
            for parts in [1, 3, 8] {
                let mut y = vec![f64::NAN; a.nrows()];
                sell.spmv_with(&pool, parts, &x, &mut y);
                assert_eq!(
                    y, want,
                    "c={c} sigma={sigma} threads={threads} parts={parts}"
                );
            }
        }
    }

    #[test]
    fn sell_matches_csr_on_poisson() {
        check_bit_identical(&Csr::poisson2d(13, 11), 8, 64);
        check_bit_identical(&Csr::poisson3d(7, 6, 5), 4, 16);
        check_bit_identical(&Csr::poisson1d(100), 8, 32);
    }

    #[test]
    fn sell_handles_empty_and_ragged_rows() {
        let mut coo = Coo::new(9, 9);
        // Rows 0, 4, 8 empty; row 1 dense-ish; others ragged.
        for c in 0..9 {
            coo.push(1, c, (c as f64) - 4.0);
        }
        coo.push(2, 3, 2.0);
        coo.push(3, 0, -1.0);
        coo.push(3, 8, 1.5);
        coo.push(5, 5, 4.0);
        coo.push(6, 1, 0.5);
        coo.push(6, 2, 0.25);
        coo.push(6, 7, -0.75);
        coo.push(7, 6, 1.0);
        let a = coo.to_csr();
        for (c, sigma) in [(1, 1), (2, 4), (3, 9), (8, 64)] {
            check_bit_identical(&a, c, sigma);
        }
    }

    #[test]
    fn sell_single_row_and_empty_matrix() {
        let mut coo = Coo::new(1, 4);
        coo.push(0, 1, 2.0);
        coo.push(0, 3, -1.0);
        check_bit_identical(&coo.to_csr(), 8, 64);
        let empty = Csr::zeros(0, 3);
        let sell = SellCSigma::from_csr(&empty, 8, 64);
        let mut y = vec![];
        sell.spmv(&[1.0, 2.0, 3.0], &mut y);
    }

    #[test]
    fn wide_columns_fall_back_and_still_match() {
        // Columns spread far beyond 255 within a slot: forces the
        // wide (u32) chunk mode.
        let n = 40;
        let m = 10_000;
        let mut coo = Coo::new(n, m);
        for r in 0..n {
            coo.push(r, (r * 241) % m, 1.0 + r as f64);
            coo.push(r, (r * 241) % m / 2 + 5_000, -0.5 * r as f64);
        }
        let a = coo.to_csr();
        let sell = SellCSigma::from_csr(&a, 8, 64);
        assert!(
            sell.narrow_fraction() < 1.0,
            "expected some wide chunks, got narrow_fraction={}",
            sell.narrow_fraction()
        );
        check_bit_identical(&a, 8, 64);
        // Mixed narrow/wide chunks in one matrix: prepend a
        // stencil-like block.
        let mut coo2 = Coo::new(n + 64, m);
        for r in 0..64 {
            coo2.push(r, r, 2.0);
            if r + 1 < 64 {
                coo2.push(r, r + 1, -1.0);
            }
        }
        for r in 0..n {
            coo2.push(64 + r, (r * 241) % m, 1.0 + r as f64);
        }
        let a2 = coo2.to_csr();
        let sell2 = SellCSigma::from_csr(&a2, 8, 8);
        assert!(sell2.narrow_fraction() > 0.0 && sell2.narrow_fraction() < 1.0);
        check_bit_identical(&a2, 8, 8);
    }

    #[test]
    fn stencil_matrices_compress_fully() {
        let a = Csr::poisson3d(8, 8, 8);
        let sell = SellCSigma::from_csr(&a, 8, 64);
        assert_eq!(sell.narrow_fraction(), 1.0);
    }

    #[test]
    fn occupancy_is_full_on_uniform_rows_and_reported_below_one_on_ragged() {
        let uniform = Csr::identity(32);
        assert_eq!(SellCSigma::from_csr(&uniform, 8, 32).occupancy(), 1.0);
        let mut coo = Coo::new(8, 8);
        for c in 0..8 {
            coo.push(0, c, 1.0);
        }
        coo.push(1, 0, 1.0);
        let ragged = coo.to_csr();
        // σ=1 disables sorting across rows, so chunk 0 pairs an 8-long
        // lane with shorter ones.
        let sell = SellCSigma::from_csr(&ragged, 8, 1);
        assert!(sell.occupancy() < 1.0);
        check_bit_identical(&ragged, 8, 1);
    }

    #[test]
    fn sigma_sorting_groups_similar_lengths() {
        // One long row per group of short ones: with σ covering the
        // whole matrix the long rows sort together and occupancy
        // beats the unsorted (σ=c) layout.
        let n = 64;
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            if r % 8 == 0 {
                for c in 0..n {
                    coo.push(r, c, 1.0 + (r + c) as f64);
                }
            } else {
                coo.push(r, r, 2.0);
            }
        }
        let a = coo.to_csr();
        let sorted = SellCSigma::from_csr(&a, 8, n);
        let unsorted = SellCSigma::from_csr(&a, 8, 8);
        assert!(sorted.occupancy() > unsorted.occupancy());
        check_bit_identical(&a, 8, n);
        check_bit_identical(&a, 8, 8);
    }

    #[test]
    fn stats_count_less_index_traffic_than_csr() {
        let a = Csr::poisson3d(8, 8, 8);
        let sell = SellCSigma::from_csr(&a, 8, 64);
        assert_eq!(sell.spmv_stats().flops, a.spmv_stats().flops);
        assert!(sell.spmv_stats().bytes_read < a.spmv_stats().bytes_read);
    }
}
