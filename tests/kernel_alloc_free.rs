//! Steady-state allocation contracts of the hot kernels: after one
//! warm-up invocation, the SpMV kernels (CSR and SELL-C-σ), the hybrid
//! Gauss–Seidel sweep through a reused [`cpx_amg::SweepScratch`], and
//! the arena-SPA SpGEMM through a reused
//! [`cpx_sparse::spgemm::SpaWorkspace`] must not touch the allocator at
//! all — the layouts, scratch arenas and output buffers are sized once
//! and reused. Uses the same counting global allocator as
//! `tests/netstats_overhead.rs` (its own test binary, since a
//! `#[global_allocator]` is process-wide).
//!
//! All assertions run the serial pool: the claim is about the kernels'
//! own buffer discipline, not about thread-spawn bookkeeping (and the
//! thread-local counter only sees this thread anyway).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpx_amg::{Smoother, SweepScratch};
use cpx_par::ParPool;
use cpx_sparse::spgemm::{spgemm_spa_reuse, SpaWorkspace};
use cpx_sparse::{Csr, SellCSigma};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Run `f` once (warm-up), then `reps` more times counting allocations.
fn steady_state_allocs(reps: usize, mut f: impl FnMut()) -> u64 {
    f();
    let before = allocs_on_this_thread();
    for _ in 0..reps {
        f();
    }
    allocs_on_this_thread() - before
}

#[test]
fn csr_spmv_is_allocation_free_in_steady_state() {
    let a = Csr::poisson3d(12, 12, 12);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let pool = ParPool::serial();
    let allocs = steady_state_allocs(50, || {
        a.spmv_with(&pool, 8, &x, &mut y);
    });
    assert_eq!(allocs, 0, "CSR spmv must not allocate after warm-up");
}

#[test]
fn sell_spmv_is_allocation_free_in_steady_state() {
    let a = Csr::poisson3d(12, 12, 12);
    let sell = SellCSigma::from_csr(&a, 16, 256);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let allocs = steady_state_allocs(50, || {
        sell.spmv(&x, &mut y);
    });
    assert_eq!(allocs, 0, "SELL spmv must not allocate after warm-up");
    // The parallel entry point on a serial pool takes the same
    // zero-allocation fast path.
    let pool = ParPool::serial();
    let allocs = steady_state_allocs(50, || {
        sell.spmv_with(&pool, 8, &x, &mut y);
    });
    assert_eq!(allocs, 0, "serial-pool SELL spmv must not allocate");
}

#[test]
fn hybrid_gs_sweep_through_scratch_is_allocation_free() {
    let a = Csr::poisson2d(40, 40);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut x = vec![0.0; n];
    let smoother = Smoother::HybridGaussSeidel { blocks: 8 };
    let pool = ParPool::serial();
    let mut scratch = SweepScratch::new();
    let allocs = steady_state_allocs(20, || {
        smoother.sweep_scratch_with(&pool, &a, &b, &mut x, &mut scratch);
    });
    assert_eq!(
        allocs, 0,
        "hybrid GS through a reused scratch must not allocate"
    );
    // Sanity: the convenience wrapper without a caller-held scratch
    // does allocate its frozen-iterate buffer — the contract is about
    // the scratch path, not magic.
    let wrapper_allocs = steady_state_allocs(5, || {
        smoother.sweep_with(&pool, &a, &b, &mut x);
    });
    assert!(wrapper_allocs > 0, "scratch-less wrapper allocates");
}

#[test]
fn arena_spa_spgemm_is_allocation_free_in_steady_state() {
    let a = Csr::poisson2d(24, 24);
    let pool = ParPool::serial();
    let mut ws = SpaWorkspace::new();
    let mut rowptr = Vec::new();
    let mut colidx = Vec::new();
    let mut vals = Vec::new();
    let allocs = steady_state_allocs(20, || {
        spgemm_spa_reuse(
            &pool,
            &a,
            &a,
            4,
            &mut ws,
            &mut rowptr,
            &mut colidx,
            &mut vals,
        );
    });
    assert_eq!(
        allocs, 0,
        "arena-SPA SpGEMM with reused workspace and output buffers \
         must not allocate after warm-up"
    );
    // The warm-sized product is still the real product, as the
    // independent two-pass algorithm computes it.
    let expected = cpx_sparse::spgemm::spgemm_twopass(&a, &a).product;
    assert_eq!(rowptr, expected.rowptr().to_vec());
    assert_eq!(colidx, expected.colidx().to_vec());
    assert_eq!(vals, expected.vals().to_vec());
}
