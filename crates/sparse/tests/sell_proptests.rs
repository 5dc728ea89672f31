//! Property-based tests of the SELL-C-σ layout: for *any* matrix and
//! *any* (c, σ, chunk, thread) configuration, the SELL SpMV must be
//! bit-identical to the serial CSR SpMV — the layout is an execution
//! detail, never a numerics change.

use proptest::prelude::*;

use cpx_par::ParPool;
use cpx_sparse::coo::Coo;
use cpx_sparse::csr::Csr;
use cpx_sparse::{SellCSigma, SELL_MAX_C};

/// Strategy: a random sparse matrix as (nrows, ncols, triplets).
/// Duplicate pushes accumulate, rows may be empty, and column spreads
/// routinely straddle the 256-wide narrow-mode limit.
fn arb_csr(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(nr, nc)| {
        proptest::collection::vec((0..nr, 0..nc, -100i32..100), 0..max_nnz).prop_map(move |trips| {
            let mut coo = Coo::new(nr, nc);
            for (r, c, v) in trips {
                coo.push(r, c, v as f64 * 0.25);
            }
            coo.to_csr()
        })
    })
}

fn csr_reference(a: &Csr, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    a.spmv_with(&ParPool::serial(), 1, x, &mut y);
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sell_spmv_bit_identical_for_any_c_sigma(
        a in arb_csr(40, 300),
        c in 1usize..(2 * SELL_MAX_C + 1), // beyond the clamp on purpose
        sigma in 1usize..96,
    ) {
        let sell = SellCSigma::from_csr(&a, c, sigma);
        prop_assert_eq!(sell.nrows(), a.nrows());
        prop_assert_eq!(sell.nnz(), a.nnz());
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin() + 0.5).collect();
        let expected = csr_reference(&a, &x);
        let mut y = vec![0.0; a.nrows()];
        sell.spmv(&x, &mut y);
        prop_assert_eq!(&y, &expected);
    }

    #[test]
    fn sell_spmv_bit_identical_across_threads_and_chunks(
        a in arb_csr(30, 200),
        c in 1usize..(SELL_MAX_C + 1),
        sigma in 1usize..64,
        chunks in 1usize..10,
    ) {
        let sell = SellCSigma::from_csr(&a, c, sigma);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).cos()).collect();
        let expected = csr_reference(&a, &x);
        for threads in [1usize, 2, 4, 8] {
            let pool = ParPool::with_threads(threads);
            let mut y = vec![0.0; a.nrows()];
            sell.spmv_with(&pool, chunks, &x, &mut y);
            prop_assert_eq!(&y, &expected, "threads={} chunks={}", threads, chunks);
        }
    }

    #[test]
    fn sell_handles_empty_and_dense_rows(
        nrows in 1usize..40,
        ncols in 1usize..40,
        c in 1usize..(SELL_MAX_C + 1),
        sigma in 1usize..48,
        seed in 0u64..500,
    ) {
        // Adversarial shape: even rows dense, odd rows empty — maximal
        // padding imbalance inside a chunk.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(nrows, ncols);
        for r in (0..nrows).step_by(2) {
            for col in 0..ncols {
                if rng.gen_bool(0.7) {
                    coo.push(r, col, rng.gen_range(-2.0..2.0));
                }
            }
        }
        let a = coo.to_csr();
        let sell = SellCSigma::from_csr(&a, c, sigma);
        let x: Vec<f64> = (0..ncols).map(|i| 1.0 + i as f64 * 0.125).collect();
        let expected = csr_reference(&a, &x);
        let mut y = vec![0.0; nrows];
        sell.spmv(&x, &mut y);
        prop_assert_eq!(&y, &expected);
        // Occupancy accounting stays a valid fraction even here.
        prop_assert!(sell.occupancy() >= 0.0 && sell.occupancy() <= 1.0);
    }

    #[test]
    fn sell_single_row_matrix(ncols in 1usize..300, c in 1usize..(SELL_MAX_C + 1)) {
        // One row, columns spread wide enough to force wide-mode chunks
        // when ncols > 256.
        let mut coo = Coo::new(1, ncols);
        for col in (0..ncols).step_by(3) {
            coo.push(0, col, col as f64 - 1.5);
        }
        let a = coo.to_csr();
        let sell = SellCSigma::from_csr(&a, c, 256);
        let x: Vec<f64> = (0..ncols).map(|i| (i as f64).sin()).collect();
        let expected = csr_reference(&a, &x);
        let mut y = vec![0.0; 1];
        sell.spmv(&x, &mut y);
        prop_assert_eq!(&y, &expected);
    }
}
