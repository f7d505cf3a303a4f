//! Golden digests of the paper pool's rolling prediction matrices.
//!
//! `standard_pool(5, 24, 42)` is fitted on the first 360 values of a
//! seeded `BikeRentals` series and walked twice with
//! `prediction_matrix`: over values 360..480 (the validation matrix a
//! fit trains the policy on) and over values 480..680 (an online
//! matrix). The FNV-1a digest of each matrix's bits, row-major, is
//! pinned, so a change to any one member's forecasts, or to how the
//! pool is walked, fails here even when it moves no ledger line.

use eadrl_core::{fit_pool, prediction_matrix};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::standard_pool;

/// FNV-1a over the bit patterns of every value of `rows`, row-major.
fn digest(rows: &[Vec<f64>]) -> u64 {
    rows.iter().flatten().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

#[test]
fn paper_pool_matrices_match_their_golden_digests() {
    let series = generate(DatasetId::BikeRentals, 680, 42);
    let values = series.values();
    let (pool, dropped) = fit_pool(standard_pool(5, 24, 42), &values[..360]);
    assert!(dropped.is_empty(), "dropped {dropped:?}");
    let validation = prediction_matrix(&pool, &values[..360], &values[360..480]);
    let online = prediction_matrix(&pool, &values[..480], &values[480..]);
    assert_eq!((validation.len(), online.len()), (120, 200));
    assert!(validation.iter().chain(&online).all(|row| row.len() == 43));
    assert_eq!(
        (digest(&validation), digest(&online)),
        (0xd592_edfc_f694_dc4e, 0x9681_2ecd_caa9_0e99)
    );
}
