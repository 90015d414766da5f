//! Timing helpers for the bench mains (the build environment cannot
//! fetch crates): [`time`] measures a closure's median ns/iter with
//! adaptive iteration counts, and [`median`] is the one shared median.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall time per measurement.
const TARGET: Duration = Duration::from_millis(300);
/// Batches the measurement is split into (median is reported).
const BATCHES: usize = 5;

/// Median of a sample set (sorts in place). The one shared copy used by
/// [`time`] and the standalone bench binaries.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Measures `f`: warm-up, pick an iteration count aiming at `TARGET`,
/// then return the median ns/iter over `BATCHES` batches.
pub fn time<T>(mut f: impl FnMut() -> T) -> f64 {
    // Warm-up + calibration.
    let start = Instant::now();
    let mut calibration_iters = 0u64;
    while start.elapsed() < TARGET / 10 || calibration_iters < 3 {
        black_box(f());
        calibration_iters += 1;
        if calibration_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = start.elapsed().as_secs_f64() / calibration_iters as f64;
    let per_batch = ((TARGET.as_secs_f64() / BATCHES as f64) / per_iter.max(1e-9)) as u64;
    let per_batch = per_batch.clamp(1, 10_000_000);
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&mut samples)
}
