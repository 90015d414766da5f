//! Seeded inputs shared by the workloads, and their scoring against the
//! generator's ground truth.

use manta::InferenceResult;
use manta_analysis::{ModuleAnalysis, VarRef};
use manta_clients::{detect_bugs, BugKind, BugReport, CheckerConfig};
use manta_eval::metrics::{score_bug_reports, score_params, BugScore, PrScore};
use manta_store::splitmix64;
use manta_workloads::generator::GenSpec;
use manta_workloads::{
    generate, generate_firmware, FirmwareSpec, GeneratedProgram, GroundTruth, PhenomenonMix,
};

use crate::Size;

/// `n` sizes log-uniform over `[lo, hi]`: the midpoint of each of `n`
/// strata of equal probability, ascending. Every seed gets the same
/// sizes; only the programs differ.
pub fn log_sizes(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    (0..n)
        .map(|i| {
            let q = (i as f64 + 0.5) / n as f64;
            (a + q * (b - a)).exp().round() as usize
        })
        .collect()
}

/// An op order over items ranked by cost in which every prefix samples
/// the ranks evenly: rank `r` goes to the position of its bit-reversed
/// value. A run cut at any point has seen a representative size mix.
pub fn spread_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&r| (r as u32).reverse_bits());
    order
}

/// A suite-style project of generator size `size`, which gives about
/// `3 * size` functions.
pub fn suite_program(seed: u64, index: usize, size: usize) -> GeneratedProgram {
    generate(&GenSpec {
        name: format!("suite{index}_{size}f"),
        functions: size,
        mix: PhenomenonMix::balanced(),
        seed: splitmix64(seed ^ ((index as u64) << 20)),
    })
}

/// A firmware image with `noise` benign functions around its injected
/// bugs and decoys, scaled like the Table 5 images.
pub fn firmware_program(seed: u64, index: usize, noise: usize) -> GeneratedProgram {
    generate_firmware(&FirmwareSpec {
        name: format!("firmware{index}_{noise}n"),
        real_bugs_per_class: 1 + noise / 20,
        decoys_per_class: 1 + noise / 14,
        noise_functions: noise,
        seed: splitmix64(seed ^ 0xf1 ^ ((index as u64) << 20)),
    })
}

/// Parameter-type and bug-report scores accumulated over a workload's
/// labeled programs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub types: PrScore,
    pub bugs: BugScore,
}

impl Quality {
    /// Scores one program's parameter types against its ground truth
    /// and, for a firmware image, its bug reports against the injected
    /// bugs.
    pub fn add(
        &mut self,
        analysis: &ModuleAnalysis,
        result: &InferenceResult,
        truth: &GroundTruth,
        firmware_reports: Option<&[BugReport]>,
    ) {
        self.types
            .merge(score_params(analysis, truth, |func, index| {
                let p = *analysis.module().function(func).params().get(index)?;
                result.interval(VarRef::new(func, p)).cloned()
            }));
        if let Some(reports) = firmware_reports {
            let pairs: Vec<(BugKind, String)> = reports
                .iter()
                .map(|r| {
                    (
                        r.kind,
                        analysis.module().function(r.func).name().to_string(),
                    )
                })
                .collect();
            self.bugs.merge(score_bug_reports(&pairs, truth));
        }
    }

    pub fn type_precision_pct(&self) -> f64 {
        self.types.precision()
    }

    pub fn type_recall_pct(&self) -> f64 {
        self.types.recall()
    }

    pub fn bug_precision_pct(&self) -> f64 {
        100.0 * self.bugs.precision()
    }
}

/// Generator seed of the labeled programs [`score_labeled`] uses.
const LABELED_SEED: u64 = 0xed17;

/// Scores the answers `analyze` gives, from the IR text of fixed labeled
/// programs (suite projects and a firmware image), against their ground
/// truth. `edit` and `serve` score their own analysis path this way,
/// outside the timer: edit's module has no ground truth, and serve's
/// traffic is mostly cache hits.
pub fn score_labeled(
    size: Size,
    mut analyze: impl FnMut(&str) -> Result<(ModuleAnalysis, InferenceResult), String>,
) -> Result<Quality, String> {
    let (suite, firmware): (&[usize], &[usize]) = match size {
        Size::Full => (&[150, 300], &[100]),
        Size::Smoke => (&[30], &[10]),
    };
    let labeled = suite
        .iter()
        .enumerate()
        .map(|(i, &f)| (suite_program(LABELED_SEED, i, f), false))
        .chain(
            firmware
                .iter()
                .enumerate()
                .map(|(i, &n)| (firmware_program(LABELED_SEED, i, n), true)),
        );
    let mut quality = Quality::default();
    for (program, is_firmware) in labeled {
        let (analysis, result) = analyze(&manta_ir::printer::print_module(&program.module))?;
        let reports = is_firmware.then(|| {
            detect_bugs(
                &analysis,
                Some(&result),
                &BugKind::ALL,
                CheckerConfig::default(),
            )
            .0
        });
        quality.add(&analysis, &result, &program.truth, reports.as_deref());
    }
    Ok(quality)
}
