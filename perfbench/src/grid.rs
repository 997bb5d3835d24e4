//! The fixed 60-cell security grid every grid workload runs, its seeding,
//! and the sequential oracle every grid report is checked against.

use std::sync::Arc;

use secbranch::campaign::{
    BranchInversion, CampaignRunner, DoubleInstructionSkip, FaultModel, InstructionSkip,
    MemoryBitFlip, RegisterBitFlip,
};
use secbranch::{Pipeline, SecurityReport, Session, Workload};
use secbranch_gridd::{catalog, GridRequest};

/// The grid's workloads, in report order (catalog names).
pub const WORKLOADS: [&str; 4] = ["integer_compare", "password_check", "crc32", "pin_retry"];
/// The grid's protection variants, in report order.
pub const VARIANTS: [&str; 3] = ["unprotected", "cfi", "prototype"];
/// The grid's fault models, in report order.
pub const MODELS: [&str; 5] = catalog::MODELS;
/// Injection budget of the sampling models.
pub const TRIALS: u64 = 500;
/// Per-execution step budget.
pub const MAX_STEPS: u64 = 200_000;
/// The sampler seeds of double-skip, register-flip and memory-flip under
/// the default workload seed: the catalog's own, so seed 0 is exactly the
/// grid `gridd` serves and `campaign --matrix` runs.
pub const CATALOG_SEEDS: [u64; 3] = [0x2FA17, 0xABCDEF, 0xFEED];

/// The sampler seeds of double-skip, register-flip and memory-flip for a
/// workload seed. Seed 0 gives [`CATALOG_SEEDS`].
#[must_use]
pub fn model_seeds(seed: u64) -> [u64; 3] {
    let mix = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    CATALOG_SEEDS.map(|base| base ^ mix)
}

/// The 4 workloads × 3 variants × 5 models grid at one seed.
pub struct Grid {
    /// One entry per grid workload.
    pub workloads: Vec<Workload>,
    /// One entry per grid variant.
    pub pipelines: Vec<Pipeline>,
    /// One entry per grid model.
    pub models: Vec<Arc<dyn FaultModel + Send + Sync>>,
}

impl Grid {
    /// The grid whose sampling models are seeded from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Grid {
        let [double_skip, register_flip, memory_flip] = model_seeds(seed);
        Grid {
            workloads: WORKLOADS
                .iter()
                .map(|name| catalog::workload(name).expect("grid workloads are catalog names"))
                .collect(),
            pipelines: VARIANTS
                .iter()
                .map(|label| catalog::pipeline(label, MAX_STEPS).expect("grid variants parse"))
                .collect(),
            models: vec![
                Arc::new(InstructionSkip),
                Arc::new(DoubleInstructionSkip {
                    max_injections: TRIALS,
                    seed: double_skip,
                }),
                Arc::new(RegisterBitFlip {
                    trials: TRIALS,
                    seed: register_flip,
                }),
                Arc::new(MemoryBitFlip {
                    trials: TRIALS,
                    seed: memory_flip,
                }),
                Arc::new(BranchInversion),
            ],
        }
    }

    /// The models as the trait objects `Session` takes.
    #[must_use]
    pub fn model_refs(&self) -> Vec<&dyn FaultModel> {
        self.models
            .iter()
            .map(|model| &**model as &dyn FaultModel)
            .collect()
    }

    /// Number of cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.workloads.len() * self.pipelines.len() * self.models.len()
    }

    /// The same grid as a `gridd` request. The daemon resolves models
    /// through its catalog, so this is the seed-0 grid whatever `seed` is.
    #[must_use]
    pub fn request() -> GridRequest {
        GridRequest {
            priority: 0,
            trials: TRIALS,
            max_steps: MAX_STEPS,
            deadline_millis: 0,
            workloads: WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            variants: VARIANTS.iter().map(|s| (*s).to_string()).collect(),
            models: MODELS.iter().map(|s| (*s).to_string()).collect(),
            cold: false,
        }
    }

    /// The oracle: the grid on the sequential per-cell path, one campaign
    /// thread, no store — an implementation independent of the matrix
    /// executor, its caches and the daemon.
    ///
    /// # Errors
    ///
    /// A failing build or reference run.
    pub fn oracle(&self) -> Result<SecurityReport, String> {
        Session::new()
            .security_matrix_sequential_with(
                &CampaignRunner::new().with_threads(1),
                &self.workloads,
                &self.pipelines,
                &self.model_refs(),
            )
            .map_err(|e| format!("oracle grid: {e}"))
    }
}

/// A short content digest of a report (FNV-1a 64 of its bytes), printed so
/// two runs can be compared by eye.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    format!("fnv1a64:{:016x}", secbranch::store::format::fnv1a_64(bytes))
}

/// `Ok` when `report` serialises to exactly the oracle's bytes; otherwise
/// names the first cell that differs.
///
/// # Errors
///
/// The first differing cell (or a shape mismatch).
pub fn check_against_oracle(
    oracle: &SecurityReport,
    oracle_json: &str,
    report_json: &str,
) -> Result<(), String> {
    if report_json == oracle_json {
        return Ok(());
    }
    let first_diff = oracle_json
        .bytes()
        .zip(report_json.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(oracle_json.len().min(report_json.len()));
    // Name the cell around the first differing byte: cells serialise in
    // order, each opening with its workload key.
    let opening = b"{\"workload\":";
    let cell = oracle_json.as_bytes()[..first_diff]
        .windows(opening.len())
        .filter(|w| w == opening)
        .count();
    let name = cell
        .checked_sub(1)
        .and_then(|i| oracle.cells.get(i))
        .map_or_else(
            || "the report framing".to_string(),
            |c| format!("cell {} / {} / {}", c.workload, c.pipeline, c.model),
        );
    Err(format!(
        "report differs from the oracle at byte {first_diff} ({name}; {} vs {} bytes)",
        report_json.len(),
        oracle_json.len()
    ))
}
