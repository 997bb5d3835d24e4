//! Pins the bytes of the served grid's JSON report.
//!
//! Every other byte-identity check compares two outputs of the same
//! serialiser, so a change to the serialiser itself would pass them all.
//! This test fixes the seed-0 catalog grid (4 workloads × 3 variants × 5
//! models, 500 trials, 200 000 steps) to a known length and FNV-1a-64
//! digest, so a serialiser rewrite must reproduce the old bytes exactly.

use secbranch::campaign::{FaultModel, MatrixExecutor};
use secbranch::store::format::fnv1a_64;
use secbranch::Session;
use secbranch_gridd::catalog;

const WORKLOADS: [&str; 4] = ["integer_compare", "password_check", "crc32", "pin_retry"];
const VARIANTS: [&str; 3] = ["unprotected", "cfi", "prototype"];
const TRIALS: u64 = 500;
const MAX_STEPS: u64 = 200_000;

#[test]
fn catalog_grid_json_is_pinned() {
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|name| catalog::workload(name).expect("catalog workload"))
        .collect();
    let pipelines: Vec<_> = VARIANTS
        .iter()
        .map(|label| catalog::pipeline(label, MAX_STEPS).expect("catalog variant"))
        .collect();
    let models: Vec<_> = catalog::MODELS
        .iter()
        .map(|name| catalog::model(name, TRIALS).expect("catalog model"))
        .collect();
    let model_refs: Vec<&dyn FaultModel> = models.iter().map(|m| &**m as &dyn FaultModel).collect();
    let report = Session::new()
        .security_matrix_with(
            &MatrixExecutor::new(),
            &workloads,
            &pipelines,
            &model_refs,
            None,
        )
        .expect("grid runs");
    let json = report.to_json();
    assert_eq!(json.len(), 1_474_600, "grid JSON length");
    assert_eq!(
        format!("{:016x}", fnv1a_64(json.as_bytes())),
        "2f3045704402497b",
        "grid JSON digest"
    );
}
