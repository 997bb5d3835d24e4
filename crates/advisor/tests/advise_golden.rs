//! Pins the bytes of the advisor's JSON output.
//!
//! The advisor's output derives from campaign reports on every round's
//! artifact, so a change to the engine that runs those campaigns would
//! show up here first. This test fixes `SelectiveHardening::advise(..)`'s
//! JSON for the two CI workloads to a known length and FNV-1a-64 digest.

use secbranch::programs::{password_check_module, pin_retry_module};
use secbranch::store::format::fnv1a_64;
use secbranch::Workload;
use secbranch_advisor::SelectiveHardening;

fn assert_pinned(workload: &Workload, len: usize, digest: &str) {
    let json = SelectiveHardening::new()
        .advise(workload)
        .expect("advise runs")
        .to_json();
    assert_eq!(json.len(), len, "{}: advise JSON length", workload.name);
    assert_eq!(
        format!("{:016x}", fnv1a_64(json.as_bytes())),
        digest,
        "{}: advise JSON digest",
        workload.name
    );
}

#[test]
fn password_check_advise_json_is_pinned() {
    let workload = Workload::new(
        "password check",
        password_check_module(8),
        "password_check",
        &[],
    );
    assert_pinned(&workload, 3607, "dc8fc3eb2c487ec8");
}

#[test]
fn pin_retry_advise_json_is_pinned() {
    let workload = Workload::new("pin retry", pin_retry_module(4, 3), "pin_check", &[]);
    assert_pinned(&workload, 4051, "141c0df34c5c4045");
}
