//! Integration tests of the advisor: golden remediation snapshot,
//! thread-count determinism, category totality over the benchmark grid,
//! and the closed loop's zero-escape / lower-overhead acceptance.

use secbranch::campaign::{
    BranchInversion, CampaignReport, CampaignRunner, DoubleInstructionSkip, FaultModel,
    InstructionSkip, MemoryBitFlip, RegisterBitFlip, SharedModule,
};
use secbranch::programs::{
    crc32_table_module, integer_compare_module, password_check_module, pin_retry_module,
};
use secbranch::{Artifact, Pipeline, ProtectionVariant, Workload};
use secbranch_advisor::{Categorizer, RemediationReport, SelectiveHardening};

/// The reference campaign: the `CampaignRunner` oracle on the artifact's
/// compilation, independent of the executor the advisor runs on.
fn oracle_campaign(
    artifact: &Artifact,
    workload: &Workload,
    model: &dyn FaultModel,
) -> CampaignReport {
    let source = SharedModule {
        compiled: artifact.compiled(),
        memory_size: artifact.sim().memory_size,
    };
    CampaignRunner::new()
        .run(
            &source,
            &workload.entry,
            &workload.args,
            artifact.sim().max_steps,
            model,
        )
        .expect("campaign runs")
}

fn pin_retry_workload() -> Workload {
    Workload::new("pin retry", pin_retry_module(4, 3), "pin_check", &[])
}

/// Categorizes the unprotected escapes of a workload under the two models
/// the advisor defends against.
fn categorize_unprotected(workload: &Workload) -> RemediationReport {
    let artifact = Pipeline::new()
        .with_max_steps(200_000)
        .build(&workload.module)
        .expect("builds");
    let categorizer = Categorizer::new(&workload.module, &artifact.compiled().program);
    let mut escapes = Vec::new();
    for model in [&InstructionSkip as &dyn FaultModel, &BranchInversion] {
        let report = oracle_campaign(&artifact, workload, model);
        escapes.extend(categorizer.categorize_report(&report));
    }
    RemediationReport::new(workload.name.clone(), &escapes)
}

/// The PIN-retry workload's escape set is known; the remediation report
/// derived from it is a stable artifact. Any drift — in the campaign, the
/// label join, the CFG analysis or the category rules — shows up as a
/// readable diff here.
#[test]
fn remediation_report_for_unprotected_pin_retry_matches_the_golden_snapshot() {
    let report = categorize_unprotected(&pin_retry_workload());
    assert_eq!(report.total_escapes, 117);
    assert_eq!(report.entries.len(), 13);
    assert_eq!(report.to_json(), GOLDEN_PIN_RETRY_JSON);
}

/// The advisor's entire output derives from campaign reports, which are
/// byte-identical at any worker thread count — so the advise JSON is too.
#[test]
fn advise_output_is_byte_identical_at_1_2_and_8_threads() {
    let workload = pin_retry_workload();
    let baseline = SelectiveHardening::new()
        .with_threads(1)
        .advise(&workload)
        .expect("advise runs")
        .to_json();
    for threads in [2, 8] {
        let outcome = SelectiveHardening::new()
            .with_threads(threads)
            .advise(&workload)
            .expect("advise runs");
        assert_eq!(
            outcome.to_json(),
            baseline,
            "advise output drifted at {threads} threads"
        );
    }
}

/// Every escape of the benchmark grid — 4 workloads × 3 variants × 5 fault
/// models, the 60 cells of the matrix benchmark — receives exactly one
/// category: the join is total, never panics, and resolves a function for
/// every faulted pc.
#[test]
fn every_escape_in_the_60_cell_grid_receives_exactly_one_category() {
    let workloads = [
        Workload::new(
            "integer compare",
            integer_compare_module(),
            "integer_compare",
            &[1234, 4321],
        ),
        Workload::new(
            "password check",
            password_check_module(8),
            "password_check",
            &[],
        ),
        Workload::new("crc32 x16", crc32_table_module(16), "crc32_check", &[]),
        pin_retry_workload(),
    ];
    let variants = [
        ProtectionVariant::Unprotected,
        ProtectionVariant::CfiOnly,
        ProtectionVariant::AnCode,
    ];
    let models: Vec<Box<dyn FaultModel>> = vec![
        Box::new(InstructionSkip),
        Box::new(DoubleInstructionSkip {
            max_injections: 100,
            seed: 0x2FA17,
        }),
        Box::new(RegisterBitFlip {
            trials: 100,
            seed: 0xABCDEF,
        }),
        Box::new(MemoryBitFlip {
            trials: 100,
            seed: 0xFEED,
        }),
        Box::new(BranchInversion),
    ];
    let mut cells = 0;
    let mut escapes_seen = 0usize;
    for workload in &workloads {
        for variant in variants {
            let artifact = Pipeline::for_variant(variant)
                .with_max_steps(200_000)
                .build(&workload.module)
                .expect("builds");
            let categorizer = Categorizer::new(&workload.module, &artifact.compiled().program);
            for model in &models {
                let report = oracle_campaign(&artifact, workload, model.as_ref());
                let categorized = categorizer.categorize_report(&report);
                assert_eq!(
                    categorized.len(),
                    report.escapes.len(),
                    "{} / {} / {}: every escape categorizes exactly once",
                    workload.name,
                    variant.label(),
                    report.model
                );
                for c in &categorized {
                    assert!(
                        !c.function.is_empty(),
                        "{} / {}: escape at pc {} resolved to no function",
                        workload.name,
                        report.model,
                        c.pc
                    );
                }
                escapes_seen += categorized.len();
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 60);
    assert!(escapes_seen > 0, "the grid exercises real escapes");
}

/// The acceptance criterion of the closed loop: on at least two workloads
/// the selective configuration reaches zero escapes under instruction skip
/// and branch inversion, at strictly lower measured runtime and size
/// overhead than whole-function protection.
#[test]
fn selective_hardening_converges_cheaper_than_full_protection() {
    let workloads = [
        Workload::new(
            "password check",
            password_check_module(8),
            "password_check",
            &[],
        ),
        pin_retry_workload(),
    ];
    for workload in &workloads {
        let outcome = SelectiveHardening::new()
            .advise(workload)
            .expect("advise runs");
        assert!(outcome.converged, "{}: loop must converge", workload.name);
        assert_eq!(
            outcome.selective.total_escapes(),
            0,
            "{}: selective config must stop every escape",
            workload.name
        );
        assert_eq!(
            outcome.full.total_escapes(),
            0,
            "{}: full protection stops every escape too",
            workload.name
        );
        assert!(
            outcome.selective.measurement.result.cycles < outcome.full.measurement.result.cycles,
            "{}: selective must run strictly cheaper ({} vs {} cycles)",
            workload.name,
            outcome.selective.measurement.result.cycles,
            outcome.full.measurement.result.cycles
        );
        assert!(
            outcome.selective.measurement.code_size_bytes
                < outcome.full.measurement.code_size_bytes,
            "{}: selective must be strictly smaller ({} vs {} bytes)",
            workload.name,
            outcome.selective.measurement.code_size_bytes,
            outcome.full.measurement.code_size_bytes
        );
        // And it still protects: strictly more expensive than no protection.
        assert!(
            outcome.selective.runtime_overhead_percent > 0.0
                && outcome.selective.size_overhead_percent > 0.0
        );
    }
}

const GOLDEN_PIN_RETRY_JSON: &str = "{\"workload\":\"pin retry\",\"total_escapes\":117,\"entries\":[{\"function\":\"memcmp_secure\",\"region\":\"prologue\",\"category\":\"call-return\",\"countermeasure\":\"cfi the call/return edges, skip-harden the prologue\",\"escapes\":2,\"by_model\":{\"skip\":2},\"example_pc\":2,\"example_instruction\":\"str r0, [sp, #8]\"},{\"function\":\"memcmp_secure\",\"region\":\"bb0\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":1,\"by_model\":{\"skip\":1},\"example_pc\":8,\"example_instruction\":\"ldr r0, [sp, #20]\"},{\"function\":\"memcmp_secure\",\"region\":\"bb1\",\"category\":\"loop-condition\",\"countermeasure\":\"an-code the loop condition, cfi-link its edges, skip-harden the header\",\"escapes\":3,\"by_model\":{\"branch-invert\":2,\"skip\":1},\"example_pc\":26,\"example_instruction\":\"blo @28\"},{\"function\":\"memcmp_secure\",\"region\":\"bb1\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":4,\"by_model\":{\"skip\":4},\"example_pc\":21,\"example_instruction\":\"str r2, [sp, #32]\"},{\"function\":\"memcmp_secure\",\"region\":\"bb2\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":72,\"by_model\":{\"skip\":72},\"example_pc\":38,\"example_instruction\":\"ldr r0, [sp, #8]\"},{\"function\":\"memcmp_secure\",\"region\":\"bb3\",\"category\":\"if-then-else\",\"countermeasure\":\"an-code the branch, cfi-link its edges, skip-harden the block\",\"escapes\":4,\"by_model\":{\"branch-invert\":2,\"skip\":2},\"example_pc\":89,\"example_instruction\":\"beq @91\"},{\"function\":\"memcmp_secure\",\"region\":\"bb3\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":7,\"by_model\":{\"skip\":7},\"example_pc\":83,\"example_instruction\":\"ldr r2, [r0, #0]\"},{\"function\":\"pin_check\",\"region\":\"prologue\",\"category\":\"call-return\",\"countermeasure\":\"cfi the call/return edges, skip-harden the prologue\",\"escapes\":1,\"by_model\":{\"skip\":1},\"example_pc\":131,\"example_instruction\":\"bl @0\"},{\"function\":\"pin_check\",\"region\":\"bb0\",\"category\":\"if-then-else\",\"countermeasure\":\"an-code the branch, cfi-link its edges, skip-harden the block\",\"escapes\":3,\"by_model\":{\"branch-invert\":2,\"skip\":1},\"example_pc\":114,\"example_instruction\":\"bhs @116\"},{\"function\":\"pin_check\",\"region\":\"bb0\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":5,\"by_model\":{\"skip\":5},\"example_pc\":108,\"example_instruction\":\"ldr r2, [r0, #0]\"},{\"function\":\"pin_check\",\"region\":\"bb2\",\"category\":\"if-then-else\",\"countermeasure\":\"an-code the branch, cfi-link its edges, skip-harden the block\",\"escapes\":4,\"by_model\":{\"branch-invert\":2,\"skip\":2},\"example_pc\":137,\"example_instruction\":\"beq @139\"},{\"function\":\"pin_check\",\"region\":\"bb2\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":10,\"by_model\":{\"skip\":10},\"example_pc\":124,\"example_instruction\":\"mov r2, #4096\"},{\"function\":\"pin_check\",\"region\":\"bb3\",\"category\":\"data-corruption\",\"countermeasure\":\"skip-harden the region (duplicate idempotent instructions)\",\"escapes\":1,\"by_model\":{\"skip\":1},\"example_pc\":149,\"example_instruction\":\"mov r0, #42405\"}]}";
