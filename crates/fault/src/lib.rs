//! Arithmetic-level fault simulation of the encoded condition computation.
//!
//! [`condition`] reproduces the paper's coding-theory result (Section VI):
//! `k` bit flips are placed at random locations over all intermediate values
//! of Algorithm 1/2 and the outcome is classified (detected / masked /
//! undetected decision flip). This regenerates the "error detectability is
//! reduced to 3 bits … with four bits the rate of an undetected condition
//! flip is 0.0002 %" result.
//!
//! Instruction-level campaigns on the ARMv7-M simulator (instruction skips,
//! register and memory bit flips, branch inversion) live in
//! `secbranch-campaign` and run through `Artifact::campaign`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;

pub use condition::{ConditionCampaign, ConditionOutcomeCounts, FaultLocation};

/// Instruction-level checks of the Section VI skip result, run on the
/// ARMv7-M simulator through the campaign engine's oracle runner.
#[cfg(test)]
mod simulation {
    mod tests {
        use secbranch_armv7m::Simulator;
        use secbranch_campaign::{CampaignRunner, InstructionSkip, Outcome, OutcomeCounts};
        use secbranch_codegen::{compile, CfiLevel, CodegenOptions};
        use secbranch_passes::{standard_protection_pipeline, AnCoderConfig};
        use secbranch_programs::integer_compare_module;

        fn protected_simulator() -> Simulator {
            let mut module = integer_compare_module();
            standard_protection_pipeline(AnCoderConfig::default())
                .run(&mut module)
                .expect("pipeline");
            compile(
                &module,
                &CodegenOptions {
                    cfi: CfiLevel::Full,
                    ..CodegenOptions::default()
                },
            )
            .expect("compiles")
            .into_simulator(64 * 1024)
        }

        fn unprotected_simulator() -> Simulator {
            let module = integer_compare_module();
            compile(
                &module,
                &CodegenOptions {
                    cfi: CfiLevel::None,
                    ..CodegenOptions::default()
                },
            )
            .expect("compiles")
            .into_simulator(64 * 1024)
        }

        #[test]
        fn skip_sweep_shows_the_protected_variant_is_much_harder_to_attack() {
            // Single skips on the plain input data before it enters the
            // encoded domain, and skips inside the encoded-compare sequence
            // (block-granular CFI), keep the protected success rate above
            // zero; it must still be strictly below the unprotected one.
            let runner = CampaignRunner::new();
            let args = [1234, 4321];
            let protected = runner
                .run(
                    &protected_simulator(),
                    "integer_compare",
                    &args,
                    1_000_000,
                    &InstructionSkip,
                )
                .expect("runs");
            let unprotected = runner
                .run(
                    &unprotected_simulator(),
                    "integer_compare",
                    &args,
                    1_000_000,
                    &InstructionSkip,
                )
                .expect("runs");
            assert_eq!(protected.reference.return_value, 0);
            assert!(protected.counts.detected > 0);
            assert!(
                protected.counts.attack_success_rate() < unprotected.counts.attack_success_rate(),
                "protected {:?} vs unprotected {:?}",
                protected.counts,
                unprotected.counts
            );
        }

        #[test]
        fn unprotected_variant_is_vulnerable_to_instruction_skips() {
            let unprotected = CampaignRunner::new()
                .run(
                    &unprotected_simulator(),
                    "integer_compare",
                    &[1234, 4321],
                    100_000,
                    &InstructionSkip,
                )
                .expect("runs");
            assert_eq!(unprotected.reference.return_value, 0);
            assert!(
                unprotected.counts.wrong_result_undetected > 0,
                "skipping the branch of the unprotected variant must flip the decision"
            );
        }

        #[test]
        fn outcome_counts_arithmetic() {
            let mut counts = OutcomeCounts::default();
            counts.record(Outcome::Masked);
            counts.record(Outcome::Detected);
            counts.record(Outcome::Crashed);
            counts.record(Outcome::WrongResultUndetected);
            assert_eq!(counts.total(), 4);
            assert!((counts.attack_success_rate() - 0.25).abs() < 1e-12);
        }
    }
}
