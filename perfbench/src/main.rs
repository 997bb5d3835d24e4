//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`: runs one
//! workload and prints its metrics; the last line of standard output is
//! the JSON result. Exits 1 when any output was wrong, 2 on a usage error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let options = match secbranch_perfbench::Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] \
                 [--workdir DIR]",
                secbranch_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match secbranch_perfbench::run(&options) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for metric in &report.metrics {
                println!("{} = {} {}", metric.name, metric.value, metric.unit);
            }
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: outputs were wrong or work counters changed (see above)");
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
