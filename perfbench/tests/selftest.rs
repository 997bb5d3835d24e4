//! Self-tests of the benchmark: its metric list against `BENCHMARK.json`,
//! its oracle check, its tail-percentile helper, and a one-op smoke run of
//! every workload, end-to-end and traced.

use std::collections::BTreeMap;
use std::path::PathBuf;

use secbranch_gridd::catalog;
use secbranch_perfbench::grid::{self, Grid};
use secbranch_perfbench::layers::PER_LAYER;
use secbranch_perfbench::stats::{median, tail};
use secbranch_perfbench::{run, Options, RunReport, END_TO_END, WORKLOADS};

/// A minimal JSON value, enough to read `BENCHMARK.json` and the result
/// line back.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = parser.value();
        parser.skip_ws();
        assert_eq!(parser.at, text.len(), "trailing bytes after the JSON value");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(map) => map.keys().map(String::as_str).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "expected {:?}",
            byte as char
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        self.bytes[self.at]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                while self.peek() != b'}' {
                    let Json::String(key) = self.value() else {
                        panic!("object keys are strings")
                    };
                    self.eat(b':');
                    assert!(map.insert(key, self.value()).is_none(), "duplicate key");
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b'}');
                Json::Object(map)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                while self.peek() != b']' {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    }
                }
                self.eat(b']');
                Json::Array(items)
            }
            b'"' => {
                self.at += 1;
                let start = self.at;
                while self.bytes[self.at] != b'"' {
                    assert_ne!(self.bytes[self.at], b'\\', "no escapes expected here");
                    self.at += 1;
                }
                self.at += 1;
                Json::String(String::from_utf8(self.bytes[start..self.at - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.bytes[self.at..].starts_with(word.as_bytes()) {
                        self.at += word.len();
                        return value;
                    }
                }
                panic!("bad literal at byte {}", self.at)
            }
            _ => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn spec_metrics(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

/// A run of `workload` whose every timed loop is one op (`--seconds 0`).
fn smoke(workload: &str, trace: bool) -> RunReport {
    let workdir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("pb-{workload}-{}", u8::from(trace)));
    let options = Options::parse(
        [
            "--workload",
            workload,
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--workdir",
            workdir.to_str().expect("utf-8 path"),
        ]
        .map(String::from),
    )
    .expect("smoke options parse");
    let report = run(&options).unwrap_or_else(|e| panic!("{workload} smoke run: {e}"));
    let _ = std::fs::remove_dir_all(&workdir);
    report
}

/// The result line parses, has exactly the contract's keys, and names
/// every metric of `section` with its unit.
fn assert_prints_section(report: &RunReport, section: &str) {
    let line = Json::parse(&report.to_json());
    assert_eq!(line.keys(), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        &Json::Bool(true),
        "notes: {:?}",
        report.notes
    );
    assert_eq!(line.get("failed"), &Json::Number(0.0));
    let metrics = line.get("metrics");
    let spec = spec_metrics(section);
    assert_eq!(
        metrics.keys().len(),
        spec.len(),
        "exactly the {section} metrics"
    );
    for (name, unit) in spec {
        let metric = metrics.get(&name);
        assert_eq!(metric.get("unit").str(), unit, "unit of {name}");
        assert!(
            matches!(metric.get("value"), Json::Number(_)),
            "{name} has a value"
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_benchmark_prints() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    assert_eq!(spec_metrics("end_to_end"), e2e);
    let mut layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    layers.push(("obs.trace_overhead_pct".to_string(), "%".to_string()));
    assert_eq!(spec_metrics("per_layer"), layers);
    // Every gated workload runs; `grid_cold` and `advise` run but are not
    // gated (see the README's noise section).
    for workload in benchmark_json().get("workloads").items() {
        let name = workload.get("name").str();
        assert!(WORKLOADS.contains(&name), "{name} is a runnable workload");
    }
}

#[test]
fn every_workload_completes_one_checked_op_and_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let report = smoke(workload, false);
        assert_eq!(report.attempted, 1, "{workload}: one op");
        assert_prints_section(&report, "end_to_end");
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{workload}: every end-to-end metric is positive: {:?}",
            report.metrics
        );
        for printed in ["op_tail_ms = ", "failed_frac = 0 "] {
            assert!(
                report.notes.iter().any(|n| n.starts_with(printed)),
                "{workload} prints {printed:?}: {:?}",
                report.notes
            );
        }
    }
}

#[test]
fn every_traced_workload_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        let report = smoke(workload, true);
        assert_eq!(
            report.attempted, 2,
            "{workload}: one untraced and one traced op"
        );
        assert_prints_section(&report, "per_layer");
    }
}

#[test]
fn the_oracle_check_flags_one_changed_escape_count() {
    let oracle = Grid::new(0).oracle().expect("oracle runs");
    let json = oracle.to_json();
    assert_eq!(grid::check_against_oracle(&oracle, &json, &json), Ok(()));

    let mut tampered = oracle.clone();
    let cell = &mut tampered.cells[7];
    cell.report.counts.wrong_result_undetected += 1;
    let named = format!("{} / {} / {}", cell.workload, cell.pipeline, cell.model);
    let error = grid::check_against_oracle(&oracle, &json, &tampered.to_json())
        .expect_err("a changed escape count is a wrong report");
    assert!(error.contains(&named), "{error} names {named}");
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&samples);
    assert_eq!(t.value, 90.0, "p90: ten samples (91..=100) lie beyond it");
    assert_eq!((t.percentile, t.samples, t.beyond), (90.0, 100, 10));
    assert_eq!(t.describe(), "p90 of 100 samples, 10 beyond it");

    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples);
    assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));

    let samples: Vec<f64> = (1..=999).map(f64::from).collect();
    let t = tail(&samples);
    assert_eq!(
        (t.value, t.percentile),
        (950.0, 95.0),
        "p99 has only 9 beyond"
    );

    let t = tail(&[3.0, 9.0, 1.0]);
    assert_eq!(
        (t.value, t.samples),
        (9.0, 3),
        "too few samples: the maximum"
    );
    assert!(t.describe().contains("too few"));

    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn seed_zero_reproduces_the_catalog_grid() {
    assert_eq!(grid::model_seeds(0), grid::CATALOG_SEEDS);
    let grid = Grid::new(0);
    for (model, name) in grid.models.iter().zip(grid::MODELS) {
        let catalog = catalog::model(name, grid::TRIALS).expect("catalog model");
        assert_eq!(model.fingerprint(), catalog.fingerprint(), "{name}");
    }
    let other = Grid::new(7);
    assert_ne!(
        other.models[1].fingerprint(),
        grid.models[1].fingerprint(),
        "another seed draws other double-skip samples"
    );
}
