//! The per-layer probes of the traced run. Each probe calls one crate's
//! public entry points from outside, under a `secbranch::obs` span named
//! after the metric, and times the call with the benchmark's own clock.
//! Probes always run the seed-0 grid (the one `gridd` serves), so layer
//! numbers compare across workloads and seeds.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use secbranch::armv7m::{ExecResult, Program};
use secbranch::campaign::{
    record_reference, CampaignReport, CampaignRunner, CellKey, FaultModel, MatrixExecutor,
    MatrixJob, RecordedReference, SharedModule, SuffixIndex, TraceStore,
};
use secbranch::obs;
use secbranch::store::codec::{decode_report, encode_cell_payload, encode_report};
use secbranch::store::GridStore;
use secbranch::{Artifact, Pipeline, Session, Workload};
use secbranch_advisor::{Categorizer, SelectiveHardening};
use secbranch_gridd::catalog;
use secbranch_gridd::protocol::{decode_done, encode_done, read_frame, write_frame, RESP_DONE};

use crate::grid::{Grid, MAX_STEPS};
use crate::stats::median;
use crate::workloads::{RunningDaemon, ADVISE_WORKLOADS};
use crate::{nproc, Counters, Metric, Options};

/// How many times the probe suite repeats; timings are medians over all
/// repetitions, counters must repeat exactly.
pub const PROBE_REPS: usize = 5;
/// Fault-free runs of every grid artifact per repetition, for the guest
/// step rate.
const STEP_ROUNDS: usize = 20;
/// Warm `gridd` requests per repetition.
const GRIDD_REQUESTS: usize = 2;

/// Per-layer metrics, with their units, in output order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("core.build_us", "us"),
    ("core.build_cache_misses", "count"),
    ("armv7m.decode_us", "us"),
    ("armv7m.guest_steps_per_s", "1/s"),
    ("armv7m.reference_steps", "count"),
    ("campaign.record_us", "us"),
    ("campaign.suffix_index_us", "us"),
    ("campaign.exec_ms.skip", "ms"),
    ("campaign.exec_ms.double-skip", "ms"),
    ("campaign.exec_ms.register-flip", "ms"),
    ("campaign.exec_ms.memory-flip", "ms"),
    ("campaign.exec_ms.branch-invert", "ms"),
    ("campaign.runner_ms", "ms"),
    ("campaign.injections", "count"),
    ("campaign.snapshot_restores", "count"),
    ("campaign.suffix_steps_saved", "count"),
    ("campaign.loop_proofs", "count"),
    ("campaign.loop_steps_saved", "count"),
    ("campaign.trace_hit_ratio", "ratio"),
    ("campaign.cell_hit_ratio", "ratio"),
    ("store.put_cell_us", "us"),
    ("store.put_trace_us", "us"),
    ("store.get_cell_us", "us"),
    ("store.encode_report_us", "us"),
    ("store.decode_report_us", "us"),
    ("store.cell_record_bytes", "count"),
    ("store.writes", "count"),
    ("store.write_errors", "count"),
    ("store.corrupt_dropped", "count"),
    ("gridd.server_ms", "ms"),
    ("gridd.post_server_ms", "ms"),
    ("gridd.encode_done_us", "us"),
    ("gridd.decode_done_us", "us"),
    ("gridd.frame_us", "us"),
    ("gridd.done_bytes", "count"),
    ("gridd.request_errors", "count"),
    ("gridd.computed_cells", "count"),
    ("gridd.coalesced_cells", "count"),
    ("advisor.advise_ms.password_check", "ms"),
    ("advisor.advise_ms.pin_retry", "ms"),
    ("advisor.categorize_us", "us"),
    ("advisor.rounds", "count"),
];

/// What the probe suite measured.
pub(crate) struct ProbeReport {
    /// Every probe's output checked out and every counter repeated.
    pub correct: bool,
    /// Every [`PER_LAYER`] metric except the run-level
    /// `obs.trace_overhead_pct`.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (failures, counters).
    pub notes: Vec<String>,
}

/// Timing samples by metric name, in microseconds.
#[derive(Default)]
struct Timings(BTreeMap<String, Vec<f64>>);

impl Timings {
    /// Runs `f` under an obs span `label` (detail: the metric name) and
    /// records its duration under `metric`.
    fn time<T>(&mut self, label: &'static str, metric: &str, f: impl FnOnce() -> T) -> T {
        let _span = obs::span_with(label, || metric.to_string());
        let started = Instant::now();
        let value = f();
        self.record(metric, started.elapsed().as_secs_f64() * 1e6);
        value
    }

    fn record(&mut self, metric: &str, micros: f64) {
        self.0.entry(metric.to_string()).or_default().push(micros);
    }

    fn median(&self, metric: &str) -> f64 {
        self.0.get(metric).map_or(0.0, |samples| median(samples))
    }
}

/// One grid artifact and how to call it.
struct Cell<'a> {
    artifact: Artifact,
    workload: &'a Workload,
}

impl Cell<'_> {
    fn source(&self) -> SharedModule<'_> {
        SharedModule {
            compiled: self.artifact.compiled(),
            memory_size: self.artifact.sim().memory_size,
        }
    }

    fn run(&self) -> Result<ExecResult, String> {
        self.artifact
            .run(&self.workload.entry, &self.workload.args)
            .map_err(|e| format!("fault-free run of {}: {e}", self.workload.name))
    }
}

/// Runs the probe suite [`PROBE_REPS`] times.
///
/// # Errors
///
/// Failures that stop a probe from running at all (a failing build or
/// reference run, an unbindable daemon). Wrong outputs are reported in
/// [`ProbeReport::correct`].
pub(crate) fn probe(options: &Options, run_dir: &Path) -> Result<ProbeReport, String> {
    let _span = obs::span("perfbench.probes");
    let threads = nproc();
    let grid = Grid::new(0);
    let oracle = grid.oracle()?;
    let oracle_json = oracle.to_json();
    let daemon = RunningDaemon::start_warm(
        &run_dir.join("probe-gridd.sock"),
        &run_dir.join("probe-served"),
        threads,
    )?;
    let mut probe = Probe {
        grid: &grid,
        oracle_reports: oracle.cells.iter().map(|c| &c.report).collect(),
        oracle_json: &oracle_json,
        threads,
        timings: Timings::default(),
        errors: Vec::new(),
    };
    let mut first_counters: Option<Counters> = None;
    let mut guest_steps_per_s = Vec::new();
    let mut outcome = Ok(());
    for rep in 0..PROBE_REPS {
        let mut counters = Counters::default();
        match probe.rep(
            &daemon,
            &run_dir.join(format!("probe-{rep}")),
            &mut counters,
        ) {
            Ok(rate) => guest_steps_per_s.push(rate),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
        match &first_counters {
            None => first_counters = Some(counters),
            Some(first) if *first == counters => {}
            Some(first) => probe.errors.push(format!(
                "probe counters changed between repetitions: {first} then {counters}"
            )),
        }
    }
    let daemon_stats = daemon
        .client()
        .and_then(|mut c| c.stats().map_err(|e| format!("daemon stats: {e}")));
    daemon.stop();
    outcome?;
    let daemon_stats = daemon_stats?;
    let mut counters = first_counters.expect("at least one probe repetition");
    // The daemon's totals include its warming request.
    counters.set("gridd.request_errors", daemon_stats.request_errors);
    counters.set("gridd.computed_cells", daemon_stats.computed_cells);
    counters.set("gridd.coalesced_cells", daemon_stats.coalesced_cells);

    let cells = grid.cells() as f64;
    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = match *unit {
                "us" => probe.timings.median(name),
                "ms" => probe.timings.median(name) / 1e3,
                "count" => counters.get(name) as f64,
                "1/s" => median(&guest_steps_per_s),
                _ if *name == "campaign.trace_hit_ratio" => {
                    counters.get("cold_trace_hits") as f64 / cells
                }
                _ => counters.get("warm_cell_hits") as f64 / cells,
            };
            Metric::new(*name, value, unit)
        })
        .collect();
    let mut notes: Vec<String> = probe
        .errors
        .iter()
        .map(|e| format!("FAILED probe: {e}"))
        .collect();
    notes.push(format!(
        "layer probes: {PROBE_REPS} repetitions on the seed-0 grid (options: seed {} not \
         applied to probes); probe counters (identical on every repetition): {counters}",
        options.seed
    ));
    Ok(ProbeReport {
        correct: probe.errors.is_empty(),
        metrics,
        notes,
    })
}

struct Probe<'a> {
    grid: &'a Grid,
    /// The oracle's reports, in grid cell order.
    oracle_reports: Vec<&'a CampaignReport>,
    oracle_json: &'a str,
    threads: usize,
    timings: Timings,
    errors: Vec<String>,
}

impl<'a> Probe<'a> {
    /// One repetition of every probe. Returns the guest step rate.
    fn rep(
        &mut self,
        daemon: &RunningDaemon,
        dir: &Path,
        counters: &mut Counters,
    ) -> Result<f64, String> {
        let cells = self.build_and_decode()?;
        let rate = self.guest_steps(&cells, counters)?;
        let recorded = self.record_and_index(&cells)?;
        let reports = self.execute(&cells, counters)?;
        self.store(&cells, &recorded, &reports, &dir.join("store"), counters)?;
        self.session(&dir.join("session"), counters)?;
        self.gridd(daemon, counters)?;
        self.advisor(counters)?;
        let _ = std::fs::remove_dir_all(dir);
        Ok(rate)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// `core.build_us` per grid artifact, then `armv7m.decode_us`: the
    /// first decode of each freshly built program.
    fn build_and_decode(&mut self) -> Result<Vec<Cell<'a>>, String> {
        let mut cells = Vec::new();
        let grid = self.grid;
        for workload in &grid.workloads {
            for pipeline in &grid.pipelines {
                let artifact = self
                    .timings
                    .time("core", "core.build_us", || pipeline.build(&workload.module))
                    .map_err(|e| format!("building {}: {e}", workload.name))?;
                cells.push(Cell { artifact, workload });
            }
        }
        for cell in &cells {
            let program: &Program = &cell.artifact.compiled().program;
            self.timings.time("armv7m", "armv7m.decode_us", || {
                black_box(program.decoded());
            });
        }
        Ok(cells)
    }

    /// Guest steps of fault-free `Artifact::run` calls per host second.
    fn guest_steps(&mut self, cells: &[Cell<'_>], counters: &mut Counters) -> Result<f64, String> {
        for cell in cells {
            counters.add("armv7m.reference_steps", cell.run()?.instructions);
        }
        let _span = obs::span("armv7m");
        let started = Instant::now();
        let mut steps = 0;
        for _ in 0..STEP_ROUNDS {
            for cell in cells {
                steps += black_box(cell.run()?).instructions;
            }
        }
        Ok(steps as f64 / started.elapsed().as_secs_f64())
    }

    /// `campaign.record_us` (`record_reference`) and
    /// `campaign.suffix_index_us` (`SuffixIndex::build`) per artifact.
    fn record_and_index(&mut self, cells: &[Cell<'_>]) -> Result<Vec<RecordedReference>, String> {
        let mut recorded = Vec::with_capacity(cells.len());
        for cell in cells {
            let (entry, args) = (&cell.workload.entry, &cell.workload.args);
            let source = cell.source();
            let reference = self
                .timings
                .time("campaign", "campaign.record_us", || {
                    record_reference(&source, entry, args, MAX_STEPS)
                })
                .map_err(|e| format!("recording {}: {e}", cell.workload.name))?;
            let mut simulator = cell.artifact.simulator();
            let index = self
                .timings
                .time("campaign", "campaign.suffix_index_us", || {
                    SuffixIndex::build(&mut simulator, entry, args, MAX_STEPS, &reference.trace)
                });
            let name = &cell.workload.name;
            self.check(index.is_some(), || {
                format!("suffix index of {name} diverged")
            });
            recorded.push(reference);
        }
        Ok(recorded)
    }

    /// `campaign.exec_ms.<model>`: `MatrixExecutor::run` on one model's
    /// jobs against a trace store that already holds every reference.
    /// Returns the reports in grid cell order.
    fn execute(
        &mut self,
        cells: &[Cell<'_>],
        counters: &mut Counters,
    ) -> Result<Vec<CampaignReport>, String> {
        let store = TraceStore::new();
        let sources: Vec<SharedModule<'_>> = cells.iter().map(Cell::source).collect();
        for (cell, source) in cells.iter().zip(&sources) {
            let (entry, args) = (&cell.workload.entry, &cell.workload.args);
            store
                .reference(
                    &cell.artifact.trace_key(entry, args),
                    source,
                    entry,
                    args,
                    MAX_STEPS,
                )
                .map_err(|e| format!("priming the trace store: {e}"))?;
        }
        let executor = MatrixExecutor::new().with_threads(self.threads);
        let models = self.grid.models.len();
        let mut reports = vec![None; cells.len() * models];
        for (m, model) in self.grid.models.iter().enumerate() {
            let model: &dyn FaultModel = &**model;
            let jobs: Vec<MatrixJob<'_>> = cells
                .iter()
                .zip(&sources)
                .map(|(cell, source)| MatrixJob {
                    source,
                    key: cell
                        .artifact
                        .trace_key(&cell.workload.entry, &cell.workload.args),
                    entry: cell.workload.entry.clone(),
                    args: cell.workload.args.clone(),
                    max_steps: MAX_STEPS,
                    model,
                })
                .collect();
            let results = self
                .timings
                .time(
                    "campaign",
                    &format!("campaign.exec_ms.{}", model.name()),
                    || executor.run(&jobs, &store),
                )
                .map_err(|e| format!("matrix executor: {e}"))?;
            for (a, result) in results.into_iter().enumerate() {
                counters.add("campaign.injections", result.report.counts.total());
                counters.add("campaign.snapshot_restores", result.snapshot_restores);
                counters.add("campaign.suffix_steps_saved", result.suffix_steps_saved);
                counters.add("campaign.loop_proofs", result.loop_proofs);
                counters.add("campaign.loop_steps_saved", result.loop_steps_saved);
                reports[a * models + m] = Some(result.report);
            }
        }
        let reports: Vec<CampaignReport> = reports.into_iter().flatten().collect();
        for (i, (report, expected)) in reports.iter().zip(&self.oracle_reports).enumerate() {
            if report != *expected {
                self.errors
                    .push(format!("matrix executor cell {i} differs from the oracle"));
            }
        }
        Ok(reports)
    }

    /// `store.*`: the grid's traces and cells through a fresh `GridStore`,
    /// and the report codec alone.
    fn store(
        &mut self,
        cells: &[Cell<'_>],
        recorded: &[RecordedReference],
        reports: &[CampaignReport],
        dir: &Path,
        counters: &mut Counters,
    ) -> Result<(), String> {
        let store = GridStore::open(dir).map_err(|e| format!("opening the probe store: {e}"))?;
        for (cell, reference) in cells.iter().zip(recorded) {
            let key = cell
                .artifact
                .trace_key(&cell.workload.entry, &cell.workload.args);
            self.timings.time("store", "store.put_trace_us", || {
                store.put_trace(&key, reference)
            });
        }
        let models = self.grid.models.len();
        let keys: Vec<CellKey> = reports
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let cell = &cells[i / models];
                CellKey::new(
                    cell.artifact.artifact_fingerprint(),
                    self.grid.models[i % models].fingerprint(),
                    &cell.workload.entry,
                    &cell.workload.args,
                )
            })
            .collect();
        for (key, report) in keys.iter().zip(reports) {
            self.timings
                .time("store", "store.put_cell_us", || store.put_cell(key, report));
            counters.add(
                "store.cell_record_bytes",
                encode_cell_payload(key, report).len() as u64,
            );
        }
        for (key, report) in keys.iter().zip(reports) {
            let read = self
                .timings
                .time("store", "store.get_cell_us", || store.get_cell(key));
            self.check(read.as_ref() == Some(report), || {
                format!("store returned a different cell for {}", key.artifact)
            });
        }
        for report in reports {
            let bytes = self
                .timings
                .time("store", "store.encode_report_us", || encode_report(report));
            let decoded = self
                .timings
                .time("store", "store.decode_report_us", || decode_report(&bytes));
            self.check(decoded.as_ref() == Ok(report), || {
                "report codec round trip changed a report".to_string()
            });
        }
        let stats = store.stats();
        counters.add("store.writes", stats.writes);
        counters.add("store.write_errors", stats.write_errors);
        counters.add("store.corrupt_dropped", stats.corrupt_dropped);
        Ok(())
    }

    /// The cache ratios and build-cache misses of whole-grid sessions: a
    /// cold grid on a fresh store, then a fresh session on the same store.
    fn session(&mut self, dir: &Path, counters: &mut Counters) -> Result<(), String> {
        let store = std::sync::Arc::new(
            GridStore::open(dir).map_err(|e| format!("opening the session store: {e}"))?,
        );
        let executor = MatrixExecutor::new().with_threads(self.threads);
        for pass in ["cold", "warm"] {
            let mut session = Session::new();
            let report = session
                .security_matrix_with(
                    &executor,
                    &self.grid.workloads,
                    &self.grid.pipelines,
                    &self.grid.model_refs(),
                    Some(&store),
                )
                .map_err(|e| format!("{pass} session grid: {e}"))?;
            let same = report.to_json() == self.oracle_json;
            self.check(same, || {
                format!("{pass} session grid differs from the oracle")
            });
            let stats = &report.stats;
            if pass == "cold" {
                counters.add("cold_trace_hits", stats.trace_hits + stats.trace_disk_hits);
                counters.add("core.build_cache_misses", session.cache_misses());
            } else {
                counters.add("warm_cell_hits", stats.cell_hits);
            }
        }
        Ok(())
    }

    /// `gridd.*`: warm requests timed on the client against the server's
    /// own figure, and the DONE payload through the codec and framing.
    fn gridd(&mut self, daemon: &RunningDaemon, counters: &mut Counters) -> Result<(), String> {
        let mut client = daemon.client()?;
        let request = Grid::request();
        for _ in 0..GRIDD_REQUESTS {
            let started = Instant::now();
            let done = {
                let _span = obs::span_with("gridd", || "gridd.request".to_string());
                client.request_grid(&request, |_| {})
            }
            .map_err(|e| format!("probe grid request: {e}"))?;
            let client_micros = started.elapsed().as_secs_f64() * 1e6;
            let server_micros = done.wall_micros as f64;
            self.timings.record("gridd.server_ms", server_micros);
            self.timings
                .record("gridd.post_server_ms", client_micros - server_micros);
            self.check(
                done.computed_cells == 0 && done.report_json == self.oracle_json,
                || "warm probe request simulated or differs from the oracle".to_string(),
            );
            let payload = self
                .timings
                .time("gridd", "gridd.encode_done_us", || encode_done(&done));
            let decoded = self
                .timings
                .time("gridd", "gridd.decode_done_us", || decode_done(&payload));
            self.check(decoded.as_ref() == Ok(&done), || {
                "DONE codec round trip changed the frame".to_string()
            });
            let framed = self.timings.time("gridd", "gridd.frame_us", || {
                let mut wire = Vec::with_capacity(payload.len() + 64);
                write_frame(&mut wire, RESP_DONE, &payload)
                    .map_err(|e| e.to_string())
                    .and_then(|()| read_frame(&mut wire.as_slice()).map_err(|e| e.to_string()))
            });
            self.check(framed.is_ok_and(|f| f.payload == payload), || {
                "DONE framing round trip changed the payload".to_string()
            });
            counters.set("gridd.done_bytes", payload.len() as u64);
        }
        Ok(())
    }

    /// `campaign.runner_ms` (`CampaignRunner::run`, skip and branch-invert,
    /// on the advise targets' unprotected builds), `advisor.categorize_us`
    /// and `advisor.advise_ms.<target>`.
    fn advisor(&mut self, counters: &mut Counters) -> Result<(), String> {
        let runner = CampaignRunner::new().with_threads(self.threads);
        let hardening = SelectiveHardening::new()
            .with_threads(self.threads)
            .with_max_steps(MAX_STEPS);
        let models: [&dyn FaultModel; 2] = [
            &secbranch::campaign::InstructionSkip,
            &secbranch::campaign::BranchInversion,
        ];
        let mut runner_micros = 0.0;
        for name in ADVISE_WORKLOADS {
            let workload = catalog::workload(name).expect("advise targets are catalog names");
            let artifact = Pipeline::new()
                .with_label("unprotected")
                .with_max_steps(MAX_STEPS)
                .build(&workload.module)
                .map_err(|e| format!("building {name}: {e}"))?;
            let cell = Cell {
                artifact,
                workload: &workload,
            };
            let source = cell.source();
            let mut reports = Vec::new();
            for model in models {
                let _span = obs::span_with("campaign", || format!("campaign.runner {name}"));
                let started = Instant::now();
                let report = runner
                    .run(&source, &workload.entry, &workload.args, MAX_STEPS, model)
                    .map_err(|e| format!("campaign runner on {name}: {e}"))?;
                runner_micros += started.elapsed().as_secs_f64() * 1e6;
                reports.push(report);
            }
            let program = &cell.artifact.compiled().program;
            let escapes = self.timings.time("advisor", "advisor.categorize_us", || {
                let categorizer = Categorizer::new(&workload.module, program);
                reports
                    .iter()
                    .map(|r| categorizer.categorize_report(r).len())
                    .sum::<usize>()
            });
            counters.add("categorized_escapes", escapes as u64);
            let outcome = self
                .timings
                .time("advisor", &format!("advisor.advise_ms.{name}"), || {
                    hardening.advise(&workload)
                })
                .map_err(|e| format!("advise {name}: {e}"))?;
            self.check(outcome.converged, || {
                format!("advice on {name} did not converge")
            });
            counters.add("advisor.rounds", outcome.rounds.len() as u64);
        }
        self.timings.record("campaign.runner_ms", runner_micros);
        Ok(())
    }
}
