//! The repository's benchmark: four workloads (`grid_cold`,
//! `grid_cold_nostore`, `grid_warm_served`, `advise`), each a closed loop
//! of one user-visible operation whose every output is checked, plus a
//! traced run that times each layer's public entry points from outside.
//! See `README.md` for what each workload and metric means.
//!
//! Every time is read from the benchmark's own monotonic clock
//! ([`Instant`]); none of the program's self-reported CPU-time fields is
//! used.

#![forbid(unsafe_code)]

pub mod grid;
pub mod layers;
pub mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use secbranch::obs;

/// The workloads, by the name `--workload` takes. `BENCHMARK.json` gates
/// `grid_cold_nostore` and `grid_warm_served`: `grid_cold`'s store writes
/// make it too unsteady to gate on the host it was sized on, and `advise`
/// is left out so that the gated runs can be long (see `README.md`).
pub const WORKLOADS: [&str; 4] = [
    "grid_cold",
    "grid_cold_nostore",
    "grid_warm_served",
    "advise",
];

/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 15;

/// Spans of the traced half kept for the exported trace.
const TRACE_LOOP_EVENTS: usize = 100_000;

/// End-to-end metrics (`--trace 0`), with their units, in output order.
/// The run also prints `op_tail_ms` and `failed_frac` on lines of their
/// own; they are not result metrics (see `README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// The workload seed (drives the grid's sampling models on
    /// `grid_cold`).
    pub seed: u64,
    /// How long the timed loop runs, in seconds.
    pub seconds: f64,
    /// `false`: the end-to-end run; `true`: the traced per-layer run.
    pub trace: bool,
    /// Scratch directory for stores, sockets and the exported trace.
    pub workdir: PathBuf,
}

impl Options {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1
    /// [--workdir DIR]`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut options = Options {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            workdir: PathBuf::from("perfbench/work"),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => options.workload = value()?,
                "--seed" => options.seed = parse_number(&flag, &value()?)?,
                "--seconds" => options.seconds = parse_number(&flag, &value()?)?,
                "--trace" => {
                    options.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--workdir" => options.workdir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&options.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, not {:?}",
                WORKLOADS.join(", "),
                options.workload
            ));
        }
        if !(options.seconds.is_finite() && options.seconds >= 0.0) {
            return Err("--seconds must be a non-negative number".to_string());
        }
        Ok(options)
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, not {text:?}"))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Deterministic work counters of one op (or one probe repetition). They
/// must repeat exactly; a difference is a failure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: u64) {
        self.0.insert(name, value);
    }

    /// Adds `value` to `name`.
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_insert(0) += value;
    }

    /// The value of `name` (0 when never set).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        f.write_str(&parts.join(" "))
    }
}

/// One workload: a set-up product whose ops the closed loop drives.
pub(crate) trait Bench: Sync {
    /// Per-client state (a connection, or nothing).
    type Client: Send;
    /// What one op returns for checking.
    type Output;

    /// One client's state per load-generating thread.
    ///
    /// # Errors
    ///
    /// A failure to connect.
    fn clients(&self) -> Result<Vec<Self::Client>, String>;

    /// One op — the only timed call.
    ///
    /// # Errors
    ///
    /// The op's error.
    fn op(&self, client: &mut Self::Client) -> Result<Self::Output, String>;

    /// Checks one op's output (untimed) and returns its work counters.
    ///
    /// # Errors
    ///
    /// Why the output is wrong.
    fn check(&self, output: Self::Output) -> Result<Counters, String>;
}

/// What one closed-loop run measured.
#[derive(Debug, Default)]
pub(crate) struct LoopResult {
    /// Latency of every op, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Ops started.
    pub attempted: u64,
    /// Ops that errored, failed their check, or whose counters differed
    /// from the first op's.
    pub failed: u64,
    /// Host wall time of the whole loop, in seconds.
    pub wall_s: f64,
    /// The first op's counters (every other op must match them).
    pub counters: Option<Counters>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LoopResult {
    /// Completed, correct ops per second of wall time.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn record_failure(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// Runs `bench` as a closed loop: each client thread issues its next op
/// when the previous one returns, until `seconds` have passed. One op runs
/// in all even when `seconds` is 0, so `--seconds 0` is a one-op run.
///
/// # Errors
///
/// A failure to create the clients.
pub(crate) fn closed_loop<B: Bench>(bench: &B, seconds: f64) -> Result<LoopResult, String> {
    let clients = bench.clients()?;
    let started = AtomicU64::new(0);
    let result = Mutex::new(LoopResult::default());
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for mut client in clients {
            let (started, result) = (&started, &result);
            scope.spawn(move || loop {
                let n = started.fetch_add(1, Ordering::SeqCst);
                if n > 0 && Instant::now() >= deadline {
                    break;
                }
                let op_started = Instant::now();
                let output = {
                    let _span = obs::span("perfbench.op");
                    bench.op(&mut client)
                };
                let latency_ms = op_started.elapsed().as_secs_f64() * 1e3;
                let checked = output.and_then(|output| bench.check(output));
                let mut result = result.lock().expect("loop result lock");
                result.attempted += 1;
                result.latencies_ms.push(latency_ms);
                match checked {
                    Ok(counters) => match &result.counters {
                        None => result.counters = Some(counters),
                        Some(first) if *first == counters => {}
                        Some(first) => {
                            let message = format!(
                                "work counters changed: first op {first}, this op {counters}"
                            );
                            result.record_failure(message);
                        }
                    },
                    Err(error) => result.record_failure(error),
                }
            });
        }
    });
    let mut result = result.into_inner().expect("loop result lock");
    result.wall_s = begin.elapsed().as_secs_f64();
    Ok(result)
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Every output checked out and every counter repeated.
    pub correct: bool,
    /// Ops attempted (over every timed loop of the run).
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The metrics of this kind of run (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_string(s: &str) -> String {
    secbranch::campaign::json_string(s)
}

/// A JSON number with every digit of the measurement (non-finite values,
/// which JSON cannot carry, become 0 and are flagged by the caller's
/// checks).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Resets the process's peak resident set (VmHWM) to its current resident
/// set, so a later [`peak_rss_mb`] covers only what ran after this call.
///
/// # Errors
///
/// The kernel refused the reset (it needs Linux 4.0 or later).
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The process's peak resident set (VmHWM), in MiB.
#[must_use]
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads and client connections: the host's parallelism.
#[must_use]
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs one benchmark invocation.
///
/// # Errors
///
/// Set-up failures (a failing build, an unbindable socket, an unwritable
/// work directory). Op failures are counted in the report, not returned.
pub fn run(options: &Options) -> Result<RunReport, String> {
    let run_dir = options
        .workdir
        .join(format!("{}-{}", options.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.display()))?;
    let result = match options.workload.as_str() {
        "grid_cold" => workloads::grid_cold(options, &run_dir, true),
        "grid_cold_nostore" => workloads::grid_cold(options, &run_dir, false),
        "grid_warm_served" => workloads::grid_warm_served(options, &run_dir),
        "advise" => workloads::advise(options, &run_dir),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    // Commit the removal now, so its filesystem work does not spill into
    // whatever runs next.
    if let Ok(workdir) = std::fs::File::open(&options.workdir) {
        let _ = workdir.sync_all();
    }
    result
}

/// Drives one workload: repeated timed set-up, then either the end-to-end
/// loop or the traced run (an untraced and a traced half, then the layer
/// probes).
///
/// One set-up is `setup` followed by one warm-up op on the first client,
/// whose output is checked. The warm-up is part of set-up because the
/// state `setup` makes by itself takes microseconds on the `grid_cold`
/// workloads and `advise`, too little to time steadily, while work a later change moves
/// out of the op and into state built on first use lands in the warm-up.
///
/// # Errors
///
/// Set-up failures, a failing warm-up op among them.
pub(crate) fn drive<B: Bench>(
    options: &Options,
    run_dir: &Path,
    mut report: RunReport,
    mut setup: impl FnMut(usize) -> Result<B, String>,
    teardown: impl Fn(B),
) -> Result<RunReport, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let made = setup(rep)?;
        if let Err(e) = warm_up(&made) {
            teardown(made);
            return Err(format!("warm-up op: {e}"));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(previous) = bench.replace(made) {
            teardown(previous);
        }
    }
    let bench = bench.expect("set-up ran at least once");

    if !options.trace {
        // The peak of set-up (for `grid_warm_served`, daemons that each
        // compute the whole grid) and of the oracle is not the loop's.
        if let Err(e) = reset_peak_rss() {
            report.notes.push(format!(
                "peak_rss_mb includes set-up and the oracle: the kernel refused to reset the \
                 peak ({e})"
            ));
        }
        let measured = closed_loop(&bench, options.seconds);
        teardown(bench);
        let measured = measured?;
        account(&mut report, &measured, "");
        let tail = stats::tail(&measured.latencies_ms);
        report.notes.push(format!(
            "op_tail_ms = {} ms, the {}",
            tail.value,
            tail.describe()
        ));
        report.notes.push(format!(
            "failed_frac = {} ({} of {} ops)",
            measured.failed as f64 / measured.attempted.max(1) as f64,
            measured.failed,
            measured.attempted
        ));
        let values = [
            measured.ops_per_s(),
            stats::median(&measured.latencies_ms),
            stats::median(&setup_s),
            peak_rss_mb(),
        ];
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric::new(*name, value, unit))
            .collect();
        return Ok(report);
    }

    // Traced run: the same loop untraced, then with a sink installed (the
    // program's own spans and the benchmark's land in it), then the layer
    // probes under the same sink.
    let half = options.seconds / 2.0;
    let untraced = closed_loop(&bench, half);
    let sink = Arc::new(obs::TraceSink::new());
    obs::install_sink(&sink);
    let traced =
        untraced.and_then(|untraced| closed_loop(&bench, half).map(|traced| (untraced, traced)));
    teardown(bench);
    // A cold grid op alone records thousands of spans: keep the first
    // ops' worth, enough to read where an op's time goes.
    let mut events = sink.take_events();
    let dropped = events.len().saturating_sub(TRACE_LOOP_EVENTS);
    events.truncate(TRACE_LOOP_EVENTS);
    let probed =
        traced.and_then(|traced| layers::probe(options, run_dir).map(|probe| (traced, probe)));
    obs::flush_thread();
    obs::uninstall_sink();
    events.extend(sink.take_events());
    let ((untraced, traced), probe) = probed?;
    account(&mut report, &untraced, "untraced half: ");
    account(&mut report, &traced, "traced half: ");
    if untraced.counters != traced.counters {
        report.correct = false;
        report
            .notes
            .push("FAILED: tracing changed the work counters".to_string());
    }
    report.correct &= probe.correct;
    report.notes.extend(probe.notes);
    report.metrics = probe.metrics;
    report.metrics.push(Metric::new(
        "obs.trace_overhead_pct",
        (untraced.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0,
        "%",
    ));
    let trace_path = options
        .workdir
        .join(format!("{}.trace.json", options.workload));
    std::fs::write(&trace_path, obs::chrome_trace_json(&events))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    report.notes.push(format!(
        "trace: {} span(s) written to {} (load in Perfetto or chrome://tracing); {dropped} \
         later span(s) of the traced half dropped",
        events.len(),
        trace_path.display()
    ));
    Ok(report)
}

/// Runs and checks one op of `bench` on its first client.
fn warm_up<B: Bench>(bench: &B) -> Result<(), String> {
    let mut clients = bench.clients()?;
    let client = clients.first_mut().ok_or("no client")?;
    bench.check(bench.op(client)?).map(drop)
}

/// Folds one loop's attempts, failures and counters into the report.
fn account(report: &mut RunReport, measured: &LoopResult, label: &str) {
    report.attempted += measured.attempted;
    report.failed += measured.failed;
    report.correct &= measured.failed == 0 && measured.attempted > 0;
    for error in &measured.errors {
        report.notes.push(format!("{label}FAILED op: {error}"));
    }
    if let Some(counters) = &measured.counters {
        report.notes.push(format!(
            "{label}work counters (identical on every op): {counters}"
        ));
    }
}
