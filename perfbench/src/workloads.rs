//! The workloads: set-up, one op, and the check of its output.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use secbranch::campaign::MatrixExecutor;
use secbranch::store::GridStore;
use secbranch::{SecurityReport, Session, Workload};
use secbranch_advisor::{AdvisorOutcome, SelectiveHardening};
use secbranch_gridd::{catalog, DaemonConfig, DoneFrame, GridClient, GridDaemon};

use crate::grid::{self, Grid, MAX_STEPS, TRIALS};
use crate::{drive, nproc, Bench, Counters, Options, RunReport};

/// The advise workload's targets (catalog names).
pub const ADVISE_WORKLOADS: [&str; 2] = ["password_check", "pin_retry"];

/// The sequential oracle of a grid, and its serialised bytes.
struct Oracle {
    report: SecurityReport,
    json: String,
}

impl Oracle {
    fn of(grid: &Grid, report: &mut RunReport) -> Result<Arc<Oracle>, String> {
        let oracle = grid.oracle()?;
        let json = oracle.to_json();
        report.notes.push(format!(
            "oracle: sequential per-cell path (1 thread, no store), {} cells, {} bytes, {}",
            oracle.cells.len(),
            json.len(),
            grid::digest(json.as_bytes())
        ));
        Ok(Arc::new(Oracle {
            report: oracle,
            json,
        }))
    }

    fn check(&self, report_json: &str) -> Result<(), String> {
        grid::check_against_oracle(&self.report, &self.json, report_json)
    }
}

fn started(options: &Options, line: String) -> RunReport {
    RunReport {
        correct: true,
        notes: vec![format!(
            "perfbench {} ({} run): {line}; nproc {}, trials {TRIALS}, max_steps {MAX_STEPS}, \
             {} s measured",
            options.workload,
            if options.trace {
                "traced"
            } else {
                "end-to-end"
            },
            nproc(),
            options.seconds
        )],
        ..RunReport::default()
    }
}

// ------------------------------------------------ grid_cold, grid_cold_nostore

/// `grid_cold`: each op is a fresh `Session` and a fresh, empty
/// `GridStore`, then the whole grid on the matrix executor. Every op's
/// store lives at the same path and is removed as soon as the op returns
/// (outside its latency). Its files are then deleted before they are ever
/// written back, and the filesystem reuses the same blocks. Fresh paths,
/// or removal only at the end of the run, made every further op and run
/// slower on the host this was sized on.
///
/// `grid_cold_nostore` is the same op without a store (`dir` is `None`):
/// simulation only, with no filesystem work.
pub struct GridCold {
    grid: Grid,
    executor: MatrixExecutor,
    oracle: Arc<Oracle>,
    dir: Option<PathBuf>,
}

/// One `grid_cold` op's output.
pub struct ColdOutput {
    report: SecurityReport,
    builds: u64,
    store_writes: u64,
}

impl Bench for GridCold {
    type Client = ();
    type Output = ColdOutput;

    fn clients(&self) -> Result<Vec<()>, String> {
        Ok(vec![()])
    }

    fn op(&self, (): &mut ()) -> Result<ColdOutput, String> {
        let store = match &self.dir {
            Some(dir) => Some(Arc::new(
                GridStore::open(dir).map_err(|e| format!("opening the op's store: {e}"))?,
            )),
            None => None,
        };
        let mut session = Session::new();
        let report = session
            .security_matrix_with(
                &self.executor,
                &self.grid.workloads,
                &self.grid.pipelines,
                &self.grid.model_refs(),
                store.as_ref(),
            )
            .map_err(|e| format!("security matrix: {e}"))?;
        Ok(ColdOutput {
            report,
            builds: session.cache_misses(),
            store_writes: store.map_or(0, |store| store.stats().writes),
        })
    }

    fn check(&self, out: ColdOutput) -> Result<Counters, String> {
        if let Some(dir) = &self.dir {
            std::fs::remove_dir_all(dir).map_err(|e| format!("removing the op's store: {e}"))?;
        }
        self.oracle.check(&out.report.to_json())?;
        let stats = &out.report.stats;
        let mut counters = Counters::default();
        counters.set("builds", out.builds);
        counters.set("store_writes", out.store_writes);
        counters.set("trace_hits", stats.trace_hits + stats.trace_disk_hits);
        counters.set("trace_misses", stats.trace_misses);
        counters.set("cell_hits", stats.cell_hits);
        counters.set("cell_misses", stats.cell_misses);
        counters.set("snapshot_restores", stats.snapshot_restores);
        counters.set("suffix_steps_saved", stats.suffix_steps_saved);
        for cell in &out.report.cells {
            counters.add("injections", cell.report.counts.total());
        }
        Ok(counters)
    }
}

/// Runs the `grid_cold` workload, or `grid_cold_nostore` when `with_store`
/// is false.
///
/// # Errors
///
/// Set-up failures.
pub fn grid_cold(options: &Options, run_dir: &Path, with_store: bool) -> Result<RunReport, String> {
    let threads = nproc();
    let [double_skip, register_flip, memory_flip] = grid::model_seeds(options.seed);
    let mut report = started(
        options,
        format!(
            "seed {} (double-skip 0x{double_skip:x}, register-flip 0x{register_flip:x}, \
             memory-flip 0x{memory_flip:x}), executor threads {threads}, 1 client, {}",
            options.seed,
            if with_store {
                "a fresh store per op"
            } else {
                "no store"
            }
        ),
    );
    let oracle = Oracle::of(&Grid::new(options.seed), &mut report)?;
    drive(
        options,
        run_dir,
        report,
        // Set-up is only what the op takes as given: the grid and the
        // executor. Each op's fresh `Session` builds every artifact it runs.
        |_| {
            Ok(GridCold {
                grid: Grid::new(options.seed),
                executor: MatrixExecutor::new().with_threads(threads),
                oracle: Arc::clone(&oracle),
                dir: with_store.then(|| run_dir.join("cold-store")),
            })
        },
        drop,
    )
}

// --------------------------------------------------------- grid_warm_served

/// An in-process `gridd` on a unix socket, running on its own thread.
pub struct RunningDaemon {
    addr: String,
    runner: JoinHandle<std::io::Result<()>>,
}

impl RunningDaemon {
    /// Binds a daemon on `socket` over the store at `store_dir`, starts it,
    /// and serves the grid once so the store holds every cell.
    ///
    /// # Errors
    ///
    /// Bind, connect or request failures, or a warming request that did not
    /// compute the whole grid.
    pub fn start_warm(
        socket: &Path,
        store_dir: &Path,
        workers: usize,
    ) -> Result<RunningDaemon, String> {
        let addr = format!("unix:{}", socket.display());
        let config = DaemonConfig {
            workers,
            store_dir: Some(store_dir.to_path_buf()),
            max_steps_cap: MAX_STEPS,
            ..DaemonConfig::default()
        };
        let daemon = GridDaemon::bind(&addr, config).map_err(|e| format!("binding {addr}: {e}"))?;
        let addr = daemon.local_addr().to_string();
        let daemon = RunningDaemon {
            addr,
            runner: std::thread::spawn(move || daemon.run()),
        };
        let warmed = daemon
            .client()
            .and_then(|mut client| {
                client
                    .request_grid(&Grid::request(), |_| {})
                    .map_err(|e| format!("warming request: {e}"))
            })
            .and_then(|done| {
                if done.computed_cells as usize == done.cells as usize {
                    Ok(())
                } else {
                    Err(format!(
                        "warming request computed {} of {} cells: the store was not empty",
                        done.computed_cells, done.cells
                    ))
                }
            });
        match warmed {
            Ok(()) => Ok(daemon),
            Err(e) => {
                daemon.stop();
                Err(e)
            }
        }
    }

    /// A new connection.
    ///
    /// # Errors
    ///
    /// A connection failure.
    pub fn client(&self) -> Result<GridClient, String> {
        GridClient::connect(&self.addr).map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// Shuts the daemon down and waits for its accept loop to end.
    pub fn stop(self) {
        if let Ok(mut client) = self.client() {
            let _ = client.shutdown();
        }
        let _ = self.runner.join();
    }
}

/// `grid_warm_served`: `nproc` connections each repeat the grid request
/// against a daemon whose store already holds every cell.
pub struct WarmServed {
    daemon: RunningDaemon,
    store_dir: PathBuf,
    clients: usize,
    oracle: Arc<Oracle>,
}

impl WarmServed {
    /// Stops the daemon and removes its store at once, so the repeated
    /// set-ups reuse two store paths (see [`GridCold`] for why).
    fn stop(self) {
        self.daemon.stop();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

impl Bench for WarmServed {
    type Client = GridClient;
    type Output = DoneFrame;

    fn clients(&self) -> Result<Vec<GridClient>, String> {
        (0..self.clients).map(|_| self.daemon.client()).collect()
    }

    fn op(&self, client: &mut GridClient) -> Result<DoneFrame, String> {
        client
            .request_grid(&Grid::request(), |_| {})
            .map_err(|e| format!("grid request: {e}"))
    }

    fn check(&self, done: DoneFrame) -> Result<Counters, String> {
        if done.computed_cells != 0 || done.recordings != 0 {
            return Err(format!(
                "a warm request simulated: {} computed cell(s), {} recording(s)",
                done.computed_cells, done.recordings
            ));
        }
        self.oracle.check(&done.report_json)?;
        let mut counters = Counters::default();
        counters.set("cells", u64::from(done.cells));
        counters.set("warm_cells", u64::from(done.warm_cells));
        counters.set("coalesced_cells", u64::from(done.coalesced_cells));
        counters.set("report_bytes", done.report_json.len() as u64);
        Ok(counters)
    }
}

/// Runs the `grid_warm_served` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn grid_warm_served(options: &Options, run_dir: &Path) -> Result<RunReport, String> {
    let threads = nproc();
    let mut report = started(
        options,
        format!(
            "no seed (the daemon's catalog fixes the grid; --seed {} ignored), daemon workers \
             {threads}, {threads} client connection(s) on a unix socket",
            options.seed
        ),
    );
    let oracle = Oracle::of(&Grid::new(0), &mut report)?;
    drive(
        options,
        run_dir,
        report,
        |rep| {
            // Set-up `rep - 1`'s bench is still alive; `rep - 2`'s store is
            // gone.
            let store_dir = run_dir.join(format!("served-{}", rep % 2));
            let daemon = RunningDaemon::start_warm(
                &run_dir.join(format!("gridd-{rep}.sock")),
                &store_dir,
                threads,
            )?;
            Ok(WarmServed {
                daemon,
                store_dir,
                clients: threads,
                oracle: Arc::clone(&oracle),
            })
        },
        WarmServed::stop,
    )
}

// ------------------------------------------------------------------- advise

/// `advise`: each op runs the selective-hardening loop on both targets.
pub struct Advise {
    workloads: Vec<Workload>,
    hardening: SelectiveHardening,
    reference: Arc<Vec<String>>,
}

fn advise_all(
    hardening: &SelectiveHardening,
    workloads: &[Workload],
) -> Result<Vec<AdvisorOutcome>, String> {
    workloads
        .iter()
        .map(|w| {
            hardening
                .advise(w)
                .map_err(|e| format!("advise {}: {e}", w.name))
        })
        .collect()
}

fn advise_workloads() -> Vec<Workload> {
    ADVISE_WORKLOADS
        .iter()
        .map(|name| catalog::workload(name).expect("advise targets are catalog names"))
        .collect()
}

impl Bench for Advise {
    type Client = ();
    type Output = Vec<AdvisorOutcome>;

    fn clients(&self) -> Result<Vec<()>, String> {
        Ok(vec![()])
    }

    fn op(&self, (): &mut ()) -> Result<Vec<AdvisorOutcome>, String> {
        advise_all(&self.hardening, &self.workloads)
    }

    fn check(&self, outcomes: Vec<AdvisorOutcome>) -> Result<Counters, String> {
        let mut counters = Counters::default();
        for (outcome, reference) in outcomes.iter().zip(self.reference.iter()) {
            if !outcome.converged || outcome.selective.total_escapes() != 0 {
                return Err(format!(
                    "{}: selective hardening left {} escape(s) (converged: {})",
                    outcome.workload,
                    outcome.selective.total_escapes(),
                    outcome.converged
                ));
            }
            if outcome.to_json() != *reference {
                return Err(format!(
                    "{}: advice differs from the single-thread reference",
                    outcome.workload
                ));
            }
            counters.add("rounds", outcome.rounds.len() as u64);
            for round in &outcome.rounds {
                counters.add("round_escapes", round.total_escapes());
            }
            counters.add("json_bytes", reference.len() as u64);
        }
        Ok(counters)
    }
}

/// Runs the `advise` workload.
///
/// # Errors
///
/// Set-up failures.
pub fn advise(options: &Options, run_dir: &Path) -> Result<RunReport, String> {
    let threads = nproc();
    let mut report = started(
        options,
        format!(
            "no seed (skip and branch-invert are exhaustive; --seed {} ignored), targets {}, \
             campaign threads {threads}, 1 client",
            options.seed,
            ADVISE_WORKLOADS.join(" then ")
        ),
    );
    // The reference: the same loop on one campaign thread, outside every
    // timed region. Every op must reproduce it byte for byte.
    let reference: Vec<String> = advise_all(
        &SelectiveHardening::new()
            .with_threads(1)
            .with_max_steps(MAX_STEPS),
        &advise_workloads(),
    )?
    .iter()
    .map(AdvisorOutcome::to_json)
    .collect();
    report.notes.push(format!(
        "reference: single-thread advice, {}",
        grid::digest(reference.concat().as_bytes())
    ));
    let reference = Arc::new(reference);
    drive(
        options,
        run_dir,
        report,
        // Set-up is only what the op takes as given: the targets and the
        // loop's configuration. The op builds every artifact it runs.
        |_| {
            Ok(Advise {
                workloads: advise_workloads(),
                hardening: SelectiveHardening::new()
                    .with_threads(threads)
                    .with_max_steps(MAX_STEPS),
                reference: Arc::clone(&reference),
            })
        },
        drop,
    )
}
