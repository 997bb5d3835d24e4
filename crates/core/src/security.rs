//! The [`SecurityReport`]: a variants × fault-models security matrix
//! produced by [`crate::Session::security_matrix`].

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use secbranch_armv7m::Program;
use secbranch_campaign::{push_json_string, CampaignReport};

/// One cell of a security matrix: one workload under one pipeline attacked
/// by one fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityCell {
    /// The workload name.
    pub workload: String,
    /// The pipeline label.
    pub pipeline: String,
    /// The fault model's name.
    pub model: String,
    /// The full campaign report (counters, attribution, escapes).
    pub report: CampaignReport,
}

secbranch_obs::counter_set! {
    /// Execution metadata of one security-matrix run: where the time went
    /// and how well the trace cache did.
    ///
    /// Stats describe *how* a particular run executed, never *what* it
    /// computed: they are excluded from [`SecurityReport`]'s equality and
    /// from [`SecurityReport::to_json`], which is what lets reports stay
    /// byte-identical across thread counts while still carrying timings.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MatrixStats {
        /// Worker threads of the run.
        threads: usize => gauge "secbranch_matrix_threads",
        /// Reference traces served from the in-memory trace store.
        trace_hits: u64 => counter "secbranch_matrix_trace_hits_total",
        /// Reference traces loaded from an attached persistent grid store.
        trace_disk_hits: u64 => counter "secbranch_matrix_trace_disk_hits_total",
        /// Reference traces that had to be recorded.
        trace_misses: u64 => counter "secbranch_matrix_trace_misses_total",
        /// Whole cells served from the persistent grid store (zero
        /// simulation).
        cell_hits: u64 => counter "secbranch_matrix_cell_hits_total",
        /// Cells that had to execute their fault space.
        cell_misses: u64 => counter "secbranch_matrix_cell_misses_total",
        /// End-to-end wall time of the campaign phase in microseconds
        /// (builds excluded).
        total_wall_micros: u64 => counter "secbranch_matrix_wall_micros_total",
        /// Injection compute time per cell in microseconds, parallel to
        /// [`SecurityReport::cells`]. Under the shared pool cells overlap
        /// in wall time, so these sum to roughly
        /// `threads × total_wall_micros` (cache-served cells contribute
        /// zero).
        cell_compute_micros: Vec<u64>,
        /// Bytes currently held by resume checkpoints in the session's
        /// trace store (after this run).
        store_checkpoint_bytes: u64,
        /// Session-lifetime count of entries whose checkpoints were
        /// evicted by the trace store's byte budget.
        store_checkpoint_evictions: u64,
        /// Spine-snapshot restores across all cells: grouped multi-fault
        /// batches that resumed from a saved post-first-fault machine state
        /// instead of re-executing the shared prefix.
        snapshot_restores: u64 => counter "secbranch_matrix_snapshot_restores_total",
        /// Reference-suffix steps the differential executor avoided
        /// executing across all cells (liveness-pruned injections plus runs
        /// cut short at a reconvergent checkpoint).
        suffix_steps_saved: u64 => counter "secbranch_matrix_suffix_steps_saved_total",
        /// Artifacts whose program was decoded into micro-ops during (or
        /// before) this run. Decode happens once per `Arc<Program>` no
        /// matter how many workers share it; the decoded form is derived
        /// data and never part of the report.
        decoded_programs: u64 => counter "secbranch_matrix_decoded_programs_total",
        /// Total micro-ops across those decoded programs (equals their
        /// total instruction count — the decoder is 1:1).
        decoded_uops: u64,
        /// Total wall-clock microseconds spent decoding those programs.
        decode_micros: u64 => counter "secbranch_matrix_decode_micros_total",
    }
}

impl MatrixStats {
    /// A latency histogram of this run's per-cell injection compute times.
    #[must_use]
    pub fn compute_histogram(&self) -> secbranch_obs::HistogramSnapshot {
        secbranch_obs::HistogramSnapshot::from_samples(&self.cell_compute_micros)
    }
}

secbranch_obs::counter_set! {
    /// What decoding programs into micro-ops cost. Each `Arc<Program>`
    /// decodes at most once, however many workers share it; the decoded
    /// form is derived data and never part of a report.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DecodeCounters {
        /// Programs decoded.
        decoded_programs: u64,
        /// Micro-ops across them (the decoder is 1:1 with instructions).
        decoded_uops: u64,
        /// Wall-clock microseconds spent decoding them.
        decode_micros: u64,
    }
}

impl DecodeCounters {
    /// The decode cost of every program in `programs` that has decoded and
    /// is not in `seen` yet, adding it there. A program that has not
    /// decoded yet (its cells were all served from a store) stays out of
    /// `seen`, so the call that finds it decoded counts it.
    pub fn count<'a>(
        programs: impl IntoIterator<Item = &'a Arc<Program>>,
        seen: &mut HashSet<usize>,
    ) -> DecodeCounters {
        let mut counters = DecodeCounters::default();
        for program in programs {
            let identity = Arc::as_ptr(program) as usize;
            if let Some((uops, micros)) = program.decode_stats() {
                if seen.insert(identity) {
                    counters.decoded_programs += 1;
                    counters.decoded_uops += uops;
                    counters.decode_micros += micros;
                }
            }
        }
        counters
    }
}

/// The structured result of a variants × fault-models security evaluation:
/// for every workload, every pipeline is attacked by every model, and each
/// cell keeps its full [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct SecurityReport {
    /// Workload names, in matrix order.
    pub workloads: Vec<String>,
    /// Pipeline labels, in matrix order.
    pub pipelines: Vec<String>,
    /// Fault-model names, in matrix order.
    pub models: Vec<String>,
    /// All cells, in workload-major, pipeline-then-model order.
    pub cells: Vec<SecurityCell>,
    /// Execution metadata (timings, trace-cache counters) of the run that
    /// produced this report.
    pub stats: MatrixStats,
}

/// Equality compares what the matrix *computed* (axes and cells), not how
/// it ran: [`SecurityReport::stats`] is deliberately excluded, so the
/// executor's byte-identical-to-sequential invariant is expressible as
/// plain `==` even though two runs never share wall times.
impl PartialEq for SecurityReport {
    fn eq(&self, other: &Self) -> bool {
        self.workloads == other.workloads
            && self.pipelines == other.pipelines
            && self.models == other.models
            && self.cells == other.cells
    }
}

impl SecurityReport {
    /// Looks up one cell.
    #[must_use]
    pub fn cell(&self, workload: &str, pipeline: &str, model: &str) -> Option<&SecurityCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.pipeline == pipeline && c.model == model)
    }

    /// Renders the matrix as a text table: one row per workload × pipeline,
    /// one column per fault model, each cell `escaped/total (rate%)`.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = format!("{:<16} {:<16}", "workload", "pipeline");
        for model in &self.models {
            let _ = write!(out, " | {model:>20}");
        }
        out.push('\n');
        for workload in &self.workloads {
            for pipeline in &self.pipelines {
                let _ = write!(out, "{workload:<16} {pipeline:<16}");
                for model in &self.models {
                    let cell_text = self.cell(workload, pipeline, model).map_or_else(
                        || "-".to_string(),
                        |cell| {
                            format!(
                                "{}/{} ({:.3}%)",
                                cell.report.counts.wrong_result_undetected,
                                cell.report.counts.total(),
                                cell.report.escape_rate() * 100.0
                            )
                        },
                    );
                    let _ = write!(out, " | {cell_text:>20}");
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serialises the matrix as a self-contained JSON document; each cell
    /// embeds its full campaign report (hand-rolled: the offline build has
    /// no serde).
    ///
    /// The output is fully deterministic — [`SecurityReport::stats`] is not
    /// included (serialise it separately via [`MatrixStats::to_json`]), so
    /// the same matrix produces byte-identical JSON at any thread count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"workload\":");
            push_json_string(&mut out, &cell.workload);
            out.push_str(",\"pipeline\":");
            push_json_string(&mut out, &cell.pipeline);
            out.push_str(",\"model\":");
            push_json_string(&mut out, &cell.model);
            out.push_str(",\"report\":");
            cell.report.write_json(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}
