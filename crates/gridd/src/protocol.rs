//! The SBGD wire protocol: length-prefixed, CRC-checked, versioned binary
//! frames over any byte stream.
//!
//! The framing deliberately mirrors the SBGR record format of
//! `secbranch-store` — magic, format version, kind tag, payload length,
//! CRC-32, payload — because it has the same job under the same
//! constraints: hand-rolled (the offline workspace has no serde), fixed by
//! definition, little-endian, and safe to parse from an untrusted peer
//! (every decoder is total: any byte sequence either decodes or fails
//! cleanly, never panics or over-allocates).
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SBGD"
//! 4       4     protocol version (u32 LE)
//! 8       1     frame kind
//! 9       8     payload length (u64 LE, at most MAX_FRAME)
//! 17      4     CRC-32 (IEEE) of the payload (u32 LE)
//! 21      n     payload
//! ```
//!
//! A frame of a foreign protocol version is answered with a
//! [`RejectFrame`] and the connection is closed — clients of a foreign
//! protocol get a machine-readable "speak my version" instead of a hang
//! or a misparse. Payload contents are encoded with the same
//! [`Writer`]/[`Reader`] primitives the store records use.

use std::io::{self, Read, Write};

use secbranch::obs::CounterSet;
use secbranch_campaign::CampaignReport;
use secbranch_store::format::{crc32, Reader, RecordError, Writer};
use secbranch_store::StoreStats;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SBGD";

/// The protocol version this build speaks and the only one it accepts —
/// peers refuse other versions instead of misparsing them. Bump on any
/// frame or payload layout change. v2 added [`GridRequest::cold`], v3 the
/// `REQ_METRICS` / `RESP_METRICS` exchange, and v4 made the [`StatsSnapshot`]
/// payload a self-describing list of (name, value) counters, so adding a
/// counter no longer changes the protocol.
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound on a frame payload; a corrupted or hostile length prefix
/// fails the read instead of triggering a giant allocation.
pub const MAX_FRAME: u64 = 64 << 20;

/// Size of the fixed frame header preceding the payload.
pub const HEADER_LEN: usize = 4 + 4 + 1 + 8 + 4;

/// Most payload bytes [`read_frame`] reserves before any of them arrive.
/// Larger payloads grow the buffer as they stream in, so a header that
/// promises [`MAX_FRAME`] and then goes silent costs this much, not 64 MiB.
const PAYLOAD_PREALLOC: u64 = 1 << 20;

/// Client → daemon: run a security grid (a [`GridRequest`] payload).
pub const REQ_GRID: u8 = 1;
/// Client → daemon: return a [`StatsSnapshot`] (empty payload).
pub const REQ_STATS: u8 = 2;
/// Client → daemon: stop accepting connections (empty payload); answered
/// with a final [`StatsSnapshot`].
pub const REQ_SHUTDOWN: u8 = 3;
/// Client → daemon: return a Prometheus-style text exposition of the
/// daemon's metrics registry (empty payload).
pub const REQ_METRICS: u8 = 4;

/// Daemon → client: one finished cell of the running grid request
/// (a [`CellFrame`] payload), streamed as soon as the cell is available.
pub const RESP_CELL: u8 = 16;
/// Daemon → client: the grid request is complete (a [`DoneFrame`] payload).
pub const RESP_DONE: u8 = 17;
/// Daemon → client: a [`StatsSnapshot`] payload.
pub const RESP_STATS: u8 = 18;
/// Daemon → client: the request failed (a UTF-8 message payload).
pub const RESP_ERROR: u8 = 19;
/// Daemon → client: protocol version mismatch (a [`RejectFrame`] payload);
/// the daemon closes the connection after sending it.
pub const RESP_REJECT: u8 = 20;
/// Daemon → client: a Prometheus-style text exposition (UTF-8 payload).
pub const RESP_METRICS: u8 = 21;

/// Why reading a frame from the wire failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (includes a peer disconnect).
    Io(io::Error),
    /// Bad magic, CRC mismatch, oversized payload or malformed payload
    /// bytes.
    Corrupt,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version in the received frame.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport failure: {e}"),
            WireError::Corrupt => f.write_str("malformed frame"),
            WireError::VersionMismatch { found, expected } => write!(
                f,
                "protocol version mismatch: peer speaks v{found}, this build speaks v{expected}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<RecordError> for WireError {
    fn from(_: RecordError) -> Self {
        WireError::Corrupt
    }
}

/// One frame as read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The kind tag (one of the `REQ_*`/`RESP_*` constants).
    pub kind: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame at [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_frame(stream: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    let mut header = Vec::with_capacity(HEADER_LEN + payload.len());
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.push(kind);
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    header.extend_from_slice(payload);
    stream.write_all(&header)?;
    stream.flush()
}

/// Reads and validates one frame.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure (including a clean peer disconnect,
/// which surfaces as `UnexpectedEof`), [`WireError::VersionMismatch`] when
/// the frame carries any version but [`PROTOCOL_VERSION`],
/// [`WireError::Corrupt`] on bad magic, an oversized length or a CRC
/// mismatch.
pub fn read_frame(stream: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(WireError::Corrupt);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("length checked"));
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            found: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let kind = header[8];
    let payload_len = u64::from_le_bytes(header[9..17].try_into().expect("length checked"));
    let crc = u32::from_le_bytes(header[17..21].try_into().expect("length checked"));
    if payload_len > MAX_FRAME {
        return Err(WireError::Corrupt);
    }
    let mut payload = Vec::with_capacity(payload_len.min(PAYLOAD_PREALLOC) as usize);
    stream.take(payload_len).read_to_end(&mut payload)?;
    if payload.len() as u64 != payload_len {
        return Err(WireError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    if crc32(&payload) != crc {
        return Err(WireError::Corrupt);
    }
    Ok(Frame { kind, payload })
}

// --- grid requests --------------------------------------------------------

/// A grid request: which cells to evaluate (catalog names on every axis)
/// and under which budgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRequest {
    /// Scheduling priority of this request's cold cells (higher runs
    /// earlier; ties are FIFO across the whole daemon).
    pub priority: u8,
    /// Injection budget of the sampling fault models.
    pub trials: u64,
    /// Dynamic instruction budget per execution (part of the artifact
    /// fingerprint, so it selects which cached cells can serve this grid).
    pub max_steps: u64,
    /// Wall-clock budget for the whole request in milliseconds
    /// (0 = unbounded); exceeded requests fail with a clean error.
    pub deadline_millis: u64,
    /// Workload catalog names (e.g. `integer_compare`).
    pub workloads: Vec<String>,
    /// Protection variant labels (e.g. `unprotected`, `cfi`, `prototype`).
    pub variants: Vec<String>,
    /// Fault model names (e.g. `skip`, `branch-invert`).
    pub models: Vec<String>,
    /// When set, the daemon ignores (without deleting) any cached cells in
    /// its persistent grid store and computes every cell of this request
    /// from scratch. Write-back still happens, so a cold request re-warms
    /// the store for its successors. Used by benchmark clients to measure
    /// genuine cold-path cost against a pre-populated store.
    pub cold: bool,
}

fn write_names(w: &mut Writer, names: &[String]) {
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
    }
}

fn read_names(r: &mut Reader<'_>) -> Result<Vec<String>, RecordError> {
    let count = r.u32()? as usize;
    (0..count).map(|_| r.str()).collect()
}

/// Encodes a [`GridRequest`] payload.
#[must_use]
pub fn encode_grid_request(request: &GridRequest) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(request.priority);
    w.u64(request.trials);
    w.u64(request.max_steps);
    w.u64(request.deadline_millis);
    write_names(&mut w, &request.workloads);
    write_names(&mut w, &request.variants);
    write_names(&mut w, &request.models);
    w.u8(u8::from(request.cold));
    w.into_bytes()
}

/// Decodes a [`GridRequest`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_grid_request(payload: &[u8]) -> Result<GridRequest, RecordError> {
    let mut r = Reader::new(payload);
    let request = GridRequest {
        priority: r.u8()?,
        trials: r.u64()?,
        max_steps: r.u64()?,
        deadline_millis: r.u64()?,
        workloads: read_names(&mut r)?,
        variants: read_names(&mut r)?,
        models: read_names(&mut r)?,
        cold: match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(RecordError::Corrupt),
        },
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(request)
}

// --- streamed cells -------------------------------------------------------

/// How the daemon obtained a streamed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Computed for this request (it was the cold submitter).
    Computed,
    /// Served from the persistent grid store without any simulation.
    StoreWarm,
    /// Coalesced onto another request's identical in-flight computation
    /// (single-flight: this request triggered no simulation of its own).
    Coalesced,
}

impl Served {
    fn tag(self) -> u8 {
        match self {
            Served::Computed => 0,
            Served::StoreWarm => 1,
            Served::Coalesced => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Served, RecordError> {
        match tag {
            0 => Ok(Served::Computed),
            1 => Ok(Served::StoreWarm),
            2 => Ok(Served::Coalesced),
            _ => Err(RecordError::Corrupt),
        }
    }

    /// The wire tag's stable text form (`computed`, `store-warm`,
    /// `coalesced`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Served::Computed => "computed",
            Served::StoreWarm => "store-warm",
            Served::Coalesced => "coalesced",
        }
    }
}

/// One finished cell, streamed to the client the moment it is available
/// (warm cells flush during request admission, cold cells in completion
/// order; `cell_index` restores the canonical order client-side).
#[derive(Debug, Clone, PartialEq)]
pub struct CellFrame {
    /// Position of this cell in the canonical (workload-major,
    /// pipeline-then-model) grid order.
    pub cell_index: u32,
    /// Total cells of the request, for progress display.
    pub total_cells: u32,
    /// How the cell was obtained.
    pub served: Served,
    /// The workload display name.
    pub workload: String,
    /// The pipeline label.
    pub pipeline: String,
    /// The fault model name.
    pub model: String,
    /// The full campaign report, byte-identical to a local run's.
    pub report: CampaignReport,
    /// Injection compute time of the cell in microseconds (zero when
    /// served warm).
    pub compute_micros: u64,
}

/// Encodes a [`CellFrame`] payload.
#[must_use]
pub fn encode_cell(cell: &CellFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(cell.cell_index);
    w.u32(cell.total_cells);
    w.u8(cell.served.tag());
    w.str(&cell.workload);
    w.str(&cell.pipeline);
    w.str(&cell.model);
    w.bytes(&secbranch_store::codec::encode_report(&cell.report));
    w.u64(cell.compute_micros);
    w.into_bytes()
}

/// Decodes a [`CellFrame`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_cell(payload: &[u8]) -> Result<CellFrame, RecordError> {
    let mut r = Reader::new(payload);
    let cell_index = r.u32()?;
    let total_cells = r.u32()?;
    let served = Served::from_tag(r.u8()?)?;
    let workload = r.str()?;
    let pipeline = r.str()?;
    let model = r.str()?;
    let report = secbranch_store::codec::decode_report(&r.byte_vec()?)?;
    let compute_micros = r.u64()?;
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(CellFrame {
        cell_index,
        total_cells,
        served,
        workload,
        pipeline,
        model,
        report,
        compute_micros,
    })
}

// --- completion -----------------------------------------------------------

/// The completion frame of a grid request: the assembled report (as its
/// canonical JSON serialisation, byte-identical to a local
/// `SecurityReport::to_json`) plus how the request was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneFrame {
    /// The full `SecurityReport` JSON document.
    pub report_json: String,
    /// Total cells of the request.
    pub cells: u32,
    /// Cells served from the grid store (zero simulation).
    pub warm_cells: u32,
    /// Cells computed because this request submitted them cold.
    pub computed_cells: u32,
    /// Cells coalesced onto another request's in-flight computation.
    pub coalesced_cells: u32,
    /// Reference traces recorded on behalf of this request (zero on a
    /// fully warm request).
    pub recordings: u32,
    /// End-to-end wall time of the request in microseconds.
    pub wall_micros: u64,
}

/// Encodes a [`DoneFrame`] payload.
#[must_use]
pub fn encode_done(done: &DoneFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&done.report_json);
    w.u32(done.cells);
    w.u32(done.warm_cells);
    w.u32(done.computed_cells);
    w.u32(done.coalesced_cells);
    w.u32(done.recordings);
    w.u64(done.wall_micros);
    w.into_bytes()
}

/// Decodes a [`DoneFrame`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_done(payload: &[u8]) -> Result<DoneFrame, RecordError> {
    let mut r = Reader::new(payload);
    let done = DoneFrame {
        report_json: r.str()?,
        cells: r.u32()?,
        warm_cells: r.u32()?,
        computed_cells: r.u32()?,
        coalesced_cells: r.u32()?,
        recordings: r.u32()?,
        wall_micros: r.u64()?,
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(done)
}

// --- rejection ------------------------------------------------------------

/// The version-mismatch rejection: what the peer sent, what this daemon
/// speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejectFrame {
    /// The protocol version the rejected frame carried.
    pub found: u32,
    /// The version the daemon speaks.
    pub expected: u32,
}

/// Encodes a [`RejectFrame`] payload.
#[must_use]
pub fn encode_reject(reject: RejectFrame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(reject.found);
    w.u32(reject.expected);
    w.into_bytes()
}

/// Decodes a [`RejectFrame`] payload.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_reject(payload: &[u8]) -> Result<RejectFrame, RecordError> {
    let mut r = Reader::new(payload);
    let reject = RejectFrame {
        found: r.u32()?,
        expected: r.u32()?,
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(reject)
}

// --- observability --------------------------------------------------------

secbranch::obs::counter_set! {
    /// The daemon's observability surface: lifetime request/cell counters,
    /// the job queue, the shared trace store, recent per-cell compute times,
    /// and the persistent store's own counters when one is attached. Rows
    /// with a series are the daemon's own counters; the pool and trace-store
    /// rows mirror [`PoolStats`](secbranch_campaign::PoolStats) and
    /// [`TraceStoreStats`](secbranch_campaign::TraceStoreStats), whose own
    /// tables name their series.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct StatsSnapshot {
        /// The daemon's protocol version.
        protocol_version: u32 => gauge "secbranch_gridd_protocol_version",
        /// Grid requests admitted.
        requests: u64 => counter "secbranch_gridd_requests_total",
        /// Cells requested across all grid requests.
        cells_requested: u64 => counter "secbranch_gridd_cells_requested_total",
        /// Cells served from the grid store without simulation.
        warm_cells: u64 => counter "secbranch_gridd_warm_cells_total",
        /// Cells computed on the worker pool.
        computed_cells: u64 => counter "secbranch_gridd_computed_cells_total",
        /// Cells coalesced onto an identical in-flight computation
        /// (single-flight).
        coalesced_cells: u64 => counter "secbranch_gridd_coalesced_cells_total",
        /// Reference traces recorded by the daemon (lifetime).
        recordings: u64 => counter "secbranch_gridd_recordings_total",
        /// Requests refused or failed (validation, budgets, simulation
        /// errors, deadlines).
        request_errors: u64 => counter "secbranch_gridd_request_errors_total",
        /// Connections rejected for speaking a foreign protocol version.
        version_rejects: u64 => counter "secbranch_gridd_version_rejects_total",
        /// Jobs currently waiting in the bounded queue.
        queue_depth: u64,
        /// Jobs currently executing on workers.
        in_flight: u64,
        /// Worker threads of the pool.
        workers: u64,
        /// Capacity of the bounded job queue.
        queue_capacity: u64,
        /// Jobs ever admitted to the pool.
        pool_submitted: u64,
        /// Jobs completed successfully.
        pool_completed: u64,
        /// Jobs whose fault-free reference run failed.
        pool_errored: u64,
        /// Jobs dropped unexecuted because the request deadline passed
        /// while they were still queued.
        pool_expired: u64,
        /// Injection compute time summed over all completed cells, in µs.
        pool_compute_micros: u64,
        /// Reference traces served from the in-memory trace store.
        trace_hits: u64,
        /// Reference traces loaded from the persistent store.
        trace_disk_hits: u64,
        /// Reference traces that had to be recorded.
        trace_misses: u64,
        /// Distinct programs decoded into micro-ops by the daemon's
        /// executors.
        decoded_programs: u64 => counter "secbranch_gridd_decoded_programs_total",
        /// Wall-clock microseconds spent in those decodes.
        decode_micros: u64 => counter "secbranch_gridd_decode_micros_total",
        /// Spine-snapshot restores across all computed cells.
        snapshot_restores: u64 => counter "secbranch_gridd_snapshot_restores_total",
        /// Reference-suffix steps the differential executors avoided
        /// executing.
        suffix_steps_saved: u64 => counter "secbranch_gridd_suffix_steps_saved_total",
        /// Compute µs of the most recently completed cells (newest last).
        recent_cell_micros: Vec<u64>,
        /// The attached grid store's runtime counters (`None` when the
        /// daemon runs without persistence).
        store: Option<StoreStats>,
    }
}

/// Writes the scalar rows of `set` as a counted list of (name, value)
/// pairs.
fn write_counters(w: &mut Writer, set: &impl CounterSet) {
    let mut pairs = Vec::new();
    set.visit(&mut |row, field| {
        if let Some(value) = field.scalar() {
            pairs.push((row.key, value));
        }
    });
    w.u32(pairs.len() as u32);
    for (name, value) in pairs {
        w.str(name);
        w.u64(value);
    }
}

/// Reads a list written by [`write_counters`] into a fresh `T`: names `T`
/// does not declare are skipped (a newer peer's counters), names the list
/// lacks read as zero (an older peer's). A declared name given twice, or
/// with a value its field cannot hold, is corrupt. Nothing is reserved up
/// front and skipped names are not remembered, so a hostile count or name
/// list costs at most the payload it arrived in.
fn read_counters<T: CounterSet + Default>(r: &mut Reader<'_>) -> Result<T, RecordError> {
    let mut set = T::default();
    let mut seen: Vec<&'static str> = Vec::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let value = r.u64()?;
        let mut outcome = None;
        set.visit_mut(&mut |row, field| {
            if row.key == name {
                outcome = Some((row.key, field.set_scalar(value)));
            }
        });
        match outcome {
            None => {}
            Some((key, true)) if !seen.contains(&key) => seen.push(key),
            Some(_) => return Err(RecordError::Corrupt),
        }
    }
    Ok(set)
}

/// Encodes a [`StatsSnapshot`] payload: the snapshot's counters as
/// (name, value) pairs, the recent compute times, then a presence byte and
/// the store's counters as pairs.
#[must_use]
pub fn encode_stats(stats: &StatsSnapshot) -> Vec<u8> {
    let mut w = Writer::new();
    write_counters(&mut w, stats);
    w.u64s(&stats.recent_cell_micros);
    match &stats.store {
        None => w.u8(0),
        Some(store) => {
            w.u8(1);
            write_counters(&mut w, store);
        }
    }
    w.into_bytes()
}

/// Decodes a [`StatsSnapshot`] payload. Counter names this build does not
/// declare are skipped (a newer peer's) and declared names the payload
/// lacks read as zero (an older peer's).
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence, including a
/// declared counter given twice.
pub fn decode_stats(payload: &[u8]) -> Result<StatsSnapshot, RecordError> {
    let mut r = Reader::new(payload);
    let mut stats: StatsSnapshot = read_counters(&mut r)?;
    stats.recent_cell_micros = r.u64s()?;
    stats.store = match r.u8()? {
        0 => None,
        1 => Some(read_counters(&mut r)?),
        _ => return Err(RecordError::Corrupt),
    };
    if !r.is_exhausted() {
        return Err(RecordError::Corrupt);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> GridRequest {
        GridRequest {
            priority: 7,
            trials: 500,
            max_steps: 200_000,
            deadline_millis: 30_000,
            workloads: vec!["integer_compare".to_string(), "crc32".to_string()],
            variants: vec!["unprotected".to_string(), "prototype".to_string()],
            models: vec!["skip".to_string(), "branch-invert".to_string()],
            cold: true,
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let payload = encode_grid_request(&sample_request());
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_GRID, &payload).expect("writes");
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!(frame.kind, REQ_GRID);
        assert_eq!(
            decode_grid_request(&frame.payload).expect("decodes"),
            sample_request()
        );
    }

    #[test]
    fn foreign_versions_and_damage_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_STATS, b"").expect("writes");

        let mut foreign = wire.clone();
        foreign[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut foreign.as_slice()),
            Err(WireError::VersionMismatch {
                found: 9,
                expected: PROTOCOL_VERSION
            })
        ));

        let mut magic = wire.clone();
        magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut magic.as_slice()),
            Err(WireError::Corrupt)
        ));

        let mut payload = Vec::new();
        write_frame(&mut payload, REQ_GRID, b"data").expect("writes");
        let last = payload.len() - 1;
        payload[last] ^= 1;
        assert!(matches!(
            read_frame(&mut payload.as_slice()),
            Err(WireError::Corrupt)
        ));

        let mut oversized = wire;
        oversized[9..17].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(WireError::Corrupt)
        ));

        assert!(matches!(
            read_frame(&mut [0u8; 3].as_slice()),
            Err(WireError::Io(_))
        ));
    }

    /// A stream that records the largest buffer it was asked to fill.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_read: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_truncated_giant_frame_fails_without_reserving_its_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_GRID, b"").expect("writes");
        wire[9..17].copy_from_slice(&MAX_FRAME.to_le_bytes());
        wire.extend_from_slice(b"only a few payload bytes");
        let mut stream = Recording {
            bytes: &wire,
            largest_read: 0,
        };
        match read_frame(&mut stream) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected a clean EOF error, got {other:?}"),
        }
        assert!(
            stream.largest_read as u64 <= PAYLOAD_PREALLOC,
            "read into a {} byte buffer",
            stream.largest_read
        );
    }

    #[test]
    fn grid_request_payloads_reject_trailing_garbage() {
        let mut payload = encode_grid_request(&sample_request());
        payload.push(0);
        assert_eq!(decode_grid_request(&payload), Err(RecordError::Corrupt));
        assert_eq!(decode_grid_request(&[1, 2]), Err(RecordError::Corrupt));
    }

    fn sample_stats() -> StatsSnapshot {
        StatsSnapshot {
            protocol_version: PROTOCOL_VERSION,
            requests: 5,
            cells_requested: 60,
            warm_cells: 40,
            computed_cells: 15,
            coalesced_cells: 5,
            recordings: 6,
            pool_expired: 4,
            decoded_programs: 9,
            decode_micros: 1_234,
            snapshot_restores: 77,
            suffix_steps_saved: 88_888,
            recent_cell_micros: vec![10, 20, 30],
            store: Some(StoreStats {
                cell_hits: 40,
                corrupt_dropped: 2,
                ..StoreStats::default()
            }),
            ..StatsSnapshot::default()
        }
    }

    #[test]
    fn done_reject_and_stats_payloads_round_trip() {
        let done = DoneFrame {
            report_json: "{\"cells\":[]}".to_string(),
            cells: 12,
            warm_cells: 7,
            computed_cells: 3,
            coalesced_cells: 2,
            recordings: 4,
            wall_micros: 123_456,
        };
        assert_eq!(decode_done(&encode_done(&done)).expect("decodes"), done);

        let reject = RejectFrame {
            found: 3,
            expected: PROTOCOL_VERSION,
        };
        assert_eq!(
            decode_reject(&encode_reject(reject)).expect("decodes"),
            reject
        );

        let stats = sample_stats();
        let decoded = decode_stats(&encode_stats(&stats)).expect("decodes");
        assert_eq!(decoded, stats);
        assert!(decoded.to_json().contains("\"coalesced_cells\":5"));
        assert!(decoded.to_json().contains("\"pool_expired\":4"));
        assert!(decoded.to_json().contains("\"corrupt_dropped\":2"));
        assert!(decoded.to_json().contains("\"decoded_programs\":9"));
        assert!(decoded.to_json().contains("\"decode_micros\":1234"));
        assert!(decoded.to_json().contains("\"snapshot_restores\":77"));
        assert!(decoded.to_json().contains("\"suffix_steps_saved\":88888"));

        let stripped = StatsSnapshot::default();
        assert_eq!(
            decode_stats(&encode_stats(&stripped)).expect("decodes"),
            stripped
        );
        assert!(stripped.to_json().contains("\"store\":null"));
    }

    /// A STATS payload whose counter list is written by hand: `counters`
    /// as (name bytes, value) pairs, no recent cells, no store.
    fn stats_payload<N: AsRef<[u8]>>(counters: &[(N, u64)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(counters.len() as u32);
        for (name, value) in counters {
            w.bytes(name.as_ref());
            w.u64(*value);
        }
        w.u64s(&[]);
        w.u8(0);
        w.into_bytes()
    }

    #[test]
    fn stats_payloads_skip_unknown_counters_and_zero_missing_ones() {
        // A newer peer's extra counter is skipped; a counter an older peer
        // never sent reads as zero.
        let payload = stats_payload(&[
            ("protocol_version", 4),
            ("requests", 3),
            ("counter_from_the_future", 99),
            ("warm_cells", 5),
        ]);
        let decoded = decode_stats(&payload).expect("decodes");
        assert_eq!(
            decoded,
            StatsSnapshot {
                protocol_version: 4,
                requests: 3,
                warm_cells: 5,
                ..StatsSnapshot::default()
            }
        );
        assert_eq!(decoded.suffix_steps_saved, 0, "missing reads as zero");
    }

    #[test]
    fn the_stats_decoder_fails_cleanly_on_damage() {
        let payload = encode_stats(&sample_stats());
        assert_eq!(decode_stats(&payload), Ok(sample_stats()));

        // Every truncation is an error.
        for len in 0..payload.len() {
            assert_eq!(
                decode_stats(&payload[..len]),
                Err(RecordError::Corrupt),
                "truncated to {len} bytes"
            );
        }
        // Single bit flips never panic. A flip inside a value or a name
        // byte can still be well formed (the frame CRC rejects it on the
        // wire); every other flip is an error, and nothing decoded holds
        // more than the payload carried.
        let mut errors = 0;
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            match decode_stats(&flipped) {
                Ok(decoded) => assert!(decoded.recent_cell_micros.capacity() * 8 <= flipped.len()),
                Err(_) => errors += 1,
            }
        }
        assert!(errors > 0);
        // An entry count inflated to u32::MAX runs out of bytes instead of
        // reserving four billion entries.
        let mut inflated = payload.clone();
        inflated[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_stats(&inflated), Err(RecordError::Corrupt));
        // A name that is not UTF-8.
        assert_eq!(
            decode_stats(&stats_payload(&[(&[0xff, 0xfe][..], 1)])),
            Err(RecordError::Corrupt)
        );
        // A declared counter given twice.
        assert_eq!(
            decode_stats(&stats_payload(&[("requests", 1), ("requests", 2)])),
            Err(RecordError::Corrupt)
        );
        // A value its field cannot hold, and a pair naming a list.
        assert_eq!(
            decode_stats(&stats_payload(&[("protocol_version", 1 << 40)])),
            Err(RecordError::Corrupt)
        );
        assert_eq!(
            decode_stats(&stats_payload(&[("recent_cell_micros", 1)])),
            Err(RecordError::Corrupt)
        );
    }

    #[test]
    fn frames_of_every_served_version_are_accepted() {
        let mut wire = Vec::new();
        write_frame(&mut wire, REQ_STATS, b"").expect("writes");
        assert_eq!(wire[4..8], 4u32.to_le_bytes(), "this build speaks v4");
        let frame = read_frame(&mut wire.as_slice()).expect("reads");
        assert_eq!(frame.kind, REQ_STATS);
        // v4 is the only version served: v3 and v5 are both foreign.
        for version in [3u32, 5] {
            let mut foreign = wire.clone();
            foreign[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                read_frame(&mut foreign.as_slice()),
                Err(WireError::VersionMismatch { found, expected: PROTOCOL_VERSION })
                    if found == version
            ));
        }
    }
}
