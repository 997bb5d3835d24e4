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

use secbranch_campaign::CampaignReport;
use secbranch_store::format::{crc32, Reader, RecordError, Writer};
use secbranch_store::StoreStats;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"SBGD";

/// The protocol version this build speaks. Bump on any frame or payload
/// layout change — peers refuse other versions instead of misparsing them.
/// v2 added [`GridRequest::cold`] (the decoders reject trailing bytes, so
/// the field could not ride on v1 frames). v3 added the `REQ_METRICS` /
/// `RESP_METRICS` exchange and four executor counters to
/// [`StatsSnapshot`]; v2 peers are still served (see
/// [`MIN_PROTOCOL_VERSION`]) — every reply is framed and encoded at the
/// peer's version, with the v3-only stats fields left off v2 payloads.
pub const PROTOCOL_VERSION: u32 = 3;

/// The oldest protocol version this build still serves. Frames between
/// here and [`PROTOCOL_VERSION`] are accepted and answered at the peer's
/// version; anything older (or newer) is rejected with a [`RejectFrame`].
pub const MIN_PROTOCOL_VERSION: u32 = 2;

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
/// daemon's metrics registry (empty payload). v3 only — a v2 peer sending
/// this kind gets a [`RejectFrame`] for the frame, without losing the
/// connection.
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
/// the daemon closes the connection after sending it — except for a v2
/// peer's [`REQ_METRICS`], which is rejected per-frame with the
/// connection kept open.
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
    /// The protocol version the frame carried (within
    /// [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`]).
    pub version: u32,
    /// The kind tag (one of the `REQ_*`/`RESP_*` constants).
    pub kind: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame at this build's own [`PROTOCOL_VERSION`].
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_frame(stream: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_versioned(stream, PROTOCOL_VERSION, kind, payload)
}

/// Writes one frame stamped with an explicit protocol version — how the
/// daemon answers a [`MIN_PROTOCOL_VERSION`] peer in the version it
/// speaks.
///
/// # Errors
///
/// Propagates stream I/O failures.
pub fn write_frame_versioned(
    stream: &mut impl Write,
    version: u32,
    kind: u8,
    payload: &[u8],
) -> io::Result<()> {
    let mut header = Vec::with_capacity(HEADER_LEN + payload.len());
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
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
/// the frame carries a version outside
/// [`MIN_PROTOCOL_VERSION`]..=[`PROTOCOL_VERSION`],
/// [`WireError::Corrupt`] on bad magic, an oversized length or a CRC
/// mismatch.
pub fn read_frame(stream: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(WireError::Corrupt);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("length checked"));
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
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
    Ok(Frame {
        version,
        kind,
        payload,
    })
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

/// The daemon's observability surface: a superset of the per-run
/// `MatrixStats` — lifetime request/cell counters, the job queue, the
/// shared trace store, recent per-cell compute times, and the persistent
/// store's own counters when one is attached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The daemon's protocol version.
    pub protocol_version: u32,
    /// Grid requests admitted.
    pub requests: u64,
    /// Cells requested across all grid requests.
    pub cells_requested: u64,
    /// Cells served from the grid store without simulation.
    pub warm_cells: u64,
    /// Cells computed on the worker pool.
    pub computed_cells: u64,
    /// Cells coalesced onto an identical in-flight computation
    /// (single-flight).
    pub coalesced_cells: u64,
    /// Reference traces recorded by the daemon (lifetime).
    pub recordings: u64,
    /// Requests refused or failed (validation, budgets, simulation
    /// errors, deadlines).
    pub request_errors: u64,
    /// Connections rejected for speaking a foreign protocol version.
    pub version_rejects: u64,
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: u64,
    /// Jobs currently executing on workers.
    pub in_flight: u64,
    /// Worker threads of the pool.
    pub workers: u64,
    /// Capacity of the bounded job queue.
    pub queue_capacity: u64,
    /// Jobs ever admitted to the pool.
    pub pool_submitted: u64,
    /// Jobs completed successfully.
    pub pool_completed: u64,
    /// Jobs whose fault-free reference run failed.
    pub pool_errored: u64,
    /// Jobs dropped unexecuted because the request deadline passed while
    /// they were still queued.
    pub pool_expired: u64,
    /// Injection compute time summed over all completed cells, in µs.
    pub pool_compute_micros: u64,
    /// Reference traces served from the in-memory trace store.
    pub trace_hits: u64,
    /// Reference traces loaded from the persistent store.
    pub trace_disk_hits: u64,
    /// Reference traces that had to be recorded.
    pub trace_misses: u64,
    /// Distinct programs decoded into micro-ops by the daemon's executors
    /// (v3; encoded as zero-left-off on v2 frames).
    pub decoded_programs: u64,
    /// Wall-clock microseconds spent in those decodes (v3).
    pub decode_micros: u64,
    /// Spine-snapshot restores across all computed cells (v3).
    pub snapshot_restores: u64,
    /// Reference-suffix steps the differential executors avoided
    /// executing (v3).
    pub suffix_steps_saved: u64,
    /// Compute µs of the most recently completed cells (newest last).
    pub recent_cell_micros: Vec<u64>,
    /// The attached grid store's runtime counters (`None` when the daemon
    /// runs without persistence).
    pub store: Option<StoreStats>,
}

impl StatsSnapshot {
    /// Serialises the snapshot as JSON (hand-rolled: the offline build has
    /// no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let recent: Vec<String> = self.recent_cell_micros.iter().map(u64::to_string).collect();
        format!(
            "{{\"protocol_version\":{},\"requests\":{},\"cells_requested\":{},\
             \"warm_cells\":{},\"computed_cells\":{},\"coalesced_cells\":{},\
             \"recordings\":{},\"request_errors\":{},\"version_rejects\":{},\
             \"queue_depth\":{},\"in_flight\":{},\"workers\":{},\"queue_capacity\":{},\
             \"pool_submitted\":{},\"pool_completed\":{},\"pool_errored\":{},\
             \"pool_expired\":{},\"pool_compute_micros\":{},\"trace_hits\":{},\
             \"trace_disk_hits\":{},\"trace_misses\":{},\"decoded_programs\":{},\
             \"decode_micros\":{},\"snapshot_restores\":{},\"suffix_steps_saved\":{},\
             \"recent_cell_micros\":[{}],\"store\":{}}}",
            self.protocol_version,
            self.requests,
            self.cells_requested,
            self.warm_cells,
            self.computed_cells,
            self.coalesced_cells,
            self.recordings,
            self.request_errors,
            self.version_rejects,
            self.queue_depth,
            self.in_flight,
            self.workers,
            self.queue_capacity,
            self.pool_submitted,
            self.pool_completed,
            self.pool_errored,
            self.pool_expired,
            self.pool_compute_micros,
            self.trace_hits,
            self.trace_disk_hits,
            self.trace_misses,
            self.decoded_programs,
            self.decode_micros,
            self.snapshot_restores,
            self.suffix_steps_saved,
            recent.join(","),
            self.store
                .as_ref()
                .map_or_else(|| "null".to_string(), StoreStats::to_json),
        )
    }
}

/// Encodes a [`StatsSnapshot`] payload for a peer speaking `version`.
/// The four executor counters added in v3 are left off v2 payloads —
/// the decoders reject trailing bytes, so they cannot ride along.
#[must_use]
pub fn encode_stats(stats: &StatsSnapshot, version: u32) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(stats.protocol_version);
    for v in [
        stats.requests,
        stats.cells_requested,
        stats.warm_cells,
        stats.computed_cells,
        stats.coalesced_cells,
        stats.recordings,
        stats.request_errors,
        stats.version_rejects,
        stats.queue_depth,
        stats.in_flight,
        stats.workers,
        stats.queue_capacity,
        stats.pool_submitted,
        stats.pool_completed,
        stats.pool_errored,
        stats.pool_expired,
        stats.pool_compute_micros,
        stats.trace_hits,
        stats.trace_disk_hits,
        stats.trace_misses,
    ] {
        w.u64(v);
    }
    if version >= 3 {
        w.u64(stats.decoded_programs);
        w.u64(stats.decode_micros);
        w.u64(stats.snapshot_restores);
        w.u64(stats.suffix_steps_saved);
    }
    w.u64s(&stats.recent_cell_micros);
    match &stats.store {
        None => w.u8(0),
        Some(s) => {
            w.u8(1);
            for v in [
                s.trace_hits,
                s.trace_misses,
                s.cell_hits,
                s.cell_misses,
                s.writes,
                s.write_skips,
                s.write_errors,
                s.corrupt_dropped,
                s.migrated,
            ] {
                w.u64(v);
            }
        }
    }
    w.into_bytes()
}

/// Decodes a [`StatsSnapshot`] payload encoded for a peer speaking
/// `version`; on a v2 payload the v3-only counters stay zero.
///
/// # Errors
///
/// [`RecordError::Corrupt`] on any malformed byte sequence.
pub fn decode_stats(payload: &[u8], version: u32) -> Result<StatsSnapshot, RecordError> {
    let mut r = Reader::new(payload);
    let mut stats = StatsSnapshot {
        protocol_version: r.u32()?,
        ..StatsSnapshot::default()
    };
    for field in [
        &mut stats.requests,
        &mut stats.cells_requested,
        &mut stats.warm_cells,
        &mut stats.computed_cells,
        &mut stats.coalesced_cells,
        &mut stats.recordings,
        &mut stats.request_errors,
        &mut stats.version_rejects,
        &mut stats.queue_depth,
        &mut stats.in_flight,
        &mut stats.workers,
        &mut stats.queue_capacity,
        &mut stats.pool_submitted,
        &mut stats.pool_completed,
        &mut stats.pool_errored,
        &mut stats.pool_expired,
        &mut stats.pool_compute_micros,
        &mut stats.trace_hits,
        &mut stats.trace_disk_hits,
        &mut stats.trace_misses,
    ] {
        *field = r.u64()?;
    }
    if version >= 3 {
        stats.decoded_programs = r.u64()?;
        stats.decode_micros = r.u64()?;
        stats.snapshot_restores = r.u64()?;
        stats.suffix_steps_saved = r.u64()?;
    }
    stats.recent_cell_micros = r.u64s()?;
    stats.store = match r.u8()? {
        0 => None,
        1 => {
            let mut s = StoreStats::default();
            for field in [
                &mut s.trace_hits,
                &mut s.trace_misses,
                &mut s.cell_hits,
                &mut s.cell_misses,
                &mut s.writes,
                &mut s.write_skips,
                &mut s.write_errors,
                &mut s.corrupt_dropped,
                &mut s.migrated,
            ] {
                *field = r.u64()?;
            }
            Some(s)
        }
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

        let stats = StatsSnapshot {
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
                migrated: 2,
                ..StoreStats::default()
            }),
            ..StatsSnapshot::default()
        };
        let decoded = decode_stats(&encode_stats(&stats, PROTOCOL_VERSION), PROTOCOL_VERSION)
            .expect("decodes");
        assert_eq!(decoded, stats);
        assert!(decoded.to_json().contains("\"coalesced_cells\":5"));
        assert!(decoded.to_json().contains("\"pool_expired\":4"));
        assert!(decoded.to_json().contains("\"migrated\":2"));
        assert!(decoded.to_json().contains("\"decoded_programs\":9"));
        assert!(decoded.to_json().contains("\"decode_micros\":1234"));
        assert!(decoded.to_json().contains("\"snapshot_restores\":77"));
        assert!(decoded.to_json().contains("\"suffix_steps_saved\":88888"));

        let stripped = StatsSnapshot::default();
        assert_eq!(
            decode_stats(&encode_stats(&stripped, PROTOCOL_VERSION), PROTOCOL_VERSION)
                .expect("decodes"),
            stripped
        );
        assert!(stripped.to_json().contains("\"store\":null"));
    }

    #[test]
    fn v2_stats_payloads_drop_the_executor_counters_cleanly() {
        let stats = StatsSnapshot {
            protocol_version: PROTOCOL_VERSION,
            requests: 3,
            decoded_programs: 9,
            decode_micros: 1_234,
            snapshot_restores: 77,
            suffix_steps_saved: 88_888,
            recent_cell_micros: vec![42],
            ..StatsSnapshot::default()
        };
        // A v2 payload carries no executor counters: the decoder (told it
        // is v2) leaves them zero, and every other field round-trips.
        let v2 = encode_stats(&stats, 2);
        let decoded = decode_stats(&v2, 2).expect("decodes");
        assert_eq!(decoded.requests, 3);
        assert_eq!(decoded.recent_cell_micros, vec![42]);
        assert_eq!(decoded.decoded_programs, 0);
        assert_eq!(decoded.suffix_steps_saved, 0);
        // The two layouts genuinely differ — the fields are not silently
        // appended where a v2 decoder would choke on them.
        assert_eq!(
            encode_stats(&stats, PROTOCOL_VERSION).len(),
            v2.len() + 4 * 8
        );
        // Mismatched framing fails cleanly instead of misparsing.
        assert_eq!(
            decode_stats(&v2, PROTOCOL_VERSION),
            Err(RecordError::Corrupt)
        );
    }

    #[test]
    fn frames_of_every_served_version_are_accepted() {
        for version in [MIN_PROTOCOL_VERSION, PROTOCOL_VERSION] {
            let mut wire = Vec::new();
            write_frame_versioned(&mut wire, version, REQ_STATS, b"").expect("writes");
            let frame = read_frame(&mut wire.as_slice()).expect("reads");
            assert_eq!(frame.version, version);
            assert_eq!(frame.kind, REQ_STATS);
        }
        // One below the floor and one above the ceiling are both foreign.
        for version in [MIN_PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            let mut wire = Vec::new();
            write_frame_versioned(&mut wire, version, REQ_STATS, b"").expect("writes");
            assert!(matches!(
                read_frame(&mut wire.as_slice()),
                Err(WireError::VersionMismatch { found, expected: PROTOCOL_VERSION })
                    if found == version
            ));
        }
    }
}
