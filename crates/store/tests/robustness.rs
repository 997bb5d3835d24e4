//! Robustness acceptance of the grid store: records survive the round trip
//! byte-identically, and every kind of damage — tampered bytes, truncated
//! files, foreign format versions — degrades to a clean miss or a clean
//! error, never to wrong data.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use secbranch_armv7m::{Cond, Instr, Operand2, ProgramBuilder, Reg, Simulator, Target};
use secbranch_campaign::{
    record_reference, BranchInversion, CampaignRunner, CellKey, FaultModel, TraceKey,
};
use secbranch_store::{GridStore, StoreError};

/// A unique, self-cleaning store directory under the system temp dir (the
/// offline workspace has no tempfile crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "secbranch-store-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&dir).expect("temp dir creatable");
        TempDir(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `max(a, b)` — one conditional branch; enough surface for real traces,
/// checkpoints and campaign reports.
fn max_simulator() -> Simulator {
    let mut p = ProgramBuilder::new();
    p.label("max");
    p.push(Instr::Cmp {
        rn: Reg::R0,
        op2: Operand2::Reg(Reg::R1),
    });
    p.push(Instr::BCond {
        cond: Cond::Hs,
        target: Target::label("done"),
    });
    p.push(Instr::Mov {
        rd: Reg::R0,
        rm: Reg::R1,
    });
    p.label("done");
    p.push(Instr::Bx { rm: Reg::Lr });
    Simulator::new(p.assemble().expect("assembles"), 4096)
}

/// Every record file in a family's shard subdirectories.
fn record_files(dir: &std::path::Path, family: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir.join(family)).expect("family dir exists") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            for entry in fs::read_dir(&path).expect("shard dir readable") {
                files.push(entry.expect("entry").path());
            }
        }
    }
    files
}

fn sole_record_file(dir: &std::path::Path, family: &str) -> PathBuf {
    let mut files = record_files(dir, family);
    assert_eq!(files.len(), 1, "exactly one {family} record expected");
    files.pop().expect("one file")
}

#[test]
fn trace_and_cell_records_round_trip_byte_identically_through_disk() {
    let dir = TempDir::new("roundtrip");
    let sim = max_simulator();
    let recorded = record_reference(&sim, "max", &[7, 3], 100).expect("records");
    let trace_key = TraceKey::new("art-fp", "max", &[7, 3]);
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[7, 3], 100, &BranchInversion)
        .expect("campaign runs");
    let cell_key = CellKey::new("art-fp", BranchInversion.fingerprint(), "max", &[7, 3]);

    let store = GridStore::open(dir.path()).expect("opens");
    store.put_trace(&trace_key, &recorded);
    store.put_cell(&cell_key, &report);

    // A *different* store instance (fresh process simulation) reads back.
    let reopened = GridStore::open(dir.path()).expect("reopens");
    let persisted = reopened.get_trace(&trace_key).expect("trace loads");
    assert_eq!(persisted.trace.result, recorded.trace.result);
    assert_eq!(persisted.trace.pcs, recorded.trace.pcs);
    assert_eq!(
        persisted.trace.conditional_steps,
        recorded.trace.conditional_steps
    );
    assert_eq!(persisted.memory_size, recorded.memory_size);
    assert_eq!(persisted.checkpoints.len(), recorded.checkpoints.len());

    let loaded = reopened.get_cell(&cell_key).expect("cell loads");
    assert_eq!(loaded, report, "structured equality");
    assert_eq!(loaded.to_json(), report.to_json(), "byte-identical JSON");

    // Unknown keys are clean misses.
    assert!(reopened
        .get_cell(&CellKey::new("other", "branch-invert", "max", &[7, 3]))
        .is_none());
    assert_eq!(reopened.stats().cell_misses, 1);
}

#[test]
fn tampered_records_are_dropped_not_served() {
    let dir = TempDir::new("tamper");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[9, 2], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[9, 2]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);

    // Flip one payload byte: the CRC must catch it.
    let file = sole_record_file(dir.path(), "cells");
    let mut bytes = fs::read(&file).expect("readable");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&file, &bytes).expect("writable");

    let reopened = GridStore::open(dir.path()).expect("reopens");
    assert!(reopened.get_cell(&key).is_none(), "tampered record dropped");
    assert_eq!(reopened.stats().corrupt_dropped, 1);
    let scan = reopened.scan().expect("scans");
    assert_eq!(scan.corrupt_records, 1);
    assert_eq!(scan.cell_records, 0);

    // The store recovers by rewriting the record.
    reopened.put_cell(&key, &report);
    assert_eq!(reopened.get_cell(&key).expect("restored"), report);
}

#[test]
fn truncated_records_are_dropped_and_rewritable() {
    let dir = TempDir::new("truncate");
    let sim = max_simulator();
    let recorded = record_reference(&sim, "max", &[5, 5], 100).expect("records");
    let key = TraceKey::new("art-fp", "max", &[5, 5]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_trace(&key, &recorded);

    let file = sole_record_file(dir.path(), "traces");
    let bytes = fs::read(&file).expect("readable");
    for keep in [0, 3, 10, bytes.len() / 2, bytes.len() - 1] {
        fs::write(&file, &bytes[..keep]).expect("writable");
        let reopened = GridStore::open(dir.path()).expect("reopens");
        assert!(
            reopened.get_trace(&key).is_none(),
            "truncation to {keep} bytes must read as a miss"
        );
        assert_eq!(reopened.stats().corrupt_dropped, 1);
    }

    // An overwrite heals the store.
    store.put_trace(&key, &recorded);
    assert!(store.get_trace(&key).is_some());
}

#[test]
fn version_mismatch_is_rejected_cleanly_at_open() {
    let dir = TempDir::new("version");
    GridStore::open(dir.path()).expect("initialises the manifest");

    // Bump the manifest version: a future-format directory.
    let manifest = dir.path().join("MANIFEST");
    let mut bytes = fs::read(&manifest).expect("readable");
    let len = bytes.len();
    bytes[len - 4..].copy_from_slice(&(GridStore::FORMAT_VERSION + 1).to_le_bytes());
    fs::write(&manifest, &bytes).expect("writable");

    match GridStore::open(dir.path()) {
        Err(StoreError::VersionMismatch { found, expected }) => {
            assert_eq!(found, GridStore::FORMAT_VERSION + 1);
            assert_eq!(expected, GridStore::FORMAT_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }

    // A manifest that is not a manifest at all is also rejected, not read.
    fs::write(&manifest, b"garbage").expect("writable");
    assert!(matches!(
        GridStore::open(dir.path()),
        Err(StoreError::CorruptManifest)
    ));
}

#[test]
fn open_sweeps_stale_staging_files_but_not_fresh_ones() {
    let dir = TempDir::new("staging");
    GridStore::open(dir.path()).expect("initialises");
    let fresh = dir.path().join("tmp").join("123.0.tmp");
    let stale = dir.path().join("tmp").join("456.0.tmp");
    fs::write(&fresh, b"in flight").expect("writable");
    fs::write(&stale, b"left by a crashed writer").expect("writable");
    // Backdate the stale file past the sweep threshold (best effort: if
    // this host cannot set mtimes the assertion below is skipped).
    let backdated = std::process::Command::new("touch")
        .args(["-d", "2 days ago"])
        .arg(&stale)
        .status()
        .map(|s| s.success())
        .unwrap_or(false);

    GridStore::open(dir.path()).expect("reopens");
    assert!(
        fresh.exists(),
        "a fresh staging file may belong to a live writer and must survive"
    );
    if backdated {
        assert!(!stale.exists(), "stale staging files are swept at open");
    }
}

#[test]
fn records_land_in_their_hash_shard() {
    let dir = TempDir::new("sharded");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[6, 2], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[6, 2]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);

    let file = sole_record_file(dir.path(), "cells");
    let shard = file
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .expect("shard dir name")
        .to_string();
    let stem = file
        .file_stem()
        .and_then(|n| n.to_str())
        .expect("record file name");
    assert_eq!(
        shard,
        stem[..2].to_string(),
        "shard dir is the first byte of the key hash"
    );
}

/// Format v2 retired the flat `<family>/<hash16>.rec` layout: a v1
/// directory is refused at open, and a file at a family's top level is not
/// a record — never served, never counted.
#[test]
fn v1_directories_are_refused_and_flat_files_are_not_records() {
    let v1 = TempDir::new("v1");
    let mut manifest = b"SBGRIDMF".to_vec();
    manifest.extend_from_slice(&1u32.to_le_bytes());
    fs::write(v1.path().join("MANIFEST"), manifest).expect("writable");
    match GridStore::open(v1.path()) {
        Err(StoreError::VersionMismatch {
            found: 1,
            expected: 2,
        }) => {}
        other => panic!("expected a v1 directory to be refused, got {other:?}"),
    }

    let dir = TempDir::new("flat");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[4, 9], 100, &BranchInversion)
        .expect("campaign runs");
    let key = CellKey::new("art-fp", "branch-invert", "max", &[4, 9]);
    let store = GridStore::open(dir.path()).expect("opens");
    store.put_cell(&key, &report);
    let sharded = sole_record_file(dir.path(), "cells");
    let flat = dir
        .path()
        .join("cells")
        .join(sharded.file_name().expect("file name"));
    fs::rename(&sharded, &flat).expect("flattens");
    assert_eq!(store.get_cell(&key), None, "a flat file is not served");
    assert!(flat.exists(), "and it is left alone");
    let scan = store.scan().expect("scans");
    assert_eq!((scan.cell_records, scan.corrupt_records), (0, 0));
}

#[test]
fn compaction_drops_dead_artifacts_and_keeps_live_ones() {
    let dir = TempDir::new("compact");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[3, 8], 100, &BranchInversion)
        .expect("campaign runs");
    let recorded = record_reference(&sim, "max", &[3, 8], 100).expect("records");

    let store = GridStore::open(dir.path()).expect("opens");
    for artifact in ["live-fp", "dead-fp"] {
        store.put_trace(&TraceKey::new(artifact, "max", &[3, 8]), &recorded);
        store.put_cell(
            &CellKey::new(artifact, "branch-invert", "max", &[3, 8]),
            &report,
        );
    }
    // One unclassifiable file in a shard rides along and must be collected
    // too.
    fs::create_dir_all(dir.path().join("cells").join("00")).expect("shard creatable");
    fs::write(
        dir.path().join("cells").join("00").join("junk.rec"),
        b"not a record",
    )
    .expect("writable");

    let live: std::collections::HashSet<String> = ["live-fp".to_string()].into_iter().collect();
    let compacted = store.compact(&live).expect("compacts");
    assert_eq!(compacted.retained, 2);
    assert_eq!(compacted.removed_traces, 1);
    assert_eq!(compacted.removed_cells, 1);
    assert_eq!(compacted.removed_corrupt, 1);
    assert_eq!(compacted.removed(), 3);
    assert!(compacted.reclaimed_bytes > 0);

    // The live records still load; the dead ones are clean misses.
    assert!(store
        .get_trace(&TraceKey::new("live-fp", "max", &[3, 8]))
        .is_some());
    assert!(store
        .get_cell(&CellKey::new("live-fp", "branch-invert", "max", &[3, 8]))
        .is_some());
    assert!(store
        .get_trace(&TraceKey::new("dead-fp", "max", &[3, 8]))
        .is_none());
    let scan = store.scan().expect("scans");
    assert_eq!((scan.trace_records, scan.cell_records), (1, 1));
    assert_eq!(scan.corrupt_records, 0);
}

#[test]
fn concurrent_openers_see_consistent_snapshots() {
    let dir = TempDir::new("concurrent");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[8, 1], 100, &BranchInversion)
        .expect("campaign runs");

    // Two stores over one directory, used from several threads at once:
    // every load observes either nothing or a complete, intact record.
    let a = Arc::new(GridStore::open(dir.path()).expect("opens"));
    let b = Arc::new(GridStore::open(dir.path()).expect("opens"));
    let keys: Vec<CellKey> = (0..16)
        .map(|i| CellKey::new("art-fp", "branch-invert", "max", &[8, 1, i]))
        .collect();

    std::thread::scope(|scope| {
        for writer in [&a, &b] {
            let writer = Arc::clone(writer);
            let keys = keys.clone();
            let report = report.clone();
            scope.spawn(move || {
                for key in &keys {
                    writer.put_cell(key, &report);
                }
            });
        }
        for reader in [&a, &b] {
            let reader = Arc::clone(reader);
            let keys = keys.clone();
            let report = report.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    for key in &keys {
                        if let Some(loaded) = reader.get_cell(key) {
                            assert_eq!(loaded, report, "no torn or foreign record is ever served");
                        }
                    }
                }
            });
        }
    });

    // After the dust settles: both handles agree with the disk and nothing
    // was flagged corrupt.
    for key in &keys {
        assert_eq!(a.get_cell(key).expect("present"), report);
        assert_eq!(b.get_cell(key).expect("present"), report);
    }
    assert_eq!(a.stats().corrupt_dropped + b.stats().corrupt_dropped, 0);
    let scan = a.scan().expect("scans");
    assert_eq!(scan.cell_records, 16);
    assert_eq!(scan.corrupt_records, 0);
}

#[test]
fn eviction_trims_oldest_records_down_to_the_byte_budget() {
    let dir = TempDir::new("evict");
    let sim = max_simulator();
    let report = CampaignRunner::new()
        .with_threads(1)
        .run(&sim, "max", &[3, 8], 100, &BranchInversion)
        .expect("campaign runs");

    let store = GridStore::open(dir.path()).expect("opens");
    // Eight cell records, written oldest-to-newest with distinct mtimes
    // (filetime granularity can be coarse, so space them explicitly).
    let mut keys = Vec::new();
    for i in 0..8u32 {
        let key = CellKey::new(format!("fp-{i}"), "branch-invert", "max", &[3, 8]);
        store.put_cell(&key, &report);
        keys.push(key);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let scan = store.scan().expect("scans");
    assert_eq!(scan.cell_records, 8);
    let total = scan.total_bytes;
    let per_record = total / 8;

    // A budget above the current footprint evicts nothing.
    let idle = store.evict_to(total + 1).expect("evicts");
    assert_eq!(idle.evicted, 0);
    assert_eq!(idle.examined, 8);
    assert_eq!(idle.retained_bytes, total);

    // A budget of roughly half evicts the OLDEST records first.
    let evicted = store.evict_to(total / 2).expect("evicts");
    assert!(evicted.evicted >= 4, "evicted {} records", evicted.evicted);
    assert!(evicted.retained_bytes <= total / 2);
    assert_eq!(evicted.reclaimed_bytes + evicted.retained_bytes, total);
    assert!(evicted.reclaimed_bytes >= evicted.evicted * (per_record - 64));
    // LRU order: the newest records survive, the oldest are gone.
    for (i, key) in keys.iter().enumerate() {
        let present = store.get_cell(key).is_some();
        if i >= 8 - (8 - evicted.evicted as usize) {
            assert!(present, "record {i} (recent) must survive");
        }
    }
    assert!(
        store.get_cell(&keys[0]).is_none(),
        "oldest record is evicted"
    );
    assert!(store.get_cell(&keys[7]).is_some(), "newest record survives");

    // Everything still on disk is intact.
    let rescan = store.scan().expect("scans");
    assert_eq!(rescan.corrupt_records, 0);
    assert_eq!(rescan.cell_records, 8 - evicted.evicted);
}
