//! Golden key lists of `campaign --matrix --json`: CI gates and
//! EXPERIMENTS.md read this document by key, so a renamed, dropped or
//! reordered key must show up as a test failure, not as a silent gate miss.

use std::process::Command;

/// The keys of the JSON object that `json` starts with, in document order
/// (nested objects and arrays are skipped over, string values are not keys).
fn object_keys(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    assert_eq!(bytes.first(), Some(&b'{'), "not an object: {json:.40}");
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut index = 0;
    while index < bytes.len() {
        match bytes[index] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b'"' => {
                let start = index + 1;
                index = start;
                while bytes[index] != b'"' {
                    index += if bytes[index] == b'\\' { 2 } else { 1 };
                }
                if depth == 1 && bytes.get(index + 1) == Some(&b':') {
                    keys.push(json[start..index].to_string());
                }
            }
            _ => {}
        }
        index += 1;
    }
    keys
}

/// The value of top-level `key` in `json`, from its first byte on.
fn value_of<'a>(json: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key:?} key"));
    &json[at + needle.len()..]
}

const TOP_LEVEL_KEYS: &str = "grid threads shard_size host_parallelism trials max_steps \
    build_micros sequential matrix store speedup identical";

const MATRIX_KEYS: &str = "wall_micros trace_hits trace_disk_hits trace_misses cell_hits \
    cell_misses cell_compute_micros snapshot_restores suffix_steps_saved decoded_programs \
    decoded_uops decode_micros compute_histogram per_model";

#[test]
fn matrix_json_keys_are_pinned() {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--matrix",
            "--json",
            "--per-model",
            "--threads",
            "2",
            "--trials",
            "4",
        ])
        .output()
        .expect("campaign runs");
    assert!(
        output.status.success(),
        "campaign --matrix failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let json = stdout.trim();

    assert_eq!(object_keys(json).join(" "), normalise(TOP_LEVEL_KEYS));
    assert_eq!(
        object_keys(value_of(json, "matrix")).join(" "),
        normalise(MATRIX_KEYS)
    );
    assert!(json.ends_with("\"identical\":true}"), "{json:.200}");
}

fn normalise(keys: &str) -> String {
    keys.split_whitespace().collect::<Vec<_>>().join(" ")
}
