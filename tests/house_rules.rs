//! House rules no compiler enforces, checked over the source tree.
//!
//! Each rule is a text pattern that must not appear outside the files
//! allowed to hold it. A failure lists every offending `file:line`.
//! The walk skips build output (`target`), the separate `benchmark/`
//! workspace and hidden directories.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `file:line: text` for each line matching `hit` in the files under
/// `dir` (relative to the repo root) whose relative path passes `keep`.
fn scan(dir: &str, keep: impl Fn(&Path) -> bool, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let root = root();
    let mut found = Vec::new();
    let mut stack = vec![root.join(dir)];
    while let Some(current) = stack.pop() {
        let entries = std::fs::read_dir(&current)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", current.display()));
        for entry in entries {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("entry name").to_string_lossy();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "benchmark") {
                    stack.push(path);
                }
                continue;
            }
            let rel = path.strip_prefix(&root).expect("under the root");
            if !keep(rel) {
                continue;
            }
            // Non-UTF-8 files are not source.
            let Ok(text) = std::fs::read_to_string(&path) else { continue };
            for (i, line) in text.lines().enumerate() {
                if hit(line) {
                    found.push(format!("{}:{}: {}", rel.display(), i + 1, line.trim()));
                }
            }
        }
    }
    found.sort();
    found
}

fn assert_clean(rule: &str, offenders: Vec<String>) {
    assert!(offenders.is_empty(), "{rule}; offending lines:\n{}", offenders.join("\n"));
}

fn is_rs(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rs")
}

/// `word` occurs in `line` with no identifier character on either side.
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(ident)
            && !line[i + word.len()..].chars().next().is_some_and(ident)
    })
}

#[test]
fn one_serializer_and_no_external_one() {
    // Split so this file does not match its own needle.
    let needle = concat!("ser", "de");
    let source_or_manifest = |p: &Path| {
        is_rs(p) || p.file_name().is_some_and(|n| n == "Cargo.toml" || n == "Cargo.lock")
    };
    assert_clean(
        "goldens are text renderings (`{:#?}` or the experiments' tables); no source or manifest names the external serializer",
        scan(".", source_or_manifest, |line| line.contains(needle)),
    );
}

#[test]
fn unsafe_lives_only_in_the_simd_kernel() {
    let library_source = |p: &Path| {
        is_rs(p)
            && p.components().nth(2).is_some_and(|c| c.as_os_str() == "src")
            && p != Path::new("crates/cgra/src/simd.rs")
    };
    assert_clean(
        "the dense kernel's SSE2 steps in crates/cgra/src/simd.rs are the only library `unsafe`",
        scan("crates", library_source, |line| has_word(line, "unsafe")),
    );
}

#[test]
fn rollback_points_never_cross_threads() {
    assert_clean(
        "each canary worker keeps its own rollback point; only service/worker.rs names it",
        scan(
            "crates/runtime/src",
            |p| p != Path::new("crates/runtime/src/service/worker.rs"),
            |line| line.contains("RollbackPoint"),
        ),
    );
}

#[test]
fn one_overload_policy_besides_block() {
    // The paper's: an over-budget packet gets the line-rate default.
    let gone = ["OverloadPolicy::Shed", "shed_packets", "flow_buckets"];
    assert_clean(
        "there is no drop mode and no per-bucket map",
        scan("crates", |_| true, |line| gone.iter().any(|needle| line.contains(needle))),
    );
}

#[test]
fn the_runtime_never_sizes_itself_to_the_host() {
    assert_clean(
        "no runtime code path may depend on the core count it happens to run on",
        scan(
            "crates/runtime/src",
            |_| true,
            |line| line.contains("available_parallelism") || line.contains("thread::scope"),
        ),
    );
}

#[test]
fn one_model_per_block() {
    // The simulator reports the compiler's timing instead of re-walking
    // the placed units, and activations have one datapath: the LUT
    // built from `Activation::eval_f32`, not a second Q-format one.
    assert_clean(
        "the CGRA simulator takes its timing from the compiled program",
        scan(
            "crates/cgra/src",
            |_| true,
            |line| line.contains("taurus_compiler::timing") || has_word(line, "edge_cost"),
        ),
    );
    let gone = ["ActLut", "eval_q", "QuantizedVec"];
    assert_clean(
        "taurus-fixed has no Q-format activation path",
        scan(
            "crates",
            |_| true,
            |line| line.contains("Q32<") || gone.iter().any(|word| has_word(line, word)),
        ),
    );
}

#[test]
fn public_surface_something_runs() {
    // Deleted because only their own unit tests ran them: the no-op
    // round-robin join and the queues beside it, the second Conv1D
    // lowering, the JSON encoder, the §3.3.2 graphs and the wire codec.
    let gone = [
        "taurus_ml::conv",
        "conv1d_to_graph",
        "taurus_bench::json",
        "ToJson",
        "RoundRobinJoin",
        "Pifo",
        "queue_capacity",
        "count_min_sketch",
        "parse_bytes",
    ];
    let elsewhere = |p: &Path| p != Path::new("tests/house_rules.rs");
    let mut offenders = Vec::new();
    for dir in ["crates", "tests"] {
        offenders.extend(scan(dir, elsewhere, |line| gone.iter().any(|w| has_word(line, w))));
    }
    assert_clean("test-only public surface stays deleted", offenders);
    assert_clean(
        "packets are decoded header fields; no manifest names the `bytes` crate",
        scan(".", |p| p.ends_with("Cargo.toml"), |line| has_word(line, "bytes")),
    );
}

#[test]
fn word_matching_respects_identifier_boundaries() {
    assert!(has_word("unsafe { x }", "unsafe"));
    assert!(has_word("#[deny(unsafe)]", "unsafe"));
    assert!(!has_word("unsafe_op_in_unsafe_fn2", "unsafe"));
    assert!(!has_word("is_unsafe", "unsafe"));
}
