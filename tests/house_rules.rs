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

/// `(relative path, text)` of each file under `dir` (relative to the
/// repo root) whose relative path passes `keep`.
fn sources(dir: &str, keep: impl Fn(&Path) -> bool) -> Vec<(String, String)> {
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
            found.push((rel.display().to_string(), text));
        }
    }
    found
}

/// `file:line: text` for each line matching `hit` in the files under
/// `dir` (relative to the repo root) whose relative path passes `keep`.
fn scan(dir: &str, keep: impl Fn(&Path) -> bool, hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (file, text) in sources(dir, keep) {
        for (i, line) in text.lines().enumerate() {
            if hit(line) {
                found.push(format!("{file}:{}: {}", i + 1, line.trim()));
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

/// The name of the function `line` declares, if it declares one.
fn declared_fn(line: &str) -> Option<&str> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let (i, _) = line
        .match_indices("fn ")
        .find(|&(i, _)| !line[..i].chars().next_back().is_some_and(ident))?;
    let rest = &line[i + 3..];
    let name = &rest[..rest.find(|c: char| !ident(c)).unwrap_or(rest.len())];
    (!name.is_empty()).then_some(name)
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
    // A rollback point is a plain `ModelUpdate`, so the type cannot say
    // where one lives; the calls that take and restore one can.
    assert_clean(
        "each canary worker keeps its own rollback point; only service/worker.rs captures or restores one",
        scan(
            "crates/runtime/src",
            |p| p != Path::new("crates/runtime/src/service/worker.rs"),
            |line| line.contains("capture_rollback(") || line.contains("rollback_to("),
        ),
    );
}

#[test]
fn one_model_record() {
    // A rollback point is a `ModelUpdate`, every app has a formatter
    // factory, and updates carry no float weights.
    let gone = ["RollbackPoint", "MlpWeights", "UnrestorableFormatter", "export_weights"];
    assert_clean(
        "the model record is `ModelUpdate` alone",
        scan("crates", |_| true, |line| gone.iter().any(|needle| line.contains(needle))),
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
fn one_reduction_loop_per_dense_layer() {
    // The panel-outer reduction that built and broadcast every input
    // pair once per panel; the pair-outer group loop replaced it. The
    // SSE2 across-packets reduction; the AVX2 one replaced it.
    let gone = ["reduce_pairs", "reduce_across"];
    assert_clean(
        "a dense layer has two reduction forms: per packet, pair-outer over panel groups; \
         across packets, over groups of eight",
        scan("crates", |_| true, |line| gone.iter().any(|w| has_word(line, w))),
    );
    // A dense layer's multiply-adds run in exactly two loops: per
    // packet, pair-outer over groups of panels (`reduce_group`, through
    // the SSE2 step `madd`); across packets, row by row over a group of
    // eight packets in one AVX2 register (`reduce_rows`).
    let mut loops = Vec::new();
    for (file, needle) in
        [("crates/cgra/src/lib.rs", "simd::madd("), ("crates/cgra/src/simd.rs", "madd_epi16(")]
    {
        let text = std::fs::read_to_string(root().join(file)).expect("the CGRA simulator");
        let mut current = None;
        for line in text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")) {
            current = declared_fn(line).or(current);
            let found = format!("{file}: {}", current.unwrap_or("(no function)"));
            if line.contains(needle) && !loops.contains(&found) {
                loops.push(found);
            }
        }
    }
    loops.sort();
    assert_eq!(
        loops,
        [
            "crates/cgra/src/lib.rs: reduce_group",
            "crates/cgra/src/simd.rs: madd",
            "crates/cgra/src/simd.rs: reduce_rows",
        ],
        "the per-packet reduction and its multiply-add step, the across-packets reduction, and no third"
    );
}

#[test]
fn one_lookup_per_mat_one_result_per_switch() {
    // A MAT is one field's disjoint exact/range entries, found by one
    // binary search and writing one field; a switch returns one
    // `SwitchVerdict` per packet, and per-app votes live in its report.
    let gone = [
        "VliwOp",
        "MatchKind",
        "TableEntry",
        "FastPath",
        "MAX_OPS_PER_ACTION",
        "range_encoder",
        "SwitchResult",
        "process_trace_packet",
    ];
    let elsewhere = |p: &Path| p != Path::new("tests/house_rules.rs");
    let mut offenders = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        offenders.extend(scan(dir, elsewhere, |line| gone.iter().any(|w| has_word(line, w))));
    }
    assert_clean("one lookup per MAT, one result per switch", offenders);
}

#[test]
fn one_worker_loop() {
    // Every roster runs the group loop: no switch or engine says
    // whether grouping pays, and no per-packet worker entry remains.
    let gone = ["has_batch_kernel", "process_slot_verdict"];
    let elsewhere = |p: &Path| p != Path::new("tests/house_rules.rs");
    let mut offenders = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        offenders.extend(scan(dir, elsewhere, |line| gone.iter().any(|w| has_word(line, w))));
    }
    assert_clean("one worker loop: the group form for every roster", offenders);
    // The resident worker reaches its replica through one packet entry.
    let file = "crates/runtime/src/service/worker.rs";
    let text = std::fs::read_to_string(root().join(file)).expect("the engine worker");
    let body: Vec<&str> = text
        .lines()
        .skip_while(|l| declared_fn(l) != Some("engine_worker"))
        .skip(1)
        .take_while(|l| declared_fn(l).is_none())
        .collect();
    let mut entries: Vec<&str> = body
        .iter()
        .flat_map(|l| l.match_indices("switch.process").map(|(i, _)| &l[i + "switch.".len()..]))
        .map(|call| &call[..call.find('(').unwrap_or(call.len())])
        .collect();
    entries.sort();
    entries.dedup();
    assert_eq!(entries, ["process_prepared_batch"], "{file}: `engine_worker`'s packet entries");
}

#[test]
fn trainers_take_one_flat_feature_set() {
    // A feature set is a `Rows`: no trainer, quantizer, `accuracy`,
    // `Dataset` or `AnomalyDetector` entry point takes or returns rows of
    // `Vec`s. A set of LSTM sequences (`&[Vec<Vec<f32>>]`) is not a
    // feature set.
    let entry = [
        "train",
        "fit",
        "fit_supervised",
        "quantize",
        "accuracy",
        "new",
        "features",
        "map_features",
        "from_data",
        "prepare_update",
        "run_online_training",
    ];
    let row_of_vecs = |sig: &str| {
        let sig = sig.replace("[Vec<Vec<f32>>]", "");
        sig.contains("Vec<Vec<f32>>") || sig.contains("[Vec<f32>]")
    };
    let mut offenders = Vec::new();
    for dir in ["crates", "tests", "examples", "src"] {
        for (file, text) in sources(dir, is_rs) {
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if !declared_fn(line).is_some_and(|name| entry.contains(&name)) {
                    continue;
                }
                // The signature runs to the line that opens the body or
                // ends the declaration.
                let end = lines[i..]
                    .iter()
                    .position(|l| l.contains('{') || l.trim_end().ends_with(';'))
                    .map_or(lines.len(), |k| i + k + 1);
                if row_of_vecs(&lines[i..end].concat()) {
                    offenders.push(format!("{file}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    offenders.sort();
    assert_clean("trainers take one flat feature set, `Rows`", offenders);
}

/// The attributes written on the lines just above line `at` (the
/// attribute block between a declaration's docs and its `fn`), with
/// trailing comments stripped.
fn attributes_above<'a>(lines: &[&'a str], at: usize) -> Vec<&'a str> {
    let attribute = |l: &&str| l.trim_start().starts_with("#[");
    let block = lines[..at].iter().copied().rev().take_while(attribute);
    block.map(|l| l.split("//").next().unwrap_or("").trim()).collect()
}

/// `file:line` of each non-test declaration of `name` in `file` that
/// lacks `attribute`, or one line saying no declaration was found.
fn lacking(file: &str, name: &str, attribute: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join(file))
        .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
    let lines: Vec<&str> = text.lines().collect();
    let tests = lines.iter().position(|l| l.starts_with("#[cfg(test)]")).unwrap_or(lines.len());
    let decls: Vec<usize> = (0..tests).filter(|&i| declared_fn(lines[i]) == Some(name)).collect();
    if decls.is_empty() {
        return vec![format!("{file}: no `fn {name}` (renamed? update this rule)")];
    }
    decls
        .into_iter()
        .filter(|&i| !attributes_above(&lines, i).contains(&attribute))
        .map(|i| format!("{file}:{}: {} (wants `{attribute}`)", i + 1, lines[i].trim()))
        .collect()
}

#[test]
fn the_packet_path_crosses_no_crate_boundary_by_call() {
    // `benchmark/` and the runtime reach these per packet from another
    // crate, and a release build without LTO inlines a non-generic
    // function across a crate boundary only when it is `#[inline]`. A
    // name with two declarations in one file (`read`, `observe`) wants
    // the attribute on both.
    let per_packet: [(&str, &[&str]); 10] = [
        ("crates/dataset/src/trace.rs", &["canonical", "reversed", "hash"]),
        ("crates/pisa/src/packet.rs", &["tcp"]),
        ("crates/pisa/src/parser.rs", &["parse_into"]),
        ("crates/pisa/src/phv.rs", &["reset", "cell", "get", "set", "set_features"]),
        ("crates/pisa/src/mat.rs", &["apply"]),
        (
            "crates/pisa/src/registers.rs",
            &[
                "read",
                "add_saturating",
                "rotate_if_needed",
                "bump",
                "observe",
                "observe_prepared",
                "observe_slot",
                "front",
                "probe",
                "accumulate_at",
            ],
        ),
        (
            "crates/pisa/src/flow_table.rs",
            &[
                "is_start",
                "new",
                "access",
                "is_keyed",
                "op",
                "slots_mut",
                "access_direct",
                "access_keyed",
                "apply",
            ],
        ),
        (
            "crates/pisa/src/pipeline.rs",
            &[
                "from_code",
                "max_severity",
                "process",
                "process_prepared",
                "process_slot",
                "process_prepared_batch",
                "lanes",
                "rows",
                "push",
                "clear",
            ],
        ),
        (
            "crates/core/src/ingest.rs",
            &[
                "validate_wire",
                "admit",
                "to_packet",
                "to_packet_into",
                "wire_obs",
                "packet_obs",
                "flow_start_flags_ok",
                "observe",
                "observe_into",
                "mark_seen",
            ],
        ),
        (
            "crates/core/src/switch.rs",
            &[
                "process",
                "process_prepared_verdict",
                "process_prepared_batch",
                "process_trace_verdict",
                "run_apps",
                "vote",
                "tally",
            ],
        ),
    ];
    let mut offenders = Vec::new();
    for (file, names) in per_packet {
        for name in names {
            offenders.extend(lacking(file, name, "#[inline]"));
        }
    }
    // The deliberate exceptions: the lane endpoints stay out of the
    // loops that call them, and the saturation-only accounting and the
    // directory's first-probe allocation stay off the fall-through path.
    for name in ["send", "recv"] {
        offenders.extend(lacking("crates/runtime/src/spsc.rs", name, "#[inline(never)]"));
    }
    offenders.extend(lacking("crates/runtime/src/overload.rs", "record_bypass", "#[cold]"));
    offenders.extend(lacking("crates/pisa/src/flow_table.rs", "allocate", "#[cold]"));
    assert_clean(
        "the per-packet path inlines across crates; its named exceptions stay out of line",
        offenders,
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

#[test]
fn attributes_are_read_from_the_block_above_a_declaration() {
    let lines = ["/// Docs.", "#[inline(never)] // see `send`", "#[must_use]", "pub fn recv() {}"];
    assert_eq!(attributes_above(&lines, 3), ["#[must_use]", "#[inline(never)]"]);
    assert!(attributes_above(&lines, 1).is_empty(), "docs end the block");
}

#[test]
fn declared_functions_are_found_by_name() {
    assert_eq!(declared_fn("    pub fn train(&mut self, x: &Rows) {"), Some("train"));
    assert_eq!(declared_fn("fn new<R: AsRef<[f32]>>(x: Vec<R>) -> Self {"), Some("new"));
    assert_eq!(declared_fn("    pub(crate) unsafe fn fit("), Some("fit"));
    assert_eq!(declared_fn("let f = defn (x);"), None);
    assert_eq!(declared_fn("    // no declaration here"), None);
}
