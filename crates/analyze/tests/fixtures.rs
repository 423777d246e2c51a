//! Fixture-tree integration tests: each lint pass runs through the real
//! `analyze()` entry point (file walking, manifest wiring, path-scoped
//! pass selection) over two mini-repos under `tests/fixtures/` — a clean
//! tree that must produce zero findings and a seeded-violation tree that
//! must trip every pass — plus the `--deny` baseline semantics on top.

use std::path::{Path, PathBuf};

use ncgws_analyze::findings::{Baseline, Finding};
use ncgws_analyze::{analyze, Analysis};

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn run(which: &str) -> Analysis {
    analyze(&fixture_root(which)).expect("fixture tree is readable")
}

fn keys(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(Finding::key).collect()
}

#[test]
fn clean_tree_produces_zero_findings() {
    let analysis = run("clean");
    assert_eq!(analysis.files, 3, "clean fixture tree has three files");
    assert_eq!(
        keys(&analysis.findings),
        Vec::<String>::new(),
        "the clean tree must pass every pass"
    );
    // The documented unsafe sites still appear in the inventory.
    assert_eq!(analysis.unsafe_sites.len(), 2);
    assert!(analysis.unsafe_sites.iter().all(|s| s.documented));
}

#[test]
fn violation_tree_trips_every_pass() {
    let analysis = run("violations");
    let passes_hit: Vec<&str> = {
        let mut p: Vec<&str> = analysis.findings.iter().map(|f| f.pass).collect();
        p.sort();
        p.dedup();
        p
    };
    assert_eq!(
        passes_hit,
        vec!["feature-gate", "no-alloc", "panic-path", "unsafe-audit"],
        "each of the four passes must fire on its seeded violation"
    );
    let details: Vec<&str> = analysis
        .findings
        .iter()
        .map(|f| f.detail.as_str())
        .collect();
    // no-alloc: the seeded `vec![…]` and `.to_vec()` in the manifest file.
    assert!(details.contains(&"vec!"), "details: {details:?}");
    assert!(details.contains(&"to_vec"), "details: {details:?}");
    // panic-path: unwrap, panic! and unjustified indexing in serve code.
    assert!(details.contains(&"unwrap"), "details: {details:?}");
    assert!(details.contains(&"panic!"), "details: {details:?}");
    assert!(details.contains(&"indexing"), "details: {details:?}");
    // unsafe-audit: both the undocumented block and the undocumented fn.
    assert!(details.contains(&"unsafe-block"), "details: {details:?}");
    assert!(details.contains(&"unsafe-fn"), "details: {details:?}");
    // feature-gate: gated early-return without fallback + unpaired fn.
    assert!(
        details.contains(&"no-sequential-fallback"),
        "details: {details:?}"
    );
    assert!(
        details.contains(&"parallel-only-fn"),
        "details: {details:?}"
    );
    // Nothing in the seeded tree is a manifest-stale artifact: the trip
    // wires come from real code idioms, not a mismatched manifest.
    assert!(details.iter().all(|d| !d.starts_with("manifest-stale")));
}

/// The `--deny` contract, driven at the library layer: an empty baseline
/// rejects the seeded tree, a baseline accepting every fingerprint passes
/// it, and fixing the problems turns those entries stale.
#[test]
fn baseline_deny_semantics_over_the_fixture_trees() {
    let violations = run("violations");
    assert!(!violations.findings.is_empty());

    let empty = Baseline::default();
    let new_count = violations
        .findings
        .iter()
        .filter(|f| !empty.contains(f))
        .count();
    assert_eq!(
        new_count,
        violations.findings.len(),
        "an empty baseline denies every seeded finding"
    );

    let accepting = Baseline::parse(&keys(&violations.findings).join("\n"));
    assert!(
        violations.findings.iter().all(|f| accepting.contains(f)),
        "a baseline listing every fingerprint accepts the tree"
    );
    assert!(accepting.stale(&violations.findings).is_empty());

    // The clean tree against the accepting baseline: nothing new, and
    // every accepted entry is now stale (the problems were "fixed").
    let clean = run("clean");
    assert!(clean.findings.iter().all(|f| accepting.contains(f)));
    assert_eq!(accepting.stale(&clean.findings).len(), accepting.keys.len());
}

/// Line-number independence of fingerprints: the committed baseline key of
/// a finding does not change when unrelated lines are inserted above it.
#[test]
fn fingerprints_are_stable_under_line_shifts() {
    use ncgws_analyze::findings::Sink;
    use ncgws_analyze::model::FileModel;

    let src =
        std::fs::read_to_string(fixture_root("violations").join("crates/serve/src/handler.rs"))
            .expect("fixture readable");
    let shifted = format!("// one\n// two\n// three\n{src}");

    let base = {
        let model = FileModel::build("crates/serve/src/handler.rs".into(), &src);
        let mut sink = Sink::default();
        let mut sites = Vec::new();
        ncgws_analyze::analyze_model(&model, &mut sink, &mut sites);
        sink.findings
    };
    let moved = {
        let model = FileModel::build("crates/serve/src/handler.rs".into(), &shifted);
        let mut sink = Sink::default();
        let mut sites = Vec::new();
        ncgws_analyze::analyze_model(&model, &mut sink, &mut sites);
        sink.findings
    };
    assert!(!base.is_empty());
    assert_eq!(keys(&base), keys(&moved), "keys survive the line shift");
    assert_ne!(
        base.iter().map(|f| f.line).collect::<Vec<_>>(),
        moved.iter().map(|f| f.line).collect::<Vec<_>>(),
        "lines did actually move (the keys' stability is not vacuous)"
    );
}

/// The JSON decoder under `vendor/` is held to the panic-path rule, while
/// the rest of `vendor/` stays unscanned.
#[test]
fn decoder_file_is_scanned_for_panic_paths() {
    let analysis = run("decoder");
    assert_eq!(analysis.files, 1, "only the decoder file is analyzed");
    // The unjustified index and the expect are reported; the justified
    // index is not.
    assert_eq!(
        keys(&analysis.findings),
        [
            "panic-path|vendor/serde/src/de.rs|first_key|indexing@1",
            "panic-path|vendor/serde/src/de.rs|first_key|expect@1",
        ]
    );
}
