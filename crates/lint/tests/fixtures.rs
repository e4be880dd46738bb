//! End-to-end fixture tests: the analyzer run over two miniature
//! workspace trees that mimic the real repo's relative paths, so the
//! default [`Options`] designated-file rules fire unchanged.
//!
//! * `tests/fixtures/clean` — every rule satisfied, including the two
//!   regression cases that once false-positived on the real repo: a
//!   suppression reason containing parentheses, and a multi-line
//!   `// SAFETY:` block taller than any fixed window.
//! * `tests/fixtures/broken` — one seeded violation per rule; each must
//!   surface with the offending file and line.

use std::path::{Path, PathBuf};

use tacos_lint::{baseline, render_report, render_stats, run, Options, Outcome, Rule};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> Outcome {
    run(&Options::new(fixture_root(name))).expect("fixture tree scans")
}

#[test]
fn clean_tree_has_no_findings() {
    let out = run_fixture("clean");
    assert!(
        out.findings.is_empty(),
        "clean tree must lint clean, got:\n{}",
        render_report(&out)
    );
    // The one panic site carries a well-formed allow (with parens in the
    // reason), so does the one injected-fault sleep, and nothing is
    // baselined.
    assert_eq!(out.allowed, 2);
    assert_eq!(out.baselined, 0);
    // The clean tree's lock graph exists and is cycle-free: two locks,
    // consistent a-before-b order.
    assert_eq!(out.stats.locks, 2);
    assert!(out.stats.edges >= 1);
}

#[test]
fn broken_tree_fails_every_rule_with_location() {
    let out = run_fixture("broken");
    let has = |rule: Rule, file: &str, line: u32| {
        out.findings
            .iter()
            .any(|f| f.rule == rule && f.file == file && f.line == line)
    };

    // Panic-path audit: bare unwrap at its exact site, and the malformed
    // suppression (reason missing) converted into a finding.
    assert!(has(Rule::Panic, "crates/serve/src/daemon.rs", 6), "unwrap");
    assert!(
        out.findings
            .iter()
            .any(|f| f.file == "crates/serve/src/daemon.rs"
                && f.line == 10
                && f.token == "malformed-allow"),
        "malformed allow"
    );
    // Design: a poll loop in the daemon — both halves of it.
    assert!(
        has(Rule::Design, "crates/serve/src/daemon.rs", 15),
        "try_recv"
    );
    assert!(has(Rule::Design, "crates/serve/src/daemon.rs", 18), "sleep");
    // The unwrap and the sleep inside #[cfg(test)] must NOT be flagged.
    assert!(
        !out.findings
            .iter()
            .any(|f| f.file == "crates/serve/src/daemon.rs" && f.line > 20),
        "test-code finding leaked: {:?}",
        out.findings
    );

    // Unsafe hygiene.
    assert!(has(Rule::Unsafe, "crates/core/src/raw.rs", 4), "unsafe");

    // Design: rename without fsync, missing MATCHER_VERSION, banned dep.
    assert!(has(Rule::Design, "crates/core/src/store.rs", 9), "rename");
    assert!(
        out.findings
            .iter()
            .any(|f| f.rule == Rule::Design && f.file == "crates/core/src/matching.rs"),
        "matcher version"
    );
    assert!(
        out.findings
            .iter()
            .any(|f| f.rule == Rule::Design && f.file == "crates/badcrate/Cargo.toml"),
        "banned dependency"
    );

    // Design: a front-end crate regrowing a private copy of the
    // evaluation pipeline.
    assert!(has(Rule::Design, "crates/serve/src/copy.rs", 5), "copy");

    // Design: a front-end crate building a fabric outside the topology
    // spec vocabulary.
    assert!(
        has(Rule::Design, "crates/scenario/src/fabric.rs", 5),
        "fabric"
    );

    // Design: a single-request front end building a request's fabric
    // instead of resolving a `Point`.
    assert!(
        has(Rule::Design, "crates/serve/src/point.rs", 5),
        "request point"
    );

    // Design: a scenario consumer spelling an axis name instead of
    // reading the axis table.
    assert!(
        has(Rule::Design, "crates/scenario/src/arm.rs", 5),
        "axis arm"
    );

    // Lock order: the AB/BA pair must produce a cycle finding whose
    // message carries both acquisition chains (file:line witnesses).
    let cycle = out
        .findings
        .iter()
        .find(|f| f.rule == Rule::LockOrder && f.token.starts_with("cycle:"))
        .expect("lock-order cycle finding");
    assert!(
        cycle.message.contains("crates/core/src/pair.rs"),
        "cycle message must point into pair.rs: {}",
        cycle.message
    );
}

#[test]
fn report_is_deterministic_across_runs() {
    let a = run_fixture("broken");
    let b = run_fixture("broken");
    assert_eq!(render_report(&a), render_report(&b));
    assert_eq!(render_stats(&a), render_stats(&b));
    // Findings are path-sorted: the report never depends on directory
    // iteration order.
    let mut sorted = a.findings.clone();
    sorted.sort();
    assert_eq!(a.findings, sorted);
}

#[test]
fn baseline_absorbs_known_findings_but_not_new_ones() {
    let out = run_fixture("broken");
    assert!(!out.findings.is_empty());
    // Grandfather everything the broken tree produces…
    let base = baseline::parse(&baseline::render(&out.findings));
    let (fresh, grandfathered) = baseline::apply(out.findings.clone(), &base);
    assert!(fresh.is_empty(), "all findings baselined: {fresh:?}");
    assert_eq!(grandfathered, out.findings.len());
    // …but the count ratchet refuses a second finding with the same
    // fingerprint: duplicate one and it must come out fresh.
    let mut more = out.findings.clone();
    let mut dup = more[0].clone();
    dup.line += 1000;
    more.push(dup.clone());
    more.sort();
    let (fresh, _) = baseline::apply(more, &base);
    assert_eq!(fresh, vec![dup], "over-count must fail the gate");
}
