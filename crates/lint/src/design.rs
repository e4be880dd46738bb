//! Design-rule enforcement: the architectural decisions this workspace
//! made on purpose, checked mechanically.
//!
//! * **Dependency policy** — the build is std-only by design: every
//!   manifest outside `crates/compat` may declare only `path = ..`
//!   dependencies, and the heavyweight ecosystem crates (`serde`,
//!   `tokio`, …) are banned outright. `crates/compat` is the one place
//!   external API surface gets reimplemented.
//! * **Durable writes** — persistence uses temp file + fsync + atomic
//!   rename. A bare `fs::rename` in a function that never fsyncs is a
//!   torn-write bug waiting for a power cut: the rename can land while
//!   the data blocks have not.
//! * **Matcher fingerprint** — files in the matcher-kernel set feed the
//!   warm cache's `MATCHER_VERSION` fingerprint; each must reference it
//!   (in code or docs) so nobody changes matching semantics without
//!   confronting the version bump.
//! * **One evaluation pipeline** — a mechanism becomes a schedule and a
//!   time only in `tacos-workload`'s `evaluate` module; a front-end crate
//!   (`cli`, `scenario`, `serve`) constructing a baseline generator or a
//!   simulator is a private copy of that pipeline regrowing.
//! * **No sleeping polls** — between a client's `connect` and its answer
//!   the daemon never sleeps: every wait in `crates/serve/src/daemon.rs`
//!   is a blocking wait with a named waker. `thread::sleep`, `try_recv`
//!   and `set_nonblocking` are how a poll loop comes back.
//! * **One axis table** — `crates/scenario/src/axis.rs` describes every
//!   sweep axis once; parsing, expansion, exclusion, grouping and the
//!   output cells read its rows. An axis name spelled as a string
//!   literal anywhere else in `tacos-scenario`'s production source is a
//!   hand-written per-axis arm regrowing.

use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::{Finding, Rule};

/// Crates that must never appear as dependencies outside `crates/compat`.
const BANNED_DEPS: &[&str] = &["serde", "tokio", "async-std", "reqwest", "hyper", "rayon"];

/// Manifest sections whose keys are dependency names.
fn is_dep_section(section: &str) -> bool {
    section == "dependencies"
        || section == "dev-dependencies"
        || section == "build-dependencies"
        || section.ends_with(".dependencies")
}

/// Checks one `Cargo.toml` (given as repo-relative path + text).
pub fn analyze_manifest(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if rel.starts_with("crates/compat") {
        return out;
    }
    let mut section = String::new();
    // `[dependencies.foo]` subsection tracking: the dep is non-path
    // unless a `path` key shows up before the next section header.
    let mut pending: Option<(String, u32)> = None;
    let mut pending_has_path = false;

    let flush = |pending: &mut Option<(String, u32)>, has_path: bool, out: &mut Vec<Finding>| {
        if let Some((dep, line)) = pending.take() {
            if !has_path {
                out.push(Finding {
                    rule: Rule::Design,
                    file: rel.to_string(),
                    line,
                    token: dep.clone(),
                    message: format!(
                        "dependency `{dep}` is not `path = ..` — external crates are only \
                         allowed under crates/compat"
                    ),
                });
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut pending, pending_has_path, &mut out);
            pending_has_path = false;
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .to_string();
            // `[dependencies.foo]` — a single-dep subsection.
            for prefix in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                if let Some(dep) = section.strip_prefix(prefix) {
                    pending = Some((dep.to_string(), line_no));
                    check_banned(rel, dep, line_no, &mut out);
                }
            }
            continue;
        }
        if pending.is_some() {
            if line.starts_with("path") {
                pending_has_path = true;
            }
            continue;
        }
        if !is_dep_section(&section) {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let dep = key.trim().trim_matches('"');
        check_banned(rel, dep, line_no, &mut out);
        if !value.contains("path") {
            out.push(Finding {
                rule: Rule::Design,
                file: rel.to_string(),
                line: line_no,
                token: dep.to_string(),
                message: format!(
                    "dependency `{dep}` is not `path = ..` — external crates are only allowed \
                     under crates/compat"
                ),
            });
        }
    }
    flush(&mut pending, pending_has_path, &mut out);
    out
}

fn check_banned(rel: &str, dep: &str, line: u32, out: &mut Vec<Finding>) {
    if BANNED_DEPS.contains(&dep) {
        out.push(Finding {
            rule: Rule::Design,
            file: rel.to_string(),
            line,
            token: dep.to_string(),
            message: format!(
                "`{dep}` is banned by the std-only design — reimplement the needed surface \
                 under crates/compat instead"
            ),
        });
    }
}

/// Flags `fs::rename` in production source whose enclosing function
/// never fsyncs (`sync_all` / `sync_data`).
pub fn analyze_rename(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if !f.rel.contains("/src/") {
        return out; // tests may shuffle files freely
    }
    let toks = &f.toks;
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "rename" {
            continue;
        }
        if i + 1 >= toks.len() || !(toks[i + 1].kind == TokKind::Punct && toks[i + 1].text == "(") {
            continue; // `rename` as a parameter or field, not a call
        }
        if f.in_test_code(toks[i].line) {
            continue;
        }
        let Some(func) = f.enclosing_fn(i) else {
            continue;
        };
        let (a, b) = func.body.unwrap_or((i, i));
        let fsyncs = toks[a..=b.min(toks.len() - 1)].iter().any(|t| {
            t.kind == TokKind::Ident && matches!(t.text.as_str(), "sync_all" | "sync_data")
        });
        if !fsyncs {
            out.push(Finding {
                rule: Rule::Design,
                file: f.rel.clone(),
                line: toks[i].line,
                token: "rename".into(),
                message: format!(
                    "`fs::rename` in fn {} without an fsync (`sync_all`/`sync_data`) in the \
                     same function — a crash can land the rename before the data",
                    func.name
                ),
            });
        }
    }
    out
}

/// Constructors the front-end crates' production source must not call,
/// each with the one place that owns what it builds.
const OWNED_CONSTRUCTORS: [(&str, &str, &str); 6] = [
    ("BaselineAlgorithm", "new", PIPELINE),
    ("Simulator", "new", PIPELINE),
    ("Topology", "rfs_3d", FABRICS),
    ("Topology", "switch_2d", FABRICS),
    ("Topology", "dragonfly", FABRICS),
    ("TopologyBuilder", "new", FABRICS),
];

const PIPELINE: &str = "mechanisms are generated and timed only by tacos-workload's \
     evaluation pipeline (Mechanism::plan / Generation::generate / Evaluator::evaluate); \
     call that instead of growing a private copy";

const FABRICS: &str = "fabrics are built only by tacos-topology's spec vocabulary \
     (parse_topology / CustomTopology::build); extend that instead of growing a private \
     parser";

/// Flags a call of an `OWNED_CONSTRUCTORS` entry (`Simulator::new(`,
/// `Topology::rfs_3d(`, ...) in the front-end crates' production source
/// (test code may build references freely).
pub fn analyze_pipeline_copies(f: &SourceFile) -> Vec<Finding> {
    const FRONT_ENDS: [&str; 3] = [
        "crates/cli/src/",
        "crates/scenario/src/",
        "crates/serve/src/",
    ];
    let mut out = Vec::new();
    if !FRONT_ENDS.iter().any(|p| f.rel.starts_with(p)) {
        return out;
    }
    for w in f.toks.windows(5) {
        let text = |i: usize| w[i].text.as_str();
        let owned = OWNED_CONSTRUCTORS
            .iter()
            .find(|&&(ty, func, _)| [text(0), text(1), text(2), text(3)] == [ty, ":", ":", func]);
        if let Some(&(ty, func, owner)) = owned {
            if text(4) == "(" && !f.in_test_code(w[0].line) {
                out.push(Finding {
                    rule: Rule::Design,
                    file: f.rel.clone(),
                    line: w[0].line,
                    token: format!("{ty}::{func}"),
                    message: format!("`{ty}::{func}(` in a front-end crate — {owner}"),
                });
            }
        }
    }
    out
}

/// Flags `sleep(`, `try_recv(` and `set_nonblocking(` calls in the
/// daemon's production source — the ingredients of a poll loop, each of
/// which once put a fixed delay between a client and its answer.
/// Deliberate delays (fault injection) carry a
/// `// lint: allow(design, "fault injection ..")`.
pub fn analyze_sleep_polls(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if f.rel != "crates/serve/src/daemon.rs" {
        return out;
    }
    for w in f.toks.windows(2) {
        let call = w[0].text.as_str();
        if w[0].kind == TokKind::Ident
            && matches!(call, "sleep" | "try_recv" | "set_nonblocking")
            && w[1].text == "("
            && !f.in_test_code(w[0].line)
        {
            out.push(Finding {
                rule: Rule::Design,
                file: f.rel.clone(),
                line: w[0].line,
                token: call.to_string(),
                message: format!(
                    "`{call}(` in the daemon — nothing sleeps between a client's connect and \
                     its answer: block on the queue, the socket or the stop condvar \
                     (ServerState::park) instead of polling, or justify a deliberate delay \
                     with `// lint: allow(design, \"fault injection ..\")`"
                ),
            });
        }
    }
    out
}

/// Flags the string literals `"without_links"` / `"prefer_cheap_links"`
/// in `tacos-scenario`'s production source outside the axis table. The
/// two names stand for the whole axis list: no code but a per-axis arm
/// has a reason to spell them.
pub fn analyze_axis_copies(f: &SourceFile) -> Vec<Finding> {
    const TABLE: &str = "crates/scenario/src/axis.rs";
    let mut out = Vec::new();
    if !f.rel.starts_with("crates/scenario/src/") || f.rel == TABLE {
        return out;
    }
    // The lexer drops literal contents: find the lines that carry a
    // string literal, then read the names off the raw line.
    let mut lines: Vec<u32> = f
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Str && !f.in_test_code(t.line))
        .map(|t| t.line)
        .collect();
    lines.dedup();
    let source: Vec<&str> = f.text.lines().collect();
    for line in lines {
        let text = source.get(line as usize - 1).copied().unwrap_or("");
        for axis in ["without_links", "prefer_cheap_links"] {
            if text.contains(&format!("\"{axis}\"")) {
                out.push(Finding {
                    rule: Rule::Design,
                    file: f.rel.clone(),
                    line,
                    token: axis.to_string(),
                    message: format!(
                        "the axis name \"{axis}\" spelled outside {TABLE} — axes are \
                         described once, in `AXES`; read the row (its name, ranks, cells, \
                         accessors) instead of growing a per-axis arm"
                    ),
                });
            }
        }
    }
    out
}

/// Requires every matcher-kernel file to reference `MATCHER_VERSION`.
pub fn analyze_matcher_version(files: &[SourceFile], kernel: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    for rel in kernel {
        let Some(f) = files.iter().find(|f| &f.rel == rel) else {
            continue; // file absent (e.g. fixture tree) — nothing to check
        };
        if !f.text.contains("MATCHER_VERSION") {
            out.push(Finding {
                rule: Rule::Design,
                file: f.rel.clone(),
                line: 1,
                token: "matcher-version".into(),
                message: "matcher-kernel file does not reference MATCHER_VERSION — changes \
                          here alter matching semantics and must confront the cache version \
                          bump (see crates/core/src/cache.rs)"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_deps_pass_and_registry_deps_fail() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[package]\nname = \"x\"\n[dependencies]\n\
             good = { path = \"../good\" }\nbad = \"1.0\"\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "bad");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn banned_deps_fail_even_with_path() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[dependencies]\nserde = { path = \"../compat/serde\" }\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("banned"));
    }

    #[test]
    fn compat_manifests_are_exempt() {
        let f = analyze_manifest(
            "crates/compat/rand/Cargo.toml",
            "[dependencies]\nzzz = \"1\"\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn dep_subsection_with_path_passes() {
        let f = analyze_manifest(
            "crates/x/Cargo.toml",
            "[dependencies.good]\npath = \"../good\"\n\n[dependencies.bad]\nversion = \"1\"\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].token, "bad");
    }

    #[test]
    fn rename_without_fsync_is_flagged() {
        let src = "fn save(p: &Path) {\n  std::fs::write(p, b\"x\");\n  \
                   std::fs::rename(p, p);\n}\n\
                   fn good(p: &Path) {\n  f.sync_all();\n  std::fs::rename(p, p);\n}\n";
        let f = analyze_rename(&SourceFile::parse("crates/x/src/a.rs".into(), src.into()));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("fn save"));
    }

    #[test]
    fn pipeline_copies_are_flagged_in_front_ends_only() {
        let src = "fn time() {\n  let r = Simulator::new().simulate(t, a);\n}\n\
                   #[cfg(test)]\nmod tests {\n  fn reference() { BaselineAlgorithm::new(k); }\n}\n";
        let front = SourceFile::parse("crates/scenario/src/runner.rs".into(), src.into());
        let f = analyze_pipeline_copies(&front);
        assert_eq!(f.len(), 1, "test-code construction is exempt: {f:?}");
        assert_eq!((f[0].line, f[0].token.as_str()), (2, "Simulator::new"));
        let fabric = "fn build() {\n  Topology::dragonfly(4, 4, l, g)\n}\n\
                      fn name() { Topology::rfs_3d }\n";
        let front = SourceFile::parse("crates/serve/src/daemon.rs".into(), fabric.into());
        let f = analyze_pipeline_copies(&front);
        assert_eq!(f.len(), 1, "only a call is flagged: {f:?}");
        assert_eq!((f[0].line, f[0].token.as_str()), (2, "Topology::dragonfly"));
        assert!(f[0].message.contains("CustomTopology::build"), "{f:?}");
        // The pipeline's own crate (and every non-front-end crate) may
        // construct both.
        let owner = SourceFile::parse("crates/workload/src/evaluate.rs".into(), src.into());
        assert!(analyze_pipeline_copies(&owner).is_empty());
    }

    #[test]
    fn sleeping_polls_are_flagged_in_the_daemon_only() {
        let src = "fn worker(rx: &Receiver<Job>) {\n  loop {\n    \
                   if let Ok(j) = rx.try_recv() { run(j); }\n    \
                   thread::sleep(POLL);\n  }\n}\n\
                   fn bind(l: &TcpListener) { l.set_nonblocking(true); }\n\
                   fn fine(rx: &Receiver<Job>, sleep: u32) { rx.recv(); rx.recv_timeout(sleep); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { thread::sleep(d); }\n}\n";
        let daemon = SourceFile::parse("crates/serve/src/daemon.rs".into(), src.into());
        let found: Vec<(u32, String)> = analyze_sleep_polls(&daemon)
            .into_iter()
            .map(|f| (f.line, f.token))
            .collect();
        assert_eq!(
            found,
            [
                (3, "try_recv".to_string()),
                (4, "sleep".to_string()),
                (7, "set_nonblocking".to_string())
            ]
        );
        // Clients and the chaos harness may sleep and poll.
        let client = SourceFile::parse("crates/serve/src/client.rs".into(), src.into());
        assert!(analyze_sleep_polls(&client).is_empty());
    }

    #[test]
    fn axis_names_are_flagged_outside_the_table_only() {
        let src = "fn header() -> [&'static str; 2] {\n  [\"scenario\", \"without_links\"]\n}\n\
                   fn fine(p: &Point) -> String { format!(\"f{}\", p.without_links) }\n\
                   // \"prefer_cheap_links\" in a comment is no literal.\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { key(\"prefer_cheap_links\"); }\n}\n";
        let arm = SourceFile::parse("crates/scenario/src/runner.rs".into(), src.into());
        let found: Vec<(u32, String)> = analyze_axis_copies(&arm)
            .into_iter()
            .map(|f| (f.line, f.token))
            .collect();
        assert_eq!(found, [(2, "without_links".to_string())]);
        // The table itself, and every other crate, may name axes.
        for rel in ["crates/scenario/src/axis.rs", "crates/cli/src/main.rs"] {
            let other = SourceFile::parse(rel.into(), src.into());
            assert!(analyze_axis_copies(&other).is_empty(), "{rel}");
        }
    }

    #[test]
    fn matcher_kernel_must_reference_version() {
        let yes = SourceFile::parse("k.rs".into(), "// MATCHER_VERSION guard\n".into());
        let no = SourceFile::parse("m.rs".into(), "fn f() {}\n".into());
        let f = analyze_matcher_version(&[yes, no], &["k.rs".into(), "m.rs".into()]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].file, "m.rs");
    }
}
