//! Pins grid expansion of every shipped scenario: point count and every
//! point label, in order, for the full grid and (where declared) the
//! `[quick]` grid. The fixture was generated at the commit *before*
//! expansion became a table walk and is committed unchanged, so a
//! reordered axis, a lost exclusion or a changed label fails here.

use std::fmt::Write as _;
use std::path::PathBuf;

use tacos_scenario::{expand, ScenarioSpec};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The fixture text for the scenarios on disk: per file (sorted by name)
/// and grid, a `# <file> <grid> <count>` line followed by the labels.
fn render() -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join("scenarios"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = ScenarioSpec::from_file(&path).unwrap();
        let mut grids = vec![("full", &spec)];
        if let Some(quick) = spec.quick.as_deref() {
            grids.push(("quick", quick));
        }
        for (grid, spec) in grids {
            let points = expand(spec).unwrap();
            writeln!(out, "# {file} {grid} {}", points.len()).unwrap();
            for (i, p) in points.iter().enumerate() {
                assert_eq!(p.index, i, "{file} {grid}: indices are dense");
                writeln!(out, "{}", p.label()).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_scenario_expands_to_the_pinned_point_list() {
    let fixture = include_str!("fixtures/expand_golden.txt");
    let actual = render();
    assert_eq!(
        fixture.matches("\n# ").count() + 1,
        21 + 4,
        "21 scenario files, 4 of them with a [quick] grid"
    );
    for (line, (want, got)) in fixture.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "fixture line {}", line + 1);
    }
    assert_eq!(fixture.lines().count(), actual.lines().count());
}
