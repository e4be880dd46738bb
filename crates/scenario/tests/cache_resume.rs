//! Integration test of cache-backed resumability: a repeated run
//! completes entirely from cache hits — zero new syntheses — and an
//! overlapping grid only generates its new points.

use tacos_scenario::{run, ScenarioSpec};

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tacos-scenario-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with_cache(sweep: &str, cache: &std::path::Path) -> ScenarioSpec {
    let text = format!(
        "[scenario]\nname = \"resume\"\n[sweep]\n{sweep}\n[run]\ncache = \"{}\"\nsimulate = true\n",
        cache.display()
    );
    let mut spec = ScenarioSpec::from_toml_str(&text).unwrap();
    spec.run.quiet = true;
    spec
}

#[test]
fn second_run_performs_zero_new_syntheses() {
    let cache = temp_cache("rerun");
    let sweep = "topology = [\"mesh:2x2\", \"ring:4\"]\n\
                 collective = [\"all-gather\"]\n\
                 size = [\"4MB\", \"8MB\"]\n\
                 algo = [\"tacos\", \"ring\"]";
    let mut spec = spec_with_cache(sweep, &cache);
    // Serialize execution: the two sizes of one TACOS key would otherwise
    // race to miss the cold cache.
    spec.run.threads = 1;

    let first = run(&spec).unwrap();
    assert_eq!(first.failed, 0);
    // Both fabrics are uniform, so TACOS synthesizes once per fabric and
    // its second size is a rescaled hit; the ring baseline is keyed by
    // size and generates every point.
    assert_eq!(first.generated, 6, "cold run: 2 TACOS + 4 ring");
    assert_eq!(first.cache_hits, 2);

    let second = run(&spec).unwrap();
    assert_eq!(second.failed, 0);
    assert_eq!(second.generated, 0, "warm run must not synthesize anything");
    assert_eq!(second.cache_hits, 8);

    // Identical results either way.
    for (a, b) in first.records.iter().zip(&second.records) {
        let (ma, mb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            ma.collective_time,
            mb.collective_time,
            "point {}",
            a.point.label()
        );
        assert_eq!(ma.transfers, mb.transfers);
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn overlapping_grid_is_incremental() {
    let cache = temp_cache("overlap");
    let small = spec_with_cache(
        "topology = [\"mesh:2x2\"]\ncollective = [\"all-gather\"]\nsize = [\"4MB\"]\nalgo = [\"tacos\"]",
        &cache,
    );
    let first = run(&small).unwrap();
    assert_eq!((first.generated, first.cache_hits), (1, 0));

    // A larger grid containing the already-run point only generates the
    // new ones.
    let mut grown = spec_with_cache(
        "topology = [\"mesh:2x2\"]\ncollective = [\"all-gather\"]\nsize = [\"4MB\", \"8MB\"]\nalgo = [\"tacos\", \"ring\"]",
        &cache,
    );
    grown.run.threads = 1;
    let second = run(&grown).unwrap();
    assert_eq!(second.records.len(), 4);
    // The shared point is served from cache, and so is TACOS at 8 MB:
    // mesh:2x2 is uniform, so both sizes have one cost shape.
    assert_eq!(
        second.cache_hits, 2,
        "the shared point and its other size are served from cache"
    );
    assert_eq!(second.generated, 2, "only the ring points generate");
    let _ = std::fs::remove_dir_all(&cache);
}

/// A size sweep on uniform fabrics (Fig. 16's torus and grid) synthesizes
/// once per fabric, and every cell of its report — bar the cache
/// disposition and the synthesis clock — is what an uncached run reports.
#[test]
fn a_uniform_size_sweep_synthesizes_once_per_fabric() {
    let cache = temp_cache("sizesweep");
    let sweep = "topology = [\"torus:4x4x4\", \"hypercube:4x4x4\"]\n\
                 collective = [\"all-reduce\"]\n\
                 size = [\"64MB\", \"0.5GB\", \"1GB\", \"2GB\"]\n\
                 algo = [\"tacos:4\"]\n\
                 seed = [42]\n\
                 link = [{ alpha_us = 0.7, bandwidth_gbps = 25.0 }]";
    let mut cached = spec_with_cache(sweep, &cache);
    cached.run.threads = 1;
    let summary = run(&cached).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(
        (summary.generated, summary.cache_hits),
        (2, 6),
        "one TACOS miss per fabric"
    );

    let mut uncached = cached.clone();
    uncached.run.cache = None;
    let reference = run(&uncached).unwrap();
    assert_eq!(reference.failed, 0);
    let blank = |rows: Vec<Vec<String>>| {
        let header = rows[0].clone();
        rows.into_iter()
            .map(|row| {
                row.into_iter()
                    .zip(&header)
                    .map(|(cell, column)| match column.as_str() {
                        "cache" | "synthesis_seconds" => String::new(),
                        _ => cell,
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let (got, want) = (blank(summary.csv_rows()), blank(reference.csv_rows()));
    assert_eq!(got.len(), 9, "header + 8 points");
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn seed_sweeps_do_not_regenerate_deterministic_baselines() {
    let cache = temp_cache("seedsweep");
    let mut spec = spec_with_cache(
        "topology = [\"ring:4\"]\ncollective = [\"all-gather\"]\nsize = [\"4MB\"]\n\
         algo = [\"ring\"]\nseed = [1, 2, 3]",
        &cache,
    );
    // Serialize execution: concurrent workers could each miss the cold
    // cache before any of them stores, making `generated` nondeterministic.
    spec.run.threads = 1;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.records.len(), 3);
    assert_eq!(summary.failed, 0);
    // Ring ignores the seed, so only the first point generates; the other
    // two seeds hit the same cache entry within the same run.
    assert_eq!(summary.generated, 1, "deterministic baseline keyed on seed");
    assert_eq!(summary.cache_hits, 2);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn randomized_baselines_are_keyed_per_seed() {
    let cache = temp_cache("tacclseeds");
    let mut spec = spec_with_cache(
        "topology = [\"ring:4\"]\ncollective = [\"all-gather\"]\nsize = [\"1MB\"]\n\
         algo = [\"taccl\"]\nseed = [1, 2]",
        &cache,
    );
    spec.run.threads = 1;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    // TACCL-like search consumes the seed, so both points must generate.
    assert_eq!(
        summary.generated, 2,
        "seeded baseline must not share cache entries"
    );
    assert_eq!(summary.cache_hits, 0);
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn synth_axes_key_the_cache_and_rerun_resynthesizes_nothing() {
    // The acceptance bar for the synth.* axes: every axis value lands in
    // the algorithm-cache key (distinct configs generate separately; no
    // stale cross-config hits) and a re-run of the same grid is pure
    // cache hits.
    let cache = temp_cache("synthaxes");
    let sweep = "topology = [\"mesh:2x2\"]\ncollective = [\"all-gather\"]\nsize = [\"4MB\"]\n\
                 algo = [\"tacos\"]\n\
                 synth.seed = [1, 2]\n\
                 synth.attempts = [1, 2]\n\
                 synth.prefer_cheap_links = [true, false]";
    let mut spec = spec_with_cache(sweep, &cache);
    // Serialize execution so generated/hit accounting is deterministic.
    spec.run.threads = 1;

    let first = run(&spec).unwrap();
    assert_eq!(
        first.records.len(),
        8,
        "2 seeds x 2 attempts x 2 prioritizations"
    );
    assert_eq!(first.failed, 0);
    assert_eq!(
        first.generated, 8,
        "every synth.* combination is a distinct cache key"
    );
    assert_eq!(first.cache_hits, 0);

    let second = run(&spec).unwrap();
    assert_eq!(second.generated, 0, "re-run must not synthesize anything");
    assert_eq!(second.cache_hits, 8);
    for (a, b) in first.records.iter().zip(&second.records) {
        assert_eq!(
            a.result.as_ref().unwrap().collective_time,
            b.result.as_ref().unwrap().collective_time,
            "point {}",
            a.point.label()
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn run_writes_csv_and_json_artifacts() {
    let cache = temp_cache("artifacts");
    let out_dir = std::env::temp_dir().join(format!("tacos-scenario-out-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    let mut spec = spec_with_cache(
        "topology = [\"ring:4\"]\ncollective = [\"all-gather\"]\nsize = [\"4MB\"]\nalgo = [\"ring\"]",
        &cache,
    );
    spec.output = Some(out_dir.join("sweep").display().to_string());
    run(&spec).unwrap();
    let csv = std::fs::read_to_string(out_dir.join("sweep.csv")).unwrap();
    assert!(csv.starts_with("scenario,point,topology"));
    assert_eq!(csv.lines().count(), 2, "header + one point");
    let json = std::fs::read_to_string(out_dir.join("sweep.json")).unwrap();
    assert!(json.contains("\"scenario\":\"resume\""));
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&cache);
}
