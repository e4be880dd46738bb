//! Parity tests: the checked-in scenario files under `scenarios/`
//! reproduce the same collective-time numbers as the hand-written bench
//! binaries they ported and replaced (same seeds, same measurement path:
//! generate/synthesize, then the congestion-aware simulator). The
//! binaries themselves are deleted; the reference measurements below
//! restate their exact configurations.

use std::path::PathBuf;

use tacos_collective::Collective;
use tacos_core::{Synthesizer, SynthesizerConfig};
use tacos_scenario::{parse_baseline, run, ScenarioSpec};
use tacos_sim::Simulator;
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, RingOrientation, Time, Topology};

fn scenario_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(file)
}

/// `scenarios/size_sweep.toml` ports `fig02b_size_sweep`: baselines on a
/// 128-NPU ring (α = 30 ns, 150 GB/s). The scenario runner must produce
/// exactly the times the binary's `run_baseline` path measures.
#[test]
fn size_sweep_scenario_matches_fig02b_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("size_sweep.toml")).unwrap();
    assert_eq!(spec.sweep.size, ["1KB", "512KB", "1MB", "1GB"]);
    assert_eq!(spec.sweep.algo, ["ring", "direct", "rhd", "dbt"]);
    // Keep the test fast in debug builds: drop the 1 GB point (the shape
    // of the comparison is identical per size).
    spec.sweep.size = vec!["1KB".into(), "1MB".into()];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2 * 4);

    // Reference measurement: the exact code path of the fig02b binary
    // (BaselineAlgorithm::generate + Simulator), same topology and link.
    let link = LinkSpec::new(Time::from_micros(0.03), Bandwidth::gbps(150.0));
    let topo = Topology::ring(128, link, RingOrientation::Bidirectional).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let size = match p.size_label.as_str() {
            "1KB" => ByteSize::kb(1),
            "1MB" => ByteSize::mb(1),
            other => panic!("unexpected size {other}"),
        };
        let coll = Collective::all_reduce(128, size).unwrap();
        let kind = parse_baseline(&p.algo, p.seed).unwrap();
        let algo = tacos_baselines::BaselineAlgorithm::new(kind)
            .generate(&topo, &coll)
            .unwrap();
        let expected = Simulator::new()
            .simulate(&topo, &algo)
            .unwrap()
            .collective_time();
        let got = record.result.as_ref().unwrap().collective_time;
        assert_eq!(got, expected, "collective time diverged for {}", p.label());
    }
}

/// `scenarios/mesh_allgather.toml` ports `fig14_mesh_allgather`: a
/// best-of-16 TACOS synthesis at seed 7 on a 3×3 mesh, simulator-checked.
#[test]
fn mesh_allgather_scenario_matches_fig14_synthesis() {
    let mut spec = ScenarioSpec::from_file(scenario_path("mesh_allgather.toml")).unwrap();
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    let got = summary.records[0].result.as_ref().unwrap();

    // Reference: the binary's configuration, verbatim.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(3, 3, link).unwrap();
    let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
    let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(7).with_attempts(16));
    let result = synth.synthesize(&topo, &coll).unwrap();
    assert_eq!(got.collective_time, result.collective_time());
    assert_eq!(got.transfers, result.algorithm().len() as u64);
    // The fig14 binary asserts the simulator confirms the planned time;
    // the scenario ran with simulate = true, so the same equality held.
    assert!(got.simulated);
}

/// `scenarios/topology_bw.toml` ports `fig02a_topology_bw`: Ring, Direct,
/// RHD, DBT, and TACOS All-Reduce on four 64-NPU topologies (α = 0.5 µs,
/// 50 GB/s, 1 GB), all measured through the congestion-aware simulator.
#[test]
fn topology_bw_scenario_matches_fig02a_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("topology_bw.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        ["ring:64", "fc:64", "mesh:8x8", "hypercube:4x4x4"]
    );
    assert_eq!(spec.sweep.algo, ["ring", "direct", "rhd", "dbt", "tacos"]);
    assert_eq!(spec.sweep.seed, [42]);
    assert_eq!(spec.sweep.attempts, [8]);
    // Keep the test fast in debug builds: one topology, a deterministic
    // baseline pair plus the TACOS synthesis at reduced best-of (the
    // comparison's shape is identical per topology/algorithm).
    spec.sweep.topology = vec!["mesh:8x8".into()];
    spec.sweep.algo = vec!["ring".into(), "dbt".into(), "tacos".into()];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 3);

    // Reference measurement: the exact code path of the fig02a binary
    // (generate/synthesize, then Simulator), same topology and link.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(8, 8, link).unwrap();
    let coll = Collective::all_reduce(64, ByteSize::gb(1)).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let algo = if p.algo == "tacos" {
            let synth =
                Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
            synth.synthesize(&topo, &coll).unwrap().into_algorithm()
        } else {
            let kind = parse_baseline(&p.algo, p.seed).unwrap();
            tacos_baselines::BaselineAlgorithm::new(kind)
                .generate(&topo, &coll)
                .unwrap()
        };
        let expected = Simulator::new()
            .simulate(&topo, &algo)
            .unwrap()
            .collective_time();
        let got = record.result.as_ref().unwrap().collective_time;
        assert_eq!(got, expected, "collective time diverged for {}", p.label());
    }
}

/// `scenarios/heatmap.toml` ports `fig01_heatmap`: per-link traffic
/// statistics (max link bytes, idle links, imbalance) of Direct, RHD,
/// Ring, and TACOS over four 64-NPU topologies under a 1 GB All-Reduce.
/// The scenario's `[report]` link-traffic columns must reproduce the
/// binary's exact computation over `SimReport::link_bytes`.
#[test]
fn heatmap_scenario_matches_fig01_link_stats() {
    let mut spec = ScenarioSpec::from_file(scenario_path("heatmap.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        ["fc:64", "ring:64", "mesh:8x8", "hypercube:4x4x4"]
    );
    assert_eq!(spec.sweep.algo, ["direct", "rhd", "ring", "tacos"]);
    assert_eq!(spec.sweep.attempts, [4]);
    // Keep the test fast in debug builds: one topology, one deterministic
    // baseline plus the TACOS synthesis at reduced best-of (the stats
    // computation under test is identical per point).
    spec.sweep.topology = vec!["mesh:8x8".into()];
    spec.sweep.algo = vec!["ring".into(), "tacos".into()];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2);

    // Reference measurement: the fig01 binary's path — generate or
    // synthesize, simulate, then max/idle/imbalance over the per-link
    // byte counts.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(8, 8, link).unwrap();
    let coll = Collective::all_reduce(64, ByteSize::gb(1)).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let algo = if p.algo == "tacos" {
            let synth =
                Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
            synth.synthesize(&topo, &coll).unwrap().into_algorithm()
        } else {
            let kind = parse_baseline(&p.algo, p.seed).unwrap();
            tacos_baselines::BaselineAlgorithm::new(kind)
                .generate(&topo, &coll)
                .unwrap()
        };
        let report = Simulator::new().simulate(&topo, &algo).unwrap();
        let bytes = report.link_bytes();
        let max = *bytes.iter().max().unwrap();
        let idle = bytes.iter().filter(|&&b| b == 0).count();
        let mean = bytes.iter().sum::<u64>() as f64 / bytes.len() as f64;
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };

        let got = record.result.as_ref().unwrap();
        let stats = got.link_stats.expect("simulated point carries link stats");
        assert_eq!(got.collective_time, report.collective_time());
        assert_eq!(stats.max_link_bytes, max, "max diverged for {}", p.label());
        assert_eq!(stats.idle_links, idle, "idle diverged for {}", p.label());
        assert!(
            (stats.imbalance - imbalance).abs() < 1e-12,
            "imbalance diverged for {}",
            p.label()
        );
    }
}

/// `scenarios/themis.toml` ports `fig16_themis`: BlueConnect-4, Themis-4,
/// Themis-64, chunked TACOS, and the ideal bound on a 64-NPU torus and
/// hypercube grid (α = 0.7 µs, 25 GB/s) across sizes including the
/// fractional `0.5GB` the old parser rejected.
#[test]
fn themis_scenario_matches_fig16_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("themis.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["torus:4x4x4", "hypercube:4x4x4"]);
    assert_eq!(spec.sweep.size, ["64MB", "0.5GB", "1GB", "2GB"]);
    assert_eq!(
        spec.sweep.algo,
        ["blueconnect:4", "themis:4", "themis:64", "tacos:4", "ideal"]
    );
    // Keep the test fast in debug builds: the asymmetric grid (the
    // figure's interesting half), two sizes (one fractional), the
    // baseline variants and the bound; the chunked-TACOS execution path
    // is covered by the runner's `tacos:N` unit test.
    spec.sweep.topology = vec!["hypercube:4x4x4".into()];
    spec.sweep.size = vec!["64MB".into(), "0.5GB".into()];
    spec.sweep.algo = vec![
        "blueconnect:4".into(),
        "themis:4".into(),
        "themis:64".into(),
        "ideal".into(),
    ];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2 * 4);

    // Reference measurement: the fig16 binary's path, verbatim — the
    // 0.5GB label is its hardcoded ByteSize::mb(500) workaround.
    let link = LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0));
    let topo = Topology::hypercube_3d(4, 4, 4, link).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let size = match p.size_label.as_str() {
            "64MB" => ByteSize::mb(64),
            "0.5GB" => ByteSize::mb(500),
            other => panic!("unexpected size {other}"),
        };
        assert_eq!(p.size, size, "parse_size diverged for {}", p.size_label);
        let coll = Collective::all_reduce(64, size).unwrap();
        let got = record.result.as_ref().unwrap();
        let expected = if p.algo == "ideal" {
            tacos_baselines::IdealBound::new(&topo)
                .collective_time(tacos_collective::CollectivePattern::AllReduce, size)
        } else {
            let kind = parse_baseline(&p.algo, p.seed).unwrap();
            let algo = tacos_baselines::BaselineAlgorithm::new(kind)
                .generate(&topo, &coll)
                .unwrap();
            Simulator::new()
                .simulate(&topo, &algo)
                .unwrap()
                .collective_time()
        };
        assert_eq!(
            got.collective_time,
            expected,
            "collective time diverged for {}",
            p.label()
        );
        // The binary reported bandwidth as size/time/1e9.
        let bw = size.as_u64() as f64 / expected.as_secs_f64() / 1e9;
        assert!((got.bandwidth_gbps.unwrap() - bw).abs() < 1e-9);
    }
}

/// `scenarios/multinode.toml` ports `table05_multinode`: All-Reduce on
/// multi-node 3D-RFS systems with explicit 4x2x1 tier-bandwidth ratios
/// (200/100/50 GB/s under the default 50 GB/s link), every algorithm's
/// collective time normalized over TACOS within its topology group, and
/// TACCL's scale-dependent search budgets pinned per topology through
/// `[[exclude]]` rules.
#[test]
fn multinode_scenario_matches_table05_measurements() {
    let spec = ScenarioSpec::from_file(scenario_path("multinode.toml")).unwrap();
    // The full grid: 4 topologies x 8 algorithms, minus the 9 excluded
    // off-scale TACCL combinations; no TACCL at all at 128 NPUs.
    let points = tacos_scenario::expand(&spec).unwrap();
    assert_eq!(points.len(), 4 * 8 - 9);
    assert!(!points
        .iter()
        .any(|p| p.topology == "rfs:2x4x16:4x2x1" && p.algo.starts_with("taccl")));
    assert_eq!(spec.report.normalize_over.as_deref(), Some("tacos"));

    // Execute the smallest scale (16 NPUs) and check against the
    // table05 binary's measurement path.
    let mut spec = spec;
    spec.sweep.topology = vec!["rfs:2x4x2:4x2x1".into()];
    spec.sweep.algo = vec![
        "tacos".into(),
        "taccl:2000".into(),
        "ring".into(),
        "ideal".into(),
    ];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4);

    // Reference: the binary's exact topology constructor and per-algorithm
    // measurement paths (alpha = 0.5 us, tiers 200/100/50 GB/s, 256 MB).
    let topo = Topology::rfs_3d(2, 4, 2, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap();
    let n = topo.num_npus();
    assert_eq!(n, 16);
    let coll = Collective::all_reduce(n, ByteSize::mb(256)).unwrap();
    let reference = |algo: &str| -> Time {
        match algo {
            "tacos" => {
                let synth =
                    Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
                let result = synth.synthesize(&topo, &coll).unwrap();
                Simulator::new()
                    .simulate(&topo, result.algorithm())
                    .unwrap()
                    .collective_time()
            }
            "ideal" => tacos_baselines::IdealBound::new(&topo).collective_time(
                tacos_collective::CollectivePattern::AllReduce,
                coll.total_size(),
            ),
            other => {
                let kind = parse_baseline(other, 42).unwrap();
                let algo = tacos_baselines::BaselineAlgorithm::new(kind)
                    .generate(&topo, &coll)
                    .unwrap();
                Simulator::new()
                    .simulate(&topo, &algo)
                    .unwrap()
                    .collective_time()
            }
        }
    };
    let tacos_time = reference("tacos");
    let normalized = summary.normalized_times();
    for (record, norm) in summary.records.iter().zip(&normalized) {
        let p = &record.point;
        let expected = reference(&p.algo);
        let got = record.result.as_ref().unwrap();
        assert_eq!(
            got.collective_time,
            expected,
            "collective time diverged for {}",
            p.label()
        );
        // The table is normalized over TACOS; the baseline's own row is
        // exactly 1.0.
        let expected_norm = expected.as_secs_f64() / tacos_time.as_secs_f64();
        let norm = norm.expect("normalization column filled");
        assert_eq!(
            norm,
            expected_norm,
            "normalization diverged for {}",
            p.label()
        );
        if p.algo == "tacos" {
            assert_eq!(norm, 1.0);
        }
        if p.algo == "ideal" {
            assert!(norm < 1.0, "ideal must beat every real algorithm");
            assert_eq!(got.synthesis_seconds, 0.0);
        } else {
            assert!(got.synthesis_seconds > 0.0, "synthesis time recorded");
        }
    }
}

/// `scenarios/connectivity.toml` ports `fig10_connectivity`: TACOS
/// All-Gather synthesis (seed 1, best-of-16) on four 4-NPU topologies of
/// decreasing connectivity, printing the TEN's per-span occupancy. The
/// scenario's `[timeline]` stage rows must reproduce the binary's exact
/// per-span view: one stage per TEN time span, with the same
/// utilization.
#[test]
fn connectivity_scenario_matches_fig10_span_stages() {
    let mut spec = ScenarioSpec::from_file(scenario_path("connectivity.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        ["fc:4", "ring:4", "custom:asym6", "ring-uni:4"]
    );
    assert_eq!(spec.sweep.seed, [1]);
    assert_eq!(spec.sweep.attempts, [16]);
    let timeline = spec.timeline.expect("stages configured");
    assert!(timeline.stages);
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4);

    // Reference: the binary's topologies and measurement path, verbatim —
    // synthesize at seed 1 / best-of-16, lay the schedule on the uniform
    // TEN, read the span count and per-span utilization.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let asym6 = {
        let mut b = tacos_topology::TopologyBuilder::new("Asymmetric(6 links)");
        b.npus(4);
        b.bidi_link(
            tacos_topology::NpuId::new(0),
            tacos_topology::NpuId::new(1),
            link,
        );
        b.bidi_link(
            tacos_topology::NpuId::new(0),
            tacos_topology::NpuId::new(2),
            link,
        );
        b.link(
            tacos_topology::NpuId::new(2),
            tacos_topology::NpuId::new(3),
            link,
        );
        b.link(
            tacos_topology::NpuId::new(3),
            tacos_topology::NpuId::new(1),
            link,
        );
        b.build().unwrap()
    };
    let topologies = vec![
        Topology::fully_connected(4, link).unwrap(),
        Topology::ring(4, link, RingOrientation::Bidirectional).unwrap(),
        asym6,
        Topology::ring(4, link, RingOrientation::Unidirectional).unwrap(),
    ];
    for (record, topo) in summary.records.iter().zip(&topologies) {
        let coll = Collective::all_gather(4, ByteSize::mb(4)).unwrap();
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(1).with_attempts(16));
        let result = synth.synthesize(topo, &coll).unwrap();
        // The uniform TEN read off the schedule: every transfer spans
        // exactly one step and starts on a step boundary, and step k's
        // utilization is the transfers starting in it over the links.
        let step = link.cost(coll.chunk_size());
        let mut per_step: Vec<usize> = Vec::new();
        for t in result.algorithm().transfers() {
            let (start, duration) = (t.start().unwrap(), t.duration().unwrap());
            assert_eq!(duration, step);
            assert_eq!(start.as_ps() % step.as_ps(), 0);
            let k = (start.as_ps() / step.as_ps()) as usize;
            if per_step.len() <= k {
                per_step.resize(k + 1, 0);
            }
            per_step[k] += 1;
        }

        let got = record.result.as_ref().unwrap();
        assert_eq!(got.collective_time, result.collective_time());
        let stages = &got.timeline.as_ref().expect("stage rows captured").stages;
        assert_eq!(
            stages.len(),
            per_step.len(),
            "span count diverged on {}",
            record.point.label()
        );
        for (k, (stage, &started)) in stages.iter().zip(&per_step).enumerate() {
            let utilization = started as f64 / topo.num_links() as f64;
            assert!(
                (stage.utilization - utilization).abs() < 1e-12,
                "span {k} utilization diverged on {}",
                record.point.label()
            );
            assert_eq!(stage.start, step * k as u64);
        }
    }
    // The paper's Fig. 10 shape: steps grow as connectivity drops, and
    // the unidirectional ring needs every TEN edge (utilization 1.0).
    let steps: Vec<usize> = summary
        .records
        .iter()
        .map(|r| {
            r.result
                .as_ref()
                .unwrap()
                .timeline
                .as_ref()
                .unwrap()
                .stages
                .len()
        })
        .collect();
    assert_eq!(steps, [1, 2, 3, 3]);
    let uni = summary.records[3].result.as_ref().unwrap();
    for stage in &uni.timeline.as_ref().unwrap().stages {
        assert!((stage.utilization - 1.0).abs() < 1e-12);
    }
}

/// `scenarios/hetero.toml` ports `fig15_hetero`: All-Reduce on the three
/// heterogeneous systems of §VI-B.1 with absolute per-tier bandwidths as
/// family-form `[[topologies]]` entries. The scenario must reproduce the
/// binary's measurement path on the DragonFly system (the other fabrics
/// differ only in the constructor, covered by the family-form unit
/// tests).
#[test]
fn hetero_scenario_matches_fig15_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("hetero.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        [
            "custom:dragonfly_5x4",
            "custom:switch_8x4",
            "custom:rfs_2x4x8"
        ]
    );
    assert_eq!(
        spec.sweep.algo,
        ["ring", "direct", "taccl:5000", "tacos", "ideal"]
    );
    assert_eq!(spec.sweep.attempts, [8]);
    // Keep the test fast in debug builds: one fabric, the deterministic
    // baselines plus TACOS at reduced best-of and the bound.
    spec.sweep.topology = vec!["custom:dragonfly_5x4".into()];
    spec.sweep.algo = vec![
        "ring".into(),
        "direct".into(),
        "tacos".into(),
        "ideal".into(),
    ];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4);

    // Reference: the binary's exact DragonFly constructor — local 400,
    // global 200 GB/s at alpha = 0.5 us — and measurement paths.
    let alpha = Time::from_micros(0.5);
    let topo = Topology::dragonfly(
        5,
        4,
        LinkSpec::new(alpha, Bandwidth::gbps(400.0)),
        LinkSpec::new(alpha, Bandwidth::gbps(200.0)),
    )
    .unwrap();
    let n = topo.num_npus();
    let size = ByteSize::gb(1);
    let coll = Collective::all_reduce(n, size).unwrap();
    let ideal_time = tacos_baselines::IdealBound::new(&topo)
        .collective_time(tacos_collective::CollectivePattern::AllReduce, size);
    for record in &summary.records {
        let p = &record.point;
        let got = record.result.as_ref().unwrap();
        if p.algo == "ideal" {
            assert_eq!(got.collective_time, ideal_time);
            continue;
        }
        let report = if p.algo == "tacos" {
            let synth =
                Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
            let result = synth.synthesize(&topo, &coll).unwrap();
            Simulator::new()
                .simulate(&topo, result.algorithm())
                .unwrap()
        } else {
            let kind = parse_baseline(&p.algo, p.seed).unwrap();
            let algo = tacos_baselines::BaselineAlgorithm::new(kind)
                .generate(&topo, &coll)
                .unwrap();
            Simulator::new().simulate(&topo, &algo).unwrap()
        };
        assert_eq!(
            got.collective_time,
            report.collective_time(),
            "collective time diverged for {}",
            p.label()
        );
        // Fig. 15's companion metrics: efficiency vs the bound and the
        // Fig. 15(b) average link utilization.
        let eff = ideal_time.as_secs_f64() / report.collective_time().as_secs_f64();
        assert!((got.efficiency - eff).abs() < 1e-12);
        let stats = got.link_stats.expect("simulated point");
        assert!((stats.avg_utilization - report.average_utilization()).abs() < 1e-12);
    }
}

/// `scenarios/utilization.toml` ports `fig18_utilization`: chunked TACOS
/// vs Ring during a 1 GB All-Reduce with the utilization-over-time
/// curves. Parity runs at the binary's `--quick` scale (3x3x3 torus) and
/// checks the timeline buckets against the same simulator report.
#[test]
fn utilization_scenario_matches_fig18_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("utilization.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        ["torus:5x5x5", "mesh:10x10", "hypercube:5x5x5"]
    );
    assert_eq!(spec.sweep.algo, ["tacos:4", "ring"]);
    assert_eq!(spec.sweep.attempts, [4]);
    assert_eq!(spec.timeline.map(|t| t.buckets), Some(60));
    // The binary's --quick scale, reduced best-of (shape identical).
    spec.sweep.topology = vec!["torus:3x3x3".into()];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2);

    // Reference: the binary's measurement path — chunked TACOS synthesis
    // and the Ring baseline through the simulator, utilization timeline
    // at 60 buckets, efficiency vs the ideal bound.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::torus_3d(3, 3, 3, link).unwrap();
    let n = topo.num_npus();
    let size = ByteSize::gb(1);
    let ideal_time = tacos_baselines::IdealBound::new(&topo)
        .collective_time(tacos_collective::CollectivePattern::AllReduce, size);
    for record in &summary.records {
        let p = &record.point;
        let report = if p.algo == "tacos:4" {
            let chunked = Collective::with_chunking(
                tacos_collective::CollectivePattern::AllReduce,
                n,
                4,
                size,
            )
            .unwrap();
            let synth =
                Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
            let result = synth.synthesize(&topo, &chunked).unwrap();
            Simulator::new()
                .simulate(&topo, result.algorithm())
                .unwrap()
        } else {
            let coll = Collective::all_reduce(n, size).unwrap();
            let algo = tacos_baselines::BaselineAlgorithm::new(tacos_baselines::BaselineKind::Ring)
                .generate(&topo, &coll)
                .unwrap();
            Simulator::new().simulate(&topo, &algo).unwrap()
        };
        let got = record.result.as_ref().unwrap();
        assert_eq!(
            got.collective_time,
            report.collective_time(),
            "collective time diverged for {}",
            p.label()
        );
        let stats = got.link_stats.expect("simulated point");
        assert!((stats.avg_utilization - report.average_utilization()).abs() < 1e-12);
        let eff = ideal_time.as_secs_f64() / report.collective_time().as_secs_f64();
        assert!((got.efficiency - eff).abs() < 1e-12);
        // The timeline artifact carries the same curve the binary drew:
        // identical buckets from an identical simulation.
        let buckets = &got.timeline.as_ref().expect("buckets captured").buckets;
        let expected = report.timeline(60);
        assert_eq!(buckets.len(), expected.len());
        for (a, b) in buckets.iter().zip(&expected) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.busy, b.busy);
            assert_eq!(a.cumulative_bytes, b.cumulative_bytes);
        }
    }
}

/// `scenarios/failure.toml` ports `failure_injection`: cumulative link
/// kills on a 4x4 torus, Ring rerouting vs TACOS re-synthesizing. The
/// binary removed victims from the *re-densified* fabric
/// (`(failures * 13) % remaining`, skipping disconnecting picks); the
/// scenario's explicit `without_links` lists name the same victims in
/// healthy-topology ids, which this test verifies by replaying the
/// binary's loop verbatim.
#[test]
fn failure_scenario_matches_failure_injection_loop() {
    let mut spec = ScenarioSpec::from_file(scenario_path("failure.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["torus:4x4"]);
    assert_eq!(spec.sweep.algo, ["ring", "tacos"]);
    // The binary used SynthesizerConfig::default() (seed 0x7AC05) with 8
    // attempts.
    assert_eq!(spec.sweep.seed, [0x7AC05]);
    assert_eq!(spec.sweep.attempts, [8]);
    let labels: Vec<String> = spec.sweep.without_links.iter().map(|w| w.label()).collect();
    assert_eq!(labels, ["0", "13", "13+27", "13+27+41"]);
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4 * 2);

    // Reference: the binary's loop, verbatim — kill a pseudo-random link
    // of the *current* (re-densified) fabric per round, keep it only if
    // the fabric stays strongly connected.
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let size = ByteSize::mb(256);
    let coll = Collective::all_reduce(16, size).unwrap();
    let mut topo = Topology::torus_2d(4, 4, link).unwrap();
    let mut reference: Vec<(Time, Time)> = Vec::new();
    let healthy = topo.clone();
    let victim_lists: [&[u32]; 4] = [&[], &[13], &[13, 27], &[13, 27, 41]];
    for (failures, victim_list) in victim_lists.iter().enumerate() {
        if failures > 0 {
            let victim = tacos_topology::LinkId::new(((failures * 13) % topo.num_links()) as u32);
            let candidate = topo.without_link(victim);
            if candidate.is_strongly_connected() {
                topo = candidate;
            }
        }
        // The binary accepted every kill (none disconnected), and the
        // scenario's explicit healthy-topology id lists rebuild the same
        // fabric link-for-link — the id translation is faithful.
        assert_eq!(topo.num_links(), 64 - failures, "binary skipped a kill");
        let ids: Vec<tacos_topology::LinkId> = victim_list
            .iter()
            .map(|&id| tacos_topology::LinkId::new(id))
            .collect();
        let from_lists = healthy.without_links(&ids).unwrap();
        assert_eq!(from_lists.num_links(), topo.num_links());
        for (a, b) in from_lists.links().iter().zip(topo.links()) {
            assert_eq!((a.src(), a.dst(), a.spec()), (b.src(), b.dst(), b.spec()));
        }
        let ring = tacos_baselines::BaselineAlgorithm::new(tacos_baselines::BaselineKind::Ring)
            .generate(&topo, &coll)
            .unwrap();
        let ring_time = Simulator::new()
            .simulate(&topo, &ring)
            .unwrap()
            .collective_time();
        let tacos = Synthesizer::new(SynthesizerConfig::default().with_attempts(8))
            .synthesize(&topo, &coll)
            .unwrap();
        reference.push((ring_time, tacos.collective_time()));
    }
    let normalized = summary.normalized_times();
    for (level, (ring_time, tacos_time)) in reference.iter().enumerate() {
        let ring_rec = &summary.records[2 * level];
        let tacos_rec = &summary.records[2 * level + 1];
        assert_eq!(ring_rec.point.algo, "ring");
        assert_eq!(tacos_rec.point.algo, "tacos");
        assert_eq!(
            ring_rec.result.as_ref().unwrap().collective_time,
            *ring_time,
            "ring diverged at {} failures",
            level
        );
        assert_eq!(
            tacos_rec.result.as_ref().unwrap().collective_time,
            *tacos_time,
            "tacos diverged at {} failures",
            level
        );
        // The table the binary printed was tacos/ring bandwidth; the
        // scenario's normalized_time is the time ratio (its inverse).
        let expected_norm = tacos_time.as_secs_f64() / ring_time.as_secs_f64();
        assert_eq!(normalized[2 * level + 1].unwrap(), expected_norm);
        assert_eq!(normalized[2 * level].unwrap(), 1.0);
    }
}

/// `scenarios/ccube.toml` ports `fig17b_ccube`: TACOS vs C-Cube on the
/// DGX-1 (alpha = 0.7 us, 25 GB/s) with the embedded multi-Ring baseline
/// and the ideal bound as an `ideal` algo row — closing the last inline
/// ideal-bound computation in the bench crate.
#[test]
fn ccube_scenario_matches_fig17b_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("ccube.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["dgx1"]);
    assert_eq!(spec.sweep.size, ["0.5GB", "1GB", "2GB"]);
    assert_eq!(
        spec.sweep.algo,
        ["ccube:4", "ring-embedded:3", "tacos:4", "ideal"]
    );
    // Keep the test fast in debug builds: one size (the fractional one),
    // reduced best-of.
    spec.sweep.size = vec!["0.5GB".into()];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4);

    // Reference: the binary's configuration, verbatim — the 0.5GB label
    // parses to its ByteSize::mb(500).
    let link = LinkSpec::new(Time::from_micros(0.7), Bandwidth::gbps(25.0));
    let topo = Topology::dgx1(link).unwrap();
    let size = ByteSize::mb(500);
    let coll = Collective::all_reduce(8, size).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let got = record.result.as_ref().unwrap();
        assert_eq!(p.size, size);
        let expected = match p.algo.as_str() {
            "ideal" => tacos_baselines::IdealBound::new(&topo)
                .collective_time(tacos_collective::CollectivePattern::AllReduce, size),
            "tacos:4" => {
                let chunked = Collective::with_chunking(
                    tacos_collective::CollectivePattern::AllReduce,
                    8,
                    4,
                    size,
                )
                .unwrap();
                let synth =
                    Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
                let result = synth.synthesize(&topo, &chunked).unwrap();
                Simulator::new()
                    .simulate(&topo, result.algorithm())
                    .unwrap()
                    .collective_time()
            }
            other => {
                let kind = parse_baseline(other, p.seed).unwrap();
                let algo = tacos_baselines::BaselineAlgorithm::new(kind)
                    .generate(&topo, &coll)
                    .unwrap();
                let report = Simulator::new().simulate(&topo, &algo).unwrap();
                if other == "ccube:4" {
                    // The binary's "C-Cube idle links" column.
                    let idle = report.link_bytes().iter().filter(|&&b| b == 0).count();
                    assert_eq!(got.link_stats.unwrap().idle_links, idle);
                    assert!(idle > 0, "C-Cube must idle NVLinks");
                }
                report.collective_time()
            }
        };
        assert_eq!(
            got.collective_time,
            expected,
            "collective time diverged for {}",
            p.label()
        );
        let bw = size.as_u64() as f64 / expected.as_secs_f64() / 1e9;
        assert!((got.bandwidth_gbps.unwrap() - bw).abs() < 1e-9);
    }
}

/// `scenarios/scalability.toml` expands to the fig19 grid shape.
#[test]
fn scalability_scenario_expands_to_fig19_grid() {
    let spec = ScenarioSpec::from_file(scenario_path("scalability.toml")).unwrap();
    let points = tacos_scenario::expand(&spec).unwrap();
    assert_eq!(points.len(), 12, "6 mesh sides + 6 hypercube sides");
    assert!(points.iter().all(|p| p.algo == "tacos" && p.seed == 1));
    assert!(points.iter().any(|p| p.topology == "mesh:32x32"));
    assert!(points.iter().any(|p| p.topology == "hypercube:10x10x10"));
}

/// `scenarios/multitree.toml` ports `fig17a_multitree`: TACOS vs
/// MultiTree (with Themis-4 and the ideal bound) on 16-NPU 2D torus and
/// mesh at α = 0.15 µs / 16 GB/s. The binary ran chunked TACOS
/// (4 chunks, seed 42, best-of-8) and unchunked baselines, all through
/// the congestion-aware simulator.
#[test]
fn multitree_scenario_matches_fig17a_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("multitree.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["torus:4x4", "mesh:4x4"]);
    assert_eq!(spec.sweep.size, ["1MB", "4MB", "32MB"]);
    assert_eq!(
        spec.sweep.algo,
        ["multitree", "themis:4", "tacos:4", "ideal"]
    );
    assert_eq!(spec.sweep.seed, [42]);
    assert_eq!(spec.sweep.attempts, [8]);
    // Keep the test fast in debug builds: the mesh half (where the paper
    // reports the larger gap), two sizes, reduced best-of.
    spec.sweep.topology = vec!["mesh:4x4".into()];
    spec.sweep.size = vec!["1MB".into(), "4MB".into()];
    spec.sweep.attempts = vec![2];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2 * 4);

    // Reference: the binary's configuration, verbatim — spec(0.15, 16.0),
    // unchunked baselines, 4-chunk TACOS at seed 42.
    let link = LinkSpec::new(Time::from_micros(0.15), Bandwidth::gbps(16.0));
    let topo = Topology::mesh_2d(4, 4, link).unwrap();
    for record in &summary.records {
        let p = &record.point;
        let size = match p.size_label.as_str() {
            "1MB" => ByteSize::mb(1),
            "4MB" => ByteSize::mb(4),
            other => panic!("unexpected size {other}"),
        };
        let coll = Collective::all_reduce(16, size).unwrap();
        let got = record.result.as_ref().unwrap();
        let expected = match p.algo.as_str() {
            "ideal" => tacos_baselines::IdealBound::new(&topo)
                .collective_time(tacos_collective::CollectivePattern::AllReduce, size),
            "tacos:4" => {
                let chunked = Collective::with_chunking(
                    tacos_collective::CollectivePattern::AllReduce,
                    16,
                    4,
                    size,
                )
                .unwrap();
                let synth =
                    Synthesizer::new(SynthesizerConfig::default().with_seed(42).with_attempts(2));
                let result = synth.synthesize(&topo, &chunked).unwrap();
                Simulator::new()
                    .simulate(&topo, result.algorithm())
                    .unwrap()
                    .collective_time()
            }
            other => {
                let kind = parse_baseline(other, p.seed).unwrap();
                let algo = tacos_baselines::BaselineAlgorithm::new(kind)
                    .generate(&topo, &coll)
                    .unwrap();
                Simulator::new()
                    .simulate(&topo, &algo)
                    .unwrap()
                    .collective_time()
            }
        };
        assert_eq!(
            got.collective_time,
            expected,
            "collective time diverged for {}",
            p.label()
        );
        // The binary reported bandwidth as size/time/1e9.
        let bw = size.as_u64() as f64 / expected.as_secs_f64() / 1e9;
        assert!((got.bandwidth_gbps.unwrap() - bw).abs() < 1e-9);
    }
    // The paper's Fig. 17(a) shape at bandwidth-bound sizes: TACOS above
    // MultiTree (which cannot overlap chunks).
    let bw_of = |algo: &str, size: &str| {
        summary
            .records
            .iter()
            .find(|r| r.point.algo == algo && r.point.size_label == size)
            .unwrap()
            .result
            .as_ref()
            .unwrap()
            .bandwidth_gbps
            .unwrap()
    };
    assert!(bw_of("tacos:4", "4MB") > bw_of("multitree", "4MB"));
}

/// `scenarios/training.toml` ports `fig20_training`: end-to-end training
/// iterations on 3D-RFS clusters, each model pinned to its paper scale
/// through `[[exclude]]` rules, normalized over TACOS. Parity runs the
/// GNMT half (64-NPU `rfs:2x4x8`, the paper's 200/100/50 GB/s tiers via
/// the default 4x2x1 ratios) and checks every mechanism's iteration
/// total and breakdown against `TrainingEvaluator`'s measurement path —
/// the exact code the binary called.
#[test]
fn training_scenario_matches_fig20_measurements() {
    let spec = ScenarioSpec::from_file(scenario_path("training.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["rfs:2x4x8", "rfs:2x4x32"]);
    assert_eq!(
        spec.sweep.algo,
        ["ring", "direct", "themis:4", "tacos", "ideal"]
    );
    assert_eq!(spec.sweep.seed, [0x7AC05]);
    assert_eq!(spec.sweep.attempts, [4]);
    assert_eq!(spec.sweep.chunks, [4]);
    match &spec.evaluation {
        tacos_scenario::Evaluation::Training(w) => {
            assert_eq!(w.models, ["gnmt", "resnet50", "turing_nlg"]);
        }
        other => panic!("expected training evaluation, got {other:?}"),
    }
    // The model-topology pairing: 5 mechanisms x 3 paper rows.
    let points = tacos_scenario::expand(&spec).unwrap();
    assert_eq!(points.len(), 3 * 5);
    assert!(!points
        .iter()
        .any(|p| p.topology == "rfs:2x4x8" && p.model.as_deref() != Some("gnmt")));
    // The [quick] grid restates the binary's --quick flag: the large
    // system shrinks to 2x4x16.
    let quick = spec.quick.as_deref().expect("[quick] declared");
    assert_eq!(quick.sweep.topology, ["rfs:2x4x8", "rfs:2x4x16"]);

    // Execute the GNMT half at reduced best-of and compare against the
    // binary's measurement path: TrainingEvaluator under each mechanism.
    let mut spec = spec;
    spec.sweep.topology = vec!["rfs:2x4x8".into()];
    spec.sweep.attempts = vec![2];
    match &mut spec.evaluation {
        tacos_scenario::Evaluation::Training(w) => w.models = vec!["gnmt".into()],
        _ => unreachable!(),
    }
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 5);

    let topo = Topology::rfs_3d(2, 4, 8, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap();
    let workload = tacos_workload::Workload::gnmt();
    let evaluator = tacos_workload::TrainingEvaluator::new(&topo).with_chunks(4);
    let base = SynthesizerConfig::default()
        .with_seed(0x7AC05)
        .with_attempts(2);
    let mut totals = std::collections::HashMap::new();
    for record in &summary.records {
        let p = &record.point;
        let mechanism = tacos_workload::Mechanism::parse(&p.algo, &base).unwrap();
        let expected = evaluator.evaluate(&workload, &mechanism).unwrap();
        let got = record.result.as_ref().unwrap();
        let breakdown = got.training.expect("training points carry a breakdown");
        assert_eq!(
            got.collective_time,
            expected.total(),
            "iteration total diverged for {}",
            p.label()
        );
        assert_eq!(breakdown.weight_grad_comm, expected.weight_grad_comm);
        assert_eq!(breakdown.input_grad_comm, Time::ZERO, "GNMT is pure DP");
        assert_eq!(breakdown.forward, workload.forward());
        assert_eq!(breakdown.backward, workload.backward());
        totals.insert(p.algo.clone(), got.collective_time);
    }
    // Fig. 20's framing: normalized over TACOS, ideal at or below it.
    let normalized = summary.normalized_times();
    let tacos_total = totals["tacos"].as_secs_f64();
    for (record, norm) in summary.records.iter().zip(&normalized) {
        let expected = record
            .result
            .as_ref()
            .unwrap()
            .collective_time
            .as_secs_f64()
            / tacos_total;
        assert_eq!(norm.unwrap(), expected);
    }
    assert!(totals["ideal"] <= totals["tacos"]);
    assert!(totals["tacos"] <= totals["ring"]);
}

/// `scenarios/breakdown.toml` ports `fig21_breakdown`: the four-way
/// fwd/bwd/exposed-IG/exposed-WG breakdown on the 3D torus, normalized
/// over Ring. Parity runs the binary's `--quick` scale (4x4x8 torus,
/// its `[quick]` section as data) on ResNet-50 and checks each
/// mechanism's breakdown against `TrainingEvaluator` plus the
/// column-sum identity the figure's stacked bars rely on.
#[test]
fn breakdown_scenario_matches_fig21_measurements() {
    let spec = ScenarioSpec::from_file(scenario_path("breakdown.toml")).unwrap();
    assert_eq!(spec.sweep.topology, ["torus:8x8x16"]);
    assert_eq!(spec.sweep.algo, ["ring", "themis:4", "tacos", "ideal"]);
    assert_eq!(spec.sweep.seed, [0x7AC05]);
    assert_eq!(spec.sweep.attempts, [1]);
    match &spec.evaluation {
        tacos_scenario::Evaluation::Training(w) => {
            assert_eq!(w.models, ["resnet50", "msft_1t"]);
            assert_eq!(w.parallelism, tacos_scenario::Parallelism::Hybrid);
        }
        other => panic!("expected training evaluation, got {other:?}"),
    }
    assert_eq!(spec.report.normalize_over.as_deref(), Some("ring"));

    // The binary's --quick scale is the scenario's [quick] grid.
    let mut quick = spec.quick.as_deref().expect("[quick] declared").clone();
    assert_eq!(quick.sweep.topology, ["torus:4x4x8"]);
    match &mut quick.evaluation {
        tacos_scenario::Evaluation::Training(w) => w.models = vec!["resnet50".into()],
        _ => unreachable!(),
    }
    quick.run.cache = None;
    quick.run.quiet = true;
    quick.output = None;
    let summary = run(&quick).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 4);

    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::torus_3d(4, 4, 8, link).unwrap();
    let workload = tacos_workload::Workload::resnet50();
    let evaluator = tacos_workload::TrainingEvaluator::new(&topo).with_chunks(4);
    let base = SynthesizerConfig::default()
        .with_seed(0x7AC05)
        .with_attempts(1);
    let ring_total = summary.records[0]
        .result
        .as_ref()
        .unwrap()
        .collective_time
        .as_secs_f64();
    let normalized = summary.normalized_times();
    for (record, norm) in summary.records.iter().zip(&normalized) {
        let p = &record.point;
        let mechanism = tacos_workload::Mechanism::parse(&p.algo, &base).unwrap();
        let expected = evaluator.evaluate(&workload, &mechanism).unwrap();
        let got = record.result.as_ref().unwrap();
        let breakdown = got.training.expect("training points carry a breakdown");
        assert_eq!(breakdown, expected, "breakdown diverged for {}", p.label());
        // The stacked bars: the four columns sum exactly to the total.
        assert_eq!(
            breakdown.forward
                + breakdown.backward
                + breakdown.input_grad_comm
                + breakdown.weight_grad_comm,
            got.collective_time
        );
        // Normalized over Ring, exactly as the binary printed.
        assert_eq!(
            norm.unwrap(),
            got.collective_time.as_secs_f64() / ring_total
        );
    }
    assert_eq!(normalized[0].unwrap(), 1.0, "ring normalizes to 1.0");
}

/// `scenarios/ablation.toml` ports `ablation_synthesis`: the §IV-F
/// synthesizer-config ablations as `synth.*` sweep axes. Parity checks
/// the grid shape (prefer-cheap x attempts x chunking crossed over
/// homogeneous and heterogeneous fabrics) and replays the binary's
/// `bw_with` measurement path — a direct synthesis under the exact
/// `SynthesizerConfig` each point's axes describe — on the narrow-cut
/// 3D-RFS.
#[test]
fn ablation_scenario_matches_synthesizer_config_measurements() {
    let mut spec = ScenarioSpec::from_file(scenario_path("ablation.toml")).unwrap();
    assert_eq!(
        spec.sweep.topology,
        ["torus:4x4x4", "rfs:2x4x2", "rfs:2x4x8"]
    );
    assert_eq!(spec.sweep.algo, ["tacos"]);
    assert_eq!(spec.sweep.chunks, [1, 4, 16]);
    assert_eq!(spec.sweep.attempts, [1, 8, 64]);
    assert_eq!(spec.sweep.seed, [0x7AC05]);
    assert_eq!(spec.sweep.prefer_cheap_links, [true, false]);
    // The [quick] grid drops the best-of-64 column, nothing else.
    let quick = spec.quick.as_deref().expect("[quick] declared");
    assert_eq!(quick.sweep.attempts, [1, 8]);
    assert_eq!(quick.sweep.chunks, [1, 4, 16]);
    assert_eq!(quick.sweep.prefer_cheap_links, [true, false]);

    // Execute the narrow-cut heterogeneous fabric (the reproduction
    // finding's configuration) at single-attempt across chunking and
    // prioritization, and compare with direct synthesis under the same
    // configs — the binary's bw_with path.
    spec.sweep.topology = vec!["rfs:2x4x2".into()];
    spec.sweep.chunks = vec![1, 4];
    spec.sweep.attempts = vec![1];
    spec.run.cache = None;
    spec.run.quiet = true;
    spec.output = None;
    let summary = run(&spec).unwrap();
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.records.len(), 2 * 2, "chunks x prefer_cheap");

    let topo = Topology::rfs_3d(2, 4, 2, Time::from_micros(0.5), [200.0, 100.0, 50.0]).unwrap();
    let size = ByteSize::mb(256);
    for record in &summary.records {
        let p = &record.point;
        let coll = Collective::with_chunking(
            tacos_collective::CollectivePattern::AllReduce,
            topo.num_npus(),
            p.chunks,
            size,
        )
        .unwrap();
        let config = SynthesizerConfig::default()
            .with_seed(0x7AC05)
            .with_attempts(1)
            .with_prefer_cheap_links(p.prefer_cheap_links);
        let result = Synthesizer::new(config).synthesize(&topo, &coll).unwrap();
        let got = record.result.as_ref().unwrap();
        assert_eq!(
            got.collective_time,
            result.collective_time(),
            "collective time diverged for {}",
            p.label()
        );
        let bw = size.as_u64() as f64 / result.collective_time().as_secs_f64() / 1e9;
        assert!((got.bandwidth_gbps.unwrap() - bw).abs() < 1e-9);
    }
    // The prioritization axis genuinely changes the synthesis: on/off
    // rows at the same chunking are distinct points with (in general)
    // distinct schedules, and their labels tell them apart.
    let labels: std::collections::HashSet<String> =
        summary.records.iter().map(|r| r.point.label()).collect();
    assert_eq!(labels.len(), summary.records.len());
    assert!(labels.iter().any(|l| l.ends_with("/nopc")));
}
