//! Pinned single-attempt schedules of the combining collectives.
//!
//! Each line of `fixtures/combining_digests.txt` names one (fabric,
//! pattern, chunks) synthesis with one attempt and transfer recording on,
//! and records the collective time in picoseconds and an FNV-1a digest of
//! the schedule's compact export. The fixture was written while
//! Reduce-Scatter and Reduce were still copied out of a separately built
//! dual schedule and All-Reduce was stitched from two finished phases;
//! writing each transfer once into one list is meant to be invisible in
//! the output, and this test holds it to that byte for byte.

use tacos_collective::export::to_compact;
use tacos_collective::{parse_pattern, Collective};
use tacos_core::{Synthesizer, SynthesizerConfig};
use tacos_topology::{parse_topology, Bandwidth, ByteSize, LinkSpec, Time};

const FABRICS: [&str; 7] = [
    "ring:8",
    "mesh:4x4",
    "torus:4x4x4",
    "hypercube:2x4x8",
    "switch:16",
    "dragonfly:4x4",
    "rfs:2x2x4",
];

const PATTERNS: [&str; 3] = ["reduce-scatter", "reduce:3", "all-reduce"];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One fixture line per (fabric, pattern, chunks), seeds spread over the
/// grid.
fn render() -> String {
    let link = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let mut out = String::new();
    for (f, spec) in FABRICS.iter().enumerate() {
        let topo = parse_topology(spec, link).unwrap();
        for (p, pattern) in PATTERNS.iter().enumerate() {
            let kind = parse_pattern(pattern, topo.num_npus()).unwrap();
            for chunks in 1..=3usize {
                let seed = 2000 + 41 * ((f * PATTERNS.len() + p) * 3 + chunks) as u64;
                let collective =
                    Collective::with_chunking(kind, topo.num_npus(), chunks, ByteSize::mb(64))
                        .unwrap();
                let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(seed));
                let result = synth.synthesize(&topo, &collective).unwrap();
                out.push_str(&format!(
                    "{spec} {pattern} c{chunks} seed={seed} time_ps={} transfers={} digest={:016x}\n",
                    result.collective_time().as_ps(),
                    result.algorithm().len(),
                    fnv1a(to_compact(result.algorithm()).as_bytes()),
                ));
            }
        }
    }
    out
}

#[test]
fn single_attempt_combining_schedules_match_the_pinned_digests() {
    let want = include_str!("fixtures/combining_digests.txt");
    let got = render();
    for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "fixture line {}", line + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
