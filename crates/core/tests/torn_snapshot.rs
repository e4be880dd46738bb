//! Exhaustive torn-write sweep: truncate a valid warm-cache snapshot at
//! **every** byte boundary and assert loading never panics and salvages
//! exactly the entries fully contained in the prefix.

use std::path::PathBuf;

use tacos_collective::Collective;
use tacos_core::{Synthesizer, SynthesizerConfig, WarmCache, WarmEntry};
use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time, Topology};

fn snapshot_with_entries(path: &PathBuf, count: usize) -> Vec<u8> {
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(2, 2, spec).unwrap();
    let coll = Collective::all_gather(4, ByteSize::mb(1)).unwrap();
    let algo = Synthesizer::new(SynthesizerConfig::default())
        .synthesize(&topo, &coll)
        .unwrap()
        .into_algorithm();
    let cache = WarmCache::new();
    for i in 0..count {
        cache.insert(
            format!("sweep-key-{i:02}"),
            WarmEntry {
                time: Time::from_ps(1000 + i as u64),
                algo: algo.clone(),
                quantum: 1,
            },
        );
    }
    assert_eq!(cache.save_to(path).unwrap(), count);
    std::fs::read(path).unwrap()
}

/// Parses the snapshot text to find, for each entry, the byte offset
/// one past its record — the point from which that entry is fully
/// contained in a prefix.
fn entry_end_offsets(text: &str, count: usize) -> (usize, Vec<usize>) {
    let mut offset = 0usize;
    for _ in 0..3 {
        offset += text[offset..].find('\n').expect("header line") + 1;
    }
    let header_end = offset;
    let mut ends = Vec::new();
    for _ in 0..count {
        let line_end = offset + text[offset..].find('\n').expect("entry header");
        let compact_len: usize = text[offset..line_end]
            .split(' ')
            .nth(2)
            .and_then(|l| l.parse().ok())
            .expect("length field");
        offset = line_end + 1 + compact_len;
        ends.push(offset);
    }
    (header_end, ends)
}

#[test]
fn every_truncation_point_salvages_exactly_the_valid_prefix() {
    const ENTRIES: usize = 3;
    let path = std::env::temp_dir().join(format!("tacos-torn-sweep-{}.snap", std::process::id()));
    let bytes = snapshot_with_entries(&path, ENTRIES);
    let text = String::from_utf8(bytes.clone()).unwrap();
    let (header_end, ends) = entry_end_offsets(&text, ENTRIES);

    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let loaded = WarmCache::load_from(&path);
        if cut < header_end {
            // Any header damage is indistinguishable from "not one of
            // our snapshots": a readable error, cold start.
            assert!(
                loaded.is_err(),
                "cut at {cut} (inside {header_end}-byte header) should be a header error"
            );
            continue;
        }
        let report = loaded.unwrap_or_else(|e| panic!("cut at {cut}: salvage errored: {e}"));
        let expected_salvage = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            report.entries_loaded, expected_salvage,
            "cut at {cut}: wrong prefix (entry ends at {ends:?}; detail {:?})",
            report.detail
        );
        assert_eq!(report.entries_expected, ENTRIES, "cut at {cut}");
        if cut == bytes.len() {
            assert!(report.is_clean(), "the untruncated snapshot is clean");
        } else {
            assert!(
                report.salvaged,
                "cut at {cut}: a truncated snapshot must be flagged as salvaged"
            );
        }
        // Salvaged entries round-trip intact, in key order.
        for i in 0..expected_salvage {
            assert!(
                report.cache.get(&format!("sweep-key-{i:02}")).is_some(),
                "cut at {cut}: salvaged entry {i} missing"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
