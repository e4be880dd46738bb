//! Exporting synthesized algorithms for consumption by CCLs.
//!
//! The paper's output is "a topology-aware collective algorithm (i.e.,
//! static path of each chunk), which can then be utilized by CCLs in lieu
//! of the predefined topology-unaware basic algorithms" (Fig. 3). This
//! module serializes a [`CollectiveAlgorithm`] into:
//!
//! * [`to_json`] — a complete, machine-readable transfer dump;
//! * [`to_msccl_xml`] — an MSCCL-interpreter-style XML skeleton (one
//!   `<gpu>` per NPU, one `<tb>` (threadblock) per peer, `<step>`s in
//!   dependency order), close enough in shape to feed a converter for
//!   MSCCL/MSCCL++-style runtimes.
//!
//! Both encoders are hand-rolled: `serde_json` is not in the allowed
//! offline crate set (DESIGN.md §2).

use std::fmt::Write as _;

use crate::algorithm::{CollectiveAlgorithm, Transfer, TransferKind};

/// Serializes the full algorithm as compact JSON.
///
/// Schema: `{name, num_npus, chunk_size, total_size, planned_time_ps?,
/// transfers: [{chunk, count, src, dst, kind, link?, start_ps?,
/// duration_ps?, deps: [..]}]}`.
pub fn to_json(algo: &CollectiveAlgorithm) -> String {
    let mut out = String::with_capacity(algo.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"num_npus\":{},\"chunk_size\":{},\"total_size\":{}",
        escape(algo.name()),
        algo.num_npus(),
        algo.chunk_size().as_u64(),
        algo.total_size().as_u64()
    );
    if let Some(t) = algo.planned_time() {
        let _ = write!(out, ",\"planned_time_ps\":{}", t.as_ps());
    }
    out.push_str(",\"transfers\":[");
    for (i, t) in algo.transfers().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"chunk\":{},\"count\":{},\"src\":{},\"dst\":{},\"kind\":\"{}\"",
            t.chunk().raw(),
            t.count(),
            t.src().raw(),
            t.dst().raw(),
            kind_name(t.kind()),
        );
        if let Some(l) = t.link() {
            let _ = write!(out, ",\"link\":{}", l.raw());
        }
        if let Some(s) = t.start() {
            let _ = write!(out, ",\"start_ps\":{}", s.as_ps());
        }
        if let Some(d) = t.duration() {
            let _ = write!(out, ",\"duration_ps\":{}", d.as_ps());
        }
        out.push_str(",\"deps\":[");
        for (j, dep) in t.deps().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", dep.index());
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serializes the algorithm as MSCCL-interpreter-style XML.
///
/// Structure: `<algo>` → one `<gpu>` per NPU → one `<tb>` (threadblock)
/// per (peer, direction) → `<step>`s ordered by schedule. Each send step
/// names the chunk and whether the receiver reduces (`rrc`) or copies
/// (`r`) — the subset of MSCCL's vocabulary needed to express static
/// chunk routes.
pub fn to_msccl_xml(algo: &CollectiveAlgorithm) -> String {
    let n = algo.num_npus();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<algo name=\"{}\" nchunksperloop=\"{}\" nchannels=\"1\" proto=\"Simple\" ngpus=\"{}\">",
        escape(algo.name()),
        algo.transfers()
            .iter()
            .map(|t| t.chunk().raw() + t.count())
            .max()
            .unwrap_or(0),
        n
    );
    for gpu in 0..n {
        let _ = writeln!(out, "  <gpu id=\"{gpu}\">");
        // One threadblock per peer this GPU sends to, one per peer it
        // receives from (MSCCL's send/recv separation).
        let mut sends: Vec<(usize, Vec<(usize, &Transfer)>)> = Vec::new();
        let mut recvs: Vec<(usize, Vec<(usize, &Transfer)>)> = Vec::new();
        for (i, t) in algo.transfers().iter().enumerate() {
            if t.src().index() == gpu {
                match sends.iter_mut().find(|(p, _)| *p == t.dst().index()) {
                    Some((_, list)) => list.push((i, t)),
                    None => sends.push((t.dst().index(), vec![(i, t)])),
                }
            }
            if t.dst().index() == gpu {
                match recvs.iter_mut().find(|(p, _)| *p == t.src().index()) {
                    Some((_, list)) => list.push((i, t)),
                    None => recvs.push((t.src().index(), vec![(i, t)])),
                }
            }
        }
        let mut tb = 0usize;
        for (peer, steps) in &sends {
            let _ = writeln!(
                out,
                "    <tb id=\"{tb}\" send=\"{peer}\" recv=\"-1\" chan=\"0\">"
            );
            for (s, (id, t)) in steps.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "      <step s=\"{s}\" type=\"s\" srcbuf=\"o\" srcoff=\"{}\" cnt=\"{}\" \
                     depid=\"{}\" hasdep=\"0\"/>",
                    t.chunk().raw(),
                    t.count(),
                    id
                );
            }
            let _ = writeln!(out, "    </tb>");
            tb += 1;
        }
        for (peer, steps) in &recvs {
            let _ = writeln!(
                out,
                "    <tb id=\"{tb}\" send=\"-1\" recv=\"{peer}\" chan=\"0\">"
            );
            for (s, (id, t)) in steps.iter().enumerate() {
                let ty = match t.kind() {
                    TransferKind::Copy => "r",
                    TransferKind::Reduce => "rrc",
                };
                let _ = writeln!(
                    out,
                    "      <step s=\"{s}\" type=\"{ty}\" dstbuf=\"o\" dstoff=\"{}\" cnt=\"{}\" \
                     depid=\"{}\" hasdep=\"0\"/>",
                    t.chunk().raw(),
                    t.count(),
                    id
                );
            }
            let _ = writeln!(out, "    </tb>");
            tb += 1;
        }
        let _ = writeln!(out, "  </gpu>");
    }
    out.push_str("</algo>\n");
    out
}

/// Serializes the algorithm into the compact line-based `.tacos` format —
/// the round-trippable on-disk representation used to cache synthesized
/// schedules between runs (deserialize with [`from_compact`]).
///
/// Format: a header line
/// `tacos-algo v1 <name> <num_npus> <chunk_size> <total_size> <planned_ps|->`
/// followed by one line per transfer:
/// `<chunk> <count> <src> <dst> <C|R> <link|-> <start_ps|-> <dur_ps|-> <dep,dep,...|->`.
pub fn to_compact(algo: &CollectiveAlgorithm) -> String {
    let mut out = String::with_capacity(algo.len() * 48 + 64);
    let _ = writeln!(
        out,
        "tacos-algo v1 {} {} {} {} {}",
        algo.name().replace(' ', "_"),
        algo.num_npus(),
        algo.chunk_size().as_u64(),
        algo.total_size().as_u64(),
        algo.planned_time()
            .map_or("-".to_string(), |t| t.as_ps().to_string()),
    );
    for t in algo.transfers() {
        let deps = if t.deps().is_empty() {
            "-".to_string()
        } else {
            t.deps()
                .iter()
                .map(|d| d.index().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {}",
            t.chunk().raw(),
            t.count(),
            t.src().raw(),
            t.dst().raw(),
            match t.kind() {
                TransferKind::Copy => "C",
                TransferKind::Reduce => "R",
            },
            t.link().map_or("-".to_string(), |l| l.raw().to_string()),
            t.start().map_or("-".to_string(), |s| s.as_ps().to_string()),
            t.duration()
                .map_or("-".to_string(), |d| d.as_ps().to_string()),
            deps,
        );
    }
    out
}

/// Parses the compact format produced by [`to_compact`].
///
/// # Errors
/// Returns a human-readable description of the first malformed line.
pub fn from_compact(text: &str) -> Result<CollectiveAlgorithm, String> {
    use crate::algorithm::{AlgorithmBuilder, TransferId};
    use crate::ChunkId;
    use tacos_topology::{ByteSize, LinkId, NpuId, Time};

    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty input")?;
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() != 7 || h[0] != "tacos-algo" || h[1] != "v1" {
        return Err(format!("bad header: '{header}'"));
    }
    // Each field parses at its own width, so an id too wide for `u32` is an
    // error rather than a truncated, different id.
    fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(
        s: &str,
        what: &str,
    ) -> Result<T, String> {
        s.parse::<T>().map_err(|e| format!("bad {what} '{s}': {e}"))
    }
    fn opt<T: std::str::FromStr<Err = std::num::ParseIntError>>(
        s: &str,
        what: &str,
    ) -> Result<Option<T>, String> {
        if s == "-" {
            Ok(None)
        } else {
            num(s, what).map(Some)
        }
    }
    let num_npus: usize = num(h[3], "num_npus")?;
    let mut b = AlgorithmBuilder::new(
        h[2],
        num_npus,
        ByteSize::bytes(num(h[4], "chunk_size")?),
        ByteSize::bytes(num(h[5], "total_size")?),
    );
    let planned: Option<u64> = opt(h[6], "planned_time")?;

    // Checks everything `AlgorithmBuilder` would assert, so malformed
    // text is an error, never a panic.
    let push_line = |b: &mut AlgorithmBuilder, line: &str| -> Result<(), String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 9 {
            return Err(format!("expected 9 fields, got {}", f.len()));
        }
        let chunk = ChunkId::new(num(f[0], "chunk")?);
        let count: u32 = num(f[1], "count")?;
        let (src, dst): (u32, u32) = (num(f[2], "src")?, num(f[3], "dst")?);
        for (what, npu) in [("src", src), ("dst", dst)] {
            if npu as usize >= num_npus {
                return Err(format!("{what} {npu} out of range ({num_npus} NPUs)"));
            }
        }
        if src == dst {
            return Err(format!("transfer endpoints must differ ({src} -> {dst})"));
        }
        if count == 0 {
            return Err("count must be at least 1".into());
        }
        let (src, dst) = (NpuId::new(src), NpuId::new(dst));
        let kind = match f[4] {
            "C" => TransferKind::Copy,
            "R" => TransferKind::Reduce,
            other => return Err(format!("bad kind '{other}'")),
        };
        let link: Option<u32> = opt(f[5], "link")?;
        let (start, duration): (Option<u64>, Option<u64>) =
            (opt(f[6], "start")?, opt(f[7], "duration")?);
        // The largest value of each schedule field is the builder's
        // "unscheduled" sentinel: it would read back as a partial schedule.
        for (what, value, sentinel) in [
            ("link", link.map(u64::from), u64::from(u32::MAX)),
            ("start", start, u64::MAX),
            ("duration", duration, u64::MAX),
        ] {
            if value == Some(sentinel) {
                return Err(format!("{what} {sentinel} is reserved for 'unscheduled'"));
            }
        }
        let link = link.map(LinkId::new);
        let (start, duration) = (start.map(Time::from_ps), duration.map(Time::from_ps));
        let deps: Vec<TransferId> = if f[8] == "-" {
            Vec::new()
        } else {
            f[8].split(',')
                .map(|d| num(d, "dep").map(TransferId::new))
                .collect::<Result<_, _>>()?
        };
        if let Some(dep) = deps.iter().find(|d| d.index() >= b.len()) {
            return Err(format!(
                "dependency {} is not an earlier transfer",
                dep.index()
            ));
        }
        match (link, start, duration) {
            (Some(link), Some(start), Some(duration)) => {
                if count != 1 {
                    return Err(format!("a scheduled transfer moves one chunk, not {count}"));
                }
                b.push_scheduled(chunk, src, dst, kind, link, start, duration, deps);
            }
            (Some(link), None, None) => {
                b.push_on_link(chunk, count, src, dst, kind, link, deps);
            }
            (None, None, None) => {
                b.push_counted(chunk, count, src, dst, kind, deps);
            }
            _ => return Err("partial schedule (link/start/duration must come together)".into()),
        }
        Ok(())
    };
    for (lineno, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        push_line(&mut b, line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if let Some(planned) = planned {
        b.planned_time(Time::from_ps(planned));
    }
    Ok(b.build())
}

fn kind_name(kind: TransferKind) -> &'static str {
    match kind {
        TransferKind::Copy => "copy",
        TransferKind::Reduce => "reduce",
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AlgorithmBuilder;
    use crate::ChunkId;
    use tacos_topology::{ByteSize, LinkId, NpuId, Time};

    fn algo() -> CollectiveAlgorithm {
        let mut b = AlgorithmBuilder::new("unit", 3, ByteSize::mb(1), ByteSize::mb(3));
        let first = b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            LinkId::new(0),
            Time::ZERO,
            Time::from_ps(10),
            vec![],
        );
        b.push_scheduled(
            ChunkId::new(0),
            NpuId::new(1),
            NpuId::new(2),
            TransferKind::Reduce,
            LinkId::new(1),
            Time::from_ps(10),
            Time::from_ps(10),
            vec![first],
        );
        b.planned_time(Time::from_ps(20));
        b.build()
    }

    #[test]
    fn json_roundtrippable_shape() {
        let j = to_json(&algo());
        assert!(j.starts_with("{\"name\":\"unit\""));
        assert!(j.contains("\"planned_time_ps\":20"));
        assert!(j.contains("\"kind\":\"reduce\""));
        assert!(j.contains("\"deps\":[0]"));
        assert!(j.ends_with("]}"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn xml_structure() {
        let x = to_msccl_xml(&algo());
        assert!(x.starts_with("<algo name=\"unit\""));
        assert_eq!(x.matches("<gpu ").count(), 3);
        assert_eq!(x.matches("</gpu>").count(), 3);
        // GPU1 both receives (from 0) and sends (to 2).
        assert!(x.contains("send=\"2\""));
        assert!(x.contains("recv=\"0\""));
        // Reduce arrives as rrc.
        assert!(x.contains("type=\"rrc\""));
        assert!(x.ends_with("</algo>\n"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b"), "a\\\"b");
    }

    #[test]
    fn compact_roundtrip_scheduled() {
        let a = algo();
        let text = to_compact(&a);
        let back = from_compact(&text).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn compact_roundtrip_dependency_driven() {
        let mut b = AlgorithmBuilder::new("dep algo", 4, ByteSize::kb(64), ByteSize::kb(256));
        let first = b.push(
            ChunkId::new(1),
            NpuId::new(0),
            NpuId::new(1),
            TransferKind::Copy,
            vec![],
        );
        b.push_counted(
            ChunkId::new(2),
            8,
            NpuId::new(1),
            NpuId::new(3),
            TransferKind::Reduce,
            vec![first],
        );
        b.push_on_link(
            ChunkId::new(3),
            2,
            NpuId::new(2),
            NpuId::new(0),
            TransferKind::Copy,
            LinkId::new(5),
            vec![],
        );
        let a = b.build();
        let back = from_compact(&to_compact(&a)).unwrap();
        // Name spaces are flattened to underscores; everything else equal.
        assert_eq!(back.name(), "dep_algo");
        assert_eq!(back.len(), a.len());
        for (x, y) in a.transfers().iter().zip(back.transfers()) {
            assert_eq!(x.chunk(), y.chunk());
            assert_eq!(x.count(), y.count());
            assert_eq!(x.src(), y.src());
            assert_eq!(x.dst(), y.dst());
            assert_eq!(x.kind(), y.kind());
            assert_eq!(x.link(), y.link());
            assert_eq!(x.deps(), y.deps());
        }
    }

    #[test]
    fn compact_rejects_malformed() {
        assert!(from_compact("").is_err());
        assert!(from_compact("nope v1 x 2 1 1 -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 X - - - -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 C 0 5 - -").is_err());
        assert!(from_compact("tacos-algo v1 a 2 1 1 -\n1 1 0 1 C").is_err());
    }

    /// Lines the builder would assert on, and values that collide with
    /// the "unscheduled" sentinels, are `line N` errors, not panics or
    /// silently different transfers.
    #[test]
    fn compact_rejects_what_the_builder_would_assert_on() {
        for (line, expected) in MALFORMED_LINES {
            let text = format!("tacos-algo v1 x 4 1000 4000 -\n0 1 0 1 C - - - -\n{line}\n");
            let err = from_compact(&text).expect_err(line);
            assert_eq!(err, format!("line 3: {expected}"), "{line}");
        }
    }

    /// Transfer lines that are well-formed text but not a transfer, with
    /// the error each gets (under a 4-NPU header, after one valid line).
    const MALFORMED_LINES: [(&str, &str); 9] = [
        (
            "0 1 0 0 C - - - -",
            "transfer endpoints must differ (0 -> 0)",
        ),
        ("0 1 0 9 C - - - -", "dst 9 out of range (4 NPUs)"),
        (
            "0 1 0 1 C - - - 3",
            "dependency 3 is not an earlier transfer",
        ),
        ("0 0 0 1 C - - - -", "count must be at least 1"),
        (
            "0 1 0 1 C 0 18446744073709551615 5 -",
            "start 18446744073709551615 is reserved for 'unscheduled'",
        ),
        (
            "0 1 0 1 C 0 5 18446744073709551615 -",
            "duration 18446744073709551615 is reserved for 'unscheduled'",
        ),
        (
            "0 1 0 1 C 4294967295 5 5 -",
            "link 4294967295 is reserved for 'unscheduled'",
        ),
        (
            "4294967296 1 0 1 C - - - -",
            "bad chunk '4294967296': number too large to fit in target type",
        ),
        (
            "0 2 0 1 C 0 5 5 -",
            "a scheduled transfer moves one chunk, not 2",
        ),
    ];
}
