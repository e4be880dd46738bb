//! The topology spec vocabulary. Spec strings (`mesh:3x3`,
//! `rfs:2x4x8:4x2x1`, `dgx1`, ...) are shared by the CLI's `--topology`
//! flag, scenario files' `sweep.topology` axis and the serving protocol's
//! `topology` field; custom fabrics ([`CustomTopology`], a scenario
//! file's `[[topologies]]`) and degraded ones ([`WithoutLinks`], the
//! `without_links` axis) are built here too.

use std::fmt;

use crate::{
    Bandwidth, DimKind, LinkId, LinkSpec, NpuId, RingOrientation, Time, Topology, TopologyBuilder,
};

/// An α–β link in display units, as requests spell it: a value of a
/// scenario's `link` axis, a `[[topologies.links]]` entry, the serving
/// protocol's `alpha_us` / `link_gbps` fields, the CLI's `--alpha` /
/// `--bw`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAxis {
    /// Link latency α in microseconds.
    pub alpha_us: f64,
    /// Link bandwidth 1/β in GB/s.
    pub bandwidth_gbps: f64,
}

impl LinkAxis {
    /// The paper's default link: α = 0.5 µs, 50 GB/s.
    pub fn default_paper() -> Self {
        LinkAxis {
            alpha_us: 0.5,
            bandwidth_gbps: 50.0,
        }
    }

    /// Whether the values describe a link; run on anything read from
    /// outside the program before [`LinkAxis::to_spec`], which panics on
    /// what this rejects.
    ///
    /// # Errors
    /// Returns the reason (without naming the link) when either value is
    /// not finite, α is negative, or the bandwidth is not positive; when
    /// α reaches 2^64 ps, past the longest [`Time`]; or when the
    /// bandwidth in bytes per second is not finite.
    pub fn check(&self) -> Result<(), String> {
        let alpha_ok = self.alpha_us.is_finite() && self.alpha_us >= 0.0;
        let bandwidth_ok = self.bandwidth_gbps.is_finite() && self.bandwidth_gbps > 0.0;
        if !(alpha_ok && bandwidth_ok) {
            Err("alpha must be finite and >= 0 and bandwidth finite and > 0".to_string())
        } else if (self.alpha_us * 1e6).round() >= 18_446_744_073_709_551_616.0 {
            // What `Time::from_micros` would saturate.
            Err("alpha must be under 2^64 ps".to_string())
        } else if !(self.bandwidth_gbps * 1e9).is_finite() {
            Err("bandwidth must be finite in bytes per second".to_string())
        } else {
            Ok(())
        }
    }

    /// Converts to a [`LinkSpec`].
    ///
    /// # Panics
    /// Panics on values [`LinkAxis::check`] rejects.
    pub fn to_spec(self) -> LinkSpec {
        LinkSpec::new(
            Time::from_micros(self.alpha_us),
            Bandwidth::gbps(self.bandwidth_gbps),
        )
    }
}

impl fmt::Display for LinkAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}us-{}GBps", self.alpha_us, self.bandwidth_gbps)
    }
}

/// The most NPUs, and the most links, one topology spec may describe:
/// 2^25.
///
/// A spec arrives from a flag, a scenario file or a request line, so its
/// counts are checked against this before anything is allocated:
/// `fc:100000` would ask for ten billion links, and
/// `mesh:4294967296x4294967297` wraps its NPU product. No collective over
/// more NPUs can be built anyway (`tacos_collective::MAX_NPU_CHUNK_PAIRS`
/// is this constant). The bound keeps a request from aborting the
/// process; it is not a memory budget.
pub const MAX_SPEC_ELEMENTS: u64 = 1 << 25;

/// Parses a topology spec string (`mesh:3x3`, `ring:8`, `dgx1`, ...) into
/// a [`Topology`] with homogeneous `link` costs.
///
/// The heterogeneous families derive their tier bandwidths from `link`
/// via explicit ratio suffixes:
///
/// * `rfs:RxFxS[:R1xR2xR3]` — per-tier (ring, fully-connected, switch)
///   bandwidth multipliers, default `4x2x1`. E.g. under a 50 GB/s link,
///   `rfs:2x4x8` builds tiers at 200/100/50 GB/s (the paper's Table V
///   system) and `rfs:2x4x8:1x1x1` a homogeneous one.
/// * `dragonfly:GxP[:R]` — global-link bandwidth multiplier, default
///   `0.5` (global links at half the local bandwidth).
/// * `switch2d:RxC[:R]` — second-dimension switch bandwidth multiplier,
///   default `1.0`.
///
/// Every topology keeps the `link` latency α on all tiers. For absolute
/// per-tier bandwidths, describe the system as a [`CustomTopology`]
/// family entry instead.
///
/// # Errors
/// Returns a message for unknown families, malformed dimensions,
/// non-positive ratio values, or more NPUs or links than
/// [`MAX_SPEC_ELEMENTS`].
pub fn parse_topology(spec: &str, link: LinkSpec) -> Result<Topology, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    if let Some(family) = Tiered::named(kind) {
        let (dims, suffix) = match rest.split_once(':') {
            Some((dims, ratios)) => (dims, Some(ratios)),
            None => (rest, None),
        };
        let dims = family.dims(dims, family.suffix)?;
        let ratios = match suffix {
            Some(s) => ratios(s)?,
            None => family.ratios.to_vec(),
        };
        if ratios.len() != family.ratios.len() {
            return Err(family.wrong_suffix.into());
        }
        // A suffix scales the trailing tiers; the leading ones run at the
        // link's bandwidth.
        let bw = link.bandwidth().as_gbps();
        let mut gbps = vec![bw; dims.len() - ratios.len()];
        gbps.extend(ratios.iter().map(|r| bw * r));
        return family.build(spec, &dims, link.alpha(), &gbps);
    }
    let size = |what: &str| -> Result<usize, String> {
        rest.parse().map_err(|e| format!("bad {what} size: {e}"))
    };
    let topo = match kind {
        "ring" => {
            let n = size("ring")?;
            check_size(spec, &[(Some(DimKind::Ring), n)], 0)?;
            Topology::ring(n, link, RingOrientation::Bidirectional)
        }
        "ring-uni" => {
            let n = size("ring")?;
            // One link per NPU, as a degree-1 switch has.
            check_size(spec, &[(Some(DimKind::Switch { degree: 1 }), n)], 0)?;
            Topology::ring(n, link, RingOrientation::Unidirectional)
        }
        "fc" => {
            let n = size("fc")?;
            check_size(spec, &[(Some(DimKind::FullyConnected), n)], 0)?;
            Topology::fully_connected(n, link)
        }
        "mesh" => {
            let d = dims(rest)?;
            if d.len() != 2 {
                return Err("mesh needs RxC".into());
            }
            check_size(spec, &uniform(DimKind::Mesh, &d), 0)?;
            Topology::mesh_2d(d[0], d[1], link)
        }
        "torus" => {
            let d = dims(rest)?;
            check_size(spec, &uniform(DimKind::Ring, &d), 0)?;
            match d.len() {
                2 => Topology::torus_2d(d[0], d[1], link),
                3 => Topology::torus_3d(d[0], d[1], d[2], link),
                _ => return Err("torus needs XxY or XxYxZ".into()),
            }
        }
        "hypercube" => {
            let d = dims(rest)?;
            if d.len() != 3 {
                return Err("hypercube needs XxYxZ".into());
            }
            check_size(spec, &uniform(DimKind::Mesh, &d), 0)?;
            Topology::hypercube_3d(d[0], d[1], d[2], link)
        }
        "switch" => {
            let (n, degree) = match rest.split_once(":d") {
                Some((n, d)) => (
                    n.parse().map_err(|e| format!("bad switch size: {e}"))?,
                    d.parse().map_err(|e| format!("bad degree: {e}"))?,
                ),
                None => (size("switch")?, 1),
            };
            check_size(spec, &[(Some(DimKind::Switch { degree }), n)], 0)?;
            Topology::switch(n, link, degree)
        }
        "dgx1" => Topology::dgx1(link),
        other => return Err(format!("unknown topology kind '{other}'")),
    };
    topo.map_err(|e| e.to_string())
}

/// A family with one link bandwidth per dimension (tier). Both spellings
/// of such a fabric — a spec string under a link, with an optional ratio
/// suffix, and a [`CustomTopologyBody::Family`] entry with absolute
/// `tier_gbps` — parse its dimensions and build it here; they differ only
/// in where the tier bandwidths come from.
struct Tiered {
    kind: &'static str,
    /// The dimensions, as a malformed spec's error spells them.
    shape: &'static str,
    /// The ratio suffix, likewise.
    suffix: &'static str,
    /// Default multipliers of the link bandwidth for the trailing tiers a
    /// suffix sets.
    ratios: &'static [f64],
    /// The error for a suffix with the wrong number of ratios.
    wrong_suffix: &'static str,
}

const TIERED: [Tiered; 3] = [
    Tiered {
        kind: "rfs",
        shape: "RxFxS",
        suffix: "[:R1xR2xR3]",
        ratios: &[4.0, 2.0, 1.0],
        wrong_suffix: "rfs bandwidth suffix needs three ratios (R1xR2xR3)",
    },
    Tiered {
        kind: "switch2d",
        shape: "RxC",
        suffix: "[:RATIO]",
        ratios: &[1.0],
        wrong_suffix: "switch2d bandwidth suffix needs one ratio",
    },
    Tiered {
        kind: "dragonfly",
        shape: "GROUPSxPER_GROUP",
        suffix: "[:RATIO]",
        ratios: &[0.5],
        wrong_suffix: "dragonfly bandwidth suffix needs one global ratio",
    },
];

impl Tiered {
    fn named(kind: &str) -> Option<&'static Tiered> {
        TIERED.iter().find(|f| f.kind == kind)
    }

    /// The number of tiers: one per dimension.
    fn tiers(&self) -> usize {
        self.shape.split('x').count()
    }

    /// Parses the dimensions and checks their count; `suffix` completes
    /// the usage an error shows.
    fn dims(&self, s: &str, suffix: &str) -> Result<Vec<usize>, String> {
        let d = dims(s)?;
        if d.len() != self.tiers() {
            return Err(format!("{} needs {}{suffix}", self.kind, self.shape));
        }
        Ok(d)
    }

    /// Builds the family over dimensions `d` with latency `alpha` and one
    /// bandwidth (GB/s) per tier.
    fn build(
        &self,
        spec: &str,
        d: &[usize],
        alpha: Time,
        gbps: &[f64],
    ) -> Result<Topology, String> {
        let switch = Some(DimKind::Switch { degree: 1 });
        let topo = match self.kind {
            "rfs" => {
                let ring = Some(DimKind::Ring);
                let fc = Some(DimKind::FullyConnected);
                check_size(spec, &[(ring, d[0]), (fc, d[1]), (switch, d[2])], 0)?;
                Topology::rfs_3d(d[0], d[1], d[2], alpha, [gbps[0], gbps[1], gbps[2]])
            }
            "switch2d" => {
                check_size(spec, &[(switch, d[0]), (switch, d[1])], 0)?;
                Topology::switch_2d(d[0], d[1], alpha, [gbps[0], gbps[1]])
            }
            _ => {
                // Groups of fully connected members, plus one bidirectional
                // link per group pair.
                let groups = d[0] as u64;
                let global = groups.saturating_mul(groups.saturating_sub(1));
                check_size(
                    spec,
                    &[(None, d[0]), (Some(DimKind::FullyConnected), d[1])],
                    global,
                )?;
                let tier = |g: f64| LinkSpec::new(alpha, Bandwidth::gbps(g));
                Topology::dragonfly(d[0], d[1], tier(gbps[0]), tier(gbps[1]))
            }
        };
        topo.map_err(|e| e.to_string())
    }
}

/// Refuses a fabric whose NPU or link count exceeds
/// [`MAX_SPEC_ELEMENTS`], before anything is allocated. `sides` lists its
/// dimensions; one with a [`DimKind`] wires each group of NPUs along it
/// the way [`crate::multi_dim`] does, and `extra` counts the links no
/// side accounts for.
fn check_size(spec: &str, sides: &[(Option<DimKind>, usize)], extra: u64) -> Result<(), String> {
    let npus = sides
        .iter()
        .try_fold(1u64, |n, &(_, k)| n.checked_mul(k as u64));
    within_limit(spec, "NPUs", npus)?;
    let n = npus.unwrap_or(0);
    if n == 0 {
        return Ok(()); // the constructor rejects the empty side
    }
    // With at most 2^25 NPUs and no empty side, every side is at most
    // 2^25 too, so no term below can overflow.
    let links = sides
        .iter()
        .filter_map(|&(kind, k)| {
            let k = k as u64;
            let per_group = match kind? {
                DimKind::Ring if k == 2 => 2,
                DimKind::Ring => 2 * k,
                DimKind::FullyConnected => k * (k - 1),
                DimKind::Switch { degree } => k * u64::from(degree),
                DimKind::Mesh => 2 * (k - 1),
            };
            Some(n / k * per_group)
        })
        .sum::<u64>();
    within_limit(spec, "links", Some(links.saturating_add(extra)))
}

/// The sides of a fabric whose every dimension is wired as `kind`.
fn uniform(kind: DimKind, d: &[usize]) -> Vec<(Option<DimKind>, usize)> {
    d.iter().map(|&k| (Some(kind), k)).collect()
}

/// Refuses a count (`None` when it overflowed) above
/// [`MAX_SPEC_ELEMENTS`].
fn within_limit(spec: &str, what: &str, count: Option<u64>) -> Result<(), String> {
    match count {
        Some(n) if n <= MAX_SPEC_ELEMENTS => Ok(()),
        _ => Err(format!(
            "topology '{spec}' has {} {what}, over the limit of {MAX_SPEC_ELEMENTS}",
            count.map_or_else(|| "more than 2^64".to_string(), |n| n.to_string())
        )),
    }
}

/// Parses an `x`-separated dimension list.
fn dims(s: &str) -> Result<Vec<usize>, String> {
    s.split('x')
        .map(|d| {
            d.parse::<usize>()
                .map_err(|e| format!("bad dimension '{d}': {e}"))
        })
        .collect()
}

/// Parses an `x`-separated list of positive bandwidth ratios.
fn ratios(s: &str) -> Result<Vec<f64>, String> {
    s.split('x')
        .map(|r| {
            let v: f64 = r
                .parse()
                .map_err(|e| format!("bad bandwidth ratio '{r}': {e}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("bandwidth ratio '{r}' must be > 0"));
            }
            Ok(v)
        })
        .collect()
}

/// One value of the `without_links` failure-injection axis: how many (or
/// exactly which) links to kill before running the point.
///
/// In a scenario file an **integer** is a victim *count* — that many
/// links are selected seed-deterministically (see
/// [`select_failed_links`]) — while a **string** of `+`-separated link
/// ids (`"13"`, `"13+27"`) names the victims explicitly. `0` (the
/// default) runs the healthy topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WithoutLinks {
    /// Kill this many links, chosen seed-deterministically among
    /// selections that keep the topology strongly connected.
    Count(usize),
    /// Kill exactly these link ids (of the healthy topology).
    Links(Vec<u32>),
}

impl WithoutLinks {
    /// Whether this value leaves the topology untouched.
    pub fn is_healthy(&self) -> bool {
        matches!(self, WithoutLinks::Count(0))
    }

    /// The axis label used in CSV rows, point labels, and `[[exclude]]` /
    /// `group_by` matching: the count, or the `+`-joined id list.
    pub fn label(&self) -> String {
        match self {
            WithoutLinks::Count(n) => n.to_string(),
            WithoutLinks::Links(ids) => {
                ids.iter().map(u32::to_string).collect::<Vec<_>>().join("+")
            }
        }
    }
}

impl fmt::Display for WithoutLinks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Resolves a `without_links` axis value into the victim link ids for
/// `topo`.
///
/// Explicit lists are returned as-is (range/connectivity validation
/// happens in [`Topology::without_links`]). Counts are resolved
/// deterministically from `seed`: victims are drawn one at a time from a
/// seed-keyed xorshift stream, and a candidate that would disconnect the
/// surviving fabric is skipped in favor of the next id in rotation, so a
/// fixed `(topology, seed, count)` always yields the same victim set.
///
/// # Errors
/// Returns a message if a count is out of range or no connected
/// selection exists at some step.
pub fn select_failed_links(
    topo: &Topology,
    axis: &WithoutLinks,
    seed: u64,
) -> Result<Vec<LinkId>, String> {
    let count = match axis {
        WithoutLinks::Links(ids) => {
            return Ok(ids.iter().map(|&id| LinkId::new(id)).collect());
        }
        WithoutLinks::Count(n) => *n,
    };
    if count >= topo.num_links() {
        return Err(format!(
            "cannot remove {count} of {} links",
            topo.num_links()
        ));
    }
    // Seed-keyed xorshift stream; `| 1` keeps the state nonzero.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut victims: Vec<LinkId> = Vec::with_capacity(count);
    while victims.len() < count {
        // Candidate ids of the *healthy* topology not yet removed, in a
        // stable order; probe from a pseudo-random rotation point.
        let alive: Vec<LinkId> = (0..topo.num_links() as u32)
            .map(LinkId::new)
            .filter(|id| !victims.contains(id))
            .collect();
        let offset = (next() % alive.len() as u64) as usize;
        let chosen = (0..alive.len())
            .map(|i| alive[(offset + i) % alive.len()])
            .find(|&candidate| {
                let mut attempt = victims.clone();
                attempt.push(candidate);
                topo.without_links(&attempt).is_ok()
            });
        match chosen {
            Some(candidate) => victims.push(candidate),
            None => {
                return Err(format!(
                    "no selection of {count} links keeps '{}' strongly connected \
                     (stuck after {})",
                    topo.name(),
                    victims.len()
                ));
            }
        }
    }
    Ok(victims)
}

/// One directed (or bidirectional) link of a builder-described topology.
#[derive(Debug, Clone, Copy)]
pub struct CustomLink {
    /// Source NPU index.
    pub src: u32,
    /// Destination NPU index.
    pub dst: u32,
    /// Link cost parameters.
    pub link: LinkAxis,
    /// Whether to add the reverse direction too.
    pub bidi: bool,
}

/// A heterogeneous network described in a scenario file's
/// `[[topologies]]` table, referenced from `sweep.topology` as
/// `custom:<name>`.
#[derive(Debug, Clone)]
pub struct CustomTopology {
    /// Name referenced from `sweep.topology` as `custom:<name>`.
    pub name: String,
    /// How the network is described.
    pub body: CustomTopologyBody,
}

/// The two `[[topologies]]` description forms.
#[derive(Debug, Clone)]
pub enum CustomTopologyBody {
    /// Link-by-link builder form: `npus` plus `[[topologies.links]]`
    /// entries (arbitrary structure, per-link specs — e.g. mixed
    /// mesh/switch fabrics).
    Links {
        /// Number of NPUs.
        npus: usize,
        /// The links.
        links: Vec<CustomLink>,
    },
    /// Family form: a canonical constructor spec (`base`) with explicit
    /// per-tier bandwidth overrides, so heterogeneous systems with
    /// absolute tier bandwidths (paper §VI-B.1) can be enumerated as
    /// axis values without going through the shared `link` axis.
    Family {
        /// A [`parse_topology`] constructor spec without a ratio suffix
        /// (`dragonfly:5x4`, `switch2d:8x4`, `rfs:2x4x8`, `mesh:3x3`).
        base: String,
        /// Link latency α in microseconds, applied to every tier.
        alpha_us: f64,
        /// Per-tier bandwidths in GB/s, outermost-listed-first in the
        /// base family's dimension order; homogeneous families take a
        /// single entry.
        tier_gbps: Vec<f64>,
    },
}

impl CustomTopology {
    /// Builds the [`Topology`].
    ///
    /// # Errors
    /// Returns a message if an endpoint is out of range, the tier count
    /// does not match the base family, the NPU or link count exceeds
    /// [`MAX_SPEC_ELEMENTS`], or the built network is rejected.
    pub fn build(&self) -> Result<Topology, String> {
        match &self.body {
            CustomTopologyBody::Links { npus, links } => {
                let spec = format!("custom:{}", self.name);
                within_limit(&spec, "NPUs", Some(*npus as u64))?;
                let count = links.iter().map(|l| 1 + u64::from(l.bidi)).sum();
                within_limit(&spec, "links", Some(count))?;
                let mut b = TopologyBuilder::new(spec);
                b.npus(*npus);
                for l in links {
                    if l.src as usize >= *npus || l.dst as usize >= *npus {
                        return Err(format!(
                            "link {} -> {} out of range for {npus} NPUs",
                            l.src, l.dst
                        ));
                    }
                    if l.bidi {
                        b.bidi_link(NpuId::new(l.src), NpuId::new(l.dst), l.link.to_spec());
                    } else {
                        b.link(NpuId::new(l.src), NpuId::new(l.dst), l.link.to_spec());
                    }
                }
                b.build().map_err(|e| e.to_string())
            }
            CustomTopologyBody::Family {
                base,
                alpha_us,
                tier_gbps,
            } => {
                let alpha = Time::from_micros(*alpha_us);
                let (kind, rest) = base.split_once(':').unwrap_or((base, ""));
                if rest.contains(':') {
                    return Err(format!(
                        "base '{base}' must not carry a ratio suffix; tier bandwidths \
                         come from tier_gbps"
                    ));
                }
                let want_tiers = |n: usize| -> Result<(), String> {
                    if tier_gbps.len() != n {
                        return Err(format!(
                            "'{kind}' has {n} tier(s), but tier_gbps lists {}",
                            tier_gbps.len()
                        ));
                    }
                    Ok(())
                };
                match Tiered::named(kind) {
                    Some(family) => {
                        let d = family.dims(rest, "")?;
                        want_tiers(family.tiers())?;
                        family.build(base, &d, alpha, tier_gbps)
                    }
                    // Every single-tier family goes through the spec string.
                    None => {
                        want_tiers(1)?;
                        parse_topology(base, LinkSpec::new(alpha, Bandwidth::gbps(tier_gbps[0])))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_link() -> LinkSpec {
        LinkAxis::default_paper().to_spec()
    }

    #[test]
    fn parse_topologies() {
        let spec = paper_link();
        assert_eq!(parse_topology("ring:8", spec).unwrap().num_npus(), 8);
        assert_eq!(parse_topology("mesh:3x3", spec).unwrap().num_npus(), 9);
        assert_eq!(parse_topology("torus:2x2x2", spec).unwrap().num_npus(), 8);
        assert_eq!(parse_topology("fc:4", spec).unwrap().num_npus(), 4);
        assert_eq!(parse_topology("switch:4:d2", spec).unwrap().num_links(), 8);
        assert_eq!(parse_topology("rfs:2x4x8", spec).unwrap().num_npus(), 64);
        assert_eq!(
            parse_topology("dragonfly:5x4", spec).unwrap().num_npus(),
            20
        );
        assert_eq!(parse_topology("dgx1", spec).unwrap().num_npus(), 8);
        assert!(parse_topology("blob:3", spec).is_err());
        assert!(parse_topology("mesh:3", spec).is_err());
    }

    #[test]
    fn link_check_rejects_what_to_spec_would_panic_on() {
        let link = |alpha_us, bandwidth_gbps| LinkAxis {
            alpha_us,
            bandwidth_gbps,
        };
        assert_eq!(LinkAxis::default_paper().check(), Ok(()));
        assert_eq!(link(0.0, 1e-3).check(), Ok(()));
        for bad in [
            link(-1.0, 50.0),
            link(f64::NAN, 50.0),
            link(f64::INFINITY, 50.0),
            link(0.5, 0.0),
            link(0.5, -50.0),
            link(0.5, f64::NAN),
            link(0.5, f64::INFINITY),
        ] {
            let reason = bad.check().unwrap_err();
            assert!(reason.contains("finite"), "{bad}: {reason}");
        }
        // An α just under 2^64 ps passes; one that rounds to it does not.
        assert_eq!(link(18_446_744_073_709.54, 50.0).check(), Ok(()));
        for (bad, want) in [
            (
                link(18_446_744_073_709.55, 50.0),
                "alpha must be under 2^64 ps",
            ),
            (link(1e300, 50.0), "alpha must be under 2^64 ps"),
            (
                link(0.5, 1e300),
                "bandwidth must be finite in bytes per second",
            ),
        ] {
            assert_eq!(bad.check(), Err(want.to_string()), "{bad}");
        }
    }

    /// Distinct per-link bandwidths of a topology, sorted ascending.
    fn tier_bandwidths(spec: &str) -> Vec<f64> {
        let topo = parse_topology(spec, paper_link()).unwrap();
        let mut bws: Vec<f64> = topo
            .links()
            .iter()
            .map(|l| l.spec().bandwidth().as_gbps())
            .collect();
        bws.sort_by(f64::total_cmp);
        bws.dedup();
        bws
    }

    #[test]
    fn rfs_tier_bandwidths_default_to_4x2x1() {
        // 50 GB/s sweep link => ring 200, fc 100, switch 50 (Table V's
        // published tiers).
        assert_eq!(tier_bandwidths("rfs:2x4x2"), [50.0, 100.0, 200.0]);
        assert_eq!(
            tier_bandwidths("rfs:2x4x2:4x2x1"),
            tier_bandwidths("rfs:2x4x2")
        );
    }

    #[test]
    fn rfs_and_dragonfly_ratio_suffixes_are_explicit() {
        assert_eq!(tier_bandwidths("rfs:2x4x2:8x2x0.5"), [25.0, 100.0, 400.0]);
        assert_eq!(tier_bandwidths("dragonfly:3x3"), [25.0, 50.0]);
        assert_eq!(tier_bandwidths("dragonfly:3x3:0.25"), [12.5, 50.0]);
        let link = paper_link();
        assert!(parse_topology("rfs:2x4x2:4x2", link).is_err());
        assert!(parse_topology("rfs:2x4x2:4x2x0", link).is_err());
        assert!(parse_topology("dragonfly:3x3:0.5x1", link).is_err());
        assert!(parse_topology("dragonfly:3x3:-1", link).is_err());
    }

    #[test]
    fn switch2d_parses_with_ratio_suffix() {
        assert_eq!(tier_bandwidths("switch2d:8x4"), [50.0]);
        assert_eq!(tier_bandwidths("switch2d:8x4:0.5"), [25.0, 50.0]);
        let link = paper_link();
        assert_eq!(parse_topology("switch2d:8x4", link).unwrap().num_npus(), 32);
        assert!(parse_topology("switch2d:8", link).is_err());
        assert!(parse_topology("switch2d:8x4:1x2", link).is_err());
    }

    #[test]
    fn oversized_specs_are_refused_before_allocation() {
        let link = paper_link();
        let limit = "over the limit of 33554432";
        for (spec, count) in [
            ("fc:100000", "9999900000 links"),
            ("mesh:4294967296x4294967297", "more than 2^64 NPUs"),
            ("switch:100000:d99999", "9999900000 links"),
            ("ring:20000000", "40000000 links"),
            ("ring-uni:40000000", "40000000 NPUs"),
            ("mesh:5000x5000", "99980000 links"),
            ("torus:400x400x400", "64000000 NPUs"),
            ("rfs:2x64x4096", "34078720 links"),
            ("switch2d:8192x8192:0.5", "67108864 NPUs"),
            ("dragonfly:5000x5000", "124999995000 links"),
        ] {
            let err = parse_topology(spec, link).unwrap_err();
            assert_eq!(err, format!("topology '{spec}' has {count}, {limit}"));
        }
        // The family form counts the same way, and the link-by-link form
        // by its declared NPUs and links.
        let custom = |body| CustomTopology {
            name: "big".into(),
            body,
        };
        let family = custom(CustomTopologyBody::Family {
            base: "fc:100000".into(),
            alpha_us: 0.5,
            tier_gbps: vec![50.0],
        });
        assert!(family.build().unwrap_err().contains("9999900000 links"));
        let links = custom(CustomTopologyBody::Links {
            npus: 1 << 40,
            links: Vec::new(),
        });
        assert_eq!(
            links.build().unwrap_err(),
            format!("topology 'custom:big' has 1099511627776 NPUs, {limit}")
        );
    }

    #[test]
    fn tiered_sides_below_two_are_errors_not_panics() {
        for spec in ["rfs:1x4x8", "rfs:2x4x1", "switch2d:1x4", "switch2d:4x0:0.5"] {
            let err = parse_topology(spec, paper_link()).unwrap_err();
            assert!(err.contains("requires every side >= 2"), "{spec}: {err}");
        }
    }
}
