//! The topology spec-string vocabulary (`mesh:3x3`, `rfs:2x4x8:4x2x1`,
//! `dgx1`, ...) shared by the CLI's `--topology` flag, scenario files'
//! `sweep.topology` axis and the serving protocol's `topology` field.

use std::fmt;

use crate::{Bandwidth, LinkSpec, RingOrientation, Time, Topology};

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
    /// not finite, α is negative, or the bandwidth is not positive.
    pub fn check(&self) -> Result<(), String> {
        let alpha_ok = self.alpha_us.is_finite() && self.alpha_us >= 0.0;
        let bandwidth_ok = self.bandwidth_gbps.is_finite() && self.bandwidth_gbps > 0.0;
        if alpha_ok && bandwidth_ok {
            Ok(())
        } else {
            Err("alpha must be finite and >= 0 and bandwidth finite and > 0".to_string())
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
/// per-tier bandwidths, describe the system as a `[[topologies]]` family
/// entry instead.
///
/// # Errors
/// Returns a message for unknown families, malformed dimensions, or
/// non-positive ratio values.
pub fn parse_topology(spec: &str, link: LinkSpec) -> Result<Topology, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let dims = |s: &str| -> Result<Vec<usize>, String> {
        s.split('x')
            .map(|d| {
                d.parse::<usize>()
                    .map_err(|e| format!("bad dimension '{d}': {e}"))
            })
            .collect()
    };
    let topo = match kind {
        "ring" => Topology::ring(
            rest.parse().map_err(|e| format!("bad ring size: {e}"))?,
            link,
            RingOrientation::Bidirectional,
        ),
        "ring-uni" => Topology::ring(
            rest.parse().map_err(|e| format!("bad ring size: {e}"))?,
            link,
            RingOrientation::Unidirectional,
        ),
        "fc" => {
            Topology::fully_connected(rest.parse().map_err(|e| format!("bad fc size: {e}"))?, link)
        }
        "mesh" => {
            let d = dims(rest)?;
            if d.len() != 2 {
                return Err("mesh needs RxC".into());
            }
            Topology::mesh_2d(d[0], d[1], link)
        }
        "torus" => {
            let d = dims(rest)?;
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
            Topology::hypercube_3d(d[0], d[1], d[2], link)
        }
        "switch" => {
            let (n, degree) = match rest.split_once(":d") {
                Some((n, d)) => (
                    n.parse().map_err(|e| format!("bad switch size: {e}"))?,
                    d.parse().map_err(|e| format!("bad degree: {e}"))?,
                ),
                None => (
                    rest.parse().map_err(|e| format!("bad switch size: {e}"))?,
                    1,
                ),
            };
            Topology::switch(n, link, degree)
        }
        "switch2d" => {
            let (dim_str, ratio_str) = split_ratio_suffix(rest);
            let d = dims(dim_str)?;
            if d.len() != 2 {
                return Err("switch2d needs RxC[:RATIO]".into());
            }
            let r = match ratio_str {
                Some(s) => {
                    let r = ratios(s)?;
                    if r.len() != 1 {
                        return Err("switch2d bandwidth suffix needs one ratio".into());
                    }
                    r[0]
                }
                None => 1.0,
            };
            Topology::switch_2d(
                d[0],
                d[1],
                link.alpha(),
                [link.bandwidth().as_gbps(), link.bandwidth().as_gbps() * r],
            )
        }
        "rfs" => {
            let (dim_str, ratio_str) = split_ratio_suffix(rest);
            let d = dims(dim_str)?;
            if d.len() != 3 {
                return Err("rfs needs RxFxS[:R1xR2xR3]".into());
            }
            let r = match ratio_str {
                Some(s) => {
                    let r = ratios(s)?;
                    if r.len() != 3 {
                        return Err("rfs bandwidth suffix needs three ratios (R1xR2xR3)".into());
                    }
                    [r[0], r[1], r[2]]
                }
                None => [4.0, 2.0, 1.0],
            };
            Topology::rfs_3d(
                d[0],
                d[1],
                d[2],
                link.alpha(),
                [
                    link.bandwidth().as_gbps() * r[0],
                    link.bandwidth().as_gbps() * r[1],
                    link.bandwidth().as_gbps() * r[2],
                ],
            )
        }
        "dragonfly" => {
            let (dim_str, ratio_str) = split_ratio_suffix(rest);
            let d = dims(dim_str)?;
            if d.len() != 2 {
                return Err("dragonfly needs GROUPSxPER_GROUP[:RATIO]".into());
            }
            let r = match ratio_str {
                Some(s) => {
                    let r = ratios(s)?;
                    if r.len() != 1 {
                        return Err("dragonfly bandwidth suffix needs one global ratio".into());
                    }
                    r[0]
                }
                None => 0.5,
            };
            let global = LinkSpec::new(
                link.alpha(),
                Bandwidth::gbps(link.bandwidth().as_gbps() * r),
            );
            Topology::dragonfly(d[0], d[1], link, global)
        }
        "dgx1" => Topology::dgx1(link),
        other => return Err(format!("unknown topology kind '{other}'")),
    };
    topo.map_err(|e| e.to_string())
}

/// Splits an optional `:`-separated bandwidth-ratio suffix off a
/// heterogeneous topology's dimension string.
fn split_ratio_suffix(rest: &str) -> (&str, Option<&str>) {
    match rest.split_once(':') {
        Some((dims, ratios)) => (dims, Some(ratios)),
        None => (rest, None),
    }
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
}
