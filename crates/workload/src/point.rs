//! One request point: the fields of a single synthesize request, as the
//! one-shot CLI's flags and `tacos serve`'s request lines spell them,
//! and the one step that resolves them into what the evaluation
//! pipeline takes.

use std::hash::{Hash, Hasher};

use tacos_collective::{parse_pattern, CollectivePattern};
use tacos_core::SynthesizerConfig;
use tacos_topology::{parse_size, parse_topology, ByteSize, LinkAxis, Topology};

use crate::mechanism::Mechanism;

/// The fields of a request that decide *which* algorithm answers it —
/// its cache key, or its ideal time — as opposed to how the answer is
/// delivered. Two requests with equal points resolve to the same key,
/// which is what lets the daemon resolve each point once and look
/// repeats up by it.
///
/// Equality and hashing compare the link's two floats by bit pattern, so
/// the relation is total (`NaN == NaN`, `0.0 != -0.0`): a point is the
/// request as spelled, not as interpreted.
#[derive(Debug, Clone)]
pub struct Point {
    /// Topology spec (`mesh:3x3`, `ring:8`, ... — the scenario
    /// vocabulary). Empty by default.
    pub topology: String,
    /// Collective pattern name. Defaults to `all-reduce`.
    pub collective: String,
    /// Collective size label (`64MB`, `1.5GB`, ...). Defaults to `64MB`.
    pub size: String,
    /// Mechanism spec for [`Mechanism::parse`]. Defaults to `tacos`.
    pub mechanism: String,
    /// Chunking factor per NPU. Defaults to 1.
    pub chunks: usize,
    /// Link parameters for homogeneous topology constructors.
    pub link: LinkAxis,
    /// Synthesizer seed override.
    pub seed: Option<u64>,
    /// Best-of-N attempts override.
    pub attempts: Option<usize>,
    /// Low-cost-link prioritization override.
    pub prefer_cheap_links: Option<bool>,
}

impl Point {
    /// Every field as a value with derived `Eq` and `Hash`. The
    /// destructuring is exhaustive on purpose: a new field does not
    /// compile until it is compared and hashed here.
    fn identity(&self) -> impl Eq + Hash + '_ {
        let Point {
            topology,
            collective,
            size,
            mechanism,
            chunks,
            link: LinkAxis {
                alpha_us,
                bandwidth_gbps,
            },
            seed,
            attempts,
            prefer_cheap_links,
        } = self;
        (
            topology,
            collective,
            size,
            mechanism,
            chunks,
            alpha_us.to_bits(),
            bandwidth_gbps.to_bits(),
            seed,
            attempts,
            prefer_cheap_links,
        )
    }

    /// Checks the point and builds what it names — the fabric (with the
    /// point's link), the pattern over its NPUs, the size and the
    /// mechanism (with the synthesizer overrides composed in) — checking
    /// the counts, the link and then each in that order, so the first bad
    /// field is the one reported. The chunking factor is read off the
    /// point.
    ///
    /// # Errors
    /// Returns the reason for a zero chunk or attempt count, a link
    /// [`LinkAxis::check`] refuses (prefixed `link {link}: `), or a spec
    /// the topology, pattern, size or mechanism parser refuses.
    pub fn resolve(&self) -> Result<(Topology, CollectivePattern, ByteSize, Mechanism), String> {
        if self.chunks == 0 {
            return Err("'chunks' must be >= 1".into());
        }
        if self.attempts == Some(0) {
            return Err("'attempts' must be >= 1".into());
        }
        self.link
            .check()
            .map_err(|e| format!("link {}: {e}", self.link))?;
        let topo = parse_topology(&self.topology, self.link.to_spec())?;
        let pattern = parse_pattern(&self.collective, topo.num_npus())?;
        let size = parse_size(&self.size)?;
        let mut config = SynthesizerConfig::default();
        if let Some(seed) = self.seed {
            config = config.with_seed(seed);
        }
        if let Some(attempts) = self.attempts {
            config = config.with_attempts(attempts);
        }
        if let Some(on) = self.prefer_cheap_links {
            config = config.with_prefer_cheap_links(on);
        }
        let mechanism = Mechanism::parse(&self.mechanism, &config)?;
        Ok((topo, pattern, size, mechanism))
    }
}

impl Default for Point {
    fn default() -> Self {
        Point {
            topology: String::new(),
            collective: "all-reduce".into(),
            size: "64MB".into(),
            mechanism: "tacos".into(),
            chunks: 1,
            link: LinkAxis::default_paper(),
            seed: None,
            attempts: None,
            prefer_cheap_links: None,
        }
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for Point {}

impl Hash for Point {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(edit: impl FnOnce(&mut Point)) -> Point {
        let mut point = Point {
            topology: "ring:4".into(),
            ..Point::default()
        };
        edit(&mut point);
        point
    }

    #[test]
    fn the_first_bad_field_is_the_one_reported() {
        for (point, want) in [
            (ring(|p| p.chunks = 0), "'chunks' must be >= 1"),
            (ring(|p| p.attempts = Some(0)), "'attempts' must be >= 1"),
            (
                ring(|p| {
                    p.chunks = 0;
                    p.link.alpha_us = -1.0;
                }),
                "'chunks' must be >= 1",
            ),
            (
                ring(|p| p.link.alpha_us = -1.0),
                "link a-1us-50GBps: alpha must be finite and >= 0 and bandwidth finite and > 0",
            ),
            (ring(|p| p.topology = "blob:3".into()), "blob"),
            (ring(|p| p.collective = "all-sort".into()), "all-sort"),
            (ring(|p| p.size = "64XB".into()), "XB"),
            (
                ring(|p| p.mechanism = "magic".into()),
                "unknown algorithm 'magic'",
            ),
        ] {
            let err = point.resolve().unwrap_err();
            assert!(err.contains(want), "{point:?}: {err}");
        }
    }

    #[test]
    fn overrides_compose_into_the_synthesizer_config() {
        let (topo, pattern, size, mechanism) = ring(|p| {
            p.seed = Some(7);
            p.attempts = Some(3);
            p.prefer_cheap_links = Some(false);
        })
        .resolve()
        .unwrap();
        let want = SynthesizerConfig::default()
            .with_seed(7)
            .with_attempts(3)
            .with_prefer_cheap_links(false);
        assert_eq!(mechanism, Mechanism::parse("tacos", &want).unwrap());
        assert_eq!(topo.num_npus(), 4);
        assert_eq!(size, ByteSize::mb(64));
        assert_eq!(pattern, CollectivePattern::AllReduce);
        // Unset overrides leave the synthesizer's own defaults.
        assert_eq!(
            ring(|_| {}).resolve().unwrap().3,
            Mechanism::parse("tacos", &SynthesizerConfig::default()).unwrap()
        );
    }
}
