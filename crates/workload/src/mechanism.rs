//! The unified communication-mechanism vocabulary.
//!
//! Every evaluation layer in the repo — the scenario engine's `algo`
//! axis, the CLI's `--algo` flag, and [`crate::TrainingEvaluator`] —
//! answers the same question: *how is a collective executed?* A
//! [`Mechanism`] is that answer as one serializable value: a baseline
//! generator (with its paper `name:N` parameters), a TACOS synthesis
//! (with its full [`SynthesizerConfig`] plus an optional chunking-factor
//! override), or the theoretical ideal bound.
//!
//! The canonical serialization is the algorithm spec string used in
//! scenario files ([`Mechanism::parse`]): `ring`, `themis:64`,
//! `multitree`, `ideal`, `tacos`, `tacos:4`, and the per-variant
//! `synth.*` override form `tacos:attempts=8,prefer_cheap_links=false`.

use tacos_baselines::{BaselineKind, TacclConfig};
use tacos_core::SynthesizerConfig;

/// A TACOS synthesis as a mechanism: the full synthesizer configuration
/// plus an optional chunking-factor override for the collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthMechanism {
    /// The synthesizer configuration (seed, attempts, prefer-cheap-links).
    pub config: SynthesizerConfig,
    /// Chunking-factor override for this variant only (`tacos:N` /
    /// `tacos:chunks=N`); `None` uses the caller's chunking axis.
    pub chunks: Option<usize>,
}

/// How a collective is executed: the evaluation layer's shared
/// vocabulary (scenario `algo` axis, CLI `--algo`, training evaluation).
#[derive(Debug, Clone, PartialEq)]
pub enum Mechanism {
    /// One of the baseline algorithm generators.
    Baseline(BaselineKind),
    /// A TACOS synthesis under a concrete [`SynthesizerConfig`].
    Tacos(SynthMechanism),
    /// The theoretical ideal bound: no algorithm is generated or
    /// simulated; times come from [`tacos_baselines::IdealBound`].
    Ideal,
}

impl Mechanism {
    /// Display name for tables and reports (the algorithm family, without
    /// parameters).
    pub fn name(&self) -> &'static str {
        match self {
            Mechanism::Baseline(kind) => kind.name(),
            Mechanism::Tacos(_) => "tacos",
            Mechanism::Ideal => "ideal",
        }
    }

    /// Parses an algorithm spec string into a mechanism.
    ///
    /// `base` supplies the synthesizer configuration that `tacos`
    /// variants start from (the scenario engine builds it from the
    /// point's `seed` / `attempts` / `synth.prefer_cheap_links` axis
    /// values) and the seed consumed by randomized baselines. Accepted
    /// forms:
    ///
    /// * `ideal` — the theoretical bound;
    /// * `tacos` — synthesis under `base` unchanged;
    /// * `tacos:N` — synthesis with the chunking factor overridden to
    ///   `N` (the paper's "TACOS-N" chunked variants);
    /// * `tacos:key=value,...` — per-variant `synth.*` overrides on top
    ///   of `base`: `chunks`, `attempts`, `seed`, `prefer_cheap_links`
    ///   (e.g. `tacos:attempts=64`, `tacos:chunks=4,seed=7`);
    /// * any [`parse_baseline`] spec (`ring`, `themis:64`, `multitree`,
    ///   `taccl:5000`, ...).
    ///
    /// # Errors
    /// Returns a message for unknown algorithms, malformed parameters,
    /// or unknown `synth.*` override keys.
    pub fn parse(spec: &str, base: &SynthesizerConfig) -> Result<Mechanism, String> {
        match spec {
            "ideal" => return Ok(Mechanism::Ideal),
            "tacos" => {
                return Ok(Mechanism::Tacos(SynthMechanism {
                    config: base.clone(),
                    chunks: None,
                }))
            }
            _ => {}
        }
        if let Some(param) = spec.strip_prefix("tacos:") {
            return parse_tacos_variant(param, base).map(Mechanism::Tacos);
        }
        parse_baseline(spec, base.seed()).map(Mechanism::Baseline)
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses the parameter part of a `tacos:...` variant: either a bare
/// chunking factor or comma-separated `key=value` overrides.
fn parse_tacos_variant(param: &str, base: &SynthesizerConfig) -> Result<SynthMechanism, String> {
    let mut mechanism = SynthMechanism {
        config: base.clone(),
        chunks: None,
    };
    if !param.contains('=') {
        // Legacy `tacos:N`: a bare chunking-factor override.
        let chunks: usize = param
            .parse()
            .map_err(|e| format!("bad chunking factor '{param}': {e}"))?;
        if chunks == 0 {
            return Err("chunking factor must be >= 1".into());
        }
        mechanism.chunks = Some(chunks);
        return Ok(mechanism);
    }
    for pair in param.split(',') {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("tacos override '{pair}' is not key=value"))?;
        let (key, value) = (key.trim(), value.trim());
        let positive = |what: &str| -> Result<usize, String> {
            let v: usize = value
                .parse()
                .map_err(|e| format!("bad {what} '{value}': {e}"))?;
            if v == 0 {
                return Err(format!("{what} must be >= 1"));
            }
            Ok(v)
        };
        match key {
            "chunks" => mechanism.chunks = Some(positive("chunking factor")?),
            "attempts" => {
                mechanism.config = mechanism
                    .config
                    .clone()
                    .with_attempts(positive("attempts")?);
            }
            "seed" => {
                let seed: u64 = value
                    .parse()
                    .map_err(|e| format!("bad seed '{value}': {e}"))?;
                mechanism.config = mechanism.config.clone().with_seed(seed);
            }
            "prefer_cheap_links" => {
                let on = match value {
                    "true" => true,
                    "false" => false,
                    other => return Err(format!("bad prefer_cheap_links '{other}' (true|false)")),
                };
                mechanism.config = mechanism.config.clone().with_prefer_cheap_links(on);
            }
            other => {
                return Err(format!(
                    "unknown tacos override '{other}' (expected one of: chunks, \
                     attempts, seed, prefer_cheap_links)"
                ))
            }
        }
    }
    Ok(mechanism)
}

/// Parses a baseline algorithm name into its [`BaselineKind`].
///
/// Parameterized baselines accept the paper's `name-N` variants as a
/// `name:N` suffix: `themis:64` / `blueconnect:8` (chunk groups, default
/// 4), `dbt:2` / `ccube:2` (pipeline depth, default 4), `ring-embedded:2`
/// (parallel rings, default 3), and `taccl:50000` (search-node budget,
/// default [`TacclConfig::default`]'s). `seed` is consumed by randomized
/// baselines (the TACCL-like search) and ignored by deterministic ones.
///
/// # Errors
/// Returns a message for unknown algorithm names, a parameter on a
/// parameterless baseline, or a malformed/zero parameter.
pub fn parse_baseline(s: &str, seed: u64) -> Result<BaselineKind, String> {
    let (name, param) = match s.split_once(':') {
        Some((name, param)) => (name, Some(param)),
        None => (s, None),
    };
    let num = |what: &str, default: usize| -> Result<usize, String> {
        match param {
            None => Ok(default),
            Some(p) => {
                let v: usize = p.parse().map_err(|e| format!("bad {what} '{p}': {e}"))?;
                if v == 0 {
                    return Err(format!("{what} must be >= 1"));
                }
                Ok(v)
            }
        }
    };
    let fixed = |kind: BaselineKind| -> Result<BaselineKind, String> {
        match param {
            None => Ok(kind),
            Some(p) => Err(format!("algorithm '{name}' takes no ':{p}' parameter")),
        }
    };
    match name {
        "ring" => fixed(BaselineKind::Ring),
        "ring-uni" => fixed(BaselineKind::RingUnidirectional),
        "ring-embedded" => Ok(BaselineKind::RingEmbedded {
            max_rings: num("max rings", 3)?,
        }),
        "direct" => fixed(BaselineKind::Direct),
        "rhd" => fixed(BaselineKind::Rhd),
        "dbt" => Ok(BaselineKind::Dbt {
            pipeline: num("pipeline depth", 4)?,
        }),
        "blueconnect" => Ok(BaselineKind::BlueConnect {
            chunks: num("chunk groups", 4)?,
        }),
        "themis" => Ok(BaselineKind::Themis {
            chunks: num("chunk groups", 4)?,
        }),
        "multitree" => fixed(BaselineKind::MultiTree),
        "ccube" => Ok(BaselineKind::CCube {
            pipeline: num("pipeline depth", 4)?,
        }),
        "taccl" => {
            let defaults = TacclConfig::default();
            Ok(BaselineKind::TacclLike(TacclConfig {
                seed,
                node_budget: num("node budget", defaults.node_budget as usize)? as u64,
                ..defaults
            }))
        }
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SynthesizerConfig {
        SynthesizerConfig::default().with_seed(42).with_attempts(8)
    }

    #[test]
    fn parses_the_three_mechanism_families() {
        assert_eq!(
            Mechanism::parse("ideal", &base()).unwrap(),
            Mechanism::Ideal
        );
        assert!(matches!(
            Mechanism::parse("multitree", &base()).unwrap(),
            Mechanism::Baseline(BaselineKind::MultiTree)
        ));
        let tacos = Mechanism::parse("tacos", &base()).unwrap();
        assert_eq!(
            tacos,
            Mechanism::Tacos(SynthMechanism {
                config: base(),
                chunks: None,
            })
        );
        assert_eq!(tacos.name(), "tacos");
    }

    #[test]
    fn bare_number_and_chunks_override_agree() {
        let short = Mechanism::parse("tacos:4", &base()).unwrap();
        let long = Mechanism::parse("tacos:chunks=4", &base()).unwrap();
        assert_eq!(short, long);
        match short {
            Mechanism::Tacos(m) => {
                assert_eq!(m.chunks, Some(4));
                assert_eq!(m.config, base());
            }
            other => panic!("expected tacos, got {other:?}"),
        }
    }

    #[test]
    fn synth_overrides_layer_on_the_base_config() {
        let m = Mechanism::parse(
            "tacos:attempts=64,seed=7,prefer_cheap_links=false,chunks=16",
            &base(),
        )
        .unwrap();
        match m {
            Mechanism::Tacos(m) => {
                assert_eq!(m.chunks, Some(16));
                assert_eq!(m.config.attempts(), 64);
                assert_eq!(m.config.seed(), 7);
                assert!(!m.config.prefer_cheap_links());
                assert!(!m.config.reference_matching());
            }
            other => panic!("expected tacos, got {other:?}"),
        }
    }

    #[test]
    fn malformed_variants_are_rejected() {
        for bad in [
            "tacos:0",
            "tacos:attempts=0",
            "tacos:chunks=x",
            "tacos:frobnicate=1",
            "tacos:seed=",
            "magic",
        ] {
            assert!(Mechanism::parse(bad, &base()).is_err(), "'{bad}' parsed");
        }
        // The reference matcher is a library oracle, not a mechanism key.
        let err = Mechanism::parse("tacos:reference_matching=true", &base()).unwrap_err();
        assert!(
            err.starts_with("unknown tacos override 'reference_matching'"),
            "{err}"
        );
    }

    #[test]
    fn baselines_keep_their_paper_parameters() {
        assert!(matches!(
            parse_baseline("themis:64", 0).unwrap(),
            BaselineKind::Themis { chunks: 64 }
        ));
        assert!(matches!(
            parse_baseline("ccube:2", 0).unwrap(),
            BaselineKind::CCube { pipeline: 2 }
        ));
        match parse_baseline("taccl:2000", 7).unwrap() {
            BaselineKind::TacclLike(c) => {
                assert_eq!(c.node_budget, 2000);
                assert_eq!(c.seed, 7);
            }
            other => panic!("expected taccl, got {other:?}"),
        }
        assert!(parse_baseline("ring:2", 0).is_err());
        assert!(parse_baseline("multitree:2", 0).is_err());
    }
}
