//! Best-of-N parallel synthesis.
//!
//! The paper's large syntheses run with 64 parallel threads (§VI-C):
//! because matching is randomized, independent seeds explore different
//! algorithms, and the best (smallest collective time) is kept. Attempts
//! are distributed over `std::thread::scope` workers.
//!
//! Only the winner's schedule is ever kept, so attempts are *scored*
//! with transfer recording off: an attempt's collective time, rounds and
//! match count do not depend on recording, and an unrecorded attempt
//! skips the transfer list and the provider table. When the caller
//! records, the winning seed is then synthesized once more with
//! recording on. A synthesis is deterministic per seed, so that replay
//! is the schedule the winning attempt would have recorded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

use tacos_collective::Collective;
use tacos_topology::Topology;

use crate::error::SynthesisError;
use crate::scratch::SynthesisScratch;
use crate::synthesis::{SynthesisResult, Synthesizer};

/// Runs `synth.config().attempts()` independent seeded syntheses and
/// returns the one with the smallest collective time.
///
/// Seeds are `seed, seed+1, …` so results are reproducible regardless of
/// thread interleaving. The calling thread works through attempts too,
/// on `scratch`, and replays the winner on it when recording.
///
/// # Errors
/// Returns the first synthesis error encountered (all seeds fail the same
/// way: errors depend only on topology/collective shape).
pub(crate) fn synthesize_best_of(
    synth: &Synthesizer,
    topo: &Topology,
    collective: &Collective,
    scratch: &mut SynthesisScratch,
) -> Result<SynthesisResult, SynthesisError> {
    let attempts = synth.config().attempts();
    let base_seed = synth.config().seed();
    let record = synth.config().record_transfers();
    let scorer = Synthesizer::new(synth.config().clone().with_record_transfers(false));
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(attempts);
    let next = AtomicUsize::new(0);
    // Keyed by (collective_time, attempt_index): ties on time are broken
    // toward the lower attempt index so the winner — and therefore the
    // returned *schedule* — does not depend on thread interleaving.
    let best: Mutex<Option<(usize, SynthesisResult)>> = Mutex::new(None);
    let error: Mutex<Option<SynthesisError>> = Mutex::new(None);

    // Each worker reuses one scratch across every attempt it claims: the
    // matching matrix, TEN, and event buffers only depend on the problem
    // shape, which is fixed here.
    let work = |scratch: &mut SynthesisScratch| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= attempts {
            break;
        }
        let seed = base_seed.wrapping_add(i as u64);
        match scorer.synthesize_seeded_with(topo, collective, seed, scratch) {
            Ok(result) => {
                let mut guard = best.lock().unwrap_or_else(PoisonError::into_inner);
                let better = guard.as_ref().is_none_or(|(best_i, b)| {
                    (result.collective_time(), i) < (b.collective_time(), *best_i)
                });
                if better {
                    *guard = Some((i, result));
                }
            }
            Err(e) => {
                let mut guard = error.lock().unwrap_or_else(PoisonError::into_inner);
                guard.get_or_insert(e);
                break;
            }
        }
    };
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| work(&mut SynthesisScratch::new()));
        }
        work(scratch);
    });

    if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let winner = best.into_inner().unwrap_or_else(PoisonError::into_inner);
    match winner {
        Some((_, scored)) if record => {
            synth.synthesize_seeded_with(topo, collective, scored.seed(), scratch)
        }
        Some((_, scored)) => Ok(scored),
        // `attempts` is clamped to >= 1 by SynthesizerConfig, and every
        // attempt either records a result or records an error (handled
        // above), so an empty `best` cannot be reached from safe callers.
        None => Err(SynthesisError::Internal(
            "best-of-N synthesis produced neither a result nor an error".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthesizerConfig;
    use tacos_topology::{Bandwidth, ByteSize, LinkSpec, Time};

    fn mesh() -> Topology {
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        Topology::mesh_2d(3, 3, spec).unwrap()
    }

    #[test]
    fn best_of_is_no_worse_than_single() {
        let topo = mesh();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let single = Synthesizer::new(SynthesizerConfig::default().with_seed(100));
        let multi = Synthesizer::new(SynthesizerConfig::default().with_seed(100).with_attempts(8));
        let t1 = single.synthesize(&topo, &coll).unwrap().collective_time();
        let t8 = multi.synthesize(&topo, &coll).unwrap().collective_time();
        assert!(t8 <= t1, "best-of-8 ({t8}) worse than single ({t1})");
    }

    #[test]
    fn best_of_is_deterministic() {
        let topo = mesh();
        let coll = Collective::all_gather(9, ByteSize::mb(9)).unwrap();
        let synth = Synthesizer::new(SynthesizerConfig::default().with_seed(7).with_attempts(4));
        let a = synth.synthesize(&topo, &coll).unwrap();
        let b = synth.synthesize(&topo, &coll).unwrap();
        assert_eq!(a.collective_time(), b.collective_time());
        assert_eq!(a.seed(), b.seed());
        // Ties on collective time break toward the lower attempt index,
        // so even the schedule is interleaving-independent.
        assert_eq!(a.algorithm(), b.algorithm());
    }

    /// The replayed winner is the recorded synthesis of the winning seed,
    /// and an unrecorded search returns the scored attempt as it is.
    #[test]
    fn the_winner_is_replayed_only_when_recording() {
        let topo = mesh();
        let coll = Collective::all_reduce(9, ByteSize::mb(9)).unwrap();
        let config = SynthesizerConfig::default().with_seed(3).with_attempts(5);
        let recorded = Synthesizer::new(config.clone())
            .synthesize(&topo, &coll)
            .unwrap();
        let direct = Synthesizer::new(config.clone())
            .synthesize_seeded(&topo, &coll, recorded.seed())
            .unwrap();
        assert_eq!(recorded.algorithm(), direct.algorithm());
        assert!(!recorded.algorithm().is_empty());
        let scored = Synthesizer::new(config.with_record_transfers(false))
            .synthesize(&topo, &coll)
            .unwrap();
        assert_eq!(scored.seed(), recorded.seed());
        assert_eq!(scored.collective_time(), recorded.collective_time());
        assert_eq!(scored.num_transfers(), recorded.num_transfers());
        assert!(scored.algorithm().is_empty());
    }

    #[test]
    fn errors_propagate() {
        // Not strongly connected: 3 NPUs, one unreachable.
        let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
        let mut b = tacos_topology::TopologyBuilder::new("disc");
        b.npus(3);
        b.bidi_link(
            tacos_topology::NpuId::new(0),
            tacos_topology::NpuId::new(1),
            spec,
        );
        let topo = b.build().unwrap();
        let coll = Collective::all_gather(3, ByteSize::mb(3)).unwrap();
        let synth = Synthesizer::new(SynthesizerConfig::default().with_attempts(4));
        assert!(matches!(
            synth.synthesize(&topo, &coll),
            Err(SynthesisError::Stuck { .. })
        ));
    }
}
