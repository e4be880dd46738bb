//! Counting-allocator proof that the matching hot path is allocation-free.
//!
//! `run_round` is internal, so the assertion is phrased through the public
//! API: with transfer recording disabled and a warmed
//! [`SynthesisScratch`], a synthesis's heap-allocation count must not
//! depend on how many matching rounds it executes. Two All-Gathers on the
//! same unidirectional ring differ only in chunking factor — 4 vs 32
//! chunks per NPU, i.e. ~8x the rounds and probes — so equal allocation
//! counts mean the per-round / per-probe cost is exactly zero
//! allocations; only per-synthesis setup (pre/postcondition sets, the
//! result struct) touches the heap. A ring with three link costs gets the
//! same check, so the TEN's per-cost queues are covered too.
//!
//! The recording path gets the analogous bound: with recording enabled,
//! dependency lists live inline in each transfer (no per-transfer heap),
//! so allocations grow with the builder's amortized vec doublings —
//! logarithmic in transfer count — not with transfers or rounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tacos_collective::{Collective, CollectivePattern};
use tacos_core::{SynthesisScratch, Synthesizer, SynthesizerConfig};
use tacos_topology::{
    Bandwidth, ByteSize, LinkSpec, NpuId, RingOrientation, Time, Topology, TopologyBuilder,
};

thread_local! {
    // Per-thread, so allocations from other harness threads (libtest
    // spawns one per test and schedules them under load) can never leak
    // into a counted window. Const-initialized: reading it from inside
    // the allocator must not itself allocate.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn counting() -> bool {
    // `try_with` because threads allocate during TLS teardown, after
    // this key may already be destroyed.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

/// The counters are process-global, so the tests in this binary must not
/// interleave: each takes this lock for its whole body.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct CountingAllocator;

// SAFETY: pure pass-through to `System`, which upholds GlobalAlloc's
// contract; the added atomic counter bumps neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's ptr/layout pair, which the contract
    // guarantees came from a matching `alloc` on this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's ptr/layout/new_size to `System`
    // unchanged, preserving the realloc contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::SeqCst))
}

fn all_gather(n: usize, chunks_per_npu: usize) -> Collective {
    Collective::with_chunking(
        CollectivePattern::AllGather,
        n,
        chunks_per_npu,
        ByteSize::mb((n * chunks_per_npu) as u64),
    )
    .unwrap()
}

/// Synthesis allocation count is independent of the round count once the
/// scratch is warm: every per-round buffer is reused.
#[test]
fn run_round_makes_zero_per_round_allocations() {
    let _serial = SERIAL.lock().unwrap();
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::ring(8, spec, RingOrientation::Unidirectional).unwrap();
    assert_zero_per_round_allocations(&topo);
}

/// The same bound on a fabric with three link costs: the TEN's per-cost
/// arrival FIFOs and their head index are sized once per reset, and
/// cost-prioritized rounds sort in place.
#[test]
fn heterogeneous_rounds_make_zero_per_round_allocations() {
    let _serial = SERIAL.lock().unwrap();
    let tiers = [
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(200.0)),
        LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(100.0)),
        LinkSpec::new(Time::from_micros(1.0), Bandwidth::gbps(50.0)),
    ];
    let mut b = TopologyBuilder::new("tiered-ring");
    b.npus(8);
    for i in 0..8u32 {
        b.bidi_link(
            NpuId::new(i),
            NpuId::new((i + 1) % 8),
            tiers[i as usize % 3],
        );
    }
    let topo = b.build().unwrap();
    assert!(!topo.is_homogeneous());
    assert_zero_per_round_allocations(&topo);
}

fn assert_zero_per_round_allocations(topo: &Topology) {
    let synth = Synthesizer::new(SynthesizerConfig::default().with_record_transfers(false));
    let n = topo.num_npus();
    let measure = |chunks_per_npu: usize| -> (usize, u64) {
        let coll = all_gather(n, chunks_per_npu);
        let mut scratch = SynthesisScratch::new();
        // Warm the scratch: grows every buffer to this problem's shape.
        let warm = synth
            .synthesize_seeded_with(topo, &coll, 7, &mut scratch)
            .unwrap();
        let (result, allocs) = counted(|| {
            synth
                .synthesize_seeded_with(topo, &coll, 7, &mut scratch)
                .unwrap()
        });
        assert_eq!(result.collective_time(), warm.collective_time());
        assert!(result.rounds() > 1);
        (result.rounds(), allocs)
    };

    let (rounds_small, allocs_small) = measure(4);
    let (rounds_large, allocs_large) = measure(32);
    assert!(
        rounds_large >= rounds_small * 4,
        "expected the 32-chunk synthesis to run many more rounds \
         ({rounds_small} vs {rounds_large})"
    );
    assert_eq!(
        allocs_small, allocs_large,
        "allocation count must not scale with rounds: \
         {allocs_small} allocs over {rounds_small} rounds vs \
         {allocs_large} allocs over {rounds_large} rounds"
    );
}

/// With transfer recording enabled, the only heap traffic beyond
/// per-synthesis setup is the builder's amortized transfer-vec growth:
/// dependency lists are stored inline in the `Transfer`, so scaling the
/// same problem from ~224 to ~1792 recorded transfers (and ~8x the
/// rounds) must add far fewer allocations than it adds transfers. Before
/// the inline dep-list, every forwarded transfer allocated its one-entry
/// deps `Vec`, which this bound catches.
#[test]
fn recording_path_allocations_do_not_scale_with_transfers() {
    let _serial = SERIAL.lock().unwrap();
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::ring(8, spec, RingOrientation::Unidirectional).unwrap();
    let synth = Synthesizer::new(SynthesizerConfig::default()); // recording on

    let measure = |chunks_per_npu: usize| -> (u64, u64) {
        let coll = all_gather(8, chunks_per_npu);
        let mut scratch = SynthesisScratch::new();
        synth
            .synthesize_seeded_with(&topo, &coll, 7, &mut scratch)
            .unwrap();
        let (result, allocs) = counted(|| {
            synth
                .synthesize_seeded_with(&topo, &coll, 7, &mut scratch)
                .unwrap()
        });
        assert!(!result.algorithm().is_empty());
        (result.num_transfers(), allocs)
    };

    let (t_small, a_small) = measure(4);
    let (t_large, a_large) = measure(32);
    assert!(
        t_large >= t_small * 4,
        "expected the 32-chunk synthesis to record many more transfers \
         ({t_small} vs {t_large})"
    );
    let added_transfers = t_large - t_small;
    let added_allocs = a_large.saturating_sub(a_small);
    assert!(
        added_allocs < added_transfers / 8,
        "recording {added_transfers} extra transfers cost {added_allocs} \
         extra allocations — the per-transfer recording path is \
         allocating ({a_small} allocs @ {t_small} transfers, \
         {a_large} allocs @ {t_large} transfers)"
    );
}

/// Reusing a warm scratch also eliminates the per-attempt setup
/// allocations of the big buffers: a warm re-synthesis allocates strictly
/// less than a cold one.
#[test]
fn warm_scratch_allocates_less_than_cold() {
    let _serial = SERIAL.lock().unwrap();
    let spec = LinkSpec::new(Time::from_micros(0.5), Bandwidth::gbps(50.0));
    let topo = Topology::mesh_2d(3, 3, spec).unwrap();
    let coll = all_gather(9, 4);
    let synth = Synthesizer::new(SynthesizerConfig::default().with_record_transfers(false));

    let (_, cold) = counted(|| {
        synth.synthesize_seeded(&topo, &coll, 3).unwrap() // fresh scratch inside
    });
    let mut scratch = SynthesisScratch::new();
    synth
        .synthesize_seeded_with(&topo, &coll, 3, &mut scratch)
        .unwrap();
    let (_, warm) = counted(|| {
        synth
            .synthesize_seeded_with(&topo, &coll, 3, &mut scratch)
            .unwrap()
    });
    assert!(
        warm < cold,
        "warm synthesis ({warm} allocs) should allocate less than cold ({cold})"
    );
}
