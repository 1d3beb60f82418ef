//! Allocation budget of the serving path, counted by a global allocator.
//!
//! The pointer-fingerprint unit tests only see buffers that are *kept*;
//! a transient `Vec` collected and dropped inside one step leaves no trace
//! there. This binary counts every allocation the calling thread makes, so
//! it pins the two promises the serving docs make:
//!
//! * after warm-up, one step (`step_with_parts`, and the adaptive step
//!   behind `TauwEngine::step_adaptive`) allocates nothing, on every taQIM
//!   backend;
//! * an engine wave over existing streams allocates a fixed number of
//!   times, whatever the number of streams.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tauw_suite::core::adaptive::AdaptiveConfig;
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::calibration::{CalibrationOptions, ServingScratch};
use tauw_suite::core::conformal::ConformalOptions;
use tauw_suite::core::engine::StreamId;
use tauw_suite::core::tauw::{BackendSpec, TauwBuilder, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;

/// Forwards to [`System`] and counts `alloc`, `alloc_zeroed` and
/// `realloc` calls of the calling thread, so tests running in parallel do
/// not see each other's allocations.
struct CountingAlloc;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    // `try_with` fails only while a thread is torn down, which is never
    // inside a counted region.
    let _ = COUNT.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    let out = f();
    (out, COUNT.with(Cell::get) - before)
}

/// The miniature one-QF world of the engine unit tests.
fn make_series(n: usize, seed: u64, steps: usize) -> Vec<TrainingSeries> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let q = next();
            let bias = if next() < 0.5 { 1.3 } else { 0.5 };
            let steps = (0..steps)
                .map(|_| TrainingStep {
                    quality_factors: vec![q],
                    outcome: if next() < (q * bias).min(0.95) { 3 } else { 7 },
                })
                .collect();
            TrainingSeries {
                true_outcome: 7,
                steps,
            }
        })
        .collect()
}

fn fitted(backend: BackendSpec) -> TimeseriesAwareWrapper {
    let mut wb = WrapperBuilder::new();
    wb.max_depth(3).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb).backend(backend);
    builder
        .fit(
            vec!["q".into()],
            &make_series(300, 1, 10),
            &make_series(300, 2, 10),
        )
        .expect("allocation fixture fits")
}

fn backends() -> [(&'static str, BackendSpec); 3] {
    [
        ("tree", BackendSpec::Tree),
        (
            "forest",
            BackendSpec::Forest {
                n_trees: 4,
                seed: 0xF0E57,
            },
        ),
        (
            "conformal",
            BackendSpec::Conformal(ConformalOptions::default()),
        ),
    ]
}

/// Step `i` of a fixed traffic pattern over both outcomes and the whole
/// quality-factor range.
fn traffic(i: usize) -> ([f64; 1], u32, bool) {
    let q = (i % 17) as f64 / 16.0;
    let failed = i % 3 == 0;
    ([q], if failed { 3 } else { 7 }, failed)
}

#[test]
fn warmed_serving_steps_allocate_nothing_on_every_backend() {
    let config = AdaptiveConfig {
        window: 8,
        min_observations: 2,
        ..Default::default()
    };
    for (name, backend) in backends() {
        let tauw = fitted(backend);

        // The per-step core against caller-owned state.
        let mut buffer = TimeseriesBuffer::bounded(8);
        let mut scratch = ServingScratch::new();
        for i in 0..32 {
            let (q, outcome, _) = traffic(i);
            tauw.step_with_parts(&mut buffer, &mut scratch, &q, outcome)
                .unwrap();
        }
        let (_, n) = allocations(|| {
            for i in 32..544 {
                let (q, outcome, _) = traffic(i);
                tauw.step_with_parts(&mut buffer, &mut scratch, &q, outcome)
                    .unwrap();
            }
        });
        assert_eq!(n, 0, "{name}: step_with_parts allocated {n} times");

        // The engine's single-step paths: the adaptive one runs
        // `adaptive_step_with_parts` (one taQIM lookup for the bound and
        // its route support) on the engine's persistent scratch.
        let mut engine = tauw.clone().into_engine();
        engine.buffer_capacity(8);
        engine.enable_adaptation(config).unwrap();
        for i in 0..32 {
            let (q, outcome, failed) = traffic(i);
            engine.step(StreamId(1), &q, outcome).unwrap();
            engine
                .step_adaptive(StreamId(2), &q, outcome, failed)
                .unwrap();
        }
        let (_, n) = allocations(|| {
            for i in 32..544 {
                let (q, outcome, failed) = traffic(i);
                engine.step(StreamId(1), &q, outcome).unwrap();
                engine
                    .step_adaptive(StreamId(2), &q, outcome, failed)
                    .unwrap();
            }
        });
        assert_eq!(n, 0, "{name}: engine single steps allocated {n} times");
    }
}

/// Allocations of one warmed `threads(1)` wave over `n_streams` existing
/// streams (plain and adaptive).
fn wave_allocations(tauw: &TimeseriesAwareWrapper, n_streams: u64) -> (u64, u64) {
    let mut engine = tauw.clone().into_engine();
    engine.threads(1).buffer_capacity(8);
    engine.enable_adaptation(AdaptiveConfig::default()).unwrap();
    let qfs: Vec<[f64; 1]> = (0..n_streams as usize).map(|s| traffic(s).0).collect();
    let plain: Vec<(StreamId, &[f64], u32)> = (0..n_streams)
        .map(|s| (StreamId(s * 7 + 3), qfs[s as usize].as_slice(), 7))
        .collect();
    let adaptive: Vec<_> = (0..n_streams)
        .map(|s| {
            tauw_suite::core::engine::AdaptiveStreamStep::new(
                StreamId(s * 7 + 3),
                qfs[s as usize].to_vec(),
                3,
                s % 2 == 0,
            )
        })
        .collect();
    for _ in 0..12 {
        engine.step_many_borrowed(&plain).unwrap();
        engine.step_many_adaptive(&adaptive).unwrap();
    }
    let (_, plain_n) = allocations(|| engine.step_many_borrowed(&plain).unwrap());
    let (_, adaptive_n) = allocations(|| engine.step_many_adaptive(&adaptive).unwrap());
    (plain_n, adaptive_n)
}

#[test]
fn engine_wave_allocations_do_not_grow_with_the_stream_count() {
    let tauw = fitted(BackendSpec::Tree);
    let small = wave_allocations(&tauw, 16);
    let large = wave_allocations(&tauw, 4096);
    assert_eq!(
        small, large,
        "wave allocations (plain, adaptive) at 16 vs 4 096 streams"
    );
}
