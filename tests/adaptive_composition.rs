//! The adaptive step against its spelled-out public composition.
//!
//! The adaptive session, `TauwEngine::step_many_adaptive` and
//! `ShardedEngine::step_many_adaptive` all serve through one shared
//! routine, which routes the taQIM feature row once for both the served
//! bound and its calibration support. Comparing those entry points with
//! each other cannot catch a fault in that shared lookup, so this test
//! recomputes every step from the public pieces instead:
//! `step_with_buffer` → `adapted_bound` → `route_support` → `classify` →
//! `observe`, with the support also checked against the pointer-tree
//! oracle `QimBackend::route_support_reference`.

use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveState, DriftSignal};
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::calibration::{CalibrationOptions, QimBackend, RouteSupport};
use tauw_suite::core::conformal::ConformalOptions;
use tauw_suite::core::engine::{AdaptiveStreamStep, StreamId, TauwEngine};
use tauw_suite::core::sharded::ShardedEngine;
use tauw_suite::core::tauw::{BackendSpec, TauwBuilder, TauwStep, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::WrapperBuilder;

const STREAMS: usize = 12;
const STEPS: usize = 80;
/// Steps before the regime switch.
const SWITCH: usize = 30;
const TRUTH: u32 = 7;

/// One step of traffic: `(stream, q, outcome, failed)`.
type Step = (usize, [f64; 1], u32, bool);

/// Deterministic uniform draws in `[0, 1)` (LCG, high bits).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A one-QF world: the DDM misreads with probability rising in `q`.
fn make_series(n: usize, seed: u64, steps: usize) -> Vec<TrainingSeries> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| {
            let q = next();
            let bias = if next() < 0.5 { 1.3 } else { 0.5 };
            let steps = (0..steps)
                .map(|_| TrainingStep {
                    quality_factors: vec![q],
                    outcome: if next() < (q * bias).min(0.95) {
                        3
                    } else {
                        TRUTH
                    },
                })
                .collect();
            TrainingSeries {
                true_outcome: TRUTH,
                steps,
            }
        })
        .collect()
}

fn fitted(backend: BackendSpec) -> TimeseriesAwareWrapper {
    let mut wb = WrapperBuilder::new();
    wb.max_depth(4).calibration(CalibrationOptions {
        min_samples_per_leaf: 40,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb).backend(backend);
    builder
        .fit(
            vec!["q".into()],
            &make_series(400, 1, 10),
            &make_series(400, 2, 10),
        )
        .expect("composition fixture fits")
}

/// Regime-switch traffic in waves: wave `j` holds step `j` of every
/// stream. Before [`SWITCH`] outcomes
/// follow the fitted world; after it every other step is a misread, far
/// above what the calibrated bounds promise for low-`q` streams.
fn traffic() -> Vec<Vec<Step>> {
    let mut next = lcg(99);
    let qs: Vec<f64> = (0..STREAMS).map(|_| next()).collect();
    (0..STEPS)
        .map(|j| {
            qs.iter()
                .enumerate()
                .map(|(s, &q)| {
                    let failed = if j < SWITCH {
                        next() < q * 0.9
                    } else {
                        j % 2 == 0 || next() < q
                    };
                    (s, [q], if failed { 3 } else { TRUTH }, failed)
                })
                .collect()
        })
        .collect()
}

/// The adaptive step spelled out from public calls, one stream at a time.
fn composed(
    tauw: &TimeseriesAwareWrapper,
    config: AdaptiveConfig,
    waves: &[Vec<Step>],
) -> Vec<Vec<TauwStep>> {
    let mut buffers = vec![TimeseriesBuffer::new(); STREAMS];
    let mut states = vec![AdaptiveState::new(config).unwrap(); STREAMS];
    let mut out = vec![Vec::new(); STREAMS];
    for wave in waves {
        for &(s, q, outcome, failed) in wave {
            let mut step = tauw.step_with_buffer(&mut buffers[s], &q, outcome).unwrap();
            step.adapted_uncertainty = states[s].adapted_bound(step.uncertainty);
            let support = tauw.route_support(&q, &step.taqf).unwrap();
            let mut row = q.to_vec();
            row.extend(tauw.taqf_set().select(&step.taqf));
            assert_eq!(
                support,
                QimBackend::route_support_reference(tauw.taqim(), &row).unwrap(),
                "route_support disagrees with the pointer-tree oracle"
            );
            step.drift = states[s].classify(support);
            states[s].observe(step.adapted_uncertainty, failed);
            out[s].push(step);
        }
    }
    out
}

fn assert_bitwise(name: &str, path: &str, want: &[Vec<TauwStep>], got: &[Vec<TauwStep>]) {
    assert_eq!(want.len(), got.len());
    for (s, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.len(), g.len(), "{name} {path}: stream {s} length");
        for (k, (w, g)) in w.iter().zip(g).enumerate() {
            let at = format!("{name} {path}: stream {s} step {k}");
            assert_eq!(w.uncertainty.to_bits(), g.uncertainty.to_bits(), "{at}");
            assert_eq!(
                w.adapted_uncertainty.to_bits(),
                g.adapted_uncertainty.to_bits(),
                "{at}"
            );
            assert_eq!(w.drift, g.drift, "{at}");
            assert_eq!(w, g, "{at}");
        }
    }
}

/// Every calibration support the composition reads on this traffic.
fn supports(tauw: &TimeseriesAwareWrapper, waves: &[Vec<Step>]) -> Vec<u64> {
    let mut buffers = vec![TimeseriesBuffer::new(); STREAMS];
    let mut seen = Vec::new();
    for wave in waves {
        for &(s, q, outcome, _) in wave {
            let step = tauw.step_with_buffer(&mut buffers[s], &q, outcome).unwrap();
            if let RouteSupport::Samples(n) = tauw.route_support(&q, &step.taqf).unwrap() {
                seen.push(n);
            }
        }
    }
    seen.sort_unstable();
    seen
}

#[test]
fn adaptive_step_matches_its_public_composition_on_every_backend() {
    let waves = traffic();
    let backends = [
        ("tree", BackendSpec::Tree),
        (
            "forest",
            BackendSpec::Forest {
                n_trees: 6,
                seed: 0xF0E57,
            },
        ),
        (
            "conformal",
            BackendSpec::Conformal(ConformalOptions::default()),
        ),
    ];
    for (name, backend) in backends {
        let tauw = fitted(backend);
        // Put the thin-support threshold inside the supports this traffic
        // reaches, so both sides of the epistemic/aleatoric split occur.
        let seen = supports(&tauw, &waves);
        let thin_support = if seen.is_empty() {
            AdaptiveConfig::default().thin_support
        } else {
            seen[seen.len() / 2]
        };
        let config = AdaptiveConfig {
            window: 10,
            min_observations: 5,
            rate: 0.05,
            max_inflation_steps: 32,
            thin_support,
        };
        let want = composed(&tauw, config, &waves);

        // The support is consumed: the traffic drives each backend into
        // the drift signals its support figure selects.
        let drifts: Vec<DriftSignal> = want.iter().flatten().map(|s| s.drift).collect();
        if name == "conformal" {
            assert!(drifts.contains(&DriftSignal::SupportUnavailable), "{name}");
        } else {
            assert!(
                drifts.contains(&DriftSignal::Drifting { epistemic: true }),
                "{name}: no epistemic drift (thin_support {thin_support})"
            );
            assert!(
                drifts.contains(&DriftSignal::Noisy),
                "{name}: no aleatoric drift (thin_support {thin_support})"
            );
        }

        // One adaptive session per stream.
        let mut sessions: Vec<_> = (0..STREAMS)
            .map(|_| tauw.new_adaptive_session(config).unwrap())
            .collect();
        let mut got = vec![Vec::new(); STREAMS];
        for wave in &waves {
            for &(s, q, outcome, failed) in wave {
                got[s].push(sessions[s].step(&q, outcome, failed).unwrap());
            }
        }
        assert_bitwise(name, "session", &want, &got);
        // A wrong arity fails the adaptive step with the plain step's error.
        assert_eq!(
            sessions[0].step(&[0.1, 0.2], TRUTH, false).unwrap_err(),
            tauw.step_with_buffer(&mut TimeseriesBuffer::new(), &[0.1, 0.2], TRUTH)
                .unwrap_err(),
            "{name}"
        );

        // Both engines, one batched wave per step index.
        let batch = |wave: &[Step]| -> Vec<AdaptiveStreamStep> {
            wave.iter()
                .map(|&(s, q, outcome, failed)| {
                    AdaptiveStreamStep::new(StreamId(s as u64), q.to_vec(), outcome, failed)
                })
                .collect()
        };
        let mut engine = TauwEngine::new(tauw.clone());
        engine.threads(2);
        engine.enable_adaptation(config).unwrap();
        let mut sharded = ShardedEngine::new(tauw.clone(), 3);
        sharded.threads(2);
        sharded.enable_adaptation(config).unwrap();
        let mut from_engine = vec![Vec::new(); STREAMS];
        let mut from_sharded = vec![Vec::new(); STREAMS];
        for wave in &waves {
            let steps = batch(wave);
            for (&(s, ..), out) in wave.iter().zip(engine.step_many_adaptive(&steps).unwrap()) {
                from_engine[s].push(out);
            }
            for (&(s, ..), out) in wave.iter().zip(sharded.step_many_adaptive(&steps).unwrap()) {
                from_sharded[s].push(out);
            }
        }
        assert_bitwise(name, "TauwEngine", &want, &from_engine);
        assert_bitwise(name, "ShardedEngine", &want, &from_sharded);
    }
}
