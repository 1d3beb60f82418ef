//! Set-up layers: world generation, stateless fit, replay and taQIM fit,
//! each timed around its public call. The serving models are fixed; only
//! the traffic depends on the run's seed.

use crate::trace::{Clock, Span, Trace, SETUP};
use tauw_core::calibration::CalibrationOptions;
use tauw_core::tauw::{replay, BackendSpec, TauwBuilder, TimeseriesAwareWrapper};
use tauw_core::training::{flatten_stateless, TrainingSeries, TrainingStep};
use tauw_core::wrapper::WrapperBuilder;
use tauw_core::CoreError;
use tauw_experiments::convert::to_training_series;
use tauw_sim::{DatasetBuilder, QualityObservation, SimConfig};
use tauw_stats::bootstrap::SplitMix64;

/// World seed of the simulated traffic-sign world (the experiments'
/// default).
pub const TSR_WORLD_SEED: u64 = 42;

/// Seconds spent in each set-up layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// `sim.generate_s`: world generation.
    pub generate_s: f64,
    /// `dtree.stateless_fit_s`: `WrapperBuilder::fit`.
    pub stateless_fit_s: f64,
    /// `tauw.replay_s`: `replay` of the training and calibration series.
    pub replay_s: f64,
    /// `calibration.taqim_fit_s`: `TauwBuilder::fit_reusing_stateless`.
    pub taqim_fit_s: f64,
}

/// A fitted serving model plus what the workload replays.
#[derive(Debug, Clone)]
pub struct Model {
    /// The trained wrapper every engine and reference serves.
    pub wrapper: TimeseriesAwareWrapper,
    /// Test series the vehicle workload replays (empty for the fleets).
    pub test: Vec<TrainingSeries>,
    /// Set-up layer times.
    pub layers: SetupLayers,
}

/// Runs `f` inside a set-up span named `name`, returning its result and
/// duration in seconds.
pub fn timed<T>(
    trace: &mut Trace,
    clock: &Clock,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start_ns = clock.ns();
    let value = f();
    let end_ns = clock.ns();
    trace.push(Span {
        id: 0,
        parent: 0,
        wave: SETUP,
        name,
        start_ns,
        end_ns,
        calls: 1,
        allocs: 0,
    });
    (value, (end_ns - start_ns) as f64 * 1e-9)
}

/// The soak world: one quality factor, outcomes from `{3, 7}` (the recipe
/// of `tauw_bench::soak::soak_wrapper`).
fn soak_series(n: usize, seed: u64) -> Vec<TrainingSeries> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let q = rng.next_f64();
            let bias = if rng.next_f64() < 0.5 { 1.3 } else { 0.5 };
            let steps = (0..10)
                .map(|_| {
                    let failed = rng.next_f64() < (q * bias).min(0.95);
                    TrainingStep {
                        quality_factors: vec![q],
                        outcome: if failed { 3 } else { 7 },
                    }
                })
                .collect();
            TrainingSeries {
                true_outcome: 7,
                steps,
            }
        })
        .collect()
}

/// Fits the soak world's depth-3 wrapper with the given taQIM backend.
/// With [`BackendSpec::Tree`] this is exactly `soak_wrapper()`.
///
/// # Errors
///
/// Returns the fit's error.
pub fn soak_model(
    backend: BackendSpec,
    trace: &mut Trace,
    clock: &Clock,
) -> Result<Model, CoreError> {
    let ((train, calib), generate_s) = timed(trace, clock, "sim.generate", || {
        (soak_series(300, 0x50AC_0001), soak_series(300, 0x50AC_0002))
    });
    let mut wb = WrapperBuilder::new();
    wb.max_depth(3).calibration(CalibrationOptions {
        min_samples_per_leaf: 50,
        confidence: 0.99,
        ..Default::default()
    });
    fit(
        wb,
        backend,
        vec!["q".into()],
        &train,
        &calib,
        generate_s,
        Vec::new(),
        trace,
        clock,
    )
}

/// Builds the paper's simulated TSR world at `scale` with the public calls
/// `ExperimentContext::build` makes (depth-8 trees, all four taQFs).
///
/// # Errors
///
/// Returns the world configuration's or the fit's error.
pub fn tsr_model(scale: f64, trace: &mut Trace, clock: &Clock) -> Result<Model, CoreError> {
    let config = SimConfig::scaled(scale);
    let (data, generate_s) = timed(trace, clock, "sim.generate", || {
        DatasetBuilder::new(config, TSR_WORLD_SEED).map(|b| b.build())
    });
    let data = data.map_err(|reason| CoreError::InvalidInput { reason })?;
    let train = to_training_series(&data.train);
    let calib = to_training_series(&data.calib);
    let test = to_training_series(&data.test);
    drop(data);
    let n_calib_rows: usize = calib.iter().map(TrainingSeries::len).sum();
    let mut wb = WrapperBuilder::new();
    wb.max_depth(8).calibration(CalibrationOptions {
        min_samples_per_leaf: ((n_calib_rows as f64 / 110_000.0 * 200.0).round() as u64)
            .clamp(25, 200),
        confidence: 0.999,
        ..Default::default()
    });
    let names = QualityObservation::feature_names();
    fit(
        wb,
        BackendSpec::Tree,
        names,
        &train,
        &calib,
        generate_s,
        test,
        trace,
        clock,
    )
}

#[allow(clippy::too_many_arguments)]
fn fit(
    wb: WrapperBuilder,
    backend: BackendSpec,
    names: Vec<String>,
    train: &[TrainingSeries],
    calib: &[TrainingSeries],
    generate_s: f64,
    test: Vec<TrainingSeries>,
    trace: &mut Trace,
    clock: &Clock,
) -> Result<Model, CoreError> {
    let (stateless, stateless_fit_s) = timed(trace, clock, "dtree.stateless_fit", || {
        wb.fit(
            names.clone(),
            &flatten_stateless(train),
            &flatten_stateless(calib),
        )
    });
    let stateless = stateless?;
    let (rows, replay_s) = timed(trace, clock, "tauw.replay", || {
        replay(&stateless, train).and_then(|t| Ok((t, replay(&stateless, calib)?)))
    });
    let (train_rows, calib_rows) = rows?;
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb).backend(backend);
    let (wrapper, taqim_fit_s) = timed(trace, clock, "calibration.taqim_fit", || {
        builder.fit_reusing_stateless(stateless, &names, &train_rows, &calib_rows)
    });
    Ok(Model {
        wrapper: wrapper?,
        test,
        layers: SetupLayers {
            generate_s,
            stateless_fit_s,
            replay_s,
            taqim_fit_s,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposed_soak_fit_is_the_soak_wrapper() {
        let mut trace = Trace::default();
        let model = soak_model(BackendSpec::Tree, &mut trace, &Clock::start()).unwrap();
        assert_eq!(model.wrapper, tauw_bench::soak::soak_wrapper());
        let names: Vec<_> = trace.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "sim.generate",
                "dtree.stateless_fit",
                "tauw.replay",
                "calibration.taqim_fit"
            ]
        );
    }

    #[test]
    fn decomposed_tsr_fit_is_the_experiment_context() {
        let model = tsr_model(0.05, &mut Trace::default(), &Clock::start()).unwrap();
        let ctx = tauw_experiments::ExperimentContext::build(0.05, TSR_WORLD_SEED).unwrap();
        assert_eq!(model.wrapper, ctx.tauw);
        assert_eq!(model.test, ctx.test);
    }
}
