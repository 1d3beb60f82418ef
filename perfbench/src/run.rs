//! One benchmark run: set-up, the closed loop of timed waves, the
//! correctness gate, and (traced) the per-layer attribution.

use crate::alloc;
use crate::cpu;
use crate::gate::{same_bits, Gate, RefKind};
use crate::recompose::{Mirror, MirrorSlot, StageTotals, STAGES};
use crate::stats;
use crate::trace::{Clock, Span, Trace};
use crate::workload::{
    Batch, Server, Shape, Traffic, Wave, Workload, FOREST_SEED, FOREST_TREES, SERVING_SHARDS,
    THREADS, WARM_SHARDS, WINDOW,
};
use crate::worlds::{self, timed, Model};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tauw_core::adaptive::{AdaptiveConfig, DriftSignal};
use tauw_core::conformal::ConformalOptions;
use tauw_core::engine::{StreamId, TauwEngine};
use tauw_core::sharded::{EngineShardState, ShardedEngine};
use tauw_core::tauw::{BackendSpec, TauwStep, TimeseriesAwareWrapper};
use tauw_core::CoreError;

/// End-to-end metrics with a regression bound, as named in
/// `BENCHMARK.json`.
pub const END_TO_END: [&str; 3] = ["cpu_ns_per_step", "setup_s", "peak_rss_mb"];

/// End-to-end metrics the report prints without a bound. The wall-time
/// figures follow host scheduling (steal) on a shared virtual machine far
/// more than any bound allows: over ten seeds on the benchmark host their
/// spread between quartiles reached 0.29 (`wave_p50_ms`), 0.28
/// (`steps_per_s`), 0.49 (`wave_tail_ms`) and 0.57 (`setup_wall_s`) of
/// the median. The error rate is 0, which no share of a parent value can
/// bound (the JSON line carries it as `failed` / `attempted`).
pub const UNBOUNDED_END_TO_END: [&str; 5] = [
    "steps_per_s",
    "wave_p50_ms",
    "wave_tail_ms",
    "setup_wall_s",
    "error_rate",
];

/// Per-layer metrics every workload measures, as named in
/// `BENCHMARK.json`. The traced run reports the workload-specific layers
/// (see [`WORKLOAD_LAYERS`]) beside them in its report.
pub const PER_LAYER: [&str; 15] = [
    "wrapper.qim_ns",
    "buffer.push_fuse_ns",
    "taqf.compute_ns",
    "taqim.bound_ns",
    "engine.bookkeeping_ns",
    "engine.admit_s",
    "engine.bytes_per_stream",
    "parallel.dispatch_us",
    "sim.generate_s",
    "dtree.stateless_fit_s",
    "tauw.replay_s",
    "calibration.taqim_fit_s",
    "alloc.per_step",
    "alloc.per_wave",
    "trace.overhead_share",
];

/// Per-layer metrics of the layers only some workloads exercise (zero on
/// the others), and the counts that prove each workload exercises its
/// layer.
pub const WORKLOAD_LAYERS: [&str; 13] = [
    "taqim.support_ns",
    "adaptive.update_ns",
    "engine.churn_us",
    "sharded.dispatch_ns",
    "sharded.max_shard_share",
    "persist.snapshot_s",
    "persist.restore_s",
    "persist.artifact_mb",
    "adaptive.inflated_share",
    "adaptive.drift_share",
    "engine.series_resets",
    "engine.streams_created",
    "engine.streams_ended",
];

/// Independent set-ups per run; `setup_s` is their median and the last
/// one serves.
pub const SETUPS: usize = 3;

/// Streams every run replays through reference sessions.
pub const GATE_SAMPLE: usize = 64;

/// Waves the adaptive workload serves on its restored engine inside
/// set-up.
pub const POST_RESTORE_WAVES: usize = 2;

/// Waves whose spans a traced run keeps (the metrics aggregate every
/// traced wave).
pub const SPAN_WAVES: u64 = 200;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Length {
    /// Timed waves until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many timed waves.
    Waves(usize),
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Traffic seed.
    pub seed: u64,
    /// Measured length.
    pub length: Length,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Smoke-size cohorts and world.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub out_dir: Option<PathBuf>,
    /// Process start, the wall-time origin of the first set-up (its CPU
    /// time counts from the start of [`run`]).
    pub started: Instant,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Allocation counts of a traced run (they must repeat exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations inside engine calls.
    pub engine: u64,
    /// Allocations inside each recomposed stage.
    pub stages: [u64; 6],
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// What failed, when something did.
    pub failures: Vec<String>,
    /// Steps attempted in timed waves.
    pub attempted: u64,
    /// Steps of failed serving calls.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (e.g. which percentile the tail is).
    pub notes: Vec<String>,
    /// Traced runs: allocation counts.
    pub allocs: Option<AllocCounts>,
    /// Traced runs: recomposed steps compared bit for bit.
    pub recomposed: u64,
    /// Reference-session steps compared bit for bit.
    pub gate_checked: u64,
}

impl Outcome {
    /// The value of a metric, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Lifecycle and adaptation counts over timed waves.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    steps: u64,
    inflated: u64,
    drifted: u64,
    series_resets: u64,
    created: u64,
    ended: u64,
}

impl Counts {
    fn observe(&mut self, wave: &Wave, steps: &[TauwStep]) {
        self.steps += steps.len() as u64;
        for s in steps {
            self.inflated += u64::from(s.adapted_uncertainty.to_bits() != s.uncertainty.to_bits());
            self.drifted += u64::from(s.drift != DriftSignal::Stable);
        }
        self.series_resets += (wave.begun.len() - wave.new_streams) as u64;
        self.created += wave.new_streams as u64;
        self.ended += wave.ended.len() as u64;
    }
}

fn rss_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn fit_model(
    w: Workload,
    shape: Shape,
    trace: &mut Trace,
    clock: &Clock,
) -> Result<Model, CoreError> {
    match w {
        Workload::FleetSteady => worlds::soak_model(BackendSpec::Tree, trace, clock),
        Workload::VehicleTsr => worlds::tsr_model(shape.tsr_scale, trace, clock),
        Workload::FleetAdaptiveForest => worlds::soak_model(
            BackendSpec::Forest {
                n_trees: FOREST_TREES,
                seed: FOREST_SEED,
            },
            trace,
            clock,
        ),
        Workload::FleetChurnConformal => worlds::soak_model(
            BackendSpec::Conformal(ConformalOptions::default()),
            trace,
            clock,
        ),
    }
}

/// Fails a run whose model is not the taQIM backend the workload exists
/// to exercise.
fn check_backend(w: Workload, wrapper: &TimeseriesAwareWrapper) -> Result<(), String> {
    let taqim = wrapper.taqim();
    let ok = match w {
        Workload::FleetSteady | Workload::VehicleTsr => taqim.as_tree().is_some(),
        Workload::FleetAdaptiveForest => {
            taqim.as_forest().map(|f| f.n_trees()) == Some(FOREST_TREES)
        }
        Workload::FleetChurnConformal => taqim.as_conformal().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{} serves the wrong taQIM backend", w.name()))
    }
}

fn sharded(wrapper: &TimeseriesAwareWrapper, shards: usize) -> Result<ShardedEngine, CoreError> {
    let mut e = ShardedEngine::new(wrapper.clone(), shards);
    e.threads(THREADS).buffer_capacity(WINDOW);
    e.enable_adaptation(AdaptiveConfig::default())?;
    Ok(e)
}

struct Prepared<'w> {
    server: Server,
    traffic: Traffic,
    gate: Gate<'w>,
    wave: Wave,
    metrics: Vec<Metric>,
}

fn err(e: CoreError) -> String {
    e.to_string()
}

/// Serves one untimed set-up wave and checks it against the gate.
fn setup_wave(p: &mut Prepared<'_>, adaptive: bool) -> Result<(), String> {
    p.traffic.fill(&mut p.wave);
    let batch = Batch::of(&p.wave, adaptive);
    p.server.lifecycle(&p.wave);
    let steps = p.server.serve(&batch).map_err(err)?;
    p.gate.check(&p.wave, &steps);
    Ok(())
}

/// Builds the engine, admits the cohort, warms it, and (adaptive workload)
/// restarts it from a persisted snapshot.
fn prepare<'w>(
    w: Workload,
    shape: Shape,
    seed: u64,
    model: &'w Model,
    trace: &mut Trace,
    clock: &Clock,
) -> Result<Prepared<'w>, String> {
    let adaptive = w.adaptive();
    let kind = match w {
        Workload::VehicleTsr => RefKind::Session,
        Workload::FleetAdaptiveForest => RefKind::Adaptive(WINDOW, AdaptiveConfig::default()),
        _ => RefKind::Windowed(WINDOW),
    };
    let server = match w {
        Workload::FleetAdaptiveForest => {
            Server::Sharded(sharded(&model.wrapper, WARM_SHARDS).map_err(err)?)
        }
        _ => {
            let mut e = TauwEngine::new(model.wrapper.clone());
            e.threads(THREADS);
            if w != Workload::VehicleTsr {
                e.buffer_capacity(WINDOW);
            }
            Server::Plain(e)
        }
    };
    let mut p = Prepared {
        server,
        traffic: Traffic::new(w, shape, seed, &model.test),
        gate: Gate::new(&model.wrapper, kind, shape.streams, GATE_SAMPLE).map_err(err)?,
        wave: Wave::default(),
        metrics: Vec::new(),
    };

    // Cohort admission: the first wave creates every stream.
    p.traffic.fill(&mut p.wave);
    let batch = Batch::of(&p.wave, adaptive);
    let rss_before = rss_kb("VmRSS:");
    let (steps, admit_s) = timed(trace, clock, "engine.admit", || {
        p.server.lifecycle(&p.wave);
        p.server.serve(&batch)
    });
    let rss_after = rss_kb("VmRSS:");
    p.gate.check(&p.wave, &steps.map_err(err)?);
    drop(batch);
    p.metrics.push(metric("engine.admit_s", admit_s, "s"));
    let admitted_bytes = rss_after.saturating_sub(rss_before) as f64 * 1024.0;
    p.metrics.push(metric(
        "engine.bytes_per_stream",
        admitted_bytes / shape.streams as f64,
        "B",
    ));
    for _ in 0..shape.warm_waves {
        setup_wave(&mut p, adaptive)?;
    }

    let (mut snapshot_s, mut restore_s, mut artifact_mb) = (0.0, 0.0, 0.0);
    if let Server::Sharded(warm) = &p.server {
        // Restart: snapshot every shard and serialise it; the new process
        // loads the artifacts back into a serving engine with a different
        // shard count, so restore re-hashes every stream.
        let (artifacts, s) = timed(trace, clock, "persist.snapshot", || {
            warm.snapshot()
                .iter()
                .map(EngineShardState::to_artifact_json)
                .collect::<Result<Vec<String>, CoreError>>()
        });
        let artifacts = artifacts.map_err(err)?;
        snapshot_s = s;
        artifact_mb = artifacts.iter().map(String::len).sum::<usize>() as f64 / 1e6;
        p.server = Server::Sharded(sharded(&model.wrapper, SERVING_SHARDS).map_err(err)?);
        let Server::Sharded(serving) = &mut p.server else {
            unreachable!("just assigned")
        };
        let (restored, s) = timed(trace, clock, "persist.restore", || {
            artifacts
                .iter()
                .try_for_each(|json| serving.restore(&EngineShardState::from_artifact_json(json)?))
        });
        restored.map_err(err)?;
        restore_s = s;
        for _ in 0..POST_RESTORE_WAVES {
            setup_wave(&mut p, adaptive)?;
        }
    }
    p.metrics
        .push(metric("persist.snapshot_s", snapshot_s, "s"));
    p.metrics.push(metric("persist.restore_s", restore_s, "s"));
    p.metrics
        .push(metric("persist.artifact_mb", artifact_mb, "MB"));
    let l = model.layers;
    p.metrics.push(metric("sim.generate_s", l.generate_s, "s"));
    p.metrics
        .push(metric("dtree.stateless_fit_s", l.stateless_fit_s, "s"));
    p.metrics.push(metric("tauw.replay_s", l.replay_s, "s"));
    p.metrics
        .push(metric("calibration.taqim_fit_s", l.taqim_fit_s, "s"));
    Ok(p)
}

/// Accumulators over timed waves.
#[derive(Debug, Default)]
struct Timed {
    latencies_ms: Vec<f64>,
    /// Process CPU ns per served step, one sample per timed wave.
    cpu_ns_per_step: Vec<f64>,
    wave_s: f64,
    cpu_ns: u64,
    steps: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Traced-phase accumulators.
#[derive(Debug, Default)]
struct Traced {
    waves: u64,
    steps: u64,
    wave_ns: u64,
    engine_thread_ns: u64,
    engine_allocs: u64,
    stages: StageTotals,
    lifecycle_ns: u64,
    lifecycle_streams: u64,
    dispatch_ns: u64,
    plain_ns: u64,
    sharded_ns: u64,
    shard_share: f64,
    recomposed: u64,
    mismatch: Option<String>,
}

fn wave_done(length: Length, started: Instant, waves: usize) -> bool {
    match length {
        Length::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        Length::Waves(n) => waves >= n,
    }
}

/// The untraced closed loop: build a wave (untimed), serve it (timed),
/// check it (untimed), repeat.
fn untraced_loop(
    p: &mut Prepared<'_>,
    adaptive: bool,
    length: Length,
    t: &mut Timed,
    counts: &mut Counts,
) {
    let started = Instant::now();
    let mut waves = 0;
    while !wave_done(length, started, waves) {
        p.traffic.fill(&mut p.wave);
        let batch = Batch::of(&p.wave, adaptive);
        let cpu_start = cpu::process_ns();
        let start = Instant::now();
        p.server.lifecycle(&p.wave);
        let served = p.server.serve(&batch);
        let wave_s = start.elapsed().as_secs_f64();
        let cpu_ns = cpu::process_ns() - cpu_start;
        t.cpu_ns += cpu_ns;
        let n = p.wave.len() as u64;
        t.cpu_ns_per_step.push(cpu_ns as f64 / n as f64);
        t.attempted += n;
        t.latencies_ms.push(wave_s * 1e3);
        t.wave_s += wave_s;
        t.steps += n;
        match served {
            Ok(steps) => {
                p.gate.check(&p.wave, &steps);
                counts.observe(&p.wave, &steps);
            }
            Err(e) => {
                t.failed += n;
                t.errors.push(e.to_string());
            }
        }
        waves += 1;
    }
}

/// Mirror of the server's stream state, slot by slot.
fn mirror_of(server: &Server, traffic: &Traffic, adaptive: bool) -> Mirror {
    let streams = traffic.slot_streams();
    let slots = match server {
        Server::Plain(engine) => streams
            .iter()
            .map(|&s| {
                let (buffer, state) = engine
                    .export_stream(s)
                    .expect("every slot's stream is live");
                MirrorSlot { buffer, state }
            })
            .collect(),
        Server::Sharded(engine) => {
            let mut by_stream: BTreeMap<StreamId, MirrorSlot> = engine
                .snapshot()
                .into_iter()
                .flat_map(|shard| shard.streams)
                .map(|s| {
                    (
                        s.stream,
                        MirrorSlot {
                            buffer: s.buffer,
                            state: s.adaptive,
                        },
                    )
                })
                .collect();
            streams
                .iter()
                .map(|s| by_stream.remove(s).expect("every slot's stream is live"))
                .collect()
        }
    };
    Mirror::new(slots, THREADS, adaptive)
}

/// The traced loop: every wave is served (one engine-call span), then
/// recomposed stage by stage on the mirror and compared bit for bit.
#[allow(clippy::too_many_arguments)]
fn traced_loop(
    p: &mut Prepared<'_>,
    wrapper: &TimeseriesAwareWrapper,
    adaptive: bool,
    length: Length,
    trace: &mut Trace,
    clock: &Clock,
    tr: &mut Traced,
    t: &mut Timed,
    counts: &mut Counts,
) -> Result<(), String> {
    let mut mirror = mirror_of(&p.server, &p.traffic, adaptive);
    // The sharded workload also serves the same traffic through one plain
    // adaptive engine holding the same state, to price shard dispatch.
    let mut plain = match &p.server {
        Server::Sharded(engine) => {
            let mut e = TauwEngine::new(wrapper.clone());
            e.threads(THREADS).buffer_capacity(WINDOW);
            e.enable_adaptation(AdaptiveConfig::default())
                .map_err(err)?;
            for shard in engine.snapshot() {
                for s in shard.streams {
                    e.import_stream(s.stream, s.buffer, s.adaptive);
                }
            }
            Some(e)
        }
        Server::Plain(_) => None,
    };
    alloc::set_counting(true);
    let started = Instant::now();
    let mut waves = 0;
    while !wave_done(length, started, waves) {
        p.traffic.fill(&mut p.wave);
        let batch = Batch::of(&p.wave, adaptive);
        let n = p.wave.len();
        let keep = tr.waves < SPAN_WAVES;
        let wave_id = p.wave.index as i64;

        let t0 = clock.ns();
        p.server.lifecycle(&p.wave);
        let t1 = clock.ns();
        let a0 = alloc::process_count();
        let served = p.server.serve(&batch);
        let a1 = alloc::process_count();
        let t2 = clock.ns();

        let units = p.server.fan_out(n);
        tr.waves += 1;
        tr.steps += n as u64;
        tr.wave_ns += t2 - t0;
        tr.lifecycle_ns += t1 - t0;
        tr.lifecycle_streams += p.wave.ended.len().max(p.wave.begun.len()) as u64;
        tr.engine_thread_ns += (t2 - t1) * THREADS.min(units) as u64;
        tr.engine_allocs += a1 - a0;
        t.attempted += n as u64;
        t.steps += n as u64;
        t.wave_s += (t2 - t0) as f64 * 1e-9;
        let served = match served {
            Ok(steps) => steps,
            Err(e) => {
                t.failed += n as u64;
                t.errors.push(e.to_string());
                waves += 1;
                continue;
            }
        };

        // Stage-major recomposition on the mirror.
        mirror.apply_resets(&p.wave);
        let r0 = clock.ns();
        let recomposed = mirror
            .recompose(wrapper, &p.wave, clock, keep)
            .map_err(err)?;
        let r1 = clock.ns();
        tr.stages.add(&recomposed.totals);
        tr.recomposed += n as u64;
        if tr.mismatch.is_none() {
            if let Some(i) = (0..n).find(|&i| !same_bits(&served[i], &recomposed.steps[i])) {
                tr.mismatch = Some(format!(
                    "recomposition differs at wave {} {}: served {:?}, recomposed {:?}",
                    p.wave.index, p.wave.streams[i], served[i], recomposed.steps[i]
                ));
            }
        }

        // An empty fan-out at the same budget prices the dispatch itself.
        let mut empty = vec![(); units];
        let d0 = clock.ns();
        parallel::par_map_mut(THREADS, &mut empty, |_| ());
        let d1 = clock.ns();
        tr.dispatch_ns += d1 - d0;

        let mut plain_span = None;
        if let (Some(engine), Server::Sharded(sharded)) = (plain.as_mut(), &p.server) {
            let Batch::Adaptive(steps) = &batch else {
                unreachable!("sharded workload is adaptive")
            };
            let q0 = clock.ns();
            let again = engine.step_many_adaptive(steps).map_err(err)?;
            let q1 = clock.ns();
            tr.plain_ns += q1 - q0;
            tr.sharded_ns += t2 - t1;
            plain_span = Some((q0, q1));
            if tr.mismatch.is_none() && !(0..n).all(|i| same_bits(&served[i], &again[i])) {
                tr.mismatch = Some(format!(
                    "plain adaptive engine differs from sharded at wave {}",
                    p.wave.index
                ));
            }
            let mut per_shard = vec![0usize; sharded.n_shards()];
            for s in &p.wave.streams {
                per_shard[sharded.shard_of(*s)] += 1;
            }
            tr.shard_share += *per_shard.iter().max().unwrap_or(&0) as f64 / n as f64;
        }

        p.gate.check(&p.wave, &served);
        counts.observe(&p.wave, &served);
        if keep {
            let root = trace.reserve();
            let span = |name, parent, (start_ns, end_ns), calls, allocs| Span {
                id: 0,
                parent,
                wave: wave_id,
                name,
                start_ns,
                end_ns,
                calls,
                allocs,
            };
            trace.push(Span {
                id: root,
                ..span("wave", 0, (t0, t2), n as u32, 0)
            });
            trace.push(span(
                "engine.lifecycle",
                root,
                (t0, t1),
                (p.wave.ended.len() + p.wave.begun.len()) as u32,
                0,
            ));
            trace.push(span("engine.serve", root, (t1, t2), n as u32, a1 - a0));
            let rid = trace.push(span("recompose", 0, (r0, r1), n as u32, 0));
            for mut s in recomposed.spans {
                s.parent = rid;
                trace.push(s);
            }
            trace.push(span("parallel.dispatch", 0, (d0, d1), units as u32, 0));
            if let Some(q) = plain_span {
                trace.push(span("engine.serve_unsharded", 0, q, n as u32, 0));
            }
        }
        waves += 1;
    }
    alloc::set_counting(false);
    Ok(())
}

fn split(length: Length) -> (Length, Length) {
    match length {
        Length::Seconds(s) => (Length::Seconds(s / 3.0), Length::Seconds(s - s / 3.0)),
        Length::Waves(n) => (Length::Waves(n / 3), Length::Waves(n - n / 3)),
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end metrics of an untraced run.
fn end_to_end(
    t: &Timed,
    setup_cpu_s: &[f64],
    setup_wall_s: &[f64],
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let p50 = stats::percentile(&t.latencies_ms, 50.0)?;
    let tail = stats::tail(&t.latencies_ms)?;
    metrics.push(metric(
        "cpu_ns_per_step",
        stats::median(&t.cpu_ns_per_step),
        "ns",
    ));
    metrics.push(metric("steps_per_s", t.steps as f64 / t.wave_s, "1/s"));
    metrics.push(metric("wave_p50_ms", p50, "ms"));
    metrics.push(metric("wave_tail_ms", tail.value, "ms"));
    metrics.push(metric("setup_s", stats::median(setup_cpu_s), "s"));
    metrics.push(metric("setup_wall_s", stats::median(setup_wall_s), "s"));
    notes.push(format!(
        "wave_tail_ms is p{:.2} over {} timed waves",
        tail.percentile, tail.samples
    ));
    notes.push(format!(
        "cpu_ns_per_step is the median over {} timed waves (p10 {:.1}, p90 {:.1}, whole-run mean {:.1})",
        t.cpu_ns_per_step.len(),
        stats::nearest_rank(&t.cpu_ns_per_step, 10.0),
        stats::nearest_rank(&t.cpu_ns_per_step, 90.0),
        t.cpu_ns as f64 / t.steps as f64,
    ));
    notes.push(format!(
        "setup_s is the median process CPU time of {} set-ups: {setup_cpu_s:?}; wall: {setup_wall_s:?}",
        setup_cpu_s.len()
    ));
    Ok(())
}

/// Per-layer metrics of a traced run.
fn per_layer(
    w: Workload,
    tr: &Traced,
    untraced: &Timed,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) {
    let steps = tr.steps.max(1) as f64;
    let waves = tr.waves.max(1) as f64;
    for (k, name) in [
        "wrapper.qim_ns",
        "buffer.push_fuse_ns",
        "taqf.compute_ns",
        "taqim.bound_ns",
        "taqim.support_ns",
        "adaptive.update_ns",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.push(metric(name, tr.stages.ns[k] as f64 / steps, "ns"));
    }
    let bookkeeping = (tr.engine_thread_ns as f64 - tr.stages.total_ns() as f64) / steps;
    metrics.push(metric("engine.bookkeeping_ns", bookkeeping, "ns"));
    let churn_us = tr.lifecycle_ns as f64 / 1e3 / tr.lifecycle_streams.max(1) as f64;
    metrics.push(metric("engine.churn_us", churn_us, "us"));
    metrics.push(metric(
        "parallel.dispatch_us",
        tr.dispatch_ns as f64 / 1e3 / waves,
        "us",
    ));
    let sharded_ns = if w == Workload::FleetAdaptiveForest {
        (tr.sharded_ns as f64 - tr.plain_ns as f64) / steps
    } else {
        0.0
    };
    metrics.push(metric("sharded.dispatch_ns", sharded_ns, "ns"));
    metrics.push(metric(
        "sharded.max_shard_share",
        tr.shard_share / waves,
        "share",
    ));
    metrics.push(metric(
        "alloc.per_step",
        tr.engine_allocs as f64 / steps,
        "count",
    ));
    metrics.push(metric(
        "alloc.per_wave",
        tr.engine_allocs as f64 / waves,
        "count",
    ));
    let untraced_per_step = untraced.wave_s / untraced.steps.max(1) as f64;
    let traced_per_step = tr.wave_ns as f64 * 1e-9 / steps;
    metrics.push(metric(
        "trace.overhead_share",
        traced_per_step / untraced_per_step - 1.0,
        "ratio",
    ));
    for (k, stage) in STAGES.iter().enumerate() {
        if tr.stages.calls[k] > 0 {
            let per_call = tr.stages.allocs[k] as f64 / tr.stages.calls[k] as f64;
            notes.push(format!("{stage}: {per_call:.4} allocations per call"));
        }
    }
    notes.push(format!(
        "traced {} waves ({} steps); {} untraced waves in the same process price the tracing",
        tr.waves,
        tr.steps,
        untraced.latencies_ms.len()
    ));
}

/// Validity guards: a workload must exercise the layer it exists for.
fn guards(w: Workload, counts: &Counts) -> Vec<String> {
    let checks: &[(bool, &str)] = match w {
        Workload::FleetAdaptiveForest => &[
            (counts.inflated > 0, "no adapted bound was inflated"),
            (counts.drifted > 0, "no drift was classified"),
        ],
        Workload::FleetChurnConformal => &[
            (counts.created > 0, "no stream was created"),
            (counts.ended > 0, "no stream was ended"),
        ],
        Workload::VehicleTsr => &[(counts.series_resets > 0, "no series was reset")],
        Workload::FleetSteady => &[],
    };
    checks
        .iter()
        .filter(|(ok, _)| !ok)
        .map(|(_, what)| format!("{}: {what}", w.name()))
        .collect()
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (the run produced no result).
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = cfg.workload;
    let shape = w.shape(cfg.smoke);
    let adaptive = w.adaptive();
    parallel::set_max_threads(THREADS);
    let clock = Clock::from(cfg.started);
    let mut trace = Trace::default();
    let mut failures = Vec::new();

    // Independent set-ups, each timed to the point its first timed wave
    // could start (the first from the start of the run); the last one
    // serves. Each is timed twice: process CPU seconds (the bounded
    // `setup_s`, which host steal leaves out) and wall seconds.
    let run_cpu_ns = cpu::process_ns();
    let mut setup_cpu_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut setup_metrics: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut record = |wall: Instant, cpu_ns: u64, metrics: Vec<Metric>| {
        setup_wall_s.push(wall.elapsed().as_secs_f64());
        setup_cpu_s.push((cpu::process_ns() - cpu_ns) as f64 * 1e-9);
        for m in metrics {
            setup_metrics
                .entry(m.name)
                .or_insert((Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    };
    for i in 1..SETUPS {
        let (wall, cpu_ns) = if i == 1 {
            (cfg.started, run_cpu_ns)
        } else {
            (Instant::now(), cpu::process_ns())
        };
        let model = fit_model(w, shape, &mut Trace::default(), &clock).map_err(err)?;
        let p = prepare(w, shape, cfg.seed, &model, &mut Trace::default(), &clock)?;
        record(wall, cpu_ns, p.metrics);
        failures.extend(p.gate.failure.map(|f| format!("set-up gate: {f}")));
    }
    let (wall, cpu_ns) = (Instant::now(), cpu::process_ns());
    let model = fit_model(w, shape, &mut trace, &clock).map_err(err)?;
    let mut p = prepare(w, shape, cfg.seed, &model, &mut trace, &clock)?;
    record(wall, cpu_ns, std::mem::take(&mut p.metrics));
    failures.extend(check_backend(w, &model.wrapper).err());

    let mut t = Timed::default();
    let mut counts = Counts::default();
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut tr = Traced::default();
    if cfg.trace {
        let (first, rest) = split(cfg.length);
        let mut untraced = Timed::default();
        untraced_loop(&mut p, adaptive, first, &mut untraced, &mut counts);
        t.attempted += untraced.attempted;
        t.failed += untraced.failed;
        t.errors.append(&mut untraced.errors);
        traced_loop(
            &mut p,
            &model.wrapper,
            adaptive,
            rest,
            &mut trace,
            &clock,
            &mut tr,
            &mut t,
            &mut counts,
        )?;
        failures.extend(tr.mismatch.take());
        per_layer(w, &tr, &untraced, &mut metrics, &mut notes);
    } else {
        untraced_loop(&mut p, adaptive, cfg.length, &mut t, &mut counts);
        if let Err(e) = end_to_end(&t, &setup_cpu_s, &setup_wall_s, &mut metrics, &mut notes) {
            failures.push(format!("too few timed waves: {e}"));
        }
    }
    for (name, (values, unit)) in &setup_metrics {
        metrics.push(metric(name, stats::median(values), unit));
    }
    let adaptive_steps = if adaptive {
        counts.steps.max(1) as f64
    } else {
        1.0
    };
    metrics.push(metric(
        "adaptive.inflated_share",
        counts.inflated as f64 / adaptive_steps,
        "share",
    ));
    metrics.push(metric(
        "adaptive.drift_share",
        counts.drifted as f64 / adaptive_steps,
        "share",
    ));
    metrics.push(metric(
        "engine.series_resets",
        counts.series_resets as f64,
        "count",
    ));
    metrics.push(metric(
        "engine.streams_created",
        counts.created as f64,
        "count",
    ));
    metrics.push(metric("engine.streams_ended", counts.ended as f64, "count"));

    failures.extend(guards(w, &counts));
    failures.extend(
        p.gate
            .failure
            .take()
            .map(|f| format!("reference gate: {f}")),
    );
    if p.gate.checked == 0 {
        failures.push("reference gate compared no steps".into());
    }
    if let Some(e) = t.errors.first() {
        failures.push(format!("{} of {} steps failed: {e}", t.failed, t.attempted));
    }
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    metrics.push(metric("error_rate", error_rate, "ratio"));
    notes.push(format!(
        "error_rate: {} failed of {} attempted steps",
        t.failed, t.attempted
    ));
    let gate_checked = p.gate.checked;
    drop(p);

    if let (true, Some(dir)) = (cfg.trace, &cfg.out_dir) {
        let path = dir.join(format!("trace-{}-seed{}.tsv", w.name(), cfg.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| trace.write(&path))
            .map_err(|e| format!("writing the trace: {e}"))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    metrics.push(metric(
        "peak_rss_mb",
        rss_kb("VmHWM:") as f64 * 1024.0 / 1e6,
        "MB",
    ));
    failures.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("{} is not finite", m.name)),
    );
    Ok(Outcome {
        correct: failures.is_empty(),
        failures,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        notes,
        allocs: cfg.trace.then_some(AllocCounts {
            engine: tr.engine_allocs,
            stages: tr.stages.allocs,
        }),
        recomposed: tr.recomposed,
        gate_checked,
    })
}
