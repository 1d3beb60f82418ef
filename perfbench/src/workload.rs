//! The four workloads: their cohort shapes, traffic, and serving engines.

use crate::traffic::{self, SlotPicker, FAILURE_CLASS};
use tauw_bench::soak::SoakScenario;
use tauw_core::engine::{AdaptiveStreamStep, StreamId, TauwEngine};
use tauw_core::sharded::ShardedEngine;
use tauw_core::tauw::TauwStep;
use tauw_core::training::TrainingSeries;
use tauw_core::CoreError;
use tauw_stats::bootstrap::SplitMix64;

/// Thread budget of every engine (the benchmark host's `nproc`).
pub const THREADS: usize = 2;

/// Sliding window of the fleet workloads' stream buffers.
pub const WINDOW: usize = 64;

/// Camera streams of the vehicle workload.
pub const CAMERAS: usize = 16;

/// Shards of the adaptive workload's serving engine.
pub const SERVING_SHARDS: usize = 8;

/// Shards of the engine the adaptive workload snapshots before its
/// restart (a different count, so restore re-hashes every stream).
pub const WARM_SHARDS: usize = 3;

/// Bootstrap members of the adaptive workload's forest taQIM.
pub const FOREST_TREES: usize = 16;

/// Root seed of the forest's bootstrap resamples (the model is fixed;
/// only traffic follows the run's seed).
pub const FOREST_SEED: u64 = 0xF0_2E57;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50 000 long-lived streams, uniform traffic, 1-QF tree model.
    FleetSteady,
    /// 16 cameras replaying the simulated TSR world's test series.
    VehicleTsr,
    /// 20 000 adaptive streams on 8 shards, mixed traffic, forest taQIM,
    /// restored from a snapshot during set-up.
    FleetAdaptiveForest,
    /// 50 000 live streams with 1/16 replaced every wave, heavy-tailed
    /// traffic, split-conformal taQIM.
    FleetChurnConformal,
}

impl Workload {
    /// Every workload, in a stable order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetSteady,
        Workload::VehicleTsr,
        Workload::FleetAdaptiveForest,
        Workload::FleetChurnConformal,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::VehicleTsr => "vehicle_tsr",
            Workload::FleetAdaptiveForest => "fleet_adaptive_forest",
            Workload::FleetChurnConformal => "fleet_churn_conformal",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload serves with adaptation on.
    pub fn adaptive(self) -> bool {
        self == Workload::FleetAdaptiveForest
    }

    /// The cohort shape at full or smoke size.
    pub fn shape(self, smoke: bool) -> Shape {
        let (streams, warm_waves) = match self {
            Workload::FleetSteady | Workload::FleetChurnConformal => {
                (if smoke { 512 } else { 50_000 }, 3)
            }
            Workload::VehicleTsr => (CAMERAS, 20),
            Workload::FleetAdaptiveForest => (if smoke { 300 } else { 20_000 }, 8),
        };
        Shape {
            streams,
            warm_waves,
            churn: if self == Workload::FleetChurnConformal {
                streams / 16
            } else {
                0
            },
            tsr_scale: if smoke { 0.05 } else { 0.25 },
        }
    }

    /// The soak overlay of a fleet workload.
    fn scenario(self) -> SoakScenario {
        match self {
            Workload::FleetAdaptiveForest => SoakScenario::Mixed,
            Workload::FleetChurnConformal => SoakScenario::HeavyTails,
            _ => SoakScenario::Uniform,
        }
    }
}

/// Cohort shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Live streams (one step per stream per wave).
    pub streams: usize,
    /// Untimed waves after admission, inside set-up.
    pub warm_waves: usize,
    /// Streams replaced per wave.
    pub churn: usize,
    /// Scale of the simulated TSR world.
    pub tsr_scale: f64,
}

/// Regime-switch horizon of the mixed overlay: switched streams turn at
/// wave `HORIZON / 2`, shortly after set-up ends.
pub const HORIZON: u64 = 32;

/// One wave of closed-loop traffic. Position `i` of a wave always belongs
/// to slot `i` of the cohort (every live stream steps once per wave).
#[derive(Debug, Clone, Default)]
pub struct Wave {
    /// Wave index since the cohort was admitted (admission is wave 0).
    pub index: u64,
    /// Stream of each position.
    pub streams: Vec<StreamId>,
    /// Quality factors, row-major, `arity` per position.
    pub qf: Vec<f64>,
    /// Quality factors per step.
    pub arity: usize,
    /// DDM outcome of each position.
    pub outcomes: Vec<u32>,
    /// Whether each position's DDM reading was wrong.
    pub failed: Vec<bool>,
    /// Streams ended before the wave is served.
    pub ended: Vec<StreamId>,
    /// Streams whose series (re)starts before the wave is served
    /// (`begin_series`).
    pub begun: Vec<StreamId>,
    /// Slots of `begun`, in the same order.
    pub reset_slots: Vec<usize>,
    /// How many of `begun` are streams never seen before.
    pub new_streams: usize,
}

impl Wave {
    /// Quality factors of position `i`.
    pub fn qf(&self, i: usize) -> &[f64] {
        &self.qf[i * self.arity..(i + 1) * self.arity]
    }

    /// Steps in the wave.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the wave has no steps.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    fn clear(&mut self) {
        self.streams.clear();
        self.qf.clear();
        self.outcomes.clear();
        self.failed.clear();
        self.ended.clear();
        self.begun.clear();
        self.reset_slots.clear();
        self.new_streams = 0;
    }
}

/// Traffic generator of one workload, seeded from the run's `--seed`.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Hashed soak traffic over a cohort of slots.
    Fleet {
        /// Run seed.
        seed: u64,
        /// Overlay family.
        scenario: SoakScenario,
        /// Current stream id of each slot.
        ids: Vec<u64>,
        /// Next never-seen stream id.
        next_id: u64,
        /// Streams replaced per wave.
        churn: usize,
        /// Chooses the replaced slots.
        picker: SlotPicker,
        /// Reusable pick buffer.
        picked: Vec<usize>,
        /// Next wave index.
        wave: u64,
    },
    /// Cameras replaying test series back to back.
    Vehicle {
        /// The world's test series.
        series: Vec<TrainingSeries>,
        /// Seeded playback order over `series`.
        order: Vec<usize>,
        /// Per camera: series played so far and step within the current one.
        cams: Vec<(usize, usize)>,
        /// Next wave index.
        wave: u64,
    },
}

impl Traffic {
    /// The generator for `workload`; `test` is the vehicle world's test split.
    pub fn new(workload: Workload, shape: Shape, seed: u64, test: &[TrainingSeries]) -> Self {
        if workload == Workload::VehicleTsr {
            let mut order: Vec<usize> = (0..test.len()).collect();
            let mut rng = SplitMix64::new(seed ^ 0x7E57_0000);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_index(i + 1));
            }
            // Stagger the cameras so series boundaries spread over waves.
            let cams = (0..CAMERAS)
                .map(|c| (0, c % test[order[c % order.len()]].len().max(1)))
                .collect();
            return Traffic::Vehicle {
                series: test.to_vec(),
                order,
                cams,
                wave: 0,
            };
        }
        Traffic::Fleet {
            seed,
            scenario: workload.scenario(),
            ids: (0..shape.streams as u64).collect(),
            next_id: shape.streams as u64,
            churn: shape.churn,
            picker: SlotPicker::new(shape.streams, seed),
            picked: Vec::new(),
            wave: 0,
        }
    }

    /// Current stream of every slot.
    pub fn slot_streams(&self) -> Vec<StreamId> {
        match self {
            Traffic::Fleet { ids, .. } => ids.iter().map(|&id| StreamId(id)).collect(),
            Traffic::Vehicle { cams, .. } => (0..cams.len() as u64).map(StreamId).collect(),
        }
    }

    /// Fills `wave` with the next wave of traffic.
    pub fn fill(&mut self, wave: &mut Wave) {
        wave.clear();
        match self {
            Traffic::Fleet {
                seed,
                scenario,
                ids,
                next_id,
                churn,
                picker,
                picked,
                wave: index,
            } => {
                wave.index = *index;
                wave.arity = 1;
                if *index > 0 && *churn > 0 {
                    picked.clear();
                    picker.pick(*churn, picked);
                    for &slot in picked.iter() {
                        wave.ended.push(StreamId(ids[slot]));
                        ids[slot] = *next_id;
                        *next_id += 1;
                        wave.begun.push(StreamId(ids[slot]));
                        wave.reset_slots.push(slot);
                    }
                    wave.new_streams = picked.len();
                }
                for &id in ids.iter() {
                    let (q, o) = traffic::step(*scenario, *seed, id, *index, HORIZON);
                    wave.streams.push(StreamId(id));
                    wave.qf.push(q);
                    wave.outcomes.push(o);
                    wave.failed.push(o == FAILURE_CLASS);
                }
                *index += 1;
            }
            Traffic::Vehicle {
                series,
                order,
                cams,
                wave: index,
            } => {
                wave.index = *index;
                wave.arity = series[0].steps[0].quality_factors.len();
                for (c, (played, step)) in cams.iter_mut().enumerate() {
                    let s = &series[order[(c + CAMERAS * *played) % order.len()]];
                    if *step == 0 {
                        wave.begun.push(StreamId(c as u64));
                        wave.reset_slots.push(c);
                    }
                    let frame = &s.steps[*step];
                    wave.streams.push(StreamId(c as u64));
                    wave.qf.extend_from_slice(&frame.quality_factors);
                    wave.outcomes.push(frame.outcome);
                    wave.failed.push(frame.outcome != s.true_outcome);
                    *step += 1;
                    if *step == s.len() {
                        *played += 1;
                        *step = 0;
                    }
                }
                *index += 1;
            }
        }
    }
}

/// A serving engine under test (one per run, so the variants' size
/// difference does not matter).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Server {
    /// The plain multi-stream engine.
    Plain(TauwEngine),
    /// The sharded front end.
    Sharded(ShardedEngine),
}

/// A wave in the form the engine call takes (built untimed).
#[derive(Debug)]
pub enum Batch<'a> {
    /// Borrowed plain steps.
    Plain(Vec<(StreamId, &'a [f64], u32)>),
    /// Adaptive steps with `failed` feedback.
    Adaptive(Vec<AdaptiveStreamStep>),
}

impl<'a> Batch<'a> {
    /// Builds the engine-call form of `wave`.
    pub fn of(wave: &'a Wave, adaptive: bool) -> Self {
        if adaptive {
            Batch::Adaptive(
                (0..wave.len())
                    .map(|i| {
                        AdaptiveStreamStep::new(
                            wave.streams[i],
                            wave.qf(i).to_vec(),
                            wave.outcomes[i],
                            wave.failed[i],
                        )
                    })
                    .collect(),
            )
        } else {
            Batch::Plain(
                (0..wave.len())
                    .map(|i| (wave.streams[i], wave.qf(i), wave.outcomes[i]))
                    .collect(),
            )
        }
    }
}

impl Server {
    /// The lifecycle calls a wave makes before it is served: `end_stream`
    /// for every ended stream, then `begin_series` for every begun one.
    pub fn lifecycle(&mut self, wave: &Wave) {
        match self {
            Server::Plain(engine) => {
                for &s in &wave.ended {
                    engine.end_stream(s);
                }
                for &s in &wave.begun {
                    engine.begin_series(s);
                }
            }
            Server::Sharded(engine) => {
                for &s in &wave.ended {
                    engine.end_stream(s);
                }
                for &s in &wave.begun {
                    let admitted = engine.begin_series(s).is_accepted();
                    assert!(admitted, "shards without a stream cap admit every stream");
                }
            }
        }
    }

    /// The serving call.
    ///
    /// # Errors
    ///
    /// The engine's error; every step of the batch fails with it.
    pub fn serve(&mut self, batch: &Batch<'_>) -> Result<Vec<TauwStep>, CoreError> {
        match (self, batch) {
            (Server::Plain(e), Batch::Plain(b)) => e.step_many_borrowed(b),
            (Server::Plain(e), Batch::Adaptive(b)) => e.step_many_adaptive(b),
            (Server::Sharded(e), Batch::Plain(b)) => e.step_many_borrowed(b),
            (Server::Sharded(e), Batch::Adaptive(b)) => e.step_many_adaptive(b),
        }
    }

    /// Work units the engine fans out over its thread budget in a wave of
    /// `steps` distinct streams (stream slots, or shards).
    pub fn fan_out(&self, steps: usize) -> usize {
        match self {
            Server::Plain(_) => steps,
            Server::Sharded(e) => e.n_shards(),
        }
    }
}
