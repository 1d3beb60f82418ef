//! Stage-major recomposition of a served wave.
//!
//! The traced run keeps a dense per-slot mirror of every stream's state
//! (fusion buffer, adaptive state) and replays each wave through the
//! public stage functions the engine's per-step path is built from, one
//! stage at a time over blocks of [`BLOCK`] streams, on the engine's thread
//! budget and chunking. Each stage span is timed, so the stages' self time
//! per step is measured directly, and the engine's remaining time is its
//! own bookkeeping. The recomposed steps must match the served ones bit
//! for bit, which proves the attribution measured the served program.
//!
//! The adaptive stage calls `adapted_bound`, `classify` and `observe`; the
//! engine additionally records the drift it classified, which neither
//! `classify` nor `observe` reads, so the recomposed state evolves exactly
//! like the served one.

use crate::alloc;
use crate::trace::{Clock, Span};
use crate::workload::Wave;
use tauw_core::adaptive::{AdaptiveState, DriftSignal};
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::calibration::{RouteSupport, ServingScratch};
use tauw_core::taqf::TaqfVector;
use tauw_core::tauw::{TauwStep, TimeseriesAwareWrapper};
use tauw_core::CoreError;

/// Streams per stage-major block: small enough that a block's state stays
/// in cache from the first stage to the last.
pub const BLOCK: usize = 256;

/// The serving stages, in per-step order, with the public calls each span
/// covers.
pub const STAGES: [&str; 6] = [
    // UncertaintyWrapper::uncertainty
    "wrapper.qim",
    // TimeseriesBuffer::push + fused_outcome
    "buffer.push_fuse",
    // TaqfVector::compute
    "taqf.compute",
    // TimeseriesAwareWrapper::ta_uncertainty_with_scratch
    "taqim.bound",
    // TimeseriesAwareWrapper::route_support_with_scratch
    "taqim.support",
    // AdaptiveState::adapted_bound + classify + observe
    "adaptive.update",
];

/// Per-stage totals over the recomposed waves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Self time, summed over worker threads.
    pub ns: [u64; 6],
    /// Heap allocations made inside the stage.
    pub allocs: [u64; 6],
    /// Calls into the stage.
    pub calls: [u64; 6],
}

impl StageTotals {
    /// Adds another wave's totals.
    pub fn add(&mut self, other: &StageTotals) {
        for k in 0..STAGES.len() {
            self.ns[k] += other.ns[k];
            self.allocs[k] += other.allocs[k];
            self.calls[k] += other.calls[k];
        }
    }

    /// Self time of every stage, summed.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// One slot's mirrored stream state.
#[derive(Debug, Clone)]
pub struct MirrorSlot {
    /// The stream's fusion buffer.
    pub buffer: TimeseriesBuffer,
    /// The stream's adaptive state, on the adaptive workload.
    pub state: Option<AdaptiveState>,
}

#[derive(Debug, Default)]
struct Worker {
    scratch: ServingScratch,
    u: Vec<f64>,
    fused: Vec<u32>,
    taqf: Vec<Option<TaqfVector>>,
    bound: Vec<f64>,
    support: Vec<RouteSupport>,
    adapted: Vec<f64>,
    drift: Vec<DriftSignal>,
    totals: StageTotals,
    spans: Vec<Span>,
    out: Vec<TauwStep>,
}

/// The dense mirror plus per-worker scratch.
#[derive(Debug)]
pub struct Mirror {
    slots: Vec<MirrorSlot>,
    workers: Vec<Worker>,
    threads: usize,
    adaptive: bool,
}

/// One recomposed wave.
#[derive(Debug)]
pub struct Recomposed {
    /// Steps in wave order.
    pub steps: Vec<TauwStep>,
    /// Stage totals of this wave.
    pub totals: StageTotals,
    /// Stage spans (parentless; the caller links them).
    pub spans: Vec<Span>,
}

impl Mirror {
    /// A mirror of `slots` served on `threads` workers.
    pub fn new(slots: Vec<MirrorSlot>, threads: usize, adaptive: bool) -> Self {
        let threads = threads.max(1);
        let workers = (0..threads)
            .map(|_| Worker {
                u: vec![0.0; BLOCK],
                fused: vec![0; BLOCK],
                taqf: vec![None; BLOCK],
                bound: vec![0.0; BLOCK],
                support: vec![RouteSupport::Unsupported; BLOCK],
                adapted: vec![0.0; BLOCK],
                drift: vec![DriftSignal::Stable; BLOCK],
                ..Worker::default()
            })
            .collect();
        Mirror {
            slots,
            workers,
            threads,
            adaptive,
        }
    }

    /// Applies the wave's series restarts (a new or reset stream starts
    /// from an empty buffer; adaptive state survives, as in the engine).
    pub fn apply_resets(&mut self, wave: &Wave) {
        for &slot in &wave.reset_slots {
            self.slots[slot].buffer.clear();
        }
    }

    /// Recomposes `wave` stage by stage. Spans are returned only when
    /// `keep_spans` is set.
    ///
    /// # Errors
    ///
    /// A stage call's error.
    pub fn recompose(
        &mut self,
        wrapper: &TimeseriesAwareWrapper,
        wave: &Wave,
        clock: &Clock,
        keep_spans: bool,
    ) -> Result<Recomposed, CoreError> {
        let n = wave.len();
        assert_eq!(n, self.slots.len(), "one step per slot per wave");
        let chunk = n.div_ceil(self.threads.min(n).max(1)).max(1);
        let adaptive = self.adaptive;
        let mut jobs: Vec<(usize, &mut [MirrorSlot], &mut Worker)> = self
            .slots
            .chunks_mut(chunk)
            .zip(self.workers.iter_mut())
            .enumerate()
            .map(|(c, (slots, worker))| (c * chunk, slots, worker))
            .collect();
        let results = parallel::par_map_mut(self.threads, &mut jobs, |(offset, slots, worker)| {
            worker.run(wrapper, wave, *offset, slots, adaptive, clock, keep_spans)
        });
        let mut out = Recomposed {
            steps: Vec::with_capacity(n),
            totals: StageTotals::default(),
            spans: Vec::new(),
        };
        for (result, (_, _, worker)) in results.into_iter().zip(jobs.iter_mut()) {
            result?;
            out.steps.append(&mut worker.out);
            out.totals.add(&worker.totals);
            out.spans.append(&mut worker.spans);
        }
        Ok(out)
    }
}

impl Worker {
    fn close(
        &mut self,
        k: usize,
        start: (u64, u64),
        calls: usize,
        clock: &Clock,
        wave: i64,
        keep: bool,
    ) -> (u64, u64) {
        let end = (clock.ns(), alloc::thread_count());
        self.totals.ns[k] += end.0 - start.0;
        self.totals.allocs[k] += end.1 - start.1;
        self.totals.calls[k] += calls as u64;
        if keep {
            self.spans.push(Span {
                id: 0,
                parent: 0,
                wave,
                name: STAGES[k],
                start_ns: start.0,
                end_ns: end.0,
                calls: calls as u32,
                allocs: end.1 - start.1,
            });
        }
        // Re-read so span bookkeeping stays outside the next stage.
        (clock.ns(), alloc::thread_count())
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        wrapper: &TimeseriesAwareWrapper,
        wave: &Wave,
        offset: usize,
        slots: &mut [MirrorSlot],
        adaptive: bool,
        clock: &Clock,
        keep: bool,
    ) -> Result<(), CoreError> {
        self.out.clear();
        self.spans.clear();
        self.totals = StageTotals::default();
        let w = wave.index as i64;
        let len = slots.len();
        for start in (0..len).step_by(BLOCK) {
            let block = &mut slots[start..(start + BLOCK).min(len)];
            let m = block.len();
            let base = offset + start;

            let mut t = (clock.ns(), alloc::thread_count());
            for j in 0..m {
                self.u[j] = wrapper.stateless().uncertainty(wave.qf(base + j))?;
            }
            t = self.close(0, t, m, clock, w, keep);
            for (j, slot) in block.iter_mut().enumerate() {
                slot.buffer.push(wave.outcomes[base + j], self.u[j]);
                self.fused[j] = slot.buffer.fused_outcome().expect("non-empty after push");
            }
            t = self.close(1, t, m, clock, w, keep);
            for (j, slot) in block.iter().enumerate() {
                self.taqf[j] = TaqfVector::compute(&slot.buffer, self.fused[j]);
            }
            t = self.close(2, t, m, clock, w, keep);
            for j in 0..m {
                let taqf = self.taqf[j].as_ref().expect("non-empty buffer");
                self.bound[j] = wrapper.ta_uncertainty_with_scratch(
                    &mut self.scratch,
                    wave.qf(base + j),
                    taqf,
                )?;
            }
            t = self.close(3, t, m, clock, w, keep);
            if adaptive {
                for j in 0..m {
                    let taqf = self.taqf[j].as_ref().expect("non-empty buffer");
                    self.support[j] = wrapper.route_support_with_scratch(
                        &mut self.scratch,
                        wave.qf(base + j),
                        taqf,
                    )?;
                }
                t = self.close(4, t, m, clock, w, keep);
                for (j, slot) in block.iter_mut().enumerate() {
                    let state = slot.state.as_mut().expect("adaptive mirror carries state");
                    self.adapted[j] = state.adapted_bound(self.bound[j]);
                    self.drift[j] = state.classify(self.support[j]);
                    state.observe(self.adapted[j], wave.failed[base + j]);
                }
                self.close(5, t, m, clock, w, keep);
            }
            for (j, slot) in block.iter().enumerate() {
                self.out.push(TauwStep {
                    fused_outcome: self.fused[j],
                    uncertainty: self.bound[j],
                    stateless_uncertainty: self.u[j],
                    taqf: self.taqf[j].expect("non-empty buffer"),
                    series_length: usize::try_from(slot.buffer.total_steps()).unwrap_or(usize::MAX),
                    adapted_uncertainty: if adaptive {
                        self.adapted[j]
                    } else {
                        self.bound[j]
                    },
                    drift: if adaptive {
                        self.drift[j]
                    } else {
                        DriftSignal::Stable
                    },
                });
            }
        }
        Ok(())
    }
}
