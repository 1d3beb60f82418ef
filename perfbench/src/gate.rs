//! The correctness gate: a fixed sample of streams is replayed through
//! per-stream reference sessions, and every served step of those streams
//! must match the reference bit for bit.
//!
//! The vehicle workload's buffers are unbounded, so its reference is a
//! plain [`TauwSession`]. A session has no sliding window, so on the
//! windowed fleets the reference is the session's own per-step routine
//! (`step_with_buffer`) over a private window of the engine's size, and on
//! the adaptive workload that step is followed by the adaptive session's
//! calls in its order: `adapted_bound`, `route_support`, `classify`,
//! `observe`.

use crate::workload::Wave;
use tauw_core::adaptive::{AdaptiveConfig, AdaptiveState};
use tauw_core::buffer::TimeseriesBuffer;
use tauw_core::tauw::{TauwSession, TauwStep, TimeseriesAwareWrapper};
use tauw_core::CoreError;

/// Whether two steps agree on every field, comparing floats by their bits.
pub fn same_bits(a: &TauwStep, b: &TauwStep) -> bool {
    a.fused_outcome == b.fused_outcome
        && a.uncertainty.to_bits() == b.uncertainty.to_bits()
        && a.stateless_uncertainty.to_bits() == b.stateless_uncertainty.to_bits()
        && a.adapted_uncertainty.to_bits() == b.adapted_uncertainty.to_bits()
        && a.series_length == b.series_length
        && a.taqf.ratio.to_bits() == b.taqf.ratio.to_bits()
        && a.taqf.length.to_bits() == b.taqf.length.to_bits()
        && a.taqf.unique_outcomes.to_bits() == b.taqf.unique_outcomes.to_bits()
        && a.taqf.cumulative_certainty.to_bits() == b.taqf.cumulative_certainty.to_bits()
        && a.drift == b.drift
}

/// How a workload's streams are replayed for reference.
#[derive(Debug, Clone, Copy)]
pub enum RefKind {
    /// A [`TauwSession`] per stream (unbounded buffers).
    Session,
    /// The session step over a window of this many steps.
    Windowed(usize),
    /// The adaptive session step over a window of this many steps.
    Adaptive(usize, AdaptiveConfig),
}

enum Ref<'w> {
    Session(TauwSession<'w>),
    Windowed(TimeseriesBuffer),
    Adaptive(TimeseriesBuffer, AdaptiveState),
}

/// Reference sessions for a fixed sample of slots.
pub struct Gate<'w> {
    wrapper: &'w TimeseriesAwareWrapper,
    sample: Vec<usize>,
    refs: Vec<Ref<'w>>,
    /// Sampled steps compared so far.
    pub checked: u64,
    /// First mismatch or reference error, if any.
    pub failure: Option<String>,
}

impl<'w> Gate<'w> {
    /// Samples up to `size` slots spread evenly over `slots`.
    ///
    /// # Errors
    ///
    /// An invalid adaptive configuration.
    pub fn new(
        wrapper: &'w TimeseriesAwareWrapper,
        kind: RefKind,
        slots: usize,
        size: usize,
    ) -> Result<Self, CoreError> {
        let size = size.min(slots);
        let sample: Vec<usize> = (0..size).map(|i| i * slots / size).collect();
        let refs = sample
            .iter()
            .map(|_| {
                Ok(match kind {
                    RefKind::Session => Ref::Session(wrapper.new_session()),
                    RefKind::Windowed(w) => Ref::Windowed(TimeseriesBuffer::bounded(w)),
                    RefKind::Adaptive(w, config) => {
                        Ref::Adaptive(TimeseriesBuffer::bounded(w), AdaptiveState::new(config)?)
                    }
                })
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(Gate {
            wrapper,
            sample,
            refs,
            checked: 0,
            failure: None,
        })
    }

    /// Replays the sampled slots of `wave` and compares them with `served`.
    pub fn check(&mut self, wave: &Wave, served: &[TauwStep]) {
        for (k, &slot) in self.sample.iter().enumerate() {
            let reset = wave.reset_slots.contains(&slot);
            let reference = match step(self.wrapper, &mut self.refs[k], wave, slot, reset) {
                Ok(step) => step,
                Err(e) => {
                    self.failure
                        .get_or_insert(format!("reference step failed: {e}"));
                    continue;
                }
            };
            self.checked += 1;
            if !same_bits(&reference, &served[slot]) && self.failure.is_none() {
                self.failure = Some(format!(
                    "wave {} {}: served {:?}, reference {:?}",
                    wave.index, wave.streams[slot], served[slot], reference
                ));
            }
        }
    }
}

fn step(
    wrapper: &TimeseriesAwareWrapper,
    reference: &mut Ref<'_>,
    wave: &Wave,
    slot: usize,
    reset: bool,
) -> Result<TauwStep, CoreError> {
    let (qf, outcome) = (wave.qf(slot), wave.outcomes[slot]);
    match reference {
        Ref::Session(session) => {
            if reset {
                session.begin_series();
            }
            session.step(qf, outcome)
        }
        Ref::Windowed(buffer) => {
            if reset {
                buffer.clear();
            }
            wrapper.step_with_buffer(buffer, qf, outcome)
        }
        Ref::Adaptive(buffer, state) => {
            if reset {
                buffer.clear();
            }
            let mut step = wrapper.step_with_buffer(buffer, qf, outcome)?;
            step.adapted_uncertainty = state.adapted_bound(step.uncertainty);
            step.drift = state.classify(wrapper.route_support(qf, &step.taqf)?);
            state.observe(step.adapted_uncertainty, wave.failed[slot]);
            Ok(step)
        }
    }
}
