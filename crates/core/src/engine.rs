//! Multi-stream inference engine: one trained wrapper serving many
//! concurrent timeseries.
//!
//! A [`crate::tauw::TauwSession`] monitors exactly one stream. Production
//! deployments (one camera per vehicle, millions of users) need one set of
//! trained models to serve *many* interleaved series at once. The
//! [`TauwEngine`] owns the trained [`TimeseriesAwareWrapper`] plus one
//! [`TimeseriesBuffer`] per [`StreamId`], and exposes a batched
//! [`TauwEngine::step_many`] that fans independent streams out over a
//! thread budget.
//!
//! Two guarantees:
//!
//! * **Session equivalence** — every engine step delegates to the same
//!   [`TimeseriesAwareWrapper::step_with_buffer`] a session uses (and
//!   thereby to the same compiled [`tauw_dtree::FlatTree`] lookups), so an
//!   engine serving N streams produces bit-identical estimates to N
//!   sequential sessions (asserted by `tests/determinism.rs`).
//! * **Batch-order semantics** — a batch behaves exactly as if its steps
//!   were applied one by one in batch order; steps of the *same* stream
//!   within one batch see each other's effects in order.
//!
//! Per-step cost is O(1) in the series length: buffers are rings and the
//! taQF/fusion terms are running aggregates (see [`crate::buffer`]), so a
//! stream that has been alive for a million steps costs the same to step
//! as a fresh one — with or without a window bound.

use crate::adaptive::{adaptive_step_with_parts, AdaptiveConfig, AdaptiveState, DriftSignal};
use crate::buffer::TimeseriesBuffer;
use crate::calibration::ServingScratch;
use crate::error::CoreError;
use crate::sharded::splitmix64;
use crate::tauw::{TauwStep, TimeseriesAwareWrapper};
use crate::training::TrainingSeries;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Identifier of one logical stream (one tracked object / user / camera).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

/// One unit of batched work for [`TauwEngine::step_many`]: the stream it
/// belongs to, the step's quality factors, and the DDM outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStep {
    /// Target stream (created on first use).
    pub stream: StreamId,
    /// Stateless quality factors of this step.
    pub quality_factors: Vec<f64>,
    /// DDM outcome (class id) of this step.
    pub outcome: u32,
}

impl StreamStep {
    /// Convenience constructor.
    pub fn new(stream: StreamId, quality_factors: Vec<f64>, outcome: u32) -> Self {
        StreamStep {
            stream,
            quality_factors,
            outcome,
        }
    }
}

/// One unit of batched work for [`TauwEngine::step_many_adaptive`]: a
/// [`StreamStep`] plus the step's realized ground truth, which feeds the
/// stream's coverage window *after* its adapted bound is served.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveStreamStep {
    /// Target stream (created on first use).
    pub stream: StreamId,
    /// Stateless quality factors of this step.
    pub quality_factors: Vec<f64>,
    /// DDM outcome (class id) of this step.
    pub outcome: u32,
    /// Whether the DDM's reading was actually wrong at this step (the
    /// realized outcome the served bound promised to cover).
    pub failed: bool,
}

impl AdaptiveStreamStep {
    /// Convenience constructor.
    pub fn new(stream: StreamId, quality_factors: Vec<f64>, outcome: u32, failed: bool) -> Self {
        AdaptiveStreamStep {
            stream,
            quality_factors,
            outcome,
            failed,
        }
    }
}

/// A trained wrapper plus per-stream runtime state.
///
/// # Examples
///
/// ```
/// use tauw_core::calibration::CalibrationOptions;
/// use tauw_core::engine::{StreamId, StreamStep};
/// use tauw_core::tauw::TauwBuilder;
/// use tauw_core::training::{TrainingSeries, TrainingStep};
/// use tauw_core::wrapper::WrapperBuilder;
///
/// // Train a tiny wrapper (same toy world as the crate quickstart).
/// let series = |q: f64, outcomes: &[u32]| TrainingSeries {
///     true_outcome: 0,
///     steps: outcomes
///         .iter()
///         .map(|&o| TrainingStep { quality_factors: vec![q], outcome: o })
///         .collect(),
/// };
/// let mut train = Vec::new();
/// let mut calib = Vec::new();
/// for i in 0..120 {
///     let q = (i % 12) as f64 / 12.0;
///     let outcomes: Vec<u32> = (0..10).map(|j| u32::from(q > 0.6 && j % 3 == 0)).collect();
///     train.push(series(q, &outcomes));
///     calib.push(series(q, &outcomes));
/// }
/// let mut wb = WrapperBuilder::new();
/// wb.max_depth(3).calibration(CalibrationOptions {
///     min_samples_per_leaf: 50,
///     confidence: 0.99,
///     ..Default::default()
/// });
/// let mut builder = TauwBuilder::new();
/// builder.wrapper(wb);
/// let tauw = builder.fit(vec!["q".into()], &train, &calib)?;
///
/// // One engine, two concurrent streams, one batched call per "frame".
/// let mut engine = tauw.into_engine();
/// let batch = vec![
///     StreamStep::new(StreamId(1), vec![0.1], 0),
///     StreamStep::new(StreamId(2), vec![0.9], 1),
/// ];
/// let steps = engine.step_many(&batch)?;
/// assert_eq!(steps.len(), 2);
/// assert_eq!(steps[0].fused_outcome, 0);
/// assert_eq!(engine.n_streams(), 2);
/// // Each stream evolved independently, as if it had its own session.
/// assert_eq!(engine.stream_len(StreamId(1)), Some(1));
/// # Ok::<(), tauw_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TauwEngine {
    wrapper: TimeseriesAwareWrapper,
    /// Every live stream's serving state, in one dense table.
    table: StreamTable,
    adaptive_config: Option<AdaptiveConfig>,
    buffer_capacity: Option<usize>,
    n_threads: Option<usize>,
    /// Reusable per-wave scaffolding for the batched step paths (grouping
    /// order, worker ranges, per-worker scratch and output) — hoisted onto
    /// the engine so steady-state waves stop churning the allocator.
    wave: WaveScratch,
}

/// One stream's serving state: its fusion buffer and, once the stream has
/// served an adaptive step or had state imported, its adaptive state.
#[derive(Debug, Clone)]
struct StreamEntry {
    stream: StreamId,
    buffer: TimeseriesBuffer,
    adaptive: Option<AdaptiveState>,
}

impl StreamEntry {
    /// The entry's buffer and adaptive state, the latter created from
    /// `config` on first use.
    fn adaptive_parts(
        &mut self,
        config: AdaptiveConfig,
    ) -> Result<(&mut TimeseriesBuffer, &mut AdaptiveState), CoreError> {
        let state = match self.adaptive.take() {
            Some(state) => state,
            None => AdaptiveState::new(config)?,
        };
        Ok((&mut self.buffer, self.adaptive.insert(state)))
    }
}

/// The dense stream table: entries live in one `Vec`, an id index maps
/// each live stream to its entry, and the entries of ended streams go on a
/// free list that the next new stream reuses. Waves serve entries in
/// place, so no stream state moves between the table and the workers.
#[derive(Debug, Clone, Default)]
struct StreamTable {
    /// Live entries plus the vacated ones listed in `free`.
    entries: Vec<StreamEntry>,
    /// Live stream → its index in `entries`.
    index: HashMap<StreamId, u32, IndexHashBuilder>,
    /// Vacated entry indices; a vacated entry holds no heap state.
    free: Vec<u32>,
}

impl StreamTable {
    fn get(&self, stream: StreamId) -> Option<&StreamEntry> {
        let &slot = self.index.get(&stream)?;
        Some(&self.entries[slot as usize])
    }

    /// The table index of `stream`, creating an entry with a fresh buffer
    /// (on a vacated index, if any) when the stream is new.
    fn slot(&mut self, stream: StreamId, capacity: Option<usize>) -> usize {
        match self.index.entry(stream) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                let entry = StreamEntry {
                    stream,
                    buffer: new_buffer(capacity),
                    adaptive: None,
                };
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.entries[slot as usize] = entry;
                        slot
                    }
                    None => {
                        // 2^32 entries would take hundreds of GB of
                        // buffers, far past any configured memory.
                        let slot = u32::try_from(self.entries.len())
                            .expect("stream table holds fewer than 2^32 entries");
                        self.entries.push(entry);
                        slot
                    }
                };
                *e.insert(slot) as usize
            }
        }
    }

    fn entry_mut(&mut self, stream: StreamId, capacity: Option<usize>) -> &mut StreamEntry {
        let slot = self.slot(stream, capacity);
        &mut self.entries[slot]
    }

    /// Ends a stream: its entry drops its heap state at once and goes on
    /// the free list. Returns whether the stream existed.
    fn remove(&mut self, stream: StreamId) -> bool {
        let Some(slot) = self.index.remove(&stream) else {
            return false;
        };
        let entry = &mut self.entries[slot as usize];
        entry.buffer = TimeseriesBuffer::new();
        entry.adaptive = None;
        self.free.push(slot);
        true
    }
}

/// The stream-index hash (the only place it is defined): the SplitMix64
/// finalizer of the salted id. The salt keeps it independent of the shard
/// hash: a shard's streams all share `splitmix64(id) % K`, so the unsalted
/// finalizer would crowd them into `1/K` of the index's buckets (the index
/// picks buckets from the low bits).
fn index_hash(salt: u64, id: u64) -> u64 {
    splitmix64(id ^ salt)
}

/// Builds the stream index's hashers. Stream ids come from outside the
/// program, so each table draws its salt from std's [`RandomState`]: ids
/// crafted to collide under one salt do not collide under another.
/// Nothing depends on the index's iteration order
/// ([`TauwEngine::stream_ids`] sorts).
#[derive(Debug, Clone)]
struct IndexHashBuilder(u64);

impl Default for IndexHashBuilder {
    fn default() -> Self {
        IndexHashBuilder(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IndexHashBuilder {
    type Hasher = IndexHasher;

    fn build_hasher(&self) -> IndexHasher {
        IndexHasher(self.0)
    }
}

/// [`Hasher`] for the stream index, starting from the table's salt.
/// [`StreamId`] hashes as one `u64`, which [`index_hash`] finalizes; the
/// byte path exists for completeness.
#[derive(Debug, Clone, Copy)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = index_hash(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = index_hash(self.0, id);
    }
}

/// The engine's reusable wave scaffolding.
#[derive(Debug, Clone, Default)]
struct WaveScratch {
    /// One key per batch entry, `table index << 32 | batch position`,
    /// sorted so each stream's steps form one run in batch order.
    order: Vec<u64>,
    /// Boundaries in `order` of the workers' ranges.
    cuts: Vec<usize>,
    /// Per-worker serving scratch and output staging; worker 0's scratch
    /// also serves the single-step calls.
    workers: Vec<WaveWorker>,
}

impl WaveScratch {
    /// The serving scratch of the single-step paths.
    fn single(&mut self) -> &mut ServingScratch {
        if self.workers.is_empty() {
            self.workers.push(WaveWorker::default());
        }
        &mut self.workers[0].scratch
    }
}

#[derive(Debug, Clone, Default)]
struct WaveWorker {
    scratch: ServingScratch,
    /// Results of the worker's range, in `order` sequence.
    output: Vec<TauwStep>,
}

/// One worker's share of a wave: a contiguous range of the sorted order
/// and the contiguous table range (starting at index `base`) it touches.
struct WaveJob<'a> {
    base: usize,
    keys: &'a [u64],
    entries: &'a mut [StreamEntry],
    worker: &'a mut WaveWorker,
}

const POSITION_BITS: u32 = 32;
const POSITION_MASK: u64 = (1 << POSITION_BITS) - 1;

fn slot_of(key: u64) -> usize {
    (key >> POSITION_BITS) as usize
}

fn position_of(key: u64) -> usize {
    (key & POSITION_MASK) as usize
}

impl WaveJob<'_> {
    /// Serves the job's steps in order. A failing stream skips its
    /// remaining steps while the other streams carry on; the result is the
    /// error of the lowest failing stream id.
    fn run<S>(
        &mut self,
        wrapper: &TimeseriesAwareWrapper,
        serve: &S,
    ) -> Option<(StreamId, CoreError)>
    where
        S: Fn(
            &TimeseriesAwareWrapper,
            &mut StreamEntry,
            &mut ServingScratch,
            usize,
        ) -> Result<TauwStep, CoreError>,
    {
        self.worker.output.clear();
        let mut first_err: Option<(StreamId, CoreError)> = None;
        let mut failed_slot = usize::MAX;
        for &key in self.keys {
            let slot = slot_of(key);
            if slot == failed_slot {
                continue;
            }
            let entry = &mut self.entries[slot - self.base];
            match serve(wrapper, entry, &mut self.worker.scratch, position_of(key)) {
                Ok(step) => self.worker.output.push(step),
                Err(e) => {
                    failed_slot = slot;
                    if first_err.as_ref().is_none_or(|(id, _)| entry.stream < *id) {
                        first_err = Some((entry.stream, e));
                    }
                }
            }
        }
        first_err
    }
}

/// Cuts the sorted `order` into at most `parts` contiguous ranges of about
/// equal step count, never inside one stream's run. `cuts` receives the
/// boundaries, from 0 to `order.len()`.
fn partition(order: &[u64], parts: usize, cuts: &mut Vec<usize>) {
    let n = order.len();
    cuts.clear();
    cuts.push(0);
    let mut last = 0;
    for r in 1..parts {
        let mut at = (n * r / parts).max(last);
        while at > 0 && at < n && slot_of(order[at]) == slot_of(order[at - 1]) {
            at += 1;
        }
        if at > last && at < n {
            cuts.push(at);
            last = at;
        }
    }
    cuts.push(n);
}

impl TauwEngine {
    /// Creates an engine around a trained wrapper with no active streams.
    pub fn new(wrapper: TimeseriesAwareWrapper) -> Self {
        TauwEngine {
            wrapper,
            table: StreamTable::default(),
            adaptive_config: None,
            buffer_capacity: None,
            n_threads: None,
            wave: WaveScratch::default(),
        }
    }

    /// Bounds every *newly created* stream buffer to a sliding window of
    /// `capacity` steps (see [`TimeseriesBuffer::bounded`]); existing
    /// streams keep their buffers. Unbounded by default.
    pub fn buffer_capacity(&mut self, capacity: usize) -> &mut Self {
        self.buffer_capacity = Some(capacity.max(1));
        self
    }

    /// Pins the thread budget for [`TauwEngine::step_many`] (clamped to
    /// ≥ 1). Unpinned engines use [`parallel::max_threads`]. Results are
    /// bit-identical for every budget.
    pub fn threads(&mut self, n: usize) -> &mut Self {
        self.n_threads = Some(n.max(1));
        self
    }

    /// The trained wrapper the engine serves.
    pub fn wrapper(&self) -> &TimeseriesAwareWrapper {
        &self.wrapper
    }

    /// Consumes the engine, returning the wrapper.
    pub fn into_wrapper(self) -> TimeseriesAwareWrapper {
        self.wrapper
    }

    /// Number of active streams.
    pub fn n_streams(&self) -> usize {
        self.table.index.len()
    }

    /// Active stream ids in ascending order.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self.table.index.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Steps currently buffered for a stream (the window occupancy for
    /// bounded buffers), or `None` if the stream is unknown. See
    /// [`TauwEngine::stream_total_steps`] for the lifetime series length.
    pub fn stream_len(&self, stream: StreamId) -> Option<usize> {
        self.stream_buffer(stream).map(TimeseriesBuffer::len)
    }

    /// Lifetime steps of the stream's current series (`i + 1`, which
    /// window eviction does not shrink), or `None` if the stream is
    /// unknown.
    pub fn stream_total_steps(&self, stream: StreamId) -> Option<u64> {
        self.stream_buffer(stream)
            .map(TimeseriesBuffer::total_steps)
    }

    /// Read access to a stream's buffer (diagnostics).
    pub fn stream_buffer(&self, stream: StreamId) -> Option<&TimeseriesBuffer> {
        self.table.get(stream).map(|entry| &entry.buffer)
    }

    /// Clears a stream's buffer (tracking reported a new physical object on
    /// that stream), creating the stream if it does not exist yet.
    ///
    /// This resets the fusion window **and** the lifetime step counter:
    /// afterwards [`TauwEngine::stream_total_steps`] reads `Some(0)` and
    /// the next step's `series_length` (and taQF2) restarts at 1 — exactly
    /// the semantics of [`crate::tauw::TauwSession::begin_series`] on the
    /// single-stream path (the regression suite pins both). Adaptive
    /// calibration state, if enabled, deliberately survives: drift is a
    /// property of the stream, not of the tracked object.
    pub fn begin_series(&mut self, stream: StreamId) {
        let known = self.table.index.contains_key(&stream);
        let entry = self.table.entry_mut(stream, self.buffer_capacity);
        if known {
            entry.buffer.clear();
        }
    }

    /// Removes a stream and its buffer entirely (the object left the scene
    /// / the user disconnected), including any adaptive state. The stream's
    /// heap state is released at once and its table entry is reused by the
    /// next new stream, so steady-state memory tracks the *live* stream
    /// count rather than the historical total. Returns whether the stream
    /// existed.
    pub fn end_stream(&mut self, stream: StreamId) -> bool {
        self.table.remove(stream)
    }

    /// Removes all streams (including their adaptive state) and releases
    /// the stream table and the wave scaffolding entirely.
    pub fn clear_streams(&mut self) {
        self.table = StreamTable::default();
        self.wave = WaveScratch::default();
    }

    /// Exports a stream's complete self-contained runtime state (fusion
    /// buffer plus adaptive state, if any) for engine handover — the
    /// building block of [`crate::sharded`] snapshots. Returns `None` for
    /// unknown streams.
    pub fn export_stream(
        &self,
        stream: StreamId,
    ) -> Option<(TimeseriesBuffer, Option<AdaptiveState>)> {
        let entry = self.table.get(stream)?;
        Some((entry.buffer.clone(), entry.adaptive.clone()))
    }

    /// Installs a stream's complete runtime state (the counterpart of
    /// [`TauwEngine::export_stream`], used by snapshot restore and
    /// resharding). Replaces any existing state for `stream`; passing
    /// `adaptive: None` drops previously held adaptive state so the import
    /// is a faithful overwrite.
    pub fn import_stream(
        &mut self,
        stream: StreamId,
        buffer: TimeseriesBuffer,
        adaptive: Option<AdaptiveState>,
    ) {
        let entry = self.table.entry_mut(stream, self.buffer_capacity);
        entry.buffer = buffer;
        entry.adaptive = adaptive;
    }

    /// Processes one timestep on one stream (created on first use).
    /// Equivalent to [`crate::tauw::TauwSession::step`] on that stream's
    /// dedicated session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch, in which case no
    /// stream state is created or modified.
    pub fn step(
        &mut self,
        stream: StreamId,
        quality_factors: &[f64],
        outcome: u32,
    ) -> Result<TauwStep, CoreError> {
        self.check_arity(quality_factors.len())?;
        let entry = self.table.entry_mut(stream, self.buffer_capacity);
        self.wrapper.step_with_parts(
            &mut entry.buffer,
            self.wave.single(),
            quality_factors,
            outcome,
        )
    }

    /// Processes a batch of steps spanning any number of streams,
    /// returning one [`TauwStep`] per input **in batch order**.
    ///
    /// Independent streams fan out over the engine's thread budget; steps
    /// of the same stream are applied in batch order within one worker.
    /// The results are bit-identical to calling [`TauwEngine::step`] for
    /// each entry sequentially (and therefore to N dedicated sessions).
    ///
    /// Prefer [`TauwEngine::step_many_borrowed`] in hot paths where the
    /// quality factors already live elsewhere — it avoids one `Vec`
    /// allocation per step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch of **any** batch
    /// entry; the batch is validated up front, so on error no stream state
    /// has been modified.
    pub fn step_many(&mut self, batch: &[StreamStep]) -> Result<Vec<TauwStep>, CoreError> {
        self.step_many_impl(batch.len(), |i| {
            let step = &batch[i];
            (step.stream, step.quality_factors.as_slice(), step.outcome)
        })
    }

    /// Zero-copy variant of [`TauwEngine::step_many`] over borrowed
    /// quality-factor slices. Identical semantics and results.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch of **any** batch
    /// entry; the batch is validated up front, so on error no stream state
    /// has been modified.
    pub fn step_many_borrowed(
        &mut self,
        batch: &[(StreamId, &[f64], u32)],
    ) -> Result<Vec<TauwStep>, CoreError> {
        self.step_many_impl(batch.len(), |i| batch[i])
    }

    /// Shared batched-step core: `get(i)` yields batch entry `i`. Crate
    /// visibility lets [`crate::sharded::ShardedEngine`] dispatch one wave
    /// per shard through an index indirection without materializing
    /// per-shard sub-batches.
    pub(crate) fn step_many_impl<'a, F>(
        &mut self,
        n: usize,
        get: F,
    ) -> Result<Vec<TauwStep>, CoreError>
    where
        F: Fn(usize) -> (StreamId, &'a [f64], u32) + Sync,
    {
        for i in 0..n {
            self.check_arity(get(i).1.len())?;
        }
        self.serve_wave(
            n,
            |i| get(i).0,
            |wrapper, entry, scratch, i| {
                let (_, quality_factors, outcome) = get(i);
                wrapper.step_with_parts(&mut entry.buffer, scratch, quality_factors, outcome)
            },
        )
    }

    /// The wave core of both batched paths. It resolves every batch entry
    /// to its table index (creating new streams), sorts the
    /// `(table index, batch position)` keys so each stream's steps form
    /// one run in batch order, and cuts them into at most `threads`
    /// ranges balanced by step count. The table is split into matching
    /// contiguous `&mut` ranges, so each worker serves its streams in
    /// place through `serve(wrapper, entry, scratch, position)`; the
    /// results are then scattered back to batch order. Errors report the
    /// lowest failing stream id. The returned `Vec` is the one allocation
    /// inherent to the `step_many` API.
    fn serve_wave<S>(
        &mut self,
        n: usize,
        stream_of: impl Fn(usize) -> StreamId,
        serve: S,
    ) -> Result<Vec<TauwStep>, CoreError>
    where
        S: Fn(
                &TimeseriesAwareWrapper,
                &mut StreamEntry,
                &mut ServingScratch,
                usize,
            ) -> Result<TauwStep, CoreError>
            + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        if n > POSITION_MASK as usize {
            return Err(CoreError::InvalidInput {
                reason: format!("a wave holds at most {POSITION_MASK} steps, got {n}"),
            });
        }
        let WaveScratch {
            order,
            cuts,
            workers,
        } = &mut self.wave;
        order.clear();
        for i in 0..n {
            let slot = self.table.slot(stream_of(i), self.buffer_capacity);
            order.push((slot as u64) << POSITION_BITS | i as u64);
        }
        order.sort_unstable();

        let threads = self.n_threads.unwrap_or_else(parallel::max_threads).max(1);
        partition(order, threads, cuts);
        let parts = cuts.len() - 1;
        if workers.len() < parts {
            workers.resize_with(parts, WaveWorker::default);
        }
        let mut jobs = Vec::with_capacity(parts);
        let mut rest = self.table.entries.as_mut_slice();
        let mut base = 0;
        for (r, worker) in workers[..parts].iter_mut().enumerate() {
            let end = if r + 1 < parts {
                slot_of(order[cuts[r + 1]])
            } else {
                base + rest.len()
            };
            let (entries, tail) = std::mem::take(&mut rest).split_at_mut(end - base);
            jobs.push(WaveJob {
                base,
                keys: &order[cuts[r]..cuts[r + 1]],
                entries,
                worker,
            });
            rest = tail;
            base = end;
        }
        let wrapper = &self.wrapper;
        let failures = parallel::par_map_mut(threads, &mut jobs, |job| job.run(wrapper, &serve));
        drop(jobs);
        if let Some((_, e)) = failures.into_iter().flatten().min_by_key(|(id, _)| *id) {
            return Err(e);
        }

        // Every position appears once in `order`, so the placeholder (the
        // first worker's first result) is overwritten everywhere.
        let mut out = vec![workers[0].output[0]; n];
        for (r, worker) in workers[..parts].iter().enumerate() {
            for (&key, &step) in order[cuts[r]..cuts[r + 1]].iter().zip(&worker.output) {
                out[position_of(key)] = step;
            }
        }
        Ok(out)
    }

    /// Turns on online adaptive calibration (see [`crate::adaptive`]):
    /// every stream gets its own coverage window and bound-correction
    /// state, created lazily on its first adaptive step. Serving via
    /// [`TauwEngine::step_adaptive`] / [`TauwEngine::step_many_adaptive`]
    /// then returns adapted bounds and drift signals.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the config is invalid
    /// (see [`AdaptiveConfig::validate`]).
    pub fn enable_adaptation(&mut self, config: AdaptiveConfig) -> Result<(), CoreError> {
        config.validate()?;
        self.adaptive_config = Some(config);
        Ok(())
    }

    /// The adaptive configuration, if adaptation is enabled.
    pub fn adaptive_config(&self) -> Option<AdaptiveConfig> {
        self.adaptive_config
    }

    /// A stream's adaptive state (diagnostics, persistence), or `None` if
    /// the stream has no adaptive state yet.
    pub fn adaptive_state(&self, stream: StreamId) -> Option<&AdaptiveState> {
        self.table.get(stream)?.adaptive.as_ref()
    }

    /// The drift classification of a stream's most recent adaptive step,
    /// or `None` if the stream has no adaptive state.
    pub fn stream_drift(&self, stream: StreamId) -> Option<DriftSignal> {
        self.adaptive_state(stream).map(AdaptiveState::last_drift)
    }

    /// Installs persisted adaptive state for a stream (resuming a serving
    /// process from an [`AdaptiveState`] artifact). Replaces any existing
    /// state; the state's own config governs that stream from here on. An
    /// unknown stream is registered with an empty buffer, as
    /// [`TauwEngine::begin_series`] does, so it is listed and exported
    /// like every other stream.
    pub fn import_adaptive_state(&mut self, stream: StreamId, state: AdaptiveState) {
        self.table.entry_mut(stream, self.buffer_capacity).adaptive = Some(state);
    }

    fn require_adaptive_config(&self) -> Result<AdaptiveConfig, CoreError> {
        self.adaptive_config.ok_or_else(|| CoreError::InvalidInput {
            reason: "adaptive serving is not enabled — call `TauwEngine::enable_adaptation` first"
                .into(),
        })
    }

    /// Processes one adaptive timestep on one stream (created on first
    /// use). Equivalent to [`crate::adaptive::AdaptiveTauwSession::step`]
    /// on that stream's dedicated adaptive session: serve the adapted
    /// bound, classify drift, then feed `failed` into the coverage window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when adaptation is not enabled,
    /// or [`CoreError`] on feature-arity mismatch — in either case no
    /// stream state is created or modified.
    pub fn step_adaptive(
        &mut self,
        stream: StreamId,
        quality_factors: &[f64],
        outcome: u32,
        failed: bool,
    ) -> Result<TauwStep, CoreError> {
        let config = self.require_adaptive_config()?;
        self.check_arity(quality_factors.len())?;
        let entry = self.table.entry_mut(stream, self.buffer_capacity);
        let (buffer, state) = entry.adaptive_parts(config)?;
        adaptive_step_with_parts(
            &self.wrapper,
            buffer,
            state,
            self.wave.single(),
            quality_factors,
            outcome,
            failed,
        )
    }

    /// Adaptive variant of [`TauwEngine::step_many`]: a batch of
    /// (step, realized outcome) pairs spanning any number of streams,
    /// returning one [`TauwStep`] per input **in batch order** with
    /// [`TauwStep::adapted_uncertainty`] and [`TauwStep::drift`] filled by
    /// each stream's own coverage loop.
    ///
    /// Independent streams fan out over the engine's thread budget; steps
    /// of the same stream apply in batch order within one worker, each
    /// stream's (buffer, adaptive state) pair evolving exactly as its
    /// dedicated [`crate::adaptive::AdaptiveTauwSession`] would — so the
    /// results are bit-identical to N sequential adaptive sessions for
    /// every thread budget (asserted by `tests/determinism.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when adaptation is not enabled,
    /// or [`CoreError`] on feature-arity mismatch of **any** batch entry;
    /// the batch is validated up front, so on error no stream state has
    /// been modified.
    pub fn step_many_adaptive(
        &mut self,
        batch: &[AdaptiveStreamStep],
    ) -> Result<Vec<TauwStep>, CoreError> {
        self.step_many_adaptive_impl(batch.len(), |i| {
            let step = &batch[i];
            (
                step.stream,
                step.quality_factors.as_slice(),
                step.outcome,
                step.failed,
            )
        })
    }

    /// Shared adaptive batched-step core (see [`TauwEngine::step_many_impl`]
    /// for why it is crate-visible): `get(i)` yields batch entry `i` as
    /// `(stream, quality factors, outcome, failed)`.
    pub(crate) fn step_many_adaptive_impl<'a, F>(
        &mut self,
        n: usize,
        get: F,
    ) -> Result<Vec<TauwStep>, CoreError>
    where
        F: Fn(usize) -> (StreamId, &'a [f64], u32, bool) + Sync,
    {
        let config = self.require_adaptive_config()?;
        for i in 0..n {
            self.check_arity(get(i).1.len())?;
        }
        self.serve_wave(
            n,
            |i| get(i).0,
            |wrapper, entry, scratch, i| {
                let (_, quality_factors, outcome, failed) = get(i);
                let (buffer, state) = entry.adaptive_parts(config)?;
                adaptive_step_with_parts(
                    wrapper,
                    buffer,
                    state,
                    scratch,
                    quality_factors,
                    outcome,
                    failed,
                )
            },
        )
    }

    /// Replays a batch of series as concurrent streams: series `s` becomes
    /// stream `StreamId(s as u64)` (reset at the start), and step `j` of
    /// every series is submitted as one batched wave. Returns one
    /// `Vec<TauwStep>` per series, in series order — bit-identical to
    /// replaying each series through its own dedicated session.
    ///
    /// This is the canonical wave-batching loop shared by the experiment
    /// evaluation, the monitoring example, and the bench baseline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on feature-arity mismatch.
    pub fn step_series_waves(
        &mut self,
        series: &[TrainingSeries],
    ) -> Result<Vec<Vec<TauwStep>>, CoreError> {
        for s in 0..series.len() {
            self.begin_series(StreamId(s as u64));
        }
        let window_len = series.iter().map(TrainingSeries::len).max().unwrap_or(0);
        let mut out: Vec<Vec<TauwStep>> =
            series.iter().map(|s| Vec::with_capacity(s.len())).collect();
        let mut positions: Vec<usize> = Vec::with_capacity(series.len());
        let mut batch: Vec<(StreamId, &[f64], u32)> = Vec::with_capacity(series.len());
        for j in 0..window_len {
            positions.clear();
            batch.clear();
            for (s, ts) in series.iter().enumerate() {
                if let Some(step) = ts.steps.get(j) {
                    positions.push(s);
                    batch.push((
                        StreamId(s as u64),
                        step.quality_factors.as_slice(),
                        step.outcome,
                    ));
                }
            }
            if batch.is_empty() {
                break;
            }
            for (&s, step) in positions.iter().zip(self.step_many_borrowed(&batch)?) {
                out[s].push(step);
            }
        }
        Ok(out)
    }

    pub(crate) fn check_arity(&self, actual: usize) -> Result<(), CoreError> {
        let expected = self.wrapper.stateless().feature_names().len();
        if actual != expected {
            return Err(CoreError::FeatureArityMismatch { expected, actual });
        }
        Ok(())
    }
}

fn new_buffer(capacity: Option<usize>) -> TimeseriesBuffer {
    match capacity {
        Some(cap) => TimeseriesBuffer::bounded(cap),
        None => TimeseriesBuffer::with_capacity(32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::CalibrationOptions;
    use crate::tauw::TauwBuilder;
    use crate::training::{TrainingSeries, TrainingStep};
    use crate::wrapper::WrapperBuilder;

    /// Same miniature world as the `tauw` module tests.
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
                let series_bias = next() < 0.5;
                let steps = (0..steps)
                    .map(|_| {
                        let p_fail = (q * if series_bias { 1.3 } else { 0.5 }).min(0.95);
                        let failed = next() < p_fail;
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

    fn fitted() -> TimeseriesAwareWrapper {
        let train = make_series(300, 1, 10);
        let calib = make_series(300, 2, 10);
        let mut wb = WrapperBuilder::new();
        wb.max_depth(3).calibration(CalibrationOptions {
            min_samples_per_leaf: 50,
            confidence: 0.99,
            ..Default::default()
        });
        let mut b = TauwBuilder::new();
        b.wrapper(wb);
        b.fit(vec!["q".into()], &train, &calib).unwrap()
    }

    #[test]
    fn streams_are_created_on_first_step_and_independent() {
        let mut engine = fitted().into_engine();
        let a = engine.step(StreamId(10), &[0.2], 7).unwrap();
        let b = engine.step(StreamId(20), &[0.2], 3).unwrap();
        assert_eq!(engine.n_streams(), 2);
        assert_eq!(a.fused_outcome, 7);
        assert_eq!(b.fused_outcome, 3);
        assert_eq!(engine.stream_len(StreamId(10)), Some(1));
        assert_eq!(engine.stream_len(StreamId(99)), None);
        assert_eq!(engine.stream_ids(), vec![StreamId(10), StreamId(20)]);
    }

    #[test]
    fn engine_step_matches_session_step_exactly() {
        let tauw = fitted();
        let mut engine = tauw.clone().into_engine();
        let mut session = tauw.new_session();
        for (i, &(q, o)) in [(0.1, 7), (0.5, 3), (0.2, 7), (0.9, 3)].iter().enumerate() {
            let from_engine = engine.step(StreamId(0), &[q], o).unwrap();
            let from_session = session.step(&[q], o).unwrap();
            assert_eq!(from_engine, from_session, "step {i}");
            assert_eq!(
                from_engine.uncertainty.to_bits(),
                from_session.uncertainty.to_bits()
            );
        }
    }

    #[test]
    fn step_many_preserves_batch_order_and_intra_stream_sequencing() {
        let tauw = fitted();
        let mut engine = tauw.clone().into_engine();
        // Stream 5 appears twice in one batch: the second occurrence must
        // see the first one's push (series_length 2).
        let batch = vec![
            StreamStep::new(StreamId(5), vec![0.1], 7),
            StreamStep::new(StreamId(9), vec![0.4], 3),
            StreamStep::new(StreamId(5), vec![0.1], 3),
        ];
        let out = engine.step_many(&batch).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].series_length, 1);
        assert_eq!(out[1].series_length, 1);
        assert_eq!(out[2].series_length, 2);
        assert_eq!(out[2].fused_outcome, 3, "tie breaks to most recent");

        let mut session = tauw.new_session();
        assert_eq!(session.step(&[0.1], 7).unwrap(), out[0]);
        assert_eq!(session.step(&[0.1], 3).unwrap(), out[2]);
    }

    #[test]
    fn step_many_rejects_bad_arity_without_mutating_state() {
        let mut engine = fitted().into_engine();
        engine.step(StreamId(1), &[0.3], 7).unwrap();
        let batch = vec![
            StreamStep::new(StreamId(1), vec![0.1], 7),
            StreamStep::new(StreamId(2), vec![0.1, 0.2], 7),
        ];
        assert!(matches!(
            engine.step_many(&batch),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        assert_eq!(
            engine.stream_len(StreamId(1)),
            Some(1),
            "failed batch must not advance any stream"
        );
        assert_eq!(engine.stream_len(StreamId(2)), None);
    }

    #[test]
    fn step_rejects_bad_arity_without_creating_a_phantom_stream() {
        let mut engine = fitted().into_engine();
        assert!(matches!(
            engine.step(StreamId(77), &[0.1, 0.2], 7),
            Err(CoreError::FeatureArityMismatch { .. })
        ));
        assert_eq!(
            engine.n_streams(),
            0,
            "failed step must not register a stream"
        );
        assert_eq!(engine.stream_len(StreamId(77)), None);
    }

    #[test]
    fn step_many_borrowed_matches_owned_batches_exactly() {
        let tauw = fitted();
        let qfs = [[0.1], [0.5], [0.1], [0.9]];
        let entries = [
            (StreamId(1), 7u32),
            (StreamId(2), 3),
            (StreamId(1), 3),
            (StreamId(2), 3),
        ];
        let mut owned_engine = tauw.clone().into_engine();
        let owned_batch: Vec<StreamStep> = entries
            .iter()
            .zip(&qfs)
            .map(|(&(stream, outcome), qf)| StreamStep::new(stream, qf.to_vec(), outcome))
            .collect();
        let owned = owned_engine.step_many(&owned_batch).unwrap();

        let mut borrowed_engine = tauw.into_engine();
        let borrowed_batch: Vec<(StreamId, &[f64], u32)> = entries
            .iter()
            .zip(&qfs)
            .map(|(&(stream, outcome), qf)| (stream, qf.as_slice(), outcome))
            .collect();
        let borrowed = borrowed_engine.step_many_borrowed(&borrowed_batch).unwrap();
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn begin_series_and_end_stream_manage_lifecycle() {
        let mut engine = fitted().into_engine();
        engine.step(StreamId(3), &[0.1], 7).unwrap();
        engine.step(StreamId(3), &[0.1], 7).unwrap();
        engine.begin_series(StreamId(3));
        assert_eq!(engine.stream_len(StreamId(3)), Some(0));
        engine.begin_series(StreamId(4)); // creates an empty stream
        assert_eq!(engine.stream_len(StreamId(4)), Some(0));
        assert!(engine.end_stream(StreamId(3)));
        assert!(!engine.end_stream(StreamId(3)));
        engine.clear_streams();
        assert_eq!(engine.n_streams(), 0);
    }

    #[test]
    fn bounded_engine_buffers_slide() {
        let mut engine = fitted().into_engine();
        engine.buffer_capacity(2);
        for _ in 0..5 {
            engine.step(StreamId(0), &[0.2], 7).unwrap();
        }
        assert_eq!(engine.stream_len(StreamId(0)), Some(2));
        assert_eq!(
            engine.stream_buffer(StreamId(0)).unwrap().capacity(),
            Some(2)
        );
        // The sliding window bounds memory, but taQF2 stays the paper's
        // lifetime series length `i + 1` (it used to be capped at the
        // window size — the windowed-semantics bugfix).
        let out = engine.step(StreamId(0), &[0.2], 7).unwrap();
        assert_eq!(out.taqf.length, 6.0);
        assert_eq!(out.series_length, 6);
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(6));
        assert_eq!(engine.stream_len(StreamId(0)), Some(2));
        // taQF1/3/4 in contrast are windowed: 2 agreeing steps of the
        // window, one distinct class.
        assert_eq!(out.taqf.ratio, 1.0);
        assert_eq!(out.taqf.unique_outcomes, 1.0);
        assert!(out.taqf.cumulative_certainty <= 2.0);
        engine.begin_series(StreamId(0));
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(0));
    }

    #[test]
    fn step_many_is_identical_across_thread_budgets() {
        let tauw = fitted();
        let series = make_series(24, 77, 10);
        let mut baseline: Option<Vec<TauwStep>> = None;
        for threads in [1usize, 2, 8] {
            let mut engine = tauw.clone().into_engine();
            engine.threads(threads);
            let mut all = Vec::new();
            for j in 0..10 {
                let batch: Vec<StreamStep> = series
                    .iter()
                    .enumerate()
                    .map(|(s, ts)| {
                        let step = &ts.steps[j];
                        StreamStep::new(
                            StreamId(s as u64),
                            step.quality_factors.clone(),
                            step.outcome,
                        )
                    })
                    .collect();
                all.extend(engine.step_many(&batch).unwrap());
            }
            match &baseline {
                None => baseline = Some(all),
                Some(expected) => assert_eq!(expected, &all, "threads={threads}"),
            }
        }
    }

    #[test]
    fn step_series_waves_matches_dedicated_sessions() {
        let tauw = fitted();
        let series = make_series(12, 5, 7);
        let mut engine = tauw.clone().into_engine();
        let waves = engine.step_series_waves(&series).unwrap();
        assert_eq!(waves.len(), series.len());
        for (s, ts) in series.iter().enumerate() {
            let mut session = tauw.new_session();
            session.begin_series();
            assert_eq!(waves[s].len(), ts.steps.len());
            for (step, expected) in ts.steps.iter().zip(&waves[s]) {
                let got = session.step(&step.quality_factors, step.outcome).unwrap();
                assert_eq!(&got, expected);
            }
        }
        // A second call resets the streams (fresh series, same ids).
        let again = engine.step_series_waves(&series).unwrap();
        assert_eq!(waves, again);
    }

    #[test]
    fn stream_id_formats_readably() {
        assert_eq!(StreamId(42).to_string(), "stream#42");
        assert!(StreamId(1) < StreamId(2));
    }

    /// Satellite regression test: `begin_series` resets the lifetime step
    /// counter (and with it taQF2's `i + 1` semantics) identically on the
    /// session and engine paths.
    #[test]
    fn begin_series_resets_the_lifetime_counter_on_both_paths() {
        let tauw = fitted();

        let mut session = tauw.new_session();
        for _ in 0..4 {
            session.step(&[0.2], 7).unwrap();
        }
        assert_eq!(session.series_length(), 4);
        session.begin_series();
        assert_eq!(session.series_length(), 0);
        let from_session = session.step(&[0.2], 7).unwrap();
        assert_eq!(from_session.series_length, 1);
        assert_eq!(from_session.taqf.length, 1.0);

        let mut engine = tauw.into_engine();
        for _ in 0..4 {
            engine.step(StreamId(0), &[0.2], 7).unwrap();
        }
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(4));
        engine.begin_series(StreamId(0));
        assert_eq!(engine.stream_total_steps(StreamId(0)), Some(0));
        let from_engine = engine.step(StreamId(0), &[0.2], 7).unwrap();
        assert_eq!(from_engine, from_session, "both paths restart at step 1");
    }

    #[test]
    fn step_adaptive_requires_enable_adaptation() {
        let mut engine = fitted().into_engine();
        let err = engine
            .step_adaptive(StreamId(0), &[0.2], 7, false)
            .unwrap_err()
            .to_string();
        assert!(err.contains("enable_adaptation"), "{err}");
        assert_eq!(engine.n_streams(), 0, "failed step must not create state");
        assert!(engine
            .step_many_adaptive(&[AdaptiveStreamStep::new(StreamId(0), vec![0.2], 7, false)])
            .is_err());
    }

    #[test]
    fn engine_adaptive_step_matches_adaptive_session_exactly() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        };
        let mut engine = tauw.clone().into_engine();
        engine.enable_adaptation(config).unwrap();
        let mut session = tauw.new_adaptive_session(config).unwrap();
        // Quiet first half, then a burst of failures the frozen bounds
        // never promised: the adaptive path must inflate identically.
        for (i, &(q, o)) in [
            (0.1, 7),
            (0.1, 7),
            (0.2, 7),
            (0.9, 3),
            (0.9, 3),
            (0.9, 3),
            (0.9, 3),
            (0.8, 3),
        ]
        .iter()
        .enumerate()
        {
            let failed = o != 7;
            let from_engine = engine.step_adaptive(StreamId(0), &[q], o, failed).unwrap();
            let from_session = session.step(&[q], o, failed).unwrap();
            assert_eq!(from_engine, from_session, "step {i}");
        }
        assert_eq!(
            engine.adaptive_state(StreamId(0)).unwrap(),
            session.adaptive_state()
        );
        assert_eq!(engine.stream_drift(StreamId(0)), Some(session.drift()));
        assert!(
            engine
                .adaptive_state(StreamId(0))
                .unwrap()
                .inflation_steps()
                > 0,
            "the failure burst must have engaged adaptation"
        );
    }

    #[test]
    fn end_stream_and_clear_streams_drop_adaptive_state() {
        let mut engine = fitted().into_engine();
        engine.enable_adaptation(AdaptiveConfig::default()).unwrap();
        engine.step_adaptive(StreamId(1), &[0.2], 7, false).unwrap();
        engine.step_adaptive(StreamId(2), &[0.2], 7, false).unwrap();
        assert!(engine.adaptive_state(StreamId(1)).is_some());
        engine.end_stream(StreamId(1));
        assert!(engine.adaptive_state(StreamId(1)).is_none());
        engine.clear_streams();
        assert!(engine.adaptive_state(StreamId(2)).is_none());
        assert_eq!(engine.stream_drift(StreamId(2)), None);
    }

    #[test]
    fn import_adaptive_state_resumes_a_persisted_stream() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 4,
            min_observations: 2,
            ..Default::default()
        };
        // Build some adaptation in a session, move it into an engine.
        let mut session = tauw.new_adaptive_session(config).unwrap();
        for _ in 0..5 {
            session.step(&[0.9], 3, true).unwrap();
        }
        let exported = session.adaptive_state().clone();
        assert!(exported.inflation_steps() > 0);

        let mut engine = tauw.into_engine();
        engine.enable_adaptation(config).unwrap();
        engine.import_adaptive_state(StreamId(7), exported.clone());
        assert_eq!(engine.adaptive_state(StreamId(7)), Some(&exported));
        // The resumed stream keeps adapting from the imported notch.
        let step = engine.step_adaptive(StreamId(7), &[0.9], 3, true).unwrap();
        assert!(step.adapted_uncertainty > step.uncertainty);
    }

    /// Regression test: adaptive state imported for an unknown stream
    /// registers the stream, so listings and exports (and with them
    /// shard snapshots) see it before its first step.
    #[test]
    fn import_adaptive_state_registers_an_unknown_stream() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 4,
            min_observations: 2,
            ..Default::default()
        };
        let mut session = tauw.new_adaptive_session(config).unwrap();
        for _ in 0..5 {
            session.step(&[0.9], 3, true).unwrap();
        }
        let state = session.adaptive_state().clone();

        let mut engine = tauw.clone().into_engine();
        engine.buffer_capacity(6);
        engine.enable_adaptation(config).unwrap();
        engine.step_adaptive(StreamId(1), &[0.2], 7, false).unwrap();
        engine.import_adaptive_state(StreamId(9), state.clone());
        assert_eq!(engine.n_streams(), 2);
        assert_eq!(engine.stream_ids(), vec![StreamId(1), StreamId(9)]);
        assert_eq!(engine.stream_len(StreamId(9)), Some(0));
        let (buffer, adaptive) = engine.export_stream(StreamId(9)).unwrap();
        assert_eq!(buffer.capacity(), Some(6), "registered like begin_series");
        assert_eq!(adaptive.as_ref(), Some(&state));

        // The exported pair round-trips into a fresh engine, which then
        // serves bit-identically to the original.
        let mut resumed = tauw.into_engine();
        resumed.enable_adaptation(config).unwrap();
        resumed.import_stream(StreamId(9), buffer, adaptive);
        for &(q, o, failed) in &[(0.9, 3, true), (0.1, 7, false), (0.8, 3, true)] {
            let a = engine.step_adaptive(StreamId(9), &[q], o, failed).unwrap();
            let b = resumed.step_adaptive(StreamId(9), &[q], o, failed).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(
            engine.export_stream(StreamId(9)),
            resumed.export_stream(StreamId(9))
        );

        // Importing onto a known stream replaces only its adaptive state.
        engine.import_adaptive_state(StreamId(1), state.clone());
        assert_eq!(engine.stream_len(StreamId(1)), Some(1));
        assert_eq!(engine.adaptive_state(StreamId(1)), Some(&state));
    }

    #[test]
    fn wave_scratch_is_reused_across_steady_state_waves() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        };
        let mut engine = tauw.clone().into_engine();
        engine.threads(1);
        engine.enable_adaptation(config).unwrap();

        let wave = |round: usize| -> Vec<AdaptiveStreamStep> {
            (0..3u64)
                .map(|s| {
                    let q = 0.1 + 0.2 * s as f64 + 0.01 * (round % 5) as f64;
                    let failed = (round + s as usize) % 4 == 0;
                    AdaptiveStreamStep::new(
                        StreamId(s),
                        vec![q],
                        if failed { 3 } else { 7 },
                        failed,
                    )
                })
                .collect()
        };

        // Twin dedicated sessions serve as the reference trajectory.
        let mut sessions: Vec<_> = (0..3)
            .map(|_| tauw.new_adaptive_session(config).unwrap())
            .collect();
        let reference = |sessions: &mut Vec<crate::adaptive::AdaptiveTauwSession>,
                         batch: &[AdaptiveStreamStep]| {
            batch
                .iter()
                .map(|e| {
                    sessions[e.stream.0 as usize]
                        .step(&e.quality_factors, e.outcome, e.failed)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };

        // Warm-up waves size every reusable buffer, then capture the
        // scratch fingerprints: same pointers afterwards means the
        // steady-state waves stopped touching the allocator.
        for round in 0..4 {
            let batch = wave(round);
            assert_eq!(
                engine.step_many_adaptive(&batch).unwrap(),
                reference(&mut sessions, &batch),
                "warm-up round {round}"
            );
        }
        type Fingerprint = (*const f64, usize, *const TauwStep, usize);
        let fingerprint = |engine: &TauwEngine| -> Vec<Fingerprint> {
            engine
                .wave
                .workers
                .iter()
                .map(|w| {
                    (
                        w.scratch.features.as_ptr(),
                        w.scratch.features.capacity(),
                        w.output.as_ptr(),
                        w.output.capacity(),
                    )
                })
                .collect()
        };
        let workers_warm = fingerprint(&engine);
        assert_eq!(workers_warm.len(), 1, "threads(1) keeps one worker");
        let order_ptr = engine.wave.order.as_ptr();
        let cuts_ptr = engine.wave.cuts.as_ptr();
        let table_ptr = engine.table.entries.as_ptr();

        for round in 4..40 {
            let batch = wave(round);
            assert_eq!(
                engine.step_many_adaptive(&batch).unwrap(),
                reference(&mut sessions, &batch),
                "steady-state round {round}"
            );
        }

        assert_eq!(fingerprint(&engine), workers_warm, "worker scratch regrew");
        assert_eq!(engine.wave.order.as_ptr(), order_ptr, "order reallocated");
        assert_eq!(engine.wave.cuts.as_ptr(), cuts_ptr, "cuts reallocated");
        assert_eq!(engine.table.entries.as_ptr(), table_ptr, "table moved");
        assert_eq!(engine.table.entries.len(), 3);

        // The plain (non-adaptive) wave path and the single-step paths
        // share the same scaffolding.
        let plain: Vec<StreamStep> = (0..3u64)
            .map(|s| StreamStep::new(StreamId(s), vec![0.4], 7))
            .collect();
        engine.step_many(&plain).unwrap();
        let plain_fingerprints = fingerprint(&engine);
        for _ in 0..20 {
            engine.step_many(&plain).unwrap();
            engine.step(StreamId(1), &[0.4], 7).unwrap();
            engine.step_adaptive(StreamId(2), &[0.4], 7, false).unwrap();
        }
        assert_eq!(
            fingerprint(&engine),
            plain_fingerprints,
            "plain waves and single steps must reuse scratch"
        );
    }

    /// Ended streams release their heap state at once, their entries are
    /// reused by new streams, and the table does not grow under steady
    /// churn.
    #[test]
    fn end_stream_releases_stream_heap_state() {
        let tauw = fitted();
        let mut engine = tauw.clone().into_engine();
        engine.threads(1).buffer_capacity(8);
        engine.enable_adaptation(AdaptiveConfig::default()).unwrap();

        let batch: Vec<AdaptiveStreamStep> = (0..64u64)
            .map(|s| AdaptiveStreamStep::new(StreamId(s), vec![0.3], 7, false))
            .collect();
        engine.step_many_adaptive(&batch).unwrap();
        assert_eq!(engine.table.entries.len(), 64, "one entry per stream");

        // Retire all but four streams: each vacated entry holds no heap
        // state and sits on the free list.
        for s in 4..64u64 {
            assert!(engine.end_stream(StreamId(s)));
        }
        assert_eq!(engine.n_streams(), 4);
        assert_eq!(engine.table.free.len(), 60);
        for &slot in &engine.table.free {
            let entry = &engine.table.entries[slot as usize];
            assert_eq!(entry.buffer.heap_slots(), 0, "buffer heap kept");
            assert!(entry.adaptive.is_none(), "adaptive state kept");
        }

        // Ending an unknown stream is a no-op.
        assert!(!engine.end_stream(StreamId(999)));
        assert_eq!(engine.table.free.len(), 60);

        // The survivors keep serving bit-identically to dedicated
        // sessions that replayed the same steps.
        let survivors: Vec<StreamStep> = (0..4u64)
            .map(|s| StreamStep::new(StreamId(s), vec![0.6], 3))
            .collect();
        let out = engine.step_many(&survivors).unwrap();
        for (s, got) in out.iter().enumerate() {
            let mut session = tauw.new_session();
            session.step(&[0.3], 7).unwrap();
            let expected = session.step(&[0.6], 3).unwrap();
            assert_eq!(got, &expected, "stream {s} diverged after churn");
        }

        // Steady 1/16 churn: each wave ends four streams and admits four
        // never-seen ones. New streams take vacated entries, so the table
        // stays at its peak and never reallocates.
        let table_ptr = engine.table.entries.as_ptr();
        let mut live: Vec<u64> = (0..64).collect();
        let mut next_id = 1000u64;
        for round in 0..40usize {
            let batch: Vec<StreamStep> = live
                .iter()
                .map(|&s| StreamStep::new(StreamId(s), vec![0.5], 7))
                .collect();
            engine.step_many(&batch).unwrap();
            for k in 0..4 {
                let victim = (round * 4 + k) % live.len();
                assert!(engine.end_stream(StreamId(live[victim])));
                live[victim] = next_id;
                next_id += 1;
            }
            assert_eq!(engine.table.entries.len(), 64, "table grew");
        }
        assert_eq!(engine.table.entries.as_ptr(), table_ptr, "table moved");
        assert_eq!(engine.n_streams(), 60, "the last replacements are new");

        // clear_streams releases the table and scaffolding entirely.
        engine.clear_streams();
        assert_eq!(engine.n_streams(), 0);
        assert_eq!(engine.table.entries.capacity(), 0);
        assert_eq!(engine.table.index.capacity(), 0);
        assert!(engine.wave.order.capacity() == 0 && engine.wave.workers.is_empty());
    }

    /// The index hash must not reuse the shard hash's low bits: every
    /// stream of one shard shares `splitmix64(id) % K`, and the index
    /// picks buckets from the low bits, so unsalted those streams would
    /// crowd into `1/K` of the buckets.
    #[test]
    fn index_hash_spreads_one_shards_streams_over_all_buckets() {
        for shards in [8u64, 64] {
            let ids: Vec<u64> = (0u64..)
                .filter(|&id| splitmix64(id) % shards == 3)
                .take(2_500)
                .collect();
            let buckets = 4096u64;
            let used = |hash: &dyn Fn(u64) -> u64| {
                let mut seen = vec![false; buckets as usize];
                for &id in &ids {
                    seen[(hash(id) % buckets) as usize] = true;
                }
                seen.iter().filter(|&&b| b).count()
            };
            let unsalted = used(&splitmix64);
            assert!(
                unsalted <= (buckets / shards) as usize,
                "the shard hash crowds one shard's ids: {unsalted}"
            );
            for _ in 0..4 {
                let salt = IndexHashBuilder::default().0;
                let salted = used(&|id| index_hash(salt, id));
                // 2 500 keys thrown uniformly into 4 096 buckets fill
                // ~1 860.
                assert!(salted > 1_700, "{shards} shards: {salted} buckets used");
            }
        }
    }

    #[test]
    fn export_import_stream_round_trips_runtime_state() {
        let tauw = fitted();
        let config = AdaptiveConfig {
            window: 4,
            min_observations: 2,
            ..Default::default()
        };
        let mut engine = tauw.clone().into_engine();
        engine.enable_adaptation(config).unwrap();
        for _ in 0..5 {
            engine.step_adaptive(StreamId(3), &[0.9], 3, true).unwrap();
        }
        let (buffer, adaptive) = engine.export_stream(StreamId(3)).unwrap();
        assert!(adaptive.is_some());
        assert!(engine.export_stream(StreamId(99)).is_none());

        // A fresh engine with the imported state continues bit-identically
        // to the original engine.
        let mut resumed = tauw.into_engine();
        resumed.enable_adaptation(config).unwrap();
        resumed.import_stream(StreamId(3), buffer, adaptive);
        let a = engine.step_adaptive(StreamId(3), &[0.9], 3, true).unwrap();
        let b = resumed.step_adaptive(StreamId(3), &[0.9], 3, true).unwrap();
        assert_eq!(a, b);

        // Importing with `adaptive: None` is a faithful overwrite.
        let (buffer, _) = resumed.export_stream(StreamId(3)).unwrap();
        resumed.import_stream(StreamId(3), buffer, None);
        assert!(resumed.adaptive_state(StreamId(3)).is_none());
    }
}
