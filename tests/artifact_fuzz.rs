//! Seeded mutation fuzz of every saved artifact kind.
//!
//! One real artifact of each of the eight kinds is saved (the
//! timeseries-aware wrapper once per backend: tree, forest, conformal), then
//! edited with seeded byte-level mutations: a flip to a JSON-significant
//! character, truncation, a splice from another artifact, duplication of a
//! range, and replacement of a number token with an extreme or ill-typed
//! value. Every load runs under `catch_unwind` and must either return `Err`
//! or a value that passes its own validation; it must never unwind (and
//! must not abort the process, which would end the test run).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tauw_suite::core::adaptive::{AdaptiveConfig, AdaptiveState};
use tauw_suite::core::buffer::TimeseriesBuffer;
use tauw_suite::core::calibration::{
    CalibratedForestQim, CalibratedQim, CalibrationOptions, TaQim,
};
use tauw_suite::core::conformal::{ConformalOptions, ConformalQim};
use tauw_suite::core::engine::StreamId;
use tauw_suite::core::sharded::{EngineShardState, ShardedEngine};
use tauw_suite::core::tauw::{BackendSpec, TauwBuilder, TimeseriesAwareWrapper};
use tauw_suite::core::training::{TrainingSeries, TrainingStep};
use tauw_suite::core::wrapper::{UncertaintyWrapper, WrapperBuilder};
use tauw_suite::core::CoreError;

/// Mutations applied to each artifact.
const MUTATIONS_PER_ARTIFACT: usize = 300;

/// What a number token is replaced with.
const NUMBER_REPLACEMENTS: [&str; 8] = [
    "0",
    "-1",
    "1e308",
    "4294967295",
    "18446744073709551615",
    "65537",
    "null",
    "[]",
];

/// Characters a flipped byte becomes: the ones that carry JSON structure
/// or start a literal.
const SIGNIFICANT: &[u8] = b"{}[]\":,-.+0123456789eEntf ";

/// SplitMix64: a small deterministic generator for the edit positions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Byte ranges of the number tokens in `json`, and the subset that are the
/// value of a keyed field (`"key": 12`) rather than an array element.
/// Keyed scalars hold the structural indices (child ids, feature ids,
/// capacities, counts), so they are drawn as often as all tokens together.
fn number_tokens(json: &str) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let bytes = json.as_bytes();
    let (mut all, mut keyed) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            || (bytes[i] == b'-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit));
        let after_word = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if !starts || after_word {
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        while i < bytes.len() && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            i += 1;
        }
        if json[..start].ends_with("\": ") {
            keyed.push(start..i);
        }
        all.push(start..i);
    }
    (all, keyed)
}

/// One seeded edit of `json`; `donor` supplies spliced-in bytes.
fn mutate(json: &str, donor: &str, rng: &mut Rng) -> String {
    let bytes = json.as_bytes();
    let n = bytes.len();
    let edited: Vec<u8> = match rng.below(5) {
        0 => {
            let mut out = bytes.to_vec();
            out[rng.below(n)] = SIGNIFICANT[rng.below(SIGNIFICANT.len())];
            out
        }
        1 => bytes[..rng.below(n)].to_vec(),
        2 => {
            let cut = rng.below(n);
            let from = rng.below(donor.len());
            let to = (from + 1 + rng.below(256)).min(donor.len());
            let resume = (cut + rng.below(256)).min(n);
            [&bytes[..cut], &donor.as_bytes()[from..to], &bytes[resume..]].concat()
        }
        3 => {
            let start = rng.below(n);
            let end = (start + 1 + rng.below(256)).min(n);
            [&bytes[..end], &bytes[start..]].concat()
        }
        _ => {
            let (all, keyed) = number_tokens(json);
            let pool = if keyed.is_empty() || rng.below(2) == 0 {
                &all
            } else {
                &keyed
            };
            let token = pool[rng.below(pool.len())].clone();
            let value = NUMBER_REPLACEMENTS[rng.below(NUMBER_REPLACEMENTS.len())];
            [&bytes[..token.start], value.as_bytes(), &bytes[token.end..]].concat()
        }
    };
    String::from_utf8_lossy(&edited).into_owned()
}

/// A load either fails (`Ok(false)`), or yields a value whose own check
/// passes (`Ok(true)`).
fn checked<T>(
    loaded: Result<T, CoreError>,
    check: impl FnOnce(&T) -> Result<(), CoreError>,
) -> Result<bool, String> {
    match loaded {
        Err(_) => Ok(false),
        Ok(value) => check(&value)
            .map(|()| true)
            .map_err(|e| format!("loaded a value that fails its check: {e}")),
    }
}

fn series(n: usize, seed: u64) -> Vec<TrainingSeries> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let q = next();
            let steps = (0..8)
                .map(|_| TrainingStep {
                    quality_factors: vec![q],
                    outcome: u32::from(next() < q * 0.8),
                })
                .collect();
            TrainingSeries {
                true_outcome: 0,
                steps,
            }
        })
        .collect()
}

fn fitted(backend: BackendSpec) -> TimeseriesAwareWrapper {
    let mut wb = WrapperBuilder::new();
    wb.max_depth(3).calibration(CalibrationOptions {
        min_samples_per_leaf: 40,
        confidence: 0.99,
        ..Default::default()
    });
    let mut builder = TauwBuilder::new();
    builder.wrapper(wb).backend(backend);
    builder
        .fit(vec!["q".into()], &series(150, 1), &series(150, 2))
        .expect("fuzz fixture fits")
}

type Load = fn(&str) -> Result<bool, String>;

/// One saved artifact of every kind, with its loader and check.
fn artifacts() -> Vec<(&'static str, String, Load)> {
    let tree = fitted(BackendSpec::Tree);
    let forest = fitted(BackendSpec::Forest {
        n_trees: 3,
        seed: 0xF0E57,
    });
    let conformal = fitted(BackendSpec::Conformal(ConformalOptions::default()));
    let (TaQim::Tree(tree_qim), TaQim::Forest(forest_qim), TaQim::Conformal(conformal_qim)) =
        (tree.taqim(), forest.taqim(), conformal.taqim())
    else {
        unreachable!("each backend builds its own taQIM shape")
    };

    // A bounded buffer past its first wrap, and an engine with adaptive
    // streams whose shard snapshot holds both buffers and adaptive state.
    let mut buffer = TimeseriesBuffer::bounded(5);
    for k in 0..8 {
        tree.step_with_buffer(&mut buffer, &[0.1 * k as f64], k % 2)
            .unwrap();
    }
    let mut engine = ShardedEngine::new(tree.clone(), 2);
    engine
        .enable_adaptation(AdaptiveConfig {
            window: 6,
            min_observations: 3,
            ..Default::default()
        })
        .unwrap();
    for round in 0..8u64 {
        for id in 0..6u64 {
            let failed = (round + id) % 3 == 0;
            engine
                .step_adaptive(StreamId(id), &[0.15 * id as f64], u32::from(failed), failed)
                .unwrap();
        }
    }
    let shard = engine.shard_of(StreamId(0));
    let state = engine.adaptive_state(StreamId(0)).unwrap();

    vec![
        (
            "stateless wrapper",
            tree.stateless().to_artifact_json().unwrap(),
            |j| {
                checked(
                    UncertaintyWrapper::from_artifact_json(j),
                    UncertaintyWrapper::validate,
                )
            },
        ),
        ("tree wrapper", tree.to_artifact_json().unwrap(), |j| {
            checked(
                TimeseriesAwareWrapper::from_artifact_json(j),
                TimeseriesAwareWrapper::validate,
            )
        }),
        ("forest wrapper", forest.to_artifact_json().unwrap(), |j| {
            checked(
                TimeseriesAwareWrapper::from_artifact_json(j),
                TimeseriesAwareWrapper::validate,
            )
        }),
        (
            "conformal wrapper",
            conformal.to_artifact_json().unwrap(),
            |j| {
                checked(
                    TimeseriesAwareWrapper::from_artifact_json(j),
                    TimeseriesAwareWrapper::validate,
                )
            },
        ),
        ("tree QIM", tree_qim.to_artifact_json().unwrap(), |j| {
            checked(
                CalibratedQim::from_artifact_json(j),
                CalibratedQim::validate,
            )
        }),
        ("forest QIM", forest_qim.to_artifact_json().unwrap(), |j| {
            checked(
                CalibratedForestQim::from_artifact_json(j),
                CalibratedForestQim::validate,
            )
        }),
        (
            "conformal QIM",
            conformal_qim.to_artifact_json().unwrap(),
            |j| checked(ConformalQim::from_artifact_json(j), ConformalQim::validate),
        ),
        // Buffers and adaptive states validate inside deserialization;
        // the check is that a loaded value saves and loads again.
        ("buffer", buffer.to_artifact_json().unwrap(), |j| {
            checked(TimeseriesBuffer::from_artifact_json(j), |b| {
                TimeseriesBuffer::from_artifact_json(&b.to_artifact_json()?).map(drop)
            })
        }),
        ("adaptive state", state.to_artifact_json().unwrap(), |j| {
            checked(AdaptiveState::from_artifact_json(j), |s| {
                AdaptiveState::from_artifact_json(&s.to_artifact_json()?).map(drop)
            })
        }),
        (
            "engine shard",
            engine
                .snapshot_shard(shard)
                .unwrap()
                .to_artifact_json()
                .unwrap(),
            |j| {
                checked(
                    EngineShardState::from_artifact_json(j),
                    EngineShardState::validate,
                )
            },
        ),
    ]
}

#[test]
fn mutated_artifacts_fail_to_load_or_load_valid_and_never_panic() {
    let artifacts = artifacts();
    let mut rng = Rng(0xA27F_ACE5);
    let mut failures = Vec::new();
    for (kind, json, load) in &artifacts {
        assert_eq!(load(json), Ok(true), "{kind}: the saved artifact must load");
        let mut rejected = 0;
        for m in 0..MUTATIONS_PER_ARTIFACT {
            let donor = &artifacts[rng.below(artifacts.len())].1;
            let mutated = mutate(json, donor, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| load(&mutated))) {
                Ok(Ok(loaded)) => rejected += usize::from(!loaded),
                Ok(Err(e)) => failures.push(format!("{kind} mutation {m}: {e}")),
                Err(_) => failures.push(format!("{kind} mutation {m}: the load panicked")),
            }
        }
        // The edits bite: most mutations make the artifact unloadable.
        assert!(
            rejected > MUTATIONS_PER_ARTIFACT / 2,
            "{kind}: only {rejected} of {MUTATIONS_PER_ARTIFACT} mutations were rejected"
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
