//! Hashed soak traffic: a pure function of `(seed, stream, wave)`, so a
//! cohort of any size needs no stored series and every run with the same
//! seed replays the same inputs.
//!
//! These are the same draws and overlays as the `tauw_bench::soak`
//! harness, which keeps its generator private; the overlay families are
//! named by its public [`SoakScenario`].

use tauw_bench::soak::SoakScenario;
use tauw_stats::bootstrap::SplitMix64;

/// The outcome a failed step reports (the soak world's true class is 7).
pub const FAILURE_CLASS: u32 = 3;

/// Base draw: a quality factor in `[0, 1)` and an outcome from `{3, 7}`.
fn base(seed: u64, stream: u64, wave: u64) -> (f64, u32) {
    let mut rng = SplitMix64::new(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ wave.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let q = rng.next_f64();
    let failed = rng.next_f64() < (q * 0.9).min(0.95);
    (q, if failed { FAILURE_CLASS } else { 7 })
}

fn overlay_rng(salt: u64, seed: u64, stream: u64, wave: u64) -> SplitMix64 {
    SplitMix64::new(
        seed ^ salt
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ wave.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

fn stream_hash(salt: u64, seed: u64, stream: u64) -> f64 {
    SplitMix64::new(seed ^ salt ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_f64()
}

/// One step of scenario-shaped traffic. `horizon` places the regime
/// switch: switched streams turn at wave `horizon / 2`.
pub fn step(scenario: SoakScenario, seed: u64, stream: u64, wave: u64, horizon: u64) -> (f64, u32) {
    match scenario {
        SoakScenario::Uniform => base(seed, stream, wave),
        SoakScenario::Dropout => {
            let (q, o) = base(seed, stream, wave);
            let mut rng = overlay_rng(0xD809_0000, seed, stream, wave);
            if rng.next_f64() < 0.25 {
                if rng.next_f64() < 0.5 {
                    (base(seed, stream, wave - wave % 4).0, o)
                } else {
                    (0.0, o)
                }
            } else {
                (q, o)
            }
        }
        SoakScenario::RegimeSwitch => {
            let (q, o) = base(seed, stream, wave);
            let switched = wave >= horizon / 2 && stream_hash(0x4E61_0000, seed, stream) < 0.35;
            (q, if switched { FAILURE_CLASS } else { o })
        }
        SoakScenario::HeavyTails => {
            let (q, o) = base(seed, stream, wave);
            let mut rng = overlay_rng(0x7A11_0000, seed, stream, wave);
            if rng.next_f64() < 0.1 {
                let excess = rng.next_f64().max(1e-9).powf(-1.0 / 1.5) - 1.0;
                let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
                ((q + sign * 0.2 * excess).clamp(0.0, 1.0), o)
            } else {
                (q, o)
            }
        }
        SoakScenario::MultiSource => {
            let source = stream % 3;
            let (q, o) = base(seed, stream - source, wave);
            if source == 0 {
                return (q, o);
            }
            let mut rng = overlay_rng(0x3507_0000, seed, stream, wave);
            let noised = (q + 0.1 * (rng.next_f64() - 0.5)).clamp(0.0, 1.0);
            let outcome = if rng.next_f64() < 0.5 {
                o
            } else if rng.next_f64() < (noised * 0.9).min(0.95) {
                FAILURE_CLASS
            } else {
                7
            };
            (noised, outcome)
        }
        SoakScenario::Mixed => {
            let pick = (stream_hash(0x310D_0000, seed, stream) * 5.0) as usize;
            let family = [
                SoakScenario::Uniform,
                SoakScenario::Dropout,
                SoakScenario::RegimeSwitch,
                SoakScenario::HeavyTails,
                SoakScenario::MultiSource,
            ][pick.min(4)];
            step(family, seed, stream, wave, horizon)
        }
    }
}

/// Picks exactly `k` distinct slots out of `0..n` per call from a seeded
/// stream: a persistent permutation advanced by a partial Fisher–Yates
/// shuffle, so each slot's lifetime is random but the count is exact.
#[derive(Debug, Clone)]
pub struct SlotPicker {
    perm: Vec<usize>,
    rng: SplitMix64,
}

impl SlotPicker {
    /// A picker over `n` slots.
    pub fn new(n: usize, seed: u64) -> Self {
        SlotPicker {
            perm: (0..n).collect(),
            rng: SplitMix64::new(seed ^ 0xC4E2_0000),
        }
    }

    /// Appends `k` distinct slots to `out`, ascending.
    pub fn pick(&mut self, k: usize, out: &mut Vec<usize>) {
        let n = self.perm.len();
        let start = out.len();
        for i in 0..k.min(n) {
            let j = i + self.rng.next_index(n - i);
            self.perm.swap(i, j);
            out.push(self.perm[i]);
        }
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_pure_and_in_domain() {
        for scenario in SoakScenario::all() {
            for (stream, wave) in [(0u64, 0u64), (1, 0), (5, 9), (999_983, 17)] {
                let a = step(scenario, 7, stream, wave, 32);
                assert_eq!(a, step(scenario, 7, stream, wave, 32));
                assert!((0.0..=1.0).contains(&a.0));
                assert!(a.1 == 3 || a.1 == 7);
            }
        }
        assert_ne!(
            step(SoakScenario::Uniform, 7, 0, 0, 32),
            step(SoakScenario::Uniform, 8, 0, 0, 32)
        );
    }

    #[test]
    fn slot_picker_draws_exact_distinct_counts() {
        let mut picker = SlotPicker::new(100, 3);
        let mut out = Vec::new();
        picker.pick(7, &mut out);
        assert_eq!(out.len(), 7);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        let mut again = Vec::new();
        SlotPicker::new(100, 3).pick(7, &mut again);
        assert_eq!(out, again);
    }
}
