//! At smoke size, every workload's traced run must pass the reference
//! gate, serve without errors, and recompose every traced step bit for bit
//! from the public stage functions, so the per-layer attribution always
//! measures the served program.

use perfbench::run::{run, Config, Length};
use perfbench::workload::Workload;
use std::time::Instant;

fn smoke(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 11,
        length: Length::Waves(45),
        trace,
        smoke: true,
        out_dir: None,
        started: Instant::now(),
    }
}

#[test]
fn every_workload_recomposes_bit_identically() {
    for workload in Workload::ALL {
        let outcome = run(&smoke(workload, true)).expect("smoke run sets up");
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        assert_eq!(outcome.failed, 0);
        let traced_steps = outcome.attempted - outcome.attempted / 3;
        assert!(outcome.recomposed > 0 && outcome.recomposed <= traced_steps);
        assert!(outcome.gate_checked > 0);
        let bookkeeping = outcome.get("engine.bookkeeping_ns").expect("measured");
        assert!(bookkeeping.is_finite());
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let outcome = run(&smoke(workload, false)).expect("smoke run sets up");
        assert!(
            outcome.correct,
            "{}: {:?}",
            workload.name(),
            outcome.failures
        );
        let bounded = perfbench::run::END_TO_END.iter();
        for name in bounded.chain(&["steps_per_s", "wave_p50_ms", "wave_tail_ms"]) {
            let value = outcome
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(value > 0.0, "{}: {name} = {value}", workload.name());
        }
        assert_eq!(outcome.get("error_rate"), Some(0.0));
        assert_eq!(outcome.recomposed, 0, "untraced runs do not recompose");
    }
}
