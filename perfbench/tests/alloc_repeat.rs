//! Allocation counts of a traced run are a property of the program, not
//! of timing: two traced runs at smoke size must count exactly the same
//! allocations inside engine calls and inside every recomposed stage.
//! (One test in its own binary, so no other test allocates meanwhile.)

use perfbench::run::{run, Config, Length};
use perfbench::workload::Workload;
use std::time::Instant;

#[test]
fn traced_allocation_counts_repeat_exactly() {
    for workload in Workload::ALL {
        let cfg = Config {
            workload,
            seed: 5,
            length: Length::Waves(30),
            trace: true,
            smoke: true,
            out_dir: None,
            started: Instant::now(),
        };
        let first = run(&cfg).expect("smoke run sets up");
        let second = run(&cfg).expect("smoke run sets up");
        assert!(first.correct && second.correct, "{}", workload.name());
        let counts = first.allocs.expect("traced runs count allocations");
        assert!(
            counts.engine > 0,
            "{}: engine calls allocate",
            workload.name()
        );
        assert_eq!(Some(counts), second.allocs, "{}", workload.name());
    }
}
