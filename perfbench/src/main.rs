//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a report (one line per metric, with its unit) and, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the bounded end-to-end metrics
//! for an untraced run, the per-layer metrics for a traced one (as listed
//! in `BENCHMARK.json`). A traced run writes its spans under
//! `.bench_out/`. Exits 1 when a check fails and 2 on a usage error.

use perfbench::run::{
    self, Config, Length, END_TO_END, PER_LAYER, UNBOUNDED_END_TO_END, WORKLOAD_LAYERS,
};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
",
        names.join("|")
    );
    ExitCode::from(2)
}

fn json_line(outcome: &run::Outcome, names: &[&str]) -> String {
    // A failed run (too few timed waves, say) may lack some metrics; its
    // line still reports what was measured, with `correct` false.
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|name| outcome.metrics.iter().find(|m| m.name == *name))
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = None;
    let mut length = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad {flag} value: {value}"));
        match flag.as_str() {
            "--workload" => match Workload::from_name(&value) {
                Some(w) => workload = Some(w),
                None => return bad(),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => length = Some(Length::Seconds(s)),
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return bad(),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(length), Some(trace)) = (workload, seed, length, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = Config {
        workload,
        seed,
        length,
        trace,
        smoke: false,
        out_dir: Some(PathBuf::from(".bench_out")),
        started,
    };
    let outcome = match run::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench {} seed={seed} trace={}: threads={} ({} available), {} steps attempted, {} reference steps and {} recomposed steps compared",
        workload.name(),
        u8::from(trace),
        perfbench::workload::THREADS,
        std::thread::available_parallelism().map_or(1, usize::from),
        outcome.attempted,
        outcome.gate_checked,
        outcome.recomposed,
    );
    let listed: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let extra: &[&str] = if trace {
        &WORKLOAD_LAYERS
    } else {
        &UNBOUNDED_END_TO_END
    };
    for name in listed.iter().chain(extra) {
        if let Some(m) = outcome.metrics.iter().find(|m| m.name == *name) {
            println!(
                "  {:<26} {:>18} {}",
                m.name,
                format!("{:.6}", m.value),
                m.unit
            );
        }
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", json_line(&outcome, listed));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
