//! Experiment: §V.A — compile-time performance.
//!
//! The paper: *"for a typical set of passes, MAO is about five times slower
//! than gas"* — gas makes one pass over the instructions (here: parse +
//! emit), MAO makes one per optimization pass plus relaxation. This
//! experiment times both pipelines over the scale-0.02 synthetic
//! core-library corpus and prints the median of ten runs of each and
//! their ratio.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mao::pass::{parse_invocations, run_pipeline};
use mao::MaoUnit;
use mao_corpus::compiler::{generate, GeneratorConfig};

/// The Fig. 7 pass set, as a "typical set of passes".
const PASSES: &str = "REDMOV:REDTEST:LOOP16:SCHED";
/// Timed runs per pipeline.
const RUNS: usize = 10;

/// gas-equivalent: parse the file and write it back out (one pass).
fn gas_like(text: &str) -> usize {
    let unit = MaoUnit::parse(text).expect("corpus parses");
    unit.emit().len()
}

/// MAO: parse, run the pass set, relax, emit.
fn mao_like(text: &str) -> usize {
    let mut unit = MaoUnit::parse(text).expect("corpus parses");
    let invocations = parse_invocations(PASSES).expect("valid pass string");
    run_pipeline(&mut unit, &invocations, None).expect("passes run");
    let _ = mao::relax(&unit).expect("relaxes");
    unit.emit().len()
}

/// Median wall time of `RUNS` calls of `f` on `text`.
fn median(text: &str, f: fn(&str) -> usize) -> Duration {
    let mut times: Vec<Duration> = (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            black_box(f(black_box(text)));
            start.elapsed()
        })
        .collect();
    times.sort();
    times[RUNS / 2]
}

fn main() {
    let text = generate(&GeneratorConfig::core_library(0.02)).asm;
    let gas = median(&text, gas_like);
    let mao = median(&text, mao_like);
    println!("== §V.A: compile time, gas-like parse+emit vs MAO `{PASSES}` ==");
    println!(
        "corpus {} KB; median of {RUNS} runs each",
        text.len() / 1024
    );
    println!(
        "gas-like {gas:.1?} vs MAO {mao:.1?}: {:.1}x slower (paper: ~5x)",
        mao.as_secs_f64() / gas.as_secs_f64()
    );
}
