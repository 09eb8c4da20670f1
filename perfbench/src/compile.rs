//! `compile-corpus`: one-shot `mao --jobs 2` compiles of a seeded corpus.
//!
//! The untraced run times the CLI as a subprocess. The traced run drives
//! the same parse → pipeline → relax → emit through the libraries, with a
//! span around each call.

use std::time::Instant;

use mao::MaoUnit;
use mao_corpus::{generate, GeneratorConfig, PlantedCounts};

use crate::inputs::{compile_corpus, mix, COMPILE_PIPELINE};
use crate::stats::{median, tail};
use crate::util::{self, children_peak_rss_mb, text_bytes_of, WorkDir};
use crate::{Ctx, Outcome};

/// Jobs of every timed compile.
const JOBS: usize = 2;
/// CLI start-ups timed for `setup_s` after each compile.
const SETUP_PER_COMPILE: usize = 4;
/// Fewest timed compiles in a run, however short.
const MIN_COMPILES: usize = 3;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let corpus = generate(&compile_corpus(ctx.seed));
    let mut out = Outcome::default();
    if ctx.tracer.enabled() {
        traced(ctx, &corpus.asm, &corpus.planted, &mut out)?;
    } else {
        untraced(ctx, &corpus.asm, &corpus.planted, &mut out)?;
    }
    Ok(out)
}

/// The planted-pattern passes and the ground truth each must match.
fn planted(p: &PlantedCounts) -> [(&'static str, usize); 4] {
    [
        ("REDZEXT", p.redundant_zext),
        ("REDTEST", p.redundant_tests),
        ("REDMOV", p.redundant_loads),
        ("ADDADD", p.addadd_pairs),
    ]
}

/// Transformations the CLI reported for `pass` on stderr (absent = 0).
fn cli_transforms(stderr: &str, pass: &str) -> usize {
    let prefix = format!("[mao] {pass}: ");
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

fn compile_args(jobs: usize, output: &str, input: &str) -> Vec<String> {
    vec![
        "--jobs".into(),
        jobs.to_string(),
        format!("--mao={COMPILE_PIPELINE}:ASM=o[{output}]"),
        input.into(),
    ]
}

fn untraced(
    ctx: &Ctx,
    asm: &str,
    planted_counts: &PlantedCounts,
    out: &mut Outcome,
) -> Result<(), String> {
    let work = WorkDir::create("compile-corpus")?;
    let input = work.arg("corpus.s");
    std::fs::write(&input, asm).map_err(|e| e.to_string())?;

    // Set-up: the CLI's fixed start cost, on a one-function unit through
    // the same pipeline.
    let tiny = work.arg("tiny.s");
    let tiny_cfg = GeneratorConfig {
        seed: mix(ctx.seed, 9),
        functions: 1,
        slots_per_function: 16,
        ..GeneratorConfig::core_library(1.0)
    };
    std::fs::write(&tiny, generate(&tiny_cfg).asm).map_err(|e| e.to_string())?;
    let tiny_args = compile_args(1, &work.arg("tiny.out.s"), &tiny);
    // Taken between compiles all through the run, so their median sees the
    // same host as the compiles do.
    let mut setup = Vec::new();
    let mut set_up = |out: &mut Outcome| -> Result<(), String> {
        for _ in 0..SETUP_PER_COMPILE {
            let ran = util::run(&ctx.mao, &tiny_args)?;
            out.check(ran.ok, || format!("tiny compile: {}", ran.stderr));
            setup.push(ran.seconds);
        }
        Ok(())
    };

    // The untimed --jobs 1 compile: the determinism reference, and the
    // warm-up that pages the corpus and binary in.
    let seq_path = work.arg("jobs1.s");
    let ran = util::run(&ctx.mao, &compile_args(1, &seq_path, &input))?;
    out.check(ran.ok, || format!("--jobs 1 compile: {}", ran.stderr));
    let sequential = std::fs::read_to_string(&seq_path).unwrap_or_default();

    let par_path = work.arg("jobs2.s");
    let mut times = Vec::new();
    let mut first: Option<String> = None;
    let start = Instant::now();
    while times.len() < MIN_COMPILES || start.elapsed().as_secs_f64() < ctx.seconds {
        let _ = std::fs::remove_file(&par_path);
        let ran = util::run(&ctx.mao, &compile_args(JOBS, &par_path, &input))?;
        times.push(ran.seconds * 1e3);
        let output = std::fs::read_to_string(&par_path).unwrap_or_default();
        let counts_ok = planted(planted_counts)
            .iter()
            .all(|&(pass, want)| cli_transforms(&ran.stderr, pass) == want);
        let same = first.as_ref().is_none_or(|f| *f == output);
        out.check(ran.ok && counts_ok && same, || {
            format!(
                "compile {}: exit ok {}, planted counts ok {counts_ok}, output stable {same}; \
                 want {:?}, stderr:\n{}",
                times.len(),
                ran.ok,
                planted(planted_counts),
                ran.stderr
            )
        });
        first.get_or_insert(output);
        set_up(out)?;
    }
    out.set("setup_s", median(&setup));
    let output = first.unwrap_or_default();
    out.check(output == sequential, || {
        "--jobs 1 and --jobs 2 outputs differ".into()
    });
    check_reemit(&output, out);

    let t = tail(&times);
    out.set("op_p50_ms", median(&times));
    out.set("op_tail_ms", t.value);
    eprintln!(
        "perfbench: {} compiles; tail at p{:.1}",
        t.count, t.percentile
    );
    out.set("peak_rss_mb", children_peak_rss_mb());
    out.set(
        "output_cost_ratio",
        text_bytes_of(&output)? as f64 / text_bytes_of(asm)? as f64,
    );
    Ok(())
}

/// The output re-parses and re-emits byte-identically.
fn check_reemit(output: &str, out: &mut Outcome) {
    let again = MaoUnit::parse(output).map(|u| u.emit());
    out.check(again.as_deref() == Ok(output), || {
        "output does not re-parse and re-emit byte-identically".into()
    });
}

/// Traced in-process compiles.
fn traced(
    ctx: &Ctx,
    asm: &str,
    planted_counts: &PlantedCounts,
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut times_ms = Vec::new();
    let mut last = None;
    let mut relax = (0, 0);
    let start = Instant::now();
    while times_ms.len() < MIN_COMPILES || start.elapsed().as_secs_f64() < ctx.seconds {
        let op = times_ms.len() as u64;
        let t0 = Instant::now();
        let root = tracer.span("bench.compile", op);
        let before = mao::relax::relax_totals();
        let compiled = util::compile(asm, COMPILE_PIPELINE, JOBS, tracer, op)?;
        let after = mao::relax::relax_totals();
        drop(root);
        times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        relax = (
            after.iterations - before.iterations,
            after.rechecks - before.rechecks,
        );
        let counts_ok = planted(planted_counts)
            .iter()
            .all(|&(pass, want)| compiled.passes.iter().any(|p| p.0 == pass && p.2 == want));
        out.check(counts_ok, || {
            "in-process transform counts differ from the planted counts".into()
        });
        last = Some(compiled);
    }
    let last = last.expect("at least one traced compile");
    check_reemit(&last.asm, out);
    util::set_pipeline_layers(tracer, times_ms.len(), &[last], relax, out);
    set_ops(&times_ms, out);
    Ok(())
}

/// Sample count and tail percentile of the traced operations.
pub fn set_ops(samples: &[f64], out: &mut Outcome) {
    let t = tail(samples);
    out.set("op_samples", t.count as f64);
    out.set("op_tail_percentile", t.percentile);
}
