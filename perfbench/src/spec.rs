//! `spec-quality`: Figure 7's pass set plus SUPEROPT on SPEC-like
//! programs, each simulated on the Core-2 model before and after.
//!
//! Every optimization is a cold SUPEROPT search (a fresh rewrite-cache
//! directory per operation). Each run times parse → pipeline → emit per
//! program; the traced run also times the simulator's load and run
//! separately and replays SUPEROPT over a warm cache.

use std::time::Instant;

use mao::MaoUnit;
use mao_corpus::spec::{spec2000_benchmark, spec2006_benchmark};
use mao_corpus::Workload;
use mao_sim::{simulate_program, Program, SimOptions, UarchConfig};

use crate::compile::set_ops;
use crate::inputs::{spec_order, spec_pipeline};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::util::{self, peak_rss_mb, Compiled, WorkDir};
use crate::{Ctx, Outcome};

/// Set-up repetitions timed for `setup_s` after each optimization.
const SETUP_PER_OP: usize = 2;
/// Fewest passes over the program set, however short the run: three give
/// the pooled tail 24 samples, enough to sit above the median.
const MIN_PASSES: usize = 3;

fn program(name: &str) -> Result<Workload, String> {
    spec2000_benchmark(name)
        .or_else(|| spec2006_benchmark(name))
        .ok_or_else(|| format!("unknown SPEC-like program `{name}`"))
}

/// Set-up, timed: pass registration, the cost model behind the
/// simulator's configuration, and parsing and loading every program once.
fn set_up(programs: &[Workload]) -> Result<(f64, UarchConfig), String> {
    let t = Instant::now();
    mao_superopt::register();
    let registry = mao::pass::registry();
    let config = UarchConfig::core2();
    for w in programs {
        let unit = MaoUnit::parse(&w.asm).map_err(|e| format!("{}: {e}", w.name))?;
        let loaded = Program::load(&unit).map_err(|e| format!("{}: {e}", w.name))?;
        std::hint::black_box(&loaded);
    }
    let seconds = t.elapsed().as_secs_f64();
    std::hint::black_box(registry.len());
    Ok((seconds, config))
}

/// A simulation's `%rax`, cycles and dynamic instructions.
struct Run {
    ret: u64,
    cycles: u64,
    instructions: u64,
}

/// Load and simulate `asm`, with a span around each step.
fn simulate(
    asm: &str,
    w: &Workload,
    config: &UarchConfig,
    tracer: &Tracer,
    op: u64,
) -> Result<Run, String> {
    let unit = MaoUnit::parse(asm).map_err(|e| format!("{}: parse: {e}", w.name))?;
    let _root = tracer.span("bench.simulate", op);
    let program = tracer
        .time("sim.load", op, || Program::load(&unit))
        .map_err(|e| format!("{}: load: {e}", w.name))?;
    let result = tracer
        .time("sim.run", op, || {
            simulate_program(&program, &w.entry, &w.args, config, &SimOptions::default())
        })
        .map_err(|e| format!("{}: simulate: {e}", w.name))?;
    Ok(Run {
        ret: result.ret,
        cycles: result.pmu.cycles,
        instructions: result.pmu.instructions,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let work = WorkDir::create("spec-quality")?;
    let order = spec_order(ctx.seed);
    let programs: Vec<Workload> = order.iter().map(|n| program(n)).collect::<Result<_, _>>()?;
    eprintln!(
        "perfbench: spec-quality programs in order: {}",
        order.join(" ")
    );
    let mut out = Outcome::default();

    // Set-up samples are taken between optimizations all through the run,
    // so their median sees the same host as the optimizations do.
    let (first_setup, config) = set_up(&programs)?;
    let mut setup = vec![first_setup];

    let tracer = &ctx.tracer;
    let mut before = Vec::new();
    for w in &programs {
        before.push(simulate(&w.asm, w, &config, tracer, 0)?);
    }

    // Timed passes over the program set, as many whole passes as fit.
    let mut times_ms: Vec<Vec<f64>> = vec![Vec::new(); programs.len()];
    let mut first: Vec<Option<Compiled>> = vec![None; programs.len()];
    let mut warm_dirs = vec![String::new(); programs.len()];
    let mut relax_delta = (0, 0);
    let mut op = 0u64;
    let start = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES
        || start.elapsed().as_secs_f64() * (pass + 1) as f64 / pass as f64 <= ctx.seconds
    {
        let relax_before = mao::relax::relax_totals();
        for (i, w) in programs.iter().enumerate() {
            op += 1;
            let dir = work.arg(&format!("superopt-{op}"));
            let pipeline = spec_pipeline(&dir);
            let t = Instant::now();
            let root = tracer.span("bench.optimize", op);
            let compiled = util::compile(&w.asm, &pipeline, 1, tracer, op);
            drop(root);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let compiled = compiled.map_err(|e| format!("{}: {e}", w.name))?;
            times_ms[i].push(ms);
            for _ in 0..SETUP_PER_OP {
                setup.push(set_up(&programs)?.0);
            }
            // Only the latest cache per program is replayed warm; drop the
            // rest so their writes do not pile up behind later timings.
            let _ = std::fs::remove_dir_all(std::mem::replace(&mut warm_dirs[i], dir));
            match &first[i] {
                None => first[i] = Some(compiled),
                Some(f) => out.check(f.asm == compiled.asm, || {
                    format!("{}: output differs between identical optimizations", w.name)
                }),
            }
        }
        if pass == 0 {
            // Every later pass repeats the first: count its relaxation once.
            let after = mao::relax::relax_totals();
            relax_delta = (
                after.iterations - relax_before.iterations,
                after.rechecks - relax_before.rechecks,
            );
        }
        pass += 1;
    }
    out.set("setup_s", median(&setup));
    let first: Vec<Compiled> = first
        .into_iter()
        .map(|c| c.expect("every program ran"))
        .collect();
    for (w, t) in programs.iter().zip(&times_ms) {
        eprintln!(
            "perfbench: {:<14} median {:>8.1} ms over {} optimizations",
            w.name,
            median(t),
            t.len()
        );
    }

    // Quality and correctness: every %rax matches; cycles after / before.
    let mut ratios = Vec::new();
    let mut instructions = 0;
    for (i, w) in programs.iter().enumerate() {
        let after = simulate(&first[i].asm, w, &config, tracer, 0)?;
        out.check(after.ret == before[i].ret, || {
            format!(
                "{}: %rax {:#x} after optimization, {:#x} before",
                w.name, after.ret, before[i].ret
            )
        });
        ratios.push(after.cycles as f64 / before[i].cycles as f64);
        instructions += after.instructions + before[i].instructions;
    }
    let cycles_ratio = geomean(&ratios);
    // Each program gets only a few optimizations in a run, too few for a
    // tail of its own: pool every time over its program's mean and take the
    // tail of that. (Over the median, an odd count puts a third of the
    // ratios at exactly 1, where the tail of 24 samples lands.)
    let normalized: Vec<f64> = times_ms
        .iter()
        .flat_map(|t| {
            let mean = t.iter().sum::<f64>() / t.len() as f64;
            t.iter().map(move |ms| ms / mean)
        })
        .collect();
    if !tracer.enabled() {
        // Per program, then averaged: the programs differ tenfold in cost,
        // so one median over all of them would sit between two programs.
        let per_program = |f: &dyn Fn(&[f64]) -> f64| {
            times_ms.iter().map(|t| f(t)).sum::<f64>() / programs.len() as f64
        };
        out.set("op_p50_ms", per_program(&|t| median(t)));
        let mean = per_program(&|t| t.iter().sum::<f64>() / t.len() as f64);
        out.set("op_tail_ms", mean * tail(&normalized).value);
        out.set("peak_rss_mb", peak_rss_mb(None));
        out.set("output_cost_ratio", cycles_ratio);
        return Ok(out);
    }

    out.set("sim.cycles_ratio", cycles_ratio);
    let sim_run = tracer.total("sim.run").0;
    out.set("sim.run_s", sim_run);
    out.set("sim.load_s", tracer.total("sim.load").0);
    out.set(
        "sim.minsn_per_s",
        instructions as f64 / sim_run.max(1e-9) / 1e6,
    );

    let ops: usize = times_ms.iter().map(Vec::len).sum();
    util::set_pipeline_layers(tracer, ops, &first, relax_delta, &mut out);

    // SUPEROPT again over each program's last cache directory: warm.
    let mut warm = 0.0;
    for (i, w) in programs.iter().enumerate() {
        op += 1;
        let root = tracer.span("bench.warm", op);
        let c = util::compile(&w.asm, &spec_pipeline(&warm_dirs[i]), 1, tracer, op)?;
        drop(root);
        warm += c
            .passes
            .iter()
            .find(|p| p.0 == "SUPEROPT")
            .map_or(0.0, |p| p.1);
        out.check(c.asm == first[i].asm, || {
            format!("{}: warm-cache output differs", w.name)
        });
    }
    out.set("superopt.warm_s", warm);

    set_ops(&normalized, &mut out);
    Ok(out)
}
