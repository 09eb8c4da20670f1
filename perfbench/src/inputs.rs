//! Every input a workload feeds the program, generated from `--seed`.
//!
//! The same seed always yields the same corpus, request schedule and pass
//! seeds; the program under test only ever sees these generated inputs.

use mao_corpus::GeneratorConfig;

/// splitmix64: a seed-stream mixer and the step of [`Rng`].
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed for `stream` of the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix(&mut x)
}

/// Small deterministic generator for schedules and shuffles.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------- compile

/// Corpus scale of `compile-corpus`: 200 functions, ~2.7 MB of assembly.
pub const COMPILE_SCALE: f64 = 0.25;

/// The pass pipeline every `compile-corpus` compile runs.
pub const COMPILE_PIPELINE: &str =
    "REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD:DCE:SCHED:BRALIGN:LOOP16:LSDFIT";

/// The synthetic core-library corpus, re-seeded.
pub fn compile_corpus(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed: mix(seed, 1),
        ..GeneratorConfig::core_library(COMPILE_SCALE)
    }
}

// ------------------------------------------------------------------ serve

/// Scale of one `serve-mixed` unit: 24 functions, ~320 KB of assembly.
pub const SERVE_UNIT_SCALE: f64 = 0.03;

/// The traffic mix is `mao loadgen`'s default model of build-farm traffic
/// (`LoadgenConfig::default` in `crates/serve/src/loadgen.rs`): 8 hot
/// keys, 20% cold (never-seen) inputs, 5% malformed. Here the hot set is
/// 8 units, far fewer than the daemon's memory cache holds.
pub const HOT_UNITS: usize = 8;

/// Offered rates of the three load phases, requests per second: about
/// 20%, 70% and 100% of the daemon's saturation throughput for this mix,
/// 52 requests/s as `--capacity` measured it (`README.md`). So `lo` runs
/// with little queueing, `mid` with much, and `hi` at saturation, and
/// `serve.max_rps` can move either way. The restart phase replays at `mid`.
pub const RATES: [(&str, f64); 3] = [("lo", 10.0), ("mid", 36.0), ("hi", 52.0)];

/// One `serve-mixed` unit: hot units are `0..HOT_UNITS`, every later index
/// is a cold unit seen once.
pub fn serve_unit(seed: u64, index: usize) -> GeneratorConfig {
    GeneratorConfig {
        seed: mix(seed, 1000 + index as u64),
        ..GeneratorConfig::core_library(SERVE_UNIT_SCALE)
    }
}

/// What one scheduled request sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A unit by index (see [`serve_unit`]).
    Unit(usize),
    /// A frame that is not valid JSON.
    BadJson,
    /// A well-formed request whose assembly does not parse.
    BadAsm,
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the phase starts at which the request is due.
    pub due_s: f64,
    pub kind: Kind,
}

/// One fixed-rate phase of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    pub seconds: f64,
    pub arrivals: Vec<Arrival>,
}

/// Per block of 20 requests: 15 hot, 4 cold, 1 malformed (the loadgen
/// shares above). Fixed shares keep the hit/miss mix identical across
/// seeds; the seed orders them.
const BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2];

/// Draws request kinds in the mix: hot units in turn, cold units never
/// sent before, malformed requests alternating between the two kinds.
pub struct Mix {
    rng: Rng,
    next_hot: usize,
    next_cold: usize,
    bad: usize,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng::new(seed),
            next_hot: 0,
            next_cold: HOT_UNITS,
            bad: 0,
        }
    }

    /// The next `n` kinds, in whole shuffled blocks (the last one cut).
    pub fn take(&mut self, n: usize) -> Vec<Kind> {
        let mut kinds = Vec::with_capacity(n + BLOCK.len());
        while kinds.len() < n {
            let mut block = BLOCK;
            self.rng.shuffle(&mut block);
            for class in block {
                kinds.push(match class {
                    0 => {
                        self.next_hot += 1;
                        Kind::Unit((self.next_hot - 1) % HOT_UNITS)
                    }
                    1 => {
                        self.next_cold += 1;
                        Kind::Unit(self.next_cold - 1)
                    }
                    _ => {
                        self.bad += 1;
                        if self.bad % 2 == 1 {
                            Kind::BadAsm
                        } else {
                            Kind::BadJson
                        }
                    }
                });
            }
        }
        kinds.truncate(n);
        kinds
    }
}

/// Arrival times of a Poisson process at `rate` over `seconds`,
/// conditioned on its expected count: that many sorted uniform times. A
/// fixed count keeps every seed's run the same size.
fn poisson(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// `batches` batches of `n` requests in the mix, every request due at
/// once: the saturating load that measures the daemon's throughput.
pub fn capacity_batches(seed: u64, batches: usize, n: usize) -> Vec<Vec<Arrival>> {
    let mut mix = Mix::new(mix(seed, 6));
    (0..batches)
        .map(|_| {
            mix.take(n)
                .into_iter()
                .map(|kind| Arrival { due_s: 0.0, kind })
                .collect()
        })
        .collect()
}

/// Share of the run each phase takes: `lo`, `mid`, `hi`, `restart`. The
/// end-to-end latencies come from `lo`, so it runs longest: long enough
/// for its tail (ten requests beyond it) to reach past the median miss,
/// and for a minute's drift in the host's speed to average out.
const PHASE_SHARES: [f64; 4] = [0.55, 0.15, 0.15, 0.15];

/// The open-loop schedule over `seconds`: `lo`, `mid` and `hi` phases,
/// then a `restart` phase at the `mid` rate that replays units the earlier
/// phases sent, each first read from the disk tier.
pub fn serve_schedule(seed: u64, seconds: f64) -> Vec<Phase> {
    let mut rng = Rng::new(mix(seed, 2));
    let mut kinds = Mix::new(mix(seed, 7));
    let mut phases = Vec::new();
    for ((name, rate), share) in RATES.into_iter().zip(PHASE_SHARES) {
        let times = poisson(&mut rng, rate, share * seconds);
        let kinds = kinds.take(times.len());
        phases.push(Phase {
            name,
            rate,
            seconds: share * seconds,
            arrivals: times
                .into_iter()
                .zip(kinds)
                .map(|(due_s, kind)| Arrival { due_s, kind })
                .collect(),
        });
    }
    let mut seen: Vec<usize> = (0..HOT_UNITS).collect();
    seen.extend(
        phases
            .iter()
            .flat_map(|p| &p.arrivals)
            .filter_map(|a| match a.kind {
                Kind::Unit(u) if u >= HOT_UNITS => Some(u),
                _ => None,
            }),
    );
    let rate = RATES[1].1;
    let phase_s = PHASE_SHARES[3] * seconds;
    let times = poisson(&mut rng, rate, phase_s);
    rng.shuffle(&mut seen);
    let arrivals = times
        .into_iter()
        .enumerate()
        .map(|(i, due_s)| Arrival {
            due_s,
            kind: Kind::Unit(seen[i % seen.len()]),
        })
        .collect();
    phases.push(Phase {
        name: "restart",
        rate,
        seconds: phase_s,
        arrivals,
    });
    phases
}

// ------------------------------------------------------------------- spec

/// The SPEC-like programs `spec-quality` optimizes and simulates. A fixed
/// set: a seeded subset of the 19 moves the geomean cycle ratio by ~4%
/// between seeds, more than a useful regression bound.
pub const SPEC_PROGRAMS: [&str; 8] = [
    "164.gzip",
    "197.parser",
    "256.bzip2",
    "300.twolf",
    "410.bwaves",
    "429.mcf",
    "454.calculix",
    "464.h264ref",
];

/// The seeded order in which `spec-quality` visits its programs.
pub fn spec_order(seed: u64) -> Vec<&'static str> {
    let mut order = SPEC_PROGRAMS.to_vec();
    Rng::new(mix(seed, 3)).shuffle(&mut order);
    order
}

/// Figure 7's pass set followed by SUPEROPT, with SUPEROPT's rewrite cache
/// in `cache_dir`. NOPIN's and SUPEROPT's own seeds stay at 1, as in
/// Figure 7: drawn from the benchmark seed, they changed how much search
/// SUPEROPT does, and the mean optimization time of two seeds run in
/// alternation differed by ~12%, half the bound on it.
pub fn spec_pipeline(cache_dir: &str) -> String {
    format!(
        "REDMOV:REDTEST:LOOP16=max-size[18]:NOPIN=seed[1],density[0.005],maxlen[1]:SCHED:\
         SUPEROPT=seed[1],cache-dir[{cache_dir}]"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let a = mao_corpus::generate(&compile_corpus(7));
        let b = mao_corpus::generate(&compile_corpus(7));
        let c = mao_corpus::generate(&compile_corpus(8));
        assert_eq!(a.asm, b.asm);
        assert_eq!(a.planted, b.planted);
        assert_ne!(a.asm, c.asm);
        assert_eq!(a.planted.functions, 200);
    }

    #[test]
    fn serve_units_are_a_function_of_the_seed() {
        let a = mao_corpus::generate(&serve_unit(7, 3)).asm;
        assert_eq!(a, mao_corpus::generate(&serve_unit(7, 3)).asm);
        assert_ne!(a, mao_corpus::generate(&serve_unit(7, 4)).asm);
        assert_ne!(a, mao_corpus::generate(&serve_unit(8, 3)).asm);
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = serve_schedule(11, 4.0);
        assert_eq!(a, serve_schedule(11, 4.0));
        assert_ne!(a, serve_schedule(12, 4.0));
        let names: Vec<_> = a.iter().map(|p| p.name).collect();
        assert_eq!(names, ["lo", "mid", "hi", "restart"]);
    }

    #[test]
    fn schedule_keeps_its_shape() {
        for seed in 0..20 {
            let phases = serve_schedule(seed, 20.0);
            let total: f64 = phases.iter().map(|p| p.seconds).sum();
            assert!((total - 20.0).abs() < 1e-9);
            assert!((phases[0].seconds - 11.0).abs() < 1e-9);
            for p in &phases {
                assert!(p.arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
                assert!(p
                    .arrivals
                    .iter()
                    .all(|a| (0.0..p.seconds).contains(&a.due_s)));
                assert_eq!(p.arrivals.len() as f64, (p.rate * p.seconds).round());
            }
            // Every cold unit is sent once, before the restart phase.
            let mut cold: Vec<usize> = phases[..3]
                .iter()
                .flat_map(|p| &p.arrivals)
                .filter_map(|a| match a.kind {
                    Kind::Unit(u) if u >= HOT_UNITS => Some(u),
                    _ => None,
                })
                .collect();
            let n = cold.len();
            cold.sort_unstable();
            cold.dedup();
            assert_eq!(cold.len(), n);
            // The restart phase replays only units sent before it.
            for a in &phases[3].arrivals {
                let Kind::Unit(u) = a.kind else {
                    panic!("malformed replay")
                };
                assert!(u < HOT_UNITS || cold.binary_search(&u).is_ok());
            }
        }
    }

    #[test]
    fn mix_keeps_the_loadgen_shares() {
        let kinds = Mix::new(3).take(2000);
        let hot = kinds
            .iter()
            .filter(|k| matches!(k, Kind::Unit(u) if *u < HOT_UNITS))
            .count();
        let bad = kinds.iter().filter(|k| !matches!(k, Kind::Unit(_))).count();
        assert_eq!((hot, 2000 - hot - bad, bad), (1500, 400, 100));
        // Every block of 20 holds the same shares, whatever the seed.
        for block in Mix::new(9).take(200).chunks(20) {
            assert_eq!(
                block.iter().filter(|k| !matches!(k, Kind::Unit(_))).count(),
                1
            );
        }
    }

    #[test]
    fn capacity_batches_are_a_function_of_the_seed() {
        let a = capacity_batches(4, 3, 50);
        assert_eq!(a, capacity_batches(4, 3, 50));
        assert_ne!(a, capacity_batches(5, 3, 50));
        assert!(a.iter().all(|b| b.len() == 50));
        assert!(a.iter().flatten().all(|r| r.due_s == 0.0));
    }

    #[test]
    fn spec_inputs_are_a_function_of_the_seed() {
        assert_eq!(spec_order(5), spec_order(5));
        let mut sorted = spec_order(5);
        sorted.sort_unstable();
        let mut all = SPEC_PROGRAMS.to_vec();
        all.sort_unstable();
        assert_eq!(sorted, all);
        assert_ne!(spec_order(5), spec_order(6));
    }

    #[test]
    fn rng_is_deterministic_and_uniform_enough() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<f64> = (0..1000).map(|_| a.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        assert_eq!(xs, (0..1000).map(|_| b.next_f64()).collect::<Vec<_>>());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.05);
    }
}
