//! Two-phase equivalence verification for candidate rewrites.
//!
//! A candidate replaces a window only if it is observationally equivalent
//! on every architectural channel the rest of the function could read:
//! all 16 GPRs, every byte of memory either side stores, and flag
//! discipline (flags themselves are excluded — window extraction already
//! proved the window's flags dead at exit).
//!
//! Both phases run instructions *in place*: the window and each candidate
//! are [`mao_sim::CodeSource`] slices, so nothing on the verify path is
//! printed, parsed, relaxed or loaded. Register and memory state are seeded
//! through the machine-init hook (not `movabs` preambles). A candidate
//! costs at most `states` phase-1 runs of the bare slice plus, if it
//! survives, `states` phase-2 runs of the slice and its spill tail.
//!
//! **Phase 1 — differential filter.** The candidate runs on N
//! seeded-random machine states via `mao_sim::run_observed_init`; return
//! value and the full GPR file must agree with the original on every state.
//! This is the cheap filter that kills almost all wrong candidates (no
//! per-instruction observation, no memory tracking, no spill: spill stores
//! change no register).
//!
//! **Phase 2 — the mao-check oracle.** Survivors, each followed by a
//! *spill of every window register to memory*, run on the same states
//! under the full `mao_sim::oracle` observation (`%rax` + callee-saved
//! registers, memory readback over the union of store addresses,
//! undefined-flag-read discipline). The spill promotes caller-saved
//! scratch registers into the oracle's observable set — the oracle alone
//! only compares callee-saved state, but a window's `%rcx` result may be
//! read by the very next instruction.
//!
//! **Round-trip guard.** The emitted program is AT&T text, so before a
//! candidate is accepted its text must parse back to the very instructions
//! the oracle ran, each encodable: what was verified is what gets emitted.
//! Only candidates that pass both phases pay this one print and parse.

use std::cell::OnceCell;
use std::fmt::Write as _;

use mao::MaoUnit;
use mao_sim::oracle::{compare, observe_program, Observation};
use mao_sim::{run_observed_init, CodeSource, Machine};
use mao_x86::operand::{Mem, Operand};
use mao_x86::{encoded_length, BranchForm, Instruction, Mnemonic, Reg, RegId, Width};
use rand::rngs::StdRng;
use rand::RngExt;

/// Where phase 2 spills window registers: its own page, away from the
/// simulator's text (0x40_0000), data (0x1000_0000), and stack
/// (0x7fff_ff00) regions.
const SPILL_BASE: u64 = 0x2000_0000;

/// Instruction budget per run. A window is at most 8 instructions and the
/// spill tail at most 15.
const RUN_BUDGET: u64 = 256;

/// Entry label of every run; a straight-line slice starts at its first
/// instruction whatever the label.
const ENTRY: &str = "w";

/// What phase 1 compares: the return value and the GPR file.
type Phase1 = (u64, [u64; 16]);

/// One sampled machine state: a value per pool register plus a value per
/// seeded memory operand.
#[derive(Debug, Clone)]
struct State {
    regs: Vec<u64>,
    mem_vals: Vec<u64>,
}

/// Why a candidate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// Failed the phase-1 differential filter.
    Diff(String),
    /// Passed phase 1 but the full oracle found a divergence.
    Oracle(String),
    /// Not a usable replacement: registers or memory operands outside the
    /// original window's set, or text that does not parse back to the
    /// verified instructions.
    Unusable(String),
}

/// A verifier for one window (in canonical register space): precomputes
/// the original's behavior on every sampled state, so a candidate costs
/// only its own simulator runs.
pub struct Verifier {
    /// Distinct non-`%rsp` registers of the original window.
    pool: Vec<RegId>,
    /// Distinct memory operands of the original window (seed targets).
    mems: Vec<Mem>,
    states: Vec<State>,
    /// Phase 2's tail: every pool register stored to its spill slot.
    spill: Vec<Instruction>,
    orig_results: Vec<Phase1>,
    /// The original's phase-2 observations, made when the first candidate
    /// reaches phase 2: most windows never get one past phase 1.
    orig_observations: OnceCell<Vec<Observation>>,
    /// The original window, for those observations.
    original: Vec<Instruction>,
}

/// Distinct register ids an instruction sequence mentions (excluding the
/// pinned `%rsp`), in first-appearance order.
pub fn window_regs(insns: &[Instruction]) -> Vec<RegId> {
    let mut out = Vec::new();
    let mut push = |id: RegId| {
        if id != RegId::Rsp && !out.contains(&id) {
            out.push(id);
        }
    };
    for insn in insns {
        for op in &insn.operands {
            match op {
                Operand::Reg(r) | Operand::IndirectReg(r) => push(r.id),
                Operand::Mem(m) | Operand::IndirectMem(m) => {
                    for r in m.regs_used() {
                        push(r.id);
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Distinct memory operands of an instruction sequence, in order.
pub fn window_mems(insns: &[Instruction]) -> Vec<Mem> {
    let mut out: Vec<Mem> = Vec::new();
    for insn in insns {
        for op in &insn.operands {
            if let Operand::Mem(m) = op {
                if !out.contains(m) {
                    out.push(m.clone());
                }
            }
        }
    }
    out
}

/// Phase 2's tail: `movq %reg, SPILL_BASE + 8k` for the k-th pool
/// register.
fn spill_tail(pool: &[RegId]) -> Vec<Instruction> {
    pool.iter()
        .enumerate()
        .map(|(k, r)| {
            let slot = Mem::abs((SPILL_BASE + 8 * k as u64) as i64);
            Instruction::with_width(
                Mnemonic::Mov,
                Width::B8,
                vec![Operand::Reg(Reg::q(*r)), Operand::Mem(slot)],
            )
        })
        .collect()
}

/// Does the AT&T text of `insns` parse back to exactly `insns`, each of
/// them encodable? The oracle runs instructions, the output is text; this
/// ties the two together.
fn round_trips(insns: &[Instruction]) -> bool {
    if insns
        .iter()
        .any(|i| encoded_length(i, BranchForm::Rel32).is_err())
    {
        return false;
    }
    let mut text = String::new();
    for insn in insns {
        let _ = writeln!(text, "\t{insn}");
    }
    MaoUnit::parse(&text).is_ok_and(|unit| {
        unit.entries()
            .iter()
            .map(|e| e.insn())
            .eq(insns.iter().map(Some))
    })
}

/// Effective address of `m` under the machine's current register values.
fn mem_addr(m: &Mem, machine: &Machine) -> u64 {
    let reg_val = |r: &mao_x86::Reg| {
        let v = machine.gpr[r.id.encoding() as usize];
        match r.width {
            Width::B4 => v & 0xffff_ffff,
            Width::B2 => v & 0xffff,
            Width::B1 => v & 0xff,
            _ => v,
        }
    };
    let mut addr = m.disp.constant().unwrap_or(0) as u64;
    if let Some(b) = &m.base {
        addr = addr.wrapping_add(reg_val(b));
    }
    if let Some(i) = &m.index {
        addr = addr.wrapping_add(reg_val(i).wrapping_mul(u64::from(m.scale.max(1))));
    }
    addr
}

/// Draw one biased-random 64-bit value: boundary values are
/// disproportionately likely because they are where wrong rewrites
/// actually diverge (carries, sign bits, zero identities).
fn interesting_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..8u32) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => rng.random_range(0..256u64),
        4 => 0x8000_0000_0000_0000 | rng.random_range(0..256u64),
        5 => 0x7fff_ffff,
        6 => 0xffff_ffff,
        _ => rng.random(),
    }
}

impl Verifier {
    /// Build a verifier for `original` (canonical space), sampling
    /// `diff_states` machine states from `rng`. `Err` when the original
    /// itself cannot run — the caller skips the window.
    pub fn new(
        original: &[Instruction],
        diff_states: usize,
        rng: &mut StdRng,
    ) -> Result<Verifier, String> {
        let pool = window_regs(original);
        let mems = window_mems(original);
        let states: Vec<State> = (0..diff_states.max(1))
            .map(|_| State {
                regs: pool.iter().map(|_| interesting_u64(rng)).collect(),
                mem_vals: mems.iter().map(|_| rng.random()).collect(),
            })
            .collect();
        let orig_results = states
            .iter()
            .map(|state| run_state(original, &pool, &mems, state))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("original window not runnable: {e}"))?;
        Ok(Verifier {
            spill: spill_tail(&pool),
            pool,
            mems,
            states,
            orig_results,
            orig_observations: OnceCell::new(),
            original: original.to_vec(),
        })
    }

    /// Number of sampled states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Phase 1 only: cheap differential scoring for the stochastic search.
    /// Returns the number of states on which the candidate diverges (0 =
    /// survives the filter), or `Err` when the candidate is unusable.
    pub fn diff_failures(&self, candidate: &[Instruction]) -> Result<usize, Reject> {
        self.check_closed_world(candidate)?;
        Ok(self.failures(candidate))
    }

    /// Full two-phase verification plus the round-trip guard. `Ok(())`
    /// means the candidate agreed with the original on every sampled state
    /// under both the fast filter and the complete oracle, and its text
    /// emits exactly what was verified.
    pub fn verify(&self, candidate: &[Instruction]) -> Result<(), Reject> {
        self.check_closed_world(candidate)?;
        let observed: Vec<Instruction> = candidate.iter().chain(&self.spill).cloned().collect();
        self.two_phase(candidate, &observed[..])?;
        if !round_trips(candidate) {
            return Err(Reject::Unusable(
                "candidate text does not parse back to the verified instructions".into(),
            ));
        }
        Ok(())
    }

    /// Phase 1 on `code`: the number of states on which it diverges.
    fn failures<C: CodeSource + ?Sized>(&self, code: &C) -> usize {
        self.states
            .iter()
            .zip(&self.orig_results)
            .filter(|(state, orig)| {
                run_state(code, &self.pool, &self.mems, state).as_ref() != Ok(*orig)
            })
            .count()
    }

    /// Phase 1 on `filtered`, then phase 2 on `observed` (the same code
    /// followed by the spill tail).
    fn two_phase<F, O>(&self, filtered: &F, observed: &O) -> Result<(), Reject>
    where
        F: CodeSource + ?Sized,
        O: CodeSource + ?Sized,
    {
        // Phase 1: return value + full GPR file.
        for (state, (orig_ret, orig_gpr)) in self.states.iter().zip(&self.orig_results) {
            match run_state(filtered, &self.pool, &self.mems, state) {
                Ok((ret, gpr)) => {
                    if ret != *orig_ret {
                        return Err(Reject::Diff(format!(
                            "return value differs: {orig_ret:#x} -> {ret:#x}"
                        )));
                    }
                    if gpr != *orig_gpr {
                        let k = (0..16).find(|&k| gpr[k] != orig_gpr[k]).unwrap();
                        return Err(Reject::Diff(format!(
                            "gpr[{k}] differs: {:#x} -> {:#x}",
                            orig_gpr[k], gpr[k]
                        )));
                    }
                }
                Err(e) => return Err(Reject::Diff(format!("candidate faulted: {e}"))),
            }
        }
        // Phase 2: the full oracle (memory readback, flag discipline).
        for (state, orig_obs) in self.states.iter().zip(self.orig_observations()) {
            let cand_obs =
                observe_state(observed, &self.pool, &self.mems, state).map_err(Reject::Unusable)?;
            if let Some(divergence) = compare(orig_obs, &cand_obs) {
                return Err(Reject::Oracle(divergence));
            }
        }
        Ok(())
    }

    /// The original's phase-2 observations, one per state. Observing
    /// straight-line code cannot fail to start, so this cannot fail.
    fn orig_observations(&self) -> &[Observation] {
        self.orig_observations.get_or_init(|| {
            let observed: Vec<Instruction> =
                self.original.iter().chain(&self.spill).cloned().collect();
            self.states
                .iter()
                .map(|state| {
                    observe_state(&observed[..], &self.pool, &self.mems, state)
                        .expect("straight-line code always starts")
                })
                .collect()
        })
    }

    /// The closed-world restriction: candidates may only touch the
    /// original's registers and memory operands (anything else escapes the
    /// sampled state space).
    fn check_closed_world(&self, candidate: &[Instruction]) -> Result<(), Reject> {
        for id in window_regs(candidate) {
            if !self.pool.contains(&id) {
                return Err(Reject::Unusable(format!(
                    "candidate uses register {id:?} outside the window's set"
                )));
            }
        }
        for m in window_mems(candidate) {
            if !self.mems.contains(&m) {
                return Err(Reject::Unusable(format!(
                    "candidate uses memory operand {m} outside the window's set"
                )));
            }
        }
        Ok(())
    }
}

/// The init hook shared by both phases: set every pool register, then seed
/// every memory operand (address computed under the just-set registers)
/// with its per-state value.
fn seed_machine(machine: &mut Machine, pool: &[RegId], mems: &[Mem], state: &State) {
    for (r, v) in pool.iter().zip(&state.regs) {
        machine.gpr[r.encoding() as usize] = *v;
    }
    for (m, v) in mems.iter().zip(&state.mem_vals) {
        let addr = mem_addr(m, machine);
        machine.mem.write(addr, *v, 8);
    }
}

/// Phase-1 run: returns `(ret, gpr)` after the code finishes.
fn run_state<C: CodeSource + ?Sized>(
    code: &C,
    pool: &[RegId],
    mems: &[Mem],
    state: &State,
) -> Result<Phase1, String> {
    let outcome = run_observed_init(
        code,
        ENTRY,
        &[],
        RUN_BUDGET,
        |m| seed_machine(m, pool, mems, state),
        |_| {},
    )
    .map_err(|e| format!("entry: {e}"))?;
    match outcome.result {
        Ok((ret, _)) => Ok((ret, outcome.machine.gpr)),
        Err(e) => Err(format!("run: {e}")),
    }
}

/// Phase-2 run: full oracle observation under the same seeding.
fn observe_state<C: CodeSource + ?Sized>(
    code: &C,
    pool: &[RegId],
    mems: &[Mem],
    state: &State,
) -> Result<Observation, String> {
    observe_program(code, ENTRY, &[], RUN_BUDGET, |m| {
        seed_machine(m, pool, mems, state)
    })
}

/// The text harness, a differential oracle for the in-place runs: the
/// window, its spill tail and `ret` printed as one AT&T function, parsed,
/// relaxed and loaded as a program.
#[cfg(test)]
pub(crate) mod harness {
    use super::*;
    use mao_sim::Program;

    /// The window body, then a spill of every pool register to a fixed
    /// absolute slot, then `ret`.
    pub(crate) fn harness_text(body: &[Instruction], pool: &[RegId]) -> String {
        let mut t = format!(".text\n.type {ENTRY}, @function\n{ENTRY}:\n");
        for insn in body {
            let _ = writeln!(t, "\t{insn}");
        }
        for (k, r) in pool.iter().enumerate() {
            let _ = writeln!(
                t,
                "\tmovq %{}, {}",
                mao_x86::Reg::q(*r).att_name(),
                SPILL_BASE + 8 * k as u64
            );
        }
        t.push_str("\tret\n");
        t
    }

    /// Parse + load one harness program.
    pub(crate) fn load_harness(body: &[Instruction], pool: &[RegId]) -> Result<Program, String> {
        let text = harness_text(body, pool);
        let unit = MaoUnit::parse(&text).map_err(|e| format!("harness parse: {e}"))?;
        Program::load(&unit).map_err(|e| format!("harness load: {e}"))
    }

    /// The original's phase-1 results and phase-2 observations, through
    /// the harness.
    pub(crate) fn original(
        v: &Verifier,
        original: &[Instruction],
    ) -> Result<(Vec<Phase1>, Vec<Observation>), String> {
        let program = load_harness(original, &v.pool)?;
        let mut results = Vec::new();
        let mut observations = Vec::new();
        for state in &v.states {
            results.push(run_state(&program, &v.pool, &v.mems, state)?);
            observations.push(observe_state(&program, &v.pool, &v.mems, state)?);
        }
        Ok((results, observations))
    }

    /// [`Verifier::diff_failures`] through the harness.
    pub(crate) fn diff_failures(v: &Verifier, candidate: &[Instruction]) -> Result<usize, Reject> {
        v.check_closed_world(candidate)?;
        let program = load_harness(candidate, &v.pool).map_err(Reject::Unusable)?;
        Ok(v.failures(&program))
    }

    /// [`Verifier::verify`] through the harness: both phases on the loaded
    /// harness program, whose text the round trip already went through.
    pub(crate) fn verify(v: &Verifier, candidate: &[Instruction]) -> Result<(), Reject> {
        v.check_closed_world(candidate)?;
        let program = load_harness(candidate, &v.pool).map_err(Reject::Unusable)?;
        v.two_phase(&program, &program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn insns(lines: &str) -> Vec<Instruction> {
        let text: String = lines.lines().map(|l| format!("\t{}\n", l.trim())).collect();
        let unit = MaoUnit::parse(&text).unwrap();
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect()
    }

    fn verifier(orig: &str) -> Verifier {
        let mut rng = StdRng::seed_from_u64(7);
        Verifier::new(&insns(orig), 6, &mut rng).unwrap()
    }

    #[test]
    fn mov_roundtrip_tail_equals_single_mov() {
        // mov a,b ; mov b,a — the second mov is redundant.
        let v = verifier("movq %rax, %rcx\nmovq %rcx, %rax");
        assert_eq!(v.verify(&insns("movq %rax, %rcx")), Ok(()));
    }

    #[test]
    fn dropping_a_live_write_is_rejected() {
        let v = verifier("movq %rax, %rcx\nmovq %rcx, %rax");
        let r = v.verify(&insns("nop"));
        assert!(
            matches!(r, Err(Reject::Unusable(_)) | Err(Reject::Diff(_))),
            "{r:?}"
        );
    }

    #[test]
    fn wrong_constant_fold_is_rejected() {
        let v = verifier("addq $1, %rax\naddq $2, %rax");
        assert_eq!(v.verify(&insns("addq $3, %rax")), Ok(()));
        assert!(matches!(
            v.verify(&insns("addq $4, %rax")),
            Err(Reject::Diff(_))
        ));
    }

    #[test]
    fn dropped_store_is_rejected_by_the_oracle_or_filter() {
        // A store to memory then a load back into the same register: the
        // register file looks identical if the store is dropped (the load
        // reads the seeded value instead) — only the oracle's memory
        // readback or seeded divergence catches it.
        let v = verifier("movq %rax, 8(%rcx)\nmovq 8(%rcx), %rdx");
        let candidate = insns("movq %rax, %rdx");
        let r = v.verify(&candidate);
        assert!(matches!(r, Err(Reject::Oracle(_))), "{r:?}");
        assert_eq!(
            r,
            harness::verify(&v, &candidate),
            "the text harness agrees"
        );
    }

    #[test]
    fn scratch_register_results_are_observable() {
        // %rcx is caller-saved; the plain oracle would not see it, but the
        // spill tail makes it observable.
        let v = verifier("movq %rax, %rcx\naddq $1, %rcx");
        let r = v.verify(&insns("movq %rax, %rcx"));
        assert!(matches!(r, Err(Reject::Diff(_))), "{r:?}");
    }

    #[test]
    fn register_outside_window_set_is_unusable() {
        let v = verifier("movq %rax, %rcx");
        let r = v.verify(&insns("movq %rax, %rdx\nmovq %rax, %rcx"));
        assert!(matches!(r, Err(Reject::Unusable(_))), "{r:?}");
    }

    #[test]
    fn empty_candidate_runs_like_a_bare_return() {
        // Dropping every instruction is a legal candidate; it must run
        // (the seeded state passes straight through), not fault.
        let v = verifier("movq %rax, %rax");
        assert_eq!(v.diff_failures(&[]), Ok(0));
        assert_eq!(v.verify(&[]), Ok(()));
    }

    #[test]
    fn round_trip_guard() {
        assert!(round_trips(&insns("movq %rax, %rcx\naddl $3, %ecx")));
        assert!(round_trips(&[]));
        // A register operand on `lea` prints as text that parses to
        // something else (or not at all): never acceptable output.
        let bogus = Instruction::with_width(
            Mnemonic::Lea,
            Width::B8,
            vec![
                Operand::Reg(Reg::q(RegId::Rax)),
                Operand::Reg(Reg::q(RegId::Rcx)),
            ],
        );
        assert!(!round_trips(&[bogus]));
    }

    #[test]
    fn deterministic_states_for_equal_seeds() {
        let w = insns("addq %rcx, %rax\nsubq %rcx, %rax");
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let va = Verifier::new(&w, 4, &mut a).unwrap();
        let vb = Verifier::new(&w, 4, &mut b).unwrap();
        assert_eq!(va.orig_results, vb.orig_results);
    }

    /// Canonical windows of the paper kernels and the SPEC-like programs,
    /// extracted with the pass's default bounds.
    fn window_pool() -> &'static [Vec<Instruction>] {
        static POOL: std::sync::OnceLock<Vec<Vec<Instruction>>> = std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            let programs = mao_corpus::kernels::paper_suite(4)
                .into_iter()
                .chain(mao_corpus::spec::spec2000_int())
                .chain(mao_corpus::spec::spec2006_subset());
            let mut pool = Vec::new();
            for w in programs {
                let unit = MaoUnit::parse(&w.asm).unwrap();
                for f in unit.functions() {
                    for window in crate::window::extract_windows(&unit, &f, 3, 8) {
                        if let Some(canon) = crate::canon::canonicalize(&window.insns) {
                            pool.push(canon.insns);
                        }
                    }
                }
            }
            assert!(pool.len() > 100, "{} windows", pool.len());
            pool
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Running in place gives the verdicts the text harness gave: for
        /// the original's reference runs, and for every candidate the
        /// search could try (subsequences, templates and Metropolis
        /// mutants, priced so encodable), under both `diff_failures` and
        /// `verify`.
        #[test]
        fn in_place_verdicts_match_the_text_harness(
            pick in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use crate::search::{cost, mutate, subsequences, templates};
            let pool = window_pool();
            let window = &pool[(pick % pool.len() as u64) as usize];
            let mut rng = StdRng::seed_from_u64(seed);
            let v = Verifier::new(window, 3 + (seed % 4) as usize, &mut rng).unwrap();
            let (results, observations) = harness::original(&v, window).unwrap();
            assert_eq!(results, v.orig_results);
            for (a, b) in observations.iter().zip(v.orig_observations()) {
                assert_eq!(a.result, b.result);
                assert_eq!(compare(a, b), None);
            }
            let model = mao_x86::cost::current();
            let subs = subsequences(window);
            let temps = templates(window);
            let mut candidates: Vec<Vec<Instruction>> = (0..8)
                .map(|_| subs[rng.random_range(0..subs.len())].clone())
                .collect();
            if !temps.is_empty() {
                candidates.extend((0..8).map(|_| vec![temps[rng.random_range(0..temps.len())].clone()]));
                let mut mutant = window.clone();
                for _ in 0..8 {
                    mutate(&mut mutant, &temps, window.len(), &mut rng);
                    candidates.push(mutant.clone());
                }
            }
            for c in candidates.iter().filter(|c| cost(&model, c).is_some()) {
                assert_eq!(v.diff_failures(c), harness::diff_failures(&v, c), "{c:?}");
                assert_eq!(v.verify(c), harness::verify(&v, c), "{c:?}");
            }
        }
    }
}
