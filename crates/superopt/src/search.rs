//! Candidate search: enumerative for small windows, stochastic
//! (Metropolis) for larger ones.
//!
//! The cost model ranks candidates by `Σ (latency·16 + encoded length)` —
//! the same latency numbers the mao-sim timing model charges, weighted so
//! a saved cycle always beats a saved byte, with encoded length as the
//! tiebreak (the paper's passes fight for bytes too: shorter code packs
//! more of the loop into the LSD window). Only strict improvements are
//! accepted.
//!
//! **Enumerative stage.** Every subsequence of the window (dropping
//! redundant instructions is the single most common win in compiler tails)
//! plus a curated pool of single-instruction templates over the window's
//! own registers, memory operands, and immediates (with derived constants:
//! pairwise sums/differences/products fold `add $1; add $2` into
//! `add $3`). Candidates are tested cheapest-first, so the first verified
//! win is the best this stage can produce.
//!
//! **Stochastic stage.** For windows longer than `enum_max`, a
//! Metropolis-style mutate/accept walk (delete / insert / replace / swap /
//! immediate-tweak), scored by cost plus a large penalty per differential
//! failure, with occasional uphill acceptance to escape local minima. The
//! best fully-agreeing candidate is re-verified with the complete
//! two-phase check before being returned.

use mao_x86::cost::CostModel;
use mao_x86::operand::{Mem, Operand};
use mao_x86::{encoded_length, BranchForm, Instruction, Mnemonic, Reg, RegId, Width};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::verify::{window_mems, window_regs, Reject, Verifier};

/// Search budgets and knobs (all settable through pass options).
#[derive(Debug, Clone)]
pub struct SearchCfg {
    /// Windows up to this length use only the enumerative stage.
    pub enum_max: usize,
    /// Metropolis iterations for longer windows.
    pub iters: u64,
    /// Cap on enumerative candidates tried per window. Every candidate run
    /// against the verifier counts, phase-1 rejects included; the
    /// stochastic stage is bounded by `iters` instead.
    pub max_candidates: u64,
}

impl Default for SearchCfg {
    fn default() -> SearchCfg {
        SearchCfg {
            enum_max: 4,
            iters: 200,
            max_candidates: 192,
        }
    }
}

/// What one window's search did (feeds the obs counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchCounters {
    /// Candidates executed against the differential filter or verifier.
    pub candidates: u64,
    /// Candidates killed by the phase-1 differential filter.
    pub diff_rejects: u64,
    /// Candidates that survived phase 1 but were killed by the oracle.
    pub oracle_rejects: u64,
}

/// Cost of one instruction under `model`: modeled latency (×16) plus
/// encoded length.
pub fn insn_cost(model: &CostModel, insn: &Instruction) -> Option<u64> {
    let len = encoded_length(insn, BranchForm::Rel32).ok()? as u64;
    Some(model.latency(insn) * 16 + len)
}

/// Cost of a candidate sequence under `model`; `None` if any instruction
/// is unencodable.
pub fn cost(model: &CostModel, insns: &[Instruction]) -> Option<u64> {
    insns.iter().map(|i| insn_cost(model, i)).sum()
}

/// Search for a strictly cheaper, verified replacement of `window`
/// (canonical register space), priced under the installed cost model.
/// Returns the replacement or `None`.
pub fn search(
    window: &[Instruction],
    verifier: &Verifier,
    cfg: &SearchCfg,
    rng: &mut StdRng,
    counters: &mut SearchCounters,
) -> Option<Vec<Instruction>> {
    let model = mao_x86::cost::current();
    let orig_cost = cost(&model, window)?;
    let mut candidates = subsequences(window);
    candidates.extend(templates(window).into_iter().map(|t| vec![t]));
    // Cheapest first; generation order breaks ties, so the result is
    // deterministic for a given window.
    let mut priced: Vec<(u64, Vec<Instruction>)> = candidates
        .into_iter()
        .filter_map(|c| cost(&model, &c).map(|k| (k, c)))
        .filter(|(k, _)| *k < orig_cost)
        .collect();
    priced.sort_by_key(|(k, _)| *k);
    for (_, candidate) in priced {
        if counters.candidates >= cfg.max_candidates {
            break;
        }
        counters.candidates += 1;
        match verifier.verify(&candidate) {
            Ok(()) => return Some(candidate),
            Err(Reject::Diff(_)) => counters.diff_rejects += 1,
            Err(Reject::Oracle(_)) => counters.oracle_rejects += 1,
            Err(Reject::Unusable(_)) => {}
        }
    }
    if window.len() > cfg.enum_max {
        return metropolis(window, &model, orig_cost, verifier, cfg, rng, counters);
    }
    None
}

/// Every proper subsequence of the window (including the empty one),
/// cheapest wins later via sorting.
pub(crate) fn subsequences(window: &[Instruction]) -> Vec<Vec<Instruction>> {
    let l = window.len().min(8);
    let full = (1u32 << l) - 1;
    (0..full)
        .map(|mask| {
            (0..l)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| window[i].clone())
                .collect()
        })
        .collect()
}

fn reg_of(id: RegId, w: Width) -> Reg {
    match w {
        Width::B4 => Reg::l(id),
        Width::B2 => Reg::w(id),
        Width::B1 => Reg::b(id),
        // B16 never appears in eligible windows (no XMM); default to full.
        _ => Reg::q(id),
    }
}

/// Immediates appearing in the window plus derived constants (pairwise
/// sums, differences, products — the fold targets).
fn derived_imms(window: &[Instruction]) -> Vec<i64> {
    let mut base: Vec<i64> = Vec::new();
    for insn in window {
        for op in &insn.operands {
            if let Operand::Imm(v) = op {
                if !base.contains(v) {
                    base.push(*v);
                }
            }
        }
    }
    let mut out = base.clone();
    let mut push = |v: i64| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    for i in 0..base.len() {
        push(base[i].wrapping_neg());
        for j in 0..base.len() {
            push(base[i].wrapping_add(base[j]));
            push(base[i].wrapping_sub(base[j]));
            push(base[i].wrapping_mul(base[j]));
        }
    }
    out
}

/// Widths the window computes in (destination widths).
fn window_widths(window: &[Instruction]) -> Vec<Width> {
    let mut out = Vec::new();
    for insn in window {
        let w = insn.width();
        if !out.contains(&w) {
            out.push(w);
        }
    }
    out
}

/// The single-instruction template pool over the window's registers,
/// memory operands, and (derived) immediates.
pub(crate) fn templates(window: &[Instruction]) -> Vec<Instruction> {
    let regs = window_regs(window);
    let mems = window_mems(window);
    let imms = derived_imms(window);
    let widths = window_widths(window);
    let mut out = Vec::new();
    for &w in &widths {
        // Register-to-register moves and two-register ALU.
        for &src in &regs {
            for &dst in &regs {
                if src == dst {
                    continue;
                }
                let (s, d) = (reg_of(src, w), reg_of(dst, w));
                for m in [Mnemonic::Mov, Mnemonic::Add, Mnemonic::Sub, Mnemonic::Xor] {
                    out.push(Instruction::with_width(
                        m,
                        w,
                        vec![Operand::Reg(s), Operand::Reg(d)],
                    ));
                }
            }
        }
        for &dst in &regs {
            let d = reg_of(dst, w);
            // Immediate moves and ALU (imm32-encodable only; movabs covers
            // the 64-bit rest).
            for &v in &imms {
                if i32::try_from(v).is_ok() {
                    for m in [Mnemonic::Mov, Mnemonic::Add, Mnemonic::Sub, Mnemonic::And] {
                        out.push(Instruction::with_width(
                            m,
                            w,
                            vec![Operand::Imm(v), Operand::Reg(d)],
                        ));
                    }
                    if (1..64).contains(&v) {
                        for m in [Mnemonic::Shl, Mnemonic::Shr, Mnemonic::Sar] {
                            out.push(Instruction::with_width(
                                m,
                                w,
                                vec![Operand::Imm(v), Operand::Reg(d)],
                            ));
                        }
                    }
                } else if w == Width::B8 {
                    out.push(Instruction::with_width(
                        Mnemonic::Movabs,
                        w,
                        vec![Operand::Imm(v), Operand::Reg(d)],
                    ));
                }
            }
            // Unary rewrites.
            for m in [Mnemonic::Neg, Mnemonic::Not, Mnemonic::Inc, Mnemonic::Dec] {
                out.push(Instruction::with_width(m, w, vec![Operand::Reg(d)]));
            }
            // Loads from the window's memory operands.
            for mem in &mems {
                out.push(Instruction::with_width(
                    Mnemonic::Mov,
                    w,
                    vec![Operand::Mem(mem.clone()), Operand::Reg(d)],
                ));
            }
        }
        // Stores to the window's memory operands.
        for mem in &mems {
            for &src in &regs {
                out.push(Instruction::with_width(
                    Mnemonic::Mov,
                    w,
                    vec![Operand::Reg(reg_of(src, w)), Operand::Mem(mem.clone())],
                ));
            }
        }
    }
    // lea: base+index and base+disp address arithmetic at full width.
    for &b in &regs {
        for &dst in &regs {
            let d = Reg::q(dst);
            for &i in &regs {
                out.push(Instruction::with_width(
                    Mnemonic::Lea,
                    Width::B8,
                    vec![
                        Operand::Mem(Mem::base_index(Reg::q(b), Reg::q(i), 1, 0)),
                        Operand::Reg(d),
                    ],
                ));
            }
            for &v in &imms {
                if i32::try_from(v).is_ok() && v != 0 {
                    out.push(Instruction::with_width(
                        Mnemonic::Lea,
                        Width::B8,
                        vec![Operand::Mem(Mem::base_disp(Reg::q(b), v)), Operand::Reg(d)],
                    ));
                }
            }
        }
    }
    out
}

/// Penalty per diverging state when scoring stochastic candidates; dwarfs
/// any cost difference so correctness always dominates.
const FAIL_PENALTY: u64 = 50_000;

/// Metropolis acceptance temperature (in score units).
const TEMPERATURE: f64 = 20_000.0;

/// Stochastic mutate/accept search for windows too long to enumerate.
fn metropolis(
    window: &[Instruction],
    model: &CostModel,
    orig_cost: u64,
    verifier: &Verifier,
    cfg: &SearchCfg,
    rng: &mut StdRng,
    counters: &mut SearchCounters,
) -> Option<Vec<Instruction>> {
    let pool = templates(window);
    if pool.is_empty() {
        return None;
    }
    // Score of a candidate of cost `k`.
    let score_of = |c: &[Instruction], k: Option<u64>, counters: &mut SearchCounters| -> u64 {
        let Some(k) = k else {
            return u64::MAX / 2;
        };
        counters.candidates += 1;
        match verifier.diff_failures(c) {
            Ok(f) => {
                if f > 0 {
                    counters.diff_rejects += 1;
                }
                k + f as u64 * FAIL_PENALTY
            }
            Err(_) => u64::MAX / 2,
        }
    };
    let mut current: Vec<Instruction> = window.to_vec();
    let mut current_score = orig_cost;
    let mut best: Option<(u64, Vec<Instruction>)> = None;
    for _ in 0..cfg.iters {
        let mut next = current.clone();
        mutate(&mut next, &pool, window.len(), rng);
        let next_cost = cost(model, &next);
        let next_score = score_of(&next, next_cost, counters);
        let next_cost = next_cost.unwrap_or(u64::MAX);
        if accept_uphill(next_score, current_score, rng) {
            current = next.clone();
            current_score = next_score;
        }
        if next_score < FAIL_PENALTY && next_cost < orig_cost {
            // Fully agrees on every sampled state and is cheaper: remember
            // the best such candidate for final verification.
            if best.as_ref().map(|(c, _)| next_cost < *c).unwrap_or(true) {
                best = Some((next_cost, next));
            }
        }
    }
    let (_, candidate) = best?;
    counters.candidates += 1;
    match verifier.verify(&candidate) {
        Ok(()) => Some(candidate),
        Err(Reject::Diff(_)) => {
            counters.diff_rejects += 1;
            None
        }
        Err(Reject::Oracle(_)) => {
            counters.oracle_rejects += 1;
            None
        }
        Err(Reject::Unusable(_)) => None,
    }
}

fn accept_uphill(next: u64, current: u64, rng: &mut StdRng) -> bool {
    if next <= current {
        return true;
    }
    let delta = (next - current) as f64;
    rng.random::<f64>() < (-delta / TEMPERATURE).exp()
}

/// One random mutation: delete, insert, replace, swap, or immediate tweak.
pub(crate) fn mutate(
    c: &mut Vec<Instruction>,
    pool: &[Instruction],
    max_len: usize,
    rng: &mut StdRng,
) {
    let kind = rng.random_range(0..5u32);
    match kind {
        0 if !c.is_empty() => {
            let i = rng.random_range(0..c.len());
            c.remove(i);
        }
        1 if c.len() < max_len => {
            let t = pool[rng.random_range(0..pool.len())].clone();
            let i = rng.random_range(0..=c.len());
            c.insert(i, t);
        }
        2 if !c.is_empty() => {
            let i = rng.random_range(0..c.len());
            c[i] = pool[rng.random_range(0..pool.len())].clone();
        }
        3 if c.len() >= 2 => {
            let i = rng.random_range(0..c.len());
            let j = rng.random_range(0..c.len());
            c.swap(i, j);
        }
        _ if !c.is_empty() => {
            // Immediate tweak on a random instruction that has one.
            let i = rng.random_range(0..c.len());
            for op in &mut c[i].operands {
                if let Operand::Imm(v) = op {
                    *v = v.wrapping_add(i64::from(rng.random_range(-2..=2i32)));
                    break;
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mao::MaoUnit;
    use rand::SeedableRng;

    fn insns(lines: &str) -> Vec<Instruction> {
        let text: String = lines.lines().map(|l| format!("\t{}\n", l.trim())).collect();
        let unit = MaoUnit::parse(&text).unwrap();
        unit.entries()
            .iter()
            .filter_map(|e| e.insn().cloned())
            .collect()
    }

    fn run_search(orig: &str) -> (Option<Vec<Instruction>>, SearchCounters) {
        let w = insns(orig);
        let mut rng = StdRng::seed_from_u64(42);
        let verifier = Verifier::new(&w, 6, &mut rng).unwrap();
        let mut counters = SearchCounters::default();
        let got = search(
            &w,
            &verifier,
            &SearchCfg::default(),
            &mut rng,
            &mut counters,
        );
        (got, counters)
    }

    #[test]
    fn redundant_mov_roundtrip_is_dropped() {
        let (got, counters) = run_search("movq %rdi, %rax\nmovq %rax, %rbx\nmovq %rbx, %rax");
        let got = got.expect("a cheaper equivalent exists");
        assert!(got.len() < 3, "{got:?}");
        assert!(counters.candidates > 0);
        // The surviving sequence must still put %rdi into all three regs.
        let mut rng = StdRng::seed_from_u64(9);
        let w = insns("movq %rdi, %rax\nmovq %rax, %rbx\nmovq %rbx, %rax");
        let v = Verifier::new(&w, 8, &mut rng).unwrap();
        assert_eq!(v.verify(&got), Ok(()));
    }

    #[test]
    fn addadd_folds_to_one_add() {
        let (got, _) = run_search("addq $1, %rax\nmovq %rax, %rbx\naddq $2, %rbx");
        // Not guaranteed to find the optimal form, but dropping nothing is
        // wrong here — at minimum no *incorrect* result may come back.
        if let Some(c) = got {
            let w = insns("addq $1, %rax\nmovq %rax, %rbx\naddq $2, %rbx");
            let mut rng = StdRng::seed_from_u64(11);
            let v = Verifier::new(&w, 8, &mut rng).unwrap();
            assert_eq!(v.verify(&c), Ok(()));
        }
    }

    #[test]
    fn already_optimal_window_finds_nothing() {
        let (got, _) = run_search("movq %rdi, %rax");
        assert!(got.is_none());
    }

    #[test]
    fn search_is_deterministic() {
        let a = run_search("movq %rdi, %rax\nmovq %rax, %rbx\nmovq %rbx, %rax").0;
        let b = run_search("movq %rdi, %rax\nmovq %rax, %rbx\nmovq %rbx, %rax").0;
        assert_eq!(a, b);
    }
}
