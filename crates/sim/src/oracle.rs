//! The equivalence oracle: run a unit in the `mao-sim` interpreter and
//! capture everything a semantics-preserving assembly rewrite must keep.
//!
//! Observable state at function return, per the SysV ABI:
//!
//! * the return value (`%rax`) and the dynamic result of the run;
//! * the callee-saved registers (`%rbx`, `%rsp`, `%rbp`, `%r12`–`%r15`) —
//!   caller-saved scratch is legitimately clobberable, so a pass deleting a
//!   dead write to `%r10` is not a miscompile;
//! * memory: the final bytes at every address either run stored to
//!   (initial memory is excluded on purpose — jump-table words contain
//!   code addresses that layout passes legitimately move);
//! * flag *discipline* rather than final flag bits: condition codes are
//!   dead across `ret`, but no retained conditional may read a flag left
//!   architecturally undefined per the `x86/effects.rs` tables.
//!
//! This lives in `mao-sim` (historically `mao-check`) so that both the
//! differential checker and the superoptimizer's verifier share one
//! definition of "observationally equivalent"; `mao_check::oracle`
//! re-exports it unchanged.

use std::collections::BTreeSet;

use mao::MaoUnit;
use mao_x86::{def_use, Flags, RegId};

use crate::{run_observed_init, CodeSource, Machine, Program, SimError};

/// Registers compared between original and optimized runs.
pub const OBSERVABLE_REGS: [RegId; 8] = [
    RegId::Rax,
    RegId::Rbx,
    RegId::Rsp,
    RegId::Rbp,
    RegId::R12,
    RegId::R13,
    RegId::R14,
    RegId::R15,
];

/// Everything the oracle captured from one run.
#[derive(Debug)]
pub struct Observation {
    /// `Ok((%rax, dynamic instruction count))` or the fault.
    pub result: Result<(u64, u64), SimError>,
    /// Final values of [`OBSERVABLE_REGS`], in order.
    pub regs: [u64; 8],
    /// Every address an executed store touched.
    pub store_addrs: BTreeSet<u64>,
    /// First instruction that read a flag left undefined by the preceding
    /// flag-writer (per the side-effect tables), if any.
    pub undef_flag_read: Option<String>,
    /// Final machine state (for memory readback during comparison).
    machine: Machine,
}

impl Observation {
    /// Final byte at `addr` (zero if never touched).
    pub fn byte_at(&self, addr: u64) -> u8 {
        self.machine.mem.peek_u8(addr)
    }
}

/// Parse, load, and run `asm` from `entry`, capturing an [`Observation`].
/// `Err` means the unit itself is unusable (parse/load/entry failure) as
/// opposed to a run that faulted mid-way.
pub fn observe(asm: &str, entry: &str, args: &[u64], budget: u64) -> Result<Observation, String> {
    let unit = MaoUnit::parse(asm).map_err(|e| format!("parse: {e}"))?;
    observe_unit(&unit, entry, args, budget)
}

/// [`observe`] for an already-parsed unit.
pub fn observe_unit(
    unit: &MaoUnit,
    entry: &str,
    args: &[u64],
    budget: u64,
) -> Result<Observation, String> {
    let program = Program::load(unit).map_err(|e| format!("load: {e}"))?;
    observe_program(&program, entry, args, budget, |_| {})
}

/// [`observe_unit`] for any [`CodeSource`], with an init hook run on the
/// machine before the first instruction. The checker observes loaded
/// programs with a no-op hook; the superoptimizer observes straight-line
/// candidate slices in place under many seeded register states.
pub fn observe_program<C: CodeSource + ?Sized>(
    code: &C,
    entry: &str,
    args: &[u64],
    budget: u64,
    init: impl FnOnce(&mut Machine),
) -> Result<Observation, String> {
    let mut store_addrs = BTreeSet::new();
    // Shadow flag state: which bits are currently *undefined* (killed with
    // unspecified values, e.g. CF after `imul`'s SF/ZF... per the tables).
    let mut undef = Flags::NONE;
    let mut undef_flag_read: Option<String> = None;
    let outcome = run_observed_init(code, entry, args, budget, init, |info| {
        if let Some((addr, size)) = info.store {
            for i in 0..u64::from(size) {
                store_addrs.insert(addr.wrapping_add(i));
            }
        }
        if let Some(insn) = code.insn(info.entry) {
            let du = def_use(insn);
            let poisoned = du.flags_use & undef;
            if !poisoned.is_empty() && undef_flag_read.is_none() {
                undef_flag_read = Some(format!("{insn} reads undefined flag(s) {poisoned}"));
            }
            undef = (undef | du.flags_undef) & !du.flags_def;
        }
    })
    .map_err(|e| format!("entry: {e}"))?;
    let mut regs = [0u64; 8];
    for (i, r) in OBSERVABLE_REGS.iter().enumerate() {
        regs[i] = outcome.machine.gpr[r.encoding() as usize];
    }
    Ok(Observation {
        result: outcome.result,
        regs,
        store_addrs,
        undef_flag_read,
        machine: outcome.machine,
    })
}

/// Compare an original run against an optimized run. Returns a description
/// of the first divergence, or `None` when the optimized run is
/// observationally equivalent. The caller guarantees `original.result` is
/// `Ok` — unrunnable originals are skipped upstream.
pub fn compare(original: &Observation, optimized: &Observation) -> Option<String> {
    let (orig_ret, _) = match &original.result {
        Ok(v) => *v,
        Err(e) => return Some(format!("original run faulted ({e}) — caller should skip")),
    };
    let opt_ret = match &optimized.result {
        Ok((v, _)) => *v,
        Err(e) => return Some(format!("optimized run faulted: {e}")),
    };
    if orig_ret != opt_ret {
        return Some(format!(
            "return value differs: {orig_ret:#x} -> {opt_ret:#x}"
        ));
    }
    for (i, r) in OBSERVABLE_REGS.iter().enumerate() {
        if original.regs[i] != optimized.regs[i] {
            return Some(format!(
                "callee-saved %{} differs: {:#x} -> {:#x}",
                format!("{r:?}").to_lowercase(),
                original.regs[i],
                optimized.regs[i]
            ));
        }
    }
    // Memory: every byte either run stored must read back identically.
    // Union of addresses, so both a corrupted store and a dropped store
    // show up (the missing side reads its initial value).
    for &addr in original.store_addrs.union(&optimized.store_addrs) {
        let a = original.byte_at(addr);
        let b = optimized.byte_at(addr);
        if a != b {
            return Some(format!("memory at {addr:#x} differs: {a:#04x} -> {b:#04x}"));
        }
    }
    // Flag discipline: the rewrite must not introduce a read of an
    // architecturally-undefined flag. (If the original already does it,
    // the generator produced a degenerate case; not the pass's fault.)
    if original.undef_flag_read.is_none() {
        if let Some(read) = &optimized.undef_flag_read {
            return Some(format!("optimized code {read}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: &str =
        ".type f, @function\nf:\n\tmovl $40, %eax\n\taddl $2, %eax\n\tmovq %rax, 0x100000\n\tret\n";

    #[test]
    fn identical_units_are_equivalent() {
        let a = observe(F, "f", &[], 1000).unwrap();
        let b = observe(F, "f", &[], 1000).unwrap();
        assert_eq!(a.result.as_ref().unwrap().0, 42);
        assert!(!a.store_addrs.is_empty());
        assert_eq!(compare(&a, &b), None);
    }

    #[test]
    fn corrupted_immediate_is_caught() {
        let bad = F.replace("$2", "$3");
        let a = observe(F, "f", &[], 1000).unwrap();
        let b = observe(&bad, "f", &[], 1000).unwrap();
        let m = compare(&a, &b).expect("mismatch");
        assert!(m.contains("return value"), "{m}");
    }

    #[test]
    fn corrupted_store_is_caught() {
        // Same return value, different stored byte.
        let orig = ".type f, @function\nf:\n\tmovl $7, %ecx\n\tmovb %cl, 0x100000\n\tmovl $1, %eax\n\tret\n";
        let bad = orig.replace("$7", "$8");
        let a = observe(orig, "f", &[], 1000).unwrap();
        let b = observe(&bad, "f", &[], 1000).unwrap();
        let m = compare(&a, &b).expect("mismatch");
        assert!(m.contains("memory at"), "{m}");
    }

    #[test]
    fn dropped_store_is_caught_via_address_union() {
        let orig =
            ".type f, @function\nf:\n\tmovl $9, %ecx\n\tmovb %cl, 0x100000\n\tmovl $1, %eax\n\tret\n";
        let bad = orig.replace("\tmovb %cl, 0x100000\n", "");
        let a = observe(orig, "f", &[], 1000).unwrap();
        let b = observe(&bad, "f", &[], 1000).unwrap();
        assert!(compare(&a, &b).is_some());
    }

    #[test]
    fn caller_saved_scratch_is_not_observable() {
        let orig = ".type f, @function\nf:\n\tmovl $5, %r10d\n\tmovl $1, %eax\n\tret\n";
        let opt = ".type f, @function\nf:\n\tmovl $1, %eax\n\tret\n";
        let a = observe(orig, "f", &[], 1000).unwrap();
        let b = observe(opt, "f", &[], 1000).unwrap();
        assert_eq!(compare(&a, &b), None, "dead %r10 write may be deleted");
    }

    #[test]
    fn callee_saved_clobber_is_observable() {
        let orig = ".type f, @function\nf:\n\tmovl $1, %eax\n\tret\n";
        let bad = ".type f, @function\nf:\n\tmovl $5, %r12d\n\tmovl $1, %eax\n\tret\n";
        let a = observe(orig, "f", &[], 1000).unwrap();
        let b = observe(bad, "f", &[], 1000).unwrap();
        let m = compare(&a, &b).expect("mismatch");
        assert!(m.contains("r12"), "{m}");
    }

    #[test]
    fn init_hook_seeds_registers_before_execution() {
        let asm = ".type f, @function\nf:\n\tmovq %r11, %rax\n\tret\n";
        let unit = MaoUnit::parse(asm).unwrap();
        let program = Program::load(&unit).unwrap();
        let obs = observe_program(&program, "f", &[], 1000, |m| {
            m.gpr[RegId::R11.encoding() as usize] = 0xdead_beef;
        })
        .unwrap();
        assert_eq!(obs.result.as_ref().unwrap().0, 0xdead_beef);
    }
}
