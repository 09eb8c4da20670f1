//! The architectural interpreter: executes the supported x86-64 subset.
//!
//! Execution is *functional* here — registers, flags, memory, control flow.
//! The timing model in [`crate::timing`] consumes the per-instruction
//! [`ExecInfo`] events this module produces and layers cycles on top.

use std::collections::HashMap;

use mao_x86::operand::{Disp, Mem, Operand};
use mao_x86::{Flags, Mnemonic, Reg, RegId, Width};

use crate::memory::Memory;
use crate::program::{CodeSource, STACK_TOP};

/// Runtime failure during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A call or jump targets a symbol not defined in the unit.
    ExternalTarget(String),
    /// An indirect branch landed on a VA with no instruction.
    WildBranch(u64),
    /// The instruction is not supported by the interpreter.
    Unsupported(String),
    /// Executed `ud2`/`hlt`.
    Trap(&'static str),
    /// Instruction budget exhausted (runaway loop guard).
    Budget,
    /// Division error.
    DivideError,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ExternalTarget(s) => write!(f, "branch/call to external symbol `{s}`"),
            SimError::WildBranch(va) => write!(f, "indirect branch to non-code address {va:#x}"),
            SimError::Unsupported(s) => write!(f, "unsupported instruction `{s}`"),
            SimError::Trap(m) => write!(f, "trap: {m}"),
            SimError::Budget => write!(f, "instruction budget exhausted"),
            SimError::DivideError => write!(f, "divide error"),
        }
    }
}

impl std::error::Error for SimError {}

/// What one executed instruction did (consumed by the timing model).
#[derive(Debug, Clone, Default)]
pub struct ExecInfo {
    /// Entry id of the instruction.
    pub entry: usize,
    /// Its virtual address.
    pub va: u64,
    /// Encoded length in bytes.
    pub len: u32,
    /// Was this a conditional branch?
    pub cond_branch: bool,
    /// Was this any taken control transfer?
    pub taken: bool,
    /// Target VA of a taken control transfer.
    pub target_va: Option<u64>,
    /// Data address and size of a load.
    pub load: Option<(u64, u8)>,
    /// Data address and size of a store.
    pub store: Option<(u64, u8)>,
    /// This was a `prefetchnta` to the given address.
    pub prefetch_nta: Option<u64>,
}

/// Outcome of a step.
#[derive(Debug, Clone)]
pub enum Step {
    /// An instruction executed.
    Executed(ExecInfo),
    /// Top-level `ret` executed, or the code ran out: the program finished
    /// with `%rax`'s value.
    Finished(u64),
}

/// The architectural machine state.
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers, indexed by `RegId::encoding()`.
    pub gpr: [u64; 16],
    /// XMM registers (low 64 bits modeled; enough for scalar SSE).
    pub xmm: [u64; 16],
    /// Status flags.
    pub flags: Flags,
    /// Current instruction (entry id).
    pub pc: usize,
    /// Memory.
    pub mem: Memory,
    /// Call depth (0 = top level; `ret` at depth 0 finishes the program).
    pub depth: usize,
}

impl Machine {
    /// Machine ready to run `entry_label` of `code` with SysV argument
    /// registers from `args` (%rdi, %rsi, %rdx, %rcx, %r8, %r9).
    pub fn new<C: CodeSource + ?Sized>(
        code: &C,
        entry_label: &str,
        args: &[u64],
    ) -> Result<Machine, SimError> {
        let pc = code
            .entry_pc(entry_label)
            .ok_or_else(|| SimError::ExternalTarget(entry_label.to_string()))?;
        let mem = code
            .initial_memory()
            .map_err(|e| SimError::ExternalTarget(e.to_string()))?;
        let mut m = Machine {
            gpr: [0; 16],
            xmm: [0; 16],
            flags: Flags::NONE,
            pc,
            mem,
            depth: 0,
        };
        m.gpr[RegId::Rsp.encoding() as usize] = STACK_TOP;
        let arg_regs = [
            RegId::Rdi,
            RegId::Rsi,
            RegId::Rdx,
            RegId::Rcx,
            RegId::R8,
            RegId::R9,
        ];
        for (i, &v) in args.iter().take(6).enumerate() {
            m.gpr[arg_regs[i].encoding() as usize] = v;
        }
        Ok(m)
    }

    /// Read a register with width semantics.
    pub fn read_reg(&self, r: Reg) -> u64 {
        if r.id.is_xmm() {
            return self.xmm[r.id.encoding() as usize];
        }
        let full = self.gpr[r.id.encoding() as usize];
        if r.high8 {
            (full >> 8) & 0xff
        } else {
            full & r.width.mask()
        }
    }

    /// Write a register with width semantics (32-bit writes zero-extend;
    /// 8/16-bit writes merge).
    pub fn write_reg(&mut self, r: Reg, value: u64) {
        if r.id.is_xmm() {
            self.xmm[r.id.encoding() as usize] = value;
            return;
        }
        let slot = &mut self.gpr[r.id.encoding() as usize];
        match r.width {
            Width::B8 => *slot = value,
            Width::B4 => *slot = value & 0xffff_ffff,
            Width::B2 => *slot = (*slot & !0xffff) | (value & 0xffff),
            Width::B1 => {
                if r.high8 {
                    *slot = (*slot & !0xff00) | ((value & 0xff) << 8);
                } else {
                    *slot = (*slot & !0xff) | (value & 0xff);
                }
            }
            Width::B16 => *slot = value,
        }
    }

    fn reg_by_id(&self, id: RegId, width: Width) -> u64 {
        self.read_reg(Reg::new(id, width))
    }

    /// Effective address of a memory operand.
    fn ea<C: CodeSource + ?Sized>(&self, mem: &Mem, code: &C) -> Result<u64, SimError> {
        let disp = match &mem.disp {
            Disp::None => 0i64,
            Disp::Imm(v) => *v,
            Disp::Symbol { name, addend } => {
                let base = code
                    .symbol_va(name.as_str())
                    .ok_or_else(|| SimError::ExternalTarget(name.as_str().to_string()))?;
                base as i64 + addend
            }
        };
        let mut addr = disp as u64;
        if let Some(b) = mem.base {
            if b.id == RegId::Rip {
                // RIP-relative symbols resolve absolutely above; a numeric
                // RIP-relative displacement is not meaningful here.
            } else {
                addr = addr.wrapping_add(self.reg_by_id(b.id, Width::B8));
            }
        }
        if let Some(i) = mem.index {
            addr = addr.wrapping_add(
                self.reg_by_id(i.id, Width::B8)
                    .wrapping_mul(u64::from(mem.scale)),
            );
        }
        Ok(addr)
    }

    fn set_result_flags(&mut self, result: u64, width: Width) {
        let masked = result & width.mask();
        let mut f = self.flags;
        f = f - (Flags::ZF | Flags::SF | Flags::PF);
        if masked == 0 {
            f |= Flags::ZF;
        }
        if masked >> (width.bits() - 1) & 1 == 1 {
            f |= Flags::SF;
        }
        if (masked as u8).count_ones() % 2 == 0 {
            f |= Flags::PF;
        }
        self.flags = f;
    }

    fn set_flags_add(&mut self, a: u64, b: u64, carry_in: u64, width: Width) -> u64 {
        let mask = width.mask();
        let (a, b) = (a & mask, b & mask);
        let result = a.wrapping_add(b).wrapping_add(carry_in) & mask;
        let sign = 1u64 << (width.bits() - 1);
        let carry = (a as u128 + b as u128 + carry_in as u128) > mask as u128;
        let overflow = ((a ^ result) & (b ^ result) & sign) != 0;
        let mut f = Flags::NONE;
        if carry {
            f |= Flags::CF;
        }
        if overflow {
            f |= Flags::OF;
        }
        self.flags = f;
        self.set_result_flags(result, width);
        result
    }

    fn set_flags_sub(&mut self, a: u64, b: u64, borrow_in: u64, width: Width) -> u64 {
        let mask = width.mask();
        let (a, b) = (a & mask, b & mask);
        let result = a.wrapping_sub(b).wrapping_sub(borrow_in) & mask;
        let sign = 1u64 << (width.bits() - 1);
        let borrow = (a as u128) < (b as u128 + borrow_in as u128);
        let overflow = ((a ^ b) & (a ^ result) & sign) != 0;
        let mut f = Flags::NONE;
        if borrow {
            f |= Flags::CF;
        }
        if overflow {
            f |= Flags::OF;
        }
        self.flags = f;
        self.set_result_flags(result, width);
        result
    }

    fn set_flags_logic(&mut self, result: u64, width: Width) {
        self.flags = Flags::NONE; // CF=OF=0
        self.set_result_flags(result, width);
    }

    /// Read an operand's value (register, immediate, or memory load).
    /// Records the load in `info`.
    fn read_operand<C: CodeSource + ?Sized>(
        &mut self,
        op: &Operand,
        width: Width,
        code: &C,
        info: &mut ExecInfo,
    ) -> Result<u64, SimError> {
        match op {
            Operand::Imm(v) => Ok(*v as u64 & width.mask()),
            Operand::Reg(r) => Ok(self.read_reg(*r)),
            Operand::Mem(m) => {
                let addr = self.ea(m, code)?;
                info.load = Some((addr, width.bytes()));
                Ok(self.mem.read(addr, width.bytes()))
            }
            other => Err(SimError::Unsupported(format!("operand {other}"))),
        }
    }

    /// Write to a destination operand. Records the store in `info`.
    fn write_operand<C: CodeSource + ?Sized>(
        &mut self,
        op: &Operand,
        width: Width,
        value: u64,
        code: &C,
        info: &mut ExecInfo,
    ) -> Result<(), SimError> {
        match op {
            Operand::Reg(r) => {
                self.write_reg(Reg { width, ..*r }, value);
                Ok(())
            }
            Operand::Mem(m) => {
                let addr = self.ea(m, code)?;
                info.store = Some((addr, width.bytes()));
                self.mem.write(addr, value, width.bytes());
                Ok(())
            }
            other => Err(SimError::Unsupported(format!("destination {other}"))),
        }
    }

    fn push(&mut self, value: u64) {
        let rsp = self.gpr[RegId::Rsp.encoding() as usize].wrapping_sub(8);
        self.gpr[RegId::Rsp.encoding() as usize] = rsp;
        self.mem.write(rsp, value, 8);
    }

    fn pop(&mut self) -> u64 {
        let rsp = self.gpr[RegId::Rsp.encoding() as usize];
        let v = self.mem.read(rsp, 8);
        self.gpr[RegId::Rsp.encoding() as usize] = rsp.wrapping_add(8);
        v
    }

    fn branch_to_label<C: CodeSource + ?Sized>(
        &mut self,
        label: &str,
        code: &C,
    ) -> Result<u64, SimError> {
        let target = code
            .label_pc(label)
            .ok_or_else(|| SimError::ExternalTarget(label.to_string()))?;
        self.pc = target;
        Ok(code.va(target))
    }

    /// Execute the instruction at `self.pc`, advancing `pc`.
    pub fn step<C: CodeSource + ?Sized>(&mut self, code: &C) -> Result<Step, SimError> {
        use Mnemonic as M;
        let entry = self.pc;
        let Some(insn) = code.insn(entry) else {
            return Ok(Step::Finished(self.gpr[RegId::Rax.encoding() as usize]));
        };
        let w = insn.width();
        let mut info = ExecInfo {
            entry,
            va: code.va(entry),
            len: code.len_at(entry),
            ..ExecInfo::default()
        };
        // Default fall-through.
        let next = code.next_pc(entry);
        let mut jumped = false;

        macro_rules! src {
            () => {{
                let op = insn
                    .operands
                    .first()
                    .cloned()
                    .ok_or_else(|| SimError::Unsupported(format!("{insn}: missing operand")))?;
                self.read_operand(&op, w, code, &mut info)?
            }};
        }
        macro_rules! dst_read {
            () => {{
                let op = insn
                    .operands
                    .last()
                    .cloned()
                    .ok_or_else(|| SimError::Unsupported(format!("{insn}: missing operand")))?;
                self.read_operand(&op, w, code, &mut info)?
            }};
        }
        macro_rules! dst_write {
            ($value:expr) => {{
                let op = insn
                    .operands
                    .last()
                    .cloned()
                    .ok_or_else(|| SimError::Unsupported(format!("{insn}: missing operand")))?;
                self.write_operand(&op, w, $value, code, &mut info)?
            }};
        }

        match insn.mnemonic {
            M::Nop | M::Pause | M::Endbr64 | M::Lfence | M::Mfence | M::Sfence => {}
            M::Mov | M::Movabs => {
                let v = src!();
                dst_write!(v);
            }
            M::Movsx => {
                let from = insn.src_width.unwrap_or(Width::B1);
                let op = insn.operands.first().cloned().unwrap();
                let raw = self.read_operand(&op, from, code, &mut info)?;
                let shifted = 64 - from.bits();
                let v = (((raw << shifted) as i64) >> shifted) as u64;
                dst_write!(v & w.mask());
            }
            M::Movzx => {
                let from = insn.src_width.unwrap_or(Width::B1);
                let op = insn.operands.first().cloned().unwrap();
                let raw = self.read_operand(&op, from, code, &mut info)?;
                dst_write!(raw & from.mask());
            }
            M::Lea => {
                let Some(Operand::Mem(m)) = insn.operands.first() else {
                    return Err(SimError::Unsupported(insn.to_string()));
                };
                let addr = self.ea(&m.clone(), code)?;
                dst_write!(addr & w.mask());
            }
            M::Add => {
                let a = dst_read!();
                let b = src!();
                let r = self.set_flags_add(a, b, 0, w);
                dst_write!(r);
            }
            M::Adc => {
                let cf = u64::from(self.flags.contains(Flags::CF));
                let a = dst_read!();
                let b = src!();
                let r = self.set_flags_add(a, b, cf, w);
                dst_write!(r);
            }
            M::Sub => {
                let a = dst_read!();
                let b = src!();
                let r = self.set_flags_sub(a, b, 0, w);
                dst_write!(r);
            }
            M::Sbb => {
                let cf = u64::from(self.flags.contains(Flags::CF));
                let a = dst_read!();
                let b = src!();
                let r = self.set_flags_sub(a, b, cf, w);
                dst_write!(r);
            }
            M::Cmp => {
                let a = dst_read!();
                let b = src!();
                let _ = self.set_flags_sub(a, b, 0, w);
            }
            M::And | M::Or | M::Xor => {
                let a = dst_read!();
                let b = src!();
                let r = match insn.mnemonic {
                    M::And => a & b,
                    M::Or => a | b,
                    _ => a ^ b,
                } & w.mask();
                self.set_flags_logic(r, w);
                dst_write!(r);
            }
            M::Test => {
                let a = dst_read!();
                let b = src!();
                self.set_flags_logic(a & b & w.mask(), w);
            }
            M::Not => {
                let a = dst_read!();
                dst_write!(!a & w.mask());
            }
            M::Neg => {
                let a = dst_read!();
                let r = self.set_flags_sub(0, a, 0, w);
                dst_write!(r);
            }
            M::Inc | M::Dec => {
                let a = dst_read!();
                let saved_cf = self.flags.contains(Flags::CF);
                let r = if insn.mnemonic == M::Inc {
                    self.set_flags_add(a, 1, 0, w)
                } else {
                    self.set_flags_sub(a, 1, 0, w)
                };
                // inc/dec preserve CF.
                if saved_cf {
                    self.flags |= Flags::CF;
                } else {
                    self.flags = self.flags - Flags::CF;
                }
                dst_write!(r);
            }
            M::Imul => match insn.operands.len() {
                1 => {
                    let b = src!();
                    let a = self.reg_by_id(RegId::Rax, w);
                    let wide = (a as i64 as i128) * (b as i64 as i128);
                    self.write_reg(Reg::new(RegId::Rax, w), wide as u64 & w.mask());
                    self.write_reg(
                        Reg::new(RegId::Rdx, w),
                        (wide >> w.bits()) as u64 & w.mask(),
                    );
                    self.flags = Flags::NONE;
                }
                2 => {
                    let b = src!();
                    let a = dst_read!();
                    let shifted = 64 - w.bits();
                    let sa = ((a << shifted) as i64 >> shifted) as i128;
                    let sb = ((b << shifted) as i64 >> shifted) as i128;
                    let r = (sa * sb) as u64 & w.mask();
                    self.flags = Flags::NONE;
                    dst_write!(r);
                }
                3 => {
                    let imm = insn.operands[0]
                        .imm()
                        .ok_or_else(|| SimError::Unsupported(insn.to_string()))?;
                    let op = insn.operands[1].clone();
                    let b = self.read_operand(&op, w, code, &mut info)?;
                    let shifted = 64 - w.bits();
                    let sb = ((b << shifted) as i64 >> shifted) as i128;
                    let r = (imm as i128 * sb) as u64 & w.mask();
                    self.flags = Flags::NONE;
                    dst_write!(r);
                }
                _ => return Err(SimError::Unsupported(insn.to_string())),
            },
            M::Mul => {
                let b = src!();
                let a = self.reg_by_id(RegId::Rax, w);
                let wide = (a as u128) * (b as u128);
                self.write_reg(Reg::new(RegId::Rax, w), wide as u64 & w.mask());
                self.write_reg(
                    Reg::new(RegId::Rdx, w),
                    (wide >> w.bits()) as u64 & w.mask(),
                );
                self.flags = Flags::NONE;
            }
            M::Idiv | M::Div => {
                let divisor = src!();
                if divisor & w.mask() == 0 {
                    return Err(SimError::DivideError);
                }
                let lo = self.reg_by_id(RegId::Rax, w) as u128;
                let hi = self.reg_by_id(RegId::Rdx, w) as u128;
                let dividend = (hi << w.bits()) | lo;
                let (q, r) = if insn.mnemonic == M::Div {
                    let d = (divisor & w.mask()) as u128;
                    (dividend / d, dividend % d)
                } else {
                    let shifted = 128 - u32::from(w.bytes()) * 16;
                    let sdividend = ((dividend << shifted) as i128) >> shifted;
                    let sshift = 64 - w.bits();
                    let sdiv = ((divisor << sshift) as i64 >> sshift) as i128;
                    ((sdividend / sdiv) as u128, (sdividend % sdiv) as u128)
                };
                self.write_reg(Reg::new(RegId::Rax, w), q as u64 & w.mask());
                self.write_reg(Reg::new(RegId::Rdx, w), r as u64 & w.mask());
            }
            M::Shl | M::Shr | M::Sar | M::Rol | M::Ror => {
                let (count, target_idx) = if insn.operands.len() == 1 {
                    (1u32, 0usize)
                } else {
                    let c = match &insn.operands[0] {
                        Operand::Imm(v) => *v as u32,
                        Operand::Reg(r) if r.id == RegId::Rcx => {
                            self.reg_by_id(RegId::Rcx, Width::B1) as u32
                        }
                        other => return Err(SimError::Unsupported(format!("shift count {other}"))),
                    };
                    (c, 1usize)
                };
                let count = count & if w == Width::B8 { 63 } else { 31 };
                let op = insn.operands[target_idx].clone();
                let a = self.read_operand(&op, w, code, &mut info)?;
                let bits = w.bits();
                let r = match insn.mnemonic {
                    M::Shl => a.wrapping_shl(count),
                    M::Shr => (a & w.mask()).wrapping_shr(count),
                    M::Sar => {
                        let shifted = 64 - bits;
                        (((a << shifted) as i64 >> shifted) >> count) as u64
                    }
                    M::Rol => {
                        let m = a & w.mask();
                        (m << (count % bits)) | (m >> ((bits - count % bits) % bits))
                    }
                    M::Ror => {
                        let m = a & w.mask();
                        (m >> (count % bits)) | (m << ((bits - count % bits) % bits))
                    }
                    _ => unreachable!(),
                } & w.mask();
                if count != 0 && matches!(insn.mnemonic, M::Shl | M::Shr | M::Sar) {
                    self.set_flags_logic(r, w);
                }
                self.write_operand(&op, w, r, code, &mut info)?;
            }
            M::Cltq => {
                let eax = self.reg_by_id(RegId::Rax, Width::B4);
                self.write_reg(Reg::q(RegId::Rax), eax as i32 as i64 as u64);
            }
            M::Cwtl => {
                let ax = self.reg_by_id(RegId::Rax, Width::B2);
                self.write_reg(Reg::l(RegId::Rax), (ax as i16 as i32) as u64);
            }
            M::Cltd => {
                let eax = self.reg_by_id(RegId::Rax, Width::B4) as i32;
                self.write_reg(Reg::l(RegId::Rdx), if eax < 0 { 0xffff_ffff } else { 0 });
            }
            M::Cqto => {
                let rax = self.reg_by_id(RegId::Rax, Width::B8) as i64;
                self.write_reg(Reg::q(RegId::Rdx), if rax < 0 { u64::MAX } else { 0 });
            }
            M::Push => {
                let v = src!();
                self.push(v);
                info.store = Some((self.gpr[RegId::Rsp.encoding() as usize], 8));
            }
            M::Pop => {
                info.load = Some((self.gpr[RegId::Rsp.encoding() as usize], 8));
                let v = self.pop();
                dst_write!(v);
            }
            M::Leave => {
                let rbp = self.gpr[RegId::Rbp.encoding() as usize];
                self.gpr[RegId::Rsp.encoding() as usize] = rbp;
                info.load = Some((rbp, 8));
                let v = self.pop();
                self.gpr[RegId::Rbp.encoding() as usize] = v;
            }
            M::Jmp => {
                info.taken = true;
                jumped = true;
                match insn.operands.first() {
                    Some(Operand::Label(l)) => {
                        info.target_va = Some(self.branch_to_label(l, code)?);
                    }
                    Some(Operand::IndirectReg(r)) => {
                        let va = self.read_reg(*r);
                        let t = code.pc_at_va(va).ok_or(SimError::WildBranch(va))?;
                        self.pc = t;
                        info.target_va = Some(va);
                    }
                    Some(Operand::IndirectMem(m)) => {
                        let addr = self.ea(&m.clone(), code)?;
                        info.load = Some((addr, 8));
                        let va = self.mem.read(addr, 8);
                        let t = code.pc_at_va(va).ok_or(SimError::WildBranch(va))?;
                        self.pc = t;
                        info.target_va = Some(va);
                    }
                    _ => return Err(SimError::Unsupported(insn.to_string())),
                }
            }
            M::Jcc(c) => {
                info.cond_branch = true;
                if c.eval(self.flags) {
                    info.taken = true;
                    jumped = true;
                    let l = insn
                        .target_label()
                        .ok_or_else(|| SimError::Unsupported(insn.to_string()))?
                        .to_string();
                    info.target_va = Some(self.branch_to_label(&l, code)?);
                }
            }
            M::Call => {
                info.taken = true;
                jumped = true;
                let ret_va = next.map(|n| code.va(n)).unwrap_or(0);
                self.push(ret_va);
                info.store = Some((self.gpr[RegId::Rsp.encoding() as usize], 8));
                self.depth += 1;
                match insn.operands.first() {
                    Some(Operand::Label(l)) => {
                        info.target_va = Some(self.branch_to_label(l, code)?);
                    }
                    Some(Operand::IndirectReg(r)) => {
                        let va = self.read_reg(*r);
                        let t = code.pc_at_va(va).ok_or(SimError::WildBranch(va))?;
                        self.pc = t;
                        info.target_va = Some(va);
                    }
                    Some(Operand::IndirectMem(m)) => {
                        let addr = self.ea(&m.clone(), code)?;
                        let va = self.mem.read(addr, 8);
                        let t = code.pc_at_va(va).ok_or(SimError::WildBranch(va))?;
                        self.pc = t;
                        info.target_va = Some(va);
                    }
                    _ => return Err(SimError::Unsupported(insn.to_string())),
                }
            }
            M::Ret => {
                if self.depth == 0 {
                    return Ok(Step::Finished(self.gpr[RegId::Rax.encoding() as usize]));
                }
                info.load = Some((self.gpr[RegId::Rsp.encoding() as usize], 8));
                let va = self.pop();
                let t = code.pc_at_va(va).ok_or(SimError::WildBranch(va))?;
                self.depth -= 1;
                self.pc = t;
                info.taken = true;
                info.target_va = Some(va);
                jumped = true;
            }
            M::Setcc(c) => {
                let v = u64::from(c.eval(self.flags));
                let op = insn.operands.last().cloned().unwrap();
                self.write_operand(&op, Width::B1, v, code, &mut info)?;
            }
            M::Cmovcc(c) => {
                let v = src!();
                if c.eval(self.flags) {
                    dst_write!(v);
                }
            }
            M::Xchg => {
                let a_op = insn.operands[0].clone();
                let b_op = insn.operands[1].clone();
                let a = self.read_operand(&a_op, w, code, &mut info)?;
                let b = self.read_operand(&b_op, w, code, &mut info)?;
                self.write_operand(&a_op, w, b, code, &mut info)?;
                self.write_operand(&b_op, w, a, code, &mut info)?;
            }
            // Scalar SSE on the low 32/64 bits.
            M::Movss | M::Movd => {
                let op = insn.operands[0].clone();
                let v = self.read_operand(&op, Width::B4, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                self.write_operand(&dst, Width::B4, v, code, &mut info)?;
            }
            M::Movsd | M::Movaps | M::Movapd | M::Movups | M::Movdq => {
                let op = insn.operands[0].clone();
                let v = self.read_operand(&op, Width::B8, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                self.write_operand(&dst, Width::B8, v, code, &mut info)?;
            }
            M::Addss | M::Subss | M::Mulss | M::Divss | M::Sqrtss => {
                let op = insn.operands[0].clone();
                let b = f32::from_bits(self.read_operand(&op, Width::B4, code, &mut info)? as u32);
                let dst = insn.operands.last().cloned().unwrap();
                let a = f32::from_bits(self.read_operand(&dst, Width::B4, code, &mut info)? as u32);
                let r = match insn.mnemonic {
                    M::Addss => a + b,
                    M::Subss => a - b,
                    M::Mulss => a * b,
                    M::Divss => a / b,
                    M::Sqrtss => b.sqrt(),
                    _ => unreachable!(),
                };
                self.write_operand(&dst, Width::B4, u64::from(r.to_bits()), code, &mut info)?;
            }
            M::Addsd | M::Subsd | M::Mulsd | M::Divsd | M::Sqrtsd => {
                let op = insn.operands[0].clone();
                let b = f64::from_bits(self.read_operand(&op, Width::B8, code, &mut info)?);
                let dst = insn.operands.last().cloned().unwrap();
                let a = f64::from_bits(self.read_operand(&dst, Width::B8, code, &mut info)?);
                let r = match insn.mnemonic {
                    M::Addsd => a + b,
                    M::Subsd => a - b,
                    M::Mulsd => a * b,
                    M::Divsd => a / b,
                    M::Sqrtsd => b.sqrt(),
                    _ => unreachable!(),
                };
                self.write_operand(&dst, Width::B8, r.to_bits(), code, &mut info)?;
            }
            M::Ucomiss | M::Comiss | M::Ucomisd | M::Comisd => {
                let dbl = matches!(insn.mnemonic, M::Ucomisd | M::Comisd);
                let ww = if dbl { Width::B8 } else { Width::B4 };
                let op = insn.operands[0].clone();
                let braw = self.read_operand(&op, ww, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                let araw = self.read_operand(&dst, ww, code, &mut info)?;
                let (a, b) = if dbl {
                    (f64::from_bits(araw), f64::from_bits(braw))
                } else {
                    (
                        f64::from(f32::from_bits(araw as u32)),
                        f64::from(f32::from_bits(braw as u32)),
                    )
                };
                // ucomiss semantics: ZF/PF/CF set, others cleared.
                let mut f = Flags::NONE;
                if a.is_nan() || b.is_nan() {
                    f = Flags::ZF | Flags::PF | Flags::CF;
                } else if a == b {
                    f = Flags::ZF;
                } else if a < b {
                    f = Flags::CF;
                }
                self.flags = f;
            }
            M::Cvtsi2ss | M::Cvtsi2sd => {
                let op = insn.operands[0].clone();
                let iw = if insn.op_width == Some(Width::B8) {
                    Width::B8
                } else {
                    Width::B4
                };
                let raw = self.read_operand(&op, iw, code, &mut info)?;
                let shifted = 64 - iw.bits();
                let v = ((raw << shifted) as i64) >> shifted;
                let dst = insn.operands.last().cloned().unwrap();
                if insn.mnemonic == M::Cvtsi2ss {
                    self.write_operand(
                        &dst,
                        Width::B4,
                        u64::from((v as f32).to_bits()),
                        code,
                        &mut info,
                    )?;
                } else {
                    self.write_operand(&dst, Width::B8, (v as f64).to_bits(), code, &mut info)?;
                }
            }
            M::Cvttss2si | M::Cvttsd2si => {
                let op = insn.operands[0].clone();
                let fw = if insn.mnemonic == M::Cvttss2si {
                    Width::B4
                } else {
                    Width::B8
                };
                let raw = self.read_operand(&op, fw, code, &mut info)?;
                let v = if fw == Width::B4 {
                    f32::from_bits(raw as u32) as i64
                } else {
                    f64::from_bits(raw) as i64
                };
                dst_write!(v as u64 & w.mask());
            }
            M::Cvtss2sd => {
                let op = insn.operands[0].clone();
                let raw = self.read_operand(&op, Width::B4, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                let v = f64::from(f32::from_bits(raw as u32));
                self.write_operand(&dst, Width::B8, v.to_bits(), code, &mut info)?;
            }
            M::Cvtsd2ss => {
                let op = insn.operands[0].clone();
                let raw = self.read_operand(&op, Width::B8, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                let v = f64::from_bits(raw) as f32;
                self.write_operand(&dst, Width::B4, u64::from(v.to_bits()), code, &mut info)?;
            }
            M::Pxor | M::Xorps | M::Xorpd => {
                let op = insn.operands[0].clone();
                let b = self.read_operand(&op, Width::B8, code, &mut info)?;
                let dst = insn.operands.last().cloned().unwrap();
                let a = self.read_operand(&dst, Width::B8, code, &mut info)?;
                self.write_operand(&dst, Width::B8, a ^ b, code, &mut info)?;
            }
            M::Prefetchnta | M::Prefetcht0 | M::Prefetcht1 | M::Prefetcht2 => {
                if let Some(Operand::Mem(m)) = insn.operands.first() {
                    let addr = self.ea(&m.clone(), code)?;
                    if insn.mnemonic == M::Prefetchnta {
                        info.prefetch_nta = Some(addr);
                    }
                }
            }
            M::Ud2 => return Err(SimError::Trap("ud2")),
            M::Hlt => return Err(SimError::Trap("hlt")),
            M::Int3 => return Err(SimError::Trap("int3")),
            M::Cpuid | M::Rdtsc => {
                // Deterministic stub values.
                self.write_reg(Reg::q(RegId::Rax), 0);
                self.write_reg(Reg::q(RegId::Rdx), 0);
            }
        }

        if !jumped {
            match next {
                Some(n) => self.pc = n,
                None => return Ok(Step::Finished(self.gpr[RegId::Rax.encoding() as usize])),
            }
        }
        Ok(Step::Executed(info))
    }
}

/// Run the interpreter only (no timing): convenience for functional tests.
/// Returns (`%rax`, dynamic instruction count).
pub fn run_functional<C: CodeSource + ?Sized>(
    code: &C,
    entry: &str,
    args: &[u64],
    max_instructions: u64,
) -> Result<(u64, u64), SimError> {
    let mut m = Machine::new(code, entry, args)?;
    let mut count = 0u64;
    loop {
        if count >= max_instructions {
            return Err(SimError::Budget);
        }
        match m.step(code)? {
            Step::Executed(_) => count += 1,
            Step::Finished(v) => return Ok((v, count)),
        }
    }
}

/// Final state of an observed run: the machine (registers, flags, memory)
/// at the moment the program finished or faulted, plus the functional
/// result. Mid-run faults keep the machine state reached so far.
#[derive(Debug)]
pub struct RunOutcome {
    /// The machine after the last executed instruction.
    pub machine: Machine,
    /// `Ok((%rax, dynamic instruction count))` or the fault.
    pub result: Result<(u64, u64), SimError>,
}

/// Like [`run_functional`], but invokes `observer` after every executed
/// instruction and returns the final machine state alongside the result.
/// This is the differential checker's entry point: the observer sees each
/// [`ExecInfo`] (entry id, loads, stores, branches) and the caller can
/// compare architectural state (`gpr`, `flags`, `mem`) afterwards. Returns
/// `Err` only when the entry label or the unit's sections fail to load.
pub fn run_observed<C: CodeSource + ?Sized>(
    code: &C,
    entry: &str,
    args: &[u64],
    max_instructions: u64,
    observer: impl FnMut(&ExecInfo),
) -> Result<RunOutcome, SimError> {
    run_observed_init(code, entry, args, max_instructions, |_| {}, observer)
}

/// [`run_observed`] with an initialization hook applied to the freshly
/// constructed machine before the first step. The superoptimizer's
/// differential filter uses this to seed arbitrary register states without
/// materializing `movabs` preambles: the hook runs after argument setup, so
/// it may overwrite any register except the program text itself.
pub fn run_observed_init<C: CodeSource + ?Sized>(
    code: &C,
    entry: &str,
    args: &[u64],
    max_instructions: u64,
    init: impl FnOnce(&mut Machine),
    mut observer: impl FnMut(&ExecInfo),
) -> Result<RunOutcome, SimError> {
    let mut m = Machine::new(code, entry, args)?;
    init(&mut m);
    let mut count = 0u64;
    let result = loop {
        if count >= max_instructions {
            break Err(SimError::Budget);
        }
        match m.step(code) {
            Ok(Step::Executed(info)) => {
                count += 1;
                observer(&info);
            }
            Ok(Step::Finished(v)) => break Ok((v, count)),
            Err(e) => break Err(e),
        }
    };
    Ok(RunOutcome { machine: m, result })
}

/// Register snapshot type used by the probe crate.
pub type RegFile = HashMap<RegId, u64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use mao::MaoUnit;

    fn run(text: &str, entry: &str, args: &[u64]) -> u64 {
        let unit = MaoUnit::parse(text).unwrap();
        let p = Program::load(&unit).unwrap();
        run_functional(&p, entry, args, 1_000_000).unwrap().0
    }

    #[test]
    fn arithmetic_and_return() {
        let v = run(
            ".type f, @function\nf:\n\tmovl $40, %eax\n\taddl $2, %eax\n\tret\n",
            "f",
            &[],
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn arguments_arrive_in_sysv_registers() {
        let v = run(
            ".type f, @function\nf:\n\tmovq %rdi, %rax\n\taddq %rsi, %rax\n\tret\n",
            "f",
            &[30, 12],
        );
        assert_eq!(v, 42);
    }

    #[test]
    fn loop_with_counter() {
        // sum 1..=10 = 55
        let text = r#"
	.type	f, @function
f:
	movl $0, %eax
	movl $1, %ecx
.L:
	addl %ecx, %eax
	addl $1, %ecx
	cmpl $10, %ecx
	jle .L
	ret
"#;
        assert_eq!(run(text, "f", &[]), 55);
    }

    #[test]
    fn memory_store_load() {
        let text = r#"
	.type	f, @function
f:
	movq %rdi, -8(%rsp)
	movq -8(%rsp), %rax
	ret
"#;
        assert_eq!(run(text, "f", &[0xdeadbeef]), 0xdeadbeef);
    }

    #[test]
    fn call_and_ret() {
        let text = r#"
	.type	f, @function
f:
	call g
	addq $1, %rax
	ret
	.type	g, @function
g:
	movq $41, %rax
	ret
"#;
        assert_eq!(run(text, "f", &[]), 42);
    }

    #[test]
    fn signed_and_unsigned_branches() {
        // if (a < b) signed -> 1 else 0
        let text = r#"
	.type	f, @function
f:
	cmpq %rsi, %rdi
	jl .Lyes
	movq $0, %rax
	ret
.Lyes:
	movq $1, %rax
	ret
"#;
        assert_eq!(run(text, "f", &[u64::MAX /* -1 */, 1]), 1);
        assert_eq!(run(text, "f", &[2, 1]), 0);
        // unsigned: -1 is big
        let textu = text.replace("jl .Lyes", "jb .Lyes");
        assert_eq!(run(&textu, "f", &[u64::MAX, 1]), 0);
    }

    #[test]
    fn jump_table_dispatch() {
        let text = r#"
	.type	f, @function
f:
	jmp *.Ltab(,%rdi,8)
.Lc0:
	movl $100, %eax
	ret
.Lc1:
	movl $200, %eax
	ret
	.section	.rodata
.Ltab:
	.quad	.Lc0
	.quad	.Lc1
"#;
        assert_eq!(run(text, "f", &[0]), 100);
        assert_eq!(run(text, "f", &[1]), 200);
    }

    #[test]
    fn sse_scalar_float() {
        // 1.5f + 2.25f = 3.75f -> truncated to int 3
        let text = r#"
	.type	f, @function
f:
	movss .LCa(%rip), %xmm0
	addss .LCb(%rip), %xmm0
	cvttss2si %xmm0, %eax
	ret
	.section	.rodata
.LCa:
	.long	1069547520
.LCb:
	.long	1074790400
"#;
        // 1069547520 = 1.5f bits, 1074790400 = 2.25f bits
        assert_eq!(run(text, "f", &[]), 3);
    }

    #[test]
    fn movsx_movzx() {
        let text = r#"
	.type	f, @function
f:
	movq $0xff, %rdi
	movsbl %dil, %eax
	ret
"#;
        assert_eq!(run(text, "f", &[]) & 0xffff_ffff, 0xffff_ffff); // -1 sign-extended
        let text = text.replace("movsbl", "movzbl");
        assert_eq!(run(&text, "f", &[]), 0xff);
    }

    #[test]
    fn width_write_semantics() {
        let text = r#"
	.type	f, @function
f:
	movq $-1, %rax
	movl $0, %eax
	ret
"#;
        assert_eq!(run(text, "f", &[]), 0, "32-bit write zero-extends");
        let text = r#"
	.type	f, @function
f:
	movq $-1, %rax
	movw $0, %ax
	ret
"#;
        assert_eq!(run(text, "f", &[]), 0xffff_ffff_ffff_0000);
    }

    #[test]
    fn shifts_and_rotates() {
        let t = ".type f, @function\nf:\n\tmovl $1, %eax\n\tshll $4, %eax\n\tret\n";
        assert_eq!(run(t, "f", &[]), 16);
        let t = ".type f, @function\nf:\n\tmovl $-16, %eax\n\tsarl $2, %eax\n\tret\n";
        assert_eq!(run(t, "f", &[]) as u32 as i32, -4);
        let t = ".type f, @function\nf:\n\tmovl $0x80000001, %eax\n\troll $1, %eax\n\tret\n";
        assert_eq!(run(t, "f", &[]), 3);
    }

    #[test]
    fn mul_div() {
        let t = ".type f, @function\nf:\n\tmovl $6, %eax\n\timull $7, %eax, %eax\n\tret\n";
        assert_eq!(run(t, "f", &[]), 42);
        let t = ".type f, @function\nf:\n\tmovl $85, %eax\n\tcltd\n\tmovl $2, %ecx\n\tidivl %ecx\n\tret\n";
        assert_eq!(run(t, "f", &[]), 42);
    }

    #[test]
    fn divide_by_zero_traps() {
        let unit = MaoUnit::parse(
            ".type f, @function\nf:\n\tmovl $0, %ecx\n\tmovl $1, %eax\n\tcltd\n\tidivl %ecx\n\tret\n",
        )
        .unwrap();
        let p = Program::load(&unit).unwrap();
        assert_eq!(
            run_functional(&p, "f", &[], 100),
            Err(SimError::DivideError)
        );
    }

    #[test]
    fn budget_guard() {
        let unit = MaoUnit::parse(".type f, @function\nf:\n.L:\n\tjmp .L\n").unwrap();
        let p = Program::load(&unit).unwrap();
        assert_eq!(run_functional(&p, "f", &[], 100), Err(SimError::Budget));
    }

    #[test]
    fn external_call_is_an_error() {
        let unit = MaoUnit::parse(".type f, @function\nf:\n\tcall printf\n\tret\n").unwrap();
        let p = Program::load(&unit).unwrap();
        assert!(matches!(
            run_functional(&p, "f", &[], 100),
            Err(SimError::ExternalTarget(s)) if s == "printf"
        ));
    }

    #[test]
    fn cmov_and_setcc() {
        let t = r#"
	.type	f, @function
f:
	movl $5, %eax
	movl $9, %ecx
	cmpl $3, %eax
	cmovg %ecx, %eax
	ret
"#;
        assert_eq!(run(t, "f", &[]), 9);
        let t = r#"
	.type	f, @function
f:
	xorl %eax, %eax
	cmpl $0, %eax
	sete %al
	ret
"#;
        assert_eq!(run(t, "f", &[]), 1);
    }

    #[test]
    fn inc_preserves_carry() {
        let t = r#"
	.type	f, @function
f:
	movq $-1, %rax
	addq $1, %rax
	incq %rax
	jc .Lcarry
	movl $0, %eax
	ret
.Lcarry:
	movl $1, %eax
	ret
"#;
        assert_eq!(run(t, "f", &[]), 1, "CF survives the inc");
    }

    #[test]
    fn high_byte_registers() {
        let t = ".type f, @function\nf:\n\tmovl $0x1234, %eax\n\tmovzbl %ah, %eax\n\tret\n";
        assert_eq!(run(t, "f", &[]), 0x12);
    }
}
