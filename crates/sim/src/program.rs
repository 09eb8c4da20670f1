//! Loaded program image: absolute addresses, label resolution, data
//! sections materialized into memory.
//!
//! The simulator executes a [`mao::MaoUnit`] directly (no object file): the
//! relaxation layout provides every instruction's size, each section gets a
//! base virtual address, and data directives (jump tables!) are written
//! into the initial memory image with symbols resolved to their absolute
//! addresses.
//!
//! The interpreter reads code only through [`CodeSource`]. A loaded
//! [`Program`] is one source; a bare `[Instruction]` slice is the other —
//! straight-line code run in place, with no text, parse or relaxation.

use std::collections::HashMap;

use mao::relax::{relax, Layout};
use mao::{EntryId, MaoUnit};
use mao_asm::{DataItem, Directive, Entry};
use mao_x86::Instruction;

use crate::memory::Memory;

/// Base virtual address of the text section.
pub const TEXT_BASE: u64 = 0x0040_0000;
/// Base of the first non-text section; subsequent sections are spaced by
/// [`SECTION_STRIDE`].
pub const DATA_BASE: u64 = 0x1000_0000;
/// Virtual-address spacing between sections.
pub const SECTION_STRIDE: u64 = 0x0100_0000;
/// Initial stack pointer.
pub const STACK_TOP: u64 = 0x7fff_ff00;

/// Program loading error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Relaxation failed (unencodable instruction).
    Relax(String),
    /// A data directive references an undefined symbol.
    UndefinedSymbol(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Relax(m) => write!(f, "relaxation failed: {m}"),
            LoadError::UndefinedSymbol(s) => write!(f, "undefined symbol `{s}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// A unit prepared for execution.
#[derive(Debug, Clone)]
pub struct Program {
    /// The IR being executed.
    pub unit: MaoUnit,
    /// Relaxation layout (sizes, section-relative addresses, branch forms).
    pub layout: Layout,
    /// Absolute virtual address of each entry.
    pub entry_va: Vec<u64>,
    /// Map from instruction/label VA to entry id.
    pub va_to_entry: HashMap<u64, EntryId>,
    /// Label name to VA.
    pub label_va: HashMap<String, u64>,
}

impl Program {
    /// Load a unit: relax, place sections, resolve labels.
    pub fn load(unit: &MaoUnit) -> Result<Program, LoadError> {
        let layout = relax(unit).map_err(|e| LoadError::Relax(e.to_string()))?;
        let names = unit.section_names();
        // Assign section bases in order of first appearance.
        let mut bases: HashMap<&str, u64> = HashMap::new();
        let mut next_data = DATA_BASE;
        for name in &names {
            if !bases.contains_key(name) {
                let base = if *name == ".text" || name.starts_with(".text.") {
                    TEXT_BASE
                } else {
                    let b = next_data;
                    next_data += SECTION_STRIDE;
                    b
                };
                bases.insert(name, base);
            }
        }
        let mut entry_va = Vec::with_capacity(unit.len());
        let mut va_to_entry = HashMap::new();
        let mut label_va = HashMap::new();
        for (id, e) in unit.entries().iter().enumerate() {
            let va = bases[names[id]] + layout.addr[id];
            entry_va.push(va);
            match e {
                Entry::Insn(_) => {
                    va_to_entry.entry(va).or_insert(id);
                }
                Entry::Label(l) => {
                    va_to_entry.entry(va).or_insert(id);
                    label_va.entry(l.as_str().to_string()).or_insert(va);
                }
                Entry::Directive(_) => {}
            }
        }
        Ok(Program {
            unit: unit.clone(),
            layout,
            entry_va,
            va_to_entry,
            label_va,
        })
    }

    /// Materialize data sections (and string/zero directives) into a fresh
    /// memory image, resolving symbolic items to absolute addresses.
    pub fn initial_memory(&self) -> Result<Memory, LoadError> {
        let mut mem = Memory::new();
        for (id, e) in self.unit.entries().iter().enumerate() {
            let Entry::Directive(d) = e else { continue };
            let va = self.entry_va[id];
            match d {
                Directive::Data { width, items } => {
                    let n = width.bytes() as u8;
                    for (k, item) in items.iter().enumerate() {
                        let value = match item {
                            DataItem::Imm(v) => *v as u64,
                            DataItem::Symbol(s) => {
                                *self.label_va.get(s.as_str()).ok_or_else(|| {
                                    LoadError::UndefinedSymbol(s.as_str().to_string())
                                })?
                            }
                        };
                        mem.write(va + k as u64 * u64::from(n), value, n);
                    }
                }
                Directive::Ascii(s) | Directive::Asciz(s) => {
                    for (k, b) in s.bytes().enumerate() {
                        mem.write_u8(va + k as u64, b);
                    }
                    if matches!(d, Directive::Asciz(_)) {
                        mem.write_u8(va + s.len() as u64, 0);
                    }
                }
                Directive::Zero(n) => {
                    for k in 0..*n {
                        mem.write_u8(va + k, 0);
                    }
                }
                _ => {}
            }
        }
        Ok(mem)
    }

    /// Entry id of the first *instruction* at or after `id`.
    pub fn next_insn(&self, mut id: EntryId) -> Option<EntryId> {
        while id < self.unit.len() {
            if self.unit.insn(id).is_some() {
                return Some(id);
            }
            id += 1;
        }
        None
    }

    /// Entry id of the instruction a label points at.
    pub fn label_insn(&self, label: &str) -> Option<EntryId> {
        let id = self.unit.find_label(label)?;
        self.next_insn(id)
    }

    /// Entry id for a branch-target VA (e.g. from a jump table or `ret`).
    pub fn entry_at_va(&self, va: u64) -> Option<EntryId> {
        self.va_to_entry.get(&va).and_then(|&id| self.next_insn(id))
    }

    /// Size in bytes of the instruction at `id`.
    pub fn insn_len(&self, id: EntryId) -> u32 {
        self.layout.size[id]
    }
}

/// Everything [`crate::Machine::step`] reads about the code it executes:
/// the instruction at a pc, its fall-through successor, its address and
/// length, and label and symbol lookups. Instruction semantics live only in
/// `step`; a source decides only where code and symbols are.
pub trait CodeSource {
    /// The instruction at `pc`; `None` past the end, where a run finishes
    /// as if it had returned.
    fn insn(&self, pc: usize) -> Option<&Instruction>;
    /// Fall-through successor of the instruction at `pc`.
    fn next_pc(&self, pc: usize) -> Option<usize>;
    /// Virtual address of the instruction at `pc`.
    fn va(&self, pc: usize) -> u64;
    /// Encoded length of the instruction at `pc`.
    fn len_at(&self, pc: usize) -> u32;
    /// Where a run entering at `label` starts.
    fn entry_pc(&self, label: &str) -> Option<usize> {
        self.label_pc(label)
    }
    /// The instruction a branch to `label` lands on.
    fn label_pc(&self, label: &str) -> Option<usize>;
    /// Address of a symbol used as a displacement.
    fn symbol_va(&self, name: &str) -> Option<u64>;
    /// The instruction at `va`, for indirect branches and returns.
    fn pc_at_va(&self, va: u64) -> Option<usize>;
    /// The memory image a run starts from.
    fn initial_memory(&self) -> Result<Memory, LoadError>;
}

impl CodeSource for Program {
    fn insn(&self, pc: usize) -> Option<&Instruction> {
        self.unit.insn(pc)
    }

    fn next_pc(&self, pc: usize) -> Option<usize> {
        self.next_insn(pc + 1)
    }

    fn va(&self, pc: usize) -> u64 {
        self.entry_va[pc]
    }

    fn len_at(&self, pc: usize) -> u32 {
        self.insn_len(pc)
    }

    fn label_pc(&self, label: &str) -> Option<usize> {
        self.label_insn(label)
    }

    fn symbol_va(&self, name: &str) -> Option<u64> {
        self.label_va.get(name).copied()
    }

    fn pc_at_va(&self, va: u64) -> Option<usize> {
        self.entry_at_va(va)
    }

    fn initial_memory(&self) -> Result<Memory, LoadError> {
        Program::initial_memory(self)
    }
}

/// Straight-line code run in place: no labels, no symbols, no data, and no
/// layout. Every entry label starts at the first instruction; running off
/// the end finishes the run like a top-level `ret`. Instruction `i` sits at
/// `TEXT_BASE + i` with length 1 — distinct addresses for control flow, not
/// a layout a timing model could use (load a [`Program`] for that).
impl CodeSource for [Instruction] {
    fn insn(&self, pc: usize) -> Option<&Instruction> {
        self.get(pc)
    }

    fn next_pc(&self, pc: usize) -> Option<usize> {
        Some(pc + 1)
    }

    fn va(&self, pc: usize) -> u64 {
        TEXT_BASE + pc as u64
    }

    fn len_at(&self, _pc: usize) -> u32 {
        1
    }

    fn entry_pc(&self, _label: &str) -> Option<usize> {
        Some(0)
    }

    fn label_pc(&self, _label: &str) -> Option<usize> {
        None
    }

    fn symbol_va(&self, _name: &str) -> Option<u64> {
        None
    }

    fn pc_at_va(&self, va: u64) -> Option<usize> {
        let pc = usize::try_from(va.checked_sub(TEXT_BASE)?).ok()?;
        (pc <= self.len()).then_some(pc)
    }

    fn initial_memory(&self) -> Result<Memory, LoadError> {
        Ok(Memory::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_places_sections() {
        let unit = MaoUnit::parse(
            ".text\nf:\n\tnop\n\tret\n.section .rodata\n.LC:\n\t.quad f\n\t.long 42\n",
        )
        .unwrap();
        let p = Program::load(&unit).unwrap();
        assert_eq!(p.label_va["f"], TEXT_BASE);
        assert_eq!(p.label_va[".LC"], DATA_BASE);
        let mut mem = p.initial_memory().unwrap();
        assert_eq!(
            mem.read(DATA_BASE, 8),
            TEXT_BASE,
            "jump-table slot holds f's VA"
        );
        assert_eq!(mem.read(DATA_BASE + 8, 4), 42);
    }

    #[test]
    fn string_and_zero_materialized() {
        let unit = MaoUnit::parse(".section .rodata\ns:\n\t.asciz \"hi\"\n\t.zero 4\n").unwrap();
        let p = Program::load(&unit).unwrap();
        let mut mem = p.initial_memory().unwrap();
        assert_eq!(mem.read_u8(DATA_BASE), b'h');
        assert_eq!(mem.read_u8(DATA_BASE + 1), b'i');
        assert_eq!(mem.read_u8(DATA_BASE + 2), 0);
    }

    #[test]
    fn undefined_symbol_in_data_errors() {
        let unit = MaoUnit::parse(".section .rodata\n\t.quad nowhere\n").unwrap();
        let p = Program::load(&unit).unwrap();
        assert!(matches!(
            p.initial_memory(),
            Err(LoadError::UndefinedSymbol(s)) if s == "nowhere"
        ));
    }

    #[test]
    fn va_to_entry_roundtrip() {
        let unit = MaoUnit::parse("f:\n\tnop\n\tnop\n\tret\n").unwrap();
        let p = Program::load(&unit).unwrap();
        // Second nop at TEXT_BASE+1.
        let id = p.entry_at_va(TEXT_BASE + 1).unwrap();
        assert_eq!(p.entry_va[id], TEXT_BASE + 1);
        assert!(p.entry_at_va(TEXT_BASE + 100).is_none());
    }

    #[test]
    fn label_insn_skips_to_instruction() {
        let unit = MaoUnit::parse("f:\ng:\n\tnop\n").unwrap();
        let p = Program::load(&unit).unwrap();
        let id = p.label_insn("f").unwrap();
        assert!(p.unit.insn(id).is_some());
    }
}
