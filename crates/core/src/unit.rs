//! The MAO IR: one long entry list with section and function views.
//!
//! The paper: *"After parsing, all assembly directives and instructions form
//! one long list of MAO IR nodes. To reflect the structure of assembly
//! files, MAO offers a notion of sections and functions and provides easy
//! access to these higher level concepts via corresponding iterators."*
//!
//! A [`MaoUnit`] owns the flat `Vec<Entry>`; [`Section`] and [`Function`]
//! are computed views of index ranges. A function split across sections by
//! an intermittent data section (the jump-table pattern GCC emits for
//! `switch`) has multiple [`Function::spans`] and its iterator walks them
//! transparently, exactly as §II requires.
//!
//! The views live in a lazily built `UnitIndex` that [`MaoUnit::apply`]
//! patches in place when an [`EditSet`] only touches entries strictly inside
//! function bodies (the common case for peephole passes). Structural edits —
//! anything inserting or removing labels, section directives, or `.type`
//! markers, or touching entries outside function spans — drop the index for
//! a full rebuild on next access and bump [`MaoUnit::context_epoch`], the
//! signal analysis caches use to discard results that may have read
//! cross-function context (e.g. jump tables in `.rodata`).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use mao_asm::{Directive, Entry, ParseError};

use crate::isa::x86::Instruction;
use crate::isa::{Insn, IsaId};

/// Index of an entry in the unit's flat list.
pub type EntryId = usize;

/// A contiguous run of entries in one section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`.text`, `.rodata`, ...).
    pub name: String,
    /// Entry ranges belonging to this section, in file order. A section can
    /// appear several times in a file; each appearance is one range.
    pub ranges: Vec<Range<EntryId>>,
}

impl Section {
    /// Is this an executable (text-like) section?
    pub fn is_text(&self) -> bool {
        is_text_section(&self.name)
    }

    /// All entry ids in this section, in order.
    #[inline]
    pub fn entry_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.ranges.iter().flat_map(|r| r.clone())
    }
}

fn is_text_section(name: &str) -> bool {
    name == ".text" || name.starts_with(".text.")
}

/// A function view over the unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function (symbol) name.
    pub name: String,
    /// Entry id of the function's defining label.
    pub label_id: EntryId,
    /// Entry ranges forming the function body, in order. More than one when
    /// a data section interrupts the function's text.
    pub spans: Vec<Range<EntryId>>,
}

impl Function {
    /// All entry ids of the function body, in order, spanning section splits
    /// transparently.
    #[inline]
    pub fn entry_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.spans.iter().flat_map(|r| r.clone())
    }

    /// Does the function contain this entry id?
    ///
    /// Spans are sorted and disjoint, so this is a binary search over span
    /// boundaries rather than a linear scan.
    #[inline]
    pub fn contains(&self, id: EntryId) -> bool {
        self.spans
            .binary_search_by(|r| {
                if r.end <= id {
                    std::cmp::Ordering::Less
                } else if r.start > id {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

/// The section, function, and label views of a unit, built in one pass over
/// the entries and kept current across [`MaoUnit::apply`] when possible.
#[derive(Debug, Clone, Default, PartialEq)]
struct UnitIndex {
    sections: Vec<Section>,
    functions: Vec<Function>,
    labels: HashMap<&'static str, EntryId>,
}

/// Section name in effect for each entry (`.text` before any section
/// directive, matching gas's default).
fn section_names(entries: &[Entry]) -> Vec<&str> {
    let mut out = Vec::with_capacity(entries.len());
    let mut current = ".text";
    for e in entries {
        if let Entry::Directive(d) = e {
            if let Some(name) = d.section_name() {
                current = name;
            }
            // Directives like .previous/.popsection are not modeled; the
            // corpus this reproduction handles does not use them.
        }
        out.push(current);
    }
    out
}

/// Build the full index from scratch: one pass for section names, then the
/// section ranges, label map, and function spans.
fn build_index(entries: &[Entry]) -> UnitIndex {
    let names = section_names(entries);

    // Sections: group maximal runs of equal section name.
    let mut sections: Vec<Section> = Vec::new();
    let mut slot_of: HashMap<&str, usize> = HashMap::new();
    let mut i = 0;
    while i < names.len() {
        let name = names[i];
        let mut j = i;
        while j < names.len() && names[j] == name {
            j += 1;
        }
        let slot = *slot_of.entry(name).or_insert_with(|| {
            sections.push(Section {
                name: name.to_string(),
                ranges: Vec::new(),
            });
            sections.len() - 1
        });
        sections[slot].ranges.push(i..j);
        i = j;
    }

    // Labels: first definition wins.
    let mut labels: HashMap<&'static str, EntryId> = HashMap::new();
    for (id, e) in entries.iter().enumerate() {
        if let Entry::Label(l) = e {
            labels.entry(l.as_str()).or_insert(id);
        }
    }

    // Functions: a function starts at its defining label (in a text section,
    // with a matching `.type sym, @function`) and extends to the next
    // function start or the end of the unit. Non-text ranges inside that
    // extent are excluded from the spans, so iteration skips interleaved
    // data sections — the transparency property of §II.
    let symbols: Vec<&str> = entries
        .iter()
        .filter_map(|e| match e {
            Entry::Directive(Directive::Type { symbol, kind }) if kind == "function" => {
                Some(symbol.as_str())
            }
            _ => None,
        })
        .collect();
    let mut starts: Vec<(EntryId, &str)> = Vec::new();
    for (id, e) in entries.iter().enumerate() {
        if let Entry::Label(l) = e {
            if is_text_section(names[id]) && symbols.contains(&l.as_str()) {
                starts.push((id, l));
            }
        }
    }
    let mut functions = Vec::with_capacity(starts.len());
    for (k, &(start, name)) in starts.iter().enumerate() {
        let end = starts.get(k + 1).map_or(entries.len(), |&(s, _)| s);
        let mut spans: Vec<Range<EntryId>> = Vec::new();
        let mut i = start;
        while i < end {
            if is_text_section(names[i]) {
                let mut j = i;
                while j < end && is_text_section(names[j]) {
                    j += 1;
                }
                spans.push(i..j);
                i = j;
            } else {
                i += 1;
            }
        }
        functions.push(Function {
            name: name.to_string(),
            label_id: start,
            spans,
        });
    }

    UnitIndex {
        sections,
        functions,
        labels,
    }
}

/// Is this entry one the index structure depends on? Labels define the label
/// map and function starts; section directives define section ranges and
/// which entries count as text; `.type` directives define which labels are
/// functions. Touching any of these means the index must be rebuilt.
fn is_structural(e: &Entry) -> bool {
    match e {
        Entry::Label(_) => true,
        Entry::Insn(_) => false,
        Entry::Directive(d) => d.section_name().is_some() || matches!(d, Directive::Type { .. }),
    }
}

/// The MAO IR unit: the parsed assembly file.
#[derive(Debug, Clone, Default)]
pub struct MaoUnit {
    entries: Vec<Entry>,
    /// The instruction set the unit's instructions belong to. Inferred from
    /// the first instruction entry (directive-only units default to x86-64,
    /// matching the pre-ISA-boundary behavior). Mixed-ISA units are not
    /// modeled: the front end parses a whole file under one dialect.
    isa: IsaId,
    /// Lazily built section/function/label views; dropped (and rebuilt on
    /// next access) whenever an edit cannot be patched in place.
    index: OnceLock<UnitIndex>,
    /// Bumped whenever an edit may have changed cross-function context
    /// (anything outside function bodies, e.g. jump tables in `.rodata`).
    /// Analysis caches compare epochs to decide whether per-function results
    /// derived from such context are still valid.
    context_epoch: u64,
}

impl PartialEq for MaoUnit {
    fn eq(&self, other: &MaoUnit) -> bool {
        // The index and epoch are derived/bookkeeping state; two units are
        // equal iff their entries are.
        self.entries == other.entries
    }
}

impl MaoUnit {
    /// Build a unit from already-parsed entries. The unit's ISA is inferred
    /// from the first instruction entry.
    pub fn from_entries(entries: Vec<Entry>) -> MaoUnit {
        let isa = mao_asm::snapshot::unit_isa(&entries);
        MaoUnit {
            entries,
            isa,
            ..MaoUnit::default()
        }
    }

    /// Parse assembly text into a unit (the default first pass of the
    /// pipeline). Instructions are parsed in the x86-64 dialect; use
    /// [`MaoUnit::parse_isa`] for other targets.
    pub fn parse(text: &str) -> Result<MaoUnit, ParseError> {
        Ok(MaoUnit::from_entries(mao_asm::parse(text)?))
    }

    /// Parse assembly text under the given ISA's dialect.
    pub fn parse_isa(text: &str, isa: IsaId) -> Result<MaoUnit, ParseError> {
        let mut unit = MaoUnit::from_entries(mao_asm::parse_isa(text, isa)?);
        // Directive-only units still belong to the requested target; the
        // entry scan cannot see that.
        unit.isa = isa;
        Ok(unit)
    }

    /// Like [`MaoUnit::parse`], splitting large inputs across up to `jobs`
    /// threads (0 = one per available core). Output is byte-identical to
    /// the sequential parse; small inputs stay sequential.
    pub fn parse_with_jobs(text: &str, jobs: usize) -> Result<MaoUnit, ParseError> {
        Ok(MaoUnit::from_entries(mao_asm::parse_with_jobs(text, jobs)?))
    }

    /// Like [`MaoUnit::parse_with_jobs`] under the given ISA's dialect.
    pub fn parse_with_jobs_isa(text: &str, jobs: usize, isa: IsaId) -> Result<MaoUnit, ParseError> {
        let mut unit = MaoUnit::from_entries(mao_asm::parse_with_jobs_isa(text, jobs, isa)?);
        unit.isa = isa;
        Ok(unit)
    }

    /// Like [`MaoUnit::from_entries`] with the unit's ISA pinned rather
    /// than inferred — for snapshot loads whose request declared a target
    /// (a directive-only entry list carries no ISA evidence of its own).
    pub fn from_entries_isa(entries: Vec<Entry>, isa: IsaId) -> MaoUnit {
        let mut unit = MaoUnit::from_entries(entries);
        unit.isa = isa;
        unit
    }

    /// The instruction set this unit's instructions belong to.
    #[inline]
    pub fn isa(&self) -> IsaId {
        self.isa
    }

    /// Emit the unit as textual assembly (the `ASM` pass).
    pub fn emit(&self) -> String {
        mao_asm::emit(&self.entries)
    }

    /// The flat entry list.
    #[inline]
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the unit empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by id.
    #[inline]
    pub fn entry(&self, id: EntryId) -> &Entry {
        &self.entries[id]
    }

    /// Mutable entry access (for in-place rewriting). The caller may change
    /// anything — including turning the entry into a label or section
    /// directive — so this conservatively drops the cached index and bumps
    /// the context epoch.
    pub fn entry_mut(&mut self, id: EntryId) -> &mut Entry {
        self.invalidate_index();
        &mut self.entries[id]
    }

    /// The x86 instruction at `id`, if that entry is one. Instructions from
    /// other ISAs return `None`; x86-only passes see through this accessor
    /// and naturally skip foreign instructions.
    #[inline]
    pub fn insn(&self, id: EntryId) -> Option<&Instruction> {
        self.entries[id].insn()
    }

    /// The instruction at `id` regardless of ISA, if that entry is one.
    #[inline]
    pub fn insn_any(&self, id: EntryId) -> Option<&Insn> {
        self.entries[id].insn_any()
    }

    /// Epoch of cross-function context. Bumped by [`MaoUnit::apply`] when an
    /// edit may have changed entries outside function bodies; per-function
    /// analysis results that read such context (CFG jump-table resolution)
    /// are only valid while the epoch is unchanged.
    #[inline]
    pub fn context_epoch(&self) -> u64 {
        self.context_epoch
    }

    fn index(&self) -> &UnitIndex {
        self.index.get_or_init(|| build_index(&self.entries))
    }

    fn invalidate_index(&mut self) {
        self.index = OnceLock::new();
        self.context_epoch = self.context_epoch.wrapping_add(1);
    }

    /// Section name in effect for each entry (`.text` before any section
    /// directive, matching gas's default).
    pub fn section_names(&self) -> Vec<&str> {
        section_names(&self.entries)
    }

    /// The section views (cached; cloned for callers that mutate the unit
    /// while holding them).
    pub fn sections(&self) -> Vec<Section> {
        self.index().sections.clone()
    }

    /// The section views, borrowed from the cached index.
    #[inline]
    pub fn sections_cached(&self) -> &[Section] {
        &self.index().sections
    }

    /// Map from label name to its entry id (first definition wins).
    pub fn labels(&self) -> HashMap<&str, EntryId> {
        self.index()
            .labels
            .iter()
            .map(|(&name, &id)| (name, id))
            .collect()
    }

    /// Find a label's entry id.
    ///
    /// This is the unit's one label resolver: on duplicate definitions the
    /// *first* occurrence wins, and every consumer (relaxation, displacement
    /// computation, the alignment passes) must resolve through here so they
    /// agree on which definition a branch targets.
    pub fn find_label(&self, name: &str) -> Option<EntryId> {
        self.index().labels.get(name).copied()
    }

    /// Resolve the branch at `id` to its target entry: `Some` only when the
    /// entry is an instruction with a label operand that is defined in this
    /// unit. O(1) via the cached label index.
    pub fn branch_target(&self, id: EntryId) -> Option<EntryId> {
        self.insn_any(id)
            .and_then(|i| i.target_label())
            .and_then(|l| self.find_label(l))
    }

    /// The function views (cached; cloned for callers that mutate the unit
    /// while holding them).
    pub fn functions(&self) -> Vec<Function> {
        self.index().functions.clone()
    }

    /// The function views, borrowed from the cached index. Prefer this over
    /// [`MaoUnit::functions`] when the unit is not mutated while iterating.
    #[inline]
    pub fn functions_cached(&self) -> &[Function] {
        &self.index().functions
    }

    /// Compute the function views from scratch, bypassing the cached index.
    /// This is the pre-index baseline; it exists so benchmarks can compare
    /// against incremental maintenance. Prefer [`MaoUnit::functions`].
    pub fn functions_rebuilt(&self) -> Vec<Function> {
        build_index(&self.entries).functions
    }

    /// Find a function view by name.
    pub fn find_function(&self, name: &str) -> Option<Function> {
        self.index()
            .functions
            .iter()
            .find(|f| f.name == name)
            .cloned()
    }

    /// Try to patch the cached index across `edits` without a rebuild.
    ///
    /// Patchable edits touch only entries strictly inside function spans and
    /// neither insert, delete, nor replace structural entries (labels,
    /// section directives, `.type`). Such edits can only shift index
    /// boundaries: every boundary `b` moves to `b + shift(b)` where
    /// `shift(b)` sums the net entry-count change of all edits at ids `< b`.
    ///
    /// Returns `None` when the edits are not patchable and the index must be
    /// rebuilt.
    fn try_patch_index(index: &UnitIndex, entries: &[Entry], edits: &EditSet) -> Option<UnitIndex> {
        // Appending at the end extends the last section/function: rebuild.
        if edits.insert_before.contains_key(&usize::MAX) {
            return None;
        }

        // Net length change contributed by the edit at each touched id,
        // mirroring the exact semantics of `apply`.
        let mut touched: Vec<(EntryId, isize)> = Vec::with_capacity(edits.len());
        {
            let mut ids: Vec<EntryId> = edits
                .deleted
                .iter()
                .copied()
                .chain(edits.replaced.keys().copied())
                .chain(edits.insert_before.keys().copied())
                .chain(edits.insert_after.keys().copied())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            for id in ids {
                if id >= entries.len() {
                    // Out-of-range ids are silently ignored by `apply`;
                    // don't try to reason about them incrementally.
                    return None;
                }
                let mut net = 0isize;
                if let Some(before) = edits.insert_before.get(&id) {
                    net += before.len() as isize;
                }
                if edits.deleted.contains(&id) {
                    net -= 1;
                } else if let Some(repl) = edits.replaced.get(&id) {
                    net += repl.len() as isize - 1;
                }
                if let Some(after) = edits.insert_after.get(&id) {
                    net += after.len() as isize;
                }
                touched.push((id, net));
            }
        }

        // No structural entries inserted or produced by replacement.
        let inserted_ok = edits
            .insert_before
            .values()
            .chain(edits.insert_after.values())
            .chain(edits.replaced.values())
            .flatten()
            .all(|e| !is_structural(e));
        if !inserted_ok {
            return None;
        }
        // No structural entries deleted or replaced away.
        let targets_ok = edits
            .deleted
            .iter()
            .chain(edits.replaced.keys())
            .all(|&id| !is_structural(&entries[id]));
        if !targets_ok {
            return None;
        }

        // Every touched id must sit strictly inside a function span:
        // `span.start < id < span.end` (span starts are the function label
        // or a `.text` re-entry directive — both structural, and inserting
        // before them would land entries outside the span).
        // `insert_after` may additionally target `span.start` itself, since
        // entries after it are unambiguously inside the span.
        for &(id, _) in &touched {
            let inside = index.functions.iter().any(|f| {
                f.spans.iter().any(|s| {
                    let after_only = !edits.deleted.contains(&id)
                        && !edits.replaced.contains_key(&id)
                        && !edits.insert_before.contains_key(&id);
                    s.start < id && id < s.end || (after_only && id == s.start && id < s.end)
                })
            });
            if !inside {
                return None;
            }
        }

        // Prefix sums: shift(b) = Σ net(id) over touched ids < b.
        let mut prefix: Vec<isize> = Vec::with_capacity(touched.len() + 1);
        prefix.push(0);
        for &(_, net) in &touched {
            prefix.push(prefix.last().unwrap() + net);
        }
        let shift = |b: EntryId| -> EntryId {
            let k = touched.partition_point(|&(id, _)| id < b);
            (b as isize + prefix[k]) as EntryId
        };
        let shift_range = |r: &Range<EntryId>| shift(r.start)..shift(r.end);
        // An entry AT position `p` (a label) also moves past entries
        // inserted immediately before it; range boundaries do not (inserts
        // before a range start are rejected above).
        let shift_entity =
            |p: EntryId| -> EntryId { shift(p) + edits.insert_before.get(&p).map_or(0, Vec::len) };

        Some(UnitIndex {
            sections: index
                .sections
                .iter()
                .map(|s| Section {
                    name: s.name.clone(),
                    ranges: s.ranges.iter().map(shift_range).collect(),
                })
                .collect(),
            functions: index
                .functions
                .iter()
                .map(|f| Function {
                    name: f.name.clone(),
                    label_id: shift_entity(f.label_id),
                    spans: f.spans.iter().map(shift_range).collect(),
                })
                .collect(),
            labels: index
                .labels
                .iter()
                .map(|(&name, &id)| (name, shift_entity(id)))
                .collect(),
        })
    }

    /// Apply a batch of edits. Returns the number of entries after editing.
    ///
    /// If the cached index is live and the edits only touch entries strictly
    /// inside function bodies (no structural entries involved), the index is
    /// patched in place; otherwise it is dropped for a rebuild on next
    /// access and the context epoch is bumped.
    pub fn apply(&mut self, edits: EditSet) -> usize {
        if edits.is_empty() {
            return self.entries.len();
        }
        let patched = self
            .index
            .get()
            .and_then(|idx| MaoUnit::try_patch_index(idx, &self.entries, &edits));

        let mut out = Vec::with_capacity(self.entries.len() + 8);
        for (id, entry) in self.entries.drain(..).enumerate() {
            if let Some(before) = edits.insert_before.get(&id) {
                out.extend(before.iter().cloned());
            }
            if !edits.deleted.contains(&id) {
                match edits.replaced.get(&id) {
                    Some(new_entries) => out.extend(new_entries.iter().cloned()),
                    None => out.push(entry),
                }
            }
            if let Some(after) = edits.insert_after.get(&id) {
                out.extend(after.iter().cloned());
            }
        }
        if let Some(at_end) = edits.insert_before.get(&usize::MAX) {
            out.extend(at_end.iter().cloned());
        }
        self.entries = out;

        match patched {
            Some(idx) => {
                debug_assert_eq!(
                    idx,
                    build_index(&self.entries),
                    "incrementally patched index diverged from a full rebuild"
                );
                self.index = OnceLock::from(idx);
            }
            None => self.invalidate_index(),
        }
        self.entries.len()
    }
}

/// A batch of deferred edits against a [`MaoUnit`].
///
/// Passes collect edits while iterating (ids stay stable), then call
/// [`MaoUnit::apply`] once; all ids refer to the pre-edit numbering.
#[derive(Debug, Clone, Default)]
pub struct EditSet {
    deleted: std::collections::BTreeSet<EntryId>,
    replaced: HashMap<EntryId, Vec<Entry>>,
    insert_before: HashMap<EntryId, Vec<Entry>>,
    insert_after: HashMap<EntryId, Vec<Entry>>,
}

impl EditSet {
    /// Empty edit set.
    pub fn new() -> EditSet {
        EditSet::default()
    }

    /// Any edits recorded?
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
            && self.replaced.is_empty()
            && self.insert_before.is_empty()
            && self.insert_after.is_empty()
    }

    /// Number of edit operations recorded.
    pub fn len(&self) -> usize {
        self.deleted.len()
            + self.replaced.len()
            + self.insert_before.len()
            + self.insert_after.len()
    }

    /// Delete entry `id`.
    pub fn delete(&mut self, id: EntryId) -> &mut Self {
        self.deleted.insert(id);
        self
    }

    /// Replace entry `id` with `entries` (empty = delete).
    pub fn replace(&mut self, id: EntryId, entries: Vec<Entry>) -> &mut Self {
        self.replaced.insert(id, entries);
        self
    }

    /// Replace entry `id` with a single instruction (any ISA, via `Into`).
    pub fn replace_insn(&mut self, id: EntryId, insn: impl Into<Insn>) -> &mut Self {
        self.replace(id, vec![Entry::Insn(insn.into())])
    }

    /// Insert `entries` immediately before entry `id`. Use `usize::MAX` to
    /// append at the end of the unit.
    pub fn insert_before(&mut self, id: EntryId, entries: Vec<Entry>) -> &mut Self {
        self.insert_before.entry(id).or_default().extend(entries);
        self
    }

    /// Insert `entries` immediately after entry `id`.
    pub fn insert_after(&mut self, id: EntryId, entries: Vec<Entry>) -> &mut Self {
        self.insert_after.entry(id).or_default().extend(entries);
        self
    }

    /// All entry ids this edit set touches, in ascending order.
    pub fn touched_ids(&self) -> Vec<EntryId> {
        let mut ids: Vec<EntryId> = self
            .deleted
            .iter()
            .copied()
            .chain(self.replaced.keys().copied())
            .chain(self.insert_before.keys().copied())
            .chain(self.insert_after.keys().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Is entry `id` deleted by this edit set?
    pub(crate) fn is_deleted(&self, id: EntryId) -> bool {
        self.deleted.contains(&id)
    }

    /// Replacement entries for `id`, if any.
    pub(crate) fn replacement(&self, id: EntryId) -> Option<&[Entry]> {
        self.replaced.get(&id).map(Vec::as_slice)
    }

    /// Entries inserted immediately before `id`, if any.
    pub(crate) fn inserted_before(&self, id: EntryId) -> Option<&[Entry]> {
        self.insert_before.get(&id).map(Vec::as_slice)
    }

    /// Entries inserted immediately after `id`, if any.
    pub(crate) fn inserted_after(&self, id: EntryId) -> Option<&[Entry]> {
        self.insert_after.get(&id).map(Vec::as_slice)
    }

    /// Fold `other` into `self`. Replacements from `other` win on id
    /// collision; inserts at the same id are appended after `self`'s, so
    /// merging edit sets produced against disjoint id ranges (one per
    /// function) is order-exact with applying them separately.
    pub fn merge(&mut self, other: EditSet) {
        self.deleted.extend(other.deleted);
        for (id, entries) in other.replaced {
            self.replaced.insert(id, entries);
        }
        for (id, entries) in other.insert_before {
            self.insert_before.entry(id).or_default().extend(entries);
        }
        for (id, entries) in other.insert_after {
            self.insert_after.entry(id).or_default().extend(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_FUNCS: &str = r#"
	.text
	.globl	f
	.type	f, @function
f:
	push %rbp
	pop %rbp
	ret
	.size	f, .-f
	.globl	g
	.type	g, @function
g:
	nop
	ret
	.size	g, .-g
"#;

    #[test]
    fn functions_are_found() {
        let unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let funcs = unit.functions();
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "f");
        assert_eq!(funcs[1].name, "g");
        // f's body: label + 3 insns + .size + .globl/.type of g.
        let f_insns: Vec<_> = funcs[0]
            .entry_ids()
            .filter_map(|id| unit.insn(id))
            .collect();
        assert_eq!(f_insns.len(), 3);
        let g_insns: Vec<_> = funcs[1]
            .entry_ids()
            .filter_map(|id| unit.insn(id))
            .collect();
        assert_eq!(g_insns.len(), 2);
    }

    /// The §II scenario: a function split in two by an intermittent data
    /// section must iterate transparently.
    #[test]
    fn function_split_by_data_section() {
        let text = r#"
	.text
	.type	h, @function
h:
	nop
	jmp *.Ltab(,%rax,8)
	.section	.rodata
.Ltab:
	.quad	.L1
	.quad	.L2
	.text
.L1:
	nop
.L2:
	ret
	.size	h, .-h
"#;
        let unit = MaoUnit::parse(text).unwrap();
        let funcs = unit.functions();
        assert_eq!(funcs.len(), 1);
        let h = &funcs[0];
        assert_eq!(h.spans.len(), 2, "split into two spans: {:?}", h.spans);
        let insns: Vec<_> = h.entry_ids().filter_map(|id| unit.insn(id)).collect();
        // nop, jmp, nop, ret — the .quad data is NOT iterated.
        assert_eq!(insns.len(), 4);
        assert!(insns
            .iter()
            .all(|i| !matches!(i.mnemonic, crate::isa::x86::Mnemonic::Movss)));
    }

    #[test]
    fn sections_views() {
        let unit = MaoUnit::parse(".text\nnop\n.section .rodata\n.long 1\n.text\nret\n").unwrap();
        let sections = unit.sections();
        assert_eq!(sections.len(), 2);
        let text = &sections[0];
        assert!(text.is_text());
        assert_eq!(text.ranges.len(), 2); // .text appears twice
        assert_eq!(text.entry_ids().count(), 4);
    }

    #[test]
    fn default_section_is_text() {
        let unit = MaoUnit::parse("nop\n").unwrap();
        assert_eq!(unit.section_names(), vec![".text"]);
    }

    #[test]
    fn labels_map() {
        let unit = MaoUnit::parse("a:\nnop\nb:\nret\n").unwrap();
        assert_eq!(unit.find_label("b"), Some(2));
        assert_eq!(unit.labels().len(), 2);
        assert_eq!(unit.find_label("zz"), None);
    }

    #[test]
    fn edits_apply_in_order() {
        let mut unit = MaoUnit::parse("nop\nnop\nnop\n").unwrap();
        let mut edits = EditSet::new();
        edits.delete(1);
        edits.insert_before(0, vec![Entry::Label("start".into())]);
        edits.insert_after(2, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        let text = unit.emit();
        assert_eq!(text, "start:\n\tnop\n\tnop\n\tnop\n");
    }

    #[test]
    fn replace_edit() {
        let mut unit = MaoUnit::parse("nop\n").unwrap();
        let mut edits = EditSet::new();
        edits.replace_insn(0, Instruction::nop_of_len(2));
        unit.apply(edits);
        assert_eq!(unit.emit(), "\tnopw\n");
    }

    #[test]
    fn empty_editset_is_noop() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let before = unit.clone();
        let edits = EditSet::new();
        assert!(edits.is_empty());
        unit.apply(edits);
        assert_eq!(unit, before);
    }

    #[test]
    fn contains_binary_search_matches_linear() {
        let f = Function {
            name: "f".into(),
            label_id: 3,
            spans: vec![3..7, 12..15, 20..21],
        };
        for id in 0..25 {
            let linear = f.spans.iter().any(|r| r.contains(&id));
            assert_eq!(f.contains(id), linear, "id {id}");
        }
    }

    /// An interior edit (delete one insn inside `f`) must keep the cached
    /// index live and correctly shifted — `g`'s boundaries move left by one.
    #[test]
    fn interior_edit_patches_index() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let funcs = unit.functions(); // builds the index
        let epoch = unit.context_epoch();
        let g_before = funcs[1].clone();
        let f_insn = funcs[0]
            .entry_ids()
            .find(|&id| unit.insn(id).is_some())
            .unwrap();

        let mut edits = EditSet::new();
        edits.delete(f_insn);
        unit.apply(edits);

        assert_eq!(
            unit.context_epoch(),
            epoch,
            "interior edit must not bump the context epoch"
        );
        let g_after = unit.find_function("g").unwrap();
        assert_eq!(g_after.label_id, g_before.label_id - 1);
        // The patched index must agree with a from-scratch unit.
        let rebuilt = MaoUnit::parse(&unit.emit()).unwrap();
        assert_eq!(unit.functions(), rebuilt.functions());
        assert_eq!(unit.sections(), rebuilt.sections());
    }

    /// Deleting a label is structural: the index must be rebuilt and the
    /// context epoch bumped.
    #[test]
    fn structural_edit_bumps_epoch() {
        let mut unit = MaoUnit::parse("a:\nnop\nb:\nret\n").unwrap();
        let _ = unit.functions();
        let epoch = unit.context_epoch();
        let mut edits = EditSet::new();
        edits.delete(2); // the label `b`
        unit.apply(edits);
        assert!(unit.context_epoch() > epoch);
        assert_eq!(unit.find_label("b"), None);
        assert_eq!(unit.find_label("a"), Some(0));
    }

    /// Inserting after the function label (first probe of an instrumented
    /// function) is patchable; inserting before it is not.
    #[test]
    fn insert_at_span_start_boundary() {
        let mut unit = MaoUnit::parse(TWO_FUNCS).unwrap();
        let g = unit.find_function("g").unwrap();
        let epoch = unit.context_epoch();
        let mut edits = EditSet::new();
        edits.insert_after(g.label_id, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        assert_eq!(
            unit.context_epoch(),
            epoch,
            "insert_after label is patchable"
        );
        let g2 = unit.find_function("g").unwrap();
        assert_eq!(
            g2.entry_ids().filter_map(|id| unit.insn(id)).count(),
            3,
            "inserted nop lands inside g"
        );

        let mut edits = EditSet::new();
        edits.insert_before(g2.label_id, vec![Entry::Insn(Instruction::nop().into())]);
        unit.apply(edits);
        assert!(
            unit.context_epoch() > epoch,
            "insert_before a function label falls back to a rebuild"
        );
    }

    /// Merged edit sets from disjoint functions apply exactly like the
    /// individual sets applied in function order.
    #[test]
    fn editset_merge_matches_sequential_apply() {
        let mut seq = MaoUnit::parse(TWO_FUNCS).unwrap();
        let mut merged = seq.clone();
        let funcs = seq.functions();

        let mut per_fn: Vec<EditSet> = Vec::new();
        for f in &funcs {
            let first_insn = f.entry_ids().find(|&id| seq.insn(id).is_some()).unwrap();
            let mut e = EditSet::new();
            e.replace_insn(first_insn, Instruction::nop_of_len(2));
            e.insert_after(first_insn, vec![Entry::Insn(Instruction::nop().into())]);
            per_fn.push(e);
        }

        // Sequential: apply per function, ids are disjoint so pre-edit ids
        // stay valid only for the FIRST apply — recompute per function the
        // way the sequential driver does.
        for e in per_fn.clone() {
            // ids refer to pre-edit numbering of the ORIGINAL unit; applying
            // f's edits shifts g. Recompute g's edit against the shifted
            // unit by rebuilding it from the merged reference below instead.
            let _ = e;
        }
        let mut all = EditSet::new();
        for e in per_fn.clone() {
            all.merge(e);
        }
        merged.apply(all);

        // Apply the same edits one at a time against ids remapped by hand:
        // f's edits first (ids unchanged), then g's (shifted by +1 from f's
        // net insert).
        let mut e0 = per_fn[0].clone();
        let _ = &mut e0;
        seq.apply(per_fn[0].clone());
        let g = seq.find_function("g").unwrap();
        let first_insn = g.entry_ids().find(|&id| seq.insn(id).is_some()).unwrap();
        let mut e1 = EditSet::new();
        e1.replace_insn(first_insn, Instruction::nop_of_len(2));
        e1.insert_after(first_insn, vec![Entry::Insn(Instruction::nop().into())]);
        seq.apply(e1);

        assert_eq!(merged.emit(), seq.emit());
    }
}
