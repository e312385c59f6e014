//! The EH16 instruction set and program assembler.
//!
//! EH16 is a deliberately small 16-bit register machine in the spirit of the
//! MSP430 used by the Hibernus line of work: 16 general registers, a word-
//! addressed unified memory (SRAM + FRAM regions), compare-and-branch flags,
//! a hardware-multiplier-style `MulQ15` for DSP workloads, and two coarse
//! peripheral instructions (`Sense`, `Tx`). A `Mark` no-op carries the
//! compile-time checkpoint sites Mementos keys on.
//!
//! Programs are built with [`ProgramBuilder`], which resolves symbolic
//! labels to instruction indices at [`ProgramBuilder::build`] time.

use std::collections::HashMap;
use std::fmt;

use crate::mem::Memory;

/// A register index `R0`–`R15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register reference.
    ///
    /// # Panics
    ///
    /// Panics if `index > 15`.
    pub const fn new(index: u8) -> Self {
        assert!(index < 16, "register index must be 0..=15");
        Reg(index)
    }

    /// The register index. The mask is a no-op ([`Reg::new`] asserts the
    /// range) that lets the compiler drop bounds checks on register files.
    pub const fn index(self) -> usize {
        (self.0 & 15) as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Convenience register constants.
pub mod regs {
    use super::Reg;
    /// Register 0.
    pub const R0: Reg = Reg::new(0);
    /// Register 1.
    pub const R1: Reg = Reg::new(1);
    /// Register 2.
    pub const R2: Reg = Reg::new(2);
    /// Register 3.
    pub const R3: Reg = Reg::new(3);
    /// Register 4.
    pub const R4: Reg = Reg::new(4);
    /// Register 5.
    pub const R5: Reg = Reg::new(5);
    /// Register 6.
    pub const R6: Reg = Reg::new(6);
    /// Register 7.
    pub const R7: Reg = Reg::new(7);
    /// Register 8.
    pub const R8: Reg = Reg::new(8);
    /// Register 9.
    pub const R9: Reg = Reg::new(9);
    /// Register 10.
    pub const R10: Reg = Reg::new(10);
    /// Register 11.
    pub const R11: Reg = Reg::new(11);
    /// Register 12.
    pub const R12: Reg = Reg::new(12);
    /// Register 13.
    pub const R13: Reg = Reg::new(13);
    /// Register 14.
    pub const R14: Reg = Reg::new(14);
    /// Register 15.
    pub const R15: Reg = Reg::new(15);
}

/// Second operand of ALU instructions: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// 16-bit immediate.
    Imm(u16),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u16> for Operand {
    fn from(v: u16) -> Self {
        Operand::Imm(v)
    }
}

/// Memory addressing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// Absolute word address.
    Abs(u16),
    /// Address held in a register.
    Ind(Reg),
    /// Register plus signed word offset.
    IndOff(Reg, i16),
}

/// One EH16 instruction. Branch targets are instruction indices, resolved
/// from labels by the assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `rd ← src`.
    Mov(Reg, Operand),
    /// `rd ← rd + src` (wrapping); sets flags.
    Add(Reg, Operand),
    /// `rd ← rd − src` (wrapping); sets flags.
    Sub(Reg, Operand),
    /// `rd ← rd & src`; sets flags.
    And(Reg, Operand),
    /// `rd ← rd | src`; sets flags.
    Or(Reg, Operand),
    /// `rd ← rd ^ src`; sets flags.
    Xor(Reg, Operand),
    /// `rd ← low16(rd × src)` (wrapping); sets flags.
    Mul(Reg, Operand),
    /// Q15 fixed-point multiply: `rd ← (rd × src) >> 15` treating both as
    /// signed Q15; sets flags. Models the hardware multiplier.
    MulQ15(Reg, Operand),
    /// Logical shift left by a constant; sets flags.
    Shl(Reg, u8),
    /// Logical shift right by a constant; sets flags.
    Shr(Reg, u8),
    /// Arithmetic shift right by a constant; sets flags.
    Sar(Reg, u8),
    /// Load `rd ← mem[addr]`.
    Ld(Reg, Addr),
    /// Store `mem[addr] ← rs`.
    St(Reg, Addr),
    /// Compare `ra` with `src` (signed); sets flags without writing.
    Cmp(Reg, Operand),
    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Branch if zero flag set.
    Brz(u32),
    /// Branch if zero flag clear.
    Brnz(u32),
    /// Branch if negative flag set (last compare: `a < b` signed).
    Brn(u32),
    /// Branch if negative flag clear (last compare: `a ≥ b` signed).
    Brge(u32),
    /// Push return address and jump.
    Call(u32),
    /// Pop return address and jump back.
    Ret,
    /// Push a register onto the stack.
    Push(Reg),
    /// Pop a register from the stack.
    Pop(Reg),
    /// Checkpoint-site marker (no-op at run time; Mementos triggers here).
    Mark(u16),
    /// Read the ADC into `rd` (slow, costs ADC energy).
    Sense(Reg),
    /// Transmit `rs` over the radio (very slow, costs radio energy).
    Tx(Reg),
    /// No operation.
    Nop,
    /// Stop: the program has completed.
    Halt,
}

impl Insn {
    /// Base cycle cost of the instruction (memory-region wait states are
    /// added by the machine).
    pub fn base_cycles(&self) -> u64 {
        match self {
            Insn::Mov(_, Operand::Reg(_)) => 1,
            Insn::Mov(_, Operand::Imm(_)) => 2,
            Insn::Add(_, o)
            | Insn::Sub(_, o)
            | Insn::And(_, o)
            | Insn::Or(_, o)
            | Insn::Xor(_, o)
            | Insn::Cmp(_, o) => match o {
                Operand::Reg(_) => 1,
                Operand::Imm(_) => 2,
            },
            Insn::Mul(_, _) | Insn::MulQ15(_, _) => 5,
            Insn::Shl(_, _) | Insn::Shr(_, _) | Insn::Sar(_, _) => 1,
            Insn::Ld(_, _) | Insn::St(_, _) => 3,
            Insn::Jmp(_) | Insn::Brz(_) | Insn::Brnz(_) | Insn::Brn(_) | Insn::Brge(_) => 2,
            Insn::Call(_) => 5,
            Insn::Ret => 5,
            Insn::Push(_) | Insn::Pop(_) => 3,
            Insn::Mark(_) => 1,
            Insn::Sense(_) => 200,
            Insn::Tx(_) => 2000,
            Insn::Nop => 1,
            Insn::Halt => 1,
        }
    }

    /// `true` for instructions that end a basic block: control transfers,
    /// checkpoint markers (where a run may yield) and `Halt`.
    pub(crate) fn ends_block(&self) -> bool {
        matches!(
            self,
            Insn::Jmp(_)
                | Insn::Brz(_)
                | Insn::Brnz(_)
                | Insn::Brn(_)
                | Insn::Brge(_)
                | Insn::Call(_)
                | Insn::Ret
                | Insn::Mark(_)
                | Insn::Halt
        )
    }
}

/// An assembled program: instructions plus an initial FRAM data image.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    insns: Vec<Insn>,
    /// `(word address, words)` blocks loaded into non-volatile memory before
    /// first boot — constant tables, input vectors.
    data: Vec<(u16, Vec<u16>)>,
}

impl Program {
    /// The program's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// The initial non-volatile data image.
    pub fn data(&self) -> &[(u16, Vec<u16>)] {
        &self.data
    }

    /// Instruction at `pc`, if in range.
    pub fn fetch(&self, pc: u32) -> Option<Insn> {
        self.insns.get(pc as usize).copied()
    }

    /// Indices of every `Mark` instruction — the compile-time checkpoint
    /// sites Mementos uses.
    pub fn checkpoint_sites(&self) -> Vec<u32> {
        self.insns
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Insn::Mark(_)))
            .map(|(idx, _)| idx as u32)
            .collect()
    }
}

/// Errors reported by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// A jump references a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// The program contains no instructions.
    Empty,
    /// A data block reaches this unmapped word address.
    UnmappedData(u16),
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildProgramError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            BuildProgramError::Empty => write!(f, "program has no instructions"),
            BuildProgramError::UnmappedData(a) => {
                write!(f, "data block reaches unmapped address {a:#06x}")
            }
        }
    }
}

impl std::error::Error for BuildProgramError {}

/// Instruction placeholder used during assembly: targets are label names.
#[derive(Debug, Clone)]
enum Draft {
    Ready(Insn),
    Jump(JumpKind, String),
}

#[derive(Debug, Clone, Copy)]
enum JumpKind {
    Jmp,
    Brz,
    Brnz,
    Brn,
    Brge,
    Call,
}

/// Builds [`Program`]s with symbolic labels.
///
/// # Examples
///
/// Summing 1..=10:
///
/// ```
/// use edc_mcu::isa::{regs::*, ProgramBuilder};
///
/// let program = ProgramBuilder::new("sum")
///     .mov(R0, 0u16)      // acc
///     .mov(R1, 10u16)     // i
///     .label("loop")
///     .add(R0, R1)
///     .sub(R1, 1u16)
///     .brnz("loop")
///     .halt()
///     .build()
///     .expect("labels resolve");
/// assert_eq!(program.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    drafts: Vec<Draft>,
    labels: HashMap<String, u32>,
    data: Vec<(u16, Vec<u16>)>,
    error: Option<BuildProgramError>,
}

impl ProgramBuilder {
    /// Starts a new program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            drafts: Vec::new(),
            labels: HashMap::new(),
            data: Vec::new(),
            error: None,
        }
    }

    /// Defines a label at the current position.
    pub fn label(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self
            .labels
            .insert(name.clone(), self.drafts.len() as u32)
            .is_some()
            && self.error.is_none()
        {
            self.error = Some(BuildProgramError::DuplicateLabel(name));
        }
        self
    }

    /// Attaches an initial non-volatile data block at `addr`.
    pub fn data(mut self, addr: u16, words: Vec<u16>) -> Self {
        self.data.push((addr, words));
        self
    }

    fn push(mut self, i: Insn) -> Self {
        self.drafts.push(Draft::Ready(i));
        self
    }

    fn push_jump(mut self, kind: JumpKind, label: impl Into<String>) -> Self {
        self.drafts.push(Draft::Jump(kind, label.into()));
        self
    }

    /// `rd ← src`.
    pub fn mov(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Mov(rd, src.into()))
    }

    /// `rd ← rd + src`.
    pub fn add(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Add(rd, src.into()))
    }

    /// `rd ← rd − src`.
    pub fn sub(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Sub(rd, src.into()))
    }

    /// `rd ← rd & src`.
    pub fn and(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::And(rd, src.into()))
    }

    /// `rd ← rd | src`.
    pub fn or(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Or(rd, src.into()))
    }

    /// `rd ← rd ^ src`.
    pub fn xor(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Xor(rd, src.into()))
    }

    /// `rd ← low16(rd × src)`.
    pub fn mul(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Mul(rd, src.into()))
    }

    /// Q15 multiply.
    pub fn mulq15(self, rd: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::MulQ15(rd, src.into()))
    }

    /// Logical shift left.
    pub fn shl(self, rd: Reg, n: u8) -> Self {
        self.push(Insn::Shl(rd, n))
    }

    /// Logical shift right.
    pub fn shr(self, rd: Reg, n: u8) -> Self {
        self.push(Insn::Shr(rd, n))
    }

    /// Arithmetic shift right.
    pub fn sar(self, rd: Reg, n: u8) -> Self {
        self.push(Insn::Sar(rd, n))
    }

    /// Load from memory.
    pub fn ld(self, rd: Reg, addr: Addr) -> Self {
        self.push(Insn::Ld(rd, addr))
    }

    /// Store to memory.
    pub fn st(self, rs: Reg, addr: Addr) -> Self {
        self.push(Insn::St(rs, addr))
    }

    /// Signed compare, setting flags.
    pub fn cmp(self, ra: Reg, src: impl Into<Operand>) -> Self {
        self.push(Insn::Cmp(ra, src.into()))
    }

    /// Unconditional jump to a label.
    pub fn jmp(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Jmp, label)
    }

    /// Branch to `label` if the zero flag is set.
    pub fn brz(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Brz, label)
    }

    /// Branch to `label` if the zero flag is clear.
    pub fn brnz(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Brnz, label)
    }

    /// Branch to `label` if negative (last compare `a < b`).
    pub fn brn(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Brn, label)
    }

    /// Branch to `label` if not negative (last compare `a ≥ b`).
    pub fn brge(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Brge, label)
    }

    /// Call a labelled subroutine.
    pub fn call(self, label: impl Into<String>) -> Self {
        self.push_jump(JumpKind::Call, label)
    }

    /// Return from a subroutine.
    pub fn ret(self) -> Self {
        self.push(Insn::Ret)
    }

    /// Push a register.
    pub fn push_reg(self, r: Reg) -> Self {
        self.push(Insn::Push(r))
    }

    /// Pop into a register.
    pub fn pop_reg(self, r: Reg) -> Self {
        self.push(Insn::Pop(r))
    }

    /// Emits a checkpoint-site marker.
    pub fn mark(self, id: u16) -> Self {
        self.push(Insn::Mark(id))
    }

    /// Reads the ADC.
    pub fn sense(self, rd: Reg) -> Self {
        self.push(Insn::Sense(rd))
    }

    /// Transmits a word.
    pub fn tx(self, rs: Reg) -> Self {
        self.push(Insn::Tx(rs))
    }

    /// No-op.
    pub fn nop(self) -> Self {
        self.push(Insn::Nop)
    }

    /// Terminates the program.
    pub fn halt(self) -> Self {
        self.push(Insn::Halt)
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProgramError`] when a label is undefined or duplicated,
    /// the program is empty, or a data block reaches unmapped memory.
    pub fn build(self) -> Result<Program, BuildProgramError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.drafts.is_empty() {
            return Err(BuildProgramError::Empty);
        }
        for (addr, words) in &self.data {
            // Both regions are contiguous and end below `u16::MAX`, so the
            // first unmapped word comes before any wrap-around.
            for i in 0..words.len() {
                let a = addr.wrapping_add(i as u16);
                Memory::region_of(a).map_err(|_| BuildProgramError::UnmappedData(a))?;
            }
        }
        let mut insns = Vec::with_capacity(self.drafts.len());
        for draft in self.drafts {
            let insn = match draft {
                Draft::Ready(i) => i,
                Draft::Jump(kind, label) => {
                    let target = *self
                        .labels
                        .get(&label)
                        .ok_or(BuildProgramError::UndefinedLabel(label))?;
                    match kind {
                        JumpKind::Jmp => Insn::Jmp(target),
                        JumpKind::Brz => Insn::Brz(target),
                        JumpKind::Brnz => Insn::Brnz(target),
                        JumpKind::Brn => Insn::Brn(target),
                        JumpKind::Brge => Insn::Brge(target),
                        JumpKind::Call => Insn::Call(target),
                    }
                }
            };
            insns.push(insn);
        }
        Ok(Program {
            name: self.name,
            insns,
            data: self.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::regs::*;
    use super::*;
    use crate::mem::{FRAM_BASE, FRAM_WORDS, SRAM_WORDS};

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let p = ProgramBuilder::new("t")
            .jmp("end") // forward reference
            .label("loop")
            .add(R0, 1u16)
            .jmp("loop") // backward reference
            .label("end")
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.insns()[0], Insn::Jmp(3));
        assert_eq!(p.insns()[2], Insn::Jmp(1));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let err = ProgramBuilder::new("t").jmp("nowhere").build().unwrap_err();
        assert_eq!(err, BuildProgramError::UndefinedLabel("nowhere".into()));
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let err = ProgramBuilder::new("t")
            .label("a")
            .nop()
            .label("a")
            .halt()
            .build()
            .unwrap_err();
        assert_eq!(err, BuildProgramError::DuplicateLabel("a".into()));
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            ProgramBuilder::new("t").build().unwrap_err(),
            BuildProgramError::Empty
        );
    }

    #[test]
    fn checkpoint_sites_found() {
        let p = ProgramBuilder::new("t")
            .mark(1)
            .nop()
            .mark(2)
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.checkpoint_sites(), vec![0, 2]);
    }

    #[test]
    fn data_blocks_must_lie_in_mapped_memory() {
        let build = |addr: u16, len: usize| {
            ProgramBuilder::new("t")
                .data(addr, vec![7; len])
                .halt()
                .build()
                .err()
        };
        // The last SRAM word and a block filling FRAM to its end load.
        assert_eq!(build(SRAM_WORDS - 1, 1), None);
        assert_eq!(build(FRAM_BASE, FRAM_WORDS as usize), None);
        // One word past either region, or a start in the gap, does not.
        assert_eq!(
            build(SRAM_WORDS - 1, 2),
            Some(BuildProgramError::UnmappedData(SRAM_WORDS))
        );
        assert_eq!(
            build(FRAM_BASE, FRAM_WORDS as usize + 1),
            Some(BuildProgramError::UnmappedData(FRAM_BASE + FRAM_WORDS))
        );
        assert_eq!(
            build(0x0800, 1),
            Some(BuildProgramError::UnmappedData(0x0800))
        );
        // An empty block places nothing, wherever it points.
        assert_eq!(build(0xFFFF, 0), None);
    }

    #[test]
    fn data_blocks_preserved() {
        let p = ProgramBuilder::new("t")
            .data(0x1000, vec![1, 2, 3])
            .halt()
            .build()
            .unwrap();
        assert_eq!(p.data(), &[(0x1000, vec![1, 2, 3])]);
    }

    #[test]
    fn cycle_costs_ordering() {
        // Peripheral ops dwarf ALU ops; immediates cost more than registers.
        assert!(Insn::Tx(R0).base_cycles() > Insn::Sense(R0).base_cycles());
        assert!(Insn::Sense(R0).base_cycles() > Insn::Mul(R0, Operand::Reg(R1)).base_cycles());
        assert!(
            Insn::Add(R0, Operand::Imm(1)).base_cycles()
                > Insn::Add(R0, Operand::Reg(R1)).base_cycles()
        );
    }

    #[test]
    #[should_panic(expected = "register index")]
    fn out_of_range_register_rejected() {
        let _ = Reg::new(16);
    }

    #[test]
    fn reg_display() {
        assert_eq!(format!("{}", R7), "r7");
    }
}
