//! The simulated MCU: CPU, memory, clock, peripherals, and the snapshot
//! engine that makes transient computing possible.
//!
//! The machine deliberately exposes the failure semantics the paper's
//! Section II.B revolves around: on [`Mcu::power_loss`] all volatile state
//! (SRAM, registers, peripheral state) is destroyed while FRAM survives, and
//! a snapshot interrupted mid-copy is left unsealed and will not restore —
//! Mementos' downside #2.

use std::fmt;

use edc_units::{Hertz, Joules, Seconds, Watts};

use crate::clock::ClockLadder;
use crate::isa::{Addr, Insn, Operand, Program, Reg};
use crate::mem::{Memory, MemoryFault, FRAM_BASE, SNAPSHOT_BASE, SNAPSHOT_FRAME_WORDS, SRAM_WORDS};
use crate::power::{ExecutionResidence, PowerModel, PowerState};

mod replay;

use replay::BootMemo;

/// Valid-snapshot seal word, written last during a snapshot.
const SEAL_VALID: u16 = 0xA55A;

/// Snapshot frame header length in words (seal, sequence, 16 regs, pc lo/hi,
/// sp, flags, 2 reserved).
const HEADER_WORDS: u16 = 24;

/// CPU architectural state — exactly what a snapshot must capture beyond
/// SRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General registers R0–R15.
    pub regs: [u16; 16],
    /// Program counter (instruction index).
    pub pc: u32,
    /// Stack pointer (word address; grows down).
    pub sp: u16,
    /// Zero flag.
    pub z: bool,
    /// Negative flag.
    pub n: bool,
}

impl CpuState {
    fn reset() -> Self {
        Self {
            regs: [0; 16],
            pc: 0,
            sp: SRAM_WORDS,
            z: false,
            n: false,
        }
    }
}

/// Errors the machine can raise while executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// A load/store touched unmapped memory.
    Memory(MemoryFault),
    /// The PC left the program.
    PcOutOfRange(u32),
    /// Push with a full stack.
    StackOverflow,
    /// Pop/ret with an empty stack.
    StackUnderflow,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Memory(m) => write!(f, "memory fault: {m}"),
            MachineError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program"),
            MachineError::StackOverflow => write!(f, "stack overflow"),
            MachineError::StackUnderflow => write!(f, "stack underflow"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MemoryFault> for MachineError {
    fn from(m: MemoryFault) -> Self {
        MachineError::Memory(m)
    }
}

/// Why a [`Mcu::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The program executed `Halt`.
    Completed,
    /// The cycle budget ran out mid-program.
    BudgetExhausted,
    /// A `Mark` checkpoint site was crossed (only with `stop_at_markers`).
    Marker(u16),
    /// Execution faulted.
    Fault(MachineError),
}

/// Result of a [`Mcu::run`] burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Energy consumed (execution + peripheral events).
    pub energy: Joules,
    /// Why the burst ended.
    pub exit: RunExit,
}

/// Result of a snapshot attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotOutcome {
    /// `true` when the frame was fully written and sealed.
    pub completed: bool,
    /// Cycles the copy loop consumed (or would have, if truncated).
    pub cycles: u64,
    /// Energy actually spent.
    pub energy: Joules,
}

/// Result of a successful restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOutcome {
    /// Cycles the copy-back consumed.
    pub cycles: u64,
    /// Energy spent.
    pub energy: Joules,
    /// Snapshot sequence number that was restored.
    pub sequence: u16,
}

/// How snapshots treat peripheral state — the open problem the paper's
/// discussion section raises ("work to date has primarily focused on
/// computation, and not the plethora of peripherals that are typically
/// present in embedded systems").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PeripheralPolicy {
    /// Peripherals are re-initialised after every outage (the state of the
    /// art the paper describes): the ADC's conversion sequence restarts.
    #[default]
    Reinit,
    /// Peripheral registers are included in the snapshot frame (the paper's
    /// future-work direction), at a small extra frame cost.
    Checkpointed,
}

/// A deterministic ADC peripheral: successive conversions sample a slow
/// sinusoid, as a sensor watching a periodic physical signal would.
///
/// Under [`PeripheralPolicy::Reinit`] the conversion index is *volatile* —
/// power loss resets it and the sampled waveform restarts.
#[derive(Debug, Clone, Default)]
pub struct Adc {
    index: u32,
}

impl Adc {
    /// Performs one conversion (12-bit result).
    pub fn convert(&mut self) -> u16 {
        let phase = self.index as f64 / 64.0 * std::f64::consts::TAU;
        self.index = self.index.wrapping_add(1);
        (2048.0 + 1023.0 * phase.sin()).round() as u16
    }

    /// Conversions since last reset.
    pub fn conversions(&self) -> u32 {
        self.index
    }

    fn reset(&mut self) {
        self.index = 0;
    }
}

/// A counting radio peripheral.
#[derive(Debug, Clone, Default)]
pub struct Radio {
    words_sent: u64,
    last_word: u16,
}

impl Radio {
    /// Total words transmitted over the machine's lifetime (non-volatile
    /// counter on the observer's side, like a lab sniffer).
    pub fn words_sent(&self) -> u64 {
        self.words_sent
    }

    /// The most recently transmitted word.
    pub fn last_word(&self) -> u16 {
        self.last_word
    }
}

/// The rest of a basic block from one pc: that instruction and every one
/// after it up to and including the block's last (see `Insn::ends_block`,
/// or the end of the program).
#[derive(Debug, Clone, Copy, Default)]
struct BlockTail {
    /// Instructions in the rest of the block.
    insns: u32,
    /// Summed `base_cycles()` of those instructions.
    cycles: u64,
    /// Loads and stores among them: each may take one FRAM wait state.
    mem_ops: u64,
}

/// The block table of `insns`: entry `pc` is the rest of `pc`'s block.
fn block_table(insns: &[Insn]) -> Vec<BlockTail> {
    let mut table = vec![BlockTail::default(); insns.len()];
    let mut next = BlockTail::default();
    for (pc, insn) in insns.iter().enumerate().rev() {
        if insn.ends_block() {
            next = BlockTail::default();
        }
        next = BlockTail {
            insns: next.insns + 1,
            cycles: next.cycles + insn.base_cycles(),
            mem_ops: next.mem_ops + u64::from(matches!(insn, Insn::Ld(..) | Insn::St(..))),
        };
        table[pc] = next;
    }
    table
}

/// How many instructions at the start of `tail`, the rest of the block that
/// starts at `pc`, fit in `room` cycles even if each load and store takes
/// `wait` wait-state cycles.
fn fitting_prefix(blocks: &[BlockTail], pc: usize, tail: BlockTail, wait: u64, room: u64) -> usize {
    let worst = |t: &BlockTail| t.cycles + wait * t.mem_ops;
    let total = worst(&tail);
    if total <= room {
        return tail.insns as usize;
    }
    // The first k fit when the worst case left after them is ≥ `rest`.
    let rest = total - room;
    (1..tail.insns as usize)
        .take_while(|&k| worst(&blocks[pc + k]) >= rest)
        .count()
}

/// Base cycles of the first `k` instructions of `tail`, the rest of the
/// block that starts at `pc`.
fn prefix_cycles(blocks: &[BlockTail], pc: usize, tail: BlockTail, k: usize) -> u64 {
    if k < tail.insns as usize {
        tail.cycles - blocks[pc + k].cycles
    } else {
        tail.cycles
    }
}

/// One [`Mcu::run`] call's view of the machine: the state instructions
/// touch, borrowed apart from the program so that a block's instructions
/// can be read as one slice while they execute.
struct Burst<'m> {
    cpu: &'m mut CpuState,
    mem: &'m mut Memory,
    adc: &'m mut Adc,
    radio: &'m mut Radio,
    /// Energy of one ADC conversion.
    adc_energy: Joules,
    /// Energy of one radio word.
    radio_energy: Joules,
    /// The clock is above the FRAM wait-state threshold.
    fram_wait: bool,
    /// Every address is FRAM (unified-FRAM residence).
    all_fram: bool,
    /// Cycles used so far: base cycles charged per block by [`Mcu::run`]
    /// plus wait states added per access.
    cycles: u64,
    /// Peripheral (ADC, radio) energy spent so far.
    peripheral: Joules,
}

impl Burst<'_> {
    /// Wait-state cycles of a successful access to `addr`: one for a FRAM
    /// access at a wait-state clock (under unified-FRAM residence every
    /// access is a FRAM access).
    fn wait_state(&self, addr: u16) -> u64 {
        u64::from(self.fram_wait && (self.all_fram || addr >= FRAM_BASE))
    }

    fn operand_value(&self, o: Operand) -> u16 {
        match o {
            Operand::Reg(r) => self.cpu.regs[r.index()],
            Operand::Imm(v) => v,
        }
    }

    fn effective_address(&self, a: Addr) -> u16 {
        match a {
            Addr::Abs(addr) => addr,
            Addr::Ind(r) => self.cpu.regs[r.index()],
            Addr::IndOff(r, off) => (self.cpu.regs[r.index()] as i32 + off as i32) as u16,
        }
    }

    fn set_flags(&mut self, result: u16) {
        self.cpu.z = result == 0;
        self.cpu.n = result & 0x8000 != 0;
    }

    fn alu(&mut self, rd: Reg, src: Operand, f: impl Fn(u16, u16) -> u16) {
        let a = self.cpu.regs[rd.index()];
        let b = self.operand_value(src);
        let r = f(a, b);
        self.cpu.regs[rd.index()] = r;
        self.set_flags(r);
    }

    fn push_word(&mut self, v: u16) -> Result<(), MachineError> {
        if self.cpu.sp == 0 {
            return Err(MachineError::StackOverflow);
        }
        self.cpu.sp -= 1;
        self.mem.write(self.cpu.sp, v)?;
        Ok(())
    }

    fn pop_word(&mut self) -> Result<u16, MachineError> {
        if self.cpu.sp >= SRAM_WORDS {
            return Err(MachineError::StackUnderflow);
        }
        let v = self.mem.read(self.cpu.sp)?;
        self.cpu.sp += 1;
        Ok(v)
    }

    /// Executes `insn`, the instruction at `pc`: the single execution body
    /// behind both the block path and the budget-edge path of [`Mcu::run`].
    /// Returns the next pc (the caller stores it in the CPU state) and
    /// counts any FRAM wait state or peripheral energy; a faulting
    /// instruction changes nothing.
    #[inline(always)]
    fn exec(&mut self, insn: Insn, pc: u32) -> Result<u32, MachineError> {
        let mut next_pc = pc + 1;
        match insn {
            Insn::Mov(rd, src) => {
                let v = self.operand_value(src);
                self.cpu.regs[rd.index()] = v;
                self.set_flags(v);
            }
            Insn::Add(rd, src) => self.alu(rd, src, |a, b| a.wrapping_add(b)),
            Insn::Sub(rd, src) => self.alu(rd, src, |a, b| a.wrapping_sub(b)),
            Insn::And(rd, src) => self.alu(rd, src, |a, b| a & b),
            Insn::Or(rd, src) => self.alu(rd, src, |a, b| a | b),
            Insn::Xor(rd, src) => self.alu(rd, src, |a, b| a ^ b),
            Insn::Mul(rd, src) => self.alu(rd, src, |a, b| a.wrapping_mul(b)),
            Insn::MulQ15(rd, src) => self.alu(rd, src, |a, b| {
                let p = (a as i16 as i32) * (b as i16 as i32);
                ((p >> 15) as i16) as u16
            }),
            Insn::Shl(rd, n) => {
                let r = self.cpu.regs[rd.index()] << n;
                self.cpu.regs[rd.index()] = r;
                self.set_flags(r);
            }
            Insn::Shr(rd, n) => {
                let r = self.cpu.regs[rd.index()] >> n;
                self.cpu.regs[rd.index()] = r;
                self.set_flags(r);
            }
            Insn::Sar(rd, n) => {
                let r = ((self.cpu.regs[rd.index()] as i16) >> n) as u16;
                self.cpu.regs[rd.index()] = r;
                self.set_flags(r);
            }
            Insn::Ld(rd, addr) => {
                let ea = self.effective_address(addr);
                let v = self.mem.read(ea)?;
                self.cycles += self.wait_state(ea);
                self.cpu.regs[rd.index()] = v;
                self.set_flags(v);
            }
            Insn::St(rs, addr) => {
                let ea = self.effective_address(addr);
                self.mem.write(ea, self.cpu.regs[rs.index()])?;
                self.cycles += self.wait_state(ea);
            }
            Insn::Cmp(ra, src) => {
                let a = self.cpu.regs[ra.index()];
                let b = self.operand_value(src);
                self.cpu.z = a == b;
                self.cpu.n = (a as i16) < (b as i16);
            }
            Insn::Jmp(t) => next_pc = t,
            Insn::Brz(t) => {
                if self.cpu.z {
                    next_pc = t;
                }
            }
            Insn::Brnz(t) => {
                if !self.cpu.z {
                    next_pc = t;
                }
            }
            Insn::Brn(t) => {
                if self.cpu.n {
                    next_pc = t;
                }
            }
            Insn::Brge(t) => {
                if !self.cpu.n {
                    next_pc = t;
                }
            }
            Insn::Call(t) => {
                self.push_word(next_pc as u16)?;
                next_pc = t;
            }
            Insn::Ret => {
                next_pc = self.pop_word()? as u32;
            }
            Insn::Push(r) => {
                let v = self.cpu.regs[r.index()];
                self.push_word(v)?;
            }
            Insn::Pop(r) => {
                let v = self.pop_word()?;
                self.cpu.regs[r.index()] = v;
            }
            Insn::Mark(_) | Insn::Nop => {}
            Insn::Sense(rd) => {
                let v = self.adc.convert();
                self.cpu.regs[rd.index()] = v;
                self.set_flags(v);
                self.peripheral += self.adc_energy;
            }
            Insn::Tx(rs) => {
                self.radio.last_word = self.cpu.regs[rs.index()];
                self.radio.words_sent += 1;
                self.peripheral += self.radio_energy;
            }
            Insn::Halt => next_pc = pc, // stay put
        }
        Ok(next_pc)
    }
}

/// The simulated microcontroller.
///
/// # Examples
///
/// ```
/// use edc_mcu::isa::{regs::*, ProgramBuilder};
/// use edc_mcu::{Mcu, RunExit};
///
/// let program = ProgramBuilder::new("count")
///     .mov(R0, 0u16)
///     .mov(R1, 5u16)
///     .label("loop")
///     .add(R0, 1u16)
///     .sub(R1, 1u16)
///     .brnz("loop")
///     .halt()
///     .build()?;
/// let mut mcu = Mcu::new(program);
/// let report = mcu.run(1_000_000, false);
/// assert_eq!(report.exit, RunExit::Completed);
/// assert_eq!(mcu.cpu().regs[0], 5);
/// # Ok::<(), edc_mcu::isa::BuildProgramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mcu {
    program: Program,
    /// `program`'s block table, built once in [`Mcu::new`].
    blocks: Vec<BlockTail>,
    mem: Memory,
    cpu: CpuState,
    clock: ClockLadder,
    power: PowerModel,
    residence: ExecutionResidence,
    state: PowerState,
    adc: Adc,
    radio: Radio,
    peripheral_policy: PeripheralPolicy,
    halted: bool,
    total_cycles: u64,
    total_instructions: u64,
    reboots: u64,
    /// Recorded boots, replayed by [`Mcu::run`].
    memo: BootMemo,
}

impl Mcu {
    /// Creates a machine running `program` with default (MSP430-shaped)
    /// power model, SRAM residence, and the standard clock ladder at 8 MHz.
    pub fn new(program: Program) -> Self {
        let mut clock = ClockLadder::msp430();
        clock.set_level(3); // 8 MHz default, as the Hibernus experiments.
        let mut mcu = Self {
            blocks: block_table(program.insns()),
            program,
            mem: Memory::new(),
            cpu: CpuState::reset(),
            clock,
            power: PowerModel::msp430fr5739(),
            residence: ExecutionResidence::Sram,
            state: PowerState::Active,
            adc: Adc::default(),
            radio: Radio::default(),
            peripheral_policy: PeripheralPolicy::default(),
            halted: false,
            total_cycles: 0,
            total_instructions: 0,
            reboots: 0,
            memo: BootMemo::default(),
        };
        mcu.load_program_data();
        mcu
    }

    /// Switches the execution residence (QuickRecall runs FRAM-resident).
    pub fn with_residence(mut self, residence: ExecutionResidence) -> Self {
        self.residence = residence;
        self.memo = BootMemo::default();
        self
    }

    /// Replaces the power model.
    pub fn with_power_model(mut self, power: PowerModel) -> Self {
        self.power = power;
        self.memo = BootMemo::default();
        self
    }

    /// Selects how snapshots treat peripheral state.
    pub fn with_peripheral_policy(mut self, policy: PeripheralPolicy) -> Self {
        self.peripheral_policy = policy;
        self.memo = BootMemo::default();
        self
    }

    /// The active peripheral-snapshot policy.
    pub fn peripheral_policy(&self) -> PeripheralPolicy {
        self.peripheral_policy
    }

    fn load_program_data(&mut self) {
        for (addr, words) in self.program.data().to_vec() {
            for (i, w) in words.iter().enumerate() {
                // `ProgramBuilder::build` rejects data outside mapped
                // memory, so every poke lands.
                let _ = self.mem.poke(addr + i as u16, *w);
            }
        }
    }

    // --- accessors ---------------------------------------------------------

    /// The CPU architectural state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// The memory system.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (test setup, workload verification).
    pub fn memory_mut(&mut self) -> &mut Memory {
        self.memo.end();
        &mut self.mem
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The DFS clock.
    pub fn clock(&self) -> &ClockLadder {
        &self.clock
    }

    /// Mutable clock access (the power-neutral governor's hook).
    pub fn clock_mut(&mut self) -> &mut ClockLadder {
        self.memo.end();
        &mut self.clock
    }

    /// The power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Execution residence.
    pub fn residence(&self) -> ExecutionResidence {
        self.residence
    }

    /// Current power state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// `true` once the program has executed `Halt` (and not been rebooted).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Total cycles executed over the machine's lifetime.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// `run` calls answered by replaying a recorded boot (see [`Mcu::run`]).
    pub fn replayed_calls(&self) -> u64 {
        self.memo.replayed()
    }

    /// Number of power-loss reboots endured.
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// The ADC peripheral.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// The radio peripheral.
    pub fn radio(&self) -> &Radio {
        &self.radio
    }

    /// Instantaneous supply current in the current state.
    pub fn supply_current(&self) -> edc_units::Amps {
        self.power
            .current(self.state, self.clock.frequency(), self.residence)
    }

    /// Instantaneous supply power in the current state.
    pub fn supply_power(&self) -> Watts {
        self.power
            .power(self.state, self.clock.frequency(), self.residence)
    }

    // --- power-state transitions --------------------------------------------

    /// Enters sleep (clock gated, SRAM retained).
    pub fn sleep(&mut self) {
        self.memo.end();
        if self.state == PowerState::Active {
            self.state = PowerState::Sleep;
        }
    }

    /// Wakes from sleep.
    pub fn wake(&mut self) {
        self.memo.end();
        if self.state == PowerState::Sleep {
            self.state = PowerState::Active;
        }
    }

    /// Supply collapse: volatile state (SRAM, registers, peripherals) is
    /// destroyed; FRAM — including any sealed snapshot — survives.
    ///
    /// Under [`ExecutionResidence::Fram`] (the QuickRecall configuration)
    /// the low memory region is itself FRAM, so only registers and
    /// peripherals are lost.
    pub fn power_loss(&mut self) {
        self.memo.end();
        self.state = PowerState::Off;
        if self.residence == ExecutionResidence::Sram {
            self.mem.corrupt_volatile();
        }
        self.cpu = CpuState::reset();
        self.adc.reset();
        self.halted = false;
    }

    /// Cold boot after power returns: PC at entry, clean registers. SRAM
    /// still holds post-outage garbage — programs must initialise what they
    /// use, exactly as on real transient hardware.
    pub fn cold_boot(&mut self) {
        self.cpu = CpuState::reset();
        self.state = PowerState::Active;
        self.halted = false;
        self.reboots += 1;
        self.memo.arm();
    }

    // --- snapshot engine ----------------------------------------------------

    /// Size of a snapshot frame in words: the full SRAM image plus header
    /// for SRAM residence, or just the register header for unified-FRAM
    /// (QuickRecall) machines, where registers are the only volatile state.
    /// Checkpointing peripherals copies their register bank too.
    pub fn snapshot_words(&self) -> u64 {
        let base = match self.residence {
            ExecutionResidence::Sram => (SRAM_WORDS + HEADER_WORDS) as u64,
            ExecutionResidence::Fram => HEADER_WORDS as u64,
        };
        match self.peripheral_policy {
            PeripheralPolicy::Reinit => base,
            // ADC + radio + timer register banks (stored in the header's
            // reserved words; the cost models the peripheral bus reads).
            PeripheralPolicy::Checkpointed => base + 4,
        }
    }

    /// Energy a full snapshot would cost right now — the `E_S` the Hibernus
    /// calibration (Eq. 4) must budget for.
    pub fn snapshot_energy(&self) -> Joules {
        self.power
            .snapshot_cost(
                self.snapshot_words(),
                self.clock.frequency(),
                self.residence,
            )
            .1
    }

    /// Energy a restore costs.
    pub fn restore_energy(&self) -> Joules {
        self.power
            .restore_cost(
                self.snapshot_words(),
                self.clock.frequency(),
                self.residence,
            )
            .1
    }

    /// FRAM-relative offset of frame `i` (0 or 1) in the double-buffered
    /// snapshot area.
    fn frame_offset(i: u8) -> u16 {
        SNAPSHOT_BASE - crate::mem::FRAM_BASE + u16::from(i) * SNAPSHOT_FRAME_WORDS
    }

    /// `(sealed, sequence)` of frame `i`.
    fn frame_state(&self, i: u8) -> (bool, u16) {
        let head = self.mem.fram_slice(Self::frame_offset(i), 2);
        (head[0] == SEAL_VALID, head[1])
    }

    /// The sealed frame with the highest sequence number, if any.
    fn newest_sealed_frame(&self) -> Option<u8> {
        let (s0, q0) = self.frame_state(0);
        let (s1, q1) = self.frame_state(1);
        match (s0, s1) {
            (true, true) => Some(if q0.wrapping_sub(q1) < 0x8000 { 0 } else { 1 }),
            (true, false) => Some(0),
            (false, true) => Some(1),
            (false, false) => None,
        }
    }

    /// Attempts to snapshot all volatile state into the snapshot area.
    ///
    /// Frames are double-buffered (as Mementos does): the write targets the
    /// frame that is *not* the newest sealed one, so a torn attempt never
    /// destroys the last good snapshot.
    ///
    /// With `energy_budget = Some(e)` and `e` below the full cost, the
    /// target frame is left unsealed, the budget is consumed, and
    /// `completed: false` is returned — the "snapshot started but not
    /// completed before the supply was interrupted" failure.
    pub fn take_snapshot(&mut self, energy_budget: Option<Joules>) -> SnapshotOutcome {
        self.memo.end();
        let words = self.snapshot_words();
        let (cycles, full_cost) =
            self.power
                .snapshot_cost(words, self.clock.frequency(), self.residence);

        let newest = self.newest_sealed_frame();
        let target = newest.map_or(0, |f| 1 - f);
        let next_seq = newest.map_or(1, |f| self.frame_state(f).1.wrapping_add(1));
        let offset = Self::frame_offset(target);

        // Invalidate the target first: a torn frame must never look valid.
        self.mem.fram_slice_mut(offset, 1)[0] = 0;

        if let Some(budget) = energy_budget {
            if budget < full_cost {
                let spent = budget.max(Joules::ZERO);
                self.total_cycles += cycles; // the copy loop ran until the lights went out
                return SnapshotOutcome {
                    completed: false,
                    cycles,
                    energy: spent,
                };
            }
        }

        // Header (seal word still zero), then the SRAM image behind it.
        let mut header = [0u16; HEADER_WORDS as usize];
        header[1] = next_seq;
        header[2..18].copy_from_slice(&self.cpu.regs);
        header[18] = self.cpu.pc as u16;
        header[19] = (self.cpu.pc >> 16) as u16;
        header[20] = self.cpu.sp;
        header[21] = (self.cpu.z as u16) | ((self.cpu.n as u16) << 1);
        if self.peripheral_policy == PeripheralPolicy::Checkpointed {
            header[22] = self.adc.index as u16;
            header[23] = (self.adc.index >> 16) as u16;
        }
        self.mem
            .fram_slice_mut(offset, HEADER_WORDS)
            .copy_from_slice(&header);
        let saves_sram = self.residence == ExecutionResidence::Sram;
        if saves_sram {
            self.mem.save_sram(offset + HEADER_WORDS);
        }
        self.mem.fram_slice_mut(offset, 1)[0] = SEAL_VALID; // seal last: commit point

        self.mem
            .add_counts(if saves_sram { SRAM_WORDS as u64 } else { 0 }, 0, 0, words);
        self.total_cycles += cycles;
        SnapshotOutcome {
            completed: true,
            cycles,
            energy: full_cost,
        }
    }

    /// `true` when a sealed snapshot frame exists.
    pub fn has_valid_snapshot(&self) -> bool {
        self.newest_sealed_frame().is_some()
    }

    /// Erases all snapshots (test setup; also what a `Halt`-aware runner
    /// does so a completed program is not resurrected).
    pub fn invalidate_snapshot(&mut self) {
        self.memo.end();
        for i in 0..2 {
            self.mem.fram_slice_mut(Self::frame_offset(i), 1)[0] = 0;
        }
    }

    /// Restores the newest sealed snapshot, if any: SRAM and CPU state come
    /// back, execution resumes where the snapshot was taken.
    pub fn restore_snapshot(&mut self) -> Option<RestoreOutcome> {
        self.memo.end();
        let newest = self.newest_sealed_frame()?;
        let words = self.snapshot_words();
        let (cycles, energy) =
            self.power
                .restore_cost(words, self.clock.frequency(), self.residence);
        let offset = Self::frame_offset(newest);
        let mut header = [0u16; HEADER_WORDS as usize];
        header.copy_from_slice(self.mem.fram_slice(offset, HEADER_WORDS));
        let sequence = header[1];
        self.cpu.regs.copy_from_slice(&header[2..18]);
        self.cpu.pc = header[18] as u32 | ((header[19] as u32) << 16);
        self.cpu.sp = header[20];
        self.cpu.z = header[21] & 1 != 0;
        self.cpu.n = header[21] & 2 != 0;
        if self.peripheral_policy == PeripheralPolicy::Checkpointed {
            self.adc.index = header[22] as u32 | ((header[23] as u32) << 16);
        }
        if self.residence == ExecutionResidence::Sram {
            self.mem.restore_sram(offset + HEADER_WORDS);
            self.mem.add_counts(0, SRAM_WORDS as u64, words, 0);
        } else {
            self.mem.add_counts(0, 0, words, 0);
        }
        self.state = PowerState::Active;
        self.halted = false;
        self.total_cycles += cycles;
        Some(RestoreOutcome {
            cycles,
            energy,
            sequence,
        })
    }

    // --- execution -----------------------------------------------------------

    /// Runs up to `cycle_budget` cycles, optionally yielding at checkpoint
    /// markers. Does nothing (and reports `BudgetExhausted`) when asleep,
    /// off, or already halted — except that a halted machine reports
    /// `Completed`.
    ///
    /// An instruction starts only if the cycles used so far plus its base
    /// cycles fit the budget; its FRAM wait state, if any, may then overshoot
    /// the budget by one cycle. Execution goes a basic block at a time
    /// (blocks end at jumps, branches, calls, returns, markers and `Halt`).
    /// The block invariant: the rest of a block runs with no per-instruction
    /// check only when its worst-case cycles (base cycles plus one wait
    /// state per load or store at a wait-state clock) fit the budget, so
    /// every check it skips would have passed. Near the budget edge the run
    /// takes the longest prefix whose worst case fits, then checks single
    /// instructions. Cycles, instructions, energy and the exit — marker,
    /// fault, halt or budget — are otherwise identical to checking every
    /// instruction.
    ///
    /// # Boot replay
    ///
    /// A machine that boots into the same state again and again (the
    /// restart baseline re-running from `main` after every outage) makes the
    /// same calls at every boot, and `run` answers them from a memo instead
    /// of interpreting them again. The invariant: every call returns the
    /// report the interpreter would, and leaves the machine — CPU state,
    /// memory words, access counts, ADC, radio, totals and `halted` —
    /// exactly as the interpreter would. No state is ever deferred, so every
    /// accessor stays exact.
    ///
    /// - The key of a boot is its image at the first `run` after
    ///   [`Mcu::cold_boot`]: the CPU state, the ADC index and every SRAM
    ///   and FRAM word, compared in full. Each call also keys on its
    ///   `cycle_budget`, `stop_at_markers` and the clock frequency.
    ///   Residence, power model and peripheral policy are fixed once the
    ///   machine is built (the `with_*` builders clear the memo).
    /// - Only the last boot's image is kept. A boot that repeats it records
    ///   its calls (state after each call, accesses, radio words and memory
    ///   writes); a later boot that repeats it replays them while the
    ///   arguments match. At the first mismatch the trace is cut there and
    ///   recording goes on; past its end it grows.
    /// - Any other `&mut self` method ends replay and recording until the
    ///   next `cold_boot`: `memory_mut`, `clock_mut`, `sleep`, `wake`,
    ///   `power_loss`, and taking, restoring or invalidating a snapshot.
    /// - A trace holds at most 4096 calls and 2¹⁸ memory writes; a boot
    ///   that runs past that runs uncached.
    ///
    /// [`Mcu::replayed_calls`] counts the calls answered from the memo.
    pub fn run(&mut self, cycle_budget: u64, stop_at_markers: bool) -> RunReport {
        if self.halted {
            return RunReport {
                cycles: 0,
                instructions: 0,
                energy: Joules::ZERO,
                exit: RunExit::Completed,
            };
        }
        if self.state != PowerState::Active {
            return RunReport {
                cycles: 0,
                instructions: 0,
                energy: Joules::ZERO,
                exit: RunExit::BudgetExhausted,
            };
        }
        self.run_memoized(cycle_budget, stop_at_markers)
    }

    /// The interpreter behind [`Mcu::run`], on an active, unhalted machine.
    fn interpret(&mut self, cycle_budget: u64, stop_at_markers: bool) -> RunReport {
        let f = self.clock.frequency();
        let fram_wait = f > self.power.fram_wait_threshold;
        let wait_per_access = u64::from(fram_wait);
        let code = self.program.insns();
        let blocks = &self.blocks;
        let mut burst = Burst {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            adc: &mut self.adc,
            radio: &mut self.radio,
            adc_energy: self.power.adc_energy_per_sample,
            radio_energy: self.power.radio_energy_per_word,
            fram_wait,
            all_fram: self.residence == ExecutionResidence::Fram,
            cycles: 0,
            peripheral: Joules::ZERO,
        };
        let mut retired = 0u64;

        let mut pc = burst.cpu.pc;
        let exit = 'run: loop {
            let start = pc as usize;
            let Some(&tail) = blocks.get(start) else {
                break RunExit::Fault(MachineError::PcOutOfRange(pc));
            };
            let room = cycle_budget.saturating_sub(burst.cycles);
            let mut n = fitting_prefix(blocks, start, tail, wait_per_access, room);
            if n == 0 {
                // At the budget edge: the exact check of one instruction.
                if code[start].base_cycles() > room {
                    break RunExit::BudgetExhausted;
                }
                n = 1;
            }
            let run = &code[start..start + n];
            for &insn in run {
                match burst.exec(insn, pc) {
                    Ok(next) => pc = next,
                    Err(e) => {
                        // Only a block's last instruction jumps, so `pc`
                        // is `start` plus the instructions retired.
                        let k = pc as usize - start;
                        burst.cycles += prefix_cycles(blocks, start, tail, k);
                        retired += k as u64;
                        break 'run RunExit::Fault(e);
                    }
                }
            }
            burst.cycles += prefix_cycles(blocks, start, tail, n);
            retired += n as u64;
            // Halt and Mark end blocks, so only the last instruction run
            // can be either.
            match run[n - 1] {
                Insn::Halt => break RunExit::Completed,
                Insn::Mark(id) if stop_at_markers => break RunExit::Marker(id),
                _ => {}
            }
        };
        burst.cpu.pc = pc;

        let (used, peripheral) = (burst.cycles, burst.peripheral);
        self.halted = exit == RunExit::Completed;
        self.total_cycles += used;
        self.total_instructions += retired;
        let energy = self.power.execution_energy(used, f, self.residence) + peripheral;
        RunReport {
            cycles: used,
            instructions: retired,
            energy,
            exit,
        }
    }

    /// Cycle budget available in `dt` at the current clock.
    pub fn cycles_in(&self, dt: Seconds) -> u64 {
        (self.clock.frequency().0 * dt.0) as u64
    }

    /// Current core frequency.
    pub fn frequency(&self) -> Hertz {
        self.clock.frequency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{regs::*, ProgramBuilder};

    fn sum_program(n: u16) -> Program {
        ProgramBuilder::new("sum")
            .mov(R0, 0u16)
            .mov(R1, n)
            .label("loop")
            .add(R0, R1)
            .sub(R1, 1u16)
            .brnz("loop")
            .st(R0, Addr::Abs(FRAM_BASE)) // persist the result
            .halt()
            .build()
            .unwrap()
    }

    #[test]
    fn arithmetic_program_computes_sum() {
        let mut mcu = Mcu::new(sum_program(100));
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert_eq!(mcu.cpu().regs[0], 5050);
        assert_eq!(mcu.memory().peek(FRAM_BASE).unwrap(), 5050);
        assert!(r.energy.0 > 0.0);
        assert!(r.cycles > 300);
    }

    #[test]
    fn budget_exhaustion_preserves_progress() {
        let mut mcu = Mcu::new(sum_program(1000));
        let r1 = mcu.run(50, false);
        assert_eq!(r1.exit, RunExit::BudgetExhausted);
        assert!(r1.cycles <= 50);
        let r2 = mcu.run(u64::MAX, false);
        assert_eq!(r2.exit, RunExit::Completed);
        assert_eq!(mcu.cpu().regs[0], 500_500u32 as u16); // wrapping 16-bit
    }

    #[test]
    fn call_ret_and_stack() {
        let p = ProgramBuilder::new("call")
            .mov(R0, 7u16)
            .call("double")
            .st(R0, Addr::Abs(0x0010))
            .halt()
            .label("double")
            .add(R0, R0)
            .ret()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert_eq!(mcu.memory().peek(0x0010).unwrap(), 14);
        assert_eq!(mcu.cpu().sp, SRAM_WORDS); // balanced
    }

    #[test]
    fn push_pop_round_trip() {
        let p = ProgramBuilder::new("stack")
            .mov(R0, 0xAAAAu16)
            .mov(R1, 0x5555u16)
            .push_reg(R0)
            .push_reg(R1)
            .pop_reg(R2)
            .pop_reg(R3)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[2], 0x5555);
        assert_eq!(mcu.cpu().regs[3], 0xAAAA);
    }

    #[test]
    fn stack_underflow_faults() {
        let p = ProgramBuilder::new("uf")
            .pop_reg(R0)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Fault(MachineError::StackUnderflow));
    }

    #[test]
    fn mulq15_is_fixed_point() {
        // 0.5 × 0.5 = 0.25 in Q15: 0x4000 × 0x4000 → 0x2000.
        let p = ProgramBuilder::new("q15")
            .mov(R0, 0x4000u16)
            .mov(R1, 0x4000u16)
            .mulq15(R0, R1)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[0], 0x2000);
        // −0.5 × 0.5 = −0.25: 0xC000 × 0x4000 → 0xE000.
        let p = ProgramBuilder::new("q15neg")
            .mov(R0, 0xC000u16)
            .mov(R1, 0x4000u16)
            .mulq15(R0, R1)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[0] as i16, -0x2000_i16);
    }

    #[test]
    fn signed_branches() {
        // R0 = −5; if R0 < 3 then R1 = 1 else R1 = 2.
        let p = ProgramBuilder::new("signed")
            .mov(R0, (-5i16) as u16)
            .cmp(R0, 3u16)
            .brn("less")
            .mov(R1, 2u16)
            .halt()
            .label("less")
            .mov(R1, 1u16)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[1], 1);
    }

    #[test]
    fn markers_yield_when_requested() {
        let p = ProgramBuilder::new("marks")
            .mark(10)
            .mov(R0, 1u16)
            .mark(20)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        let r = mcu.run(u64::MAX, true);
        assert_eq!(r.exit, RunExit::Marker(10));
        let r = mcu.run(u64::MAX, true);
        assert_eq!(r.exit, RunExit::Marker(20));
        let r = mcu.run(u64::MAX, true);
        assert_eq!(r.exit, RunExit::Completed);
        // Without stopping, markers are transparent.
        let mut mcu2 = Mcu::new(ProgramBuilder::new("m2").mark(1).halt().build().unwrap());
        assert_eq!(mcu2.run(u64::MAX, false).exit, RunExit::Completed);
    }

    #[test]
    fn snapshot_restore_resumes_exactly() {
        let mut mcu = Mcu::new(sum_program(1000));
        mcu.run(200, false);
        let regs_before = mcu.cpu().clone();
        let snap = mcu.take_snapshot(None);
        assert!(snap.completed);
        assert!(mcu.has_valid_snapshot());

        // Catastrophe.
        mcu.power_loss();
        assert_ne!(mcu.cpu(), &regs_before);

        mcu.cold_boot();
        let restore = mcu.restore_snapshot().expect("snapshot is valid");
        assert_eq!(restore.sequence, 1);
        assert_eq!(mcu.cpu(), &regs_before);

        // And the program completes with the right answer.
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert_eq!(mcu.memory().peek(FRAM_BASE).unwrap(), 500_500u32 as u16);
        assert_eq!(mcu.reboots(), 1);
    }

    #[test]
    fn torn_snapshot_without_history_never_restores() {
        let mut mcu = Mcu::new(sum_program(1000));
        mcu.run(200, false);
        let cost = mcu.snapshot_energy();
        let torn = mcu.take_snapshot(Some(cost * 0.5));
        assert!(!torn.completed);
        assert!(!mcu.has_valid_snapshot(), "torn frame must not seal");
        mcu.power_loss();
        mcu.cold_boot();
        assert!(mcu.restore_snapshot().is_none());
    }

    #[test]
    fn double_buffering_preserves_last_good_frame() {
        let mut mcu = Mcu::new(sum_program(1000));
        mcu.run(200, false);
        let good_state = mcu.cpu().clone();
        assert!(mcu.take_snapshot(None).completed);
        // Make more progress, then tear the next snapshot: the earlier frame
        // must survive (Mementos-style double buffering).
        mcu.run(100, false);
        let cost = mcu.snapshot_energy();
        assert!(!mcu.take_snapshot(Some(cost * 0.3)).completed);
        assert!(mcu.has_valid_snapshot(), "old frame survives the tear");
        mcu.power_loss();
        mcu.cold_boot();
        let restore = mcu.restore_snapshot().expect("old frame restores");
        assert_eq!(restore.sequence, 1);
        assert_eq!(mcu.cpu(), &good_state);
    }

    #[test]
    fn restore_picks_newest_sealed_frame() {
        let mut mcu = Mcu::new(sum_program(1000));
        mcu.run(100, false);
        assert!(mcu.take_snapshot(None).completed); // seq 1 → frame 0
        mcu.run(100, false);
        let newer_state = mcu.cpu().clone();
        assert!(mcu.take_snapshot(None).completed); // seq 2 → frame 1
        mcu.power_loss();
        mcu.cold_boot();
        let restore = mcu.restore_snapshot().unwrap();
        assert_eq!(restore.sequence, 2);
        assert_eq!(mcu.cpu(), &newer_state);
    }

    #[test]
    fn restart_without_snapshot_reruns_from_entry() {
        let mut mcu = Mcu::new(sum_program(10));
        mcu.run(30, false);
        mcu.power_loss();
        mcu.cold_boot();
        assert_eq!(mcu.cpu().pc, 0);
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert_eq!(mcu.cpu().regs[0], 55);
    }

    #[test]
    fn power_loss_corrupts_sram_not_fram() {
        let mut mcu = Mcu::new(sum_program(10));
        mcu.memory_mut().poke(0x0020, 0x1234).unwrap();
        mcu.memory_mut().poke(FRAM_BASE + 8, 0x4321).unwrap();
        mcu.power_loss();
        assert_ne!(mcu.memory().peek(0x0020).unwrap(), 0x1234);
        assert_eq!(mcu.memory().peek(FRAM_BASE + 8).unwrap(), 0x4321);
    }

    #[test]
    fn sense_and_tx_cost_peripheral_energy() {
        let p = ProgramBuilder::new("p")
            .sense(R0)
            .tx(R0)
            .halt()
            .build()
            .unwrap();
        let mut mcu = Mcu::new(p);
        let plain_cycles_energy = {
            let m = mcu.power_model();
            m.execution_energy(
                Insn::Sense(R0).base_cycles() + Insn::Tx(R0).base_cycles() + 1,
                mcu.frequency(),
                ExecutionResidence::Sram,
            )
        };
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert!(r.energy > plain_cycles_energy);
        assert_eq!(mcu.radio().words_sent(), 1);
        assert_eq!(mcu.adc().conversions(), 1);
    }

    #[test]
    fn peripheral_checkpointing_preserves_adc_sequence() {
        let p = ProgramBuilder::new("p")
            .sense(R0)
            .sense(R0)
            .mark(0)
            .sense(R0)
            .halt()
            .build()
            .unwrap();
        // Reference: uninterrupted third sample.
        let mut ref_mcu = Mcu::new(p.clone());
        ref_mcu.run(u64::MAX, false);
        let third_uninterrupted = ref_mcu.cpu().regs[0];

        // Checkpointed peripherals: the sequence continues across the outage.
        let mut mcu = Mcu::new(p.clone()).with_peripheral_policy(PeripheralPolicy::Checkpointed);
        let r = mcu.run(u64::MAX, true); // stop at the marker
        assert_eq!(r.exit, RunExit::Marker(0));
        mcu.take_snapshot(None);
        mcu.power_loss();
        mcu.cold_boot();
        mcu.restore_snapshot().unwrap();
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[0], third_uninterrupted);

        // Reinit policy: the sequence restarts, so the value differs.
        let mut mcu = Mcu::new(p).with_peripheral_policy(PeripheralPolicy::Reinit);
        let r = mcu.run(u64::MAX, true);
        assert_eq!(r.exit, RunExit::Marker(0));
        mcu.take_snapshot(None);
        mcu.power_loss();
        mcu.cold_boot();
        mcu.restore_snapshot().unwrap();
        mcu.run(u64::MAX, false);
        assert_ne!(mcu.cpu().regs[0], third_uninterrupted);
    }

    #[test]
    fn peripheral_checkpointing_costs_more() {
        let base = Mcu::new(sum_program(1));
        let cp = Mcu::new(sum_program(1)).with_peripheral_policy(PeripheralPolicy::Checkpointed);
        assert!(cp.snapshot_words() > base.snapshot_words());
        assert!(cp.snapshot_energy() > base.snapshot_energy());
        assert_eq!(cp.peripheral_policy(), PeripheralPolicy::Checkpointed);
    }

    #[test]
    fn adc_resets_on_power_loss() {
        let p = ProgramBuilder::new("p").sense(R0).halt().build().unwrap();
        let mut mcu = Mcu::new(p);
        mcu.run(u64::MAX, false);
        let first = mcu.cpu().regs[0];
        mcu.power_loss();
        mcu.cold_boot();
        mcu.run(u64::MAX, false);
        assert_eq!(mcu.cpu().regs[0], first, "index reset ⇒ same first sample");
    }

    #[test]
    fn sleep_stops_execution() {
        let mut mcu = Mcu::new(sum_program(1000));
        mcu.sleep();
        let r = mcu.run(1000, false);
        assert_eq!(r.cycles, 0);
        assert!(mcu.supply_current() < edc_units::Amps::from_micro(10.0));
        mcu.wake();
        let r = mcu.run(1000, false);
        assert!(r.cycles > 0);
    }

    #[test]
    fn dfs_changes_supply_current_and_budget() {
        let mut mcu = Mcu::new(sum_program(10));
        mcu.clock_mut().set_level(0); // 1 MHz
        let slow = mcu.supply_current();
        let slow_budget = mcu.cycles_in(Seconds(0.001));
        mcu.clock_mut().set_level(5); // 24 MHz
        let fast = mcu.supply_current();
        let fast_budget = mcu.cycles_in(Seconds(0.001));
        assert!(fast.0 > slow.0 * 5.0);
        assert_eq!(slow_budget, 1000);
        assert_eq!(fast_budget, 24_000);
    }

    #[test]
    fn fram_residence_adds_wait_state_cycles() {
        let p = ProgramBuilder::new("ld")
            .ld(R0, Addr::Abs(FRAM_BASE))
            .halt()
            .build()
            .unwrap();
        // At 24 MHz, FRAM loads take an extra cycle.
        let mut fast = Mcu::new(p.clone());
        fast.clock_mut().set_level(5);
        let r_fast = fast.run(u64::MAX, false);
        let mut slow = Mcu::new(p);
        slow.clock_mut().set_level(3); // 8 MHz: no penalty
        let r_slow = slow.run(u64::MAX, false);
        assert_eq!(r_fast.cycles, r_slow.cycles + 1);
    }

    #[test]
    fn pc_out_of_range_faults() {
        let p = ProgramBuilder::new("fall").nop().build().unwrap();
        let mut mcu = Mcu::new(p);
        let r = mcu.run(u64::MAX, false);
        assert!(matches!(
            r.exit,
            RunExit::Fault(MachineError::PcOutOfRange(_))
        ));
    }

    #[test]
    fn halted_machine_reports_completed() {
        let mut mcu = Mcu::new(ProgramBuilder::new("h").halt().build().unwrap());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        let again = mcu.run(u64::MAX, false);
        assert_eq!(again.exit, RunExit::Completed);
        assert_eq!(again.cycles, 0);
    }

    #[test]
    fn fram_resident_machine_is_quickrecall_shaped() {
        // Registers-only snapshots, low region survives power loss.
        let wl = sum_program(1000);
        let mut mcu = Mcu::new(wl).with_residence(ExecutionResidence::Fram);
        assert!(mcu.snapshot_words() < 64, "registers-only frame");
        let sram_cost = Mcu::new(sum_program(1000)).snapshot_energy();
        assert!(
            mcu.snapshot_energy().0 < sram_cost.0 / 10.0,
            "QuickRecall snapshots are far cheaper"
        );
        mcu.run(200, false);
        mcu.memory_mut().poke(0x0020, 0x7777).unwrap();
        let snap = mcu.take_snapshot(None);
        assert!(snap.completed);
        mcu.power_loss();
        // Low region is FRAM here: data survives.
        assert_eq!(mcu.memory().peek(0x0020).unwrap(), 0x7777);
        mcu.cold_boot();
        mcu.restore_snapshot().unwrap();
        let r = mcu.run(u64::MAX, false);
        assert_eq!(r.exit, RunExit::Completed);
        assert_eq!(mcu.memory().peek(FRAM_BASE).unwrap(), 500_500u32 as u16);
    }

    #[test]
    fn fram_residence_draws_more_quiescent_power() {
        let sram = Mcu::new(sum_program(1));
        let fram = Mcu::new(sum_program(1)).with_residence(ExecutionResidence::Fram);
        assert!(fram.supply_current() > sram.supply_current());
    }

    #[test]
    fn snapshot_energy_in_eq4_ballpark() {
        let mcu = Mcu::new(sum_program(1));
        let e = mcu.snapshot_energy();
        // Single-digit µJ at 8 MHz — consistent with the V_H ≈ 2.2–2.3 V the
        // Hibernus papers derive for ~10 µF of capacitance.
        assert!(e.as_micro() > 1.0 && e.as_micro() < 20.0, "E_S = {e}");
    }
}
