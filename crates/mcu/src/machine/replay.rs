//! Boot replay: the exact memo behind [`Mcu::run`].
//!
//! A machine that loses all progress at every outage (the restart baseline)
//! boots again and again into the same state and makes the same `run` calls
//! from it. The memo keeps the image of the last boot: the CPU state, the
//! ADC index and every SRAM and FRAM word. When a boot repeats that image,
//! its calls are recorded; a later boot with the image gets them back call
//! by call while each call's arguments match. A replayed call applies its
//! recorded effect, so the machine's state is exact after every call.

use super::{CpuState, Mcu, RunExit, RunReport};

/// Most calls one boot trace holds.
const MAX_CALLS: usize = 4096;

/// The state a boot starts from, compared word for word.
#[derive(Debug, Clone)]
struct BootImage {
    cpu: CpuState,
    adc_index: u32,
    sram: Vec<u16>,
    fram: Vec<u16>,
}

/// What a recorded call matched on besides the state before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CallKey {
    cycle_budget: u64,
    stop_at_markers: bool,
    /// `Hertz` bits of the clock.
    frequency: u64,
}

/// One recorded `run` call: its key, its report and its effect.
#[derive(Debug, Clone)]
struct Call {
    key: CallKey,
    report: RunReport,
    /// CPU state after the call.
    cpu: CpuState,
    /// ADC index after the call.
    adc_index: u32,
    /// End of the call's writes in [`BootMemo::writes`]; they start where
    /// the previous call's end. Replaying them counts them again.
    writes_end: u32,
    /// SRAM and FRAM reads the call counted.
    reads: [u64; 2],
    /// Words the call transmitted.
    words_sent: u64,
    /// The radio's last word after the call (kept if `words_sent > 0`).
    last_word: u16,
}

/// Where the current boot stands against the trace.
#[derive(Debug, Clone, Copy, Default)]
enum Cursor {
    /// Calls run uncached.
    #[default]
    Off,
    /// Calls run and are appended to the trace.
    Record,
    /// The next call matches against trace entry `k`.
    Replay(usize),
}

/// The boot-trace memo of one machine.
#[derive(Debug, Clone, Default)]
pub(super) struct BootMemo {
    /// `cold_boot` ran and nothing else has touched the machine since: the
    /// next `run` starts a boot.
    armed: bool,
    /// The image of the last boot.
    image: Option<BootImage>,
    /// Calls recorded from `image`, in order.
    calls: Vec<Call>,
    /// The memory writes of `calls`, in order.
    writes: Vec<(u16, u16)>,
    cursor: Cursor,
    /// Calls answered from the trace.
    replayed: u64,
}

impl BootMemo {
    /// The next `run` starts a boot.
    pub(super) fn arm(&mut self) {
        self.armed = true;
        self.cursor = Cursor::Off;
    }

    /// The machine was changed outside `run`: the calls of this boot are
    /// no longer the calls of its image.
    pub(super) fn end(&mut self) {
        self.armed = false;
        self.cursor = Cursor::Off;
    }

    /// Calls answered from a trace.
    pub(super) fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Drops the trace from call `k` on.
    fn truncate(&mut self, k: usize) {
        self.calls.truncate(k);
        self.writes.truncate(self.writes_start(k));
    }

    /// Where call `k`'s writes start: where call `k - 1`'s end.
    fn writes_start(&self, k: usize) -> usize {
        k.checked_sub(1)
            .map_or(0, |j| self.calls[j].writes_end as usize)
    }
}

impl Mcu {
    /// [`Mcu::run`] on an active, unhalted machine, through the memo.
    pub(super) fn run_memoized(&mut self, cycle_budget: u64, stop_at_markers: bool) -> RunReport {
        if std::mem::take(&mut self.memo.armed) {
            self.start_boot();
        }
        let key = CallKey {
            cycle_budget,
            stop_at_markers,
            frequency: self.clock.frequency().0.to_bits(),
        };
        if let Cursor::Replay(k) = self.memo.cursor {
            match self.memo.calls.get(k) {
                Some(call) if call.key == key => return self.replay(k),
                Some(_) => self.memo.truncate(k),
                None => {}
            }
            self.memo.cursor = if k < MAX_CALLS {
                Cursor::Record
            } else {
                Cursor::Off
            };
        }
        match self.memo.cursor {
            Cursor::Record => self.record(key),
            _ => self.interpret(cycle_budget, stop_at_markers),
        }
    }

    /// Compares the machine with the last boot image: a repeat replays the
    /// trace (or starts one), anything else becomes the new image.
    fn start_boot(&mut self) {
        let (sram, fram) = self.mem.words();
        let memo = &mut self.memo;
        let repeats = memo.image.as_ref().is_some_and(|im| {
            im.cpu == self.cpu
                && im.adc_index == self.adc.index
                && im.sram == sram
                && im.fram == fram
        });
        if repeats {
            memo.cursor = if memo.calls.is_empty() {
                Cursor::Record
            } else {
                Cursor::Replay(0)
            };
            return;
        }
        memo.image = Some(BootImage {
            cpu: self.cpu.clone(),
            adc_index: self.adc.index,
            sram: sram.to_vec(),
            fram: fram.to_vec(),
        });
        memo.truncate(0);
        memo.cursor = Cursor::Off;
    }

    /// Runs the interpreter and appends the call to the trace. A call whose
    /// writes overflow the log is not kept, and recording stops.
    fn record(&mut self, key: CallKey) -> RunReport {
        let before = self.mem.counts();
        let words_sent = self.radio.words_sent;
        self.mem.open_log(std::mem::take(&mut self.memo.writes));
        let report = self.interpret(key.cycle_budget, key.stop_at_markers);
        let log = self.mem.close_log();
        let memo = &mut self.memo;
        memo.writes = log.writes;
        if log.overflowed {
            memo.truncate(memo.calls.len());
            memo.cursor = Cursor::Off;
            return report;
        }
        let after = self.mem.counts();
        memo.calls.push(Call {
            key,
            report,
            cpu: self.cpu.clone(),
            adc_index: self.adc.index,
            // The log holds at most `WRITE_LOG_CAP` (2¹⁸) entries.
            writes_end: memo.writes.len() as u32,
            reads: [
                after.sram_reads - before.sram_reads,
                after.fram_reads - before.fram_reads,
            ],
            words_sent: self.radio.words_sent - words_sent,
            last_word: self.radio.last_word,
        });
        if memo.calls.len() == MAX_CALLS {
            memo.cursor = Cursor::Off;
        }
        report
    }

    /// Applies trace entry `k` to the machine and returns its report.
    fn replay(&mut self, k: usize) -> RunReport {
        let memo = &mut self.memo;
        let call = &memo.calls[k];
        let writes = &memo.writes[memo.writes_start(k)..call.writes_end as usize];
        self.mem.replay_writes(writes);
        self.mem.add_counts(call.reads[0], 0, call.reads[1], 0);
        self.cpu.clone_from(&call.cpu);
        self.adc.index = call.adc_index;
        if call.words_sent > 0 {
            self.radio.words_sent += call.words_sent;
            self.radio.last_word = call.last_word;
        }
        self.total_cycles += call.report.cycles;
        self.total_instructions += call.report.instructions;
        self.halted = call.report.exit == RunExit::Completed;
        memo.cursor = Cursor::Replay(k + 1);
        memo.replayed += 1;
        call.report
    }
}

#[cfg(test)]
mod tests {
    use super::super::PeripheralPolicy;
    use super::*;
    use crate::isa::{regs::*, Addr, Insn, Operand, Program, ProgramBuilder, Reg};
    use crate::mem::{Memory, FRAM_BASE};
    use crate::ExecutionResidence;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// The budgets calls draw from: few enough that keys often repeat, and
    /// the largest fits a `Tx` (2000 cycles).
    const BUDGETS: [u64; 6] = [0, 4, 9, 40, 250, 2400];

    fn reg(v: u16) -> Reg {
        Reg::new((v & 15) as u8)
    }

    /// A few SRAM and FRAM words (so stores, loads and pokes meet), an
    /// unmapped word, or a register-indirect address.
    fn addr(a: u16, b: u16) -> Addr {
        match b % 16 {
            0..=6 => Addr::Abs(a % 8),
            7..=12 => Addr::Abs(FRAM_BASE + a % 8),
            13 => Addr::Abs(0x0400 + a % 0x0C00),
            _ => Addr::IndOff(reg(a), (b >> 4) as i16),
        }
    }

    fn operand(a: u16, b: u16) -> Operand {
        if b & 1 == 0 {
            Operand::Reg(reg(a >> 4))
        } else {
            Operand::Imm(a ^ b)
        }
    }

    /// Assembles `raw` into a program whose jumps and calls go anywhere in
    /// it or one past its end (a `PcOutOfRange` fault), so it may loop.
    fn program(raw: &[(u8, u16, u16)]) -> Program {
        let len = raw.len();
        let mut p = ProgramBuilder::new("random");
        for (i, &(op, a, b)) in raw.iter().enumerate() {
            let target = format!("L{}", usize::from(b) % (len + 1));
            let (rd, src) = (reg(a), operand(a, b));
            p = p.label(format!("L{i}"));
            p = match op {
                0..=2 => p.mov(rd, src),
                3..=4 => p.add(rd, src),
                5 => p.sub(rd, src),
                6 => p.xor(rd, src),
                7 => p.mulq15(rd, src),
                8 => p.shl(rd, (b % 16) as u8),
                9..=10 => p.cmp(rd, src),
                11..=14 => p.ld(rd, addr(a, b)),
                15..=18 => p.st(rd, addr(a, b)),
                19 => p.jmp(target),
                20 => p.brz(target),
                21 => p.brnz(target),
                22 => p.brn(target),
                23 => p.call(target),
                24 => p.ret(),
                25 => p.push_reg(rd),
                26 => p.pop_reg(rd),
                27..=28 => p.mark(a),
                29 => p.sense(rd),
                30 => p.tx(rd),
                31 => p.halt(),
                _ => p.nop(),
            };
        }
        p.label(format!("L{len}"))
            .build()
            .expect("random program assembles")
    }

    /// `mcu.run` with the memo bypassed: the interpreter alone.
    fn run_uncached(mcu: &mut Mcu, cycle_budget: u64, stop_at_markers: bool) -> RunReport {
        mcu.memo.end();
        mcu.run(cycle_budget, stop_at_markers)
    }

    /// Everything observable about the two machines agrees.
    fn same(a: &Mcu, b: &Mcu) -> Result<(), TestCaseError> {
        prop_assert_eq!(a.cpu(), b.cpu());
        prop_assert_eq!(a.memory().counts(), b.memory().counts());
        prop_assert!(a.memory().words() == b.memory().words(), "memory differs");
        prop_assert_eq!(a.radio().words_sent(), b.radio().words_sent());
        prop_assert_eq!(a.radio().last_word(), b.radio().last_word());
        prop_assert_eq!(a.adc().conversions(), b.adc().conversions());
        prop_assert_eq!(a.total_cycles(), b.total_cycles());
        prop_assert_eq!(a.total_instructions(), b.total_instructions());
        prop_assert_eq!(a.is_halted(), b.is_halted());
        prop_assert_eq!(a.state(), b.state());
        Ok(())
    }

    /// What a boot does besides its calls.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Event {
        None,
        /// A clock level change before call `at`.
        ClockMid,
        /// A `memory_mut` poke before call `at`.
        PokeMid,
        /// A clock level change before the boot.
        ClockBefore,
        /// A boot without a power loss: SRAM and the ADC index survive.
        Warm,
    }

    /// The calls of one boot: the base sequence repeated, cut short,
    /// extended, or diverging at one call.
    fn boot_calls(base: &[(u8, bool)], mode: u8, at: usize, extra: u16) -> Vec<(u64, bool)> {
        let mut calls: Vec<(u64, bool)> = base
            .iter()
            .map(|&(i, stop)| (BUDGETS[usize::from(i) % BUDGETS.len()], stop))
            .collect();
        let at = at % calls.len();
        match mode % 6 {
            2 => calls.truncate(at),
            3 => {
                let more = calls[..=at].to_vec();
                calls.extend(more);
            }
            4 => {
                let shift = 1 + usize::from(extra) % (BUDGETS.len() - 1);
                let i = BUDGETS.iter().position(|&b| b == calls[at].0).unwrap_or(0);
                calls[at].0 = BUDGETS[(i + shift) % BUDGETS.len()];
            }
            5 => calls[at].1 = !calls[at].1,
            _ => {}
        }
        calls
    }

    /// The first mapped absolute address the program loads from, else
    /// `FRAM_BASE`.
    fn loaded_address(p: &Program) -> u16 {
        p.insns()
            .iter()
            .find_map(|insn| match insn {
                Insn::Ld(_, Addr::Abs(a)) if Memory::region_of(*a).is_ok() => Some(*a),
                _ => None,
            })
            .unwrap_or(FRAM_BASE)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 768, ..ProptestConfig::default() })]

        #[test]
        fn prop_replayed_boots_match_the_interpreter(
            raw in proptest::collection::vec((0u8..36, proptest::num::u16::ANY, proptest::num::u16::ANY), 1..40),
            base in proptest::collection::vec((0u8..6, proptest::bool::ANY), 1..16),
            boots in proptest::collection::vec((0u8..12, 0u8..14, 0u8..32, proptest::num::u16::ANY), 3..14),
            config in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let p = program(&raw);
            let poke_at = loaded_address(&p);
            let residence = if config.0 { ExecutionResidence::Fram } else { ExecutionResidence::Sram };
            let policy = if config.1 { PeripheralPolicy::Checkpointed } else { PeripheralPolicy::Reinit };
            let build = || {
                let mut m = Mcu::new(p.clone()).with_residence(residence).with_peripheral_policy(policy);
                m.clock_mut().set_level(if config.2 { 5 } else { 3 });
                m
            };
            let (mut mcu, mut twin) = (build(), build());
            for &(mode, event, at, extra) in &boots {
                let event = match event {
                    0 => Event::ClockMid,
                    1 => Event::PokeMid,
                    2 => Event::ClockBefore,
                    3 => Event::Warm,
                    _ => Event::None,
                };
                let calls = boot_calls(&base, mode, usize::from(at), extra);
                let level = usize::from(extra) % 6;
                if event != Event::Warm {
                    mcu.power_loss();
                    twin.power_loss();
                }
                if event == Event::ClockBefore {
                    mcu.clock_mut().set_level(level);
                    twin.clock_mut().set_level(level);
                }
                mcu.cold_boot();
                twin.cold_boot();
                let mut ended_at = None;
                for (i, &(budget, stop)) in calls.iter().enumerate() {
                    if i == usize::from(at) % calls.len() {
                        match event {
                            Event::ClockMid => {
                                mcu.clock_mut().set_level(level);
                                twin.clock_mut().set_level(level);
                                ended_at = Some(mcu.replayed_calls());
                            }
                            Event::PokeMid => {
                                mcu.memory_mut().poke(poke_at, extra).unwrap();
                                twin.memory_mut().poke(poke_at, extra).unwrap();
                                ended_at = Some(mcu.replayed_calls());
                            }
                            _ => {}
                        }
                    }
                    let r = mcu.run(budget, stop);
                    let t = run_uncached(&mut twin, budget, stop);
                    prop_assert_eq!(r, t);
                    same(&mcu, &twin)?;
                }
                if let Some(replayed) = ended_at {
                    // `clock_mut` and `memory_mut` end replay for the boot.
                    prop_assert_eq!(mcu.replayed_calls(), replayed);
                }
            }
        }
    }

    /// A sum loop that persists its running total in FRAM on every pass.
    fn persisting_sum() -> Program {
        ProgramBuilder::new("persisting-sum")
            .mov(R0, 0u16)
            .mov(R1, 100u16)
            .label("loop")
            .add(R0, R1)
            .st(R0, Addr::Abs(FRAM_BASE + 1))
            .sense(R2)
            .tx(R2)
            .sub(R1, 1u16)
            .brnz("loop")
            .halt()
            .build()
            .unwrap()
    }

    /// Restart-style boots: the same calls at every boot. The first boot
    /// leaves its total in FRAM, so the second boot's image is new; the
    /// third repeats it and records, and every boot after replays all its
    /// calls. The machine stays exact throughout.
    #[test]
    fn repeated_boots_replay_exactly() {
        let (mut mcu, mut twin) = (Mcu::new(persisting_sum()), Mcu::new(persisting_sum()));
        for boot in 0..6 {
            mcu.power_loss();
            twin.power_loss();
            mcu.cold_boot();
            twin.cold_boot();
            let before = mcu.replayed_calls();
            for _ in 0..20 {
                assert_eq!(mcu.run(2500, false), run_uncached(&mut twin, 2500, false));
                same(&mcu, &twin).unwrap();
            }
            let replayed = mcu.replayed_calls() - before;
            assert_eq!(replayed, if boot < 3 { 0 } else { 20 }, "boot {boot}");
        }
    }

    /// The ADC index is part of a boot's image: boots that differ in it
    /// alone (no power loss between them) replay nothing.
    #[test]
    fn adc_index_keys_the_boot() {
        let sampler = ProgramBuilder::new("sampler")
            .label("loop")
            .sense(R0)
            .tx(R0)
            .jmp("loop")
            .build()
            .unwrap();
        let (mut mcu, mut twin) = (Mcu::new(sampler.clone()), Mcu::new(sampler));
        for _ in 0..4 {
            mcu.cold_boot();
            twin.cold_boot();
            for _ in 0..3 {
                assert_eq!(mcu.run(400, false), run_uncached(&mut twin, 400, false));
                same(&mcu, &twin).unwrap();
            }
        }
        assert_eq!(mcu.replayed_calls(), 0);
    }
}
