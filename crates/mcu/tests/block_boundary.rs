//! Property test for the interpreter's block/single-step boundary.
//!
//! `Mcu::run` executes whole basic blocks when their worst-case cycles fit
//! the budget and single-steps near the budget edge. Splitting a run into
//! budget chunks of any size — one instruction's worth, smaller than one
//! instruction, one block, or many — or yielding at every marker must
//! therefore end in exactly the state a single unlimited run reaches: same
//! registers, memory access counts, cycle and instruction totals,
//! peripheral activity and terminal exit. Every call is also checked
//! against the per-instruction budget rule on its own.
//!
//! The generated programs mix faults mid-block (stores and loads to
//! unmapped addresses, `Pop`/`Ret` on an empty stack), `Mark` sites,
//! `Sense`/`Tx`, and FRAM accesses at 24 MHz. Every jump and call targets
//! a later instruction and there is no `Push`, so `Ret` only returns to a
//! call site and every program terminates.

// Test-only crate: fixture helpers may panic on harness failures
// (allow-unwrap-in-tests only covers `#[test]` fns, not their helpers).
#![allow(clippy::expect_used)]

use edc_mcu::isa::{Addr, Insn, Operand, Program, ProgramBuilder, Reg};
use edc_mcu::{ExecutionResidence, Mcu, RunExit};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The largest `base_cycles()` of any instruction (`Tx`): a budget this
/// large always fits the next instruction.
const MAX_INSN_CYCLES: u64 = 2000;

fn reg(v: u16) -> Reg {
    Reg::new((v & 15) as u8)
}

/// An address that is SRAM, FRAM, unmapped, or register-indirect.
fn addr(a: u16, b: u16) -> Addr {
    match b % 16 {
        0..=6 => Addr::Abs(a % 0x0400),
        7..=12 => Addr::Abs(0x1000 + a % 0x4000),
        13 => Addr::Abs(0x0400 + a % 0x0C00),
        14 => Addr::Abs(0x5000 + a % 0xB000),
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

/// Assembles `raw` into a program. Instruction `i` only jumps forward, at
/// most six instructions ahead and at most one past the end (which faults
/// with `PcOutOfRange`).
fn program(raw: &[(u8, u16, u16)]) -> Program {
    let len = raw.len();
    let mut p = ProgramBuilder::new("random");
    for (i, &(op, a, b)) in raw.iter().enumerate() {
        let target = format!("L{}", i + 1 + usize::from(b) % (len - i).min(6));
        let (rd, src) = (reg(a), operand(a, b));
        p = p.label(format!("L{i}"));
        p = match op {
            0..=2 => p.mov(rd, src),
            3..=4 => p.add(rd, src),
            5 => p.sub(rd, src),
            6 => p.and(rd, src),
            7 => p.xor(rd, src),
            8 => p.mul(rd, src),
            9 => p.mulq15(rd, src),
            10 => p.shl(rd, (b % 16) as u8),
            11 => p.sar(rd, (b % 16) as u8),
            12..=13 => p.cmp(rd, src),
            14..=17 => p.ld(rd, addr(a, b)),
            18..=21 => p.st(rd, addr(a, b)),
            22 => p.jmp(target),
            23 => p.brz(target),
            24 => p.brnz(target),
            25 => p.brn(target),
            26 => p.brge(target),
            27..=28 => p.call(target),
            29 => p.ret(),
            30 => p.pop_reg(rd),
            31..=33 => p.mark(a),
            34 => p.sense(rd),
            35 => p.tx(rd),
            36 => p.halt(),
            _ => p.nop(),
        };
    }
    p.label(format!("L{len}"))
        .build()
        .expect("random program assembles")
}

fn machine(p: Program, fast_clock: bool, fram_resident: bool) -> Mcu {
    let residence = if fram_resident {
        ExecutionResidence::Fram
    } else {
        ExecutionResidence::Sram
    };
    let mut mcu = Mcu::new(p).with_residence(residence);
    mcu.clock_mut().set_level(if fast_clock { 5 } else { 3 });
    mcu
}

/// Everything the drivers must agree on.
fn outcome(mcu: &Mcu, exit: RunExit) -> impl PartialEq + std::fmt::Debug {
    (
        mcu.cpu().clone(),
        mcu.memory().counts(),
        mcu.total_cycles(),
        mcu.total_instructions(),
        mcu.adc().conversions(),
        mcu.radio().words_sent(),
        exit,
    )
}

/// What a driver saw on its way to the terminal exit.
struct Drive {
    exit: RunExit,
    /// `Marker` exits.
    markers: u64,
    /// The most instructions one call retired.
    most_per_call: u64,
}

/// Drives `mcu` to a terminal exit (`Completed` or a fault), taking each
/// call's `(budget, stop_at_markers)` from `next_call`. Every call is
/// checked against the per-instruction budget rule: an instruction starts
/// only when its base cycles fit, so only the last one's wait state may
/// overshoot, and a run stops for the budget only when the next
/// instruction does not fit. A call retires instructions exactly when it
/// moves the pc or stack pointer or halts (all jumps in these programs go
/// forward), so a faulting instruction is never counted or charged.
fn drive(
    mcu: &mut Mcu,
    mut next_call: impl FnMut(&Mcu) -> (u64, bool),
) -> Result<Drive, TestCaseError> {
    let (mut markers, mut most_per_call) = (0, 0);
    loop {
        let (budget, stop_at_markers) = next_call(mcu);
        let before = (mcu.total_cycles(), mcu.total_instructions());
        let at = (mcu.cpu().pc, mcu.cpu().sp);
        let r = mcu.run(budget, stop_at_markers);
        prop_assert_eq!(mcu.total_cycles() - before.0, r.cycles);
        prop_assert_eq!(mcu.total_instructions() - before.1, r.instructions);
        prop_assert!(r.cycles <= budget.saturating_add(1), "{r:?} over {budget}");
        let moved = (mcu.cpu().pc, mcu.cpu().sp) != at || r.exit == RunExit::Completed;
        prop_assert_eq!(r.instructions > 0, moved, "{:?}", r);
        if !moved {
            prop_assert_eq!(r.cycles, 0);
        }
        most_per_call = most_per_call.max(r.instructions);
        match r.exit {
            RunExit::Completed | RunExit::Fault(_) => {
                return Ok(Drive {
                    exit: r.exit,
                    markers,
                    most_per_call,
                })
            }
            RunExit::Marker(id) => {
                prop_assert!(stop_at_markers);
                let mark = mcu.program().fetch(mcu.cpu().pc - 1);
                prop_assert_eq!(mark, Some(Insn::Mark(id)));
                markers += 1;
            }
            RunExit::BudgetExhausted => {
                let next = mcu
                    .program()
                    .fetch(mcu.cpu().pc)
                    .expect("pc outside the program faults");
                prop_assert!(
                    r.cycles + next.base_cycles() > budget,
                    "{r:?} stopped early"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn prop_budget_chunks_match_one_unlimited_run(
        raw in proptest::collection::vec((0u8..40, proptest::num::u16::ANY, proptest::num::u16::ANY), 1..64),
        chunks in proptest::collection::vec((0u64..600, proptest::bool::ANY), 1..24),
        config in (proptest::bool::ANY, proptest::bool::ANY),
    ) {
        let p = program(&raw);
        prop_assert!(p.insns().iter().all(|i| i.base_cycles() <= MAX_INSN_CYCLES));
        let fresh = || machine(p.clone(), config.0, config.1);

        // The reference: one unlimited run.
        let mut whole = fresh();
        let reference = drive(&mut whole, |_| (u64::MAX, false))?;
        let expected = outcome(&whole, reference.exit);

        // Unlimited runs that yield at every marker.
        let mut marked = fresh();
        let at_markers = drive(&mut marked, |_| (u64::MAX, true))?;
        prop_assert_eq!(outcome(&marked, at_markers.exit), expected);

        // One instruction per call: each budget is exactly the next
        // instruction's base cycles, so every call runs at the budget edge.
        let mut stepped = fresh();
        let steps = drive(&mut stepped, |m| {
            let base = m.program().fetch(m.cpu().pc).map_or(1, |i| i.base_cycles());
            (base, true)
        })?;
        prop_assert!(steps.most_per_call <= 1);
        prop_assert_eq!(steps.markers, at_markers.markers);
        prop_assert_eq!(outcome(&stepped, steps.exit), expected);

        // Random chunks, many smaller than one block. A chunk that cannot
        // fit the next instruction makes no progress; the retry after it
        // always fits.
        let mut split = fresh();
        let (mut call, mut progress) = (0, None);
        let chunked = drive(&mut split, |m| {
            let (chunk, stop_at_markers) = chunks[call % chunks.len()];
            call += 1;
            let stalled = progress == Some(m.total_instructions());
            progress = Some(m.total_instructions());
            (if stalled { MAX_INSN_CYCLES } else { chunk }, stop_at_markers)
        })?;
        prop_assert_eq!(outcome(&split, chunked.exit), expected);
    }
}
