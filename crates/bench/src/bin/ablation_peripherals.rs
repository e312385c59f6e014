//! Ablation of the paper's future-work item: peripheral-state
//! checkpointing.
//!
//! "Work to date has primarily focused on computation, and not the plethora
//! of peripherals that are typically present in embedded systems"
//! (Discussion). This harness quantifies both sides: re-initialising
//! peripherals after outages is free but breaks sample-stream continuity;
//! checkpointing them costs a few extra frame words per snapshot and keeps
//! the ADC sequence seamless.
//!
//! Run: `cargo run --release -p edc-bench --bin ablation_peripherals`

use edc_bench::{banner, MainError, TextTable};
use edc_mcu::{Mcu, PeripheralPolicy, RunExit};
use edc_workloads::{SensePipeline, Workload};

/// The 12 window averages a finished run persisted, and their spread.
fn window_averages(mcu: &Mcu) -> Result<(Vec<u16>, f64), MainError> {
    let averages = (0..12)
        .map(|w| mcu.memory().peek(edc_workloads::OUTPUT_BASE + 1 + w))
        .collect::<Result<Vec<u16>, _>>()?;
    // Continuity metric: windows should sweep the ADC sinusoid smoothly.
    // A reinit glitch repeats the waveform start, flattening the spread.
    let (lo, hi) = averages
        .iter()
        .fold((u16::MAX, 0), |(lo, hi), &a| (lo.min(a), hi.max(a)));
    Ok((averages, f64::from(hi) - f64::from(lo)))
}

/// Runs the sensing pipeline with periodic outages under a policy,
/// reporting continuity of the sampled sinusoid.
fn run(policy: PeripheralPolicy) -> Result<(Vec<u16>, f64, f64), MainError> {
    let wl = SensePipeline::new(12, 8);
    let mut mcu = Mcu::new(wl.program()).with_peripheral_policy(policy);
    let mut outages = 0;
    loop {
        let r = mcu.run(2500, false);
        match r.exit {
            RunExit::Completed => break,
            RunExit::BudgetExhausted => {
                mcu.take_snapshot(None);
                mcu.power_loss();
                mcu.cold_boot();
                mcu.restore_snapshot().ok_or("no sealed frame to restore")?;
                outages += 1;
            }
            other => panic!("unexpected exit {other:?}"),
        }
    }
    wl.verify(&mcu)?;
    let (averages, spread) = window_averages(&mcu)?;
    Ok((averages, spread, outages as f64))
}

fn main() -> Result<(), MainError> {
    banner("Peripheral checkpointing ablation (sense pipeline, forced outages)");
    let frame_plain = Mcu::new(SensePipeline::new(1, 2).program()).snapshot_words();
    let frame_cp = Mcu::new(SensePipeline::new(1, 2).program())
        .with_peripheral_policy(PeripheralPolicy::Checkpointed)
        .snapshot_words();
    println!(
        "snapshot frame: {frame_plain} words (reinit) vs {frame_cp} words \
         (checkpointed)\n"
    );

    let (avg_reinit, spread_reinit, outages_r) = run(PeripheralPolicy::Reinit)?;
    let (avg_cp, spread_cp, outages_c) = run(PeripheralPolicy::Checkpointed)?;
    let (avg_ref, spread_ref) = {
        // Uninterrupted reference.
        let wl = SensePipeline::new(12, 8);
        let mut mcu = Mcu::new(wl.program());
        assert_eq!(mcu.run(u64::MAX, false).exit, RunExit::Completed);
        window_averages(&mcu)?
    };

    let mut t = TextTable::new(&["policy", "outages", "window averages (ADC codes)", "spread"]);
    let fmt = |v: &[u16]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    t.row(&[
        "uninterrupted".to_string(),
        "0".to_string(),
        fmt(&avg_ref),
        format!("{spread_ref:.0}"),
    ]);
    t.row(&[
        "reinit".to_string(),
        format!("{outages_r:.0}"),
        fmt(&avg_reinit),
        format!("{spread_reinit:.0}"),
    ]);
    t.row(&[
        "checkpointed".to_string(),
        format!("{outages_c:.0}"),
        fmt(&avg_cp),
        format!("{spread_cp:.0}"),
    ]);
    print!("{}", t.render());

    let matches_ref = avg_cp == avg_ref;
    println!(
        "\ncheckpointed == uninterrupted: {matches_ref} (sample-stream \
         continuity preserved)\nreinit == uninterrupted: {} (the gap the \
         paper's discussion flags)",
        avg_reinit == avg_ref
    );
    Ok(())
}
