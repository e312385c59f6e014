//! The 224-design space `bench_lint`, `bench_bound` and `bench_store`
//! search.

use edc_core::catalog::TraceCatalog;
use edc_core::experiment::ExperimentSpec;
use edc_core::scenarios::{SourceKind, StrategyKind};
use edc_explore::seed::sizing_seeded_decoupling_axis;
use edc_explore::SpecSpace;
use edc_power::sizing::SizingError;
use edc_units::{Joules, Seconds, Volts};
use edc_workloads::WorkloadKind;

/// `bench_trace`'s space, extended along two axes with statically
/// infeasible designs: non-looped trace playback (the 19 ms mains
/// recording ends on a 0 W sample held for the remaining ~4 s → `E004`)
/// and the `endless` workload (→ `E005`). (2 recordings × 2 decimations ×
/// 2 loop modes) × 2 workloads × 7 strategies × 2 capacitances = 224
/// designs, a large fraction of them provably dead weight.
pub fn space(catalog: &TraceCatalog) -> Result<SpecSpace, SizingError> {
    let sources: Vec<SourceKind> = catalog
        .ids()
        .into_iter()
        .flat_map(|id| {
            [1u64, 4].into_iter().flat_map(move |decimate| {
                [true, false]
                    .into_iter()
                    .map(move |looped| SourceKind::Trace {
                        id,
                        decimate,
                        looped,
                    })
            })
        })
        .collect();
    let decoupling = sizing_seeded_decoupling_axis(
        Joules::from_micro(5.0),
        Volts(2.0),
        Volts(3.6),
        0.1,
        8.0,
        2,
    )?;
    let base = ExperimentSpec::new(
        sources[0],
        StrategyKind::Hibernus,
        WorkloadKind::Fourier(256),
    )
    .deadline(Seconds(4.0));
    Ok(SpecSpace::over(base)
        .sources(&sources)
        .workloads(&[WorkloadKind::Fourier(256), WorkloadKind::Endless])
        .strategies(&StrategyKind::ALL)
        .decoupling(&decoupling))
}
