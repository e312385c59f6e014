//! The two deterministic synthetic "recordings" the trace-backed search
//! benches share. Offline stand-ins for the paper's published traces
//! (DOI 10.5258/SOTON/404058), generated rather than downloaded, so the
//! artifacts stay reproducible.

use edc_core::catalog::{TraceCatalog, TraceError};

/// A catalog holding both recordings: a rectified mains cycle and a
/// bursty office profile.
pub fn catalog() -> Result<TraceCatalog, TraceError> {
    let mut catalog = TraceCatalog::new();
    // One rectified mains cycle of harvested power, 1 ms sampling.
    let mains: Vec<(f64, f64)> = (0..20)
        .map(|i| {
            let phase = (i as f64 / 20.0) * std::f64::consts::TAU;
            (i as f64 * 1e-3, 8e-3 * phase.sin().max(0.0))
        })
        .collect();
    catalog.register("mains-cycle", mains)?;
    // A bursty office profile: strong bursts with weak troughs, 2 ms
    // sampling — the duty pattern that separates eager from lazy
    // checkpoint strategies.
    let bursty: Vec<(f64, f64)> = (0..16)
        .map(|i| (i as f64 * 2e-3, if i % 4 < 2 { 6e-3 } else { 0.5e-3 }))
        .collect();
    catalog.register("bursty-office", bursty)?;
    Ok(catalog)
}
