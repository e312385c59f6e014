//! `EnergySource::sample_batch` must equal per-time `sample`, bit for bit.
//!
//! Every source kind, the `Scaled`, `Gated` and `FieldView` wrappers, and
//! rectified samples are checked on random non-decreasing time slices of
//! 1 to 299 times. Each slice starts just before a boundary where a batch
//! override could go wrong — an hour, a twilight edge, midnight, the gust
//! window, a pulse edge, a trace sample — at a random step from 1 µs to
//! ~30 s, so slices both straddle the boundary and stay on one side of it.
//! Times come either from accumulating `t += dt`, as the transient runner
//! does, or from `k as f64 * dt`, as the bound engine's supply scan does.

use energy_driven::core::catalog::TraceCatalog;
use energy_driven::core::scenarios::{FieldEnvelope, SourceKind};
use energy_driven::harvest::{EnergySource, Gated, Scaled, SourceSample};
use energy_driven::power::{Rectifier, RectifierKind};
use energy_driven::units::Seconds;
use proptest::prelude::*;

const HOUR: f64 = 3600.0;
const DAY: f64 = 86_400.0;

/// Times a slice may straddle: hour and twilight edges of both PV day
/// curves, midnight, the Fig. 1(a) gust window and its field-view shift,
/// edges of the 10 Hz pulse and of the 0.2-1 Hz ones (see [`PULSE_HZ`]),
/// and samples of the registered trace.
const ANCHORS: [f64; 23] = [
    0.0,
    1.0,
    8.0,
    6.5,
    0.05,
    0.1 + 1e-3,
    4.5 * HOUR,
    5.5 * HOUR,
    7.0 * HOUR,
    19.0 * HOUR,
    20.5 * HOUR,
    21.5 * HOUR,
    DAY,
    2.0 * DAY + 6.0 * HOUR,
    3.0 * DAY,
    13.0 * HOUR + 0.5,
    // 0.2 Hz: on for 2.5 s of every 5 s.
    2.5,
    5.0,
    7.5,
    // 0.3 Hz and 0.637 Hz: edges off the binary grid.
    5.0 / 3.0,
    10.0 / 3.0,
    0.5 / 0.637,
    3.0 / 0.637,
];

/// Slow interrupted supplies whose on and off phases span many batches.
const PULSE_HZ: [f64; 4] = [0.2, 0.3, 0.637, 1.0];

/// Every source under test, freshly built (one per call, so the batch and
/// the per-time side never share state).
fn sources(catalog: &TraceCatalog, kinds: &[SourceKind]) -> Vec<Box<dyn EnergySource>> {
    let mut out: Vec<Box<dyn EnergySource>> = kinds.iter().map(|k| k.make_in(catalog)).collect();
    for kind in [SourceKind::Turbine, SourceKind::OutdoorPv { seed: 7 }] {
        out.push(Box::new(Scaled::new(kind.make(), 0.7)));
        out.push(Box::new(Gated::new(
            kind.make(),
            vec![
                (Seconds(0.9), Seconds(1.3)),
                (Seconds(7.9), Seconds(8.2)),
                (Seconds(5.5 * HOUR - 1.0), Seconds(5.5 * HOUR + 2.0)),
                (Seconds(DAY - 0.5), Seconds(DAY + 0.5)),
            ],
        )));
    }
    out
}

fn kinds(catalog: &mut TraceCatalog) -> Vec<SourceKind> {
    let samples = (0..50)
        .map(|i| (f64::from(i) * 2e-3, 4e-3 * (f64::from(i) * 0.4).sin().abs()))
        .collect();
    let id = catalog
        .register("batch-trace", samples)
        .expect("valid trace");
    let mut kinds = SourceKind::ALL.to_vec();
    kinds.extend(PULSE_HZ.map(|hz| SourceKind::Interrupted { hz }));
    for (decimate, looped) in [(1, false), (3, true)] {
        kinds.push(SourceKind::Trace {
            id,
            decimate,
            looped,
        });
    }
    for field in [
        FieldEnvelope::Turbine,
        FieldEnvelope::IndoorPv { seed: 3 },
        FieldEnvelope::Interrupted { hz: 10.0 },
        FieldEnvelope::Interrupted { hz: 0.3 },
        FieldEnvelope::Trace {
            id,
            decimate: 2,
            looped: true,
        },
    ] {
        kinds.push(SourceKind::FieldView {
            field,
            attenuation: 0.6,
            phase_s: 0.37,
        });
    }
    kinds
}

/// A sample's exact bits, so `-0.0` and `0.0` differ.
fn bits(s: SourceSample) -> (u8, u64, u64) {
    match s {
        SourceSample::Thevenin { v_oc, r_s } => (0, v_oc.0.to_bits(), r_s.0.to_bits()),
        SourceSample::Power(p) => (1, p.0.to_bits(), 0),
        SourceSample::Current { i, v_compliance } => (2, i.0.to_bits(), v_compliance.0.to_bits()),
    }
}

/// The sample as it meets the rail behind `rect`.
fn rectified(rect: Rectifier, s: SourceSample) -> SourceSample {
    match s {
        SourceSample::Thevenin { v_oc, r_s } => SourceSample::Thevenin {
            v_oc: rect.rectify(v_oc),
            r_s,
        },
        other => other,
    }
}

/// `len` non-decreasing times at step `dt`, starting `back` steps before
/// `anchor`.
fn times(anchor: f64, back: f64, dt: f64, len: usize, accumulate: bool) -> Vec<Seconds> {
    let start = (anchor - back * dt).max(0.0);
    if accumulate {
        let mut t = Seconds(start);
        (0..len)
            .map(|_| {
                let now = t;
                t += Seconds(dt);
                now
            })
            .collect()
    } else {
        let k0 = (start / dt).floor() as u64;
        (0..len as u64)
            .map(|k| Seconds((k0 + k) as f64 * dt))
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    #[test]
    fn prop_sample_batch_equals_per_time_sample(
        anchor in 0usize..ANCHORS.len(),
        back in 0.0f64..300.0,
        log_dt in -6.0f64..1.5,
        len in 1usize..300,
        accumulate in proptest::bool::ANY,
    ) {
        let mut catalog = TraceCatalog::new();
        let kinds = kinds(&mut catalog);
        let times = times(ANCHORS[anchor], back, 10f64.powf(log_dt), len, accumulate);
        let rects = [
            Rectifier::ideal(RectifierKind::HalfWave),
            Rectifier::ideal(RectifierKind::FullWave),
        ];
        let scalar_side = sources(&catalog, &kinds);
        for (mut batched, mut scalar) in sources(&catalog, &kinds).into_iter().zip(scalar_side) {
            let mut out = vec![SourceSample::OFF; times.len()];
            batched.sample_batch(&times, &mut out);
            for (&t, &b) in times.iter().zip(&out) {
                let s = scalar.sample(t);
                prop_assert_eq!(bits(b), bits(s), "{} at t = {}", scalar.name(), t.0);
                for rect in rects {
                    prop_assert_eq!(bits(rectified(rect, b)), bits(rectified(rect, s)));
                }
            }
        }
    }
}

#[test]
fn a_whole_flat_hour_batches_to_one_repeated_sample() {
    // Night, noon plateau and post-sunset night of the outdoor cell, each
    // one second of 20 µs ticks inside one hour.
    for start in [2.5 * HOUR, 12.5 * HOUR, 22.5 * HOUR] {
        let times = times(start, 0.0, 20e-6, 50_000, true);
        let mut pv = SourceKind::OutdoorPv { seed: 7 }.make();
        let mut out = vec![SourceSample::OFF; times.len()];
        pv.sample_batch(&times, &mut out);
        assert!(out.iter().all(|&s| s == out[0]));
        assert_eq!(bits(out[0]), bits(pv.sample(times[0])));
    }
}
