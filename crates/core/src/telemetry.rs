//! JSON for a run's [`Telemetry`].
//!
//! The runner feeds its [`Telemetry`] during a run and `SystemReport`
//! carries a clone of it afterwards; this module serialises it with
//! deterministic field order through [`crate::json`].

use edc_telemetry::{
    Event, GaugeSample, Histogram, PhaseChange, Record, StatsSink, Telemetry, TimelineSink,
};

use crate::json::Json;

/// A run's telemetry as a JSON value with deterministic field order.
pub fn telemetry_json(telemetry: &Telemetry) -> Json {
    match telemetry {
        Telemetry::Ring(ring) => Json::obj(vec![
            ("kind", Json::Str("ring".into())),
            ("capacity", Json::Uint(ring.capacity() as u64)),
            ("dropped", Json::Uint(ring.dropped())),
            (
                "events",
                Json::Arr(ring.records().iter().map(record_json).collect()),
            ),
        ]),
        Telemetry::Stats(stats) => stats_json(stats),
        Telemetry::Timeline(tl) => timeline_json(tl),
    }
}

/// One phase transition as JSON.
fn phase_json(p: &PhaseChange) -> Json {
    Json::obj(vec![
        ("t_s", Json::Num(p.t.0)),
        ("phase", Json::Str(p.phase.name().into())),
    ])
}

/// One gauge sample as JSON.
fn gauge_json(g: &GaugeSample) -> Json {
    Json::obj(vec![
        ("t_s", Json::Num(g.t.0)),
        ("stored_j", Json::Num(g.stored.0)),
        ("supply_w", Json::Num(g.supply.0)),
    ])
}

/// A [`TimelineSink`]'s retained streams as JSON — the lossless,
/// deterministic account `edc-obs` maps onto Perfetto tracks.
pub fn timeline_json(tl: &TimelineSink) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("timeline".into())),
        (
            "events",
            Json::Arr(tl.records().iter().map(record_json).collect()),
        ),
        (
            "phases",
            Json::Arr(tl.phases().iter().map(phase_json).collect()),
        ),
        (
            "gauges",
            Json::Arr(tl.gauges().iter().map(gauge_json).collect()),
        ),
    ])
}

/// One event record as JSON (`cost_j` only on snapshot events).
fn record_json(r: &Record) -> Json {
    let mut pairs = vec![
        ("t_s", Json::Num(r.t.0)),
        ("energy_j", Json::Num(r.energy.0)),
        ("event", Json::Str(r.event.name().into())),
    ];
    if let Event::Snapshot { cost, .. } = r.event {
        pairs.push(("cost_j", Json::Num(cost.0)));
    }
    Json::obj(pairs)
}

/// A [`Histogram`]'s summary *plus* its explicit cumulative `le` buckets
/// as JSON — the exposition-style view that resolves the blind spot a
/// fixed summary leaves between p999 and max. Buckets are compact (only
/// populated bounds appear; see [`Histogram::le_buckets`]) and close with
/// a `+Inf` entry whose `le` serialises as the string `"+Inf"`.
fn histogram_json(h: &Histogram) -> Json {
    let s = h.summary();
    Json::obj(vec![
        ("count", Json::Uint(s.count)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("mean", Json::Num(s.mean)),
        ("p50", Json::Num(s.p50)),
        ("p90", Json::Num(s.p90)),
        ("p99", Json::Num(s.p99)),
        ("p999", Json::Num(s.p999)),
        (
            "buckets",
            Json::Arr(
                h.le_buckets()
                    .into_iter()
                    .map(|(le, n)| {
                        Json::obj(vec![
                            ("le", le.map_or_else(|| Json::Str("+Inf".into()), Json::Num)),
                            ("count", Json::Uint(n)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// A [`StatsSink`]'s aggregates as JSON — also used by the sweep engine
/// for grid-level (merged) summaries.
pub fn stats_json(stats: &StatsSink) -> Json {
    let c = stats.counts();
    let b = stats.energy_breakdown();
    Json::obj(vec![
        ("kind", Json::Str("stats".into())),
        ("events", Json::Uint(c.records)),
        (
            "counts",
            Json::obj(vec![
                ("boots", Json::Uint(c.boots)),
                ("brownouts", Json::Uint(c.brownouts)),
                ("power_fails", Json::Uint(c.power_fails)),
                ("snapshots_sealed", Json::Uint(c.snapshots_sealed)),
                ("snapshots_torn", Json::Uint(c.snapshots_torn)),
                ("restores", Json::Uint(c.restores)),
                ("crossings_rising", Json::Uint(c.crossings_rising)),
                ("crossings_falling", Json::Uint(c.crossings_falling)),
                ("completions", Json::Uint(c.completions)),
            ]),
        ),
        ("outage_s", histogram_json(stats.outage_s())),
        (
            "between_brownouts_s",
            histogram_json(stats.between_brownouts_s()),
        ),
        ("snapshot_j", histogram_json(stats.snapshot_j())),
        (
            "energy_breakdown_j",
            Json::obj(vec![
                ("run", Json::Num(b.run_j)),
                ("snapshot", Json::Num(b.snapshot_j)),
                ("restore", Json::Num(b.restore_j)),
                ("idle", Json::Num(b.idle_j)),
                ("total", Json::Num(b.total_j())),
            ]),
        ),
        (
            "completed_at_s",
            Json::option(stats.completed_at(), |t| Json::Num(t.0)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use edc_telemetry::{Phase, RingBuffer};
    use edc_units::{Joules, Seconds, Watts};

    #[test]
    fn ring_report_round_trips_through_json() {
        let mut ring = RingBuffer::with_capacity(4);
        ring.record(Record {
            t: Seconds(0.5),
            energy: Joules(1e-5),
            event: Event::Snapshot {
                sealed: false,
                cost: Joules(4e-6),
            },
        });
        let json = telemetry_json(&Telemetry::Ring(ring)).to_string();
        let parsed = Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.get("kind"), Some(&Json::Str("ring".into())));
        assert_eq!(parsed.get("capacity"), Some(&Json::Uint(4)));
        assert!(json.contains("\"event\":\"snapshot-torn\""));
        assert!(json.contains("\"cost_j\":0.000004"));
    }

    #[test]
    fn stats_report_serialises_every_section() {
        let mut stats = StatsSink::new();
        let feed = [
            (0.0, 0.0, Event::Boot),
            (0.1, 1e-4, Event::Brownout),
            (0.3, 1e-4, Event::Boot),
            (0.4, 2e-4, Event::TaskComplete),
        ];
        for (t, e, event) in feed {
            stats.record(Record {
                t: Seconds(t),
                energy: Joules(e),
                event,
            });
        }
        let json = telemetry_json(&Telemetry::Stats(Box::new(stats))).to_string();
        for key in [
            "counts",
            "outage_s",
            "between_brownouts_s",
            "snapshot_j",
            "energy_breakdown_j",
            "completed_at_s",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            Json::parse(&json).unwrap().to_string(),
            json,
            "parse → emit is byte-identical"
        );
        assert!(
            json.contains("\"p99\":") && json.contains("\"p999\":"),
            "summaries carry the tail percentile"
        );
    }

    #[test]
    fn timeline_report_serialises_all_three_streams() {
        let mut tl = TimelineSink::new();
        tl.phase(Seconds(0.0), Phase::Off);
        tl.gauge(Seconds(0.0), Joules::ZERO, Watts::ZERO);
        tl.record(Record {
            t: Seconds(0.1),
            energy: Joules(1e-6),
            event: Event::Boot,
        });
        tl.phase(Seconds(0.1), Phase::Active);
        let json = telemetry_json(&Telemetry::Timeline(Box::new(tl))).to_string();
        for key in [
            "\"kind\":\"timeline\"",
            "\"events\"",
            "\"phases\"",
            "\"gauges\"",
            "\"phase\":\"off\"",
            "\"stored_j\"",
            "\"supply_w\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(
            Json::parse(&json).unwrap().to_string(),
            json,
            "parse → emit is byte-identical"
        );
    }
}
