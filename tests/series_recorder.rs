//! The windowed time-series recorder against a naive model.
//!
//! The model keeps every sample in `BTreeMap`s keyed by metric name and
//! component name and builds the dump at the end; the recorder finds a
//! series through its per-component table and a cached window. Fed the
//! same randomly interleaved samples, the two must produce equal
//! `SeriesDump`s: windows on exact boundaries, idle gaps and ring
//! eviction included.

use std::collections::BTreeMap;
use turb_obs::timeseries::{SeriesData, SeriesDump, SeriesKind, TimeSeriesRecorder};
use turb_obs::{Interner, SymbolId};

/// One series in the model: its kind, every window's combined value,
/// and the lifetime total.
struct ModelSeries {
    kind: SeriesKind,
    windows: BTreeMap<u64, u64>,
    total: u64,
}

#[derive(Default)]
struct Model {
    series: BTreeMap<(String, String), ModelSeries>,
}

impl Model {
    fn record(&mut self, kind: SeriesKind, window: u64, metric: &str, comp: &str, value: u64) {
        let s = self
            .series
            .entry((metric.to_string(), comp.to_string()))
            .or_insert(ModelSeries {
                kind,
                windows: BTreeMap::new(),
                total: 0,
            });
        let slot = s.windows.entry(window).or_insert(0);
        match kind {
            SeriesKind::Counter => {
                *slot += value;
                s.total += value;
            }
            SeriesKind::Gauge => {
                *slot = (*slot).max(value);
                s.total = s.total.max(value);
            }
        }
    }

    /// The dense window range from each series' first sample to its
    /// last, keeping only the newest `capacity` windows.
    fn dump(&self, window_ns: u64, capacity: u64) -> SeriesDump {
        let series = self
            .series
            .iter()
            .map(|((metric, component), s)| {
                let first = *s.windows.keys().next().unwrap();
                let last = *s.windows.keys().next_back().unwrap();
                let kept_from = first.max((last + 1).saturating_sub(capacity));
                SeriesData {
                    metric: metric.clone(),
                    component: component.clone(),
                    kind: s.kind,
                    first_window: kept_from,
                    values: (kept_from..=last)
                        .map(|w| s.windows.get(&w).copied().unwrap_or(0))
                        .collect(),
                    evicted: kept_from - first,
                    total: s.total,
                }
            })
            .collect();
        SeriesDump { window_ns, series }
    }
}

/// splitmix64.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Drive a recorder and the model with the same `samples` random
/// samples and compare their dumps.
fn compare(seed: u64, window_ns: u64, capacity: usize, samples: usize) {
    // A metric name that equals a literal by content but not by
    // address must still find the literal's series.
    let leaked: &'static str = String::from("link_tx_bytes_total").leak();
    let counters = ["link_tx_bytes_total", "node_rx_bytes_total", leaked];
    let gauges = ["link_queue_depth_bytes", "player_buffer_ms"];
    let mut interner = Interner::new();
    // Interned out of name order, as a topology does.
    let comps: Vec<(SymbolId, String)> = ["node:z", "link:3", "link:10", "node:a", "player:real"]
        .iter()
        .map(|name| (interner.intern(name), name.to_string()))
        .collect();

    let mut rng = Mix(seed);
    let mut rec = TimeSeriesRecorder::with_capacity(window_ns, capacity);
    let mut model = Model::default();
    let mut now = 0u64;
    for _ in 0..samples {
        now = match rng.below(10) {
            // Exactly on the next window boundary, or just before it.
            0 => (now / window_ns + 1) * window_ns,
            1 => ((now / window_ns + 1) * window_ns - 1).max(now),
            // An idle gap of several windows.
            2 => now + window_ns * (2 + rng.below(8)) + rng.below(window_ns),
            // Same instant, or a small step inside the window.
            3 => now,
            _ => now + rng.below(window_ns / 4),
        };
        let (comp, comp_name) = &comps[rng.below(comps.len() as u64) as usize];
        let value = rng.below(2000);
        let window = now / window_ns;
        if rng.below(3) == 0 {
            let metric = gauges[rng.below(gauges.len() as u64) as usize];
            rec.gauge_max(now, metric, *comp, value);
            model.record(SeriesKind::Gauge, window, metric, comp_name, value);
        } else {
            let metric = counters[rng.below(counters.len() as u64) as usize];
            rec.counter_add(now, metric, *comp, value);
            model.record(SeriesKind::Counter, window, metric, comp_name, value);
        }
    }
    let got = rec.finish(&interner);
    assert_eq!(
        got,
        model.dump(window_ns, capacity as u64),
        "seed {seed}, window {window_ns} ns, capacity {capacity}"
    );
    assert_eq!(rec.series_count(), got.series.len());
}

#[test]
fn recorder_matches_the_model_with_a_large_ring() {
    for seed in 0..4 {
        compare(seed, 1_000_000_000, 4096, 20_000);
    }
}

#[test]
fn recorder_matches_the_model_when_the_ring_evicts() {
    for (seed, capacity) in [(10, 1), (11, 3), (12, 8)] {
        compare(seed, 1_000, capacity, 5_000);
    }
}

#[test]
fn the_ring_actually_evicts_and_gaps_zero_fill() {
    let mut interner = Interner::new();
    let c = interner.intern("link:0");
    let mut rec = TimeSeriesRecorder::with_capacity(10, 3);
    for t in [0, 9, 10, 45, 70] {
        rec.counter_add(t, "n", c, 1);
    }
    let s = rec.finish(&interner).series.remove(0);
    assert_eq!(
        (s.first_window, s.values, s.evicted, s.total),
        (5, vec![0, 0, 1], 5, 5)
    );
}
