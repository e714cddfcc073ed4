//! In-process half of the repository benchmark (`perfbench/run.py` is
//! the other half: it builds this binary, computes the reference,
//! times set-up and reads peak memory from outside).
//!
//! ```text
//! perfbench reference --workload W --seed N
//! perfbench setup     --workload W --seed N
//! perfbench measure   --workload W --seed N --seconds S --expect HEX [--events E]
//! perfbench trace     --workload W --seed N --seconds S --expect HEX [--events E]
//!                     --tolerance F [--spans FILE]
//! ```
//!
//! `measure` runs closed-loop passes, one at a time, within `S` seconds,
//! and prints the end-to-end metrics it can see from inside the process,
//! leaving out the first (warm-up) pass. `trace` first runs untraced passes for half the
//! time, then traced passes for the other half, and prints the
//! per-layer metrics. Each mode prints one JSON line.

mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use spans::Recorder;
use workloads::{Expected, Inputs, PassOutcome, Workload};

/// Passes at the start of a run that warm the process (allocator, caches)
/// and are left out of the untraced time metrics.
const WARM_UP_PASSES: usize = 1;
/// Set-ups a traced run times for `core.setup.ms`.
const TRACED_SETUPS: usize = 5;
/// Passes of the sharded twin a traced fleet run times for
/// `netsim.shard.speedup`.
const TWIN_PASSES: usize = 2;

/// Shard-engine counts, read from a fleet run's sharded twin.
const SHARD_COUNTS: [&str; 4] = [
    "netsim.shard.barriers",
    "netsim.shard.transits",
    "netsim.shard.max_exchange_depth",
    "netsim.shard.exchange_reallocs",
];

/// Span self-time shares the traced run reports, by span name.
const SHARE_LAYERS: [&str; 7] = [
    "core.run_pair",
    "core.run_fleet",
    "core.figures",
    "capture.stream_groups",
    "obs.lineage.analysis",
    "core.free",
    "bench.check",
];

/// Exact layer counts a traced run reports (zero where the workload
/// does not exercise the layer).
const COUNTS: [(&str, &str); 14] = [
    ("netsim.events", "count"),
    ("netsim.link.tx_packets", "count"),
    ("wire.fragmented_datagrams", "count"),
    ("wire.fragments_sent", "count"),
    ("wire.reassembled", "count"),
    ("capture.records", "count"),
    ("players.datagrams", "count"),
    ("obs.lineage.events", "count"),
    ("obs.lineage.dropped", "count"),
    ("obs.series.windows", "count"),
    ("obs.series.memory_bytes", "bytes"),
    ("obs.sessions.memory_bytes", "bytes"),
    ("obs.trace.evicted", "count"),
    ("core.population.heap_bytes_per_session", "bytes"),
];

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    expect: String,
    events: Option<u64>,
    /// Largest share of a traced pass that no span may account for.
    tolerance: Option<f64>,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).map(String::as_str);
    let number = |key: &str| -> Result<Option<f64>, String> {
        get(key)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad --{key} {v:?}")))
            .transpose()
    };
    Ok(Args {
        mode,
        workload: Workload::parse(get("workload").ok_or("missing --workload")?)?,
        seed: get("seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|_| "bad --seed")?,
        seconds: number("seconds")?.unwrap_or(1.0),
        expect: get("expect").unwrap_or_default().to_string(),
        events: number("events")?.map(|e| e as u64),
        tolerance: number("tolerance")?,
        spans: get("spans").map(str::to_string),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let expected = Expected {
        digest: args.expect.clone(),
        events: args.events,
    };
    let line = match args.mode.as_str() {
        "reference" => {
            let (digest, events) = workloads::reference(args.workload, args.seed);
            format!("{{\"digest\":\"{digest}\",\"events\":{events}}}")
        }
        "setup" => {
            let inputs =
                workloads::set_up(&mut Recorder::untraced(), args.workload, args.seed, false);
            std::hint::black_box(inputs);
            "ready".to_string()
        }
        "measure" => measure(&args, &expected),
        "trace" => match args.tolerance {
            Some(tolerance) => trace(&args, tolerance, &expected),
            None => {
                eprintln!("error: trace needs --tolerance");
                std::process::exit(2);
            }
        },
        other => {
            eprintln!("error: unknown mode {other:?}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}")
        .and_then(|()| stdout.flush())
        .expect("stdout is writable");
}

/// Closed-loop passes within `seconds`: a pass does not start when the
/// previous one, repeated, would end past the budget. There are always
/// at least `WARM_UP_PASSES + 1` passes, so at least one is timed.
fn run_passes(
    rec: &mut Recorder,
    args: &Args,
    seconds: f64,
    inputs: &Inputs,
    expected: &Expected,
    first_pass: u32,
) -> Vec<(PassOutcome, u64)> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes: Vec<(PassOutcome, u64)> = Vec::new();
    loop {
        if let Some((_, last_ns)) = passes.last() {
            let next_end = start.elapsed() + Duration::from_nanos(*last_ns);
            if passes.len() > WARM_UP_PASSES && next_end > budget {
                break;
            }
        }
        rec.set_pass(first_pass + passes.len() as u32);
        passes.push(rec.time("bench.pass", |rec| {
            workloads::pass(rec, args.workload, inputs, expected)
        }));
    }
    passes
}

/// The passes the untraced metrics are taken from: all but the warm-up.
/// Warm-up passes are still checked and count as attempted.
fn timed(passes: &[(PassOutcome, u64)]) -> &[(PassOutcome, u64)] {
    &passes[WARM_UP_PASSES.min(passes.len() - 1)..]
}

fn measure(args: &Args, expected: &Expected) -> String {
    let mut rec = Recorder::untraced();
    let inputs = workloads::set_up(&mut rec, args.workload, args.seed, false);
    let passes = run_passes(&mut rec, args, args.seconds, &inputs, expected, 1);
    let measured = timed(&passes);

    let walls: Vec<f64> = measured.iter().map(|(_, ns)| *ns as f64 / 1e9).collect();
    let calls: Vec<f64> = measured
        .iter()
        .flat_map(|(p, _)| p.call_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let rates: Vec<f64> = measured
        .iter()
        .map(|(p, ns)| p.events.or(expected.events).unwrap_or(0) as f64 / (*ns as f64 / 1e9))
        .collect();
    let mut metrics = Metrics::default();
    metrics.put("wall_s", median(&walls), "s");
    metrics.put("call_ms_p50", quantile(&calls, 0.5), "ms");
    metrics.put("call_ms_p90", quantile(&calls, 0.9), "ms");
    metrics.put("events_per_s", median(&rates), "events/s");
    result_line(&passes, &metrics, calls.len())
}

fn trace(args: &Args, tolerance: f64, expected: &Expected) -> String {
    // Untraced half: the baseline for the tracing overhead.
    let mut plain = Recorder::untraced();
    let plain_inputs = workloads::set_up(&mut plain, args.workload, args.seed, false);
    let untraced = run_passes(
        &mut plain,
        args,
        args.seconds / 2.0,
        &plain_inputs,
        expected,
        1,
    );
    drop(plain_inputs);

    let mut rec = Recorder::traced();
    let mut inputs = None;
    for _ in 0..TRACED_SETUPS {
        inputs = Some(workloads::set_up(&mut rec, args.workload, args.seed, true));
    }
    let inputs = inputs.expect("at least one set-up");
    // The fleet's twin on the sharded engine at the same seed supplies
    // the shard metrics, and with the fleet's own passes the speed-up
    // of sharded over sequential.
    let mut twin_loop_ms = Vec::new();
    let mut twin_counts = BTreeMap::new();
    let mut twin_problems = Vec::new();
    if args.workload == Workload::Fleet {
        let twin = workloads::sharded_twin(args.seed);
        for _ in 0..TWIN_PASSES {
            let (p, _) = rec.time("bench.twin", |rec| {
                workloads::pass(rec, Workload::Fleet, &twin, expected)
            });
            twin_loop_ms.push(p.program_ns as f64 / 1e6);
            twin_problems.extend(p.problems.into_iter().map(|e| format!("twin: {e}")));
            twin_counts = p.counts;
        }
    }
    let mut passes = run_passes(
        &mut rec,
        args,
        args.seconds / 2.0,
        &inputs,
        expected,
        1 + untraced.len() as u32,
    );

    passes[0].0.problems.append(&mut twin_problems);
    // Counts repeat exactly across passes, or the pass fails.
    let reference_counts = passes[0].0.counts.clone();
    for (p, _) in passes.iter_mut().skip(1) {
        if p.counts != reference_counts {
            p.problems
                .push("layer counts differ from the first traced pass".into());
        }
    }
    // Every pass's spans must account for its wall time.
    let breakdown = rec.pass_breakdown("bench.pass");
    let mut shares: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((p, _), b) in passes.iter_mut().zip(breakdown.values()) {
        let wall = b.wall_ns as f64;
        let residual = b.unattributed_ns as f64 / wall;
        if residual > tolerance {
            p.problems.push(format!(
                "spans cover {:.2}% of the pass, tolerance {}%",
                100.0 * (1.0 - residual),
                100.0 * tolerance
            ));
        }
        shares
            .entry("bench.unattributed")
            .or_default()
            .push(100.0 * residual);
        for layer in SHARE_LAYERS {
            let ns = b.self_ns.get(layer).copied().unwrap_or(0);
            shares
                .entry(layer)
                .or_default()
                .push(100.0 * ns as f64 / wall);
        }
    }

    let mut metrics = Metrics::default();
    let setups: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core.setup")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    metrics.put("core.setup.ms", median(&setups), "ms");
    let per_pass = |f: &dyn Fn(&PassOutcome) -> f64| -> f64 {
        median(&passes.iter().map(|(p, _)| f(p)).collect::<Vec<_>>())
    };
    let sim_ms = |p: &PassOutcome| p.call_ns.iter().sum::<u64>() as f64 / 1e6;
    let loop_ms = |p: &PassOutcome| p.program_ns as f64 / 1e6;
    metrics.put("core.sim.ms", per_pass(&sim_ms), "ms");
    metrics.put("netsim.loop.ms", per_pass(&loop_ms), "ms");
    metrics.put(
        "core.outside_loop.ms",
        per_pass(&|p| sim_ms(p) - loop_ms(p)),
        "ms",
    );
    metrics.put(
        "netsim.ns_per_event",
        per_pass(&|p| p.program_ns as f64 / p.events.unwrap_or(1).max(1) as f64),
        "ns",
    );
    for (layer, values) in &shares {
        let name = format!("{layer}.share");
        metrics.put(&name, median(values), "%");
    }
    let walls = |ps: &[(PassOutcome, u64)]| {
        median(&ps.iter().map(|(_, ns)| *ns as f64).collect::<Vec<_>>())
    };
    metrics.put(
        "bench.trace.overhead",
        walls(&passes) / walls(timed(&untraced)),
        "ratio",
    );

    let count_in = |counts: &BTreeMap<&str, f64>, key: &str| counts.get(key).copied();
    let count = |key: &str| count_in(&reference_counts, key).unwrap_or(0.0);
    for (name, unit) in COUNTS {
        metrics.put(name, count(name), unit);
    }
    let (fast, slow) = (
        count("netsim.transit_fastpath"),
        count("netsim.transit_slowpath"),
    );
    metrics.put(
        "netsim.transit_slowpath_ratio",
        if fast + slow > 0.0 {
            slow / (fast + slow)
        } else {
            0.0
        },
        "ratio",
    );
    // Shard metrics come from the fleet's sharded twin; workloads
    // without one read 0, 1 and 1.
    let (sequential_ms, sharded_ms) = match args.workload {
        Workload::Fleet => (per_pass(&loop_ms), median(&twin_loop_ms)),
        _ => (1.0, 1.0),
    };
    let sharded = &twin_counts;
    for name in SHARD_COUNTS {
        metrics.put(name, count_in(sharded, name).unwrap_or(0.0), "count");
    }
    metrics.put(
        "netsim.shard.imbalance",
        count_in(sharded, "netsim.shard.imbalance").unwrap_or(1.0),
        "ratio",
    );
    metrics.put("netsim.shard.speedup", sequential_ms / sharded_ms, "ratio");

    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, rec.to_jsonl()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
    }
    let mut all = untraced;
    all.append(&mut passes);
    result_line(&all, &metrics, 0)
}

#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// The mode's JSON line: pass counts, metrics, and the first problems.
fn result_line(passes: &[(PassOutcome, u64)], metrics: &Metrics, calls: usize) -> String {
    let failed = passes
        .iter()
        .filter(|(p, _)| !p.problems.is_empty())
        .count();
    let mut out = format!(
        "{{\"attempted\":{},\"failed\":{failed},\"calls\":{calls},\"metrics\":{{",
        passes.len()
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("},\"pass_s\":[");
    for (i, (_, ns)) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{}", *ns as f64 / 1e9);
    }
    out.push_str("],\"problems\":[");
    let problems = passes.iter().flat_map(|(p, _)| &p.problems).take(5);
    for (i, problem) in problems.enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let escaped = problem.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{sep}\"{escaped}\"");
    }
    out.push_str("]}");
    out
}

/// Linear-interpolated quantile `q` in [0, 1]; 0 for no samples.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
