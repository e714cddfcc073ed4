//! The three workloads: their set-up, one closed-loop pass each, the
//! checks every pass makes on its output, and the layer counts a
//! traced pass reads from what the program already exposes.

use std::collections::BTreeMap;
use std::hint::black_box;

use turb_netsim::ShardKind;
use turb_wire::media::PlayerId;
use turbulence::{analysis, figures, runner, CorpusResult, FleetRunConfig, PairRunConfig};

use crate::spans::Recorder;

/// Sessions in the `fleet` population.
pub const FLEET_SESSIONS: usize = 100_000;

/// Corpora one `corpus*` pass reproduces. The paths each pair run
/// draws (hop counts, delays) make one corpus's work vary by about
/// ±8 % from seed to seed; a pass over several corpora averages that
/// out of the per-pass time.
pub const CORPORA_PER_PASS: u64 = 4;

/// Base seeds of the corpora one pass reproduces: the workload seed
/// itself first, then seeds derived from it.
pub fn corpus_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..CORPORA_PER_PASS).map(move |j| seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Corpus,
    CorpusObserved,
    Fleet,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "corpus" => Ok(Workload::Corpus),
            "corpus_observed" => Ok(Workload::CorpusObserved),
            "fleet" => Ok(Workload::Fleet),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

/// Worker threads the host offers; the sharded twin of `fleet` runs
/// one domain per thread.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a pass consumes, built during set-up.
pub enum Inputs {
    /// The pair-run configurations of each corpus in a pass.
    Corpus(Vec<Vec<PairRunConfig>>),
    Fleet(FleetRunConfig),
}

fn fleet_config(seed: u64, shards: ShardKind) -> FleetRunConfig {
    let mut config = FleetRunConfig::new(seed);
    config.sessions = FLEET_SESSIONS;
    config.shards = shards;
    config
}

/// Build a workload's inputs. `telemetry` switches on the corpus
/// runs' always-non-perturbing counter harvest (traced runs read their
/// layer counts from it).
pub fn set_up(rec: &mut Recorder, workload: Workload, seed: u64, telemetry: bool) -> Inputs {
    rec.time("core.setup", |_| match workload {
        Workload::Corpus | Workload::CorpusObserved => Inputs::Corpus(
            corpus_seeds(seed)
                .map(|s| {
                    runner::corpus_configs(s)
                        .into_iter()
                        .map(|c| match workload {
                            Workload::CorpusObserved => {
                                c.with_lineage().with_timeseries(0).with_sessions()
                            }
                            _ if telemetry => c.with_telemetry(),
                            _ => c,
                        })
                        .collect()
                })
                .collect(),
        ),
        // `run_fleet` takes no pre-built session table: it generates the
        // population inside the timed call.
        Workload::Fleet => Inputs::Fleet(fleet_config(seed, ShardKind::Sequential)),
    })
    .0
}

/// The `fleet` population at the same seed on the sharded engine, one
/// shard domain per host thread. A traced `fleet` run times it for the
/// shard metrics and the sharded-over-sequential speed-up.
pub fn sharded_twin(seed: u64) -> Inputs {
    Inputs::Fleet(fleet_config(
        seed,
        ShardKind::Sharded(host_threads() as u16),
    ))
}

/// The seed's reference output, computed by a different path than the
/// measured one: the corpora on the parallel pool with telemetry on,
/// the `fleet` population on the sharded engine. Returns the digest
/// and the events one pass processes.
pub fn reference(workload: Workload, seed: u64) -> (String, u64) {
    match workload {
        Workload::Corpus | Workload::CorpusObserved => {
            let mut digests = Vec::new();
            let mut events = 0;
            for s in corpus_seeds(seed) {
                let configs: Vec<PairRunConfig> = runner::corpus_configs(s)
                    .into_iter()
                    .map(PairRunConfig::with_telemetry)
                    .collect();
                let corpus = runner::run_configs_parallel(&configs, host_threads());
                events += corpus
                    .runs
                    .iter()
                    .map(|r| {
                        let t = r.telemetry.as_ref().expect("telemetry was requested");
                        t.report.sim_events_processed
                    })
                    .sum::<u64>();
                digests.push(fnv_hex(figures::full_digest(&corpus).as_bytes()));
            }
            (fnv_hex(digests.join("|").as_bytes()), events)
        }
        Workload::Fleet => {
            let result = turbulence::run_fleet(&fleet_config(seed, ShardKind::Sharded(2)));
            (format!("{:016x}", result.digest), result.events_processed)
        }
    }
}

/// What a pass must reproduce.
pub struct Expected {
    pub digest: String,
    /// Events one pass processes, when known.
    pub events: Option<u64>,
}

/// What one pass measured and found.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Duration of each public simulation call (`run_pair` or
    /// `run_fleet`).
    pub call_ns: Vec<u64>,
    /// Events processed, when the pass could read them (fleet passes
    /// always; corpus passes only with telemetry on).
    pub events: Option<u64>,
    /// The program's own wall timer: the event loop of `run_fleet`,
    /// or the summed pair-run timers of a telemetry corpus pass.
    pub program_ns: u64,
    /// Layer counts read from the program's counters and dumps.
    pub counts: BTreeMap<&'static str, f64>,
    /// Failed checks; empty when the pass is correct.
    pub problems: Vec<String>,
}

/// One closed-loop pass of `workload` over `inputs`.
pub fn pass(
    rec: &mut Recorder,
    workload: Workload,
    inputs: &Inputs,
    expected: &Expected,
) -> PassOutcome {
    match inputs {
        Inputs::Corpus(configs) => {
            corpus_pass(rec, configs, workload == Workload::CorpusObserved, expected)
        }
        Inputs::Fleet(config) => fleet_pass(rec, config, expected),
    }
}

fn corpus_pass(
    rec: &mut Recorder,
    corpora: &[Vec<PairRunConfig>],
    observed: bool,
    expected: &Expected,
) -> PassOutcome {
    let mut out = PassOutcome::default();
    let mut digests = Vec::with_capacity(corpora.len());
    let mut tallied = true;
    for configs in corpora {
        let mut runs = Vec::with_capacity(configs.len());
        for config in configs {
            let (run, ns) = rec.time("core.run_pair", |_| turbulence::run_pair(config));
            out.call_ns.push(ns);
            if observed {
                rec.time("obs.lineage.analysis", |_| lineage_analysis(&run, &mut out));
            } else {
                rec.time("capture.stream_groups", |_| {
                    capture_analysis(&run, &mut out)
                });
            }
            runs.push(run);
        }
        let corpus = CorpusResult { runs, threads: 1 };
        let (digest, _) = rec.time("core.figures", |_| {
            if !observed {
                black_box(figures::fig04_packet_arrivals(&corpus));
                black_box(figures::fig06_pktsize_pdf(&corpus));
                black_box(figures::fig07_pktsize_norm_pdf(&corpus));
                black_box(figures::fig08_interarrival_pdf(&corpus));
                black_box(figures::fig09_interarrival_cdf(&corpus));
                black_box(figures::fig10_bandwidth_timeseries(&corpus));
                black_box(figures::fig12_app_vs_net(&corpus));
                black_box(figures::fig13_framerate_timeseries(&corpus));
                black_box(figures::fig15_framerate_vs_bandwidth(&corpus));
            }
            // Calls fig01, 02, 03, 05, 11 and 14.
            fnv_hex(figures::full_digest(&corpus).as_bytes())
        });
        digests.push(digest);
        rec.time("bench.check", |_| {
            if corpus.runs.iter().all(|r| r.telemetry.is_some()) {
                tally_corpus(&corpus, &mut out);
            } else {
                tallied = false;
            }
        });
        rec.time("core.free", |_| drop(corpus));
    }
    rec.time("bench.check", |_| {
        check_digest(&fnv_hex(digests.join("|").as_bytes()), expected, &mut out);
        if tallied {
            check_events(expected, &mut out);
        }
    });
    out
}

/// The fragment-group view of both players' streams, which every
/// figure over the capture starts from.
fn capture_analysis(run: &turbulence::PairRunResult, out: &mut PassOutcome) {
    for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
        if analysis::stream_groups(run, player).groups().is_empty() {
            out.problems.push(format!(
                "set {} {:?}: no {player:?} datagrams captured",
                run.set_id, run.class
            ));
        }
    }
}

/// What `timeline --corpus` does with each dump: validate it, derive
/// the per-stage latency samples and attribute every drop.
fn lineage_analysis(run: &turbulence::PairRunResult, out: &mut PassOutcome) {
    let Some(dump) = run.telemetry.as_ref().and_then(|t| t.lineage.as_ref()) else {
        out.problems.push(format!(
            "set {} {:?}: no lineage dump",
            run.set_id, run.class
        ));
        return;
    };
    if let Err(e) = dump.validate() {
        out.problems.push(format!(
            "set {} {:?}: invalid lineage: {e}",
            run.set_id, run.class
        ));
    }
    black_box(turb_obs::lineage::stage_samples(dump));
    black_box(turb_obs::lineage::post_mortem(dump));
}

fn fleet_pass(rec: &mut Recorder, config: &FleetRunConfig, expected: &Expected) -> PassOutcome {
    let mut out = PassOutcome::default();
    let (result, ns) = rec.time("core.run_fleet", |_| turbulence::run_fleet(config));
    out.call_ns.push(ns);
    out.program_ns = result.wall_ns;
    out.events = Some(result.events_processed);
    rec.time("bench.check", |_| {
        check_digest(&format!("{:016x}", result.digest), expected, &mut out);
        check_events(expected, &mut out);
        if result.sessions != FLEET_SESSIONS {
            out.problems
                .push(format!("fleet ran {} sessions", result.sessions));
        }
        tally_fleet(&result, &mut out);
    });
    rec.time("core.free", |_| drop(result));
    out
}

fn check_digest(digest: &str, expected: &Expected, out: &mut PassOutcome) {
    if digest != expected.digest {
        out.problems.push(format!(
            "digest {digest} differs from the reference {}",
            expected.digest
        ));
    }
}

fn check_events(expected: &Expected, out: &mut PassOutcome) {
    if let (Some(want), Some(got)) = (expected.events, out.events) {
        if want != got {
            out.problems.push(format!(
                "{got} events processed, the reference processed {want}"
            ));
        }
    }
}

/// Add the layer counts of a telemetry corpus to the pass's.
fn tally_corpus(corpus: &CorpusResult, out: &mut PassOutcome) {
    let counts = &mut out.counts;
    let mut add = |key: &'static str, v: u64| *counts.entry(key).or_insert(0.0) += v as f64;
    let mut events = 0;
    for run in &corpus.runs {
        let t = run.telemetry.as_ref().expect("caller checked telemetry");
        let r = &t.report;
        events += r.sim_events_processed;
        out.program_ns += r.wall_ns;
        add("netsim.events", r.sim_events_processed);
        add("netsim.transit_fastpath", r.transit_fastpath);
        add("netsim.transit_slowpath", r.transit_slowpath);
        add(
            "netsim.link.tx_packets",
            r.links.iter().map(|l| l.tx_packets).sum(),
        );
        add("wire.fragmented_datagrams", r.frag.fragmented_datagrams);
        add("wire.fragments_sent", r.frag.fragments_sent);
        add("wire.reassembled", r.frag.reassembled);
        add("capture.records", run.capture.len() as u64);
        add(
            "players.datagrams",
            (run.real.net_events.len() + run.wmp.net_events.len()) as u64,
        );
        add("obs.trace.evicted", r.trace_dropped);
        if let Some(dump) = &t.lineage {
            add("obs.lineage.events", dump.events.len() as u64);
            add("obs.lineage.dropped", dump.dropped);
        }
        if let Some(series) = &t.series {
            add("obs.series.windows", series.window_count() as u64);
            add("obs.series.memory_bytes", series.memory_bytes() as u64);
        }
        if let Some(sessions) = &t.sessions {
            add(
                "obs.sessions.memory_bytes",
                (sessions.rollups.len() * turb_obs::SESSION_ROLLUP_BYTES) as u64,
            );
        }
    }
    out.events = Some(out.events.unwrap_or(0) + events);
}

/// Sum of a counter over every component in a Prometheus-style text
/// exposition.
fn metric_total(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Layer counts of a fleet pass, from its metrics exposition and shard
/// diagnostics.
fn tally_fleet(result: &turbulence::FleetRunResult, out: &mut PassOutcome) {
    let m = result.metrics.as_str();
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |key: &'static str, v: u64| {
        c.insert(key, v as f64);
    };
    put("netsim.events", result.events_processed);
    put(
        "netsim.transit_fastpath",
        metric_total(m, "sim_transit_fastpath_total"),
    );
    put(
        "netsim.transit_slowpath",
        metric_total(m, "sim_transit_slowpath_total"),
    );
    put(
        "netsim.link.tx_packets",
        metric_total(m, "link_tx_packets_total"),
    );
    put(
        "wire.fragmented_datagrams",
        metric_total(m, "sim_fragmented_datagrams_total"),
    );
    put(
        "wire.fragments_sent",
        metric_total(m, "sim_fragments_sent_total"),
    );
    put(
        "wire.reassembled",
        metric_total(m, "reassembly_reassembled_total"),
    );
    put(
        "core.population.heap_bytes_per_session",
        result.heap_bytes_per_session,
    );
    put("obs.sessions.memory_bytes", result.session_memory_bytes);
    if let Some(diag) = &result.diag {
        put("netsim.shard.barriers", diag.barriers);
        put("netsim.shard.transits", diag.transits);
        put("netsim.shard.max_exchange_depth", diag.max_exchange_depth);
        put("netsim.shard.exchange_reallocs", diag.exchange_reallocs);
        let events: Vec<u64> = diag.per_domain.iter().map(|d| d.events_processed).collect();
        let mean = events.iter().sum::<u64>() as f64 / events.len().max(1) as f64;
        let max = events.iter().copied().max().unwrap_or(0) as f64;
        c.insert(
            "netsim.shard.imbalance",
            if mean > 0.0 { max / mean } else { 1.0 },
        );
    }
    out.counts = c;
}

/// FNV-1a over `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_total_sums_one_counter_over_components() {
        let text = "link_tx_packets_total{component=\"a\"} 3\n\
                    link_tx_packets_total{component=\"b\"} 4\n\
                    link_tx_packets_total_extra{component=\"a\"} 100\n\
                    link_tx_bytes_total{component=\"a\"} 9\n";
        assert_eq!(metric_total(text, "link_tx_packets_total"), 7);
        assert_eq!(metric_total(text, "absent_total"), 0);
    }

    #[test]
    fn fnv_hex_matches_the_reference_vectors() {
        assert_eq!(fnv_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn a_wrong_reference_digest_fails_the_pass() {
        let expected = Expected {
            digest: "0000000000000000".into(),
            events: Some(10),
        };
        let mut out = PassOutcome {
            events: Some(11),
            ..PassOutcome::default()
        };
        check_digest("1ef0240ae46a902a", &expected, &mut out);
        check_events(&expected, &mut out);
        assert_eq!(out.problems.len(), 2, "{:?}", out.problems);
    }
}
