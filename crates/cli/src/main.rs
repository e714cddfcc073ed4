//! `turbulence` — the workspace's command-line interface.
//!
//! ```text
//! turbulence corpus     [--seed N] [--sets 1,2,5]     full corpus + figure digests
//!                       [--threads N] [--shards N]
//! turbulence pair       --set N --class low|high|vh   one pair run, summarised
//!                       [--seed N] [--pcap FILE] [--loss P] [--telemetry]
//! turbulence obs        --set N [--class C] [--seed N] [--loss P]
//!                       [--metrics] [--trace FILE]    one pair run, telemetry report
//! turbulence figures    [--seed N] [--threads N]      every figure's data rows
//! turbulence bench      [--seed N] [--threads N]      corpus wall-clock benchmark,
//!                       [--quick] [--out FILE]        machine-readable JSON output,
//!                       [--gate] [--baseline FILE]    25% regression gate + perf
//!                       [--trajectory FILE]           trajectory log
//! turbulence flowgen    --set N --class C --player real|wmp
//!                       [--seed N] [--out FILE]       fit, generate, validate, export
//! turbulence friendly   [--kbps N,...] [--seed N]     §VI TCP-friendliness sweep
//! turbulence ping       [--seed N]                    path check against all six sites
//! turbulence check      [--iterations N] [--seed N]   wire-layer fuzz/differential campaign
//!                       [--props a,b] [--replay FILE]
//!                       [--write-failures DIR]
//! turbulence timeline   --set N [--class C] | --corpus
//!                       [--seed N] [--loss P] [--top K] per-packet lifecycle analysis:
//!                       [--perfetto FILE]             slowest packets, stage CDFs,
//!                                                     drop post-mortem, trace export
//! turbulence watch      --set N [--class C] | --corpus
//!                       [--seed N] [--loss P]         per-window tables + sparklines:
//!                       [--window SECS] [--metrics M,M] bandwidth, loss by cause,
//!                       [--jsonl FILE] [--csv FILE]   queue depth, buffer occupancy,
//!                       [--threads N] [--sets 1,2]    reassembly backlog
//! turbulence scale      [--seed N] [--shards N]       replicated-client scale run,
//!                       [--clients N] [--groups N]    sequential vs sharded, with
//!                       [--packets N] [--background N] byte-identity check + speedup;
//!                       [--engine packet|hybrid]      fluid background population
//! turbulence fleet      [--sessions N] [--arrival A]  session population over the
//!                       [--duration-dist D] [--diurnal] scale ring: Poisson/MMPP
//!                       [--groups N] [--background N] arrivals, Pareto lifetimes,
//!                       [--engine E] [--shards N]     heavy-traffic figures
//!                       [--threads N] [--lineage]
//!                       [--rollups] [--progress]
//! turbulence sessions   [fleet options] [--top K]     fleet-scale session QoE:
//!                       [--by loss,rebuffer,...]      per-class CDFs, top-K worst
//!                       [--session ID]                sessions, sampled-lineage
//!                       [--jsonl FILE] [--csv FILE]   drill-down, rollup export
//!                       [--sample-permille N]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use turb_media::{corpus, RateClass};
use turb_netsim::{EngineKind, ShardKind};

mod commands;

fn usage() -> &'static str {
    "turbulence — reproduce 'MediaPlayer vs RealPlayer: A Comparison of Network Turbulence'

USAGE:
    turbulence <command> [options]

COMMANDS:
    corpus      run the full 26-clip corpus and print every figure's digest
    pair        run one clip pair and summarise what both trackers measured
    obs         run one clip pair with telemetry and print the run report
    figures     run the corpus and print the full data rows per figure
    bench       time the corpus sequential vs parallel, write BENCH_corpus.json
    flowgen     fit a Section-IV turbulence model and export an ns-style trace
    friendly    run the §VI TCP-friendliness sweep
    ping        check the simulated paths to all six server sites
    check       run the seeded wire-layer fuzz/differential campaign
    timeline    trace per-packet lifecycles: slowest packets, stage CDFs,
                drop post-mortem, Perfetto export
    watch       per-window time-series view of a pair run or the corpus:
                bandwidth, loss by cause, queue depth, buffer occupancy
    scale       run the replicated-client scale scenario sequentially and
                sharded, assert byte-identity, report the speedup
    fleet       multiplex a session population (Poisson/MMPP arrivals,
                heavy-tailed lifetimes) over the scale ring and print
                the heavy-traffic figures
    sessions    the fleet's session-level QoE view: per-class rollup
                summary and CDFs, top-K worst sessions, sampled-lineage
                drill-down, deterministic JSONL/CSV export
    help        print this text

OPTIONS (per command):
    --seed N            deterministic seed (default 42)
    --sets 1,2,5        corpus: restrict to these data sets
    --set N             pair/obs/flowgen: data set number (1-6)
    --class C           pair/obs/flowgen: low | high | vh (default high)
    --player P          flowgen: real | wmp (default real)
    --pcap FILE         pair: write the client capture as a pcap file
    --loss P            pair/obs: Bernoulli loss (0..=1) on the access link
    --telemetry         pair/corpus: collect and print the telemetry report
    --threads N         corpus/figures/bench/watch: worker threads fanning
                        *whole pair runs* across a pool (default 0 = auto:
                        min(available cores, runs); 1 runs sequentially).
                        Compare --shards, which parallelises
                        inside one simulation; the two compose.
    --shards N          corpus/pair/obs/figures/watch/bench/scale: partition
                        each simulation into N shard domains, one worker
                        thread per domain (default: sequential; results are
                        byte-identical at every N; N may not exceed the
                        scenario's node count)
    --metrics           obs: also print Prometheus-style metrics exposition
    --trace FILE        obs: dump the flight recorder as JSON Lines
    --quick             bench: sets 1-2 only, for CI time budgets
    --gate              bench: fail when sequential time regresses >25%
                        per pair run against the baseline file
    --baseline FILE     bench: baseline JSON the gate compares against
                        (default: the --out path, before overwrite)
    --trajectory FILE   bench: perf-history JSON Lines appended per run
                        (default BENCH_trajectory.jsonl)
    --out FILE          flowgen: trace output path (default stdout)
                        bench: JSON output path (default BENCH_corpus.json)
    --kbps N,N,...      friendly: bottleneck sweep in Kbit/s
    --set N, --class C  timeline: one pair run (or --corpus for all)
    --corpus            timeline: trace every corpus run sequentially
    --top N             timeline: slowest-packet table size (default 10)
    --perfetto FILE     timeline: write the Chrome-trace JSON export
                        (single-run mode only)
    --window SECS       watch: window width in simulated seconds
                        (default 1; fractions allowed)
    --metrics M,M       watch: restrict the view to these metric names
                        (substring match; default: all recorded series)
    --jsonl FILE        watch: export the raw series as JSON Lines
    --csv FILE          watch: export the long-format per-window CSV
    --clients N         scale: client hosts per group (default 256)
    --groups N          scale/fleet: site groups on the ring (default 8)
    --packets N         scale: datagrams each client sends (default 40)
    --sessions N        fleet: population size (default 1000);
                        bench: fleet-phase population (default 100000,
                        or 10000 with --quick)
    --arrival A         fleet: arrival process, poisson:RATE or
                        mmpp:FAST,SLOW,DWELL in sessions/s (default
                        poisson:200)
    --duration-dist D   fleet: session lifetimes, pareto:XM,ALPHA or
                        fixed:SECS (default pareto:2,1.5)
    --diurnal           fleet: thin arrivals by the compressed diurnal
                        load curve (one cycle per 10 simulated minutes)
    --wmp-permille N    fleet: MediaPlayer share per 1000 sessions
                        (default 500; the rest are RealPlayer-like)
    --lineage           fleet/sessions: record full packet lineage for
                        every session (figures are identical either way;
                        overrides the sampler)
    --rollups           fleet/obs: accumulate per-session QoE rollups
                        (≤128 B/session) and print the per-class summary
    --sample-permille N fleet/sessions: sessions per 1000 whose packets
                        get full lineage, hash-selected from the seed
                        (default 10; thread/shard/engine invariant)
    --progress          fleet/sessions/scale/corpus/obs/bench: heartbeat
                        line on stderr every few seconds (sim time,
                        events/s, sessions live/done, RSS, ETA); stderr
                        only — never part of the byte-identity set
    --top K             sessions: worst-session table size (default 10)
    --by TERMS          sessions: badness ranking key — comma-separated
                        loss|rebuffer|startup|goodput, each optionally
                        =weight (default loss,rebuffer,startup)
    --session ID        sessions: print the sampled session's per-packet
                        lineage timeline
    --jsonl FILE        sessions: export every rollup as JSON Lines
    --csv FILE          sessions: export every rollup as CSV
    --engine E          corpus/pair/obs/figures/watch/scale/bench: how
                        background flows are simulated, packet | hybrid
                        (default packet; hybrid lowers them onto the
                        fluid max-min solver — zero events per flow,
                        and with --background 0 results stay
                        byte-identical to the packet engine)
    --background N      corpus/pair/obs/figures/watch/scale/bench:
                        background flows sharing the path (default 0;
                        scale: bulk flows over the backbone ring;
                        fleet: background-class sessions per 1000)
    --iterations N      check: cases per property (default 1000)
    --props a,b         check: restrict to these properties
    --replay FILE       check: re-run one stored .case file instead
    --write-failures D  check: directory for failing-case files
                        (default check-failures)
"
}

/// Flags that stand alone (no value); parsed as `flag=true`.
const BOOLEAN_FLAGS: &[&str] = &[
    "telemetry",
    "quick",
    "corpus",
    "gate",
    "diurnal",
    "lineage",
    "rollups",
    "progress",
];

/// Flags that take a value when one follows but also stand alone:
/// `obs --metrics` prints the full exposition, while
/// `watch --metrics tx,loss` narrows the view to matching series.
const OPTIONAL_VALUE_FLAGS: &[&str] = &["metrics"];

/// Minimal flag parser: `--key value` pairs after the subcommand, plus
/// the bare boolean flags in [`BOOLEAN_FLAGS`].
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if OPTIONAL_VALUE_FLAGS.contains(&key) {
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.insert(key.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn seed_of(flags: &HashMap<String, String>) -> Result<u64, String> {
    match flags.get("seed") {
        None => Ok(42),
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}")),
    }
}

/// `--threads N`, defaulting to `0` = auto: the runner resolves it to
/// `min(available cores, jobs)`, so a 13-run corpus never spawns more
/// workers than it has runs to fill them with.
fn threads_of(flags: &HashMap<String, String>) -> Result<usize, String> {
    match flags.get("threads") {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("bad --threads {s:?}")),
    }
}

/// `--shards N`: partition each simulation into N shard domains with
/// one worker thread per domain. Not to be confused with `--threads`,
/// which fans whole pair runs across a pool: shards parallelise
/// *inside* one simulation, and the two compose. Absent means
/// sequential; `--shards 1` runs the partitioned engine with a single
/// domain, which is useful for overhead measurements.
fn shards_of(flags: &HashMap<String, String>) -> Result<ShardKind, String> {
    match flags.get("shards") {
        None => Ok(ShardKind::Sequential),
        Some(s) => {
            let n: u16 = s.parse().map_err(|_| format!("bad --shards {s:?}"))?;
            if n == 0 {
                return Err("--shards must be at least 1 (omit it to run sequentially)".into());
            }
            Ok(ShardKind::Sharded(n))
        }
    }
}

/// `--engine packet|hybrid`: how background flows are simulated. The
/// all-packet engine is the default; the hybrid engine lowers
/// background flows onto the fluid max-min solver.
fn engine_of(flags: &HashMap<String, String>) -> Result<EngineKind, String> {
    match flags.get("engine") {
        None => Ok(EngineKind::Packet),
        Some(s) => {
            EngineKind::parse(s).ok_or_else(|| format!("unknown engine {s:?} (packet|hybrid)"))
        }
    }
}

/// `--background N`: background flows sharing the foreground's path.
fn background_of(flags: &HashMap<String, String>) -> Result<u32, String> {
    match flags.get("background") {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("bad --background {s:?}")),
    }
}

fn class_of(flags: &HashMap<String, String>) -> Result<RateClass, String> {
    match flags.get("class").map(String::as_str) {
        None | Some("high") => Ok(RateClass::High),
        Some("low") => Ok(RateClass::Low),
        Some("vh") | Some("veryhigh") | Some("very-high") => Ok(RateClass::VeryHigh),
        Some(other) => Err(format!("unknown class {other:?} (low|high|vh)")),
    }
}

fn pair_of(flags: &HashMap<String, String>) -> Result<(u8, turb_media::ClipPair), String> {
    let set: u8 = flags
        .get("set")
        .ok_or("--set is required")?
        .parse()
        .map_err(|_| "bad --set".to_string())?;
    let class = class_of(flags)?;
    let sets = corpus::table1();
    let data_set = sets
        .iter()
        .find(|s| s.id == set)
        .ok_or_else(|| format!("data set {set} does not exist (1-6)"))?;
    let pair = data_set
        .pair(class)
        .ok_or_else(|| format!("set {set} has no {class:?} pair"))?;
    Ok((set, pair.clone()))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        print!("{}", usage());
        return Ok(());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "corpus" => commands::corpus(&flags),
        "pair" => commands::pair(&flags),
        "obs" => commands::obs(&flags),
        "figures" => commands::figures_cmd(&flags),
        "bench" => commands::bench(&flags),
        "flowgen" => commands::flowgen(&flags),
        "friendly" => commands::friendly(&flags),
        "ping" => commands::ping(&flags),
        "check" => commands::check(&flags),
        "timeline" => commands::timeline(&flags),
        "watch" => commands::watch(&flags),
        "scale" => commands::scale(&flags),
        "fleet" => commands::fleet(&flags),
        "sessions" => commands::sessions(&flags),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `turbulence help`")),
    }
}

fn main() -> ExitCode {
    // A panic anywhere below (simulator invariant violation, slice
    // index, poisoned lock) must still leave the shell a nonzero exit
    // code and a readable message, not a raw backtrace dump.
    match std::panic::catch_unwind(run) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown internal error".to_string());
            eprintln!("error: internal failure: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_accepts_key_value_pairs() {
        let args: Vec<String> = ["--seed", "7", "--set", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_flags(&args).unwrap();
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
        assert_eq!(parsed.get("set").map(String::as_str), Some("3"));
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_dangling_flags() {
        let bare: Vec<String> = vec!["seed".into()];
        assert!(parse_flags(&bare).is_err());
        let dangling: Vec<String> = vec!["--seed".into()];
        assert!(parse_flags(&dangling).is_err());
    }

    #[test]
    fn seed_defaults_to_42() {
        assert_eq!(seed_of(&flags(&[])).unwrap(), 42);
        assert_eq!(seed_of(&flags(&[("seed", "9")])).unwrap(), 9);
        assert!(seed_of(&flags(&[("seed", "x")])).is_err());
    }

    #[test]
    fn class_parses_all_spellings() {
        assert_eq!(class_of(&flags(&[])).unwrap(), RateClass::High);
        assert_eq!(
            class_of(&flags(&[("class", "low")])).unwrap(),
            RateClass::Low
        );
        for vh in ["vh", "veryhigh", "very-high"] {
            assert_eq!(
                class_of(&flags(&[("class", vh)])).unwrap(),
                RateClass::VeryHigh
            );
        }
        assert!(class_of(&flags(&[("class", "medium")])).is_err());
    }

    #[test]
    fn pair_of_validates_set_and_class() {
        let (set, pair) = pair_of(&flags(&[("set", "5"), ("class", "low")])).unwrap();
        assert_eq!(set, 5);
        assert_eq!(pair.real.encoded_kbps, 22.0);
        assert!(pair_of(&flags(&[])).is_err(), "--set required");
        assert!(pair_of(&flags(&[("set", "9")])).is_err(), "no set 9");
        assert!(
            pair_of(&flags(&[("set", "1"), ("class", "vh")])).is_err(),
            "set 1 has no very-high pair"
        );
    }

    #[test]
    fn usage_names_every_command() {
        for command in [
            "corpus", "pair", "obs", "figures", "bench", "flowgen", "friendly", "ping", "check",
            "timeline", "watch", "scale", "fleet", "sessions",
        ] {
            assert!(usage().contains(command), "{command} missing from usage");
        }
    }

    #[test]
    fn shards_defaults_to_sequential_and_rejects_zero() {
        assert_eq!(shards_of(&flags(&[])).unwrap(), ShardKind::Sequential);
        assert_eq!(
            shards_of(&flags(&[("shards", "4")])).unwrap(),
            ShardKind::Sharded(4)
        );
        assert_eq!(
            shards_of(&flags(&[("shards", "1")])).unwrap(),
            ShardKind::Sharded(1)
        );
        assert!(shards_of(&flags(&[("shards", "0")])).is_err());
        assert!(shards_of(&flags(&[("shards", "many")])).is_err());
    }

    #[test]
    fn usage_disambiguates_threads_from_shards() {
        // The two parallelism axes must each explain themselves in
        // terms of the other.
        assert!(usage().contains("whole pair runs"));
        assert!(usage().contains("inside one simulation"));
    }

    #[test]
    fn threads_defaults_to_auto_and_accepts_explicit_counts() {
        // 0 = auto; the runner resolves it against the job count so a
        // 13-run corpus on a 4-core host gets 4 workers, not 1.
        assert_eq!(threads_of(&flags(&[])).unwrap(), 0);
        assert_eq!(threads_of(&flags(&[("threads", "0")])).unwrap(), 0);
        assert_eq!(threads_of(&flags(&[("threads", "4")])).unwrap(), 4);
        assert!(threads_of(&flags(&[("threads", "lots")])).is_err());
    }

    #[test]
    fn engine_parses_both_engines_and_defaults_to_packet() {
        assert_eq!(engine_of(&flags(&[])).unwrap(), EngineKind::Packet);
        assert_eq!(
            engine_of(&flags(&[("engine", "packet")])).unwrap(),
            EngineKind::Packet
        );
        assert_eq!(
            engine_of(&flags(&[("engine", "hybrid")])).unwrap(),
            EngineKind::Hybrid
        );
        assert!(engine_of(&flags(&[("engine", "fluid")])).is_err());
    }

    #[test]
    fn background_defaults_to_zero() {
        assert_eq!(background_of(&flags(&[])).unwrap(), 0);
        assert_eq!(
            background_of(&flags(&[("background", "10000")])).unwrap(),
            10_000
        );
        assert!(background_of(&flags(&[("background", "-3")])).is_err());
    }

    #[test]
    fn boolean_flags_need_no_value() {
        let args: Vec<String> = ["--telemetry", "--seed", "7", "--metrics"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_flags(&args).unwrap();
        assert_eq!(parsed.get("telemetry").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn metrics_flag_takes_an_optional_value() {
        // `watch --metrics tx,loss` consumes the list as a value...
        let args: Vec<String> = ["--metrics", "tx,loss", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_flags(&args).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("tx,loss"));
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
        // ...while `obs --metrics --trace t.jsonl` stays a bare switch.
        let args: Vec<String> = ["--metrics", "--trace", "t.jsonl"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let parsed = parse_flags(&args).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("trace").map(String::as_str), Some("t.jsonl"));
    }
}
