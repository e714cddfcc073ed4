//! Packet-lineage integration tests.
//!
//! The drop post-mortem's load-bearing claim: every wire packet a
//! lossy run lost is attributed to an exact component and cause, and
//! each cause's total reconciles 1:1 with the always-on simulator
//! counter it mirrors — no drop is explained twice, none goes
//! unexplained. The Chrome-trace export must also be a pure function
//! of the seed, so same-seed runs produce byte-identical traces.
//!
//! Two oracles keep the fast paths honest. The per-span analyses
//! (validate, outcome counts, stage samples) are recomputed the plain
//! way, one `Vec` per span, and compared with the span view on real
//! dumps; `merge_domains` is compared with a copy-everything-and-sort
//! canonicaliser on synthetic recordings with late events.

use turb_media::{corpus, RateClass};
use turb_obs::lineage::{
    self, DropCause, LineageDump, LineageEvent, SpanOutcome, Stage, StageSamples,
};
use turb_obs::{
    Interner, LineageRecorder, SpanOrigin, SymbolId, SPAN_DOMAIN_SHIFT, SPAN_LOCAL_MASK,
};
use turbulence::{run_pair, PairRunConfig};

/// Set 2's short pair with 5% Bernoulli loss on the access link.
fn lossy_config(seed: u64) -> PairRunConfig {
    let sets = corpus::table1();
    let mut config =
        PairRunConfig::new(seed, 2, sets[1].pair(RateClass::Low).unwrap().clone()).with_lineage();
    config.access_loss = 0.05;
    config
}

#[test]
fn post_mortem_accounts_for_every_dropped_packet() {
    let result = run_pair(&lossy_config(4040));
    let telemetry = result.telemetry.as_ref().unwrap();
    let dump = telemetry.lineage.as_ref().unwrap();
    assert_eq!(dump.dropped, 0, "short run must fit the recorder cap");
    dump.validate().unwrap();

    let pm = lineage::post_mortem(dump);
    assert!(pm.total() > 0, "5% access loss must drop some packets");
    for cause in DropCause::ALL {
        assert_eq!(
            pm.cause_total(cause),
            telemetry.metrics.counter_total(cause.counter()),
            "cause {} must reconcile with {}",
            cause.label(),
            cause.counter(),
        );
    }

    // The independent observer agrees: lineage recorded one Sniffed
    // event per packet the client-side capture holds.
    let sniffed = dump
        .events
        .iter()
        .filter(|e| e.stage == Stage::Sniffed)
        .count() as u64;
    assert_eq!(sniffed, telemetry.report.capture_records);

    // Every span terminates in exactly one outcome, and the loss
    // actually doomed some spans.
    let (played, completed, dropped, truncated) = dump.outcome_counts();
    assert_eq!(
        played + completed + dropped + truncated,
        dump.origins.len() as u64
    );
    assert!(dropped > 0);
    assert!(played > 0, "most media still reaches the playout clock");
}

#[test]
fn chrome_trace_export_is_deterministic_and_wellformed() {
    let a = run_pair(&lossy_config(808));
    let b = run_pair(&lossy_config(808));
    let ta = a.telemetry.unwrap().lineage.unwrap();
    let tb = b.telemetry.unwrap().lineage.unwrap();

    let ja = lineage::to_chrome_trace(&ta);
    let jb = lineage::to_chrome_trace(&tb);
    assert_eq!(ja, jb, "same seed must export byte-identical traces");

    assert!(ja.starts_with("{\"displayTimeUnit\""));
    assert!(ja.trim_end().ends_with("]}"));
    assert!(ja.contains("\"ph\":\"X\""), "complete events present");
    assert!(ja.contains("\"ph\":\"i\""), "terminal instants present");
    assert!(ja.contains("dropped:"), "lossy run labels its drops");
}

// ---------------------------------------------------------------------
// Analysis oracle: every per-span analysis as it was computed before
// the span view — one `Vec` per span, every event copied — compared
// with the view on real dumps.

fn oracle_timelines(dump: &LineageDump) -> Vec<Vec<LineageEvent>> {
    let mut per_span = vec![Vec::new(); dump.origins.len()];
    for ev in &dump.events {
        if let Some(bucket) = per_span.get_mut(ev.span as usize) {
            bucket.push(*ev);
        }
    }
    per_span
}

fn oracle_outcome(events: &[LineageEvent]) -> SpanOutcome {
    let mut first_fatal = None;
    for ev in events {
        match ev.stage {
            Stage::Played => return SpanOutcome::Played,
            Stage::Dropped(c) if c.fatal() && first_fatal.is_none() => first_fatal = Some(c),
            _ => {}
        }
    }
    if events.iter().any(|e| e.stage == Stage::Delivered) {
        return SpanOutcome::Completed;
    }
    first_fatal.map_or(SpanOutcome::Truncated, SpanOutcome::Dropped)
}

fn oracle_outcome_counts(dump: &LineageDump) -> (u64, u64, u64, u64) {
    let mut n = (0, 0, 0, 0);
    for events in oracle_timelines(dump) {
        match oracle_outcome(&events) {
            SpanOutcome::Played => n.0 += 1,
            SpanOutcome::Completed => n.1 += 1,
            SpanOutcome::Dropped(_) => n.2 += 1,
            SpanOutcome::Truncated => n.3 += 1,
        }
    }
    n
}

fn oracle_validate(dump: &LineageDump) -> Result<(), String> {
    for ev in &dump.events {
        if ev.span as usize >= dump.origins.len() {
            return Err(format!("event references unknown span {}", ev.span));
        }
        if ev.comp.index() >= dump.components.len() {
            return Err(format!("event references unknown component {}", ev.comp.0));
        }
    }
    for origin in &dump.origins {
        if origin.comp.index() >= dump.components.len() {
            return Err(format!(
                "origin references unknown component {}",
                origin.comp.0
            ));
        }
    }
    for (span, events) in oracle_timelines(dump).iter().enumerate() {
        let mut prev = dump.origins[span].time_ns;
        let (mut buffered, mut played) = (0u64, 0u64);
        for ev in events {
            if ev.time_ns < prev {
                return Err(format!(
                    "span {span} time went backwards at {:?}: {} < {prev}",
                    ev.stage, ev.time_ns
                ));
            }
            prev = ev.time_ns;
            buffered += u64::from(ev.stage == Stage::Buffered);
            played += u64::from(ev.stage == Stage::Played);
        }
        if buffered > 1 || played > 1 {
            return Err(format!(
                "span {span} buffered {buffered}x / played {played}x (at most once each)"
            ));
        }
        if played > buffered {
            return Err(format!("span {span} played without buffering"));
        }
        let first = events.first().map(|e| e.stage);
        if first != Some(Stage::Sent) {
            return Err(format!(
                "span {span} does not begin with Sent (first: {first:?})"
            ));
        }
    }
    Ok(())
}

fn oracle_stage_samples(dump: &LineageDump) -> StageSamples {
    let mut s = StageSamples::default();
    for (span, events) in oracle_timelines(dump).iter().enumerate() {
        let mut pending: Vec<(u32, Vec<u64>)> = Vec::new();
        let (mut fragged, mut buffered) = (None, None);
        for ev in events {
            match ev.stage {
                Stage::LinkTx => match pending.iter_mut().find(|(off, _)| *off == ev.aux) {
                    Some((_, q)) => q.push(ev.time_ns),
                    None => pending.push((ev.aux, vec![ev.time_ns])),
                },
                Stage::Arrived => {
                    if let Some((_, q)) = pending.iter_mut().find(|(off, _)| *off == ev.aux) {
                        if !q.is_empty() {
                            s.hop_ns.push((ev.time_ns - q.remove(0)) as f64);
                        }
                    }
                }
                Stage::Fragmented => _ = *fragged.get_or_insert(ev.time_ns),
                Stage::Reassembled => s
                    .reasm_ns
                    .extend(fragged.map(|t0| (ev.time_ns - t0) as f64)),
                Stage::Buffered => _ = *buffered.get_or_insert(ev.time_ns),
                Stage::Played => s
                    .residency_ns
                    .extend(buffered.map(|t0| (ev.time_ns - t0) as f64)),
                _ => {}
            }
        }
        let delivered = events.iter().find(|e| e.stage == Stage::Delivered);
        if let Some(end) = buffered.or(delivered.map(|e| e.time_ns)) {
            s.e2e_ns.push((end - dump.origins[span].time_ns) as f64);
        }
    }
    s
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The span view answers exactly as the oracle does on `dump`.
fn assert_view_matches_oracle(dump: &LineageDump, what: &str) {
    let view = dump.span_view();
    assert_eq!(view.validate(), oracle_validate(dump), "{what}: validate");
    assert_eq!(dump.validate(), oracle_validate(dump), "{what}: validate");
    assert_eq!(
        view.outcome_counts(),
        oracle_outcome_counts(dump),
        "{what}: outcomes"
    );
    let (got, want) = (view.stage_samples(), oracle_stage_samples(dump));
    assert_eq!(bits(&got.hop_ns), bits(&want.hop_ns), "{what}: hops");
    assert_eq!(
        bits(&got.reasm_ns),
        bits(&want.reasm_ns),
        "{what}: reassembly"
    );
    assert_eq!(
        bits(&got.residency_ns),
        bits(&want.residency_ns),
        "{what}: residency"
    );
    assert_eq!(bits(&got.e2e_ns), bits(&want.e2e_ns), "{what}: e2e");
    let free = lineage::stage_samples(dump);
    assert_eq!(
        bits(&free.hop_ns),
        bits(&want.hop_ns),
        "{what}: free stage_samples"
    );
    for (tl, events) in view.spans().zip(oracle_timelines(dump)) {
        assert!(
            tl.events().copied().eq(events.iter().copied()),
            "{what}: span {}",
            tl.span
        );
        assert_eq!(
            tl.outcome(),
            oracle_outcome(&events),
            "{what}: span {}",
            tl.span
        );
    }
}

fn run_dump(config: PairRunConfig) -> LineageDump {
    run_pair(&config.with_lineage())
        .telemetry
        .and_then(|t| t.lineage)
        .expect("lineage was requested")
}

#[test]
fn span_view_matches_the_oracle_on_a_whole_corpus() {
    for config in turbulence::runner::corpus_configs(7) {
        let what = format!("seed 7 set {} {:?}", config.set_id, config.pair.class());
        let dump = run_dump(config);
        assert!(!dump.origins.is_empty(), "{what}: spans recorded");
        assert_view_matches_oracle(&dump, &what);
        assert!(dump.validate().is_ok(), "{what}");
    }
}

#[test]
fn span_view_matches_the_oracle_under_loss_and_sharding() {
    // Set 5's high pair fragments, so 3 % access loss leaves holes
    // that time out in reassembly.
    let sets = corpus::table1();
    let pair = sets[4].pair(RateClass::High).unwrap().clone();
    let mut lossy = PairRunConfig::new(42, 5, pair.clone());
    lossy.access_loss = 0.03;
    let dump = run_dump(lossy);
    let (_, _, dropped, _) = dump.outcome_counts();
    assert!(dropped > 0, "3 % access loss dooms some spans");
    let pm = lineage::post_mortem(&dump);
    assert!(
        pm.cause_total(DropCause::ReasmTimeout) > 0,
        "holes time out"
    );
    assert!(dump.events.iter().any(|e| e.stage == Stage::ReasmHeld));
    assert_view_matches_oracle(&dump, "3 % access loss");

    let sharded = run_dump(PairRunConfig::new(42, 5, pair).with_shards(4));
    assert_eq!(
        sharded.events.capacity(),
        sharded.events.len(),
        "a merged dump is built at exact capacity"
    );
    assert_view_matches_oracle(&sharded, "Sharded(4)");
}

#[test]
fn span_view_rejects_bad_dumps_as_the_oracle_does() {
    let origin = |time_ns| SpanOrigin {
        time_ns,
        comp: SymbolId(0),
        meta: None,
    };
    let ev = |span, time_ns, comp, stage| LineageEvent {
        span,
        time_ns,
        comp: SymbolId(comp),
        stage,
        aux: 0,
    };
    let dump = |origins, events| LineageDump {
        origins,
        events,
        components: vec!["node:a".to_string()],
        dropped: 0,
    };
    let cases = [
        (
            "time regression",
            dump(
                vec![origin(10)],
                vec![ev(0, 10, 0, Stage::Sent), ev(0, 5, 0, Stage::Delivered)],
            ),
            "backwards",
        ),
        (
            "missing Sent",
            dump(vec![origin(0)], vec![ev(0, 1, 0, Stage::Delivered)]),
            "does not begin with Sent",
        ),
        (
            "played before buffered",
            dump(
                vec![origin(0)],
                vec![ev(0, 0, 0, Stage::Sent), ev(0, 1, 0, Stage::Played)],
            ),
            "played without buffering",
        ),
        (
            "unknown span",
            dump(
                vec![origin(0)],
                vec![ev(0, 0, 0, Stage::Sent), ev(3, 1, 0, Stage::LinkTx)],
            ),
            "unknown span 3",
        ),
        (
            "unknown component",
            dump(vec![origin(0)], vec![ev(0, 0, 4, Stage::Sent)]),
            "unknown component 4",
        ),
    ];
    for (what, dump, message) in cases {
        let verdict = dump.validate();
        assert!(
            verdict.as_ref().unwrap_err().contains(message),
            "{what}: {verdict:?}"
        );
        // Stage samples are only defined on valid dumps (a regressed
        // time has no latency), so the oracle compares the rest.
        assert_eq!(verdict, oracle_validate(&dump), "{what}");
        assert_eq!(
            dump.outcome_counts(),
            oracle_outcome_counts(&dump),
            "{what}"
        );
    }
}

#[test]
fn span_view_pairs_queued_transmissions_first_in_first_out() {
    // Two transmissions of one fragment wait before either arrives;
    // real runs rarely queue like this, so it is built by hand.
    let mut interner = Interner::new();
    let node = interner.intern("node:a");
    let mut rec = LineageRecorder::default();
    let span = rec.begin_span(0, node, None, 100);
    rec.record(span, 0, node, Stage::LinkTx, 0);
    rec.record(span, 5, node, Stage::LinkTx, 0);
    rec.record(span, 10, node, Stage::Arrived, 0);
    rec.record(span, 20, node, Stage::Arrived, 0);
    rec.record(span, 20, node, Stage::Delivered, 0);
    let dump = rec.finish(&interner);
    assert_eq!(dump.span_view().stage_samples().hop_ns, vec![10.0, 15.0]);
    assert_view_matches_oracle(&dump, "queued transmissions");
}

// ---------------------------------------------------------------------
// Canonicaliser oracle: `merge_domains` as it was before it merged late
// events linearly — copy every remapped event into one list and stably
// sort it by (time, span).

fn oracle_merge_domains(parts: &[LineageDump]) -> LineageDump {
    let mut components: Vec<String> = parts.iter().flat_map(|p| p.components.clone()).collect();
    components.sort();
    components.dedup();
    let comp_maps: Vec<Vec<u32>> = parts
        .iter()
        .map(|p| {
            p.components
                .iter()
                .map(|c| components.binary_search(c).unwrap() as u32)
                .collect()
        })
        .collect();
    let mut order = Vec::new();
    for (part, p) in parts.iter().enumerate() {
        for (local, o) in p.origins.iter().enumerate() {
            order.push((o.time_ns, comp_maps[part][o.comp.index()], part, local));
        }
    }
    order.sort_by_key(|&(t, c, part, _)| (t, c, part));
    let mut span_maps: Vec<Vec<u64>> = parts.iter().map(|p| vec![0; p.origins.len()]).collect();
    let mut origins = Vec::new();
    for (new_id, &(_, comp, part, local)) in order.iter().enumerate() {
        span_maps[part][local] = new_id as u64;
        origins.push(SpanOrigin {
            comp: SymbolId(comp),
            ..parts[part].origins[local]
        });
    }
    let mut events = Vec::new();
    for (part, p) in parts.iter().enumerate() {
        for ev in &p.events {
            let from = (ev.span >> SPAN_DOMAIN_SHIFT) as usize;
            events.push(LineageEvent {
                span: span_maps[from][(ev.span & SPAN_LOCAL_MASK) as usize],
                comp: SymbolId(comp_maps[part][ev.comp.index()]),
                ..*ev
            });
        }
    }
    events.sort_by_key(|ev| (ev.time_ns, ev.span));
    LineageDump {
        origins,
        events,
        components,
        dropped: parts.iter().map(|p| p.dropped).sum(),
    }
}

/// splitmix64: a tiny seeded generator for the synthetic recordings.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One domain's raw recording, as a recorder leaves it: spans born in
/// time order at components interned against the sorted order, events
/// mostly in time order over spans of every domain, with same-instant
/// bursts and `Played` events stamped with an earlier deadline.
fn raw_part(rng: &mut Mix, domain: u64, domains: u64, spans: u64) -> LineageDump {
    let mut interner = Interner::new();
    let comps: Vec<SymbolId> = (0..6)
        .map(|i| interner.intern(&format!("node:{domain}:{}", 9 - i)))
        .collect();
    let mut rec = LineageRecorder::default();
    rec.set_span_base(domain << SPAN_DOMAIN_SHIFT);
    let mut now = 0u64;
    for _ in 0..spans {
        now += rng.below(3);
        let comp = comps[rng.below(6) as usize];
        rec.begin_span(now, comp, None, 100);
    }
    let mut now = 0u64;
    for _ in 0..spans * 6 {
        now += rng.below(4);
        let span = (rng.below(domains) << SPAN_DOMAIN_SHIFT) | rng.below(spans);
        let comp = comps[rng.below(6) as usize];
        if rng.below(50) == 0 {
            let late = now.saturating_sub(1 + rng.below(40));
            rec.record(span, late, comp, Stage::Played, 0);
        } else {
            rec.record(span, now, comp, Stage::Arrived, rng.below(3) as u32);
        }
    }
    rec.finish(&interner)
}

#[test]
fn canonicaliser_matches_copy_and_sort() {
    let mut rng = Mix(0x0011_ea9e);
    for (domains, spans) in [(1, 1), (1, 400), (1, 3000), (2, 500), (4, 800)] {
        let parts: Vec<LineageDump> = (0..domains)
            .map(|d| raw_part(&mut rng, d, domains, spans))
            .collect();
        let want = oracle_merge_domains(&parts);
        assert!(
            parts[0]
                .events
                .windows(2)
                .any(|w| w[1].time_ns < w[0].time_ns),
            "the recording has late events"
        );
        let got = LineageDump::merge_domains(parts);
        assert_eq!(got, want, "{domains} domains x {spans} spans");
        assert_eq!(got.events.capacity(), got.events.len());
        assert_eq!(got.origins.capacity(), got.origins.len());
    }
}

#[test]
fn a_run_dump_is_built_at_exact_capacity() {
    let dump = run_dump(lossy_config(4040));
    assert!(!dump.events.is_empty());
    assert_eq!(dump.events.capacity(), dump.events.len());
    assert_eq!(dump.origins.capacity(), dump.origins.len());
    // The canonical order is (time, span), and canonicalising again
    // changes nothing.
    assert!(dump
        .events
        .windows(2)
        .all(|w| (w[0].time_ns, w[0].span) <= (w[1].time_ns, w[1].span)));
    assert_eq!(oracle_merge_domains(std::slice::from_ref(&dump)), dump);
}
