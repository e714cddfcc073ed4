//! The shared fragment-group view of a pair run: `analysis::stream_groups`
//! must equal a plain regrouping of the run's stream records, be built
//! once per run, and stay out of the run's `Debug` text.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use turb_capture::{Filter, PacketRecord};
use turb_media::{corpus, PlayerId, RateClass};
use turbulence::{analysis, runner, PairRunConfig, PairRunResult};

/// One datagram as the oracle sees it: its frames in arrival order.
struct OracleGroup<'a> {
    first_seen: usize,
    player: Option<PlayerId>,
    frames: Vec<&'a PacketRecord>,
}

impl OracleGroup<'_> {
    /// Reassembles iff a final fragment arrived and a byte map of the
    /// payload has no gap from 0 to the furthest fragment end.
    fn complete(&self) -> bool {
        let extent = |r: &PacketRecord| {
            let off = r.packet.fragment_offset_bytes();
            (off, off + r.packet.payload.len())
        };
        if self.frames.iter().all(|r| r.packet.more_fragments) {
            return false;
        }
        let end = self.frames.iter().map(|r| extent(r).1).max().unwrap_or(0);
        let mut covered = vec![false; end];
        for r in &self.frames {
            let (from, to) = extent(r);
            covered[from..to].fill(true);
        }
        covered.iter().all(|&c| c)
    }
}

/// The stream's records regrouped by datagram key, one player's groups
/// in order of first appearance.
fn oracle(run: &PairRunResult, player: PlayerId) -> Vec<OracleGroup<'_>> {
    let stream = Filter::stream_from(run.server_addr);
    let mut by_key: BTreeMap<(Ipv4Addr, Ipv4Addr, u8, u16), OracleGroup<'_>> = BTreeMap::new();
    for (i, r) in run.capture.filtered(&stream).into_iter().enumerate() {
        let group = by_key
            .entry(r.packet.datagram_key())
            .or_insert_with(|| OracleGroup {
                first_seen: i,
                player: None,
                frames: Vec::new(),
            });
        group.player = group.player.or(r.media.map(|m| m.player));
        group.frames.push(r);
    }
    let mut groups: Vec<_> = by_key
        .into_values()
        .filter(|g| g.player == Some(player))
        .collect();
    groups.sort_by_key(|g| g.first_seen);
    groups
}

/// Checks one run's view against the oracle; returns its incomplete
/// group count.
fn check_run(run: &PairRunResult) -> usize {
    let label = format!("set {} {:?} seed {}", run.set_id, run.class, run.seed);
    let debug_before = format!("{run:?}");
    let mut incomplete = 0;
    for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
        let view = analysis::stream_groups(run, player);
        let expected = oracle(run, player);
        assert!(!expected.is_empty(), "{label} {player:?}: empty stream");
        assert_eq!(view.groups().len(), expected.len(), "{label} {player:?}");
        for (i, (g, want)) in view.groups().iter().zip(&expected).enumerate() {
            let at = format!("{label} {player:?} group {i}");
            assert_eq!(g.player, Some(player), "{at}");
            assert_eq!(g.packets as usize, want.frames.len(), "{at}");
            let lens: Vec<u32> = want.frames.iter().map(|r| r.wire_len as u32).collect();
            let times: Vec<f64> = want.frames.iter().map(|r| r.time_secs()).collect();
            assert_eq!(view.frame_lens(g), lens, "{at}");
            assert_eq!(view.frame_times(g), times, "{at}");
            assert_eq!(
                g.wire_bytes as usize,
                want.frames.iter().map(|r| r.wire_len).sum::<usize>(),
                "{at}"
            );
            assert_eq!(g.first_time, times.iter().copied().fold(f64::MAX, f64::min));
            assert_eq!(g.last_time, times.iter().copied().fold(f64::MIN, f64::max));
            assert_eq!(g.is_complete(), want.complete(), "{at}");
        }
        let want_incomplete = expected.iter().filter(|g| !g.complete()).count();
        assert_eq!(view.incomplete_groups(), want_incomplete, "{label}");
        incomplete += want_incomplete;

        // Built once: a second call reads the same view.
        assert!(std::ptr::eq(view, analysis::stream_groups(run, player)));
    }
    assert_eq!(
        format!("{run:?}"),
        debug_before,
        "{label}: Debug saw the view"
    );
    incomplete
}

#[test]
fn stream_view_matches_a_regrouping_oracle_and_is_built_once() {
    let corpus = runner::run_corpus_parallel(7, turbulence::parallel::available_threads());
    assert_eq!(corpus.runs.len(), 13);
    for run in &corpus.runs {
        check_run(run);
    }
}

#[test]
fn stream_view_marks_the_groups_a_lossy_link_holed() {
    // 3 % access loss on the fragmenting set 5 high pair drops single
    // fragments, leaving groups the reassembler would time out.
    let sets = corpus::table1();
    let mut config = PairRunConfig::new(42, 5, sets[4].pair(RateClass::High).unwrap().clone());
    config.access_loss = 0.03;
    let run = turbulence::run_pair(&config);
    assert!(check_run(&run) > 0, "3 % loss should hole some groups");
}
