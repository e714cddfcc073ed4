//! Cross-crate methodology tests: determinism, capture export,
//! model-fit round trips, and route-check behaviour.

use turb_capture::record::PacketRecord;
use turb_capture::{Capture, Filter, FragmentGroups, PlayerGroups};
use turb_media::{corpus, PlayerId, RateClass};
use turbulence::{analysis, run_pair, PairRunConfig, PairRunResult};

fn short_config(seed: u64) -> PairRunConfig {
    let sets = corpus::table1();
    PairRunConfig::new(seed, 2, sets[1].pair(RateClass::Low).unwrap().clone())
}

#[test]
fn runs_are_bit_reproducible() {
    let a = run_pair(&short_config(11));
    let b = run_pair(&short_config(11));
    assert_eq!(a.capture.len(), b.capture.len());
    for (x, y) in a.capture.records().iter().zip(b.capture.records()) {
        assert_eq!(x.time, y.time);
        assert_eq!(x.wire_len, y.wire_len);
        assert_eq!(x.packet, y.packet);
    }
    assert_eq!(a.real.per_second.len(), b.real.per_second.len());
    assert_eq!(a.real.net_events, b.real.net_events);
}

#[test]
fn different_seeds_change_the_network_but_not_the_conclusions() {
    let a = run_pair(&short_config(1));
    let b = run_pair(&short_config(2));
    // Different paths...
    assert_ne!(
        a.ping_before.median_rtt(),
        b.ping_before.median_rtt(),
        "different seeds should draw different paths"
    );
    // ...same qualitative behaviour.
    for r in [&a, &b] {
        assert!(r.real.avg_playback_kbps() > r.real.clip.encoded_kbps);
        assert!(
            (r.wmp.avg_playback_kbps() - r.wmp.clip.encoded_kbps).abs() / r.wmp.clip.encoded_kbps
                < 0.05
        );
    }
}

#[test]
fn capture_exports_to_pcap_and_back() {
    let result = run_pair(&short_config(33));
    let mut buf = Vec::new();
    turb_capture::pcap::write_pcap(&mut buf, result.capture.records()).unwrap();
    let packets = turb_capture::pcap::read_pcap(&mut buf.as_slice()).unwrap();
    assert_eq!(packets.len(), result.capture.len());
    // Every packet decodes and matches the original at µs resolution.
    for (pcap_packet, record) in packets.iter().zip(result.capture.records()) {
        let (t, ip) = turb_capture::pcap::decode_packet(pcap_packet).expect("decodes");
        assert_eq!(t.as_nanos() / 1000, record.time.as_nanos() / 1000);
        assert_eq!(ip, record.packet);
    }
}

/// A capture rebuilt from the run's pcap export alone (direction is
/// lost in the file; reconstruct it from the client address).
fn rebuilt_from_pcap(result: &PairRunResult) -> Capture {
    let mut buf = Vec::new();
    turb_capture::pcap::write_pcap(&mut buf, result.capture.records()).unwrap();
    let mut rebuilt = Capture::default();
    for p in turb_capture::pcap::read_pcap(&mut buf.as_slice()).unwrap() {
        let (t, ip) = turb_capture::pcap::decode_packet(&p).expect("decodes");
        let direction = if ip.dst == std::net::Ipv4Addr::new(130, 215, 36, 10) {
            turb_netsim::Direction::Rx
        } else {
            turb_netsim::Direction::Tx
        };
        rebuilt.push_record(PacketRecord::dissect(t, direction, &ip));
    }
    rebuilt
}

#[test]
fn capture_rebuilt_from_pcap_yields_the_same_analysis() {
    let result = run_pair(&short_config(44));
    let rebuilt = rebuilt_from_pcap(&result);
    let stream = Filter::stream_from(result.server_addr);
    let original = FragmentGroups::build(result.capture.filtered(&stream)).stats();
    let roundtrip = FragmentGroups::build(rebuilt.filtered(&stream)).stats();
    assert_eq!(original, roundtrip);
}

#[test]
fn fitted_models_survive_the_pcap_round_trip() {
    let result = run_pair(&short_config(55));
    let player = PlayerId::MediaPlayer;
    let fit = |groups| {
        turb_flowgen::TurbulenceModel::fit(groups, player, result.wmp.clip.encoded_kbps)
            .expect("fit")
    };
    let direct = fit(analysis::stream_groups(&result, player));
    let stream = Filter::stream_from(result.server_addr);
    let view = PlayerGroups::build(rebuilt_from_pcap(&result).filtered(&stream));
    let roundtrip = fit(view.player(player));
    // The WMP low-rate clip: constant sizes, no fragments, and a
    // measured buffering ratio of ≈1 ("MediaPlayer always buffers at
    // the same rate as it plays back").
    assert_eq!(roundtrip.fragment_fraction, 0.0);
    assert_eq!(roundtrip.fragment_fraction, direct.fragment_fraction);
    assert!(
        (roundtrip.buffering_ratio - 1.0).abs() < 0.05,
        "ratio = {}",
        roundtrip.buffering_ratio
    );
    // Set 2 low = 102.3 Kbit/s: 100 ms units of ≈1279 B + 42 B of
    // headers ⇒ ≈1321 B on the wire, constant.
    let median = roundtrip.datagram_sizes.sample(0.5);
    assert!(
        (1300.0..=1340.0).contains(&median),
        "median size = {median}"
    );
    assert_eq!(median, direct.datagram_sizes.sample(0.5));
    // pcap keeps microseconds; the simulation keeps nanoseconds.
    let gap = |m: &turb_flowgen::TurbulenceModel| m.interarrivals.sample(0.5);
    assert!((gap(&roundtrip) - gap(&direct)).abs() < 2e-6);
}

#[test]
fn trackers_agree_with_the_sniffer_on_byte_counts() {
    let result = run_pair(&short_config(66));
    // Bytes the tracker logged = UDP payload bytes the sniffer saw for
    // that stream (per-datagram, so reassemble via groups).
    for (log, port) in [(&result.real, 7002u16), (&result.wmp, 7000u16)] {
        let filter = Filter::stream_from(result.server_addr).and(Filter::PortIs(port));
        let sniffed_payload: usize = result
            .capture
            .filtered(&filter)
            .iter()
            // Unfragmented datagrams only in this low-rate pair, so
            // wire length − 42 B of headers = UDP payload.
            .map(|r| r.wire_len - 42)
            .sum();
        // The sniffer also saw the END markers (20 B each × 3).
        let expected = log.bytes_total as usize + 3 * 20;
        assert_eq!(sniffed_payload, expected, "port {port}");
    }
}

#[test]
fn route_check_detects_a_changed_path() {
    // Sanity for PairRunResult::route_stable: same run is stable; a
    // synthetic report with different hop counts is not.
    let result = run_pair(&short_config(77));
    assert!(result.route_stable());
    let mut tampered = result;
    tampered.tracert_after.hops.push(None);
    assert!(!tampered.route_stable());
}
