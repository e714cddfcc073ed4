//! Section IV end to end: measure → fit → generate → validate →
//! export.
//!
//! Runs one experiment, fits [`turb_flowgen::TurbulenceModel`]s from
//! the capture, generates synthetic flows, validates them against the
//! fitted distributions, replays one as live traffic in a fresh
//! simulation, and writes an ns-style trace to `target/`.
//!
//! ```sh
//! cargo run --example synthetic_flows
//! ```

use std::net::Ipv4Addr;
use turb_capture::{Filter, PlayerGroups};
use turb_flowgen::{validate_against_model, FlowGenerator, SyntheticFlowApp, TurbulenceModel};
use turb_media::{corpus, PlayerId, RateClass};
use turb_netsim::prelude::*;
use turbulence::{run_pair, PairRunConfig};

fn main() {
    let sets = corpus::table1();
    let pair = sets[0].pair(RateClass::Low).unwrap().clone();
    println!(
        "Measuring data set 1 low ({} / {})...",
        pair.real.name(),
        pair.wmp.name()
    );
    let result = run_pair(&PairRunConfig::new(42, 1, pair));
    // Ethereal's per-stream view of the capture, split by player.
    let stream = Filter::stream_from(result.server_addr);
    let view = PlayerGroups::build(result.capture.filtered(&stream));

    for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
        let log = match player {
            PlayerId::RealPlayer => &result.real,
            PlayerId::MediaPlayer => &result.wmp,
        };
        let Some(model) = TurbulenceModel::fit(view.player(player), player, log.clip.encoded_kbps)
        else {
            println!("{}: not enough data to fit", player.label());
            continue;
        };
        println!(
            "\n== fitted {} model ({} Kbit/s) ==",
            player.label(),
            model.encoded_kbps
        );
        println!(
            "  datagram sizes: median {:.0} B ({} samples)",
            model.datagram_sizes.sample(0.5),
            model.datagram_sizes.len()
        );
        println!(
            "  steady interarrivals: median {:.1} ms",
            model.interarrivals.sample(0.5) * 1000.0
        );
        println!(
            "  fragment fraction: {:.1}%",
            model.fragment_fraction * 100.0
        );
        println!(
            "  buffering ratio {:.2} over the first {:.1}s",
            model.buffering_ratio, model.burst_secs
        );

        // Generate and validate.
        let mut generator = FlowGenerator::new(model.clone(), SimRng::new(7));
        let packets = generator.generate(log.clip.duration_secs);
        let report = validate_against_model(&model, &packets);
        println!(
            "  generated {} packets | K-S sizes {:.3}, gaps {:.3} | quantile err {:.3}/{:.3} | pass: {}",
            packets.len(),
            report.ks_sizes,
            report.ks_gaps,
            report.q_err_sizes,
            report.q_err_gaps,
            report.passes(0.1)
        );

        // Export an ns-style trace.
        let trace = FlowGenerator::export_ns_trace(&packets);
        let path = format!("target/sec4-{}.trace", player.label().to_lowercase());
        std::fs::write(&path, trace).expect("write trace");
        println!("  ns-style trace written to {path}");

        // Replay the synthetic flow as live traffic in a fresh sim.
        let mut sim = Simulation::new(9);
        let a = sim.add_host("src", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("dst", Ipv4Addr::new(10, 0, 0, 2));
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(10)));
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);
        struct Counter;
        impl Application for Counter {}
        sim.add_app(b, Box::new(Counter), Some(9000), false);
        let n = packets.len();
        sim.add_app(
            a,
            Box::new(SyntheticFlowApp::new(
                packets,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                9001,
                player,
            )),
            Some(9001),
            false,
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(600));
        println!(
            "  replayed as live traffic: {}/{} datagrams delivered in a fresh simulation",
            sim.node_stats(b).udp_delivered,
            n
        );
    }
}
