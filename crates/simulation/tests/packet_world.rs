//! End-to-end tests of the packet-level world: raw TCP over wireless
//! channels, the BitTorrent overlay, and the AM filter in the datapath.

use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use p2p_simulation::packet::{PacketConfig, PacketWorld};
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::{Direction, WirelessConfig};
use wp2p::am::AmConfig;

fn wlan(bytes_per_sec: u64) -> WirelessConfig {
    WirelessConfig {
        bandwidth_bps: bytes_per_sec * 8,
        prop_delay: SimDuration::from_millis(2),
        queue_frames: 100,
        ber: 0.0,
        per_frame_overhead: SimDuration::from_micros(100),
    }
}

#[test]
fn raw_tcp_transfer_over_wireless() {
    let mut w = PacketWorld::new(PacketConfig::default(), 1);
    let mobile = w.add_node(Some(wlan(500_000)));
    let fixed = w.add_node(None);
    let c = w.open_tcp(mobile, fixed);
    // Download direction: fixed (b side) sends to mobile (a side).
    w.tcp_write(c, false, 1_000_000);
    w.run_until(SimTime::from_secs(60), |_| {});
    assert_eq!(w.tcp_delivered(c, true), 1_000_000);
    // The channel carried both directions.
    assert!(w.channel_stats(mobile, Direction::Down).delivered > 0);
    assert!(w.channel_stats(mobile, Direction::Up).delivered > 0, "ACKs");
}

#[test]
fn bit_errors_degrade_but_do_not_break_tcp() {
    let mut w = PacketWorld::new(PacketConfig::default(), 2);
    let mobile = w.add_node(Some(wlan(500_000)));
    let fixed = w.add_node(None);
    w.set_ber(mobile, 1e-5);
    let c = w.open_tcp(mobile, fixed);
    w.tcp_write(c, false, 300_000);
    w.run_until(SimTime::from_secs(120), |_| {});
    assert_eq!(w.tcp_delivered(c, true), 300_000);
    let ep = w.endpoint(c, false).unwrap();
    assert!(
        ep.stats().retransmissions > 0,
        "BER 1e-5 must cause retransmissions"
    );
}

#[test]
fn bidirectional_tcp_self_contends_on_the_channel() {
    // One connection, simultaneous data both ways, one shared channel:
    // total goodput is bounded by the single channel capacity.
    let mut w = PacketWorld::new(PacketConfig::default(), 3);
    let mobile = w.add_node(Some(wlan(250_000)));
    let fixed = w.add_node(None);
    let c = w.open_tcp(mobile, fixed);
    w.tcp_write(c, true, 2_000_000);
    w.tcp_write(c, false, 2_000_000);
    w.run_until(SimTime::from_secs(10), |_| {});
    let down = w.tcp_delivered(c, true);
    let up = w.tcp_delivered(c, false);
    let total = (down + up) as f64;
    // 10 s at 250 kB/s shared = 2.5 MB ceiling (minus overheads).
    assert!(total < 2_500_000.0, "exceeded channel capacity: {total}");
    assert!(total > 1_200_000.0, "far below channel capacity: {total}");
    assert!(down > 0 && up > 0, "both directions progressed");
}

#[test]
fn am_filter_decouples_acks_on_young_connections() {
    let mut w = PacketWorld::new(PacketConfig::default(), 4);
    let mobile = w.add_node(Some(wlan(500_000)));
    let fixed = w.add_node(None);
    w.set_am(mobile, AmConfig::default());
    let c = w.open_tcp(mobile, fixed);
    // Bidirectional exchange so the mobile host has data to piggyback on.
    w.tcp_write(c, true, 200_000);
    w.tcp_write(c, false, 200_000);
    w.run_until(SimTime::from_secs(30), |_| {});
    let stats = w.am_stats(c, true).expect("AM enabled on mobile side");
    assert!(
        stats.decoupled > 0,
        "young phase should decouple some ACKs: {stats:?}"
    );
    // The transfer still completes with the filter in the path.
    assert_eq!(w.tcp_delivered(c, true), 200_000);
    assert_eq!(w.tcp_delivered(c, false), 200_000);
}

#[test]
fn bittorrent_over_packet_tcp_completes() {
    let meta = Metainfo::synthetic("pkt.bin", "tr", 64 * 1024, 512 * 1024, 9);
    let ih = meta.info.info_hash();
    let mut w = PacketWorld::new(PacketConfig::default(), 5);
    let seed = w.add_node(None);
    let leech = w.add_node(Some(wlan(500_000)));
    w.add_client(
        seed,
        ClientConfig::default(),
        ih,
        meta.info.piece_length,
        meta.info.length,
        16 * 1024,
        true,
    );
    w.add_client(
        leech,
        ClientConfig::default(),
        ih,
        meta.info.piece_length,
        meta.info.length,
        16 * 1024,
        false,
    );
    w.start_clients();
    w.run_until(SimTime::from_secs(120), |_| {});
    let client = w.client(leech).expect("leech alive");
    assert!(
        client.is_seed(),
        "download incomplete: {} of {} bytes",
        client.progress().bytes_downloaded(),
        meta.info.length
    );
    assert_eq!(w.delivered_down(leech), 512 * 1024);
    assert_eq!(w.delivered_up(seed), 512 * 1024);
}

#[test]
fn leech_to_leech_exchange_with_complementary_halves() {
    // The Fig. 8(a) scenario: two leeches holding complementary halves
    // (as after a removed seed) finish from each other over bi-directional
    // TCP on their wireless legs.
    use bittorrent::progress::TorrentProgress;
    let meta = Metainfo::synthetic("ex.bin", "tr", 64 * 1024, 1024 * 1024, 10);
    let ih = meta.info.info_hash();
    let mut w = PacketWorld::new(PacketConfig::default(), 6);
    let l1 = w.add_node(Some(wlan(400_000)));
    let l2 = w.add_node(Some(wlan(400_000)));
    let num_pieces = meta.info.num_pieces();
    let mut p1 =
        TorrentProgress::with_block_size(meta.info.piece_length, meta.info.length, 16 * 1024);
    let mut p2 =
        TorrentProgress::with_block_size(meta.info.piece_length, meta.info.length, 16 * 1024);
    for piece in 0..num_pieces {
        if piece % 2 == 0 {
            p1.mark_piece_complete(piece);
        } else {
            p2.mark_piece_complete(piece);
        }
    }
    w.add_client_with_progress(l1, ClientConfig::default(), ih, p1);
    w.add_client_with_progress(l2, ClientConfig::default(), ih, p2);
    w.start_clients();
    w.run_until(SimTime::from_secs(300), |_| {});
    let c1 = w.client(l1).unwrap();
    let c2 = w.client(l2).unwrap();
    assert!(
        c1.is_seed() && c2.is_seed(),
        "leech-to-leech exchange incomplete: {:.2} / {:.2}",
        c1.progress().downloaded_fraction(),
        c2.progress().downloaded_fraction()
    );
    // Data flowed both ways over a single bi-directional connection pair.
    assert!(w.delivered_down(l1) >= 512 * 1024 - 64 * 1024);
    assert!(w.delivered_down(l2) >= 512 * 1024 - 64 * 1024);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut w = PacketWorld::new(PacketConfig::default(), seed);
        let mobile = w.add_node(Some(wlan(300_000)));
        let fixed = w.add_node(None);
        w.set_ber(mobile, 5e-6);
        let c = w.open_tcp(mobile, fixed);
        w.tcp_write(c, false, 500_000);
        w.run_until(SimTime::from_secs(60), |_| {});
        (
            w.tcp_delivered(c, true),
            w.endpoint(c, false).unwrap().stats().retransmissions,
        )
    };
    assert_eq!(run(42), run(42));
}

/// Packet-level experiment drivers are deterministic too.
#[test]
fn fig2a_driver_is_deterministic() {
    use metrics::handle::MetricsHandle;
    use p2p_simulation::experiments::fig2::{run_fig2a_with, Fig2aParams, FIG2A_SEED};
    let params = Fig2aParams {
        bers: vec![1.0e-5],
        runs: 1,
        duration: SimDuration::from_secs(10),
        delayed_ack: false,
    };
    let a = run_fig2a_with(&params, &MetricsHandle::disabled(), FIG2A_SEED);
    let b = run_fig2a_with(&params, &MetricsHandle::disabled(), FIG2A_SEED);
    assert_eq!(a[0].bi.mean, b[0].bi.mean);
    assert_eq!(a[0].uni.mean, b[0].uni.mean);
}
