//! `packet-swarm`: a full-mesh swarm in the packet-level world.

use super::{run_sliced, slice_metrics, Digest, Rep, Size};
use crate::trace::Tracer;
use bittorrent::client::ClientConfig;
use bittorrent::metainfo::Metainfo;
use bittorrent::progress::TorrentProgress;
use p2p_simulation::packet::{PNodeKey, PacketConfig, PacketWorld};
use simnet::rng::SimRng;
use simnet::time::SimDuration;
use simnet::wireless::{Direction, WirelessConfig};
use std::collections::BTreeMap;
use std::time::Instant;
use wp2p::am::AmConfig;

pub struct BuiltPacket {
    pub world: PacketWorld,
    pub leeches: Vec<PNodeKey>,
}

/// Mixed into the run seed so no workload shares a world seed.
const SEED_SALT: u64 = 0x9AC7;

/// Timed virtual horizon, seconds.
const HORIZON_S: u64 = 120;

/// Bit-error rate of the lossy half: ~4.7 % of 1500-byte frames. High
/// enough that fast retransmit, RTO back-off and the AM filter work all
/// run long, low enough that TCP does not collapse into time-outs —
/// at 1e-5 the delivered volume, and with it the wall, swings 25 %
/// from seed to seed.
const LOSSY_BER: f64 = 4e-6;

fn leech_count(size: Size) -> usize {
    match size {
        Size::Full => 32,
        Size::Smoke => 4,
    }
}

/// One wired seed plus `leeches` leeches in full mesh, every leech
/// behind a 2 MB/s wireless channel with a 100-frame queue. Half the
/// channels are lossy, and half of those hosts carry the AM filter.
/// Each leech starts with a random half of a 2 GiB file: everyone is
/// interested in everyone from the first second and nobody finishes, so
/// all channels stay saturated for the whole horizon.
pub fn build(leeches: usize, seed: u64) -> BuiltPacket {
    let meta = Metainfo::synthetic("packet-swarm.bin", "tr", 256 * 1024, 2 << 30, seed);
    let ih = meta.info.info_hash();
    let mut w = PacketWorld::new(PacketConfig::default(), seed);
    let seeder = w.add_node(None);
    w.add_client(
        seeder,
        ClientConfig::default(),
        ih,
        meta.info.piece_length,
        meta.info.length,
        16 * 1024,
        true,
    );
    let mut rng = SimRng::new(seed).fork(0x9ac7_0001);
    let mut keys = Vec::with_capacity(leeches);
    for i in 0..leeches {
        let n = w.add_node(Some(WirelessConfig {
            bandwidth_bps: 2_000_000 * 8,
            prop_delay: SimDuration::from_millis(2),
            queue_frames: 100,
            ber: if i < leeches / 2 { LOSSY_BER } else { 0.0 },
            per_frame_overhead: SimDuration::ZERO,
        }));
        if i < leeches / 4 {
            w.set_am(n, AmConfig::default());
        }
        let mut have =
            TorrentProgress::with_block_size(meta.info.piece_length, meta.info.length, 16 * 1024);
        for piece in 0..meta.info.num_pieces() {
            if rng.chance(0.5) {
                have.mark_piece_complete(piece);
            }
        }
        w.add_client_with_progress(n, ClientConfig::default(), ih, have);
        keys.push(n);
    }
    w.start_clients();
    BuiltPacket {
        world: w,
        leeches: keys,
    }
}

pub fn setup(size: Size, seed: u64) -> BuiltPacket {
    build(leech_count(size), seed ^ SEED_SALT)
}

pub fn rep(size: Size, seed: u64, t: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let mut b = t.span("setup", |_| setup(size, seed));
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    t.span("run", |t| {
        run_sliced(t, 0, HORIZON_S, |until| b.world.run_until(until, |_| {}))
    });
    let wall_s = t1.elapsed().as_secs_f64();

    t.span("extract", |t| {
        let w = &b.world;
        let q = w.queue_stats();
        let mut d = Digest::new();
        d.word(w.events_processed());
        d.queue(&q);

        let mut tcp = [0u64; 4];
        let mut am = [0u64; 2];
        for conn in 0..w.conn_count() {
            for a_side in [true, false] {
                if let Some(ep) = w.endpoint(conn, a_side) {
                    let s = ep.stats();
                    for (acc, x) in tcp.iter_mut().zip([
                        s.data_segments_sent,
                        s.pure_acks_sent,
                        s.retransmissions,
                        s.dupacks_sent,
                    ]) {
                        *acc += x;
                    }
                    d.word(s.bytes_acked);
                }
                if let Some(s) = w.am_stats(conn, a_side) {
                    am[0] += s.decoupled;
                    am[1] += s.dupacks_dropped;
                }
            }
        }
        let mut air = [0u64; 3];
        let mut goodput = 0u64;
        for &n in &b.leeches {
            for dir in [Direction::Up, Direction::Down] {
                let s = w.channel_stats(n, dir);
                air[0] += s.delivered;
                air[1] += s.dropped_buffer;
                air[2] += s.dropped_error;
            }
            goodput += w.delivered_down(n);
            d.word(w.delivered_down(n));
            d.word(w.delivered_up(n));
        }

        let events = w.events_processed();
        let mut layer = BTreeMap::from([
            ("simulation.packet.events", events as f64),
            (
                "simulation.packet.us_per_event",
                wall_s * 1e6 / events.max(1) as f64,
            ),
            ("simulation.packet.conns", w.conn_count() as f64),
            ("simulation.packet.goodput_mb", goodput as f64 / 1e6),
            ("simnet.event.scheduled", q.scheduled as f64),
            ("simnet.event.cancelled", q.cancelled as f64),
            ("simnet.event.cancel_noops", q.cancel_noops as f64),
            ("simnet.event.depth_peak", q.max_live as f64),
            ("sim-tcp.endpoint.data_segments", tcp[0] as f64),
            ("sim-tcp.endpoint.pure_acks", tcp[1] as f64),
            ("sim-tcp.endpoint.retransmissions", tcp[2] as f64),
            ("sim-tcp.endpoint.dupacks", tcp[3] as f64),
            ("simnet.wireless.frames_delivered", air[0] as f64),
            ("simnet.wireless.drops_buffer", air[1] as f64),
            ("simnet.wireless.drops_error", air[2] as f64),
            ("wp2p.am.decoupled", am[0] as f64),
            ("wp2p.am.dupacks_dropped", am[1] as f64),
        ]);
        slice_metrics(
            t,
            &mut layer,
            [
                "simulation.packet.slice_ms_p50",
                "simulation.packet.slice_ms_p95",
                "simulation.packet.slice_ms_max",
            ],
            None,
        );
        Rep {
            setup_s,
            wall_s,
            vsecs: HORIZON_S as f64,
            digest: d.finish(),
            checks: vec![
                (
                    "every leech received payload",
                    b.leeches.iter().all(|&n| w.delivered_down(n) > 0),
                ),
                ("lossy channels dropped frames", air[2] > 0),
            ],
            tasks: 0,
            layer,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_run_equals_straight_run() {
        let straight = rep(Size::Smoke, 9, &mut Tracer::new(false));
        let sliced = rep(Size::Smoke, 9, &mut Tracer::new(true));
        assert_eq!(straight.digest, sliced.digest);
        assert_eq!(
            straight.layer["simulation.packet.events"],
            sliced.layer["simulation.packet.events"]
        );
        assert!(straight.checks.iter().all(|c| c.1), "{:?}", straight.checks);
    }
}
