//! Layer micro-benches: each times one layer's hot call through its
//! public interface, on inputs shaped like the workloads. They are
//! workload-independent price tags for the per-layer ledger; none of
//! them feeds an end-to-end metric.

use crate::workloads::{scale, Size};
use bittorrent::bencode::Value;
use bittorrent::bitfield::Bitfield;
use bittorrent::choker::{Choker, ChokerConfig, PeerSnapshot};
use bittorrent::client::{Action, Client, ClientConfig};
use bittorrent::metainfo::{InfoHash, Metainfo};
use bittorrent::peer_id::{PeerId, PeerIdStyle};
use bittorrent::picker::{PickContext, PiecePicker, RarestFirst};
use bittorrent::sha1::Sha1;
use bittorrent::tracker::{AnnounceEvent, AnnounceRequest, Tracker, TrackerConfig};
use bittorrent::wire::{self, BlockRef, Message};
use metrics::handle::MetricsHandle;
use p2p_simulation::experiments::scale::ScaleParams;
use p2p_simulation::invariants::InvariantChecker;
use p2p_simulation::rates::{max_min_rates, FlowDemand, RateEngine};
use sim_tcp::prelude::{Endpoint, Reassembly, SegFlags, Segment, SeqNum, TcpConfig};
use simnet::addr::SimAddr;
use simnet::event::EventQueue;
use simnet::link::{Link, LinkConfig};
use simnet::rng::SimRng;
use simnet::time::{SimDuration, SimTime};
use simnet::wireless::{Direction, WirelessChannel, WirelessConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wp2p::am::{AgeFilter, AmConfig};
use wp2p::ia::{Lihd, LihdConfig};
use wp2p::ma::{MobilityAwarePicker, PrSchedule};

/// Length of one measurement window: long enough to be steady at full
/// size, a tenth of that for `--smoke`.
fn window(size: Size) -> Duration {
    match size {
        Size::Full => Duration::from_millis(100),
        Size::Smoke => Duration::from_millis(10),
    }
}

/// Host seconds per call of `f`: calibrates an iteration count that
/// fills `window`, then reports the best of three windows.
fn per_call_s<R>(window: Duration, mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let el = t0.elapsed();
        if el >= window / 8 || iters >= 1 << 30 {
            let per = el.as_secs_f64() / iters as f64;
            iters = ((window.as_secs_f64() / per.max(1e-12)) as u64).max(1);
            break;
        }
        iters *= 4;
    }
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Nanoseconds per pop-then-schedule on a queue holding `depth` pending
/// events — the hold model of a world's main loop.
pub fn event_ns_per_op(win: Duration, depth: usize) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = SimRng::new(1);
    for i in 0..depth.max(1) as u64 {
        q.schedule_at(SimTime::from_micros(rng.range(0..60_000_000u64)), i);
    }
    per_call_s(win, || {
        let (at, e) = q.pop().expect("queue holds its depth");
        q.schedule_at(at + SimDuration::from_micros(200_000 + e % 1000), e)
    }) * 1e9
}

fn event_cancel_ns(win: Duration) -> f64 {
    let mut q = EventQueue::new();
    for i in 0..4096u64 {
        q.schedule_at(SimTime::from_micros(i * 7919 % 60_000_000), i);
    }
    let mut k = 0u64;
    per_call_s(win, || {
        k += 1;
        // The stall-watchdog shape: armed 15 s ahead, cancelled unfired.
        let token = q.schedule_at(SimTime::from_micros(15_000_000 + k % 4096), k);
        q.cancel(token)
    }) * 1e9
}

fn link_ns_per_packet(win: Duration) -> f64 {
    let mut rng = SimRng::new(4);
    let mut link = Link::new(LinkConfig {
        bandwidth_bps: 10_000_000,
        prop_delay: SimDuration::from_millis(10),
        queue_packets: 64,
        ber: 1e-6,
    });
    let mut t = SimTime::ZERO;
    per_call_s(win, || {
        t += SimDuration::from_micros(1200);
        link.send(t, 1500, &mut rng)
    }) * 1e9
}

fn wireless_ns_per_frame(win: Duration) -> f64 {
    let mut rng = SimRng::new(5);
    let mut ch = WirelessChannel::new(WirelessConfig {
        bandwidth_bps: 2_000_000 * 8,
        prop_delay: SimDuration::from_millis(2),
        queue_frames: 100,
        ber: 4e-6,
        per_frame_overhead: SimDuration::ZERO,
    });
    let mut t = SimTime::ZERO;
    let mut k = 0u32;
    per_call_s(win, || {
        k += 1;
        t += SimDuration::from_micros(700);
        // Data frames down, ACK-sized frames up, as a download looks.
        if k.is_multiple_of(2) {
            ch.send(t, Direction::Down, 1500, &mut rng)
        } else {
            ch.send(t, Direction::Up, 40, &mut rng)
        }
    }) * 1e9
}

fn maxmin_500_us(win: Duration) -> f64 {
    let flows: Vec<FlowDemand> = (0..500)
        .map(|i| FlowDemand::new((i * 13) % 400, (i * 29 + 1) % 400))
        .collect();
    let caps: Vec<f64> = (0..400)
        .map(|i| 50_000.0 + (i % 7) as f64 * 30_000.0)
        .collect();
    per_call_s(win, || max_min_rates(&flows, &caps)) * 1e6
}

/// `(full, incremental)` microseconds per solve of a persistent engine
/// over 2048 peers (an up and a down resource each, eight inbound flows
/// per peer). Full: the peers form one component, as in `scale-2k`, and
/// everything is re-solved. Incremental: the peers form 128 disjoint
/// swarms of 16, as in `service`, and one flow changes between solves.
fn engine_solve_us(win: Duration) -> (f64, f64) {
    const PEERS: usize = 2048;
    let engine = |swarm: usize| {
        let mut e = RateEngine::default();
        e.ensure_resources(2 * PEERS);
        for p in 0..PEERS {
            e.set_capacity(2 * p, 48_000.0 + (p % 5) as f64 * 100_000.0);
            e.set_capacity(2 * p + 1, 500_000.0);
        }
        // Flow `slot` feeds peer `slot / 8` from a sender in its swarm.
        let demand = move |slot: usize, shift: usize| {
            let dst = slot / 8;
            let base = dst - dst % swarm;
            let src = base + (dst * 37 + (slot % 8) * 251 + shift + 1) % swarm;
            FlowDemand::new(2 * src, 2 * dst + 1)
        };
        for slot in 0..8 * PEERS {
            e.upsert_flow(slot, demand(slot, 0));
        }
        e.solve();
        (e, demand)
    };
    let (mut one, _) = engine(PEERS);
    let full = per_call_s(win, || {
        one.invalidate_all();
        one.solve()
    });
    let (mut many, demand) = engine(16);
    let mut k = 0usize;
    let incr = per_call_s(win, || {
        k += 1;
        // One connection changes its sender, as a rechoke does. 97 is
        // coprime to the slot count, so every slot comes round once per
        // pass and gets a sender it did not have the pass before.
        let (slot, pass) = (k * 97 % (8 * PEERS), k / (8 * PEERS) + 1);
        many.upsert_flow(slot, demand(slot, pass));
        many.solve()
    });
    (full * 1e6, incr * 1e6)
}

fn test_client(addr: u32, complete: bool, pieces: u32) -> Client {
    let piece_length = 256 * 1024;
    let length = u64::from(pieces) * u64::from(piece_length);
    let mut rng = SimRng::new(u64::from(addr));
    let id = PeerId::generate(PeerIdStyle::Random, SimAddr(addr), &mut rng);
    let progress = if complete {
        bittorrent::progress::TorrentProgress::complete(piece_length, length)
    } else {
        bittorrent::progress::TorrentProgress::new(piece_length, length)
    };
    let mut c = Client::with_progress(
        ClientConfig::default(),
        InfoHash([7; 20]),
        id,
        progress,
        SimAddr(addr),
        rng,
    );
    c.start(SimTime::ZERO);
    c
}

fn drain(c: &mut Client) -> usize {
    std::iter::from_fn(|| c.poll_action()).count()
}

/// Microseconds per housekeeping tick (plus draining what it emits) of
/// a half-done leech with 50 connected, interested, complete peers.
fn client_tick_us_50(win: Duration) -> f64 {
    const PIECES: u32 = 2752;
    let mut c = test_client(1, false, PIECES);
    let mut rng = SimRng::new(9);
    let mut now = SimTime::ZERO;
    for p in 0..50u32 {
        let addr = SimAddr(100 + p);
        let conn = c.on_incoming(addr, now);
        let peer_id = PeerId::generate(PeerIdStyle::Random, addr, &mut rng);
        for msg in [
            Message::Handshake {
                info_hash: InfoHash([7; 20]),
                peer_id,
            },
            Message::Bitfield(Bitfield::full(PIECES)),
            Message::Interested,
        ] {
            c.on_message(conn, msg, now);
        }
    }
    drain(&mut c);
    per_call_s(win, || {
        now += SimDuration::from_secs(1);
        c.on_tick(now);
        drain(&mut c)
    }) * 1e6
}

/// Blocks per host second through a seed and a leech wired back to back
/// (`poll_action` of one into `on_message` of the other), no world, no
/// transport: the protocol engine's own ceiling.
fn client_loopback_blocks_per_s(win: Duration) -> f64 {
    let run_window = || {
        // 4 GiB: the window ends long before the download does.
        let mut seed = test_client(1, true, 16384);
        let mut leech = test_client(2, false, 16384);
        let now = SimTime::ZERO;
        let at_seed = seed.on_incoming(SimAddr(2), now);
        let at_leech = leech.on_incoming(SimAddr(1), now);
        let mut now = now;
        let mut blocks = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < win {
            now += SimDuration::from_millis(250);
            seed.on_tick(now);
            leech.on_tick(now);
            // Bounded: with an unlimited uplink the exchange would
            // otherwise run to completion inside one virtual instant.
            for _ in 0..256 {
                while let Some(a) = seed.poll_action() {
                    if let Action::Send { msg, .. } = a {
                        blocks += u64::from(msg.is_piece());
                        leech.on_message(at_leech, msg, now);
                    }
                }
                while let Some(a) = leech.poll_action() {
                    if let Action::Send { msg, .. } = a {
                        seed.on_message(at_seed, msg, now);
                    }
                }
            }
        }
        blocks as f64 / t0.elapsed().as_secs_f64()
    };
    (0..3).map(|_| run_window()).fold(0.0, f64::max)
}

fn choker_rechoke_us_50(win: Duration) -> f64 {
    let peers: Vec<PeerSnapshot> = (0..50)
        .map(|k| PeerSnapshot {
            key: k,
            interested: k % 3 != 0,
            credit: (k * 977 % 101) as f64,
        })
        .collect();
    let mut ch = Choker::new(ChokerConfig::default());
    let mut rng = SimRng::new(2);
    let mut t = SimTime::ZERO;
    per_call_s(win, || {
        t += SimDuration::from_secs(10);
        ch.rechoke(t, &peers, &mut rng)
    }) * 1e6
}

/// Microseconds per pick over the paper's 2752-piece image.
fn picker_us_2752(win: Duration, picker: &mut dyn PiecePicker) -> f64 {
    let avail: Vec<u32> = (0..2752).map(|i| (i % 37) + 1).collect();
    let candidates: Vec<u32> = (0..2752).collect();
    let ctx = PickContext {
        availability: &avail,
        downloaded_fraction: 0.5,
        stable_for: SimDuration::from_secs(60),
    };
    let mut rng = SimRng::new(1);
    per_call_s(win, || picker.pick(&candidates, &ctx, &mut rng)) * 1e6
}

/// `(encode, decode)` nanoseconds per message over the mix a busy
/// connection carries: request, piece, have, pex.
fn wire_ns(win: Duration) -> (f64, f64) {
    let block = BlockRef {
        piece: 17,
        offset: 32 * 1024,
        len: wire::BLOCK_SIZE,
    };
    let payload = vec![0xA5u8; wire::BLOCK_SIZE as usize];
    let mix = [
        (Message::Request(block), None),
        (Message::Piece(block), Some(payload.as_slice())),
        (Message::Have { index: 17 }, None),
        (
            Message::Pex {
                peers: (0..16).map(|i| (SimAddr(1000 + i), i)).collect(),
            },
            None,
        ),
    ];
    let mut out = Vec::with_capacity(64 * 1024);
    let encode = per_call_s(win, || {
        out.clear();
        for (msg, payload) in &mix {
            wire::encode(msg, *payload, &mut out);
        }
        out.len()
    });
    let decode = per_call_s(win, || {
        let mut at = 0;
        while let Some(d) = wire::decode(&out[at..], 2752).expect("well-formed") {
            at += d.consumed;
        }
        at
    });
    let n = mix.len() as f64;
    (encode * 1e9 / n, decode * 1e9 / n)
}

/// Nanoseconds per periodic announce into a swarm of 1000 members.
fn tracker_announce_ns_1k(win: Duration) -> f64 {
    let mut tracker = Tracker::new(TrackerConfig::default());
    let mut rng = SimRng::new(6);
    let ids: Vec<PeerId> = (0..1000u32)
        .map(|i| PeerId::generate(PeerIdStyle::Random, SimAddr(i), &mut rng))
        .collect();
    let request = |i: usize, event| AnnounceRequest {
        info_hash: InfoHash([7; 20]),
        peer_id: ids[i],
        addr: SimAddr(i as u32),
        event,
        is_seed: i.is_multiple_of(16),
    };
    let mut now = SimTime::ZERO;
    for i in 0..ids.len() {
        tracker.announce(&request(i, AnnounceEvent::Started), now, &mut rng);
    }
    let mut k = 0usize;
    per_call_s(win, || {
        k += 1;
        now += SimDuration::from_millis(1);
        tracker.announce(
            &request(k % ids.len(), AnnounceEvent::Periodic),
            now,
            &mut rng,
        )
    }) * 1e9
}

fn sha1_mb_per_s(win: Duration) -> f64 {
    let piece = vec![0xA5u8; 256 * 1024];
    piece.len() as f64 / 1e6 / per_call_s(win, || Sha1::digest(&piece))
}

fn bencode_decode_us(win: Duration) -> f64 {
    let bytes = Metainfo::synthetic("bench.iso", "tr", 256 * 1024, 688 << 20, 1).to_bytes();
    per_call_s(win, || Value::decode(&bytes).expect("well-formed")) * 1e6
}

/// Moves segments both ways until the wire is quiet; returns how many.
fn exchange(a: &mut Endpoint, b: &mut Endpoint, now: SimTime) -> u64 {
    let mut moved = 0;
    loop {
        let before = moved;
        while let Some(seg) = a.poll_segment(now) {
            b.on_segment(seg, now);
            moved += 1;
        }
        while let Some(seg) = b.poll_segment(now) {
            a.on_segment(seg, now);
            moved += 1;
        }
        b.take_delivered();
        if moved == before {
            return moved;
        }
    }
}

/// Nanoseconds per segment handled (data one way, ACKs back) by two
/// endpoints wired back to back on a lossless zero-delay wire, fed one
/// 16 KiB block per call.
fn tcp_ns_per_segment(win: Duration) -> f64 {
    let mut a = Endpoint::new(TcpConfig::default(), SeqNum(100));
    let mut b = Endpoint::new(TcpConfig::default(), SeqNum(900));
    let mut now = SimTime::ZERO;
    b.listen();
    a.connect(now);
    exchange(&mut a, &mut b, now);
    assert!(a.is_established() && b.is_established());
    let (mut blocks, mut segments) = (0u64, 0u64);
    let per_block = per_call_s(win, || {
        now += SimDuration::from_millis(1);
        a.write(u64::from(wire::BLOCK_SIZE));
        blocks += 1;
        segments += exchange(&mut a, &mut b, now);
    });
    per_block * 1e9 * blocks as f64 / segments.max(1) as f64
}

fn reasm_ns_per_segment(win: Duration) -> f64 {
    let mut rng = SimRng::new(3);
    let mut order: Vec<u32> = (0..1000).collect();
    rng.shuffle(&mut order);
    per_call_s(win, || {
        let mut r = Reassembly::new(SeqNum(0));
        for &i in &order {
            r.on_data(SeqNum(i * 1460), 1460);
        }
        r.delivered_total()
    }) * 1e9
        / order.len() as f64
}

/// Nanoseconds per segment through the AM filter: one incoming data
/// segment observed, one outgoing piggybacked ACK filtered.
fn am_ns_per_segment(win: Duration) -> f64 {
    let mut f = AgeFilter::new(AmConfig::default());
    let mut now = SimTime::ZERO;
    let mut k = 0u32;
    let ack = SegFlags {
        ack: true,
        ..SegFlags::default()
    };
    per_call_s(win, || {
        k = k.wrapping_add(1460);
        now += SimDuration::from_micros(700);
        let seg = |seq, ackno| Segment {
            seq: SeqNum(seq),
            ack: SeqNum(ackno),
            flags: ack,
            payload: 1460,
            window: 128 * 1024,
        };
        f.on_incoming(&seg(k, 1), now);
        f.on_outgoing(seg(1, k), now)
    }) * 1e9
        / 2.0
}

fn lihd_ns_per_update(win: Duration) -> f64 {
    let mut lihd = Lihd::new(LihdConfig::paper(200.0 * 1024.0));
    let mut now = SimTime::ZERO;
    let mut k = 0u64;
    per_call_s(win, || {
        k += 1;
        now += SimDuration::from_secs(10);
        lihd.update(now, 40_000.0 + (k * 7919 % 20_000) as f64)
    }) * 1e9
}

/// Wall of a 256-peer, 60-second flow world with an enabled metrics
/// handle over the same world with a disabled one, minus 1. Best of two
/// on each side.
fn metrics_enabled_overhead_frac(size: Size) -> f64 {
    let peers = match size {
        Size::Full => 256,
        Size::Smoke => 32,
    };
    let run = |handle: MetricsHandle| {
        (0..2)
            .map(|_| {
                let mut b = scale::build(&ScaleParams::quick(), peers, 21, &handle);
                let t0 = Instant::now();
                b.world.run_until(SimTime::from_secs(60), |_| {});
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let off = run(MetricsHandle::disabled());
    let on = run(MetricsHandle::enabled(21));
    on / off - 1.0
}

fn metrics_disabled_op_ns(win: Duration) -> f64 {
    let counter = MetricsHandle::disabled().counter("bench.disabled");
    per_call_s(win, || black_box(&counter).inc()) * 1e9
}

/// Milliseconds per `InvariantChecker::check_flow` pass over the warmed
/// scale world (2048 peers at full size).
fn invariants_check_ms(size: Size) -> f64 {
    let win = window(size);
    let mut b = scale::setup(size, 0);
    b.world.run_until(SimTime::from_secs(20), |_| {});
    let mut checker = InvariantChecker::new();
    per_call_s(win, || checker.check_flow(&b.world)) * 1e3
}

/// Runs every micro-bench; `queue_depth` shapes the event-queue one
/// like the traced workload's peak depth.
pub fn run_all(size: Size, queue_depth: usize) -> BTreeMap<&'static str, f64> {
    let win = window(size);
    let (engine_full, engine_incr) = engine_solve_us(win);
    let (encode, decode) = wire_ns(win);
    BTreeMap::from([
        ("simnet.event.ns_per_op", event_ns_per_op(win, queue_depth)),
        ("simnet.event.cancel_ns", event_cancel_ns(win)),
        ("simnet.link.ns_per_packet", link_ns_per_packet(win)),
        ("simnet.wireless.ns_per_frame", wireless_ns_per_frame(win)),
        ("simulation.rates.maxmin_500_us", maxmin_500_us(win)),
        ("simulation.rates.engine_solve_full_us", engine_full),
        ("simulation.rates.engine_solve_incr_us", engine_incr),
        ("bittorrent.client.tick_us_50", client_tick_us_50(win)),
        (
            "bittorrent.client.loopback_blocks_per_s",
            client_loopback_blocks_per_s(win),
        ),
        ("bittorrent.choker.rechoke_us_50", choker_rechoke_us_50(win)),
        (
            "bittorrent.picker.rarest_us_2752",
            picker_us_2752(win, &mut RarestFirst),
        ),
        (
            "wp2p.ma.pick_us_2752",
            picker_us_2752(
                win,
                &mut MobilityAwarePicker::new(PrSchedule::DownloadedFraction),
            ),
        ),
        ("bittorrent.wire.encode_ns", encode),
        ("bittorrent.wire.decode_ns", decode),
        (
            "bittorrent.tracker.announce_ns_1k",
            tracker_announce_ns_1k(win),
        ),
        ("bittorrent.sha1.mb_per_s", sha1_mb_per_s(win)),
        ("bittorrent.bencode.decode_us", bencode_decode_us(win)),
        ("sim-tcp.endpoint.ns_per_segment", tcp_ns_per_segment(win)),
        ("sim-tcp.reasm.ns_per_segment", reasm_ns_per_segment(win)),
        ("wp2p.am.ns_per_segment", am_ns_per_segment(win)),
        ("wp2p.ia.lihd_ns_per_update", lihd_ns_per_update(win)),
        (
            "metrics.enabled_overhead_frac",
            metrics_enabled_overhead_frac(size),
        ),
        ("metrics.disabled_op_ns", metrics_disabled_op_ns(win)),
        (
            "simulation.invariants.check_ms_2k",
            invariants_check_ms(size),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_micro_bench_is_in_the_ledger_and_measures_something() {
        let values = run_all(Size::Smoke, 256);
        for (name, value) in &values {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} missing from spec::PER_LAYER"
            );
            if *name != "metrics.enabled_overhead_frac" {
                assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
            }
        }
        // The loop-back pair actually moves blocks.
        assert!(values["bittorrent.client.loopback_blocks_per_s"] > 1000.0);
    }
}
