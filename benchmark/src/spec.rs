//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, and the per-layer ledger. `BENCHMARK.json` at the
//! repository root is this table rendered (a unit test keeps them equal).

use metrics::json::Json;
use std::collections::BTreeMap;

/// What one run measures for, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 11;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, why)` of every workload, in round-robin order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "scale-2k",
        "One 2048-peer flow swarm, one giant component: rate solves, the flow-arena sweep and client ticks do the work; tracker, TCP and snapshots do almost none.",
    ),
    (
        "service",
        "98 small swarms on 4 tracker shards with flash crowds and a dark shard: incremental solving, tracker, client spawn/announce/dial and per-client memory dominate.",
    ),
    (
        "packet-swarm",
        "33-node full mesh in the packet world over lossy wireless legs with AM: TCP endpoint, wireless channel and event queue do all the work; the rate solver does none.",
    ),
    (
        "figures",
        "Fifteen pinned registry experiments at quick presets: ~90 short worlds of 2-60 peers, so world construction, small-swarm client logic and harness overhead dominate.",
    ),
    (
        "fork-2k",
        "The 2048-peer world used as data: save, rebuild, restore, resume in a chain; snapshot and construction cost are over half the wall, the hot loop is the rest.",
    ),
];

/// An end-to-end metric: what a user of the simulator sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "vsec_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// The fifteen experiments of the `figures` workload, pinned by name so
/// that registering a new experiment later does not change the workload.
pub const FIGURES: [&str; 15] = [
    "fig2a", "fig2bc", "fig3ab", "fig3c", "fig4a", "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab",
    "fig9c", "soak", "exploit", "erosion", "blackout",
];

/// A per-layer metric. Unit `count` marks a value that repeats exactly
/// for one seed and commit; `compare` checks those for equality.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The ledger. A workload that never enters a layer reports 0 for that
/// layer's metrics — the zeros are the evidence that workloads separate
/// the layers.
pub const PER_LAYER: &[PerLayer] = &[
    // From the traced repetition: counts through public accessors and
    // host time of the benchmark's own spans.
    pl("simulation.flow.events", "count", Lower),
    pl("simulation.flow.us_per_event", "us", Lower),
    pl("simulation.flow.slice_ms_p50", "ms", Lower),
    pl("simulation.flow.slice_ms_p95", "ms", Lower),
    pl("simulation.flow.slice_ms_max", "ms", Lower),
    pl("simulation.flow.join_share", "share", Lower),
    pl("simulation.flow.kb_per_task", "KB", Lower),
    pl("simulation.flow.stall_aborts", "count", Lower),
    pl("simulation.flow.completed_frac", "share", Higher),
    pl("simulation.flow.mean_progress", "share", Higher),
    pl("simulation.flow.build_ms", "ms", Lower),
    pl("simulation.rates.solves", "count", Lower),
    pl("simulation.rates.skips", "count", Higher),
    pl("simulation.rates.full_solves", "count", Lower),
    pl("simulation.rates.incremental_solves", "count", Lower),
    pl("simulation.rates.class_solves", "count", Lower),
    pl("simulation.rates.resources_touched", "count", Lower),
    pl("simulation.rates.touched_per_solve", "count", Lower),
    pl("simnet.event.scheduled", "count", Lower),
    pl("simnet.event.cancelled", "count", Lower),
    pl("simnet.event.cancel_noops", "count", Lower),
    pl("simnet.event.depth_peak", "count", Lower),
    pl("simnet.event.est_share", "share", Lower),
    pl("bittorrent.tracker.announces", "count", Lower),
    pl("bittorrent.tracker.sheds", "count", Lower),
    pl("simnet.snapshot.save_ms", "ms", Lower),
    pl("simnet.snapshot.restore_ms", "ms", Lower),
    pl("simnet.snapshot.blob_mb", "MB", Lower),
    pl("simnet.snapshot.share", "share", Lower),
    pl("simulation.packet.events", "count", Lower),
    pl("simulation.packet.us_per_event", "us", Lower),
    pl("simulation.packet.slice_ms_p50", "ms", Lower),
    pl("simulation.packet.slice_ms_p95", "ms", Lower),
    pl("simulation.packet.slice_ms_max", "ms", Lower),
    pl("simulation.packet.conns", "count", Lower),
    pl("simulation.packet.goodput_mb", "MB", Higher),
    pl("sim-tcp.endpoint.data_segments", "count", Lower),
    pl("sim-tcp.endpoint.pure_acks", "count", Lower),
    pl("sim-tcp.endpoint.retransmissions", "count", Lower),
    pl("sim-tcp.endpoint.dupacks", "count", Lower),
    pl("simnet.wireless.frames_delivered", "count", Higher),
    pl("simnet.wireless.drops_buffer", "count", Lower),
    pl("simnet.wireless.drops_error", "count", Lower),
    pl("wp2p.am.decoupled", "count", Higher),
    pl("wp2p.am.dupacks_dropped", "count", Higher),
    pl("simulation.experiments.fig2a_s", "s", Lower),
    pl("simulation.experiments.fig2bc_s", "s", Lower),
    pl("simulation.experiments.fig3ab_s", "s", Lower),
    pl("simulation.experiments.fig3c_s", "s", Lower),
    pl("simulation.experiments.fig4a_s", "s", Lower),
    pl("simulation.experiments.fig4bc_s", "s", Lower),
    pl("simulation.experiments.fig8a_s", "s", Lower),
    pl("simulation.experiments.fig8b_s", "s", Lower),
    pl("simulation.experiments.fig8c_s", "s", Lower),
    pl("simulation.experiments.fig9ab_s", "s", Lower),
    pl("simulation.experiments.fig9c_s", "s", Lower),
    pl("simulation.experiments.soak_s", "s", Lower),
    pl("simulation.experiments.exploit_s", "s", Lower),
    pl("simulation.experiments.erosion_s", "s", Lower),
    pl("simulation.experiments.blackout_s", "s", Lower),
    pl("simulation.experiments.panics", "count", Lower),
    pl("simulation.harness.cells", "count", Lower),
    pl("simulation.harness.parallel_speedup", "x", Higher),
    pl("trace_overhead_frac", "share", Lower),
    // From the layer micro-benches: workload-independent, inputs shaped
    // like the workloads.
    pl("simnet.event.ns_per_op", "ns", Lower),
    pl("simnet.event.cancel_ns", "ns", Lower),
    pl("simnet.link.ns_per_packet", "ns", Lower),
    pl("simnet.wireless.ns_per_frame", "ns", Lower),
    pl("simulation.rates.maxmin_500_us", "us", Lower),
    pl("simulation.rates.engine_solve_full_us", "us", Lower),
    pl("simulation.rates.engine_solve_incr_us", "us", Lower),
    pl("bittorrent.client.tick_us_50", "us", Lower),
    pl("bittorrent.client.loopback_blocks_per_s", "1/s", Higher),
    pl("bittorrent.choker.rechoke_us_50", "us", Lower),
    pl("bittorrent.picker.rarest_us_2752", "us", Lower),
    pl("wp2p.ma.pick_us_2752", "us", Lower),
    pl("bittorrent.wire.encode_ns", "ns", Lower),
    pl("bittorrent.wire.decode_ns", "ns", Lower),
    pl("bittorrent.tracker.announce_ns_1k", "ns", Lower),
    pl("bittorrent.sha1.mb_per_s", "MB/s", Higher),
    pl("bittorrent.bencode.decode_us", "us", Lower),
    pl("sim-tcp.endpoint.ns_per_segment", "ns", Lower),
    pl("sim-tcp.reasm.ns_per_segment", "ns", Lower),
    pl("wp2p.am.ns_per_segment", "ns", Lower),
    pl("wp2p.ia.lihd_ns_per_update", "ns", Lower),
    pl("metrics.enabled_overhead_frac", "share", Lower),
    pl("metrics.disabled_op_ns", "ns", Lower),
    pl("simulation.invariants.check_ms_2k", "ms", Lower),
];

/// A JSON object from literal fields.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(BTreeMap::from(fields.map(|(k, v)| (k.to_string(), v))))
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Json {
    obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(s)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| obj([("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for &(name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for f in FIGURES {
            let name = format!("simulation.experiments.{f}_s");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), benchmark_json());
    }
}
