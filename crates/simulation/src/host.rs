//! The client host both worlds share.
//!
//! wP2P changes one BitTorrent [`Client`], and both worlds run that
//! client over their own transport: TCP endpoints and wireless channels
//! in [`crate::packet`], the connection arena and max-min rate engine in
//! [`crate::flow`]. This module is what drives a client apart from its
//! transport:
//!
//! * [`Announcer`]: the announce request, the tracker-outage policy
//!   (circuit breaker or synthesized backoff retry) and its bookkeeping.
//!   A world only routes: the flow world adds latency, shards and
//!   replica failover; the packet world has one tracker.
//! * [`Oversight`]: the fault plan, the tracker outage it holds open, the
//!   invariant checker, and the blob tail that carries them.

use crate::invariants::{InvariantChecker, ARMED_BY_DEFAULT};
use bittorrent::client::Client;
use bittorrent::tracker::{AnnounceEvent, AnnounceRequest, AnnounceResponse};
use metrics::handle::MetricsHandle;
use simnet::addr::SimAddr;
use simnet::fault::{FaultHooks, FaultInjector, FaultPlan};
use simnet::rng::SimRng;
use simnet::snapshot::{snap_struct, Snap, SnapReader, SnapWriter};
use simnet::time::{SimDuration, SimTime};

/// One client's announce bookkeeping, kept across re-initiations.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Announcer {
    /// Consecutive failed announces: the step of the client's announce
    /// backoff the next synthesized retry takes.
    fails: u32,
    /// `min interval` of the last served announce, echoed by synthesized
    /// retries so an outage never paces faster than the tracker allowed
    /// (zero until served, which the client maps to its default floor).
    last_min_interval: SimDuration,
}

impl Announcer {
    /// Runs one `event` announce of `client`, reachable at `addr`.
    ///
    /// `serve` routes the request with a stream forked from `rng` at
    /// `streams.0 + now` and returns the response, or `None` when no
    /// tracker answers. An unanswered announce other than `Stopped` goes
    /// to the client's circuit breaker if it has one; any other client
    /// gets an empty response one backoff step out (drawn at `streams.1
    /// + now`). A served response resets the count, records its floor
    /// and, unless `Stopped`, reaches the client. Returns it.
    #[allow(clippy::too_many_arguments)] // the routing and its streams are explicit
    pub(crate) fn announce(
        &mut self,
        client: &mut Client,
        addr: SimAddr,
        event: AnnounceEvent,
        now: SimTime,
        rng: &SimRng,
        streams: (u64, u64),
        serve: impl FnOnce(&AnnounceRequest, &mut SimRng) -> Option<AnnounceResponse>,
    ) -> Option<AnnounceResponse> {
        let req = AnnounceRequest {
            info_hash: client.info_hash(),
            peer_id: client.peer_id(),
            addr,
            event,
            is_seed: client.is_seed(),
        };
        let at = now.as_micros();
        let Some(resp) = serve(&req, &mut rng.fork(streams.0 + at)) else {
            if event != AnnounceEvent::Stopped {
                let res = *client.resilience();
                if res.breaker_threshold > 0 {
                    client.on_announce_failed(now);
                } else {
                    let retry = AnnounceResponse {
                        interval: res
                            .announce
                            .delay(self.fails, &mut rng.fork(streams.1 + at)),
                        min_interval: self.last_min_interval,
                        peers: Vec::new(),
                        complete: 0,
                        incomplete: 0,
                    };
                    client.on_tracker_response(&retry, now);
                }
                self.fails = self.fails.saturating_add(1);
            }
            return None;
        };
        self.fails = 0;
        self.last_min_interval = resp.min_interval;
        if event != AnnounceEvent::Stopped {
            client.on_tracker_response(&resp, now);
        }
        Some(resp)
    }
}

snap_struct!(Announcer {
    fails,
    last_min_interval,
});

/// The fault plan a world replays, the tracker outage it holds open, and
/// the world's invariant checker.
pub(crate) struct Oversight {
    pub(crate) faults: FaultInjector,
    /// Announces fail while set.
    pub(crate) tracker_down: bool,
    /// Its history rides in the blob.
    pub(crate) checker: InvariantChecker,
    /// Whether each step ends with a check pass; not in the blob.
    pub(crate) armed: bool,
}

impl Oversight {
    pub(crate) fn new() -> Self {
        Oversight {
            faults: FaultInjector::default(),
            tracker_down: false,
            checker: InvariantChecker::new(),
            armed: ARMED_BY_DEFAULT,
        }
    }

    pub(crate) fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Applies `world`'s fault actions due at `now`; `this` finds its
    /// oversight.
    pub(crate) fn poll<W: FaultHooks>(world: &mut W, now: SimTime, this: fn(&mut W) -> &mut Self) {
        if this(world).faults.due(now) {
            let mut faults = std::mem::take(&mut this(world).faults);
            faults.poll(now, world);
            this(world).faults = faults;
        }
    }

    /// Ends a world's blob: fault cursor, checker history, metrics.
    pub(crate) fn save_tail(&self, mut w: SnapWriter, metrics: &MetricsHandle) -> Vec<u8> {
        self.faults.snap_cursor(&mut w);
        self.checker.snap(&mut w);
        metrics.snap_state(&mut w);
        w.into_bytes()
    }

    /// Reads [`Oversight::save_tail`]'s part; panics on trailing bytes.
    pub(crate) fn restore_tail(&mut self, r: &mut SnapReader<'_>, metrics: &MetricsHandle) {
        self.faults.unsnap_cursor(r);
        self.checker = Snap::unsnap(r);
        metrics.restore_state(r);
        assert!(r.is_exhausted(), "snapshot has trailing bytes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittorrent::client::{Action, ClientConfig};
    use bittorrent::lifecycle::ResilienceConfig;
    use bittorrent::metainfo::InfoHash;
    use bittorrent::peer_id::PeerId;
    use bittorrent::progress::TorrentProgress;

    const ADDR: SimAddr = SimAddr(7);
    const STREAMS: (u64, u64) = (1, 2);

    fn client(resilience: ResilienceConfig) -> Client {
        let config = ClientConfig {
            resilience,
            ..ClientConfig::default()
        };
        let progress = TorrentProgress::complete(64, 256);
        Client::with_progress(
            config,
            InfoHash([3; 20]),
            PeerId([1; 20]),
            progress,
            ADDR,
            SimRng::new(0),
        )
    }

    fn served(min_interval: u64) -> Option<AnnounceResponse> {
        Some(AnnounceResponse {
            interval: SimDuration::from_secs(900),
            min_interval: SimDuration::from_secs(min_interval),
            peers: Vec::new(),
            complete: 1,
            incomplete: 0,
        })
    }

    /// True when a tick at `at` makes `c` announce.
    fn announces_at(c: &mut Client, at: SimTime) -> bool {
        c.on_tick(at);
        let mut announced = false;
        while let Some(action) = c.poll_action() {
            announced |= matches!(action, Action::Announce { .. });
        }
        announced
    }

    #[test]
    fn outage_retries_climb_the_backoff_and_echo_the_served_floor() {
        let rng = SimRng::new(1);
        let mut c = client(ResilienceConfig::default());
        let mut a = Announcer::default();
        let mut at = SimTime::from_secs(1);
        let started = a.announce(
            &mut c,
            ADDR,
            AnnounceEvent::Started,
            at,
            &rng,
            STREAMS,
            |req, _| {
                assert_eq!(
                    (req.addr, req.is_seed, req.peer_id),
                    (ADDR, true, PeerId([1; 20]))
                );
                served(300)
            },
        );
        assert!(started.is_some());
        // The 300 s floor outlasts every step, so only the ladder paces.
        for step in [60, 120, 240, 240] {
            let lost = a.announce(
                &mut c,
                ADDR,
                AnnounceEvent::Periodic,
                at,
                &rng,
                STREAMS,
                |_, _| None,
            );
            assert!(lost.is_none());
            assert_eq!(
                c.min_reannounce(),
                SimDuration::from_secs(300),
                "floor echoed"
            );
            let due = at + SimDuration::from_secs(step);
            assert!(
                !announces_at(&mut c, due - SimDuration::from_secs(1)),
                "step {step} s"
            );
            assert!(announces_at(&mut c, due), "step {step} s");
            at = due;
        }
        assert_eq!((a.fails, c.announce_fail_streak()), (4, 0));
        a.announce(
            &mut c,
            ADDR,
            AnnounceEvent::Periodic,
            at,
            &rng,
            STREAMS,
            |_, _| served(90),
        );
        assert_eq!(
            (a.fails, a.last_min_interval),
            (0, SimDuration::from_secs(90))
        );
    }

    #[test]
    fn breaker_clients_get_the_failure_and_stopped_ones_nothing() {
        let rng = SimRng::new(1);
        let res = ResilienceConfig {
            breaker_threshold: 2,
            ..ResilienceConfig::default()
        };
        let mut c = client(res);
        let mut a = Announcer::default();
        let now = SimTime::from_secs(5);
        for _ in 0..2 {
            a.announce(
                &mut c,
                ADDR,
                AnnounceEvent::Periodic,
                now,
                &rng,
                STREAMS,
                |_, _| None,
            );
        }
        assert_eq!((a.fails, c.announce_fail_streak()), (2, 2));
        assert_eq!(c.stats().breaker_trips, 1);
        assert!(c.breaker_is_open());
        // A lost `Stopped` announce feeds no retry policy.
        a.announce(
            &mut c,
            ADDR,
            AnnounceEvent::Stopped,
            now,
            &rng,
            STREAMS,
            |_, _| None,
        );
        assert_eq!((a.fails, c.announce_fail_streak()), (2, 2));
        // A served one reaches the tracker but not the client.
        let stopped = a.announce(
            &mut c,
            ADDR,
            AnnounceEvent::Stopped,
            now,
            &rng,
            STREAMS,
            |_, _| served(60),
        );
        assert!(stopped.is_some());
        assert_eq!((a.fails, c.announce_fail_streak()), (0, 2));
    }
}
