//! Tier-1 durability matrix: kill the connection mid-stream at a
//! pseudo-random point for every detector kind × four seeds, resume via
//! the token, and require the final summary to be **byte-identical** to an
//! uninterrupted in-process run of the same events — with exact
//! outcome-ledger accounting (one park, one resume, one finish, nothing
//! degraded, nothing poisoned).

use std::time::Duration;

use dsm::addr::GlobalAddr;
use dsm_service::frame::WireEvent;
use dsm_service::server::{ServeConfig, Server, SessionOutcome};
use dsm_service::{RetryPolicy, ServiceClient};
use race_core::api::{DetectorConfig, SummarySink};
use race_core::clockstore::Granularity;
use race_core::detector::DetectorKind;
use race_core::event::{DsmOp, LockId, OpKind};

const N: usize = 4;

/// Deterministic generator (same LCG family the chaos layer uses).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

const LOCKS: [LockId; 2] = [(0, 0), (1, 64)];

/// A mixed wire workload: racing puts/gets laced with barriers and lock
/// transitions so the resumed session must restore every clock species.
fn workload(len: usize, seed: u64) -> Vec<WireEvent> {
    let mut rng = Lcg(seed);
    let mut held = [false; LOCKS.len()];
    let mut events = Vec::with_capacity(len);
    for i in 0..len {
        let roll = rng.pick(100);
        if roll < 6 {
            events.push(WireEvent::Barrier);
            continue;
        }
        if roll < 14 {
            let which = rng.pick(LOCKS.len());
            let rank = rng.pick(N);
            if held[which] {
                held[which] = false;
                events.push(WireEvent::Release {
                    rank,
                    lock: LOCKS[which],
                });
            } else {
                held[which] = true;
                events.push(WireEvent::Acquire {
                    rank,
                    lock: LOCKS[which],
                });
            }
            continue;
        }
        let actor = rng.pick(N);
        let target = GlobalAddr::public(rng.pick(N), 8 * rng.pick(10)).range(8);
        let kind = match rng.pick(3) {
            0 => OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(8),
                dst: target,
            },
            1 => OpKind::Get {
                src: target,
                dst: GlobalAddr::private(actor, 0).range(8),
            },
            _ => OpKind::AtomicRmw { range: target },
        };
        events.push(WireEvent::Op(DsmOp {
            op_id: i as u64,
            actor,
            kind,
        }));
    }
    events
}

fn cell_config(kind: DetectorKind) -> DetectorConfig {
    DetectorConfig::new(kind, N).with_granularity(Granularity::WORD)
}

/// The uninterrupted twin: the same events through a plain in-process
/// session with the same sink the server defaults to.
fn twin_json(config: &DetectorConfig, events: &[WireEvent]) -> String {
    let mut session = config
        .clone()
        .session_with(Box::new(SummarySink::default()));
    for ev in events {
        session.apply(ev, &[]);
    }
    session.finish().0.to_json()
}

#[test]
fn killed_mid_stream_sessions_resume_byte_identical_across_the_matrix() {
    for kind in DetectorKind::ALL {
        for round in 1..=4u64 {
            let seed = 0x5E55_10F1 ^ (round << 40) ^ kind.label().len() as u64;
            let events = workload(140, seed);
            let config = cell_config(kind);

            // Kill points: one or two pseudo-random cuts per cell.
            let mut rng = Lcg(seed.rotate_left(23));
            let mut cuts = vec![10 + rng.pick(events.len() - 20)];
            if rng.pick(2) == 1 {
                let second = cuts[0] + 1 + rng.pick(events.len() - cuts[0] - 2);
                cuts.push(second);
            }

            let server = Server::bind(
                "127.0.0.1:0",
                ServeConfig {
                    checkpoint_every: 16,
                    idle_timeout: Duration::from_secs(10),
                    ..ServeConfig::default()
                },
            )
            .expect("bind");

            let mut client = ServiceClient::connect(server.local_addr(), &config).expect("connect");
            client.set_retry_policy(RetryPolicy {
                attempts: 8,
                base_delay: Duration::from_millis(2),
            });
            let session_id = client.session_id();

            for (i, ev) in events.iter().enumerate() {
                if cuts.contains(&i) {
                    client.drop_connection();
                    // Give the server a beat to notice the dead socket and
                    // park the session before the reconnect dials in.
                    std::thread::sleep(Duration::from_millis(50));
                }
                client
                    .send(ev)
                    .unwrap_or_else(|e| panic!("{kind:?}/{round}: send {i} failed: {e}"));
            }
            assert_eq!(
                client.reconnects(),
                cuts.len() as u64,
                "{kind:?}/{round}: every cut must have healed via resume"
            );
            assert_eq!(
                client.session_id(),
                session_id,
                "{kind:?}/{round}: session identity survives the reconnects"
            );

            let remote = client
                .finish()
                .unwrap_or_else(|e| panic!("{kind:?}/{round}: finish failed: {e}"));
            assert!(
                !remote.summary.degraded,
                "{kind:?}/{round}: a resumed session is lossless, not degraded"
            );
            assert_eq!(
                remote.raw_json,
                twin_json(&config, &events),
                "{kind:?}/{round}: resumed summary must be byte-identical"
            );

            // Exact ledger accounting: every cut parked then resumed; the
            // one logical session finished cleanly; nothing else happened.
            let report = server.shutdown();
            assert_eq!(report.stats.parked, cuts.len() as u64, "{kind:?}/{round}");
            assert_eq!(report.stats.resumed, cuts.len() as u64, "{kind:?}/{round}");
            assert_eq!(report.stats.finished, 1, "{kind:?}/{round}");
            assert_eq!(report.stats.hangups, 0, "{kind:?}/{round}");
            assert_eq!(report.stats.poisoned, 0, "{kind:?}/{round}");
            assert_eq!(report.stats.degraded_sessions(), 0, "{kind:?}/{round}");
            let finished = report.with_outcome(SessionOutcome::Finished);
            assert_eq!(finished.len(), 1, "{kind:?}/{round}");
            assert_eq!(finished[0].session, session_id, "{kind:?}/{round}");
            assert_eq!(
                finished[0].events,
                events.len() as u64,
                "{kind:?}/{round}: no event lost or duplicated across cuts"
            );
            assert_eq!(
                finished[0].summary_json,
                twin_json(&config, &events),
                "{kind:?}/{round}: ledger summary byte-identical too"
            );
        }
    }
}

/// An unresumed park expires: the reaper finalises it as a hangup with the
/// checkpointed event count, and a late resume attempt is refused.
#[test]
fn expired_park_is_reaped_into_a_hangup() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            park_ttl: Duration::from_millis(100),
            ..ServeConfig::default()
        },
    )
    .expect("bind");

    let config = cell_config(DetectorKind::Dual);
    let mut client = ServiceClient::connect(server.local_addr(), &config).expect("connect");
    let events = workload(20, 0xA11CE);
    for ev in &events {
        client.send(ev).expect("send");
    }
    // Make sure everything is applied before the hangup, then vanish.
    let health = client.ping().expect("ping");
    assert_eq!(health.events, events.len() as u64);
    drop(client);

    // Past the TTL the reaper must have finalised the park.
    std::thread::sleep(Duration::from_millis(400));
    let report = server.shutdown();
    assert_eq!(report.stats.parked, 1);
    assert_eq!(report.stats.resumed, 0);
    assert_eq!(report.stats.hangups, 1);
    let hung = report.with_outcome(SessionOutcome::Hangup);
    assert_eq!(hung.len(), 1);
    assert!(hung[0].degraded);
    assert_eq!(hung[0].events, events.len() as u64);
    assert!(hung[0].summary_json.contains("\"degraded\":true"));
}
