//! End-to-end behaviour of the detection service: parity with in-process
//! sessions, and one test per way a client can go wrong — the server must
//! degrade exactly the offending session and nothing else.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dsm::addr::GlobalAddr;
use dsm_service::frame::{append_frame, read_frame, ClientFrame, ServerFrame, WireEvent};
use dsm_service::server::{ServeConfig, Server, SessionOutcome};
use dsm_service::{ClientError, ServiceClient};
use race_core::api::{ChannelSink, ReportSink, SummarySink};
use race_core::{DetectorConfig, DetectorKind, DsmOp, OpKind, RaceReport};

const N: usize = 4;

fn config() -> DetectorConfig {
    DetectorConfig::new(DetectorKind::Dual, N)
}

/// A deterministic racing workload: ranks 0 and 1 both put to the same
/// public words on rank 2 with no synchronisation — every word is a race.
fn racing_events(words: usize, base_op: u64) -> Vec<WireEvent> {
    let mut events = Vec::new();
    let mut op_id = base_op;
    for w in 0..words {
        for actor in 0..2usize {
            let src = GlobalAddr::private(actor, 64 * w).range(8);
            let dst = GlobalAddr::public(2, 8 * w).range(8);
            events.push(WireEvent::Op(DsmOp {
                op_id,
                actor,
                kind: OpKind::Put { src, dst },
            }));
            op_id += 1;
        }
    }
    events
}

/// The in-process twin: the same events through a plain `Session`.
fn in_process_json(events: &[WireEvent]) -> String {
    let mut session = config().session_with(Box::new(SummarySink::default()));
    for ev in events {
        session.apply(ev);
    }
    session.finish().0.to_json()
}

fn quick_serve_config() -> ServeConfig {
    ServeConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServeConfig::default()
    }
}

#[test]
fn clean_session_matches_in_process_run_byte_for_byte() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    let events = racing_events(6, 1);

    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();

    assert!(remote.summary.total > 0, "workload must actually race");
    assert!(!remote.summary.degraded);
    assert_eq!(remote.shed, 0);
    assert_eq!(
        remote.raw_json,
        in_process_json(&events),
        "remote summary must be byte-identical to the in-process twin"
    );

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.degraded_sessions(), 0);
}

#[test]
fn ping_reports_session_health_midstream() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in racing_events(3, 1) {
        client.send(&ev).unwrap();
    }
    let health = client.ping().unwrap();
    assert_eq!(health.events, 6, "3 words x 2 racing puts");
    assert!(!health.degraded);
    assert!(health.reports > 0);
    client.finish().unwrap();
    server.shutdown();
}

#[test]
fn garbage_bytes_poison_only_their_session() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();

    // A hostile connection: valid length prefix, garbage payload.
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile.write_all(&9u32.to_le_bytes()).unwrap();
    hostile.write_all(&[0xff; 9]).unwrap();
    hostile.flush().unwrap();

    // A clean session on the same server, concurrently.
    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert_eq!(remote.raw_json, in_process_json(&events));

    drop(hostile);
    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.poisoned, 1);
    assert!(report.stats.frames_rejected >= 1);
    let poisoned = report.with_outcome(SessionOutcome::Poisoned);
    assert_eq!(poisoned.len(), 1);
    assert!(poisoned[0].degraded);
}

#[test]
fn a_hello_sized_to_exhaust_memory_poisons_only_its_session() {
    // Two Hellos that used to abort the whole server process on allocation
    // failure, past both catch_unwinds. 4096 processes (n matrix clocks of
    // n x n words at construction) is still refused at the handshake. A
    // dense slab prefix of 2^64 blocks plus one put far out in the segment
    // (the first touch resized the dense array to the block index) no
    // longer sizes anything: the key is ignored, the store's dense bound is
    // fixed, and the far put spills into one map entry. (The configs carry
    // the three keys of the retired pipeline as well, so the same bytes
    // reproduce the abort on a server from before the bounds.)
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    let far_put = WireEvent::Op(DsmOp {
        op_id: 1,
        actor: 0,
        kind: OpKind::Put {
            src: GlobalAddr::private(0, 0).range(8),
            dst: GlobalAddr::public(1, 8 << 36).range(8),
        },
    });
    let huge_dense = r#"{"kind":"dual-clock","n":4,"granularity":8,"shards":1,"pipeline":"auto","dense_blocks":18446744073709551615,"batch":0}"#;
    let huge_n = r#"{"kind":"dual-clock","n":4096,"granularity":8,"shards":1,"pipeline":"auto","dense_blocks":65536,"batch":0}"#;

    // An innocent session, open across both.
    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    client.send(&events[0]).unwrap();

    let hostile = |config_json: &str, frames: &[ClientFrame]| {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = ClientFrame::Hello {
            config_json: config_json.to_string(),
        };
        write_frames(&mut stream, &[&[hello][..], frames].concat());
        stream
    };

    let mut refused = hostile(huge_n, &[ClientFrame::Event(far_put)]);
    match ServerFrame::decode(&read_frame(&mut refused).unwrap()).unwrap() {
        ServerFrame::Error { message } => assert!(
            message.starts_with("bad detector config: ") && message.contains("out of range"),
            "got {message:?}"
        ),
        other => panic!("wanted an error frame, got {other:?}"),
    }

    let mut accepted = hostile(
        huge_dense,
        &[ClientFrame::Event(far_put), ClientFrame::Finish],
    );
    match ServerFrame::decode(&read_frame(&mut accepted).unwrap()).unwrap() {
        ServerFrame::HelloAck { .. } => {}
        other => panic!("wanted hello-ack, got {other:?}"),
    }
    let mut twin = DetectorConfig::from_json(huge_dense)
        .unwrap()
        .session_with(Box::new(SummarySink::default()));
    twin.apply(&far_put);
    // One area, two clocks of four words: the far put touched one entry.
    assert_eq!(twin.clock_memory_bytes(), 2 * N * 8);
    match ServerFrame::decode(&read_frame(&mut accepted).unwrap()).unwrap() {
        ServerFrame::Summary { shed, json } => {
            assert_eq!(shed, 0);
            assert_eq!(json, twin.finish().0.to_json());
        }
        other => panic!("wanted a summary, got {other:?}"),
    }

    for ev in &events[1..] {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert_eq!(remote.raw_json, in_process_json(&events));
    assert!(!remote.summary.degraded);

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 2);
    assert_eq!(report.stats.poisoned, 1);
    assert_eq!(report.stats.panics_supervised, 0);
    let poisoned = report.with_outcome(SessionOutcome::Poisoned);
    assert_eq!(poisoned.len(), 1);
    let error = poisoned[0].error.as_deref().unwrap_or_default();
    assert!(error.starts_with("bad detector config: "), "got {error:?}");
}

#[test]
fn a_hello_naming_the_retired_lockset_kind_gets_an_error_frame() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();

    // A Dual session, open across the refused Hello.
    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    client.send(&events[0]).unwrap();

    let mut refused = TcpStream::connect(server.local_addr()).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = ClientFrame::Hello {
        config_json: r#"{"kind":"lockset","n":4,"granularity":8}"#.to_string(),
    };
    write_frames(&mut refused, &[hello]);
    match ServerFrame::decode(&read_frame(&mut refused).unwrap()).unwrap() {
        ServerFrame::Error { message } => assert!(
            message.starts_with("bad detector config: ")
                && message.contains(r#"unknown detector kind "lockset""#),
            "got {message:?}"
        ),
        other => panic!("wanted an error frame, got {other:?}"),
    }

    for ev in &events[1..] {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert!(!remote.summary.degraded);
    assert_eq!(remote.raw_json, in_process_json(&events));

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.poisoned, 1);
}

/// The wire carries no held locks, and no served kind needs them: four
/// puts to P1's word 0 (P0, P2, P0, P2), each inside an `Acquire` /
/// `Release` of lock `(1, 0)`, are race-free to every clock-based kind,
/// served or in process.
#[test]
fn lock_protected_puts_are_silent_served_and_in_process() {
    const LOCK: race_core::LockId = (1, 0);
    let events: Vec<WireEvent> = [0usize, 2, 0, 2]
        .into_iter()
        .enumerate()
        .flat_map(|(op_id, rank)| {
            let put = DsmOp {
                op_id: op_id as u64,
                actor: rank,
                kind: OpKind::Put {
                    src: GlobalAddr::private(rank, 0).range(8),
                    dst: GlobalAddr::public(1, 0).range(8),
                },
            };
            [
                WireEvent::Acquire { rank, lock: LOCK },
                WireEvent::Op(put),
                WireEvent::Release { rank, lock: LOCK },
            ]
        })
        .collect();

    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    for kind in [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
    ] {
        let config = DetectorConfig::new(kind, 3);
        let mut client = ServiceClient::connect(server.local_addr(), &config).unwrap();
        for ev in &events {
            client.send(ev).unwrap();
        }
        let remote = client.finish().unwrap();

        let mut session = config.session_with(Box::new(SummarySink::default()));
        for ev in &events {
            session.apply(ev);
        }
        let local = session.finish().0;

        assert_eq!(local.total, 0, "{kind:?} in process");
        assert_eq!(remote.summary.total, 0, "{kind:?} served");
        assert_eq!(remote.raw_json, local.to_json(), "{kind:?}");
    }
    server.shutdown();
}

#[test]
fn an_event_outside_the_sessions_ranks_poisons_only_its_session() {
    // A well-formed event whose ranks the Hello never announced. The clock
    // store grows its per-rank slab list to any rank it is handed, so a put
    // to rank 2^32 - 1 used to ask for hundreds of GB and abort the whole
    // process — every session in it — past both catch_unwinds. Each of the
    // ranks an event can name is refused where the worker applies events.
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    let far = u32::MAX as usize;
    let put = |actor, src_rank, dst_rank| {
        WireEvent::Op(DsmOp {
            op_id: 1,
            actor,
            kind: OpKind::Put {
                src: GlobalAddr::private(src_rank, 0).range(8),
                dst: GlobalAddr::public(dst_rank, 0).range(8),
            },
        })
    };
    let hostile_events = [
        (put(0, 0, far), "destination"),
        (put(far, 0, 1), "actor"),
        (put(0, far, 1), "source"),
        (put(0, 0, N), "destination"), // the first rank past the end
        (
            WireEvent::Acquire {
                rank: 0,
                lock: (far, 0),
            },
            "lock",
        ),
        (
            WireEvent::Release {
                rank: far,
                lock: (1, 0),
            },
            "actor",
        ),
    ];

    // An innocent session, open across every attack.
    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    client.send(&events[0]).unwrap();

    for (event, what) in hostile_events {
        let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = ClientFrame::Hello {
            config_json: config().to_json(),
        };
        write_frames(&mut hostile, &[hello, ClientFrame::Event(event)]);
        let ack = ServerFrame::decode(&read_frame(&mut hostile).unwrap()).unwrap();
        assert!(matches!(ack, ServerFrame::HelloAck { .. }), "got {ack:?}");
        match ServerFrame::decode(&read_frame(&mut hostile).unwrap()).unwrap() {
            ServerFrame::Error { message } => assert!(
                message.starts_with(&format!("event {what} rank "))
                    && message.contains("out of range for 4 processes"),
                "got {message:?}"
            ),
            other => panic!("wanted an error frame, got {other:?}"),
        }
    }

    for ev in &events[1..] {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert_eq!(remote.raw_json, in_process_json(&events));
    assert!(!remote.summary.degraded);

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.poisoned, 6);
    assert_eq!(report.stats.panics_supervised, 0);
    for record in report.with_outcome(SessionOutcome::Poisoned) {
        assert_eq!(record.events, 0, "the hostile event was never applied");
        let error = record.error.as_deref().unwrap_or_default();
        assert!(error.contains("out of range for 4 processes"), "{error:?}");
    }
}

#[test]
fn a_range_that_overflows_the_address_space_poisons_only_its_session() {
    // The wire carries a 64-bit offset and a 32-bit length: their sum is
    // the client's to overflow. The detector used to clock *no* area for
    // such a range in release (two unordered writes, no report) and to
    // panic on the addition in debug; the range is refused at the door.
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    client.send(&events[0]).unwrap();

    let wrapping = GlobalAddr::public(1, usize::MAX - 3).range(8);
    let hostile_events = [
        (
            OpKind::Put {
                src: GlobalAddr::private(0, 0).range(8),
                dst: wrapping,
            },
            "destination",
        ),
        (OpKind::LocalWrite { range: wrapping }, "target"),
    ];
    for (kind, what) in hostile_events {
        let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = ClientFrame::Hello {
            config_json: config().to_json(),
        };
        let event = WireEvent::Op(DsmOp {
            op_id: 1,
            actor: 1,
            kind,
        });
        write_frames(&mut hostile, &[hello, ClientFrame::Event(event)]);
        let ack = ServerFrame::decode(&read_frame(&mut hostile).unwrap()).unwrap();
        assert!(matches!(ack, ServerFrame::HelloAck { .. }), "got {ack:?}");
        match ServerFrame::decode(&read_frame(&mut hostile).unwrap()).unwrap() {
            ServerFrame::Error { message } => assert_eq!(
                message,
                format!(
                    "event {what} range of 8 bytes at offset {} overflows the address space",
                    usize::MAX - 3
                )
            ),
            other => panic!("wanted an error frame, got {other:?}"),
        }
    }

    for ev in &events[1..] {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert_eq!(remote.raw_json, in_process_json(&events));

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.poisoned, 2);
    assert_eq!(report.stats.panics_supervised, 0);
    for record in report.with_outcome(SessionOutcome::Poisoned) {
        assert_eq!(record.events, 0, "the hostile event was never applied");
    }
}

#[test]
fn mid_stream_hangup_degrades_that_session_only() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();

    let mut doomed = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in racing_events(2, 1) {
        doomed.send(&ev).unwrap();
    }
    drop(doomed); // vanish without Finish

    // Server must still accept and complete new sessions.
    let events = racing_events(4, 100);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        client.send(ev).unwrap();
    }
    assert_eq!(client.finish().unwrap().raw_json, in_process_json(&events));

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.hangups, 1);
    let hung = report.with_outcome(SessionOutcome::Hangup);
    assert_eq!(hung.len(), 1);
    assert!(hung[0].degraded);
    assert_eq!(hung[0].events, 4, "events before the hangup still counted");
}

#[test]
fn injected_panic_recovers_in_place_from_checkpoint() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            panic_on_op_id: Some(3),
            ..quick_serve_config()
        },
    )
    .unwrap();

    // The worker panics on op 3, rebuilds the session from its checkpoint +
    // journal, applies op 3 exactly once, and the stream completes with the
    // full workload's summary — degraded, because a panic happened.
    let events = racing_events(4, 1);
    let mut victim = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        victim.send(ev).unwrap();
    }
    let remote = victim.finish().unwrap();
    assert!(remote.summary.degraded, "a panicked session must degrade");
    assert!(
        remote
            .error
            .as_deref()
            .unwrap()
            .contains("injected session panic"),
        "panic must be reported: {:?}",
        remote.error
    );
    // Everything but the degraded flag matches the uninterrupted twin: the
    // recovery replayed the stream, it did not truncate it.
    let mut twin = race_core::RaceSummary::from_json(&in_process_json(&events)).unwrap();
    twin.degraded = true;
    assert_eq!(remote.raw_json, twin.to_json());

    // The accept loop survived: a fresh clean session still works
    // (op ids chosen to dodge the injected panic, which is one-shot anyway).
    let clean = racing_events(4, 100);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &clean {
        client.send(ev).unwrap();
    }
    assert_eq!(client.finish().unwrap().raw_json, in_process_json(&clean));

    let report = server.shutdown();
    assert_eq!(report.stats.panics_supervised, 1);
    assert_eq!(report.stats.finished, 2, "the victim finished too");
    assert!(
        report.with_outcome(SessionOutcome::Panicked).is_empty(),
        "a recovered panic is not a terminal outcome"
    );
    let finished = report.with_outcome(SessionOutcome::Finished);
    let degraded_finished: Vec<_> = finished.iter().filter(|r| r.degraded).collect();
    assert_eq!(degraded_finished.len(), 1, "exactly the victim is degraded");
    assert_eq!(degraded_finished[0].events, 8);
    assert!(degraded_finished[0]
        .error
        .as_deref()
        .unwrap()
        .contains("injected session panic"));
}

#[test]
fn idle_session_is_reaped() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in racing_events(2, 1) {
        client.send(&ev).unwrap();
    }
    // Go silent; the server must reap us and say why.
    std::thread::sleep(Duration::from_millis(600));
    match client.finish() {
        Ok(remote) => {
            assert!(remote.summary.degraded);
            assert!(remote.error.is_some());
        }
        Err(ClientError::Io(_)) | Err(ClientError::Frame(_)) => {
            // Connection already closed by the reap — fine.
        }
        Err(ClientError::Rejected(msg)) => {
            // The auto-reconnect presented its token, but a *reaped* session
            // is terminal, not parked — the refusal is the typed proof.
            assert!(msg.contains("resume token"), "unexpected rejection: {msg}");
        }
        Err(e) => panic!("unexpected client error: {e}"),
    }

    let report = server.shutdown();
    assert_eq!(report.stats.reaped, 1);
    let reaped = report.with_outcome(SessionOutcome::Reaped);
    assert_eq!(reaped.len(), 1);
    assert!(reaped[0].degraded);
    assert_eq!(reaped[0].events, 4, "events before the stall still counted");
}

/// A sink that sleeps per report: makes the session worker measurably
/// slower than the socket reader, forcing the bounded queue full.
#[derive(Debug)]
struct SlowSink {
    inner: SummarySink,
    delay: Duration,
}

impl ReportSink for SlowSink {
    fn on_report(&mut self, report: &RaceReport) {
        std::thread::sleep(self.delay);
        self.inner.on_report(report);
    }
}

#[test]
fn block_policy_sheds_nothing_under_the_same_pressure() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            queue_capacity: 1,
            sink_factory: Some(Arc::new(|| {
                Box::new(SlowSink {
                    inner: SummarySink::default(),
                    delay: Duration::from_micros(500),
                })
            })),
            ..quick_serve_config()
        },
    )
    .unwrap();

    let events = racing_events(32, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert_eq!(remote.shed, 0, "back-pressure loses nothing");
    assert!(!remote.summary.degraded);
    assert_eq!(remote.raw_json, in_process_json(&events));
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_live_sessions() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();

    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in racing_events(5, 1) {
        client.send(&ev).unwrap();
    }
    // No Finish: the session is live when shutdown starts.
    let report = server.shutdown();
    assert_eq!(report.stats.drained, 1);
    let drained = report.with_outcome(SessionOutcome::Drained);
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].events, 10, "all pre-shutdown events applied");
    assert!(
        !drained[0].degraded,
        "a graceful drain is not a fault: summary covers everything received"
    );
    assert_eq!(
        drained[0].summary_json,
        in_process_json(&racing_events(5, 1)),
        "drained summary equals the in-process twin of the received prefix"
    );
}

/// Satellite regression: a `ChannelSink` whose receiver hangs up must not
/// take the per-session worker thread (or the server) down — dropped
/// reports are counted by the sink and the session still finishes cleanly.
#[test]
fn channel_sink_receiver_hangup_is_survived_by_session_worker() {
    let dropped_counts: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_factory = {
        let counts = Arc::clone(&dropped_counts);
        move || -> Box<dyn ReportSink> {
            let (tx, rx) = mpsc::channel();
            drop(rx); // receiver gone before the first report
            Box::new(HangupProbe {
                inner: ChannelSink::new(tx),
                counts: Arc::clone(&counts),
            })
        }
    };

    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            sink_factory: Some(Arc::new(sink_factory)),
            ..quick_serve_config()
        },
    )
    .unwrap();

    let events = racing_events(4, 1);
    let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in &events {
        client.send(ev).unwrap();
    }
    let remote = client.finish().unwrap();
    assert!(
        !remote.summary.degraded,
        "a hung-up report consumer must not degrade detection"
    );
    assert_eq!(
        remote.raw_json,
        in_process_json(&events),
        "summary comes from the session tee, independent of the sink's fate"
    );

    let report = server.shutdown();
    assert_eq!(report.stats.finished, 1);
    assert_eq!(report.stats.panics_supervised, 0);
    let counts = dropped_counts.lock().unwrap();
    assert!(
        counts.iter().any(|&c| c > 0),
        "ChannelSink must have counted dropped reports: {counts:?}"
    );
}

/// Satellite regression: the shutdown ledger is bounded. Overflow evicts
/// the *oldest* records FIFO and counts them — mirroring the `DedupSink`
/// bound — so a long-lived server cannot grow without limit.
#[test]
fn ledger_is_bounded_with_fifo_eviction_and_counter() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            ledger_capacity: 3,
            ..quick_serve_config()
        },
    )
    .unwrap();

    // Five clean sessions, one event each, strictly sequential so the
    // ledger order is deterministic.
    for i in 0..5u64 {
        let mut client = ServiceClient::connect(server.local_addr(), &config()).unwrap();
        client
            .send(&WireEvent::Op(DsmOp {
                op_id: 1000 + i,
                actor: 0,
                kind: OpKind::LocalRead {
                    range: GlobalAddr::public(1, 0).range(8),
                },
            }))
            .unwrap();
        client.finish().unwrap();
    }

    let report = server.shutdown();
    assert_eq!(
        report.stats.finished, 5,
        "eviction loses records, not stats"
    );
    assert_eq!(report.sessions.len(), 3, "ledger capped at capacity");
    assert_eq!(report.evicted_records, 2, "evictions are counted");
    let ids: Vec<u64> = report.sessions.iter().map(|r| r.session).collect();
    assert_eq!(ids, vec![3, 4, 5], "oldest records evicted first");
}

/// Wait until the server has parked `expected` sessions in all and one
/// awaits resume: a `Resume` that beats its park is refused for good. The
/// counter moves just before the registry insert, so both are polled.
fn wait_for_parks(server: &Server, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().parked != expected || server.parked_sessions() != 1 {
        let parked = server.stats().parked;
        assert!(
            Instant::now() < deadline,
            "after 5 s the server had parked {parked} session(s), expected {expected}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Satellite: resume tokens are load-bearing security state. A forged or
/// stale token is refused with a typed error, counted, and — crucially —
/// must not destroy the legitimately parked session it guessed at.
#[test]
fn forged_and_stale_resume_tokens_are_rejected() {
    use dsm_service::frame::{read_frame, write_frame, ClientFrame, ServerFrame};

    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();

    // Park a real session: stream a prefix, then vanish.
    let mut doomed = ServiceClient::connect(server.local_addr(), &config()).unwrap();
    for ev in racing_events(2, 1) {
        doomed.send(&ev).unwrap();
    }
    let real_token = doomed.resume_token();
    drop(doomed);
    wait_for_parks(&server, 1);

    let resume_attempt = |token: u64, last_acked_seq: u64| -> ServerFrame {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(
            &mut stream,
            &ClientFrame::Resume {
                token,
                last_acked_seq,
            }
            .encode(),
        )
        .unwrap();
        ServerFrame::decode(&read_frame(&mut stream).unwrap()).unwrap()
    };

    // Forged token: refused.
    match resume_attempt(real_token ^ 0xBAD_CAFE, 0) {
        ServerFrame::Error { message } => assert!(message.contains("resume token")),
        other => panic!("forged token accepted: {other:?}"),
    }
    // Right token, impossible progress claim: refused, and the parked
    // session survives the attempt.
    match resume_attempt(real_token, u64::MAX) {
        ServerFrame::Error { message } => assert!(message.contains("sequence")),
        other => panic!("impossible sequence accepted: {other:?}"),
    }
    // The real claim still works: the refusals above did not consume the
    // parked state.
    match resume_attempt(real_token, 0) {
        ServerFrame::ResumeAck { next_seq, .. } => assert_eq!(next_seq, 4),
        other => panic!("legitimate resume refused: {other:?}"),
    }

    let report = server.shutdown();
    assert_eq!(report.stats.poisoned, 2, "both bad attempts recorded");
    assert!(report.stats.frames_rejected >= 2);
    assert_eq!(report.stats.resumed, 1);
}

/// Satellite: a dead endpoint fails typed within the connect timeout —
/// never a hang, never a panic.
#[test]
fn dead_endpoint_fails_typed_and_bounded() {
    use dsm_service::ClientTimeouts;

    // Bind then immediately drop a listener: the port is (momentarily)
    // guaranteed dead.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let started = std::time::Instant::now();
    let result = ServiceClient::connect_with_timeouts(
        dead_addr,
        &config(),
        ClientTimeouts {
            connect: Duration::from_millis(500),
            read: Duration::from_millis(500),
        },
    );
    match result {
        Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("connected to a dead endpoint"),
        Err(e) => panic!("wrong error class: {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "failure must be bounded by the connect timeout"
    );
}

/// Wraps a `ChannelSink` to expose its dropped-count at session teardown.
#[derive(Debug)]
struct HangupProbe {
    inner: ChannelSink,
    counts: Arc<Mutex<Vec<usize>>>,
}

impl ReportSink for HangupProbe {
    fn on_report(&mut self, report: &RaceReport) {
        self.inner.on_report(report);
    }

    fn on_flush(&mut self, summary: &race_core::RaceSummary) {
        self.inner.on_flush(summary);
        self.counts.lock().unwrap().push(self.inner.dropped());
    }
}

/// A raw connection that has said hello: lets a test put a whole run of
/// frames on the wire in one `write`, so the server's reader meets them as
/// bursts rather than one frame per read.
fn raw_session(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = ClientFrame::Hello {
        config_json: config().to_json(),
    };
    write_frames(&mut stream, &[hello]);
    match ServerFrame::decode(&read_frame(&mut stream).unwrap()).unwrap() {
        ServerFrame::HelloAck { .. } => stream,
        other => panic!("wanted hello-ack, got {other:?}"),
    }
}

fn write_frames(stream: &mut TcpStream, frames: &[ClientFrame]) {
    let mut wire = Vec::new();
    for frame in frames {
        append_frame(&mut wire, &frame.encode()).unwrap();
    }
    stream.write_all(&wire).unwrap();
}

#[test]
fn a_ping_is_answered_after_every_event_that_preceded_it() {
    let server = Server::bind("127.0.0.1:0", quick_serve_config()).unwrap();
    // Nothing before it; one event; exactly the queue's 256 (one read, and
    // the ping has to wait for room); several reads' worth.
    for k in [0usize, 1, 256, 3000] {
        let mut frames: Vec<ClientFrame> = racing_events(k.div_ceil(2), 1)
            .into_iter()
            .take(k)
            .map(ClientFrame::Event)
            .collect();
        frames.push(ClientFrame::Ping);
        let mut stream = raw_session(&server);
        write_frames(&mut stream, &frames);
        match ServerFrame::decode(&read_frame(&mut stream).unwrap()).unwrap() {
            ServerFrame::Health { events, shed, .. } => {
                assert_eq!(events, k as u64, "ping sent after {k} events");
                assert_eq!(shed, 0);
            }
            other => panic!("wanted health, got {other:?}"),
        }
        // And the stream goes on from there.
        write_frames(
            &mut stream,
            &[ClientFrame::Event(WireEvent::Barrier), ClientFrame::Ping],
        );
        match ServerFrame::decode(&read_frame(&mut stream).unwrap()).unwrap() {
            ServerFrame::Health { events, .. } => assert_eq!(events, k as u64 + 1),
            other => panic!("wanted health, got {other:?}"),
        }
    }
    server.shutdown();
}
