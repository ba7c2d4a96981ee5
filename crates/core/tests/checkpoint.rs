//! Durable-session parity: `restore(checkpoint)` + `apply` over the
//! journal must be byte-identical to the uninterrupted run — same
//! per-event report counts, same deduped report stream, same summary JSON,
//! same re-checkpoint bytes —
//! for every detector kind × four seeds, with the kill point chosen
//! pseudo-randomly per cell. And `Session::restore` is total: byte soup,
//! corrupted and truncated checkpoints are typed errors or usable
//! sessions, never a panic.

use proptest::prelude::*;
use race_core::api::{DedupSink, DetectorConfig, ReportSink, Session, VecSink};
use race_core::clockstore::Granularity;
use race_core::detector::DetectorKind;
use race_core::event::{DsmOp, Event, LockId, OpKind};
use race_core::SnapshotError;

use dsm::addr::GlobalAddr;

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

const LOCKS: [LockId; 3] = [(0, 0), (0, 64), (1, 0)];

/// A mixed workload: puts/gets/local accesses/atomics on a small shared
/// region, laced with barriers and lock transitions so every event variant
/// is exercised.
fn workload(n: usize, len: usize, seed: u64) -> Vec<Event> {
    let mut rng = Lcg(seed);
    let mut held: Vec<Vec<LockId>> = vec![Vec::new(); n];
    let mut events = Vec::with_capacity(len);
    for i in 0..len {
        let roll = rng.pick(100);
        if roll < 8 {
            let rank = rng.pick(n);
            let lock = LOCKS[rng.pick(LOCKS.len())];
            if !held[rank].contains(&lock) {
                held[rank].push(lock);
                events.push(Event::Acquire { rank, lock });
                continue;
            }
        } else if roll < 16 {
            let rank = rng.pick(n);
            if let Some(lock) = held[rank].pop() {
                events.push(Event::Release { rank, lock });
                continue;
            }
        } else if roll < 20 {
            events.push(Event::Barrier);
            continue;
        }
        let actor = rng.pick(n);
        let target = GlobalAddr::public(rng.pick(n), 8 * rng.pick(12)).range(8);
        let kind = match rng.pick(5) {
            0 => OpKind::Put {
                src: GlobalAddr::private(actor, 0).range(8),
                dst: target,
            },
            1 => OpKind::Get {
                src: target,
                dst: GlobalAddr::private(actor, 0).range(8),
            },
            2 => OpKind::LocalRead { range: target },
            3 => OpKind::LocalWrite { range: target },
            _ => OpKind::AtomicRmw { range: target },
        };
        events.push(Event::Op(DsmOp {
            op_id: i as u64,
            actor,
            kind,
        }));
    }
    events
}

fn durable_sink() -> Box<dyn ReportSink> {
    Box::new(DedupSink::new(Box::new(VecSink::new())))
}

fn config(kind: DetectorKind) -> DetectorConfig {
    DetectorConfig::new(kind, 4).with_granularity(Granularity::WORD)
}

#[test]
fn restore_plus_replay_matches_uninterrupted() {
    for kind in DetectorKind::ALL {
        for round in 1..=4u64 {
            let seed = 0xC0FFEE ^ (round << 32) ^ kind.label().len() as u64;
            let events = workload(4, 400, seed);

            // Kill the durable run at a pseudo-random point after the
            // checkpoint; both cuts vary per (kind, round) cell.
            let mut rng = Lcg(seed.rotate_left(17));
            let cut = 50 + rng.pick(events.len() / 2 - 50);
            let kill = cut + 1 + rng.pick(events.len() - cut - 1);

            // Uninterrupted control.
            let mut control = config(kind).session_with(durable_sink());
            let mut control_counts = Vec::with_capacity(events.len());
            let mut stream_len_at_cut = 0;
            for (i, event) in events.iter().enumerate() {
                control_counts.push(control.apply(event));
                if i + 1 == cut {
                    stream_len_at_cut = control.reports().len();
                }
            }
            let control_tail = format!("{:?}", &control.reports()[stream_len_at_cut..]);
            let control_json = control.summary().to_json();
            let control_ckpt = control.checkpoint().expect("control checkpoint");

            // Durable run: checkpoint at `cut`, die at `kill`.
            let mut durable = config(kind).session_with(durable_sink());
            for (i, event) in events[..cut].iter().enumerate() {
                assert_eq!(durable.apply(event), control_counts[i], "prefix diverged");
            }
            let ckpt = durable.checkpoint().expect("mid-stream checkpoint");
            for (i, event) in events[cut..kill].iter().enumerate() {
                assert_eq!(durable.apply(event), control_counts[cut + i]);
            }
            let journal = durable.journal().to_vec();
            assert_eq!(journal.len(), kill - cut, "journal holds exactly the tail");
            drop(durable); // the crash

            // Resume: restore + apply the journal + finish the stream.
            let mut resumed = Session::restore(&ckpt, durable_sink()).expect("restore");
            assert_eq!(resumed.events(), cut as u64);
            assert!(resumed.journaling(), "restored sessions journal from birth");
            for (i, event) in journal.iter().enumerate() {
                assert_eq!(
                    resumed.apply(event),
                    control_counts[cut + i],
                    "{kind:?}/{round}: replayed event {i} diverged"
                );
            }
            for (i, event) in events[kill..].iter().enumerate() {
                assert_eq!(resumed.apply(event), control_counts[kill + i]);
            }
            assert_eq!(
                format!("{:?}", resumed.reports()),
                control_tail,
                "{kind:?}/{round}: resumed report stream diverged"
            );
            assert_eq!(
                resumed.summary().to_json(),
                control_json,
                "{kind:?}/{round}: summary JSON diverged"
            );
            assert_eq!(
                resumed.checkpoint().expect("final checkpoint"),
                control_ckpt,
                "{kind:?}/{round}: final checkpoint bytes diverged"
            );
        }
    }
}

#[test]
fn restore_then_checkpoint_is_byte_identical() {
    for kind in DetectorKind::ALL {
        let events = workload(4, 200, 0xDEADBEEF);
        let mut session = config(kind).session_with(durable_sink());
        for event in &events {
            session.apply(event);
        }
        let ckpt = session.checkpoint().expect("checkpoint");
        let mut restored = Session::restore(&ckpt, durable_sink()).expect("restore");
        assert_eq!(
            restored.checkpoint().expect("re-checkpoint"),
            ckpt,
            "{kind:?}: checkpoint/restore/checkpoint not a fixed point"
        );
    }
}

#[test]
fn journal_truncates_at_each_checkpoint() {
    let events = workload(4, 120, 7);
    let mut session = config(DetectorKind::Dual).session_with(durable_sink());
    assert!(!session.journaling(), "journalling is opt-in");
    assert!(session.journal().is_empty());
    for event in &events[..40] {
        session.apply(event);
    }
    assert!(
        session.journal().is_empty(),
        "no journal before the first checkpoint"
    );
    session.checkpoint().expect("checkpoint");
    assert!(session.journaling());
    for event in &events[40..100] {
        session.apply(event);
    }
    assert_eq!(session.journal().len(), 60, "journal = events since ckpt");
    session.checkpoint().expect("checkpoint");
    assert!(session.journal().is_empty(), "checkpoint truncates");
    for event in &events[100..] {
        session.apply(event);
    }
    assert_eq!(session.journal().len(), 20);
}

// ---------------------------------------------------------------------------
// Golden blob: the committed v1 checkpoint must stay restorable forever.
// Regenerate with UPDATE_GOLDEN=1 cargo test -p race-core --test checkpoint.
//
// The blob was regenerated when the sharded pipeline was retired: the
// embedded config JSON lost its "shards", "pipeline" and "batch" keys and
// is shorter. SNAPSHOT_VERSION stays 1 because the decoder still reads the
// old shape — `DetectorConfig::from_json` ignores keys it does not know —
// which `a_checkpoint_with_the_seven_key_config_still_restores` pins.
// It was regenerated again when `dense_blocks` became a constant of the
// clock store: the config lost that key too. The blob of the four-key era
// is kept beside it, byte for byte, as a second fixture.
// ---------------------------------------------------------------------------

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v1.bin"
);

const FOUR_KEY_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v1_four_keys.bin"
);

fn golden_session() -> Session {
    let events = workload(4, 150, 0x90_1D);
    let mut session = config(DetectorKind::Dual).session_with(durable_sink());
    for event in &events {
        session.apply(event);
    }
    session
}

#[test]
fn golden_checkpoint_restores() {
    let ckpt = golden_session().checkpoint().expect("checkpoint");
    assert_eq!(ckpt[0], race_core::SNAPSHOT_VERSION);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &ckpt).expect("write golden blob");
    }
    let golden = std::fs::read(GOLDEN_PATH).expect("golden blob committed");
    assert_eq!(
        ckpt, golden,
        "checkpoint encoding changed; bump SNAPSHOT_VERSION or run with UPDATE_GOLDEN=1"
    );
    let mut restored = Session::restore(&golden, durable_sink()).expect("golden restores");
    assert_eq!(
        restored.checkpoint().expect("re-checkpoint"),
        golden,
        "golden blob is a checkpoint fixed point"
    );
}

#[test]
fn a_checkpoint_with_the_seven_key_config_still_restores() {
    // Re-embed the config the way the parent format wrote it (a v1 blob is
    // version byte, then the length-prefixed config JSON, then the rest).
    let golden = std::fs::read(GOLDEN_PATH).expect("golden blob committed");
    let new_json = config(DetectorKind::Dual).to_json();
    let old_json = new_json.replace(
        '}',
        ",\"shards\":4,\"pipeline\":\"threaded\",\"dense_blocks\":65536,\"batch\":64}",
    );
    let rest = &golden[1 + 4 + new_json.len()..];
    let mut old = vec![golden[0]];
    old.extend_from_slice(&(old_json.len() as u32).to_le_bytes());
    old.extend_from_slice(old_json.as_bytes());
    old.extend_from_slice(rest);
    let mut restored = Session::restore(&old, durable_sink()).expect("old shape restores");
    assert_eq!(
        restored.checkpoint().expect("re-checkpoint"),
        golden,
        "and re-checkpoints in the three-key shape, byte-identical to the golden blob"
    );
}

#[test]
fn a_checkpoint_with_the_four_key_config_restores_to_the_three_key_golden() {
    // The golden blob as it was committed while `dense_blocks` was a
    // setting: the same session, its config JSON one key longer.
    let four = std::fs::read(FOUR_KEY_PATH).expect("four-key blob committed");
    let golden = std::fs::read(GOLDEN_PATH).expect("golden blob committed");
    assert_eq!(four[0], race_core::SNAPSHOT_VERSION);
    let mut restored = Session::restore(&four, durable_sink()).expect("four-key blob restores");
    assert_eq!(
        restored.checkpoint().expect("re-checkpoint"),
        golden,
        "and re-checkpoints byte-identical to the three-key golden blob"
    );
}

/// A v1 checkpoint of a 3-rank session of the retired `lockset` kind,
/// taken after ten events (two lock-protected puts, two unlocked gets and
/// a racing pair of unlocked puts). Its config names a kind this build
/// does not know, so it is refused as a bad config, never restored as
/// another kind.
const LOCKSET_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v1_lockset.bin"
);

#[test]
fn a_checkpoint_of_the_retired_lockset_kind_is_a_bad_config() {
    let blob = std::fs::read(LOCKSET_PATH).expect("lockset blob committed");
    assert_eq!(blob[0], race_core::SNAPSHOT_VERSION);
    match Session::restore(&blob, durable_sink()) {
        Err(SnapshotError::BadConfig(message)) => {
            assert_eq!(message, r#"unknown detector kind "lockset""#)
        }
        other => panic!("expected BadConfig naming lockset, got {other:?}"),
    }
}

/// A v1 checkpoint of a 3-rank `Vanilla` session after the first 150
/// events of the golden workload's 3-rank stream. Its detector payload is
/// the 8-byte op count, which is below the event count: barriers and lock
/// transitions are events but not ops.
const VANILLA_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_v1_vanilla.bin"
);

#[test]
fn the_vanilla_golden_checkpoint_restores_and_resumes() {
    let events = workload(3, 160, 0x90_1D);
    let vanilla = DetectorConfig::new(DetectorKind::Vanilla, 3);
    let mut uninterrupted = vanilla.session_with(durable_sink());
    for event in &events[..150] {
        uninterrupted.apply(event);
    }
    let ckpt = uninterrupted.checkpoint().expect("checkpoint");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(VANILLA_PATH, &ckpt).expect("write vanilla blob");
    }
    let blob = std::fs::read(VANILLA_PATH).expect("vanilla blob committed");
    assert_eq!(ckpt, blob, "checkpoint encoding changed");
    assert_eq!(blob[0], race_core::SNAPSHOT_VERSION);
    let header = race_core::snapshot::peek_header(&blob).expect("header");
    assert_eq!(header.events, 150);
    let ops = u64::from_le_bytes(blob[blob.len() - 8..].try_into().expect("8 bytes"));
    let expected_ops = events[..150]
        .iter()
        .filter(|e| matches!(e, Event::Op(_)))
        .count();
    assert_eq!(ops, expected_ops as u64, "the payload is the op count");
    assert!(ops < header.events, "the stream has sync events");

    let mut resumed = Session::restore(&blob, durable_sink()).expect("vanilla blob restores");
    assert_eq!(
        resumed.checkpoint().expect("re-checkpoint"),
        blob,
        "the vanilla blob is a checkpoint fixed point"
    );
    for event in &events[150..] {
        assert_eq!(resumed.apply(event), uninterrupted.apply(event));
    }
    // The bytes carry the event count, the summary and the op count.
    assert_eq!(
        resumed.checkpoint().expect("resumed checkpoint"),
        uninterrupted
            .checkpoint()
            .expect("uninterrupted checkpoint"),
        "restore plus ten events equals the uninterrupted session"
    );
}

#[test]
fn golden_with_unknown_version_is_a_typed_error_never_a_panic() {
    let mut blob = std::fs::read(GOLDEN_PATH).expect("golden blob committed");
    blob[0] = 0xFE;
    match Session::restore(&blob, durable_sink()) {
        Err(SnapshotError::UnknownVersion { got }) => assert_eq!(got, 0xFE),
        other => panic!("expected UnknownVersion, got {other:?}"),
    }
    // Hostile truncations of the golden blob are typed errors too.
    let blob = std::fs::read(GOLDEN_PATH).expect("golden blob committed");
    for len in 0..blob.len().min(64) {
        assert!(Session::restore(&blob[..len], durable_sink()).is_err());
    }
}

// ---------------------------------------------------------------------------
// Fuzzing `Session::restore`: a parked checkpoint is bytes a server later
// trusts, so the decoder gets the frame codec's treatment (frame_fuzz.rs) —
// random bytes, corruption, truncation — over a real checkpoint of every
// detector kind. The only acceptable outcomes are a typed `SnapshotError`
// or a `Session` that can observe more events and finish.
// ---------------------------------------------------------------------------

/// A mid-stream checkpoint of `kind`: racy traffic, program locks, demoted
/// and epoch areas, a populated dedup window.
fn real_checkpoint(kind: DetectorKind) -> Vec<u8> {
    let mut session = config(kind).session_with(durable_sink());
    for event in &workload(4, 120, 0xF022 ^ kind.label().len() as u64) {
        session.apply(event);
    }
    session.checkpoint().expect("checkpoint")
}

/// Restore `bytes`; whatever comes back must be usable. A restored session
/// is driven by a well-formed client of *its* configuration (ranks below
/// the restored `n`) for a few hundred events — long enough to prune,
/// demote, absorb and report against every restored antichain — and then
/// finished. An accepted blob may have been corrupted in a clock
/// component: its antichain clocks then need not be the clocks of any
/// execution (Lemma 1 can fail on them), so which races it reports is
/// unspecified. That it does not panic is not.
fn restore_and_exercise(bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut session = Session::restore(bytes, durable_sink())?;
    let n = session.config().n;
    for event in &workload(n, 300, 0xAF7E4) {
        session.apply(event);
    }
    // A usable session can also be checkpointed again.
    session.checkpoint().map(|_| ())?;
    let (summary, _) = session.finish();
    let _ = summary.to_json();
    Ok(())
}

#[test]
fn every_truncation_of_a_real_checkpoint_is_a_typed_error() {
    for kind in DetectorKind::ALL {
        let blob = real_checkpoint(kind);
        restore_and_exercise(&blob).expect("the intact blob restores");
        for len in 0..blob.len() {
            assert!(
                restore_and_exercise(&blob[..len]).is_err(),
                "{kind:?}: a {len}-byte prefix of {} bytes restored",
                blob.len()
            );
        }
    }
}

/// The forgery random flips rarely find: a clock component off by one.
/// Flipping the low bit of every third byte of the detector payload (each
/// clock-based kind takes a different third) raises or lowers, among
/// everything else, each component of each antichain clock; thousands of
/// those blobs pass the decoder's structural checks, and some then hold
/// antichain clocks that break Lemma 1. Every accepted one must still
/// carry a few hundred events without panicking.
#[test]
fn restore_survives_a_low_bit_flip_at_any_payload_byte() {
    let kinds = [
        DetectorKind::Dual,
        DetectorKind::Single,
        DetectorKind::Literal,
    ];
    let mut accepted = 0;
    for (k, kind) in kinds.into_iter().enumerate() {
        let blob = real_checkpoint(kind);
        let header = race_core::snapshot::peek_header(&blob).expect("header");
        let payload_from = 1 + 4 + header.config_json.len() + 8 + 4 + header.summary_json.len();
        for at in (payload_from + k..blob.len()).step_by(kinds.len()) {
            let mut forged = blob.clone();
            forged[at] ^= 1;
            if restore_and_exercise(&forged).is_ok() {
                accepted += 1;
            }
        }
    }
    assert!(
        accepted > 1000,
        "only {accepted} forged blobs were accepted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, half of them behind a valid version byte so the
    /// decoder gets past its first check.
    #[test]
    fn restore_survives_byte_soup(
        mut soup in collection::vec(0u8..=255, 0..512usize),
        versioned in 0u8..2,
    ) {
        if versioned == 1 && !soup.is_empty() {
            soup[0] = race_core::SNAPSHOT_VERSION;
        }
        let _ = restore_and_exercise(&soup);
    }

    /// One to eight bytes of a real checkpoint XORed with random masks:
    /// length fields, tags, ranks, epoch counts, clock components, JSON.
    #[test]
    fn restore_survives_corruption_of_a_real_checkpoint(
        kind in 0usize..DetectorKind::ALL.len(),
        flips in collection::vec((0usize..1 << 20, 1u8..=255), 1..=8usize),
    ) {
        let mut blob = real_checkpoint(DetectorKind::ALL[kind]);
        for (at, mask) in flips {
            let at = at % blob.len();
            blob[at] ^= mask;
        }
        let _ = restore_and_exercise(&blob);
    }

    /// The same corruption aimed at the structured tail (the detector
    /// payload), where most of the length and tag fields live, plus a
    /// truncation or junk suffix half of the time.
    #[test]
    fn restore_survives_corruption_of_the_detector_payload(
        kind in 0usize..DetectorKind::ALL.len(),
        flips in collection::vec((0usize..1 << 20, 0usize..8), 1..=4usize),
        resize in 0usize..4,
        amount in 1usize..64,
    ) {
        let mut blob = real_checkpoint(DetectorKind::ALL[kind]);
        let header = race_core::snapshot::peek_header(&blob).expect("header");
        let payload_from = 1 + 4 + header.config_json.len() + 8 + 4 + header.summary_json.len();
        for (at, bit) in flips {
            let at = payload_from + at % (blob.len() - payload_from);
            blob[at] ^= 1 << bit;
        }
        match resize {
            0 => blob.truncate(blob.len().saturating_sub(amount)),
            1 => blob.extend(std::iter::repeat_n(0xA5, amount)),
            _ => {}
        }
        let _ = restore_and_exercise(&blob);
    }
}
