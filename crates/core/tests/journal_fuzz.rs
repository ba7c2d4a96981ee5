//! `snapshot::decode_journal` under hostile bytes.
//!
//! A session's replay journal is persisted beside its checkpoint and read
//! back by whoever recovers the session, so its decoder gets the treatment
//! `Session::restore` gets in `checkpoint.rs`: byte soup, XOR-corrupted real
//! journals and every truncation. The only acceptable outcomes are a typed
//! [`SnapshotError`] or a journal that re-encodes to exactly the bytes it
//! was decoded from — the codec has one encoding per journal, so an
//! accepted corruption is a *different valid journal*, never a misread one
//! — and no input panics.

use dsm::addr::GlobalAddr;
use proptest::prelude::*;
use race_core::snapshot::{decode_journal, encode_journal};
use race_core::{DsmOp, JournalEvent, LockId, OpKind};

/// Decode `bytes`; an accepted journal must re-encode to `bytes`.
fn decode_and_check(bytes: &[u8]) -> bool {
    match decode_journal(bytes) {
        Ok(journal) => {
            assert_eq!(
                encode_journal(&journal),
                bytes,
                "an accepted journal re-encodes to other bytes"
            );
            true
        }
        Err(_) => false,
    }
}

/// A journal holding every event variant and every op kind, with held
/// locks, both segments and offsets in the upper half of the u64 range.
fn real_journal(len: usize, seed: u64) -> Vec<JournalEvent> {
    let mut x = seed;
    let mut pick = |bound: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) % bound
    };
    (0..len as u64)
        .map(|op_id| {
            let rank = pick(6) as usize;
            let lock: LockId = (pick(3) as usize, 8 * pick(9) as usize);
            let public = GlobalAddr::public(pick(6) as usize, (pick(1 << 20) << pick(44)) as usize)
                .range(1 + pick(64) as usize);
            let private = GlobalAddr::private(rank, 8 * pick(16) as usize).range(8);
            let kind = match pick(9) {
                0 => return JournalEvent::Barrier,
                1 => return JournalEvent::Acquire { rank, lock },
                2 => return JournalEvent::Release { rank, lock },
                3 => OpKind::Put {
                    src: private,
                    dst: public,
                },
                4 => OpKind::Get {
                    src: public,
                    dst: private,
                },
                5 => OpKind::LocalRead { range: public },
                6 => OpKind::LocalWrite { range: public },
                _ => OpKind::AtomicRmw { range: public },
            };
            JournalEvent::Op {
                op: DsmOp {
                    op_id,
                    actor: rank,
                    kind,
                },
                held: (0..pick(3)).map(|i| (i as usize, 64)).collect(),
            }
        })
        .collect()
}

#[test]
fn a_real_journal_round_trips_and_every_truncation_is_a_typed_error() {
    let journal = real_journal(96, 0x10A7);
    let bytes = encode_journal(&journal);
    assert_eq!(decode_journal(&bytes).expect("intact"), journal);
    for len in 0..bytes.len() {
        assert!(
            decode_journal(&bytes[..len]).is_err(),
            "a {len}-byte prefix of {} bytes decoded",
            bytes.len()
        );
    }
}

#[test]
fn a_count_no_journal_could_hold_is_an_error_not_an_allocation() {
    // The count is the journal's first field and the client's word: the
    // decoder must run out of bytes, not reserve for 2⁶⁴ − 1 events.
    let mut bytes = u64::MAX.to_le_bytes().to_vec();
    bytes.extend([1u8; 64]); // 64 barriers
    assert!(decode_journal(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes, half of them behind a small count so the decoder gets
    /// into the events.
    #[test]
    fn decode_survives_byte_soup(
        mut soup in collection::vec(0u8..=255, 0..256usize),
        counted in 0u8..2,
        count in 0u8..12,
    ) {
        if counted == 1 && soup.len() >= 8 {
            soup[..8].copy_from_slice(&u64::from(count).to_le_bytes());
        }
        decode_and_check(&soup);
    }

    /// One to eight bytes of a real journal XORed with random masks: the
    /// count, tags, ranks, segments, offsets, lengths, held-lock counts.
    #[test]
    fn decode_survives_corruption_of_a_real_journal(
        seed in 0u64..1 << 32,
        flips in collection::vec((0usize..1 << 20, 1u8..=255), 1..=8usize),
        resize in 0usize..4,
        amount in 1usize..48,
    ) {
        let mut bytes = encode_journal(&real_journal(24, seed));
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        match resize {
            0 => bytes.truncate(bytes.len().saturating_sub(amount)),
            1 => bytes.extend(std::iter::repeat_n(0xA5, amount)),
            _ => {}
        }
        decode_and_check(&bytes);
    }
}

#[test]
fn corruptions_are_both_rejected_and_accepted() {
    // The fuzz above is not vacuous in either direction: single-byte
    // corruptions of one journal land on both sides of the decoder.
    let bytes = encode_journal(&real_journal(24, 7));
    let (mut accepted, mut rejected) = (0, 0);
    for at in 0..bytes.len() {
        let mut forged = bytes.clone();
        forged[at] ^= 0x04;
        if decode_and_check(&forged) {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 100 && rejected > 20, "{accepted} / {rejected}");
}
