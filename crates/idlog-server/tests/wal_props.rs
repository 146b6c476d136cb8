//! Property tests of the WAL record encoding: arbitrary records survive a
//! frame round trip byte for byte, including the extremes of ℕ's i64 range
//! (the on-disk format is 16-byte i128) and strings full of non-BMP characters (the
//! code points UTF-16 would need surrogate pairs for).

use proptest::prelude::*;

use idlog_core::service::FactValue;
use idlog_core::Nat;
use idlog_server::durability::{decode_record, encode_record, Decoded, WalRecord};

/// Characters drawn from the whole scalar-value space, weighted toward the
/// interesting regions: ASCII, the BMP edges around the surrogate gap, and
/// supplementary planes (emoji included) that need surrogate pairs in
/// UTF-16 and 4-byte sequences in UTF-8.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
        // Just below the surrogate range.
        (0xd000u32..0xd800).prop_map(|c| char::from_u32(c).unwrap()),
        // Just above it.
        (0xe000u32..0xe100).prop_map(|c| char::from_u32(c).unwrap()),
        // Emoji block.
        (0x1f300u32..0x1f700).prop_map(|c| char::from_u32(c).unwrap()),
        // The far end of the supplementary planes.
        (0x10fff0u32..=0x10ffff).prop_map(|c| char::from_u32(c).unwrap()),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

/// Naturals covering the whole `0..=i64::MAX` range, both halves of
/// [`Nat`]'s split included.
fn arb_int() -> impl Strategy<Value = Nat> {
    prop_oneof![
        Just(i64::MAX),
        Just(0i64),
        Just(u32::MAX as i64),
        Just(1i64 << 32),
        any::<u64>().prop_map(|bits| (bits >> 1) as i64),
    ]
    .prop_map(|n| Nat::new(n).unwrap())
}

fn arb_value() -> impl Strategy<Value = FactValue> {
    prop_oneof![
        arb_string().prop_map(FactValue::Sym),
        arb_int().prop_map(FactValue::Int),
    ]
}

fn arb_tuple() -> impl Strategy<Value = Vec<FactValue>> {
    proptest::collection::vec(arb_value(), 0..6)
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (arb_string(), arb_tuple()).prop_map(|(pred, tuple)| WalRecord::Insert { pred, tuple }),
        (arb_string(), arb_tuple()).prop_map(|(pred, tuple)| WalRecord::Retract { pred, tuple }),
        (arb_string(), arb_string())
            .prop_map(|(program, output)| WalRecord::SetProgram { program, output }),
    ]
}

proptest! {
    /// encode → decode is the identity, the sequence number travels, and
    /// the frame length is exactly what decode reports consumed.
    #[test]
    fn records_round_trip(seq in any::<u64>(), record in arb_record()) {
        let frame = encode_record(seq, &record);
        match decode_record(&frame) {
            Decoded::Record { seq: got_seq, record: got, consumed } => {
                prop_assert_eq!(got_seq, seq);
                prop_assert_eq!(got, record);
                prop_assert_eq!(consumed, frame.len());
            }
            Decoded::Torn(e) => prop_assert!(false, "torn on intact frame: {}", e),
        }
    }

    /// Back-to-back frames decode independently: the first decode consumes
    /// exactly its own frame and the second record is intact after it.
    #[test]
    fn concatenated_frames_split_cleanly(a in arb_record(), b in arb_record()) {
        let mut buf = encode_record(1, &a);
        buf.extend_from_slice(&encode_record(2, &b));
        let Decoded::Record { record: first, consumed, .. } = decode_record(&buf) else {
            return Err(TestCaseError::fail("first frame torn"));
        };
        prop_assert_eq!(first, a);
        let Decoded::Record { record: second, seq, .. } = decode_record(&buf[consumed..]) else {
            return Err(TestCaseError::fail("second frame torn"));
        };
        prop_assert_eq!(second, b);
        prop_assert_eq!(seq, 2);
    }

    /// Every proper prefix of a frame is reported torn — never a wrong
    /// record, never a panic. This is the exact guarantee torn-tail
    /// recovery rests on.
    #[test]
    fn every_truncation_is_torn(record in arb_record(), cut in any::<u16>()) {
        let frame = encode_record(7, &record);
        let keep = (cut as usize) % frame.len();
        prop_assert!(
            matches!(decode_record(&frame[..keep]), Decoded::Torn(_)),
            "prefix of {} bytes decoded as a record", keep
        );
    }

    /// A single flipped bit anywhere in the frame can never yield the
    /// original record presented as intact: either the CRC (or structure)
    /// rejects it, or — if the flip lands in the length/CRC header making
    /// a self-consistent smaller frame — the decoded record differs.
    #[test]
    fn bit_flips_never_forge_the_original(record in arb_record(), pos in any::<u16>(), bit in 0u8..8) {
        let frame = encode_record(3, &record);
        let mut bad = frame.clone();
        let i = (pos as usize) % bad.len();
        bad[i] ^= 1 << bit;
        if let Decoded::Record { record: got, seq, .. } = decode_record(&bad) {
            prop_assert!(
                !(got == record && seq == 3),
                "flipped bit {} of byte {} went undetected", bit, i
            );
        }
    }
}
