//! Property tests for the binary event transport: any sequence of
//! events — all thirteen variants, fault events included, timestamps in
//! any order — encodes through [`BinarySink`] and decodes back to the
//! identical `Vec<Event>` (and timestamps), both via the one-shot
//! [`bin::replay`] and via the incremental [`StreamDecoder`] fed in
//! arbitrary chunk sizes. The JSONL codec must decode every sequence to
//! the same records, integers above 2^53 included.
//!
//! Corrupted input — bit flips, spliced byte ranges, duplicated records
//! — must never panic either decoder: every failure is an error whose
//! offset (binary) or line (JSONL) lies within the input.

use proptest::prelude::*;
use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;
use rispp_obs::bin::{self, StreamDecoder};
use rispp_obs::{
    jsonl, BinarySink, Event, EventSink, JsonlSink, Record, ReselectTrigger, TimelineSink,
};

fn molecule_strategy() -> impl Strategy<Value = Molecule> {
    proptest::collection::vec(0u32..4, 1..5).prop_map(Molecule::from_counts)
}

fn trigger_strategy() -> impl Strategy<Value = ReselectTrigger> {
    prop_oneof![
        Just(ReselectTrigger::Forecast),
        Just(ReselectTrigger::ForecastBlock),
        Just(ReselectTrigger::Retract),
        Just(ReselectTrigger::Observation),
        Just(ReselectTrigger::PowerMode),
        Just(ReselectTrigger::Fault),
    ]
}

/// Finite floats across magnitudes (the codec stores raw bits, so
/// NaN round-trips too, but `Event: PartialEq` would reject NaN here).
fn f64_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite floats only (NaN != NaN under PartialEq)", |f| f
                .is_finite()),
    ]
}

fn kind_strategy() -> impl Strategy<Value = AtomKind> {
    (0usize..8).prop_map(AtomKind)
}

fn si_strategy() -> impl Strategy<Value = SiId> {
    (0usize..64).prop_map(SiId)
}

/// Every `Event` variant, fault events (`RotationFailed`,
/// `ContainerQuarantined`, `Reselect { trigger: Fault }`) included.
fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationStarted { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationCompleted { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::RotationFailed { container, kind }),
        any::<u64>().prop_map(|until| Event::PortStalled { until }),
        any::<u32>().prop_map(|container| Event::ContainerQuarantined { container }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::ContainerLoaded { container, kind }),
        (any::<u32>(), kind_strategy())
            .prop_map(|(container, kind)| Event::ContainerEvicted { container, kind }),
        (
            any::<u32>(),
            si_strategy(),
            any::<bool>(),
            any::<u64>(),
            proptest::option::of(molecule_strategy()),
        )
            .prop_map(|(task, si, hw, cycles, molecule)| Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                molecule,
            }),
        (any::<u32>(), si_strategy(), f64_strategy(), f64_strategy()).prop_map(
            |(task, si, probability, expected_executions)| Event::ForecastUpdated {
                task,
                si,
                probability,
                expected_executions,
            }
        ),
        (any::<u32>(), si_strategy()).prop_map(|(task, si)| Event::ForecastRetracted { task, si }),
        (any::<u32>(), si_strategy(), any::<bool>())
            .prop_map(|(task, si, reached)| Event::FcOutcome { task, si, reached }),
        (trigger_strategy(), any::<u64>(), any::<bool>()).prop_map(
            |(trigger, duration_ns, cache_hit)| Event::Reselect {
                trigger,
                duration_ns,
                cache_hit,
            }
        ),
        (
            si_strategy(),
            proptest::option::of(any::<u32>()),
            any::<u32>(),
            molecule_strategy(),
        )
            .prop_map(|(si, task, step, molecule)| Event::UpgradeStep {
                si,
                task,
                step,
                molecule,
            }),
    ]
}

fn records_strategy() -> impl Strategy<Value = Vec<Record>> {
    // Timestamps deliberately unordered: the delta encoding must not
    // assume monotone time.
    proptest::collection::vec(
        (any::<u64>(), event_strategy()).prop_map(|(at, event)| Record { at, event }),
        0..40,
    )
}

fn encode(records: &[Record]) -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new());
    for r in records {
        sink.emit(r.at, &r.event);
    }
    sink.into_inner()
}

fn encode_jsonl(records: &[Record]) -> String {
    let mut sink = JsonlSink::new(Vec::new());
    for r in records {
        sink.emit(r.at, &r.event);
    }
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

/// One byte-level corruption. Positions are taken modulo the current
/// input length when applied.
#[derive(Debug, Clone)]
enum Edit {
    /// Flip one bit.
    Flip { at: usize, bit: u8 },
    /// Copy `len` bytes from `from` and insert them at `at`.
    Splice { at: usize, from: usize, len: usize },
    /// Delete `len` bytes at `at`.
    Delete { at: usize, len: usize },
    /// Insert the varint of `u64::MAX`: at a record boundary it is a
    /// length prefix no buffer can satisfy.
    HugeVarint { at: usize },
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Edit::Flip { at, bit }),
        (any::<usize>(), any::<usize>(), 1usize..24).prop_map(|(at, from, len)| Edit::Splice {
            at,
            from,
            len
        }),
        (any::<usize>(), 1usize..8).prop_map(|(at, len)| Edit::Delete { at, len }),
        any::<usize>().prop_map(|at| Edit::HugeVarint { at }),
    ]
}

fn apply(bytes: &mut Vec<u8>, edit: &Edit) {
    if bytes.is_empty() {
        return;
    }
    let n = bytes.len();
    match *edit {
        Edit::Flip { at, bit } => bytes[at % n] ^= 1 << bit,
        Edit::Splice { at, from, len } => {
            let from = from % n;
            let piece = bytes[from..(from + len).min(n)].to_vec();
            let at = at % (n + 1);
            bytes.splice(at..at, piece);
        }
        Edit::Delete { at, len } => {
            let at = at % n;
            bytes.drain(at..(at + len).min(n));
        }
        Edit::HugeVarint { at } => {
            let at = at % (n + 1);
            let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
            bytes.splice(at..at, huge);
        }
    }
}

/// The byte offset where each record of `records` starts in its binary
/// encoding, plus the stream length.
fn record_bounds(records: &[Record]) -> Vec<usize> {
    (0..=records.len())
        .map(|k| encode(&records[..k]).len().max(5))
        .collect()
}

/// A sink that only counts, so corrupted streams are decoded for their
/// errors alone.
struct Count(usize);

impl EventSink for Count {
    fn emit(&mut self, _: u64, _: &Event) {
        self.0 += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_event_sequence_round_trips(records in records_strategy()) {
        let bytes = encode(&records);
        let mut out = TimelineSink::new();
        bin::replay(&bytes, &mut out).expect("own encoding replays");
        prop_assert_eq!(out.timeline().entries(), records.as_slice());

        // Both codecs decode the sequence to the same records.
        let text = encode_jsonl(&records);
        let mut from_jsonl = TimelineSink::new();
        jsonl::replay(&text, &mut from_jsonl).expect("own JSONL export replays");
        prop_assert_eq!(from_jsonl.timeline().entries(), out.timeline().entries());
    }

    #[test]
    fn corrupted_streams_fail_cleanly(
        records in records_strategy(),
        duplicate in any::<usize>(),
        edits in proptest::collection::vec(edit_strategy(), 1..4),
        chunk in 1usize..17,
    ) {
        // Binary: duplicate one whole record, then corrupt the bytes.
        let mut bytes = encode(&records);
        if !records.is_empty() {
            let bounds = record_bounds(&records);
            let k = duplicate % records.len();
            let copy = bytes[bounds[k]..bounds[k + 1]].to_vec();
            bytes.splice(bounds[k + 1]..bounds[k + 1], copy);
        }
        for edit in &edits {
            apply(&mut bytes, edit);
        }
        let len = bytes.len() as u64;
        if let Err(e) = bin::replay(&bytes, &mut Count(0)) {
            prop_assert!(e.offset <= len, "offset {} past {} bytes: {}", e.offset, len, e);
        }
        let mut decoder = StreamDecoder::new();
        'feed: for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            loop {
                match decoder.next_record() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        prop_assert!(e.offset <= len, "offset {} past {} bytes: {}", e.offset, len, e);
                        break 'feed;
                    }
                }
            }
        }
        prop_assert!(decoder.bytes_consumed() <= len);

        // JSONL: duplicate one line, then corrupt the text.
        let text = encode_jsonl(&records);
        let mut lines: Vec<&str> = text.lines().collect();
        if lines.len() > 1 {
            let k = 1 + duplicate % (lines.len() - 1);
            lines.insert(k, lines[k]);
        }
        let mut raw = lines.join("\n").into_bytes();
        for edit in &edits {
            apply(&mut raw, edit);
        }
        let text = String::from_utf8_lossy(&raw);
        if let Err(e) = jsonl::replay(&text, &mut Count(0)) {
            let n = text.lines().count();
            prop_assert!(e.line >= 1 && e.line <= n, "line {} of {}: {}", e.line, n, e);
        }
    }

    #[test]
    fn chunked_streaming_decode_matches(
        records in records_strategy(),
        chunk in 1usize..13,
    ) {
        let bytes = encode(&records);
        let mut decoder = StreamDecoder::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            while let Some(record) = decoder.next_record().expect("valid stream") {
                got.push(record);
            }
        }
        prop_assert_eq!(got.as_slice(), records.as_slice());
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn every_strict_prefix_is_incomplete_never_wrong(records in records_strategy()) {
        // Cutting the byte stream anywhere yields a prefix of the
        // record sequence — never a decode of something that was not
        // emitted — plus possibly an incomplete tail.
        let bytes = encode(&records);
        if bytes.len() >= 2 {
            let cut = bytes.len() / 2;
            let mut decoder = StreamDecoder::new();
            decoder.feed(&bytes[..cut]);
            let mut got = Vec::new();
            while let Some(record) = decoder.next_record().expect("prefix decodes cleanly") {
                got.push(record);
            }
            prop_assert!(got.len() <= records.len());
            prop_assert_eq!(got.as_slice(), &records[..got.len()]);
        }
    }
}
