//! Golden-file regression test for the offline report renderer: the
//! committed JSONL fixture (a faulted Fig. 6 run, seed 0 of the chaos
//! soak) must render to byte-identical markdown.
//!
//! The JSONL fixture is committed once and must **never be regenerated**:
//! live runs embed host-measured `reselect` durations (wall-clock
//! nanoseconds), so re-exporting would churn the fixture on every machine
//! without changing its meaning. Only the *markdown* is re-blessed, after
//! a deliberate renderer or analyzer change:
//!
//! ```text
//! RISPP_BLESS=1 cargo test -p rispp-bench --test golden
//! ```
//!
//! The fixture also pins both event codecs: every JSONL line must
//! re-encode byte for byte, and `fig6_faulted.bin` — the same records
//! written by the binary sink of an earlier encoder that padded some
//! varints to two bytes — must keep decoding to exactly those records.
//! Like the JSONL fixture, the binary one is never regenerated.

use rispp::obs::{bin, jsonl, BinaryReader, Record};
use rispp_bench::report::{analyze, render_markdown, ReportConfig};

const FIXTURE: &str = include_str!("golden/fig6_faulted.jsonl");
const FIXTURE_BIN: &[u8] = include_bytes!("golden/fig6_faulted.bin");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6_faulted.md");

#[test]
fn report_markdown_matches_golden() {
    let probe = analyze(FIXTURE, &ReportConfig::h264(0)).expect("fixture analyzes");
    let config = ReportConfig::infer(&probe.timeline);
    let analysis = analyze(FIXTURE, &config).expect("fixture analyzes");
    let rendered = render_markdown(&analysis, &config);

    if std::env::var_os("RISPP_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("bless golden markdown");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden markdown missing — create it with RISPP_BLESS=1");
    assert_eq!(
        rendered, golden,
        "rendered report drifted from {GOLDEN_PATH}; if the change is \
         intentional, re-bless with RISPP_BLESS=1"
    );
}

#[test]
fn fixture_exercises_the_fault_path() {
    // The fixture must keep covering the fault-event vocabulary; a
    // "clean" fixture would silently stop regression-testing how the
    // report presents failures and stalls.
    assert!(FIXTURE.contains("\"ev\":\"rotation_failed\""));
    assert!(FIXTURE.contains("\"ev\":\"port_stalled\""));
}

/// The fixture's event lines (everything but the schema header).
fn event_lines() -> impl Iterator<Item = &'static str> {
    FIXTURE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.contains("\"schema_version\""))
}

#[test]
fn jsonl_fixture_re_encodes_byte_for_byte() {
    let mut n = 0;
    for line in event_lines() {
        let record = jsonl::decode(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(jsonl::encode(record.at, &record.event), line);
        n += 1;
    }
    assert!(n > 1000, "only {n} event lines");
}

#[test]
fn earlier_binary_capture_decodes_to_the_fixture() {
    let expected: Vec<Record> = event_lines()
        .map(|l| jsonl::decode(l).expect("fixture line decodes"))
        .collect();
    let decoded: Vec<Record> = BinaryReader::new(FIXTURE_BIN)
        .collect::<std::io::Result<_>>()
        .expect("binary fixture decodes");
    assert_eq!(decoded, expected);

    let mut timeline = rispp::obs::TimelineSink::new();
    bin::replay(FIXTURE_BIN, &mut timeline).expect("binary fixture replays");
    assert_eq!(timeline.timeline().entries(), expected.as_slice());
}
