//! Streaming JSON Lines export and replay.
//!
//! [`JsonlSink`] writes one self-describing JSON object per event as it
//! happens; [`replay`] feeds an exported stream back into any
//! [`EventSink`], reconstructing — for a [`TimelineSink`] — a timeline
//! identical to the live one. The encoding is hand-rolled (the workspace
//! is offline, no serde) but round-trips every field exactly: integers
//! verbatim and parsed back as exact `u64`s, floats through Rust's
//! shortest-round-trip `Display`. Keys and value forms come from the
//! schema table in [`crate::event`].
//!
//! The export format is a contract (reports, golden files, the bench
//! suite all consume it), so streams are versioned: the sink prefixes
//! the first event with a `{"schema_version":N}` header record. Replay
//! accepts headerless streams as version 0 — every pre-header export
//! decodes unchanged — but refuses versions newer than
//! [`SCHEMA_VERSION`], failing loudly instead of misreading a future
//! encoding.
//!
//! [`TimelineSink`]: crate::timeline::TimelineSink

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};

use rispp_core::molecule::Molecule;

use crate::event::{wire, Event, Record, ReselectTrigger, WireInt};
use crate::sink::EventSink;

/// Version of the export schema this build writes (and the newest it
/// replays). Headerless streams replay as version 0.
pub const SCHEMA_VERSION: u64 = 1;

/// Sink serialising every event to a writer, one JSON object per line.
///
/// The first emit is prefixed with a `{"schema_version":N}` header
/// record, so an export that never saw an event stays empty.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    line: String,
    header_written: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (`Vec<u8>` for in-memory export, a file, …).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            header_written: false,
        }
    }

    /// Read access to the writer (e.g. the accumulated bytes of a
    /// `Vec<u8>`).
    pub fn writer(&self) -> &W {
        &self.writer
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    /// Serialises the event.
    ///
    /// I/O errors cannot be reported through the sink interface; they
    /// panic, matching the severity of losing telemetry mid-export.
    fn emit(&mut self, at: u64, event: &Event) {
        if !self.header_written {
            self.header_written = true;
            self.writer
                .write_all(format!("{{\"schema_version\":{SCHEMA_VERSION}}}\n").as_bytes())
                .expect("JSONL sink write failed");
        }
        self.line.clear();
        encode_into(&mut self.line, at, event);
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .expect("JSONL sink write failed");
    }
}

/// Encodes one record as a single JSON line (no trailing newline).
#[must_use]
pub fn encode(at: u64, event: &Event) -> String {
    let mut s = String::new();
    encode_into(&mut s, at, event);
    s
}

fn encode_into(out: &mut String, at: u64, event: &Event) {
    let _ = write!(out, "{{\"at\":{at},\"ev\":");
    event.put_jsonl(out);
    out.push('}');
}

/// The JSONL half of a [`wire`] type.
pub(crate) trait JsonField<T> {
    /// Appends `,"key":value`, or nothing for a value JSONL omits.
    fn put(out: &mut String, key: &str, v: &T);
    /// Reads the value back from a parsed object.
    fn take(fields: &Fields<'_>, key: &str) -> Result<T, JsonlError>;
}

fn put_key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

impl<T: WireInt> JsonField<T> for wire::Int {
    fn put(out: &mut String, key: &str, v: &T) {
        put_key(out, key);
        let _ = write!(out, "{}", v.to_u64());
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<T, JsonlError> {
        fields.int(key)
    }
}

impl JsonField<f64> for wire::Float {
    fn put(out: &mut String, key: &str, v: &f64) {
        put_key(out, key);
        let _ = write!(out, "{v}");
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<f64, JsonlError> {
        let n = match fields.get(key)? {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        };
        n.ok_or_else(|| fields.error(format!("field {key:?} is not a number")))
    }
}

impl<const OMIT_FALSE: bool> JsonField<bool> for wire::Flag<OMIT_FALSE> {
    fn put(out: &mut String, key: &str, v: &bool) {
        if *v || !OMIT_FALSE {
            put_key(out, key);
            out.push_str(if *v { "true" } else { "false" });
        }
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<bool, JsonlError> {
        if OMIT_FALSE && !fields.has(key) {
            return Ok(false);
        }
        match fields.get(key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(fields.error(format!("field {key:?} is not a boolean"))),
        }
    }
}

impl JsonField<Molecule> for wire::Interned {
    fn put(out: &mut String, key: &str, m: &Molecule) {
        put_key(out, key);
        out.push('[');
        for (i, c) in m.as_slice().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push(']');
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<Molecule, JsonlError> {
        match fields.get(key)? {
            Value::Arr(counts) => Ok(counts.iter().copied().collect()),
            _ => Err(fields.error(format!("field {key:?} is not an array"))),
        }
    }
}

impl JsonField<Option<Molecule>> for wire::OptInterned {
    fn put(out: &mut String, key: &str, v: &Option<Molecule>) {
        if let Some(m) = v {
            wire::Interned::put(out, key, m);
        }
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<Option<Molecule>, JsonlError> {
        fields
            .has(key)
            .then(|| wire::Interned::take(fields, key))
            .transpose()
    }
}

impl JsonField<ReselectTrigger> for wire::Trigger {
    fn put(out: &mut String, key: &str, v: &ReselectTrigger) {
        put_key(out, key);
        let _ = write!(out, "\"{}\"", v.name());
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<ReselectTrigger, JsonlError> {
        let name = fields.str(key)?;
        let found = ReselectTrigger::ALL.into_iter().find(|t| t.name() == name);
        found.ok_or_else(|| fields.error(format!("unknown reselect trigger {name:?}")))
    }
}

impl JsonField<Option<u32>> for wire::LeadOpt {
    fn put(out: &mut String, key: &str, v: &Option<u32>) {
        if let Some(v) = v {
            wire::Int::put(out, key, v);
        }
    }
    fn take(fields: &Fields<'_>, key: &str) -> Result<Option<u32>, JsonlError> {
        fields.has(key).then(|| fields.int(key)).transpose()
    }
}

/// A malformed JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonlError {
    /// 1-based line number within the replayed stream.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jsonl line {}: {}", self.line, self.message)
    }
}

impl Error for JsonlError {}

/// Decodes one JSON line into a record.
///
/// # Errors
///
/// Returns [`JsonlError`] (with `line = 1`) for malformed input.
pub fn decode(line: &str) -> Result<Record, JsonlError> {
    decode_at_line(line, 1)
}

fn err(line: usize, message: impl Into<String>) -> JsonlError {
    JsonlError {
        line,
        message: message.into(),
    }
}

/// One parsed JSON value (the subset the encoding uses). Numbers stay raw
/// text until a typed read parses them exactly as `u64` or `f64`.
#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Num(&'a str),
    Bool(bool),
    Str(&'a str),
    Arr(Vec<u32>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonlError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(
                self.line,
                format!("expected {:?} at byte {}", b as char, self.pos),
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<&'a str, JsonlError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\\' {
                return Err(err(self.line, "escapes are not used by this encoding"));
            }
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err(self.line, "invalid utf-8 in string"))?;
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(err(self.line, "unterminated string"))
    }

    /// Scans one number token: a digit run, or anything `f64` parses.
    fn parse_number(&mut self) -> Result<&'a str, JsonlError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        // The scanned bytes are ASCII, so this cannot fail.
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if is_digits(token) || token.parse::<f64>().is_ok() {
            Ok(token)
        } else {
            Err(err(self.line, format!("malformed number at byte {start}")))
        }
    }

    fn parse_value(&mut self) -> Result<Value<'a>, JsonlError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't' | b'f') => {
                let v = self.bytes[self.pos] == b't';
                let word = if v { "true" } else { "false" };
                if !self.bytes[self.pos..].starts_with(word.as_bytes()) {
                    return Err(err(self.line, "malformed boolean"));
                }
                self.pos += word.len();
                Ok(Value::Bool(v))
            }
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    let n = self.parse_number()?;
                    let count = is_digits(n).then(|| n.parse().ok()).flatten();
                    items.push(
                        count.ok_or_else(|| err(self.line, "array items must be u32 counts"))?,
                    );
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(err(self.line, "malformed array")),
                    }
                }
            }
            _ => Ok(Value::Num(self.parse_number()?)),
        }
    }

    /// Parses the flat object `{"key":value,...}` into pairs.
    fn parse_object(&mut self) -> Result<Vec<(&'a str, Value<'a>)>, JsonlError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.skip_ws();
                    if self.pos != self.bytes.len() {
                        return Err(err(self.line, "trailing bytes after object"));
                    }
                    return Ok(pairs);
                }
                _ => return Err(err(self.line, "malformed object")),
            }
        }
    }
}

/// `true` for a non-empty run of ASCII digits: the only integer form
/// the decoder accepts (no sign, fraction or exponent).
fn is_digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// The fields of one parsed JSONL object, with typed reads.
pub(crate) struct Fields<'a> {
    pairs: Vec<(&'a str, Value<'a>)>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn parse(line: &'a str, number: usize) -> Result<Self, JsonlError> {
        let mut parser = Parser {
            bytes: line.as_bytes(),
            pos: 0,
            line: number,
        };
        Ok(Fields {
            pairs: parser.parse_object()?,
            line: number,
        })
    }

    /// An error on this object's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> JsonlError {
        err(self.line, message)
    }

    fn get(&self, key: &str) -> Result<&Value<'a>, JsonlError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| self.error(format!("missing field {key:?}")))
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| *k == key)
    }

    /// An integer field, parsed exactly.
    fn int<T: WireInt>(&self, key: &str) -> Result<T, JsonlError> {
        match self.get(key)? {
            Value::Num(n) if is_digits(n) => n
                .parse()
                .ok()
                .and_then(T::from_u64)
                .ok_or_else(|| self.error(format!("field {key:?} is out of range"))),
            _ => Err(self.error(format!("field {key:?} is not an unsigned integer"))),
        }
    }

    fn str(&self, key: &str) -> Result<&'a str, JsonlError> {
        match self.get(key)? {
            Value::Str(s) => Ok(s),
            _ => Err(self.error(format!("field {key:?} is not a string"))),
        }
    }
}

fn decode_at_line(line: &str, number: usize) -> Result<Record, JsonlError> {
    let fields = Fields::parse(line, number)?;
    let at = fields.int("at")?;
    let event = Event::take_jsonl(fields.str("ev")?, &fields)?;
    Ok(Record { at, event })
}

/// Handles the `{"schema_version":N}` header, which must be the first
/// non-empty line and carry a version this build understands. `Ok(true)`
/// means `line` was the header; `Ok(false)` hands it to the decoder.
fn is_header(line: &str, number: usize, first: bool) -> Result<bool, JsonlError> {
    if !first {
        // No event encoding contains this key, so a plain scan suffices
        // to reject stray headers without re-parsing every line.
        if line.contains("\"schema_version\"") {
            return Err(err(
                number,
                "schema_version header must be the first record",
            ));
        }
        return Ok(false);
    }
    // Only the first line pays this extra parse. Lines that are not
    // objects fall through to the event decoder and its errors.
    let Some(fields) = Fields::parse(line, number)
        .ok()
        .filter(|f| f.has("schema_version"))
    else {
        return Ok(false);
    };
    let version: u64 = fields.int("schema_version")?;
    if version > SCHEMA_VERSION {
        return Err(err(
            number,
            format!(
                "unsupported schema_version {version} \
                 (this build replays versions up to {SCHEMA_VERSION})"
            ),
        ));
    }
    Ok(true)
}

/// Replays an exported JSONL stream into a sink, line by line. Empty
/// lines are skipped. A leading `{"schema_version":N}` header is
/// validated and consumed; headerless streams replay as version 0.
///
/// # Errors
///
/// Returns [`JsonlError`] for the first malformed line, a misplaced or
/// repeated header, or a schema version newer than [`SCHEMA_VERSION`].
pub fn replay<S: EventSink>(jsonl: &str, sink: &mut S) -> Result<(), JsonlError> {
    replay_lines(jsonl.lines().map(Ok), sink, |e| e)
}

/// Replays an exported JSONL stream from a reader into a sink, with the
/// same header handling as [`replay`].
///
/// # Errors
///
/// Returns the underlying I/O error, or an [`JsonlError`] wrapped in
/// [`io::Error`] for a malformed line or an unsupported schema version.
pub fn replay_reader<R: io::BufRead, S: EventSink>(reader: R, sink: &mut S) -> io::Result<()> {
    replay_lines(reader.lines(), sink, |e| {
        io::Error::new(io::ErrorKind::InvalidData, e)
    })
}

fn replay_lines<L: AsRef<str>, E, S: EventSink>(
    lines: impl Iterator<Item = Result<L, E>>,
    sink: &mut S,
    wrap: impl Fn(JsonlError) -> E,
) -> Result<(), E> {
    let mut first = true;
    for (i, line) in lines.enumerate() {
        let line = line?;
        let line = line.as_ref();
        if line.trim().is_empty()
            || is_header(line, i + 1, std::mem::take(&mut first)).map_err(&wrap)?
        {
            continue;
        }
        let record = decode_at_line(line, i + 1).map_err(&wrap)?;
        sink.emit(record.at, &record.event);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::sample_records as all_events;
    use crate::timeline::TimelineSink;
    use rispp_core::si::SiId;

    #[test]
    fn every_event_round_trips() {
        for r in all_events() {
            let line = encode(r.at, &r.event);
            let back = decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, r, "line {line}");
        }
    }

    #[test]
    fn sink_stream_replays_into_identical_timeline() {
        let mut jsonl = JsonlSink::new(Vec::new());
        let mut live = TimelineSink::new();
        for r in all_events() {
            jsonl.emit(r.at, &r.event);
            live.emit(r.at, &r.event);
        }
        let exported = String::from_utf8(jsonl.into_inner()).unwrap();
        // One header line plus one line per event.
        assert_eq!(exported.lines().count(), all_events().len() + 1);
        assert_eq!(
            exported.lines().next().unwrap(),
            format!("{{\"schema_version\":{SCHEMA_VERSION}}}")
        );

        let mut replayed = TimelineSink::new();
        replay(&exported, &mut replayed).unwrap();
        assert_eq!(replayed.timeline(), live.timeline());

        let mut from_reader = TimelineSink::new();
        replay_reader(exported.as_bytes(), &mut from_reader).unwrap();
        assert_eq!(from_reader.timeline(), live.timeline());
    }

    #[test]
    fn untouched_sink_writes_no_header() {
        let jsonl = JsonlSink::new(Vec::new());
        assert!(jsonl.into_inner().is_empty());
    }

    #[test]
    fn headerless_streams_replay_as_version_zero() {
        let mut live = TimelineSink::new();
        let mut text = String::new();
        for r in all_events() {
            live.emit(r.at, &r.event);
            text.push_str(&encode(r.at, &r.event));
            text.push('\n');
        }
        let mut replayed = TimelineSink::new();
        replay(&text, &mut replayed).unwrap();
        assert_eq!(replayed.timeline(), live.timeline());
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let stream = format!(
            "{{\"schema_version\":{}}}\n{}",
            SCHEMA_VERSION + 1,
            encode(
                1,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0)
                }
            ),
        );
        let mut sink = TimelineSink::new();
        let e = replay(&stream, &mut sink).unwrap_err();
        assert!(e.message.contains("unsupported schema_version"), "{e}");
        assert_eq!(e.line, 1);
        assert!(sink.timeline().is_empty());

        let io_err = replay_reader(stream.as_bytes(), &mut sink).unwrap_err();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn header_after_events_is_rejected() {
        let stream = format!(
            "{}\n{{\"schema_version\":1}}",
            encode(
                1,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(0)
                }
            ),
        );
        let mut sink = TimelineSink::new();
        let e = replay(&stream, &mut sink).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("first record"), "{e}");

        // A repeated header is rejected the same way.
        let doubled = "{\"schema_version\":1}\n{\"schema_version\":1}";
        let e = replay(doubled, &mut TimelineSink::new()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for p in [0.1, 1.0 / 3.0, 5e-324, 1.797e308, 0.0] {
            let line = encode(
                7,
                &Event::ForecastUpdated {
                    task: 0,
                    si: SiId(0),
                    probability: p,
                    expected_executions: p * 0.5,
                },
            );
            match decode(&line).unwrap().event {
                Event::ForecastUpdated {
                    probability,
                    expected_executions,
                    ..
                } => {
                    assert_eq!(probability.to_bits(), p.to_bits());
                    assert_eq!(expected_executions.to_bits(), (p * 0.5).to_bits());
                }
                other => panic!("wrong event {other:?}"),
            }
        }
    }

    #[test]
    fn integers_are_parsed_exactly() {
        for at in [(1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let event = Event::PortStalled { until: at - 1 };
            let back = decode(&encode(at, &event)).unwrap();
            assert_eq!(back, Record { at, event });
        }
        let retracted =
            |at: &str| format!("{{\"at\":{at},\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}}");
        for bad in ["1e30", "1.5e1", "15.0", "18446744073709551616", "+1", "-0"] {
            let stream = format!("{}\n{}", retracted("1"), retracted(bad));
            let e = replay(&stream, &mut TimelineSink::new()).unwrap_err();
            assert_eq!(e.line, 2, "{bad}: {e}");
            assert!(e.message.contains("\"at\""), "{bad}: {e}");
        }
        // Float fields keep accepting every decimal form.
        let line = "{\"at\":1,\"ev\":\"forecast_updated\",\"task\":0,\"si\":0,\
                    \"probability\":1e-3,\"expected_executions\":2}";
        match decode(line).unwrap().event {
            Event::ForecastUpdated {
                probability,
                expected_executions,
                ..
            } => assert_eq!((probability, expected_executions), (0.001, 2.0)),
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let cases = [
            "",
            "{",
            "{\"at\":1}",
            "{\"at\":1,\"ev\":\"nope\"}",
            "{\"at\":1,\"ev\":\"reselect\",\"trigger\":\"bogus\",\"duration_ns\":0}",
            "{\"at\":-1,\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}",
            "{\"at\":1,\"ev\":\"si_executed\",\"task\":0,\"si\":0,\"hw\":1,\"cycles\":2}",
        ];
        for c in cases {
            assert!(decode(c).is_err(), "accepted {c:?}");
        }
        let good = "{\"at\":1,\"ev\":\"forecast_retracted\",\"task\":0,\"si\":0}";
        let mut sink = TimelineSink::new();
        let e = replay(&format!("{good}\n{{bad"), &mut sink).unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(sink.timeline().len(), 1);
    }
}
