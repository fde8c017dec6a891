//! Compact binary event transport: the low-overhead sibling of
//! [`crate::jsonl`].
//!
//! [`BinarySink`] serialises every event into a versioned, length-prefixed
//! binary stream with batched buffered writes; [`replay`] /
//! [`StreamDecoder`] / [`BinaryReader`] turn the stream back into the
//! identical [`Event`] values a [`Timeline`](crate::Timeline) would hold.
//! The format exists because JSONL costs hundreds of nanoseconds per
//! event (shortest-round-trip float formatting, field names, UTF-8) while
//! fleet-scale runs emit millions of events per second per shard — the
//! binary encoding writes a handful of bytes per event and amortises the
//! `write` syscall over a batch.
//!
//! ## Wire format
//!
//! The stream opens with a header: the 4-byte magic [`MAGIC`]
//! (`0x8B 'R' 'S' 'P'` — the lead byte is outside ASCII, so no JSONL
//! stream can ever alias it) followed by the schema version as a varint.
//! Decoders refuse versions newer than [`BIN_SCHEMA_VERSION`], mirroring
//! the JSONL header contract.
//!
//! Each record is length-prefixed: `varint(body_len)` then exactly
//! `body_len` body bytes. The body is `tag byte · zigzag-varint timestamp
//! delta · fields`, where each event's tag and field layout come from the
//! schema table in [`crate::event`]; this module holds the generic
//! machinery (varints, intern tables, framing, streaming decode):
//!
//! * integers are LEB128 varints, written minimally; decoders also accept
//!   padded, non-minimal forms (an earlier encoder padded `SiExecuted`'s
//!   delta and cycle count to two bytes);
//! * the timestamp is delta-encoded against the previous record's cycle
//!   (zigzag, so out-of-order timestamps still round-trip);
//! * `f64` fields are 8 little-endian bytes of [`f64::to_bits`]
//!   (bit-exact round-trip, NaN payloads included);
//! * booleans, `Option` discriminants and the reselect trigger code share
//!   one flags byte right after the delta, filled from bit 0 in field
//!   order; set bits no field claims are refused;
//! * `UpgradeStep`'s optional task leads its fields, as `task + 1` with
//!   `0` for none;
//! * [`Molecule`] values are interned: a varint table index, where an
//!   index equal to the current table size introduces a new entry and is
//!   followed by its definition (`varint(len)` then `len` varint counts).
//!   Encoder and decoder grow the table in lockstep, so repeated
//!   Molecules (the overwhelmingly common case) cost one byte.
//!
//! Like [`JsonlSink`](crate::JsonlSink), an untouched sink writes
//! nothing — the header is emitted lazily with the first event.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use rispp_core::molecule::Molecule;

use crate::event::{wire, Event, Record, ReselectTrigger, WireInt};
use crate::sink::EventSink;

/// Magic bytes opening every binary event stream. The first byte is
/// deliberately non-ASCII so no JSONL export (which starts with `{` or
/// whitespace) can ever be mistaken for a binary stream, and vice versa.
pub const MAGIC: [u8; 4] = [0x8B, b'R', b'S', b'P'];

/// Version of the binary schema this build writes (and the newest it
/// decodes). Streams carrying a newer version are refused, never
/// misread.
pub const BIN_SCHEMA_VERSION: u64 = 1;

/// Bytes buffered in a [`BinarySink`] before a batched write.
const FLUSH_THRESHOLD: usize = 8 * 1024;

/// Returns `true` when `prefix` starts with the binary magic — the
/// auto-detection probe `rispp_report` and `rispp_serve` use to pick a
/// decoder. Prefixes shorter than [`MAGIC`] return `false`.
#[must_use]
pub fn is_binary(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// A malformed or unsupported binary stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinError {
    /// Byte offset (within the whole stream) of the record that failed.
    pub offset: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "binary stream offset {}: {}", self.offset, self.message)
    }
}

impl Error for BinError {}

fn err(offset: u64, message: impl Into<String>) -> BinError {
    BinError {
        offset,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

#[inline(always)]
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encoder state of one stream: output buffer, previous cycle, Molecule
/// intern table and the body being written.
#[derive(Debug, Default)]
pub(crate) struct Stream {
    buf: Vec<u8>,
    last_at: u64,
    table: Vec<Molecule>,
    last_mol: usize,
    /// The body; bytes past its end (rare long bodies) spill.
    body: [u8; 32],
    spill: Vec<u8>,
}

/// Writes one record into its [`Stream`]: a local with every method
/// inlined, so `len` stays in a register and a byte is one store.
pub(crate) struct Encoder<'a> {
    stream: &'a mut Stream,
    len: usize,
    /// Offset of the body's flags byte and its next free bit.
    flags_at: usize,
    shift: u32,
}

impl<'a> Encoder<'a> {
    /// Starts a body: tag, timestamp delta and, when the variant has flag
    /// bits, a zeroed flags byte.
    #[inline(always)]
    pub(crate) fn new(stream: &'a mut Stream, at: u64, tag: u8, flag_bits: u32) -> Self {
        let delta = at.wrapping_sub(stream.last_at) as i64;
        stream.last_at = at;
        let mut enc = Encoder {
            stream,
            len: 0,
            flags_at: 0,
            shift: 0,
        };
        enc.byte(tag);
        enc.varint(((delta << 1) ^ (delta >> 63)) as u64); // zigzag
        if flag_bits > 0 {
            enc.flags_at = enc.len;
            enc.byte(0);
        }
        enc
    }

    /// Appends the length prefix and the body to the stream's buffer.
    #[inline(always)]
    pub(crate) fn finish(&mut self) {
        let s = &mut *self.stream;
        put_varint(&mut s.buf, self.len as u64);
        // Copying the whole array is a few moves, not a memcpy call.
        let end = s.buf.len() + self.len.min(s.body.len());
        s.buf.extend_from_slice(&s.body);
        s.buf.truncate(end);
        if !s.spill.is_empty() {
            s.buf.append(&mut s.spill);
        }
    }

    #[inline(always)]
    fn byte(&mut self, b: u8) {
        match self.stream.body.get_mut(self.len) {
            Some(slot) => *slot = b,
            None => spill(&mut self.stream.spill, b),
        }
        self.len += 1;
    }

    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        // One- and two-byte varints (nearly every field) check room once.
        if let Some(pair) = self.stream.body.get_mut(self.len..self.len + 2) {
            if v < 0x80 {
                pair[0] = v as u8;
                self.len += 1;
                return;
            }
            if v < 0x4000 {
                pair[0] = v as u8 | 0x80;
                pair[1] = (v >> 7) as u8;
                self.len += 2;
                return;
            }
        }
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    #[inline(always)]
    fn flag(&mut self, bits: u32, v: u8) {
        self.stream.body[self.flags_at] |= v << self.shift;
        self.shift += bits;
    }
}

#[cold]
fn spill(spill: &mut Vec<u8>, b: u8) {
    spill.push(b);
}

/// The binary half of a [`wire`] type: flag bits or a lead varint (the
/// "head", before any body bytes) and body bytes; the defaults take none.
pub(crate) trait BinField<T> {
    /// Flag bits the field takes.
    const BITS: u32 = 0;
    /// Writes the field's flag bits or lead varint.
    fn put_head(_: &mut Encoder<'_>, _: &T) {}
    /// Writes the field's body bytes.
    fn put(_: &mut Encoder<'_>, _: &T) {}
    /// Reads the field's flag bits or lead varint (`0` when it has none).
    fn take_head(body: &mut Body<'_>, _: &str) -> Result<u64, BinError> {
        Ok(body.flag_bits(Self::BITS))
    }
    /// Rebuilds the value from its head and its body bytes.
    fn take(body: &mut Body<'_>, head: u64, key: &str) -> Result<T, BinError>;
}

impl<T: WireInt> BinField<T> for wire::Int {
    fn put(enc: &mut Encoder<'_>, v: &T) {
        enc.varint(v.to_u64());
    }
    #[inline(always)]
    fn take(body: &mut Body<'_>, _: u64, key: &str) -> Result<T, BinError> {
        let v = body.varint(key)?;
        T::from_u64(v).ok_or_else(|| body.out_of_range(key, v))
    }
}

impl BinField<f64> for wire::Float {
    fn put(enc: &mut Encoder<'_>, v: &f64) {
        for b in v.to_bits().to_le_bytes() {
            enc.byte(b);
        }
    }
    fn take(body: &mut Body<'_>, _: u64, key: &str) -> Result<f64, BinError> {
        let raw = body.bytes.get(body.pos..body.pos + 8);
        let raw = raw
            .and_then(|r| r.try_into().ok())
            .ok_or_else(|| body.fail(key))?;
        body.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }
}

impl<const OMIT_FALSE: bool> BinField<bool> for wire::Flag<OMIT_FALSE> {
    const BITS: u32 = 1;
    fn put_head(enc: &mut Encoder<'_>, v: &bool) {
        enc.flag(1, u8::from(*v));
    }
    fn take(_: &mut Body<'_>, head: u64, _: &str) -> Result<bool, BinError> {
        Ok(head != 0)
    }
}

impl BinField<Molecule> for wire::Interned {
    /// Writes an intern-table reference, defining the Molecule at its
    /// first sighting. `last_mol` caches the previous match: consecutive
    /// events mostly repeat one Molecule, so one comparison usually does.
    #[inline(always)]
    fn put(enc: &mut Encoder<'_>, m: &Molecule) {
        let s = &mut *enc.stream;
        let hit = if s.table.get(s.last_mol) == Some(m) {
            Some(s.last_mol)
        } else {
            s.table.iter().position(|t| t == m)
        };
        let idx = hit.unwrap_or(s.table.len());
        s.last_mol = idx;
        if hit.is_none() {
            s.table.push(m.clone());
        }
        enc.varint(idx as u64);
        if hit.is_none() {
            enc.varint(m.as_slice().len() as u64);
            for &c in m.as_slice() {
                enc.varint(u64::from(c));
            }
        }
    }
    fn take(body: &mut Body<'_>, _: u64, _: &str) -> Result<Molecule, BinError> {
        let idx = body.varint("molecule index")?;
        let len = body.table.len();
        if let Some(m) = usize::try_from(idx).ok().and_then(|i| body.table.get(i)) {
            return Ok(m.clone());
        }
        if idx != len as u64 {
            return Err(body.error(format!(
                "molecule index {idx} skips ahead of the intern table (len {len})"
            )));
        }
        let n = body.varint("molecule length")?;
        let m = (0..n)
            .map(|_| wire::Int::take(body, 0, "molecule count"))
            .collect::<Result<Molecule, _>>()?;
        body.table.push(m.clone());
        Ok(m)
    }
}

impl BinField<Option<Molecule>> for wire::OptInterned {
    const BITS: u32 = 1;
    fn put_head(enc: &mut Encoder<'_>, v: &Option<Molecule>) {
        enc.flag(1, u8::from(v.is_some()));
    }
    #[inline(always)]
    fn put(enc: &mut Encoder<'_>, v: &Option<Molecule>) {
        if let Some(m) = v {
            wire::Interned::put(enc, m);
        }
    }
    fn take(body: &mut Body<'_>, head: u64, key: &str) -> Result<Option<Molecule>, BinError> {
        (head != 0)
            .then(|| wire::Interned::take(body, head, key))
            .transpose()
    }
}

impl BinField<ReselectTrigger> for wire::Trigger {
    const BITS: u32 = 7;
    fn put_head(enc: &mut Encoder<'_>, v: &ReselectTrigger) {
        enc.flag(7, *v as u8);
    }
    fn take(body: &mut Body<'_>, head: u64, _: &str) -> Result<ReselectTrigger, BinError> {
        let found = ReselectTrigger::ALL.into_iter().find(|t| *t as u64 == head);
        found.ok_or_else(|| body.error(format!("unknown reselect trigger {head}")))
    }
}

impl BinField<Option<u32>> for wire::LeadOpt {
    #[inline(always)]
    fn put_head(enc: &mut Encoder<'_>, v: &Option<u32>) {
        enc.varint(v.map_or(0, |t| u64::from(t) + 1));
    }
    fn take_head(body: &mut Body<'_>, key: &str) -> Result<u64, BinError> {
        body.varint(key)
    }
    fn take(body: &mut Body<'_>, head: u64, key: &str) -> Result<Option<u32>, BinError> {
        let t = head.checked_sub(1);
        t.map(|t| u32::from_u64(t).ok_or_else(|| body.out_of_range(key, t)))
            .transpose()
    }
}

// ---------------------------------------------------------------------
// BinarySink
// ---------------------------------------------------------------------

/// Sink serialising every event into the compact binary format, with
/// batched buffered writes (the underlying writer sees one `write` per
/// ~8 KiB of encoded events, not one per event).
///
/// Dropping the sink flushes best-effort; call [`BinarySink::flush`] or
/// [`BinarySink::into_inner`] to observe write errors.
#[derive(Debug)]
pub struct BinarySink<W: Write> {
    writer: Option<W>,
    stream: Stream,
    header_written: bool,
}

impl<W: Write> BinarySink<W> {
    /// Wraps a writer (`Vec<u8>` for in-memory export, a file, …).
    pub fn new(writer: W) -> Self {
        BinarySink {
            writer: Some(writer),
            stream: Stream {
                buf: Vec::with_capacity(FLUSH_THRESHOLD + 256),
                ..Stream::default()
            },
            header_written: false,
        }
    }

    /// Writes any buffered bytes through to the writer and flushes it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.write_buffered()?.flush()
    }

    /// Hands the buffered bytes to the writer; they stay buffered when
    /// the write fails.
    fn write_buffered(&mut self) -> io::Result<&mut W> {
        let writer = self
            .writer
            .as_mut()
            .expect("writer present until into_inner");
        if !self.stream.buf.is_empty() {
            writer.write_all(&self.stream.buf)?;
            self.stream.buf.clear();
        }
        Ok(writer)
    }

    /// Flushes and consumes the sink, returning the writer.
    ///
    /// # Panics
    ///
    /// Panics when the final flush fails, matching the severity of
    /// losing telemetry mid-export.
    #[must_use]
    pub fn into_inner(mut self) -> W {
        self.flush().expect("binary sink flush failed");
        self.writer.take().expect("writer present until into_inner")
    }
}

impl<W: Write> EventSink for BinarySink<W> {
    /// Serialises the event.
    ///
    /// I/O errors cannot be reported through the sink interface; they
    /// panic, matching [`JsonlSink`](crate::JsonlSink).
    fn emit(&mut self, at: u64, event: &Event) {
        if !self.header_written {
            self.header_written = true;
            self.stream.buf.extend_from_slice(&MAGIC);
            put_varint(&mut self.stream.buf, BIN_SCHEMA_VERSION);
        }
        event.put_bin(&mut self.stream, at);
        if self.stream.buf.len() >= FLUSH_THRESHOLD {
            self.write_buffered().expect("binary sink write failed");
        }
    }
}

impl<W: Write> Drop for BinarySink<W> {
    fn drop(&mut self) {
        // Best-effort: errors cannot propagate out of drop. Callers that
        // must observe them go through `flush`/`into_inner`.
        if self.writer.is_some() {
            let _ = self.flush();
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Reads primitives off a fully-buffered record body, where running out
/// of bytes is corruption (the length prefix promised them), and grows
/// the decoder's Molecule intern table as definitions arrive.
pub(crate) struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    offset: u64,
    table: &'a mut Vec<Molecule>,
    /// The record's flags byte and its next unread bit.
    flags: u8,
    shift: u32,
}

impl Body<'_> {
    /// An error at this record's offset.
    #[cold]
    pub(crate) fn error(&self, message: impl Into<String>) -> BinError {
        err(self.offset, message)
    }

    #[cold]
    fn fail(&self, what: &str) -> BinError {
        self.error(format!("truncated or malformed {what}"))
    }

    #[cold]
    fn out_of_range(&self, what: &str, v: u64) -> BinError {
        self.error(format!("{what} {v} out of range"))
    }

    fn u8(&mut self, what: &str) -> Result<u8, BinError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.fail(what))?;
        self.pos += 1;
        Ok(b)
    }

    #[inline(always)]
    fn varint(&mut self, what: &str) -> Result<u64, BinError> {
        let (v, end) = match self.bytes.get(self.pos) {
            // One-byte varints (most fields) skip the general loop.
            Some(&b) if b < 0x80 => (u64::from(b), self.pos + 1),
            _ => read_varint(self.bytes, self.pos, self.offset, what)?
                .ok_or_else(|| self.fail(what))?,
        };
        self.pos = end;
        Ok(v)
    }

    /// Reads the flags byte of event `name` when its variant has
    /// `flag_bits`, refusing set bits that no field claims.
    pub(crate) fn begin(&mut self, flag_bits: u32, name: &str) -> Result<(), BinError> {
        self.flags = if flag_bits > 0 { self.u8("flags")? } else { 0 };
        self.shift = 0;
        if u32::from(self.flags) >> flag_bits != 0 {
            return Err(self.error(format!("unknown {name} flags {:#x}", self.flags)));
        }
        Ok(())
    }

    fn flag_bits(&mut self, bits: u32) -> u64 {
        let v = (u64::from(self.flags) >> self.shift) & ((1 << bits) - 1);
        self.shift += bits;
        v
    }
}

/// Decodes one complete record body into an event, updating the decoder
/// state exactly as the encoder updated its own.
fn decode_body(
    body: &[u8],
    offset: u64,
    last_at: &mut u64,
    table: &mut Vec<Molecule>,
) -> Result<Record, BinError> {
    let mut b = Body {
        bytes: body,
        pos: 0,
        offset,
        table,
        flags: 0,
        shift: 0,
    };
    let tag = b.u8("record tag")?;
    let z = b.varint("timestamp delta")?;
    let at = last_at.wrapping_add((((z >> 1) as i64) ^ -((z & 1) as i64)) as u64); // unzigzag
    *last_at = at;
    let event = Event::take_bin(tag, &mut b)?;
    if b.pos != body.len() {
        return Err(err(
            offset,
            format!("{} trailing bytes after record body", body.len() - b.pos),
        ));
    }
    Ok(Record { at, event })
}

/// Tries to read a varint at `bytes[pos..]`, returning it and the
/// position after it. `Ok(None)` means the buffer ends mid-varint (feed
/// more bytes); `Err` means the varint itself is malformed.
fn read_varint(
    bytes: &[u8],
    mut pos: usize,
    offset: u64,
    what: &str,
) -> Result<Option<(u64, usize)>, BinError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(pos) else {
            return Ok(None);
        };
        pos += 1;
        if shift == 63 && b > 1 {
            return Err(err(offset, format!("varint overflow in {what}")));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((v, pos)));
        }
        // A tenth byte (shift 63) either ends the varint or overflowed.
        shift += 7;
    }
}

/// Incremental decoder for a binary event stream: feed byte chunks as
/// they arrive (a growing file tail, a socket), pull complete records
/// out. Partial records stay buffered until the missing bytes arrive —
/// the primitive `rispp_serve` tails live logs with.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted periodically).
    start: usize,
    /// Absolute stream offset of `buf[start]`.
    offset: u64,
    header_done: bool,
    last_at: u64,
    table: Vec<Molecule>,
    /// A decode error is sticky: the stream state is unrecoverable.
    failed: bool,
}

impl StreamDecoder {
    /// Creates a decoder expecting a fresh stream (header first).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-arrived bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fully consumed so far (header + complete records).
    #[must_use]
    pub fn bytes_consumed(&self) -> u64 {
        self.offset
    }

    /// `true` once the stream header has been seen and validated.
    #[must_use]
    pub fn header_seen(&self) -> bool {
        self.header_done
    }

    /// Unconsumed bytes currently buffered (a partial record tail).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.offset += n as u64;
        // Compact once the dead prefix dominates, keeping feed() cheap.
        if self.start > 64 * 1024 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Decodes the next complete record, if its bytes have arrived.
    /// `Ok(None)` means "feed more bytes"; errors are sticky.
    ///
    /// # Errors
    ///
    /// Returns [`BinError`] for a bad magic, an unsupported schema
    /// version, or a malformed record.
    pub fn next_record(&mut self) -> Result<Option<Record>, BinError> {
        if self.failed {
            return Err(err(self.offset, "stream already failed"));
        }
        self.try_next().inspect_err(|_| self.failed = true)
    }

    fn try_next(&mut self) -> Result<Option<Record>, BinError> {
        if !self.header_done {
            let avail = &self.buf[self.start..];
            // Reject on the first wrong byte: callers probing a JSONL
            // stream should fail fast, not buffer forever.
            let n = avail.len().min(MAGIC.len());
            if avail[..n] != MAGIC[..n] {
                return Err(err(
                    self.offset,
                    "bad magic: not a RISPP binary event stream",
                ));
            }
            if n < MAGIC.len() {
                return Ok(None);
            }
            let Some((version, end)) =
                read_varint(avail, MAGIC.len(), self.offset, "schema version")?
            else {
                return Ok(None);
            };
            if version > BIN_SCHEMA_VERSION {
                return Err(err(
                    self.offset,
                    format!(
                        "unsupported bin schema_version {version} \
                         (this build decodes versions up to {BIN_SCHEMA_VERSION})"
                    ),
                ));
            }
            self.consume(end);
            self.header_done = true;
        }
        // Direct field borrows keep the body slice (`self.buf`) disjoint
        // from the decoder state (`self.last_at` / `self.table`).
        let avail = &self.buf[self.start..];
        let Some((len, body_start)) = read_varint(avail, 0, self.offset, "length prefix")? else {
            return Ok(None);
        };
        // A corrupted prefix can claim any length: checked, so it is
        // reported at this record instead of overflowing.
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| body_start.checked_add(len))
            .ok_or_else(|| err(self.offset, format!("record length {len} is out of range")))?;
        let Some(body) = avail.get(body_start..end) else {
            return Ok(None);
        };
        let record = decode_body(body, self.offset, &mut self.last_at, &mut self.table)?;
        self.consume(end);
        Ok(Some(record))
    }
}

/// Streaming reader over any [`Read`], yielding decoded records in
/// order. A truncated tail (bytes that never complete a record) or a
/// malformed record surfaces as an [`io::Error`] of kind
/// [`io::ErrorKind::InvalidData`].
#[derive(Debug)]
pub struct BinaryReader<R: Read> {
    reader: R,
    decoder: StreamDecoder,
    chunk: Vec<u8>,
    eof: bool,
    done: bool,
}

impl<R: Read> BinaryReader<R> {
    /// Wraps a reader positioned at the start of a binary stream.
    pub fn new(reader: R) -> Self {
        BinaryReader {
            reader,
            decoder: StreamDecoder::new(),
            chunk: vec![0u8; 64 * 1024],
            eof: false,
            done: false,
        }
    }
}

impl<R: Read> Iterator for BinaryReader<R> {
    type Item = io::Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
        while !self.done {
            let step = match self.decoder.next_record() {
                Ok(Some(record)) => return Some(Ok(record)),
                Ok(None) if self.eof => {
                    self.done = true;
                    check_complete(&self.decoder).map_err(invalid)
                }
                Ok(None) => match self.reader.read(&mut self.chunk) {
                    Ok(0) => {
                        self.eof = true;
                        Ok(())
                    }
                    Ok(n) => {
                        self.decoder.feed(&self.chunk[..n]);
                        Ok(())
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
                    Err(e) => Err(e),
                },
                Err(e) => Err(invalid(e)),
            };
            if let Err(e) = step {
                self.done = true;
                return Some(Err(e));
            }
        }
        None
    }
}

/// Replays a complete in-memory binary stream into a sink. An empty
/// input replays zero events (the untouched-sink case); anything else
/// must carry a full header and whole records.
///
/// # Errors
///
/// Returns [`BinError`] for a bad magic, an unsupported schema version,
/// a malformed record, or a truncated tail.
pub fn replay<S: EventSink>(bytes: &[u8], sink: &mut S) -> Result<(), BinError> {
    let mut decoder = StreamDecoder::new();
    decoder.feed(bytes);
    while let Some(record) = decoder.next_record()? {
        sink.emit(record.at, &record.event);
    }
    check_complete(&decoder)
}

/// At the end of the input: an error when an unfinished record remains.
fn check_complete(decoder: &StreamDecoder) -> Result<(), BinError> {
    match decoder.pending_bytes() {
        0 => Ok(()),
        n => Err(err(
            decoder.bytes_consumed(),
            format!("stream truncated mid-record ({n} dangling bytes)"),
        )),
    }
}

/// Replays a binary stream from a reader into a sink, with the same
/// contract as [`replay`].
///
/// # Errors
///
/// Returns the underlying I/O error, or a [`BinError`] wrapped in
/// [`io::Error`] for a malformed or truncated stream.
pub fn replay_reader<R: Read, S: EventSink>(reader: R, sink: &mut S) -> io::Result<()> {
    for record in BinaryReader::new(reader) {
        let record = record?;
        sink.emit(record.at, &record.event);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::sample_records as all_events;
    use crate::jsonl;
    use crate::timeline::TimelineSink;
    use rispp_core::si::SiId;

    fn encode_all(records: &[Record]) -> Vec<u8> {
        let mut sink = BinarySink::new(Vec::new());
        for r in records {
            sink.emit(r.at, &r.event);
        }
        sink.into_inner()
    }

    #[test]
    fn every_event_round_trips() {
        let bytes = encode_all(&all_events());
        let mut replayed = TimelineSink::new();
        replay(&bytes, &mut replayed).unwrap();
        let expected: Vec<Record> = all_events();
        assert_eq!(replayed.timeline().entries(), expected.as_slice());
    }

    #[test]
    fn reader_round_trips_and_matches_timeline() {
        let bytes = encode_all(&all_events());
        let records: Vec<Record> = BinaryReader::new(&bytes[..])
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(records, all_events());

        let mut sink = TimelineSink::new();
        replay_reader(&bytes[..], &mut sink).unwrap();
        assert_eq!(sink.timeline().entries(), all_events().as_slice());
    }

    #[test]
    fn untouched_sink_writes_no_bytes() {
        let sink = BinarySink::new(Vec::new());
        assert!(sink.into_inner().is_empty());
        // And an empty stream replays zero events.
        let mut out = TimelineSink::new();
        replay(&[], &mut out).unwrap();
        assert!(out.timeline().is_empty());
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let records = all_events();
        let bytes = encode_all(&records);
        let jsonl_len: usize = records
            .iter()
            .map(|r| jsonl::encode(r.at, &r.event).len() + 1)
            .sum();
        assert!(
            bytes.len() * 4 < jsonl_len,
            "binary {} bytes vs jsonl {jsonl_len}",
            bytes.len()
        );
    }

    #[test]
    fn magic_probe_detects_format() {
        let bytes = encode_all(&all_events());
        assert!(is_binary(&bytes));
        assert!(!is_binary(b"{\"schema_version\":1}"));
        assert!(!is_binary(&bytes[..3]));
        assert!(!is_binary(b""));
    }

    #[test]
    fn future_schema_versions_are_refused() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION + 1);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unsupported bin schema_version"), "{e}");
        let io_err = replay_reader(&bytes[..], &mut TimelineSink::new()).unwrap_err();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_magic_is_rejected_immediately() {
        let e = replay(b"{\"at\":1}", &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("bad magic"), "{e}");
        assert_eq!(e.offset, 0);
        // Even a single wrong byte fails fast (no buffering forever).
        let mut d = StreamDecoder::new();
        d.feed(b"{");
        assert!(d.next_record().is_err());
    }

    #[test]
    fn every_truncation_is_a_prefix_or_an_error() {
        let records = all_events();
        let bytes = encode_all(&records);
        for cut in 0..bytes.len() {
            let mut sink = TimelineSink::new();
            match replay(&bytes[..cut], &mut sink) {
                Ok(()) => {
                    // A clean cut decodes some prefix of the records.
                    let n = sink.timeline().len();
                    assert_eq!(sink.timeline().entries(), &records[..n], "cut {cut}");
                }
                Err(e) => {
                    assert!(
                        e.message.contains("truncated") || e.message.contains("dangling"),
                        "cut {cut}: {e}"
                    );
                }
            }
            // The reader agrees: the same prefix, then the same verdict.
            let read: Vec<io::Result<Record>> = BinaryReader::new(&bytes[..cut]).collect();
            let ok = read.iter().take_while(|r| r.is_ok()).count();
            assert!(ok + 1 >= read.len(), "cut {cut}: records after an error");
            assert_eq!(
                read.len() > ok,
                replay(&bytes[..cut], &mut TimelineSink::new()).is_err()
            );
        }
    }

    #[test]
    fn corrupt_records_are_rejected_with_offset() {
        // Unknown tag.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        let header_len = bytes.len() as u64;
        bytes.extend_from_slice(&[2, 200, 0]); // len 2, tag 200, delta 0
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unknown event tag 200"), "{e}");
        assert_eq!(e.offset, header_len);

        // Unknown reselect trigger.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[4, 11, 0, 99, 0]); // tag 11: reselect
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("unknown reselect trigger 99"), "{e}");

        // Molecule index skipping ahead of the intern table.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[7, 7, 0, 0b10, 0, 0, 5, 3]); // tag 7: si_executed
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("intern table"), "{e}");

        // Body shorter than its fields claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[2, 3, 0]); // tag 3: port_stalled, missing `until`
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("until"), "{e}");

        // Body longer than its fields consume.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_varint(&mut bytes, BIN_SCHEMA_VERSION);
        bytes.extend_from_slice(&[4, 3, 0, 9, 9]); // tag 3: port_stalled
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("trailing bytes"), "{e}");
    }

    #[test]
    fn huge_length_prefix_is_an_error_at_its_record() {
        // A corrupted prefix claiming u64::MAX bytes must neither overflow
        // nor pass for a record still arriving.
        let mut bytes = encode_all(&all_events()[..2]);
        let at = bytes.len() as u64;
        put_varint(&mut bytes, u64::MAX);
        bytes.push(0);
        let e = replay(&bytes, &mut TimelineSink::new()).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert_eq!(e.offset, at);

        let mut d = StreamDecoder::new();
        d.feed(&bytes);
        assert!(d.next_record().unwrap().is_some());
        assert!(d.next_record().unwrap().is_some());
        assert_eq!(d.next_record().unwrap_err().offset, at);
    }

    #[test]
    fn stream_decoder_handles_byte_by_byte_arrival() {
        let records = all_events();
        let bytes = encode_all(&records);
        let mut decoder = StreamDecoder::new();
        let mut out = Vec::new();
        for &b in &bytes {
            decoder.feed(&[b]);
            while let Some(r) = decoder.next_record().unwrap() {
                out.push(r);
            }
        }
        assert_eq!(out, records);
        assert_eq!(decoder.pending_bytes(), 0);
        assert_eq!(decoder.bytes_consumed(), bytes.len() as u64);
        assert!(decoder.header_seen());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for p in [0.1, 1.0 / 3.0, 5e-324, 1.797e308, 0.0, -0.0, f64::NAN] {
            let bytes = encode_all(&[Record {
                at: 7,
                event: Event::ForecastUpdated {
                    task: 0,
                    si: SiId(0),
                    probability: p,
                    expected_executions: p * 0.5,
                },
            }]);
            let mut sink = TimelineSink::new();
            replay(&bytes, &mut sink).unwrap();
            match &sink.timeline().entries()[0].event {
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
    fn extreme_timestamps_and_ids_round_trip() {
        let records = vec![
            Record {
                at: u64::MAX,
                event: Event::PortStalled { until: u64::MAX },
            },
            Record {
                at: 0,
                event: Event::SiExecuted {
                    task: u32::MAX,
                    si: SiId(usize::MAX),
                    hw: false,
                    cycles: u64::MAX,
                    molecule: None,
                },
            },
            Record {
                at: u64::MAX / 2,
                event: Event::UpgradeStep {
                    si: SiId(0),
                    task: Some(u32::MAX),
                    step: u32::MAX,
                    molecule: Molecule::from_counts([u32::MAX, 0]),
                },
            },
        ];
        let bytes = encode_all(&records);
        let mut sink = TimelineSink::new();
        replay(&bytes, &mut sink).unwrap();
        assert_eq!(sink.timeline().entries(), records.as_slice());
    }

    #[test]
    fn flush_batches_writes() {
        // A writer that counts write calls: batched emission must reach
        // it far fewer times than there are events.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = BinarySink::new(Counting {
            writes: 0,
            bytes: Vec::new(),
        });
        let record = Record {
            at: 1,
            event: Event::ForecastRetracted {
                task: 0,
                si: SiId(0),
            },
        };
        let n = 10_000;
        for _ in 0..n {
            sink.emit(record.at, &record.event);
        }
        let counting = sink.into_inner();
        assert!(
            counting.writes < n / 100,
            "{} writes for {n} events",
            counting.writes
        );
        let mut out = TimelineSink::new();
        replay(&counting.bytes, &mut out).unwrap();
        assert_eq!(out.timeline().len(), n);
    }

    #[test]
    fn drop_flushes_buffered_bytes() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Clone, Default)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let shared = Shared::default();
        {
            let mut sink = BinarySink::new(shared.clone());
            sink.emit(
                3,
                &Event::ForecastRetracted {
                    task: 0,
                    si: SiId(1),
                },
            );
        }
        let bytes = shared.0.borrow().clone();
        let mut out = TimelineSink::new();
        replay(&bytes, &mut out).unwrap();
        assert_eq!(out.timeline().len(), 1);
    }
}
