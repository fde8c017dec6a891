//! The structured event vocabulary of the RISPP run-time system.
//!
//! Events are emitted *at the source* — the fabric emits rotation events,
//! the run-time manager emits execution, forecast, reselect and upgrade
//! events — and carry everything a consumer needs to reconstruct the
//! paper's timelines (Fig. 6) without access to the live objects.
//!
//! It is also the event *schema*: the `event_schema!` table declares each
//! variant once (fields, binary tag, JSONL name, each field's `wire` type)
//! and both codecs ([`crate::jsonl`], [`crate::bin`]) derive from it.

use std::fmt;

use rispp_core::atom::AtomKind;
use rispp_core::molecule::Molecule;
use rispp_core::si::SiId;

use crate::bin::{BinError, BinField, Body, Encoder, Stream};
use crate::jsonl::{Fields, JsonField, JsonlError};

/// Identifier of a task, mirroring `rispp_rt::manager::TaskId` (kept as a
/// raw `u32` here so `rispp-obs` depends only on `rispp-core`).
pub type TaskId = u32;

/// Declares [`ReselectTrigger`]: each trigger's JSONL name and binary code
/// (the discriminant; below `0x80`, as bit 7 is `Reselect.cache_hit`).
macro_rules! reselect_triggers {
    ($($(#[$meta:meta])* $variant:ident = $code:literal $name:literal,)*) => {
        /// What caused a Molecule re-selection.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[non_exhaustive]
        pub enum ReselectTrigger {
            $($(#[$meta])* $variant = $code,)*
        }

        impl ReselectTrigger {
            pub(crate) const ALL: [ReselectTrigger; [$($code),*].len()] =
                [$(ReselectTrigger::$variant),*];

            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(ReselectTrigger::$variant => $name,)*
                }
            }
        }
    };
}

reselect_triggers! {
    /// A forecast was announced or updated.
    Forecast = 0 "forecast",
    /// A whole FC Block was announced.
    ForecastBlock = 1 "forecast_block",
    /// A forecast was retracted (negative FC).
    Retract = 2 "retract",
    /// A monitored FC outcome fine-tuned the forecast values.
    Observation = 3 "observation",
    /// The adaptation goal (power mode) changed.
    PowerMode = 4 "power_mode",
    /// A fabric fault (failed rotation, transient container fault or
    /// quarantine) invalidated the current rotation schedule.
    Fault = 5 "fault",
}

impl fmt::Display for ReselectTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The wire types of the event schema: how one field travels in JSONL
/// ([`JsonField`]) and in binary ([`BinField`], layout in [`crate::bin`]).
pub(crate) mod wire {
    /// An integer ([`WireInt`](super::WireInt)): a JSON number; a varint.
    pub struct Int;
    /// An `f64`: shortest round-trip decimal in JSONL; the 8 little-endian
    /// bytes of [`f64::to_bits`] in binary (bit-exact, NaN included).
    pub struct Float;
    /// A `bool`: `true`/`false` (omitted when false if `OMIT_FALSE`); a flag bit.
    pub struct Flag<const OMIT_FALSE: bool = false>;
    /// A `bool` JSONL writes only when `true`.
    pub type FlagIfSet = Flag<true>;
    /// A Molecule: a JSON array of counts; an intern-table reference.
    pub struct Interned;
    /// An optional Molecule JSONL omits when `None`: a flag bit, then a reference.
    pub struct OptInterned;
    /// A [`ReselectTrigger`](super::ReselectTrigger): its name; its code in 7 flag bits.
    pub struct Trigger;
    /// An optional integer JSONL omits when `None`; a lead varint `v + 1` (0: `None`).
    pub struct LeadOpt;
}

/// Integer field types: converted to and from the `u64` both codecs carry.
pub(crate) trait WireInt: Copy {
    fn to_u64(self) -> u64;
    /// `None` when `v` does not fit the type.
    fn from_u64(v: u64) -> Option<Self>;
}

macro_rules! wire_ints {
    ($($ty:ty: $to:expr, $from:expr;)*) => {$(
        impl WireInt for $ty {
            fn to_u64(self) -> u64 {
                $to(self)
            }
            fn from_u64(v: u64) -> Option<Self> {
                $from(v)
            }
        }
    )*};
}

wire_ints! {
    u64: |v| v, Some;
    u32: u64::from, |v| u32::try_from(v).ok();
    AtomKind: |k: AtomKind| k.index() as u64, |v| usize::try_from(v).ok().map(AtomKind);
    SiId: |s: SiId| s.index() as u64, |v| usize::try_from(v).ok().map(SiId);
}

/// Declares [`Event`] and both codecs. Each variant is `Name = tag
/// "json_name" { field: Type as WireType, .. }`: binary tag byte, JSONL
/// `"ev"` value, and fields in JSONL order (keys are the field names).
macro_rules! event_schema {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal $name:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty as $wire:ident,)*
        }
    )*) => {
        /// One structured run-time event.
        #[derive(Debug, Clone, PartialEq)]
        #[non_exhaustive]
        pub enum Event {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl Event {
            /// Appends `"json_name"` and every field as `,"key":value`.
            pub(crate) fn put_jsonl(&self, out: &mut String) {
                match self {
                    $(Event::$variant { $($field),* } => {
                        out.push_str(concat!("\"", $name, "\""));
                        $(<wire::$wire as JsonField<$ty>>::put(out, stringify!($field), $field);)*
                    })*
                }
            }

            /// Rebuilds the event named `name` from a parsed JSONL object.
            pub(crate) fn take_jsonl(name: &str, fields: &Fields<'_>) -> Result<Event, JsonlError> {
                match name {
                    $($name => Ok(Event::$variant {
                        $($field: <wire::$wire as JsonField<$ty>>::take(fields, stringify!($field))?,)*
                    }),)*
                    other => Err(fields.error(format!("unknown event type {other:?}"))),
                }
            }

            /// Appends the event, stamped `at`, as one binary record.
            #[inline(always)]
            pub(crate) fn put_bin(&self, stream: &mut Stream, at: u64) {
                match self {
                    $(Event::$variant { $($field),* } => {
                        const BITS: u32 = 0 $(+ <wire::$wire as BinField<$ty>>::BITS)*;
                        const { assert!(BITS <= 8, "a record has one flags byte") };
                        let enc = &mut Encoder::new(stream, at, $tag, BITS);
                        $(<wire::$wire as BinField<$ty>>::put_head(enc, $field);)*
                        $(<wire::$wire as BinField<$ty>>::put(enc, $field);)*
                        enc.finish();
                    })*
                }
            }

            /// Decodes the rest of a record body whose tag byte was `tag`.
            pub(crate) fn take_bin(tag: u8, body: &mut Body<'_>) -> Result<Event, BinError> {
                match tag {
                    $($tag => {
                        body.begin(0 $(+ <wire::$wire as BinField<$ty>>::BITS)*, $name)?;
                        $(let $field = <wire::$wire as BinField<$ty>>::take_head(body, stringify!($field))?;)*
                        Ok(Event::$variant {
                            $($field: <wire::$wire as BinField<$ty>>::take(
                                body,
                                $field,
                                stringify!($field),
                            )?,)*
                        })
                    })*
                    other => Err(body.error(format!("unknown event tag {other}"))),
                }
            }
        }
    };
}

event_schema! {
    /// A rotation left the queue and began writing a container.
    RotationStarted = 0 "rotation_started" {
        /// Target Atom Container index.
        container: u32 as Int,
        /// Atom being written.
        kind: AtomKind as Int,
    }
    /// A rotation completed; the Atom is now usable.
    RotationCompleted = 1 "rotation_completed" {
        /// Target Atom Container index.
        container: u32 as Int,
        /// Atom now loaded.
        kind: AtomKind as Int,
    }
    /// A rotation reached its completion cycle but the bitstream failed
    /// verification (CRC): the container holds no usable Atom and the
    /// reconfiguration port is free again. No
    /// [`Event::ContainerLoaded`] is emitted for a failed rotation.
    RotationFailed = 2 "rotation_failed" {
        /// Target Atom Container index.
        container: u32 as Int,
        /// Atom whose bitstream failed to load.
        kind: AtomKind as Int,
    }
    /// The single reconfiguration port stalled mid-transfer; the
    /// in-flight rotation makes no progress until cycle `until`.
    PortStalled = 3 "port_stalled" {
        /// Cycle at which the transfer resumes.
        until: u64 as Int,
    }
    /// An Atom Container was diagnosed permanently bad and removed from
    /// service; it will never complete a rotation again.
    ContainerQuarantined = 4 "container_quarantined" {
        /// The container taken out of service.
        container: u32 as Int,
    }
    /// An Atom Container became usable: the freshly rotated-in Atom is
    /// now available to every task. Emitted by the fabric alongside
    /// [`Event::RotationCompleted`] so container occupancy is observable
    /// from the event stream alone, without polling container state.
    ContainerLoaded = 5 "container_loaded" {
        /// The container that became usable.
        container: u32 as Int,
        /// The Atom it now holds.
        kind: AtomKind as Int,
    }
    /// An Atom Container lost its usable Atom: an overwriting rotation
    /// started, destroying the previous content before the new Atom is
    /// ready. The counterpart of [`Event::ContainerLoaded`]; between the
    /// two, the container contributes nothing to fabric utilization.
    ContainerEvicted = 6 "container_evicted" {
        /// The container whose Atom was destroyed.
        container: u32 as Int,
        /// The Atom that was lost.
        kind: AtomKind as Int,
    }
    /// An SI executed through the run-time manager.
    SiExecuted = 7 "si_executed" {
        /// Executing task.
        task: TaskId as Int,
        /// Executed SI.
        si: SiId as Int,
        /// `true` when a hardware Molecule executed.
        hw: bool as Flag,
        /// Latency in cycles.
        cycles: u64 as Int,
        /// The hardware Molecule that executed (`None` for software).
        molecule: Option<Molecule> as OptInterned,
    }
    /// A forecast was announced or updated for an SI.
    ForecastUpdated = 8 "forecast_updated" {
        /// Issuing task.
        task: TaskId as Int,
        /// Forecasted SI.
        si: SiId as Int,
        /// Forecast probability after the update.
        probability: f64 as Float,
        /// Expected executions after the update.
        expected_executions: f64 as Float,
    }
    /// A forecast was retracted (the SI is no longer needed).
    ForecastRetracted = 9 "forecast_retracted" {
        /// Issuing task.
        task: TaskId as Int,
        /// Retracted SI.
        si: SiId as Int,
    }
    /// A monitored forecast settled with an observed outcome.
    FcOutcome = 10 "fc_outcome" {
        /// Observed task.
        task: TaskId as Int,
        /// Observed SI.
        si: SiId as Int,
        /// Whether the forecasted SI was actually reached.
        reached: bool as Flag,
    }
    /// The manager re-evaluated its Molecule selection.
    Reselect = 11 "reselect" {
        /// What caused the re-evaluation.
        trigger: ReselectTrigger as Trigger,
        /// Wall-clock duration of the selection + scheduling pass, in
        /// nanoseconds (host time, not simulated cycles).
        duration_ns: u64 as Int,
        /// Whether the forecast revision and capacity were unchanged since
        /// the previous re-selection, so the selection kernel was skipped
        /// and the previous decision kept. A kept decision is bit-identical
        /// to a from-scratch recompute; this marker only records that the
        /// work was skipped. Omitted from JSONL when false, so exports
        /// from before the marker existed replay unchanged.
        cache_hit: bool as FlagIfSet,
    }
    /// The rotation scheduler staged one step of an SI's upgrade path
    /// ("Rotation in Advance": smallest fitting Molecule first).
    UpgradeStep = 12 "upgrade_step" {
        /// The SI being upgraded.
        si: SiId as Int,
        /// The task whose demand owns this upgrade ladder (`None` when
        /// the scheduler acted without a demanding task). Carried as a
        /// span-correlation id so consumers can stitch
        /// forecast → rotation → first-hardware-execution causality per
        /// `(task, si)` without guessing.
        task: Option<TaskId> as LeadOpt,
        /// Zero-based position of this stage in the upgrade path.
        step: u32 as Int,
        /// The stage's target Molecule.
        molecule: Molecule as Interned,
    }
}

/// A timestamped event, in simulated cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Cycle of the event.
    pub at: u64,
    /// The event.
    pub event: Event,
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = self.at;
        match &self.event {
            Event::RotationStarted { container, kind } => {
                write!(f, "{at:>12}  rotation start AC{container} <- {kind}")
            }
            Event::RotationCompleted { container, kind } => {
                write!(f, "{at:>12}  rotation done  AC{container} = {kind}")
            }
            Event::RotationFailed { container, kind } => {
                write!(f, "{at:>12}  rotation FAIL  AC{container} <- {kind}")
            }
            Event::PortStalled { until } => {
                write!(f, "{at:>12}  port stall     until {until}")
            }
            Event::ContainerQuarantined { container } => {
                write!(f, "{at:>12}  quarantine     AC{container}")
            }
            Event::ContainerLoaded { container, kind } => {
                write!(f, "{at:>12}  container load AC{container} = {kind}")
            }
            Event::ContainerEvicted { container, kind } => {
                write!(f, "{at:>12}  container evict AC{container} -x {kind}")
            }
            Event::SiExecuted {
                task,
                si,
                hw,
                cycles,
                ..
            } => {
                let how = if *hw { "HW" } else { "SW" };
                write!(f, "{at:>12}  task{task} exec {si} [{how} {cycles}cyc]")
            }
            Event::ForecastUpdated { task, si, .. } => {
                write!(f, "{at:>12}  task{task} forecast {si}")
            }
            Event::ForecastRetracted { task, si } => {
                write!(f, "{at:>12}  task{task} retract  {si}")
            }
            Event::FcOutcome { task, si, reached } => {
                let what = if *reached { "hit" } else { "miss" };
                write!(f, "{at:>12}  task{task} fc-{what}  {si}")
            }
            Event::Reselect {
                trigger,
                duration_ns,
                cache_hit,
            } => {
                let cached = if *cache_hit { ", cached" } else { "" };
                write!(f, "{at:>12}  reselect ({trigger}, {duration_ns}ns{cached})")
            }
            Event::UpgradeStep {
                si,
                task,
                step,
                molecule,
            } => match task {
                Some(t) => write!(
                    f,
                    "{at:>12}  task{t} upgrade {si} step {step} -> {molecule}"
                ),
                None => write!(f, "{at:>12}  upgrade {si} step {step} -> {molecule}"),
            },
        }
    }
}

/// One sample stream for the codec tests: every variant, both forms of
/// every `Option` and flag, every reselect trigger, a Molecule repeated
/// (interned) and distinct Molecules that tie on atom count — `[1,0,2]`
/// and `[2,1,0]` (3 Atoms each), `[1,1,0]` and `[1,0,1]` (2 each), and
/// `[1,0,2,0]`, which differs from `[1,0,2]` only in width — plus an
/// out-of-order timestamp (deltas are signed).
#[cfg(test)]
pub(crate) fn sample_records() -> Vec<Record> {
    let m = |counts: &[u32]| Molecule::from_counts(counts.iter().copied());
    let mut events = vec![
        (
            0,
            Event::ForecastUpdated {
                task: 0,
                si: SiId(2),
                probability: 0.875,
                expected_executions: 40.5,
            },
        ),
        (
            1,
            Event::Reselect {
                trigger: ReselectTrigger::Forecast,
                duration_ns: 12_345,
                cache_hit: false,
            },
        ),
        (
            1,
            Event::UpgradeStep {
                si: SiId(2),
                task: Some(0),
                step: 0,
                molecule: m(&[1, 0, 2]),
            },
        ),
        (
            1,
            Event::UpgradeStep {
                si: SiId(2),
                task: None,
                step: 1,
                molecule: m(&[1, 1, 2]),
            },
        ),
        (
            1,
            Event::UpgradeStep {
                si: SiId(3),
                task: Some(1),
                step: 0,
                molecule: m(&[2, 1, 0]),
            },
        ),
        (
            1,
            Event::UpgradeStep {
                si: SiId(3),
                task: Some(1),
                step: 1,
                molecule: m(&[1, 0, 2, 0]),
            },
        ),
        (
            2,
            Event::ContainerEvicted {
                container: 4,
                kind: AtomKind(0),
            },
        ),
        (
            2,
            Event::RotationStarted {
                container: 4,
                kind: AtomKind(1),
            },
        ),
        (40_000, Event::PortStalled { until: 55_000 }),
        (
            90_000,
            Event::RotationCompleted {
                container: 4,
                kind: AtomKind(1),
            },
        ),
        (
            90_000,
            Event::ContainerLoaded {
                container: 4,
                kind: AtomKind(1),
            },
        ),
        (
            90_001,
            Event::SiExecuted {
                task: 0,
                si: SiId(2),
                hw: true,
                cycles: 24,
                molecule: Some(m(&[1, 1, 0])),
            },
        ),
        (
            90_050,
            Event::SiExecuted {
                task: 1,
                si: SiId(0),
                hw: false,
                cycles: 544,
                molecule: None,
            },
        ),
        // Interned: second sighting of this Molecule.
        (
            90_051,
            Event::SiExecuted {
                task: 0,
                si: SiId(2),
                hw: true,
                cycles: 24,
                molecule: Some(m(&[1, 1, 0])),
            },
        ),
        (
            90_052,
            Event::SiExecuted {
                task: 0,
                si: SiId(2),
                hw: true,
                cycles: 30,
                molecule: Some(m(&[1, 0, 1])),
            },
        ),
        (
            90_100,
            Event::FcOutcome {
                task: 0,
                si: SiId(2),
                reached: true,
            },
        ),
        (
            90_200,
            Event::ForecastRetracted {
                task: 0,
                si: SiId(2),
            },
        ),
        (
            91_000,
            Event::RotationFailed {
                container: 3,
                kind: AtomKind(2),
            },
        ),
        (91_000, Event::ContainerQuarantined { container: 3 }),
        // Out of order on purpose: deltas are signed.
        (
            90_900,
            Event::FcOutcome {
                task: 1,
                si: SiId(0),
                reached: false,
            },
        ),
        (
            91_001,
            Event::Reselect {
                trigger: ReselectTrigger::Fault,
                duration_ns: 777,
                cache_hit: true,
            },
        ),
    ];
    for trigger in [
        ReselectTrigger::ForecastBlock,
        ReselectTrigger::Retract,
        ReselectTrigger::Observation,
        ReselectTrigger::PowerMode,
    ] {
        events.push((
            91_002,
            Event::Reselect {
                trigger,
                duration_ns: 0,
                cache_hit: false,
            },
        ));
    }
    events
        .into_iter()
        .map(|(at, event)| Record { at, event })
        .collect()
}
