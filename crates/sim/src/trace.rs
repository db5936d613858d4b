//! Execution traces: per-instruction activity events consumed by the power
//! model (`tsp-power`), the Perfetto exporter ([`crate::telemetry`]) and
//! schedule visualizations.
//!
//! Every event carries the identity of the ICU that dispatched it, so a
//! recorded run is a true timeline (one track per queue), not just an event
//! bag. Recording keeps per-kind running counters — [`Trace::count`] is O(1)
//! — and caps the stored event list at a configurable capacity so
//! ResNet-scale functional traces cannot exhaust host memory: past the cap,
//! events are counted (and reported via [`Trace::dropped_events`]) but not
//! stored.

use crate::icu_id::IcuId;

/// What a functional unit did in one cycle — the granularity the activity-
/// based power model needs (paper Fig. 10 is reproduced from these events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityKind {
    /// A MEM slice drove a vector from SRAM onto a stream.
    MemRead,
    /// A MEM slice committed a stream vector into SRAM.
    MemWrite,
    /// A MEM slice performed an indirect gather cycle.
    MemGather,
    /// A MEM slice performed an indirect scatter cycle.
    MemScatter,
    /// One VXM ALU executed a point-wise op (transcendentals cost more).
    VxmAlu {
        /// Whether the op used the transcendental unit.
        transcendental: bool,
    },
    /// An MXM plane latched 16 weight rows from streams.
    MxmLoadWeights,
    /// An MXM plane installed its weight buffer into the array.
    MxmInstall,
    /// An MXM plane ran one activation vector through 320×320 MACCs.
    MxmMacc,
    /// An MXM plane read one accumulator vector onto streams.
    MxmAcc,
    /// An SXM unit shifted/selected a vector.
    SxmShift,
    /// An SXM unit permuted or distributed a vector.
    SxmPermute,
    /// An SXM unit produced one rotation fan-out.
    SxmRotate,
    /// An SXM unit transposed a 16-stream block.
    SxmTranspose,
    /// A vector left on a C2C link.
    C2cSend,
    /// A vector arrived on a C2C link.
    C2cReceive,
    /// An ICU refilled its queue from a stream.
    Ifetch,
}

impl ActivityKind {
    /// Number of distinct counter slots (the two `VxmAlu` flavors count
    /// separately, so [`Trace::count`] stays exact for both).
    pub const SLOTS: usize = 17;

    /// This kind's counter slot, `0..SLOTS`.
    #[must_use]
    pub fn slot(self) -> usize {
        match self {
            ActivityKind::MemRead => 0,
            ActivityKind::MemWrite => 1,
            ActivityKind::MemGather => 2,
            ActivityKind::MemScatter => 3,
            ActivityKind::VxmAlu {
                transcendental: false,
            } => 4,
            ActivityKind::VxmAlu {
                transcendental: true,
            } => 5,
            ActivityKind::MxmLoadWeights => 6,
            ActivityKind::MxmInstall => 7,
            ActivityKind::MxmMacc => 8,
            ActivityKind::MxmAcc => 9,
            ActivityKind::SxmShift => 10,
            ActivityKind::SxmPermute => 11,
            ActivityKind::SxmRotate => 12,
            ActivityKind::SxmTranspose => 13,
            ActivityKind::C2cSend => 14,
            ActivityKind::C2cReceive => 15,
            ActivityKind::Ifetch => 16,
        }
    }

    /// Stable short name, used for Perfetto span labels and profiles.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ActivityKind::MemRead => "mem.read",
            ActivityKind::MemWrite => "mem.write",
            ActivityKind::MemGather => "mem.gather",
            ActivityKind::MemScatter => "mem.scatter",
            ActivityKind::VxmAlu {
                transcendental: false,
            } => "vxm.alu",
            ActivityKind::VxmAlu {
                transcendental: true,
            } => "vxm.alu.transcendental",
            ActivityKind::MxmLoadWeights => "mxm.load_weights",
            ActivityKind::MxmInstall => "mxm.install",
            ActivityKind::MxmMacc => "mxm.macc",
            ActivityKind::MxmAcc => "mxm.acc",
            ActivityKind::SxmShift => "sxm.shift",
            ActivityKind::SxmPermute => "sxm.permute",
            ActivityKind::SxmRotate => "sxm.rotate",
            ActivityKind::SxmTranspose => "sxm.transpose",
            ActivityKind::C2cSend => "c2c.send",
            ActivityKind::C2cReceive => "c2c.receive",
            ActivityKind::Ifetch => "icu.ifetch",
        }
    }
}

/// One activity event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    /// Cycle the work happened.
    pub cycle: u64,
    /// The instruction queue whose dispatch did the work — identifies the
    /// functional slice/unit, so events form per-ICU timelines.
    pub icu: IcuId,
    /// What happened.
    pub kind: ActivityKind,
    /// Active lanes (16 × powered superlanes) — scales dynamic energy under
    /// the scalable-vector low-power mode (paper §II-F).
    pub lanes: u16,
    /// Cycles the work occupied the unit (≥ 1; e.g. an `Ifetch` reads two
    /// consecutive stream slots).
    pub dur: u16,
}

/// Default cap on stored events (~24 bytes each, so ≈ 1.5 GiB worst case).
/// Sized above the largest in-repo trace (ResNet-50 batch-1 functional,
/// measured ≈ 41 M events) so the power model's figures see every event;
/// the cap exists to bound pathological or future workloads, with drops
/// surfaced via [`Trace::dropped_events`], never silent.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 26;

/// A recorded execution trace.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: bool,
    events: Vec<Activity>,
    capacity: usize,
    counts: [u64; ActivityKind::SLOTS],
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new(false)
    }
}

impl Trace {
    /// Creates a trace with [`DEFAULT_EVENT_CAPACITY`]; events are only
    /// recorded when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Trace {
        Trace::with_capacity(enabled, DEFAULT_EVENT_CAPACITY)
    }

    /// Creates a trace that stores at most `capacity` events (counters keep
    /// counting past the cap; overflow is reported by
    /// [`Trace::dropped_events`]).
    #[must_use]
    pub fn with_capacity(enabled: bool, capacity: usize) -> Trace {
        Trace {
            enabled,
            events: Vec::new(),
            capacity,
            counts: [0; ActivityKind::SLOTS],
            dropped: 0,
        }
    }

    /// The event-storage cap this trace was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one single-cycle event (no-op when disabled).
    pub fn record(&mut self, cycle: u64, icu: IcuId, kind: ActivityKind, lanes: u16) {
        self.record_span(cycle, 1, icu, kind, lanes);
    }

    /// Records one event spanning `dur` cycles (no-op when disabled).
    pub fn record_span(
        &mut self,
        cycle: u64,
        dur: u16,
        icu: IcuId,
        kind: ActivityKind,
        lanes: u16,
    ) {
        if !self.enabled {
            return;
        }
        self.counts[kind.slot()] += 1;
        if self.events.len() < self.capacity {
            self.events.push(Activity {
                cycle,
                icu,
                kind,
                lanes,
                dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// All stored events, in recording order (nondecreasing cycle within a
    /// queue, globally merged by the event loop's time order).
    #[must_use]
    pub fn events(&self) -> &[Activity] {
        &self.events
    }

    /// Number of events of a given kind, **including** any dropped past the
    /// capacity cap. O(1): maintained as a running counter in
    /// [`Trace::record`], not rescanned.
    #[must_use]
    pub fn count(&self, kind: ActivityKind) -> u64 {
        self.counts[kind.slot()]
    }

    /// Total events recorded (stored + dropped).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Events discarded because the trace hit its capacity cap.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::Hemisphere;

    fn icu() -> IcuId {
        IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 4,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        t.record(1, icu(), ActivityKind::MemRead, 320);
        assert!(t.events().is_empty());
        assert_eq!(t.count(ActivityKind::MemRead), 0);
        assert_eq!(t.total_recorded(), 0);
    }

    #[test]
    fn enabled_trace_records_with_identity() {
        let mut t = Trace::new(true);
        t.record(1, icu(), ActivityKind::MemRead, 320);
        t.record(2, icu(), ActivityKind::MxmMacc, 320);
        t.record(3, icu(), ActivityKind::MxmMacc, 160);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.count(ActivityKind::MxmMacc), 2);
        assert_eq!(t.events()[0].icu, icu());
        assert_eq!(t.events()[0].dur, 1);
    }

    #[test]
    fn counts_are_exact_per_vxm_flavor() {
        let mut t = Trace::new(true);
        for _ in 0..3 {
            t.record(
                0,
                icu(),
                ActivityKind::VxmAlu {
                    transcendental: false,
                },
                320,
            );
        }
        t.record(
            0,
            icu(),
            ActivityKind::VxmAlu {
                transcendental: true,
            },
            320,
        );
        assert_eq!(
            t.count(ActivityKind::VxmAlu {
                transcendental: false
            }),
            3
        );
        assert_eq!(
            t.count(ActivityKind::VxmAlu {
                transcendental: true
            }),
            1
        );
    }

    #[test]
    fn capacity_cap_counts_dropped_events() {
        let mut t = Trace::with_capacity(true, 2);
        for c in 0..5 {
            t.record(c, icu(), ActivityKind::MemRead, 320);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped_events(), 3);
        // The counter still saw everything.
        assert_eq!(t.count(ActivityKind::MemRead), 5);
        assert_eq!(t.total_recorded(), 5);
    }

    #[test]
    fn every_kind_has_a_distinct_slot_and_name() {
        let kinds = [
            ActivityKind::MemRead,
            ActivityKind::MemWrite,
            ActivityKind::MemGather,
            ActivityKind::MemScatter,
            ActivityKind::VxmAlu {
                transcendental: false,
            },
            ActivityKind::VxmAlu {
                transcendental: true,
            },
            ActivityKind::MxmLoadWeights,
            ActivityKind::MxmInstall,
            ActivityKind::MxmMacc,
            ActivityKind::MxmAcc,
            ActivityKind::SxmShift,
            ActivityKind::SxmPermute,
            ActivityKind::SxmRotate,
            ActivityKind::SxmTranspose,
            ActivityKind::C2cSend,
            ActivityKind::C2cReceive,
            ActivityKind::Ifetch,
        ];
        assert_eq!(kinds.len(), ActivityKind::SLOTS);
        let mut slots: Vec<usize> = kinds.iter().map(|k| k.slot()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), ActivityKind::SLOTS);
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ActivityKind::SLOTS);
    }
}
