//! # tsp-faults — deterministic fault-injection plans
//!
//! The paper treats reliability as a first-class design point: SECDED(137,128)
//! ECC generated at the producer and checked at the consumer (§II-D), and
//! plesiochronous C2C links that must deskew and tolerate marginal signaling
//! (§II item 6). This crate provides the *fault model* side of that story: a
//! seeded, fully deterministic plan of bit-level upsets at named sites, which
//! the simulator (`tsp-sim`'s `RunOptions`) and the multi-chip fabric
//! (`tsp-c2c`) replay cycle-exactly.
//!
//! Two plan kinds, matching the two clock domains:
//!
//! * [`FaultPlan`] — **chip-local** events triggered by the core clock:
//!   SRAM data-bit flips, SRAM check-bit flips, and stream-register upsets.
//! * [`LinkFaultPlan`] — **link-level** events keyed by the n-th word crossing
//!   a wire (the link's own serial clock): word corruption and word drops.
//!
//! Both are generated from a `u64` seed through the vendored `ChaCha8Rng`;
//! the same seed always yields the same plan, so an entire fault-injection
//! campaign is reproducible bit for bit — including across serial and
//! parallel (`tsp_bench::fan_out`) execution of its trials.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tsp_arch::{Hemisphere, StreamId, MEM_SLICES_PER_HEMISPHERE, NUM_POSITIONS, SUPERLANES};

/// Number of byte lanes in a 320-byte vector.
const LANES: u16 = 320;

/// One chip-local fault, at bit granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one data bit of a stored SRAM word (soft error in a bit cell).
    /// The word's check bits are untouched, so the *consumer-side* SECDED
    /// check sees a single-bit error and corrects it (paper §II-D).
    SramData {
        /// Hemisphere of the MEM slice.
        hemisphere: Hemisphere,
        /// MEM slice index within the hemisphere, `0..44`.
        slice: u8,
        /// Word address within the slice.
        word: u16,
        /// Byte lane within the 320-byte vector.
        lane: u16,
        /// Bit within the byte, `0..8`.
        bit: u8,
    },
    /// Flip one of the 9 SECDED check bits of a stored SRAM word.
    SramCheck {
        /// Hemisphere of the MEM slice.
        hemisphere: Hemisphere,
        /// MEM slice index within the hemisphere, `0..44`.
        slice: u8,
        /// Word address within the slice.
        word: u16,
        /// Superlane whose check bits are hit, `0..20`.
        superlane: u8,
        /// Check bit within the 9-bit field.
        bit: u8,
    },
    /// Flip one data bit of a value in flight on a stream register. Check
    /// bits travel untouched, so the next consumer's SECDED check catches it.
    StreamUpset {
        /// The stream hit.
        stream: StreamId,
        /// On-chip position of the upset register, `0..93`.
        position: u8,
        /// Byte lane within the 320-byte vector.
        lane: u16,
        /// Bit within the byte, `0..8`.
        bit: u8,
    },
}

/// A chip-local fault and the core-clock cycle it strikes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Core-clock cycle of the upset.
    pub cycle: u64,
    /// What flips.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of chip-local faults, sorted by cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

/// Site counts and coordinate domains for [`FaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Half-open cycle window faults may strike in.
    pub cycles: std::ops::Range<u64>,
    /// Number of SRAM data-bit flips to draw.
    pub sram_data: u32,
    /// Number of SRAM check-bit flips to draw.
    pub sram_check: u32,
    /// Number of stream-register upsets to draw.
    pub stream_upsets: u32,
    /// SRAM word addresses are drawn from `0..sram_words`.
    pub sram_words: u16,
}

impl Default for PlanSpec {
    fn default() -> PlanSpec {
        PlanSpec {
            cycles: 0..1,
            sram_data: 0,
            sram_check: 0,
            stream_upsets: 0,
            sram_words: 64,
        }
    }
}

impl FaultPlan {
    /// The empty plan (inject nothing). This is what `RunOptions::default()`
    /// carries, so fault-free runs pay nothing.
    #[must_use]
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (tests, hand-crafted scenarios).
    /// Events are stably sorted by cycle.
    #[must_use]
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.cycle);
        FaultPlan { seed, events }
    }

    /// Draws a plan from a seed: site counts and coordinate domains come from
    /// `spec`, coordinates from `ChaCha8Rng(seed)` in a fixed order — the
    /// same `(seed, spec)` always produces the identical plan.
    #[must_use]
    pub fn generate(seed: u64, spec: &PlanSpec) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events =
            Vec::with_capacity((spec.sram_data + spec.sram_check + spec.stream_upsets) as usize);
        let cycle = |rng: &mut ChaCha8Rng| -> u64 {
            if spec.cycles.is_empty() {
                spec.cycles.start
            } else {
                rng.gen_range(spec.cycles.clone())
            }
        };
        let hemi =
            |rng: &mut ChaCha8Rng| -> Hemisphere { Hemisphere::ALL[rng.gen_range(0usize..2)] };
        for _ in 0..spec.sram_data {
            events.push(FaultEvent {
                cycle: cycle(&mut rng),
                kind: FaultKind::SramData {
                    hemisphere: hemi(&mut rng),
                    slice: rng.gen_range(0u8..MEM_SLICES_PER_HEMISPHERE),
                    word: rng.gen_range(0u16..spec.sram_words.max(1)),
                    lane: rng.gen_range(0u16..LANES),
                    bit: rng.gen_range(0u8..8),
                },
            });
        }
        for _ in 0..spec.sram_check {
            events.push(FaultEvent {
                cycle: cycle(&mut rng),
                kind: FaultKind::SramCheck {
                    hemisphere: hemi(&mut rng),
                    slice: rng.gen_range(0u8..MEM_SLICES_PER_HEMISPHERE),
                    word: rng.gen_range(0u16..spec.sram_words.max(1)),
                    superlane: rng.gen_range(0u8..SUPERLANES as u8),
                    bit: rng.gen_range(0u8..9),
                },
            });
        }
        for _ in 0..spec.stream_upsets {
            let id = rng.gen_range(0u8..tsp_arch::STREAMS_PER_DIRECTION);
            let stream = if rng.gen_range(0u8..2) == 0 {
                StreamId::east(id)
            } else {
                StreamId::west(id)
            };
            events.push(FaultEvent {
                cycle: cycle(&mut rng),
                kind: FaultKind::StreamUpset {
                    stream,
                    position: rng.gen_range(0u8..NUM_POSITIONS),
                    lane: rng.gen_range(0u16..LANES),
                    bit: rng.gen_range(0u8..8),
                },
            });
        }
        FaultPlan::from_events(seed, events)
    }

    /// The seed the plan was generated from (0 for hand-built plans).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planned events, sorted by cycle.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing (the fast-path check in `Chip::run`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One link-level fault on the n-th word crossing a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Flip one data bit of the word in flight. The receiver's per-word CRC
    /// check detects it and requests a retransmission.
    Corrupt {
        /// Byte lane within the 320-byte vector.
        lane: u16,
        /// Bit within the byte, `0..8`.
        bit: u8,
    },
    /// The word is lost on the wire (marginal signaling); the receiver's
    /// timeout triggers a retransmission.
    Drop,
}

/// A link-level fault event: which delivery attempt of which word it hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFaultEvent {
    /// Wire index within the fabric (order of `Fabric::connect` calls).
    pub wire: usize,
    /// Ordinal of the word on this wire (0 = first word ever sent on it).
    pub nth_word: u64,
    /// What happens to that transmission attempt.
    pub kind: LinkFaultKind,
}

/// A deterministic, seeded schedule of link faults, sorted by
/// `(wire, nth_word)`. Multiple events on the same word fault successive
/// transmission attempts (original, first retry, …).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaultPlan {
    seed: u64,
    events: Vec<LinkFaultEvent>,
}

/// Counts and domains for [`LinkFaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct LinkPlanSpec {
    /// Number of wires in the fabric (events are drawn over `0..wires`).
    pub wires: usize,
    /// Word ordinals are drawn from `0..words_per_wire`.
    pub words_per_wire: u64,
    /// Number of corruption events to draw.
    pub corruptions: u32,
    /// Number of drop events to draw.
    pub drops: u32,
}

impl LinkFaultPlan {
    /// The empty plan (lossless ideal wires).
    #[must_use]
    pub fn empty() -> LinkFaultPlan {
        LinkFaultPlan::default()
    }

    /// Builds a plan from explicit events, sorted by `(wire, nth_word)`.
    #[must_use]
    pub fn from_events(seed: u64, mut events: Vec<LinkFaultEvent>) -> LinkFaultPlan {
        events.sort_by_key(|e| (e.wire, e.nth_word));
        LinkFaultPlan { seed, events }
    }

    /// Draws a plan from a seed, exactly as [`FaultPlan::generate`] does for
    /// chip-local faults.
    #[must_use]
    pub fn generate(seed: u64, spec: &LinkPlanSpec) -> LinkFaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut events = Vec::with_capacity((spec.corruptions + spec.drops) as usize);
        if spec.wires == 0 || spec.words_per_wire == 0 {
            return LinkFaultPlan { seed, events };
        }
        for _ in 0..spec.corruptions {
            events.push(LinkFaultEvent {
                wire: rng.gen_range(0..spec.wires),
                nth_word: rng.gen_range(0..spec.words_per_wire),
                kind: LinkFaultKind::Corrupt {
                    lane: rng.gen_range(0u16..LANES),
                    bit: rng.gen_range(0u8..8),
                },
            });
        }
        for _ in 0..spec.drops {
            events.push(LinkFaultEvent {
                wire: rng.gen_range(0..spec.wires),
                nth_word: rng.gen_range(0..spec.words_per_wire),
                kind: LinkFaultKind::Drop,
            });
        }
        LinkFaultPlan::from_events(seed, events)
    }

    /// The seed the plan was generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All planned events.
    #[must_use]
    pub fn events(&self) -> &[LinkFaultEvent] {
        &self.events
    }

    /// The faults striking word `nth_word` on `wire`, in attempt order
    /// (empty slice for a clean word).
    #[must_use]
    pub fn faults_for(&self, wire: usize, nth_word: u64) -> &[LinkFaultEvent] {
        let lo = self
            .events
            .partition_point(|e| (e.wire, e.nth_word) < (wire, nth_word));
        let hi = self
            .events
            .partition_point(|e| (e.wire, e.nth_word) <= (wire, nth_word));
        &self.events[lo..hi]
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// SplitMix64-style finalizer: decorrelates seeds derived from coordinates.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A chip strike and which attempts of a retried run it hits: what a chaos
/// draw decides for one dispatch, and the contract `tsp-nn`'s
/// `run_resilient` executes (its `ResilientOptions::strike`), so a strike
/// is stated once, here, from the draw to the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosStrike {
    /// Every attempt runs clean.
    None,
    /// A transient upset: the plan strikes the first attempt only; a
    /// retry-from-weights outruns it.
    Transient(FaultPlan),
    /// A permanent fault (stuck cell): the plan recurs on *every* attempt,
    /// so bounded retry deterministically exhausts — the case a serving
    /// layer must degrade around rather than retry through.
    Persistent(FaultPlan),
}

/// Seeded chaos-mode configuration: which chips of a serving pool get
/// struck, how often, and how hard. Probabilities are per-mille integers so
/// every decision is exact integer arithmetic — a chaos campaign is
/// reproducible bit for bit from `seed` alone.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Master seed; each dispatch's draw derives from it and the
    /// `(chip, ordinal)` coordinates, so decisions are independent of host
    /// threading and dispatch interleaving.
    pub seed: u64,
    /// Pool members subjected to strikes (empty = nobody; a typical
    /// campaign strikes 1 of N).
    pub chips: Vec<usize>,
    /// Probability (‰) that a dispatch on a targeted chip draws a strike.
    pub strike_per_mille: u32,
    /// Of the strikes drawn, the fraction (‰) that are *persistent* (recur
    /// every attempt) rather than transient (first attempt only).
    pub persistent_per_mille: u32,
    /// Random single-bit SRAM data strikes per drawn plan (mostly corrected
    /// or masked — background radiation).
    pub sram_data: u32,
    /// Random in-flight stream-register upsets per drawn plan.
    pub stream_upsets: u32,
    /// Aim an additional double-bit (guaranteed-uncorrectable) strike at
    /// the target word supplied to [`ChaosPlanner::strike`] — the hammer
    /// that reliably drives the detect→retry→quarantine path.
    pub targeted_double: bool,
    /// SRAM word-address domain for the random strikes.
    pub sram_words: u16,
}

impl ChaosSpec {
    /// A quiet default: nobody struck until fields are filled in.
    #[must_use]
    pub fn off(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            chips: Vec::new(),
            strike_per_mille: 0,
            persistent_per_mille: 0,
            sram_data: 0,
            stream_upsets: 0,
            targeted_double: false,
            sram_words: 64,
        }
    }
}

/// Draws per-dispatch fault plans for live serving (`tsp-serve`'s chaos
/// mode): deterministic in `(spec.seed, chip, ordinal)`, so the same sweep
/// configuration always injects the same faults into the same dispatches.
#[derive(Debug, Clone)]
pub struct ChaosPlanner {
    spec: ChaosSpec,
}

impl ChaosPlanner {
    /// Wraps a spec.
    #[must_use]
    pub fn new(spec: ChaosSpec) -> ChaosPlanner {
        ChaosPlanner { spec }
    }

    /// The spec being replayed.
    #[must_use]
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// The chaos decision for dispatch `ordinal` on `chip`: strikes land in
    /// `cycles`, and `target` (an SRAM word the workload is known to
    /// consume, e.g. the model input) receives the guaranteed double-bit
    /// strike when `targeted_double` is set.
    #[must_use]
    pub fn strike(
        &self,
        chip: usize,
        ordinal: u64,
        cycles: std::ops::Range<u64>,
        target: Option<(Hemisphere, u8, u16)>,
    ) -> ChaosStrike {
        let spec = &self.spec;
        if !spec.chips.contains(&chip) || spec.strike_per_mille == 0 {
            return ChaosStrike::None;
        }
        let seed = mix(spec.seed ^ mix(chip as u64 + 1) ^ mix(ordinal.wrapping_add(1)));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        if rng.gen_range(0u32..1000) >= spec.strike_per_mille {
            return ChaosStrike::None;
        }
        let persistent = rng.gen_range(0u32..1000) < spec.persistent_per_mille;
        let mut plan = FaultPlan::generate(
            mix(seed),
            &PlanSpec {
                cycles: cycles.clone(),
                sram_data: spec.sram_data,
                sram_check: 0,
                stream_upsets: spec.stream_upsets,
                sram_words: spec.sram_words,
            },
        );
        if spec.targeted_double {
            if let Some((hemisphere, slice, word)) = target {
                let flip = |lane, bit| FaultEvent {
                    cycle: cycles.start,
                    kind: FaultKind::SramData {
                        hemisphere,
                        slice,
                        word,
                        lane,
                        bit,
                    },
                };
                // Two flips in one 16-byte superlane codeword: beyond SECDED
                // correction, guaranteed detected when the word streams.
                let mut events = plan.events().to_vec();
                events.push(flip(0, 1));
                events.push(flip(3, 6));
                plan = FaultPlan::from_events(seed, events);
            }
        }
        if persistent {
            ChaosStrike::Persistent(plan)
        } else {
            ChaosStrike::Transient(plan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PlanSpec {
        PlanSpec {
            cycles: 0..10_000,
            sram_data: 7,
            sram_check: 3,
            stream_upsets: 5,
            sram_words: 64,
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(42, &spec());
        let b = FaultPlan::generate(42, &spec());
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 15);
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, &spec());
        let b = FaultPlan::generate(2, &spec());
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_sorted_by_cycle_and_in_domain() {
        let p = FaultPlan::generate(7, &spec());
        assert!(p.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        for e in p.events() {
            assert!(e.cycle < 10_000);
            match e.kind {
                FaultKind::SramData {
                    slice,
                    word,
                    lane,
                    bit,
                    ..
                } => {
                    assert!(slice < MEM_SLICES_PER_HEMISPHERE);
                    assert!(word < 64);
                    assert!(lane < 320);
                    assert!(bit < 8);
                }
                FaultKind::SramCheck {
                    slice,
                    superlane,
                    bit,
                    ..
                } => {
                    assert!(slice < MEM_SLICES_PER_HEMISPHERE);
                    assert!(usize::from(superlane) < SUPERLANES);
                    assert!(bit < 9);
                }
                FaultKind::StreamUpset { position, bit, .. } => {
                    assert!(position < NUM_POSITIONS);
                    assert!(bit < 8);
                }
            }
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::empty().is_empty());
        assert!(LinkFaultPlan::empty().is_empty());
        let none = FaultPlan::generate(3, &PlanSpec::default());
        assert!(none.is_empty());
    }

    #[test]
    fn link_plan_faults_for_groups_by_word() {
        let events = vec![
            LinkFaultEvent {
                wire: 1,
                nth_word: 5,
                kind: LinkFaultKind::Drop,
            },
            LinkFaultEvent {
                wire: 0,
                nth_word: 3,
                kind: LinkFaultKind::Corrupt { lane: 10, bit: 2 },
            },
            LinkFaultEvent {
                wire: 1,
                nth_word: 5,
                kind: LinkFaultKind::Corrupt { lane: 0, bit: 0 },
            },
        ];
        let p = LinkFaultPlan::from_events(0, events);
        assert_eq!(p.faults_for(0, 3).len(), 1);
        assert_eq!(p.faults_for(1, 5).len(), 2);
        assert!(p.faults_for(0, 4).is_empty());
        assert!(p.faults_for(2, 0).is_empty());
    }

    #[test]
    fn chaos_draws_are_deterministic_and_respect_targeting() {
        let chaos = ChaosPlanner::new(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 0,
            sram_data: 2,
            targeted_double: true,
            ..ChaosSpec::off(99)
        });
        let target = Some((Hemisphere::East, 3u8, 7u16));
        let a = chaos.strike(0, 5, 0..1000, target);
        let b = chaos.strike(0, 5, 0..1000, target);
        assert_eq!(a, b, "same coordinates, same decision");
        let ChaosStrike::Transient(plan) = a else {
            panic!("strike_per_mille 1000 must draw: {a:?}")
        };
        // 2 random single-bit strikes + the targeted double-bit pair.
        assert_eq!(plan.events().len(), 4);
        assert_eq!(
            chaos.strike(1, 5, 0..1000, target),
            ChaosStrike::None,
            "untargeted chips run clean"
        );
    }

    #[test]
    fn chaos_persistence_draw_is_seeded() {
        let chaos = ChaosPlanner::new(ChaosSpec {
            chips: vec![0],
            strike_per_mille: 1000,
            persistent_per_mille: 1000,
            sram_data: 1,
            ..ChaosSpec::off(7)
        });
        assert!(matches!(
            chaos.strike(0, 0, 0..100, None),
            ChaosStrike::Persistent(_)
        ));
        let off = ChaosPlanner::new(ChaosSpec::off(7));
        assert_eq!(off.strike(0, 0, 0..100, None), ChaosStrike::None);
    }

    #[test]
    fn link_plan_deterministic() {
        let spec = LinkPlanSpec {
            wires: 3,
            words_per_wire: 100,
            corruptions: 6,
            drops: 2,
        };
        assert_eq!(
            LinkFaultPlan::generate(9, &spec),
            LinkFaultPlan::generate(9, &spec)
        );
        assert_eq!(LinkFaultPlan::generate(9, &spec).events().len(), 8);
    }
}
