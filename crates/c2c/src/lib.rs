//! # tsp-c2c — chip-to-chip fabric
//!
//! Couples several simulated TSPs through their C2C links (paper §II item 6:
//! sixteen ×4 links at 30 Gb/s, 3.84 Tb/s of pin bandwidth, flexibly
//! partitionable into high-radix interconnects for large-scale systems).
//!
//! Because each chip is fully deterministic and links are made deterministic
//! by `Deskew` (the paper's answer to plesiochronous link clocks), a
//! multi-chip system can be simulated as a **feed-forward cascade**: run each
//! chip in dependency order of the wire graph (any acyclic topology; chip
//! indices need not be ordered), moving its egress vectors onto its
//! neighbours' ingress queues with the link's fixed wire latency. The
//! compiler-visible contract is unchanged: a `Receive` must be scheduled no
//! earlier than the vector's deterministic arrival.
//!
//! The cascade is serial: [`Fabric::run_with_faults`] runs one chip at a
//! time in that order (Kahn's algorithm, ties broken by chip index) and
//! moves each chip's egress onto its wires before the next chip runs, so
//! every per-wire word sequence — and therefore every simulated value and
//! cycle — is a function of the programs and the fault plan alone. Chips of
//! one Kahn level could run concurrently, but every fabric built outside
//! the tests is a two-chip chain with one chip per level, so a parallel
//! path would have nothing to overlap and only a second cascade to keep
//! identical to this one.
//!
//! ## Link-level resilience
//!
//! Real C2C links run over marginal signaling. Each transmitted word carries
//! a CRC-32 computed at the sender; the receiver recomputes it and, on
//! mismatch (or a timeout for a dropped word), requests a bounded
//! retransmission. A retransmission costs a round trip plus a deskew re-sync
//! ([`DESKEW_RESYNC_CYCLES`], the `Deskew` instruction's issue cost), so the
//! repaired word arrives late but **bit-exact** — determinism under injected
//! link faults is preserved as long as the receive schedule has slack. Link
//! faults are injected from a seeded [`LinkFaultPlan`] (`tsp-faults`) and
//! accounted per wire in [`LinkStats`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use tsp_arch::Cycle;
use tsp_faults::{LinkFaultKind, LinkFaultPlan};
use tsp_isa::LinkId;
use tsp_sim::chip::{RunOptions, RunReport};
use tsp_sim::{Chip, Program, SimError, StreamWord};

/// Retransmissions allowed per word after the original send; a word still
/// failing after this many repair attempts kills the run with
/// [`SimError::LinkRetryExhausted`] (a marginal link the error handler must
/// take out of service).
pub const MAX_LINK_RETRIES: u32 = 3;

/// Cycles to re-establish deskew alignment after a retransmission — the
/// plesiochronous link must re-run the `Deskew` alignment pattern, whose
/// issue cost the ISA models as 64 cycles.
pub const DESKEW_RESYNC_CYCLES: u64 = 64;

/// A fixed-latency, deterministic point-to-point link between two chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// Sending chip index.
    pub from_chip: usize,
    /// Sending chip's link.
    pub from_link: LinkId,
    /// Receiving chip index.
    pub to_chip: usize,
    /// Receiving chip's link.
    pub to_link: LinkId,
    /// Wire latency in core-clock cycles (serialization + flight; ≈21 cycles
    /// for a 320-byte vector at 4×30 Gb/s against a 1 GHz core, plus skew
    /// absorbed by `Deskew`).
    pub latency: u32,
}

/// A multi-chip system: chips plus the wires between them.
#[derive(Debug, Default)]
pub struct Fabric {
    chips: Vec<Chip>,
    wires: Vec<Wire>,
}

/// Per-wire transmission counters from one fabric run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Wire index (order of [`Fabric::connect`] calls).
    pub wire: usize,
    /// Words carried (each counted once however many attempts it took).
    pub words: u64,
    /// Transmission attempts caught corrupted by the receiver's CRC check.
    pub corrupted: u64,
    /// Transmission attempts lost on the wire (receiver timeout).
    pub dropped: u64,
    /// Retransmissions performed (= corrupted + dropped attempts repaired).
    pub retried: u64,
    /// Total extra arrival latency from retransmissions and deskew re-syncs,
    /// in core-clock cycles.
    pub added_latency: u64,
}

/// Per-chip run results of a fabric execution plus per-wire link counters.
#[derive(Debug)]
pub struct FabricReport {
    /// One report per chip, in chip order.
    pub reports: Vec<RunReport>,
    /// One entry per wire, in wire order.
    pub links: Vec<LinkStats>,
}

impl FabricReport {
    /// Fabric-wide utilization: every chip's telemetry merged into one
    /// aggregate (counts sum; high-water marks take the max — see
    /// [`tsp_telemetry::Telemetry::merge`]).
    #[must_use]
    pub fn merged_telemetry(&self) -> tsp_telemetry::Telemetry {
        let mut total = tsp_telemetry::Telemetry::new();
        for r in &self.reports {
            total.merge(&r.telemetry);
        }
        total
    }
}

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over a byte slice — the
/// per-word link code. Any single-bit (indeed any burst ≤ 32-bit) error in a
/// 360-byte word changes the CRC, so corrupt transmissions are always caught.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// CRC-32 of a stream word as serialized on the wire: 320 data bytes followed
/// by the 20 per-superlane check-bit fields.
fn crc32_word(word: &StreamWord) -> u32 {
    let check = word.check();
    let mut bytes = Vec::with_capacity(320 + 2 * check.len());
    bytes.extend_from_slice(word.data.as_bytes());
    for c in &check {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    crc32(&bytes)
}

impl Fabric {
    /// Creates an empty fabric.
    #[must_use]
    pub fn new() -> Fabric {
        Fabric::default()
    }

    /// Adds a chip; returns its index.
    pub fn add_chip(&mut self, chip: Chip) -> usize {
        self.chips.push(chip);
        self.chips.len() - 1
    }

    /// Borrow a chip.
    #[must_use]
    pub fn chip(&self, index: usize) -> &Chip {
        &self.chips[index]
    }

    /// Mutably borrow a chip (loading memory, injecting inputs).
    #[must_use]
    pub fn chip_mut(&mut self, index: usize) -> &mut Chip {
        &mut self.chips[index]
    }

    /// Connects two chips with a wire. Wires may point in either index
    /// direction; the only topology requirement is that the whole wire graph
    /// stays acyclic (checked at [`Fabric::run`]).
    ///
    /// # Panics
    ///
    /// Panics if either chip index is out of range or the receiving
    /// (chip, link) is already wired.
    pub fn connect(&mut self, wire: Wire) {
        assert!(wire.from_chip < self.chips.len(), "from_chip out of range");
        assert!(wire.to_chip < self.chips.len(), "to_chip out of range");
        assert!(
            !self
                .wires
                .iter()
                .any(|w| w.to_chip == wire.to_chip && w.to_link == wire.to_link),
            "receiving link already wired"
        );
        self.wires.push(wire);
    }

    /// Topological execution order of the chips under the wire graph: every
    /// sender runs before its receivers, ties broken by chip index (Kahn's
    /// algorithm with a min-heap), so the order — and therefore the whole
    /// cascade — is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the wires form a cycle: a cyclic fabric cannot be simulated
    /// as a feed-forward cascade.
    fn chip_order(&self) -> Vec<usize> {
        let n = self.chips.len();
        let mut indegree = vec![0usize; n];
        for w in &self.wires {
            indegree[w.to_chip] += 1;
        }
        let mut ready: BinaryHeap<Reverse<usize>> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for w in self.wires.iter().filter(|w| w.from_chip == i) {
                indegree[w.to_chip] -= 1;
                if indegree[w.to_chip] == 0 {
                    ready.push(Reverse(w.to_chip));
                }
            }
        }
        assert!(
            order.len() == n,
            "fabric wires form a cycle; a feed-forward cascade needs an acyclic topology"
        );
        order
    }

    /// Runs one program per chip (index-aligned) over fault-free wires,
    /// cascading egress vectors in topological order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from any chip.
    ///
    /// # Panics
    ///
    /// Panics if the wire graph is cyclic.
    pub fn run(
        &mut self,
        programs: &[Program],
        options: &RunOptions,
    ) -> Result<FabricReport, SimError> {
        self.run_with_faults(programs, options, &LinkFaultPlan::empty())
    }

    /// Runs the fabric while replaying a deterministic link-fault plan: each
    /// planned event corrupts or drops one transmission attempt of its
    /// targeted word, forcing a CRC-detected (or timeout-detected)
    /// retransmission that arrives `2·latency + DESKEW_RESYNC_CYCLES` late.
    /// Repaired words are bit-exact; per-wire counters land in
    /// [`FabricReport::links`].
    ///
    /// # Errors
    ///
    /// Stops at, and propagates, the first [`SimError`] from any chip (every
    /// chip stays in the fabric, inspectable as the error left it), or
    /// [`SimError::LinkRetryExhausted`] when one word fails more than
    /// [`MAX_LINK_RETRIES`] repair attempts.
    ///
    /// # Panics
    ///
    /// Panics if the wire graph is cyclic.
    pub fn run_with_faults(
        &mut self,
        programs: &[Program],
        options: &RunOptions,
        link_faults: &LinkFaultPlan,
    ) -> Result<FabricReport, SimError> {
        assert_eq!(programs.len(), self.chips.len(), "one program per chip");
        let order = self.chip_order();
        let mut links: Vec<LinkStats> = (0..self.wires.len())
            .map(|wire| LinkStats {
                wire,
                ..LinkStats::default()
            })
            .collect();
        let mut reports: Vec<Option<RunReport>> = (0..self.chips.len()).map(|_| None).collect();
        // Pending deliveries per receiving chip.
        let mut inbox: Inbox = BTreeMap::new();

        for &i in &order {
            if let Some(deliveries) = inbox.remove(&i) {
                for (link, arrival, word) in deliveries {
                    self.chips[i].inject_ingress(link, arrival, word);
                }
            }
            let report = self.chips[i].run(&programs[i], options)?;
            route_egress(&self.wires, i, &report, link_faults, &mut links, &mut inbox)?;
            reports[i] = Some(report);
        }
        Ok(FabricReport {
            reports: reports
                .into_iter()
                .map(|r| r.expect("every chip ran exactly once"))
                .collect(),
            links,
        })
    }
}

/// Per-chip pending deliveries: `(ingress link, arrival cycle, word)`.
type Inbox = BTreeMap<usize, Vec<(LinkId, Cycle, Arc<StreamWord>)>>;

/// Moves one chip's egress onto its outgoing wires: counts each word on its
/// wire's [`LinkStats`], plays transmission faults, and queues the delivery
/// on the receiving chip's inbox at its deterministic arrival cycle.
fn route_egress(
    wires: &[Wire],
    chip: usize,
    report: &RunReport,
    link_faults: &LinkFaultPlan,
    links: &mut [LinkStats],
    inbox: &mut Inbox,
) -> Result<(), SimError> {
    for (link, departed, word) in &report.egress {
        for (wi, wire) in wires
            .iter()
            .enumerate()
            .filter(|(_, w)| w.from_chip == chip && w.from_link.index() == *link)
        {
            let stats = &mut links[wi];
            let nth_word = stats.words;
            stats.words += 1;
            let (delivered, failed_attempts) =
                transmit(word, link_faults.faults_for(wi, nth_word), stats).ok_or(
                    SimError::LinkRetryExhausted {
                        wire: wi,
                        nth_word,
                        retries: MAX_LINK_RETRIES,
                        cycle: *departed,
                    },
                )?;
            let penalty = failed_attempts * (2 * u64::from(wire.latency) + DESKEW_RESYNC_CYCLES);
            stats.retried += failed_attempts;
            stats.added_latency += penalty;
            inbox.entry(wire.to_chip).or_default().push((
                wire.to_link,
                departed + Cycle::from(wire.latency) + penalty,
                delivered,
            ));
        }
    }
    Ok(())
}

/// Plays out the transmission attempts of one word against its planned
/// faults. Returns the delivered word and the number of failed attempts, or
/// `None` when the retry budget is exhausted. Each planned fault kills one
/// successive attempt; once the plan runs dry the next attempt succeeds (the
/// sender's copy is retransmitted verbatim, so the delivery is bit-exact).
fn transmit(
    word: &Arc<StreamWord>,
    faults: &[tsp_faults::LinkFaultEvent],
    stats: &mut LinkStats,
) -> Option<(Arc<StreamWord>, u64)> {
    let crc_sent = crc32_word(word);
    let mut failed = 0u64;
    for fault in faults {
        match fault.kind {
            LinkFaultKind::Corrupt { lane, bit } => {
                // The flipped copy is what crosses the wire; the receiver
                // recomputes the CRC and compares with the sender's. The
                // sender's check bits are materialized *before* the flip —
                // the wire fault strikes data only, leaving check and data
                // in genuine disagreement for the end-to-end ECC.
                let mut data = word.data.clone();
                let lane = usize::from(lane);
                let byte = data.lane(lane);
                data.set_lane(lane, byte ^ (1 << bit));
                let on_wire = StreamWord::with_check(data, word.check());
                if crc32_word(&on_wire) == crc_sent {
                    // CRC collision (impossible for a single-bit flip): the
                    // corruption passes undetected and is delivered. Any
                    // damage is left for the end-to-end ECC to find.
                    return Some((Arc::new(on_wire), failed));
                }
                stats.corrupted += 1;
            }
            LinkFaultKind::Drop => {
                // Nothing arrives; the receiver's timeout triggers the
                // retransmission request.
                stats.dropped += 1;
            }
        }
        failed += 1;
        if failed > u64::from(MAX_LINK_RETRIES) {
            return None;
        }
    }
    Some((Arc::clone(word), failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_arch::{ChipConfig, Hemisphere, Slice, StreamId, Vector};
    use tsp_faults::LinkFaultEvent;
    use tsp_isa::{C2cOp, MemAddr, MemOp};
    use tsp_mem::GlobalAddress;
    use tsp_sim::IcuId;

    fn ga(h: Hemisphere, s: u8, w: u16) -> GlobalAddress {
        GlobalAddress::new(h, s, MemAddr::new(w))
    }

    /// A two-chip fabric where `sender` reads a payload from MEM_E10 and
    /// sends it on link 3, and `receiver` receives on link 5 at cycle 200 and
    /// writes it to MEM_E20[9]. Returns (fabric, programs) with the program
    /// vector index-aligned to chips.
    fn send_receive_setup(
        sender: usize,
        receiver: usize,
        payload: &Vector,
    ) -> (Fabric, Vec<Program>) {
        let mut fabric = Fabric::new();
        let a = fabric.add_chip(Chip::new(ChipConfig::asic()));
        let b = fabric.add_chip(Chip::new(ChipConfig::asic()));
        assert_eq!((a, b), (0, 1));
        fabric.connect(Wire {
            from_chip: sender,
            from_link: tsp_isa::LinkId::new(3),
            to_chip: receiver,
            to_link: tsp_isa::LinkId::new(5),
            latency: 21,
        });
        fabric
            .chip_mut(sender)
            .memory
            .write(ga(Hemisphere::East, 10, 0), payload.clone());

        // Sender: read MEM_E10 → S0.E toward the east edge; Send on link 3
        // (C2C port 1 sits at the east MXM edge, position 92).
        let mut ps = Program::new();
        ps.builder(IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 10,
        })
        .push(MemOp::Read {
            addr: MemAddr::new(0),
            stream: StreamId::east(0),
        });
        let mem10 = Slice::mem(Hemisphere::East, 10).position();
        let edge = Slice::Mxm(Hemisphere::East).position();
        let t_send = 5 + u64::from(edge.0 - mem10.0);
        ps.builder(IcuId::C2c { port: 1 }).push_at(
            t_send,
            C2cOp::Send {
                link: tsp_isa::LinkId::new(3),
                stream: StreamId::east(0),
            },
        );

        // Receiver: Receive on link 5 at the east edge well after arrival
        // (with slack for one retransmission), then a MEM slice writes the
        // stream as it flows west.
        let t_recv = 200u64;
        let mut pr = Program::new();
        pr.builder(IcuId::C2c { port: 1 }).push_at(
            t_recv,
            C2cOp::Receive {
                link: tsp_isa::LinkId::new(5),
                stream: StreamId::west(7),
            },
        );
        let mem20 = Slice::mem(Hemisphere::East, 20).position();
        let t_write = t_recv + 2 + u64::from(edge.0 - mem20.0);
        pr.builder(IcuId::Mem {
            hemisphere: Hemisphere::East,
            index: 20,
        })
        .push_at(
            t_write,
            MemOp::Write {
                addr: MemAddr::new(9),
                stream: StreamId::west(7),
            },
        );

        let mut programs = vec![Program::new(), Program::new()];
        programs[sender] = ps;
        programs[receiver] = pr;
        (fabric, programs)
    }

    /// Chip 0 reads a vector and sends it on link 3; chip 1 receives it and
    /// writes it to memory. The paper's Send/Receive primitives end to end.
    #[test]
    fn two_chip_send_receive() {
        let payload = Vector::from_fn(|i| (i * 3) as u8);
        let (mut fabric, programs) = send_receive_setup(0, 1, &payload);
        let report = fabric
            .run(&programs, &RunOptions::default())
            .expect("fabric runs");
        assert_eq!(report.reports.len(), 2);
        assert_eq!(report.links.len(), 1);
        assert_eq!(
            report.links[0],
            LinkStats {
                wire: 0,
                words: 1,
                ..LinkStats::default()
            }
        );
        let got = fabric
            .chip(1)
            .memory
            .read_unchecked(ga(Hemisphere::East, 20, 9));
        assert_eq!(got, payload);
        // Fabric-wide telemetry merges both chips: the send lives on chip 0,
        // the receive on chip 1, one SRAM read + one write, all East.
        let t = report.merged_telemetry();
        assert_eq!((t.c2c_sends, t.c2c_receives), (1, 1));
        assert_eq!(t.sram_reads, [0, 1]);
        assert_eq!(t.sram_writes, [0, 1]);
        assert!(t.stream_high_water >= 1);
    }

    /// Regression for the delivery-order bug: a wire from a higher to a lower
    /// chip index must deliver too. Chips run in topological order, not index
    /// order, so chip 1's egress reaches chip 0 before chip 0 runs.
    #[test]
    fn reverse_direction_wire_delivers() {
        let payload = Vector::from_fn(|i| (i * 7 + 1) as u8);
        let (mut fabric, programs) = send_receive_setup(1, 0, &payload);
        let report = fabric
            .run(&programs, &RunOptions::default())
            .expect("reverse wire must deliver");
        assert_eq!(report.links[0].words, 1);
        let got = fabric
            .chip(0)
            .memory
            .read_unchecked(ga(Hemisphere::East, 20, 9));
        assert_eq!(got, payload);
    }

    /// Receiving before the vector's deterministic arrival is a scheduling
    /// fault, exactly like a mistimed stream read on chip.
    #[test]
    fn early_receive_faults() {
        let mut fabric = Fabric::new();
        let c0 = fabric.add_chip(Chip::new(ChipConfig::asic()));
        let _c1 = fabric.add_chip(Chip::new(ChipConfig::asic()));
        fabric.connect(Wire {
            from_chip: c0,
            from_link: tsp_isa::LinkId::new(0),
            to_chip: 1,
            to_link: tsp_isa::LinkId::new(0),
            latency: 21,
        });
        let mut p1 = Program::new();
        p1.builder(IcuId::C2c { port: 1 }).push_at(
            0, // nothing can have arrived at cycle 0
            C2cOp::Receive {
                link: tsp_isa::LinkId::new(0),
                stream: StreamId::west(0),
            },
        );
        let err = fabric
            .run(&[Program::new(), p1], &RunOptions::default())
            .unwrap_err();
        assert!(matches!(err, SimError::LinkEmpty { link: 0, .. }));
    }

    /// A cyclic wire graph has no feed-forward schedule and is rejected.
    #[test]
    #[should_panic(expected = "cycle")]
    fn cyclic_wiring_is_rejected() {
        let mut fabric = Fabric::new();
        let _ = fabric.add_chip(Chip::new(ChipConfig::asic()));
        let _ = fabric.add_chip(Chip::new(ChipConfig::asic()));
        fabric.connect(Wire {
            from_chip: 0,
            from_link: tsp_isa::LinkId::new(0),
            to_chip: 1,
            to_link: tsp_isa::LinkId::new(0),
            latency: 21,
        });
        fabric.connect(Wire {
            from_chip: 1,
            from_link: tsp_isa::LinkId::new(1),
            to_chip: 0,
            to_link: tsp_isa::LinkId::new(1),
            latency: 21,
        });
        let _ = fabric.run(&[Program::new(), Program::new()], &RunOptions::default());
    }

    /// A corrupted transmission is caught by the receiver's CRC and
    /// retransmitted: the payload lands bit-exact, one retry and its deskew
    /// re-sync latency are accounted on the wire.
    #[test]
    fn corrupted_word_is_retransmitted_bit_exact() {
        let payload = Vector::from_fn(|i| (i % 251) as u8);
        let (mut fabric, programs) = send_receive_setup(0, 1, &payload);
        let plan = LinkFaultPlan::from_events(
            0,
            vec![LinkFaultEvent {
                wire: 0,
                nth_word: 0,
                kind: LinkFaultKind::Corrupt { lane: 17, bit: 6 },
            }],
        );
        let report = fabric
            .run_with_faults(&programs, &RunOptions::default(), &plan)
            .expect("one corruption is repaired");
        assert_eq!(
            report.links[0],
            LinkStats {
                wire: 0,
                words: 1,
                corrupted: 1,
                dropped: 0,
                retried: 1,
                added_latency: 2 * 21 + DESKEW_RESYNC_CYCLES,
            }
        );
        let got = fabric
            .chip(1)
            .memory
            .read_unchecked(ga(Hemisphere::East, 20, 9));
        assert_eq!(got, payload, "repaired delivery must be bit-exact");
    }

    /// A dropped word is detected by the receiver's timeout and
    /// retransmitted.
    #[test]
    fn dropped_word_is_retransmitted() {
        let payload = Vector::splat(0xC3);
        let (mut fabric, programs) = send_receive_setup(0, 1, &payload);
        let plan = LinkFaultPlan::from_events(
            0,
            vec![LinkFaultEvent {
                wire: 0,
                nth_word: 0,
                kind: LinkFaultKind::Drop,
            }],
        );
        let report = fabric
            .run_with_faults(&programs, &RunOptions::default(), &plan)
            .expect("one drop is repaired");
        assert_eq!(report.links[0].dropped, 1);
        assert_eq!(report.links[0].retried, 1);
        let got = fabric
            .chip(1)
            .memory
            .read_unchecked(ga(Hemisphere::East, 20, 9));
        assert_eq!(got, payload);
    }

    /// A word whose every attempt fails exhausts the retry budget and
    /// surfaces as a diagnosable error instead of hanging.
    #[test]
    fn retry_exhaustion_is_an_error() {
        let payload = Vector::splat(1);
        let (mut fabric, programs) = send_receive_setup(0, 1, &payload);
        let events = (0..=MAX_LINK_RETRIES)
            .map(|_| LinkFaultEvent {
                wire: 0,
                nth_word: 0,
                kind: LinkFaultKind::Drop,
            })
            .collect();
        let plan = LinkFaultPlan::from_events(0, events);
        let err = fabric
            .run_with_faults(&programs, &RunOptions::default(), &plan)
            .unwrap_err();
        match err {
            SimError::LinkRetryExhausted {
                wire,
                nth_word,
                retries,
                ..
            } => {
                assert_eq!(wire, 0);
                assert_eq!(nth_word, 0);
                assert_eq!(retries, MAX_LINK_RETRIES);
            }
            other => panic!("expected LinkRetryExhausted, got {other}"),
        }
    }

    /// The payload fan-in sender `sender` sends.
    fn fan_in_payload(sender: u8) -> Vector {
        Vector::from_fn(|i| (i as u8).wrapping_mul(3 + sender))
    }

    /// A three-chip fan-in: chips 0 and 1 (one Kahn level) each send
    /// [`fan_in_payload`] to chip 2 on separate links (wires 0 and 1); chip 2
    /// receives both and writes them to MEM_E20[9] and MEM_E20[10].
    fn fan_in_setup() -> (Fabric, Vec<Program>) {
        let mut fabric = Fabric::new();
        for _ in 0..3 {
            fabric.add_chip(Chip::new(ChipConfig::asic()));
        }
        for (sender, to_link) in [(0usize, 5u8), (1, 6)] {
            fabric.connect(Wire {
                from_chip: sender,
                from_link: tsp_isa::LinkId::new(3),
                to_chip: 2,
                to_link: tsp_isa::LinkId::new(to_link),
                latency: 21,
            });
        }
        let mem10 = Slice::mem(Hemisphere::East, 10).position();
        let edge = Slice::Mxm(Hemisphere::East).position();
        let mem20 = Slice::mem(Hemisphere::East, 20).position();
        let mut programs = Vec::new();
        for sender in 0..2u8 {
            fabric
                .chip_mut(usize::from(sender))
                .memory
                .write(ga(Hemisphere::East, 10, 0), fan_in_payload(sender));
            let mut ps = Program::new();
            ps.builder(IcuId::Mem {
                hemisphere: Hemisphere::East,
                index: 10,
            })
            .push(MemOp::Read {
                addr: MemAddr::new(0),
                stream: StreamId::east(0),
            });
            ps.builder(IcuId::C2c { port: 1 }).push_at(
                5 + u64::from(edge.0 - mem10.0),
                C2cOp::Send {
                    link: tsp_isa::LinkId::new(3),
                    stream: StreamId::east(0),
                },
            );
            programs.push(ps);
        }
        let mut pr = Program::new();
        for (n, (from_link, addr)) in [(5u8, 9u16), (6, 10)].into_iter().enumerate() {
            let t_recv = 200 + 20 * n as u64;
            let stream = StreamId::west(7 + n as u8);
            pr.builder(IcuId::C2c { port: 1 }).push_at(
                t_recv,
                C2cOp::Receive {
                    link: tsp_isa::LinkId::new(from_link),
                    stream,
                },
            );
            pr.builder(IcuId::Mem {
                hemisphere: Hemisphere::East,
                index: 20,
            })
            .push_at(
                t_recv + 2 + u64::from(edge.0 - mem20.0),
                MemOp::Write {
                    addr: MemAddr::new(addr),
                    stream,
                },
            );
        }
        programs.push(pr);
        (fabric, programs)
    }

    /// Two senders in one Kahn level feed one receiver: each word is counted
    /// on its own wire and lands in chip 2 bit-exact — also when the second
    /// wire's word is corrupted once and retransmitted.
    #[test]
    fn fan_in_delivers_both_senders_words() {
        let corrupt = LinkFaultPlan::from_events(
            0,
            vec![LinkFaultEvent {
                wire: 1,
                nth_word: 0,
                kind: LinkFaultKind::Corrupt { lane: 40, bit: 2 },
            }],
        );
        let clean_wire = |wire| LinkStats {
            wire,
            words: 1,
            ..LinkStats::default()
        };
        let repaired = LinkStats {
            corrupted: 1,
            retried: 1,
            added_latency: 2 * 21 + DESKEW_RESYNC_CYCLES,
            ..clean_wire(1)
        };
        for (plan, wire1) in [(LinkFaultPlan::empty(), clean_wire(1)), (corrupt, repaired)] {
            let (mut fabric, programs) = fan_in_setup();
            let report = fabric
                .run_with_faults(&programs, &RunOptions::default(), &plan)
                .expect("fan-in runs");
            assert_eq!(report.links, [clean_wire(0), wire1]);
            let egress: Vec<usize> = report.reports.iter().map(|r| r.egress.len()).collect();
            assert_eq!(egress, [1, 1, 0], "one word from each sender");
            let t = report.merged_telemetry();
            assert_eq!((t.c2c_sends, t.c2c_receives), (2, 2));
            for (sender, addr) in [(0u8, 9u16), (1, 10)] {
                assert_eq!(
                    fabric
                        .chip(2)
                        .memory
                        .read_unchecked(ga(Hemisphere::East, 20, addr)),
                    fan_in_payload(sender),
                    "chip 2 word {addr} holds sender {sender}'s payload"
                );
            }
        }
    }

    /// A run that dies on `LinkRetryExhausted` leaves every chip in the
    /// fabric, still inspectable: the sender holds its payload, and the
    /// receiver, which never ran, still reads zero where the word was due.
    #[test]
    fn failed_run_leaves_chips_inspectable() {
        let payload = Vector::splat(1);
        let (mut fabric, programs) = send_receive_setup(0, 1, &payload);
        let events = (0..=MAX_LINK_RETRIES)
            .map(|_| LinkFaultEvent {
                wire: 0,
                nth_word: 0,
                kind: LinkFaultKind::Drop,
            })
            .collect();
        let plan = LinkFaultPlan::from_events(0, events);
        let err = fabric
            .run_with_faults(&programs, &RunOptions::default(), &plan)
            .unwrap_err();
        assert!(matches!(err, SimError::LinkRetryExhausted { .. }));
        assert_eq!(
            fabric
                .chip(0)
                .memory
                .read_unchecked(ga(Hemisphere::East, 10, 0)),
            payload
        );
        assert_eq!(
            fabric
                .chip(1)
                .memory
                .read_unchecked(ga(Hemisphere::East, 20, 9)),
            Vector::splat(0)
        );
    }

    #[test]
    fn crc32_known_answer_and_bit_sensitivity() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let w = StreamWord::protect(Vector::from_fn(|i| i as u8));
        let base = crc32_word(&w);
        for (lane, bit) in [(0usize, 0u8), (160, 3), (319, 7)] {
            let mut flipped = w.clone();
            let b = flipped.data.lane(lane);
            flipped.data.set_lane(lane, b ^ (1 << bit));
            assert_ne!(crc32_word(&flipped), base, "lane {lane} bit {bit}");
        }
    }
}
