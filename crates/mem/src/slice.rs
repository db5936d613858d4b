//! MEM slices: pseudo-dual-port SRAM organized as the paper's partitioned
//! global address space (§II-B, §III-B, §IV-A).
//!
//! Each of the 88 slices stores 8,192 words; a word is a 320-byte vector
//! (16 bytes per superlane tile) plus per-superlane SECDED check bits. Two
//! banks per slice allow one read and one write in the same cycle **iff**
//! they target different banks — [`MemSlice::access`] enforces this, because
//! the compiler (not hardware arbitration) is responsible for avoiding
//! conflicts; a violation is a compiler bug, surfaced as an error rather than
//! a stall.

use core::fmt;
use std::sync::Arc;

use tsp_arch::{Hemisphere, Vector, MEM_SLICES_PER_HEMISPHERE, SUPERLANES};
use tsp_isa::MemAddr;

use crate::ecc::{self, ErrorLog, ErrorSite};

/// Words per bank (the bank bit is address bit 12).
const WORDS_PER_BANK: usize = 4096;

/// Check-bit state of a [`StoredVector`] — same lazy scheme as the stream
/// file's words: a freshly protected word's check bits equal `encode(data)`
/// by construction, so they are materialized only when a fault path needs
/// bits that can genuinely disagree with the data.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StoredCheck {
    /// `check == encode(data)` holds by construction.
    Pristine,
    /// Explicit bits that may disagree with `data` (fault paths, words that
    /// travelled with latent errors), out of line: fault-free runs never
    /// hold one, and every word would otherwise carry its 40 bytes.
    Explicit(Box<[u16; SUPERLANES]>),
}

/// A vector as stored in SRAM: data plus per-superlane ECC check bits.
///
/// 328 bytes: the 320 data bytes and one pointer-sized check-bit state,
/// null while the word is pristine. Every SRAM word and stream word is one,
/// so a field added here grows them all (`stored_word_is_328_bytes`).
#[derive(Debug, Clone)]
pub struct StoredVector {
    /// The 320 data bytes.
    pub data: Vector,
    /// 9 check bits per 16-byte superlane word (lazily materialized).
    check: StoredCheck,
}

impl StoredVector {
    /// Protects a vector with producer-side ECC. The encode is deferred;
    /// the word is observably identical to one with eager check bits.
    #[must_use]
    pub fn protect(data: Vector) -> StoredVector {
        StoredVector {
            data,
            check: StoredCheck::Pristine,
        }
    }

    /// A word with explicit check bits that may disagree with the data.
    #[must_use]
    pub fn with_check(data: Vector, check: [u16; SUPERLANES]) -> StoredVector {
        StoredVector {
            data,
            check: StoredCheck::Explicit(Box::new(check)),
        }
    }

    /// Sets the word's check bits — `None` is pristine, producer-side ECC
    /// deferred — and hands out its data for in-place rewriting: a pool
    /// reusing an exclusively-owned word fills the 320 bytes directly
    /// instead of allocating a fresh word.
    pub fn rewrite(&mut self, check: Option<[u16; SUPERLANES]>) -> &mut Vector {
        self.check = match check {
            None => StoredCheck::Pristine,
            Some(c) => StoredCheck::Explicit(Box::new(c)),
        };
        &mut self.data
    }

    /// Whether `check == encode(data)` holds by construction (consumer-side
    /// checks of such a word provably return `Clean`).
    #[must_use]
    pub fn is_pristine(&self) -> bool {
        matches!(self.check, StoredCheck::Pristine)
    }

    /// The word's per-superlane check bits, materializing them from the data
    /// for pristine words.
    #[must_use]
    pub fn check(&self) -> [u16; SUPERLANES] {
        match &self.check {
            StoredCheck::Explicit(c) => **c,
            StoredCheck::Pristine => {
                let mut check = [0u16; SUPERLANES];
                for (s, c) in check.iter_mut().enumerate() {
                    let mut word = [0u8; 16];
                    word.copy_from_slice(self.data.superlane(s));
                    *c = ecc::encode(&word);
                }
                check
            }
        }
    }
}

impl PartialEq for StoredVector {
    /// Compares *materialized* words: laziness is not observable through `==`.
    fn eq(&self, other: &StoredVector) -> bool {
        self.data == other.data && (self.check == other.check || self.check() == other.check())
    }
}

impl Eq for StoredVector {}

/// An illegal access the compiler should never have scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// A read and a write in the same cycle hit the same bank.
    BankConflict {
        /// The contended bank.
        bank: u8,
        /// Cycle of the conflict.
        cycle: u64,
    },
    /// Two reads (or two writes) were issued to one slice in the same cycle.
    PortConflict {
        /// Cycle of the conflict.
        cycle: u64,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::BankConflict { bank, cycle } => {
                write!(
                    f,
                    "read/write bank conflict on bank {bank} at cycle {cycle}"
                )
            }
            AccessError::PortConflict { cycle } => {
                write!(f, "more than one read or write port used at cycle {cycle}")
            }
        }
    }
}

impl std::error::Error for AccessError {}

/// One MEM slice: 2 banks × 4,096 words of 320-byte vectors.
///
/// Storage is allocated lazily, each bank's word table growing only to the
/// highest word written, to keep an idle or lightly used full-chip model
/// cheap: fully touched, 88 slices × 8,192 words would take ≈ 254 MB, each
/// a 328-byte [`StoredVector`] behind an `Arc` (16 bytes of counts) in an
/// 8-byte slot.
#[derive(Debug, Clone)]
pub struct MemSlice {
    banks: [Vec<Option<Arc<StoredVector>>>; 2],
    /// Port-use tracking for the current cycle: (cycle, banks read, banks
    /// written), each a bit mask (0 = port unused).
    last_access: Option<(u64, u8, u8)>,
}

impl MemSlice {
    /// Creates an empty slice.
    #[must_use]
    pub fn new() -> MemSlice {
        MemSlice {
            banks: [Vec::new(), Vec::new()],
            last_access: None,
        }
    }

    fn slot(&mut self, addr: MemAddr) -> &mut Option<Arc<StoredVector>> {
        let bank = addr.bank() as usize;
        let index = (addr.word() as usize) % WORDS_PER_BANK;
        let v = &mut self.banks[bank];
        if v.len() <= index {
            v.resize(index + 1, None);
        }
        &mut v[index]
    }

    /// Raw read of the stored word (zero vector if never written). Does not
    /// model ports; use [`MemSlice::access`] from timed code.
    #[must_use]
    pub fn peek(&self, addr: MemAddr) -> StoredVector {
        self.peek_ref(addr)
            .map(|w| StoredVector::clone(w))
            .unwrap_or_else(|| StoredVector::protect(Vector::ZERO))
    }

    /// Raw borrow of the stored word, `None` if never written — the
    /// copy-free read path. Per-word suspicion travels with the word itself:
    /// [`StoredVector::is_pristine`] tells the reader whether a consumer-side
    /// ECC check can be skipped, at word granularity (a fault strike on one
    /// address does not evict the fast path for its whole slice).
    #[must_use]
    pub fn peek_ref(&self, addr: MemAddr) -> Option<&Arc<StoredVector>> {
        let bank = addr.bank() as usize;
        let index = (addr.word() as usize) % WORDS_PER_BANK;
        self.banks[bank].get(index).and_then(|s| s.as_ref())
    }

    /// Raw write (producer-side ECC is computed here).
    pub fn poke(&mut self, addr: MemAddr, data: Vector) {
        *self.slot(addr) = Some(Arc::new(StoredVector::protect(data)));
    }

    /// Stores a word that already carries check bits (e.g. travelled on a
    /// stream); preserves any latent error — tracked by the word's own
    /// check-bit state — for the eventual consumer.
    pub fn poke_stored(&mut self, addr: MemAddr, word: StoredVector) {
        *self.slot(addr) = Some(Arc::new(word));
    }

    /// Stores an already-shared word without copying its 320 bytes — the
    /// zero-copy write path. Returns the displaced word (if any) so the
    /// caller can recycle its allocation. MEM, the stream file and the accumulators all
    /// speak the same [`StoredVector`] currency, so a vector consumed off a
    /// stream lands in SRAM as a reference-count bump; later mutations of
    /// the slot (pokes, fault injections) replace the `Arc` rather than the
    /// shared word, preserving snapshot semantics for in-flight readers.
    pub fn poke_shared(
        &mut self,
        addr: MemAddr,
        word: Arc<StoredVector>,
    ) -> Option<Arc<StoredVector>> {
        self.slot(addr).replace(word)
    }

    /// Flips a single data bit (fault injection). The check bits are
    /// materialized from the clean data *before* the flip, so check and data
    /// genuinely disagree afterwards and readers really verify.
    pub fn inject_fault(&mut self, addr: MemAddr, lane: usize, bit: u8) {
        let slot = self.slot(addr);
        let word = slot
            .as_deref()
            .cloned()
            .unwrap_or_else(|| StoredVector::protect(Vector::ZERO));
        let check = word.check();
        let mut data = word.data;
        let byte = data.lane(lane);
        data.set_lane(lane, byte ^ (1 << bit));
        *slot = Some(Arc::new(StoredVector::with_check(data, check)));
    }

    /// Flips a single ECC check bit of one superlane's stored word (fault
    /// injection): the data is intact but the code no longer matches, so the
    /// consumer-side check sees — and corrects — a check-bit upset.
    pub fn inject_check_fault(&mut self, addr: MemAddr, superlane: usize, bit: u8) {
        assert!(
            usize::from(bit) < ecc::CHECK_BITS,
            "check bit {bit} out of range"
        );
        let slot = self.slot(addr);
        let word = slot
            .as_deref()
            .cloned()
            .unwrap_or_else(|| StoredVector::protect(Vector::ZERO));
        let mut check = word.check();
        check[superlane] ^= 1 << bit;
        *slot = Some(Arc::new(StoredVector::with_check(word.data, check)));
    }

    /// A timed direct access to the word at `addr`: registers port/bank usage
    /// for `cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] if this access conflicts with another access
    /// to the same slice in the same cycle (same bank, or same port).
    pub fn access(&mut self, cycle: u64, addr: MemAddr, is_write: bool) -> Result<(), AccessError> {
        self.access_banks(cycle, 1 << addr.bank(), is_write)
    }

    /// A timed access touching every bank set in `banks` (bit `b` = bank
    /// `b`): what a stream-indirect `Gather`/`Scatter` charges, whose
    /// per-superlane addresses may straddle both banks. It takes one port
    /// like a direct access and conflicts with a same-cycle access on the
    /// other port to any of its banks.
    ///
    /// # Errors
    ///
    /// Returns [`AccessError`] as [`MemSlice::access`] does.
    pub fn access_banks(
        &mut self,
        cycle: u64,
        banks: u8,
        is_write: bool,
    ) -> Result<(), AccessError> {
        let (read, write) = match self.last_access {
            Some((c, r, w)) if c == cycle => (r, w),
            _ => (0, 0),
        };
        let (mine, other) = if is_write {
            (write, read)
        } else {
            (read, write)
        };
        if mine != 0 {
            return Err(AccessError::PortConflict { cycle });
        }
        if other & banks != 0 {
            let bank = (other & banks).trailing_zeros() as u8;
            return Err(AccessError::BankConflict { bank, cycle });
        }
        self.last_access = Some(if is_write {
            (cycle, read, banks)
        } else {
            (cycle, banks, write)
        });
        Ok(())
    }
}

impl Default for MemSlice {
    fn default() -> MemSlice {
        MemSlice::new()
    }
}

/// A global (PGAS) address: hemisphere + slice + word (paper §III-B: "the
/// address space laid out uniformly across the 88 slices").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddress {
    /// Hemisphere holding the slice.
    pub hemisphere: Hemisphere,
    /// MEM slice index within the hemisphere, `0..44`.
    pub slice: u8,
    /// Word address within the slice.
    pub word: MemAddr,
}

impl GlobalAddress {
    /// Creates a global address.
    ///
    /// # Panics
    ///
    /// Panics if `slice >= 44`.
    #[must_use]
    pub fn new(hemisphere: Hemisphere, slice: u8, word: MemAddr) -> GlobalAddress {
        assert!(
            slice < MEM_SLICES_PER_HEMISPHERE,
            "MEM slice {slice} out of range"
        );
        GlobalAddress {
            hemisphere,
            slice,
            word,
        }
    }

    /// Flat slice index `0..88` (west slices first).
    #[must_use]
    pub fn flat_slice(self) -> u8 {
        self.hemisphere.index() as u8 * MEM_SLICES_PER_HEMISPHERE + self.slice
    }

    /// Linear byte offset in the uniform PGAS layout (for allocator math).
    #[must_use]
    pub fn linear(self) -> usize {
        (self.flat_slice() as usize * crate::slice::WORDS_PER_BANK * 2 + self.word.word() as usize)
            * 320
    }
}

impl fmt::Display for GlobalAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MEM_{}{}[{}]", self.hemisphere, self.slice, self.word)
    }
}

/// The full 88-slice on-chip memory, with the shared ECC error log.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    slices: [Vec<MemSlice>; 2],
    /// CSR error log shared by the whole memory system.
    pub errors: ErrorLog,
}

impl Memory {
    /// Creates an empty memory system.
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            slices: [
                (0..MEM_SLICES_PER_HEMISPHERE)
                    .map(|_| MemSlice::new())
                    .collect(),
                (0..MEM_SLICES_PER_HEMISPHERE)
                    .map(|_| MemSlice::new())
                    .collect(),
            ],
            errors: ErrorLog::new(),
        }
    }

    /// Borrows one slice.
    #[must_use]
    pub fn slice(&self, hemisphere: Hemisphere, index: u8) -> &MemSlice {
        &self.slices[hemisphere.index()][index as usize]
    }

    /// Mutably borrows one slice.
    #[must_use]
    pub fn slice_mut(&mut self, hemisphere: Hemisphere, index: u8) -> &mut MemSlice {
        &mut self.slices[hemisphere.index()][index as usize]
    }

    /// Forgets everything but the stored words — the ports each slice used
    /// in its last cycle and the CSR error log — so that a program run again
    /// on this memory inherits nothing of its last run but what it left in
    /// SRAM.
    pub fn rewind(&mut self) {
        for slice in self.slices.iter_mut().flatten() {
            slice.last_access = None;
        }
        self.errors = ErrorLog::new();
    }

    /// Writes a vector (producer-side ECC) at a global address.
    pub fn write(&mut self, addr: GlobalAddress, data: Vector) {
        self.slice_mut(addr.hemisphere, addr.slice)
            .poke(addr.word, data);
    }

    /// Reads a vector, performing the consumer-side ECC check and recording
    /// any events in the CSR.
    ///
    /// # Errors
    ///
    /// Returns [`ecc::EccError`] on an uncorrectable (double-bit) error.
    pub fn read_checked(
        &mut self,
        cycle: u64,
        addr: GlobalAddress,
    ) -> Result<Vector, ecc::EccError> {
        let stored = match self.slice(addr.hemisphere, addr.slice).peek_ref(addr.word) {
            None => return Ok(Vector::ZERO),
            // `check == encode(data)` by construction: the verification
            // below could only return `Clean` with the data unchanged.
            Some(w) if w.is_pristine() => return Ok(w.data.clone()),
            Some(w) => StoredVector::clone(w),
        };
        let check = stored.check();
        let mut data = stored.data.clone();
        for (s, &check_bits) in check.iter().enumerate() {
            let mut word = [0u8; 16];
            word.copy_from_slice(data.superlane(s));
            match ecc::check_and_correct(&mut word, check_bits) {
                Ok(ecc::EccOutcome::Clean) => {}
                Ok(ecc::EccOutcome::Corrected { .. }) => {
                    data.superlane_mut(s).copy_from_slice(&word);
                    self.errors.record_corrected(
                        cycle,
                        ErrorSite::Sram {
                            slice: addr.flat_slice(),
                            word: addr.word.word(),
                        },
                    );
                }
                Err(e) => {
                    self.errors.record_uncorrectable(
                        cycle,
                        ErrorSite::Sram {
                            slice: addr.flat_slice(),
                            word: addr.word.word(),
                        },
                    );
                    return Err(e);
                }
            }
        }
        Ok(data)
    }

    /// Reads without an ECC check (fast path when ECC is disabled).
    #[must_use]
    pub fn read_unchecked(&self, addr: GlobalAddress) -> Vector {
        self.slice(addr.hemisphere, addr.slice).peek(addr.word).data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_isa::mem::WORDS_PER_SLICE;

    fn addr(w: u16) -> MemAddr {
        MemAddr::new(w)
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MemSlice::new();
        assert!(m.peek(addr(100)).data.is_zero());
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem = Memory::new();
        let a = GlobalAddress::new(Hemisphere::East, 7, addr(42));
        let v = Vector::from_fn(|i| i as u8);
        mem.write(a, v.clone());
        assert_eq!(mem.read_checked(0, a).unwrap(), v);
        assert_eq!(mem.errors.corrected(), 0);
    }

    #[test]
    fn single_bit_fault_is_corrected_and_logged() {
        let mut mem = Memory::new();
        let a = GlobalAddress::new(Hemisphere::West, 3, addr(7));
        let v = Vector::from_fn(|i| (i * 3) as u8);
        mem.write(a, v.clone());
        mem.slice_mut(Hemisphere::West, 3)
            .inject_fault(addr(7), 17, 4);
        assert_eq!(mem.read_checked(5, a).unwrap(), v);
        assert_eq!(mem.errors.corrected(), 1);
        assert_eq!(mem.errors.events()[0].cycle, 5);
    }

    #[test]
    fn double_bit_fault_is_detected() {
        let mut mem = Memory::new();
        let a = GlobalAddress::new(Hemisphere::West, 0, addr(0));
        mem.write(a, Vector::splat(0xA5));
        // Two flips within the same superlane word.
        mem.slice_mut(Hemisphere::West, 0)
            .inject_fault(addr(0), 0, 0);
        mem.slice_mut(Hemisphere::West, 0)
            .inject_fault(addr(0), 1, 3);
        assert!(mem.read_checked(9, a).is_err());
        assert_eq!(mem.errors.uncorrectable(), 1);
    }

    #[test]
    fn faults_in_different_superlanes_both_corrected() {
        let mut mem = Memory::new();
        let a = GlobalAddress::new(Hemisphere::East, 1, addr(1));
        let v = Vector::splat(0x3C);
        mem.write(a, v.clone());
        mem.slice_mut(Hemisphere::East, 1)
            .inject_fault(addr(1), 5, 1); // superlane 0
        mem.slice_mut(Hemisphere::East, 1)
            .inject_fault(addr(1), 300, 7); // superlane 18
        assert_eq!(mem.read_checked(0, a).unwrap(), v);
        assert_eq!(mem.errors.corrected(), 2);
    }

    #[test]
    fn dual_port_same_bank_conflicts() {
        let mut s = MemSlice::new();
        s.access(10, addr(5), false).unwrap();
        // Write to same bank (bank 0) same cycle: conflict.
        assert!(matches!(
            s.access(10, addr(9), true),
            Err(AccessError::BankConflict { bank: 0, .. })
        ));
        // Write to other bank same cycle: allowed.
        let mut s = MemSlice::new();
        s.access(10, addr(5), false).unwrap();
        s.access(10, addr(5).opposite_bank(), true).unwrap();
    }

    /// A gather charges the banks its map addresses: the other port may use
    /// the other bank in the same cycle, not the same one; a map straddling
    /// both banks leaves the write port nothing.
    #[test]
    fn indirect_access_charges_the_banks_it_touches() {
        let high = 1u8 << addr(4096).bank();
        let mut s = MemSlice::new();
        s.access_banks(7, high, false).unwrap();
        s.access(7, addr(5), true).unwrap();
        let mut s = MemSlice::new();
        s.access_banks(7, high, false).unwrap();
        assert!(matches!(
            s.access(7, addr(4100), true),
            Err(AccessError::BankConflict { bank: 1, cycle: 7 })
        ));
        let mut s = MemSlice::new();
        s.access_banks(7, 0b11, false).unwrap();
        assert!(s.access(7, addr(5), true).is_err());
        assert!(matches!(
            s.access_banks(7, high, false),
            Err(AccessError::PortConflict { cycle: 7 })
        ));
    }

    #[test]
    fn two_reads_same_cycle_conflict() {
        let mut s = MemSlice::new();
        s.access(3, addr(0), false).unwrap();
        assert!(matches!(
            s.access(3, addr(4096), false),
            Err(AccessError::PortConflict { .. })
        ));
        // Next cycle is fine.
        s.access(4, addr(4096), false).unwrap();
    }

    #[test]
    fn global_address_linearizes_uniquely() {
        let a = GlobalAddress::new(Hemisphere::West, 0, addr(0));
        let b = GlobalAddress::new(Hemisphere::West, 0, addr(1));
        let c = GlobalAddress::new(Hemisphere::West, 1, addr(0));
        let d = GlobalAddress::new(Hemisphere::East, 0, addr(0));
        let lins = [a, b, c, d].map(GlobalAddress::linear);
        let mut sorted = lins.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "linear addresses collide: {lins:?}");
    }

    /// A pristine word carries no check bits, and a new field cannot
    /// quietly regrow every SRAM and stream word.
    #[test]
    fn stored_word_is_328_bytes() {
        assert!(std::mem::size_of::<StoredVector>() <= 328);
        let word = StoredVector::with_check(Vector::splat(7), [3; SUPERLANES]);
        assert!(!word.is_pristine());
        assert_eq!(word.check(), [3; SUPERLANES]);
    }

    #[test]
    fn capacity_math() {
        // 88 slices × 8192 words × 320 B = 220 MiB.
        let total = 88usize * usize::from(WORDS_PER_SLICE) * 320;
        assert_eq!(total, 220 * 1024 * 1024);
    }
}
