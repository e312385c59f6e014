//! The EH16 memory system: a volatile SRAM region and a non-volatile FRAM
//! region in one word-addressed space, with per-region access accounting.
//!
//! The SRAM/FRAM split is the axis the paper's Section II.B turns on:
//! Hibernus keeps working state in SRAM and pays to copy it to FRAM at
//! `V_H`; QuickRecall runs from unified FRAM, paying higher quiescent power
//! instead (Eq. 5). The machine reads the access counters to price those
//! choices.

use std::fmt;

use edc_units::Joules;

/// Default SRAM size in 16-bit words (2 KiB, MSP430FR57xx-class).
pub const SRAM_WORDS: u16 = 0x0400;
/// First FRAM word address.
pub const FRAM_BASE: u16 = 0x1000;
/// FRAM size in words (32 KiB).
pub const FRAM_WORDS: u16 = 0x4000;
/// First word of the reserved snapshot area, at the top of FRAM.
pub const SNAPSHOT_BASE: u16 = FRAM_BASE + FRAM_WORDS - SNAPSHOT_AREA_WORDS;
/// Words of one snapshot frame (SRAM + registers + header).
pub const SNAPSHOT_FRAME_WORDS: u16 = SRAM_WORDS + 32;
/// Words reserved for the snapshot area: two frames, double-buffered so a
/// torn write can never destroy the last sealed frame (as in Mementos'
/// double-buffering).
pub const SNAPSHOT_AREA_WORDS: u16 = 2 * SNAPSHOT_FRAME_WORDS;

/// Which physical memory an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Volatile SRAM (`0x0000..SRAM_WORDS`).
    Sram,
    /// Non-volatile FRAM (`FRAM_BASE..FRAM_BASE+FRAM_WORDS`).
    Fram,
}

/// Faults raised by the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryFault {
    /// Access to an unmapped word address.
    Unmapped(u16),
}

impl fmt::Display for MemoryFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryFault::Unmapped(a) => write!(f, "unmapped address {a:#06x}"),
        }
    }
}

impl std::error::Error for MemoryFault {}

/// Per-region access counters used for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// SRAM reads.
    pub sram_reads: u64,
    /// SRAM writes.
    pub sram_writes: u64,
    /// FRAM reads.
    pub fram_reads: u64,
    /// FRAM writes.
    pub fram_writes: u64,
}

impl AccessCounts {
    /// FRAM write energy given a per-word cost.
    pub fn fram_write_energy(&self, per_word: Joules) -> Joules {
        per_word * self.fram_writes as f64
    }
}

/// Most writes one [`WriteLog`] holds: 1 MiB of `(address, value)` pairs.
const WRITE_LOG_CAP: usize = 1 << 18;

/// The writes [`Memory::write`] made while a log was open.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriteLog {
    /// `(address, value)` of every successful write, in order.
    pub(crate) writes: Vec<(u16, u16)>,
    /// A write found `writes` at [`WRITE_LOG_CAP`] and was not logged.
    pub(crate) overflowed: bool,
}

/// The unified memory: SRAM plus FRAM with access tracking.
#[derive(Debug, Clone)]
pub struct Memory {
    sram: Vec<u16>,
    fram: Vec<u16>,
    counts: AccessCounts,
    /// Open while the machine records a boot (see `Mcu::run`).
    log: Option<WriteLog>,
}

impl Memory {
    /// Creates memory with SRAM zeroed and FRAM zeroed.
    pub fn new() -> Self {
        Self {
            sram: vec![0; SRAM_WORDS as usize],
            fram: vec![0; FRAM_WORDS as usize],
            counts: AccessCounts::default(),
            log: None,
        }
    }

    /// Region for an address, if mapped.
    pub fn region_of(addr: u16) -> Result<Region, MemoryFault> {
        if addr < SRAM_WORDS {
            Ok(Region::Sram)
        } else if (FRAM_BASE..FRAM_BASE + FRAM_WORDS).contains(&addr) {
            Ok(Region::Fram)
        } else {
            Err(MemoryFault::Unmapped(addr))
        }
    }

    /// Reads a word, counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault::Unmapped`] for addresses outside both regions.
    pub fn read(&mut self, addr: u16) -> Result<u16, MemoryFault> {
        if let Some(&v) = self.sram.get(addr as usize) {
            self.counts.sram_reads += 1;
            Ok(v)
        } else if let Some(&v) = self.fram.get(addr.wrapping_sub(FRAM_BASE) as usize) {
            self.counts.fram_reads += 1;
            Ok(v)
        } else {
            Err(MemoryFault::Unmapped(addr))
        }
    }

    /// Writes a word, counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault::Unmapped`] for addresses outside both regions.
    pub fn write(&mut self, addr: u16, value: u16) -> Result<(), MemoryFault> {
        if let Some(w) = self.sram.get_mut(addr as usize) {
            self.counts.sram_writes += 1;
            *w = value;
        } else if let Some(w) = self.fram.get_mut(addr.wrapping_sub(FRAM_BASE) as usize) {
            self.counts.fram_writes += 1;
            *w = value;
        } else {
            return Err(MemoryFault::Unmapped(addr));
        }
        if let Some(log) = &mut self.log {
            if log.writes.len() < WRITE_LOG_CAP {
                log.writes.push((addr, value));
            } else {
                log.overflowed = true;
            }
        }
        Ok(())
    }

    /// Opens a write log that appends to `writes`.
    pub(crate) fn open_log(&mut self, writes: Vec<(u16, u16)>) {
        self.log = Some(WriteLog {
            writes,
            overflowed: false,
        });
    }

    /// Closes the write log and hands it back.
    pub(crate) fn close_log(&mut self) -> WriteLog {
        self.log.take().unwrap_or_default()
    }

    /// Makes logged writes again, counting each as `write` does.
    pub(crate) fn replay_writes(&mut self, writes: &[(u16, u16)]) {
        for &(addr, value) in writes {
            match self.sram.get_mut(addr as usize) {
                Some(w) => {
                    self.counts.sram_writes += 1;
                    *w = value;
                }
                None => {
                    self.counts.fram_writes += 1;
                    self.fram[(addr - FRAM_BASE) as usize] = value;
                }
            }
        }
    }

    /// Every SRAM word and every FRAM word.
    pub(crate) fn words(&self) -> (&[u16], &[u16]) {
        (&self.sram, &self.fram)
    }

    /// Reads without counting (snapshot engine internals, test inspection).
    pub fn peek(&self, addr: u16) -> Result<u16, MemoryFault> {
        match Self::region_of(addr)? {
            Region::Sram => Ok(self.sram[addr as usize]),
            Region::Fram => Ok(self.fram[(addr - FRAM_BASE) as usize]),
        }
    }

    /// Writes without counting (program loading, test setup).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryFault::Unmapped`] for unmapped addresses.
    pub fn poke(&mut self, addr: u16, value: u16) -> Result<(), MemoryFault> {
        match Self::region_of(addr)? {
            Region::Sram => {
                self.sram[addr as usize] = value;
                Ok(())
            }
            Region::Fram => {
                self.fram[(addr - FRAM_BASE) as usize] = value;
                Ok(())
            }
        }
    }

    /// Copies the whole SRAM into FRAM at word offset `fram_offset`
    /// (snapshot save; the caller accounts the accesses).
    pub(crate) fn save_sram(&mut self, fram_offset: u16) {
        let start = fram_offset as usize;
        self.fram[start..start + SRAM_WORDS as usize].copy_from_slice(&self.sram);
    }

    /// Overwrites the whole SRAM from FRAM at word offset `fram_offset`
    /// (snapshot restore; the caller accounts the accesses).
    pub(crate) fn restore_sram(&mut self, fram_offset: u16) {
        let start = fram_offset as usize;
        self.sram
            .copy_from_slice(&self.fram[start..start + SRAM_WORDS as usize]);
    }

    /// Direct FRAM slice access for the snapshot frame.
    pub(crate) fn fram_slice_mut(&mut self, offset: u16, len: u16) -> &mut [u16] {
        let start = offset as usize;
        &mut self.fram[start..start + len as usize]
    }

    /// Direct FRAM slice access for the snapshot frame (read side).
    pub(crate) fn fram_slice(&self, offset: u16, len: u16) -> &[u16] {
        let start = offset as usize;
        &self.fram[start..start + len as usize]
    }

    /// Fills SRAM with a corruption pattern — what power loss does to
    /// volatile memory.
    pub fn corrupt_volatile(&mut self) {
        for (i, w) in self.sram.iter_mut().enumerate() {
            // Deterministic garbage: recognisably not program data.
            *w = 0xDEAD ^ (i as u16);
        }
    }

    /// Access counters so far.
    pub fn counts(&self) -> AccessCounts {
        self.counts
    }

    /// Adds snapshot-engine accesses to the counters (the engine moves
    /// blocks outside `read`/`write` for speed, then accounts here).
    pub(crate) fn add_counts(
        &mut self,
        sram_reads: u64,
        sram_writes: u64,
        fram_reads: u64,
        fram_writes: u64,
    ) {
        self.counts.sram_reads += sram_reads;
        self.counts.sram_writes += sram_writes;
        self.counts.fram_reads += fram_reads;
        self.counts.fram_writes += fram_writes;
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn regions_map_correctly() {
        assert_eq!(Memory::region_of(0x0000), Ok(Region::Sram));
        assert_eq!(Memory::region_of(SRAM_WORDS - 1), Ok(Region::Sram));
        assert_eq!(
            Memory::region_of(SRAM_WORDS),
            Err(MemoryFault::Unmapped(SRAM_WORDS))
        );
        assert_eq!(Memory::region_of(FRAM_BASE), Ok(Region::Fram));
        assert_eq!(
            Memory::region_of(FRAM_BASE + FRAM_WORDS),
            Err(MemoryFault::Unmapped(FRAM_BASE + FRAM_WORDS))
        );
    }

    #[test]
    fn read_write_round_trip_both_regions() {
        let mut m = Memory::new();
        m.write(0x0010, 0xBEEF).unwrap();
        assert_eq!(m.read(0x0010).unwrap(), 0xBEEF);
        m.write(FRAM_BASE + 5, 0xCAFE).unwrap();
        assert_eq!(m.read(FRAM_BASE + 5).unwrap(), 0xCAFE);
        let c = m.counts();
        assert_eq!(c.sram_reads, 1);
        assert_eq!(c.sram_writes, 1);
        assert_eq!(c.fram_reads, 1);
        assert_eq!(c.fram_writes, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        assert!(m.read(0x0800).is_err());
        assert!(m.write(0x6000, 0).is_err());
        let msg = m.read(0x0800).unwrap_err().to_string();
        assert!(msg.contains("unmapped"));
    }

    #[test]
    fn corrupt_volatile_preserves_fram() {
        let mut m = Memory::new();
        m.write(0x0000, 0x1234).unwrap();
        m.write(FRAM_BASE, 0x5678).unwrap();
        m.corrupt_volatile();
        assert_ne!(m.peek(0x0000).unwrap(), 0x1234);
        assert_eq!(m.peek(FRAM_BASE).unwrap(), 0x5678);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut m = Memory::new();
        m.poke(0x0001, 7).unwrap();
        let _ = m.peek(0x0001).unwrap();
        assert_eq!(m.counts(), AccessCounts::default());
    }

    #[test]
    fn snapshot_area_fits_inside_fram() {
        const { assert!(SNAPSHOT_BASE >= FRAM_BASE) }
        assert_eq!(SNAPSHOT_BASE + SNAPSHOT_AREA_WORDS, FRAM_BASE + FRAM_WORDS);
        assert!(SNAPSHOT_FRAME_WORDS as usize >= SRAM_WORDS as usize + 20);
        assert_eq!(SNAPSHOT_AREA_WORDS, 2 * SNAPSHOT_FRAME_WORDS);
    }

    #[test]
    fn fram_write_energy_scales() {
        let mut m = Memory::new();
        for i in 0..10 {
            m.write(FRAM_BASE + i, i).unwrap();
        }
        let e = m.counts().fram_write_energy(Joules::from_nano(2.0));
        assert!((e.0 - 20e-9).abs() < 1e-18);
    }

    proptest! {
        #[test]
        fn prop_round_trip_any_mapped_address(
            addr in 0u16..SRAM_WORDS,
            fram_off in 0u16..FRAM_WORDS,
            v in proptest::num::u16::ANY,
        ) {
            let mut m = Memory::new();
            m.write(addr, v).unwrap();
            prop_assert_eq!(m.read(addr).unwrap(), v);
            m.write(FRAM_BASE + fram_off, v).unwrap();
            prop_assert_eq!(m.read(FRAM_BASE + fram_off).unwrap(), v);
        }
    }
}
