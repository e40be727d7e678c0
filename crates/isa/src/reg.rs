//! Registers and the per-work-group register file.
//!
//! Inter-WG synchronization in HeteroSync is performed by each WG's master
//! thread, so the interpreter keeps one architectural register file per WG
//! context. Thirty-two 64-bit registers comfortably cover every benchmark.

use std::fmt;

/// Number of architectural registers per WG context.
pub const NUM_REGS: usize = 32;

/// An architectural register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Register 0 (no special semantics — just a conventional scratch reg).
    pub const R0: Reg = Reg(0);
    /// Register 1.
    pub const R1: Reg = Reg(1);
    /// Register 2.
    pub const R2: Reg = Reg(2);
    /// Register 3.
    pub const R3: Reg = Reg(3);
    /// Register 4.
    pub const R4: Reg = Reg(4);
    /// Register 5.
    pub const R5: Reg = Reg(5);
    /// Register 6.
    pub const R6: Reg = Reg(6);
    /// Register 7.
    pub const R7: Reg = Reg(7);
    /// Register 8.
    pub const R8: Reg = Reg(8);
    /// Register 9.
    pub const R9: Reg = Reg(9);
    /// Register 10.
    pub const R10: Reg = Reg(10);
    /// Register 11.
    pub const R11: Reg = Reg(11);
    /// Register 12.
    pub const R12: Reg = Reg(12);
    /// Register 13.
    pub const R13: Reg = Reg(13);
    /// Register 14.
    pub const R14: Reg = Reg(14);
    /// Register 15.
    pub const R15: Reg = Reg(15);
    /// Register 16.
    pub const R16: Reg = Reg(16);
    /// Register 17.
    pub const R17: Reg = Reg(17);
    /// Register 18.
    pub const R18: Reg = Reg(18);
    /// Register 19.
    pub const R19: Reg = Reg(19);
    /// Register 20.
    pub const R20: Reg = Reg(20);
    /// Register 21.
    pub const R21: Reg = Reg(21);
    /// Register 22.
    pub const R22: Reg = Reg(22);
    /// Register 23.
    pub const R23: Reg = Reg(23);

    /// Creates register `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS`.
    pub fn new(index: u8) -> Self {
        assert!((index as usize) < NUM_REGS, "register index out of range");
        Reg(index)
    }

    /// The register's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A per-WG register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [i64; NUM_REGS],
}

impl RegFile {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        RegFile {
            regs: [0; NUM_REGS],
        }
    }

    /// Reads register `r`.
    #[inline]
    pub fn get(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Writes register `r`.
    #[inline]
    pub fn set(&mut self, r: Reg, value: i64) {
        self.regs[r.index()] = value;
    }
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut rf = RegFile::new();
        rf.set(Reg::R3, -42);
        assert_eq!(rf.get(Reg::R3), -42);
        assert_eq!(rf.get(Reg::R4), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::R7.to_string(), "r7");
        assert_eq!(Reg::new(31).to_string(), "r31");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        Reg::new(32);
    }
}
