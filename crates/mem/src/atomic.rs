//! Atomic-operation semantics, including *waiting atomics*.
//!
//! The paper's key ISA extension (§IV.D): every atomic may carry an extra
//! operand with the **expected value** of the synchronization variable. The
//! atomic executes normally at the L2; afterwards the observed value is
//! compared against the expectation, and on mismatch the issuing WG enters a
//! waiting state registered *atomically* with the comparison — closing the
//! window of vulnerability that separate `wait` instructions have (Fig 10).

use crate::addr::Addr;
use crate::backing::Backing;

/// The atomic operations the kernel ISA can issue to the L2.
///
/// `Load` is an atomic load (HeteroSync's `atomicLoad`); combined with an
/// expected value it becomes the paper's proposed **compare-and-wait**
/// instruction. `Cas` already has an expected operand, which the paper calls
/// "a perfect candidate for a waiting atomic".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicOp {
    /// Atomic load (with `expected`: compare-and-wait).
    Load,
    /// Atomic store (unconditional exchange ignoring the old value).
    Store,
    /// Atomic exchange, returns the old value.
    Exch,
    /// Fetch-and-add.
    Add,
    /// Fetch-and-sub.
    Sub,
    /// Fetch-and-AND.
    And,
    /// Fetch-and-OR.
    Or,
    /// Fetch-and-XOR.
    Xor,
    /// Fetch-and-max.
    Max,
    /// Fetch-and-min.
    Min,
    /// Compare-and-swap: swaps in `operand` only when the old value equals
    /// `expected`.
    Cas,
}

impl AtomicOp {
    /// Whether the operation can modify memory.
    pub fn writes(self) -> bool {
        !matches!(self, AtomicOp::Load)
    }

    /// Short mnemonic used by the disassembler and traces.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AtomicOp::Load => "atom_ld",
            AtomicOp::Store => "atom_st",
            AtomicOp::Exch => "atom_exch",
            AtomicOp::Add => "atom_add",
            AtomicOp::Sub => "atom_sub",
            AtomicOp::And => "atom_and",
            AtomicOp::Or => "atom_or",
            AtomicOp::Xor => "atom_xor",
            AtomicOp::Max => "atom_max",
            AtomicOp::Min => "atom_min",
            AtomicOp::Cas => "atom_cas",
        }
    }
}

impl std::fmt::Display for AtomicOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A fully-resolved atomic request as it arrives at an L2 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicRequest {
    /// The operation.
    pub op: AtomicOp,
    /// Target address (word-aligned by the backing store).
    pub addr: Addr,
    /// Data operand (addend, swap value, …). Ignored by `Load`.
    pub operand: i64,
    /// Expected value: when present this is a *waiting atomic* and the
    /// result's `satisfied` flag reports the comparison outcome.
    pub expected: Option<i64>,
}

/// Outcome of executing an atomic at the L2 ALU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicResult {
    /// Value observed at the address before the operation (returned to the
    /// wavefront, like hardware atomics do).
    pub old: i64,
    /// Value stored after the operation (equals `old` when nothing was
    /// written).
    pub new: i64,
    /// Whether memory was actually modified.
    pub wrote: bool,
    /// For waiting atomics: whether the observed value matched `expected`.
    /// `true` for plain atomics (nothing to wait on).
    pub satisfied: bool,
}

/// Executes `req` against `mem`, returning the architectural outcome.
///
/// This is the pure functional core of the L2 atomic ALU; timing (bank
/// occupancy, cache state) is layered on in [`crate::l2`].
///
/// # Example
///
/// ```
/// use awg_mem::{atomic::execute, AtomicOp, AtomicRequest, Backing};
///
/// let mut mem = Backing::new();
/// let r = execute(
///     &mut mem,
///     AtomicRequest { op: AtomicOp::Add, addr: 64, operand: 5, expected: None },
/// );
/// assert_eq!((r.old, r.new), (0, 5));
/// assert!(r.satisfied);
/// ```
pub fn execute(mem: &mut Backing, req: AtomicRequest) -> AtomicResult {
    // A write of the value already there is architecturally a write, but
    // leaves the store alone. Monitored-address notifications still fire
    // at the L2 layer.
    let old = mem.update(req.addr, |old| match apply(req, old) {
        (new, true) if new != old => Some(new),
        _ => None,
    });
    let (new, wrote) = apply(req, old);
    let satisfied = match req.expected {
        None => true,
        Some(e) => old == e,
    };
    AtomicResult {
        old,
        new: if wrote { new } else { old },
        wrote,
        satisfied,
    }
}

/// `(new value, whether the operation writes)` of `req` over `old`.
#[inline]
fn apply(req: AtomicRequest, old: i64) -> (i64, bool) {
    match req.op {
        AtomicOp::Load => (old, false),
        AtomicOp::Store | AtomicOp::Exch => (req.operand, true),
        AtomicOp::Add => (old.wrapping_add(req.operand), true),
        AtomicOp::Sub => (old.wrapping_sub(req.operand), true),
        AtomicOp::And => (old & req.operand, true),
        AtomicOp::Or => (old | req.operand, true),
        AtomicOp::Xor => (old ^ req.operand, true),
        AtomicOp::Max => (old.max(req.operand), true),
        AtomicOp::Min => (old.min(req.operand), true),
        AtomicOp::Cas => {
            let expected = req.expected.unwrap_or(0);
            if old == expected {
                (req.operand, true)
            } else {
                (old, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(op: AtomicOp, addr: Addr, operand: i64, expected: Option<i64>) -> AtomicRequest {
        AtomicRequest {
            op,
            addr,
            operand,
            expected,
        }
    }

    #[test]
    fn add_returns_old_value() {
        let mut mem = Backing::new();
        mem.store(64, 10);
        let r = execute(&mut mem, req(AtomicOp::Add, 64, 3, None));
        assert_eq!(r.old, 10);
        assert_eq!(r.new, 13);
        assert!(r.wrote);
        assert_eq!(mem.load(64), 13);
    }

    #[test]
    fn exch_swaps() {
        let mut mem = Backing::new();
        mem.store(64, 1);
        let r = execute(&mut mem, req(AtomicOp::Exch, 64, 7, None));
        assert_eq!(r.old, 1);
        assert_eq!(mem.load(64), 7);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut mem = Backing::new();
        mem.store(64, 5);
        let fail = execute(&mut mem, req(AtomicOp::Cas, 64, 9, Some(4)));
        assert!(!fail.wrote);
        assert!(!fail.satisfied);
        assert_eq!(mem.load(64), 5);

        let ok = execute(&mut mem, req(AtomicOp::Cas, 64, 9, Some(5)));
        assert!(ok.wrote);
        assert!(ok.satisfied);
        assert_eq!(mem.load(64), 9);
    }

    #[test]
    fn compare_and_wait_semantics() {
        let mut mem = Backing::new();
        mem.store(64, 0);
        // atomicCmpWait(myQueueLoc, 1): load + compare against expected 1.
        let miss = execute(&mut mem, req(AtomicOp::Load, 64, 0, Some(1)));
        assert!(!miss.satisfied);
        assert!(!miss.wrote);

        mem.store(64, 1);
        let hit = execute(&mut mem, req(AtomicOp::Load, 64, 0, Some(1)));
        assert!(hit.satisfied);
        assert_eq!(hit.old, 1);
    }

    #[test]
    fn min_max_behave() {
        let mut mem = Backing::new();
        mem.store(64, 10);
        let r = execute(&mut mem, req(AtomicOp::Max, 64, 4, None));
        assert_eq!(r.new, 10);
        let r = execute(&mut mem, req(AtomicOp::Min, 64, 4, None));
        assert_eq!(r.new, 4);
        assert_eq!(mem.load(64), 4);
    }

    #[test]
    fn bitwise_ops() {
        let mut mem = Backing::new();
        mem.store(64, 0b1100);
        assert_eq!(
            execute(&mut mem, req(AtomicOp::And, 64, 0b1010, None)).new,
            0b1000
        );
        assert_eq!(
            execute(&mut mem, req(AtomicOp::Or, 64, 0b0001, None)).new,
            0b1001
        );
        assert_eq!(
            execute(&mut mem, req(AtomicOp::Xor, 64, 0b1111, None)).new,
            0b0110
        );
    }

    #[test]
    fn wrapping_add_does_not_panic() {
        let mut mem = Backing::new();
        mem.store(64, i64::MAX);
        let r = execute(&mut mem, req(AtomicOp::Add, 64, 1, None));
        assert_eq!(r.new, i64::MIN);
    }

    #[test]
    fn plain_atomics_always_satisfied() {
        let mut mem = Backing::new();
        let r = execute(&mut mem, req(AtomicOp::Add, 64, 1, None));
        assert!(r.satisfied);
    }

    #[test]
    fn waiting_add_compares_old_value() {
        let mut mem = Backing::new();
        mem.store(64, 2);
        // Waiting fetch-add expecting to see 3: performs the add regardless
        // (Mesa semantics) but reports the unmet expectation.
        let r = execute(&mut mem, req(AtomicOp::Add, 64, 1, Some(3)));
        assert!(!r.satisfied);
        assert_eq!(mem.load(64), 3);
    }
}
