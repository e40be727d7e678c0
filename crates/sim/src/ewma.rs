//! Exponentially-weighted moving average.
//!
//! AWG "predicts the stall period by recording the mean number of cycles at
//! which conditions are met" (§IV.B). The hardware-friendly formulation is an
//! EWMA with a power-of-two weight, which is what this module provides.

/// An exponentially-weighted moving average over `u64` samples.
///
/// The smoothing weight is `1/2^shift`: each new sample contributes
/// `sample / 2^shift` and the history decays accordingly. `shift = 2` (α =
/// 0.25) matches a cheap shift-and-add hardware implementation.
///
/// ```
/// let mut ewma = awg_sim::Ewma::new(2);
/// assert_eq!(ewma.value(), None); // no samples yet
/// ewma.record(100);
/// assert_eq!(ewma.value(), Some(100)); // first sample initializes
/// ewma.record(200);
/// assert_eq!(ewma.value(), Some(125)); // 100 + (200-100)/4
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ewma {
    shift: u32,
    value: Option<u64>,
    samples: u64,
}

impl Ewma {
    /// Creates an EWMA with weight `1/2^shift`.
    ///
    /// # Panics
    ///
    /// Panics if `shift > 32` (a weight that small would never move).
    pub fn new(shift: u32) -> Self {
        assert!(shift <= 32, "shift too large");
        Ewma {
            shift,
            value: None,
            samples: 0,
        }
    }

    /// Records a sample. The first sample initializes the average.
    pub fn record(&mut self, sample: u64) {
        self.samples += 1;
        self.value = Some(match self.value {
            None => sample,
            Some(v) => {
                if sample >= v {
                    v + ((sample - v) >> self.shift)
                } else {
                    v - ((v - sample) >> self.shift)
                }
            }
        });
    }

    /// The current average, or `None` before any sample.
    pub fn value(&self) -> Option<u64> {
        self.value
    }

    /// The current average, or `default` before any sample.
    pub fn value_or(&self, default: u64) -> u64 {
        self.value.unwrap_or(default)
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Clears all history.
    pub fn reset(&mut self) {
        self.value = None;
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(3);
        assert_eq!(e.value(), None);
        e.record(42);
        assert_eq!(e.value(), Some(42));
        assert_eq!(e.samples(), 1);
    }

    #[test]
    fn converges_toward_constant_input() {
        let mut e = Ewma::new(2);
        e.record(0);
        for _ in 0..100 {
            e.record(1000);
        }
        let v = e.value().unwrap();
        assert!(v > 990, "converged to {v}");
    }

    #[test]
    fn decreasing_samples_pull_average_down() {
        let mut e = Ewma::new(1);
        e.record(1000);
        e.record(0);
        assert_eq!(e.value(), Some(500));
    }

    #[test]
    fn value_or_default() {
        let e = Ewma::new(2);
        assert_eq!(e.value_or(77), 77);
    }

    #[test]
    fn reset_clears_history() {
        let mut e = Ewma::new(2);
        e.record(5);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.samples(), 0);
    }

    #[test]
    #[should_panic(expected = "shift too large")]
    fn rejects_huge_shift() {
        Ewma::new(40);
    }
}
