//! ε-stability detection — the platform-independent half of the Monitor.
//!
//! Per the paper: "monitoring is performed in short intervals of adjustable
//! duration. Once the monitored data is stable (i.e., the difference in the
//! data across a desired number of consecutive intervals is less than an
//! adjustable value ε), the AdminComponent sends the description of its local
//! deployment architecture and the monitored data … to the
//! DeployerComponent."

use std::collections::VecDeque;
use std::fmt;

/// Detects when a stream of windowed readings has settled.
///
/// Feed one reading per monitoring interval; the gauge reports stability once
/// the last `required` consecutive *differences* are all below `epsilon`.
///
/// # Example
///
/// ```
/// use redep_prism::StabilityGauge;
/// let mut g = StabilityGauge::new(0.05, 3);
/// for v in [0.9, 0.5, 0.52, 0.53, 0.51] {
///     g.push(v);
/// }
/// assert!(g.is_stable());
/// g.push(0.9); // a jump resets stability
/// assert!(!g.is_stable());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct StabilityGauge {
    epsilon: f64,
    required: usize,
    relative: bool,
    history: VecDeque<f64>,
}

impl StabilityGauge {
    /// Creates a gauge requiring `required` consecutive inter-interval
    /// differences below `epsilon` (absolute).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or `required` is zero.
    pub fn new(epsilon: f64, required: usize) -> Self {
        assert!(
            epsilon >= 0.0,
            "epsilon must be non-negative, got {epsilon}"
        );
        assert!(required > 0, "at least one stable interval is required");
        StabilityGauge {
            epsilon,
            required,
            relative: false,
            history: VecDeque::new(),
        }
    }

    /// Creates a gauge judging *relative* differences: consecutive readings
    /// `a, b` are stable when `|a − b| < epsilon · max(|a|, |b|, 1)`.
    /// Use this for quantities without a natural scale (e.g. total event
    /// rates), where an absolute ε would never tolerate sampling noise.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or `required` is zero.
    pub fn new_relative(epsilon: f64, required: usize) -> Self {
        let mut g = StabilityGauge::new(epsilon, required);
        g.relative = true;
        g
    }

    /// Records the reading of one monitoring interval.
    pub fn push(&mut self, value: f64) {
        self.history.push_back(value);
        // Keep only what stability judgment needs: required diffs need
        // required + 1 values.
        while self.history.len() > self.required + 1 {
            self.history.pop_front();
        }
    }

    /// Whether the readings have settled: the last `required` consecutive
    /// differences are all `< epsilon`. Requires `required + 1` readings.
    pub fn is_stable(&self) -> bool {
        if self.history.len() < self.required + 1 {
            return false;
        }
        self.history
            .iter()
            .zip(self.history.iter().skip(1))
            .all(|(a, b)| {
                let scale = if self.relative {
                    a.abs().max(b.abs()).max(1.0)
                } else {
                    1.0
                };
                (a - b).abs() < self.epsilon * scale
            })
    }
}

impl fmt::Display for StabilityGauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stability(ε={}, k={}, {})",
            self.epsilon,
            self.required,
            if self.is_stable() {
                "stable"
            } else {
                "settling"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_stable_before_enough_readings() {
        let mut g = StabilityGauge::new(0.1, 2);
        g.push(1.0);
        assert!(!g.is_stable());
        g.push(1.0);
        assert!(!g.is_stable()); // only 1 difference so far, need 2
        g.push(1.0);
        assert!(g.is_stable());
    }

    #[test]
    fn large_jump_defeats_stability() {
        let mut g = StabilityGauge::new(0.1, 2);
        for v in [1.0, 1.05, 0.5] {
            g.push(v);
        }
        assert!(!g.is_stable());
    }

    #[test]
    fn stability_recovers_after_settling_again() {
        let mut g = StabilityGauge::new(0.1, 2);
        for v in [1.0, 0.2, 0.22, 0.21] {
            g.push(v);
        }
        assert!(g.is_stable());
    }

    #[test]
    fn display_names_the_gauge_state() {
        let mut g = StabilityGauge::new(0.1, 1);
        g.push(1.0);
        assert_eq!(g.to_string(), "stability(ε=0.1, k=1, settling)");
        g.push(1.0);
        assert_eq!(g.to_string(), "stability(ε=0.1, k=1, stable)");
    }

    #[test]
    fn tighter_epsilon_is_harder_to_satisfy() {
        let readings = [0.50, 0.52, 0.54, 0.52];
        let mut loose = StabilityGauge::new(0.05, 3);
        let mut tight = StabilityGauge::new(0.01, 3);
        for v in readings {
            loose.push(v);
            tight.push(v);
        }
        assert!(loose.is_stable());
        assert!(!tight.is_stable());
    }

    #[test]
    fn len_counts_readings_up_to_the_window() {
        let mut g = StabilityGauge::new(0.1, 2);
        assert!(g.history.is_empty());
        for (i, v) in [3.5, 3.5, 3.5, 3.5].into_iter().enumerate() {
            g.push(v);
            assert_eq!(g.history.len(), (i + 1).min(3));
        }
    }

    #[test]
    #[should_panic(expected = "at least one stable interval")]
    fn zero_required_panics() {
        let _ = StabilityGauge::new(0.1, 0);
    }
}
