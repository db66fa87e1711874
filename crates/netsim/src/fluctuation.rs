//! Link-quality fluctuation models.
//!
//! The paper motivates redeployment with networks whose "bandwidth
//! fluctuations and the unreliability of network links affect the system's
//! properties". A [`FluctuationModel`] perturbs one link at a time: the
//! engine ticks every installed model periodically
//! ([`ShardedSimulator::add_fluctuation`], and the same on the one-shard
//! [`Simulator`]) and hands it, for each live link, a uniform draw that
//! hashes `(seed, model, tick, link slot)`. There is no RNG stream, so a
//! fluctuating run is the same under any shard layout.
//!
//! [`ShardedSimulator::add_fluctuation`]: crate::ShardedSimulator::add_fluctuation
//! [`Simulator`]: crate::Simulator

use crate::topology::LinkState;
use std::fmt;

/// A process that perturbs link qualities over time, one link per call.
pub trait FluctuationModel: fmt::Debug + Send + Sync + 'static {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Perturbs one link once. `draw` is uniform in `[0, 1)` and independent
    /// per link and tick. A model must not shorten `link.spec.delay`: the
    /// sharded engine's lookahead rests on it.
    fn perturb(&self, link: &mut LinkState, draw: f64);
}

/// Reliability random walk: each tick nudges every link's reliability by a
/// uniform step in `[-amplitude, +amplitude)`, clamped to `[floor, ceiling]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RandomWalkFluctuation {
    /// Maximum absolute per-step change.
    pub amplitude: f64,
    /// Lowest reliability the walk may reach.
    pub floor: f64,
    /// Highest reliability the walk may reach.
    pub ceiling: f64,
}

impl RandomWalkFluctuation {
    /// Creates a walk with the given amplitude over `[0.05, 1.0]`.
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative.
    pub fn new(amplitude: f64) -> Self {
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        RandomWalkFluctuation {
            amplitude,
            floor: 0.05,
            ceiling: 1.0,
        }
    }
}

impl FluctuationModel for RandomWalkFluctuation {
    fn name(&self) -> &str {
        "reliability random walk"
    }

    fn perturb(&self, link: &mut LinkState, draw: f64) {
        let step = self.amplitude * (2.0 * draw - 1.0);
        link.spec.reliability = (link.spec.reliability + step).clamp(self.floor, self.ceiling);
    }
}

/// Two-state Markov link churn: an up link goes down with probability
/// `p_down` per tick; a down link recovers with probability `p_up`.
///
/// This reproduces the intermittent disconnection the paper's
/// disconnected-operation work targets.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MarkovLinkChurn {
    /// Per-step probability that an up link fails.
    pub p_down: f64,
    /// Per-step probability that a down link recovers.
    pub p_up: f64,
}

impl MarkovLinkChurn {
    /// Creates a churn model.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_down: f64, p_up: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_down), "p_down must be in [0, 1]");
        assert!((0.0..=1.0).contains(&p_up), "p_up must be in [0, 1]");
        MarkovLinkChurn { p_down, p_up }
    }
}

impl FluctuationModel for MarkovLinkChurn {
    fn name(&self) -> &str {
        "markov link churn"
    }

    fn perturb(&self, link: &mut LinkState, draw: f64) {
        let flip = if link.up { self.p_down } else { self.p_up };
        if draw < flip {
            link.up = !link.up;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;

    fn link() -> LinkState {
        LinkState {
            spec: LinkSpec {
                reliability: 0.5,
                ..LinkSpec::default()
            },
            up: true,
        }
    }

    /// Draws spread over `[0, 1)` (golden-ratio steps).
    fn draws(n: usize) -> impl Iterator<Item = f64> {
        (0..n).map(|i| (i as f64 * 0.618_033_988_75).fract())
    }

    #[test]
    fn random_walk_stays_in_bounds() {
        let mut l = link();
        let walk = RandomWalkFluctuation::new(0.3);
        for draw in draws(200).chain([0.0, 0.999_999]) {
            walk.perturb(&mut l, draw);
            let r = l.spec.reliability;
            assert!((0.05..=1.0).contains(&r), "reliability escaped bounds: {r}");
        }
    }

    #[test]
    fn random_walk_actually_moves() {
        let mut l = link();
        RandomWalkFluctuation::new(0.2).perturb(&mut l, 0.9);
        assert!((l.spec.reliability - 0.66).abs() < 1e-12);
        RandomWalkFluctuation::new(0.2).perturb(&mut l, 0.25);
        assert!((l.spec.reliability - 0.56).abs() < 1e-12);
    }

    #[test]
    fn zero_amplitude_walk_is_identity() {
        let mut l = link();
        for draw in draws(10) {
            RandomWalkFluctuation::new(0.0).perturb(&mut l, draw);
        }
        assert_eq!(l.spec.reliability, 0.5);
    }

    #[test]
    fn churn_takes_links_down_and_up() {
        let mut l = link();
        MarkovLinkChurn::new(1.0, 0.0).perturb(&mut l, 0.999);
        assert!(!l.up);
        MarkovLinkChurn::new(1.0, 0.0).perturb(&mut l, 0.0);
        assert!(!l.up, "p_up = 0 never recovers");
        MarkovLinkChurn::new(0.0, 1.0).perturb(&mut l, 0.999);
        assert!(l.up);
        MarkovLinkChurn::new(0.0, 1.0).perturb(&mut l, 0.0);
        assert!(l.up, "p_down = 0 never fails");
    }

    #[test]
    #[should_panic(expected = "p_down must be in [0, 1]")]
    fn invalid_probability_panics() {
        let _ = MarkovLinkChurn::new(1.5, 0.0);
    }
}
