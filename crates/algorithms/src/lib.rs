//! # redep-algorithms
//!
//! The **Algorithm** component of the deployment-improvement framework:
//! pluggable redeployment algorithms that search for a deployment
//! architecture satisfying an objective.
//!
//! The crate follows the paper's algorithm-development methodology exactly:
//! an algorithm is an *algorithm body* (greedy, stochastic, exhaustive,
//! genetic, …) composed with the three variation points —
//!
//! 1. the **objective function** ([`redep_model::Objective`]),
//! 2. the **constraint checker** ([`redep_model::ConstraintChecker`]),
//! 3. the **coordination protocol** for decentralized algorithms
//!    ([`CoordinationProtocol`]).
//!
//! ## Bodies
//!
//! | Algorithm | Paper | Complexity | Kind |
//! |---|---|---|---|
//! | [`ExactAlgorithm`] | §5.1 "Exact" | O(kⁿ) | exact, centralized |
//! | [`StochasticAlgorithm`] | §5.1 "Stochastic" | O(n²) per iteration | approximative, centralized |
//! | [`AvalaAlgorithm`] | §5.1 "Avala" | O(n³) | approximative (greedy), centralized |
//! | [`DecApAlgorithm`] | §5.2 "DecAp" | O(k·n³) | approximative (auction), decentralized |
//! | [`GeneticAlgorithm`] | mentioned §4.3 (Fig 7) | O(g·p·n) | approximative, centralized (extension) |
//! | [`AnnealingAlgorithm`] | — | O(i·n) | approximative, centralized (extension/ablation) |
//!
//! # Example
//!
//! ```
//! use redep_algorithms::{AvalaAlgorithm, RedeploymentAlgorithm};
//! use redep_model::{Availability, Generator, GeneratorConfig, Objective};
//!
//! let system = Generator::generate(&GeneratorConfig::sized(4, 12))?;
//! let result = AvalaAlgorithm::new().run(
//!     &system.model,
//!     &Availability,
//!     system.model.constraints(),
//!     Some(&system.initial),
//! )?;
//! let before = Availability.evaluate(&system.model, &system.initial);
//! assert!(result.value >= before - 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod annealing;
pub mod avala;
mod compiled;
pub mod coordination;
pub mod decap;
pub mod exact;
pub mod genetic;
pub mod hierarchy;
mod parallel;
pub mod stochastic;
pub mod traits;

pub use annealing::AnnealingAlgorithm;
pub use avala::AvalaAlgorithm;
pub use coordination::{CoordinationProtocol, VotingProtocol};
pub use decap::{DecApAlgorithm, MonitoringExchange};
pub use exact::ExactAlgorithm;
pub use genetic::GeneticAlgorithm;
pub use hierarchy::HierarchicalConfig;
pub use stochastic::StochasticAlgorithm;
pub use traits::{AlgoError, AlgoResult, RedeploymentAlgorithm};
