//! # redep-core
//!
//! The **deployment improvement framework** of Malek, Beckman, Mikic-Rakic &
//! Medvidovic (DSN 2004): a structure of six cooperating components —
//! Model, Algorithm, Analyzer, Monitor, Effector, and User Input — that
//! continuously improves a distributed system's deployment architecture via
//!
//! 1. **active system monitoring**,
//! 2. **estimation of the improved deployment architecture**, and
//! 3. **redeployment** of (parts of) the system.
//!
//! The framework components map onto the workspace crates as follows
//! (Figure 1 → code):
//!
//! | Framework component | Realized by |
//! |---|---|
//! | Model      | [`redep_desi::SystemData`] over [`redep_model::DeploymentModel`] |
//! | Algorithm  | [`redep_algorithms`] (pluggable, via [`redep_desi::AlgorithmContainer`]) |
//! | Analyzer   | [`CentralizedAnalyzer`] / the voting analyzer in [`decentralized`] |
//! | Monitor    | [`redep_prism::monitor`] (platform-dependent) + [`redep_prism::StabilityGauge`] (platform-independent), pulled by [`redep_desi::MiddlewareAdapter`] |
//! | Effector   | [`redep_prism::admin`] (platform-dependent) driven by [`redep_desi::MiddlewareAdapter`] (platform-independent) |
//! | User Input | [`redep_model::adl`] documents and programmatic constraints |
//!
//! Two complete instantiations are provided, mirroring Figures 2 and 3:
//!
//! * [`CentralizedFramework`] — a Master Host with global knowledge
//!   (centralized model, master monitor/effector, centralized analyzer
//!   implementing the paper's §5.1 algorithm-selection policy and latency
//!   guard);
//! * [`DecentralizedFramework`] — per-host partial models bounded by an
//!   [`redep_model::AwarenessGraph`], the DecAp auction algorithm, a voting
//!   analyzer, and pairwise effecting between local effectors.
//!
//! [`scenario`] builds the paper's §1 motivating application (headquarters,
//! commander PDAs, troop PDAs) for the examples and experiments.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyzer;
pub mod centralized;
pub mod decentralized;
pub mod error;
pub mod recovery;
pub mod runtime;
pub mod scenario;

pub use analyzer::{AnalyzerConfig, AnalyzerDecision, CentralizedAnalyzer};
pub use centralized::{CentralizedFramework, CycleReport};
pub use decentralized::{DecentralizedCycleReport, DecentralizedFramework};
pub use error::CoreError;
pub use recovery::RecoveryPolicy;
pub use runtime::{Runtime, RuntimeConfig, ShardedRuntime, SystemRuntime};
pub use scenario::{Scenario, ScenarioConfig};
