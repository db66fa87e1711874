//! # redep-model
//!
//! The extensible deployment-architecture **Model** at the heart of the
//! deployment-improvement framework of Malek et al. (DSN 2004).
//!
//! A *deployment architecture* is a distribution of a software system's
//! components onto its hardware hosts. The model is composed of four kinds of
//! parts, exactly as in the paper:
//!
//! * [`Host`] — a hardware host (PDA, laptop, server, …),
//! * [`Component`] — a software component,
//! * [`PhysicalLink`] — a network link between two hosts,
//! * [`LogicalLink`] — an interaction path between two components,
//!
//! each carrying an *arbitrary*, extensible set of parameters (a
//! [`ParamTable`]): memory, CPU, reliability, bandwidth, delay, interaction
//! frequency, event size, security, … New parameters can be attached at any
//! time without changing any code, which is the paper's first extensibility
//! dimension.
//!
//! On top of the structural model the crate provides:
//!
//! * [`Deployment`] — a mapping of components to hosts, with diffing,
//! * [`ConstraintSet`] — location, collocation, memory and bandwidth
//!   constraints restricting the space of valid deployments,
//! * [`Objective`] implementations — [`Availability`], [`Latency`],
//!   [`CommunicationVolume`], [`LinkSecurity`] and weighted [`Composite`]
//!   objectives,
//! * [`Generator`] / [`Modifier`] — the backends of DeSi's controller
//!   subsystem for fabricating and tuning hypothetical architectures,
//! * [`AwarenessGraph`] — per-host partial views for decentralized systems,
//! * [`adl`] — an xADL-style architecture-description document (JSON) for
//!   design-time user input.
//!
//! # Example
//!
//! ```
//! use redep_model::{DeploymentModel, Deployment, Availability, Objective};
//!
//! let mut model = DeploymentModel::new();
//! let hq = model.add_host("headquarters")?;
//! let pda = model.add_host("commander-pda")?;
//! model.set_physical_link(hq, pda, |l| {
//!     l.set_reliability(0.8);
//!     l.set_bandwidth(1_000.0);
//! })?;
//!
//! let gui = model.add_component("status-display")?;
//! let tracker = model.add_component("troop-tracker")?;
//! model.set_logical_link(gui, tracker, |l| l.set_frequency(40.0))?;
//!
//! let mut d = Deployment::new();
//! d.assign(gui, hq);
//! d.assign(tracker, pda);
//!
//! // 40 remote interactions over a 0.8-reliable link => availability 0.8.
//! let availability = Availability.evaluate(&model, &d);
//! assert!((availability - 0.8).abs() < 1e-9);
//! # Ok::<(), redep_model::ModelError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adl;
pub mod awareness;
pub mod constraints;
pub mod deployment;
pub mod error;
pub mod eval;
pub mod generator;
pub mod hierarchy;
pub mod ids;
pub mod links;
pub mod model;
pub mod modifier;
pub mod objectives;
pub mod params;
pub mod parts;

pub use adl::AdlDocument;
pub use awareness::AwarenessGraph;
pub use constraints::{
    Constraint, ConstraintChecker, ConstraintSet, ConstraintViolation, MemoryConstraint,
};
pub use deployment::{Deployment, Migration};
pub use error::ModelError;
pub use eval::{
    CompiledConstraints, CompiledLink, CompiledModel, CompiledObjective, GroupKind,
    IncrementalScore, PartKind, Uncompiled, UNASSIGNED,
};
pub use generator::{GeneratedSystem, Generator, GeneratorConfig, Range};
pub use hierarchy::{delay_units, Hierarchy, HierarchyConfig};
pub use ids::{ComponentId, HostId};
pub use links::{ComponentPair, HostPair, LogicalLink, PhysicalLink};
pub use model::{DeploymentModel, PathQuality};
pub use modifier::{ModelEdit, Modifier};
pub use objectives::{
    Availability, CommunicationVolume, Composite, Direction, Latency, LinkSecurity, Objective,
    PathAwareAvailability,
};
pub use params::{keys, ParamKey, ParamTable, ParamValue};
pub use parts::{Component, Host};
