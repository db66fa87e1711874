//! # redep-prism
//!
//! A Rust reproduction of **Prism-MW**, the "extensible middleware platform
//! that enables efficient implementation, deployment, and execution of
//! distributed software systems in terms of their architectural elements:
//! components, connectors, configurations, and events" (Mikic-Rakic &
//! Medvidovic, Middleware 2003), as used by the DSN'04 framework paper.
//!
//! The class structure of the paper's Figure 5 maps onto this crate as:
//!
//! | Prism-MW (Java)            | redep-prism (Rust)                          |
//! |----------------------------|----------------------------------------------|
//! | `Brick`                    | [`BrickId`] + the architecture's slot tables |
//! | `Component`                | [`ComponentBehavior`] implementations        |
//! | `Connector`                | [`Connector`]                                |
//! | `Architecture`             | [`Architecture`]                             |
//! | `Event`                    | [`Event`]                                    |
//! | `DistributionConnector`    | [`PrismHost`]'s reliable/raw transport       |
//! | `IScaffold` thread pool    | [`Architecture::pump`] (inline, deterministic) |
//! | `IMonitor` implementations | [`EventFrequencyMonitor`], [`ReliabilityProbe`] |
//! | `AdminComponent`           | [`AdminComponent`]                           |
//! | `DeployerComponent`        | [`DeployerComponent`]                        |
//! | `Serializable` components  | [`ComponentFactory`] + state bytes           |
//!
//! Architectures run on simulated hosts ([`PrismHost`] implements
//! [`redep_netsim::Node`]), so whole distributed Prism systems execute
//! deterministically inside [`redep_netsim::Simulator`].
//!
//! The two halves of the paper's Monitor and Effector components live here:
//! the *platform-dependent* parts hook into connectors and the host transport
//! ([`monitor`]), and the *platform-independent* parts (ε-stability detection,
//! migration coordination with buffering) sit above them ([`stability`],
//! [`admin`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod architecture;
pub mod brick;
pub mod codec;
pub mod connector;
pub mod durable;
pub mod error;
pub mod event;
pub mod host;
pub mod monitor;
pub mod stability;
pub mod symbol;
pub mod timers;
pub mod transport;
pub mod workload;

pub use admin::{AdminComponent, DeployerComponent, DeploymentCommand, RedeploymentStatus};
pub use architecture::Architecture;
pub use brick::{BrickId, ComponentBehavior, ComponentCtx, ComponentFactory};
pub use connector::Connector;
pub use durable::{
    Checkpoint, DurableStore, JournalRecord, OpKind, OpVerdict, RecordRef, RecoveredState,
    RecoveryReport, RECORD_KINDS,
};
pub use error::PrismError;
pub use event::{Event, EventKind};
pub use host::{HostServices, PrismHost};
pub use monitor::{EventFrequencyMonitor, MonitoringSnapshot, ReliabilityProbe};
pub use redep_telemetry::{SpanIdGen, TraceCtx};
pub use stability::StabilityGauge;
pub use symbol::Symbol;
pub use transport::ReliableChannel;
pub use workload::WorkloadComponent;
