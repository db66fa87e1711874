//! # redep-desi
//!
//! **DeSi**, "a visual deployment exploration environment that supports
//! specification, manipulation, and visualization of deployment
//! architectures for large-scale, highly distributed systems" — reproduced
//! headlessly, with the same Model / View / Controller architecture as the
//! paper's Figure 4:
//!
//! * **Model** — [`SystemData`] (the system itself), [`GraphViewData`]
//!   (visualization geometry), [`AlgoResultData`] (algorithm outcomes);
//! * **View** — [`TableView`] renders the Figure 9 tabular editor as text;
//!   [`GraphView`] renders the Figure 10 deployment graph as ASCII and SVG;
//!   [`TelemetryView`] renders the run journal, metrics, and algorithm
//!   convergence traces as a text dashboard;
//! * **Controller** — the generator/modifier (re-exported from
//!   `redep-model`), the [`AlgorithmContainer`] (pluggable algorithms, the
//!   analyzer's register-or-replace API), and the [`MiddlewareAdapter`] that connects
//!   DeSi to a running Prism-MW system (its `Monitor` pulls monitoring data
//!   into the model; its `Effector` pushes improved deployments back).
//!
//! # Example
//!
//! ```
//! use redep_desi::{DeSi, TableView};
//! use redep_model::{Availability, GeneratorConfig};
//! use redep_algorithms::AvalaAlgorithm;
//!
//! let mut desi = DeSi::generate(&GeneratorConfig::sized(3, 8))?;
//! desi.container_mut().register(AvalaAlgorithm::new());
//! let result = desi.run_algorithm("avala", &Availability)?;
//! assert!(result.result.value > 0.0);
//! let table = TableView::new().render(desi.system(), desi.results());
//! assert!(table.contains("avala"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod container;
pub mod desi;
pub mod error;
pub mod graph_view_data;
pub mod results;
pub mod system_data;
pub mod views;

pub use adapter::MiddlewareAdapter;
pub use container::AlgorithmContainer;
pub use desi::DeSi;
pub use error::DesiError;
pub use graph_view_data::{GraphViewData, NodeStyle};
pub use results::{AlgoResultData, RecordedResult};
pub use system_data::SystemData;
pub use views::{GraphView, TableView, TelemetryView};
