//! The framework's error type.

use std::error::Error;
use std::fmt;

/// An error produced by the framework layer.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// A model operation failed.
    Model(redep_model::ModelError),
    /// An algorithm failed.
    Algorithm(redep_algorithms::AlgoError),
    /// A DeSi operation failed.
    Desi(redep_desi::DesiError),
    /// A middleware operation failed.
    Prism(redep_prism::PrismError),
    /// The runtime could not be assembled from the model.
    Build(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            CoreError::Desi(e) => write!(f, "desi error: {e}"),
            CoreError::Prism(e) => write!(f, "middleware error: {e}"),
            CoreError::Build(msg) => write!(f, "runtime build failed: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Model(e) => Some(e),
            CoreError::Algorithm(e) => Some(e),
            CoreError::Desi(e) => Some(e),
            CoreError::Prism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<redep_model::ModelError> for CoreError {
    fn from(e: redep_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl From<redep_algorithms::AlgoError> for CoreError {
    fn from(e: redep_algorithms::AlgoError) -> Self {
        CoreError::Algorithm(e)
    }
}

impl From<redep_desi::DesiError> for CoreError {
    fn from(e: redep_desi::DesiError) -> Self {
        CoreError::Desi(e)
    }
}

impl From<redep_prism::PrismError> for CoreError {
    fn from(e: redep_prism::PrismError) -> Self {
        CoreError::Prism(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = redep_algorithms::AlgoError::NoFeasibleDeployment.into();
        assert!(e.source().is_some());
    }
}
