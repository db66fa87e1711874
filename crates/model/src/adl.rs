//! Architecture-description documents (the xADL 2.0 integration point).
//!
//! The paper integrates DeSi with xADL 2.0 so that properties known at design
//! time ("initial deployment of the system, available memory on each host,
//! etc.") flow from the architecture description into the model. This module
//! provides the equivalent channel as a schema-versioned JSON document: the
//! document embeds a full [`DeploymentModel`] (with its extensible parameter
//! tables and constraints) and optionally the initial [`Deployment`].

use crate::deployment::Deployment;
use crate::model::DeploymentModel;
use crate::ModelError;
use serde::{Deserialize, Serialize};

/// The document schema version this library reads and writes.
const SCHEMA_VERSION: u32 = 1;

/// An architecture-description document: design-time user input for the
/// framework's `UserInput` component.
///
/// # Example
///
/// ```
/// use redep_model::{AdlDocument, DeploymentModel};
///
/// let mut model = DeploymentModel::new();
/// model.add_host("hq")?;
/// let doc = AdlDocument::new(model.clone(), None);
/// let json = doc.to_json()?;
/// let back = AdlDocument::from_json(&json)?;
/// assert_eq!(back.model, model);
/// # Ok::<(), redep_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct AdlDocument {
    /// Schema version; documents with a newer major version are rejected.
    pub schema: u32,
    /// The described deployment architecture.
    pub model: DeploymentModel,
    /// The initial deployment, when the architect prescribes one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deployment: Option<Deployment>,
}

impl AdlDocument {
    /// Wraps a model (and optional initial deployment) into a document.
    pub fn new(model: DeploymentModel, deployment: Option<Deployment>) -> Self {
        AdlDocument {
            schema: SCHEMA_VERSION,
            model,
            deployment,
        }
    }

    /// Serializes the document to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Adl`] if serialization fails (it cannot for
    /// well-formed models; the error path exists for forward compatibility).
    pub fn to_json(&self) -> Result<String, ModelError> {
        serde_json::to_string_pretty(self).map_err(|e| ModelError::Adl(e.to_string()))
    }

    /// Parses and validates a document from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Adl`] for malformed JSON or an unsupported
    /// schema version, and propagates model-integrity errors (dangling link
    /// endpoints, constraints over unknown parts, deployments onto unknown
    /// hosts).
    pub fn from_json(json: &str) -> Result<Self, ModelError> {
        let doc: AdlDocument =
            serde_json::from_str(json).map_err(|e| ModelError::Adl(e.to_string()))?;
        if doc.schema > SCHEMA_VERSION {
            return Err(ModelError::Adl(format!(
                "unsupported schema version {} (this library reads ≤ {})",
                doc.schema, SCHEMA_VERSION
            )));
        }
        doc.model.validate()?;
        if let Some(d) = &doc.deployment {
            d.validate(&doc.model)?;
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{Generator, GeneratorConfig};

    #[test]
    fn roundtrip_preserves_generated_system() {
        let s = Generator::generate(&GeneratorConfig::sized(4, 10)).unwrap();
        let doc = AdlDocument::new(s.model.clone(), Some(s.initial.clone()));
        let json = doc.to_json().unwrap();
        let back = AdlDocument::from_json(&json).unwrap();
        assert_eq!(back.model, s.model);
        assert_eq!(back.deployment, Some(s.initial));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(matches!(
            AdlDocument::from_json("{not json"),
            Err(ModelError::Adl(_))
        ));
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let mut model = DeploymentModel::new();
        model.add_host("h").unwrap();
        let mut doc = AdlDocument::new(model, None);
        doc.schema = SCHEMA_VERSION + 1;
        let json = serde_json::to_string(&doc).unwrap();
        let err = AdlDocument::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn invalid_deployment_is_rejected() {
        let mut model = DeploymentModel::new();
        let h = model.add_host("h").unwrap();
        let c = model.add_component("c").unwrap();
        let mut other = Deployment::new();
        other.assign(c, crate::HostId::new(42)); // unknown host
        let doc = AdlDocument {
            schema: SCHEMA_VERSION,
            model,
            deployment: Some(other),
        };
        let json = serde_json::to_string(&doc).unwrap();
        assert!(AdlDocument::from_json(&json).is_err());
        let _ = h;
    }

    #[test]
    fn document_without_deployment_omits_field() {
        let doc = AdlDocument::new(DeploymentModel::new(), None);
        let json = doc.to_json().unwrap();
        assert!(!json.contains("deployment"));
    }
}
