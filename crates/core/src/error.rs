//! The typed error surface of the experiment framework.

use nc_dataset::model::ModelError;
use nc_mlp::MlpError;

/// Anything that can go wrong configuring or running an experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A model topology was invalid (zero-width layer, too few layers).
    Topology(MlpError),
    /// A model refused to train or evaluate (geometry mismatch, empty
    /// data, untrainable deployment artifact).
    Model(ModelError),
    /// A dataset required by the experiment has no samples.
    EmptyDataset,
    /// An experiment was configured inconsistently (empty sweep grid,
    /// zero threads, …). The message says what and why.
    BadConfig(String),
    /// A job panicked on every attempt a supervised run allowed it.
    /// `payload` is the panic message when it was a string, or a
    /// placeholder otherwise.
    JobPanicked {
        /// The failing job's label.
        job: String,
        /// The last attempt's panic message.
        payload: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Topology(e) => write!(f, "invalid topology: {e}"),
            Error::Model(e) => write!(f, "model error: {e}"),
            Error::EmptyDataset => write!(f, "dataset has no samples"),
            Error::BadConfig(msg) => write!(f, "bad experiment config: {msg}"),
            Error::JobPanicked { job, payload } => {
                write!(f, "job `{job}` panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Topology(e) => Some(e),
            Error::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MlpError> for Error {
    fn from(e: MlpError) -> Self {
        Error::Topology(e)
    }
}

impl From<ModelError> for Error {
    fn from(e: ModelError) -> Self {
        match e {
            ModelError::EmptyDataset => Error::EmptyDataset,
            other => Error::Model(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_the_cause() {
        assert_eq!(
            Error::from(MlpError::TooFewLayers),
            Error::Topology(MlpError::TooFewLayers)
        );
        assert_eq!(Error::from(ModelError::EmptyDataset), Error::EmptyDataset);
        assert!(matches!(
            Error::from(ModelError::GeometryMismatch {
                expected: 1,
                got: 2
            }),
            Error::Model(_)
        ));
    }

    #[test]
    fn display_is_nonempty_for_all_variants() {
        for e in [
            Error::Topology(MlpError::TooFewLayers),
            Error::Model(ModelError::EmptyDataset),
            Error::EmptyDataset,
            Error::BadConfig("x".into()),
            Error::JobPanicked {
                job: "j".into(),
                payload: "boom".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
            let _ = std::error::Error::source(&e);
        }
    }
}
