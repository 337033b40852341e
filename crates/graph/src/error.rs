//! Error types for graph construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint was at least the declared number of nodes.
    NodeOutOfBounds {
        /// The offending endpoint.
        node: u32,
        /// Number of nodes declared for the graph.
        num_nodes: usize,
    },
    /// The CSR row-pointer array was malformed (wrong length or
    /// non-monotone).
    MalformedRowPtr {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The adjacency was expected to be symmetric but an edge `(u, v)` had
    /// no reverse `(v, u)`.
    NotSymmetric {
        /// Source of the unpaired edge.
        from: u32,
        /// Destination of the unpaired edge.
        to: u32,
    },
    /// An edge asked to be removed is not present in the graph.
    MissingEdge {
        /// Source of the missing edge, as given.
        from: u32,
        /// Destination of the missing edge, as given.
        to: u32,
    },
    /// A raw CSR row lists the same neighbor more than once.
    DuplicateEdge {
        /// The row with the repeat.
        from: u32,
        /// The repeated neighbor.
        to: u32,
    },
    /// A permutation was not a bijection over `0..n`.
    InvalidPermutation {
        /// Human-readable description of the defect.
        detail: String,
    },
    /// Parsing a textual graph format failed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// A parsed artefact's dimensions disagree with what the caller
    /// declared (e.g. a feature CSV whose row count does not match the
    /// graph's node count, or a ragged row).
    DimensionMismatch {
        /// What was being matched.
        what: String,
        /// The expected extent.
        expected: usize,
        /// The extent actually found.
        got: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node {node} out of bounds for graph with {num_nodes} nodes")
            }
            GraphError::MalformedRowPtr { detail } => {
                write!(f, "malformed CSR row pointer: {detail}")
            }
            GraphError::NotSymmetric { from, to } => {
                write!(f, "edge ({from}, {to}) has no reverse edge; adjacency is not symmetric")
            }
            GraphError::MissingEdge { from, to } => {
                write!(f, "edge ({from}, {to}) is not present in the graph and cannot be removed")
            }
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "edge ({from}, {to}) is stored more than once in its CSR row")
            }
            GraphError::InvalidPermutation { detail } => {
                write!(f, "invalid permutation: {detail}")
            }
            GraphError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            GraphError::DimensionMismatch { what, expected, got } => {
                write!(f, "dimension mismatch: {what} expected {expected}, got {got}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::NodeOutOfBounds { node: 9, num_nodes: 4 };
        assert_eq!(e.to_string(), "node 9 out of bounds for graph with 4 nodes");
        let e = GraphError::NotSymmetric { from: 1, to: 2 };
        assert!(e.to_string().contains("(1, 2)"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
