//! Textual graph I/O.
//!
//! [`read_edge_list_flexible`] is the one edge-list reader: streaming
//! ingest of real-world edge-list dumps (SNAP-style `.txt`,
//! Matrix-Market-ish pair lines, the optional `nodes <n>` header of
//! this crate's own format). Headerless files infer the node count,
//! directed dumps can be symmetrised on the fly, and lines are consumed
//! one at a time from any `BufRead` so arbitrarily large files never
//! need to be held as text. The snapshot tool (`igcn-bench`'s
//! `snapshot_tool build --edge-list`) feeds dataset dumps through this
//! into binary snapshots. [`read_features_csv`] reads dense feature
//! rows.

use std::io::BufRead;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::features::SparseFeatures;

/// Parses one `<u> <v>` edge line.
fn parse_edge(line: &str, lineno: usize) -> Result<(u32, u32), GraphError> {
    let mut parts = line.split_whitespace();
    let u = parts.next().and_then(|t| t.parse::<u32>().ok()).ok_or_else(|| GraphError::Parse {
        line: lineno,
        detail: "expected source node id".to_string(),
    })?;
    let v = parts.next().and_then(|t| t.parse::<u32>().ok()).ok_or_else(|| GraphError::Parse {
        line: lineno,
        detail: "expected destination node id".to_string(),
    })?;
    if parts.next().is_some() {
        return Err(GraphError::Parse {
            line: lineno,
            detail: "trailing tokens after edge".to_string(),
        });
    }
    Ok((u, v))
}

/// Options for [`read_edge_list_flexible`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeListOptions {
    /// Insert the reverse of every edge (GCN adjacency must be
    /// symmetric; most real-world dumps list each undirected edge
    /// once).
    pub symmetrize: bool,
    /// Drop `(v, v)` lines instead of storing them (the I-GCN engine
    /// rejects self-loops; many dumps contain a few).
    pub drop_self_loops: bool,
}

impl Default for EdgeListOptions {
    /// Symmetrise and drop self-loops — what an I-GCN serving graph
    /// needs.
    fn default() -> Self {
        EdgeListOptions { symmetrize: true, drop_self_loops: true }
    }
}

/// Streaming ingest of a real-world edge-list dump.
///
/// Consumes `reader` line by line: `#`/`%`-prefixed comments and blank
/// lines are skipped, and every other line is one `<u> <v>` edge —
/// endpoint pairs may be separated by any whitespace (SNAP dumps use
/// tabs) — or the `nodes <n>` header:
///
/// ```text
/// # comment lines start with '#' (or '%')
/// nodes <n>
/// <u> <v>
/// ...
/// ```
///
/// The header is optional; without it the node count is inferred as
/// `max endpoint + 1`. If present it must come before every edge and
/// appear once: a second header, even an identical one, is the
/// signature of concatenated dumps, and silently keeping the last value
/// would mis-size the graph.
///
/// # Errors
///
/// [`GraphError::Parse`] for malformed lines (a missing endpoint,
/// trailing tokens, a bad node count), a duplicated header or a header
/// after edges; [`GraphError::NodeOutOfBounds`] if a declared header is
/// smaller than an endpoint.
pub fn read_edge_list_flexible<R: BufRead>(
    reader: R,
    opts: EdgeListOptions,
) -> Result<CsrGraph, GraphError> {
    let mut declared_nodes: Option<usize> = None;
    let mut max_endpoint: Option<u32> = None;
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line
            .map_err(|e| GraphError::Parse { line: lineno, detail: format!("i/o error: {e}") })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("nodes ") {
            if declared_nodes.is_some() {
                return Err(GraphError::Parse {
                    line: lineno,
                    detail: "duplicate `nodes <n>` header".to_string(),
                });
            }
            if !edges.is_empty() {
                return Err(GraphError::Parse {
                    line: lineno,
                    detail: "`nodes <n>` header after edges".to_string(),
                });
            }
            declared_nodes = Some(rest.trim().parse::<usize>().map_err(|_| GraphError::Parse {
                line: lineno,
                detail: format!("invalid node count {rest:?}"),
            })?);
            continue;
        }
        let (u, v) = parse_edge(line, lineno)?;
        // Every mentioned endpoint sizes the graph — including the
        // endpoints of dropped self-loop lines, which still name a
        // node the dump considers present.
        max_endpoint = Some(max_endpoint.map_or(u.max(v), |m| m.max(u).max(v)));
        if u == v && opts.drop_self_loops {
            continue;
        }
        edges.push((u, v));
        if opts.symmetrize && u != v {
            edges.push((v, u));
        }
    }
    let num_nodes = match declared_nodes {
        Some(n) => n,
        None => max_endpoint.map_or(0, |m| m as usize + 1),
    };
    CsrGraph::from_directed_edges(num_nodes, &edges)
}

/// Reads a dense feature matrix from CSV: one row per node,
/// comma-separated floats, all rows the same width. `#`-prefixed
/// comments and blank lines are skipped. Zero entries are not stored
/// (the result is a [`SparseFeatures`] matrix, which is what bag-of-
/// words feature dumps amount to).
///
/// When `expected_rows` is given (the node count of the graph the
/// features belong to), a row-count disagreement is a typed
/// [`GraphError::DimensionMismatch`] instead of a downstream shape
/// failure — the contract `snapshot_tool build --features-csv` relies
/// on.
///
/// # Errors
///
/// [`GraphError::Parse`] for unparseable values,
/// [`GraphError::DimensionMismatch`] for ragged rows or a row count
/// that disagrees with `expected_rows`.
pub fn read_features_csv<R: BufRead>(
    reader: R,
    expected_rows: Option<usize>,
) -> Result<SparseFeatures, GraphError> {
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    let mut width: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line
            .map_err(|e| GraphError::Parse { line: lineno, detail: format!("i/o error: {e}") })?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row: Vec<(u32, f32)> = Vec::new();
        let mut cols = 0usize;
        for (c, tok) in line.split(',').enumerate() {
            let v: f32 = tok.trim().parse().map_err(|_| GraphError::Parse {
                line: lineno,
                detail: format!("invalid feature value {:?} in column {c}", tok.trim()),
            })?;
            if v != 0.0 {
                row.push((c as u32, v));
            }
            cols = c + 1;
        }
        match width {
            None => width = Some(cols),
            Some(w) if w != cols => {
                return Err(GraphError::DimensionMismatch {
                    what: format!("feature CSV row {lineno} width"),
                    expected: w,
                    got: cols,
                });
            }
            Some(_) => {}
        }
        rows.push(row);
    }
    if let Some(expected) = expected_rows {
        if rows.len() != expected {
            return Err(GraphError::DimensionMismatch {
                what: "feature CSV rows vs graph nodes".to_string(),
                expected,
                got: rows.len(),
            });
        }
    }
    let num_rows = rows.len();
    let num_cols = width.unwrap_or(0);
    Ok(SparseFeatures::from_rows(num_rows, num_cols, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(text: &str) -> Result<CsrGraph, GraphError> {
        read_edge_list_flexible(text.as_bytes(), EdgeListOptions::default())
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\nnodes 4\n0 1\n% another\n  \n1 2\n";
        let g = read(text).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_undirected_edges(), 2);
    }

    #[test]
    fn duplicate_header_rejected() {
        // Same value twice: still rejected (concatenated-dump signature).
        let err = read("nodes 3\nnodes 3\n0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        assert!(err.to_string().contains("duplicate"));
        // Conflicting value: rejected, not silently last-wins.
        let err = read("nodes 3\n0 1\nnodes 9\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 3, .. }));
    }

    #[test]
    fn malformed_edge_rejected() {
        let err = read("0 1\n0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        assert!(err.to_string().contains("destination"));
        let err = read("0 1 2\n").unwrap_err();
        assert!(err.to_string().contains("trailing"));
        let err = read("x 1\n").unwrap_err();
        assert!(err.to_string().contains("source"));
        let err = read("nodes many\n").unwrap_err();
        assert!(err.to_string().contains("invalid node count"));
    }

    #[test]
    fn flexible_infers_nodes_and_symmetrizes() {
        // SNAP-style: comments with '#', tabs, no header, one direction.
        let text = "# Directed graph\n% another comment style\n0\t1\n1\t2\n4\t0\n";
        let g = read_edge_list_flexible(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.is_symmetric());
        assert_eq!(g.num_undirected_edges(), 3);
    }

    #[test]
    fn flexible_drops_self_loops_and_honors_header() {
        let text = "nodes 6\n0 0\n0 1\n";
        let g = read_edge_list_flexible(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.count_self_loops(), 0);
        assert_eq!(g.num_undirected_edges(), 1);
        // Raw mode keeps the dump as-is.
        let raw = EdgeListOptions { symmetrize: false, drop_self_loops: false };
        let g = read_edge_list_flexible(text.as_bytes(), raw).unwrap();
        assert_eq!(g.count_self_loops(), 1);
        assert_eq!(g.num_directed_edges(), 2);
    }

    #[test]
    fn flexible_rejects_late_or_duplicate_header() {
        let err = read_edge_list_flexible("0 1\nnodes 5\n".as_bytes(), EdgeListOptions::default())
            .unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err =
            read_edge_list_flexible("nodes 5\nnodes 5\n".as_bytes(), EdgeListOptions::default())
                .unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn flexible_dropped_self_loops_still_size_the_graph() {
        // The highest node ID appears only in a dropped self-loop
        // line; the node must still exist in the inferred graph.
        let text = "5 5\n0 1\n";
        let g = read_edge_list_flexible(text.as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.count_self_loops(), 0);
        assert_eq!(g.num_undirected_edges(), 1);
    }

    #[test]
    fn features_csv_parses_and_sparsifies() {
        let text = "# id-less dense rows\n1.0, 0.0, 2.5\n0, 3, 0\n0.5,0.5,0.5\n";
        let x = read_features_csv(text.as_bytes(), Some(3)).unwrap();
        assert_eq!(x.num_rows(), 3);
        assert_eq!(x.num_cols(), 3);
        assert_eq!(x.nnz(), 6);
        let (cols, vals) = x.row(crate::NodeId::new(0));
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.5]);
    }

    #[test]
    fn features_csv_row_count_mismatch_is_typed() {
        let err = read_features_csv("1,2\n3,4\n".as_bytes(), Some(5)).unwrap_err();
        assert!(matches!(err, GraphError::DimensionMismatch { expected: 5, got: 2, .. }));
        assert!(err.to_string().contains("dimension mismatch"));
    }

    #[test]
    fn features_csv_ragged_row_is_typed() {
        let err = read_features_csv("1,2,3\n4,5\n".as_bytes(), None).unwrap_err();
        assert!(matches!(err, GraphError::DimensionMismatch { expected: 3, got: 2, .. }));
    }

    #[test]
    fn features_csv_bad_value_is_a_parse_error() {
        let err = read_features_csv("1,zebra\n".as_bytes(), None).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn flexible_empty_input_is_an_empty_graph() {
        let g =
            read_edge_list_flexible("# nothing\n".as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        // A declared header with no edges sizes the graph.
        let g =
            read_edge_list_flexible("nodes 7\n".as_bytes(), EdgeListOptions::default()).unwrap();
        assert_eq!(g.num_nodes(), 7);
    }

    #[test]
    fn flexible_undeclared_small_header_is_out_of_bounds() {
        let err = read_edge_list_flexible("nodes 2\n0 5\n".as_bytes(), EdgeListOptions::default())
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }
}
