//! Edge-list I/O.
//!
//! Reads/writes the whitespace-separated edge-list format used by SNAP
//! datasets (`# comment` lines ignored, one `src dst` pair per line) plus
//! an optional label file (`vertex label` per line), so real datasets can
//! be dropped in for the synthetic stand-ins.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::types::{EdgeUpdate, Label, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parse an edge list from any reader. Lines starting with `#` or `%` are
/// comments; blank lines are skipped. Returns an error string on malformed
/// input (line number included).
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, String> {
    let mut builder = CsrBuilder::new(0);
    let mut line = String::new();
    let mut br = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        line.clear();
        lineno += 1;
        let n = br.read_line(&mut line).map_err(|e| format!("line {lineno}: {e}"))?;
        if n == 0 {
            break;
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let a: VertexId = it
            .next()
            .ok_or_else(|| format!("line {lineno}: missing src"))?
            .parse()
            .map_err(|e| format!("line {lineno}: bad src: {e}"))?;
        let b: VertexId = it
            .next()
            .ok_or_else(|| format!("line {lineno}: missing dst"))?
            .parse()
            .map_err(|e| format!("line {lineno}: bad dst: {e}"))?;
        builder.add_edge(a, b);
    }
    Ok(builder.build())
}

/// Load an edge-list file.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<CsrGraph, String> {
    let f = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    read_edge_list(f)
}

/// Write a graph as a canonical edge list (one undirected edge per line).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for (a, b) in g.edges() {
        writeln!(w, "{a} {b}")?;
    }
    Ok(())
}

/// Parse a `vertex label` file into a label vector of length `n`.
pub fn read_labels<R: Read>(reader: R, n: usize) -> Result<Vec<Label>, String> {
    let mut labels = vec![0 as Label; n];
    let br = BufReader::new(reader);
    for (i, line) in br.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let v: usize = it
            .next()
            .ok_or_else(|| format!("line {}: missing vertex", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        let l: Label = it
            .next()
            .ok_or_else(|| format!("line {}: missing label", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        if v >= n {
            return Err(format!("line {}: vertex {v} out of range", i + 1));
        }
        labels[v] = l;
    }
    Ok(labels)
}

/// Parse an update stream: one update per line, `+ src dst` for insertion
/// or `- src dst` for deletion (`#` comments and blanks skipped).
///
/// `num_vertices` is the vertex count of the graph the stream applies to.
/// Each update adds at most two vertices, so a stream of `k` updates never
/// needs an id at or above `num_vertices + 2k`; a larger id is rejected
/// (naming its line) rather than growing the graph to that id.
pub fn read_updates<R: Read>(reader: R, num_vertices: usize) -> Result<Vec<EdgeUpdate>, String> {
    let br = BufReader::new(reader);
    let mut out = Vec::new();
    // Largest id seen and the first line it appears on.
    let mut widest: Option<(VertexId, usize)> = None;
    for (i, line) in br.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let op = it.next().unwrap();
        let a: VertexId = it
            .next()
            .ok_or_else(|| format!("line {}: missing src", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        let b: VertexId = it
            .next()
            .ok_or_else(|| format!("line {}: missing dst", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        out.push(match op {
            "+" => EdgeUpdate::insert(a, b),
            "-" => EdgeUpdate::delete(a, b),
            other => return Err(format!("line {}: bad op '{other}' (want + or -)", i + 1)),
        });
        let top = a.max(b);
        if !matches!(widest, Some((w, _)) if w >= top) {
            widest = Some((top, i + 1));
        }
    }
    let bound = num_vertices as u64 + 2 * out.len() as u64;
    match widest {
        Some((id, line)) if u64::from(id) >= bound => Err(format!(
            "line {line}: vertex id {id} out of range ({} updates over {num_vertices} vertices \
             need ids below {bound})",
            out.len()
        )),
        _ => Ok(out),
    }
}

/// Load an update-stream file for a graph of `num_vertices` vertices (see
/// [`read_updates`]).
pub fn load_updates<P: AsRef<Path>>(
    path: P,
    num_vertices: usize,
) -> Result<Vec<EdgeUpdate>, String> {
    let f = std::fs::File::open(path.as_ref())
        .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
    read_updates(f, num_vertices)
}

/// Write an update stream in the `+/- src dst` format.
pub fn write_updates<W: Write>(updates: &[EdgeUpdate], mut w: W) -> std::io::Result<()> {
    for u in updates {
        let op = match u.op {
            crate::types::UpdateOp::Insert => '+',
            crate::types::UpdateOp::Delete => '-',
        };
        writeln!(w, "{op} {} {}", u.src, u.dst)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    #[test]
    fn comments_blanks_and_whitespace() {
        let text = "# snap header\n% matrix-market style\n\n  1   2 \n2 3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 2) && g.has_edge(2, 3));
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let err = read_edge_list("1 2\nx y\n".as_bytes()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = read_edge_list("1\n".as_bytes()).unwrap_err();
        assert!(err.contains("missing dst"), "{err}");
    }

    #[test]
    fn labels_parse_and_validate() {
        let l = read_labels("0 5\n2 7\n".as_bytes(), 3).unwrap();
        assert_eq!(l, vec![5, 0, 7]);
        assert!(read_labels("9 1\n".as_bytes(), 3).is_err());
    }

    #[test]
    fn missing_file_errors() {
        assert!(load_edge_list("/nonexistent/path.el").is_err());
        assert!(load_updates("/nonexistent/path.upd", 0).is_err());
    }

    #[test]
    fn updates_roundtrip() {
        let ups = vec![EdgeUpdate::insert(1, 2), EdgeUpdate::delete(3, 4)];
        let mut buf = Vec::new();
        write_updates(&ups, &mut buf).unwrap();
        let back = read_updates(&buf[..], 5).unwrap();
        assert_eq!(back, ups);
    }

    #[test]
    fn updates_reject_bad_ops() {
        assert!(read_updates("* 1 2\n".as_bytes(), 4).is_err());
        assert!(read_updates("+ 1\n".as_bytes(), 4).is_err());
        let ok = read_updates("# c\n\n+ 1 2\n- 2 3\n".as_bytes(), 4).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn updates_reject_ids_beyond_a_dense_stream() {
        // Two updates over 3 vertices may introduce ids 3..=6, no higher.
        let ok = read_updates("+ 0 5\n+ 6 1\n".as_bytes(), 3).unwrap();
        assert_eq!(ok.len(), 2);
        let err = read_updates("# huge\n+ 0 1\n+ 0 7\n".as_bytes(), 3).unwrap_err();
        assert!(err.starts_with("line 3:") && err.contains("vertex id 7"), "{err}");
        // The u32 maximum never reaches the graph, whatever line it is on.
        let err = read_updates("+ 0 4294967295\n- 1 2\n".as_bytes(), 3).unwrap_err();
        assert!(err.starts_with("line 1:") && err.contains("4294967295"), "{err}");
    }
}
