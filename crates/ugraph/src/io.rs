//! Reading and writing uncertain graphs.
//!
//! Three formats:
//!
//! * **Weighted edge lists** — the format the paper's public datasets ship
//!   in: one `u v p` triple per line, `#`-comments and blank lines ignored.
//!   Node ids may be arbitrary `u32`s; they are compacted to `0..n` with the
//!   mapping returned to the caller.
//! * **Mutation files** — one mutation per line against a live
//!   [`DeltaGraph`]: `u v p` inserts or re-weights the edge, `u v -`
//!   deletes it ([`DeltaLines`] / [`apply_edge_list_delta`]). Same
//!   comment/whitespace/probability rules as weighted edge lists;
//!   duplicate edge keys within one batch are rejected with the offending
//!   line number. [`DeltaLines`] reads the grammar as a streaming
//!   iterator, so replaying a large log never buffers the whole file.
//! * **Binary checkpoints** — [`write_graph_checkpoint`] /
//!   [`read_graph_checkpoint`]: the materialized graph (edges + probability
//!   bits + labels + generation) in a fixed little-endian layout with a
//!   trailing [`crc32`], used by `mpds-store` for durable snapshots.

use crate::dynamic::{ApplyStats, DeltaGraph, EdgeMutation, MutationBatch};
use crate::graph::NodeId;
use crate::uncertain::UncertainGraph;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// `(line number, message)`.
    Parse(usize, String),
    /// A binary checkpoint failed structural or CRC validation.
    Corrupt(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, msg) => write!(f, "parse error on line {line}: {msg}"),
            IoError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// One parsed line shared by both the edge-list and the mutation grammar:
/// endpoints (validated against self-loops) plus the action field —
/// `Some(p)` for a probability (validated against `(0, 1]`), `None` for the
/// delete marker `-` (only legal when `allow_delete`).
fn parse_edge_line(
    lineno: usize,
    line: &str,
    allow_delete: bool,
) -> Result<(u32, u32, Option<f64>), IoError> {
    let mut it = line.split_whitespace();
    let mut field = |name: &str| {
        it.next()
            .ok_or_else(|| IoError::Parse(lineno, format!("missing {name}")))
    };
    let u: u32 = field("source")?
        .parse()
        .map_err(|e| IoError::Parse(lineno, format!("bad source: {e}")))?;
    let v: u32 = field("target")?
        .parse()
        .map_err(|e| IoError::Parse(lineno, format!("bad target: {e}")))?;
    if u == v {
        return Err(IoError::Parse(lineno, format!("self-loop on node {u}")));
    }
    let raw = field("probability")?;
    if allow_delete && raw == "-" {
        return Ok((u, v, None));
    }
    let p: f64 = raw
        .parse()
        .map_err(|e| IoError::Parse(lineno, format!("bad probability: {e}")))?;
    if !(p > 0.0 && p <= 1.0) {
        return Err(IoError::Parse(
            lineno,
            format!("probability {p} outside (0, 1]"),
        ));
    }
    Ok((u, v, Some(p)))
}

/// Parses a weighted edge list (`u v p` per line). Returns the graph plus
/// the original label of every compacted node id.
///
/// Duplicate edges keep the *last* probability seen; self-loops are rejected.
pub fn read_weighted_edge_list<R: Read>(reader: R) -> Result<(UncertainGraph, Vec<u32>), IoError> {
    let reader = BufReader::new(reader);
    let mut labels: Vec<u32> = Vec::new();
    let mut index_of = std::collections::HashMap::new();
    let mut edges: std::collections::BTreeMap<(NodeId, NodeId), f64> =
        std::collections::BTreeMap::new();
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (u, v, p) = parse_edge_line(lineno, line, false)?;
        let p = p.expect("allow_delete = false always yields a probability");
        let mut id = |label: u32| -> NodeId {
            *index_of.entry(label).or_insert_with(|| {
                labels.push(label);
                (labels.len() - 1) as NodeId
            })
        };
        let (a, b) = (id(u), id(v));
        let key = if a < b { (a, b) } else { (b, a) };
        edges.insert(key, p);
    }
    let weighted: Vec<(NodeId, NodeId, f64)> =
        edges.into_iter().map(|((u, v), p)| (u, v, p)).collect();
    let g = UncertainGraph::from_weighted_edges(labels.len(), &weighted);
    Ok((g, labels))
}

/// A mutation in original-label space: `(u, v, Some(p))` inserts or
/// re-weights the edge, `(u, v, None)` deletes it.
pub type LabeledMutation = (u32, u32, Option<f64>);

/// Streaming parser over the mutation grammar: one `u v p` (insert /
/// re-weight) or `u v -` (delete) per line, `#`-comments and blank lines
/// skipped, yielding `(line number, mutation)` pairs as they are read —
/// nothing buffers the whole input, so WAL replay of a large log costs one
/// line of memory at a time.
///
/// Self-loops, out-of-range probabilities and duplicate canonical edge keys
/// within the stream are rejected with the offending line number. After
/// the first `Err` the iterator is fused (yields `None` forever).
///
/// ```
/// use std::io::BufReader;
/// use ugraph::io::DeltaLines;
/// let mut it = DeltaLines::new(BufReader::new("# d\n1 2 0.5\n3 1 -\n".as_bytes()));
/// assert_eq!(it.next().unwrap().unwrap(), (2, (1, 2, Some(0.5))));
/// assert_eq!(it.next().unwrap().unwrap(), (3, (3, 1, None)));
/// assert!(it.next().is_none());
/// ```
pub struct DeltaLines<R: BufRead> {
    lines: std::io::Lines<R>,
    lineno: usize,
    seen: std::collections::HashSet<(u32, u32)>,
    done: bool,
}

impl<R: BufRead> DeltaLines<R> {
    /// Starts streaming mutations from `reader` at line 1.
    pub fn new(reader: R) -> Self {
        DeltaLines {
            lines: reader.lines(),
            lineno: 0,
            seen: std::collections::HashSet::new(),
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for DeltaLines<R> {
    type Item = Result<(usize, LabeledMutation), IoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.lineno += 1;
            let line = match self.lines.next() {
                None => {
                    self.done = true;
                    return None;
                }
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e.into()));
                }
                Some(Ok(line)) => line,
            };
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (u, v, action) = match parse_edge_line(self.lineno, line, true) {
                Ok(parsed) => parsed,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            let key = if u < v { (u, v) } else { (v, u) };
            if !self.seen.insert(key) {
                self.done = true;
                return Some(Err(IoError::Parse(
                    self.lineno,
                    format!("duplicate edge ({u}, {v}) in one mutation batch"),
                )));
            }
            return Some(Ok((self.lineno, (u, v, action))));
        }
    }
}

/// What [`apply_edge_list_delta`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaApplied {
    /// Per-kind mutation counts.
    pub stats: ApplyStats,
    /// The generation the graph is at after the batch.
    pub generation: u64,
}

/// Applies a mutation file to a live [`DeltaGraph`] as **one atomic batch**:
/// the whole file is parsed and label-resolved first, so any error (bad
/// line, duplicate key, unknown label on a delete, delete of an absent
/// edge) leaves the graph — and its generation — untouched.
///
/// `labels` maps compact node ids to original labels (one entry per node;
/// identity-labeled graphs pass `(0..n).collect()`); labels never seen
/// before allocate new nodes and are appended on success.
///
/// ```
/// use ugraph::dynamic::DeltaGraph;
/// use ugraph::io::apply_edge_list_delta;
/// use ugraph::UncertainGraph;
///
/// // Labels 10 and 20 are nodes 0 and 1.
/// let base = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
/// let mut d = DeltaGraph::from_graph(base);
/// let mut labels = vec![10, 20];
/// let done = apply_edge_list_delta(&mut d, &mut labels, "10 20 0.9\n20 30 0.4\n".as_bytes())
///     .unwrap();
/// assert_eq!((done.stats.reweighted, done.stats.inserted), (1, 1));
/// assert_eq!(done.generation, 1);
/// assert_eq!(labels, vec![10, 20, 30]); // label 30 became node 2
/// assert_eq!(d.edge_prob(1, 2), Some(0.4));
/// ```
pub fn apply_edge_list_delta<R: Read>(
    delta: &mut DeltaGraph,
    labels: &mut Vec<u32>,
    reader: R,
) -> Result<DeltaApplied, IoError> {
    assert_eq!(
        labels.len(),
        delta.num_nodes(),
        "labels must carry one entry per node"
    );
    let mut index_of: std::collections::HashMap<u32, NodeId> = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, i as NodeId))
        .collect();
    let mut new_labels: Vec<u32> = Vec::new();
    let mut edges = Vec::new();
    let n0 = delta.num_nodes();
    for parsed in DeltaLines::new(BufReader::new(reader)) {
        let (lineno, (lu, lv, action)) = parsed?;
        let mut resolve = |label: u32, deleting: bool| -> Result<NodeId, IoError> {
            if let Some(&id) = index_of.get(&label) {
                return Ok(id);
            }
            if deleting {
                return Err(IoError::Parse(
                    lineno,
                    format!("unknown node label {label} in delete"),
                ));
            }
            let id = (n0 + new_labels.len()) as NodeId;
            new_labels.push(label);
            index_of.insert(label, id);
            Ok(id)
        };
        let deleting = action.is_none();
        let u = resolve(lu, deleting)?;
        let v = resolve(lv, deleting)?;
        match action {
            Some(p) => edges.push(EdgeMutation::Upsert(u, v, p)),
            None => {
                if !delta.has_edge(u, v) {
                    return Err(IoError::Parse(
                        lineno,
                        format!("cannot delete absent edge ({lu}, {lv})"),
                    ));
                }
                edges.push(EdgeMutation::Delete(u, v));
            }
        }
    }
    let batch = MutationBatch {
        add_nodes: new_labels.len(),
        edges,
    };
    // Everything above validated against the pre-batch state (keys are
    // unique within the batch, so that is exact); `apply` re-checks and can
    // only fail on an internal inconsistency.
    let stats = delta
        .apply(&batch)
        .map_err(|e| IoError::Parse(0, e.to_string()))?;
    labels.extend(new_labels);
    Ok(DeltaApplied {
        stats,
        generation: delta.generation(),
    })
}

/// IEEE CRC-32 lookup table (polynomial `0xEDB88320`), built in a const
/// context so the hand-rolled checksum costs one table lookup per byte.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial) of `bytes`. The workspace vendors
/// no checksum crate, so this one implementation backs both the binary
/// checkpoint trailer and the `mpds-store` WAL record frames.
///
/// ```
/// use ugraph::io::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Magic + format version prefix of a binary graph checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"MPDSCKP1";

/// Writes a binary checkpoint of a materialized graph: edges, probability
/// bits, per-node labels, and the generation stamp, all little-endian, with
/// a trailing [`crc32`] over everything before it. The layout after the
/// [`CHECKPOINT_MAGIC`] prefix is `n: u64, m: u64, generation: u64`,
/// then `m` edge pairs (`u32, u32`), `m` probability bit patterns
/// (`f64::to_bits` as `u64`), and `n` labels (`u32`).
///
/// `labels` must carry exactly one entry per node. Readers recover the
/// exact same graph: probabilities round-trip bit-for-bit.
///
/// ```
/// use ugraph::io::{read_graph_checkpoint, write_graph_checkpoint};
/// use ugraph::UncertainGraph;
/// let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.25), (1, 2, 0.75)]);
/// let mut buf = Vec::new();
/// write_graph_checkpoint(&mut buf, &g, &[10, 20, 30], 7).unwrap();
/// let (g2, labels, generation) = read_graph_checkpoint(buf.as_slice()).unwrap();
/// assert_eq!((g2.num_nodes(), g2.num_edges()), (3, 2));
/// assert_eq!(labels, vec![10, 20, 30]);
/// assert_eq!(generation, 7);
/// assert_eq!(g2.edge_prob(0, 1), Some(0.25));
/// ```
pub fn write_graph_checkpoint<W: Write>(
    mut writer: W,
    g: &UncertainGraph,
    labels: &[u32],
    generation: u64,
) -> std::io::Result<()> {
    assert_eq!(
        labels.len(),
        g.num_nodes(),
        "labels must carry one entry per node"
    );
    let (n, m) = (g.num_nodes(), g.num_edges());
    let mut buf = Vec::with_capacity(8 + 24 + m * 16 + n * 4 + 4);
    buf.extend_from_slice(CHECKPOINT_MAGIC);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(m as u64).to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
    for &(u, v) in g.graph().edges() {
        buf.extend_from_slice(&u.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for i in 0..m {
        buf.extend_from_slice(&g.prob(i).to_bits().to_le_bytes());
    }
    for &l in labels {
        buf.extend_from_slice(&l.to_le_bytes());
    }
    let crc = crc32(&buf);
    writer.write_all(&buf)?;
    writer.write_all(&crc.to_le_bytes())?;
    writer.flush()
}

/// Reads a binary checkpoint written by [`write_graph_checkpoint`],
/// returning the graph, its labels, and the generation stamp. Any
/// structural problem — short file, wrong magic, inconsistent lengths, or
/// CRC mismatch — yields [`IoError::Corrupt`]; callers treat that as "this
/// checkpoint never happened" and fall back to an older one.
pub fn read_graph_checkpoint<R: Read>(
    mut reader: R,
) -> Result<(UncertainGraph, Vec<u32>, u64), IoError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    let header_len = CHECKPOINT_MAGIC.len() + 24;
    if data.len() < header_len + 4 {
        return Err(IoError::Corrupt(format!(
            "file too short ({} bytes)",
            data.len()
        )));
    }
    let (body, trailer) = data.split_at(data.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().expect("trailer is 4 bytes"));
    if crc32(body) != stored_crc {
        return Err(IoError::Corrupt("CRC mismatch".to_string()));
    }
    if &body[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(IoError::Corrupt("bad magic".to_string()));
    }
    let u64_at =
        |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().expect("8-byte field"));
    let n = u64_at(8) as usize;
    let m = u64_at(16) as usize;
    let generation = u64_at(24);
    let expect = header_len + m * 16 + n * 4;
    if body.len() != expect {
        return Err(IoError::Corrupt(format!(
            "length {} does not match n={n}, m={m} (expected {expect})",
            body.len()
        )));
    }
    let mut off = header_len;
    let u32_next = |off: &mut usize| {
        let v = u32::from_le_bytes(body[*off..*off + 4].try_into().expect("4-byte field"));
        *off += 4;
        v
    };
    let mut weighted = Vec::with_capacity(m);
    for _ in 0..m {
        let u = u32_next(&mut off);
        let v = u32_next(&mut off);
        weighted.push((u as NodeId, v as NodeId, 0.0f64));
    }
    for w in weighted.iter_mut() {
        let bits = u64::from_le_bytes(body[off..off + 8].try_into().expect("8-byte field"));
        off += 8;
        w.2 = f64::from_bits(bits);
    }
    for (u, v, p) in &weighted {
        if *u as usize >= n || *v as usize >= n || u == v || !(*p > 0.0 && *p <= 1.0) {
            return Err(IoError::Corrupt(format!("invalid edge ({u}, {v}, {p})")));
        }
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        labels.push(u32_next(&mut off));
    }
    let g = UncertainGraph::from_weighted_edges(n, &weighted);
    if g.num_edges() != m {
        return Err(IoError::Corrupt(format!(
            "duplicate edges collapsed: {m} stored, {} reconstructed",
            g.num_edges()
        )));
    }
    Ok((g, labels, generation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_list() {
        let text = "# a comment\n10 20 0.5\n20 30 0.25\n\n10 30 1.0\n";
        let (g, labels) = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(labels, vec![10, 20, 30]);
        assert_eq!(g.edge_prob(0, 1), Some(0.5));
        assert_eq!(g.edge_prob(0, 2), Some(1.0));
    }

    #[test]
    fn duplicate_edges_keep_last() {
        let text = "1 2 0.3\n2 1 0.9\n";
        let (g, _) = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_prob(0, 1), Some(0.9));
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(matches!(
            read_weighted_edge_list("1 1 0.5".as_bytes()),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            read_weighted_edge_list("1 2 1.5".as_bytes()),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            read_weighted_edge_list("1 2".as_bytes()),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            read_weighted_edge_list("1 2 zebra".as_bytes()),
            Err(IoError::Parse(1, _))
        ));
        // Error display contains the line number.
        let err = read_weighted_edge_list("ok ok ok".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.25), (1, 2, 0.5), (2, 3, 0.75)]);
        let mut text = format!("# {} nodes, {} edges\n", g.num_nodes(), g.num_edges());
        for (i, &(u, v)) in g.graph().edges().iter().enumerate() {
            text += &format!("{u} {v} {}\n", g.prob(i));
        }
        let (g2, labels) = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(labels.len(), 4);
        assert_eq!(g2.num_edges(), 3);
        for (i, &(u, v)) in g.graph().edges().iter().enumerate() {
            // Map original ids through labels to compare probabilities.
            let lu = labels.iter().position(|&l| l == u).unwrap() as NodeId;
            let lv = labels.iter().position(|&l| l == v).unwrap() as NodeId;
            assert_eq!(g2.edge_prob(lu, lv), Some(g.prob(i)));
        }
    }

    #[test]
    fn delta_parse_grammar_and_duplicates() {
        let parse = |text: &str| DeltaLines::new(text.as_bytes()).collect::<Result<Vec<_>, _>>();
        // Comment and blank lines are skipped but still numbered.
        let muts = parse("# batch\n1 2 0.5\n\n2 3 -\n4 1 1.0\n").unwrap();
        assert_eq!(
            muts,
            vec![
                (2, (1, 2, Some(0.5))),
                (4, (2, 3, None)),
                (5, (4, 1, Some(1.0)))
            ]
        );
        // Duplicate canonical keys are rejected with the offending line.
        let err = parse("1 2 0.5\n# ok\n2 1 -\n").unwrap_err();
        assert!(matches!(err, IoError::Parse(3, _)), "{err}");
        assert!(err.to_string().contains("duplicate edge"), "{err}");
        // Shared validation path: same rules as weighted edge lists.
        assert!(matches!(parse("1 1 0.5"), Err(IoError::Parse(1, _))));
        assert!(matches!(parse("1 2 1.5"), Err(IoError::Parse(1, _))));
        assert!(matches!(parse("1 2"), Err(IoError::Parse(1, _))));
        // `-` is only a delete marker in the probability position.
        assert!(matches!(parse("- 2 0.5"), Err(IoError::Parse(1, _))));
    }

    #[test]
    fn delta_apply_maps_labels_and_allocates_nodes() {
        let (g, mut labels) =
            read_weighted_edge_list("10 20 0.5\n20 30 0.25\n".as_bytes()).unwrap();
        let mut d = crate::dynamic::DeltaGraph::from_graph(g);
        let done = apply_edge_list_delta(
            &mut d,
            &mut labels,
            "10 20 0.9\n10 30 0.3\n30 40 0.8\n20 30 -\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(done.stats.reweighted, 1);
        assert_eq!(done.stats.inserted, 2);
        assert_eq!(done.stats.deleted, 1);
        assert_eq!(done.stats.nodes_added, 1);
        assert_eq!(done.generation, 1);
        assert_eq!(labels, vec![10, 20, 30, 40]);
        assert_eq!(d.edge_prob(0, 1), Some(0.9));
        assert_eq!(d.edge_prob(0, 2), Some(0.3));
        assert_eq!(d.edge_prob(2, 3), Some(0.8));
        assert_eq!(d.edge_prob(1, 2), None);
    }

    #[test]
    fn delta_apply_is_atomic_on_error() {
        let (g, mut labels) = read_weighted_edge_list("10 20 0.5\n".as_bytes()).unwrap();
        let mut d = crate::dynamic::DeltaGraph::from_graph(g);
        // Line 2 deletes an unknown label: nothing may change.
        let err = apply_edge_list_delta(&mut d, &mut labels, "10 20 0.9\n10 99 -\n".as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("unknown node label 99"), "{err}");
        assert_eq!(d.generation(), 0);
        assert_eq!(d.edge_prob(0, 1), Some(0.5));
        assert_eq!(labels, vec![10, 20]);
        // Deleting a known-label but absent edge is also line-attributed.
        let mut more = labels.clone();
        let err =
            apply_edge_list_delta(&mut d, &mut more, "# no-op\n20 10 -\n10 20 -\n".as_bytes())
                .unwrap_err();
        // (duplicate key check fires first here, on line 3)
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = apply_edge_list_delta(&mut d, &mut more, "30 40 0.5\n10 20 -\n".as_bytes());
        assert!(err.is_ok(), "independent delete after inserts is fine");
        assert_eq!(d.generation(), 1);
        assert!(!d.has_edge(0, 1));
    }

    #[test]
    fn delta_lines_streams_and_fuses_on_error() {
        let mut it = DeltaLines::new("1 2 0.5\n2 1 -\n3 4 0.1\n".as_bytes());
        assert_eq!(it.next().unwrap().unwrap(), (1, (1, 2, Some(0.5))));
        let err = it.next().unwrap().unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // Fused after the duplicate-key error: line 3 is never yielded.
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }

    #[test]
    fn crc32_known_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 0.1 + 0.2), (1, 2, 1.0 / 3.0), (2, 3, 0.75)],
        );
        let mut buf = Vec::new();
        write_graph_checkpoint(&mut buf, &g, &[7, 8, 9, 10], 42).unwrap();
        let (g2, labels, generation) = read_graph_checkpoint(buf.as_slice()).unwrap();
        assert_eq!(generation, 42);
        assert_eq!(labels, vec![7, 8, 9, 10]);
        assert_eq!(g2.num_nodes(), 4);
        for (i, &(u, v)) in g.graph().edges().iter().enumerate() {
            // Bit-exact probabilities, not just approximately equal.
            assert_eq!(
                g2.edge_prob(u, v).map(f64::to_bits),
                Some(g.prob(i).to_bits())
            );
        }
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let g = UncertainGraph::from_weighted_edges(2, &[(0, 1, 0.5)]);
        let mut buf = Vec::new();
        write_graph_checkpoint(&mut buf, &g, &[1, 2], 3).unwrap();
        // Flip one byte anywhere in the body: CRC must catch it.
        for at in [0, 9, buf.len() / 2, buf.len() - 5] {
            let mut bad = buf.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(
                    read_graph_checkpoint(bad.as_slice()),
                    Err(IoError::Corrupt(_))
                ),
                "byte flip at {at} not detected"
            );
        }
        // Truncations (torn writes) are also rejected.
        for cut in [0, 4, buf.len() - 1] {
            assert!(matches!(
                read_graph_checkpoint(&buf[..cut]),
                Err(IoError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn edge_list_roundtrip_keeps_counts() {
        // The edge list of a 3-node, 2-edge graph, header comment included.
        let text = "# 3 nodes, 2 edges\n0 2 0.4\n1 2 0.6\n";
        let (g, _) = read_weighted_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }
}
