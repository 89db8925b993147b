//! Plain-text edge-list serialization, so workloads and results can be
//! exchanged with other tools.
//!
//! Format: one `# n <count>` header line, then one `u v [w]` line per
//! edge (whitespace separated, `#`-comments and blank lines ignored).
//! Directed graphs use the same format; direction is tail then head.
//!
//! Parsing *normalizes* through [`crate::canon::KeyBuilder`]: self-loop
//! lines are dropped and repeated edges keep only their first
//! occurrence (first weight wins), so a parsed graph always satisfies
//! the simple-graph invariants and its [`crate::canon::graph_hash`]
//! agrees with the hash of any other spelling of the same edge set.

use std::num::ParseIntError;

use crate::canon::{CanonicalEdges, KeyBuilder};
use crate::{DiGraph, EdgeWeights, Graph, VertexId};

/// Errors from [`parse_edge_list`] / [`parse_directed_edge_list`].
#[derive(Debug, PartialEq, Eq)]
pub enum ParseGraphError {
    /// The `# n <count>` header is missing or malformed.
    MissingHeader,
    /// A data line did not have 2 or 3 fields.
    BadLine(usize),
    /// A field was not an integer.
    BadNumber(usize),
    /// An endpoint was `>=` the header's vertex count.
    VertexOutOfRange(usize),
    /// Edge lines mixed weighted and unweighted entries.
    InconsistentWeights,
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseGraphError::MissingHeader => write!(f, "missing `# n <count>` header"),
            ParseGraphError::BadLine(l) => write!(f, "malformed edge on line {l}"),
            ParseGraphError::BadNumber(l) => write!(f, "invalid number on line {l}"),
            ParseGraphError::VertexOutOfRange(l) => {
                write!(f, "vertex id out of range on line {l}")
            }
            ParseGraphError::InconsistentWeights => {
                write!(f, "some edges have weights and some do not")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {}

impl From<(usize, ParseIntError)> for ParseGraphError {
    fn from((line, _): (usize, ParseIntError)) -> Self {
        ParseGraphError::BadNumber(line)
    }
}

/// Appends the decimal digits of `x` to `out`: the bytes
/// `write!(out, "{x}")` appends, without the formatting machinery.
pub fn write_decimal(out: &mut String, x: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = x;
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Writes the `# n` header and one line per `(u, v, weight)` row.
fn write_rows(
    out: &mut String,
    n: usize,
    rows: impl Iterator<Item = (VertexId, VertexId, Option<u64>)>,
) {
    out.push_str("# n ");
    write_decimal(out, n as u64);
    out.push('\n');
    for (u, v, w) in rows {
        write_decimal(out, u as u64);
        out.push(' ');
        write_decimal(out, v as u64);
        if let Some(w) = w {
            out.push(' ');
            write_decimal(out, w);
        }
        out.push('\n');
    }
}

/// Serializes a graph (optionally weighted) as an edge list.
pub fn to_edge_list(g: &Graph, w: Option<&EdgeWeights>) -> String {
    let mut out = String::new();
    write_rows(
        &mut out,
        g.num_vertices(),
        g.edges().map(|(e, u, v)| (u, v, w.map(|w| w.get(e)))),
    );
    out
}

/// Serializes a directed graph as an edge list (tail head per line).
pub fn to_directed_edge_list(g: &DiGraph) -> String {
    let mut out = String::new();
    write_rows(
        &mut out,
        g.num_vertices(),
        g.edges().map(|(_, u, v)| (u, v, None)),
    );
    out
}

/// One data line: its number, its fields and how many there are (2
/// or 3).
type Row = (usize, [u64; 3], usize);

/// A cursor over an edge list's bytes. Lines end at `\n`, and fields
/// are split where `str::split_whitespace` splits them: at every
/// `char` with `char::is_whitespace`. It reads bytes and decodes a
/// `char` only at a byte of 0x80 or more, to test that property.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Whether the byte at the cursor starts whitespace, and the length
    /// of its `char`; `None` at the end of the text.
    fn space(&self) -> Option<(bool, usize)> {
        let b = *self.text.as_bytes().get(self.pos)?;
        Some(match b {
            b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r' => (true, 1),
            0..=0x7f => (false, 1),
            _ => self.text[self.pos..]
                .chars()
                .next()
                .map_or((false, 1), |c| (c.is_whitespace(), c.len_utf8())),
        })
    }

    /// Moves past whitespace within the line: `true` at the first byte
    /// of a field, `false` at a `\n` or the end of the text.
    fn next_field(&mut self) -> bool {
        while let Some((space, len)) = self.space() {
            if !space {
                return true;
            }
            if self.text.as_bytes()[self.pos] == b'\n' {
                return false;
            }
            self.pos += len;
        }
        false
    }

    /// Moves past the rest of the field at the cursor.
    fn skip_field(&mut self) {
        while let Some((false, len)) = self.space() {
            self.pos += len;
        }
    }

    /// The field at the cursor as text; the cursor moves past it.
    fn text(&mut self) -> &'a str {
        let start = self.pos;
        self.skip_field();
        &self.text[start..self.pos]
    }

    /// The field at the cursor read as `u64::from_str` reads it: one
    /// optional `+`, then ASCII digits, without overflow. The cursor
    /// moves past the field either way.
    fn number(&mut self) -> Option<u64> {
        let bytes = self.text.as_bytes();
        if bytes.get(self.pos) == Some(&b'+') {
            self.pos += 1;
        }
        let start = self.pos;
        let mut value = Some(0u64);
        while let Some(d) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            value = value
                .and_then(|x| x.checked_mul(10))
                .and_then(|x| x.checked_add(u64::from(d)));
            self.pos += 1;
        }
        if let Some((false, _)) = self.space() {
            self.skip_field();
            return None;
        }
        value.filter(|_| self.pos > start)
    }

    /// After the `#` of a comment line: `Some` when the rest of the
    /// line is exactly the two fields `n <count>`, holding the count if
    /// it is a number.
    fn header(&mut self) -> Option<Option<u64>> {
        if !(self.next_field() && self.text() == "n" && self.next_field()) {
            return None;
        }
        let count = self.number();
        (!self.next_field()).then_some(count)
    }

    /// Moves to the `\n` that ends the line, or to the end of the text.
    fn skip_line(&mut self) {
        self.pos = self.text[self.pos..]
            .find('\n')
            .map_or(self.text.len(), |i| self.pos + i);
    }
}

/// Splits an edge list into its `# n` count and its data lines: blank
/// lines are skipped, a line whose first field starts with `#` is a
/// comment, the first comment that reads `# n <count>` is the header,
/// and every other line must hold two or three numbers.
fn parse_lines(text: &str) -> Result<(usize, Vec<Row>), ParseGraphError> {
    let mut n: Option<usize> = None;
    let mut rows = Vec::new();
    let mut s = Scanner { text, pos: 0 };
    let mut line_no = 1;
    while s.pos < text.len() {
        if !s.next_field() {
            if s.pos < text.len() {
                // At the `\n` ending this line.
                s.pos += 1;
                line_no += 1;
            }
            continue;
        }
        if text.as_bytes()[s.pos] == b'#' {
            s.pos += 1;
            if n.is_none() {
                if let Some(count) = s.header() {
                    let count = count.and_then(|c| usize::try_from(c).ok());
                    n = Some(count.ok_or(ParseGraphError::BadNumber(line_no))?);
                }
            }
            s.skip_line();
            continue;
        }
        // A fourth field or a missing second one is a bad line before
        // any field is a bad number.
        let mut nums = [0u64; 3];
        let mut arity = 0;
        let mut numbers = true;
        loop {
            if arity == 3 {
                return Err(ParseGraphError::BadLine(line_no));
            }
            match s.number() {
                Some(x) => nums[arity] = x,
                None => numbers = false,
            }
            arity += 1;
            if !s.next_field() {
                break;
            }
        }
        if arity < 2 {
            return Err(ParseGraphError::BadLine(line_no));
        }
        if !numbers {
            return Err(ParseGraphError::BadNumber(line_no));
        }
        rows.push((line_no, nums, arity));
    }
    let n = n.ok_or(ParseGraphError::MissingHeader)?;
    Ok((n, rows))
}

/// Parses an edge list straight into canonical form: the sorted,
/// deduplicated keys plus the permutation back to the submitted edge
/// ids, with the [`KeyBuilder`] normalization and no graph built.
/// `directed` reads each line as tail then head.
pub fn parse_canonical_edge_list(
    text: &str,
    directed: bool,
) -> Result<CanonicalEdges, ParseGraphError> {
    let (n, rows) = parse_lines(text)?;
    let mut builder = KeyBuilder::new(n, directed);
    for (line, nums, arity) in &rows {
        builder.push_row(*line, &nums[..*arity])?;
    }
    builder.finish()
}

/// Parses an undirected edge list; returns the graph and, when every
/// line carries a third field, the weights.
///
/// Self-loop lines are skipped and repeated edges (in either endpoint
/// order) keep only their first occurrence, so the result is always a
/// valid simple graph whose canonical hash matches any other spelling
/// of the same edge set.
pub fn parse_edge_list(text: &str) -> Result<(Graph, Option<EdgeWeights>), ParseGraphError> {
    let c = parse_canonical_edge_list(text, false)?;
    Ok((c.submitted_graph(), c.submitted_weights()))
}

/// Parses a directed edge list, with the same normalization as
/// [`parse_edge_list`] (directed: `(u, v)` and `(v, u)` are distinct).
pub fn parse_directed_edge_list(text: &str) -> Result<DiGraph, ParseGraphError> {
    Ok(parse_canonical_edge_list(text, true)?.submitted_digraph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canon, gen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_unweighted() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gen::gnp_connected(20, 0.2, &mut rng);
        let text = to_edge_list(&g, None);
        let (parsed, w) = parse_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
        assert!(w.is_none());
    }

    #[test]
    fn roundtrip_weighted() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::gnp_connected(15, 0.25, &mut rng);
        let w = gen::random_weights(g.num_edges(), 0, 9, &mut rng);
        let text = to_edge_list(&g, Some(&w));
        let (parsed, parsed_w) = parse_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
        assert_eq!(parsed_w, Some(w));
    }

    #[test]
    fn roundtrip_directed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_digraph_connected(12, 0.15, &mut rng);
        let text = to_directed_edge_list(&g);
        let parsed = parse_directed_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# n 3\n\n# a comment\n0 1\n1 2\n";
        let (g, _) = parse_edge_list(text).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn row_builders_agree_with_text_parsers() {
        // The row builder is the same normalization as the text
        // parsers: same graph, same edge ids, same errors.
        let build = |n: usize, directed: bool, rows: &[&[u64]]| {
            let mut b = KeyBuilder::new(n, directed);
            for (i, row) in rows.iter().enumerate() {
                b.push_row(i + 1, row)?;
            }
            b.finish()
        };
        let noisy: &[&[u64]] = &[&[0, 1], &[1, 1], &[1, 2], &[1, 0], &[2, 3], &[3, 2]];
        let from_rows = build(4, false, noisy).unwrap();
        let (from_text, _) = parse_edge_list("# n 4\n0 1\n1 1\n1 2\n1 0\n2 3\n3 2\n").unwrap();
        assert_eq!(from_rows.submitted_graph(), from_text);
        assert_eq!(from_rows.submitted_weights(), None);
        let weighted = build(3, false, &[&[1, 2, 7], &[0, 1, 5]]).unwrap();
        assert_eq!(weighted.keys.keys(), &[(0, 1), (1, 2)]);
        assert_eq!(weighted.keys.weights(), Some(&[5, 7][..]));
        assert_eq!(weighted.from_canonical, vec![1, 0]);
        assert_eq!(
            weighted.submitted_weights(),
            Some(EdgeWeights::from_vec(vec![7, 5]))
        );
        let d = build(3, true, &[&[0, 1], &[1, 0], &[0, 1]]).unwrap();
        assert_eq!(d.keys.num_edges(), 2, "directed keeps both orientations");
        // Errors carry 1-based row positions, like text line numbers.
        assert_eq!(
            build(3, false, &[&[0, 1], &[0]]),
            Err(ParseGraphError::BadLine(2))
        );
        assert_eq!(
            build(3, false, &[&[0, 5]]),
            Err(ParseGraphError::VertexOutOfRange(1))
        );
        assert_eq!(
            build(3, false, &[&[0, 1, 9], &[1, 2]]),
            Err(ParseGraphError::InconsistentWeights)
        );
    }

    #[test]
    fn self_loops_and_duplicates_are_normalized_away() {
        // The same graph three ways: clean, noisy, and reordered.
        let clean = "# n 4\n0 1\n1 2\n2 3\n";
        let noisy = "# n 4\n0 1\n1 1\n1 2\n1 0\n2 3\n3 2\n";
        let reordered = "# n 4\n2 3\n1 2\n1 0\n";
        let (g_clean, _) = parse_edge_list(clean).unwrap();
        let (g_noisy, _) = parse_edge_list(noisy).unwrap();
        let (g_reordered, _) = parse_edge_list(reordered).unwrap();
        // First occurrences in order: the noisy parse equals the clean
        // one edge-id for edge-id.
        assert_eq!(g_noisy, g_clean);
        // Parsing and hashing agree: every spelling hashes alike.
        let h = canon::graph_hash(&g_clean);
        assert_eq!(canon::graph_hash(&g_noisy), h);
        assert_eq!(canon::graph_hash(&g_reordered), h);
    }

    #[test]
    fn weighted_duplicates_keep_first_weight() {
        let text = "# n 3\n0 1 5\n1 0 9\n1 2 7\n";
        let (g, w) = parse_edge_list(text).unwrap();
        assert_eq!(g.num_edges(), 2);
        let w = w.unwrap();
        assert_eq!(w.get(g.edge_id(0, 1).unwrap()), 5);
        assert_eq!(w.get(g.edge_id(1, 2).unwrap()), 7);
    }

    #[test]
    fn dropped_lines_do_not_poison_weight_consistency() {
        // The unweighted self-loop and the unweighted duplicate are
        // both dropped by normalization, so the surviving edge set is
        // uniformly weighted and must parse.
        let text = "# n 3\n0 1 5\n1 1\n0 1\n1 2 7\n";
        let (g, w) = parse_edge_list(text).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(w.unwrap().get(g.edge_id(0, 1).unwrap()), 5);
        // Inconsistency among *surviving* lines still errors.
        assert_eq!(
            parse_edge_list("# n 3\n0 1 5\n1 2\n"),
            Err(ParseGraphError::InconsistentWeights)
        );
    }

    #[test]
    fn directed_normalization_keeps_antiparallel_pairs() {
        let text = "# n 3\n0 1\n1 0\n0 0\n0 1\n";
        let g = parse_directed_edge_list(text).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn roundtrip_is_canonical_hash_stable() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::gnp_connected(18, 0.3, &mut rng);
        let w = gen::random_weights(g.num_edges(), 1, 9, &mut rng);
        // serialize -> parse -> serialize is a fixed point, and every
        // stage agrees on the canonical hash.
        let text = to_edge_list(&g, Some(&w));
        let (parsed, parsed_w) = parse_edge_list(&text).unwrap();
        assert_eq!(to_edge_list(&parsed, parsed_w.as_ref()), text);
        assert_eq!(
            canon::weighted_graph_hash(&parsed, parsed_w.as_ref().unwrap()),
            canon::weighted_graph_hash(&g, &w)
        );
        let dtext = to_directed_edge_list(&gen::random_digraph_connected(10, 0.2, &mut rng));
        let dg = parse_directed_edge_list(&dtext).unwrap();
        assert_eq!(to_directed_edge_list(&dg), dtext);
    }

    #[test]
    fn decimal_writer_matches_format() {
        let mut values = vec![0, 9, 10, u64::MAX, u64::MAX - 1];
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, next - 1]);
            power = next;
        }
        values.push(power);
        for x in values {
            let mut out = String::from("x");
            write_decimal(&mut out, x);
            assert_eq!(out, format!("x{x}"));
        }
    }

    #[test]
    fn scanner_reads_what_from_str_and_split_whitespace_read() {
        // Signs and leading zeros as `u64::from_str` takes them, every
        // `char::is_whitespace` as a separator, `\r\n` line ends.
        let text = "#\u{a0}n +004\r\n+0 001\u{85}\r\n\u{b}1\u{2003}2\u{c}\n\u{3000}\n";
        let c = parse_canonical_edge_list(text, false).unwrap();
        assert_eq!(c.keys.num_vertices(), 4);
        assert_eq!(c.keys.keys(), &[(0, 1), (1, 2)]);
        for (text, err) in [
            ("# n 4\n0 \u{661}\n", ParseGraphError::BadNumber(2)),
            ("# n 4\n0 ++1\n", ParseGraphError::BadNumber(2)),
            ("# n 4\n0 +\n", ParseGraphError::BadNumber(2)),
            ("# n 4\n0 -0\n", ParseGraphError::BadNumber(2)),
            ("# n 4\r\n\r\n0 x 1 2\n", ParseGraphError::BadLine(3)),
            ("# n 4\nx\n", ParseGraphError::BadLine(2)),
            ("# n +\n", ParseGraphError::BadNumber(1)),
            (
                "# n 4\n0 18446744073709551616\n",
                ParseGraphError::BadNumber(2),
            ),
        ] {
            assert_eq!(parse_canonical_edge_list(text, false), Err(err), "{text:?}");
        }
        // A comment that is not exactly `n <count>` is no header.
        assert_eq!(
            parse_canonical_edge_list("# n x y\n# n 2\n0 1\n", false)
                .map(|c| c.keys.num_vertices()),
            Ok(2)
        );
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(
            parse_edge_list("0 1\n"),
            Err(ParseGraphError::MissingHeader)
        );
        assert_eq!(
            parse_edge_list("# n 3\n0\n"),
            Err(ParseGraphError::BadLine(2))
        );
        assert_eq!(
            parse_edge_list("# n 3\n0 x\n"),
            Err(ParseGraphError::BadNumber(2))
        );
        assert_eq!(
            parse_edge_list("# n 3\n0 1 5\n1 2\n"),
            Err(ParseGraphError::InconsistentWeights)
        );
        assert_eq!(
            parse_edge_list("# n 3\n0 3\n"),
            Err(ParseGraphError::VertexOutOfRange(2))
        );
        assert_eq!(
            parse_directed_edge_list("# n 2\n5 0\n"),
            Err(ParseGraphError::VertexOutOfRange(2))
        );
    }
}
