//! Matrix Market (`.mtx`) I/O.
//!
//! The original PanguLU artifact only accepts Matrix Market files; we
//! support the `matrix coordinate` variants used by the SuiteSparse
//! collection: `real`/`integer`/`pattern` fields with `general`/`symmetric`/
//! `skew-symmetric` symmetry.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use crate::{CooMatrix, CscMatrix, Result, SparseError};

/// Most entries a reader reserves room for on the word of a size line;
/// beyond it storage grows from the entries actually read, so a hostile
/// header cannot make the reader allocate.
const RESERVE_CAP: usize = 1 << 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a Matrix Market file from disk.
pub fn read_matrix_market(path: impl AsRef<Path>) -> Result<CscMatrix> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Parses Matrix Market data from any reader.
///
/// # Examples
/// ```
/// let data = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 5.0\n";
/// let m = pangulu_sparse::io::read_matrix_market_from(data.as_bytes()).unwrap();
/// assert_eq!(m.get(1, 1), 5.0);
/// ```
pub fn read_matrix_market_from(reader: impl BufRead) -> Result<CscMatrix> {
    let mut lines = reader.lines();

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break line;
                }
            }
            None => return Err(SparseError::Parse("empty file".into())),
        }
    };
    let tokens: Vec<String> = header.split_whitespace().map(|t| t.to_ascii_lowercase()).collect();
    if tokens.len() < 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse(format!("bad header line: {header}")));
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse(format!(
            "unsupported format {} (only coordinate)",
            tokens[2]
        )));
    }
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(SparseError::Parse(format!("unsupported field {other}"))),
    };
    let symmetry = match tokens[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => return Err(SparseError::Parse(format!("unsupported symmetry {other}"))),
    };

    // Size line (first non-comment, non-empty line).
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => return Err(SparseError::Parse("missing size line".into())),
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| SparseError::Parse(format!("bad size token {t}"))))
        .collect::<Result<_>>()?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!("size line needs 3 numbers: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    // The CSC column pointer holds `ncols + 1` words; refuse a column
    // count whose pointer array could not even be sized.
    if ncols.checked_add(1).is_none_or(|c| std::alloc::Layout::array::<usize>(c).is_err()) {
        return Err(SparseError::Parse(format!("column count {ncols} is too large")));
    }

    let stored = if symmetry == Symmetry::General { nnz } else { nnz.saturating_mul(2) };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, stored.min(RESERVE_CAP));
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse(format!("bad entry line: {t}")))?
            .parse()
            .map_err(|_| SparseError::Parse(format!("bad row index in: {t}")))?;
        let j: usize = it
            .next()
            .ok_or_else(|| SparseError::Parse(format!("bad entry line: {t}")))?
            .parse()
            .map_err(|_| SparseError::Parse(format!("bad col index in: {t}")))?;
        if i == 0 || j == 0 {
            return Err(SparseError::Parse("matrix market indices are 1-based".into()));
        }
        let v: f64 = match field {
            Field::Pattern => 1.0,
            _ => it
                .next()
                .ok_or_else(|| SparseError::Parse(format!("missing value in: {t}")))?
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad value in: {t}")))?,
        };
        let (r, c) = (i - 1, j - 1);
        coo.push(r, c, v)?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c => coo.push(c, r, v)?,
            Symmetry::SkewSymmetric if r != c => coo.push(c, r, -v)?,
            _ => {}
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csc())
}

/// Writes a matrix as `matrix coordinate real general` to disk.
pub fn write_matrix_market(path: impl AsRef<Path>, a: &CscMatrix) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_matrix_market_to(BufWriter::new(file), a)
}

/// Writes Matrix Market data to any writer.
pub fn write_matrix_market_to(mut w: impl Write, a: &CscMatrix) -> Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by pangulu-sparse")?;
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), a.nnz())?;
    for (r, c, v) in a.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let data =
            "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n1 1 4.0\n3 2 -1.5\n";
        let m = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(2, 1), -1.5);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn parse_symmetric_mirrors_entries() {
        let data = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 5.0\n";
        let m = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn parse_skew_symmetric_negates() {
        let data = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 5.0\n";
        let m = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(m.get(1, 0), 5.0);
        assert_eq!(m.get(0, 1), -5.0);
    }

    #[test]
    fn parse_pattern_gives_unit_values() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_matrix_market_from(data.as_bytes()).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market_from("%%NotMM\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market_from(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let data = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix_market_from(data.as_bytes()).is_err());
    }

    fn parse_error(r: Result<impl std::fmt::Debug>) -> String {
        match r {
            Err(SparseError::Parse(msg)) => msg,
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn column_count_overflowing_the_pointer_array_is_a_parse_error() {
        let max = usize::MAX;
        for ncols in [max, max - 1, 1 << 62, (isize::MAX as usize) / 8] {
            let data = format!(
                "%%MatrixMarket matrix coordinate real general\n{max} {ncols} 1\n1 1 1.0\n"
            );
            let msg = parse_error(read_matrix_market_from(data.as_bytes()));
            assert!(msg.contains("column count"), "{msg}");
        }
    }

    #[test]
    fn huge_entry_count_reserves_nothing_and_is_a_parse_error() {
        let max = usize::MAX;
        for symmetry in ["general", "symmetric", "skew-symmetric"] {
            let data =
                format!("%%MatrixMarket matrix coordinate real {symmetry}\n2 2 {max}\n1 1 1.0\n");
            let msg = parse_error(read_matrix_market_from(data.as_bytes()));
            assert!(msg.contains(&format!("expected {max} entries, found 1")), "{msg}");
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let m = CscMatrix::from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![4.0, 2.0, 3.0, 1.0, 5.25],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_matrix_market_to(&mut buf, &m).unwrap();
        let back = read_matrix_market_from(buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }
}
