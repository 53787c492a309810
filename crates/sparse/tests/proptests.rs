//! Property tests of the sparse substrate.

use proptest::prelude::*;

use pangulu_sparse::ops::{self, ensure_diagonal, symmetrize};
use pangulu_sparse::permute::{permute_symmetric, scale};
use pangulu_sparse::{CooMatrix, CscMatrix, Permutation};

/// Strategy: a random matrix as (n, entry list); indices are reduced
/// modulo n on construction.
fn matrix_inputs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..28).prop_flat_map(|n| {
        (Just(n), proptest::collection::vec((0usize..64, 0usize..64, -5.0f64..5.0), 0..150))
    })
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(i, j, v) in entries {
        coo.push(i % n, j % n, v).unwrap();
    }
    coo.to_csc()
}

fn perm_of(n: usize, shuffle_seed: usize) -> Permutation {
    // A deterministic pseudo-shuffle: stride by a unit coprime to n.
    let mut stride = (shuffle_seed % n).max(1);
    while gcd(stride, n) != 1 {
        stride = stride % n + 1;
    }
    Permutation::from_vec((0..n).map(|i| (i * stride) % n).collect()).unwrap()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A size or index token for the Matrix Market readers: mostly small,
/// otherwise one whose arithmetic overflows (`n + 1`, `8·(n + 1)`,
/// `2·n`, `rows · cols`) or that is no count at all. Every large column
/// count here is one the reader must refuse, so no case allocates by a
/// header's word.
fn mm_count() -> impl Strategy<Value = String> {
    const HOSTILE: [&str; 8] = [
        "18446744073709551615",
        "18446744073709551614",
        "4611686018427387904",
        "9223372036854775808",
        "1152921504606846975",
        "-1",
        "1.5",
        "x",
    ];
    (0usize..16).prop_map(|i| if i < 8 { (i % 5).to_string() } else { HOSTILE[i - 8].to_string() })
}

fn mm_value() -> impl Strategy<Value = &'static str> {
    const VALUES: [&str; 6] = ["1.5", "-2", "0", "nan", "inf", "x"];
    (0usize..VALUES.len()).prop_map(|i| VALUES[i])
}

/// Entry or value lines: up to five of them, each `i j v` (a pattern
/// file ignores `v`; a short line is its own error).
fn mm_lines() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (mm_count(), mm_count(), mm_value(), 0usize..4)
            .prop_map(|(i, j, v, cut)| [i, j, v.to_string()][..3 - cut.min(2)].join(" ")),
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the size line and entry lines say, the coordinate reader
    /// returns a valid matrix or an error; it never panics.
    #[test]
    fn matrix_market_reader_never_panics_on_hostile_sizes(
        (field, symmetry) in (0usize..3, 0usize..3),
        size in proptest::collection::vec(mm_count(), 2..5),
        lines in mm_lines(),
    ) {
        let field = ["real", "integer", "pattern"][field];
        let symmetry = ["general", "symmetric", "skew-symmetric"][symmetry];
        let text = format!(
            "%%MatrixMarket matrix coordinate {field} {symmetry}\n{}\n{}\n",
            size.join(" "),
            lines.join("\n")
        );
        if let Ok(m) = pangulu_sparse::io::read_matrix_market_from(text.as_bytes()) {
            m.validate().unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coo_to_csc_is_valid_and_sums_duplicates((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        m.validate().unwrap();
        // Sum duplicates by hand and compare one random position.
        if let Some(&(i, j, _)) = entries.first() {
            let (i, j) = (i % n, j % n);
            let want: f64 = entries
                .iter()
                .filter(|&&(a, b, _)| (a % n, b % n) == (i, j))
                .map(|&(_, _, v)| v)
                .sum();
            prop_assert!((m.get(i, j) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_involutive((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn csr_roundtrip_is_identity((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        prop_assert_eq!(m.to_csr().to_csc(), m);
    }

    #[test]
    fn symmetrize_produces_symmetric_pattern((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        let s = symmetrize(&m).unwrap();
        prop_assert!((ops::structural_symmetry(&s) - 1.0).abs() < 1e-15);
        // Values: s[i][j] = m[i][j] + m[j][i].
        for (r, c, v) in s.iter() {
            prop_assert!((v - (m.get(r, c) + m.get(c, r))).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_permutation_preserves_entries(
        (n, entries) in matrix_inputs(),
        seed in 1usize..50,
    ) {
        let m = build(n, &entries);
        let p = perm_of(n, seed);
        let b = permute_symmetric(&m, &p).unwrap();
        b.validate().unwrap();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(b.get(i, j), m.get(p.old_of(i), p.old_of(j)));
            }
        }
    }

    #[test]
    fn scaling_then_unscaling_roundtrips((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        let dr: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let dc: Vec<f64> = (0..n).map(|i| 2.0 + i as f64).collect();
        let s = scale(&m, &dr, &dc).unwrap();
        let inv_r: Vec<f64> = dr.iter().map(|v| 1.0 / v).collect();
        let inv_c: Vec<f64> = dc.iter().map(|v| 1.0 / v).collect();
        let back = scale(&s, &inv_r, &inv_c).unwrap();
        for ((r, c, v), (_, _, w)) in m.iter().zip(back.iter()) {
            let _ = (r, c);
            prop_assert!((v - w).abs() < 1e-10 * v.abs().max(1.0));
        }
    }

    #[test]
    fn ensure_diagonal_is_idempotent((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        let d1 = ensure_diagonal(&m).unwrap();
        let d2 = ensure_diagonal(&d1).unwrap();
        prop_assert!(d1.has_full_diagonal());
        prop_assert_eq!(d1, d2);
    }

    #[test]
    fn spmv_is_linear((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| 0.5 * i as f64 + 1.0).collect();
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let m_xy = ops::spmv(&m, &xy).unwrap();
        let mx = ops::spmv(&m, &x).unwrap();
        let my = ops::spmv(&m, &y).unwrap();
        for i in 0..n {
            prop_assert!((m_xy[i] - mx[i] - my[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn matrix_market_roundtrip((n, entries) in matrix_inputs()) {
        let m = build(n, &entries);
        let mut buf = Vec::new();
        pangulu_sparse::io::write_matrix_market_to(&mut buf, &m).unwrap();
        let back = pangulu_sparse::io::read_matrix_market_from(buf.as_slice()).unwrap();
        prop_assert_eq!(m, back);
    }
}
