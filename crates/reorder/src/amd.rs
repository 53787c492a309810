//! Approximate minimum degree (AMD) ordering on a compact quotient graph.
//!
//! The Amestoy–Davis–Duff scheme that AMD and METIS' leaf orderings use.
//! Eliminated pivots stay in the graph as *elements* (the clique of their
//! neighbours) instead of fill edges, and variables and elements share one
//! flat arena `iw` that never holds more than the input graph plus the
//! element under construction; it is compacted in place when it runs out.
//!
//! * **Approximate external degrees.** Eliminating pivot `p` forms element
//!   `Lp`. One pass over the element lists of the variables in `Lp` yields
//!   `|Le \ Lp|` for every element `e` they touch; the degree of `i ∈ Lp`
//!   is then bounded by `|Ai| + |Lp \ i| + Σ |Le \ Lp|` (and by its old
//!   bound plus `|Lp \ i|`, and by the variables left) without visiting
//!   the members of any `Le` again.
//! * **Element absorption.** Elements of the pivot are absorbed into `Lp`;
//!   an element with `Le \ Lp = ∅` is absorbed too, even when it is not
//!   adjacent to the pivot (aggressive absorption).
//! * **Supervariables.** Variables of `Lp` are hashed on their adjacency;
//!   those with identical lists merge into one weighted supervariable. A
//!   variable whose only neighbour is `Lp` is eliminated with the pivot
//!   (mass elimination).
//! * **Degree lists** are intrusive doubly linked buckets: moving a
//!   variable between degrees is O(1) and leaves no stale entries.
//! * **Hubs.** A variable whose own list is longer than `√nnz` (`nnz` =
//!   entries of the graph; never a list of 16 or fewer) is taken out of
//!   the graph before the first pivot and ordered last. While a hub of
//!   degree `d` stays in the graph, each elimination of one of its `d`
//!   neighbours rescans its element list and its variable list — about
//!   `d²` list reads over the run — so once `d² > nnz` keeping it costs
//!   more than a pass over the whole input. The regular vertices are then
//!   ordered without seeing the hubs' rows, which is the price: a few
//!   percent of fill on circuit-like graphs, nothing elsewhere.
//!
//! The pivot sequence is the output order. The ordered pattern is
//! `A + Aᵀ` without its diagonal, so a non-symmetric input is accepted.

use crate::Graph;
use pangulu_sparse::{CscMatrix, Permutation, Result};

const NONE: usize = usize::MAX;

/// Computes an approximate-minimum-degree permutation (`perm[new] = old`)
/// of the pattern of `A + Aᵀ`; the diagonal is ignored.
pub fn amd_order(a: &CscMatrix) -> Result<Permutation> {
    let g = Graph::from_pattern(a)?;
    Permutation::from_vec(order_graph(&g.xadj, &g.adj).order)
}

/// An elimination order and what it cost to find.
pub(crate) struct Ordered {
    /// `order[new] = old`.
    pub(crate) order: Vec<usize>,
    /// Hubs set aside before the first pivot; they end the order.
    pub(crate) deferred: usize,
    /// List entries read while ordering — the deterministic work measure
    /// the tests bound by a multiple of the input size.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) scanned: usize,
    /// Times the arena ran out and was compacted.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) compactions: usize,
}

/// Doubly linked degree buckets threaded through `next`/`last`. A
/// variable inside the current pivot's element is in no bucket, and the
/// same two arrays then hold its hash chain and hash value.
struct Buckets {
    head: Vec<usize>,
    next: Vec<usize>,
    last: Vec<usize>,
}

impl Buckets {
    fn insert(&mut self, i: usize, deg: usize) {
        let h = self.head[deg];
        if h != NONE {
            self.last[h] = i;
        }
        self.next[i] = h;
        self.last[i] = NONE;
        self.head[deg] = i;
    }

    fn remove(&mut self, i: usize, deg: usize) {
        let (nx, lt) = (self.next[i], self.last[i]);
        if nx != NONE {
            self.last[nx] = lt;
        }
        if lt != NONE {
            self.next[lt] = nx;
        } else {
            self.head[deg] = nx;
        }
    }
}

/// Appends supervariable `i` — its principal variable and every variable
/// merged into it — to the order.
fn emit(order: &mut Vec<usize>, member_next: &[usize], i: usize) {
    let mut j = i;
    while j != NONE {
        order.push(j);
        j = member_next[j];
    }
}

/// Orders the vertices of a symmetric graph without self-loops or repeated
/// edges (`xadj.len() = n + 1`).
pub(crate) fn order_graph(xadj: &[usize], adj: &[usize]) -> Ordered {
    let n = xadj.len().saturating_sub(1);
    let nnz = adj.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let (mut scanned, mut compactions) = (0usize, 0usize);

    // One arena for every adjacency list. A live object x (variable or
    // element) owns iw[pe[x]..pe[x] + len[x]]; a variable's list starts
    // with its elen[x] elements, its remaining original neighbours follow.
    // nnz + n always suffices (the quotient graph never outgrows the input
    // and a new element has at most n members); the slack postpones
    // compaction.
    let iwlen = nnz + nnz / 5 + n;
    let mut iw = vec![0usize; iwlen];
    iw[..nnz].copy_from_slice(adj);
    let mut pfree = nnz;
    let mut pe: Vec<usize> = xadj[..n].to_vec();
    let mut len: Vec<usize> = (0..n).map(|i| xadj[i + 1] - xadj[i]).collect();
    let mut elen = vec![0usize; n];
    // Supervariable weight: 0 once merged, eliminated or set aside as a
    // hub; negated while the variable is in the pivot's element.
    let mut nv = vec![1isize; n];
    // Variables: approximate external degree. Elements: weighted |Le|.
    let mut degree = len.clone();
    // Elements: 0 when absorbed, otherwise `wflg + |Le \ Lp|` during a
    // pivot and some smaller value between pivots. Variables: stamp.
    let mut w = vec![1usize; n];
    let mut wflg = 2usize;
    let mut lemax = 0usize;
    let mut lists = Buckets { head: vec![NONE; n], next: vec![NONE; n], last: vec![NONE; n] };
    let mut hash_head = vec![NONE; n];
    // Variables merged into a principal variable, as a chain from it.
    let mut member_next = vec![NONE; n];
    let mut member_tail: Vec<usize> = (0..n).collect();

    // Set the hubs aside — keeping a list of d > √nnz entries costs about
    // d² rescans, more than one pass over the input — then file the rest
    // by degree.
    let mut hubs: Vec<usize> =
        (0..n).filter(|&i| len[i] > 16 && len[i].saturating_mul(len[i]) > nnz).collect();
    for &d in &hubs {
        nv[d] = 0;
        pe[d] = NONE;
    }
    for &d in &hubs {
        for &j in &adj[xadj[d]..xadj[d + 1]] {
            degree[j] = degree[j].saturating_sub(1);
        }
    }
    let mut nel = hubs.len();
    for i in (0..n).rev() {
        if nv[i] == 0 {
            continue;
        }
        if degree[i] == 0 {
            // No neighbour left in the graph: an empty element.
            nv[i] = 0;
            pe[i] = NONE;
            w[i] = 0;
            nel += 1;
            order.push(i);
        } else {
            lists.insert(i, degree[i]);
        }
    }
    order.reverse();

    let mut mindeg = 0usize;
    while nel < n {
        while mindeg < n && lists.head[mindeg] == NONE {
            mindeg += 1;
        }
        if mindeg >= n {
            break;
        }
        let me = lists.head[mindeg];
        lists.remove(me, mindeg);
        let elenme = elen[me];
        let mut nvpiv = nv[me];
        nel += nvpiv as usize;
        nv[me] = -nvpiv;
        emit(&mut order, &member_next, me);

        // Form the element Lme = (A_me ∪ ⋃ Le for e ∈ E_me) \ {me}.
        let mut degme = 0isize;
        let mut pme1;
        let pme2;
        if elenme == 0 {
            // No elements: prune the variable list where it lies.
            pme1 = pe[me];
            let mut q = pme1;
            for p in pme1..pme1 + len[me] {
                let i = iw[p];
                let nvi = nv[i];
                if nvi > 0 {
                    degme += nvi;
                    nv[i] = -nvi;
                    iw[q] = i;
                    q += 1;
                    lists.remove(i, degree[i]);
                }
            }
            scanned += len[me];
            pme2 = q;
        } else {
            // Gather into free space, absorbing the elements of me.
            let mut p = pe[me];
            pme1 = pfree;
            let slenme = len[me] - elenme;
            for knt1 in 1..=elenme + 1 {
                let (e, mut pj, ln) = if knt1 > elenme {
                    (me, p, slenme)
                } else {
                    let e = iw[p];
                    p += 1;
                    (e, pe[e], len[e])
                };
                scanned += ln;
                for knt2 in 1..=ln {
                    let i = iw[pj];
                    pj += 1;
                    let nvi = nv[i];
                    if nvi <= 0 {
                        continue;
                    }
                    if pfree >= iwlen {
                        // Out of space: trim the two lists being read to
                        // what is still unread, then compact the arena.
                        pe[me] = p;
                        len[me] -= knt1;
                        if len[me] == 0 {
                            pe[me] = NONE;
                        }
                        pe[e] = pj;
                        len[e] = ln - knt2;
                        if len[e] == 0 {
                            pe[e] = NONE;
                        }
                        (pme1, pfree) = compact(&mut iw, &mut pe, &len, pme1, pfree);
                        scanned += pfree;
                        compactions += 1;
                        pj = pe[e];
                        p = pe[me];
                    }
                    degme += nvi;
                    nv[i] = -nvi;
                    iw[pfree] = i;
                    pfree += 1;
                    lists.remove(i, degree[i]);
                }
                if e != me {
                    pe[e] = NONE;
                    w[e] = 0;
                }
            }
            pme2 = pfree;
        }
        degree[me] = degme as usize;
        pe[me] = pme1;
        len[me] = pme2 - pme1;

        // Pass 1: w[e] - wflg = |Le \ Lme| for every element e adjacent to
        // a variable of Lme.
        for pme in pme1..pme2 {
            let i = iw[pme];
            let eln = elen[i];
            let nvi = (-nv[i]) as usize;
            for &e in &iw[pe[i]..pe[i] + eln] {
                if w[e] >= wflg {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wflg - nvi;
                }
            }
            scanned += eln;
        }

        // Pass 2: prune each variable's list, bound its degree, hash it.
        for pme in pme1..pme2 {
            let i = iw[pme];
            let p1 = pe[i];
            let elem_end = p1 + elen[i];
            let list_end = p1 + len[i];
            scanned += len[i];
            let mut pn = p1;
            let mut hash = 0usize;
            let mut deg = 0usize;
            for p in p1..elem_end {
                let e = iw[p];
                if w[e] == 0 {
                    continue;
                }
                if w[e] > wflg {
                    deg += w[e] - wflg;
                    iw[pn] = e;
                    pn += 1;
                    hash = hash.wrapping_add(e);
                } else {
                    // Le ⊆ Lme: absorb e although me never touched it.
                    pe[e] = NONE;
                    w[e] = 0;
                }
            }
            elen[i] = pn - p1 + 1;
            let p3 = pn;
            for p in elem_end..list_end {
                let j = iw[p];
                if nv[j] > 0 {
                    deg += nv[j] as usize;
                    iw[pn] = j;
                    pn += 1;
                    hash = hash.wrapping_add(j);
                }
            }
            if elen[i] == 1 && p3 == pn {
                // Lme is all i has left: eliminate it with the pivot.
                let nvi = -nv[i];
                degme -= nvi;
                nvpiv += nvi;
                nel += nvi as usize;
                nv[i] = 0;
                pe[i] = NONE;
                emit(&mut order, &member_next, i);
            } else {
                degree[i] = degree[i].min(deg);
                // Put me first: the first variable moves to the end, the
                // first element to where the variables begin.
                iw[pn] = iw[p3];
                iw[p3] = iw[p1];
                iw[p1] = me;
                len[i] = pn - p1 + 1;
                let h = hash % n;
                lists.next[i] = hash_head[h];
                hash_head[h] = i;
                lists.last[i] = h;
            }
        }
        degree[me] = degme as usize;
        lemax = lemax.max(degme as usize);
        wflg += lemax;

        // Merge variables of Lme with identical adjacency.
        for pme in pme1..pme2 {
            let i = iw[pme];
            if nv[i] >= 0 {
                continue;
            }
            let mut i = std::mem::replace(&mut hash_head[lists.last[i]], NONE);
            while i != NONE && lists.next[i] != NONE {
                let (ln, eln) = (len[i], elen[i]);
                for &x in &iw[pe[i] + 1..pe[i] + ln] {
                    w[x] = wflg;
                }
                scanned += ln;
                let mut jlast = i;
                let mut j = lists.next[i];
                while j != NONE {
                    let same = len[j] == ln
                        && elen[j] == eln
                        && iw[pe[j] + 1..pe[j] + ln].iter().all(|&x| w[x] == wflg);
                    scanned += len[j].min(ln);
                    if same {
                        nv[i] += nv[j];
                        nv[j] = 0;
                        pe[j] = NONE;
                        member_next[member_tail[i]] = j;
                        member_tail[i] = member_tail[j];
                        j = lists.next[j];
                        lists.next[jlast] = j;
                    } else {
                        jlast = j;
                        j = lists.next[j];
                    }
                }
                wflg += 1;
                i = lists.next[i];
            }
        }

        // Drop merged variables from Lme and file the rest by new degree.
        let mut q = pme1;
        let nleft = n - nel;
        for pme in pme1..pme2 {
            let i = iw[pme];
            let nvi = -nv[i];
            if nvi > 0 {
                nv[i] = nvi;
                let nvi = nvi as usize;
                let deg = (degree[i] + degme as usize - nvi).min(nleft - nvi);
                degree[i] = deg;
                lists.insert(i, deg);
                mindeg = mindeg.min(deg);
                iw[q] = i;
                q += 1;
            }
        }
        scanned += pme2 - pme1;
        nv[me] = nvpiv;
        len[me] = q - pme1;
        if len[me] == 0 {
            pe[me] = NONE;
            w[me] = 0;
        }
        if elenme != 0 {
            pfree = q;
        }
    }

    // Hubs last, lightest first.
    hubs.sort_by_key(|&d| xadj[d + 1] - xadj[d]);
    let deferred = hubs.len();
    order.extend(hubs);
    Ordered { order, deferred, scanned, compactions }
}

/// Slides every live list to the front of the arena, then the element
/// under construction (`iw[pme1..pfree]`) behind them; returns its new
/// bounds. The first entry of each live list is swapped with a tag naming
/// its owner so that one sweep over the arena finds the lists in place.
fn compact(
    iw: &mut [usize],
    pe: &mut [usize],
    len: &[usize],
    pme1: usize,
    pfree: usize,
) -> (usize, usize) {
    const TAG: usize = 1 << (usize::BITS - 1);
    for (j, start) in pe.iter_mut().enumerate() {
        if *start != NONE {
            let first = iw[*start];
            iw[*start] = j | TAG;
            *start = first;
        }
    }
    let (mut src, mut dst) = (0usize, 0usize);
    while src < pme1 {
        let tagged = iw[src];
        src += 1;
        if tagged & TAG != 0 {
            let j = tagged & !TAG;
            iw[dst] = pe[j];
            pe[j] = dst;
            dst += 1;
            iw.copy_within(src..src + len[j] - 1, dst);
            src += len[j] - 1;
            dst += len[j] - 1;
        }
    }
    iw.copy_within(pme1..pfree, dst);
    (dst, dst + (pfree - pme1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fill_of;
    use pangulu_sparse::ops::symmetrize;
    use pangulu_sparse::{gen, CooMatrix, SparseError};

    /// Exact minimum degree on the explicit elimination graph, lowest
    /// index among ties: the quality reference.
    fn exact_minimum_degree(sym: &CscMatrix) -> Permutation {
        let n = sym.ncols();
        let mut adj: Vec<std::collections::BTreeSet<usize>> =
            (0..n).map(|j| sym.col(j).0.iter().copied().filter(|&i| i != j).collect()).collect();
        let mut live = vec![true; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let v = (0..n).filter(|&v| live[v]).min_by_key(|&v| adj[v].len()).unwrap();
            live[v] = false;
            order.push(v);
            let nbrs: Vec<usize> = std::mem::take(&mut adj[v]).into_iter().collect();
            for &a in &nbrs {
                adj[a].remove(&v);
                adj[a].extend(nbrs.iter().copied().filter(|&b| b != a));
            }
        }
        Permutation::from_vec(order).unwrap()
    }

    fn symmetric_from_edges(n: usize, edges: &[(usize, usize)]) -> CscMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
        }
        for &(i, j) in edges {
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        coo.to_csc()
    }

    #[test]
    fn fill_within_ten_percent_of_exact_minimum_degree() {
        for seed in 0..5u64 {
            let s = seed as usize;
            let cases = [
                ("circuit", gen::circuit(200, seed)),
                ("kkt", gen::kkt(130 + s, 60 + s, seed)),
                ("lap2d", gen::laplacian_2d(10 + s, 14)),
                ("random", gen::random_sparse(160, 0.03, seed)),
            ];
            for (name, a) in cases {
                let a = symmetrize(&a).unwrap();
                let amd = fill_of(&a, &amd_order(&a).unwrap()).unwrap();
                let exact = fill_of(&a, &exact_minimum_degree(&a)).unwrap();
                assert!(
                    amd as f64 <= 1.10 * exact as f64,
                    "{name} seed {seed}: AMD fill {amd} vs exact minimum degree {exact}"
                );
            }
        }
    }

    fn graph_order(a: &CscMatrix) -> Ordered {
        let g = Graph::from_pattern(a).unwrap();
        order_graph(&g.xadj, &g.adj)
    }

    #[test]
    fn star_hub_longer_than_sqrt_nnz_is_set_aside_and_ordered_last() {
        // 2·99 graph entries: the hub's list of 99 is longer than √198.
        let n = 100;
        let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
        let a = symmetric_from_edges(n, &edges);
        let o = graph_order(&a);
        assert_eq!((o.deferred, o.order[n - 1]), (1, 0));
        // The leaves are isolated once the hub is gone: each is emitted
        // exactly once, as an empty element, in index order.
        assert_eq!(o.order[..n - 1], (1..n).collect::<Vec<_>>());
        let p = Permutation::from_vec(o.order).unwrap();
        assert_eq!(fill_of(&a, &p).unwrap(), a.nnz(), "leaves first leaves no fill");
    }

    #[test]
    fn nothing_is_set_aside_when_no_list_outgrows_sqrt_nnz() {
        // Pinned permutations: graphs without hubs are ordered exactly as
        // they were under the `10·√n` rule this one replaced.
        let lap = gen::laplacian_2d(14, 14);
        let kkt = symmetrize(&gen::kkt(130, 60, 0)).unwrap();
        for (name, a, head, checksum) in [
            ("lap2d", lap, [0usize, 13, 182, 195, 194, 181], 1_931_019usize),
            ("kkt", kkt, [177, 0, 18, 23, 45, 54], 1_443_124),
        ] {
            let g = Graph::from_pattern(&a).unwrap();
            let longest = (0..a.ncols()).map(|i| g.xadj[i + 1] - g.xadj[i]).max().unwrap();
            assert!(longest * longest <= g.adj.len() || longest <= 16, "{name} has a hub");
            let o = order_graph(&g.xadj, &g.adj);
            assert_eq!(o.deferred, 0, "{name}");
            assert_eq!(o.order[..6], head, "{name}");
            let sum: usize = o.order.iter().enumerate().map(|(new, old)| (new + 1) * old).sum();
            assert_eq!(sum, checksum, "{name}: permutation moved");
        }
    }

    #[test]
    fn hubs_come_last_lightest_first_and_short_lists_never_qualify() {
        // Three hubs of degree 60, 40 and 50 over 200 leaves-with-a-chain;
        // graph entries ≈ 700, so √nnz ≈ 26 and all three are hubs.
        let n = 203;
        let mut edges: Vec<_> = (4..n).map(|i| (i - 1, i)).collect();
        for (hub, deg) in [(0usize, 60usize), (1, 40), (2, 50)] {
            edges.extend((0..deg).map(|k| (hub, 3 + hub + 3 * k)));
        }
        let a = symmetric_from_edges(n, &edges);
        let o = graph_order(&a);
        assert_eq!(o.deferred, 3);
        assert_eq!(o.order[n - 3..], [1, 2, 0], "lightest hub first");
        Permutation::from_vec(o.order).unwrap();

        // A 17-clique: every list has 16 entries, 16² > nnz is false anyway;
        // an 8-star has a list of 7 > √14 but is under the floor of 16.
        let clique: Vec<_> = (0..17).flat_map(|i| (0..i).map(move |j| (i, j))).collect();
        assert_eq!(graph_order(&symmetric_from_edges(17, &clique)).deferred, 0);
        let star: Vec<_> = (1..8).map(|i| (0, i)).collect();
        assert_eq!(graph_order(&symmetric_from_edges(8, &star)).deferred, 0);
    }

    #[test]
    fn small_star_orders_leaves_first() {
        let n = 12;
        let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
        let a = symmetric_from_edges(n, &edges);
        let p = amd_order(&a).unwrap();
        // With one leaf left, hub and leaf both have degree 1.
        let hub_pos = p.as_slice().iter().position(|&v| v == 0).unwrap();
        assert!(hub_pos >= n - 2, "hub eliminated too early, at position {hub_pos}");
        assert_eq!(fill_of(&a, &p).unwrap(), a.nnz());
    }

    #[test]
    fn clique_path_and_components_have_no_avoidable_fill() {
        let clique: Vec<_> = (0..9).flat_map(|i| (0..i).map(move |j| (i, j))).collect();
        let a = symmetric_from_edges(9, &clique);
        assert_eq!(fill_of(&a, &amd_order(&a).unwrap()).unwrap(), 81);

        let path: Vec<_> = (1..50).map(|i| (i - 1, i)).collect();
        let a = symmetric_from_edges(50, &path);
        assert_eq!(fill_of(&a, &amd_order(&a).unwrap()).unwrap(), a.nnz());

        // A path and a cycle that share no vertex: only the cycle fills.
        let mut two: Vec<_> = (1..20).map(|i| (i - 1, i)).collect();
        two.extend((21..40).map(|i| (i - 1, i)));
        two.push((20, 39));
        let a = symmetric_from_edges(40, &two);
        let p = amd_order(&a).unwrap();
        assert_eq!(p.len(), 40);
        assert!(fill_of(&a, &p).unwrap() <= a.nnz() + 2 * 17);
    }

    #[test]
    fn diagonal_empty_and_single() {
        let a = CscMatrix::identity(6);
        let p = amd_order(&a).unwrap();
        assert_eq!(p, Permutation::identity(6));
        assert_eq!(fill_of(&a, &p).unwrap(), 6);
        assert_eq!(amd_order(&CscMatrix::zeros(0, 0)).unwrap().len(), 0);
        assert_eq!(amd_order(&CscMatrix::identity(1)).unwrap().len(), 1);
    }

    #[test]
    fn non_symmetric_pattern_is_ordered_as_a_plus_at() {
        let a = gen::circuit(300, 7);
        assert!(pangulu_sparse::ops::structural_symmetry(&a) < 1.0);
        let p = amd_order(&a).unwrap();
        assert_eq!(p, amd_order(&symmetrize(&a).unwrap()).unwrap());
    }

    #[test]
    fn non_square_is_an_error() {
        let err = amd_order(&CscMatrix::zeros(3, 4)).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { nrows: 3, ncols: 4 }));
    }

    #[test]
    fn deterministic() {
        let a = symmetrize(&gen::random_sparse(80, 0.06, 5)).unwrap();
        assert_eq!(amd_order(&a).unwrap(), amd_order(&a).unwrap());
    }

    #[test]
    fn reduces_fill_on_grid_vs_natural() {
        let a = gen::laplacian_2d(14, 14);
        let fill_md = fill_of(&a, &amd_order(&a).unwrap()).unwrap();
        let fill_nat = fill_of(&a, &Permutation::identity(a.ncols())).unwrap();
        assert!(fill_md < fill_nat, "AMD should beat natural order: {fill_md} vs {fill_nat}");
    }

    #[test]
    fn arena_compaction_keeps_the_order_valid() {
        // Elements that outgrow the lists they absorb exhaust the slack.
        let a = symmetrize(&gen::random_sparse(600, 0.02, 3)).unwrap();
        let g = Graph::from_pattern(&a).unwrap();
        let o = order_graph(&g.xadj, &g.adj);
        assert!(o.compactions > 0, "the case no longer reaches compaction");
        let p = Permutation::from_vec(o.order).unwrap();
        let exact = fill_of(&a, &exact_minimum_degree(&a)).unwrap();
        assert!(fill_of(&a, &p).unwrap() as f64 <= 1.10 * exact as f64);
    }

    #[test]
    fn work_is_linear_in_the_input() {
        // Exact-degree minimum degree read about 4000 entries per input
        // entry on circuit graphs and needed 74.9 s on the second of these;
        // with circuit hubs left in the graph this loop read 184× the
        // input. Measured now: circuit 2.4×.
        let cases = [
            ("circuit6k", gen::circuit(6000, 1), 10),
            ("circuit20k", gen::circuit(20000, 1), 10),
            ("lap2d", gen::laplacian_2d(300, 300), 50),
            ("kkt", gen::kkt(8000, 3700, 1), 50),
        ];
        for (name, a, multiple) in cases {
            let g = Graph::from_pattern(&a).unwrap();
            let o = order_graph(&g.xadj, &g.adj);
            let bound = multiple * (g.adj.len() + a.ncols());
            assert!(o.scanned <= bound, "{name}: {} entries visited, bound {bound}", o.scanned);
            Permutation::from_vec(o.order).unwrap();
        }
    }
}
