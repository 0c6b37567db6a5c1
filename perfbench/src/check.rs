//! Output checks, written apart from the program under test: none of them
//! calls into the crates they check except to read results.

use cilkm_graph::Graph;
pub use cilkm_graph::UNREACHED;
use cilkm_tlmm::PageArena;

/// The add-n total of reducer `k` after one pass of `x` iterations over
/// `n` reducers in which iteration `i` adds `i + offset` to reducer
/// `i mod n`: with `m = x / n` terms `j·n + k + offset` for `j < m`, the
/// sum is `n·m(m−1)/2 + m·(k + offset)` (mod 2^64).
pub fn addn_closed_form(k: u64, n: u64, x: u64, offset: u64) -> u64 {
    let m = x / n;
    let tri = if m.is_multiple_of(2) {
        (m / 2).wrapping_mul(m.wrapping_sub(1))
    } else {
        m.wrapping_mul(m.wrapping_sub(1) / 2)
    };
    n.wrapping_mul(tri)
        .wrapping_add(m.wrapping_mul(k.wrapping_add(offset)))
}

/// Checks one add-n pass: `totals[k]` must equal the closed form.
pub fn check_addn(totals: &[u64], x: u64, offset: u64) -> bool {
    let n = totals.len() as u64;
    x.is_multiple_of(n)
        && totals
            .iter()
            .enumerate()
            .all(|(k, &t)| t == addn_closed_form(k as u64, n, x, offset))
}

/// Checks BFS distances by certificate rather than by re-running a BFS:
/// the source is at 0 and is the only vertex there; on every edge
/// `|d(u) − d(v)| ≤ 1`; every reached vertex but the source has a
/// neighbour one layer closer; and no edge joins a reached vertex to an
/// unreached one. On a symmetric graph these together imply the
/// distances are exact shortest-path lengths.
pub fn check_bfs(g: &Graph, source: u32, dist: &[u32]) -> bool {
    let n = g.num_vertices();
    if dist.len() != n || (source as usize) >= n || dist[source as usize] != 0 {
        return false;
    }
    for u in 0..n as u32 {
        let du = dist[u as usize];
        let mut has_parent = false;
        for &v in g.neighbors(u) {
            let dv = dist[v as usize];
            match (du == UNREACHED, dv == UNREACHED) {
                (true, true) => {}
                (true, false) | (false, true) => return false,
                (false, false) => {
                    if du.abs_diff(dv) > 1 {
                        return false;
                    }
                    has_parent |= dv + 1 == du;
                }
            }
        }
        if du != UNREACHED && u != source && (du == 0 || !has_parent) {
            return false;
        }
    }
    true
}

/// An affine map `x ↦ a·x + b` over `u64` (mod 2^64), as `(a, b)`.
pub type Affine = (u64, u64);

/// Composition "first `f`, then `g`": associative, with identity
/// `(1, 0)`, and not commutative — so a fold that reorders views shows.
#[inline]
pub fn compose(f: Affine, g: Affine) -> Affine {
    (
        g.0.wrapping_mul(f.0),
        g.0.wrapping_mul(f.1).wrapping_add(g.1),
    )
}

/// The serial fold of a steal train: for each region `t` and iteration
/// `i`, target `i mod k` composes `maps[t·per_region + i]` onto its
/// value, in program order. The benchmark's own loop — the reference
/// the parallel results are compared with, and the serial control job.
pub fn serial_train(maps: &[Affine], per_region: usize, k: usize) -> Vec<Affine> {
    let mut acc = vec![(1u64, 0u64); k];
    for region in maps.chunks(per_region) {
        for (i, &m) in region.iter().enumerate() {
            let slot = &mut acc[i % k];
            *slot = compose(*slot, m);
        }
    }
    acc
}

/// Checks a steal train's reducer values against the serial fold.
pub fn check_train(got: &[Affine], expected: &[Affine]) -> bool {
    got == expected
}

/// After a memory-mapped pool is dropped, its arena must hold no page.
pub fn check_no_live_pages(arena: &PageArena) -> bool {
    arena.live_pages() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addn_serial(n: usize, x: usize, offset: u64) -> Vec<u64> {
        let mut t = vec![0u64; n];
        for i in 0..x {
            t[i % n] = t[i % n].wrapping_add(i as u64 + offset);
        }
        t
    }

    #[test]
    fn addn_closed_form_matches_a_loop_and_rejects_corruption() {
        for &(n, x, off) in &[(1024, 1 << 16, 7u64), (4, 12, 0), (8, 8 * 9, 123_456)] {
            let mut t = addn_serial(n, x, off);
            assert!(check_addn(&t, x as u64, off));
            t[n / 2] = t[n / 2].wrapping_add(1);
            assert!(!check_addn(&t, x as u64, off), "corrupted total accepted");
        }
        assert!(
            !check_addn(&addn_serial(4, 12, 1), 12, 2),
            "wrong offset accepted"
        );
    }

    /// A 6-vertex undirected graph: path 0-1-2-3 with a chord 0-2, plus
    /// the isolated edge 4-5 (unreachable from 0).
    fn small_graph() -> Graph {
        Graph::from_undirected_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 2), (4, 5)])
    }

    #[test]
    fn bfs_certificate_accepts_true_distances() {
        let g = small_graph();
        let d = [0, 1, 1, 2, UNREACHED, UNREACHED];
        assert!(check_bfs(&g, 0, &d));
        let reference = cilkm_graph::bfs_serial(&g, 0);
        assert!(check_bfs(&g, 0, &reference));
    }

    #[test]
    fn bfs_certificate_rejects_each_kind_of_corruption() {
        let g = small_graph();
        let good = [0, 1, 1, 2, UNREACHED, UNREACHED];
        let bad: [[u32; 6]; 6] = [
            [1, 1, 1, 2, UNREACHED, UNREACHED],         // source not at 0
            [0, 1, 2, 3, UNREACHED, UNREACHED],         // 2 is too far (edge 0-2)
            [0, 1, 1, UNREACHED, UNREACHED, UNREACHED], // reached 2 next to unreached 3
            [0, 1, 1, 2, 7, 8],                         // 4 reached without a parent
            [0, 0, 1, 2, UNREACHED, UNREACHED],         // a second vertex at 0
            [0, 2, 1, 2, UNREACHED, UNREACHED],         // 1 has no closer neighbour
        ];
        assert!(check_bfs(&g, 0, &good));
        for d in &bad {
            assert!(!check_bfs(&g, 0, d), "corrupted distances accepted: {d:?}");
        }
        assert!(
            !check_bfs(&g, 0, &good[..5]),
            "short distance array accepted"
        );
    }

    #[test]
    fn affine_composition_is_associative_but_not_commutative() {
        let (f, g, h) = ((3, 5), (7, 11), (13, 17));
        assert_eq!(compose(compose(f, g), h), compose(f, compose(g, h)));
        assert_ne!(compose(f, g), compose(g, f));
        assert_eq!(compose((1, 0), f), f);
        assert_eq!(compose(f, (1, 0)), f);
    }

    #[test]
    fn serial_train_detects_a_reordered_fold() {
        let maps: Vec<Affine> = (0..64u64)
            .map(|i| {
                (
                    crate::stats::splitmix(i) | 1,
                    crate::stats::splitmix(i + 99),
                )
            })
            .collect();
        let expect = serial_train(&maps, 16, 4);
        // A fold that swaps the order of two regions' contributions.
        let mut swapped = maps.clone();
        swapped.swap(0, 16);
        assert_ne!(serial_train(&swapped, 16, 4), expect);
        // A fold that merges the right view before the left one.
        let mut reversed = vec![(1u64, 0u64); 4];
        for region in maps.chunks(16).rev() {
            let mut part = vec![(1u64, 0u64); 4];
            for (i, &m) in region.iter().enumerate() {
                part[i % 4] = compose(part[i % 4], m);
            }
            for (acc, p) in reversed.iter_mut().zip(part) {
                *acc = compose(*acc, p);
            }
        }
        assert!(check_train(&expect, &expect));
        assert!(!check_train(&reversed, &expect), "reordered fold accepted");
        let mut corrupted = expect.clone();
        corrupted[1].1 ^= 1;
        assert!(!check_train(&corrupted, &expect), "corrupted view accepted");
        assert!(!check_train(&expect[1..], &expect), "missing view accepted");
    }

    #[test]
    fn live_page_check_sees_a_leaked_page() {
        let arena = PageArena::new();
        assert!(check_no_live_pages(&arena));
        let pd = arena.palloc();
        assert!(!check_no_live_pages(&arena), "leaked page not seen");
        arena.pfree(pd);
        assert!(check_no_live_pages(&arena));
    }
}
