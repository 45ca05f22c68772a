"""The dense reference for the rank-one frame, shared by the tests: each
sign by counting a permutation's inversions over all pairs, and each
incidence matrix b(h,k,i) built entry by entry from subset tuples."""

from itertools import combinations

from kgrid.exact import mat


def reference_perm_sign(seq) -> int:
    """The sign of a permutation by counting its inversions over all pairs."""
    inversions = sum(seq[a] > seq[b] for a in range(len(seq))
                     for b in range(a + 1, len(seq)))
    return -1 if inversions % 2 else 1


def reference_b_matrix(h: int, k: int, i: int):
    """b(h,k,i): rows the (h-k)-subsets J of {1..h}, columns the
    (k-1)-subsets I, both lexicographic; the (J, I) entry is the sign of
    (sorted I, i, sorted J) when I and J partition {1..h} minus {i}."""
    rows = list(combinations(range(1, h + 1), h - k))
    cols = list(combinations(range(1, h + 1), k - 1))
    dense = [[0] * len(cols) for _ in rows]
    for c, subset_i in enumerate(cols):
        if i not in subset_i:
            subset_j = tuple(sorted(set(range(1, h + 1)) - {i, *subset_i}))
            dense[rows.index(subset_j)][c] = reference_perm_sign(subset_i + (i,) + subset_j)
    return mat(dense)
