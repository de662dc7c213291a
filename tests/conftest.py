"""Shared fixtures: the two worked semigroups and a cached cell factory;
a reference rank over the rationals, a reference target match, and the
all-rows minor support and Plücker point."""

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

from hilbstrat import NumericalSemigroup, ParamPoly, build_cell, enumerate_colength
from hilbstrat.ideal_cells import _param_index


@pytest.fixture
def e6():
    return NumericalSemigroup((3, 4))


@pytest.fixture
def e8():
    return NumericalSemigroup((3, 5))


_CELL_CACHE = {}


@pytest.fixture(scope="session")
def cells_of():
    """Factory returning the full list of stratum cells for (gens, r).

    Cells are cached for the whole session; building the E8 strata
    repeatedly would dominate the suite runtime otherwise.
    """

    def get(gens, r):
        key = (tuple(gens), r)
        if key not in _CELL_CACHE:
            sg = NumericalSemigroup(gens)
            mods = enumerate_colength(sg, r)
            _CELL_CACHE[key] = [build_cell(m) for m in mods]
        return _CELL_CACHE[key]

    return get


@pytest.fixture(scope="session")
def valid_delta_sets():
    """Brute-force enumerator of all valid Δ-sets of a semigroup.

    A valid Δ-set is a δ-element subset of [0, 2δ) whose union with
    [2δ, ∞) is closed under adding semigroup elements.
    """

    def compute(sg):
        dd = 2 * sg.delta
        out = set()
        for combo in combinations(range(dd), sg.delta):
            members = set(combo)
            if all(e + g in members or e + g >= dd for e in combo for g in sg.gens):
                out.add(combo)
        return out

    return compute


def _reference_rank(matrix):
    """Gauss-Jordan elimination over the rationals, sharing no code with
    ``hilbstrat``."""
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _reference_match(limit, dst):
    """The target match on the whole Plücker point, sharing no code with
    ``closure_analysis._match_target``: (n, q) when the limit (a Plücker
    map) is q times the target's Plücker point at n/q, and None otherwise.

    A coordinate of the limit outside the target's support, or a missing
    pivot coordinate q, rejects.  n is read from each free parameter's
    single-swap minor in the row it was seeded on; then every Plücker
    coordinate of the target is compared after clearing q, homogenised to
    the largest degree D of the target's coordinates (at least 1).
    """
    if any(cols not in dst.plucker for cols in limit):
        return None
    q = limit.get(dst.delta)
    if q is None:
        return None
    zero = ParamPoly.zero()
    n = {}
    for name in dst.family.free_params:
        gi, c = _param_index(name)
        ri = dst.delta.index(dst.module.min_generators[gi] - dst.r)
        col = c - dst.r
        cols = tuple(sorted([p for k, p in enumerate(dst.delta) if k != ri] + [col]))
        val = limit.get(cols, zero)
        n[name] = val if (ri + cols.index(col)) % 2 == 0 else -val
    D = max(1, max(p.total_degree() for p in dst.plucker.values()))
    for cols, pk in dst.plucker.items():
        h = ParamPoly.zero()
        for key, cf in pk.terms.items():
            term = q ** (D - sum(x for _, x in key)) * cf
            for nm, ex in key:
                term = term * n[nm] ** ex
            h = h + term
        if limit.get(cols, zero) * q ** (D - 1) != h:
            return None
    return n, q


def _reference_minor_support(rows):
    """The reference for ``ideal_cells.minor_support``: a top-down DFS
    over every row's keys, memoised on (row, columns used), which the
    package used before its bottom-up sweep."""
    @cache
    def tails(i, used):
        if i == len(rows):
            return {0}
        return {
            1 << c | t
            for c in rows[i]
            if not used >> c & 1
            for t in tails(i + 1, used | 1 << c)
        }

    return sorted(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in tails(0, 0))


def _reference_plucker_point(rows, pivots, support):
    """The reference for ``ideal_cells.plucker_point``: a top-down Laplace
    expansion along the first of the rows left, memoised on the columns left, in
    which a row whose pivot is in the set takes it, with the arithmetic of
    the unit entry; the package used it before its bottom-up sweep."""
    @cache
    def minor(cols):
        if not cols:
            return ParamPoly.one()
        i = len(rows) - cols.bit_count()
        row = rows[i]
        p = pivots[i]
        total = ParamPoly.zero()
        for c, q in [(p, row[p])] if cols >> p & 1 else row.items():
            bit = 1 << c
            if cols & bit:
                term = q * minor(cols ^ bit)
                total = total - term if (cols & (bit - 1)).bit_count() & 1 else total + term
        return total

    return tuple(minor(sum(1 << c for c in cols)) for cols in support)
