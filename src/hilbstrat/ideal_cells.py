"""Canonical parametrized ideal families (affine cells) and Plücker points.

Each cell is the set of ideals I ⊆ k[[Γ]] whose order set is a prescribed
Γ-module S.  It is presented by monic generators

    f_i = t^{g_i} + Σ λ_{i,c} t^c,

one per minimal generator g_i of S, with c running over the gaps of S
(elements of Γ∖S) above g_i.  Coefficient relations forced by the module
structure are eliminated symbolically; the survivors are free coordinates
on the cell.  One top-down sweep over the orders of S reduces each order's
normal form, and each relation, against the normal forms above it.  A
series is a map {exponent: nonzero ParamPoly}.  S contains every order at
or above its conductor c(S), so the construction runs modulo t^{c(S)},
and the family keeps the normal forms of the orders of S below c(S);
above, they are the bare t^s.  Each row of its δ × 2δ cell
matrix keeps only its nonzero entries, as a dict {column: entry}
(``cell_matrix``).  Its Plücker point is grown bottom-up, one row at a
time: the column sets the rows can take with distinct columns
(``minor_support``), then the minors on them (``plucker_point``), each
extending the sets or minors of the rows below by the next row's entries.
"""

from fractions import Fraction

from .errors import NonTriangularRelation, PivotLoss
from .gamma_modules import delta_set
from .symcalc import ParamPoly, format_series, substitute

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _param_name(gen_index, exponent):
    # zero-padded so that string order equals (generator, exponent) order
    return "q%02dx%03d" % (gen_index, exponent)


def _param_index(name):
    """(generator index, exponent) of a name made by ``_param_name``."""
    return int(name[1:3]), int(name[4:])


class CanonicalFamily:
    """The affine cell J(S): parametrized generators plus elimination data.

    ``normal_forms`` maps exactly the orders of S below the module's conductor
    c(S) to their normal forms modulo t^{c(S)}, each a map {exponent: nonzero
    ParamPoly}.  ``generators`` is the displayed family: the
    minimal-generator series ({s: 1}, the bare t^s, at or above c(S))
    together with any derived normal forms carrying a coefficient that is
    neither zero nor a bare free parameter (these are the informative
    redundant generators the case analyses print, e.g. t^6 - a^2 t^8).
    """

    __slots__ = (
        "module",
        "generators",
        "generator_orders",
        "free_params",
        "eliminated",
        "dimension",
        "normal_forms",
        "display_names",
    )

    def __init__(self, module, normal_forms, free_params, eliminated):
        self.module = module
        self.normal_forms = normal_forms
        self.free_params = free_params
        self.eliminated = eliminated
        self.dimension = len(free_params)
        self.display_names = {
            name: (_LETTERS[i] if i < len(_LETTERS) else "x%d" % i)
            for i, name in enumerate(free_params)
        }
        self.generator_orders = self._displayed_orders()
        self.generators = [
            normal_forms[s] if s in normal_forms else {s: ParamPoly.one()}
            for s in self.generator_orders
        ]

    def _displayed_orders(self):
        bare = [ParamPoly.variable(name) for name in self.free_params]
        min_gens = set(self.module.min_generators)
        return [
            s
            for s in sorted(min_gens.union(self.normal_forms))
            if s in min_gens or any(e != s and p not in bare for e, p in self.normal_forms[s].items())
        ]

    def format_generators(self):
        return [format_series(g, self.display_names) for g in self.generators]

    def eliminated_display(self):
        out = []
        for name in sorted(self.eliminated):
            i, c = _param_index(name)
            out.append(
                {
                    "generator": i,
                    "exponent": c,
                    "expression": self.eliminated[name].format(rename=self.display_names),
                }
            )
        return out


def _shift(series, k, cut):
    """t^k · series modulo t^cut."""
    return {e + k: p for e, p in series.items() if e + k < cut}


def _sub(a, b, c):
    """a − c·b, each coefficient summed as q + -(p * c) with b's coefficient
    p on the left, which fixes the order of the terms; zero coefficients
    are dropped."""
    out = dict(a)
    for e, p in b.items():
        q = out.get(e)
        v = -(p * c) if q is None else q + -(p * c)
        if v.is_zero():
            del out[e]
        else:
            out[e] = v
    return out


def _build_seeds(module, eliminated, cut):
    seeds = []
    for i, g in enumerate(module.min_generators):
        if g >= cut:  # it and those after it have no parameter and reach no order below cut
            break
        coeffs = {g: ParamPoly.one()}
        for c in module.gap_set:
            if c > g:
                name = _param_name(i, c)
                p = eliminated[name] if name in eliminated else ParamPoly.variable(name)
                if not p.is_zero():
                    coeffs[c] = p
        seeds.append(coeffs)
    return seeds


def _reduce(d, forms):
    """d − forms[e]·d[e] for each key e of d that has a normal form, in
    increasing order of e.  A normal form has no term in S but its leading
    one, so each subtraction clears its key and adds no term in S."""
    for e in sorted(d):
        if e in forms:
            d = _sub(d, forms[e], d[e])
    return d


def _sweep(module, seeds, cut):
    """(normal forms, relation): the normal form of each order s ∈ S below
    the module's conductor ``cut``, modulo t^cut, and the forced relation
    of least (o, s, j), or None when the parameters are consistent.

    The orders are swept from the top down.  At s, the primary, the seed
    of the first minimal generator that reaches s shifted to s, reduced
    against the normal forms above s (``_reduce``) is the normal form of s.
    For each other generator j that reaches s, the normal form minus j's
    seed shifted to s, reduced against the same forms, keeps terms at gaps
    only; its lowest, at a gap o, is a forced relation.  The least (o, s, j)
    wins: the lowest order, then the first pair in increasing s and generator.

    Every order of a series lies in Γ, and Γ and S agree at and above the
    module's conductor, so no relation appears there.  Reducing a term only
    changes the terms above it, so the orders below ``cut`` are exact.
    """
    gens = module.min_generators
    one = ParamPoly.one()
    forms = {}
    lowest = (cut,), None  # every relation's order o lies below cut
    for s in reversed(module.members_below(cut)):
        reach = [j for j, g in enumerate(gens) if (s - g) in module.ambient]
        if not reach:  # pragma: no cover - every s ∈ S is g_i + γ for some i
            raise PivotLoss("no generator reaches order %d" % s)
        nf = _reduce(_shift(seeds[reach[0]], s - gens[reach[0]], cut), forms)
        if nf.get(s) != one:
            raise PivotLoss("normal form at order %d lost its unit leading term" % s)
        for j in reach[1:]:
            d = _reduce(_sub(nf, _shift(seeds[j], s - gens[j], cut), one), forms)
            o = min(d, default=cut)
            if (o, s, j) < lowest[0]:
                lowest = (o, s, j), d[o]
        forms[s] = nf
    return dict(reversed(forms.items())), lowest[1]


def _solve_relation(poly):
    """Pick the lexicographically latest parameter in which the relation is
    affine (``ParamPoly.affine_in``) with a constant coefficient, and
    express it through the others."""
    for name in reversed(poly.variables()):
        split = poly.affine_in(name)
        if split is not None and split[0].is_constant():
            c, rest = split
            return name, rest * (Fraction(-1) / c.constant_value())
    raise NonTriangularRelation("relation %s is not linear in any parameter" % poly.format())


def canonical_family(module):
    """Construct the affine cell J(S) over Γ, the module's ambient semigroup.

    Seeds unknowns at every gap of S above each minimal generator and
    sweeps the orders of S from the top down (``_sweep``): each order's
    normal form, and each relation a leading-term-cancelling pair forces,
    is reduced against the normal forms above it.  The relation of lowest
    order eliminates one coefficient, and the sweep runs again, until none
    is forced; the remaining parameters are free coordinates.

    Every gap lies below the module's conductor c(S), and every order of Γ
    at or above it is in S.  So the computation runs modulo t^{c(S)}, on
    series that are maps {exponent: nonzero ParamPoly}, and the normal form
    of each order s at or above c(S) is the bare t^s.  The family stores
    the last sweep's normal forms, those of the orders below c(S).
    """
    cut = module.conductor
    eliminated = {}
    while True:
        forms, relation = _sweep(module, _build_seeds(module, eliminated, cut), cut)
        if relation is None:
            break
        name, expr = _solve_relation(relation)
        eliminated = dict(zip(eliminated, substitute(eliminated.values(), {name: expr})))
        eliminated[name] = expr

    params = [
        _param_name(i, c)
        for i, g in enumerate(module.min_generators)
        for c in module.gap_set
        if c > g
    ]
    free = [p for p in params if p not in eliminated]
    return CanonicalFamily(module, forms, free, eliminated)


def cell_matrix(family):
    """(rows, pivots) at r = the colength of S: the reduced unit-pivot echelon
    basis of t^{-r}·I modulo t^{2δ} as sparse rows, and its pivots, the Δ-set
    (``delta_set``, the one reader of the window [r, r + 2δ)).  Row i is the
    normal form of the order r + pivot i, shifted down by r and read off the
    family's coefficients: a dict {column: entry} holding only the nonzero
    entries, in ascending column order; an order s at or above the module's
    conductor (not stored) gives the unit row {s − r: 1}.  Its first key is
    its pivot, with entry 1, and no other row has that column.
    """
    module = family.module
    r = module.colength
    pivots = delta_set(module)
    end = r + 2 * module.ambient.delta
    one = ParamPoly.one()
    rows = []
    for p in pivots:
        s = p + r
        coeffs = family.normal_forms[s] if s in family.normal_forms else {s: one}
        rows.append({e - r: coeffs[e] for e in sorted(coeffs) if e < end})
    pivot_set = set(pivots)
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if row.get(p) != one:
            raise PivotLoss("row %d has no unit pivot at column %d" % (i, p))
        if next(iter(row)) != p:
            raise PivotLoss("row %d has support below its pivot" % i)
        reached = pivot_set.intersection(row) - {p}
        if reached:
            raise PivotLoss("pivot column %d not reduced" % min(reached))
    return rows, pivots


def minor_support(rows):
    """Column sets, in lexicographic order, on which the δ×δ minor of the
    sparse ``rows`` has a nonzero term.  A sweep from the bottom row up
    keeps the column sets, as bitmasks, that the rows swept so far can take
    with distinct columns, and extends each by a free key of the next row.
    Its cost grows with the support, not with δ or the matchings.
    """
    masks = {0}
    for row in reversed(rows):
        masks = {m | 1 << c for c in row for m in masks if not m >> c & 1}
    return sorted(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in masks)


def plucker_point(rows, pivots, support):
    """The δ×δ minors of the sparse cell matrix ``rows`` (from
    ``cell_matrix``) on the column sets ``support`` (from ``minor_support``),
    in that order; one can still cancel to zero, and a set outside the
    support gives zero.

    A sweep from the bottom row up keeps, for each column set the rows
    swept so far can take, their minor on it, and expands the next row
    along its stored entries in column order: the minor on a set is the
    signed sum of entry × minor below on the set without that column, the
    sign counting the set's columns left of it.  The pivot entry is 1 and
    its sign +, as no row below reaches left of it, so it costs no
    arithmetic.  Each minor sums its terms in the order of a top-down
    Laplace expansion along the first row.
    """
    level = {0: ParamPoly.one()}
    for row, p in zip(reversed(rows), reversed(pivots)):
        grown = {}
        for c, q in row.items():
            bit = 1 << c
            for m, v in level.items():
                if m & bit:
                    continue
                if c == p:
                    term = v
                else:
                    term = q * v
                    if (m & (bit - 1)).bit_count() & 1:
                        term = -term
                key = m | bit
                grown[key] = grown[key] + term if key in grown else term
        level = grown
    zero = ParamPoly.zero()
    return tuple(level.get(sum(1 << c for c in cols), zero) for cols in support)


def reduce_against(rows, pivots, vector):
    """Reduce a sparse coordinate vector {column: entry} by a sparse reduced
    unit-pivot echelon basis; the remainder keeps only its nonzero entries."""
    zero = ParamPoly.zero()
    out = dict(vector)
    for row, p in zip(rows, pivots):
        c = out.get(p)
        if c is not None:
            for k, q in row.items():
                out[k] = out.get(k, zero) - c * q
    return {k: v for k, v in out.items() if not v.is_zero()}


def is_good_subspace(rows, pivots, sg):
    """Check the 𝒪-submodule condition on sparse rows: each t^{a_j} maps the
    span into itself modulo t^{2δ}."""
    dd = 2 * sg.delta
    for a in sg.gens:
        for row in rows:
            shifted = {e + a: q for e, q in row.items() if e + a < dd}
            if reduce_against(rows, pivots, shifted):
                return False
    return True
