"""Canonical parametrized ideal families (affine cells) and Plücker points.

Each cell is the set of ideals I ⊆ k[[Γ]] whose order set is a prescribed
Γ-module S.  It is presented by monic generators

    f_i = t^{g_i} + Σ λ_{i,c} t^c,

one per minimal generator g_i of S, with c running over the gaps of S
(elements of Γ∖S) above g_i.  Coefficient relations forced by the module
structure are eliminated symbolically; the survivors are free coordinates
on the cell.  Each row of its δ × 2δ cell matrix keeps only its nonzero
entries, as a dict {column: entry} (``cell_matrix``), and its Plücker
point is computed from sparse chart minors over them, in lexicographic
column-set order (``plucker_point``).
"""

from fractions import Fraction
from functools import cache

from .errors import CardinalityMismatch, NonTriangularRelation, PivotLoss
from .symcalc import ParamPoly, TruncSeries

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _param_name(gen_index, exponent):
    # zero-padded so that string order equals (generator, exponent) order
    return "q%02dx%03d" % (gen_index, exponent)


def _param_index(name):
    """(generator index, exponent) of a name made by ``_param_name``."""
    return int(name[1:3]), int(name[4:])


class CanonicalFamily:
    """The affine cell J(S): parametrized generators plus elimination data.

    ``generators`` is the displayed family: the minimal-generator series
    together with any derived normal forms carrying a coefficient that is
    neither zero nor a bare free parameter (these are the informative
    redundant generators the case analyses print, e.g. t^6 - a^2 t^8).
    """

    __slots__ = (
        "module",
        "truncation",
        "generators",
        "generator_orders",
        "free_params",
        "eliminated",
        "dimension",
        "normal_forms",
        "display_names",
    )

    def __init__(self, module, truncation, normal_forms, free_params, eliminated):
        self.module = module
        self.truncation = truncation
        self.normal_forms = normal_forms
        self.free_params = free_params
        self.eliminated = eliminated
        self.dimension = len(free_params)
        self.display_names = {
            name: (_LETTERS[i] if i < len(_LETTERS) else "x%d" % i)
            for i, name in enumerate(free_params)
        }
        self.generator_orders = self._displayed_orders()
        self.generators = [normal_forms[s] for s in self.generator_orders]

    def _displayed_orders(self):
        module = self.module
        free = set(self.free_params)
        min_gens = set(module.min_generators)
        max_gap = module.gap_set[-1] if module.gap_set else -1
        orders = []
        for s in sorted(self.normal_forms):
            if s in min_gens:
                orders.append(s)
                continue
            if s > max_gap:
                continue
            informative = False
            for e, p in self.normal_forms[s].coeffs.items():
                if e == s:
                    continue
                if len(p.terms) == 1:
                    ((key, c),) = p.terms.items()
                    if c == 1 and len(key) == 1 and key[0][1] == 1 and key[0][0] in free:
                        continue  # bare free parameter, carries no relation
                informative = True
                break
            if informative:
                orders.append(s)
        return orders

    def format_generators(self):
        return [g.format(rename=self.display_names) for g in self.generators]

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


def _build_seeds(module, truncation, eliminated):
    seeds = []
    for i, g in enumerate(module.min_generators):
        coeffs = {g: ParamPoly.one()}
        for c in module.gap_set:
            if c > g:
                name = _param_name(i, c)
                p = eliminated.get(name)
                if p is None:
                    p = ParamPoly.variable(name)
                if not p.is_zero():
                    coeffs[c] = p
        seeds.append(TruncSeries(truncation, coeffs))
    return seeds


def _primaries(module, seeds):
    """Monic element of each order s ∈ S below the module's conductor,
    truncated there and taken from the first minimal generator that
    reaches s."""
    gens = module.min_generators
    cut = module.conductor
    prim = {}
    owners = {}
    for s in range(cut):
        if s not in module:
            continue
        for i, g in enumerate(gens):
            if (s - g) in module.ambient:
                prim[s] = seeds[i].shift(s - g, trunc=cut)
                owners[s] = i
                break
        else:  # pragma: no cover - every s ∈ S is g_i + γ for some i
            raise PivotLoss("no generator reaches order %d" % s)
    return prim, owners


def _scan_relations(module, seeds, primaries, owners):
    """Reduce every leading-term-cancelling pair; collect forced relations.

    Returns a list of (forbidden_order, ParamPoly) for combinations whose
    reduced generic order falls in Γ∖S.  An empty list means the current
    parameter set is consistent.

    Every order of a series lies in Γ, and Γ and S agree at and above the
    module's conductor, so no relation appears there.  The pairs at orders
    s below the conductor are reduced modulo t^conductor: reducing a term
    only changes the terms above it, so the orders below are exact.
    """
    gens = module.min_generators
    cut = module.conductor
    found = []
    for s in sorted(primaries):
        for j, g in enumerate(gens):
            if j == owners[s] or (s - g) not in module.ambient:
                continue
            d = primaries[s] - seeds[j].shift(s - g, trunc=cut)
            while not d.is_zero():
                o = d.generic_order()
                if o in module:
                    d = d - primaries[o].scale(d.coeff(o))
                else:
                    found.append((o, d.coeff(o)))
                    break
    return found


def _solve_relation(poly):
    """Pick the lexicographically latest parameter that occurs linearly with
    a constant coefficient and express it through the others."""
    candidates = []
    for name in poly.variables():
        if poly.degree_in(name) != 1:
            continue
        c = poly.coeff_of(name, 1)
        if c.is_constant() and not c.is_zero():
            candidates.append(name)
    if not candidates:
        raise NonTriangularRelation("relation %s is not linear in any parameter" % poly.format())
    name = max(candidates)
    c = poly.coeff_of(name, 1).constant_value()
    rest = poly.coeff_of(name, 0)
    return name, rest * (Fraction(-1) / c)


def canonical_family(sg, module):
    """Construct the affine cell J(S) over Γ = sg.

    Seeds unknowns at every gap of S above each minimal generator, closes
    under the Γ-action, cancels leading terms pairwise, and eliminates any
    coefficient whose survival would put a forbidden order into the ideal.
    Repeats to a fixpoint; remaining parameters are free coordinates.

    Every gap lies below the module's conductor, and every order of Γ at or
    above it is in S.  So the computation runs modulo t^conductor, and the
    normal form of each order s at or above the conductor is the bare t^s.
    The family's series carry the truncation c(S) + c(Γ) + 2δ + 1: a
    ``cell_matrix`` window ending past it lies inside S, so it holds 2δ
    orders, not δ, and is refused before any normal form is read.
    """
    if module.ambient is not sg and module.ambient.gens != sg.gens:
        raise CardinalityMismatch("module does not live over the given semigroup")
    cut = module.conductor
    truncation = cut + sg.conductor + 2 * sg.delta + 1

    eliminated = {}
    while True:
        seeds = _build_seeds(module, truncation, eliminated)
        primaries, owners = _primaries(module, seeds)
        relations = _scan_relations(module, seeds, primaries, owners)
        if not relations:
            break
        relations.sort(key=lambda item: item[0])
        _, poly = relations[0]
        name, expr = _solve_relation(poly)
        eliminated = {k: v.subs({name: expr}) for k, v in eliminated.items()}
        eliminated[name] = expr

    params = [
        _param_name(i, c)
        for i, g in enumerate(module.min_generators)
        for c in module.gap_set
        if c > g
    ]
    free = [p for p in params if p not in eliminated]

    reduced = {}
    for s in sorted(primaries, reverse=True):
        d = primaries[s]
        while True:
            inside = [e for e in d.support() if e > s and e in module]
            if not inside:
                break
            e = min(inside)
            d = d - reduced[e].scale(d.coeff(e))
        if d.coeff(s) != ParamPoly.one():
            raise PivotLoss("normal form at order %d lost its unit leading term" % s)
        reduced[s] = d
    one = ParamPoly.one()
    normal_forms = {
        s: TruncSeries(truncation, reduced[s].coeffs if s < cut else {s: one})
        for s in module.members_below(truncation)
    }

    return CanonicalFamily(module, truncation, normal_forms, free, eliminated)


def cell_matrix(family, r):
    """Reduced unit-pivot echelon basis of t^{-r}·I modulo t^{2δ}, as sparse rows.

    Row i is the normal form of the i-th order s of S ∩ [r, r+2δ), shifted
    down by r and read off the family's coefficients: a dict {column: entry}
    holding only the nonzero entries, in ascending column order.  Its first
    key is its pivot s − r, with entry 1, and no other row has that column;
    the pivots are the Δ-set columns.
    """
    module = family.module
    sg = module.ambient
    dd = 2 * sg.delta
    orders = [s for s in range(r, r + dd) if s in module]
    if len(orders) != sg.delta:
        raise CardinalityMismatch(
            "window [%d, %d) holds %d orders, expected δ=%d"
            % (r, r + dd, len(orders), sg.delta)
        )
    end = r + dd
    rows = []
    for s in orders:
        coeffs = family.normal_forms[s].coeffs
        rows.append({e - r: coeffs[e] for e in sorted(coeffs) if e < end})
    pivots = tuple(s - r for s in orders)
    one = ParamPoly.one()
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if row.get(p) != one:
            raise PivotLoss("row %d has no unit pivot at column %d" % (i, p))
        if next(iter(row)) != p:
            raise PivotLoss("row %d has support below its pivot" % i)
        if any(p in other for k, other in enumerate(rows) if k != i):
            raise PivotLoss("pivot column %d not reduced" % p)
    return rows, pivots


def minor_support(rows):
    """Column sets, in lexicographic order, on which the δ×δ minor of the
    sparse ``rows`` has a nonzero term.  A DFS over the rows' keys, memoised
    on (row, columns used): its cost grows with the support, not with the
    matchings.
    """
    @cache
    def tails(i, used):
        # bitmasks of the columns that rows i, i+1, ... can take besides ``used``
        if i == len(rows):
            return {0}
        return {
            1 << c | t
            for c in rows[i]
            if not used >> c & 1
            for t in tails(i + 1, used | 1 << c)
        }

    return sorted(tuple(c for c in range(m.bit_length()) if m >> c & 1) for m in tails(0, 0))


def plucker_point(rows, pivots, support):
    """The δ×δ minors of the sparse cell matrix ``rows`` (from
    ``cell_matrix``) on the column sets ``support`` (from ``minor_support``),
    in that order; one can still cancel to zero.

    No other row reaches a pivot column, so a row whose pivot is in the set
    must take it: each minor is ± a chart minor, of the rows without their
    pivot on the non-pivot columns.  The expansion along the first row runs
    over that row's stored entries and is memoised on the columns left, so
    the minors share their sub-minors.
    """
    @cache
    def minor(cols):
        # minor of the last popcount(cols) rows on the columns in the bitmask
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
