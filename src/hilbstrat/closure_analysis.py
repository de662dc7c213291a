"""Closure containments between cells of one stratum, and components of M_r.

Containment of a cell C' in the closure of C is certified by a
one-parameter degeneration: each coordinate of C is sent to mu_j * s^{e_j}
for an integer exponent vector e, the projective limit s -> 0 of the
Plücker vector is computed exactly, and the limit is matched against the
symbolic Plücker point of C'.  A match plus a full-rank Jacobian at an
integer witness point proves the limits sweep out a dense subset of C'.

The limit along e depends only on the face of the source's Newton polytope
(the convex hull of the exponents of its Plücker coordinates, in one
coordinate system) on which e is minimal: its initial form.  Each
coordinate system carries the polytope's dimension and its facets, each
with a normal minimal exactly on it (``newton``); there is no face
lattice.  A face is a candidate for the target when it meets the exponents
of every coordinate of the target's support (the limit at a coordinate is
the sum of the terms on the face, and a dominant map hits points where
every such coordinate is nonzero), meets no exponent of a coordinate that
vanishes on the target, and has affine dimension at least dim C' (the
limit is invariant under u -> lambda^e * u for every e constant on the
face, so a smaller face is not dominant).  The candidates are generated
top-down from the facets, pruned by the support and dimension conditions,
which every subface inherits.  A candidate is viable when its limit
matches the target and the matched map is dominant, which is one exact
test: some maximal minor of its Jacobian is a nonzero polynomial.

The search judges each system's candidates in generation order and
certifies at the first viable one, F.  Its exponent vector is e_F, the sum
of the normals of the facets that contain F: each normal is minimal on its
facet, so the sum is minimal exactly on their intersection, which is F
(and e_F = 0 when F is the whole point set).  The witness is the first
integer point with no zero entry, in (L1, lex) order from (-1, ..., -1),
where the pivot minor of the limit is nonzero and the Jacobian has full
rank; the pivot minor times a nonzero maximal minor is a nonzero Laurent
polynomial, so such a point exists.  Nothing in a verdict depends on a
seed.  An unresolved search reports ``no_face``: no coordinate system
tried has a viable face.

Search, replay and limit checks all run on the source cell's one list of
coordinate systems.  A replay takes the face where the recorded vector is
minimal, which must be a viable candidate, and re-derives the witness
there; it accepts the certificate only if it is well formed and every
recorded field comes out again.

A stratum's pairs are decided in one pass (``closure_verdicts``) that
searches only what transitivity leaves open: when (i, k) and (k, j) are
already contained, (i, j) is recorded as contained with reason ``chain``
and the certificate {"via": k, "gaps": gap set of cell k, "links": the
certificates of (i, k) and (k, j)}.  Its replay needs no outside context:
it rebuilds cell k from the gap set, which must be Γ-closed, of colength r
and neither the source's nor the target's, and replays both links through
it.  An ``unknown`` therefore remains only where no chain of certified
containments settles the pair.

Non-containment is decided by four closed obstructions: the Schubert
incidence condition, dimension comparison, the target's pivot minor
missing from the source's Plücker point (a map from column sets to the
nonzero minors only), and, reason ``support``, any other coordinate of the
target's support missing from it.
"""
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, islice
from math import lcm
from operator import add, mul, or_

from .errors import HilbstratError
from .gamma_modules import GammaModule, delta_set
from .ideal_cells import _param_index, canonical_family, cell_matrix, minor_support, plucker_point
from .newton import facets
from .schubert import closure_leq, schubert_index
from .symcalc import ParamPoly, limit_s_to_zero

CONTAINED = "contained"
NOT_CONTAINED = "not_contained"
UNKNOWN = "unknown"
NO_FACE = "no_face"  # unknown: no coordinate system tried has a viable face
CHAIN = "chain"  # contained: two certified containments through a third cell

MAX_SYSTEMS = 16  # coordinate systems per cell, the canonical one included
CERTIFICATE_KEYS = ("system", "replacements", "exponents", "substitution", "target_pivots", "witness")
CHAIN_KEYS = frozenset(("via", "gaps", "links"))


class ClosureVerdict:
    __slots__ = ("status", "reason", "certificate")

    def __init__(self, status, reason=None, certificate=None):
        self.status = status
        self.reason = reason
        self.certificate = certificate

    def __repr__(self):
        return "ClosureVerdict(%s, %s)" % (self.status, self.reason)

    def to_dict(self):
        out = {"status": self.status, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


class StratCell:
    """One cell of a stratum M_r with its Grassmannian data precomputed."""

    __slots__ = (
        "index",
        "label",
        "r",
        "module",
        "family",
        "delta",
        "schubert",
        "rows",
        "pivots",
        "plucker",
        "dim",
        "entry_minors",
        "plucker_degree",
        "systems_cache",
    )

    def __repr__(self):
        return "StratCell(r=%d, S=%r)" % (self.r, self.module)


def build_cell(sg, module, r, index=0):
    cell = StratCell.__new__(StratCell)
    cell.index = index
    cell.label = None
    cell.r = r
    cell.module = module
    cell.family = canonical_family(sg, module)
    cell.delta = delta_set(module, r)
    cell.schubert = schubert_index(cell.delta)
    cell.rows, cell.pivots = cell_matrix(cell.family, r)
    support = minor_support(cell.rows)
    minors = zip(support, plucker_point(cell.rows, cell.pivots, support))
    cell.plucker = {cols: p for cols, p in minors if not p.is_zero()}
    cell.dim = cell.family.dimension
    cell.entry_minors = _entry_minors(cell)
    cell.plucker_degree = max(1, max(p.total_degree() for p in cell.plucker.values()))
    cell.systems_cache = None
    return cell


def _entry_minors(cell):
    """For each free parameter, (column set, sign) of the minor exposing it.

    A free parameter appears as a bare matrix entry in the row of the
    minimal generator it was seeded on; swapping that row's pivot column
    for the entry's column isolates it: the minor equals +/- the entry.
    """
    module = cell.module
    out = {}
    for name in cell.family.free_params:
        gi, c = _param_index(name)
        g = module.min_generators[gi]
        ri = cell.pivots.index(g - cell.r)
        col = c - cell.r
        entry = cell.rows[ri].get(col)
        if entry != ParamPoly.variable(name):  # pragma: no cover - seed rows are unreduced
            raise AssertionError("expected bare %s at row %d col %d" % (name, ri, col))
        cols = tuple(sorted([p for k, p in enumerate(cell.pivots) if k != ri] + [col]))
        sign = 1 if (ri + cols.index(col)) % 2 == 0 else -1
        out[name] = (cols, sign)
    return out


class CoordSystem:
    """A polynomial reparametrization of the source cell used for searching.

    ``replacements`` substitutes selected free parameters by derived
    displayed coefficients (e.g. B = b - a^2); the remaining parameters
    keep their identity.  Any polynomial map into the cell's parameter
    space yields valid source points, so soundness never depends on the
    replacement being invertible.
    """

    __slots__ = ("replacements", "coords", "plucker", "uvars", "arrays", "uniq_exps", "masks", "dim", "facets", "normals")

    def describe(self, family):
        rename = family.display_names
        out = []
        for param, expr, wname in self.replacements:
            out.append(
                {
                    "parameter": rename.get(param, param),
                    "coordinate": wname,
                    "expression": expr.format(rename),
                }
            )
        return out


def _compose_replacements(pairs):
    mapping = {}
    for param, expr, wname in sorted(pairs, key=lambda t: t[0], reverse=True):
        e = expr.subs(mapping)
        if e.degree_in(param) != 1:
            return None
        c = e.coeff_of(param, 1)
        if c.is_zero() or len(c.terms) != 1:
            return None
        rest = e.coeff_of(param, 0)
        # c is a (Laurent) monomial, so it is invertible; the solved
        # parameter may pick up negative powers of other parameters,
        # which restricts the reparametrized chart to a dense open set
        mapping[param] = (ParamPoly.variable(wname) - rest) * c ** (-1)
    replaced = set(mapping)
    try:
        for _ in range(len(mapping) + 1):
            dirty = False
            for p, v in list(mapping.items()):
                if any(nm in replaced for nm in v.variables()):
                    mapping[p] = v.subs(mapping)
                    dirty = True
            if not dirty:
                return mapping
    except ValueError:
        # a substituted parameter sits under a negative power and its
        # replacement is not a monomial; this combination has no chart
        return None
    return None


def _primitive_part(p):
    """Strip the common monomial factor and normalize the leading coefficient."""
    content = {}
    for nm in p.variables():
        e = min(dict(key).get(nm, 0) for key in p.terms)
        if e > 0:
            content[nm] = -e
    if content:
        p = p * ParamPoly({tuple(sorted(content.items())): 1})
    lead = p.terms[min(p.terms)]
    if lead != 1:
        p = p * (Fraction(1) / lead)
    return p


def _solvable_params(p, free_set):
    """Parameters of degree one in p whose coefficient is a monomial."""
    out = []
    for nm in p.variables():
        if nm not in free_set or p.degree_in(nm) != 1:
            continue
        c = p.coeff_of(nm, 1)
        if len(c.terms) == 1:
            out.append(nm)
    return out


def _candidate_replacements(src):
    """Derived coordinates worth trying instead of raw parameters.

    Two sources: non-bare displayed coefficients of the family's normal
    forms, and non-monomial Plücker coordinates of the cell.  Either kind
    is adopted by solving for one parameter of degree one.
    """
    free = src.family.free_params
    free_set = set(free)
    position = {p: i for i, p in enumerate(free)}
    cands = []
    seen = set()

    def consider(p):
        if p.is_zero() or len(p.terms) == 1:
            return
        p = _primitive_part(p)
        if p.is_constant() or len(p.terms) == 1:
            return
        solvable = _solvable_params(p, free_set)
        if not solvable:
            return
        target = max(solvable)
        sig = (target, tuple(sorted(p.terms.items())))
        if sig in seen:
            return
        seen.add(sig)
        cands.append((target, p, "w%02d" % position[target]))

    for s in src.family.generator_orders:
        nf = src.family.normal_forms[s]
        for e in sorted(nf.coeffs):
            if e != s:
                consider(nf.coeffs[e])
    for p in src.plucker.values():
        consider(p)
    return cands


def _systems(cell):
    """The cell's coordinate systems, canonical coordinates first and then
    adapted variants; built on first use and then kept."""
    if cell.systems_cache is not None:
        return cell.systems_cache
    free = cell.family.free_params
    cands = _candidate_replacements(cell)
    subsets = (
        [cands[i] for i in subset]
        for size in range(1, len(cands) + 1)
        for subset in combinations(range(len(cands)), size)
    )
    # each parameter is replaced at most once
    distinct = (c for c in subsets if len(set(t[0] for t in c)) == len(c))
    choices = [[]] + list(islice(distinct, MAX_SYSTEMS - 1))
    systems = []
    for pairs in choices:
        mapping = _compose_replacements(pairs) if pairs else {}
        if mapping is None:
            continue
        sysm = CoordSystem.__new__(CoordSystem)
        sysm.replacements = pairs
        replaced = {param: wname for param, _, wname in pairs}
        sysm.coords = [replaced.get(p, p) for p in free]
        sysm.uvars = ["u%02d" % j for j in range(len(free))]
        # renaming is injective, so it maps terms one to one, in order
        to_u = dict(zip(sysm.coords, sysm.uvars))
        plucker = {}
        for cols, p in cell.plucker.items():
            q = p.subs(mapping) if mapping else p
            plucker[cols] = ParamPoly({tuple(sorted((to_u[nm], e) for nm, e in key)): c for key, c in q.terms.items()})
        sysm.plucker = plucker
        sysm.arrays, sysm.uniq_exps, sysm.masks = _term_arrays(plucker, sysm.uvars)
        sysm.dim, sysm.facets, sysm.normals = facets(sysm.uniq_exps)
        systems.append(sysm)
    cell.systems_cache = systems
    return systems


def _term_arrays(plucker, uvars):
    """Per coordinate, its terms as (key, coefficient, index of the exponent
    vector); the distinct exponent vectors; and per coordinate, the bitmask
    of the indices of its exponent vectors."""
    pos = {u: j for j, u in enumerate(uvars)}
    k = len(uvars)
    uniq = []
    uniq_idx = {}
    arrays = {}
    masks = {}
    for cols, p in plucker.items():
        items = []
        mask = 0
        for key, c in p.terms.items():
            vec = [0] * k
            for nm, e in key:
                vec[pos[nm]] = e
            vec = tuple(vec)
            j = uniq_idx.get(vec)
            if j is None:
                j = len(uniq)
                uniq_idx[vec] = j
                uniq.append(vec)
            items.append((key, c, j))
            mask |= 1 << j
        arrays[cols] = items
        masks[cols] = mask
    return arrays, uniq, masks


def _rank(matrix):
    """Rank of a matrix of ints and Fractions, over the integers.

    Each row is scaled by the lcm of its denominators; Bareiss's
    fraction-free elimination (as in ``newton._inverse_columns``) then keeps
    every entry an integer: after k pivots an entry is a (k+1)-minor, and
    each division by the previous pivot is exact.
    """
    m = []
    for row in matrix:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    rank, prev = 0, 1
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank


def _match_target(limit, dst):
    """Identify the limit (a Plücker map) with a parametrized point of the
    target cell.

    Solves the target's free coefficients through single-swap minors and
    verifies every Plücker coordinate matches after clearing the pivot
    denominator; exact polynomial identities throughout.
    """
    # a coordinate that vanishes on the target must vanish in the limit
    if any(cols not in dst.plucker for cols in limit):
        return None
    q = limit.get(dst.pivots)
    if q is None:
        return None
    zero = ParamPoly.zero()
    n = {}
    for name, (cols, sign) in dst.entry_minors.items():
        val = limit.get(cols, zero)
        n[name] = val if sign == 1 else -val
    D = dst.plucker_degree
    powers = {0: ParamPoly.one(), 1: q}

    def qp(e):
        if e not in powers:
            powers[e] = qp(e - 1) * q
        return powers[e]

    lhs_factor = qp(D - 1)
    for cols, pk in dst.plucker.items():
        h = ParamPoly.zero()
        for key, cf in pk.terms.items():
            deg = sum(x for _, x in key)
            term = qp(D - deg) * cf
            for nm, ex in key:
                term = term * n[nm] ** ex
            h = h + term
        if limit.get(cols, zero) * lhs_factor != h:
            return None
    return n, q


def _jacobian(n_map, q, dst, uvars):
    """Rows q^2 * d(n/q)/du, one per free parameter of the target: the
    Jacobian of the matched map onto the target cell, up to a nonzero factor."""
    grad = []
    for nm in dst.family.free_params:
        nk = n_map[nm]
        grad.append([nk.derivative(u) * q - nk * q.derivative(u) for u in uvars])
    return grad


def _nonzero_points(k, total):
    """The integer vectors of length k with no zero entry and L1 norm
    ``total``, in lex order."""
    if k == 0:
        if total == 0:
            yield ()
        return
    top = total - (k - 1)
    for v in range(-top, top + 1):
        if v:
            for tail in _nonzero_points(k - 1, total - abs(v)):
                yield (v,) + tail


def _dominance_witness(grad, q, dst, uvars):
    """The first integer point with no zero entry, in (L1, lex) order from
    (-1, ..., -1), where the pivot minor q is nonzero and the Jacobian rows
    ``grad`` have full rank.  There q times some maximal minor is nonzero.
    On a viable face that product is a nonzero Laurent polynomial, which
    cannot vanish on a grid infinite in every coordinate, so the walk ends."""
    if dst.dim == 0:
        return {}
    total = len(uvars)
    while True:
        for values in _nonzero_points(len(uvars), total):
            point = dict(zip(uvars, values))
            if q.evaluate(point) and _rank([[g.evaluate(point) for g in row] for row in grad]) == dst.dim:
                return point
        total += 1


def _has_nonzero_minor(grad):
    """True iff some maximal minor of the polynomial matrix ``grad`` is a
    nonzero polynomial, i.e. the rows are independent over the function field.

    The minors are tried in the lex order of their column sets, up to the
    first nonzero one.  Each is expanded along its first row, memoised on
    the columns left (as in ``ideal_cells.plucker_point``), so the minors
    share their sub-minors and only those the tried minors reach are built.
    """
    m = len(grad)
    k = len(grad[0]) if grad else 0

    @cache
    def minor(cols):
        # minor of the last popcount(cols) rows on the columns in the bitmask
        if not cols:
            return ParamPoly.one()
        row = grad[m - cols.bit_count()]
        total = ParamPoly.zero()
        for c in range(k):
            bit = 1 << c
            if cols & bit and not row[c].is_zero():
                term = row[c] * minor(cols ^ bit)
                total = total - term if (cols & (bit - 1)).bit_count() & 1 else total + term
        return total

    return any(not minor(sum(1 << c for c in cols)).is_zero() for cols in combinations(range(k), m))


def _candidate_faces(dst, system):
    """The faces of ``system`` that may be viable for the target, each as the
    bitmask of its points' indices, in generation order.

    A candidate meets the exponents of every coordinate of the target's
    support, the pivot coordinate among them, and no exponent of a
    coordinate that vanishes on the target.  It also passes dominance,
    check 1: the limit is invariant under u -> lambda^e * u for every e
    constant on the face, so the matched map's rank is at most the face's
    affine dimension, which must be at least dim C'.

    Faces are generated top-down from the whole point set, one dimension at
    a time, each level in increasing order of the masks.  The children of a
    face F are the inclusion-maximal nonempty F & G != F over the facets G,
    which are the facets of F, each of dimension dim F - 1.  A face is
    pruned, with every face below it, only by what passes to its subfaces:
    a dimension below dim C', or no exponent of some support coordinate.
    A forced-zero exponent does not pass down, so such a face is only not
    a candidate itself.
    """
    masks = system.masks
    forced = reduce(or_, (m for cols, m in masks.items() if cols not in dst.plucker), 0)
    support = [masks.get(cols, 0) for cols in dst.plucker]
    level, dim = [(1 << len(system.uniq_exps)) - 1], system.dim
    while level and dim >= dst.dim:
        below = set()
        for face in level:
            if not all(face & m for m in support):
                continue
            if not face & forced:
                yield face
            if dim > dst.dim:
                kids = []
                for f in sorted({face & g for g in system.facets} - {0, face}, key=int.bit_count, reverse=True):
                    if not any(f & k == f for k in kids):
                        kids.append(f)
                below.update(kids)
        level, dim = sorted(below), dim - 1


def _face_vector(system, face):
    """e_F, the sum of the normals of the facets that contain the face F:
    each normal is minimal on its facet, so the sum is minimal exactly on
    their intersection, which is F.  It is 0 for the whole point set."""
    evec = [0] * len(system.uvars)
    for mask, normal in zip(system.facets, system.normals):
        if face & mask == face:
            evec = list(map(add, evec, normal))
    return evec


def _judge(dst, system, face):
    """The viability test of a candidate face (``_candidate_faces``) for the
    target: the Jacobian rows and pivot minor of the face's limit when the
    face is viable, and None otherwise.  A candidate is viable when its
    limit matches the target and the matched map is dominant.  Only a
    viable face can give a certificate: at every point the Jacobian's rank
    is at most its generic rank, so no witness exists for a non-dominant
    map.
    """
    limit = {}
    for cols, items in system.arrays.items():
        terms = {key: c for key, c, j in items if face >> j & 1}
        if terms:
            limit[cols] = ParamPoly(terms)
    matched = _match_target(limit, dst)
    if matched is None:
        return None
    n_map, q = matched
    grad = _jacobian(n_map, q, dst, system.uvars)
    # dominance, check 2, the exact one: some maximal minor is a nonzero
    # polynomial
    if not _has_nonzero_minor(grad):
        return None
    return grad, q


def _certify(src, dst, system, sys_idx, judged, evec):
    """The certificate of the degeneration along ``evec``, whose face was
    judged viable (``judged`` is its Jacobian rows and pivot minor)."""
    grad, q = judged
    rename = src.family.display_names
    subst = {}
    for coord, u, e in zip(system.coords, system.uvars, evec):
        shown = rename.get(coord, coord)
        subst[shown] = "%s*s^%d" % (u, e) if e else u
    return {
        "system": sys_idx,
        "replacements": system.describe(src.family),
        "exponents": list(evec),
        "substitution": subst,
        "target_pivots": list(dst.pivots),
        "witness": _dominance_witness(grad, q, dst, system.uvars),
    }


def _search_system(src, dst, system, sys_idx):
    """The certificate of the first viable candidate face of ``system``, in
    generation order (``_candidate_faces``, ``_judge``), along its vector
    e_F (``_face_vector``); None when no candidate is viable."""
    for face in _candidate_faces(dst, system):
        judged = _judge(dst, system, face)
        if judged is not None:
            return _certify(src, dst, system, sys_idx, judged, _face_vector(system, face))
    return None


def cell_closure_contains(src, dst):
    """Decide whether the target cell lies in the closure of the source cell.

    The systems of ``_systems(src)`` are searched in order
    (``_search_system``); an unknown is ``no_face``: no system has a viable
    face.
    """
    same = src.module.gap_set == dst.module.gap_set
    if not same and dst.dim >= src.dim:
        # closures of distinct cells add only strictly smaller strata
        return ClosureVerdict(NOT_CONTAINED, "dimension")
    if not closure_leq(src.schubert, dst.schubert):
        return ClosureVerdict(NOT_CONTAINED, "schubert")
    if dst.pivots not in src.plucker:
        # that Plücker coordinate vanishes on the whole source cell, hence
        # on its closure, but is the unit pivot minor on the target cell
        return ClosureVerdict(NOT_CONTAINED, "pivot_coordinate")
    if any(cols not in src.plucker for cols in dst.plucker):
        # the same for any coordinate of the target's support
        return ClosureVerdict(NOT_CONTAINED, "support")
    for sys_idx, system in enumerate(_systems(src)):
        cert = _search_system(src, dst, system, sys_idx)
        if cert is not None:
            return ClosureVerdict(CONTAINED, "degeneration", cert)
    return ClosureVerdict(UNKNOWN, NO_FACE)


def closure_verdicts(cells):
    """The verdict on every ordered pair of a stratum's cells (``cells[i]``
    has index i), keyed (i, j) in sorted order.

    Sources are visited by increasing (dim, index), and for each source the
    targets by decreasing (dim, index).  Distinct cells drop strictly in
    dimension along closure, so when (i, j) comes up every pair (i, k) and
    (k, j) that could link it is already decided.  If both are contained
    for some k, the least such k gives the verdict ``chain``, whose
    certificate records k, its gap set and the two links' certificates;
    otherwise (i, j) is searched (``cell_closure_contains``).  One pass thus
    settles every pair that a chain of certified containments implies.
    """
    n = len(cells)
    order = sorted(range(n), key=lambda i: (cells[i].dim, i))
    verdicts = {}
    contained = set()
    for i in order:
        for j in reversed(order):
            if i == j:
                continue
            k = next((k for k in range(n) if (i, k) in contained and (k, j) in contained), None)
            if k is None:
                verdict = cell_closure_contains(cells[i], cells[j])
            else:
                links = [verdicts[i, k].certificate, verdicts[k, j].certificate]
                cert = {"via": k, "gaps": list(cells[k].module.gap_set), "links": links}
                verdict = ClosureVerdict(CONTAINED, CHAIN, cert)
            verdicts[i, j] = verdict
            if verdict.status == CONTAINED:
                contained.add((i, j))
    return dict(sorted(verdicts.items()))


def _replay_chain(src, dst, certificate):
    """Replay a ``chain`` certificate: rebuild the intermediate cell from its
    recorded gap set (sorted, as recorded), with the recorded index, and
    replay both links through it.  Building a cell takes no setting, so
    the rebuilt cell is the one the original run used."""
    via, gaps, links = certificate["via"], certificate["gaps"], certificate["links"]
    if type(via) is not int or not isinstance(gaps, list) or any(type(g) is not int for g in gaps):
        return False
    if not isinstance(links, list) or len(links) != 2:
        return False
    sg = src.module.ambient
    try:
        module = GammaModule(sg, gaps)
        if list(module.gap_set) != gaps or module.colength != src.r:
            return False
        if module.gap_set in (src.module.gap_set, dst.module.gap_set):
            return False
        mid = build_cell(sg, module, src.r, index=via)
    except HilbstratError:
        return False
    return replay_certificate(src, mid, links[0]) and replay_certificate(mid, dst, links[1])


def replay_certificate(src, dst, certificate, seed=None):
    """Re-run the recorded degeneration; True iff it certifies again and
    re-derives every recorded field.

    The recorded vector's face is where it is minimal over ``uniq_exps``;
    the face must be a viable candidate, and the witness is re-derived
    there.  A ``chain`` certificate (exactly the keys
    ``via``, ``gaps`` and ``links``) replays when its gap set is that of a
    third cell of the stratum, of colength r, and both links replay through
    that cell (``_replay_chain``).  A certificate read from outside may be
    malformed: anything but a dict with the six fields, an ``int`` system
    index and a list of ``int`` exponents, or a well-formed chain, replays
    False.  ``seed`` is accepted for old callers and ignored: nothing in a
    certificate depends on one.
    """
    if isinstance(certificate, dict) and certificate.keys() == CHAIN_KEYS:
        return _replay_chain(src, dst, certificate)
    if not isinstance(certificate, dict) or any(key not in certificate for key in CERTIFICATE_KEYS):
        return False
    sys_idx = certificate["system"]
    exponents = certificate["exponents"]
    if type(sys_idx) is not int or not isinstance(exponents, list) or any(type(e) is not int for e in exponents):
        return False
    systems = _systems(src)
    evec = tuple(exponents)
    if not 0 <= sys_idx < len(systems) or len(evec) != len(systems[sys_idx].coords):
        return False
    system = systems[sys_idx]
    dots = [sum(map(mul, evec, alpha)) for alpha in system.uniq_exps]
    low = min(dots)
    face = sum(1 << j for j, d in enumerate(dots) if d == low)
    if face not in _candidate_faces(dst, system):
        return False
    judged = _judge(dst, system, face)
    return judged is not None and _certify(src, dst, system, sys_idx, judged, evec) == certificate


def degeneration_limit(src, system_index, exponents):
    """The projective limit of a recorded degeneration, as a Plücker map (for checks)."""
    systems = _systems(src)
    if not 0 <= system_index < len(systems):
        raise ValueError("no coordinate system with index %d" % system_index)
    system = systems[system_index]
    if len(exponents) != len(system.uvars):
        raise ValueError("%d exponents for %d coordinates" % (len(exponents), len(system.uvars)))
    svar = ParamPoly.variable("s")
    subs = {u: ParamPoly.variable(u) * svar ** e for u, e in zip(system.uvars, exponents)}
    vec = limit_s_to_zero([p.subs(subs) for p in system.plucker.values()])
    return {cols: p for cols, p in zip(system.plucker, vec) if not p.is_zero()}


class ComponentAnalysis:
    __slots__ = ("components", "singular_candidates")


def components(cells, verdicts):
    """Irreducible components of the stratum from pairwise closure verdicts.

    The Contained relation is closed transitively (a chain of closures is a
    closure); tops are the cells contained in no other cell's closure, and
    each component collects the cells certified inside its top's closure.
    """
    n = len(cells)
    cont = [[i == j for j in range(n)] for i in range(n)]
    for (i, j), v in verdicts.items():
        if v.status == CONTAINED:
            cont[i][j] = True
    for k in range(n):
        for i in range(n):
            if cont[i][k]:
                row = cont[i]
                rowk = cont[k]
                for j in range(n):
                    if rowk[j]:
                        row[j] = True
    tops = [i for i in range(n) if not any(j != i and cont[j][i] for j in range(n))]
    comps = []
    for t in tops:
        members = [j for j in range(n) if cont[t][j]]
        comps.append(
            {
                "top": t,
                "members": members,
                "pd_pattern": pd_pattern([cells[j] for j in members], cont, members),
            }
        )
    out = ComponentAnalysis.__new__(ComponentAnalysis)
    out.components = comps
    membership = {i: sum(i in c["members"] for c in comps) for i in range(n)}
    out.singular_candidates = [i for i in range(n) if membership[i] >= 2]
    return out


def pd_pattern(member_cells, cont, indices):
    """True iff the cells look like the affine stratification of P^d:
    dimensions are exactly 0..d once each and closures form a chain."""
    dims = sorted(c.dim for c in member_cells)
    if dims != list(range(len(member_cells))):
        return False
    for pa, a in enumerate(indices):
        for pb, b in enumerate(indices):
            if member_cells[pa].dim > member_cells[pb].dim and not cont[a][b]:
                return False
    return True
