"""Closure containments between cells of one stratum, and components of M_r.

Containment of a cell C' in the closure of C is certified by a
one-parameter degeneration: each coordinate of C is sent to mu_j * s^{e_j}
for an integer exponent vector e, the projective limit s -> 0 of the
Plücker vector is computed exactly, and the limit is matched against the
symbolic Plücker point of C'.  A match plus a full-rank Jacobian at a
rational witness point proves the limits sweep out a dense subset of C'.

The limit along e depends only on the face of the source's Newton polytope
(the convex hull of the exponents of its Plücker coordinates, in one
coordinate system) on which e is minimal: its initial form.  Each
coordinate system carries the polytope's dimension, facets (``newton``) and
vertices; there is no face lattice.  A face is a candidate for the target
when it meets the exponents of every coordinate of the target's support
(the limit at a coordinate is the sum of the terms on the face, and a
dominant map hits points where every such coordinate is nonzero), meets no
exponent of a coordinate that vanishes on the target, and has affine
dimension at least dim C' (the limit is invariant under u -> lambda^e * u
for every e constant on the face, so a smaller face is not dominant).  The
candidates are generated top-down from the facets, pruned by the support
and dimension conditions, which every subface inherits.  A candidate is
viable when its limit matches the target and the matched map is dominant,
which is one exact test: some maximal minor of its Jacobian is a nonzero
polynomial.  A system without a viable candidate is dismissed before any
exponent vector is enumerated.

Otherwise the search walks the candidates, each through the integer points
of its own normal space, level by level in L1 norm.  It finds each face's
first vector: the (L1, lex)-least vector on which exactly that face is
minimal.  Every face of a polytope has a nonempty open normal cone, so the
search ends once every candidate has been tried at its first vector.
Faces are tried in the (L1, lex) order of their first vectors; the first
whose face is viable and whose witness, seeded from the vector, succeeds
names the certificate.  That is the vector a scan of all integer vectors
in (L1, lex) order finds.  An unresolved search reports ``no_face`` when
no coordinate system tried has a viable face, and ``witness`` when every
viable face was tried and its witness failed.

Search, replay and limit checks all run on the source cell's one list of
coordinate systems.  A replay takes the face where the recorded vector is
minimal, which must be a candidate, and re-runs the judgement and witness
there, with the seed of the original run; it accepts the certificate only
if it is well formed and re-derives every recorded field.

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
import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, islice
from math import gcd, lcm
from operator import and_, mul, or_

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


def build_cell(sg, module, r, index=0, margin=0):
    cell = StratCell.__new__(StratCell)
    cell.index = index
    cell.label = None
    cell.r = r
    cell.module = module
    cell.family = canonical_family(sg, module, margin=margin)
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
        entry = cell.rows[ri][col]
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

    __slots__ = ("replacements", "coords", "plucker", "uvars", "arrays", "uniq_exps", "dim", "facets", "vertices")

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
        sysm.arrays, sysm.uniq_exps = _term_arrays(plucker, sysm.uvars)
        sysm.dim, sysm.facets = facets(sysm.uniq_exps)
        # a point is a vertex when the facets through it meet only in it
        n = len(sysm.uniq_exps)
        through = ([f for f in sysm.facets if f >> j & 1] for j in range(n))
        sysm.vertices = [j for j, fs in enumerate(through) if reduce(and_, fs, (1 << n) - 1) == 1 << j]
        systems.append(sysm)
    cell.systems_cache = systems
    return systems


def _term_arrays(plucker, uvars):
    pos = {u: j for j, u in enumerate(uvars)}
    k = len(uvars)
    uniq = []
    uniq_idx = {}
    arrays = {}
    for cols, p in plucker.items():
        items = []
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
        arrays[cols] = items
    return arrays, uniq


def _fixed_norm_vectors(k, total):
    """The vectors of Z^k of L1 norm ``total``, in lex order."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for v in range(-total, total + 1):
        for tail in _fixed_norm_vectors(k - 1, total - abs(v)):
            yield (v,) + tail


def _normal_space(points):
    """The integer vectors e on which every one of ``points`` weighs the same.

    The differences to the first point are reduced, over the integers as in
    ``newton.facets``, until each row is zero on the pivot columns of
    the others.  Returns the free columns and, per pivot column p, the row's
    entry d there and its entries on the free columns: e is in the space iff
    d * e[p] + sum(c * e[q]) == 0 for every row.
    """
    base = points[0]
    rows = []
    for point in points[1:]:
        v = [a - b for a, b in zip(point, base)]
        for c, row in rows:
            if v[c]:
                v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            continue
        for i, (c, row) in enumerate(rows):
            if row[lead]:
                row = [v[lead] * x - row[lead] * y for x, y in zip(row, v)]
                g = gcd(*row)
                rows[i] = (c, [x // g for x in row])
        g = gcd(*v)
        rows.append((lead, [x // g for x in v]))
    pivots = {c for c, _ in rows}
    free = [q for q in range(len(base)) if q not in pivots]
    solved = [(c, row[c], [(q, row[q]) for q in free if row[q]]) for c, row in rows]
    return free, solved


def _normal_vectors(free, solved, total):
    """The integer vectors of a normal space (``_normal_space``) whose free
    entries have L1 norm ``total``, by the lex order of those."""
    k = len(free) + len(solved)
    for part in _fixed_norm_vectors(len(free), total):
        evec = [0] * k
        for q, x in zip(free, part):
            evec[q] = x
        for p, d, coeffs in solved:
            num = -sum(c * evec[q] for q, c in coeffs)
            if num % d:
                break
            evec[p] = num // d
        else:
            yield tuple(evec)


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


def _dominance_witness(grad, q, dst, uvars, seed_str):
    """Rational point where the induced map onto the target cell has full rank."""
    if dst.dim == 0:
        return {}
    rng = random.Random(seed_str)
    for _ in range(8):
        point = {u: Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 9)) for u in uvars}
        try:
            if q.evaluate(point) == 0:
                continue
            mat = [[g.evaluate(point) for g in row] for row in grad]
        except ZeroDivisionError:
            continue
        if _rank(mat) == dst.dim:
            return {u: str(point[u]) for u in uvars}
    return None


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
    set of its points' indices, mapped to its normal space (``_normal_space``).

    A candidate meets the exponents of every coordinate of the target's
    support, the pivot coordinate among them, and no exponent of a
    coordinate that vanishes on the target.  It also passes dominance,
    check 1: the limit is invariant under u -> lambda^e * u for every e
    constant on the face, so the matched map's rank is at most the face's
    affine dimension, which must be at least dim C'.

    Faces are generated top-down from the whole point set.  The children of
    a face F are the inclusion-maximal nonempty F & G != F over the facets
    G, which are the facets of F, each of dimension dim F - 1.  A face is
    pruned, with every face below it, only by what passes to its subfaces:
    a dimension below dim C', or no exponent of some support coordinate.
    A forced-zero exponent does not pass down, so such a face is only not
    a candidate itself.
    """
    uniq = system.uniq_exps
    masks = {cols: sum({1 << j for _, _, j in items}) for cols, items in system.arrays.items()}
    forced = reduce(or_, (m for cols, m in masks.items() if cols not in dst.plucker), 0)
    support = [masks.get(cols, 0) for cols in dst.plucker]
    out = {}
    level, dim = [(1 << len(uniq)) - 1], system.dim
    while level and dim >= dst.dim:
        below = set()
        for face in level:
            if not all(face & m for m in support):
                continue
            if not face & forced:
                points = [j for j in range(len(uniq)) if face >> j & 1]
                out[frozenset(points)] = _normal_space([uniq[j] for j in points])
            if dim > dst.dim:
                kids = []
                for f in sorted({face & g for g in system.facets} - {0, face}, key=int.bit_count, reverse=True):
                    if not any(f & k == f for k in kids):
                        kids.append(f)
                below.update(kids)
        level, dim = sorted(below), dim - 1
    return out


def _judge_faces(dst, system):
    """The viability test of ``system``'s candidate faces for the target, memoized.

    It maps a candidate face (``_candidate_faces``) to the Jacobian rows and
    pivot minor of the face's limit when the face is viable, and to None
    otherwise.  A candidate is viable when its limit matches the target and
    the matched map is dominant.  Only a viable face can give a certificate:
    at every point the Jacobian's rank is at most its generic rank, so the
    witness of a non-dominant map always fails.
    """
    arrays = system.arrays
    judged = {}

    def viable(face):
        if face not in judged:
            judged[face] = judge(face)
        return judged[face]

    def judge(face):
        limit = {}
        for cols, items in arrays.items():
            terms = {key: c for key, c, j in items if j in face}
            if terms:
                limit[cols] = ParamPoly(terms)
        matched = _match_target(limit, dst)
        if matched is None:
            return None
        n_map, q = matched
        grad = _jacobian(n_map, q, dst, system.uvars)
        # dominance, check 2, the exact one: some maximal minor is a
        # nonzero polynomial
        if not _has_nonzero_minor(grad):
            return None
        return grad, q

    return viable


def _certify(src, dst, system, sys_idx, judged, evec, seed):
    """The certificate of the degeneration along ``evec``, whose face was
    judged viable (``judged`` is its Jacobian rows and pivot minor), or None
    when the witness seeded from the vector fails."""
    grad, q = judged
    seed_str = "%s:%d:%d:%d:%s" % (seed, src.index, dst.index, sys_idx, evec)
    witness = _dominance_witness(grad, q, dst, system.uvars, seed_str)
    if witness is None:
        return None
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
        "witness": witness,
    }


def _search_system(src, dst, system, sys_idx, seed):
    """Certify dst in the closure of src along the (L1, lex)-least vector
    whose face is viable and whose witness, seeded from the vector,
    succeeds; each face is tried once, at its first vector.

    Only the candidate faces (``_candidate_faces``) are walked.  Each walks
    the integer points of its normal space, free entries of L1 norm T at
    level T = 0, 1, ...; a full vector's norm is at least its free
    entries', so once level T is walked every vector of norm T in the
    face's open normal cone is known.  At each level the faces whose first
    vector has norm T are tried in the lex order of those vectors.  Every
    face's open normal cone holds an integer vector, so each walk ends at
    its face's first vector, and the search ends once every candidate has
    been tried.

    Gives up with reason ``no_face`` before walking any face when no
    candidate is viable, and with ``witness`` when every viable face's
    witness failed.
    """
    candidates = _candidate_faces(dst, system)
    viable = _judge_faces(dst, system)
    if not any(viable(face) for face in candidates):
        return ClosureVerdict(UNKNOWN, NO_FACE)
    uniq = system.uniq_exps
    # a linear form constant on a face is minimal there, and nowhere else,
    # iff every vertex off the face weighs more
    live = {  # candidate face -> its normal space, a point on it, the vertices off it
        face: (free, solved, uniq[min(face)], [uniq[j] for j in system.vertices if j not in face])
        for face, (free, solved) in candidates.items()
    }
    pending = {}  # face -> the least (norm, vector) of its open cone walked so far
    level = 0
    while live:
        for face, (free, solved, base, outside) in live.items():
            for evec in _normal_vectors(free, solved, level):
                height = sum(map(mul, evec, base))
                if all(sum(map(mul, evec, alpha)) > height for alpha in outside):
                    found = (sum(map(abs, evec)), evec)
                    if face not in pending or found < pending[face]:
                        pending[face] = found
        due = sorted((evec, face) for face, (norm, evec) in pending.items() if norm == level)
        for evec, face in due:
            del live[face], pending[face]
            judged = viable(face)
            if judged is None:
                continue
            cert = _certify(src, dst, system, sys_idx, judged, evec, seed)
            if cert is not None:
                return ClosureVerdict(CONTAINED, "degeneration", cert)
        level += 1
    return ClosureVerdict(UNKNOWN, "witness")


def cell_closure_contains(src, dst, seed=42):
    """Decide whether the target cell lies in the closure of the source cell.

    The systems of ``_systems(src)`` are searched in order
    (``_search_system``); an unknown is ``no_face`` when no system has a
    viable face, and ``witness`` otherwise.
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
    reasons = set()
    for sys_idx, system in enumerate(_systems(src)):
        verdict = _search_system(src, dst, system, sys_idx, seed)
        if verdict.status == CONTAINED:
            return verdict
        reasons.add(verdict.reason)
    if reasons == {NO_FACE}:
        # no exponent vector of any system tried can certify
        return ClosureVerdict(UNKNOWN, NO_FACE)
    return ClosureVerdict(UNKNOWN, "witness")


def closure_verdicts(cells, seed=42):
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
                verdict = cell_closure_contains(cells[i], cells[j], seed=seed)
            else:
                links = [verdicts[i, k].certificate, verdicts[k, j].certificate]
                cert = {"via": k, "gaps": list(cells[k].module.gap_set), "links": links}
                verdict = ClosureVerdict(CONTAINED, CHAIN, cert)
            verdicts[i, j] = verdict
            if verdict.status == CONTAINED:
                contained.add((i, j))
    return dict(sorted(verdicts.items()))


def _replay_chain(src, dst, certificate, seed):
    """Replay a ``chain`` certificate: rebuild the intermediate cell from its
    recorded gap set (sorted, as recorded), with the recorded index, and
    replay both links through it.  The cell is built at truncation margin 0:
    no order at or above a module's conductor enters its family, so the
    margin of the original run does not change the cell."""
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
    return replay_certificate(src, mid, links[0], seed) and replay_certificate(mid, dst, links[1], seed)


def replay_certificate(src, dst, certificate, seed=42):
    """Re-run the recorded degeneration with the seed of the original run;
    True iff it certifies again and re-derives every recorded field.

    The recorded vector's face is where it is minimal over ``uniq_exps``;
    the face must be a viable candidate and the witness seeded from the
    vector must succeed.  A ``chain`` certificate (exactly the keys
    ``via``, ``gaps`` and ``links``) replays when its gap set is that of a
    third cell of the stratum, of colength r, and both links replay through
    that cell (``_replay_chain``).  A certificate read from outside may be
    malformed: anything but a dict with the six fields, an ``int`` system
    index and a list of ``int`` exponents, or a well-formed chain, replays
    False.
    """
    if isinstance(certificate, dict) and certificate.keys() == CHAIN_KEYS:
        return _replay_chain(src, dst, certificate, seed)
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
    face = frozenset(j for j, d in enumerate(dots) if d == min(dots))
    if face not in _candidate_faces(dst, system):
        return False
    judged = _judge_faces(dst, system)(face)
    return judged is not None and _certify(src, dst, system, sys_idx, judged, evec, seed) == certificate


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
    __slots__ = ("components", "incomplete", "residual_unknowns", "singular_candidates")


def components(cells, verdicts):
    """Irreducible components of the stratum from pairwise closure verdicts.

    The Contained relation is closed transitively (a chain of closures is a
    closure); tops are the cells contained in no other cell's closure, and
    each component collects the cells certified inside its top's closure.
    """
    n = len(cells)
    cont = [[i == j for j in range(n)] for i in range(n)]
    unknown_pairs = []
    for (i, j), v in verdicts.items():
        if v.status == CONTAINED:
            cont[i][j] = True
        elif v.status == UNKNOWN:
            unknown_pairs.append((i, j))
    for k in range(n):
        for i in range(n):
            if cont[i][k]:
                row = cont[i]
                rowk = cont[k]
                for j in range(n):
                    if rowk[j]:
                        row[j] = True
    residual = [(i, j) for (i, j) in unknown_pairs if not cont[i][j]]
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
    out.residual_unknowns = residual
    out.incomplete = bool(residual)
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
