"""Closure containments between cells of one stratum, and components of M_r.

Containment of a cell C' in the closure of C is certified by a
one-parameter degeneration: each coordinate of C is sent to mu_j * s^{e_j}
for an integer exponent vector e, the projective limit s -> 0 of the
Plücker vector is computed exactly, and the limit is matched against the
entries of the cell matrix of C'.  A match plus a full-rank Jacobian at an
integer witness point proves the limits sweep out a dense subset of C'.

The limit along e depends only on the face of the source's Newton polytope
(the convex hull of the exponents of its Plücker coordinates, in one
coordinate system) on which e is minimal: its initial form.  A coordinate
system is one table of exponent vectors: the distinct vectors of its
Plücker coordinates, substituted in one ``symcalc.substitute`` call, and
per coordinate its terms as (vector index, coefficient).  The polytope's
dimension and its facets, each with a normal minimal exactly on it
(``newton``), are built on the chart's first use and kept on it; there is
no face lattice.  A face is a candidate for
the target when it meets the exponents of every coordinate of the
target's support (the limit at a coordinate is the sum of the terms on
the face, and a dominant map hits points where every such coordinate is
nonzero), meets no exponent of a coordinate that vanishes on the target,
and has affine dimension at least dim C' (the limit is invariant under
u -> lambda^e * u for every e constant on the face, so a smaller face is
not dominant).  The candidates are generated
top-down from the facets, pruned by the support and dimension conditions,
which every subface inherits.  A candidate is viable when its limit
matches the target and the matched map is dominant, which is one exact
test: some maximal minor of its Jacobian is a nonzero polynomial.  The
first such minor, in the lex order of column sets, is kept.

The search judges each system's candidates in generation order and
certifies at the first viable one, F.  Its exponent vector is e_F, the sum
of the normals of the facets that contain F: each normal is minimal on its
facet, so the sum is minimal exactly on their intersection, which is F
(and e_F = 0 when F is the whole point set).  The witness is the first
integer point with no zero entry, in (L1, lex) order from (-1, ..., -1),
where the pivot minor of the limit and the kept minor are both nonzero, so
the Jacobian has full rank there; their product is a nonzero Laurent
polynomial, so such a point exists.  Nothing in a verdict depends on a
seed.  An unresolved search reports ``no_face``: no coordinate system
tried has a viable face.

The search runs on the source cell's one list of coordinate systems; a
replay or limit check builds only the one a certificate names by its
replacements.  A replay takes the face where the recorded vector is
minimal, which must be a viable candidate, and re-derives the witness
there; it accepts the certificate only if it is well formed and every
recorded field comes out again.

A stratum's pairs are decided in one pass (``closure_verdicts``) that
searches only what transitivity leaves open: when (i, k) and (k, j) are
already contained, (i, j) is recorded as contained with reason ``chain``
and the certificate {"gaps": gap set of the least such cell k, "links":
the certificates of (i, k) and (k, j)}.  Its replay needs no outside
context: it rebuilds cell k from the gap set, which must be Γ-closed, of
colength r and of dimension strictly between the source's and the
target's, and replays both links through it.  An ``unknown`` therefore
remains only where no chain of certified containments settles the pair.

Non-containment is decided by two closed obstructions: dimension
comparison and, reason ``support``, a coordinate of the target's support
missing from the source's Plücker point (a map from column sets to the
nonzero minors only).  It covers the Schubert incidence condition: a
cell's nonzero Plücker coordinates sit at column sets at or above its
pivot set (Fulton, Young Tableaux, 1997).
"""
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, islice
from operator import add, mul, or_

from .errors import HilbstratError
from .gamma_modules import GammaModule, schubert_index
from .ideal_cells import canonical_family, cell_matrix, minor_support, plucker_point
from .newton import facets
from .symcalc import ParamPoly, limit_s_to_zero, substitute

CONTAINED = "contained"
NOT_CONTAINED = "not_contained"
UNKNOWN = "unknown"
NO_FACE = "no_face"  # unknown: no coordinate system tried has a viable face
CHAIN = "chain"  # contained: two certified containments through a third cell

MAX_SYSTEMS = 16  # coordinate systems per cell, the canonical one included
CERTIFICATE_KEYS = ("replacements", "exponents", "substitution", "target_pivots", "witness")
CHAIN_KEYS = frozenset(("gaps", "links"))


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
    """One cell of a stratum M_r, all read off its module S: r is the colength
    of S, and ``delta``, the Δ-set, is the pivot set of the cell matrix ``rows``."""

    __slots__ = (
        "label",
        "r",
        "module",
        "family",
        "delta",
        "schubert",
        "rows",
        "plucker",
        "dim",
        "entry_minors",
        "systems_cache",
    )

    def __repr__(self):
        return "StratCell(r=%d, S=%r)" % (self.r, self.module)


def build_cell(module):
    """The cell J(S) in the stratum of the colength of S; its rows and Δ-set
    come from ``cell_matrix``, which reads the window through ``delta_set``."""
    cell = StratCell.__new__(StratCell)
    cell.label = None
    cell.r = module.colength
    cell.module = module
    cell.family = canonical_family(module)
    cell.rows, cell.delta = cell_matrix(cell.family)
    cell.schubert = schubert_index(cell.delta)
    support = minor_support(cell.rows)
    minors = zip(support, plucker_point(cell.rows, cell.delta, support))
    cell.plucker = {cols: p for cols, p in minors if not p.is_zero()}
    cell.dim = cell.family.dimension
    cell.entry_minors = _entry_minors(cell)
    cell.systems_cache = None
    return cell


def _entry_minors(cell):
    """Every stored off-pivot entry of the cell matrix as (column set, sign,
    entry): swapping the row's pivot column for the entry's column gives the
    minor sign * entry.  Each free parameter is a bare entry in the row it
    was seeded on; a zero entry's column set vanishes on the cell."""
    out = []
    for ri, (row, pivot) in enumerate(zip(cell.rows, cell.delta)):
        for col, entry in row.items():
            if col != pivot:
                cols = tuple(sorted(set(cell.delta) - {pivot} | {col}))
                out.append((cols, (-1) ** (ri + cols.index(col)), entry))
    return out


class CoordSystem:
    """A polynomial reparametrization of the source cell used for searching.

    ``replacements`` substitutes selected free parameters by derived
    coordinates, Plücker coordinates of the cell (e.g. B = b - a^2,
    ``_candidate_replacements``); the remaining parameters
    keep their identity.  Each coordinate w equals its expression at the
    mapping ``_compose_replacements`` solves where the expression is affine
    in its parameter.  Any polynomial map into the cell's parameter space
    yields valid source points, so soundness never depends on the
    replacement being invertible.

    The chart is one table of exponent vectors read off ``substitute``:
    ``uniq_exps``, the distinct vectors over ``coords`` in order of first
    appearance, and per column set its ``terms`` and ``masks``.
    Its hull, ``dim``, ``facets`` and ``normals``, is None until
    ``_candidate_faces`` first needs it (``_hull``).
    """

    __slots__ = ("replacements", "coords", "uvars", "uniq_exps", "terms", "masks", "dim", "facets", "normals")


def _describe(pair, family):
    """A replacement as a certificate records it, in display names; they are
    distinct, so the expression's text determines the expression."""
    param, expr, wname = pair
    rename = family.display_names
    return {"parameter": rename.get(param, param), "coordinate": wname, "expression": expr.format(rename)}


def _compose_replacements(pairs):
    """Each replaced parameter in the chart's coordinates, or None when the
    replacements do not compose.  The solve runs from the last parameter to
    the first: each expression, with the solved ones substituted, must split
    as c*param + rest (``ParamPoly.affine_in``: every term holds param to
    the power 0 or 1 and c is a monomial) and name no parameter solved
    before it, and gives param = (w - rest) / c.  So the mapping is
    triangular, one back-substitution pass resolves it, and each coordinate
    w equals its expression there.  A parameter named twice has no term
    left at its second solve."""
    mapping = {}
    for param, expr, wname in sorted(pairs, key=lambda t: t[0], reverse=True):
        e = expr.subs(mapping)
        split = e.affine_in(param)
        if split is None or not mapping.keys().isdisjoint(e.variables()):
            return None
        # c is a Laurent monomial, so the chart is a dense open subset
        c, rest = split
        mapping[param] = (ParamPoly.variable(wname) - rest) * c ** (-1)
    try:
        for p in reversed(list(mapping)):
            mapping[p] = mapping[p].subs(mapping)
    except ValueError:
        # a substituted parameter sits under a negative power and its
        # replacement is not a monomial; this combination has no chart
        return None
    return mapping


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


def _candidate_replacements(src):
    """Derived coordinates worth trying instead of raw parameters: the
    non-monomial Plücker coordinates of the cell, each adopted by solving
    for the latest parameter in which it is affine with a monomial
    coefficient (``ParamPoly.affine_in``).  The single-swap ones come
    first, in the order of ``entry_minors``, which fixes the order that
    ``MAX_SYSTEMS`` cuts; each is read as its entry, which is the minor up
    to a sign that the primitive part drops.
    """
    position = {p: i for i, p in enumerate(src.family.free_params)}
    cands = []
    seen = set()

    def consider(p):
        if len(p.terms) == 1:
            return
        p = _primitive_part(p)
        solvable = [nm for nm in p.variables() if p.affine_in(nm)]
        if not solvable:
            return
        target = max(solvable)
        sig = (target, tuple(sorted(p.terms.items())))
        if sig in seen:
            return
        seen.add(sig)
        cands.append((target, p, "w%02d" % position[target]))

    for _, _, entry in src.entry_minors:
        consider(entry)
    for p in src.plucker.values():
        consider(p)
    return cands


def _chart(cell, pairs):
    """The coordinate system that replaces each parameter of ``pairs`` by its
    derived coordinate; None when the replacements do not compose.  Its
    coordinates are the Plücker point under one ``substitute`` call, and
    vector indices follow their terms' order, which fixes the masks and so
    the order of the candidate faces."""
    mapping = _compose_replacements(pairs)
    if mapping is None:
        return None
    free = cell.family.free_params
    sysm = CoordSystem.__new__(CoordSystem)
    sysm.replacements = pairs
    replaced = {param: wname for param, _, wname in pairs}
    sysm.coords = [replaced.get(p, p) for p in free]
    sysm.uvars = ["u%02d" % j for j in range(len(free))]
    slot = {}
    sysm.terms, sysm.masks = {}, {}
    for cols, q in zip(cell.plucker, substitute(cell.plucker.values(), mapping)):
        sysm.terms[cols] = [(slot.setdefault(key, len(slot)), c) for key, c in q.terms.items()]
        sysm.masks[cols] = sum(1 << j for j, _ in sysm.terms[cols])
    sysm.uniq_exps = [tuple(exps.get(nm, 0) for nm in sysm.coords) for exps in map(dict, slot)]
    sysm.dim = sysm.facets = sysm.normals = None
    return sysm


def _hull(system):
    """Fill in the chart's dimension, facets and normals (``newton.facets``)
    on its first use; they are kept on it."""
    if system.facets is None:
        system.dim, system.facets, system.normals = facets(system.uniq_exps)


def _polynomial(system, items, face):
    """The terms ``items`` with vector on ``face`` (a bitmask; -1 is all), in the u-variables."""
    uvars, exps = system.uvars, system.uniq_exps
    return ParamPoly({tuple((u, e) for u, e in zip(uvars, exps[j]) if e): c for j, c in items if face >> j & 1})


def _systems(cell):
    """The cell's coordinate systems, canonical coordinates first and then
    adapted variants; built on first use and then kept."""
    if cell.systems_cache is not None:
        return cell.systems_cache
    cands = _candidate_replacements(cell)
    subsets = (
        [cands[i] for i in subset]
        for size in range(1, len(cands) + 1)
        for subset in combinations(range(len(cands)), size)
    )
    # each parameter is replaced at most once
    distinct = (c for c in subsets if len(set(t[0] for t in c)) == len(c))
    choices = [[]] + list(islice(distinct, MAX_SYSTEMS - 1))
    charts = (_chart(cell, pairs) for pairs in choices)
    cell.systems_cache = [sysm for sysm in charts if sysm is not None]
    return cell.systems_cache


def _recorded_chart(src, replacements):
    """The chart that recorded ``replacements`` name, each entry matched to
    the candidate of ``_candidate_replacements(src)`` that describes as it,
    so each coordinate of the chart equals the expression its entry names;
    None when one matches none or the chart does not compose (one parameter
    replaced twice does not)."""
    if not isinstance(replacements, list):
        return None
    described = [(_describe(pair, src.family), pair) for pair in _candidate_replacements(src)]
    pairs = [next((pair for d, pair in described if d == entry), None) for entry in replacements]
    return None if None in pairs else _chart(src, pairs)


def _match_target(limit, dst):
    """(n, q) when the limit (a Plücker map) is q times the target's Plücker
    point at n/q, and None otherwise.  The limit is a point of the
    Grassmannian, so where q, its pivot coordinate, is nonzero it is q times
    the Plücker point of its reduced matrix, with entries sign * limit / q at
    the entries' column sets (``_entry_minors``); only these are read.  n is
    read off the bare parameters' entries, and each entry of degree d is
    checked as sign * limit * q^(D-1) against the entry homogenised at n and
    q to degree D = max(1, d).
    """
    q = limit[dst.delta]
    n = {}
    for cols, sign, entry in dst.entry_minors:
        names = entry.variables()
        if len(names) == 1 and entry == ParamPoly.variable(names[0]):
            n.setdefault(names[0], limit[cols] * sign)
    for cols, sign, entry in dst.entry_minors:
        D = max(1, entry.total_degree())
        h = ParamPoly.zero()
        for key, cf in entry.terms.items():
            term = q ** (D - sum(x for _, x in key)) * cf
            for nm, ex in key:
                term = term * n[nm] ** ex
            h = h + term
        if limit[cols] * sign * q ** (D - 1) != h:
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


def _dominance_witness(minor, q, dst, uvars):
    """The first integer point with no zero entry, in (L1, lex) order from
    (-1, ..., -1), where the pivot minor q and the maximal minor ``minor`` of
    the Jacobian are both nonzero; there the Jacobian has full rank.  On a
    viable face q * minor is a nonzero Laurent polynomial, which cannot
    vanish on a grid infinite in every coordinate, so the walk ends."""
    if dst.dim == 0:
        return {}
    total = len(uvars)
    while True:
        for values in _nonzero_points(len(uvars), total):
            point = dict(zip(uvars, values))
            if q.evaluate(point) and minor.evaluate(point):
                return point
        total += 1


def _nonzero_minor(grad):
    """The first maximal minor of the polynomial matrix ``grad``, in the lex
    order of its column sets, that is a nonzero polynomial; None when there
    is none, i.e. the rows are dependent over the function field.

    The minors are tried up to the first nonzero one.  Each is expanded
    along its first row, memoised on the columns left, so the minors share
    their sub-minors and only those the tried minors reach are built.  It
    stays lazy and top-down: one minor is wanted, and a bottom-up sweep
    would build all C(k, m) of them, many times the work on a wide chart.
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

    dets = (minor(sum(1 << c for c in cols)) for cols in combinations(range(k), m))
    return next((d for d in dets if not d.is_zero()), None)


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
    a candidate itself.  When every exponent of some support coordinate is
    forced-zero, no face is a candidate, and the generator stops before
    the chart's hull is built (``_hull``).
    """
    masks = system.masks
    forced = reduce(or_, (m for cols, m in masks.items() if cols not in dst.plucker), 0)
    support = [masks.get(cols, 0) for cols in dst.plucker]
    if any(not m & ~forced for m in support):
        # every face meeting this coordinate meets a forced-zero exponent
        return
    _hull(system)
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
    target: (minor, q) when the face is viable, and None otherwise.  A
    candidate is viable when its limit matches the target, with pivot minor
    q, and the matched map is dominant; ``minor`` is the first nonzero
    maximal minor of its Jacobian (``_nonzero_minor``).  Only a viable face
    can give a certificate: at every point the Jacobian's rank is at most
    its generic rank, so no witness exists for a non-dominant map.  Only
    the coordinates ``_match_target`` reads are written in the u-variables,
    each with its terms on the face.
    """
    read = [dst.delta] + [cols for cols, _, _ in dst.entry_minors]
    limit = {cols: _polynomial(system, system.terms[cols], face) for cols in read}
    matched = _match_target(limit, dst)
    if matched is None:
        return None
    n_map, q = matched
    # dominance, check 2, the exact one: some maximal minor is a nonzero
    # polynomial
    minor = _nonzero_minor(_jacobian(n_map, q, dst, system.uvars))
    if minor is None:
        return None
    return minor, q


def _certify(src, dst, system, judged, evec):
    """The certificate of the degeneration along ``evec``, whose face was
    judged viable: ``judged`` is the (minor, q) of ``_judge``, from which
    the witness is read (``_dominance_witness``)."""
    minor, q = judged
    rename = src.family.display_names
    subst = {}
    for coord, u, e in zip(system.coords, system.uvars, evec):
        shown = rename.get(coord, coord)
        subst[shown] = "%s*s^%d" % (u, e) if e else u
    return {
        "replacements": [_describe(pair, src.family) for pair in system.replacements],
        "exponents": list(evec),
        "substitution": subst,
        "target_pivots": list(dst.delta),
        "witness": _dominance_witness(minor, q, dst, system.uvars),
    }


def _search_system(src, dst, system):
    """The certificate of the first viable candidate face of ``system``, in
    generation order (``_candidate_faces``, ``_judge``), along its vector
    e_F (``_face_vector``); None when no candidate is viable."""
    for face in _candidate_faces(dst, system):
        judged = _judge(dst, system, face)
        if judged is not None:
            return _certify(src, dst, system, judged, _face_vector(system, face))
    return None


def _same_stratum(src, dst):
    """Whether both cells lie in one ℳ_r: the same colength over the same Γ."""
    return src.r == dst.r and src.module.ambient.gens == dst.module.ambient.gens


def cell_closure_contains(src, dst):
    """Decide whether the target cell lies in the closure of the source cell.

    Closure is a relation inside one stratum ℳ_r, so cells of different
    colengths or over different semigroups raise ``ValueError``.  The
    systems of ``_systems(src)`` are searched in order (``_search_system``);
    an unknown is ``no_face``: no system has a viable face.
    """
    if not _same_stratum(src, dst):
        raise ValueError(
            "cells of different strata: r=%d over %r and r=%d over %r"
            % (src.r, src.module.ambient, dst.r, dst.module.ambient)
        )
    same = src.module.gap_set == dst.module.gap_set
    if not same and dst.dim >= src.dim:
        # closures of distinct cells add only strictly smaller strata
        return ClosureVerdict(NOT_CONTAINED, "dimension")
    if any(cols not in src.plucker for cols in dst.plucker):
        # it vanishes on the whole source cell, hence on its closure; where
        # the Schubert order fails, the target's unit pivot minor does
        return ClosureVerdict(NOT_CONTAINED, "support")
    for system in _systems(src):
        cert = _search_system(src, dst, system)
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
    certificate records the gap set of cell k and the two links'
    certificates;
    otherwise (i, j) is searched (``cell_closure_contains``).  One pass thus
    settles every pair that a chain of certified containments implies: the
    contained pairs returned are closed under composition, so whenever
    (i, k) and (k, j) are contained so is (i, j), as ``components`` needs.
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
                cert = {"gaps": list(cells[k].module.gap_set), "links": links}
                verdict = ClosureVerdict(CONTAINED, CHAIN, cert)
            verdicts[i, j] = verdict
            if verdict.status == CONTAINED:
                contained.add((i, j))
    return dict(sorted(verdicts.items()))


def _replay_chain(src, dst, certificate):
    """Replay a ``chain`` certificate: rebuild the middle cell from its
    recorded gap set (sorted, as recorded) and replay both links through
    it.  Building a cell takes no setting, so the rebuilt cell is the one
    the original run used.  Distinct cells drop strictly in dimension along
    closure, so the middle cell's must lie strictly between the ends', which
    also makes it a third cell and bounds the nesting by src.dim."""
    gaps, links = certificate["gaps"], certificate["links"]
    if not isinstance(gaps, list) or not isinstance(links, list) or len(links) != 2:
        return False
    try:
        module = GammaModule(src.module.ambient, gaps)
        if list(module.gap_set) != gaps or module.colength != src.r:
            return False
        mid = build_cell(module)
    except HilbstratError:
        return False
    if not src.dim > mid.dim > dst.dim:
        return False
    return replay_certificate(src, mid, links[0]) and replay_certificate(mid, dst, links[1])


def replay_certificate(src, dst, certificate, seed=None):
    """Re-run the recorded degeneration; True iff it certifies again and
    re-derives every recorded field.

    Only the chart the recorded ``replacements`` name is built
    (``_recorded_chart``).  The recorded vector's face is where it is
    minimal over ``uniq_exps``; the face must be a viable candidate, and
    the witness is re-derived there.  A ``chain`` certificate (exactly the
    keys ``gaps`` and ``links``) replays when its gap set is that of a cell
    of the stratum of dimension strictly between the ends', and both links
    replay through that cell (``_replay_chain``).  Anything but a dict with
    the five fields, replacements that name a chart, lists of ``int``
    exponents and target pivots and a dict of ``int`` witness values, or a
    well-formed chain, replays False.  The types are checked exactly, before
    the comparison, since 1.0 == 1 == True.  So does any certificate for
    cells of different strata (``cell_closure_contains``).  ``seed`` is
    accepted for old callers and ignored: nothing in a certificate depends
    on one.
    """
    if not _same_stratum(src, dst):
        return False
    if isinstance(certificate, dict) and certificate.keys() == CHAIN_KEYS:
        return _replay_chain(src, dst, certificate)
    if not isinstance(certificate, dict) or any(key not in certificate for key in CERTIFICATE_KEYS):
        return False
    exponents, pivots, witness = (certificate[key] for key in ("exponents", "target_pivots", "witness"))
    if not (isinstance(exponents, list) and isinstance(pivots, list) and isinstance(witness, dict)):
        return False
    if any(type(v) is not int for v in (*exponents, *pivots, *witness.values())):
        return False
    system = _recorded_chart(src, certificate["replacements"])
    evec = tuple(exponents)
    if system is None or len(evec) != len(system.coords):
        return False
    dots = [sum(map(mul, evec, alpha)) for alpha in system.uniq_exps]
    low = min(dots)
    face = sum(1 << j for j, d in enumerate(dots) if d == low)
    if face not in _candidate_faces(dst, system):
        return False
    judged = _judge(dst, system, face)
    return judged is not None and _certify(src, dst, system, judged, evec) == certificate


def degeneration_limit(src, replacements, exponents):
    """The projective limit along ``exponents`` in the chart ``replacements``
    name, as a Plücker map: the chart's terms written in the u-variables.
    The exponents are a list of ``int``, as in a certificate."""
    if not isinstance(exponents, list) or any(type(e) is not int for e in exponents):
        raise ValueError("exponents must be a list of int, got %r" % (exponents,))
    system = _recorded_chart(src, replacements)
    if system is None:
        raise ValueError("no chart of the source has the replacements %r" % (replacements,))
    if len(exponents) != len(system.uvars):
        raise ValueError("%d exponents for %d coordinates" % (len(exponents), len(system.uvars)))
    svar = ParamPoly.variable("s")
    subs = {u: ParamPoly.variable(u) * svar ** e for u, e in zip(system.uvars, exponents)}
    vec = limit_s_to_zero(substitute([_polynomial(system, items, -1) for items in system.terms.values()], subs))
    return {cols: p for cols, p in zip(system.terms, vec) if not p.is_zero()}


def components(cells, verdicts):
    """Irreducible components of the stratum from its closure verdicts, as
    one dict per top: ``top``, ``members`` and ``pd_pattern``.

    ``verdicts`` must be closed: whenever (i, k) and (k, j) are contained,
    so is (i, j), as ``closure_verdicts`` guarantees.  A cell's certified
    closure is then its row, the cell and every cell it contains.  Tops are
    the cells in no other cell's row, and each component is its top's row,
    sorted.
    """
    n = len(cells)
    rows = [{i} for i in range(n)]
    for (i, j), v in verdicts.items():
        if v.status == CONTAINED:
            rows[i].add(j)
    tops = [t for t in range(n) if not any(t in rows[i] for i in range(n) if i != t)]
    out = []
    for t in tops:
        members = sorted(rows[t])
        out.append({"top": t, "members": members, "pd_pattern": pd_pattern(cells, rows, members)})
    return out


def pd_pattern(cells, rows, members):
    """True iff the member cells look like the affine stratification of P^d:
    dimensions are exactly 0..d once each and closures form a chain, every
    higher member's row (``components``' closed rows) holding every lower
    member."""
    dims = sorted(cells[m].dim for m in members)
    if dims != list(range(len(members))):
        return False
    return all(b in rows[a] for a in members for b in members if cells[a].dim > cells[b].dim)
