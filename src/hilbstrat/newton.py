"""The facets of the convex hull of finitely many integer points.

Everything is exact integer arithmetic.  The points are projected onto the
pivot coordinates of their affine hull, which is injective there, so a hull
of lower dimension needs no special case.  Homogenised as v = (1, p), the
points span a pointed full-dimensional cone, and the facets of their hull
are the extreme rays of its polar, the cone of all a with a . v >= 0 for
every point.  Double description (Fukuda and Prodon, *Double description
method revisited*, 1996) computes those rays one constraint at a time: it
starts from the facet normals of a first simplex and adds one point per
step.  Rays on the positive side of the new point stay, rays on its plane
gain it in their zero set, rays on the negative side go, and each adjacent
pair across the plane gives the positive combination that vanishes there.
Two rays are adjacent by the combinatorial test: no other ray's zero set
contains their common zero set.  Each ray keeps as its zero set every point
added so far on its plane, so at the end that set is its facet's point set.
A ray's linear part, padded with zeros onto the points' own coordinates, is
its facet's normal: a linear form minimal over the points exactly on the
facet.
"""

from math import gcd
from operator import mul


def _inverse_columns(m):
    """The columns of c * m^-1 for a nonsingular square integer matrix m and
    some integer c != 0, by fraction-free Gauss-Jordan elimination of [m | I]
    (Bareiss): every division by the previous pivot is exact."""
    n = len(m)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for i in range(n):
        if not m[i][i]:
            swap = next(r for r in range(i + 1, n) if m[r][i])
            m[i], m[swap] = m[swap], m[i]
        top, p = m[i], m[i][i]
        for r in range(n):
            if r != i:
                f = m[r][i]
                m[r] = [(x * p - f * y) // prev for x, y in zip(m[r], top)]
        prev = p
    return [[row[n + k] for row in m] for k in range(n)]


def _dot(u, v):
    return sum(map(mul, u, v))


def _primitive(vector):
    g = gcd(*vector)
    return [x // g for x in vector]


def facets(points):
    """(d, masks, normals): the affine dimension d of conv(points) and, for
    each facet, in increasing order of the masks, the bitmask of the indices
    of every point on it, not only its vertices, and its normal: an integer
    vector n, as long as a point, such that n . p takes its minimum over the
    points exactly on the facet.  A hull of dimension 0 has no facet."""
    base = points[0]
    # an echelon basis of the differences: each row is zero on the pivot
    # columns of the rows before it, so reducing in order clears them all
    echelon = []
    simplex = [0]
    for i, p in enumerate(points):
        v = [a - b for a, b in zip(p, base)]
        for c, row in echelon:
            if v[c]:
                v = [row[c] * x - v[c] * y for x, y in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            echelon.append((lead, _primitive(v)))
            simplex.append(i)
    d = len(echelon)
    if not d:
        return 0, [], []
    homog = [[1] + [p[c] for c, _ in echelon] for p in points]
    corners = sum(1 << i for i in simplex)
    rays = []  # (primitive normal a, bitmask of the points added so far with a . v == 0)
    for i, a in zip(simplex, _inverse_columns([homog[i] for i in simplex])):
        # zero on the simplex's other d points, nonzero on point i
        a = _primitive(a)
        if _dot(a, homog[i]) < 0:
            a = [-x for x in a]
        rays.append((a, corners ^ 1 << i))
    for i, v in enumerate(homog):
        bit = 1 << i
        if corners & bit:
            continue
        signed = [(_dot(a, v), a, z) for a, z in rays]
        minus = [(x, a, z) for x, a, z in signed if x < 0]
        fresh = []
        if minus:
            zeros = [z for _, z in rays]
            for xp, ap, zp in signed:
                if xp <= 0:
                    continue
                for xm, am, zm in minus:
                    common = zp & zm
                    # adjacent iff the two rays are the only ones zero on common
                    if common.bit_count() < d - 1 or sum(z & common == common for z in zeros) > 2:
                        continue
                    fresh.append((_primitive([xp * y - xm * w for y, w in zip(am, ap)]), common | bit))
        rays = [(a, z | bit if x == 0 else z) for x, a, z in signed if x >= 0] + fresh
    masks, normals = [], []
    for a, z in sorted(rays, key=lambda ray: ray[1]):
        normal = [0] * len(points[0])
        for (c, _), x in zip(echelon, a[1:]):
            normal[c] = x
        masks.append(z)
        normals.append(normal)
    return d, masks, normals
