"""The face lattice of the convex hull of finitely many integer points.

Everything is exact integer arithmetic.  The points are projected onto the
pivot coordinates of their affine hull, which is injective there, so a hull
of lower dimension needs no special case.  Beneath-beyond then keeps a
triangulated boundary with primitive integer inward normals: those of the
first simplex come from minors, and each later facet's from the two
facets that meet at its horizon ridge.  Points are inserted farthest first,
as in Quickhull (Barber, Dobkin and Huhdanpaa, ACM TOMS 22, 1996), which
changes the triangulation but not the faces.  Coplanar simplices are merged
at the end by their common hyperplane.
"""

from math import gcd
from operator import mul


def _det(m):
    """Determinant of a square integer matrix, by Bareiss's fraction-free elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, n) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _dot(u, v):
    return sum(map(mul, u, v))


def _primitive(normal, point):
    """(normal / gcd, offset) of the hyperplane through ``point``."""
    g = gcd(*normal)
    normal = tuple(x // g for x in normal)
    return normal, _dot(normal, point)


def _indices(mask):
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def face_lattice(points):
    """Point sets of every nonempty face of conv(points), as frozensets of
    indices into ``points``, the whole set included.

    A face's point set is every point on it, not only its vertices.  Proper
    faces are the intersections of facets, so the facets' point sets are
    closed under intersection.  Faces come largest first, ties broken by
    their sorted indices.

    Each facet keeps an outside set, the points strictly beyond it that no
    earlier facet claimed, and the next point inserted is the one farthest
    beyond its facet (the lex-least projected one on a tie).  Flooding
    across ridges from that facet finds the visible ones, and their points
    go only to the new facets: a point beneath all of these lies in the cone
    from the new point over the old hull, and, beyond a visible facet as the
    new point is, in the new hull.  The final boundary triangulates the hull
    whatever the order, so its planes, and hence the faces, are the hull's.
    """
    n = len(points)
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
            g = gcd(*v)
            echelon.append((lead, [x // g for x in v]))
            simplex.append(i)
    d = len(echelon)
    pts = [tuple(p[c] for c, _ in echelon) for p in points]
    facets = {}  # sorted vertex tuple -> (primitive inward normal, offset)
    ridges = {}  # each ridge of the triangulated boundary lies on exactly two facets
    outside = {}  # facet -> (dot, point, index) of each point it claimed, if any
    fresh = []  # facets to add, with their planes
    if d:
        # (d + 1) times the centroid of the first simplex, strictly inside
        inside = [sum(pts[i][c] for i in simplex) for c in range(d)]
        for k in range(d + 1):
            verts = tuple(simplex[:k] + simplex[k + 1 :])
            q0 = pts[verts[0]]
            rows = [[a - b for a, b in zip(pts[v], q0)] for v in verts[1:]]
            normal, offset = _primitive([(-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows]) for j in range(d)], q0)
            if _dot(normal, inside) < (d + 1) * offset:
                normal, offset = tuple(-x for x in normal), -offset
            fresh.append((verts, (normal, offset)))
    orphans = [i for i in range(n) if i not in simplex]
    while True:
        for verts, plane in fresh:
            facets[verts] = plane
            for k in range(d):
                ridges.setdefault(verts[:k] + verts[k + 1 :], []).append(verts)
        # each orphan goes to the first new facet it is strictly beyond
        for j in orphans:
            for verts, (normal, offset) in fresh:
                dot = _dot(normal, pts[j])
                if dot < offset:
                    outside.setdefault(verts, []).append((dot, pts[j], j))
                    break
        if not outside:
            break
        start = next(reversed(outside))
        dot, p, i = min(outside[start])
        # visible means strictly beyond; a point on a facet's plane
        # extends that facet by a coplanar simplex
        gaps = {start: dot - facets[start][1]}
        stack = [start]
        fresh = []
        while stack:
            verts = stack.pop()
            gap = gaps[verts]
            for k in range(d):
                ridge = verts[:k] + verts[k + 1 :]
                one, two = ridges[ridge]
                other = two if one == verts else one
                if other not in gaps:
                    gaps[other] = _dot(facets[other][0], p) - facets[other][1]
                    if gaps[other] < 0:
                        stack.append(other)
                gap2 = gaps[other]
                if gap2 < 0:
                    continue
                # a horizon ridge: the plane through it and p is the
                # combination of the two facet planes through it that
                # vanishes at p, and it is inward because gap < 0 <= gap2
                n2 = facets[other][0]
                normal = [gap2 * x - gap * y for x, y in zip(facets[verts][0], n2)]
                fresh.append((tuple(sorted(ridge + (i,))), _primitive(normal, p)))
        orphans = []
        for verts in [f for f, gap in gaps.items() if gap < 0]:
            del facets[verts]
            orphans.extend(j for _, _, j in outside.pop(verts, ()) if j != i)
            for k in range(d):
                ridges[verts[:k] + verts[k + 1 :]].remove(verts)
    planes = set(facets.values())
    masks = {sum(1 << i for i, q in enumerate(pts) if _dot(normal, q) == offset) for normal, offset in planes}
    faces = set(masks)
    fresh = masks
    while fresh:
        fresh = {f & g for f in fresh for g in masks if f & g} - faces
        faces |= fresh
    faces.add((1 << n) - 1)
    return [frozenset(f) for f in sorted(map(_indices, faces), key=lambda f: (-len(f), f))]
