"""Schubert indices of cells and the Schubert closure partial order."""

from .errors import DimensionMismatch, MalformedDelta


class SchubertIndex:
    """Weakly decreasing tuple (a_1, ..., a_δ) with δ ≥ a_1, a_δ ≥ 0."""

    __slots__ = ("a",)

    def __init__(self, a):
        self.a = tuple(int(x) for x in a)

    @property
    def delta(self):
        return len(self.a)

    def __eq__(self, other):
        if isinstance(other, SchubertIndex):
            return self.a == other.a
        if isinstance(other, tuple):
            return self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a)

    def __iter__(self):
        return iter(self.a)

    def __repr__(self):
        return "W_{%s}" % ",".join(str(x) for x in self.a)

    def label(self):
        return "W(%s)" % ",".join(str(x) for x in self.a)


def schubert_index(delta):
    """Index of the Schubert cell containing the cell of the given Δ-set.

    With Δ written b_1 < ... < b_δ, the index is a_{δ-i+1} = b_i - i + 1.
    """
    b = sorted(delta)
    d = len(b)
    a = tuple(reversed([b[i] - i for i in range(d)]))
    for i in range(d - 1):
        if a[i] < a[i + 1]:
            raise MalformedDelta("index %r from Δ=%r is not weakly decreasing" % (a, b))
    if d and (a[-1] < 0 or a[0] > d):
        raise MalformedDelta("index %r from Δ=%r leaves [0, δ]" % (a, b))
    return SchubertIndex(a)


def closure_leq(a, b):
    """True iff the cell W_b lies in the closure of W_a: b_i ≥ a_i for all i."""
    ta = a.a if isinstance(a, SchubertIndex) else tuple(a)
    tb = b.a if isinstance(b, SchubertIndex) else tuple(b)
    if len(ta) != len(tb):
        raise DimensionMismatch("indices of different length: %r vs %r" % (ta, tb))
    return all(y >= x for x, y in zip(ta, tb))
