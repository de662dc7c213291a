"""Schubert indices of cells.

A Schubert index is a plain tuple (a_1, ..., a_δ), weakly decreasing with
δ ≥ a_1 and a_δ ≥ 0; the report prints it as W(a_1,...,a_δ).
"""

from .errors import MalformedDelta


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
    return a
