"""Schubert indices of Δ-sets."""

import pytest

from hilbstrat import (
    NumericalSemigroup,
    delta_set,
    enumerate_colength,
    schubert_index,
)
from hilbstrat.errors import MalformedDelta


def test_index_fixtures():
    assert schubert_index((1, 4, 5)) == (3, 3, 1)
    assert schubert_index((0, 3, 5, 6)) == (3, 3, 2, 0)
    assert schubert_index((4, 5, 6, 7)) == (4, 4, 4, 4)
    assert schubert_index((2, 3, 5)) == (3, 2, 2)


def test_accepts_delta_set_objects():
    sg = NumericalSemigroup((3, 4))
    m = enumerate_colength(sg, 2)[1]
    assert schubert_index(delta_set(m)) == (3, 3, 1)


def test_malformed_delta_rejected():
    # an element at or above 2δ pushes the leading index past δ
    with pytest.raises(MalformedDelta):
        schubert_index((1, 4, 6))
    with pytest.raises(MalformedDelta):
        schubert_index((-1, 0, 1))


@pytest.mark.parametrize(
    "gens,rmax,expected",
    [
        (
            (3, 4),
            6,
            {(3, 3, 3), (3, 3, 2), (3, 3, 1), (3, 2, 2), (2, 2, 0)},
        ),
        (
            (3, 5),
            8,
            {
                (4, 4, 4, 4),
                (4, 4, 4, 3),
                (4, 4, 3, 3),
                (4, 4, 4, 2),
                (4, 3, 3, 2),
                (4, 4, 3, 1),
                (3, 3, 2, 0),
            },
        ),
    ],
)
def test_all_stratum_indices(gens, rmax, expected):
    sg = NumericalSemigroup(gens)
    seen = set()
    for r in range(1, rmax + 1):
        for m in enumerate_colength(sg, r):
            seen.add(schubert_index(delta_set(m)))
    assert seen == expected


def test_indices_are_weakly_decreasing(valid_delta_sets):
    for gens in ((3, 4), (3, 5), (4, 5)):
        sg = NumericalSemigroup(gens)
        for d in valid_delta_sets(sg):
            a = schubert_index(d)
            assert all(a[i] >= a[i + 1] for i in range(len(a) - 1))
            assert 0 <= a[-1] and a[0] <= sg.delta
