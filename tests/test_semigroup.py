"""Numerical semigroup invariants: gaps, delta, conductor, generators."""

from itertools import combinations
from math import gcd

import pytest

from hilbstrat import NumericalSemigroup
from hilbstrat.errors import EmptyGenerators, NonCoprime
from hilbstrat.report_cli import main


def test_e6_invariants():
    sg = NumericalSemigroup((3, 4))
    assert sg.gens == (3, 4)
    assert sg.gaps == (1, 2, 5)
    assert sg.delta == 3
    assert sg.conductor == 6
    assert sg.multiplicity == 3


def test_e8_invariants():
    sg = NumericalSemigroup((3, 5))
    assert sg.gaps == (1, 2, 4, 7)
    assert sg.delta == 4
    assert sg.conductor == 8


def test_cusp():
    sg = NumericalSemigroup((2, 3))
    assert sg.gaps == (1,)
    assert sg.delta == 1
    assert sg.conductor == 2


def test_smooth_point():
    sg = NumericalSemigroup((1,))
    assert sg.gens == (1,)
    assert sg.gaps == ()
    assert sg.delta == 0
    assert sg.conductor == 0


def test_redundant_generators_dropped():
    assert NumericalSemigroup((3, 4, 7)).gens == (3, 4)
    assert NumericalSemigroup((4, 5, 9, 13)).gens == (4, 5)
    # 6 is not a sum of 4s and 5s, so it stays
    assert NumericalSemigroup((4, 5, 6)).gens == (4, 5, 6)


def test_generator_order_does_not_matter():
    assert NumericalSemigroup((5, 3)).gens == NumericalSemigroup((3, 5)).gens


@pytest.mark.parametrize("gens", [(4, 6), (2, 4), (6, 9, 15)])
def test_non_coprime_rejected(gens):
    with pytest.raises(NonCoprime):
        NumericalSemigroup(gens)


def test_empty_and_nonpositive_rejected():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup(())
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 3))
    with pytest.raises(ValueError):
        NumericalSemigroup((-2, 3))


@pytest.mark.parametrize("gens", [[3.9, 4], [3.0, 4], ["3", "4"], [True, 2]], ids=repr)
def test_non_int_generators_rejected(gens):
    """A generator that is not an int is refused, not coerced: [3.9, 4] is
    not ⟨3,4⟩, nor is [True, 2] ⟨1⟩."""
    with pytest.raises(ValueError, match="must be ints"):
        NumericalSemigroup(gens)


def test_int_generators_unchanged():
    assert NumericalSemigroup([4, 3, 4]).gens == (3, 4)
    assert NumericalSemigroup(iter((3, 5))).gaps == (1, 2, 4, 7)


def test_membership_matches_reachability():
    sg = NumericalSemigroup((3, 5))
    reachable = {0}
    for n in range(1, 41):
        if any(n - g in reachable for g in sg.gens if n - g >= 0):
            reachable.add(n)
    for n in range(41):
        assert (n in sg) == (n in reachable)


@pytest.mark.parametrize("gens", [(2, 3), (3, 4), (3, 5), (4, 5), (3, 7), (5, 7)])
def test_gap_count_and_conductor(gens):
    sg = NumericalSemigroup(gens)
    assert len(sg.gaps) == sg.delta
    if sg.gaps:
        assert sg.conductor == max(sg.gaps) + 1
        assert all(n in sg for n in range(sg.conductor, sg.conductor + 10))
    else:
        assert sg.conductor == 0


def _brute_conductor_and_delta(gens):
    """Conductor and δ by reachability up to gens[0] * gens[-1], which
    exceeds every Frobenius number of a generating set with gcd 1."""
    top = gens[0] * gens[-1] + gens[0]
    member = [True] + [False] * top
    for n in range(1, top + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    gaps = [n for n in range(top + 1) if not member[n]]
    return (gaps[-1] + 1 if gaps else 0), len(gaps)


def test_sieve_covers_every_small_semigroup():
    """The sieve reaches the conductor (Schur: c <= (a_1 - 1)(a_k - 1)) on
    every coprime pair a < b <= 21 and every coprime triple in [2, 14),
    ⟨6,7⟩, ⟨7,8⟩ and ⟨9,10⟩ among them, whose conductors exceed 4·a_k + 2."""
    sets = [(a, b) for b in range(2, 22) for a in range(2, b) if gcd(a, b) == 1]
    sets += [t for t in combinations(range(2, 14), 3) if gcd(*t) == 1]
    for gens in sets:
        sg = NumericalSemigroup(gens)
        assert (sg.conductor, sg.delta) == _brute_conductor_and_delta(gens), gens
        assert sg.members_below(sg.conductor + 3) == [n for n in range(sg.conductor + 3) if n in sg]
    assert NumericalSemigroup((9, 10)).conductor == 72


@pytest.mark.parametrize("argv", [["--gens", "6,7", "--r", "1"], ["--gens", "6,7", "--r", "2"], ["--gens", "7,8", "--r", "1"]])
def test_cli_accepts_long_conductor(argv, capsys):
    assert main(argv) == 0
    assert "Γ = ⟨" in capsys.readouterr().out
