"""Exact arithmetic: parameter polynomials, series display, s->0 limits."""

import random
from fractions import Fraction

import pytest

from hilbstrat import ParamPoly
from hilbstrat.errors import IdenticallyZeroVector
from hilbstrat.symcalc import format_series, limit_s_to_zero, substitute

A = ParamPoly.variable("a")
B = ParamPoly.variable("b")
ONE = ParamPoly.one()


def test_poly_ring_axioms_randomized():
    rng = random.Random(11)
    names = ("a", "b", "c")

    def rand_poly():
        p = ParamPoly.zero()
        for _ in range(rng.randint(1, 4)):
            value = rng.randint(-6, 6)
            if rng.random() < 0.5:
                value = Fraction(value, rng.randint(1, 4))
            term = ParamPoly.constant(value)
            for n in names:
                term = term * ParamPoly.variable(n) ** rng.randint(0, 2)
            p = p + term
        return p

    for _ in range(25):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f + (-f) == ParamPoly.zero()


def _evaluate_per_term(p, assign):
    """The per-term evaluation that ``ParamPoly.evaluate`` replaced, kept as
    the reference: one Fraction per variable occurrence."""
    total = Fraction(0)
    for key, c in p.terms.items():
        val = c
        for name, e in key:
            val = val * Fraction(assign[name]) ** e
        total += val
    return total


def test_evaluate_matches_per_term_reference():
    """Seeded Laurent polynomials with int and Fraction coefficients, at int
    and Fraction points, zeros included: the same Fraction as the per-term
    reference, or the same ZeroDivisionError."""
    rng = random.Random(23)
    names = ("a", "b", "c")
    raised = 0
    for _ in range(400):
        p = ParamPoly.zero()
        for _ in range(rng.randint(0, 5)):
            value = rng.randint(-6, 6)
            if rng.random() < 0.5:
                value = Fraction(value, rng.randint(1, 5))
            term = ParamPoly.constant(value)
            for n in names:
                term = term * ParamPoly.variable(n) ** rng.randint(-2, 3)
            p = p + term
        assign = {}
        for n in names:
            x = rng.randint(-4, 4)
            assign[n] = x if rng.random() < 0.3 else Fraction(x, rng.randint(1, 6))
        try:
            want = _evaluate_per_term(p, assign)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(ZeroDivisionError):
                p.evaluate(assign)
            continue
        got = p.evaluate(assign)
        assert type(got) is Fraction
        assert got == want
    assert 0 < raised < 200


def _subs_by_sums(p, mapping):
    """The accumulation that ``ParamPoly.subs`` replaced, kept as the
    reference: one ``+`` per term, each copying the sum so far."""
    out = ParamPoly.zero()
    for key, c in p.terms.items():
        term = ParamPoly.constant(c)
        for name, e in key:
            if name in mapping:
                rep = mapping[name]
                if not isinstance(rep, ParamPoly):
                    rep = ParamPoly.constant(rep)
                term = term * rep ** e
            else:
                term = term * ParamPoly({((name, e),): 1})
        out = out + term
    return out


def test_subs_matches_accumulation_by_sums():
    """Seeded Laurent polynomials under substitutions whose terms cancel:
    the same terms in the same order, with the same coefficient types."""
    rng = random.Random(29)
    names = ("a", "b", "c")

    def rand_poly(low):
        p = ParamPoly.zero()
        for _ in range(rng.randint(0, 6)):
            value = rng.randint(-4, 4)
            if rng.random() < 0.3:
                value = Fraction(value, rng.randint(1, 4))
            term = ParamPoly.constant(value)
            for n in names:
                term = term * ParamPoly.variable(n) ** rng.randint(low, 2)
            p = p + term
        return p

    cancelled = 0
    for _ in range(300):
        p = rand_poly(-2)
        mapping = {}
        for n in rng.sample(names, rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.2:
                mapping[n] = rng.choice((0, 1, -2, Fraction(1, 3)))
            elif kind < 0.5:
                # a monomial, so negative powers stay legal
                monomial = ParamPoly.variable(rng.choice(names)) ** rng.choice((-1, 1, 2))
                mapping[n] = monomial * rng.choice((1, -1, 2))
            else:
                mapping[n] = A - B if rng.random() < 0.5 else rand_poly(0)
        try:
            want = _subs_by_sums(p, mapping)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)):
                p.subs(mapping)
            continue
        got = p.subs(mapping)
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]
        # some terms of the substituted terms cancel in the sum
        cancelled += len(got.terms) < sum(len(ParamPoly({k: c}).subs(mapping).terms) for k, c in p.terms.items())
    assert cancelled > 10
    assert (A * B - B * B + A).subs({"a": B}).terms == {(("b", 1),): 1}
    # one variable at several powers, among them negative powers of a
    # monomial replacement, and a kept variable between replaced ones
    C = ParamPoly.variable("c")
    p = A ** -2 * B + A ** -1 * B * C ** 2 + 3 * A ** 2 * C - A ** -2 * C ** -1 + A ** -1
    for mapping in ({"a": -2 * B ** -1, "c": 4 * A}, {"a": Fraction(1, 2) * B * C, "c": 3}, {"a": C ** 2, "c": -B}):
        got = p.subs(mapping)
        want = _subs_by_sums(p, mapping)
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def test_substitute_images_a_list_once():
    """A list whose polynomials share monomials and carry negative powers:
    the same terms, in the same order and of the same types, as one ``subs``
    per polynomial and as the accumulation by sums, with each power of a
    value computed once over the whole list."""
    C = ParamPoly.variable("c")
    polys = [
        A ** -2 * B + 3 * A * C ** 2 - B,
        A ** -2 * B - A * B ** -1 + Fraction(1, 2) * C,
        3 * A * C ** 2 + A ** -1 * C + ONE,
        B * C - Fraction(2, 3) * A ** -2 * B,
    ]
    mapping = {"a": -2 * B ** -1 * C, "c": A - B, "b": Fraction(3, 2)}
    # each (variable, exponent) of a mapped variable over the list, once
    powers = {(n, e) for p in polys for key in p.terms for n, e in key if n in mapping}
    calls = []
    power = ParamPoly.__pow__

    def counted(self, n):
        calls.append(n)
        return power(self, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ParamPoly, "__pow__", counted)
        got = substitute(polys, mapping)
    assert len(calls) == len(powers) == 7
    for g, p in zip(got, polys):
        for want in (p.subs(mapping), _subs_by_sums(p, mapping)):
            assert list(g.terms.items()) == list(want.terms.items())
            assert [type(c) for c in g.terms.values()] == [type(c) for c in want.terms.values()]
    # a non-monomial under a negative power has no image, as in subs
    with pytest.raises(ValueError):
        substitute([B, A ** -1 * B], {"a": A + B})
    with pytest.raises(ValueError):
        (A ** -1 * B).subs({"a": A + B})
    assert substitute(polys, {}) == polys
    assert substitute([], mapping) == []


def test_integral_coefficients_are_ints():
    two = ParamPoly.constant(Fraction(6, 3))
    assert two.terms == {(): 2}
    assert type(two.terms[()]) is int
    half = A * Fraction(1, 2)
    assert half.terms == {(("a", 1),): Fraction(1, 2)}
    assert half * 2 == A
    assert type((half * 2).terms[(("a", 1),)]) is int
    inv = (ParamPoly.constant(2) * A) ** -1
    assert inv.terms == {(("a", -1),): Fraction(1, 2)}
    assert type(inv.terms[(("a", -1),)]) is Fraction
    assert type(((ParamPoly.constant(-1) * A) ** -1).terms[(("a", -1),)]) is int
    built = [
        ONE,
        A,
        A * B - A * A * 3,
        (A * A * B).derivative("a"),
        (A * A).subs({"a": B - ONE}),
        A + ParamPoly.constant(Fraction(4, 2)),
    ]
    assert {type(c) for p in built for c in p.terms.values()} == {int}
    # a bool is refused, not stored as a coefficient, on either side of ``*``
    for call in (
        lambda: ParamPoly.constant(True),
        lambda: ParamPoly.constant(False),
        lambda: A * True,
        lambda: True * A,
    ):
        with pytest.raises(TypeError):
            call()


def test_sums_and_equality_take_polynomials_only():
    """``+``, ``-`` and ``==`` coerce no scalar; a scalar enters as a ``*``
    factor, which keeps an integral coefficient an ``int``."""
    for call in (lambda: A + 1, lambda: 1 + A, lambda: A - 1, lambda: 1 - A):
        with pytest.raises(TypeError):
            call()
    assert (ParamPoly.one() == 1) is False
    assert ParamPoly.one() == ParamPoly.constant(1)
    assert (2 * A).terms == {(("a", 1),): 2}
    assert type((2 * A).terms[(("a", 1),)]) is int
    assert (A * Fraction(1, 2)).terms == {(("a", 1),): Fraction(1, 2)}
    assert type((A * Fraction(1, 2)).terms[(("a", 1),)]) is Fraction


def test_format_is_unchanged_by_int_coefficients():
    """Integral coefficients print the same as an int or as a Fraction."""
    keys = ((), (("a", 1),), (("b", 1),), (("a", 1), ("b", 2)))
    stored = (3, Fraction(-1, 2), -1, 4)
    ints = ParamPoly(dict(zip(keys, stored)))
    fracs = ParamPoly({k: Fraction(c) for k, c in zip(keys, stored)})
    assert ints == fracs
    assert ints.format() == fracs.format() == "3 - 1/2*a - b + 4*a*b^2"
    s_ints = {0: ParamPoly.constant(2), 3: ints, 5: -A, 7: ParamPoly.constant(Fraction(3, 2))}
    s_fracs = {0: ParamPoly({(): Fraction(2)}), 3: fracs, 5: -A, 7: ParamPoly.constant(Fraction(3, 2))}
    assert format_series(s_ints) == format_series(s_fracs) == "2 + (3 - 1/2*a - b + 4*a*b^2)*t^3 - a*t^5 + 3/2*t^7"


def test_poly_calculus_helpers():
    p = A * A * B + A
    assert p.derivative("a") == ParamPoly.constant(2) * A * B + ONE
    assert p.coeff_of("a", 2) == B
    assert p.affine_in("a") is None
    assert p.affine_in("b") == (A * A, A)
    assert p.total_degree() == 3
    assert p.evaluate({"a": Fraction(2), "b": Fraction(1, 2)}) == Fraction(4)
    assert p.subs({"a": B}) == B * B * B + B


def test_negative_powers_only_for_monomials():
    inv = A ** -2
    assert inv.affine_in("a") is None
    assert inv * A * A == ONE
    with pytest.raises(ValueError):
        (ONE + A) ** -1


def test_affine_in_splits_only_affine_monomial_coefficients():
    """``affine_in`` rejects every other exponent of the name, not only a
    higher maximum, a non-monomial coefficient and an absent name; its
    parts are ``coeff_of(name, 1)`` and ``coeff_of(name, 0)`` key for key,
    in the same order and with the same values."""
    C = ParamPoly.variable("c")
    assert (A + A ** -1 * B).affine_in("a") is None
    assert (A * A + B).affine_in("a") is None
    assert ((B + C) * A + ONE).affine_in("a") is None
    assert (B + C).affine_in("a") is None
    assert ParamPoly.zero().affine_in("a") is None
    for p, name in [
        (A * B ** -1 - Fraction(3, 2) * A ** -2 * B + 2 * A * B * C + ParamPoly.constant(7), "c"),
        (Fraction(5, 3) * A ** -1 * C ** 2 + A * B * C ** -1 - 2 * C ** 3 + ONE, "b"),
        (A ** -1 * B * C + C, "b"),
        (B, "b"),
    ]:
        c, rest = p.affine_in(name)
        for part, want in ((c, p.coeff_of(name, 1)), (rest, p.coeff_of(name, 0))):
            assert list(part.terms.items()) == list(want.terms.items())
            assert [type(v) for v in part.terms.values()] == [type(v) for v in want.terms.values()]
        assert c * ParamPoly.variable(name) + rest == p


def test_limit_drops_positive_orders():
    s = ParamPoly.variable("s")
    lim = limit_s_to_zero([s, ONE, s * s])
    assert lim == [ParamPoly.zero(), ONE, ParamPoly.zero()]


def test_limit_normalizes_by_minimal_order():
    s = ParamPoly.variable("s")
    mu = ParamPoly.variable("mu")
    lim = limit_s_to_zero([s * mu, s, s * s * s])
    assert lim == [mu, ONE, ParamPoly.zero()]


def test_limit_invariant_under_global_scaling():
    s = ParamPoly.variable("s")
    mu = ParamPoly.variable("mu")
    vec = [s * mu, s, s * s * s]
    scaled = [v * s ** 4 for v in vec]
    assert limit_s_to_zero(vec) == limit_s_to_zero(scaled)


def test_limit_rejects_zero_vector():
    with pytest.raises(IdenticallyZeroVector):
        limit_s_to_zero([ParamPoly.zero(), ParamPoly.zero()])
