"""Exact symbolic arithmetic: parameter polynomials and truncated t-series.

Everything downstream works over the rationals.  Coefficients of ideal
generators are polynomials in named parameters with exact coefficients: an
integral coefficient is an ``int``, and a ``Fraction`` appears only where a
division yields a non-integer, so integer inputs keep the arithmetic
fraction-free.  Curve-local computations happen in truncated power series
in t whose coefficients are such polynomials.  The series ops are add, neg, sub,
scale (by a parameter polynomial), shift (multiply by t^k) and subs; the
package multiplies series only by powers of t, which is a shift.
"""

from fractions import Fraction
from math import lcm

from .errors import IdenticallyZeroVector, ShiftUnderflow, TruncationMismatch

# A monomial key is a tuple of (name, exponent) pairs, sorted by name,
# with all exponents nonzero.  The empty tuple is the constant monomial.


def _merge_keys(k1, k2):
    if not k1:
        return k2
    if not k2:
        return k1
    d = dict(k1)
    for name, e in k2:
        ne = d.get(name, 0) + e
        if ne:
            d[name] = ne
        else:
            del d[name]
    return tuple(sorted(d.items()))


def _add_into(terms, other):
    """Add the terms ``other`` into the dict ``terms``, in place."""
    for key, c in other.items():
        nc = terms.get(key, 0) + c
        if nc:
            terms[key] = nc
        else:
            terms.pop(key, None)


def _scalar(value):
    """An exact scalar in stored form: an ``int`` when integral, else a Fraction."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError("expected int or Fraction, got %r" % (value,))


class ParamPoly:
    """Polynomial in named parameters with exact rational coefficients.

    A coefficient is an ``int`` when integral and a ``Fraction`` otherwise.
    Values enter in that form through ``constant``, multiplication by a
    scalar and the inverse in a negative power, the only operations that
    divide; sums and products of ``int`` coefficients stay ``int``.  Since
    ``int`` and ``Fraction`` compare, hash and print alike on integers, the
    form never changes an equality or a formatted polynomial.

    Negative exponents are allowed (they arise for the auxiliary
    degeneration variable), so strictly speaking this is a Laurent
    polynomial.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms must already be normalized: no zero coefficients,
        # keys sorted tuples of (name, exp) with exp != 0.
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def constant(cls, value):
        c = _scalar(value)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    # -- predicates and views ------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError("polynomial is not constant: %s" % self.format())

    def variables(self):
        names = set()
        for key in self.terms:
            for name, _ in key:
                names.add(name)
        return sorted(names)

    def degree_in(self, name):
        """Highest exponent of ``name`` appearing (0 if absent or zero poly)."""
        best = None
        for key in self.terms:
            for n, e in key:
                if n == name and (best is None or e > best):
                    best = e
        return 0 if best is None else best

    def total_degree(self):
        best = 0
        for key in self.terms:
            d = sum(e for _, e in key)
            if d > best:
                best = d
        return best

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.constant(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return ParamPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            other = ParamPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return ParamPoly.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, ParamPoly):
            c = _scalar(other)
            if not c:
                return ParamPoly.zero()
            return ParamPoly({key: _scalar(v * c) for key, v in self.terms.items()})
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                nc = out.get(key, 0) + c1 * c2
                if nc:
                    out[key] = nc
                else:
                    del out[key]
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            # Only a nonzero monomial can be inverted.
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            ((key, c),) = self.terms.items()
            inv = ParamPoly({tuple((nm, -e) for nm, e in key): _scalar(Fraction(1) / c)})
            return inv ** (-n)
        result = ParamPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ParamPoly.constant(other).terms
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "ParamPoly(%s)" % self.format()

    # -- substitution and calculus -------------------------------------

    def subs(self, mapping):
        """Substitute variables; values may be ParamPoly, Fraction or int.

        Variables not mentioned in ``mapping`` are left alone.  A negative
        exponent requires the replacement to be invertible (a constant or
        a single-term polynomial).
        """
        out = {}
        for key, c in self.terms.items():
            term = ParamPoly.constant(c)
            for name, e in key:
                if name in mapping:
                    rep = mapping[name]
                    if not isinstance(rep, ParamPoly):
                        rep = ParamPoly.constant(rep)
                    term = term * rep ** e
                else:
                    term = term * ParamPoly({((name, e),): 1})
            _add_into(out, term.terms)
        return ParamPoly(out)

    def evaluate(self, assign):
        """Evaluate to a Fraction; every variable must get a value.

        The terms are summed as integers over one common denominator: the
        lcm of the coefficients' denominators, times each variable's
        denominator to its highest power in the polynomial and its
        numerator to its most negative power.
        """
        high, low = {}, {}
        for key in self.terms:
            for name, e in key:
                if e > 0:
                    high[name] = max(high.get(name, 0), e)
                else:
                    low[name] = max(low.get(name, 0), -e)
        common = lcm(*(c.denominator for c in self.terms.values()))
        den = common
        # x = n/d to the power e, times the variable's share n^lo * d^hi of
        # the denominator, is n^(lo+e) * d^(hi-e)
        powers = []
        for name in sorted(high.keys() | low.keys()):
            x = _scalar(assign[name])
            n, d = x.numerator, x.denominator
            hi, lo = high.get(name, 0), low.get(name, 0)
            den *= n**lo * d**hi
            powers.append((name, {e: n ** (lo + e) * d ** (hi - e) for e in range(-lo, hi + 1)}))
        total = 0
        for key, c in self.terms.items():
            num = c.numerator * (common // c.denominator)
            exps = dict(key)
            for name, table in powers:
                num *= table[exps.get(name, 0)]
            total += num
        return Fraction(total, den)

    def derivative(self, name):
        out = {}
        for key, c in self.terms.items():
            d = dict(key)
            e = d.get(name, 0)
            if not e:
                continue
            if e == 1:
                del d[name]
            else:
                d[name] = e - 1
            nkey = tuple(sorted(d.items()))
            nc = out.get(nkey, 0) + c * e
            if nc:
                out[nkey] = nc
            else:
                del out[nkey]
        return ParamPoly(out)

    def coeff_of(self, name, exp):
        """Collect terms with the given exponent of ``name``, that factor removed."""
        out = {}
        for key, c in self.terms.items():
            d = dict(key)
            if d.get(name, 0) != exp:
                continue
            d.pop(name, None)
            out[tuple(sorted(d.items()))] = c
        return ParamPoly(out)

    # -- display -------------------------------------------------------

    def format(self, rename=None):
        if not self.terms:
            return "0"
        items = sorted(
            self.terms.items(),
            key=lambda kv: (sum(e for _, e in kv[0]), kv[0]),
        )
        pieces = []
        for key, c in items:
            factors = []
            for name, e in key:
                shown = rename.get(name, name) if rename else name
                factors.append(shown if e == 1 else "%s^%d" % (shown, e))
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = "%s*%s" % (abs(c), mono)
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = first_body if first_sign == "+" else "-" + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text


class TruncSeries:
    """Power series in t truncated at a fixed order.

    ``coeffs`` maps exponent -> nonzero ParamPoly for exponents in
    [0, trunc); the constructor drops zero coefficients, so the arithmetic
    below need not.  Exponents at or above ``trunc`` are unknown, not zero.
    """

    __slots__ = ("trunc", "coeffs")

    def __init__(self, trunc, coeffs=None):
        self.trunc = trunc
        if coeffs:
            coeffs = {e: p for e, p in coeffs.items() if not p.is_zero()}
        self.coeffs = coeffs or {}

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.trunc == other.trunc and self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def coeff(self, exp):
        return self.coeffs.get(exp, ParamPoly.zero())

    def support(self):
        return sorted(self.coeffs)

    def generic_order(self):
        """Smallest exponent with a nonzero coefficient, or None if none visible."""
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def _check_trunc(self, other):
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                "truncations differ: %d vs %d" % (self.trunc, other.trunc)
            )

    def __add__(self, other):
        self._check_trunc(other)
        coeffs = dict(self.coeffs)
        for e, p in other.coeffs.items():
            q = coeffs.get(e)
            coeffs[e] = p if q is None else q + p
        return TruncSeries(self.trunc, coeffs)

    def __neg__(self):
        return TruncSeries(self.trunc, {e: -p for e, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        """Multiply every coefficient by a ParamPoly (or number)."""
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.constant(factor)
        if factor.is_zero():
            return TruncSeries(self.trunc, {})
        return TruncSeries(self.trunc, {e: p * factor for e, p in self.coeffs.items()})

    def shift(self, k, trunc=None):
        """Multiply by t**k (k may be negative if no coefficient drops below 0).

        The natural truncation of the result is self.trunc + k; pass
        ``trunc`` to cap it lower.
        """
        natural = self.trunc + k
        if trunc is None:
            trunc = natural
        if trunc > natural:
            raise TruncationMismatch(
                "cannot extend truncation from %d to %d" % (natural, trunc)
            )
        out = {}
        for e, p in self.coeffs.items():
            ne = e + k
            if ne < 0:
                raise ShiftUnderflow("shift by %d drops exponent %d below 0" % (k, e))
            if ne < trunc:
                out[ne] = p
        return TruncSeries(trunc, out)

    def subs(self, mapping):
        return TruncSeries(self.trunc, {e: p.subs(mapping) for e, p in self.coeffs.items()})

    def format(self, rename=None):
        if not self.coeffs:
            return "0"
        pieces = []
        for e in sorted(self.coeffs):
            p = self.coeffs[e]
            mono = "1" if e == 0 else ("t" if e == 1 else "t^%d" % e)
            if p.is_constant():
                c = p.constant_value()
                if e == 0:
                    body = str(abs(c))
                elif abs(c) == 1:
                    body = mono
                else:
                    body = "%s*%s" % (abs(c), mono)
                sign = "-" if c < 0 else "+"
            elif len(p.terms) == 1:
                ((key, c),) = p.terms.items()
                text = ParamPoly({key: abs(c)}).format(rename)
                body = "%s*%s" % (text, mono) if e else text
                sign = "-" if c < 0 else "+"
            else:
                text = p.format(rename)
                body = "(%s)*%s" % (text, mono) if e else "(%s)" % text
                sign = "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = first_body if first_sign == "+" else "-" + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "TruncSeries[<%d](%s)" % (self.trunc, self.format())


def limit_s_to_zero(vec):
    """Leading behaviour of a projective vector as the variable s tends to 0.

    Each entry is a ParamPoly, possibly with negative powers of s.
    Rescale the whole vector by s**(-m), where m is the minimal
    s-exponent over all entries, then set s to 0.  Raises
    IdenticallyZeroVector when every entry is the zero polynomial.
    """
    m = None
    for p in vec:
        for key in p.terms:
            e = 0
            for name, ex in key:
                if name == "s":
                    e = ex
                    break
            if m is None or e < m:
                m = e
    if m is None:
        raise IdenticallyZeroVector("all %d entries vanish identically" % len(vec))
    out = []
    for p in vec:
        terms = {}
        for key, c in p.terms.items():
            e = 0
            rest = []
            for name, ex in key:
                if name == "s":
                    e = ex
                else:
                    rest.append((name, ex))
            if e == m:
                terms[tuple(rest)] = c
        out.append(ParamPoly(terms))
    return out
