"""Exact symbolic arithmetic: parameter polynomials and their display.

Everything downstream works over the rationals.  Coefficients of ideal
generators are polynomials in named parameters with exact coefficients: an
integral coefficient is an ``int``, and a ``Fraction`` appears only where a
division yields a non-integer, so integer inputs keep the arithmetic
fraction-free.  ``+``, ``-`` and ``==`` take two polynomials; a scalar
enters through ``ParamPoly.constant``, as a ``*`` factor or as the inverse
in a negative power.  A t-series is a plain map {exponent: nonzero
ParamPoly}; the one truncation the package uses, modulo t^{c(S)}, belongs
to the module S and is applied where the series are built
(``ideal_cells``), and ``format_series`` displays one through the term
printer of ``ParamPoly.format``.  ``substitute`` is the one substitution,
and ``ParamPoly.affine_in`` the one solve: it splits p = c*v + rest where
p is affine in v with a monomial coefficient c.
"""

from fractions import Fraction

from .errors import IdenticallyZeroVector

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


def _signed_sum(pieces):
    """Join (sign, body) pieces as ``a - b + c``, a leading "+" left out."""
    first_sign, first_body = pieces[0]
    text = first_body if first_sign == "+" else "-" + first_body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


def _term(key, c, rename):
    """One term c*key as (sign, body): ``-2*a*t^3`` is ("-", "2*a*t^3"), and
    the constant monomial prints |c| alone.  Factors print in key order."""
    mono = "*".join(
        (rename.get(name, name) if rename else name) + ("" if e == 1 else "^%d" % e) for name, e in key
    )
    if not mono:
        body = str(abs(c))
    elif abs(c) == 1:
        body = mono
    else:
        body = "%s*%s" % (abs(c), mono)
    return ("-" if c < 0 else "+"), body


def _scalar(value):
    """An exact scalar in stored form: an ``int`` when integral, else a
    Fraction.  An int is taken by exact type, so a bool is refused."""
    if type(value) is int:
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
    form never changes an equality or a formatted polynomial.  ``+``, ``-``
    and ``==`` take polynomials only: ``p + 1`` raises TypeError and
    ``p == 1`` is False.

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

    def affine_in(self, name):
        """(c, rest) with self = c*name + rest, when every term holds ``name``
        to the power 0 or 1 and c is one monomial; else None, also when
        ``name`` does not occur.  One pass over the terms; each part keeps
        self's term order, so the parts equal ``coeff_of(name, 1)`` and
        ``coeff_of(name, 0)`` key for key."""
        c, rest = {}, {}
        for key, v in self.terms.items():
            for i, (n, e) in enumerate(key):
                if n == name:
                    if e != 1:
                        return None
                    c[key[:i] + key[i + 1 :]] = v
                    break
            else:
                rest[key] = v
        if len(c) != 1:
            return None
        return ParamPoly(c), ParamPoly(rest)

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
            return NotImplemented
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return ParamPoly(terms)

    def __neg__(self):
        return ParamPoly({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self + (-other)

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
        base = self
        if n < 0:
            # Only a nonzero monomial can be inverted.
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            ((key, c),) = self.terms.items()
            base = ParamPoly({tuple((nm, -e) for nm, e in key): _scalar(Fraction(1) / c)})
            n = -n
        result = ParamPoly.one()
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return "ParamPoly(%s)" % self.format()

    # -- substitution and calculus -------------------------------------

    def subs(self, mapping):
        """The one-polynomial case of ``substitute``."""
        return substitute([self], mapping)[0]

    def evaluate(self, assign):
        """Evaluate to a Fraction; every variable must get a value, an
        ``int`` or a Fraction.  Each term is one quotient of integers, its
        coefficient times its positive powers over its negative ones; the
        quotients are summed as integer pairs and reduced once."""
        num, den = 0, 1
        for key, c in self.terms.items():
            n, d = c.numerator, c.denominator
            for name, e in key:
                x = assign[name]
                if e > 0:
                    n, d = n * x.numerator**e, d * x.denominator**e
                else:
                    n, d = n * x.denominator**-e, d * x.numerator**-e
            num, den = num * d + n * den, den * d
        return Fraction(num, den)

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
        return _signed_sum([_term(key, c, rename) for key, c in items])


def substitute(polys, mapping):
    """Each polynomial of ``polys`` with the variables of ``mapping``, valued
    ParamPoly, Fraction or int, substituted; other variables are left alone.
    A negative exponent needs an invertible value (a constant or one term),
    else ValueError.  Over the whole list each distinct monomial is imaged
    once and each power of a value computed once.  A polynomial sums
    c * image over its terms in their order; kept variables enter an image
    as one monomial, so terms relabel one to one and keep their order."""
    if not mapping:
        return list(polys)
    powers, images, out = {}, {}, []
    for p in polys:
        terms = {}
        for key, c in p.terms.items():
            if key not in images:
                image = ParamPoly({tuple((name, e) for name, e in key if name not in mapping): 1})
                for name, e in key:
                    if name in mapping:
                        if (name, e) not in powers:
                            rep = mapping[name]
                            powers[name, e] = (rep if isinstance(rep, ParamPoly) else ParamPoly.constant(rep)) ** e
                        image = image * powers[name, e]
                images[key] = image.terms
            _add_into(terms, {k: c * v for k, v in images[key].items()})
        out.append(ParamPoly(terms))
    return out


def format_series(coeffs, rename=None):
    """Display a t-series given as a map {exponent: nonzero ParamPoly}, in
    ascending exponent order.  A one-term coefficient, a constant included,
    prints through the polynomial's term printer with t^e as its last
    factor; only a longer coefficient is parenthesized."""
    if not coeffs:
        return "0"
    pieces = []
    for e in sorted(coeffs):
        p = coeffs[e]
        t = (("t", e),) if e else ()
        if len(p.terms) == 1:
            ((key, c),) = p.terms.items()
            pieces.append(_term(key + t, c, rename))
        else:
            body = "(%s)" % p.format(rename)
            pieces.append(("+", "%s*%s" % (body, _term(t, 1, rename)[1]) if e else body))
    return _signed_sum(pieces)


def limit_s_to_zero(vec):
    """Leading behaviour of a projective vector as the variable s tends to 0.

    Each entry is a ParamPoly, possibly with negative powers of s.
    Rescale the whole vector by s**(-m), where m is the minimal
    s-exponent over all entries, then set s to 0: each entry's coefficient
    of s^m.  Raises IdenticallyZeroVector when every entry is the zero
    polynomial.
    """
    m = min((dict(key).get("s", 0) for p in vec for key in p.terms), default=None)
    if m is None:
        raise IdenticallyZeroVector("all %d entries vanish identically" % len(vec))
    return [p.coeff_of("s", m) for p in vec]
