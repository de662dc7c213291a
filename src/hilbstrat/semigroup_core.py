"""Numerical semigroups: membership, gaps, conductor, minimal generators."""

from math import gcd

from .errors import EmptyGenerators, NonCoprime


class NumericalSemigroup:
    """Additive submonoid of the nonnegative integers with finite complement.

    Built from any generating set of ints with gcd 1.  The stored ``gens``
    are the minimal generators, which may be a proper subset of the input.
    """

    __slots__ = ("gens", "multiplicity", "conductor", "gaps", "delta", "_sieve")

    def __init__(self, generators):
        gens = list(generators)
        if any(type(g) is not int for g in gens):  # the exact type: a bool is refused too
            raise ValueError("generators must be ints, got %r" % (gens,))
        gens = sorted(set(gens))
        if not gens:
            raise EmptyGenerators("need at least one generator")
        if gens[0] <= 0:
            raise ValueError("generators must be positive, got %d" % gens[0])
        g = 0
        for a in gens:
            g = gcd(g, a)
        if g != 1:
            raise NonCoprime("generators %r have gcd %d" % (gens, g))

        # Schur: conductor <= (a_1 - 1)(a_k - 1), so every gap lies below
        # the bound, and a run of a_1 members ends the sieve.
        bound = (gens[0] - 1) * (gens[-1] - 1) + gens[0]
        sieve = [False] * bound
        sieve[0] = True
        for n in range(bound):
            if not sieve[n]:
                continue
            for a in gens:
                if n + a < bound:
                    sieve[n + a] = True
        if not all(sieve[-gens[0]:]):  # pragma: no cover - unreachable by Schur's bound
            raise AssertionError("sieve bound too small for %r" % gens)
        self._sieve = sieve
        self.multiplicity = gens[0]
        self.gaps = tuple(n for n in range(bound) if not sieve[n])
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0
        self.delta = len(self.gaps)
        self.gens = tuple(self._minimal_generators())

    def __contains__(self, n):
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return self._sieve[n]

    def __repr__(self):
        return "NumericalSemigroup<%s>" % ",".join(str(g) for g in self.gens)

    def _minimal_generators(self):
        # Every generator lies below conductor + multiplicity: anything
        # larger splits off one multiplicity step and stays in the semigroup.
        out = []
        limit = max(self.conductor + self.multiplicity, self.multiplicity + 1)
        members = self.members_below(limit)[1:]
        member_set = set(members)
        for g in members:
            if any(g - a in member_set for a in members if a < g):
                continue
            out.append(g)
        return out

    def members_below(self, bound):
        """Sorted members of the semigroup in [0, bound), read off the sieve
        below the conductor."""
        c = self.conductor
        return [n for n in range(min(bound, c)) if self._sieve[n]] + list(range(c, bound))

    def to_dict(self):
        return {
            "gens": list(self.gens),
            "gaps": list(self.gaps),
            "delta": self.delta,
            "conductor": self.conductor,
        }
