"""Gamma-modules: Γ-closed subsets S ⊆ Γ of finite colength, their Δ-sets,
and the Schubert indices read off those.

A module of colength r is determined by its gap sequence G(S) = Γ∖S,
an r-element subset of Γ that is downward closed under Γ-subtraction
(an order ideal in the poset (Γ, ≤_Γ) with a ≤_Γ b iff b − a ∈ Γ).
A Schubert index is a plain tuple (a_1, ..., a_δ), weakly decreasing with
δ ≥ a_1 and a_δ ≥ 0; the report prints it as W(a_1,...,a_δ).
"""

from .errors import CardinalityMismatch, MalformedDelta, ShiftUnderflow


class GammaModule:
    """A Γ-module S ⊆ Γ with ♯(Γ∖S) = colength, stored via its gap set."""

    __slots__ = ("ambient", "gap_set", "colength", "conductor", "min_generators", "_absent")

    def __init__(self, ambient, gap_set):
        gaps = tuple(gap_set)
        if any(type(g) is not int for g in gaps):  # the exact type: a bool is refused too
            raise MalformedDelta("gaps must be ints, got %r" % (gaps,))
        gaps = tuple(sorted(set(gaps)))
        for g in gaps:
            if g not in ambient:
                raise MalformedDelta("gap %d is not in the ambient semigroup" % g)
        absent = set(gaps)
        # Downward closure under Γ-subtraction (checked on generator steps,
        # which suffices when verified for every element).
        for g in gaps:
            for a in ambient.gens:
                u = g - a
                if u in ambient and u not in absent:
                    raise MalformedDelta(
                        "gap set %r not Γ-closed: %d - %d = %d escapes" % (gaps, g, a, u)
                    )
        self.ambient = ambient
        self.gap_set = gaps
        self._absent = absent
        self.colength = len(gaps)
        self.conductor = gaps[-1] + 1 if gaps else 0
        self.min_generators = tuple(self._minimal_generators())

    def __contains__(self, n):
        return n in self.ambient and n not in self._absent

    def __eq__(self, other):
        if not isinstance(other, GammaModule):
            return NotImplemented
        return self.ambient.gens == other.ambient.gens and self.gap_set == other.gap_set

    def __hash__(self):
        return hash((self.ambient.gens, self.gap_set))

    def __repr__(self):
        gens = ",".join(str(g) for g in self.min_generators)
        return "GammaModule<%s>" % gens

    def _minimal_generators(self):
        # s is a generator iff s - a ∉ S for every generator a of Γ; any
        # s ≥ max(conductor_S, conductor_Γ) + multiplicity splits off one
        # multiplicity step inside S, so the scan below is complete.
        sg = self.ambient
        members = self.members_below(max(self.conductor, sg.conductor) + sg.multiplicity)
        inside = set(members)
        return [s for s in members if not any(s - a in inside for a in sg.gens)]

    def members_below(self, bound):
        absent = self._absent
        return [n for n in self.ambient.members_below(bound) if n not in absent]


def delta_set(module):
    """Δ = {s − r | s ∈ S, s − r < 2δ} at r = the colength of S, as a sorted
    tuple: δ elements of [0, 2δ) whose union with [2δ, ∞) is Γ-closed.  It
    is the one reader of the window [r, r + 2δ), for the cell matrix too."""
    sg = module.ambient
    r = module.colength
    dd = 2 * sg.delta
    members = module.members_below(r + dd)
    if members and members[0] < r:
        raise ShiftUnderflow(
            "min(S) = %d < r = %d; shift by -r not defined" % (members[0], r)
        )
    elements = tuple(s - r for s in members if s >= r)
    if len(elements) != sg.delta:
        raise CardinalityMismatch(
            "Δ-set %r has %d elements, expected δ=%d" % (elements, len(elements), sg.delta)
        )
    elem_set = set(elements)
    for e in elements:
        for a in sg.gens:
            if e + a < dd and (e + a) not in elem_set:
                raise MalformedDelta(
                    "Δ %r not Γ-closed: %d + %d escapes" % (elements, e, a)
                )
    return elements


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


def enumeration_bound(sg, r):
    # Descending by the multiplicity from any gap stays inside the gap set
    # until dropping below conductor + multiplicity, so a colength-r gap
    # set lives below conductor + r*multiplicity.
    return sg.conductor + r * sg.multiplicity


def enumerate_colength(sg, r):
    """All Γ-modules S ⊆ Γ with ♯(Γ∖S) = r, sorted lexicographically by gap set.

    Gap sets are grown as sorted prefixes: a sorted prefix of an order
    ideal is itself an order ideal, and a candidate t may extend a prefix
    iff t − a lands in the prefix for every generator a with t − a ∈ Γ.
    """
    if type(r) is not int:  # the exact type: a bool is refused too
        raise ValueError("colength must be an int, got %r" % (r,))
    if r < 0:
        raise ValueError("colength must be >= 0, got %d" % r)
    if r == 0:
        return [GammaModule(sg, ())]
    pool = sg.members_below(enumeration_bound(sg, r))
    members = set(pool)
    # the t − a ∈ Γ of each candidate t; all lie below t, hence in the pool
    below = [[t - a for a in sg.gens if t - a in members] for t in pool]
    # the prefix as pool indices on an explicit stack, so the walk's depth
    # is not bounded by the recursion limit
    out, stack, chosen, idx = [], [], set(), 0
    while True:
        last = len(pool) - (r - len(stack))
        while idx <= last and not chosen.issuperset(below[idx]):
            idx += 1
        if idx <= last:
            stack.append(idx)
            chosen.add(pool[idx])
            if len(stack) < r:
                idx += 1
                continue
            out.append(GammaModule(sg, tuple(pool[i] for i in stack)))
        elif not stack:
            return out
        idx = stack.pop()
        chosen.discard(pool[idx])
        idx += 1
