"""A test double for lift shifts.

Moving a term's equivariant lift by a global character changes the
fixed-point data but no integral.  ShiftedClass moves them in
``signed_lifts``, the one place the oracle reads a class's lifts, so the
public entry points run on shifted classes unchanged.
"""

from hilbseries import localization as loc


class ShiftedClass(loc.EqKClass):
    """The class of ``terms`` with term i's lift at every chart moved by shifts[i]."""

    def __init__(self, surface, terms, shifts):
        super().__init__(surface, terms)
        if len(shifts) != len(self.terms):
            raise ValueError("one lift shift per term expected")
        self.shifts = [tuple(shift) for shift in shifts]

    def signed_lifts(self):
        return [(sign, tuple(loc._vadd(m, shift) for m in lift))
                for (sign, lift), shift in zip(super().signed_lifts(), self.shifts)]


def shifts_of(kclass):
    """The lift shifts of a class, all zero unless it is a ShiftedClass."""
    return getattr(kclass, "shifts", [(0, 0)] * len(kclass.terms))


def shifted(kclass, term_index, char):
    """The class with one term's lift moved by a global character."""
    shifts = [(0, 0)] * len(kclass.terms)
    shifts[term_index] = tuple(char)
    return ShiftedClass(kclass.surface, kclass.terms, shifts)
