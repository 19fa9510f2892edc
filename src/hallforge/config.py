"""Enumeration budgets.

All exhaustive searches are capped so that a bad input fails fast with a
typed error instead of hanging.  Caps count *elements enumerated*, i.e.
p**dim for a search over an F_p vector space of dimension dim.
"""

from __future__ import annotations


class Caps:
    """Immutable budgets, equal and hashed by value (they key memo tables)."""

    _FIELDS = ("max_ext_enum", "max_hom_enum", "max_endo_enum", "max_enum")

    def __init__(
        self,
        max_ext_enum: int = 2**16,   # extension classes enumerated per pair
        max_hom_enum: int = 2**20,   # hom-space elements scanned in iso searches
        max_endo_enum: int = 2**16,  # endomorphisms scanned for a splitting
        max_enum: int = 2**20,       # raw objects enumerated per dimension slice
    ):
        values = (max_ext_enum, max_hom_enum, max_endo_enum, max_enum)
        for name, value in zip(self._FIELDS, values):
            if value < 1:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"Caps is immutable: cannot assign to {name}")

    def __delattr__(self, name):
        raise AttributeError(f"Caps is immutable: cannot delete {name}")

    def __eq__(self, other):
        return self._key == other._key if type(other) is Caps else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Caps(" + ", ".join(f"{n}={v}" for n, v in zip(self._FIELDS, self._key)) + ")"


DEFAULT_CAPS = Caps()
