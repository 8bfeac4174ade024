"""Order parameter for Renyi information measures.

An order is a finite positive float, or the explicit limit marker
``AlphaOrder.inf()`` for the alpha -> infinity limit.  The order 1 is the
Shannon limit; ``AlphaOrder.one()`` names it and equals ``AlphaOrder(1.0)``.
Every target computes it from its own order-alpha formula at
t = alpha - 1 = 0, and keeps its digits right up to it, so any float next
to 1 is a valid order too.
"""

from __future__ import annotations

import math

from .errors import InvalidAlphaError, RenyiError


class AlphaOrder:
    """Validated Renyi order: finite alpha > 0, or the infinity marker."""

    __slots__ = ("_value",)

    def __init__(self, value: float):
        value = float(value)
        if math.isnan(value):
            raise InvalidAlphaError("alpha must not be NaN")
        if value <= 0.0:
            raise InvalidAlphaError(f"alpha must be positive, got {value}")
        if math.isinf(value):
            raise InvalidAlphaError(
                "alpha=inf is a limit, not a finite order; use AlphaOrder.inf()"
            )
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, value):
        raise AttributeError("AlphaOrder is immutable")

    @classmethod
    def one(cls) -> "AlphaOrder":
        """The order 1: the alpha -> 1 (Shannon) limit."""
        return cls(1.0)

    @classmethod
    def inf(cls) -> "AlphaOrder":
        """Marker for the alpha -> infinity limit, built without validation."""
        order = object.__new__(cls)
        object.__setattr__(order, "_value", math.inf)
        return order

    @classmethod
    def coerce(cls, value) -> "AlphaOrder":
        """Build an AlphaOrder from a float, string, or existing instance.

        Strings "one" and "shannon" name the order 1; "inf", "infinity",
        and "oo" map to the alpha -> infinity marker.
        An infinite float also maps to the infinity marker.  Everything else
        goes through the finite-order validation.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            token = value.strip().lower()
            if token in ("one", "shannon"):
                return cls.one()
            if token in ("inf", "infinity", "oo"):
                return cls.inf()
            try:
                value = float(token)
            except ValueError:
                raise InvalidAlphaError(f"cannot parse alpha from {value!r}") from None
        value = float(value)
        if math.isinf(value) and value > 0:
            return cls.inf()
        return cls(value)

    @property
    def value(self) -> float:
        """Numeric order: the finite alpha, or inf for the marker."""
        return self._value

    @property
    def is_one(self) -> bool:
        return self._value == 1.0

    @property
    def is_inf(self) -> bool:
        return math.isinf(self._value)

    @property
    def is_finite_order(self) -> bool:
        return not (self.is_one or self.is_inf)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlphaOrder):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        return hash(("AlphaOrder", self._value))

    def __repr__(self) -> str:
        if self.is_one:
            return "AlphaOrder.one()"
        if self.is_inf:
            return "AlphaOrder.inf()"
        return f"AlphaOrder({self._value!r})"


def evaluate_orders(evaluate, alpha, *inputs):
    """``evaluate(*inputs, orders)``, one pass over a list of AlphaOrder, at one
    order (its result) or at a list, tuple or array of them (the list of
    results); where that raises, at each order alone, so the earliest fails."""
    if not (isinstance(alpha, (list, tuple)) or getattr(alpha, "ndim", 0)):  # one order
        return evaluate(*inputs, [AlphaOrder.coerce(alpha)])[0]
    try:
        return evaluate(*inputs, [AlphaOrder.coerce(a) for a in alpha])
    except RenyiError:
        return [evaluate_orders(evaluate, a, *inputs) for a in alpha]
