"""Order parameter for Renyi information measures.

An order is either a finite positive float different from 1, or one of two
explicit limit markers: ``AlphaOrder.one()`` for the alpha -> 1 (Shannon)
limit and ``AlphaOrder.inf()`` for the alpha -> infinity limit.  Every
target computes the marker from its own order-alpha formula at
t = alpha - 1 = 0, and keeps its digits right up to it.  Finite floats
within 1e-9 of 1 are still rejected: the special-case reducers priced
through a moment generating function divide ln M by 1 - alpha, which loses
all precision there.
"""

from __future__ import annotations

import math

from .errors import AlphaNearOneError, InvalidAlphaError

NEAR_ONE_WINDOW = 1e-9

_ONE_SENTINEL = object()
_INF_SENTINEL = object()


class AlphaOrder:
    """Validated Renyi order: finite alpha in (0,1) or (1,inf), or a marker."""

    __slots__ = ("_value",)

    def __init__(self, value: float, _marker: object = None):
        if _marker is _ONE_SENTINEL:
            object.__setattr__(self, "_value", 1.0)
            return
        if _marker is _INF_SENTINEL:
            object.__setattr__(self, "_value", math.inf)
            return
        value = float(value)
        if math.isnan(value):
            raise InvalidAlphaError("alpha must not be NaN")
        if value <= 0.0:
            raise InvalidAlphaError(f"alpha must be positive, got {value}")
        if math.isinf(value):
            raise InvalidAlphaError(
                "alpha=inf is a limit, not a finite order; use AlphaOrder.inf()"
            )
        if abs(value - 1.0) <= NEAR_ONE_WINDOW:
            raise AlphaNearOneError(
                f"alpha={value} is within {NEAR_ONE_WINDOW} of 1, where the "
                "1/(1-alpha) prefactor is numerically meaningless; use "
                "AlphaOrder.one() for the Shannon limit"
            )
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, value):
        raise AttributeError("AlphaOrder is immutable")

    @classmethod
    def one(cls) -> "AlphaOrder":
        """Marker for the alpha -> 1 (Shannon) limit."""
        return cls(1.0, _marker=_ONE_SENTINEL)

    @classmethod
    def inf(cls) -> "AlphaOrder":
        """Marker for the alpha -> infinity limit."""
        return cls(math.inf, _marker=_INF_SENTINEL)

    @classmethod
    def coerce(cls, value) -> "AlphaOrder":
        """Build an AlphaOrder from a float, string, or existing instance.

        Strings "1", "one", and "shannon" map to the alpha -> 1 marker;
        "inf", "infinity", and "oo" map to the alpha -> infinity marker.
        An infinite float also maps to the infinity marker.  Everything else
        goes through the finite-order validation.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            token = value.strip().lower()
            if token in ("1", "1.0", "one", "shannon"):
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
        """Numeric order: the finite alpha, or 1.0 / inf for the markers."""
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
