import math

import pytest

from rxent import AlphaOrder
from rxent.errors import InvalidAlphaError


class TestConstruction:
    def test_finite_orders(self):
        assert AlphaOrder(0.5).value == 0.5
        assert AlphaOrder(2).value == 2.0
        assert AlphaOrder(1000.0).value == 1000.0

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(InvalidAlphaError):
                AlphaOrder(bad)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidAlphaError):
            AlphaOrder(math.nan)
        with pytest.raises(InvalidAlphaError):
            AlphaOrder(math.inf)

    def test_orders_next_to_one_are_valid(self):
        # the targets keep their digits through alpha = 1, so no window
        # around it is rejected
        for near in (1.0 + 5e-10, 1.0 - 5e-10, 1.0 + 9e-10, 1.0 + 1e-15):
            a = AlphaOrder(near)
            assert a.value == near and a.is_finite_order

    def test_one_is_the_shannon_order(self):
        assert AlphaOrder(1.0) == AlphaOrder.one()
        assert AlphaOrder(1).is_one and not AlphaOrder(1.0).is_finite_order

    def test_immutable(self):
        a = AlphaOrder(2.0)
        with pytest.raises(AttributeError):
            a._value = 3.0


class TestMarkers:
    def test_one(self):
        a = AlphaOrder.one()
        assert a.is_one and not a.is_inf and not a.is_finite_order
        assert a.value == 1.0

    def test_inf(self):
        a = AlphaOrder.inf()
        assert a.is_inf and not a.is_one and not a.is_finite_order
        assert math.isinf(a.value)

    def test_finite_flags(self):
        a = AlphaOrder(2.0)
        assert a.is_finite_order and not a.is_one and not a.is_inf


class TestCoerce:
    def test_passthrough(self):
        a = AlphaOrder(2.0)
        assert AlphaOrder.coerce(a) is a

    def test_floats(self):
        assert AlphaOrder.coerce(0.5).value == 0.5
        assert AlphaOrder.coerce(3).value == 3.0

    def test_strings(self):
        assert AlphaOrder.coerce("2.5").value == 2.5
        for token in ("1", "1.0", "one", "shannon", " Shannon "):
            assert AlphaOrder.coerce(token).is_one
        for token in ("inf", "Infinity", "oo"):
            assert AlphaOrder.coerce(token).is_inf

    def test_infinite_float(self):
        assert AlphaOrder.coerce(math.inf).is_inf

    def test_bad_string(self):
        with pytest.raises(InvalidAlphaError):
            AlphaOrder.coerce("two")

    def test_near_one_string_accepted(self):
        assert AlphaOrder.coerce("1.0000000001").value == 1.0000000001
        assert AlphaOrder.coerce("1.0") == AlphaOrder.one()


class TestEquality:
    def test_eq_and_hash(self):
        assert AlphaOrder(2.0) == AlphaOrder(2.0)
        assert AlphaOrder(2.0) != AlphaOrder(3.0)
        assert AlphaOrder.one() == AlphaOrder.one()
        assert AlphaOrder.inf() == AlphaOrder.inf()
        assert len({AlphaOrder(2.0), AlphaOrder(2.0), AlphaOrder.one(), AlphaOrder(1.0)}) == 2

    def test_not_equal_to_float(self):
        assert AlphaOrder(2.0) != 2.0

    def test_repr(self):
        assert repr(AlphaOrder(2.0)) == "AlphaOrder(2.0)"
        assert repr(AlphaOrder.one()) == repr(AlphaOrder(1.0)) == "AlphaOrder.one()"
        assert repr(AlphaOrder.inf()) == "AlphaOrder.inf()"
