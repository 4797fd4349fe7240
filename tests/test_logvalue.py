import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracfront.errors import QuadratureFailure
from fracfront.logvalue import (
    GL_NODES,
    MAX_PANELS,
    LogValue,
    gl_panels,
    log_sum,
    panel_integral_log,
    signed_log_sum,
)


def test_zero_invariant():
    z = LogValue.zero()
    assert z.sign == 0
    assert z.log_abs == -math.inf
    assert z.to_float() == 0.0


def test_invalid_zero_rejected():
    with pytest.raises(ValueError):
        LogValue(0, 1.0)
    with pytest.raises(ValueError):
        LogValue(1, -math.inf)


def test_from_float_round_trip():
    # exp(log x) loses ~eps * |log x| relative accuracy at the range edges.
    for v in (1.0, -2.5, 1e-300, -1e300, 0.0):
        assert LogValue.from_float(v).to_float() == pytest.approx(v, rel=1e-12)


finite_nonzero = st.floats(
    min_value=1e-100, max_value=1e100
) | st.floats(min_value=-1e100, max_value=-1e-100)


@given(finite_nonzero, finite_nonzero)
def test_product_matches_float_product(a, b):
    got = (LogValue.from_float(a) * LogValue.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=20))
def test_signed_log_sum_matches_fsum(values):
    lvs = [LogValue.from_float(v) for v in values]
    total, cancellation = signed_log_sum(lvs)
    want = math.fsum(values)
    gross = math.fsum(abs(v) for v in values)
    assert total.to_float() == pytest.approx(want, abs=1e-9 * max(gross, 1.0))
    assert cancellation >= 1.0 or gross == 0.0


def test_signed_log_sum_extreme_scale():
    # Far beyond double range on the way in, exact on the way out.
    big = [LogValue(1, 5000.0), LogValue(-1, 5000.0), LogValue(1, 4999.0)]
    total, _ = signed_log_sum(big)
    assert total.sign == 1
    assert total.log_abs == pytest.approx(4999.0, abs=1e-12)


def test_ordering():
    assert LogValue.from_float(-3.0) < LogValue.from_float(0.5)
    assert LogValue.zero() < LogValue.from_float(1e-300)
    assert LogValue.from_float(-1e-300) < LogValue.zero()


def test_scaled():
    lv = LogValue.from_float(2.0).scaled(3.0)
    assert lv.to_float() == pytest.approx(6.0, rel=1e-15)
    assert LogValue.zero().scaled(5.0).sign == 0


def test_gl_panels_is_panel_major():
    nodes, weights = gl_panels([0.0, 1.0, 3.0])
    k = len(GL_NODES)
    assert nodes.shape == weights.shape == (2 * k,)
    assert 0.0 < nodes[:k].min() and nodes[:k].max() < 1.0
    assert 1.0 < nodes[k:].min() and nodes[k:].max() < 3.0
    assert math.fsum(weights[:k]) == pytest.approx(1.0, rel=1e-14)
    assert math.fsum(weights[k:]) == pytest.approx(2.0, rel=1e-14)


def _exp_cos(shift):
    """e^{x + shift} cos x as (sign, log|value|) arrays."""

    def f(x):
        c = np.cos(x)
        with np.errstate(divide="ignore"):
            return np.sign(c), x + shift + np.log(np.abs(c))

    return f


@pytest.mark.parametrize("shift", [0.0, 2000.0])
def test_panel_integral_sign_changing(shift):
    # integral_0^{3 pi} e^x cos x dx = -(e^{3 pi} + 1)/2; the shifted
    # integrand is e^{2000} times larger, far outside double range.
    got = panel_integral_log(_exp_cos(shift), [0.0, 3.0 * math.pi], 1e-12)
    assert got.sign == -1
    want = shift + math.log((math.exp(3.0 * math.pi) + 1.0) / 2.0)
    assert got.log_abs == pytest.approx(want, rel=1e-12, abs=0)


def test_panel_integral_all_zero():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.zeros(x.size), np.full(x.size, -math.inf)

    got = panel_integral_log(f, [-1.0, -0.25, 0.5, 1.25, 2.0], 1e-9)
    assert got == LogValue.zero()
    # Zero sums on the 4 starting panels and on their 8 halves, all in the
    # first round's one call.
    assert calls == [(4 + 8) * len(GL_NODES)]


def test_panel_integral_localises_a_jump():
    # A jump at 1/3 never lands on a panel edge; bisection narrows the one
    # panel that holds it until its share of the error meets the tolerance.
    def step(x):
        return np.ones(x.size), np.where(x < 1.0 / 3.0, 0.0, math.log(2.0))

    got = panel_integral_log(step, [0.0, 1.0], 1e-12)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(math.log(5.0 / 3.0), rel=0, abs=1e-12)


def test_panel_integral_exhausts_budget():
    # About 1.6e5 periods on [0, 1]: a 32-point panel resolves a few, so
    # every panel keeps failing its halves test until the budget runs out.
    def wave(x):
        return np.ones(x.size), np.log(2.0 + np.sin(1e6 * x))

    with pytest.raises(QuadratureFailure, match=rf"\[0, 1\].*{MAX_PANELS} panels"):
        panel_integral_log(wave, [0.0, 1.0], 1e-12)


def test_panel_rounds_make_one_call_each():
    # The jump keeps one panel splitting: every round after the first
    # evaluates the halves of the split panels, 64 new nodes each, in one
    # call, never one node at a time.
    sizes = []

    def step(x):
        sizes.append(x.size)
        return np.ones(x.size), np.where(x < 1.0 / 3.0, 0.0, math.log(2.0))

    panel_integral_log(step, [0.0, 1.0], 1e-12)
    assert sizes[0] == 3 * len(GL_NODES)
    assert len(sizes) > 5
    assert all(n % (2 * len(GL_NODES)) == 0 for n in sizes[1:])


def test_log_sum_rows():
    sign = np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
    log_abs = np.array([[5000.0, 5000.0, 4999.0], [-math.inf] * 3, [1.0, 0.0, -math.inf]])
    s, lg = log_sum(sign, log_abs)
    assert s.tolist() == [1.0, 0.0, -1.0]
    assert lg[0] == pytest.approx(4999.0, abs=1e-12)
    assert lg[1] == -math.inf
    assert lg[2] == pytest.approx(math.log(math.e - 1.0), rel=1e-15)
