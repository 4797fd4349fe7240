import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracfront.errors import NonConvergence, QuadratureFailure
from fracfront.logvalue import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    MAX_PANELS,
    LogValue,
    kronrod_panels,
    log_sum,
    panel_integral_log,
    panel_integrals_log,
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


def test_kronrod_panels_is_panel_major():
    nodes, weights = kronrod_panels([0.0, 1.0], [1.0, 3.0])
    k = len(KRONROD_NODES)
    assert nodes.shape == weights.shape == (2, k)
    assert 0.0 < nodes[0].min() and nodes[0].max() < 1.0
    assert 1.0 < nodes[1].min() and nodes[1].max() < 3.0
    assert math.fsum(weights[0]) == pytest.approx(1.0, rel=1e-14)
    assert math.fsum(weights[1]) == pytest.approx(2.0, rel=1e-14)


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
    # Zero sums on the 4 starting panels, at their Kronrod nodes, all in the
    # first round's one call.
    assert calls == [4 * len(KRONROD_NODES)]


def test_panel_integral_localises_a_jump():
    # A jump at 1/3 never lands on a panel edge; bisection narrows the one
    # panel that holds it until its share of the error meets the tolerance.
    def step(x):
        return np.ones(x.size), np.where(x < 1.0 / 3.0, 0.0, math.log(2.0))

    got = panel_integral_log(step, [0.0, 1.0], 1e-12)
    assert got.sign == 1
    assert got.log_abs == pytest.approx(math.log(5.0 / 3.0), rel=0, abs=1e-12)


def test_panel_errors_of_opposite_sign_do_not_cancel():
    # 1 + sign(x) |x|^{1/2}: the odd part's K31 - G15 gaps on [-1, 0] and
    # [0, 1] are equal and opposite, so their signed sum would pass any
    # tolerance after one round.  Their magnitudes bisect both panels.
    calls = []

    def f(x):
        calls.append(x.size)
        with np.errstate(divide="ignore"):
            return np.ones(x.size), np.log1p(np.sign(x) * np.sqrt(np.abs(x)))

    got = panel_integral_log(f, [-1.0, 0.0, 1.0], 1e-10)
    assert len(calls) > 1
    assert got.sign == 1 and got.log_abs == pytest.approx(math.log(2.0), rel=0, abs=1e-10)


def test_panel_integral_exhausts_budget():
    # About 1.6e5 periods on [0, 1]: a 32-point panel resolves a few, so
    # every panel keeps failing its halves test until the budget runs out.
    def wave(x):
        return np.ones(x.size), np.log(2.0 + np.sin(1e6 * x))

    with pytest.raises(QuadratureFailure, match=rf"\[0, 1\].*{MAX_PANELS} panels"):
        panel_integral_log(wave, [0.0, 1.0], 1e-12)


def test_panel_rounds_make_one_call_each():
    # The jump keeps one panel splitting: every round after the first
    # evaluates the halves of the split panels, 62 new nodes each, in one
    # call, never one node at a time.
    sizes = []

    def step(x):
        sizes.append(x.size)
        return np.ones(x.size), np.where(x < 1.0 / 3.0, 0.0, math.log(2.0))

    panel_integral_log(step, [0.0, 1.0], 1e-12)
    assert sizes[0] == len(KRONROD_NODES) == 31
    assert len(sizes) > 5
    assert all(n % (2 * len(KRONROD_NODES)) == 0 for n in sizes[1:])



class TestSeveralIntegrals:
    """``panel_integrals_log`` runs one adaptive integral per interval in a
    shared loop: one call of f per round, each integral on its own."""

    @staticmethod
    def _step(jump):
        def f(x):
            return np.ones(x.size), np.where(x < jump, 0.0, math.log(2.0))
        return f

    @staticmethod
    def _mixed():
        """Seeded (f, edges) cases over one integrand: smooth bumps,
        sign-changing e^x cos x and jumps, each on its own interval."""
        rng = np.random.default_rng(7)
        centres = rng.uniform(0.5, 9.5, 6)
        jumps = rng.uniform(20.05, 20.95, 4)

        def f(x):
            bump = np.log(np.exp(-0.5 * ((x[:, None] - centres) / 0.3) ** 2).sum(axis=1) + 1e-300)
            c = np.cos(x)
            with np.errstate(divide="ignore"):
                wave = x + np.log(np.abs(c))
            step = np.where((x[:, None] < jumps).sum(axis=1) % 2 == 0, math.log(2.0), 0.0)
            sign = np.where(x < 10.0, 1.0, np.where(x < 20.0, np.sign(c), 1.0))
            return sign, np.where(x < 10.0, bump, np.where(x < 20.0, wave, step))

        edges = [np.linspace(0.0, 10.0, 1 + int(rng.integers(1, 5))) for _ in range(4)]
        edges += [[10.0, 10.0 + 3.0 * math.pi], [10.5, 12.0, 19.0]]
        edges += [[20.0, 21.0], [20.0, 20.5, 21.0], [20.3, 20.9]]
        return f, edges

    def test_each_integral_equals_its_one_integral_call(self):
        f, edges = self._mixed()
        for tol in (1e-6, 1e-12):
            together = panel_integrals_log(lambda x, owner: f(x), edges, tol)
            for one, got in zip(edges, together):
                assert panel_integral_log(f, one, tol) == got  # bit for bit

    def test_one_call_per_round_across_integrals(self):
        jumps = [0.2, 1.0 / 3.0, 0.7]
        rounds = []
        for jump in jumps:
            sizes = []
            step = self._step(jump)
            panel_integral_log(lambda x: (sizes.append(x.size), step(x))[1], [0.0, 1.0], 1e-12)
            rounds.append(sizes)
        sizes = []

        def steps(x, owner):
            sizes.append(x.size)
            # Integral i lies on [i, i + 1] with its jump at i + jumps[i].
            assert np.array_equal(owner, np.floor(x))
            return np.ones(x.size), np.where(x - owner < np.take(jumps, owner), 0.0, math.log(2.0))

        panel_integrals_log(steps, [[i, i + 1.0] for i in range(3)], 1e-12)
        # As many calls as the longest integral takes rounds, each holding
        # the new nodes of every integral still running.
        assert len(sizes) == max(map(len, rounds))
        assert sizes == [sum(r[j] for r in rounds if j < len(r)) for j in range(len(sizes))]

    def test_exhausted_budget_names_its_interval(self):
        def f(x, owner):
            # Smooth on [0, 1], about 1.6e5 periods on [2, 3].
            return np.ones(x.size), np.where(x < 1.5, x, np.log(2.0 + np.sin(1e6 * x)))

        with pytest.raises(QuadratureFailure, match=rf"\[2, 3\].*{MAX_PANELS} panels"):
            panel_integrals_log(f, [[0.0, 1.0], [2.0, 3.0]], 1e-12)
        # With a dict of failures, that integral drops out and the other goes on.
        failed = {}
        got = panel_integrals_log(f, [[0.0, 1.0], [2.0, 3.0]], 1e-12, failed)
        assert got == [panel_integral_log(lambda x: f(x, None), [0.0, 1.0], 1e-12), None]
        assert list(failed) == [1] and isinstance(failed[1], QuadratureFailure)

    def test_integral_whose_nodes_raise_leaves_the_others(self):
        f, edges = self._mixed()

        def g(x, owner):
            if np.any(owner == 2):
                raise NonConvergence("integral 2")
            return f(x)

        with pytest.raises(NonConvergence, match="integral 2"):
            panel_integrals_log(g, edges, 1e-9)
        failed = {}
        got = panel_integrals_log(g, edges, 1e-9, failed)
        want = panel_integrals_log(lambda x, owner: f(x), edges, 1e-9)
        assert list(failed) == [2] and str(failed[2]) == "integral 2" and got[2] is None
        assert got[:2] + got[3:] == want[:2] + want[3:]  # bit for bit


class TestKronrodRule:
    """The K31 / G15 pair built at import by Laurie's algorithm."""

    @staticmethod
    def _moment_error(nodes, weights, k):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        return abs(math.fsum(weights * nodes ** k) - exact)

    def test_kronrod_exact_to_degree_47(self):
        assert KRONROD_NODES.shape == KRONROD_WEIGHTS.shape == (31,)
        for k in range(48):
            assert self._moment_error(KRONROD_NODES, KRONROD_WEIGHTS, k) <= 1e-14, k

    def test_weights_positive_and_nodes_inside(self):
        assert (KRONROD_WEIGHTS > 0.0).all() and (GAUSS_WEIGHTS > 0.0).all()
        assert (np.diff(KRONROD_NODES) > 0.0).all()
        assert -1.0 < KRONROD_NODES[0] and KRONROD_NODES[-1] < 1.0

    def test_gauss_rule_on_odd_nodes(self):
        gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(15)
        assert np.abs(KRONROD_NODES[1::2] - gauss_nodes).max() <= 2e-15
        assert np.array_equal(GAUSS_WEIGHTS, gauss_weights)
        for k in range(30):
            assert self._moment_error(KRONROD_NODES[1::2], GAUSS_WEIGHTS, k) <= 1e-14, k


def _bump(centre, width, shift):
    """e^{shift} exp(-(x - centre)^2 / (2 width^2)) as (sign, log) arrays."""

    def f(x):
        return np.ones(x.size), shift - 0.5 * ((x - centre) / width) ** 2

    return f


def _bump_integral_log(centre, width, shift, lo, hi):
    # erfc differences keep the digits when both ends sit on one side.
    u, v = (lo - centre) / (width * math.sqrt(2.0)), (hi - centre) / (width * math.sqrt(2.0))
    mass = math.erfc(u) - math.erfc(v) if u > 0.0 else math.erfc(-v) - math.erfc(-u)
    return shift + math.log(width * math.sqrt(0.5 * math.pi) * mass)


def _closed_form_cases():
    """Seeded (name, f, edges, log|integral|, sign) cases."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(24):
        centre, width = rng.uniform(0.5, 9.5), 10.0 ** rng.uniform(-1.3, 0.3)
        shift = rng.uniform(-700.0, 700.0)
        edges = np.linspace(0.0, 10.0, 1 + int(rng.integers(1, 9)))
        cases.append((f"bump{i}", _bump(centre, width, shift), edges,
                      _bump_integral_log(centre, width, shift, 0.0, 10.0), 1))
    for i in range(8):
        jump = rng.uniform(0.05, 0.95)

        def step(x, jump=jump):
            return np.ones(x.size), np.where(x < jump, 0.0, math.log(2.0))

        cases.append((f"jump{i}", step, [0.0, 1.0], math.log(2.0 - jump), 1))
    cases.append(("exp_cos", _exp_cos(2000.0), [0.0, 3.0 * math.pi],
                  2000.0 + math.log((math.exp(3.0 * math.pi) + 1.0) / 2.0), -1))
    return cases


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_error_within_tolerance_on_closed_forms(tol):
    # The estimate is an upper bound: |true - returned| <= tol |true| on
    # every seeded integrand, far outside double range included.
    for name, f, edges, want, sign in _closed_form_cases():
        got = panel_integral_log(f, edges, tol)
        assert got.sign == sign, name
        assert abs(math.expm1(got.log_abs - want)) <= tol, name


def test_log_sum_rows():
    sign = np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
    log_abs = np.array([[5000.0, 5000.0, 4999.0], [-math.inf] * 3, [1.0, 0.0, -math.inf]])
    s, lg = log_sum(sign, log_abs)
    assert s.tolist() == [1.0, 0.0, -1.0]
    assert lg[0] == pytest.approx(4999.0, abs=1e-12)
    assert lg[1] == -math.inf
    assert lg[2] == pytest.approx(math.log(math.e - 1.0), rel=1e-15)
