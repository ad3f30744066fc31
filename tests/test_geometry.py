"""Unit tests for the simplex geometry primitives."""
import math
import warnings
from functools import reduce
from operator import add

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplex_langevin.geometry import (
    DEFAULT_FLOOR,
    TangentVector,
    _left_sum,
    _pin_floor,
    barycenter,
    christoffel_drift,
    distance_sq_barycenter,
    euclidean_simplex_projection,
    exp_map,
    lift_to_interior,
    log_map,
    normalize_retraction,
    _simplex_point,
    sample_noise,
    shahshahani_gradient,
)
from simplex_langevin.objectives import (
    PortfolioLoss,
    finite_difference_gradient,
    portfolio_moments,
)
from simplex_langevin.optimizers import (
    LmwuConfig,
    lmwu_step,
    mwu_linear_step,
    projected_langevin_step,
)


def interior_point(rng, n):
    """Random point with coordinates bounded away from the boundary."""
    u = rng.random(n) + 0.1
    return u / u.sum()


class TestSimplexPoint:
    def test_accepts_valid_point(self):
        x = _simplex_point([0.3, 0.6, 0.1], 1e-12)
        assert x.dtype == np.float64
        assert np.array_equal(_simplex_point(x, 1e-12), x)  # accepted again as is
        assert _simplex_point(x, 1e-12) is not x

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match=r"^init coordinates must sum to 1 "
                           r"within 1e-09, got 1\.0999999999999999$"):
            _simplex_point([0.3, 0.6, 0.2], 1e-12)

    def test_rejects_nonpositive_coordinate(self):
        text = r"^init coordinates must be finite and >= floor 1\.000e-12$"
        with pytest.raises(ValueError, match=text):
            _simplex_point([0.5, 0.5, 0.0], 1e-12)
        with pytest.raises(ValueError, match=text):
            _simplex_point([1.2, -0.2], 1e-12)

    def test_rejects_coordinate_below_floor(self):
        with pytest.raises(ValueError, match=r"^init coordinates must be "
                           r"finite and >= floor 1\.000e-03$"):
            _simplex_point([0.5, 0.4995, 0.0005], 1e-3)
        # at the floor is allowed
        assert _simplex_point([0.499, 0.5, 0.001], 1e-3).min() == 1e-3

    @pytest.mark.parametrize("values", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]])
    def test_rejects_nonfinite_coordinate(self, values):
        with pytest.raises(ValueError, match=r"^init coordinates must be "
                           r"finite and >= floor 1\.000e-12$"):
            _simplex_point(values, 1e-12)

    def test_rejects_floor_too_large_for_dimension(self):
        # checked before the coordinates, with normalize_retraction's text
        with pytest.raises(ValueError, match=r"^floor 5\.000e-01 is too large "
                           r"for dimension 3$"):
            _simplex_point([1 / 3, 1 / 3, 1 / 3], 0.5)
        assert_allclose(_simplex_point([0.5, 0.5], 0.5), [0.5, 0.5], rtol=0, atol=0)

    @pytest.mark.parametrize("values", [[], [[0.5, 0.5]], 1.0])
    def test_rejects_non_vector(self, values):
        with pytest.raises(ValueError, match="nonempty 1-D vector"):
            _simplex_point(values, 1e-12)

    def test_barycenter(self):
        assert_allclose(barycenter(4), np.full(4, 0.25), rtol=0, atol=0)


def test_left_sum_adds_left_to_right_from_zero():
    # the steps' one sum rule, bit for bit reduce(add, row, 0.0) at n = 1–16:
    # on a float list, on a row and on each row of a stack. ndarray.sum adds
    # pairwise from 8 values up and differs on some of these rows; a running
    # sum from the first value would keep the −0.0 row at −0.0
    rng = np.random.default_rng(5)
    differs = 0
    for n in range(1, 17):
        rows = 10.0 ** rng.uniform(-3.0, 3.0, (50, n)) * rng.choice([-1.0, 1.0], (50, n))
        rows = np.vstack([rows, np.full((1, n), -0.0)])
        stacked = _left_sum(rows)
        for k, row in enumerate(rows):
            expected = np.float64(reduce(add, row.tolist(), 0.0)).tobytes()
            for got in (_left_sum(row), stacked[k], _left_sum(row.tolist())):
                assert np.float64(got).tobytes() == expected, (n, k)
            differs += np.float64(row.sum()).tobytes() != expected
    assert differs > 0
    assert np.float64(_left_sum(np.array([-0.0, -0.0]))).tobytes() == b"\0" * 8


class TestShahshahaniGradient:
    def test_hand_value(self):
        g = shahshahani_gradient(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert_allclose(g, [0.5, 0.0], rtol=0, atol=0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            shahshahani_gradient(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))


class TestExpLogMaps:
    def test_exp_hand_value(self):
        # 0.5·e^{±ln 2} = (1.0, 0.25) → normalized (0.8, 0.2)
        y = exp_map(np.array([0.5, 0.5]), np.array([math.log(2), -math.log(2)]))
        assert_allclose(y, [0.8, 0.2], rtol=1e-15)

    def test_exp_zero_vector_is_identity(self):
        x = np.array([0.3, 0.6, 0.1])
        assert_allclose(exp_map(x, np.zeros(3)), x, rtol=1e-15)

    def test_exp_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            x = interior_point(rng, n)
            v = rng.normal(0.0, 1.0, n)
            c = rng.normal(0.0, 10.0)
            assert_allclose(exp_map(x, v + c), exp_map(x, v), rtol=0, atol=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            x = interior_point(rng, n)
            y = interior_point(rng, n)
            v = log_map(x, y)
            assert_allclose(exp_map(x, v.components), y, rtol=0, atol=1e-10)

    def test_log_components_sum_to_zero(self):
        rng = np.random.default_rng(13)
        x = interior_point(rng, 5)
        y = interior_point(rng, 5)
        v = log_map(x, y)
        assert abs(v.components.sum()) < 1e-12

    def test_tangent_vector_rejects_unbalanced_components(self):
        with pytest.raises(ValueError):
            TangentVector(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


class TestBarycenterDistance:
    def test_hand_value(self):
        # n=2, x=(0.8, 0.2): 2·(ln 1.6² + ln 0.4²)
        expected = 2.0 * (math.log(1.6) ** 2 + math.log(0.4) ** 2)
        assert_allclose(
            distance_sq_barycenter(np.array([0.8, 0.2])), expected, rtol=1e-14
        )

    def test_zero_at_barycenter(self):
        for n in range(2, 9):
            assert distance_sq_barycenter(barycenter(n)) < 1e-30

    def test_permutation_symmetric_exactly(self):
        rng = np.random.default_rng(3)
        x = interior_point(rng, 6)
        d = distance_sq_barycenter(x)
        for _ in range(10):
            assert distance_sq_barycenter(rng.permutation(x)) == d

    def test_positive_away_from_barycenter(self):
        assert distance_sq_barycenter(np.array([0.5, 0.3, 0.2])) > 0.0


def unsimplified_drift(x, eps, beta):
    """Drift written as the explicit sum over Christoffel terms, without
    using Σx_j = 1 to collapse it."""
    n = x.size
    s = float(x.sum())
    out = np.empty(n)
    for i in range(n):
        acc = (x[i] - s) / (x[i] * s)
        for j in range(n):
            if j != i:
                acc += (x[j] - x[i] - s) / (x[j] * s)
        out[i] = 0.5 * eps / beta * acc
    return out


class TestChristoffelDrift:
    def test_hand_value(self):
        d = christoffel_drift(np.array([0.5, 0.5]), 0.1, 1.0)
        assert_allclose(d, [-0.15, -0.15], rtol=1e-14)

    def test_matches_unsimplified_form(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            x = interior_point(rng, n)
            got = christoffel_drift(x, 0.1, 1.0)
            assert_allclose(got, unsimplified_drift(x, 0.1, 1.0), rtol=0, atol=1e-12)

    def test_degenerate_point_rejected(self):
        with pytest.raises(ValueError, match="below floor"):
            christoffel_drift(np.array([1.0 - 1e-14, 1e-14]), 0.1, 1.0)

    @pytest.mark.parametrize("x", [np.array(0.5), np.array([]), np.ones((3, 0)),
                                   np.ones((0, 3))],
                             ids=["0-d", "empty", "rows-of-none", "no-rows"])
    def test_shapeless_point_takes_the_point_rule(self, x):
        # the point rule's text, not an IndexError or NumPy's zero-size text
        with pytest.raises(ValueError) as info:
            christoffel_drift(x, 0.1, 1.0)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"x must be a nonempty 1-D vector, got shape {x.shape}")

    def test_bad_parameters_rejected(self):
        x = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            christoffel_drift(x, -0.1, 1.0)
        with pytest.raises(ValueError):
            christoffel_drift(x, 0.1, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("name", ["eps", "beta"])
    @pytest.mark.parametrize("fn", [
        christoffel_drift,
        lambda x, eps, beta: sample_noise(x, eps, beta, np.random.default_rng(0)),
    ], ids=["drift", "sample_noise"])
    def test_step_parameters_must_be_positive_finite(self, fn, name, bad):
        params = {"eps": 0.1, "beta": 1.0, name: bad}
        with pytest.raises(ValueError,
                           match=f"^{name} must be a positive finite float$"):
            fn(np.array([0.5, 0.5]), **params)


class TestSampleNoise:
    def test_deterministic_per_seed(self):
        x = np.array([0.3, 0.6, 0.1])
        a = sample_noise(x, 0.1, 1.0, np.random.default_rng(5))
        b = sample_noise(x, 0.1, 1.0, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_batch_shares_drift(self):
        # every row is the one drift plus its own scaled normals, bit for bit
        x = np.array([0.25, 0.75])
        draw = sample_noise(x, 0.2, 2.0, np.random.default_rng(0), size=64)
        assert draw.shape == (64, 2)
        z = np.random.default_rng(0).standard_normal((64, 2))
        expected = christoffel_drift(x, 0.2, 2.0) + np.sqrt(2.0 * 0.2 / 2.0 * x) * z
        assert np.array_equal(draw, expected)


class TestNormalizeRetraction:
    def test_plain_rescale(self):
        point, clamped = normalize_retraction(np.array([0.4, 0.6, 1.0]))
        assert_allclose(point, [0.2, 0.3, 0.5], rtol=1e-15)
        assert not clamped

    def test_negative_mass_is_pinned_at_floor(self):
        raw = np.array([-0.0105, -0.0104, 0.9707])
        point, clamped = normalize_retraction(raw, floor=1e-6)
        assert clamped
        assert point[0] == 1e-6 and point[1] == 1e-6
        assert abs(point.sum() - 1.0) < 1e-15
        assert point.min() >= 1e-6

    def test_sum_stays_exact_under_stress(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(2, 9))
            raw = rng.normal(0.3, 1.0, n)
            if raw.sum() <= 1e-5:
                continue
            point, _ = normalize_retraction(raw, floor=1e-6)
            assert abs(point.sum() - 1.0) < 1e-14
            assert point.min() >= 1e-6

    def test_degenerate_sum_raises(self):
        with pytest.raises(ValueError, match="not above floor"):
            normalize_retraction(np.array([0.5, -0.5]))

    def test_floor_too_large_for_dimension(self):
        with pytest.raises(ValueError, match="too large for dimension 4"):
            normalize_retraction(np.array([1e-9, 1e-9, 1.0, 1e-9]), floor=0.4)


def numpy_pin_floor(y, floor):
    """The NumPy floor repair that the float ``_pin_floor`` replaced, kept as
    its reference: the same passes on an array. Returns the point and the
    number of passes it took."""
    low = y < floor
    passes = 0
    while True:
        passes += 1
        free = ~low
        budget = 1.0 - floor * int(low.sum())
        if budget <= 0.0 or not free.any():
            raise ValueError(f"floor {floor:.3e} is too large for dimension {y.size}")
        z = np.where(low, floor,
                     y * (budget / (np.add.accumulate(y[free])[-1] + 0.0)))
        grown = (z < floor) & free
        if not grown.any():
            return z, passes
        low |= grown


def pin_floor_inputs():
    """Seeded points summing to 1 at n = 2–16: negative mass, coordinates
    under the floor, −0.0, and coordinates just above the floor, which a
    rescale pushes under it, pass after pass when the floor is large."""
    rng = np.random.default_rng(59)
    for n in range(2, 17):
        for i in range(60):
            floor = (10.0 ** rng.uniform(-12.0, -2.0) if i % 2
                     else rng.uniform(0.1, 0.9) / n)
            kinds = rng.choice(5, n, p=[0.15, 0.15, 0.4, 0.1, 0.2])
            kinds[rng.integers(n)] = 4  # at least one coordinate keeps the mass
            y = np.empty(n)
            y[kinds == 0] = -rng.uniform(0.0, 0.2, (kinds == 0).sum()) / n
            y[kinds == 1] = floor * rng.uniform(0.0, 1.0, (kinds == 1).sum())
            y[kinds == 2] = floor * (
                1.0 + 10.0 ** rng.uniform(-4.0, -0.5, (kinds == 2).sum()))
            y[kinds == 3] = -0.0
            mass = kinds == 4
            y[mass] = rng.dirichlet(np.ones(mass.sum())) * (1.0 - y[~mass].sum())
            yield y, floor


def test_pin_floor_equals_the_numpy_repair_bit_for_bit():
    passes = []
    negative = signed_zero = 0
    for y, floor in pin_floor_inputs():
        negative += bool((y < 0.0).any())
        signed_zero += bool((np.signbit(y) & (y == 0.0)).any())
        try:
            expected, used = numpy_pin_floor(y, floor)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                _pin_floor(y.tolist(), floor)
            assert str(info.value) == str(exc)
            continue
        got = _pin_floor(y.tolist(), floor)
        assert type(got) is list
        assert np.array(got).tobytes() == expected.tobytes()
        passes.append(used)
    # the pinned set grows in a second pass, and in a third
    assert len(passes) == 15 * 60 and negative > 300 and signed_zero > 300
    assert sum(p == 2 for p in passes) > 100 and sum(p == 3 for p in passes) > 10


def test_pin_floor_without_room_raises_the_floor_text():
    y = np.array([1e-9, 1e-9, 1.0 - 3e-9, 1e-9])
    with pytest.raises(ValueError) as expected:
        numpy_pin_floor(y, 0.4)
    with pytest.raises(ValueError, match="floor 4.000e-01 is too large for "
                       "dimension 4") as info:
        _pin_floor(y.tolist(), 0.4)
    assert str(info.value) == str(expected.value)


class TestEuclideanProjection:
    def test_interior_shift_hand_value(self):
        p = euclidean_simplex_projection(np.array([0.2, 0.3, 0.1]))
        assert_allclose(p, np.array([0.2, 0.3, 0.1]) + 2.0 / 15.0, rtol=1e-14)

    def test_vertex_hand_value(self):
        p = euclidean_simplex_projection(np.array([1.2, -0.1]))
        assert_allclose(p, [1.0, 0.0], rtol=0, atol=0)

    def test_fixed_on_simplex_points(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = interior_point(rng, 4)
            assert_allclose(euclidean_simplex_projection(x), x, rtol=0, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            y = rng.normal(0.0, 2.0, 5)
            p = euclidean_simplex_projection(y)
            assert_allclose(euclidean_simplex_projection(p), p, rtol=0, atol=1e-12)

    def test_kkt_conditions(self):
        # support coords share one multiplier; zero coords sit at or under it
        rng = np.random.default_rng(37)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            y = rng.normal(0.0, 1.5, n)
            p = euclidean_simplex_projection(y)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-12
            support = p > 0.0
            theta = y[support] - p[support]
            assert np.ptp(theta) < 1e-10
            if (~support).any():
                assert y[~support].max() <= theta.mean() + 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            euclidean_simplex_projection(np.array([np.nan, 0.5]))
        with pytest.raises(ValueError):
            euclidean_simplex_projection(np.zeros((2, 2)))

    def test_rejects_input_too_large_for_a_threshold(self):
        # u_1 − (u_1 − 1)/1 rounds to 0 at 1e16, so no k passes the test
        with pytest.raises(ValueError, match="coordinates of magnitude "
                           "1.000e[+]16 leave no projection threshold"):
            euclidean_simplex_projection(np.array([1e16, 1.0, 2.0]))


class TestLiftToInterior:
    def test_lifts_zeros(self):
        z = lift_to_interior(np.array([0.0, 0.0, 0.5, 0.5]), floor=1e-2)
        assert_allclose(z, [0.01, 0.01, 0.49, 0.49], rtol=1e-15)
        assert abs(z.sum() - 1.0) < 1e-15

    def test_rescaling_pins_a_second_coordinate(self):
        # pinning x_1 rescales x_2 from 1.0005e-3 to about 0.9995e-3, under
        # the floor, so the pinned set grows to both
        z = lift_to_interior(np.array([1e-6, 1.0005e-3, 1.0 - 1.0015e-3]),
                             floor=1e-3)
        assert z[0] == z[1] == 1e-3
        assert z.sum() == 1.0

    def test_interior_point_unchanged(self):
        x = np.array([0.3, 0.6, 0.1])
        assert np.array_equal(lift_to_interior(x, floor=1e-6), x)

    def test_output_respects_floor(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            y = rng.normal(0.0, 2.0, 6)
            p = euclidean_simplex_projection(y)
            z = lift_to_interior(p, floor=1e-9)
            assert z.min() >= 1e-9
            assert abs(z.sum() - 1.0) < 1e-12


# every function under the point rule, by id: (call, the point's name, the
# partner's name or None). A call takes the point, then its partner if any.
LOSS = PortfolioLoss(np.array([[0.01, 0.02, -0.01], [0.0, 0.01, 0.02]]),
                     np.array([0.5, 0.5]))
POINT_RULE = {
    "simplex-point": (lambda x: _simplex_point(x, 1e-12), "init", None),
    "tangent-vector": (TangentVector, "base", "components"),
    "exp-map": (exp_map, "point", "tangent"),
    "log-map": (log_map, "x", "y"),
    "distance": (distance_sq_barycenter, "x", None),
    "projection": (euclidean_simplex_projection, "y", None),
    "lift": (lift_to_interior, "x", None),
    "retraction": (normalize_retraction, "raw", None),
    "metric-gradient": (shahshahani_gradient, "point", "gradient"),
    "noise": (lambda x: sample_noise(x, 0.1, 1.0, np.random.default_rng(0)),
              "point", None),
    "portfolio-moments": (lambda w: portfolio_moments(LOSS, w), "w", None),
    "portfolio-lambdas": (lambda lam: PortfolioLoss(LOSS.returns, lam),
                          "lambdas", None),
    "gradient-oracle": (lambda x: finite_difference_gradient(np.sum, x),
                        "point", None),
    "linear-mwu-step": (lambda x, g: mwu_linear_step(x, g, 0.1),
                        "point", "gradient"),
    "lmwu-step": (lambda x, g: lmwu_step(
        x, g, LmwuConfig(eps=0.1, beta=1.0, max_iters=1),
        np.random.default_rng(0)), "point", "gradient"),
    "proj-langevin-step": (lambda x, g: projected_langevin_step(
        x, g, 0.1, 1.0, np.random.default_rng(0)), "point", "gradient"),
}
BAD_POINTS = {"2-d": np.full((2, 3), 1 / 3), "0-d": np.array(0.5),
              "empty": np.array([])}


@pytest.mark.parametrize("function, case", [
    (function, case) for function, (_, _, partner) in POINT_RULE.items()
    for case in [*BAD_POINTS, *(["partner"] if partner else [])]])
def test_point_rule_has_one_text(function, case):
    # a point that is not a nonempty 1-D vector, with a partner of its own
    # shape, or a partner of another shape: a ValueError with the rule's
    # text, no other exception and no NumPy warning
    call, name, partner = POINT_RULE[function]
    if case == "partner":
        args = (np.array([0.5, 0.3, 0.2]), np.zeros(2))
        text = f"dimension mismatch: {name} (3,) vs {partner} (2,)"
    else:
        x = BAD_POINTS[case]
        args = (x,) if partner is None else (x, x.copy())
        text = f"{name} must be a nonempty 1-D vector, got shape {x.shape}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == text
