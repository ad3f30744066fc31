"""Unit tests for the benchmark objectives and the portfolio loss."""
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from simplex_langevin.objectives import (
    Objective,
    PortfolioLoss,
    TEST_FUNCTION_IDS,
    finite_difference_gradient,
    portfolio_moments,
    portfolio_objective,
)
from simplex_langevin.objectives import (
    _F1_CA, _F1_CB, _F1_QA, _F1_QB, _F2_CA, _F2_CB, _F2_QA, _F2_QB,
    _LISTED_OPTIMA,
    _OnFloats,
)
from simplex_langevin.objectives import test_function as benchmark
from simplex_langevin.portfolio import RISK_PRESETS

# Values of each benchmark at its published optimum location, frozen from an
# independent reimplementation evaluated with plain float64 arithmetic.
FROZEN_OPTIMUM_VALUES = {
    "f1": 10.154888554262994,
    "f2": -0.18562878621036599,
    "f3": -0.32189999999999996,
    "f4": -0.33828506195370395,
    "f5": -0.1766298800647918,
    "f6": -0.24545454500000002,
}


def interior_point(rng, n):
    u = rng.random(n) + 0.05
    return u / u.sum()


def kkt_violations(obj, point):
    """The first-order conditions for a minimum on the simplex that fail.

    At a minimizer the point lies on the simplex, the gradient takes one
    common value λ on the support, and it is no lower than λ off it.
    """
    failed = []
    if abs(point.sum() - 1.0) > 1e-12 or (point < 0.0).any():
        failed.append("off the simplex")
    g = obj.gradient(point)
    support = point > 0.0
    lam = g[support].min()
    spread = g[support].max() - lam
    if spread > 1e-9:
        failed.append(f"gradient spreads over {spread:.3e} on the support")
    if (g[~support] < lam).any():
        failed.append("gradient below the multiplier off the support")
    return failed


class TestBenchmarkFunctions:
    def test_ids(self):
        assert TEST_FUNCTION_IDS == ("f1", "f2", "f3", "f4", "f5", "f6")

    @pytest.mark.parametrize("fid", TEST_FUNCTION_IDS)
    def test_value_at_published_optimum(self, fid):
        obj = benchmark(fid)
        assert obj.value(_LISTED_OPTIMA[fid]) == FROZEN_OPTIMUM_VALUES[fid]
        point, value = obj.known_optimum
        assert obj.value(point) == value

    @pytest.mark.parametrize("fid", TEST_FUNCTION_IDS)
    def test_known_optimum_is_kkt_point(self, fid):
        obj = benchmark(fid)
        point, _ = obj.known_optimum
        assert kkt_violations(obj, point) == []

    @pytest.mark.parametrize("fid", ["f4", "f6"])
    def test_published_optimum_is_not_kkt_point(self, fid):
        # rescaled onto the simplex, so only the gradient conditions can fail
        point = np.array(_LISTED_OPTIMA[fid])
        violations = kkt_violations(benchmark(fid), point / point.sum())
        assert violations and "off the simplex" not in violations

    def test_f3_vertex_hand_value(self):
        # 0.49·0.01 + 0.04·0.49 + 0.36·0.01 − 0.35
        assert_allclose(
            benchmark("f3").value([1.0, 0.0, 0.0]), -0.3219, rtol=1e-12
        )

    def test_f3_gradient_hand_value(self):
        g = benchmark("f3").gradient([0.3, 0.2, 0.6])
        assert_allclose(g, [-0.3, 0.0, 0.0], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("fid", TEST_FUNCTION_IDS)
    def test_gradient_matches_finite_differences(self, fid):
        obj = benchmark(fid)
        rng = np.random.default_rng(101)
        for _ in range(10):
            x = interior_point(rng, obj.dim)
            approx = finite_difference_gradient(obj, x)
            exact = obj.gradient(x)
            assert_allclose(exact, approx, rtol=0,
                            atol=1e-5 * max(1.0, float(np.abs(exact).max())))

    def test_unknown_id_rejected(self):
        # the text the CLI prints for --objective f7
        with pytest.raises(ValueError, match=r"^unknown objective 'f7' \(expected "
                           r"one of f1, f2, f3, f4, f5, f6\)$"):
            benchmark("f7")

    @pytest.mark.parametrize("size", ["1", "dim-1", "dim+1"])
    @pytest.mark.parametrize("fid", TEST_FUNCTION_IDS)
    def test_shape_validation(self, fid, size):
        obj = benchmark(fid)
        n = {"1": 1, "dim-1": obj.dim - 1, "dim+1": obj.dim + 1}[size]
        point = np.ones(n) / n
        with pytest.raises(ValueError, match=f"{fid} expects a vector"):
            obj.value(point)
        with pytest.raises(ValueError, match=f"{fid} expects a vector"):
            obj.gradient(point)
        with pytest.raises(ValueError, match=f"{fid} expects a vector"):
            obj.value_and_grad(point)

    @pytest.mark.parametrize("fid", TEST_FUNCTION_IDS)
    def test_value_and_grad_matches_value_and_gradient(self, fid):
        obj = benchmark(fid)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = interior_point(rng, obj.dim)
            value, grad = obj.value_and_grad(x)
            assert value == obj.value(x)
            assert np.array_equal(grad, obj.gradient(x))

    def test_objective_block_validation(self):
        with pytest.raises(ValueError):
            Objective("bad", 3, (2, 2), lambda p: (0.0, np.zeros(3)))


class TestPortfolioLoss:
    def setup_method(self):
        self.returns = np.array([[0.01, 0.05], [0.03, 0.01]])
        self.w = np.array([0.5, 0.5])

    def test_moments_hand_values(self):
        # portfolio returns (0.03, 0.02): mean 0.025, variance 2.5e-5, m3 = 0
        loss = PortfolioLoss(self.returns, [0.5, 0.3, 0.2])
        m = portfolio_moments(loss, self.w)
        assert_allclose(m, [0.025, 2.5e-5, 0.0], rtol=1e-12, atol=1e-20)

    @pytest.mark.parametrize("w", [[1.0], [0.2, 0.3, 0.5]])
    def test_moments_of_a_wrong_length_weight(self, w):
        # the objective's text for a wrong-length point, not NumPy's matmul
        loss = PortfolioLoss(self.returns, [0.5, 0.5])
        with pytest.raises(ValueError) as info:
            portfolio_moments(loss, w)
        assert str(info.value) == (
            f"portfolio_moments expects a vector of length 2, got ({len(w)},)")
        with pytest.raises(ValueError, match=r"^portfolio expects a vector "
                           r"of length 2, got \(1,\)$"):
            portfolio_objective(loss).value_and_grad([1.0])

    def test_mean_only_loss_hand_value(self):
        loss = PortfolioLoss(self.returns, [1.0])
        assert_allclose(portfolio_objective(loss).value(self.w), -0.025,
                        rtol=1e-12)

    def test_mean_variance_loss_hand_value(self):
        loss = PortfolioLoss(self.returns, [0.5, 0.5])
        assert_allclose(portfolio_objective(loss).value(self.w), -0.0124875,
                        rtol=1e-12)

    def test_mean_only_gradient_is_negated_mean_return(self):
        loss = PortfolioLoss(self.returns, [1.0])
        assert_allclose(portfolio_objective(loss).gradient(self.w),
                        [-0.02, -0.03], rtol=1e-12)

    def test_mean_only_loss_is_linear(self):
        rng = np.random.default_rng(5)
        returns = rng.normal(0.001, 0.02, (40, 6))
        obj = portfolio_objective(
            PortfolioLoss(returns, [1.0, 0.0, 0.0, 0.0, 0.0])
        )
        rbar = returns.mean(axis=0)
        for _ in range(20):
            w = interior_point(rng, 6)
            assert abs(obj.value(w) + float(w @ rbar)) < 1e-12

    def test_alternating_sign_identity(self):
        rng = np.random.default_rng(9)
        returns = rng.normal(0.0, 0.05, (30, 4))
        lambdas = np.array([0.2, 0.3, 0.1, 0.25, 0.15])
        loss = PortfolioLoss(returns, lambdas)
        obj = portfolio_objective(loss)
        for _ in range(20):
            w = interior_point(rng, 4)
            p = returns @ w
            c = p - p.mean()
            moments = [p.mean()] + [float((c ** k).mean()) for k in range(2, 6)]
            expected = sum(
                (-1.0) ** k * lambdas[k - 1] * moments[k - 1]
                for k in range(1, 6)
            )
            assert_allclose(obj.value(w), expected, rtol=1e-12, atol=1e-18)
            assert_allclose(portfolio_moments(loss, w), moments, rtol=1e-12,
                            atol=1e-18)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        returns = rng.normal(0.001, 0.03, (25, 5))
        obj = portfolio_objective(
            PortfolioLoss(returns, [0.25, 0.25, 0.25, 0.25, 0.0])
        )
        for _ in range(10):
            w = interior_point(rng, 5)
            approx = finite_difference_gradient(obj, w)
            assert_allclose(obj.gradient(w), approx, rtol=0, atol=1e-8)

    def test_objective_wrapper(self):
        loss = PortfolioLoss(self.returns, [0.5, 0.5])
        obj = portfolio_objective(loss, name="demo")
        assert obj.name == "demo"
        assert obj.dim == 2 and obj.block_dims == (2,)
        # p = (0.03, 0.02), c = (0.005, −0.005), r̄ = (0.02, 0.03):
        # −½ r̄ + ½ (2/2) Σ_t c_t (r_t − r̄) = (−0.01005, −0.0149)
        assert_allclose(obj.value(self.w), -0.0124875, rtol=1e-12)
        assert_allclose(obj.gradient(self.w), [-0.01005, -0.0149], rtol=1e-12)

    def test_value_and_grad_matches_value_and_gradient(self):
        rng = np.random.default_rng(21)
        returns = rng.normal(0.001, 0.03, (25, 5))
        obj = portfolio_objective(PortfolioLoss(returns, [0.2] * 5))
        for _ in range(10):
            w = interior_point(rng, 5)
            value, grad = obj.value_and_grad(w)
            assert value == obj.value(w)
            assert np.array_equal(grad, obj.gradient(w))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PortfolioLoss(np.ones((1, 3)), [1.0])  # T < 2
        with pytest.raises(ValueError):
            PortfolioLoss(self.returns, [0.5, 0.4])  # sum != 1
        with pytest.raises(ValueError):
            PortfolioLoss(self.returns, [1.5, -0.5])  # negative weight
        with pytest.raises(ValueError):
            PortfolioLoss(np.array([[np.inf, 0.0], [0.0, 0.0]]), [1.0])


# Points where the two quadratic exponents a and b of f1 and f2 round to the
# same float, so both wells weigh exactly ½ (found by bisection on a − b).
WELL_TIES = {
    "f1": ([0.35166068941806344, 0.34502554700000004, 0.303317044],
           (_F1_QA, _F1_CA, _F1_QB, _F1_CB)),
    "f2": ([0.3989988502747848, 0.349471893, 0.250530416],
           (_F2_QA, _F2_CA, _F2_QB, _F2_CB)),
}


def exponents(p, qa, ca, qb, cb):
    da, db = p - ca, p - cb
    return -float((qa * da * da).sum()), -float((qb * db * db).sum())


@pytest.mark.parametrize("name", TEST_FUNCTION_IDS + ("portfolio",))
def test_values_and_grads_rows_equal_value_and_grad(name):
    if name == "portfolio":
        returns = np.random.default_rng(8).normal(0.001, 0.03, (40, 5))
        obj = portfolio_objective(PortfolioLoss(returns, [0.2] * 5))
    else:
        obj = benchmark(name)
    n = obj.dim
    # interior points, enough of them that a vectorized exp, which rounds
    # differently on a few percent of inputs, shows; each vertex with the
    # other coordinates at the 1e-12 floor; and the uniform point with one
    # coordinate moved to the floor
    vertices = np.full((n, n), 1e-12)
    np.fill_diagonal(vertices, 1.0 - (n - 1) * 1e-12)
    faces = np.full((n, n), (1.0 - 1e-12) / (n - 1))
    np.fill_diagonal(faces, 1e-12)
    interior = np.random.default_rng(3).dirichlet(np.ones(n), size=1000)
    rows = [interior, vertices, faces]
    if name in WELL_TIES:
        tie, wells = WELL_TIES[name]
        a, b = exponents(np.array(tie), *wells)
        assert a == b
        rows.append([tie])
    points = np.vstack(rows)
    values, grads = obj.values_and_grads(points)
    assert values.shape == (len(points),) and grads.shape == points.shape
    for k, p in enumerate(points):
        value, grad = obj.value_and_grad(p)
        assert values[k:k + 1].tobytes() == np.float64(value).tobytes()
        assert grads[k].tobytes() == grad.tobytes()
    with pytest.raises(ValueError, match=rf"expects a \(K, {n}\) array"):
        obj.values_and_grads(points[:, 1:])


@pytest.mark.parametrize(
    "name", TEST_FUNCTION_IDS + tuple(f"portfolio-{p}" for p in RISK_PRESETS))
def test_float_form_gives_the_bits_of_value_and_grad(name):
    # f1–f6 and the portfolio loss are written on float lists, and the run
    # loops evaluate that form: at seeded Dirichlet points, and at the
    # certified optimum of f1–f6, it gives value_and_grad's bits
    rng = np.random.default_rng(13)
    if name.startswith("portfolio-"):
        preset = RISK_PRESETS[name.removeprefix("portfolio-")]
        obj = portfolio_objective(
            PortfolioLoss(rng.normal(0.001, 0.03, (60, 10)), preset.lambdas))
        points = []
    else:
        obj = benchmark(name)
        points = [obj.known_optimum[0]]
    assert isinstance(obj.fn, _OnFloats)
    on_floats = obj._on_floats()
    points += list(rng.dirichlet(np.full(obj.dim, 0.5), size=200))
    for p in points:
        value, grad = obj.value_and_grad(p)
        got_value, got_grad = on_floats(p.tolist())
        assert type(got_value) is float and type(got_grad) is list
        assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
        assert np.array(got_grad).tobytes() == grad.tobytes()


@pytest.mark.parametrize("grad", [0.5, [0.1, 0.2], [[0.1, 0.2, 0.3]]])
def test_gradient_that_is_not_a_dim_vector_is_rejected(grad):
    obj = Objective(name="bad", dim=3, block_dims=(3,), fn=lambda p: (1.0, grad))
    point = [0.3, 0.6, 0.1]
    for evaluate in (obj.value_and_grad, obj.gradient, obj.value):
        with pytest.raises(ValueError, match="bad gradient has shape"):
            evaluate(point)
    with pytest.raises(ValueError, match="bad gradient has shape"):
        obj.values_and_grads([point, point])


def reference_value_and_grad(loss, w):
    """The portfolio kernel as first written: every moment m_2..m_d from
    ``c ** k``, the gradient from ``c ** (k − 1)`` again, and the signs built
    on each call. A second reference: it must meet the same bound against
    the exact evaluation as the shipped kernel."""
    p = loss.returns @ np.asarray(w, dtype=float)
    mu = p.mean()
    m = np.empty(loss.order)
    m[0] = mu
    c = p - mu
    for k in range(2, loss.order + 1):
        m[k - 1] = (c ** k).mean()
    signs = np.array([(-1.0) ** k for k in range(1, loss.order + 1)])
    value = float((signs * loss.lambdas * m).sum())
    t_count = loss.returns.shape[0]
    rbar = loss.returns.mean(axis=0)
    grad = signs[0] * loss.lambdas[0] * rbar
    for k in range(2, loss.order + 1):
        if loss.lambdas[k - 1] == 0.0:
            continue
        dm = (k / t_count) * (c ** (k - 1)) @ (loss.returns - rbar)
        grad = grad + signs[k - 1] * loss.lambdas[k - 1] * dm
    return value, grad, m


def plain_value_and_grad(loss, w):
    """The shipped kernel's arithmetic written out plainly: every power of
    ``c`` up to c^d by repeated multiplication, every moment, the signs built
    on each call, and the gradient series summed over the orders with
    λ_k ≠ 0 before one product with the centred panel. The shipped kernel,
    which skips the powers above the highest nonzero order and caches the
    signs, the centred panel and the mean term, must give the same bits."""
    p = loss.returns @ np.asarray(w, dtype=float)
    t_count = p.size
    mu = p.mean()
    powers = [p - mu]
    for _ in range(loss.order - 1):
        powers.append(powers[-1] * powers[0])
    m = np.array([mu] + [c_k.mean() for c_k in powers[1:]])
    signs = np.array([(-1.0) ** k for k in range(1, loss.order + 1)])
    value = float((signs * loss.lambdas * m).sum())
    rbar = loss.returns.mean(axis=0)
    grad = signs[0] * loss.lambdas[0] * rbar
    series = None
    for k in range(2, loss.order + 1):
        if loss.lambdas[k - 1] == 0.0:
            continue
        term = (signs[k - 1] * loss.lambdas[k - 1] * k / t_count) * powers[k - 2]
        series = term if series is None else series + term
    if series is not None:
        grad = grad + series @ (loss.returns - rbar)
    return value, grad, m


def exact_value_and_grad(loss, w):
    """Loss, gradient and moments (m_1, ..., m_d) at the float inputs
    ``loss.returns``, ``loss.lambdas`` and ``w``, computed in exact rational
    arithmetic and rounded once at the end."""
    rows = [[Fraction(x) for x in row] for row in loss.returns.tolist()]
    lam = [Fraction(x) for x in loss.lambdas.tolist()]
    w = [Fraction(x) for x in np.asarray(w, dtype=float).tolist()]
    t_count, orders = len(rows), range(2, len(lam) + 1)
    p = [sum(r * x for r, x in zip(row, w)) for row in rows]
    mu = sum(p) / t_count
    c = [p_t - mu for p_t in p]
    m = [mu] + [sum(c_t ** k for c_t in c) / t_count for k in orders]
    coef = [(-1) ** k * lam[k - 1] for k in range(1, len(lam) + 1)]
    value = sum(coef_k * m_k for coef_k, m_k in zip(coef, m))
    # ∂/∂w_i = coef_1 r̄_i + Σ_t s_t (r_ti − r̄_i) with
    # s_t = Σ_k coef_k (k/T) c_t^(k−1)
    rbar = [sum(row[i] for row in rows) / t_count for i in range(len(w))]
    series = [sum(coef[k - 1] * k * c_t ** (k - 1) for k in orders) / t_count
              for c_t in c]
    total = sum(series)
    grad = [coef[0] * rbar[i] - rbar[i] * total
            + sum(s_t * row[i] for s_t, row in zip(series, rows))
            for i in range(len(w))]
    return float(value), np.array(grad, dtype=float), np.array(m, dtype=float)


def absolute_scales(loss, w):
    """The value, gradient and moment formulas evaluated on absolute values:
    |r_ti| for the returns, |coef_k| for the coefficients, and
    h_t = a_t + mean(a) with a_t = Σ_i |r_ti| w_i for the centred series
    c_t = p_t − μ, so that the scale holds what cancels in c."""
    r = np.abs(loss.returns)
    a = r @ np.asarray(w, dtype=float)
    h = a + a.mean()
    coef = np.abs(loss._coef)
    orders = range(2, coef.size + 1)
    moments = np.array([a.mean()] + [np.mean(h ** k) for k in orders])
    rbar = r.mean(axis=0)
    grad = coef[0] * rbar
    for k in orders:
        grad = grad + coef[k - 1] * k * np.mean(h[:, None] ** (k - 1)
                                                * (r + rbar), axis=0)
    return float(coef @ moments), grad, moments


KERNEL_LAMBDAS = {
    **{name: preset.lambdas for name, preset in RISK_PRESETS.items()},
    "mean": (1.0, 0.0, 0.0, 0.0, 0.0),
    "mean-skew": (0.5, 0.0, 0.5, 0.0, 0.0),
    "three-moment": (0.5, 0.25, 0.0, 0.25, 0.0),
}
# Allowed error in units of T·u times the absolute scale. Both the shipped
# kernel and the reference above stay below 0.47 of that unit on these cases.
KERNEL_KAPPA = 2.0


@pytest.mark.parametrize("t_count", [2, 7, 250])
@pytest.mark.parametrize("lam", KERNEL_LAMBDAS.values(), ids=KERNEL_LAMBDAS)
def test_portfolio_kernel_bit_equals_reference(lam, t_count):
    rng = np.random.default_rng(t_count)
    # returns of unit scale, so that the higher moments weigh as much as the
    # mean and a last-bit change in a power of c reaches value and gradient
    returns = rng.standard_t(4, (t_count, 10))
    loss = PortfolioLoss(returns, lam)
    obj = portfolio_objective(loss)
    # interior points, and points with half their coordinates at the 1e-6
    # floor the portfolio fits use
    points = [interior_point(rng, 10) for _ in range(10)]
    for _ in range(10):
        w = interior_point(rng, 10)
        w[rng.permutation(10)[:5]] = 1e-6
        points.append(w / w.sum())
    for w in points:
        value, grad, moments = plain_value_and_grad(loss, w)
        got_value, got_grad = obj.value_and_grad(w)
        assert np.float64(got_value).tobytes() == np.float64(value).tobytes()
        assert got_grad.tobytes() == grad.tobytes()
        assert portfolio_moments(loss, w).tobytes() == moments.tobytes()


@pytest.mark.parametrize("t_count", [2, 7, 250])
@pytest.mark.parametrize("lam", KERNEL_LAMBDAS.values(), ids=KERNEL_LAMBDAS)
def test_portfolio_rows_bit_equal_the_single_kernel(lam, t_count):
    # the (K, n) form runs the powers, reductions and term sums once on the
    # (K, T) stack; each row must keep the bits of the float kernel alone
    rng = np.random.default_rng(t_count)
    returns = rng.standard_t(4, (t_count, 10))
    obj = portfolio_objective(PortfolioLoss(returns, lam))
    for k_rows in (1, 3, 12):
        stack = np.array([interior_point(rng, 10) for _ in range(k_rows)])
        # rows with half their coordinates at the 1e-6 floor of the fits
        for k in range(0, k_rows, 2):
            stack[k, rng.permutation(10)[:5]] = 1e-6
            stack[k] /= stack[k].sum()
        values, grads = obj.values_and_grads(stack)
        assert values.shape == (k_rows,) and grads.shape == (k_rows, 10)
        for w, value, grad in zip(stack, values, grads):
            one_value, one_grad = obj.value_and_grad(w)
            assert np.float64(one_value).tobytes() == value.tobytes()
            assert one_grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("t_count", [2, 7, 250])
@pytest.mark.parametrize("lam", KERNEL_LAMBDAS.values(), ids=KERNEL_LAMBDAS)
def test_portfolio_kernel_matches_exact_reference(lam, t_count):
    rng = np.random.default_rng(t_count)
    # returns of unit scale, so that the higher moments weigh as much as the
    # mean and a wrong term in any order shows in value and gradient
    returns = rng.standard_t(4, (t_count, 10))
    loss = PortfolioLoss(returns, lam)
    obj = portfolio_objective(loss)
    # interior points, and points with half their coordinates at the 1e-6
    # floor the portfolio fits use; fewer at T = 250, where the exact
    # evaluation is slow
    count = 2 if t_count == 250 else 10
    points = [interior_point(rng, 10) for _ in range(count)]
    for _ in range(count):
        w = interior_point(rng, 10)
        w[rng.permutation(10)[:5]] = 1e-6
        points.append(w / w.sum())
    unit = KERNEL_KAPPA * t_count * 2.0 ** -53
    for w in points:
        value, grad, moments = exact_value_and_grad(loss, w)
        value_scale, grad_scale, moment_scale = absolute_scales(loss, w)
        reference = reference_value_and_grad(loss, w)
        for got_value, got_grad, got_moments in (
            (*obj.value_and_grad(w), portfolio_moments(loss, w)), reference,
        ):
            assert abs(got_value - value) <= unit * value_scale
            assert (np.abs(got_grad - grad) <= unit * grad_scale).all()
            assert (np.abs(got_moments - moments) <= unit * moment_scale).all()


class TestFiniteDifferenceGradient:
    def test_quadratic_exact(self):
        fun = lambda x: float((x ** 2).sum())
        x = np.array([0.2, 0.3, 0.5])
        assert_allclose(finite_difference_gradient(fun, x), 2 * x,
                        rtol=0, atol=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda x: 0.0, np.ones(2), step=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0],
                             ids=["nan", "inf", "0", "-1"])
    def test_step_must_be_positive_finite(self, bad):
        with pytest.raises(ValueError,
                           match="^step must be a positive finite float$"):
            finite_difference_gradient(lambda x: 0.0, np.ones(2), step=bad)
