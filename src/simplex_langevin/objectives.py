"""Objective functions: benchmark suite, portfolio loss, and gradient checks.

Six bundled nonconvex benchmarks (f1..f6) over 3-, 5-, and 6-dimensional
simplices, each with an analytic gradient and a certified global minimizer
on the simplex; a higher-moment portfolio loss over return panels; and a
central-difference oracle for validating any gradient implementation.

The published optimum locations are kept alongside the certified minimizers
but are not used as references: f1, f2 and f4 lie off the simplex, and the
published f4 and f6 points are not minimizers of the f4 and f6 defined here.
Whether the paper's f6 carries the (h − ½)² term is open; with it, the f6
minimizer is (0, 0, 0, 94/275, 116/275, 13/55).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .geometry import _points, _require_positive

__all__ = [
    "Objective",
    "PortfolioLoss",
    "TEST_FUNCTION_IDS",
    "test_function",
    "portfolio_moments",
    "portfolio_objective",
    "finite_difference_gradient",
]


@dataclass(frozen=True)
class Objective:
    """A differentiable objective over a product of simplices.

    ``block_dims`` partitions the ``dim`` coordinates into independent
    simplex blocks (a single block for every bundled benchmark). ``fn``
    maps a point to its (value, Euclidean gradient) pair in one evaluation;
    ``value`` and ``gradient`` are derived from it, so each of them also
    pays for the other. ``known_optimum`` is an optional (point, value)
    pair. Evaluation raises ValueError on a point that is not a
    ``dim``-vector, and on an ``fn`` gradient that is not one. f1–f6 and the
    portfolio loss are written on float lists, and their ``fn`` derived.
    """

    name: str
    dim: int
    block_dims: tuple[int, ...]
    fn: Callable[[np.ndarray], tuple[float, np.ndarray]] = field(repr=False)
    known_optimum: Optional[tuple[np.ndarray, float]] = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.block_dims or sum(self.block_dims) != self.dim:
            raise ValueError("block_dims must be nonempty and sum to dim")
        if any(b < 1 for b in self.block_dims):
            raise ValueError("each block must have dimension >= 1")

    def value_and_grad(self, point) -> tuple[float, np.ndarray]:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(
                f"{self.name} expects a vector of length {self.dim}, got {p.shape}"
            )
        value, grad = self.fn(p)
        grad = np.asarray(grad, dtype=float)
        if grad.shape != (self.dim,):
            raise ValueError(f"{self.name} gradient has shape {grad.shape}")
        return float(value), grad

    def values_and_grads(self, points) -> tuple[np.ndarray, np.ndarray]:
        """(K,) values and (K, dim) gradients at the K rows of ``points``.

        Row k is bit-identical to ``value_and_grad(points[k])``: f1, f2 and
        the portfolio loss are evaluated in one pass over the stack, every
        other ``fn`` row by row through its float form, from one ``tolist()``
        of the stack.
        """
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ValueError(
                f"{self.name} expects a (K, {self.dim}) array, got {p.shape}"
            )
        if isinstance(self.fn, _OnFloats) and self.fn.rows is not None:
            return self.fn.rows(p)
        on_floats = self._on_floats()
        values = np.empty(p.shape[0])
        grads = np.empty(p.shape)
        for k, row in enumerate(p.tolist()):
            values[k], grads[k] = on_floats(row)
        return values, grads

    def _on_floats(self):
        """``x -> (value, gradient list)`` on a float list, with the bits of
        ``value_and_grad``, which any ``fn`` not written on floats goes
        through, shape checks and all."""
        return self.fn.floats if isinstance(self.fn, _OnFloats) else self._listed

    def _listed(self, x: list) -> tuple[float, list]:
        value, grad = self.value_and_grad(x)
        return value, grad.tolist()

    def value(self, point) -> float:
        return self.value_and_grad(point)[0]

    def gradient(self, point) -> np.ndarray:
        return self.value_and_grad(point)[1]


@dataclass(frozen=True)
class _OnFloats:
    """An ``fn`` written on float lists, ``floats(x) -> (value, gradient
    list)``, and its (K, n) form ``rows`` where one exists."""

    floats: Callable[[list], tuple[float, list]]
    rows: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

    def __call__(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = self.floats(p.tolist())
        return value, np.array(grad)


# ---------------------------------------------------------------------------
# benchmark functions
# ---------------------------------------------------------------------------

def _double_well(qa, ca, qb, cb, shift):
    """f(p) = −ln(e^a + e^b) + p_2 + shift on the 3-simplex, for two concave
    quadratic exponents a = −Σ qa_i (p_i − ca_i)² and b likewise; its gradient
    is −(w_a ∇a + w_b ∇b) + e_2 for the softmax weights w.

    Returns the ``fn``, written on Python floats like f3–f6, with its (K, 3)
    form, which does the same operations in the same order on each row:
    NumPy adds a row's three terms left to right from 0.0, and no term is
    −0. exp and log stay ``math`` calls per row there: NumPy's vectorized
    exp and log may round differently. Each form takes one exp per point,
    exp(−|a − b|) for the smaller exponent: the larger one's exp(0.0) is
    1.0 exactly, and b − a is −(a − b) exactly. A zero ``shift`` changes no
    value: a sum is −0 only when both addends are, and p_2 is a simplex
    coordinate.
    """
    (qa0, qa1, qa2), (ca0, ca1, ca2), (qb0, qb1, qb2), (cb0, cb1, cb2) = (
        t.tolist() for t in (qa, ca, qb, cb))

    def one(p):
        x0, x1, x2 = p
        a0, a1, a2 = x0 - ca0, x1 - ca1, x2 - ca2
        b0, b1, b2 = x0 - cb0, x1 - cb1, x2 - cb2
        a = -(qa0 * a0 * a0 + qa1 * a1 * a1 + qa2 * a2 * a2)
        b = -(qb0 * b0 * b0 + qb1 * b1 * b1 + qb2 * b2 * b2)
        e = math.exp(-abs(a - b))
        m, ea, eb = (a, 1.0, e) if a >= b else (b, e, 1.0)
        s = ea + eb
        wa, wb = ea / s, eb / s
        grad = [wa * (2.0 * qa0 * a0) + wb * (2.0 * qb0 * b0),
                wa * (2.0 * qa1 * a1) + wb * (2.0 * qb1 * b1) + 1.0,
                wa * (2.0 * qa2 * a2) + wb * (2.0 * qb2 * b2)]
        return -(m + math.log(s)) + x1 + shift, grad

    twice_qa, twice_qb = 2.0 * qa, 2.0 * qb

    def rows(p):
        da = p - ca
        db = p - cb
        a = -(qa * da * da).sum(axis=-1)
        b = -(qb * db * db).sum(axis=-1)
        first = a >= b
        m = np.where(first, a, b)
        e = np.array(list(map(math.exp, (-np.abs(a - b)).tolist())))
        ea, eb = np.where(first, 1.0, e), np.where(first, e, 1.0)
        s = ea + eb
        value = -(m + np.array(list(map(math.log, s.tolist()))))
        grad = ((ea / s)[:, None] * (twice_qa * da)
                + (eb / s)[:, None] * (twice_qb * db))
        grad[:, 1] += 1.0
        return value + p[:, 1] + shift, grad

    return _OnFloats(one, rows)


_F1_QA = np.array([10.0, 20.0, 30.0])
_F1_CA = np.array([0.3, 0.5, 0.2])
_F1_QB = np.array([30.0, 20.0, 36.0])
_F1_CB = np.array([0.4, 0.2, 0.4])
_F2_QA = np.array([15.0, 60.0, 10.0])
_F2_CA = np.array([0.4, 0.4, 0.2])
_F2_QB = np.array([3.0, 2.0, 6.0])
_F2_CB = np.array([0.4, 0.2, 0.4])

_F1 = _double_well(_F1_QA, _F1_CA, _F1_QB, _F1_CB, 10.0)
_F2 = _double_well(_F2_QA, _F2_CA, _F2_QB, _F2_CB, 0.0)


def _f3(p) -> tuple[float, list]:
    x, y, z = p
    value = ((x - 0.3) ** 2 * (x - 0.9) ** 2
             + (y - 0.2) ** 2 * (y - 0.7) ** 2
             + (z - 0.6) ** 2 * (z - 0.1) ** 2
             + (x - 0.3) * (y - 0.5))
    gx = 2.0 * (x - 0.3) * (x - 0.9) ** 2 + 2.0 * (x - 0.3) ** 2 * (x - 0.9) + (y - 0.5)
    gy = 2.0 * (y - 0.2) * (y - 0.7) ** 2 + 2.0 * (y - 0.2) ** 2 * (y - 0.7) + (x - 0.3)
    gz = 2.0 * (z - 0.6) * (z - 0.1) ** 2 + 2.0 * (z - 0.6) ** 2 * (z - 0.1)
    return value, [gx, gy, gz]


def _f4(p) -> tuple[float, list]:
    x, y, z = p
    value = (-((x - 0.6) ** 2) * (x - 0.2) ** 2
             + (y - 0.3) * (y - 0.4) ** 3
             + (z - 0.2) ** 3 * (z - 0.8)
             - x * y - 0.4 * z)
    gx = -(2.0 * (x - 0.6) * (x - 0.2) ** 2 + 2.0 * (x - 0.6) ** 2 * (x - 0.2)) - y
    gy = (y - 0.4) ** 3 + 3.0 * (y - 0.3) * (y - 0.4) ** 2 - x
    gz = 3.0 * (z - 0.2) ** 2 * (z - 0.8) + (z - 0.2) ** 3 - 0.4
    return value, [gx, gy, gz]


def _f5(p) -> tuple[float, list]:
    x, y, z, w, v = p
    value = ((x - 0.6) ** 2 * (x - 0.2) ** 2 - x * y
             + (y - 0.3) ** 2 * (y - 0.4) ** 2
             + (z - 0.2) ** 4 - 0.5 * z * w
             + (w - 0.5) ** 4 + (v - 0.3) ** 4)
    gx = 2.0 * (x - 0.6) * (x - 0.2) ** 2 + 2.0 * (x - 0.6) ** 2 * (x - 0.2) - y
    gy = -x + 2.0 * (y - 0.3) * (y - 0.4) ** 2 + 2.0 * (y - 0.3) ** 2 * (y - 0.4)
    gz = 4.0 * (z - 0.2) ** 3 - 0.5 * w
    gw = -0.5 * z + 4.0 * (w - 0.5) ** 3
    gv = 4.0 * (v - 0.3) ** 3
    return value, [gx, gy, gz, gw, gv]


def _f6(p) -> tuple[float, list]:
    x, y, z, w, v, h = p
    value = ((x - 0.6) ** 2 * (x - 0.8)
             + (y - 0.9) * (y - 0.4) ** 2
             + (z - 0.2) ** 2
             + (v - 0.6) ** 2 + (w - 0.5) ** 2 - 0.5 * v * w
             + (h - 0.5) ** 2)
    gx = 2.0 * (x - 0.6) * (x - 0.8) + (x - 0.6) ** 2
    gy = (y - 0.4) ** 2 + 2.0 * (y - 0.9) * (y - 0.4)
    gz = 2.0 * (z - 0.2)
    gw = 2.0 * (w - 0.5) - 0.5 * v
    gv = 2.0 * (v - 0.6) - 0.5 * w
    gh = 2.0 * (h - 0.5)
    return value, [gx, gy, gz, gw, gv, gh]


# Published optimum locations, to the four decimals they were published with.
# They are not references: f1, f2 and f4 sum to 0.9999, 1.0001 and 0.9999;
# f4 is not stationary; f6 is the minimizer over the face {z, w, v},
# (1/55, 124/275, 146/275), with w and v swapped, and even that face
# minimizer is no KKT point: its multiplier is −4/11 but ∂f/∂h = −1 at h = 0.
_LISTED_OPTIMA = {
    "f1": (0.4049, 0.1969, 0.3981),
    "f2": (0.3804, 0.3736, 0.2461),
    "f3": (1.0, 0.0, 0.0),
    "f4": (0.0008, 0.1464, 0.8527),
    "f5": (0.5111, 0.4889, 0.0, 0.0, 0.0),
    "f6": (0.0, 0.0, 0.0182, 0.5309, 0.4509, 0.0),
}

# Global minimizers on the simplex of the functions above. Each is a KKT
# point: the gradient equals a multiplier λ on the support and is no lower
# than λ off it; and it beats the local minima of every other face. f3 and
# f6 are exact (f6 with λ = −29/55); f1, f2, f4 and f5 are the float64
# roundings of the roots of the KKT system, solved to 50 digits.
_CERTIFIED_OPTIMA = {
    "f1": (0.40493182762897906, 0.19694025178758245, 0.3981279205834385),
    "f2": (0.3803512070498113, 0.3735542349263197, 0.24609455802386904),
    "f3": (1.0, 0.0, 0.0),
    "f4": (0.0, 0.1445961899398966, 0.8554038100601035),
    "f5": (0.5108379696354449, 0.489162030364555, 0.0, 0.0, 0.0),
    "f6": (0.0, 0.0, 0.0, 94 / 275, 116 / 275, 13 / 55),
}

_TEST_FUNCTIONS: dict[str, tuple[Callable, int]] = {
    "f1": (_F1, 3),
    "f2": (_F2, 3),
    "f3": (_OnFloats(_f3), 3),
    "f4": (_OnFloats(_f4), 3),
    "f5": (_OnFloats(_f5), 5),
    "f6": (_OnFloats(_f6), 6),
}

TEST_FUNCTION_IDS = tuple(_TEST_FUNCTIONS)


def test_function(fid: str) -> Objective:
    """Build the benchmark objective ``fid`` ("f1".."f6").

    The returned objective's ``known_optimum`` holds the certified global
    minimizer on the simplex and the function value at it. The published
    optimum locations differ for f1, f2, f4, f5 and f6 (see the module
    docstring).
    """
    try:
        fn, dim = _TEST_FUNCTIONS[fid]
    except KeyError:
        raise ValueError(
            f"unknown objective {fid!r} "
            f"(expected one of {', '.join(TEST_FUNCTION_IDS)})"
        ) from None
    opt = np.array(_CERTIFIED_OPTIMA[fid], dtype=float)
    return Objective(
        name=fid,
        dim=dim,
        block_dims=(dim,),
        fn=fn,
        known_optimum=(opt, float(fn(opt)[0])),
    )


# ---------------------------------------------------------------------------
# portfolio loss
# ---------------------------------------------------------------------------

def _check_lambdas(lam: np.ndarray) -> None:
    """The rules of a λ-weight vector: nonempty, every weight nonnegative
    and finite, and an exactly rounded sum of 1 within 1e-9."""
    _points(lambdas=lam)
    if (lam < 0.0).any() or not np.isfinite(lam).all():
        raise ValueError("lambdas must be nonnegative and finite")
    if abs(math.fsum(lam) - 1.0) > 1e-9:
        raise ValueError("lambdas must sum to 1 within 1e-9")


@dataclass(frozen=True)
class PortfolioLoss:
    """Higher-moment portfolio loss over a T×n panel of simple returns.

    With p = returns @ w the per-period portfolio return series, m_1 its
    sample mean and m_k (k >= 2) its k-th biased (divide-by-T) sample central
    moment, the loss is Σ_k (−1)^k λ_k m_k — mean is rewarded, variance
    penalized, skewness rewarded, and so on with alternating signs. The
    centred panel R − r̄ (r̄ the column means), the coefficients
    (−1)^k λ_k, the mean term's gradient −λ_1·r̄, the highest order with
    λ_k ≠ 0 and the gradient's series terms are computed once, here.
    """

    returns: np.ndarray
    lambdas: np.ndarray
    _rbar: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_grad: np.ndarray = field(init=False, repr=False, compare=False)
    _centred: np.ndarray = field(init=False, repr=False, compare=False)
    _coef: np.ndarray = field(init=False, repr=False, compare=False)
    _top: int = field(init=False, repr=False, compare=False)
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "returns", np.asarray(self.returns, dtype=float))
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        r = self.returns
        if r.ndim != 2 or r.shape[0] < 2 or r.shape[1] < 1:
            raise ValueError("returns must be a T×n matrix with T >= 2")
        if not np.isfinite(r).all():
            raise ValueError("returns must be finite")
        object.__setattr__(self, "_rbar", r.mean(axis=0))
        object.__setattr__(self, "_centred", r - self._rbar)
        lam = self.lambdas
        _check_lambdas(lam)
        signs = np.array([(-1.0) ** k for k in range(1, lam.size + 1)])
        coef = signs * lam
        top = max(k for k in range(1, lam.size + 1) if lam[k - 1] != 0.0)
        c, t_count = coef.tolist(), r.shape[0]
        object.__setattr__(self, "_coef", coef)
        object.__setattr__(self, "_mean_grad", coef[0] * self._rbar)
        object.__setattr__(self, "_top", top)
        # the gradient series' terms (see _gradients), one per order k >= 2
        # with λ_k ≠ 0, on every row
        object.__setattr__(self, "_terms", tuple(
            (k - 2, None, c[k - 1] * k / t_count, None)
            for k in range(2, top + 1) if c[k - 1] != 0.0))

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]

    @property
    def order(self) -> int:
        return self.lambdas.size


def _powers(returns: np.ndarray, w: np.ndarray, counts) -> tuple:
    """The mean m_1 of the portfolio series p = returns @ w, as a float at a
    weight vector or a (K, 1) column at a (K, n) stack, and the powers
    [c, c·c, ...] of the centred series c = p − m_1, each one multiplication
    from the last. Power j is built on the first ``counts[j − 1]`` rows of a
    stack (all of them for None), and p on the rows of c. A stack's rows keep
    their bits alone: p is one gemv per row, a matmul over (n, 1) columns (a
    (T, n) @ (n, K) gemm rounds differently), reduced by row."""
    t_count = returns.shape[0]
    if w.ndim == 1:
        p = returns.dot(w)
        mu = float(np.add.reduce(p)) / t_count
    else:
        p = (returns @ w[:counts[0], :, None])[:, :, 0]
        mu = np.add.reduce(p, axis=-1, keepdims=True) / t_count
    powers = [p - mu]
    for rows in counts[1:]:
        powers.append(powers[-1][:rows] * powers[0][:rows])
    return mu, powers


def _moments(loss: PortfolioLoss, w: np.ndarray, top: int) -> tuple[list, list]:
    """Moments [m_1, ..., m_top] at ``w`` as floats, or (K, 1) columns at a
    (K, n) stack, and the powers [c, ..., c^top] of :func:`_powers`."""
    mu, powers = _powers(loss.returns, w, [None] * top)
    t_count = loss.returns.shape[0]
    if w.ndim == 2:
        means = [np.add.reduce(c_k, axis=-1, keepdims=True) / t_count
                 for c_k in powers[1:]]
    else:
        means = [float(np.add.reduce(c_k)) / t_count for c_k in powers[1:]]
    return [mu] + means, powers


def portfolio_moments(loss: PortfolioLoss, w) -> np.ndarray:
    """Sample moments (m_1, ..., m_d) of the portfolio return series at ``w``."""
    (w,) = _points(w=w)
    if w.size != loss.n_assets:
        raise ValueError(f"portfolio_moments expects a vector of length "
                         f"{loss.n_assets}, got {w.shape}")
    # an overflowing panel gives inf or nan moments, and no warning
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(_moments(loss, w, loss.order)[0])


def _gradients(centred: np.ndarray, mean_grad: np.ndarray, terms,
               powers: list) -> np.ndarray:
    """Euclidean gradients of the moment loss at a weight vector or at the
    rows of a stack, from the powers of :func:`_powers` there.

    ∂m_1/∂w is the column mean r̄, so the mean term gives ``mean_grad``
    −λ_1·r̄ (a row per point of a stack); for k >= 2,
    ∂m_k/∂w = (k/T)·Σ_t c_t^{k−1} (r_t − r̄). The series
    Σ_k (−1)^k λ_k (k/T)·c^{k−1} adds the ``(j, rows, scale, zero)`` terms
    left to right, scale·c^{j+1} on the first ``rows`` rows (all for None),
    with a float scale or a column of one per row; the ``zero`` rows, whose
    λ_k is 0, add −0.0, which leaves every sum as it is, bit for bit. Then
    one product with the centred panel, a mat-vec per row of the series.
    """
    series = None
    for j, rows, scale, zero in terms:
        term = scale * powers[j]
        if zero is not None:
            term[zero] = -0.0
        if series is None:
            series = term
        else:
            series[:rows] += term
    if series is None:
        return np.array(mean_grad)
    if series.ndim == 1:
        return mean_grad + series.dot(centred)
    grad = np.array(mean_grad)
    grad[:len(series)] += (series[:, None, :] @ centred)[:, 0, :]
    return grad


def _portfolio_value_and_grad(loss: PortfolioLoss, w) -> tuple:
    """Loss Σ_k (−1)^k λ_k m_k(w) and its Euclidean gradient in ``w``
    (:func:`_gradients`): a float and a gradient list at one weight vector,
    (K,) values and (K, n) gradients at a (K, n) stack. No power above the
    highest order with λ_k ≠ 0 is built. An overflowing panel gives inf or
    nan, and no warning: the step that reads it raises its own error."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        m, powers = _moments(loss, w, loss._top)
        value = 0.0
        for coef_k, m_k in zip(loss._coef.tolist(), m):
            value += coef_k * m_k
        if w.ndim == 1:
            return value, _gradients(loss._centred, loss._mean_grad,
                                     loss._terms, powers).tolist()
        mean_grad = np.broadcast_to(loss._mean_grad, w.shape)
        return value[:, 0], _gradients(loss._centred, mean_grad, loss._terms,
                                       powers)


class _RowGradients:
    """The moment-loss gradients at a (K, n) stack of weights, row r under
    the λ weights of ``losses[rows[r]]``: the portfolio grid's one call per
    step. The losses are of one panel, so the first one's centred panel
    serves them all, and the rows come in descending top order, so that
    each power c^j is built only on the leading rows whose top order needs
    it for the gradient, and no row multiplies a coefficient into a power
    above its own top. Row r has the bits of ``losses[rows[r]]``'s own
    gradient at its weights."""

    def __init__(self, losses: list, rows: list):
        losses = [losses[r] for r in rows]
        tops = [loss._top for loss in losses]
        self._returns = losses[0].returns
        self._centred = losses[0]._centred
        self._mean_grad = np.array([loss._mean_grad for loss in losses])
        # rows whose top reaches k, k = 2 .. the first row's top: the rows of
        # the series that order k adds to, and of the power c^(k−1) it reads
        self._counts = [sum(t >= k for t in tops) for k in range(2, tops[0] + 1)]
        coefs, t_count = [loss._coef.tolist() for loss in losses], len(self._returns)
        self._terms = []
        for k, rows_k in enumerate(self._counts, start=2):
            coef = np.array([c[k - 1] for c in coefs[:rows_k]])[:, None]
            zero = coef[:, 0] == 0.0
            if not zero.all():
                self._terms.append((k - 2, rows_k, coef * k / t_count,
                                    zero if zero.any() else None))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        if not self._counts:
            return self._mean_grad.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            powers = _powers(self._returns, w, self._counts)[1]
            return _gradients(self._centred, self._mean_grad, self._terms, powers)


def portfolio_objective(loss: PortfolioLoss, name: str = "portfolio") -> Objective:
    """Wrap a :class:`PortfolioLoss` as a single-block :class:`Objective`."""
    kernel = partial(_portfolio_value_and_grad, loss)
    return Objective(
        name=name,
        dim=loss.n_assets,
        block_dims=(loss.n_assets,),
        fn=_OnFloats(kernel, kernel),
    )


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------

def finite_difference_gradient(fun, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient oracle.

    Args:
        fun: callable mapping a 1-D array to a float (an :class:`Objective`
            works directly), evaluated at 2n perturbed points.
        point: where to differentiate.
        step: perturbation size h; error is O(h²) for smooth ``fun``.
    """
    f = (lambda p: fun.value_and_grad(p)[0]) if isinstance(fun, Objective) else fun
    (x,) = _points(point=point)
    _require_positive("step", step)
    grad = np.empty(x.size)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad
