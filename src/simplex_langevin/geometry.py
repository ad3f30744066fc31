"""Simplex geometry under the inverse-coordinate (Shahshahani) metric.

The open probability simplex carries the Riemannian metric g_ii(x) = 1/x_i.
This module provides the primitives every optimizer in the package is built
from: metric gradients, the exponential/logarithmic maps, the normalizing
retraction that keeps iterates on the simplex, and the exact Euclidean
projection used by the projected-Langevin baseline. The Ito correction drift
of the metric Brownian motion and its noise draws are the paper's update
noise as transcribed; ``lmwu`` takes the divergence drift ε/β instead.

All functions operate on plain 1-D float64 numpy arrays; only
``christoffel_drift`` also takes (K, n) stacks of points, row by row. The
floor repair, ``_pin_floor``, works on the float lists the steps hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

__all__ = [
    "TangentVector",
    "barycenter",
    "shahshahani_gradient",
    "exp_map",
    "log_map",
    "distance_sq_barycenter",
    "christoffel_drift",
    "sample_noise",
    "euclidean_simplex_projection",
    "lift_to_interior",
]

DEFAULT_FLOOR = 1e-12
SUM_TOL = 1e-9


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector at ``base``: components sum to zero (within 1e-9)."""

    base: np.ndarray
    components: np.ndarray

    def __post_init__(self) -> None:
        _points(base=self.base, components=self.components)
        total = float(self.components.sum())
        if not math.isfinite(total) or abs(total) > SUM_TOL:
            raise ValueError(f"tangent components must sum to 0, got {total!r}")


def _require_positive(name: str, value: float) -> None:
    """The rule for step parameters (step sizes, inverse temperatures)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite float")


def _points(**named) -> list[np.ndarray]:
    """The point rule of every single-point function: each keyword's value as
    a float64 array, the first a nonempty 1-D vector, the others of its shape.
    The keywords name the arguments in the error texts."""
    arrays = {k: np.asarray(v, dtype=float) for k, v in named.items()}
    (first, x), *partners = arrays.items()
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{first} must be a nonempty 1-D vector, got shape {x.shape}")
    for name, y in partners:
        if y.shape != x.shape:
            raise ValueError(
                f"dimension mismatch: {first} {x.shape} vs {name} {y.shape}")
    return list(arrays.values())


def _require_floor(x: np.ndarray, floor: float) -> None:
    """The floor rule of an ``lmwu`` point: each coordinate >= ``floor`` (NaN fails)."""
    if not x.min() >= floor:
        raise ValueError(f"coordinate {x[~(x >= floor)][0]:.3e} below floor {floor:.3e}")


def _no_room(floor: float, n: int) -> ValueError:
    return ValueError(f"floor {floor:.3e} is too large for dimension {n}")


def _left_sum(values):
    """The one summation rule of the steps: a float list, or each row of an
    array over its last axis, added left to right from 0.0 (so a row of
    −0.0 sums to 0.0). ``ndarray.sum`` adds pairwise from 8 values up."""
    if isinstance(values, list):
        return reduce(add, values, 0.0)
    return np.add.accumulate(values, axis=-1)[..., -1] + 0.0


def _left_simplex(points: np.ndarray):
    """Whether a point (or each row of a stack) fails the simplex rule: a sum
    within ``SUM_TOL`` of 1 and every coordinate > 0. NaN and inf fail it."""
    return ~((np.abs(_left_sum(points) - 1.0) <= SUM_TOL)
             & (points.min(axis=-1) > 0.0))


def _simplex_point(values, floor: float) -> np.ndarray:
    """``values`` as a fresh float64 vector on the simplex with every
    coordinate >= ``floor``: the rule for a run's starting point.

    Raises:
        ValueError: the point rule, ``floor`` too large for the dimension,
            a coordinate not finite or below ``floor``, or the sum off 1 by
            more than ``SUM_TOL``.
    """
    x = np.array(_points(init=values)[0])
    if floor * x.size > 1.0:
        raise _no_room(floor, x.size)
    if not np.isfinite(x).all() or x.min() < floor:
        rule = f"be finite and >= floor {floor:.3e}"
    elif _left_simplex(x):
        rule = f"sum to 1 within {SUM_TOL}, got {float(_left_sum(x))!r}"
    else:
        return x
    raise ValueError(f"init coordinates must {rule}")


def barycenter(n: int) -> np.ndarray:
    """The uniform point (1/n, ..., 1/n)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return np.full(n, 1.0 / n)


def shahshahani_gradient(x: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Metric gradient at ``x``: the componentwise product x_i * g_i.

    Inverting the 1/x_i metric turns the Euclidean partials ``euclid_grad``
    into the direction multiplicative updates follow.

    Raises:
        ValueError: the point rule on ``x`` and ``euclid_grad``.
    """
    x, g = _points(point=x, gradient=euclid_grad)
    return x * g


def exp_map(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential-family retraction: Exp_x(v)_i = x_i e^{v_i} / Σ_j x_j e^{v_j}.

    The map is invariant under shifting ``v`` by a constant vector; the
    largest component is subtracted before exponentiating so large shifts
    cannot overflow. ``exp`` is ``math.exp`` per coordinate, whose bits do
    not depend on which SIMD routine NumPy dispatches to.
    """
    x, v = _points(point=x, tangent=v)
    w = x * np.array([math.exp(t) for t in (v - v.max()).tolist()])
    return w / _left_sum(w)


def log_map(x: np.ndarray, y: np.ndarray) -> TangentVector:
    """Inverse of :func:`exp_map`: the centered log-ratio of ``y`` over ``x``.

    Returns the unique zero-sum ``v`` with ``exp_map(x, v) == y``:
    v_i = ln(y_i/x_i) − (1/n)·Σ_j ln(y_j/x_j).
    """
    x, y = _points(x=x, y=y)
    if not ((x > 0.0).all() and (y > 0.0).all()):
        raise ValueError("log_map requires strictly positive points")
    r = np.log(y) - np.log(x)
    return TangentVector(base=x.copy(), components=r - r.mean())


def distance_sq_barycenter(x: np.ndarray) -> float:
    """Squared metric distance from the uniform point, n · Σ_i ln(n·x_i)².

    Zero exactly at the barycenter and symmetric under coordinate
    permutations (the squares are accumulated with an exactly rounded sum).
    Note this closed form agrees with n·‖log_map(barycenter, x)‖² only when
    the geometric mean of ``x`` equals 1/n; elsewhere it is larger, because
    the log coordinates ln(n·x_i) are not centered.
    """
    (x,) = _points(x=x)
    if not (x > 0.0).all():
        raise ValueError("distance requires strictly positive coordinates")
    n = x.size
    v = np.log(n * x)
    return n * math.fsum(float(t) for t in v * v)


def christoffel_drift(
    x: np.ndarray, eps: float, beta: float, *, floor: float = DEFAULT_FLOOR
) -> np.ndarray:
    """Ito correction drift of the metric Brownian motion at ``x``.

    drift_i = (ε / 2β) · (n + 1 − (1 + x_i) · S_x) with S_x = Σ_j 1/x_j.

    Args:
        x: strictly positive point, every coordinate >= ``floor``; or a
            (K, n) stack of such points, one drift row per point (S_x sums
            over the last axis).
        eps: step size, > 0.
        beta: inverse temperature, > 0.
        floor: positivity floor below which the 1/x_j sums are untrusted.

    Raises:
        ValueError: the point rule on a 0-d or empty ``x``, ``eps`` or
            ``beta`` not positive finite, or a coordinate below ``floor`` or NaN.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.size == 0:
        _points(x=x)
    _require_positive("eps", eps)
    _require_positive("beta", beta)
    _require_floor(x, floor)
    n = x.shape[-1]
    s = _left_sum(1.0 / x)[..., None]
    return (0.5 * eps / beta) * (n + 1.0 - (1.0 + x) * s)


def sample_noise(
    x: np.ndarray,
    eps: float,
    beta: float,
    rng: np.random.Generator,
    *,
    floor: float = DEFAULT_FLOOR,
    size: int | None = None,
) -> np.ndarray:
    """Draw the transcribed noise V: christoffel drift plus √(2εβ⁻¹x_i)·z_i.

    ``z_i`` are IID standard normals from ``rng``. With ``size`` given,
    returns a (size, n) batch of draws sharing one drift evaluation (the
    drift is deterministic at ``x``); identical seeds give bit-identical
    draws either way.
    """
    (x,) = _points(point=x)
    drift = christoffel_drift(x, eps, beta, floor=floor)
    scale = np.sqrt((2.0 * eps / beta) * x)
    shape = x.shape if size is None else (int(size), x.size)
    return drift + scale * rng.standard_normal(shape)


def _pin_floor(y: list, floor: float) -> list:
    """Repair floor violations of a float list exactly: pin violating
    coordinates at the floor and rescale the rest so the total stays 1.

    Rescaling can push further coordinates under the floor, so the pinned
    set grows until stable (at most n passes). Keeping the pinned values
    exactly at the floor — instead of clamp-then-renormalize, which shrinks
    them again — leaves the sum within a few ulp of 1 no matter how much
    negative mass the input carried.
    """
    low = [v < floor for v in y]
    while True:
        count = sum(low)
        budget = 1.0 - floor * count
        if budget <= 0.0 or count == len(y):
            raise _no_room(floor, len(y))
        scale = budget / _left_sum([v for v, pinned in zip(y, low) if not pinned])
        z = [floor if pinned else v * scale for v, pinned in zip(y, low)]
        grown = [pinned or v < floor for v, pinned in zip(z, low)]
        if grown == low:
            return z
        low = grown


def normalize_retraction(
    raw: np.ndarray, *, floor: float = DEFAULT_FLOOR
) -> tuple[np.ndarray, bool]:
    """Divide a raw update by its component sum and repair floor violations.

    Returns ``(point, clamped)`` where ``clamped`` reports whether any
    normalized coordinate fell below ``floor`` and was pinned to it (with
    the remaining coordinates rescaled). The result has every coordinate
    >= ``floor`` and sums to 1 within a few ulp.

    Raises:
        ValueError: component sum <= ``floor``, or ``floor`` does not leave
            room for ``raw.size`` coordinates.
    """
    (raw,) = _points(raw=raw)
    total = float(_left_sum(raw))
    if not total > floor:
        raise ValueError(
            f"component sum {total!r} not above floor {floor:.3e}"
        )
    y = raw / total
    clamped = bool(y.min() < floor)
    if clamped:
        y = np.array(_pin_floor(y.tolist(), floor))
    return y, clamped


def euclidean_simplex_projection(y: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of ``y`` onto the closed unit simplex.

    Sorted-threshold algorithm: with u the coordinates sorted descending and
    rho the largest k such that u_k − (Σ_{j<=k} u_j − 1)/k > 0, the result is
    max(y − θ, 0) for θ = (Σ_{j<=rho} u_j − 1)/rho. Output coordinates may be
    exactly zero; use :func:`lift_to_interior` before metric operations.

    Raises:
        ValueError: ``y`` is not a nonempty finite 1-D vector, or its
            coordinates are so large (about 1e16 and up) that the test
            rounds to 0 for every k and no threshold exists in float64.
    """
    (y,) = _points(y=y)
    if not np.isfinite(y).all():
        raise ValueError("projection input must be finite")
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, y.size + 1)
    above = np.flatnonzero(u - (css - 1.0) / k > 0.0)
    if above.size == 0:
        raise ValueError(
            f"coordinates of magnitude {np.abs(y).max():.3e} leave no "
            "projection threshold in float64"
        )
    rho = int(above[-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


def lift_to_interior(x: np.ndarray, *, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Raise zero/tiny coordinates to ``floor``, keeping the sum at 1.

    Turns a closed-simplex point (e.g. a projection output) into a strictly
    interior one; every output coordinate is >= ``floor``. Points already at
    or above the floor are returned unchanged. A ``floor`` that leaves no
    room for ``x.size`` coordinates raises ``ValueError``.
    """
    (x,) = _points(x=x)
    if x.min() >= floor:
        return x
    return np.array(_pin_floor(x.tolist(), floor))
