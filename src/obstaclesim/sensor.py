"""Obstacle fields, Beta-distributed sensor marks, and the Beta CDF."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import MAX_COORD
from .pointproc import RngStream

#: marks are clamped into [MARK_EPS, 1 - MARK_EPS] to keep 1/(1-p) finite
MARK_EPS = 1e-9


class ObstacleError(ValueError):
    """An invalid entry of an obstacle field; ``index`` is its position."""

    def __init__(self, index: int, problem: str):
        super().__init__(f"obstacle {index}: {problem}")
        self.index = index
        self.problem = problem


@dataclass(frozen=True, eq=False)
class Obstacles:
    """An obstacle field: obstacle i is entry i of six parallel 1-D arrays.

    ``x``, ``y`` and ``r`` are the centre and radius of its closed disk,
    ``c`` the cost paid to disambiguate it, ``p`` the sensor's probability
    that it is true (its mark), and the bool ``true`` its truth status.
    Construction copies the arrays and makes them read-only, and rejects a
    centre coordinate or radius above ``geometry.MAX_COORD`` in magnitude, a
    non-finite centre, a radius or cost that is not finite and > 0, and a
    mark outside [MARK_EPS, 1 - MARK_EPS] (NaN included) with an
    :class:`ObstacleError` naming the first bad obstacle.
    """

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    c: np.ndarray
    p: np.ndarray
    true: np.ndarray

    _COLUMNS = ("x", "y", "r", "c", "p", "true")

    def __post_init__(self) -> None:
        true = np.asarray(self.true)
        if true.size and true.dtype != bool:
            raise ValueError(f"obstacle truth must be bool, got {true.dtype}")
        cols = [np.array(getattr(self, k), dtype=np.float64) for k in "xyrcp"]
        cols.append(true.astype(bool))
        shapes = [a.shape for a in cols]
        if cols[0].ndim != 1 or shapes.count(shapes[0]) != len(shapes):
            raise ValueError(f"obstacle arrays must be 1-D of one length, got {shapes}")
        x, y, r, c, p, _ = cols
        rules = (
            ((np.abs(x) <= MAX_COORD) & (np.abs(y) <= MAX_COORD),
             "centre must be finite and at most 2**200 in magnitude"),
            ((r > 0.0) & (r <= MAX_COORD), "radius must be finite, > 0 and at most 2**200"),
            ((c > 0.0) & (c < math.inf), "cost must be finite and > 0"),
            ((p >= MARK_EPS) & (p <= 1.0 - MARK_EPS),
             f"mark must lie in [{MARK_EPS}, 1-{MARK_EPS}]"),
        )
        ok = np.logical_and.reduce([mask for mask, _ in rules])
        if not ok.all():
            i = int(np.argmin(ok))
            problem = next(rule for mask, rule in rules if not mask[i])
            row = ", ".join(f"{k}={float(a[i])!r}" for k, a in zip("xyrcp", cols))
            raise ObstacleError(i, f"{problem}, got {row}")
        for name, a in zip(self._COLUMNS, cols):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.x.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Obstacles):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in self._COLUMNS
        )


@dataclass(frozen=True)
class SensorModel:
    """Beta shape pair: false marks ~ Beta(a, b), true marks ~ Beta(b, a)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"Beta shapes must be > 0, got ({self.a}, {self.b})")
        if not self.a < self.b:
            warnings.warn(
                f"sensor with a={self.a} >= b={self.b} does not discriminate",
                stacklevel=2,
            )


def beta_variates(a, b, gen: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
    """Beta draws as the ratio of two Gamma variates, clamped away from 0/1.

    ``a`` and ``b`` may be scalars or arrays (per-draw shapes). The check
    and the clamp call the ufuncs directly: this is the inner loop of the
    ordering experiments, where the ``np.any``/``np.clip`` wrappers cost
    more than the arithmetic; ``standard_gamma`` is ``gamma(shape, 1.0)``
    without broadcasting the scale.
    """
    g1 = gen.standard_gamma(a, size=size)
    g2 = gen.standard_gamma(b, size=size)
    p = g1 / (g1 + g2)
    if not np.isfinite(p).all():
        raise ArithmeticError("gamma ratio underflow in beta sampling")
    return np.minimum(np.maximum(p, MARK_EPS), 1.0 - MARK_EPS)


def mark_shapes(true, model: SensorModel):
    """The Beta shapes ``(alpha, beta)`` of the marks of a field with truth
    ``true``: Beta(a, b) for false obstacles, Beta(b, a) for true ones. They
    are scalars when every obstacle has one status; drawn with
    ``size=len(true)`` they give the same stream as per-draw arrays."""
    true = np.asarray(true, dtype=bool)
    n_true = np.count_nonzero(true)
    if n_true == true.size:
        return model.b, model.a
    if n_true == 0:
        return model.a, model.b
    return np.where(true, model.b, model.a), np.where(true, model.a, model.b)


def assign_marks(true, model: SensorModel, rng: RngStream) -> np.ndarray:
    """Independent marks of the obstacles with truth ``true`` (:func:`mark_shapes`)."""
    return beta_variates(*mark_shapes(true, model), rng.generator(), size=np.size(true))


# ---------- regularized incomplete beta ----------

_CF_MAX_ITER = 500
_CF_EPS = 1e-16
_CF_TINY = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a} b={b} x={x}")


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), absolute accuracy <= 1e-10.

    Continued fraction with the standard symmetry switch at
    x = (a+1)/(a+b+2) so the fraction always converges fast.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"Beta shapes must be > 0, got ({a}, {b})")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b
