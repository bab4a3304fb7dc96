"""Truth statuses, Beta-distributed sensor marks, and the Beta CDF."""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .geometry import Disk
from .pointproc import RngStream

#: marks are clamped into [MARK_EPS, 1 - MARK_EPS] to keep 1/(1-p) finite
MARK_EPS = 1e-9


class Status(enum.Enum):
    TRUE = "T"
    FALSE = "F"


class Knowledge(enum.Enum):
    AMBIGUOUS = "ambiguous"
    KNOWN_TRUE = "known_true"
    KNOWN_FALSE = "known_false"


@dataclass(frozen=True)
class Obstacle:
    """A disk obstacle with truth status, sensor mark, and disambiguation cost.

    ``p`` is the sensor's probability that the obstacle is true; None until
    marks are assigned. ``c`` is the cost paid to disambiguate it.
    """

    id: int
    disk: Disk
    status: Status
    p: Optional[float]
    c: float
    knowledge: Knowledge = Knowledge.AMBIGUOUS

    def __post_init__(self) -> None:
        if self.p is not None and not (MARK_EPS <= self.p <= 1.0 - MARK_EPS):
            raise ValueError(f"mark p={self.p} outside [{MARK_EPS}, 1-{MARK_EPS}]")
        if not self.c > 0:
            raise ValueError(f"disambiguation cost must be > 0, got {self.c}")
        if self.knowledge is Knowledge.KNOWN_TRUE and self.status is not Status.TRUE:
            raise ValueError("knowledge=KNOWN_TRUE requires status=TRUE")
        if self.knowledge is Knowledge.KNOWN_FALSE and self.status is not Status.FALSE:
            raise ValueError("knowledge=KNOWN_FALSE requires status=FALSE")


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
    more than the arithmetic.
    """
    g1 = gen.gamma(a, 1.0, size=size)
    g2 = gen.gamma(b, 1.0, size=size)
    p = g1 / (g1 + g2)
    if not np.isfinite(p).all():
        raise ArithmeticError("gamma ratio underflow in beta sampling")
    return np.minimum(np.maximum(p, MARK_EPS), 1.0 - MARK_EPS)


def assign_marks(
    obstacles: Sequence[Obstacle], model: SensorModel, rng: RngStream
) -> List[Obstacle]:
    """Draw a mark for every obstacle from its status's Beta distribution.

    False obstacles receive p ~ Beta(a, b), true ones p ~ Beta(b, a),
    independently. Knowledge is reset to Ambiguous; costs are untouched.
    """
    if not obstacles:
        return []
    a_arr = np.array(
        [model.a if o.status is Status.FALSE else model.b for o in obstacles]
    )
    b_arr = np.array(
        [model.b if o.status is Status.FALSE else model.a for o in obstacles]
    )
    marks = beta_variates(a_arr, b_arr, rng.generator())
    return [
        replace(o, p=float(m), knowledge=Knowledge.AMBIGUOUS)
        for o, m in zip(obstacles, marks)
    ]


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
