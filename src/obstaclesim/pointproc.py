"""Obstacle-center samplers: uniform, conditional Strauss, Matern cluster.

All samplers are pure functions of (params, window, RngStream): the same
inputs give the same placement, element order included. A placement is its
coordinate arrays ``(xs, ys)``, two float64 arrays of one length; the
samplers reject a non-finite coordinate as :class:`Point2` does, and callers
that need point objects (``montecarlo.build_obstacles``) build them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence, Tuple

import numpy as np

from .geometry import Point2

_MASK64 = (1 << 64) - 1

Coords = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible randomness source.

    Distinct (master_seed, stream_index) pairs give statistically independent
    streams. Realized as numpy Philox keyed through SeedSequence, which is
    stable across platforms and processes.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed & _MASK64, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle (closed)."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"empty window {self}")

    @property
    def diagonal(self) -> float:
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def contains(self, x: float, y: float) -> bool:
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def clamp(self, x: float, y: float):
        return (min(max(x, self.xmin), self.xmax), min(max(y, self.ymin), self.ymax))


@dataclass(frozen=True)
class StraussParams:
    n: int
    d: float
    gamma: float
    burn_in_sweeps: int = 500

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be > 0")
        if not self.d > 0:
            raise ValueError("d must be > 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.burn_in_sweeps < 0:
            raise ValueError("burn_in_sweeps must be >= 0")


@dataclass(frozen=True)
class MaternParams:
    kappa: int
    r0: float
    n: int

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be > 0")
        if not self.r0 > 0:
            raise ValueError("r0 must be > 0")
        if self.n <= 0:
            raise ValueError("n must be > 0")
        if self.kappa > self.n:
            raise ValueError("kappa must be <= n")


def _finite(xs: np.ndarray, ys: np.ndarray) -> Coords:
    """``(xs, ys)``, after the non-finite check that :class:`Point2` makes."""
    bad = ~(np.isfinite(xs) & np.isfinite(ys))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite coordinates ({float(xs[i])}, {float(ys[i])})")
    return xs, ys


def sample_uniform(n: int, w: Window, rng: RngStream) -> Coords:
    """n i.i.d. uniform points on the window."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0), np.empty(0)
    gen = rng.generator()
    xs = gen.uniform(w.xmin, w.xmax, n)
    ys = gen.uniform(w.ymin, w.ymax, n)
    return _finite(xs, ys)


def count_close_pairs(points: Sequence[Point2], d: float) -> int:
    """Unordered pairs at Euclidean distance strictly below d."""
    if not d > 0:
        raise ValueError("d must be > 0")
    n = len(points)
    if n < 2:
        return 0
    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    close = dx * dx + dy * dy < d * d
    # full matrix counts each pair twice and the zero diagonal n times
    return int((np.count_nonzero(close) - n) // 2)


# float elements per row block of the Strauss distance matrix (256 KB); a
# sweep at n <= 90 is one block
_STRAUSS_BLOCK_ELEMS = 1 << 15


def sample_strauss(
    p: StraussParams,
    w: Window,
    rng: RngStream,
    trace: Optional[dict] = None,
) -> Coords:
    """Fixed-n Strauss configuration via single-site Metropolis.

    Start from n uniform points; every sweep proposes relocating each point
    (in index order) to a fresh uniform location, accepting with probability
    min(1, gamma**delta) where delta is the change in the close-pair count.
    gamma=1 accepts everything (uniform); gamma=0 accepts only moves that do
    not increase the pair count, drifting toward (and for feasible n
    reaching) a hard-core packing, but never rejecting the configuration as
    a whole.

    Each sweep is counted in one batch. The sweep-start points and the
    sweep's n proposals are stacked into 2n points, and one 2n x 2n
    "squared distance < d**2" matrix, built in row blocks that stay in
    cache, is packed into one bit row per point.
    Proposal i then reads its delta from two of those rows, with a mask that
    picks, for every other point, its proposal if that was accepted earlier
    in the sweep and its sweep-start position otherwise. That is exactly the
    configuration the per-proposal chain sees, and the squared distances are
    computed with the same operations, so points, accept decisions, RNG
    consumption and ``trace`` are bit-identical to counting each proposal
    against the current points. Memory is O(n**2): one 2n x 2n boolean
    matrix (26 KB at n=80, 4 MB at n=1000) plus two float64 buffers of at
    most 256 KB, reused by every sweep.

    ``trace``, when given, is filled with "initial_pairs", "final_pairs",
    and "proposals": one (sweep, index, delta, u, accepted) tuple per
    proposal, with Python int, float and bool values, so the accept rule can
    be audited against recomputed counts.
    """
    gen = rng.generator()
    n = p.n
    px = gen.uniform(w.xmin, w.xmax, n)
    py = gen.uniform(w.ymin, w.ymax, n)
    d2 = p.d * p.d
    gamma = p.gamma
    if trace is not None:
        trace["initial_pairs"] = count_close_pairs(
            [Point2(float(x), float(y)) for x, y in zip(px, py)], p.d
        )
        trace["proposals"] = []
    # a point is never its own neighbour: drop the main diagonal and the
    # +-n diagonals, which pair a point's old position with its proposal
    m = 2 * n
    keep = ~(
        np.eye(m, dtype=bool) | np.eye(m, k=n, dtype=bool) | np.eye(m, k=-n, dtype=bool)
    )
    row_dtype = np.dtype((np.void, (m + 7) // 8))  # one packed row as one bytes
    # reused float buffers for a block of rows: fresh m x m temporaries cost
    # more than the arithmetic, and blocks keep them in cache at large n
    block = min(m, max(1, _STRAUSS_BLOCK_ELEMS // m))
    ddx = np.empty((block, m))
    ddy = np.empty((block, m))
    close = np.empty((m, m), dtype=bool)
    for sweep in range(p.burn_in_sweeps):
        # proposals pre-drawn per sweep: consumption is history-independent
        cx = gen.uniform(w.xmin, w.xmax, n)
        cy = gen.uniform(w.ymin, w.ymax, n)
        us = gen.random(n).tolist()
        qx = np.concatenate((px, cx))
        qy = np.concatenate((py, cy))
        for lo in range(0, m, block):
            hi = min(lo + block, m)
            bx = ddx[: hi - lo]
            by = ddy[: hi - lo]
            # bx[j, k] = x_k - x_j, the operand order of a per-proposal pass
            np.subtract(qx, qx[lo:hi, None], out=bx)
            np.subtract(qy, qy[lo:hi, None], out=by)
            np.multiply(bx, bx, out=bx)
            np.multiply(by, by, out=by)
            np.add(bx, by, out=bx)
            np.less(bx, d2, out=close[lo:hi])
        close &= keep
        # bit k of rows[j]: point j (old i < n, proposal n + i) is close to k
        packed = np.packbits(close, axis=1, bitorder="little").view(row_dtype)
        rows = list(map(int.from_bytes, packed.ravel().tolist(), repeat("little", m)))
        # bit k < n: point k unmoved this sweep; bit n + k: proposal k accepted
        sel = (1 << n) - 1
        accepted_mask = [False] * n
        for i in range(n):
            delta = (rows[n + i] & sel).bit_count() - (rows[i] & sel).bit_count()
            u = us[i]
            accepted = delta <= 0 or u < gamma**delta
            if accepted:
                sel ^= (1 << i) | (1 << (n + i))
                accepted_mask[i] = True
            if trace is not None:
                trace["proposals"].append((sweep, i, delta, u, accepted))
        moved = np.array(accepted_mask)
        px = np.where(moved, cx, px)
        py = np.where(moved, cy, py)
    if trace is not None:
        trace["final_pairs"] = count_close_pairs(
            [Point2(float(x), float(y)) for x, y in zip(px, py)], p.d
        )
    return _finite(px, py)


_MATERN_MAX_TRIES = 1000


def sample_matern(
    p: MaternParams,
    w: Window,
    rng: RngStream,
    trace: Optional[dict] = None,
) -> Coords:
    """Matern cluster sample with exactly n offspring.

    kappa parent locations are uniform on the window; each of the n offspring
    picks a parent uniformly at random (per-parent counts are then
    Multinomial(n, 1/kappa)) and lands uniformly on the disk of radius r0
    around it, rejection-sampled against the window with a retry cap, after
    which the candidate is clamped coordinate-wise. Parents are discarded.
    """
    gen = rng.generator()
    par_x = gen.uniform(w.xmin, w.xmax, p.kappa)
    par_y = gen.uniform(w.ymin, w.ymax, p.kappa)
    assignment = gen.integers(0, p.kappa, size=p.n)
    xs = np.empty(p.n)
    ys = np.empty(p.n)
    for j in range(p.n):
        cx = par_x[assignment[j]]
        cy = par_y[assignment[j]]
        x = y = math.nan
        for _ in range(_MATERN_MAX_TRIES):
            rad = p.r0 * math.sqrt(gen.random())
            theta = 2.0 * math.pi * gen.random()
            x = cx + rad * math.cos(theta)
            y = cy + rad * math.sin(theta)
            if w.contains(x, y):
                break
        else:
            x, y = w.clamp(x, y)
        xs[j] = x
        ys[j] = y
    if trace is not None:
        trace["parents"] = [Point2(float(x), float(y)) for x, y in zip(par_x, par_y)]
        trace["assignment"] = [int(a) for a in assignment]
    return _finite(xs, ys)
