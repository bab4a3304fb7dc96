"""Obstacle-center samplers: uniform, conditional Strauss, Matern cluster.

All samplers are pure functions of (params, window, RngStream): the same
inputs give the same placement, element order included. A placement is its
coordinate arrays ``(xs, ys)``, two float64 arrays of one length; the
samplers reject a non-finite coordinate as ``geometry.GeometricGraph`` does
its vertices, and ``montecarlo.build_obstacles`` takes the arrays as the
obstacle centres.

An :class:`RngStream` is a Philox generator under the key numpy's
SeedSequence derives from (master seed, stream index). :func:`stream_keys`
computes the keys of many streams of one seed in one array pass, from the
pool of one cached SeedSequence per master seed, and the generator is built
straight from its key; no SeedSequence is made per stream, and the tests
keep a per-stream SeedSequence as the oracle.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, repeat
from typing import List, Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

Coords = Tuple[np.ndarray, np.ndarray]

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL = 4


def _hash_consts(init: int, mult: int, n: int) -> List[Tuple[int, int]]:
    """The (xor, multiply) constants of n successive hash steps from ``init``."""
    out = []
    for _ in range(n):
        nxt = init * mult & _MASK32
        out.append((init, nxt))
        init = nxt
    return out


# SeedSequence's hash steps: the pool fill and its all-pairs mix take 4 + 12
# of the mixing ones, then each absorbed spawn word 4 more; the output hash
# takes 4 for the 4 words of a 2 x uint64 key. Arrays are (xor|mult, ..., 4, 1).
_A_STEPS = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + 2 * _POOL)
_WORD_STEPS = (
    np.array(_A_STEPS[_POOL * _POOL:], dtype=np.uint32).reshape(2, _POOL, 2).transpose(2, 0, 1)
)[..., None]
_OUT_STEPS = np.array(_hash_consts(_INIT_B, _MULT_B, _POOL), dtype=np.uint32).T[..., None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 word arrays (their arithmetic wraps as its does)."""
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


@lru_cache(maxsize=64)
def _seed_pool(entropy: int) -> np.ndarray:
    """SeedSequence's pool after its run entropy ``entropy`` (< 2**64), which
    a spawn key's words are then absorbed into, as a read-only (4, 1) uint32
    column."""
    column = np.random.SeedSequence(entropy).pool[:, None]
    column.flags.writeable = False
    return column


def stream_keys(master_seed: int, indices) -> np.ndarray:
    """The Philox keys of streams ``indices`` (each in [0, 2**64)) of
    ``master_seed``, as a (k, 2) uint64 array.

    Row i is ``SeedSequence(entropy=master_seed & 2**64-1,
    spawn_key=(indices[i],)).generate_state(2, np.uint64)``, computed as
    numpy computes it, for all indices at once: the seed's pool
    (:func:`_seed_pool`) absorbs each index's low 32-bit word, and its high
    word when that is not 0; then the output hash, whose four words read as
    two little-endian uint64s.
    """
    words = np.asarray(indices, dtype="<u8").reshape(-1).view("<u4").reshape(-1, 2).T
    h = (words[:, None, :] ^ _WORD_STEPS[0]) * _WORD_STEPS[1]  # (word, pool, index)
    h ^= h >> _XSHIFT
    pool = _mix(_seed_pool(master_seed & _MASK64), h[0])
    if words[1].any():
        pool = np.where(words[1] != 0, _mix(pool, h[1]), pool)
    state = (pool ^ _OUT_STEPS[0]) * _OUT_STEPS[1]
    state ^= state >> _XSHIFT
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Key(ISeedSequence):
    """A seed sequence that hands a bit generator one precomputed Philox key.

    ``Philox(key=...)`` would not save the work: its base class still seeds
    a fresh SeedSequence from OS entropy first."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a _Key holds exactly one 2 x uint64 Philox key")
        return self.key


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible randomness source.

    Distinct (master_seed, stream_index) pairs give statistically independent
    streams. Realized as numpy Philox keyed as SeedSequence(entropy=
    master_seed mod 2**64, spawn_key=(stream_index,)) would key it, which is
    stable across platforms and processes; :func:`stream_keys` derives that
    key without building the SeedSequence, which the tests keep as the
    oracle. Both fields are integers (numpy ones too), ``stream_index`` in
    [0, 2**64). ``key``, when given, is ``stream_keys(master_seed,
    [stream_index])[0]``, derived ahead for a batch of streams; it takes no
    part in equality, hashing or repr.
    """

    master_seed: int
    stream_index: int = 0
    key: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise TypeError(
                    f"{name} must be an integer, got {getattr(self, name)!r}"
                ) from None
        if not 0 <= self.stream_index <= _MASK64:
            raise ValueError(f"stream_index must be in [0, 2**64), got {self.stream_index}")

    def generator(self) -> np.random.Generator:
        key = self.key
        if key is None:
            key = stream_keys(self.master_seed, [self.stream_index])[0]
        return np.random.Generator(np.random.Philox(_Key(key)))


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
            # worded by the config key, which is also StraussPlacement's field
            raise ValueError(
                f"burn_in must be >= 0 sweeps, got {self.burn_in_sweeps}"
            )


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
    """``(xs, ys)``, after the non-finite check that ``GeometricGraph`` makes
    of its vertices, with the same message."""
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


def count_close_pairs(xs: np.ndarray, ys: np.ndarray, d: float) -> int:
    """Unordered pairs of the points ``(xs[i], ys[i])`` at Euclidean distance
    strictly below d."""
    if not d > 0:
        raise ValueError("d must be > 0")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = xs.size
    if n < 2:
        return 0
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    close = dx * dx + dy * dy < d * d
    # full matrix counts each pair twice and the zero diagonal n times
    return int((np.count_nonzero(close) - n) // 2)


# float elements per row block of a Strauss distance pass, per coordinate
# (256 KB); at n <= 128 a sweep's proposal pass is one block
_STRAUSS_BLOCK_ELEMS = 1 << 15
# float elements per block of Strauss proposal draws (64 KB, 34 sweeps at
# n=80): one ``random`` call serves many sweeps in a small reused buffer
_STRAUSS_DRAW_ELEMS = 1 << 13


def _close_rows(
    a: np.ndarray, q: np.ndarray, d2: float, out: np.ndarray, buf: np.ndarray
) -> None:
    """``out[j, k] = (q[0, k] - a[0, j])**2 + (q[1, k] - a[1, j])**2 < d2``
    for points stacked as (2, count) coordinate arrays.

    Rows go in blocks of at most ``_STRAUSS_BLOCK_ELEMS`` floats per
    coordinate (one row when a row is longer) through the reused buffer:
    fresh temporaries cost more than the arithmetic, and blocks keep them in
    cache at large n.
    """
    cols = q.shape[1]
    step = max(1, _STRAUSS_BLOCK_ELEMS // cols)
    for lo in range(0, a.shape[1], step):
        hi = min(lo + step, a.shape[1])
        b = buf[: 2 * (hi - lo) * cols].reshape(2, hi - lo, cols)
        # rows copied first: numpy subtracts a per-row scalar from a
        # contiguous array faster than from a broadcast row
        b[...] = q[:, None]
        np.subtract(b, a[:, lo:hi, None], out=b)
        np.multiply(b, b, out=b)
        np.add(b[0], b[1], out=b[0])
        np.less(b[0], d2, out=out[lo:hi])


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

    The chain runs a sweep at a time and is bit-identical (points, accept
    decisions, RNG consumption and ``trace``) to counting each proposal
    against the current points:

    - Carried pair matrix. The n x n "squared distance < d**2" matrix O of
      the sweep-start points is kept from sweep to sweep. After a sweep only
      the rows and columns of the points that moved are patched, from the
      sweep's own block below.
    - Proposal-only distances. A sweep computes only the n x 2n block
      P = [X | N] of proposal i against every sweep-start point (X) and
      every proposal (N), as ``(x_k - cx_i)**2 + (y_k - cy_i)**2``. Squared
      differences are exactly symmetric, so these are the very values a
      per-proposal pass computes, whichever of the two points it subtracts.
    - One accept step. Proposal i sees each point k < i at its proposal if
      that was accepted and every other point at its sweep-start position,
      so its delta is ``base[i] + (D @ acc)[i]`` with ``base = rowsum(X - O)``
      and D the strict lower triangle of ``N - X - X.T + O``. Since row i of
      D reads only decisions before i, iterating
      ``acc = u < gamma**(base + D @ acc)`` fixes at least one more leading
      decision per round, so it reaches the sequential chain's decisions
      within n + 1 rounds (a few in practice) and stays there. The powers come
      from a table built with Python's ``**``, the per-proposal rule's own
      operation (``np.power`` rounds differently).
    - Block draws. The proposals of a block of sweeps come from one
      ``random`` call into a reused (sweeps, 3, n) buffer, as
      ``lo + (hi - lo) * r``: the same doubles and stream position as
      per-sweep ``uniform``/``random`` calls.
    - Decided sweeps. Without ``trace``, a sweep whose every u lies below
      every gamma**delta (delta = 1..n) accepts every proposal whatever the
      counts, so it is not counted; O is recomputed at the next counted
      sweep. This is every sweep at gamma=1.

    Memory is O(n**2), about 9 n**2 bytes (58 KB at n=80, 9 MB at n=1000):
    the boolean O and P, the float32 D and two int8 temporaries. The
    float64 buffers stay at most ``_STRAUSS_BLOCK_ELEMS`` elements (256 KB)
    per coordinate for the distance pass and ``_STRAUSS_DRAW_ELEMS`` (64 KB)
    for the draws while a row fits.

    ``trace``, when given, is filled with "initial_pairs", "final_pairs",
    and "proposals": one (sweep, index, delta, u, accepted) tuple per
    proposal, with Python int, float and bool values, so the accept rule can
    be audited against recomputed counts.

    Nothing checks that a gamma=0 chain reaches a hard-core pattern. With
    packing fraction eta = n*pi*(d/2)**2/|W|, and eta' the same over the
    window grown by d/2 a side ((80 + d)**2 for the default 80 x 80), no
    such pattern exists once eta' > pi/sqrt(12) ~ 0.9069 (Groemer 1960):
    n=80, d=13 has eta' = 1.23 and ends jammed. Near random sequential
    adsorption's jamming limit eta ~ 0.547 (Feder 1980) and above, 500
    sweeps leave close pairs (n=200, d=5: eta 0.61): trace["final_pairs"].
    """
    gen = rng.generator()
    n = p.n
    px = gen.uniform(w.xmin, w.xmax, n)
    py = gen.uniform(w.ymin, w.ymax, n)
    d2 = p.d * p.d
    if trace is not None:
        trace["initial_pairs"] = count_close_pairs(px, py, p.d)
        trace["proposals"] = []
    pts = np.stack((px, py))  # the current points, one row per coordinate
    m = 2 * n
    buf = np.empty(2 * min(n * m, max(_STRAUSS_BLOCK_ELEMS, m)))
    # proposal i is accepted iff u < thresh[delta]: gamma**delta for delta
    # in 1..n, +inf for delta = 0 and (wrapping to the tail) delta < 0
    powers = [p.gamma**k for k in range(1, n + 1)]
    thresh = np.array([math.inf] + powers + [math.inf] * n)
    u_floor = min(powers)
    pairs = np.empty((n, n), dtype=bool)  # O
    pairs_current = False  # False until computed and after a decided sweep
    prop = np.empty((n, m), dtype=bool)  # P = [X | N]
    prop_flat = prop.reshape(-1)
    lower = np.tri(n, k=-1, dtype=np.int8)
    ones = np.ones(n, dtype=np.float32)
    before = np.arange(n)
    after = before + n
    per_block = max(1, _STRAUSS_DRAW_ELEMS // (3 * n))
    draws = np.empty((min(per_block, p.burn_in_sweeps), 3, n))
    lo = np.array([[w.xmin], [w.ymin]])
    span = np.array([[w.xmax - w.xmin], [w.ymax - w.ymin]])
    for first in range(0, p.burn_in_sweeps, per_block):
        r = draws[: p.burn_in_sweeps - first]
        gen.random(out=r)
        cands = r[:, :2]  # lo + (hi - lo) * r, in place
        np.multiply(cands, span, out=cands)
        np.add(cands, lo, out=cands)
        uss = r[:, 2]
        decided = (uss.max(axis=1) < u_floor) & (trace is None)
        for sweep, cand, us, skip in zip(count(first), cands, uss, decided.tolist()):
            if skip:
                pts[...] = cand
                pairs_current = False
                continue
            if not pairs_current:
                _close_rows(pts, pts, d2, pairs, buf)
                pairs.flat[:: n + 1] = False
                pairs_current = True
            _close_rows(cand, np.concatenate((pts, cand), axis=1), d2, prop, buf)
            # a point is never its own neighbour: P[i, i] is proposal i
            # against its old position, P[i, n + i] against itself
            prop_flat[:: m + 1] = False
            prop_flat[n :: m + 1] = False
            xs = prop[:, :n].view(np.int8)
            diff = np.subtract(xs, pairs.view(np.int8))  # X - O
            base = diff @ ones  # float32
            dep = np.subtract(prop[:, n:].view(np.int8), xs.T)
            dep -= diff
            dep *= lower
            dep = dep.astype(np.float32)  # D, for a BLAS matrix-vector product
            acc = us < thresh[base.astype(np.intp)]
            while True:
                delta = (base + dep @ acc.astype(np.float32)).astype(np.intp)
                nxt = us < thresh[delta]
                if nxt.tobytes() == acc.tobytes():
                    break
                acc = nxt
            if trace is not None:
                trace["proposals"].extend(
                    zip(repeat(sweep), range(n), delta.tolist(), us.tolist(),
                        acc.tolist())
                )
            moved = acc.nonzero()[0]
            if len(moved):
                # a moved point's new row: P's row against the new points,
                # column n + k for a moved k and column k otherwise
                new_cols = np.where(acc, after, before)
                rows = prop.take(moved, axis=0).take(new_cols, axis=1)
                pairs[moved] = rows
                pairs[:, moved] = rows.T
                np.copyto(pts, cand, where=acc)
    px, py = pts
    if trace is not None:
        trace["final_pairs"] = count_close_pairs(px, py, p.d)
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

    ``trace``, when given, receives the parents' coordinate arrays as
    "parents" and each offspring's parent index as "assignment".
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
        trace["parents"] = (par_x, par_y)
        trace["assignment"] = [int(a) for a in assignment]
    return _finite(xs, ys)
