import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracle import seed_sequence, seed_sequence_generator
from obstaclesim import pointproc
from obstaclesim.geometry import GeometricGraph
from obstaclesim.montecarlo import DEFAULT_INSERTION, StraussPlacement
from obstaclesim.pointproc import (
    MaternParams,
    RngStream,
    StraussParams,
    Window,
    _finite,
    count_close_pairs,
    sample_matern,
    sample_strauss,
    sample_uniform,
    stream_keys,
)

INSERTION = Window(10.0, 90.0, 10.0, 90.0)


def _assert_same(a, b):
    """Two placements are the same float64 coordinate arrays, exactly."""
    assert len(a) == len(b) == 2
    for u, v in zip(a, b):
        assert u.dtype == v.dtype == np.float64
        assert np.array_equal(u, v)


def _strauss_oracle(p, w, rng, trace=None, states=None):
    """The per-proposal Strauss chain: each proposal counts its close pairs
    against the current points with its own numpy pass. sample_strauss must
    match it bit for bit. Returns the coordinate arrays; ``states``, when
    given, receives a copy of them after every sweep."""
    gen = rng.generator()
    n = p.n
    px = gen.uniform(w.xmin, w.xmax, n)
    py = gen.uniform(w.ymin, w.ymax, n)
    d2 = p.d * p.d
    gamma = p.gamma
    if trace is not None:
        trace["initial_pairs"] = count_close_pairs(px, py, p.d)
        trace["proposals"] = []
    for sweep in range(p.burn_in_sweeps):
        cx = gen.uniform(w.xmin, w.xmax, n)
        cy = gen.uniform(w.ymin, w.ymax, n)
        us = gen.random(n)
        for i in range(n):
            ox, oy = px[i], py[i]
            ddx = px - ox
            ddy = py - oy
            old_d2 = ddx * ddx + ddy * ddy
            old_d2[i] = np.inf
            ddx = px - cx[i]
            ddy = py - cy[i]
            new_d2 = ddx * ddx + ddy * ddy
            new_d2[i] = np.inf
            delta = int(np.count_nonzero(new_d2 < d2)) - int(
                np.count_nonzero(old_d2 < d2)
            )
            if delta <= 0:
                accepted = True
            else:
                accepted = bool(us[i] < gamma**delta)
            if accepted:
                px[i] = cx[i]
                py[i] = cy[i]
            if trace is not None:
                trace["proposals"].append((sweep, i, delta, float(us[i]), accepted))
        if states is not None:
            states.append((px.copy(), py.copy()))
    if trace is not None:
        trace["final_pairs"] = count_close_pairs(px, py, p.d)
    return px, py


def _assert_matches_oracle(p, w, rng):
    """sample_strauss equals the oracle, with a trace (points, and per
    proposal its delta, its u and its decision) and without one (points).
    Returns the oracle's trace."""
    want, got = {}, {}
    expected = _strauss_oracle(p, w, rng, want)
    _assert_same(sample_strauss(p, w, rng, got), expected)
    assert got == want
    _assert_same(sample_strauss(p, w, rng), expected)
    return want


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Window(0, 1, 2, 1)


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(12345, 7).generator().random(8)
    b = RngStream(12345, 7).generator().random(8)
    c = RngStream(12345, 8).generator().random(8)
    d = RngStream(12346, 7).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# seeds on both sides of 0, 2**32 and 2**64 (the seed is taken mod 2**64);
# indices of one and two 32-bit words, the edges of each included
_SEEDS = st.one_of(
    st.integers(-(2**80), -1),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**80),
)
_EDGE_INDICES = [0, 2**32 - 1, 2**32, 2**64 - 1]
_INDICES = st.one_of(
    st.sampled_from(_EDGE_INDICES), st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)
)


def _assert_same_state(a, b):
    """Two ``bit_generator.state`` dicts are equal, arrays element for element."""
    assert a.keys() == b.keys()
    for k in a:
        if isinstance(a[k], dict):
            _assert_same_state(a[k], b[k])
        else:
            assert np.array_equal(a[k], b[k]), k


def _draws(gen):
    return (
        gen.random(5),
        gen.standard_gamma(2.5, size=7),
        gen.permutation(40),
        gen.integers(0, 9, size=11),
    )


class TestStreamKeys:
    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=_SEEDS, indices=st.lists(_INDICES, max_size=6))
    def test_keys_are_the_seed_sequence_keys(self, seed, indices):
        keys = stream_keys(seed, indices)
        assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
        for key, i in zip(keys, indices):
            assert np.array_equal(key, seed_sequence(seed, i).generate_state(2, np.uint64))

    def test_no_indices(self):
        keys = stream_keys(7, [])
        assert keys.dtype == np.uint64 and keys.shape == (0, 2)

    @pytest.mark.parametrize("seed", [0, -1, 2**32 + 5, 2**64 - 1, 2**64 + 5])
    def test_batch_keys_are_the_single_keys(self, seed):
        # one- and two-word indices in one batch
        indices = _EDGE_INDICES + [1, 12345, 2**40 + 3, 2**63]
        keys = stream_keys(seed, indices)
        for key, i in zip(keys, indices):
            (single,) = stream_keys(seed, [i])
            assert np.array_equal(key, single)
            assert np.array_equal(key, seed_sequence(seed, i).generate_state(2, np.uint64))


class TestRngStream:
    @pytest.mark.parametrize(
        "seed, index",
        [(0, 0), (12345, 7), (-1, 2**32), (2**32, 2**32 - 1), (2**64 + 5, 2**64 - 1)],
    )
    def test_generator_is_the_seed_sequence_generator(self, seed, index):
        (key,) = stream_keys(seed, [index])
        for stream in (RngStream(seed, index), RngStream(seed, index, key)):
            got, want = stream.generator(), seed_sequence_generator(seed, index)
            _assert_same_state(got.bit_generator.state, want.bit_generator.state)
            for a, b in zip(_draws(got), _draws(want)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            _assert_same_state(got.bit_generator.state, want.bit_generator.state)

    def test_carried_key_is_not_part_of_equality_hash_or_repr(self):
        plain = RngStream(5, 3)
        keyed = RngStream(5, 3, stream_keys(5, [3])[0])
        other = RngStream(5, 3, np.zeros(2, dtype=np.uint64))
        assert plain == keyed == other
        assert hash(plain) == hash(keyed) == hash(other)
        assert repr(plain) == repr(keyed) == "RngStream(master_seed=5, stream_index=3)"

    @pytest.mark.parametrize(
        "seed, index, want",
        [(np.int64(5), 3, (5, 3)), (np.int64(-5), np.uint64(2**64 - 1), (-5, 2**64 - 1)),
         (np.uint32(7), np.int32(0), (7, 0))],
    )
    def test_numpy_integers_give_the_stream_of_the_equal_int(self, seed, index, want):
        stream = RngStream(seed, index)
        assert (stream.master_seed, stream.stream_index) == want
        assert all(type(v) is int for v in (stream.master_seed, stream.stream_index))
        assert stream == RngStream(*want)
        a, b = stream.generator().random(4), RngStream(*want).generator().random(4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, index, exc, match",
        [
            (5.0, 3, TypeError, "master_seed must be an integer, got 5.0"),
            ("5", 3, TypeError, "master_seed must be an integer"),
            (5, 3.0, TypeError, "stream_index must be an integer, got 3.0"),
            (5, -1, ValueError, r"stream_index must be in \[0, 2\*\*64\), got -1"),
            (5, 2**64, ValueError, r"stream_index must be in \[0, 2\*\*64\)"),
        ],
    )
    def test_bad_fields_rejected(self, seed, index, exc, match):
        with pytest.raises(exc, match=match):
            RngStream(seed, index)


class TestSampleUniform:
    def test_zero_points(self):
        _assert_same(sample_uniform(0, INSERTION, RngStream(0)), (np.empty(0), np.empty(0)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sample_uniform(-1, INSERTION, RngStream(0))

    def test_support(self):
        xs, ys = sample_uniform(100, INSERTION, RngStream(5))
        assert xs.shape == ys.shape == (100,)
        for x, y in zip(xs, ys):
            assert 10 <= x <= 90 and 10 <= y <= 90

    def test_mean_clt_bound(self):
        xs, _ = sample_uniform(100_000, INSERTION, RngStream(9))
        assert abs(xs.mean() - 50.0) < 0.3

    def test_reproducible(self):
        p1 = sample_uniform(50, INSERTION, RngStream(3, 2))
        p2 = sample_uniform(50, INSERTION, RngStream(3, 2))
        _assert_same(p1, p2)


def test_non_finite_coordinates_rejected_as_the_graph_does():
    xs = np.array([1.0, 2.0, 3.0])
    ys = np.array([1.0, math.inf, math.nan])
    with pytest.raises(ValueError) as point_err:
        GeometricGraph([2.0], [math.inf], [], [], [])
    with pytest.raises(ValueError) as coords_err:
        _finite(xs, ys)
    assert str(coords_err.value) == str(point_err.value)
    _assert_same(_finite(xs, xs), (xs, xs))


class TestCountClosePairs:
    def test_example_three_points(self):
        assert count_close_pairs(np.array([0.0, 1.0, 3.0]), np.zeros(3), 1.5) == 1

    def test_single_point(self):
        assert count_close_pairs(np.array([2.0]), np.array([2.0]), 1.0) == 0

    def test_coincident_points(self):
        for k in (2, 3, 5):
            assert count_close_pairs(np.ones(k), np.ones(k), 0.5) == k * (k - 1) // 2

    def test_strictly_less_than(self):
        xs, ys = np.array([0.0, 1.0]), np.zeros(2)
        assert count_close_pairs(xs, ys, 1.0) == 0
        assert count_close_pairs(xs, ys, 1.0 + 1e-12) == 1

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            count_close_pairs(np.empty(0), np.empty(0), 0.0)


class TestSampleStrauss:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            StraussParams(n=0, d=7, gamma=0.5)
        with pytest.raises(ValueError):
            StraussParams(n=5, d=0, gamma=0.5)
        with pytest.raises(ValueError):
            StraussParams(n=5, d=7, gamma=1.5)
        with pytest.raises(ValueError):
            StraussParams(n=5, d=7, gamma=0.5, burn_in_sweeps=-1)

    def test_gamma_one_accepts_everything(self):
        trace = {}
        sample_strauss(
            StraussParams(n=12, d=7, gamma=1.0, burn_in_sweeps=10),
            INSERTION,
            RngStream(2),
            trace=trace,
        )
        assert trace["proposals"]
        assert all(acc for _, _, _, _, acc in trace["proposals"])

    def test_gamma_zero_reaches_hard_core(self):
        # 10 points at spacing 7 in an 80x80 window pack easily
        for seed in (0, 1, 2):
            pts = sample_strauss(
                StraussParams(n=10, d=7.0, gamma=0.0, burn_in_sweeps=500),
                INSERTION,
                RngStream(seed),
            )
            assert count_close_pairs(*pts, 7.0) == 0

    @pytest.mark.parametrize("n, d", [(80, 7.0), (120, 5.5), (160, 4.8), (200, 4.3)])
    def test_headline_grid_cells_reach_hard_core(self, n, d):
        # the gamma = 0 cells of the headline grid (packing fraction 0.45-0.48)
        # end hard-core at the default burn_in, so they sample the process
        # they name rather than a jammed pattern
        placement = StraussPlacement(0.0, d)
        for seed in (0, 1, 2):
            xs, ys = placement.sample(n, DEFAULT_INSERTION, RngStream(seed))
            assert xs.size == n
            assert count_close_pairs(xs, ys, d) == 0

    def test_accept_rule_audit(self):
        # recompute the pair count from the audited deltas; gamma=0 moves
        # must never increase it, others only when u < gamma**delta
        trace = {}
        pts = sample_strauss(
            StraussParams(n=15, d=9.0, gamma=0.3, burn_in_sweeps=20),
            INSERTION,
            RngStream(4),
            trace=trace,
        )
        running = trace["initial_pairs"]
        for _, _, delta, u, accepted in trace["proposals"]:
            assert type(delta) is int and type(u) is float
            assert type(accepted) is bool
            assert accepted == (delta <= 0 or u < 0.3**delta)
            if accepted:
                running += delta
        assert running == trace["final_pairs"]
        assert trace["final_pairs"] == count_close_pairs(*pts, 9.0)

    def test_gamma_zero_accepts_iff_nonincreasing(self):
        trace = {}
        sample_strauss(
            StraussParams(n=20, d=10.0, gamma=0.0, burn_in_sweeps=10),
            INSERTION,
            RngStream(6),
            trace=trace,
        )
        for _, _, delta, _, accepted in trace["proposals"]:
            assert accepted == (delta <= 0)

    def test_mean_pairs_decrease_with_inhibition(self):
        params = dict(n=50, d=7.0, burn_in_sweeps=50)
        means = []
        for gamma in (1.0, 0.5, 0.0):
            counts = [
                count_close_pairs(
                    *sample_strauss(
                        StraussParams(gamma=gamma, **params),
                        INSERTION,
                        RngStream(100 + rep),
                    ),
                    7.0,
                )
                for rep in range(200)
            ]
            means.append(float(np.mean(counts)))
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("d", [2.0, 7.0, 13.0, 200.0])
    def test_matches_per_proposal_oracle(self, gamma, d):
        # d=200 exceeds the window diagonal, so every pair is close; n=130
        # splits the proposal pass into row blocks, the last one partial
        for n, burn_in, seeds in ((1, 40, (0,)), (2, 40, (1, 2)), (7, 40, (3, 4)),
                                  (80, 0, (5,)), (80, 1, (6,)), (80, 40, (7, 8)),
                                  (130, 5, (9,))):
            p = StraussParams(n=n, d=d, gamma=gamma, burn_in_sweeps=burn_in)
            for seed in seeds:
                _assert_matches_oracle(p, INSERTION, RngStream(seed, 1))

    @pytest.mark.parametrize(
        "draw_elems", [None, 7], ids=["draws-default", "draws-per-sweep"]
    )
    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.99])
    def test_decided_and_counted_sweeps_alternate(self, gamma, draw_elems, monkeypatch):
        # with n <= 4, some sweeps have every u below gamma**n (decided:
        # every proposal accepted, nothing counted) and some do not. A
        # decided sweep moves every point and so hides what a counted sweep
        # before it did: the points are compared after every sweep. With 7
        # draw elements a block of draws holds one or two sweeps, so the
        # draws buffer is refilled between most sweeps.
        if draw_elems is not None:
            monkeypatch.setattr(pointproc, "_STRAUSS_DRAW_ELEMS", draw_elems)
        kinds = set()
        for n in (1, 2, 3, 4):
            for seed in range(3):
                p = StraussParams(n=n, d=30.0, gamma=gamma, burn_in_sweeps=60)
                rng = RngStream(seed, 2)
                want, states = {}, []
                _strauss_oracle(p, INSERTION, rng, want, states)
                for sweep, expected in enumerate(states):
                    q = replace(p, burn_in_sweeps=sweep + 1)
                    _assert_same(sample_strauss(q, INSERTION, rng), expected)
                _assert_matches_oracle(p, INSERTION, rng)
                us = [u for _, _, _, u, _ in want["proposals"]]
                kinds |= {
                    all(u < gamma**n for u in us[s : s + n])
                    for s in range(0, len(us), n)
                }
        assert kinds == {True, False}

    @pytest.mark.parametrize("burn_in", [0, 1, 30])
    def test_gamma_one_with_and_without_trace(self, burn_in):
        for n in (1, 5, 80):
            p = StraussParams(n=n, d=7.0, gamma=1.0, burn_in_sweeps=burn_in)
            want = _assert_matches_oracle(p, INSERTION, RngStream(11, n))
            assert all(acc for _, _, _, _, acc in want["proposals"])

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_matches_oracle_on_negative_window(self, gamma):
        w = Window(-73.5, -12.25, -40.0, 8.5)
        for n, burn_in in ((3, 30), (40, 20)):
            p = StraussParams(n=n, d=6.0, gamma=gamma, burn_in_sweeps=burn_in)
            _assert_matches_oracle(p, w, RngStream(12, n))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_matches_oracle_at_large_n(self, gamma):
        # n=600: the proposal pass runs in row blocks of 27 proposals
        for n, burn_in in ((200, 3), (600, 2)):
            p = StraussParams(n=n, d=7.0, gamma=gamma, burn_in_sweeps=burn_in)
            _assert_matches_oracle(p, INSERTION, RngStream(13, n))

    def test_support_and_reproducibility(self):
        p = StraussParams(n=25, d=5.0, gamma=0.2, burn_in_sweeps=30)
        a = sample_strauss(p, INSERTION, RngStream(8, 3))
        b = sample_strauss(p, INSERTION, RngStream(8, 3))
        _assert_same(a, b)
        for x, y in zip(*a):
            assert INSERTION.contains(x, y)


class TestSampleMatern:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            MaternParams(kappa=0, r0=1, n=5)
        with pytest.raises(ValueError):
            MaternParams(kappa=2, r0=0, n=5)
        with pytest.raises(ValueError):
            MaternParams(kappa=6, r0=1, n=5)  # kappa > n

    def test_degenerate_cluster(self):
        pts = sample_matern(
            MaternParams(kappa=1, r0=0.001, n=20), INSERTION, RngStream(1)
        )
        assert pts[0].shape == pts[1].shape == (20,)
        xy = np.column_stack(pts)
        diffs = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
        assert diffs.max() <= 0.002

    def test_offspring_within_r0_of_parents(self):
        trace = {}
        pts = sample_matern(
            MaternParams(kappa=2, r0=15.0, n=20), INSERTION, RngStream(2), trace=trace
        )
        parents = np.column_stack(trace["parents"])
        assert parents.shape == (2, 2)
        for x, y in zip(*pts):
            dists = np.linalg.norm(parents - np.array([x, y]), axis=1)
            assert dists.min() <= 15.0 + 1e-9

    def test_assignment_counts_sum_to_n(self):
        trace = {}
        sample_matern(
            MaternParams(kappa=5, r0=4.0, n=37), INSERTION, RngStream(3), trace=trace
        )
        assert len(trace["assignment"]) == 37
        assert all(0 <= a < 5 for a in trace["assignment"])

    def test_points_stay_in_window(self):
        pts = sample_matern(
            MaternParams(kappa=3, r0=30.0, n=60), INSERTION, RngStream(4)
        )
        for x, y in zip(*pts):
            assert INSERTION.contains(x, y)

    def test_reproducible(self):
        p = MaternParams(kappa=4, r0=6.0, n=30)
        _assert_same(
            sample_matern(p, INSERTION, RngStream(5, 1)),
            sample_matern(p, INSERTION, RngStream(5, 1)),
        )

    def test_huge_r0_near_uniform(self):
        # with r0 >= the window diagonal, mean nearest-neighbor distance
        # lands within 10% of the uniform baseline
        def mean_nn(sampler):
            vals = []
            for rep in range(200):
                xy = np.column_stack(sampler(rep))
                d = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                vals.append(d.min(axis=1).mean())
            return float(np.mean(vals))

        diagonal = math.hypot(INSERTION.xmax - INSERTION.xmin, INSERTION.ymax - INSERTION.ymin)
        big = diagonal * 1.05
        matern_nn = mean_nn(
            lambda rep: sample_matern(
                MaternParams(kappa=2, r0=big, n=20), INSERTION, RngStream(900 + rep)
            )
        )
        unif_nn = mean_nn(
            lambda rep: sample_uniform(20, INSERTION, RngStream(900 + rep))
        )
        assert abs(matern_nn - unif_nn) / unif_nn < 0.10
