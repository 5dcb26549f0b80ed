"""The stacked split distance, zeta bracket and verify checks against the
one-tuple code they replaced (``tests/oracles.py``), row by row and bit for bit."""

import json
import math
import re

import numpy as np
import pytest

from qvalued import embed, verify
from qvalued.embed import zeta_dual_gap, zeta_dual_gap_many
from qvalued.qspace import QTuple, split_distance, split_distance_many
from qvalued.verify import CheckConfig, run_all

from oracles import (check_poincare_reference, split_distance_reference, zeta_anchors_reference,
                     zeta_dual_gap_reference)

# the stacked code divides by each pair's largest gap, which may be zero
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = 5e-324  # the smallest subnormal


def special_stacks():
    """(E, Q, n) stacks of the edge cases, one stack per shape."""
    yield np.array([[[0.0]]])  # Q = 1
    yield np.array([[[1.0], [1.0], [1.0]], [[0.0], [-0.0], [0.0]], [[-0.0], [2.0], [0.0]]])
    yield np.array([[[0.0, -0.0], [-0.0, 0.0]], [[0.0, 1.0], [-0.0, 1.0]],
                    [[1.0, 2.0], [1.0, 2.0]], [[3.0, -0.0], [3.0, 0.0]]])
    # exact duplicates beside distinct points, in several orders
    yield np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [5.0, 0.0]],
                    [[5.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
                    [[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]]])
    # subnormal and tiny gaps, which underflow if squared before scaling
    yield np.array([[[0.0, 0.0], [TINY, 0.0], [0.0, TINY]],
                    [[1e-300, 0.0], [0.0, 1e-300], [0.0, 0.0]],
                    [[1e-160, 3e-161], [0.0, 0.0], [1.0, 1.0]],
                    [[TINY, TINY], [-TINY, -TINY], [4 * TINY, 0.0]]])
    # mixed magnitudes over many coordinates
    yield np.array([[[1e150, -1e-300, 3.0, 0.5, 7.0, -2.0, 1.0, 0.0, 9.0],
                     [1e150, 1e-300, 3.0, 0.5, 7.0, -2.0, 1.0, -0.0, 9.0]]])


def random_stacks(seed):
    rng = np.random.default_rng(seed)
    for Q in (1, 2, 3, 5, 9):
        for n in (1, 2, 3, 7, 10):
            X = rng.uniform(-1.0, 1.0, size=(6, Q, n))
            # snap some rows to a coarse lattice, so points coincide
            X[::2] = np.round(X[::2] * 2.0) / 2.0
            yield X


def all_stacks():
    yield from special_stacks()
    yield from random_stacks(0)


@pytest.mark.parametrize("X", list(all_stacks()), ids=lambda X: "x".join(map(str, X.shape)))
def test_split_distance_many_rows_equal_the_reference(X):
    got = split_distance_many(X)
    want = np.array([split_distance_reference(x) for x in X])
    assert np.array_equal(got, want)
    assert [split_distance(QTuple(x)) for x in X] == want.tolist()


def test_split_distance_many_of_coincident_points_is_inf():
    X = np.array([[[1.0, -0.0], [1.0, 0.0], [1.0, 0.0]]])
    assert split_distance_many(X).tolist() == [math.inf]
    assert split_distance_many(np.zeros((4, 1, 3))).tolist() == [math.inf] * 4
    assert split_distance_many(np.array([[[0.0], [TINY]]])).tolist() == [TINY]


@pytest.mark.parametrize("X", list(all_stacks()), ids=lambda X: "x".join(map(str, X.shape)))
def test_zeta_dual_gap_many_rows_equal_the_reference(X):
    Y = np.roll(X, 1, axis=0)[:, ::-1] * 0.5
    seeds = [7 * e + 1 for e in range(len(X))]
    lower, upper = zeta_dual_gap_many(X, Y, seeds, dictionary_size=16)
    for e in range(len(X)):
        want = zeta_dual_gap_reference(X[e], Y[e], dictionary_size=16, seed=seeds[e])
        assert (lower[e], upper[e]) == want
        assert zeta_dual_gap(QTuple(X[e]), QTuple(Y[e]), 16, seed=seeds[e]) == want


def zeta_rows(rng, E: int, Q: int, n: int):
    """E pairs of (Q, n) tuples: a quarter with every point equal (a zero
    span), a quarter with spans near 1e150, the rest at scales 1e-3 to 1e3."""
    V = rng.uniform(-1.0, 1.0, (E, Q, n)) * 10.0 ** rng.uniform(-3, 3, (E, 1, 1))
    W = rng.uniform(-1.0, 1.0, (E, Q, n)) * 10.0 ** rng.uniform(-3, 3, (E, 1, 1))
    flat, huge = slice(0, E // 4), slice(E // 4, E // 2)
    V[flat] = W[flat] = rng.uniform(-5.0, 5.0, (E // 4, 1, n))
    V[huge] *= 1e150 / np.abs(V[huge]).max(axis=(1, 2), keepdims=True)
    W[huge] *= 1e150 / np.abs(W[huge]).max(axis=(1, 2), keepdims=True)
    return V, W


@pytest.mark.parametrize("Q,n", [(1, 1), (1, 3), (2, 2), (3, 1), (4, 3)])
def test_zeta_anchors_and_bounds_equal_per_row_uniform(Q, n):
    # one stacked low + (high - low) * random() against one Generator.uniform
    # call per row: 5 shapes x 4,000 seeds, zero spans and spans near 1e150
    rng = np.random.default_rng(100 * Q + n)
    E = 4000
    V, W = zeta_rows(rng, E, Q, n)
    seeds = rng.integers(0, 2**63, E).tolist()
    seeds[:8] = list(range(8))
    anchors = embed._zeta_anchors(V, W, seeds, 64)
    for e in range(E):
        assert np.array_equal(anchors[e], zeta_anchors_reference(V[e], W[e], 64, seeds[e]))
    for block in range(0, E, 1000):  # (rows, anchors, Q, n) differences, under 8 MB
        rows = slice(block, block + 1000)
        lower, upper = zeta_dual_gap_many(V[rows], W[rows], seeds[rows])
        for e, pair in enumerate(zip(lower, upper), start=block):
            assert pair == zeta_dual_gap_reference(V[e], W[e], 64, seeds[e])


@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_zeta_dual_gap_past_float64_names_the_tuples(scale):
    # at 1e300 the G1 bound overflows, at 1e308 the anchor box itself
    v, w = QTuple([[scale], [-scale]]), QTuple([[0.0], [scale]])
    with pytest.raises(ValueError, match=r"tuples \[\[.*\]\] and \[\[0\.0\], .*overflow float64"):
        zeta_dual_gap(v, w)
    V, W = np.array([[[0.0], [1.0]], [[scale], [-scale]]]), np.array([[[1.0], [2.0]], [[0.0], [scale]]])
    with pytest.raises(ValueError, match=re.escape(f"tuples [[{scale}], [{-scale}]] and [[0.0], [{scale}]]")):
        zeta_dual_gap_many(V, W, [1, 2])


def test_zeta_dual_gap_of_equal_tuples_is_zero():
    X = np.array([[[0.0, 1.0], [-0.0, 1.0]], [[2.0, 2.0], [2.0, 2.0]]])
    lower, upper = zeta_dual_gap_many(X, X.copy(), [0, 1])
    assert lower.tolist() == [0.0, 0.0] and upper.tolist() == [0.0, 0.0]


def test_zeta_dual_gap_takes_no_basepoint():
    v, w = QTuple([[0.0], [1.0]]), QTuple([[0.5], [2.0]])
    with pytest.raises(TypeError):
        zeta_dual_gap(v, w, 64, np.zeros(1))


NEGATIVE = {"equivalence": -0.001, "splitting": -1e-12, "sqrt_q": -0.001,
            "poincare_c": 0.05, "zeta": -0.001}


@pytest.mark.parametrize("cfg", [
    CheckConfig(seed=4, trials=25),
    CheckConfig(seed=5, trials=25, Q_range=(1, 5), m_range=(1, 2), tolerances=NEGATIVE),
], ids=["default", "failing"])
def test_run_all_report_does_not_depend_on_the_block_sizes(cfg, monkeypatch):
    whole = [r.to_dict() for r in run_all(cfg)]
    # fewer kernel rows than one Poincare window's (node, candidate) pairs,
    # and one trial per embedding block
    monkeypatch.setattr(verify, "_KERNEL_ROWS", 5)
    monkeypatch.setattr(verify, "_EMBED_ENTRIES", 1)
    split = [r.to_dict() for r in run_all(cfg)]
    assert json.dumps(split) == json.dumps(whole)
    assert any(r["witnesses"] for r in whole) == (cfg.seed == 5)


@pytest.mark.parametrize("cfg", [
    CheckConfig(),
    CheckConfig(seed=3, trials=40, m_range=(1, 3)),
    CheckConfig(seed=4, trials=8, Q_range=(5, 6)),
    CheckConfig(seed=6, trials=1),
    CheckConfig(seed=5, trials=60, Q_range=(1, 5), tolerances=NEGATIVE),
], ids=["default", "m1-3", "q5-6", "one-trial", "failing"])
def test_poincare_report_equals_the_per_trial_reference(cfg):
    # window pairs shifted from one template per (m, width) and grids
    # evaluated per shape, against per-trial masks and grids
    got = verify.check_poincare(cfg).to_dict()
    assert json.dumps(got) == json.dumps(check_poincare_reference(cfg).to_dict())
