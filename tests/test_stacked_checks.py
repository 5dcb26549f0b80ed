"""The stacked split distance, zeta bracket and verify checks against the
one-tuple code they replaced (``tests/oracles.py``), row by row and bit for bit."""

import json
import math

import numpy as np
import pytest

from qvalued import verify
from qvalued.embed import zeta_dual_gap, zeta_dual_gap_many
from qvalued.qspace import QTuple, split_distance, split_distance_many
from qvalued.verify import CheckConfig, run_all

from oracles import check_poincare_reference, split_distance_reference, zeta_dual_gap_reference

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
