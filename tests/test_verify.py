import json
import math

import numpy as np
import pytest

from qvalued import ArgumentError, verify
from qvalued.qspace import MetricKind, dist_many
from qvalued.verify import (
    CheckConfig,
    CheckReport,
    _lipschitz_draws,
    _lipschitz_grids,
    check_metric_equivalence,
    check_poincare,
    check_splitting_lemma,
    check_sqrt_Q_bound,
    check_xi,
    check_zeta_bounds,
    run_all,
)

from oracles import lipschitz_grid_reference, lipschitz_grid_values_reference


@pytest.fixture(scope="module")
def small_cfg():
    return CheckConfig(seed=0, trials=40)


def test_config_validation():
    with pytest.raises(ValueError):
        CheckConfig(trials=0)
    with pytest.raises(ValueError):
        CheckConfig(Q_range=(3, 1))
    cfg = CheckConfig(tolerances={"equivalence": 1e-6})
    assert cfg.tolerances["equivalence"] == 1e-6
    assert cfg.tolerances["splitting"] == 1e-12  # defaults preserved


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"tolerances": {"sqrt_q": math.nan}},
    {"tolerances": {"xi_upper": math.inf}},
    {"tolerances": {"sqrtq": 1.0}},
    {"tolerances": {"symmetry": 1e-12}},
    {"tolerances": {"triangle": -1.0}},
])
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        CheckConfig(**kwargs)


@pytest.mark.parametrize("kwargs,named,what", [
    ({"m_range": (1, 12)}, ("m_range [1, 12]", "trials 200"), "window pairs"),
    ({"m_range": (1, 2**31 - 1)}, ("m_range",), "window pairs"),
    ({"m_range": (1, 3), "trials": 143}, ("m_range [1, 3]", "trials 143"), "window pairs"),
    ({"m_range": (4, 4), "trials": 3}, ("m_range [4, 4]",), "window pairs"),
    ({"Q_range": (1, 2**30)}, ("Q_range [1, 1073741824]",), "grid points"),
    ({"n_range": (1, 2**31 - 1), "trials": 1}, ("n_range",), "grid points"),
    ({"Q_range": (1, 60)}, ("Q_range [1, 60]", "n_range [1, 3]"), "point differences"),
])
def test_config_past_the_memory_bound_names_its_fields(kwargs, named, what):
    with pytest.raises(ValueError, match=what) as info:
        CheckConfig(**kwargs)
    assert all(name in str(info.value) for name in named)


@pytest.mark.parametrize("kwargs", [
    {"m_range": (1, 3), "trials": 142},  # 142 * 49**3 window pairs, just under 2**24
    {"m_range": (4, 4), "trials": 2},
    {"Q_range": (1, 52)},  # 2048 rows * 52 * 52 * 3 point differences
])
def test_config_at_the_memory_bound_is_accepted(kwargs):
    CheckConfig(**kwargs)  # built, never run


@pytest.mark.parametrize("text,name", [('{"Q_range": 3}', "Q_range"),
                                       ('{"trials": true}', "trials"),
                                       ('{"trails": 5}', "trails")])
def test_config_from_json_names_the_bad_field(text, name):
    with pytest.raises(ArgumentError, match=f"'{name}'") as info:
        CheckConfig.from_json(text)
    assert info.value.name == name


def test_config_json_round_trip():
    cfg = CheckConfig(seed=3, trials=17, Q_range=(2, 3))
    back = CheckConfig.from_json(cfg.to_json())
    assert back.seed == 3
    assert back.trials == 17
    assert back.Q_range == (2, 3)
    assert back.tolerances == cfg.tolerances


TOLERANCES_JSON = ('"tolerances": {"equivalence": 1e-09, "splitting": 1e-12, "xi_upper": 1e-09, '
                   '"xi_local": 1e-09, "xi_norm": 1e-12, "sqrt_q": %s, "poincare_c": 64.0, '
                   '"zeta": %s}')


def test_config_to_json_exact_text():
    # the text, not only its round trip: key order, lists for ranges, an int tolerance kept
    assert CheckConfig().to_json() == (
        '{"seed": 0, "trials": 200, "Q_range": [1, 4], "n_range": [1, 3], "m_range": [1, 2], '
        + TOLERANCES_JSON % ("1e-06", "1e-12") + "}")
    custom = CheckConfig(seed=5, trials=12, Q_range=[2, 3], n_range=(1, 2), m_range=[1, 1],
                         tolerances={"zeta": 1e-10, "sqrt_q": 2})
    assert custom.to_json() == (
        '{"seed": 5, "trials": 12, "Q_range": [2, 3], "n_range": [1, 2], "m_range": [1, 1], '
        + TOLERANCES_JSON % ("2", "1e-10") + "}")


def test_all_checks_pass(small_cfg):
    reports = run_all(small_cfg)
    assert len(reports) == 6
    for report in reports:
        assert report.failures == 0, (report.name, report.witnesses)
        assert report.failures <= report.trials
        assert math.isfinite(report.worst_ratio)


def test_determinism(small_cfg):
    a = [r.to_dict() for r in run_all(small_cfg)]
    b = [r.to_dict() for r in run_all(small_cfg)]
    assert a == b


def test_run_all_builds_each_frame_once_per_call(small_cfg, monkeypatch):
    from qvalued import embed

    built = []
    real = embed.build_frame

    def counted(*args, **kwargs):
        built.append((args, tuple(sorted(kwargs.items()))))
        return real(*args, **kwargs)

    monkeypatch.setattr(embed, "build_frame", counted)
    shared = [r.to_dict() for r in run_all(small_cfg)]
    assert built and len(built) == len(set(built))
    first = len(built)
    # the cache lives for one call: the next run builds its frames again
    run_all(small_cfg)
    assert len(built) == 2 * first
    # sharing the frames leaves the reports as the checks make them alone
    assert shared[2:4] == [check_xi(small_cfg).to_dict(),
                           check_sqrt_Q_bound(small_cfg).to_dict()]


def test_seed_changes_instances():
    r0 = check_zeta_bounds(CheckConfig(seed=0, trials=20))
    r1 = check_zeta_bounds(CheckConfig(seed=1, trials=20))
    assert r0.worst_ratio != r1.worst_ratio


def test_injected_bug_detected(small_cfg, monkeypatch):
    # negative control: a deliberately wrong metric must be caught
    def bad_dist_many(A, B, kind):
        value, perm = dist_many(A, B, kind)
        if kind is MetricKind.G1:
            value = value * 0.4  # breaks G2 <= G1
        return value, perm

    monkeypatch.setattr(verify, "dist_many", bad_dist_many)
    report = check_metric_equivalence(small_cfg)
    assert report.failures > 0
    assert report.witnesses


def test_report_witness_cap():
    report = CheckReport("x", 10, 0, 0.0)
    for i in range(8):
        report.record_failure(str(i))
    assert report.failures == 8
    assert len(report.witnesses) == 5


def test_sqrt_q_ratio_sharp():
    # f(x) = [[x, -x]] away from the collision: the embedded quotient is
    # sqrt(2) times the max-pairing quotient, attaining the sqrt(Q) factor
    import numpy as np
    from qvalued.embed import build_frame, xi
    from qvalued.qspace import QTuple, dist

    fr = build_frame(1, 2)
    h = 0.25
    for x in (1.0, 2.0, -3.0):
        u = QTuple([[x], [-x]])
        v = QTuple([[x + h], [-(x + h)]])
        quot = float(np.linalg.norm(xi(u, fr).coords - xi(v, fr).coords)) / h
        gi = dist(u, v, MetricKind.GINF)[0] / h
        assert quot == pytest.approx(math.sqrt(2) * gi, abs=1e-12)


def test_individual_ratios(small_cfg):
    eq = check_metric_equivalence(small_cfg)
    assert 0 < eq.worst_ratio <= 1 + 1e-9
    xi_rep = check_xi(small_cfg)
    assert 0 < xi_rep.worst_ratio <= 1 + 1e-9  # empirical alpha
    sq = check_sqrt_Q_bound(small_cfg)
    assert 0 < sq.worst_ratio <= 1 + 1e-9
    ze = check_zeta_bounds(small_cfg)
    assert 0 < ze.worst_ratio <= 1 + 1e-9
    sp = check_splitting_lemma(small_cfg)
    assert sp.worst_ratio <= 1e-12
    po = check_poincare(small_cfg)
    assert po.worst_ratio <= small_cfg.tolerances["poincare_c"]


def test_poincare_scores_no_node_against_itself(small_cfg, monkeypatch):
    # a node's G2 cost against itself is exactly 0, so the check writes 0
    # for those pairs instead of scoring them
    pairs = []
    real = verify._in_blocks

    def recorded(kernel, A, B, kind, left=None, right=None):
        pairs.append((left, right))
        return real(kernel, A, B, kind, left, right)

    monkeypatch.setattr(verify, "_in_blocks", recorded)
    check_poincare(small_cfg)
    assert pairs and all(left.size and (left != right).all() for left, right in pairs)


@pytest.mark.parametrize("Q", [4, 6])
def test_q_range_above_three_runs(Q):
    # the sqrt(Q) check caps Q at 3 only where the range reaches below it;
    # Q = 6 takes the kernel's per-row solvers
    reports = run_all(CheckConfig(Q_range=(Q, Q), trials=2))
    assert [r.failures for r in reports] == [0] * 6
    assert reports[3].trials > 0


def test_run_all_times_each_check(small_cfg):
    reports = run_all(small_cfg)
    assert all(r.seconds >= 0.0 for r in reports)
    assert all("seconds" not in r.to_dict() for r in reports)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("Q", [1, 3, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lipschitz_grid_matches_node_by_node(m, Q, n):
    seed = 100 * m + 10 * Q + n
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    values = _lipschitz_grids(*(a[None] for a in _lipschitz_draws(rng, m, Q, n)), N=7)
    reference = lipschitz_grid_values_reference(ref_rng, m, Q, n, N=7)
    assert np.array_equal(values[0], reference.reshape(-1, Q, n))
    # both drew the same numbers, so later checks see the same stream
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_lipschitz_grids_match_one_map_at_a_time(m):
    # five maps of one shape, drawn in turn, evaluated as one stack
    rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
    draws = [_lipschitz_draws(rng, m, 3, 2) for _ in range(5)]
    stacked = _lipschitz_grids(*(np.array(field) for field in zip(*draws)), N=7)
    for values in stacked:
        assert np.array_equal(values, lipschitz_grid_reference(ref_rng, m, 3, 2, N=7))
