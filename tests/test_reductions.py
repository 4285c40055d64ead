import math
import random

import numpy as np
import pytest

from zorro.errors import (
    BoundExceeded,
    CapExceeded,
    EmptyDataset,
    IllegalBallot,
    NegativeCount,
    ShapeMismatch,
    SingularGram,
    ZeroClassCount,
)
from zorro.reductions import (
    RegressionTensors,
    cf_gradient,
    cf_gradient_step,
    compute_entropy,
    compute_gain,
    decode_counts,
    encode_ballot,
    encode_cf_gradient,
    encode_counts,
    encode_regression,
    nb_parameters,
    solve_beta,
)


def aggregate(vectors):
    return [sum(col) for col in zip(*vectors)]


# -- voting ------------------------------------------------------------------


def test_ballot_legal():
    vec, policy = encode_ballot([3, 0, 0], B=4)
    assert vec == [3, 0, 0]
    assert policy.kind == "l1" and policy.B == 3


def test_ballot_illegal():
    with pytest.raises(IllegalBallot):
        encode_ballot([2, 2, 0], B=4)
    with pytest.raises(IllegalBallot):
        encode_ballot([-1, 0], B=4)


def test_ballot_abstention():
    vec, _ = encode_ballot([0, 0, 0], B=4)
    assert vec == [0, 0, 0]


def test_vote_tally_roundtrip():
    ballots = [[3, 0], [1, 2], [0, 1]]
    vectors = [encode_ballot(b, B=4)[0] for b in ballots]
    assert aggregate(vectors) == [4, 3]


# -- count matrices ------------------------------------------------------------


def test_counts_roundtrip():
    m1, m2 = [[1, 0], [2, 1]], [[0, 3], [1, 0]]
    v1, policy = encode_counts(m1, cap=10)
    v2, _ = encode_counts(m2, cap=10)
    assert policy.kind == "l1"
    tallied = decode_counts(aggregate([v1, v2]), (2, 2))
    assert tallied.tolist() == [[1, 3], [3, 1]]


def test_counts_neutral_zero_user():
    v, _ = encode_counts([[0, 0], [0, 0]], cap=5)
    assert sum(v) == 0


def test_counts_errors():
    with pytest.raises(NegativeCount):
        encode_counts([[1, -1]], cap=10)
    with pytest.raises(CapExceeded):
        encode_counts([[6, 6]], cap=10)


def test_id3_split_recomposes_label_vector():
    # users transmit (p, q); c = p + q is reconstructed after tallying
    ps = [[1, 2, 0], [0, 1, 1]]
    qs = [[2, 0, 1], [1, 1, 0]]
    vectors = [encode_counts([p, q], cap=20)[0] for p, q in zip(ps, qs)]
    split = decode_counts(aggregate(vectors), (2, 3))
    c = split.sum(axis=0)
    assert c.tolist() == [4, 4, 2]


# -- entropy and gain ------------------------------------------------------------


def test_entropy_uniform_binary():
    assert compute_entropy([5, 5]) == 1.0


def test_entropy_pure():
    assert compute_entropy([10, 0]) == 0.0


def test_entropy_empty():
    with pytest.raises(EmptyDataset):
        compute_entropy([0, 0])


def test_gain_known_value():
    gain = compute_gain([4, 4], [[3, 1], [1, 3]])
    expected = 1.0 - 0.5 * compute_entropy([3, 1]) - 0.5 * compute_entropy([1, 3])
    assert math.isclose(gain, expected)
    assert math.isclose(gain, 0.18872187554086717)


def test_gain_validates_partition():
    with pytest.raises(ValueError):
        compute_gain([4, 4], [[3, 1], [1, 2]])
    with pytest.raises(ShapeMismatch):
        compute_gain([4, 4], [[3, 1, 0]])


def test_gain_nonnegative_randomized():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randrange(2, 5)
        p = [rng.randrange(6) for _ in range(k)]
        q = [rng.randrange(6) for _ in range(k)]
        c = [a + b for a, b in zip(p, q)]
        if sum(c) == 0:
            continue
        assert compute_gain(c, [p, q]) >= -1e-12


# -- naive Bayes --------------------------------------------------------------------


def test_nb_single_label():
    priors, conds = nb_parameters([7], [[[4], [3]]])
    assert priors.tolist() == [1.0]
    assert conds[0][:, 0].sum() == pytest.approx(1.0)


def test_nb_matches_centralized_fit():
    rng = np.random.default_rng(1)
    # three users with raw labeled samples; feature x in {0,1,2}, label y in {0,1}
    users = [rng.integers(0, [3, 2], size=(rng.integers(5, 15), 2)) for _ in range(3)]
    tables = []
    for data in users:
        table = np.zeros((3, 2), dtype=int)
        for x, y in data:
            table[x, y] += 1
        tables.append(table)
    vectors = [encode_counts(t, cap=100)[0] for t in tables]
    tallied = decode_counts(aggregate(vectors), (3, 2))
    labels = tallied.sum(axis=0)
    priors, conds = nb_parameters(labels, [tallied])

    pooled = np.vstack(users)
    for l in (0, 1):
        subset = pooled[pooled[:, 1] == l]
        assert priors[l] == pytest.approx(len(subset) / len(pooled))
        for v in (0, 1, 2):
            assert conds[0][v, l] == pytest.approx(np.mean(subset[:, 0] == v))


def test_nb_zero_class_and_smoothing():
    with pytest.raises(ZeroClassCount, match="^class 1 has zero samples$"):
        nb_parameters([5, 0, 2], [[[3, 0, 1], [2, 0, 1]]])
    # no smoothing: a feature value a class never shows keeps probability 0
    priors, conds = nb_parameters([5, 2], [[[5, 0], [0, 2]]])
    assert conds[0][1, 0] == 0 and conds[0][0, 1] == 0
    assert conds[0][:, 0].sum() == conds[0][:, 1].sum() == 1


def test_nb_column_sum_validation():
    with pytest.raises(ValueError):
        nb_parameters([5, 5], [[[3, 1], [2, 3]]])


# -- linear regression -----------------------------------------------------------------


def test_regression_exact_line():
    X = [[x] for x in range(1, 6)]
    Y = [2 * x for x in range(1, 6)]
    vec, policy = encode_regression(X, Y, bound=1000)
    assert policy.kind == "l2"
    beta = solve_beta(vec, d=1)
    assert beta[0] == pytest.approx(2.0, abs=1e-12)


def test_regression_split_matches_centralized():
    rng = np.random.default_rng(2)
    X = rng.integers(-9, 10, size=(30, 3))
    Y = rng.integers(-30, 31, size=30)
    parts = np.array_split(np.arange(30), 3)
    vectors = [encode_regression(X[idx], Y[idx], bound=10**9)[0] for idx in parts]
    beta = solve_beta(aggregate(vectors), d=3)
    central, *_ = np.linalg.lstsq(X.astype(float), Y.astype(float), rcond=None)
    assert np.abs(beta - central).max() < 1e-9


def test_regression_tensor_symmetry_and_roundtrip():
    X = [[1.5, 2.0], [0.25, -1.0]]
    Y = [1.0, 2.0]
    vec, _ = encode_regression(X, Y, bound=10**6)
    tensors = RegressionTensors.from_vector(vec, d=2)
    assert np.array_equal(tensors.gram, tensors.gram.T)
    assert tensors.to_vector() == vec
    # floored at scale 1: X = [[1, 2], [0, -1]], Y = [1, 2]
    assert vec == [1, 2, 2, 5, 1, 0]


def test_regression_bound_fail_closed():
    with pytest.raises(BoundExceeded):
        encode_regression([[100.0]], [100.0], bound=10)


def test_regression_singular_gram():
    # two identical columns: X^T X is singular
    X = [[1, 1], [2, 2], [3, 3]]
    Y = [1, 2, 3]
    vec, _ = encode_regression(X, Y, bound=10**6)
    with pytest.raises(SingularGram):
        solve_beta(vec, d=2)


def test_regression_shape_checks():
    with pytest.raises(ShapeMismatch):
        encode_regression([[1, 2]], [1, 2], bound=100)
    with pytest.raises(ShapeMismatch):
        RegressionTensors.from_vector([1, 2, 3], d=2)
    with pytest.raises(EmptyDataset):
        encode_regression(np.zeros((0, 2)), np.zeros(0), bound=100)


# -- collaborative filtering --------------------------------------------------------------


def test_cf_orthogonal_factor_zero_gradient():
    rng = np.random.default_rng(3)
    A = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    G = cf_gradient(A, [1, 2, 3, 4])
    assert np.abs(G).max() < 1e-12


def test_cf_unrated_user_zero_gradient():
    A = np.full((2, 3), 0.2)
    assert np.abs(cf_gradient(A, [0, 0, 0])).max() == 0.0


def test_cf_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        cf_gradient(np.ones((2, 3)), [1, 2])


def test_cf_tally_matches_centralized():
    rng = np.random.default_rng(4)
    n, k, m, scale = 3, 2, 5, 2**16
    A = rng.normal(scale=0.3, size=(k, m))
    ratings = [rng.integers(0, 6, size=m) for _ in range(n)]
    vectors = [encode_cf_gradient(A, P, bound=10**9, scale=scale)[0] for P in ratings]
    tallied = np.array(aggregate(vectors), dtype=float).reshape(k, m) / scale
    central = sum(cf_gradient(A, P) for P in ratings)
    assert np.abs(tallied - central).max() <= 2 * n / scale


def test_cf_bound_fail_closed():
    A = np.full((2, 2), 5.0)
    with pytest.raises(BoundExceeded):
        encode_cf_gradient(A, [9, 9], bound=3)


def test_cf_step_descales():
    A = np.zeros((1, 2))
    updated = cf_gradient_step([4, 8], A, step=0.5, scale=4)
    assert updated.tolist() == [[0.5, 1.0]]


# -- policy conformance --------------------------------------------------------------------


def test_table_policy_conformance():
    assert encode_ballot([1, 0], B=3)[1].kind == "l1"
    assert encode_counts([[1]], cap=5)[1].kind == "l1"
    assert encode_regression([[1.0]], [1.0], bound=100)[1].kind == "l2"
    assert encode_cf_gradient(np.full((1, 1), 0.5), [1], bound=100)[1].kind == "l2"
