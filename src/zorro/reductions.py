"""Encoders that reduce joint training statistics to bounded integer vectors,
plus the post-tally computations that turn aggregated vectors back into
model quantities.

Counting reductions (voting, LDA count matrices, decision-tree and naive
Bayes statistics) are exact and carry an L1 policy: entries are counts, so
non-negativity and a total cap are the right validity conditions.  Numeric
reductions carry an L2 policy bounding each party's pull on the model: least
squares floor-quantises its data at scale 1 (integer data passes unchanged),
collaborative-filtering gradients are floored at a caller-chosen fixed-point
scale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundExceeded,
    CapExceeded,
    EmptyDataset,
    IllegalBallot,
    NegativeCount,
    ShapeMismatch,
    SingularGram,
    ZeroClassCount,
)
from .rangeproof import BoundPolicy

# -- cumulative voting --------------------------------------------------------


def encode_ballot(ballot, B: int):
    """Votes per candidate for a voter holding a budget of B - 1 votes.

    Legal ballots are non-negative with total under B; the encoding is the
    identity plus an L1(B-1) policy.
    """
    votes = [int(v) for v in ballot]
    if any(v < 0 for v in votes):
        raise IllegalBallot("negative votes are not allowed")
    if sum(votes) >= B:
        raise IllegalBallot(f"ballot spends {sum(votes)} votes, budget is {B - 1}")
    return votes, BoundPolicy.l1(B - 1)


# -- count matrices (LDA sync, ID3 / naive Bayes statistics) -------------------


def encode_counts(matrix, cap: int):
    """Flatten a non-negative count matrix row-major under an L1(cap) policy."""
    arr = np.asarray(matrix)
    if arr.size == 0:
        raise ValueError("empty count matrix")
    flat = [int(v) for v in arr.reshape(-1)]
    if any(v < 0 for v in flat):
        raise NegativeCount("count matrices are non-negative")
    if sum(flat) > cap:
        raise CapExceeded(f"total count {sum(flat)} exceeds per-user cap {cap}")
    return flat, BoundPolicy.l1(cap)


def decode_counts(tally, shape):
    """Reshape a tallied flat vector back into the original matrix layout."""
    return np.asarray(tally).reshape(shape)


def compute_entropy(counts) -> float:
    """Shannon entropy, in bits, of the label distribution given by counts."""
    total = sum(counts)
    if total <= 0:
        raise EmptyDataset("entropy of zero samples is undefined")
    return -sum((c / total) * math.log2(c / total) for c in counts if c > 0)


def compute_gain(label_counts, split_counts) -> float:
    """Entropy gain of a feature: entropy(D) minus the weighted split entropies.

    split_counts holds one label-count vector per feature value; together
    they must partition label_counts (for the two-way ID3 split this is the
    reconstructed c = p + q).
    """
    c = [int(v) for v in label_counts]
    splits = [[int(v) for v in row] for row in split_counts]
    if any(len(row) != len(c) for row in splits):
        raise ShapeMismatch("split vectors must match the label vector length")
    recombined = [sum(row[j] for row in splits) for j in range(len(c))]
    if recombined != c:
        raise ValueError("split counts do not partition the label counts")
    total = sum(c)
    if total <= 0:
        raise EmptyDataset("gain over zero samples is undefined")
    gain = compute_entropy(c)
    for row in splits:
        weight = sum(row) / total
        if weight > 0:
            gain -= weight * compute_entropy(row)
    return gain


def nb_parameters(label_tally, feature_tallies):
    """Empirical naive-Bayes estimates from tallied counts.

    label_tally: per-class sample counts (length k), every one positive.
    feature_tallies: one (num_values x k) matrix per feature whose columns
    sum to label_tally.  Returns (priors, conditionals) where
    conditionals[i][v, l] = Pr(x_i = v | y = l).
    """
    labels = np.asarray(label_tally, dtype=float)
    total = labels.sum()
    if total <= 0:
        raise EmptyDataset("no tallied samples")
    empty = np.flatnonzero(labels == 0)
    if empty.size:
        raise ZeroClassCount(f"class {empty[0]} has zero samples")
    priors = labels / total
    conditionals = []
    for counts in feature_tallies:
        table = np.asarray(counts, dtype=float)
        if table.ndim != 2 or table.shape[1] != labels.size:
            raise ShapeMismatch("feature tally must be (num_values x num_labels)")
        if not np.array_equal(table.sum(axis=0), labels):
            raise ValueError("feature tally columns must sum to the label tally")
        conditionals.append(table / labels)
    return priors, conditionals


# -- linear regression ---------------------------------------------------------


@dataclass(frozen=True)
class RegressionTensors:
    """One party's share of the normal equations: X_i^T X_i and X_i^T Y_i."""

    gram: np.ndarray
    moments: np.ndarray

    def to_vector(self):
        return [int(v) for v in self.gram.reshape(-1)] + [int(v) for v in self.moments]

    @classmethod
    def from_vector(cls, vector, d: int):
        vec = list(vector)
        if len(vec) != d * d + d:
            raise ShapeMismatch(f"expected {d * d + d} entries, got {len(vec)}")
        gram = np.array(vec[: d * d], dtype=object).reshape(d, d)
        moments = np.array(vec[d * d :], dtype=object)
        return cls(gram, moments)


def _quantize(arr, scale: int):
    """floor(v * scale) of every entry, as exact Python ints."""
    return np.array([[math.floor(v * scale) for v in row] for row in np.atleast_2d(arr)], dtype=object)


def regression_tensors(X, Y) -> RegressionTensors:
    """Floor the data to integers then form the Gram matrix and moment vector."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
        raise ShapeMismatch("X must be (samples x d) and Y (samples,)")
    if X.shape[0] == 0:
        raise EmptyDataset("regression over zero samples")
    Xq = _quantize(X, 1)
    Yq = _quantize(Y.reshape(-1, 1), 1).reshape(-1)
    gram = Xq.T @ Xq
    moments = Xq.T @ Yq
    return RegressionTensors(gram, moments)


def encode_regression(X, Y, bound: int):
    """Flattened normal-equation share of the floored data plus its L2(bound) policy.

    Fails closed when the share's Euclidean norm exceeds the bound.
    """
    tensors = regression_tensors(X, Y)
    vector = tensors.to_vector()
    if sum(v * v for v in vector) > bound * bound:
        raise BoundExceeded(f"tensor norm exceeds {bound}")
    return vector, BoundPolicy.l2(bound)


def solve_beta(tally, d: int):
    """Least-squares coefficients from the tallied normal equations."""
    tensors = RegressionTensors.from_vector(tally, d)
    gram = tensors.gram.astype(float)
    moments = tensors.moments.astype(float)
    try:
        beta = np.linalg.solve(gram, moments)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(str(exc)) from exc
    if not np.all(np.isfinite(beta)):
        raise SingularGram("normal equations are numerically singular")
    return beta


# -- collaborative filtering ----------------------------------------------------


def cf_gradient(A, P):
    """One user's share of the preference-factor gradient:
    A P^T P (I - A^T A) for the current k x m factor A and ratings row P."""
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float).reshape(1, -1)
    if A.ndim != 2 or A.shape[1] != P.shape[1]:
        raise ShapeMismatch(f"factor is {A.shape}, ratings have {P.shape[1]} items")
    m = A.shape[1]
    return A @ P.T @ P @ (np.eye(m) - A.T @ A)


def encode_cf_gradient(A, P_i, bound: int, scale: int = 1):
    """Fixed-point encode a user's gradient share, floor(G * scale), under an
    L2(bound) policy."""
    G = cf_gradient(A, P_i)
    Gq = _quantize(G, scale)
    vector = [int(v) for v in Gq.reshape(-1)]
    if sum(v * v for v in vector) > bound * bound:
        raise BoundExceeded(f"gradient norm exceeds {bound}")
    return vector, BoundPolicy.l2(bound)


def cf_gradient_step(tally, A, step: float, scale: int = 1):
    """Apply the tallied gradient: A + step * G / scale."""
    A = np.asarray(A, dtype=float)
    G = np.asarray([float(v) for v in tally]).reshape(A.shape) / scale
    return A + step * G
