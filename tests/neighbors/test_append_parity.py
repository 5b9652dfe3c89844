"""Appendable indices reproduce fresh fits bit-for-bit.

Randomized workloads: a sequence of appends must answer every query
exactly like an index fitted from scratch on the concatenated matrix —
same distances, same indices — across metrics and ``exclude_self``.
"""

import numpy as np
import pytest

from repro.neighbors import BruteKNN, MixedMetric


def random_batches(seed, d=5, sizes=(120, 1, 40, 33, 260)):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(n, d)) for n in sizes]


@pytest.mark.parametrize("cls", [BruteKNN], ids=["brute"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_append_sequence_matches_fresh_fit(cls, seed):
    batches = random_batches(seed)
    rng = np.random.default_rng(seed + 50)
    Q = rng.normal(size=(60, 5))
    inc = cls().fit(batches[0])
    for i, batch in enumerate(batches[1:], start=1):
        inc.append(batch)
        full = cls().fit(np.concatenate(batches[: i + 1]))
        for k in (1, 4, 11):
            for exclude_self in (False, True):
                d_inc, i_inc = inc.kneighbors(Q, k, exclude_self=exclude_self)
                d_full, i_full = full.kneighbors(Q, k, exclude_self=exclude_self)
                np.testing.assert_array_equal(d_inc, d_full)
                np.testing.assert_array_equal(i_inc, i_full)


@pytest.mark.parametrize("cls", [BruteKNN], ids=["brute"])
def test_append_with_mixed_metric(cls):
    rng = np.random.default_rng(9)
    # Columns 0-1 numeric, column 2 categorical overlap-coded.
    metric = MixedMetric(np.array([False, False, True]))
    def enc(n):
        E = rng.normal(size=(n, 3))
        E[:, 2] = rng.integers(0, 3, size=n)
        return E
    X0, X1 = enc(90), enc(35)
    inc = cls(metric).fit(X0)
    inc.append(X1)
    full = cls(metric).fit(np.concatenate([X0, X1]))
    Q = enc(20)
    d_inc, i_inc = inc.kneighbors(Q, 5)
    d_full, i_full = full.kneighbors(Q, 5)
    np.testing.assert_array_equal(d_inc, d_full)
    np.testing.assert_array_equal(i_inc, i_full)


@pytest.mark.parametrize("cls", [BruteKNN], ids=["brute"])
def test_checkpoint_rollback_restores_exactly(cls):
    rng = np.random.default_rng(11)
    X0 = rng.normal(size=(150, 4))
    inc = cls().fit(X0)
    inc.append(rng.normal(size=(30, 4)))
    token = inc.checkpoint()
    baseline = cls().fit(inc._X.copy())
    # A rejected-candidate append cycle, twice, each rolled back.
    for _ in range(2):
        inc.append(rng.normal(size=(500, 4)))  # larger than the fitted matrix
        inc.rollback(token)
    Q = rng.normal(size=(40, 4))
    d_inc, i_inc = inc.kneighbors(Q, 8)
    d_base, i_base = baseline.kneighbors(Q, 8)
    np.testing.assert_array_equal(d_inc, d_base)
    np.testing.assert_array_equal(i_inc, i_base)


def test_append_to_unfitted_is_fit():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, 3))
    idx = BruteKNN()
    idx.append(X)
    assert idx.n_samples == 20


@pytest.mark.parametrize("cls", [BruteKNN], ids=["brute"])
def test_append_empty_batch_is_noop(cls):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(20, 3))
    idx = cls().fit(X)
    idx.append(np.empty((0, 3)))
    assert idx.n_samples == 20
    d, i = idx.kneighbors(X[:3], 2)
    d2, i2 = cls().fit(X).kneighbors(X[:3], 2)
    np.testing.assert_array_equal(d, d2)
    np.testing.assert_array_equal(i, i2)
