"""Unit tests for the from-scratch AMI implementation (no sklearn here)."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.ami import ami, contingency, entropy, expected_mutual_info, mutual_info


class TestContingency:
    def test_simple(self):
        c = contingency([0, 0, 1, 1], [0, 1, 0, 1])
        assert c.tolist() == [[1, 1], [1, 1]]

    def test_identity(self):
        c = contingency([0, 0, 1], [0, 0, 1])
        assert c.tolist() == [[2, 0], [0, 1]]

    def test_arbitrary_label_values(self):
        c = contingency([-1, 5, 5], [100, 100, 2])
        assert c.sum() == 3
        assert c.shape == (2, 2)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            contingency([0, 1], [0, 1, 2])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            contingency([], [])


class TestEntropy:
    def test_uniform_two(self):
        assert entropy([0, 1]) == pytest.approx(math.log(2))

    def test_constant_is_zero(self):
        assert entropy([7, 7, 7, 7]) == 0.0

    def test_uniform_k(self):
        for k in (2, 3, 5, 10):
            labels = np.repeat(np.arange(k), 4)
            assert entropy(labels) == pytest.approx(math.log(k))

    def test_skewed_less_than_uniform(self):
        assert entropy([0] * 9 + [1]) < entropy([0] * 5 + [1] * 5)


class TestMutualInfo:
    def test_identical_partitions_equals_entropy(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        c = contingency(labels, labels)
        assert mutual_info(c) == pytest.approx(entropy(labels))

    def test_independent_partitions_zero(self):
        # perfectly crossed table: MI = 0
        c = np.array([[5, 5], [5, 5]])
        assert mutual_info(c) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        g = np.random.default_rng(0)
        for _ in range(20):
            a = g.integers(0, 4, 50)
            b = g.integers(0, 3, 50)
            assert mutual_info(contingency(a, b)) >= -1e-12


def _emi_tables():
    """24 contingency tables: 1xk and kx1, zero rows and columns, n from 1 to 3797."""
    g = np.random.default_rng(2024)
    shapes = [(1, 1), (1, 4), (4, 1), (1, 7), (2, 2), (2, 3), (3, 2), (3, 3), (3, 5), (5, 3),
              (4, 4), (6, 2), (2, 6), (5, 5), (7, 3), (3, 7), (8, 8), (1, 3), (4, 6), (6, 4),
              (2, 2), (3, 4), (5, 2), (10, 3)]
    highs = [3, 10, 40, 120, 300]
    for i, s in enumerate(shapes):
        c = g.integers(0, highs[i % len(highs)], s)
        c[0, 0] += 1  # n >= 1
        yield c


# repr of expected_mutual_info on _emi_tables(), computed term by term with
# math.lgamma and math.log before they came from per-call tables
_EMI_PINNED = [
    "0.0",
    "-1.6653345369377375e-16",
    "9.953723669052562e-17",
    "3.6982680017606914e-16",
    "0.0009836099699856067",
    "0.1851175768338838",
    "0.051694687981486465",
    "0.011860999975614213",
    "0.0041520821969100894",
    "0.0019943608602187917",
    "0.3792672327609253",
    "0.07140767777961628",
    "0.011717532640709617",
    "0.005266147370641382",
    "0.0031475949588465326",
    "0.4023311133827928",
    "0.0953137792700311",
    "1.5284180038657104e-30",
    "0.0063023994934288605",
    "0.0019790415869474533",
    "0.12730283365896225",
    "0.06679151333259722",
    "0.006973081235840701",
    "0.005442143124577617",
]


class TestExpectedMI:
    def test_pinned_exact(self):
        tables = list(_emi_tables())
        assert len(tables) == len(_EMI_PINNED)
        assert [repr(expected_mutual_info(c)) for c in tables] == _EMI_PINNED

    def test_emi_between_zero_and_entropy(self):
        g = np.random.default_rng(1)
        a = g.integers(0, 3, 40)
        b = g.integers(0, 3, 40)
        c = contingency(a, b)
        e = expected_mutual_info(c)
        assert 0.0 <= e <= min(entropy(a), entropy(b)) + 1e-9

    def test_emi_close_to_random_mi(self):
        # MI of random labellings should be ~EMI on average
        g = np.random.default_rng(2)
        a = g.integers(0, 4, 200)
        c0 = contingency(a, g.integers(0, 4, 200))
        mis = []
        for _ in range(50):
            b = g.permutation(g.integers(0, 4, 200))
            mis.append(mutual_info(contingency(a, b)))
        assert np.mean(mis) == pytest.approx(expected_mutual_info(c0), abs=0.05)


class TestAMI:
    def test_perfect_match(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 2])
        assert ami(labels, labels) == pytest.approx(1.0)

    def test_perfect_match_relabeled(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 3, 3, 9, 9])
        assert ami(a, b) == pytest.approx(1.0)

    def test_random_near_zero(self):
        g = np.random.default_rng(3)
        vals = [ami(g.integers(0, 5, 500), g.integers(0, 5, 500)) for _ in range(10)]
        assert abs(float(np.mean(vals))) < 0.02

    def test_constant_pred_zero_info(self):
        a = np.array([0, 0, 1, 1])
        b = np.zeros(4, dtype=int)
        assert ami(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_both_single_cluster_is_one(self):
        assert ami([0, 0, 0], [1, 1, 1]) == 1.0

    def test_both_singletons_is_one(self):
        assert ami([0, 1, 2], [5, 6, 7]) == 1.0

    def test_symmetry(self):
        g = np.random.default_rng(4)
        a = g.integers(0, 4, 100)
        b = g.integers(0, 3, 100)
        assert ami(a, b) == pytest.approx(ami(b, a))

    def test_partial_overlap_between_zero_and_one(self):
        a = np.repeat([0, 1], 50)
        b = a.copy()
        b[:10] = 1 - b[:10]  # corrupt 10 %
        v = ami(a, b)
        assert 0.2 < v < 1.0

    def test_more_corruption_lower_ami(self):
        a = np.repeat([0, 1], 100)
        scores = []
        g = np.random.default_rng(5)
        for frac in (0.0, 0.1, 0.25, 0.4):
            b = a.copy()
            idx = g.choice(200, int(200 * frac), replace=False)
            b[idx] = 1 - b[idx]
            scores.append(ami(a, b))
        assert scores == sorted(scores, reverse=True)

    def test_known_value(self):
        # EMI verified against the brute-force expectation over all 4!
        # position permutations of the predicted labels; AMI follows.
        assert ami([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(0.571429, abs=1e-5)

    def test_known_value_2(self):
        assert ami([0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 2, 2]) == pytest.approx(
            0.298792, abs=1e-5
        )

    def test_ami_can_be_negative(self):
        # worse-than-chance agreement is allowed to dip below zero
        assert ami([0, 1, 1, 2], [0, 0, 1, 1]) == pytest.approx(-0.285714, abs=1e-5)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_emi_matches_bruteforce_permutation_expectation(self, data):
        import itertools

        n = data.draw(st.integers(4, 7))
        a = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        c = contingency(a, b)
        brute = np.mean(
            [
                mutual_info(contingency(a, b[list(p)]))
                for p in itertools.permutations(range(n))
            ]
        )
        assert expected_mutual_info(c) == pytest.approx(brute, abs=1e-9)

    @given(
        st.lists(st.integers(0, 3), min_size=8, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_permutation_of_label_names_invariant(self, labels, rnd):
        a = np.array(labels)
        perm = {v: i for i, v in enumerate(dict.fromkeys(labels))}
        b = np.array([perm[v] + 17 for v in labels])  # renamed copy of a
        g = np.random.default_rng(rnd.randint(0, 10**6))
        other = g.integers(0, 3, len(a))
        assert ami(a, other) == pytest.approx(ami(b, other), abs=1e-9)

    @given(st.integers(2, 5), st.integers(20, 80))
    @settings(max_examples=20, deadline=None)
    def test_self_ami_is_one(self, k, n):
        g = np.random.default_rng(k * n)
        a = g.integers(0, k, n)
        assert ami(a, a) == pytest.approx(1.0)

    def test_ami_at_most_one(self):
        g = np.random.default_rng(6)
        for _ in range(20):
            a = g.integers(0, 4, 60)
            b = g.integers(0, 4, 60)
            assert ami(a, b) <= 1.0 + 1e-9
