"""Unit tests for the components kernel and grid connected components."""
from __future__ import annotations

import inspect
import time

import numpy as np
import pytest

from repro.core.components import connected_components, label_components


def _in_4d(cells) -> np.ndarray:
    """2-D cells padded with two zero coordinates: d = 4 selects face adjacency."""
    return np.pad(np.asarray(cells), ((0, 0), (0, 2)))


class TestLabelComponents:
    def test_initially_disjoint(self):
        assert label_components(4, [], []).tolist() == [0, 1, 2, 3]

    def test_edge_merges(self):
        assert label_components(4, [2], [1]).tolist() == [0, 1, 1, 3]

    def test_transitive(self):
        assert label_components(5, [0, 1, 3, 2], [1, 2, 4, 3]).tolist() == [0] * 5

    def test_duplicate_edges_idempotent(self):
        assert label_components(3, [0, 1, 0], [1, 0, 1]).tolist() == [0, 0, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_graph_search(self, seed):
        n = 200
        src, dst = np.random.default_rng(seed).integers(0, n, (2, 150))
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in zip(src.tolist(), dst.tolist()):
            adj[a].append(b)
            adj[b].append(a)
        want = [-1] * n
        for s in range(n):  # the first node reached of each component is its smallest
            if want[s] < 0:
                want[s] = s
                stack = [s]
                while stack:
                    for b in adj[stack.pop()]:
                        if want[b] < 0:
                            want[b] = s
                            stack.append(b)
        assert label_components(n, src, dst).tolist() == want

    def test_permuted_long_path_is_fast(self):
        # a path whose nodes are in random order: min-label propagation needs
        # O(n) rounds here (tens of thousands), root hooking O(log n)
        n = 100_000
        p = np.random.default_rng(0).permutation(n)
        t0 = time.perf_counter()
        root = label_components(n, p[:-1], p[1:])
        assert time.perf_counter() - t0 < 1.0
        assert (root == 0).all()


class TestConnectedComponents:
    def test_empty(self):
        assert connected_components(np.zeros((0, 2), dtype=int)).size == 0

    def test_single_cell(self):
        assert connected_components(np.array([[5, 5]])).tolist() == [0]

    def test_two_adjacent_cells_face(self):
        labels = connected_components(_in_4d([[0, 0], [0, 1]]))
        assert labels[0] == labels[1]

    def test_diagonal_cells_face_vs_chebyshev(self):
        cells = np.array([[0, 0], [1, 1]])
        assert len(set(connected_components(_in_4d(cells)))) == 2
        assert len(set(connected_components(cells))) == 1

    def test_two_separate_blocks(self):
        cells = np.array([[0, 0], [0, 1], [10, 10], [10, 11]])
        labels = connected_components(cells)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_ring_is_one_component(self):
        # discretized circle: consecutive cells are chebyshev-adjacent
        theta = np.linspace(0, 2 * np.pi, 100)
        cells = np.unique(
            np.column_stack([np.round(10 + 8 * np.cos(theta)), np.round(10 + 8 * np.sin(theta))]
                            ).astype(int),
            axis=0,
        )
        labels = connected_components(cells)
        assert len(set(labels)) == 1

    def test_l_shape_one_component(self):
        cells = _in_4d([[0, 0], [1, 0], [2, 0], [2, 1], [2, 2]])
        assert len(set(connected_components(cells))) == 1

    def test_labels_are_dense_from_zero(self):
        labels = connected_components(_in_4d([[0, 0], [5, 5], [9, 9], [5, 6]]))
        assert set(labels) == set(range(len(set(labels))))

    def test_first_appearance_order(self):
        labels = connected_components(_in_4d([[0, 0], [5, 5], [0, 1]]))
        assert labels.tolist() == [0, 1, 0]

    def test_high_dimensional_face(self):
        d = 12
        a = np.zeros((3, d), dtype=int)
        a[1, 0] = 1  # face neighbour of a[0]
        a[2, :] = 7  # far away
        labels = connected_components(a)
        assert labels[0] == labels[1] != labels[2]

    def test_auto_picks_by_dimension(self):
        diag3 = np.array([[0, 0, 0], [1, 1, 1]])
        assert len(set(connected_components(diag3))) == 1  # chebyshev
        diag4 = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
        assert len(set(connected_components(diag4))) == 2  # face

    def test_duplicates_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            connected_components(np.array([[1, 1], [1, 1]]))

    def test_takes_only_cells(self):
        # the adjacency follows d (test_auto_picks_by_dimension): no option
        assert list(inspect.signature(connected_components).parameters) == ["cells"]

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError, match="M, d"):
            connected_components(np.array([1, 2, 3]))

    def test_grid_line_components_count(self):
        # 3 separate horizontal strips
        labels = connected_components(_in_4d([[x, y] for y in (0, 5, 10) for x in range(4)]))
        assert len(set(labels)) == 3
