"""Epoch discretization tests."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload.activity import (
    ActivityItem,
    ActivityMatrix,
    active_epoch_indices,
    active_tenant_ratio,
    concurrency_counts,
    concurrency_profile,
    sorted_union,
)
from tests.conftest import make_item


class TestSortedUnion:
    def test_merges_overlapping_runs(self):
        chunks = [np.array([3, 4, 5]), np.array([0, 4, 9]), np.array([5, 6])]
        assert sorted_union(chunks).tolist() == [0, 3, 4, 5, 6, 9]

    def test_identical_chunks_collapse(self):
        chunk = np.array([1, 2, 7])
        assert sorted_union([chunk, chunk, chunk]).tolist() == [1, 2, 7]

    def test_empty_and_single(self):
        assert sorted_union([]).dtype == np.int64
        assert sorted_union([]).size == 0
        assert sorted_union([np.empty(0, dtype=np.int64)]).size == 0
        assert sorted_union([np.array([4])]).tolist() == [4]

    def test_returns_int64_and_leaves_inputs_alone(self):
        chunk = np.array([5, 1, 5], dtype=np.int32)
        result = sorted_union([chunk])
        assert result.dtype == np.int64
        assert result.tolist() == [1, 5]
        assert chunk.tolist() == [5, 1, 5]

    def test_matches_np_unique(self):
        rng = np.random.default_rng(3)
        chunks = [np.sort(rng.integers(0, 500, size=int(rng.integers(0, 80)))) for _ in range(30)]
        assert np.array_equal(sorted_union(chunks), np.unique(np.concatenate(chunks)))


class TestConcurrencyCounts:
    def test_counts_covering_sets(self):
        sets = [np.array([0, 2]), np.array([2, 3]), np.empty(0, dtype=np.int64)]
        counts = concurrency_counts(sets, 5)
        assert counts.dtype == np.int32
        assert counts.tolist() == [1, 0, 2, 1, 0]

    def test_delegates_agree(self):
        items = [make_item(1, 2, [0, 3]), make_item(2, 2, [3]), make_item(3, 4, [])]
        expected = [1, 0, 0, 2]
        assert concurrency_profile(items, 4).tolist() == expected
        assert ActivityMatrix(items, 4).concurrency_profile().tolist() == expected


class TestActiveEpochIndices:
    def test_single_interval(self):
        assert active_epoch_indices([(5.0, 25.0)], 10.0).tolist() == [0, 1, 2]

    def test_boundary_exclusive(self):
        assert active_epoch_indices([(0.0, 10.0)], 10.0).tolist() == [0]

    def test_zero_length_interval(self):
        # The strong activity notion: an instantaneous query still marks
        # its epoch.
        assert active_epoch_indices([(15.0, 15.0)], 10.0).tolist() == [1]

    def test_overlapping_intervals_deduped(self):
        epochs = active_epoch_indices([(0.0, 20.0), (5.0, 15.0)], 10.0)
        assert epochs.tolist() == [0, 1]

    def test_empty(self):
        assert active_epoch_indices([], 10.0).size == 0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            active_epoch_indices([(5.0, 1.0)], 10.0)
        with pytest.raises(WorkloadError):
            active_epoch_indices([(-1.0, 1.0)], 10.0)
        with pytest.raises(WorkloadError):
            active_epoch_indices([(0.0, 1.0)], 0.0)


class TestActivityItem:
    def test_fields(self):
        item = make_item(1, 4, [0, 3, 7])
        assert item.active_epoch_count == 3
        assert item.nodes_requested == 4

    def test_unsorted_epochs_rejected(self):
        with pytest.raises(WorkloadError):
            ActivityItem(tenant_id=1, nodes_requested=2, epochs=np.array([3, 1]))

    def test_duplicate_epochs_rejected(self):
        with pytest.raises(WorkloadError):
            ActivityItem(tenant_id=1, nodes_requested=2, epochs=np.array([1, 1]))

    def test_negative_epochs_rejected(self):
        with pytest.raises(WorkloadError):
            ActivityItem(tenant_id=1, nodes_requested=2, epochs=np.array([-1, 1]))

    def test_zero_nodes_rejected(self):
        with pytest.raises(WorkloadError):
            make_item(1, 0, [0])

    def test_empty_epochs_ok(self):
        assert make_item(1, 2, []).active_epoch_count == 0


class TestActivityMatrix:
    def _matrix(self):
        items = [
            make_item(1, 2, [0, 1]),
            make_item(2, 4, [1, 2]),
            make_item(3, 2, []),
        ]
        return ActivityMatrix(items, num_epochs=4)

    def test_concurrency_profile(self):
        counts = self._matrix().concurrency_profile()
        assert counts.tolist() == [1, 2, 1, 0]

    def test_dense_vector(self):
        matrix = self._matrix()
        assert matrix.dense_vector(1).tolist() == [1, 1, 0, 0]
        assert matrix.dense_vector(3).tolist() == [0, 0, 0, 0]

    def test_total_nodes(self):
        assert self._matrix().total_nodes_requested() == 8

    def test_lookup(self):
        matrix = self._matrix()
        assert matrix.item(2).nodes_requested == 4
        with pytest.raises(WorkloadError):
            matrix.item(99)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError):
            ActivityMatrix([make_item(1, 2, [0]), make_item(1, 2, [1])], 4)

    def test_epochs_beyond_d_rejected(self):
        with pytest.raises(WorkloadError):
            ActivityMatrix([make_item(1, 2, [10])], 4)

    def test_active_tenant_ratio(self):
        matrix = self._matrix()
        # Counts [1,2,1,0]: unconditional mean = 1 active of 3 tenants;
        # conditional over the 3 busy epochs = (1+2+1)/3 / 3.
        assert active_tenant_ratio(matrix, conditional=False) == pytest.approx(
            (1 + 2 + 1 + 0) / 4 / 3
        )
        assert active_tenant_ratio(matrix, conditional=True) == pytest.approx(
            (1 + 2 + 1) / 3 / 3
        )

    def test_ratio_of_empty_activity(self):
        matrix = ActivityMatrix([make_item(1, 2, [])], 4)
        assert active_tenant_ratio(matrix, conditional=True) == 0.0

    def test_concurrency_profile_function(self):
        items = [make_item(1, 2, [0]), make_item(2, 2, [0, 1])]
        assert concurrency_profile(items, 3).tolist() == [2, 1, 0]

    def test_from_workload(self, workload):
        matrix = ActivityMatrix.from_workload(workload, 30.0)
        assert len(matrix) == len(workload)
        assert matrix.num_epochs == workload.num_epochs(30.0)
