import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd.data import LabeledDataset
from voicepd.errors import DataError
from voicepd.selection import chi2_scores, chi2_statistic, select_top_k


def make_dataset(columns, labels):
    features = np.column_stack(columns)
    names = [f"f{j}" for j in range(features.shape[1])]
    return LabeledDataset(features=features, labels=np.array(labels), feature_names=names)


class TestChi2Statistic:
    def test_hand_contingency(self):
        assert chi2_statistic([[10, 0], [0, 10]]) == pytest.approx(20.0, abs=1e-9)

    def test_independent_table_zero(self):
        assert chi2_statistic([[5, 5], [5, 5]]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_expected_cells_skipped(self):
        assert np.isfinite(chi2_statistic([[10, 0], [0, 0]]))


class TestChi2Scores:
    def test_label_copy_ranks_first(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([0, 1, 2], 20)
        copy = labels.astype(float)
        noise = [rng.standard_normal(60) for _ in range(4)]
        ds = make_dataset([noise[0], copy, *noise[1:]], labels)
        scores = chi2_scores(ds)
        assert scores[1].rank == 1

    def test_constant_feature_zero(self):
        labels = np.repeat([0, 1, 2], 10)
        ds = make_dataset([np.ones(30), labels.astype(float)], labels)
        scores = chi2_scores(ds)
        assert scores[0].chi2 == 0.0
        assert scores[0].rank == 2

    def test_two_bin_hand_case(self):
        # feature 0 for class 0 (10 rows), 1 for class 1 (10 rows), 2 bins
        labels = np.repeat([0, 1], 10)
        ds = make_dataset([labels.astype(float)], labels)
        scores = chi2_scores(ds, bins=2)
        assert scores[0].chi2 == pytest.approx(20.0, abs=1e-9)

    @pytest.mark.parametrize("present", [(0, 1, 2), (0, 2), (1, 2)])
    def test_table_has_one_column_per_class_present(self, present):
        rng = np.random.default_rng(len(present) + present[0])
        labels = np.repeat(present, [7, 9, 11][:len(present)])
        ds = make_dataset([rng.standard_normal(len(labels)) for _ in range(3)], labels)
        for j, score in enumerate(chi2_scores(ds, bins=4)):
            x = ds.features[:, j]
            binned = np.clip(np.floor((x - x.min()) / (x.max() - x.min()) * 4), 0, 3)
            table = [[np.count_nonzero((binned == b) & (labels == c)) for c in present]
                     for b in range(4)]
            assert score.chi2 == chi2_statistic(table)

    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(2)
        labels = np.repeat([0, 1, 2], 15)
        ds = make_dataset([rng.standard_normal(45) for _ in range(6)], labels)
        scores = chi2_scores(ds)
        assert sorted(s.rank for s in scores) == list(range(1, 7))
        ranked = sorted(scores, key=lambda s: s.rank)
        chis = [s.chi2 for s in ranked]
        assert chis == sorted(chis, reverse=True)

    def test_empty_dataset_rejected(self):
        ds = LabeledDataset(features=np.empty((0, 2)), labels=np.array([], dtype=int),
                            feature_names=["a", "b"])
        with pytest.raises(DataError):
            chi2_scores(ds)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(42)
        labels = np.repeat([0, 1, 2], 12)
        cols = [rng.standard_normal(36) for _ in range(3)]
        ds = make_dataset(cols, labels)
        perm = np.random.default_rng(seed).permutation(36)
        permuted = ds.subset(perm)
        s1 = chi2_scores(ds)
        s2 = chi2_scores(permuted)
        for a, b in zip(s1, s2):
            assert a.chi2 == pytest.approx(b.chi2, rel=1e-12)

    def test_monotone_transform_preserving_bins(self):
        labels = np.repeat([0, 1, 2], 10)
        col = labels.astype(float)  # values 0, 1, 2
        s1 = chi2_scores(make_dataset([col], labels), bins=3)
        s2 = chi2_scores(make_dataset([2 * col + 1], labels), bins=3)  # keeps bin membership
        assert s1[0].chi2 == pytest.approx(s2[0].chi2, rel=1e-12)

    def test_row_duplication_doubles_chi2(self):
        rng = np.random.default_rng(9)
        labels = np.repeat([0, 1, 2], 10)
        cols = [rng.standard_normal(30)]
        ds = make_dataset(cols, labels)
        doubled = make_dataset([np.concatenate([cols[0], cols[0]])],
                               np.concatenate([labels, labels]))
        s1 = chi2_scores(ds)
        s2 = chi2_scores(doubled)
        assert s2[0].chi2 == pytest.approx(2 * s1[0].chi2, rel=1e-9)


class TestSelectTopK:
    def _scores(self):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1, 2], 10)
        cols = [rng.standard_normal(30) for _ in range(5)]
        cols[2] = labels.astype(float)
        return chi2_scores(make_dataset(cols, labels))

    def test_all_true_for_full_k(self):
        mask = select_top_k(self._scores(), 5)
        assert mask.all()

    def test_k_one_keeps_best(self):
        scores = self._scores()
        mask = select_top_k(scores, 1)
        assert mask.sum() == 1
        best = next(s.feature_index for s in scores if s.rank == 1)
        assert mask[best]

    def test_tie_broken_by_lower_index(self):
        labels = np.repeat([0, 1], 10)
        col = labels.astype(float)
        ds = make_dataset([np.ones(20), col, np.ones(20), col], labels)
        scores = chi2_scores(ds, bins=2)
        mask = select_top_k(scores, 1)
        assert mask.tolist() == [False, True, False, False]

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            select_top_k(self._scores(), 0)
        with pytest.raises(DataError):
            select_top_k(self._scores(), 6)
