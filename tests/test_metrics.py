from copy import deepcopy
import tracemalloc

import numpy as np
import pytest

from gaussocc.core import GridSpec, SemanticOccupancyGrid
from gaussocc.errors import GridMismatchError, LabelError, UndefinedMetricError
from gaussocc.harness import oracle_lovasz_per_class
from gaussocc import metrics
from gaussocc.metrics import (
    IoUReport,
    ClassIoU,
    LAMBDA_CE,
    LAMBDA_LOVASZ,
    REFERENCE_MIOU,
    _lovasz_gradient,
    class_iou,
    format_metrics,
    lovasz_per_class,
    lovasz_softmax,
    mean_iou,
    total_loss,
    weighted_ce,
)


def one_hot(labels, c):
    out = np.zeros((len(labels), c))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def grid_from_labels(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=labels.shape)
    return SemanticOccupancyGrid(spec=spec, labels=labels)


class TestWeightedCe:
    def test_perfect_prediction_zero(self):
        labels = np.array([0, 1, 2])
        assert weighted_ce(one_hot(labels, 3), labels, np.ones(3)) == pytest.approx(0.0, abs=1e-10)

    def test_half_confidence_log_two(self):
        probs = np.array([[0.5, 0.5]])
        assert weighted_ce(probs, np.array([0]), np.ones(2)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_linear_in_class_weight(self):
        probs = np.array([[0.25, 0.75]])
        w1 = weighted_ce(probs, np.array([0]), np.array([1.0, 1.0]))
        w2 = weighted_ce(probs, np.array([0]), np.array([2.0, 1.0]))
        assert w2 == pytest.approx(2.0 * w1)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            weighted_ce(np.array([[0.5, 0.5]]), np.array([2]), np.ones(2))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, size=20)
        weights = rng.uniform(0.5, 2.0, size=4)
        perm = np.array([2, 0, 3, 1])
        base = weighted_ce(probs, labels, weights)
        permuted = weighted_ce(probs[:, perm], np.argsort(perm)[labels], weights[perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_bitwise_equal_to_renormalize_then_gather(self):
        # rows are normalized once, by probability_rows; CE gathers p_y from them and logs it, with no division
        rng = np.random.default_rng(8)
        scores = rng.uniform(0.0, 0.4, size=(500, 5))  # semantic mass anywhere in [0, 2]
        scores[:5] = 0.0  # all empty-class probability: a semantic truth there hits the 1e-12 floor
        probs = metrics.probability_rows(scores)
        labels = rng.integers(0, 6, size=500)
        weights = rng.uniform(0.5, 2.0, size=6)
        p_truth = probs[np.arange(500), labels]
        expected = -weights[labels] * np.log(np.maximum(p_truth, 1e-12))
        assert weighted_ce(probs, labels, weights) == float(np.mean(expected))
        # per voxel too, one row per call: 79 of these rows sum to 1 only up to rounding, so a second
        # division moves terms (== because a one-term mean is the term with its zero's sign dropped)
        per_voxel = [weighted_ce(probs[i : i + 1], labels[i : i + 1], weights) for i in range(500)]
        assert np.array_equal(per_voxel, expected)


class TestProbabilityRows:
    @pytest.mark.parametrize("c", [4, 17, 19])
    def test_closed_form_equals_concatenate_then_renormalize(self, c):
        # rows of mass 0, just under 1, exactly 1, just over 1 and 2.5; both formulas, bit for bit
        rng = np.random.default_rng(c)
        shares = rng.dirichlet(np.ones(c), size=(4, 200))
        mass = np.array([1.0 - 2.0**-30, 1.0 + 2.0**-30, 2.5, 0.0])[:, None, None]
        dyadic = np.zeros((1, c))  # 1/2 + 1/4 + 1/8 + 1/8: a row sum of exactly 1
        dyadic[0, :4] = [0.5, 0.25, 0.125, 0.125]
        scores = np.concatenate([(shares * mass).reshape(-1, c), rng.permuted(np.repeat(dyadic, 50, 0), axis=1)])
        d = scores.sum(axis=-1)
        assert np.any(d == 0) and np.any((0 < d) & (d < 1)) and np.any(d == 1) and np.any(d > 1)
        concatenated = np.concatenate([scores, np.maximum(1.0 - d, 0.0)[:, None]], axis=-1)
        closed = concatenated / np.maximum(d, 1.0)[:, None]
        renormalized = concatenated / np.maximum(concatenated.sum(axis=-1, keepdims=True), 1e-12)
        probs = metrics.probability_rows(scores)
        assert probs.shape == (len(scores), c + 1) and probs.dtype == np.float64
        assert probs.tobytes() == closed.tobytes()
        assert probs.tobytes() == renormalized.tobytes()

    def test_constructors_copy_no_integer_labels(self):
        # uint8 truth is read as it is: the only voxel-sized allocations are the bool mask of scored
        # voxels (1 B per voxel) and the foreground index (8 B per foreground voxel), not an int64 copy
        rng = np.random.default_rng(3)
        shape = (64, 64, 32)
        labels = np.where(rng.uniform(size=shape) < 0.05, rng.integers(0, 17, size=shape), 17).astype(np.uint8)
        tracemalloc.start()
        try:
            metrics.CrossEntropyTerms(labels, np.ones(18), 18)
            found = metrics.LovaszCandidates(labels, 18, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = labels.size + found.foreground.nbytes + 2**16
        assert peak < budget, (peak, budget)


class TestLovasz:
    def test_perfect_prediction_zero(self):
        labels = np.array([0, 1, 0, 1])
        assert lovasz_softmax(one_hot(labels, 2), labels, excluded_class=None) == pytest.approx(0.0)

    def test_single_swap_gives_one(self):
        # one missed truth voxel plus one false positive: IoU = 0, loss = 1
        labels = np.array([1, 0])
        probs = one_hot(np.array([0, 1]), 2)
        losses = lovasz_per_class(probs, labels, excluded_class=None)
        assert losses[1] == pytest.approx(1.0, abs=1e-12)

    def test_absent_class_excluded_from_mean(self):
        labels = np.array([0, 0])
        probs = one_hot(np.array([0, 0]), 3)  # class 2 appears nowhere
        losses = lovasz_per_class(probs, labels, excluded_class=None)
        assert set(losses) == {0}

    def test_excluded_class_never_scored(self):
        labels = np.array([0, 2, 2])
        probs = one_hot(np.array([0, 2, 2]), 3)
        losses = lovasz_per_class(probs, labels, excluded_class=2)
        assert 2 not in losses

    def test_matches_level_set_integral_on_soft_predictions(self):
        # the Lovasz extension of a set function g with g(empty) = 0 equals
        # the integral over thresholds of g applied to the level sets; the
        # Jaccard loss of a misprediction set M against truth G is
        # 1 - |G \ M| / |G u M|
        def level_set_oracle(errors, fg):
            def jaccard_loss(mask):
                union = np.sum(fg | mask)
                if union == 0:
                    return 0.0
                return 1.0 - np.sum(fg & ~mask) / union

            thresholds = np.unique(np.concatenate([[0.0, 1.0], errors]))
            total = 0.0
            for lo, hi in zip(thresholds[:-1], thresholds[1:]):
                total += (hi - lo) * jaccard_loss(errors >= (lo + hi) / 2.0)
            return total

        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            c = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            losses = lovasz_per_class(probs, labels, excluded_class=None)
            for cls, loss in losses.items():
                fg = labels == cls
                errors = np.where(fg, 1.0 - probs[:, cls], probs[:, cls])
                assert loss == pytest.approx(level_set_oracle(errors, fg), abs=1e-9)

    def test_vertex_property_small_exhaustive(self):
        for n in range(1, 5):
            for truth_bits in range(2**n):
                for pred_bits in range(2**n):
                    truth = np.array([(truth_bits >> i) & 1 for i in range(n)])
                    pred = np.array([(pred_bits >> i) & 1 for i in range(n)])
                    losses = lovasz_per_class(one_hot(pred, 2), truth, excluded_class=None)
                    for c, loss in losses.items():
                        tp = int(np.sum((pred == c) & (truth == c)))
                        fp = int(np.sum((pred == c) & (truth != c)))
                        fn = int(np.sum((pred != c) & (truth == c)))
                        iou = tp / (tp + fp + fn)
                        assert loss == pytest.approx(1.0 - iou, abs=1e-12)


def quantized_volume(rng, n, c):
    """Probabilities on multiples of 1/8, so many background errors tie the
    smallest foreground error of their class."""
    return rng.integers(0, 9, size=(n, c)) / 8.0, rng.integers(0, c, size=n)


def assert_matches_oracle(probs, labels, excluded_class, monkeypatch):
    """Same keys and values as the full sort, and every truncated sort is a
    prefix of the full sort whose tail has exactly zero gradient."""
    truncated = []

    def recording_gradient(fg_sorted):
        truncated.append(fg_sorted.copy())
        return _lovasz_gradient(fg_sorted)

    monkeypatch.setattr(metrics, "_lovasz_gradient", recording_gradient)
    got = lovasz_per_class(probs, labels, excluded_class)
    want = oracle_lovasz_per_class(probs, labels, excluded_class)
    assert got.keys() == want.keys()
    for c, loss in want.items():
        assert abs(got[c] - loss) <= 1e-12, (c, got[c], loss)
    with_foreground = [c for c in sorted(want) if np.any(labels == c)]
    assert len(truncated) == len(with_foreground)
    for c, fg_prefix in zip(with_foreground, truncated):
        fg = (labels == c).astype(np.float64)
        errors = np.where(fg == 1.0, 1.0 - probs[:, c], probs[:, c])
        full = fg[np.argsort(-errors, kind="stable")]
        np.testing.assert_array_equal(fg_prefix, full[: len(fg_prefix)])
        assert not np.any(_lovasz_gradient(full)[len(fg_prefix) :])
    return got, truncated


class TestLovaszTruncation:
    """The truncated sort against the full-sort reference in the harness."""

    def test_tied_quantized_volumes(self, monkeypatch):
        rng = np.random.default_rng(11)
        for _ in range(60):
            probs, labels = quantized_volume(rng, int(rng.integers(20, 400)), int(rng.integers(2, 7)))
            assert_matches_oracle(probs, labels, excluded_class=None, monkeypatch=monkeypatch)

    def test_class_present_only_in_argmax(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(30):
            probs, labels = quantized_volume(rng, 200, 5)
            labels[labels == 4] = 0  # class 4 never in the truth
            probs[:3] = 0.0
            probs[:3, 4] = 1.0  # but predicted at three voxels
            got, _ = assert_matches_oracle(probs, labels, excluded_class=None, monkeypatch=monkeypatch)
            assert got[4] == 1.0

    def test_foreground_at_certainty_keeps_every_voxel(self, monkeypatch):
        rng = np.random.default_rng(13)
        for _ in range(30):
            probs, labels = quantized_volume(rng, 200, 4)
            for c in range(4):
                probs[np.flatnonzero(labels == c)[-1], c] = 1.0  # threshold 0 for every class
            _, truncated = assert_matches_oracle(probs, labels, excluded_class=None, monkeypatch=monkeypatch)
            assert [len(fg) for fg in truncated] == [200] * 4

    def test_excluded_class(self, monkeypatch):
        rng = np.random.default_rng(14)
        for _ in range(30):
            probs, labels = quantized_volume(rng, 200, 4)
            got, _ = assert_matches_oracle(probs, labels, excluded_class=3, monkeypatch=monkeypatch)
            assert 3 not in got and got

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            lovasz_per_class(np.array([[0.5, 0.5]]), np.array([2]), excluded_class=None)


class TestSlabbedLosses:
    def test_any_split_matches_whole_array(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n, c = int(rng.integers(20, 300)), int(rng.integers(2, 7))
            probs, labels = quantized_volume(rng, n, c)
            weights = rng.uniform(0.5, 2.0, size=c)
            cuts = rng.choice(np.arange(1, n), size=int(rng.integers(0, 6)), replace=False)
            bounds = [0, *sorted(cuts.tolist()), n]
            ce = metrics.CrossEntropyTerms(labels, weights, c)
            found = metrics.LovaszCandidates(labels, c, c - 1)
            for index in np.array_split(found.foreground, 3):
                found.add_foreground(index, probs[index])
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                ce.add(lo, probs[lo:hi])
                found.fold([found.add(lo, probs[lo:hi])])
            assert ce.value() == weighted_ce(probs, labels, weights)
            assert found.losses() == lovasz_per_class(probs, labels, c - 1)

    def test_ranges_gathered_by_copies_fold_to_whole_array(self):
        # what a forked eval worker does: a copy of the candidates after the
        # foreground pass makes the parts of one index range, and the parts
        # of every range fold in order into the original
        rng = np.random.default_rng(16)
        for _ in range(30):
            n, c = int(rng.integers(20, 300)), int(rng.integers(2, 7))
            probs, labels = quantized_volume(rng, n, c)
            cuts = rng.choice(np.arange(1, n), size=int(rng.integers(1, 5)), replace=False)
            bounds = [0, *sorted(cuts.tolist()), n]
            found = metrics.LovaszCandidates(labels, c, c - 1)
            found.add_foreground(found.foreground, probs[found.foreground])
            ranges = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                copy = deepcopy(found)
                ranges.append([copy.add(start, probs[start : min(start + 7, hi)]) for start in range(lo, hi, 7)])
            for parts in ranges:
                found.fold(parts)
            assert found.losses() == lovasz_per_class(probs, labels, c - 1)

    @pytest.mark.parametrize("leaf", [16, 128])
    def test_ce_parts_of_copies_fold_to_whole_array(self, monkeypatch, leaf):
        # what a forked eval worker does with CE: a copy adds the slabs of one
        # index range and hands over its part (the sums of the leaves it
        # completed, the terms of the leaves its edges cut); the parts fold in
        # order into the original, whose open terms then complete every leaf
        monkeypatch.setattr(metrics, "_CE_LEAF", leaf)
        rng = np.random.default_rng(18 + leaf)
        for _ in range(30):
            n, c = int(rng.integers(20, 3000)), int(rng.integers(2, 7))
            probs, labels = quantized_volume(rng, n, c)
            weights = rng.uniform(0.5, 2.0, size=c)
            cuts = rng.choice(np.arange(1, n), size=int(rng.integers(1, 6)), replace=False)
            bounds = [0, *sorted(cuts.tolist()), n]
            ce = metrics.CrossEntropyTerms(labels, weights, c)
            parts = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                copy = deepcopy(ce)
                step = int(rng.integers(1, 2 * leaf))
                for start in range(lo, hi, step):
                    copy.add(start, probs[start : min(start + step, hi)])
                assert len(copy.open) <= 2
                parts.append(copy.part())
                assert copy.sums == {} and copy.open == []
            ce.fold(parts)
            assert ce.open == [] and sorted(ce.sums) == ce.cuts[:-1]
            assert ce.value() == weighted_ce(probs, labels, weights)
            if leaf >= 128:
                terms = -weights[labels] * np.log(np.maximum(probs[np.arange(n), labels], metrics.CE_LOG_FLOOR))
                assert ce.value() == float(np.mean(terms))

    def test_add_changes_nothing(self):
        # a part reaches the candidates only through fold, so an in-process
        # gather that is then folded counts each candidate once
        rng = np.random.default_rng(17)
        probs, labels = quantized_volume(rng, 50, 4)
        found = metrics.LovaszCandidates(labels, 4, 3)
        found.add_foreground(found.foreground, probs[found.foreground])
        before = deepcopy(found)
        counts, p_max, (classes, p, fg) = found.add(0, probs)
        assert counts.sum() == 50 and p_max.tobytes() == probs.max(axis=0).tobytes()
        assert len(classes) == len(p) == len(fg) > 0
        assert found.found == [] and found.predicted.tobytes() == before.predicted.tobytes()
        assert found.p_max.tobytes() == before.p_max.tobytes()


class TestPairwiseTree:
    """``_pairwise`` over leaf sums is np.mean's sum: numpy's split rule, pinned.

    CE is bitwise ``np.mean`` of its terms only while numpy halves a vector
    at half its length rounded down to a multiple of 8; if numpy changes
    that rule, these tests fail instead of CE moving.
    """

    # the benchmark workloads' voxel counts (small, occ3d, dense-grid; openocc's
    # 10,485,760 halves exactly into two of occ3d's tree), primes and odd lengths
    LENGTHS = [1, 7, 8, 9, 127, 128, 129, 999, 8191, 65537, 131071, 999983,
               16384, 1310720, 2097152, 3 * 2**20 + 5]

    @pytest.fixture(scope="class")
    def values(self):
        # signs and magnitudes over 16 decades: any other order of additions rounds otherwise
        rng = np.random.default_rng(60)
        n = 3 * 2**20 + 5
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)

    @staticmethod
    def tree_mean(x):
        return metrics._pairwise(0, len(x), lambda lo, hi: np.add.reduce(x[lo:hi])) / len(x)

    @pytest.mark.parametrize("leaf", [128, 129, 1000, 2**13, 2**16, 2**20])
    def test_tree_of_leaf_sums_is_np_mean(self, monkeypatch, values, leaf):
        monkeypatch.setattr(metrics, "_CE_LEAF", leaf)
        for n in self.LENGTHS + [leaf - 1, leaf, leaf + 1, leaf + 8, 2 * leaf + 7]:
            x = values[:n]
            assert self.tree_mean(x) == np.mean(x), (n, leaf)

    def test_leaves_below_numpy_block_are_not_np_mean(self, monkeypatch, values):
        # numpy sums a node of at most 128 values in eight interleaved lanes, not by halving
        # it, so a tree that splits such a node adds in another order: the leaf must be >= 128
        assert metrics._CE_LEAF >= 128
        for leaf in (16, 32, 64):
            monkeypatch.setattr(metrics, "_CE_LEAF", leaf)
            x = values[:999]
            assert self.tree_mean(x) != np.mean(x), leaf

    def test_leaf_starts(self, monkeypatch):
        monkeypatch.setattr(metrics, "_CE_LEAF", 8)
        ce = metrics.CrossEntropyTerms(np.zeros(144, dtype=np.uint8), np.ones(2), 2)
        assert ce.cuts == list(range(0, 145, 8))  # 144 -> 72 + 72 -> 32 + 40 -> ... leaves of 8
        monkeypatch.setattr(metrics, "_CE_LEAF", 2**13)
        assert metrics.CrossEntropyTerms(np.zeros(144, dtype=np.uint8), np.ones(2), 2).cuts == [0, 144]
        # dense-grid: 2^21 voxels in 256 leaves of 8,192, one per x-plane slab
        assert metrics._pairwise(0, 2**21, lambda lo, hi: [lo]) == list(range(0, 2**21, 2**13))


class TestColumnMax:
    @pytest.mark.parametrize("rows", [0, 1, 2, 7, 8, 9, 1000, 1001])
    def test_equals_axis_max(self, rows):
        rng = np.random.default_rng(rows)
        probs = rng.uniform(size=(rows, 18))
        tied = rng.integers(0, 3, size=(rows, 18)) / 4.0  # many equal values per column
        for volume in (probs, tied, -probs):
            got = metrics._column_max(volume)
            assert got.shape == (18,)
            assert got.tobytes() == volume.max(axis=0, initial=-np.inf).tobytes()

    def test_leaves_rows_unchanged(self):
        probs = np.random.default_rng(3).uniform(size=(9, 5))
        before = probs.copy()
        metrics._column_max(probs)
        np.testing.assert_array_equal(probs, before)


def test_lovasz_mean_of_no_class_is_zero():
    assert metrics.lovasz_mean({}) == 0.0


class TestTotalLoss:
    def test_reference_weighting(self):
        assert (LAMBDA_CE, LAMBDA_LOVASZ) == (10.0, 1.0)
        assert total_loss(0.5, 0.2) == pytest.approx(5.2)

    def test_null_objective(self):
        assert total_loss(0.0, 0.0) == 0.0

    def test_single_term(self):
        assert total_loss(0.7, 0.0) == pytest.approx(7.0)
        assert total_loss(0.0, 0.3) == pytest.approx(0.3)


class TestClassIoU:
    def test_identical_grids(self):
        labels = np.array([[[0, 1], [2, 3]]], dtype=np.uint8)
        report = class_iou(grid_from_labels(labels), grid_from_labels(labels), c_total=4)
        for entry in report.per_class:
            assert entry.iou == pytest.approx(1.0)

    def test_disjoint_prediction(self):
        pred = grid_from_labels(np.array([[[1, 1]]], dtype=np.uint8))
        truth = grid_from_labels(np.array([[[0, 0]]], dtype=np.uint8))
        report = class_iou(pred, truth, c_total=2)
        assert report.per_class[1].iou == 0.0
        assert report.per_class[0].iou == 0.0

    def test_hand_enumerated_four_voxels(self):
        # class 1: TP=2 (both 1), FP=1 (pred 1, truth 0), FN=1 (pred 0, truth 1)
        pred = grid_from_labels(np.array([[[1], [1], [1], [0]]], dtype=np.uint8))
        truth = grid_from_labels(np.array([[[1], [1], [0], [1]]], dtype=np.uint8))
        report = class_iou(pred, truth, c_total=2)
        entry = report.per_class[1]
        assert (entry.tp, entry.fp, entry.fn) == (2, 1, 1)
        assert entry.iou == pytest.approx(0.5)

    def test_spec_mismatch(self):
        a = grid_from_labels(np.zeros((2, 2, 1), dtype=np.uint8))
        b = grid_from_labels(np.zeros((2, 1, 2), dtype=np.uint8))
        with pytest.raises(GridMismatchError):
            class_iou(a, b, c_total=2)

    @pytest.mark.parametrize("which", ["pred", "truth"])
    def test_label_at_class_count(self, which):
        labels = {"pred": np.zeros((2, 2, 1), dtype=np.uint8), "truth": np.zeros((2, 2, 1), dtype=np.uint8)}
        labels[which][1, 1, 0] = 4
        with pytest.raises(LabelError, match="exceeds class count 4"):
            class_iou(grid_from_labels(labels["pred"]), grid_from_labels(labels["truth"]), c_total=4)

    def test_one_index_vector_of_peak_memory(self):
        # The confusion index t * c_total + p is built in place in one intp vector: no int64 copy of
        # either label volume, and no temporary for the product or the sum.
        rng = np.random.default_rng(3)
        pred, truth = (grid_from_labels(rng.integers(0, 18, size=(64, 64, 32)).astype(np.uint8)) for _ in range(2))
        want = np.zeros((18, 18), dtype=np.int64)
        np.add.at(want, (truth.labels.ravel(), pred.labels.ravel()), 1)
        tracemalloc.start()
        try:
            report = class_iou(pred, truth, c_total=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        index_bytes = pred.labels.size * np.dtype(np.intp).itemsize
        assert peak < 1.25 * index_bytes, (peak, index_bytes)  # the index vector, then 18 x 18 counts
        for c, entry in enumerate(report.per_class):
            assert (entry.tp, entry.fp, entry.fn) == (want[c, c], want[:, c].sum() - want[c, c],
                                                      want[c].sum() - want[c, c])

    def test_symmetry_of_iou(self):
        rng = np.random.default_rng(1)
        a = grid_from_labels(rng.integers(0, 4, size=(3, 3, 2)).astype(np.uint8))
        b = grid_from_labels(rng.integers(0, 4, size=(3, 3, 2)).astype(np.uint8))
        ab = class_iou(a, b, c_total=4)
        ba = class_iou(b, a, c_total=4)
        for x, y in zip(ab.per_class, ba.per_class):
            assert x.iou == y.iou


class TestMeanIoU:
    def report(self, entries, empty_id):
        return IoUReport(per_class=tuple(entries), empty_id=empty_id)

    def test_hand_mean(self):
        report = self.report([ClassIoU(1, 0, 0), ClassIoU(0, 1, 1), ClassIoU(0, 0, 0)], empty_id=2)
        assert mean_iou(report) == pytest.approx(0.5)

    def test_all_perfect(self):
        report = self.report([ClassIoU(3, 0, 0), ClassIoU(5, 0, 0), ClassIoU(1, 0, 0)], empty_id=2)
        assert mean_iou(report) == pytest.approx(1.0)

    def test_undefined_classes_excluded(self):
        report = self.report([ClassIoU(2, 2, 0), ClassIoU(0, 0, 0), ClassIoU(0, 0, 0)], empty_id=2)
        assert mean_iou(report) == pytest.approx(0.5)

    def test_empty_class_excluded_by_default(self):
        report = self.report([ClassIoU(1, 0, 0), ClassIoU(1, 1, 0)], empty_id=1)
        assert mean_iou(report) == pytest.approx(1.0)
        assert mean_iou(report, include_empty=True) == pytest.approx(0.75)

    def test_no_defined_class(self):
        report = self.report([ClassIoU(0, 0, 0), ClassIoU(0, 0, 0)], empty_id=1)
        with pytest.raises(UndefinedMetricError):
            mean_iou(report)

    def test_permutation_invariance(self):
        entries = [ClassIoU(1, 1, 0), ClassIoU(2, 0, 2), ClassIoU(5, 0, 0)]
        a = mean_iou(self.report(entries + [ClassIoU(0, 0, 0)], empty_id=3))
        b = mean_iou(self.report(entries[::-1] + [ClassIoU(0, 0, 0)], empty_id=3))
        assert a == pytest.approx(b)

    def test_reference_constants_recorded(self):
        assert REFERENCE_MIOU == {"openocc": 25.3, "occ3d": 49.4, "kitti": 25.2}


class TestFormatMetrics:
    def test_no_defined_class_prints_undefined_miou(self, taxonomy):
        report = IoUReport(per_class=tuple(ClassIoU(0, 0, 0) for _ in range(18)), empty_id=17)
        lines = format_metrics(report, taxonomy).splitlines()
        assert lines[-1] == "mIoU\tundefined"
        assert all(line.endswith("\tundefined") for line in lines[1:-1]) and len(lines) == 20

    def test_one_record_per_class_plus_summary(self, taxonomy):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 18, size=(4, 4, 2)).astype(np.uint8)
        report = class_iou(grid_from_labels(labels), grid_from_labels(labels), c_total=18)
        text = format_metrics(report, taxonomy, losses={"ce": 0.5, "lovasz": 0.2, "total": 5.2})
        lines = text.strip().splitlines()
        assert lines[0].startswith("class\t")
        assert len([l for l in lines if "\t" in l and not l.startswith(("class", "mIoU", "loss."))]) == 18
        assert any(l.startswith("mIoU\t") for l in lines)
        assert any(l.startswith("loss.total\t5.2") for l in lines)
