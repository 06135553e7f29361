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

    def test_defensive_renormalization(self):
        probs = np.array([[1.0, 1.0]])  # sums to 2; renormalized to 0.5 each
        assert weighted_ce(probs, np.array([0]), np.ones(2)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bitwise_equal_to_renormalize_then_gather(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0.0, 0.4, size=(500, 6))  # rows sum to anything in [0, 2.4]
        probs[:5] = 0.0  # zero rows hit the 1e-12 floor
        labels = rng.integers(0, 6, size=500)
        weights = rng.uniform(0.5, 2.0, size=6)
        renormalized = probs / np.maximum(probs.sum(axis=-1, keepdims=True), 1e-12)
        p_truth = renormalized[np.arange(500), labels]
        expected = float(np.mean(-weights[labels] * np.log(np.maximum(p_truth, 1e-12))))
        assert weighted_ce(probs, labels, weights) == expected


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
                found.add(lo, probs[lo:hi])
            assert ce.value() == weighted_ce(probs, labels, weights)
            assert found.losses() == lovasz_per_class(probs, labels, c - 1)


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
