"""Loss values and occupancy metrics.

Weighted cross-entropy and the Lovász-Softmax surrogate make up the
objective; per-class IoU from exact confusion counts and its unweighted
mean (empty class excluded by convention) make up the evaluation side.
On binary prediction vectors the Lovász term equals 1 - IoU exactly, which
the test suite verifies by exhaustive enumeration.

The Lovász term sorts only the voxels that can move it.  For class c the
error is 1 - p_c on foreground voxels and p_c on background voxels, taken
in descending order.  Once the last foreground voxel has passed, the running
intersection is exactly 0, the Jaccard term stays at exactly 1 and every
later gradient is exactly 0.  Every foreground error is at least
t = min(1 - p_c over the foreground), and a background error below t sorts
after all of them, so the sorted prefix that carries the loss is the set of
voxels with error >= t: the foreground plus the background with p_c >= t.
Ties at t are kept, because the stable sort may place them before the last
foreground voxel.  That subset is taken in ascending index order and sorted
with the same stable argsort, so it is exactly a prefix of the full sort,
with the same order and gradients; only the length of the final dot product
changes, which moves the sum by rounding only (at most 2.2e-16 on the
benchmark volumes).
A class with no foreground voxel has loss max(p_c).
``harness.oracle_lovasz_per_class`` keeps the full sort as the reference.

Both losses take their probability rows in slabs, so a caller never has to
hold a whole probability volume: ``CrossEntropyTerms`` writes one term per
voxel and averages them once at the end, and ``LovaszCandidates`` first
fixes each t_c from the foreground rows, then counts the argmax classes,
keeps max(p_c) and appends the candidates slab by slab in ascending index.
The results do not depend on the slab sizes, bit for bit.
``weighted_ce`` and ``lovasz_per_class`` are the one-slab case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassTaxonomy, SemanticOccupancyGrid
from .errors import GridMismatchError, LabelError, UndefinedMetricError

CE_LOG_FLOOR = 1e-12

# Benchmark scores reported for this architecture, recorded for regression
# documentation only; they are not reproducible at desk scale.
REFERENCE_MIOU = {"openocc": 25.3, "occ3d": 49.4, "kitti": 25.2}


# weights of the two loss terms in the objective
LAMBDA_CE = 10.0
LAMBDA_LOVASZ = 1.0


@dataclass(frozen=True)
class ClassIoU:
    tp: int
    fp: int
    fn: int

    @property
    def defined(self) -> bool:
        return (self.tp + self.fp + self.fn) > 0

    @property
    def iou(self) -> float | None:
        if not self.defined:
            return None
        return self.tp / (self.tp + self.fp + self.fn)


@dataclass(frozen=True)
class IoUReport:
    per_class: tuple[ClassIoU, ...]
    empty_id: int


def _flat_labels(labels: np.ndarray, classes: int) -> np.ndarray:
    """Labels as one int64 vector; a label outside [0, classes) is a LabelError."""
    labels = np.asarray(labels).reshape(-1).astype(np.int64, copy=False)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise LabelError(f"label outside class range [0, {classes})")
    return labels


class CrossEntropyTerms:
    """Per-voxel weighted cross-entropy terms -w_y log p_y, filled slab by slab.

    ``add(start, probs)`` takes the probability rows of voxels ``start`` to
    ``start + len(probs)``; rows are renormalized defensively and the log is
    floored at 1e-12.  ``value`` is one mean over the whole term vector, so
    it is the same number however the rows were split into slabs.
    """

    def __init__(self, labels: np.ndarray, class_weights: np.ndarray, classes: int):
        self.labels = _flat_labels(labels, classes)
        self.weights = np.asarray(class_weights, dtype=np.float64)
        if self.weights.shape != (classes,):
            raise LabelError(f"need one weight per class, got {self.weights.shape} for C={classes}")
        self.terms = np.empty(len(self.labels))

    def add(self, start: int, probs: np.ndarray) -> None:
        labels = self.labels[start : start + len(probs)]
        # gather, then renormalize: the same division as on the whole row, without a normalized copy
        p_truth = probs[np.arange(len(labels)), labels] / np.maximum(probs.sum(axis=-1), CE_LOG_FLOOR)
        self.terms[start : start + len(probs)] = -self.weights[labels] * np.log(
            np.maximum(p_truth, CE_LOG_FLOOR)
        )

    def value(self) -> float:
        return float(np.mean(self.terms))


def weighted_ce(probs: np.ndarray, labels: np.ndarray, class_weights: np.ndarray) -> float:
    """Mean over voxels of -w_y log p_y: ``CrossEntropyTerms`` fed one slab."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, np.asarray(probs).shape[-1])
    terms = CrossEntropyTerms(labels, class_weights, probs.shape[-1])
    terms.add(0, probs)
    return terms.value()


def _lovasz_gradient(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Lovász extension of the Jaccard loss for one class."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if len(jaccard) > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


class LovaszCandidates:
    """The voxels that carry each class's Lovász loss, gathered slab by slab.

    Two passes over the probability rows, in this order:

    1. ``add_foreground(index, probs)`` for the rows of ``foreground`` (the
       voxels whose truth class is scored), in chunks of any size; this fixes
       each class threshold t_c = min(1 - p_c) over its foreground.
    2. ``add(start, probs)`` for every voxel, in slabs of ascending index;
       this counts the argmax classes, keeps each class's max p_c and appends
       the candidates (foreground or p_c >= t_c) in ascending index.

    ``losses`` then sorts each class's candidates, which are exactly the set
    the module docstring derives, whatever the slab sizes were.
    """

    def __init__(self, labels: np.ndarray, classes: int, excluded_class: int | None):
        self.labels = _flat_labels(labels, classes)
        self.scored = np.ones(classes, dtype=bool)
        if excluded_class is not None:
            self.scored[excluded_class] = False
        self.foreground = np.flatnonzero(self.scored[self.labels])
        self.thresholds = np.full(classes, np.inf)
        self.predicted = np.zeros(classes, dtype=np.int64)
        self.p_max = np.full(classes, -np.inf)
        self._found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_foreground(self, index: np.ndarray, probs: np.ndarray) -> None:
        labels = self.labels[index]
        np.minimum.at(self.thresholds, labels, 1.0 - probs[np.arange(len(labels)), labels])

    def add(self, start: int, probs: np.ndarray) -> None:
        labels = self.labels[start : start + len(probs)]
        self.predicted += np.bincount(np.argmax(probs, axis=-1), minlength=len(self.predicted))
        np.maximum(self.p_max, probs.max(axis=0, initial=-np.inf), out=self.p_max)
        keep = probs >= self.thresholds
        fg_rows = np.flatnonzero(self.scored[labels])
        keep[fg_rows, labels[fg_rows]] = True
        rows, classes = np.divmod(np.flatnonzero(keep), keep.shape[1])  # row-major, like nonzero
        self._found.append((classes, probs[rows, classes], labels[rows] == classes))

    def losses(self) -> dict[int, float]:
        classes, p, fg = (np.concatenate(part) for part in zip(*self._found))
        by_class = np.argsort(classes, kind="stable")  # keeps ascending voxel index within a class
        counts = np.bincount(classes, minlength=len(self.scored))
        ends = np.cumsum(counts)
        truth = np.bincount(self.labels, minlength=len(self.scored)) > 0
        losses: dict[int, float] = {}
        for c in np.flatnonzero(truth | (self.predicted > 0)):
            if not self.scored[c]:
                continue
            if not truth[c]:
                losses[int(c)] = float(self.p_max[c])
                continue
            members = by_class[ends[c] - counts[c] : ends[c]]
            fg_c = fg[members].astype(np.float64)
            errors = np.where(fg_c == 1.0, 1.0 - p[members], p[members])
            order = np.argsort(-errors, kind="stable")
            grad = _lovasz_gradient(fg_c[order])
            losses[int(c)] = float(np.dot(errors[order], grad))
        return losses


def lovasz_per_class(probs: np.ndarray, labels: np.ndarray, excluded_class: int | None) -> dict[int, float]:
    """Lovász hinge of the class error vectors, for every present class.

    Present means appearing in the truth labels or in the argmax prediction;
    the excluded class id is never scored.  Only the voxels whose error is at
    least the smallest foreground error are sorted (see the module
    docstring).  This is ``LovaszCandidates`` fed the whole volume as one slab.
    """
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, np.asarray(probs).shape[-1])
    found = LovaszCandidates(labels, probs.shape[-1], excluded_class)
    found.add_foreground(found.foreground, probs[found.foreground])
    found.add(0, probs)
    return found.losses()


def lovasz_mean(losses: dict[int, float]) -> float:
    """Mean of per-class Lovász losses; 0 when no class is scored."""
    if not losses:
        return 0.0
    return float(np.mean(list(losses.values())))


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray, excluded_class: int | None) -> float:
    """Mean of the per-class Lovász losses over present, non-excluded classes."""
    return lovasz_mean(lovasz_per_class(probs, labels, excluded_class))


def total_loss(ce: float, lovasz: float) -> float:
    return LAMBDA_CE * ce + LAMBDA_LOVASZ * lovasz


def class_iou(pred: SemanticOccupancyGrid, truth: SemanticOccupancyGrid, c_total: int) -> IoUReport:
    """Exact per-class confusion counts between two grids sharing a spec."""
    if pred.spec.dims != truth.spec.dims or not np.array_equal(
        pred.spec.origin, truth.spec.origin
    ) or not np.array_equal(pred.spec.voxel_size, truth.spec.voxel_size):
        raise GridMismatchError("prediction and truth grids must share the same spec")
    p = pred.labels.reshape(-1).astype(np.int64)
    t = truth.labels.reshape(-1).astype(np.int64)
    if p.size and max(p.max(), t.max()) >= c_total:
        raise LabelError(f"grid label exceeds class count {c_total}")
    confusion = np.bincount(t * c_total + p, minlength=c_total * c_total).reshape(c_total, c_total)
    per_class = []
    for c in range(c_total):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum() - tp)
        fn = int(confusion[c, :].sum() - tp)
        per_class.append(ClassIoU(tp=tp, fp=fp, fn=fn))
    return IoUReport(per_class=tuple(per_class), empty_id=c_total - 1)


def mean_iou(report: IoUReport, *, include_empty: bool = False) -> float:
    """Unweighted mean over defined classes, excluding empty by convention."""
    values = [
        entry.iou
        for c, entry in enumerate(report.per_class)
        if entry.defined and (include_empty or c != report.empty_id)
    ]
    if not values:
        raise UndefinedMetricError("no class has a defined IoU")
    return float(np.mean(values))


def format_metrics(
    report: IoUReport,
    taxonomy: ClassTaxonomy,
    losses: dict[str, float] | None = None,
) -> str:
    """Structured text: one record per class, then mIoU and loss components."""
    lines = ["class\ttp\tfp\tfn\tiou"]
    names = list(taxonomy.names) + ["empty"]
    for name, entry in zip(names, report.per_class):
        iou = "undefined" if entry.iou is None else f"{entry.iou:.6f}"
        lines.append(f"{name}\t{entry.tp}\t{entry.fp}\t{entry.fn}\t{iou}")
    try:
        lines.append(f"mIoU\t{mean_iou(report):.6f}")
    except UndefinedMetricError:
        lines.append("mIoU\tundefined")
    if losses:
        for key in ("ce", "lovasz", "total"):
            if key in losses:
                lines.append(f"loss.{key}\t{losses[key]:.6f}")
    return "\n".join(lines) + "\n"
