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


@dataclass(frozen=True)
class LossWeights:
    lambda_ce: float = 10.0
    lambda_lovasz: float = 1.0

    def __post_init__(self):
        if self.lambda_ce < 0 or self.lambda_lovasz < 0:
            raise ValueError("loss weights must be non-negative")


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


def weighted_ce(probs: np.ndarray, labels: np.ndarray, class_weights: np.ndarray) -> float:
    """Mean over voxels of -w_y log p_y; probabilities are renormalized
    defensively and the log is floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, np.asarray(probs).shape[-1])
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    c = probs.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise LabelError(f"label outside class range [0, {c})")
    if weights.shape != (c,):
        raise LabelError(f"need one weight per class, got {weights.shape} for C={c}")
    # gather, then renormalize: the same division as on the whole volume, without its copy
    p_truth = probs[np.arange(len(labels)), labels] / np.maximum(probs.sum(axis=-1), CE_LOG_FLOOR)
    return float(np.mean(-weights[labels] * np.log(np.maximum(p_truth, CE_LOG_FLOOR))))


def _lovasz_gradient(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Lovász extension of the Jaccard loss for one class."""
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    if len(jaccard) > 1:
        jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_per_class(probs: np.ndarray, labels: np.ndarray, excluded_class: int | None) -> dict[int, float]:
    """Lovász hinge of the class error vectors, for every present class.

    Present means appearing in the truth labels or in the argmax prediction;
    the excluded class id is never scored.  Only the voxels whose error is at
    least the smallest foreground error are sorted (see the module docstring).
    """
    probs = np.asarray(probs, dtype=np.float64).reshape(-1, np.asarray(probs).shape[-1])
    labels = np.asarray(labels).reshape(-1).astype(np.int64)
    c_total = probs.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= c_total):
        raise LabelError(f"label outside class range [0, {c_total})")
    predicted = np.argmax(probs, axis=-1)
    present = (np.bincount(labels, minlength=c_total) > 0) | (np.bincount(predicted, minlength=c_total) > 0)
    losses: dict[int, float] = {}
    for c in np.flatnonzero(present):
        if excluded_class is not None and c == excluded_class:
            continue
        p = probs[:, c]
        fg_mask = labels == c
        if not fg_mask.any():
            losses[int(c)] = float(p.max())
            continue
        threshold = np.min(1.0 - p[fg_mask])
        keep = np.flatnonzero(fg_mask | (p >= threshold))
        fg = fg_mask[keep].astype(np.float64)
        errors = np.where(fg == 1.0, 1.0 - p[keep], p[keep])
        order = np.argsort(-errors, kind="stable")
        grad = _lovasz_gradient(fg[order])
        losses[int(c)] = float(np.dot(errors[order], grad))
    return losses


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray, excluded_class: int | None) -> float:
    """Mean of the per-class Lovász losses over present, non-excluded classes."""
    losses = lovasz_per_class(probs, labels, excluded_class)
    if not losses:
        return 0.0
    return float(np.mean(list(losses.values())))


def total_loss(ce: float, lovasz: float, weights: LossWeights) -> float:
    return weights.lambda_ce * ce + weights.lambda_lovasz * lovasz


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
