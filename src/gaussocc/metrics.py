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

Both losses take their probability rows, which ``probability_rows`` alone
builds from splat scores in closed form, [s, max(1 - d, 0)] / max(d, 1)
with d the semantic mass, so each row is normalized once and both losses
read it as given.  The truth labels are read in their own integer dtype
(1 B per voxel for a uint8 grid), with no widened copy.  The rows come in
slabs, so a caller never has to hold a whole probability volume, nor a
vector of one CE term per voxel: ``CrossEntropyTerms`` sums each slab's terms
into the leaves of numpy's pairwise summation tree (``_pairwise``) and adds
the leaf sums in the tree's order at the end, which is ``np.mean`` of the
terms bit for bit; ``LovaszCandidates`` first fixes each t_c from the
foreground rows, then turns each slab into a part (its argmax counts,
max(p_c) and candidates) and folds the parts in ascending index.
The results do not depend on the slab sizes, bit for bit.  Both hand over a
part that depends only on its voxels (and the thresholds), so it may be made
anywhere (a forked worker) and folded in afterwards, with the same result.
``weighted_ce`` and ``lovasz_per_class`` are the one-slab case.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def probability_rows(sem: np.ndarray) -> np.ndarray:
    """Class probabilities of voxel rows of semantic scores (any leading shape).

    With d the row sum of the C semantic scores s, a row is
    [s, max(1 - d, 0)] / max(d, 1): the semantic channels keep their
    accumulated mixture mass, the empty channel takes the left-over mass, and
    a row whose mass is above 1 is scaled down to sum to 1.  That divisor is
    the row sum of [s, max(1 - d, 0)] itself, so no second row sum is taken:
    for d <= 1, fl(d + fl(1 - d)) is exactly 1, and above 1 the empty entry
    is 0.  numpy's pairwise sum of C + 1 values adds the last one after the
    first C whenever C mod 8 != 7, so for the 17- and 19-class taxonomies the
    rows have the bits of renormalizing the concatenated row by its own sum;
    at C mod 8 = 7 that sum could round off 1 and the closed form is the
    exact rule.  The result is allocated once.  Each row depends only on its
    own scores, so a slab gets the same bits as the whole.
    """
    mass = sem.sum(axis=-1, keepdims=True)
    probs = np.concatenate([sem, np.maximum(1.0 - mass, 0.0)], axis=-1)
    probs /= np.maximum(mass, 1.0)
    return probs


def _flat_labels(labels: np.ndarray, classes: int) -> np.ndarray:
    """Integer labels as one flat vector of their own dtype (a uint8 grid stays
    1 B per voxel, and is a view when contiguous); a label outside
    [0, classes) is a LabelError."""
    labels = np.asarray(labels).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise LabelError(f"label outside class range [0, {classes})")
    return labels


# Leaf length of the CE sum tree (``_pairwise``).  From 128 up, numpy's
# unrolled block, every split of the tree is one np.add.reduce makes, so
# leaf sums added in tree order are np.add.reduce's sum bit for bit.
_CE_LEAF = 2**13


def _pairwise(lo: int, hi: int, leaf):
    """``leaf(lo, hi)`` of each leaf of [lo, hi), added up in numpy's pairwise order.

    numpy sums a contiguous float64 vector by halving it at half its length
    rounded down to a multiple of 8; here a node of at most ``_CE_LEAF``
    values is a leaf.  Leaves that return ``[lo]`` give the leaf starts, and
    leaves that return ``np.add.reduce`` of their values give the sum.
    """
    if hi - lo <= _CE_LEAF:
        return leaf(lo, hi)
    half = lo + (hi - lo) // 2 // 8 * 8
    return _pairwise(lo, half, leaf) + _pairwise(half, hi, leaf)


class CrossEntropyTerms:
    """Weighted cross-entropy -w_y log p_y, averaged as ``np.mean`` of every voxel's term, fed slab by slab.

    ``add(start, probs)`` takes the probability rows of voxels ``start`` to
    ``start + len(probs)`` as given (``probability_rows`` made them, so they
    are not normalized again), gathers p_y from them, floors the log at
    ``CE_LOG_FLOOR`` and folds the slab's terms into the sums of the leaves
    of numpy's pairwise tree (``_pairwise``) that it completes.  Terms of a
    leaf the slab only cuts stay open until the next slab completes it, so
    slabs added in ascending order hold one slab plus one leaf of terms.
    ``value`` adds the leaf sums in tree order and divides by the voxel
    count: ``np.mean`` of the whole term vector, bit for bit, however the
    rows were split into slabs, and no term vector is ever held.

    ``part()`` hands over what was added since the last part, the sums of
    the leaves it completed and the open pieces of the (at most two) leaves
    its edges cut, and starts empty; ``fold(parts)`` adds parts in
    ascending voxel order, joining the open pieces into their leaves.  So a
    forked worker may add the slabs of one range and return its part.
    """

    def __init__(self, labels: np.ndarray, class_weights: np.ndarray, classes: int):
        self.labels = _flat_labels(labels, classes)
        self.weights = np.asarray(class_weights, dtype=np.float64)
        if self.weights.shape != (classes,):
            raise LabelError(f"need one weight per class, got {self.weights.shape} for C={classes}")
        self.cuts = _pairwise(0, len(self.labels), lambda lo, hi: [lo]) + [len(self.labels)]
        self.sums: dict[int, np.float64] = {}  # leaf start -> sum of its terms
        self.open: list[tuple[int, np.ndarray]] = []  # (start, terms) of cut leaves, ascending

    def add(self, start: int, probs: np.ndarray) -> None:
        labels = self.labels[start : start + len(probs)]
        p_truth = probs[np.arange(len(labels)), labels]
        self._take(start, -self.weights[labels] * np.log(np.maximum(p_truth, CE_LOG_FLOOR)))

    def _take(self, start: int, terms: np.ndarray) -> None:
        """Sum each leaf that ``terms`` (voxels from ``start``) complete; keep the pieces of leaves they cut open.

        A piece that starts inside its leaf joins the open piece that ends
        where it starts, the rest of the same leaf, first.
        """
        end = start + len(terms)
        for j in range(bisect_right(self.cuts, start) - 1, bisect_left(self.cuts, end)):
            lo, hi = self.cuts[j], self.cuts[j + 1]
            a = max(lo, start)
            piece = terms[a - start : min(hi, end) - start]
            if a > lo and self.open and self.open[-1][0] + len(self.open[-1][1]) == a:
                a, held = self.open.pop()
                piece = np.concatenate([held, piece])
            if a == lo and a + len(piece) == hi:
                self.sums[lo] = np.add.reduce(piece)
            else:
                self.open.append((a, piece.copy()))

    def part(self) -> tuple[dict, list]:
        part = self.sums, self.open
        self.sums, self.open = {}, []
        return part

    def fold(self, parts) -> None:
        for sums, pieces in parts:
            self.sums.update(sums)
            for start, terms in pieces:
                self._take(start, terms)

    def value(self) -> float:
        return float(_pairwise(0, len(self.labels), lambda lo, hi: self.sums[lo]) / len(self.labels))


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


def _column_max(rows: np.ndarray) -> np.ndarray:
    """Per-column max of (n, C) rows, -inf for n = 0: ``np.maximum`` of row halves, the odd row folded in.

    Each step is one elementwise maximum over contiguous rows: on a ~1 MB
    slab of 18 columns it took 35 µs against 200 µs for ``rows.max(axis=0)``
    (2-vCPU VM).  Max does not depend on the order it is taken in, so the
    result is exact.
    """
    if not len(rows):
        return np.full(rows.shape[1], -np.inf)
    while len(rows) > 1:
        half = len(rows) // 2
        top = np.maximum(rows[:half], rows[half : 2 * half])
        if len(rows) % 2:
            np.maximum(top[0], rows[-1], out=top[0])
        rows = top
    return rows[0]


class LovaszCandidates:
    """The voxels that carry each class's Lovász loss, gathered slab by slab.

    Two passes over the probability rows, in this order:

    1. ``add_foreground(index, probs)`` for the rows of ``foreground`` (the
       voxels whose truth class is scored), in chunks of any size; this fixes
       each class threshold t_c = min(1 - p_c) over its foreground.
    2. ``add(start, probs)`` for every voxel, in slabs of any size; it
       changes nothing and returns the slab's part: its argmax class counts,
       each class's max p_c and its candidates (foreground or p_c >= t_c) in
       ascending index.

    ``fold(parts)`` adds parts to the counts, max and candidates, and is the
    only way they change; parts must be folded in ascending index, wherever
    they were made (a forked worker makes those of its range).  ``losses``
    then sorts each class's candidates, which are exactly the set the module
    docstring derives, whatever the slab sizes were.
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
        self.found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (class, p_c, foreground) per slab

    def add_foreground(self, index: np.ndarray, probs: np.ndarray) -> None:
        labels = self.labels[index]
        np.minimum.at(self.thresholds, labels, 1.0 - probs[np.arange(len(labels)), labels])

    def add(self, start: int, probs: np.ndarray) -> tuple:
        labels = self.labels[start : start + len(probs)]
        counts = np.bincount(np.argmax(probs, axis=-1), minlength=len(self.predicted))
        keep = probs >= self.thresholds
        fg_rows = np.flatnonzero(self.scored[labels])
        keep[fg_rows, labels[fg_rows]] = True
        rows, classes = np.divmod(np.flatnonzero(keep), keep.shape[1])  # row-major, like nonzero
        return counts, _column_max(probs), (classes, probs[rows, classes], labels[rows] == classes)

    def fold(self, parts) -> None:
        for counts, p_max, found in parts:
            self.predicted += counts
            np.maximum(self.p_max, p_max, out=self.p_max)
            self.found.append(found)

    def losses(self) -> dict[int, float]:
        classes, p, fg = (np.concatenate(part) for part in zip(*self.found))
        by_class = np.argsort(classes, kind="stable")  # keeps ascending voxel index within a class
        counts = np.bincount(classes, minlength=len(self.scored))
        ends = np.cumsum(counts)
        truth = np.isin(np.arange(len(self.scored)), self.labels)  # bincount would copy the labels to intp
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
    found.fold([found.add(0, probs)])
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
    if pred.spec != truth.spec:
        raise GridMismatchError("prediction and truth grids must share the same spec")
    p, t = pred.labels.reshape(-1), truth.labels.reshape(-1)
    if p.size and max(p.max(), t.max()) >= c_total:
        raise LabelError(f"grid label exceeds class count {c_total}")
    index = t.astype(np.intp)  # t * c_total + p, the one voxel-sized integer array
    index *= c_total
    index += p
    confusion = np.bincount(index, minlength=c_total * c_total).reshape(c_total, c_total)
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
