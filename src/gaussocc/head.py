"""Refinement head over Gaussian primitives, plus the grid splatter.

Each refinement block projects the anchors onto the three orthogonal
coordinate planes, serializes every plane into a 1D sequence by raster
order (primary coordinate times a large key scale plus the secondary
coordinate), refines each sequence with a small selective-state-space
U-Net, and updates centroids by averaging the two per-axis offset
predictions of the planes covering each axis.  Every per-anchor linear map,
the offset heads included, runs on its plane's raster-ordered rows before
the result is scattered back to anchor order: BLAS results depend on a
row's position, so computing in a canonical order is what makes the head
bitwise equivariant under anchor permutations.  A raster order is a plain
index array, scattered back through its inverse permutation.  The planes'
rows live in one (3, N, F) buffer per call: each plane streams its embeds
and then its U-Net through row blocks (``_row_blocks``), the scan carrying
its state from block to block, and a block's three planes run on three
threads when ``_plane_workers`` allows.  Every product below a plane and in
the offset heads is a ``_product``: row blocks that OpenBLAS runs on the
calling thread, so plane threads never contend with BLAS threads and the
result is bitwise the same for any ``threads``.  After the final block
``run_head`` decodes the per-anchor attribute update (centroid offset,
log-scale delta, quaternion delta, opacity, semantics) with one matmul in
canonical order, scatters it back to anchor order once and applies it.

``splat_arrays`` rasterizes the primitives into a dense semantic volume:
each voxel accumulates opacity-weighted Gaussian densities times class
probabilities.  The grid is split into 8 x 8 x 8 voxel tiles (``TILE``); the
primitives are binned to the tiles their boxes meet.  Each tile sums its
(voxel, primitive) quadratic forms from three 2-D partial planes, as
(Pxy + Pyz) + Pxz, out of per-axis terms built in bulk for runs of
consecutive tiles under a byte budget (``_AXIS_RUN_BYTES``).  Its class
scores and density come from one stacked matmul of the densities with the
primitives' opacity-scaled [class probabilities | 1] rows, cut along the
primitives so no product passes OpenBLAS's threading cutoff
(``BLAS_THREAD_MNK``), and are assigned to the tile's voxels.  The grid is cut into
x-slabs of whole tile columns, one per worker process (at most ``threads``,
which the pipeline takes from ``GOC_THREADS``, and at most one per tile
column); each worker splats and labels its slab into one anonymous
mapping, so the result is bit-identical for any worker count.
``_fork_slabs`` runs the splat's and the eval's slab workers, alone decides
whether they fork or run in-process, and returns their values.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    GridSpec,
    ModelConfig,
    SemanticOccupancyGrid,
    _sigmoid,
    _softmax,
    _softplus,
    _usable_cores,
    make_covariance,
    normalize_quaternion,
)
from .errors import (
    ConfigurationError,
    DegenerateCovarianceError,
    SequenceTooShortError,
    SplatWorkerError,
)
from .params import AXIS_PLANES, PLANES, ParameterBundle

MIN_SPLAT_SCALE = 1e-6
DEFAULT_OCCUPANCY_THRESHOLD = 0.1

# Byte budget of one (tokens, F, N) time block in selective_scan, which
# allocates two such buffers per call.  Blocks that stay in a core's L2 cache
# scan fastest: on a 2 MB-L2 Xeon, twelve occ3d-sized scans (3200 x 128,
# N = 16) took 1.05-1.16 s with 0.5 MB blocks, 1.19-1.27 s with 1-2 MB blocks
# and 1.99 s with 16 MB blocks.
_SCAN_BLOCK_BYTES = 2**19

# Voxel tile (x, y, z) of the splat kernel: one stacked class-product matmul
# per tile.  On the dense-grid and occ3d splat inputs (64 x-planes, one
# process on a Xeon VM), tiles with 4 voxels on any axis were 8-20% slower,
# from per-tile overhead.  With the partial-plane kernel and its products cut
# at BLAS_THREAD_MNK, 8 x 8 x 16 took 0.724 s against 0.737 s on the whole
# dense-grid slab and 0.485 s against 0.499 s on occ3d's (in-process, median
# of 7, seed 3): 2-3%, within the spread of the runs.  It is not adopted,
# because it regroups each voxel's sum over primitives.
TILE = (8, 8, 8)

# m n k above which OpenBLAS 0.3.31, the build bundled with numpy 2.4, runs a
# GEMM on more than one thread.  Measured by counting a forked child's threads
# after one product: 64 x 868 x 18 and 100 x 100 x 100 left it at one thread,
# 64 x 869 x 18 and 100 x 100 x 101 started a second.  The splat's class
# products stay at or below it, so no forked worker starts BLAS threads, and
# so do the head's (``_product``), so its plane threads never wait on BLAS's.
BLAS_THREAD_MNK = 10**6

# m k from which the same OpenBLAS runs an (m, k) @ (k,) product (GEMV) on more
# than one thread, measured the same way: 3599 x 128 and 14399 x 32 kept one
# thread, 3600 x 128 and 14400 x 32 started a second.
BLAS_GEMV_THREAD_MK = 460_800

# Rows of one U-Net block (``mamba_unet_refine``) and of one embed block: a
# multiple of 32, so its bottleneck rows start at multiples of 8, and small
# enough that a block's temporaries stay near 3 MB at F = 128.
_UNET_BLOCK_ROWS = 512

# Anchors times feature width from which ``refine_features`` runs the three
# planes of a block on threads: where they break even.  run_head, one thread
# against three, on the seed-3 occ3d and dense-grid inputs cut to fewer anchors
# (2-vCPU VM, median of 15): F = 128, 2,048 anchors 0.097 vs 0.098 s and 4,096
# 0.184 vs 0.159 s; F = 32, 8,192 anchors 0.077 vs 0.079 s and 12,800 0.124 vs
# 0.119 s.  The per-token work is Python-bound at narrow widths.  The floor
# matters end to end: set to 0, perfbench's small workload (1,024 anchors,
# F = 32; seed 3, 3 runs each) went from run_s 0.032-0.035 to 0.040-0.044 s
# and from peak_rss_mb 49.3 to 53.1-53.4 MB.
_PLANE_THREAD_VALUES = 2**18

# Byte budget of the axis terms _splat_slab builds at once, for one run of
# consecutive tiles.  A (primitive, tile) row holds eight float64 terms per
# voxel of the tile's side: three along x and y, two along z.  Built for a whole
# dense-grid slab at once, they raised the workers' peak RSS from 247 to 337 MB.
_AXIS_RUN_BYTES = 2**20
_AXIS_ROW_BYTES = 8 * (3 * TILE[0] + 3 * TILE[1] + 2 * TILE[2])

# axis pairs backing each plane: (first coord, second coord); the second
# coordinate is the primary raster sort key
PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


@dataclass(frozen=True)
class SsmParams:
    """Diagonal selective-SSM parameters; A negative, step via softplus."""

    a: np.ndarray        # (F, N) negative reals
    w_b: np.ndarray      # (F, N) input -> state coupling projection
    w_c: np.ndarray      # (F, N) state -> output projection
    w_delta: np.ndarray  # (F, F) input -> step size projection
    b_delta: np.ndarray  # (F,)
    d_skip: np.ndarray   # (F,)

    def __post_init__(self):
        if np.any(self.a >= 0):
            raise ConfigurationError("SSM diagonal A must be strictly negative")

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle, prefix: str) -> "SsmParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted."""
        return cls(
            a=bundle.get(f"{prefix}.a"),
            w_b=bundle.get(f"{prefix}.wb"),
            w_c=bundle.get(f"{prefix}.wc"),
            w_delta=bundle.get(f"{prefix}.wdelta"),
            b_delta=bundle.get(f"{prefix}.bdelta"),
            d_skip=bundle.get(f"{prefix}.dskip"),
        )


@dataclass(frozen=True)
class PlaneEmbedParams:
    """2 -> F -> F coordinate MLP with its plane normalization window."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    center: np.ndarray
    half_extent: np.ndarray

    def __call__(self, coords: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The embeds of (T, 2) coordinates, into ``out`` when given; both products are ``_product``s."""
        normed = (np.asarray(coords, dtype=np.float64) - self.center) / self.half_extent
        hidden = _product(normed, self.w1)
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        out = _product(hidden, self.w2, out)
        out += self.b2
        return out


@dataclass(frozen=True)
class UnetParams:
    enc1: np.ndarray
    enc2: np.ndarray
    dec1: np.ndarray
    dec2: np.ndarray
    ssm: SsmParams


@dataclass(frozen=True)
class ConsensusParams:
    """Per (axis, covering plane) linear offset heads."""

    weights: dict  # (axis, plane) -> (F,) array
    biases: dict   # (axis, plane) -> float


@dataclass(frozen=True)
class DecodeParams:
    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class BlockParams:
    embed: dict       # plane -> PlaneEmbedParams
    unet: dict        # plane -> UnetParams
    consensus: ConsensusParams


@dataclass(frozen=True)
class HeadParams:
    blocks: tuple
    decode: DecodeParams
    omega: float

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle, model: ModelConfig, spec: GridSpec) -> "HeadParams":
        """Read from a bundle that ``params.validate_bundle`` has accepted.

        ``model`` gives the block count and ``spec`` the plane windows and raster key scale.
        """
        omega = 2.0 * float(np.max(spec.extent))
        blocks = []
        for b in range(model.head_blocks):
            embed, unet = {}, {}
            for plane in PLANES:
                pre = f"head.block{b}.{plane}"
                a0, a1 = PLANE_AXES[plane]
                center = np.array(
                    [spec.origin[a0] + spec.extent[a0] / 2, spec.origin[a1] + spec.extent[a1] / 2]
                )
                half = np.array([spec.extent[a0] / 2, spec.extent[a1] / 2])
                embed[plane] = PlaneEmbedParams(
                    w1=bundle.get(f"{pre}.embed.w1"),
                    b1=bundle.get(f"{pre}.embed.b1"),
                    w2=bundle.get(f"{pre}.embed.w2"),
                    b2=bundle.get(f"{pre}.embed.b2"),
                    center=center,
                    half_extent=half,
                )
                unet[plane] = UnetParams(
                    enc1=bundle.get(f"{pre}.unet.enc1.w"),
                    enc2=bundle.get(f"{pre}.unet.enc2.w"),
                    dec1=bundle.get(f"{pre}.unet.dec1.w"),
                    dec2=bundle.get(f"{pre}.unet.dec2.w"),
                    ssm=SsmParams.from_bundle(bundle, f"{pre}.ssm"),
                )
            weights = {
                (axis, plane): bundle.get(f"head.block{b}.psi.{axis}_{plane}.w")
                for axis, plane in AXIS_PLANES
            }
            biases = {
                (axis, plane): float(bundle.get(f"head.block{b}.psi.{axis}_{plane}.b"))
                for axis, plane in AXIS_PLANES
            }
            blocks.append(BlockParams(embed=embed, unet=unet, consensus=ConsensusParams(weights, biases)))
        decode = DecodeParams(
            w=bundle.get("head.decode.w"),
            b=bundle.get("head.decode.b"),
        )
        return cls(blocks=tuple(blocks), decode=decode, omega=omega)


def raster_serialize(coords: np.ndarray, omega: float) -> np.ndarray:
    """Anchor indices in stable ascending order of key = primary * omega + secondary.

    The primary coordinate is the second element of each pair (y for the xy
    plane); ties keep the original index order.
    """
    coords = np.asarray(coords, dtype=np.float64)
    secondary = coords[:, 0]
    spread = float(secondary.max() - secondary.min()) if len(secondary) else 0.0
    if omega <= spread:
        raise ConfigurationError(
            f"raster key scale {omega} must exceed the secondary coordinate spread {spread}"
        )
    keys = coords[:, 1] * omega + secondary
    return np.argsort(keys, kind="stable")


def _inverse_permutation(order: np.ndarray) -> np.ndarray:
    """The index array that scatters rows taken in ``order`` back to their places."""
    inverse = np.empty_like(order)
    inverse[order] = np.arange(len(order))
    return inverse


def zoh_discretize(a, b, delta, *, out=None):
    """Zero-order-hold discretization of dh/dt = a h + b x over step delta.

    With z = delta * a, Abar = exp(z) and Bbar = (Abar - 1) / a * b, computed
    as expm1(z) / a * b: accurate for small |z|, and 0 at z = 0.  ``a`` must
    be nonzero (``SsmParams`` holds it negative).  Without ``out`` a call
    allocates its two outputs; they broadcast over any shapes, and 0-d
    inputs give scalars.  With ``out=(abar, bbar)``, two float64 arrays of
    the broadcast shape of all three inputs, z and then Abar are written into
    ``abar`` and Bbar into ``bbar``, and those two arrays are returned.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if out is None:
        z = np.asarray(delta * a)
        bbar = np.empty(np.broadcast_shapes(z.shape, b.shape))
    else:
        z, bbar = out
        np.multiply(delta, a, out=z)
    np.expm1(z, out=bbar)
    bbar /= a
    bbar *= b
    np.exp(z, out=z)
    return (z, bbar) if out is not None else (z[()], bbar[()])


def selective_scan(tokens: np.ndarray, params: SsmParams, state: np.ndarray | None = None) -> np.ndarray:
    """Input-dependent diagonal SSM recurrence over a T x F sequence.

    Per token: delta = softplus(x W_delta + b_delta), state input B = x W_b,
    readout C = x W_c; h_t = Abar_t h_{t-1} + Bbar_t x_t with h_0 = ``state``
    (zeros when not given) and
    y_t = C_t . h_t + D_skip x_t; ``zoh_discretize`` gives Abar_t = exp(delta_t a)
    and Bbar_t = expm1(delta_t a) / a B_t, for nonzero a.  The sequence is
    processed in time blocks of max(1, _SCAN_BLOCK_BYTES // (8 F N)) tokens, so that a block's
    (tokens, F, N) state stays in a core's L2 cache.  Two block buffers are
    allocated once per call and reused by every block: ``zoh_discretize``
    writes z, then Abar, into the first and Bbar into the second; Bbar_t x_t
    is folded into the second in place, and the only per-token work is the
    state update h_t = Abar_t h_{t-1} + (Bbar_t x_t), which writes
    Abar_t h_{t-1} over Abar_t and the state over Bbar_t x_t.  The C readout
    is then one batched matmul over the block's states and the D skip is
    added for the whole block.  The state carries across blocks in its own
    array, never as a view of a buffer that the next block overwrites; a
    given (F, N) ``state`` is that array, so it holds h_T on return and calls
    over consecutive pieces of a sequence scan it bitwise as one call does.
    The three projections are ``_product``s.  The recurrence itself is
    sequential, so any evaluation strategy must reproduce the plain
    per-token recurrence.
    """
    x = np.asarray(tokens, dtype=np.float64)
    t_total, f = x.shape
    n = params.a.shape[1]
    delta = _softplus(_product(x, params.w_delta) + params.b_delta)
    b_in = _product(x, params.w_b)
    c_out = _product(x, params.w_c)
    h = np.zeros((f, n)) if state is None else state
    y = np.empty_like(x)
    block = max(1, min(t_total, _SCAN_BLOCK_BYTES // (8 * f * n)))
    abar_buf, states_buf = np.empty((block, f, n)), np.empty((block, f, n))
    for start in range(0, t_total, block):
        stop = min(start + block, t_total)
        abar, states = zoh_discretize(
            params.a[None], b_in[start:stop, None, :], delta[start:stop, :, None],
            out=(abar_buf[: stop - start], states_buf[: stop - start]),
        )
        states *= x[start:stop, :, None]
        prev = h
        for abar_t, state_t in zip(abar, states):
            np.multiply(abar_t, prev, out=abar_t)
            state_t += abar_t
            prev = state_t
        h[...] = prev
        y[start:stop] = np.matmul(states, c_out[start:stop, :, None])[..., 0]
        y[start:stop] += params.d_skip * x[start:stop]
    return y


def _avg_pool2(x: np.ndarray) -> np.ndarray:
    t = x.shape[0]
    pairs = t // 2
    pooled = np.empty((t - pairs,) + x.shape[1:])
    np.add(x[0 : 2 * pairs : 2], x[1 : 2 * pairs : 2], out=pooled[:pairs])
    pooled[:pairs] /= 2.0
    if t % 2:
        pooled[pairs] = x[-1]
    return pooled


def _unpool2(x: np.ndarray, target_len: int) -> np.ndarray:
    return np.repeat(x, 2, axis=0)[:target_len]


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Cuts of [0, n) into blocks of ``_UNET_BLOCK_ROWS``, a last block under 5 rows joined to the one before.

    Pooled twice, such a block would leave one-row products, which numpy
    runs through gemv, not gemm, with other bits than the whole sequence's.
    """
    starts = list(range(0, n, _UNET_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] < 5:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _product(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ w in row blocks that OpenBLAS runs on the calling thread, into ``out`` when given.

    A block has a multiple of 8 rows (at least 8) and at most
    ``BLAS_THREAD_MNK`` multiply-adds for a matrix ``w``, or fewer than
    ``BLAS_GEMV_THREAD_MK`` for a vector ``w``.  A one-row last block would
    go through gemv, so the cut before it moves back 8 rows.  The result has
    the bits of the whole product on one BLAS thread (tests/test_head.py);
    a whole matrix-vector product that OpenBLAS splits over threads can
    round the last rows of a thread's share differently.
    """
    m, k = x.shape
    rows = BLAS_THREAD_MNK // (k * w.shape[1]) if w.ndim == 2 else (BLAS_GEMV_THREAD_MK - 1) // k
    rows = max(8, rows // 8 * 8)
    if out is None:
        out = np.empty((m,) + w.shape[1:])
    cuts = list(range(0, m, rows)) + [m]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        cuts[-2] -= 8
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        np.matmul(x[lo:hi], w, out=out[lo:hi])
    return out


def mamba_unet_refine(tokens: np.ndarray, params: UnetParams, out: np.ndarray | None = None) -> np.ndarray:
    """Two-level pooled encoder, selective-scan bottleneck, unpooling decoder
    with additive skips; output length equals input length.

    The sequence is walked in ``_row_blocks``: each block is pooled,
    encoded, scanned from the state the block before left, decoded and
    written into ``out`` (allocated when not given; it may be ``tokens``
    itself), so only one block's temporaries are held.  Blocks start at
    multiples of 32 rows, so both pooling levels pair the rows the whole
    sequence pairs, and every product is a ``_product``: the output is
    bitwise equal to the U-Net over the whole sequence at once.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.shape[0] < 4:
        raise SequenceTooShortError(f"refiner needs at least 4 tokens, got {x.shape[0]}")
    if out is None:
        out = np.empty_like(x)
    state = np.zeros(params.ssm.a.shape)
    for lo, hi in _row_blocks(x.shape[0]):
        e1 = _product(_avg_pool2(x[lo:hi]), params.enc1)
        e2 = _product(_avg_pool2(e1), params.enc2)
        bottom = selective_scan(e2, params.ssm, state)
        d1 = _product(_unpool2(bottom, e1.shape[0]), params.dec1)
        d1 += e1
        d0 = _product(_unpool2(d1, hi - lo), params.dec2)
        np.add(d0, x[lo:hi], out=out[lo:hi])
    return out


def consensus_update(centroids: np.ndarray, planes: dict, params: ConsensusParams) -> np.ndarray:
    """Average the two per-axis offset predictions from each axis's covering planes.

    ``planes`` maps each plane to (refined rows in that plane's raster order,
    inverse permutation).  Each offset head runs on the raster-ordered rows
    and its output is then scattered back to anchor order, so a permutation
    of the anchors permutes the offsets bit-exactly (see the module
    docstring).
    """

    def head(axis, plane):
        rows, inverse = planes[plane]
        return (_product(rows, params.weights[(axis, plane)]) + params.biases[(axis, plane)])[inverse]

    offset = 0.5 * np.stack(
        [
            head("x", "xy") + head("x", "xz"),
            head("y", "xy") + head("y", "yz"),
            head("z", "xz") + head("z", "yz"),
        ],
        axis=-1,
    )
    return np.asarray(centroids, dtype=np.float64) + offset


def _plane_workers(threads: int, anchors: int, width: int) -> int:
    """Threads refining a block's planes: one per plane when ``threads`` and the usable cores
    are both at least 2 and anchors x ``width`` reach ``_PLANE_THREAD_VALUES``, else 1."""
    if min(int(threads), _usable_cores()) >= 2 and anchors * width >= _PLANE_THREAD_VALUES:
        return len(PLANES)
    return 1


def _refine_plane(block: BlockParams, plane: str, centroids, features, rows: np.ndarray, omega: float):
    """One plane of a block, into ``rows``: the raster-ordered embeds plus features, refined in place.

    Returns (``rows``, inverse permutation of the plane's raster order).
    """
    coords = centroids[:, PLANE_AXES[plane]]
    order = raster_serialize(coords, omega)
    for lo, hi in _row_blocks(len(order)):
        block.embed[plane](coords[order[lo:hi]], out=rows[lo:hi])
        rows[lo:hi] += features[order[lo:hi]]
    mamba_unet_refine(rows, block.unet[plane], out=rows)
    return rows, _inverse_permutation(order)


def refine_features(centroids: np.ndarray, features: np.ndarray, params: HeadParams, *, threads: int = 1):
    """Run every refinement block; returns updated (centroids, features).

    All per-anchor linear maps run in each plane's raster-sorted order, which
    is canonical for coordinate-distinct anchor sets, so permuting the input
    anchors permutes the outputs bit-exactly (BLAS kernels are sensitive to
    row position, never to row content).  One (3, N, F) buffer per call
    holds the planes' rows: each plane streams its embeds plus gathered
    features into its slice in ``_row_blocks`` and refines the slice in
    place.  The planes of a block are independent until ``consensus_update``,
    so with ``_plane_workers(threads, N, F)`` = 3 they run on a pool of three
    threads, created here and shut down before this returns (the splat's
    ``os.fork`` never copies a live pool).  Every product below a plane is a
    ``_product``, which OpenBLAS runs on the calling thread, so the result
    is bitwise the same for any ``threads``.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    rows = np.empty((len(PLANES),) + features.shape)
    pool = ThreadPoolExecutor(len(PLANES)) if _plane_workers(threads, *features.shape) > 1 else None
    try:
        for block in params.blocks:
            def refine(p: int):
                return _refine_plane(block, PLANES[p], centroids, features, rows[p], params.omega)

            planes = dict(zip(PLANES, (pool.map if pool else map)(refine, range(len(PLANES)))))
            centroids = consensus_update(centroids, planes, block.consensus)
            features = planes["xy"][0][planes["xy"][1]]
            features += planes["xz"][0][planes["xz"][1]]
            features += planes["yz"][0][planes["yz"][1]]
            features /= 3.0
    finally:
        if pool:
            pool.shutdown()
    return centroids, features


def run_head(arrays: dict, params: HeadParams, semantic_classes: int, *, threads: int = 1) -> dict:
    """Full head: block refinement, then one linear decode of the attribute update.

    Each anchor's 11 + C_sem decoded channels are a centroid offset (3), a
    log-scale delta (3), a quaternion delta (4), an opacity logit (1) and
    the semantic logits.  The decode runs in lexicographic centroid order
    (canonical for distinct coordinates) and scatters back, for the same
    bitwise-equivariance reason as the block refiner.  Centroid, log-scale
    and rotation are updated residually (the rotation renormalized);
    opacity and semantic logits are overwritten.  ``threads`` is
    ``refine_features``' request; the decode is one whole product.
    """
    centroids, features = refine_features(arrays["centroid"], arrays["feature"], params, threads=threads)
    canonical = np.lexsort((centroids[:, 2], centroids[:, 0], centroids[:, 1]))
    raw = features[canonical] @ params.decode.w + params.decode.b
    if raw.shape[-1] != 11 + semantic_classes:
        raise ConfigurationError(
            f"decode width {raw.shape[-1]} does not match 11 + {semantic_classes} classes"
        )
    raw = raw[_inverse_permutation(canonical)]
    out = dict(arrays)
    out["centroid"] = centroids + raw[:, 0:3]
    out["log_scale"] = arrays["log_scale"] + raw[:, 3:6]
    out["rotation"] = normalize_quaternion(arrays["rotation"] + raw[:, 6:10])
    out["opacity_logit"] = raw[:, 10].copy()
    out["semantic_logits"] = raw[:, 11:].copy()
    out["feature"] = features
    return out


@dataclass(frozen=True)
class _SplatInputs:
    """Per-primitive splat inputs; ``lo``/``hi`` bound each primitive's voxel box, clipped to the grid."""

    spec: GridSpec
    centroid: np.ndarray     # (N, 3)
    inv_sigma: np.ndarray    # (N, 3, 3)
    lo: np.ndarray           # (N, 3) first voxel index per axis
    hi: np.ndarray           # (N, 3) last voxel index per axis (lo > hi: empty)
    opacity: np.ndarray      # (N,)
    class_probs: np.ndarray  # (N, C)
    radius_sq: float


def _splat_inputs(arrays: dict, spec: GridSpec, truncation_radius_sigmas: float) -> _SplatInputs:
    """Validate the primitives and derive what the slab kernel reads."""
    if not 1 <= truncation_radius_sigmas < np.inf:  # also rejects NaN
        raise ConfigurationError("truncation radius must be finite and >= 1 sigma", field="truncation_sigmas")
    centroids = np.asarray(arrays["centroid"], dtype=np.float64)
    scales = np.exp(np.asarray(arrays["log_scale"], dtype=np.float64))
    tiny = scales < MIN_SPLAT_SCALE
    if tiny.any():
        idx = int(np.argwhere(tiny.any(axis=1))[0, 0])
        raise DegenerateCovarianceError(
            f"primitive {idx} has scale below {MIN_SPLAT_SCALE} m; covariance is singular"
        )
    rotations = np.asarray(arrays["rotation"], dtype=np.float64)
    class_probs = _softmax(np.asarray(arrays["semantic_logits"], dtype=np.float64))
    sigma = make_covariance(scales, rotations)
    half_extents = truncation_radius_sigmas * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
    last = np.asarray(spec.dims) - 1
    lo = np.ceil((centroids - half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    hi = np.floor((centroids + half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    return _SplatInputs(
        spec=spec,
        centroid=centroids,
        inv_sigma=make_covariance(1.0 / scales, rotations),  # R diag(s^-2) R^T
        lo=np.clip(lo, 0, last),
        hi=np.clip(hi, 0, last),
        opacity=_sigmoid(np.asarray(arrays["opacity_logit"], dtype=np.float64)),
        class_probs=class_probs,
        radius_sq=float(truncation_radius_sigmas) ** 2,
    )


def _splat_slab(x_lo: int, x_hi: int, inputs: _SplatInputs, density: np.ndarray, scores: np.ndarray):
    """Write every primitive's densities into the voxel slab [x_lo, x_hi), one ``TILE`` at a time.

    Tiles are anchored at multiples of ``TILE`` and clipped to the slab and
    the grid.  Each primitive whose clipped voxel box meets the slab is
    binned to every tile its box meets; a stable sort on the tile id keeps
    each tile's P primitives in ascending index order.  Consecutive tiles
    form runs whose axis terms fit ``_AXIS_RUN_BYTES`` (a tile with more rows
    is a run of its own).  For all (primitive, tile) rows of a run at once,
    the per-axis terms are (TILE[a], rows) arrays: the deltas dy and dz; the
    squared terms xx = m00 dx^2, yy = m11 dy^2 and zz = m22 dz^2, -inf where
    the voxel lies outside the primitive's box; and the cross coefficients
    times the deltas, 2 m01 dx, 2 m02 dx and 2 m12 dy.  Each carries the -1/2
    of exp(-q/2), an exact power-of-two scaling.  Per tile, three partial
    planes Pxy = (xx + yy) + (2 m01 dx) dy, Pyz = zz + (2 m12 dy) dz and
    Pxz = (2 m02 dx) dz give the form as (Pxy + Pyz) + Pxz: one write and one
    read-modify-write of the (tx, ty, tz, P) block.  Pairs beyond the
    truncation radius (the box included) are raised to -radius^2 / 2 before
    the exp, which keeps numpy's exp on its fast path, and are then zeroed by
    the radius mask.  Opacity scales the [class_probs | 1] rows once per
    slab, so the class product, one stacked matmul of the (tx, ty tz, P)
    densities with those rows, yields the scores and the density together;
    it is cut along P into blocks of at most ``BLAS_THREAD_MNK``
    multiply-adds, summed in block order.  The matmul reassociates each
    voxel's sum over primitives, so a voxel matches the per-primitive loop to
    rounding, not bitwise; a primitive alone gets the bits of a per-primitive
    loop in the same grouping.  Tiles partition the grid and a sum of
    non-negative products is never -0.0, so each tile's result is assigned to
    its voxels of the zeroed buffers, not added.  A voxel's result depends
    only on its tile, not on the runs or the slab, so any slab cut along tile
    boundaries gives the same bits.
    """
    spec, lo, hi = inputs.spec, inputs.lo.copy(), inputs.hi.copy()
    np.maximum(lo[:, 0], x_lo, out=lo[:, 0])
    np.minimum(hi[:, 0], x_hi - 1, out=hi[:, 0])
    keep = np.flatnonzero(np.all(lo <= hi, axis=1))
    if not len(keep):
        return
    lo, hi = lo[keep], hi[keep]
    # every (primitive, tile) pair, primitive-major, then stably sorted by tile
    first, span = lo // TILE, hi // TILE - lo // TILE + 1
    count = span.prod(axis=1)
    rows = np.repeat(np.arange(len(keep)), count)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    sy, sz = span[rows, 1], span[rows, 2]
    offset = np.stack([rank // (sy * sz), rank // sz % sy, rank % sz])
    tiles_per_axis = -(-np.asarray(spec.dims) // TILE)
    tile = np.ravel_multi_index(first[rows].T + offset, tiles_per_axis)
    order = np.argsort(tile, kind="stable")
    tile, rows = tile[order], rows[order]
    del rank, sy, sz, offset, order  # 56 bytes per (primitive, tile) row, not held through the tile loop
    starts = np.flatnonzero(np.diff(tile, prepend=-1))
    stops = np.append(starts[1:], len(tile))
    corner = np.multiply(np.unravel_index(tile[starts], tiles_per_axis), np.asarray(TILE)[:, None])
    end = np.minimum(corner + np.asarray(TILE)[:, None], np.array([[x_hi], [spec.dims[1]], [spec.dims[2]]]))
    np.maximum(corner[0], x_lo, out=corner[0])
    tiles = list(zip(
        starts.tolist(), stops.tolist(),
        corner[0].tolist(), end[0].tolist(), corner[1].tolist(), end[1].tolist(), corner[2].tolist(), end[2].tolist(),
    ))
    c, m = inputs.centroid[keep], inputs.inv_sigma[keep]
    # per primitive: m00, 2 m01, 2 m02; m11, 2 m12; m22, each times -1/2
    coef = np.stack([-0.5 * m[:, 0, 0], -m[:, 0, 1], -m[:, 0, 2], -0.5 * m[:, 1, 1], -m[:, 1, 2], -0.5 * m[:, 2, 2]])
    probs1 = np.concatenate([inputs.class_probs[keep], np.ones((len(keep), 1))], axis=1)
    probs1 *= inputs.opacity[keep, None]
    c_sem = probs1.shape[1] - 1
    # each tile's voxel centres per axis, (TILE[a], tiles); a clipped tile's pad is never read
    tile_centers = [np.concatenate([axis, np.zeros(t)])[corner[a] + np.arange(t)[:, None]]
                    for a, (axis, t) in enumerate(zip(spec.axis_centers, TILE))]
    floor = -0.5 * inputs.radius_sq
    counts = stops - starts
    tx, ty, tz, most = *TILE, int(counts.max())
    quad_buf, xy_buf, cross_buf, yz_buf, xz_buf = (np.empty(size * most) for size in (
        tx * ty * tz, tx * ty, tx * ty, ty * tz, tx * tz))
    run_rows = max(1, _AXIS_RUN_BYTES // _AXIS_ROW_BYTES)

    def axis_terms(a, t0, t1, prim, sq_coef, *cross_coefs):
        """(TILE[a], rows) arrays: the -inf-masked squared term, each cross coefficient times the delta, the delta."""
        delta = np.repeat(tile_centers[a][:, t0:t1], counts[t0:t1], axis=1)
        delta -= c[prim, a]
        sq = coef[sq_coef, prim] * delta**2
        first = np.repeat(corner[a, t0:t1], counts[t0:t1])  # each row's first voxel
        step = np.arange(TILE[a])[:, None]
        np.copyto(sq, -np.inf, where=(step < lo[prim, a] - first) | (step > hi[prim, a] - first))
        return sq, *(coef[k, prim] * delta for k in cross_coefs), delta

    for t0, t1 in _tile_runs(starts, stops, run_rows):
        r0 = int(starts[t0])
        prim = rows[r0 : stops[t1 - 1]]
        xx, mxy, mxz = axis_terms(0, t0, t1, prim, 0, 1, 2)[:3]
        yy, myz, dy = axis_terms(1, t0, t1, prim, 3, 4)
        zz, dz = axis_terms(2, t0, t1, prim, 5)
        probs = probs1[prim]
        for start, stop, x0, x1, y0, y1, z0, z1 in tiles[t0:t1]:
            p = slice(start - r0, stop - r0)
            shape = (x1 - x0, y1 - y0, z1 - z0, stop - start)
            nx, ny, nz, n = shape
            # the form as (Pxy + Pyz) + Pxz, each partial plane summed in the order written
            pxy = np.add(xx[:nx, None, p], yy[None, :ny, p], out=xy_buf[: nx * ny * n].reshape(nx, ny, n))
            pxy += np.multiply(mxy[:nx, None, p], dy[None, :ny, p], out=cross_buf[: nx * ny * n].reshape(nx, ny, n))
            pyz = np.multiply(myz[:ny, None, p], dz[None, :nz, p], out=yz_buf[: ny * nz * n].reshape(ny, nz, n))
            pyz += zz[:nz, p]
            pxz = np.multiply(mxz[:nx, None, p], dz[None, :nz, p], out=xz_buf[: nx * nz * n].reshape(nx, nz, n))
            quad = np.add(pxy[:, :, None], pyz, out=quad_buf[: nx * ny * nz * n].reshape(shape))
            quad += pxz[:, None]
            inside = quad >= floor
            np.maximum(quad, floor, out=quad)
            dens = np.exp(quad, out=quad)
            dens *= inside
            # A stack of (ty tz, P) @ (P, c_sem + 1) products, not one (tx ty tz, P)
            # product, each cut along P into blocks of at most BLAS_THREAD_MNK
            # multiply-adds that are summed in block order: a threaded product
            # would start BLAS threads in every forked worker.  With two workers
            # on a 2-vCPU Xeon VM the occ3d splat (P <= 140) took 1.64 s instead
            # of 0.48 s with one 512-row product per tile (threaded from P = 109
            # on).  Uncut, kitti's splat (P up to 1,582) took 14.6-86.5 s, against
            # 4.9 s with one BLAS thread; cut, it takes 3.1-3.8 s.
            dens, rows_p = dens.reshape(nx, ny * nz, n), probs[p]
            block = max(1, BLAS_THREAD_MNK // (ny * nz * (c_sem + 1)))
            out = np.matmul(dens[..., :block], rows_p[:block])
            for k in range(block, n, block):
                out += np.matmul(dens[..., k : k + block], rows_p[k : k + block])
            box = (slice(x0, x1), slice(y0, y1), slice(z0, z1))
            scores[box] = out[..., :c_sem].reshape(shape[:3] + (c_sem,))
            density[box] = out[..., c_sem].reshape(shape[:3])


def _tile_runs(starts: np.ndarray, stops: np.ndarray, run_rows: int):
    """Cut tiles (row ``starts``/``stops``) into runs ``(t0, t1)``: from t0, the tiles that fit ``run_rows`` rows, at least one."""
    t0 = 0
    while t0 < len(starts):
        t1 = max(t0 + 1, int(np.searchsorted(stops, starts[t0] + run_rows, side="right")))
        yield t0, t1
        t0 = t1


def _label_slab(x_lo: int, x_hi: int, density: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                threshold: float):
    """Argmax class where the density clears ``threshold``, else empty (``c_sem``), one x-plane at a time."""
    c_sem = scores.shape[-1]
    for x in range(x_lo, x_hi):
        labels[x] = np.where(density[x] >= threshold, np.argmax(scores[x], axis=-1), c_sem)


def _worker_count(threads: int, x_dim: int) -> int:
    """Splat workers: at most ``threads``, the usable cores and one per column of tiles along x.

    One without ``os.fork``, where ``_fork_slabs`` runs every slab in-process.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(int(threads), _usable_cores(), -(-x_dim // TILE[0])))


def _slab_bounds(x_dim: int, slabs: int) -> list[int]:
    """Cuts of [0, x_dim) into ``slabs`` runs of whole tile columns, as even as the columns allow."""
    columns = np.linspace(0, -(-x_dim // TILE[0]), slabs + 1).astype(int)
    return np.minimum(columns * TILE[0], x_dim).tolist()


def _grid_buffers(dims: tuple, c_sem: int):
    """Zeroed density and scores plus the u8 labels, views of one anonymous mapping that workers share."""
    voxels = int(np.prod(dims))
    buf = mmap.mmap(-1, voxels * (8 + 8 * c_sem + 1))
    density = np.frombuffer(buf, dtype=np.float64, count=voxels).reshape(dims)
    scores = np.frombuffer(buf, dtype=np.float64, count=voxels * c_sem, offset=8 * voxels)
    labels = np.frombuffer(buf, dtype=np.uint8, count=voxels, offset=8 * voxels * (1 + c_sem))
    return density, scores.reshape(dims + (c_sem,)), labels.reshape(dims)


def _fork_slabs(bounds: list[int], fill, stage: str = "splat") -> list:
    """Run ``fill(x_lo, x_hi)`` for each slab; return what each returned, in slab order.

    With one slab, or without ``os.fork``, each slab runs here in slab order:
    its value is returned as is and an exception propagates as is.  Otherwise
    each runs in its own forked child, which pickles ``fill``'s value (None
    if it only writes shared memory) into a pipe; the parent reads each pipe
    to its end before reaping the child, in slab order, so a value larger
    than the pipe buffer cannot deadlock, and unpickles the values once
    every child is reaped.  A child always leaves through ``os._exit``, with
    status 0 only if its slab is complete and its value pickled; a failure's
    message reaches the parent through the same pipe.  The children start
    with SIGINT blocked, so an interrupt reaches the parent only.  If a child fails, a fork fails or the wait is
    interrupted, every child still running is killed and every child is
    reaped before a ``SplatWorkerError`` naming ``stage`` and the slab
    propagates.  The children may call BLAS (the splat's per-tile class
    products); forking while the parent's BLAS threads exist is safe because
    OpenBLAS shuts its thread pool down before a fork and a child starts its
    own only if one of its products is large enough to be threaded.
    """
    slabs = list(zip(bounds[:-1], bounds[1:]))
    if len(slabs) < 2 or not hasattr(os, "fork"):
        return [fill(*slab) for slab in slabs]
    children = []  # [pid or None once reaped, read end of its pipe, slab]
    payloads = []
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for slab in slabs:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    view = memoryview(pickle.dumps(fill(*slab)))
                    while view:
                        view = view[os.write(write_fd, view):]
                    status = 0
                except BaseException as exc:  # the child reports and exits, never unwinds
                    os.write(write_fd, f"{type(exc).__name__}: {exc}".encode()[:4096])
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append([pid, read_fd, slab])
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for child in children:
            pid, read_fd, (x_lo, x_hi) = child
            chunks = []
            while chunk := os.read(read_fd, 2**20):
                chunks.append(chunk)
            data = b"".join(chunks)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if code != 0:
                message = data[-4096:].decode(errors="replace") or f"exit code {code}"
                raise SplatWorkerError(
                    f"{stage} worker of x-slab [{x_lo}, {x_hi}) failed: {message}", (x_lo, x_hi)
                )
            payloads.append(data)
    except KeyboardInterrupt:
        running = [slab for pid, _, slab in children if pid is not None]
        if not running:
            raise
        x_lo, x_hi = running[0]
        raise SplatWorkerError(
            f"interrupted while waiting for the {stage} worker of x-slab [{x_lo}, {x_hi})", (x_lo, x_hi)
        ) from None
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid, read_fd, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read_fd)
    return [pickle.loads(data) for data in payloads]


def splat_arrays(
    arrays: dict,
    spec: GridSpec,
    truncation_radius_sigmas: float,
    *,
    occupancy_threshold: float = DEFAULT_OCCUPANCY_THRESHOLD,
    threads: int = 1,
) -> SemanticOccupancyGrid:
    """Rasterize struct-of-arrays primitives into a labelled grid with per-class scores.

    Each voxel center within ``truncation_radius_sigmas`` Mahalanobis units
    of a primitive accumulates sigmoid(opacity) * exp(-quad/2) times the
    primitive's softmax class probabilities, one score channel per semantic
    class.  Voxels whose total density clears the occupancy threshold take
    the argmax semantic class; the rest are empty (id ``c_sem``).
    Primitives with any axis scale below 1e-6 m are rejected as
    degenerate.  Zero rows give an all-empty grid.

    The grid is evaluated in ``TILE``-sized voxel tiles, each with one
    stacked class-product matmul over the primitives whose boxes meet it
    (cut along them below ``BLAS_THREAD_MNK``), so a voxel's sums agree
    with a per-primitive loop to rounding.
    ``threads`` caps the worker processes (pipeline: ``GOC_THREADS``,
    passed unclamped); ``_worker_count`` clamps it to the usable cores and
    to one worker per column of tiles along x (to one without ``os.fork``),
    and is the only clamp.  Each
    worker splats one x-slab of whole tile columns and labels it, writing
    into one anonymous mapping whose views are the returned grid's arrays;
    ``_fork_slabs`` runs the workers, forked or in-process, and the parent
    only waits for forked ones.  Each tile lies in exactly one slab
    and is computed from its own primitive list, in ascending index order,
    so results are bit-identical for any worker count.  A failed or
    interrupted worker raises ``SplatWorkerError`` naming its slab, after
    every child has been reaped.
    """
    inputs = _splat_inputs(arrays, spec, truncation_radius_sigmas)
    c_sem = inputs.class_probs.shape[1]
    density, scores, labels = _grid_buffers(spec.dims, c_sem)

    def fill(x_lo: int, x_hi: int):
        _splat_slab(x_lo, x_hi, inputs, density, scores)
        _label_slab(x_lo, x_hi, density, scores, labels, occupancy_threshold)

    _fork_slabs(_slab_bounds(spec.dims[0], _worker_count(threads, spec.dims[0])), fill)
    return SemanticOccupancyGrid(spec=spec, labels=labels, scores=scores)
