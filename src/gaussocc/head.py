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
index array, scattered back through its inverse permutation.  After the
final block ``run_head`` decodes the per-anchor attribute update (centroid
offset, log-scale delta, quaternion delta, opacity, semantics) with one
matmul in canonical order, scatters it back to anchor order once and
applies it.

``splat_arrays`` rasterizes the primitives into a dense semantic volume:
each voxel accumulates opacity-weighted Gaussian densities times class
probabilities.  The grid is split into 8 x 8 x 8 voxel tiles (``TILE``); the
primitives are binned to the tiles their boxes meet, and each tile's class
scores and density come from one stacked matmul of its (voxel, primitive)
densities with the primitives' class probabilities.  The grid is cut into
x-slabs of whole tile columns, one per worker process (at most ``threads``,
which the pipeline takes from ``GOC_THREADS``, and at most one per tile
column); each forked worker splats and labels its slab into a shared
mapping, so the result is bit-identical for any worker count.
"""

from __future__ import annotations

import mmap
import os
import signal
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
ZOH_SERIES_CUTOFF = 1e-4

# Byte budget of one (tokens, F, N) time block in selective_scan, which
# allocates two such buffers per call.  Blocks that stay in a core's L2 cache
# scan fastest: on a 2 MB-L2 Xeon, twelve occ3d-sized scans (3200 x 128,
# N = 16) took 1.05-1.16 s with 0.5 MB blocks, 1.19-1.27 s with 1-2 MB blocks
# and 1.99 s with 16 MB blocks.
_SCAN_BLOCK_BYTES = 2**19

# Voxel tile (x, y, z) of the splat kernel: one stacked class-product matmul
# per tile.  On the dense-grid and occ3d splat inputs (64 x-planes, one
# process on a Xeon VM), tiles with 4 voxels on any axis were 8-20% slower,
# from per-tile overhead; 8 x 8 x 16 was 5-9% faster, but its 128-row
# products reach OpenBLAS's threading cutoff at half the primitive count
# (see _splat_slab).
TILE = (8, 8, 8)

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

    @property
    def feature_width(self) -> int:
        return self.a.shape[0]

    @classmethod
    def from_bundle(cls, bundle: ParameterBundle, prefix: str, f: int, n: int) -> "SsmParams":
        return cls(
            a=bundle.get(f"{prefix}.a", (f, n)),
            w_b=bundle.get(f"{prefix}.wb", (f, n)),
            w_c=bundle.get(f"{prefix}.wc", (f, n)),
            w_delta=bundle.get(f"{prefix}.wdelta", (f, f)),
            b_delta=bundle.get(f"{prefix}.bdelta", (f,)),
            d_skip=bundle.get(f"{prefix}.dskip", (f,)),
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

    def __call__(self, coords: np.ndarray) -> np.ndarray:
        normed = (np.asarray(coords, dtype=np.float64) - self.center) / self.half_extent
        hidden = normed @ self.w1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        out = hidden @ self.w2
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
        f, n = model.feature_width, model.state_width
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
                    w1=bundle.get(f"{pre}.embed.w1", (2, f)),
                    b1=bundle.get(f"{pre}.embed.b1", (f,)),
                    w2=bundle.get(f"{pre}.embed.w2", (f, f)),
                    b2=bundle.get(f"{pre}.embed.b2", (f,)),
                    center=center,
                    half_extent=half,
                )
                unet[plane] = UnetParams(
                    enc1=bundle.get(f"{pre}.unet.enc1.w", (f, f)),
                    enc2=bundle.get(f"{pre}.unet.enc2.w", (f, f)),
                    dec1=bundle.get(f"{pre}.unet.dec1.w", (f, f)),
                    dec2=bundle.get(f"{pre}.unet.dec2.w", (f, f)),
                    ssm=SsmParams.from_bundle(bundle, f"{pre}.ssm", f, n),
                )
            weights = {
                (axis, plane): bundle.get(f"head.block{b}.psi.{axis}_{plane}.w", (f,))
                for axis, plane in AXIS_PLANES
            }
            biases = {
                (axis, plane): float(bundle.get(f"head.block{b}.psi.{axis}_{plane}.b", ()))
                for axis, plane in AXIS_PLANES
            }
            blocks.append(BlockParams(embed=embed, unet=unet, consensus=ConsensusParams(weights, biases)))
        decode = DecodeParams(
            w=bundle.get("head.decode.w", (f, model.decode_width)),
            b=bundle.get("head.decode.b", (model.decode_width,)),
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

    Abar = exp(z) and Bbar = ((Abar - 1) / a) b = (expm1(z) / z) delta b, with
    z = delta * a.  expm1(z) / z is computed once, straight into the Bbar
    buffer; the truncated series 1 + z/2 + z^2/6 + z^3/24 is then evaluated
    only on the entries with |z| < 1e-4, if there are any, and written over
    them, so z == 0 yields 1 and neither a NaN nor a warning.  Bbar is scaled
    by delta and b in place and Abar overwrites z.  Without ``out`` a call
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
    np.abs(z, out=bbar)
    small = bbar < ZOH_SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.expm1(z, out=bbar), z, out=bbar)
    if small.any():
        zs = np.broadcast_to(z, bbar.shape)[small]
        bbar[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    bbar *= delta
    bbar *= b
    np.exp(z, out=z)
    return (z, bbar) if out is not None else (z[()], bbar[()])


def selective_scan(tokens: np.ndarray, params: SsmParams) -> np.ndarray:
    """Input-dependent diagonal SSM recurrence over a T x F sequence.

    Per token: delta = softplus(x W_delta + b_delta), state input B = x W_b,
    readout C = x W_c; h_t = Abar_t h_{t-1} + Bbar_t x_t with h_0 = 0 and
    y_t = C_t . h_t + D_skip x_t.  The sequence is processed in time blocks
    of max(1, _SCAN_BLOCK_BYTES // (8 F N)) tokens, so that a block's
    (tokens, F, N) state stays in a core's L2 cache.  Two block buffers are
    allocated once per call and reused by every block: ``zoh_discretize``
    writes z, then Abar, into the first and Bbar into the second; Bbar_t x_t
    is folded into the second in place, and the only per-token work is the
    state update h_t = Abar_t h_{t-1} + (Bbar_t x_t), which writes
    Abar_t h_{t-1} over Abar_t and the state over Bbar_t x_t.  The C readout
    is then one batched matmul over the block's states and the D skip is
    added for the whole block.  The state carries across blocks in its own
    array, never as a view of a buffer that the next block overwrites.  The
    recurrence itself is sequential, so any evaluation strategy must
    reproduce the plain per-token recurrence.
    """
    x = np.asarray(tokens, dtype=np.float64)
    t_total, f = x.shape
    n = params.a.shape[1]
    delta = _softplus(x @ params.w_delta + params.b_delta)
    b_in = x @ params.w_b
    c_out = x @ params.w_c
    h = np.zeros((f, n))
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


def mamba_unet_refine(tokens: np.ndarray, params: UnetParams) -> np.ndarray:
    """Two-level pooled encoder, selective-scan bottleneck, unpooling decoder
    with additive skips; output length equals input length."""
    x = np.asarray(tokens, dtype=np.float64)
    if x.shape[0] < 4:
        raise SequenceTooShortError(f"refiner needs at least 4 tokens, got {x.shape[0]}")
    e1 = _avg_pool2(x) @ params.enc1
    e2 = _avg_pool2(e1) @ params.enc2
    bottom = selective_scan(e2, params.ssm)
    d1 = _unpool2(bottom, e1.shape[0]) @ params.dec1
    d1 += e1
    d0 = _unpool2(d1, x.shape[0]) @ params.dec2
    d0 += x
    return d0


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
        return (rows @ params.weights[(axis, plane)] + params.biases[(axis, plane)])[inverse]

    offset = 0.5 * np.stack(
        [
            head("x", "xy") + head("x", "xz"),
            head("y", "xy") + head("y", "yz"),
            head("z", "xz") + head("z", "yz"),
        ],
        axis=-1,
    )
    return np.asarray(centroids, dtype=np.float64) + offset


def refine_features(centroids: np.ndarray, features: np.ndarray, params: HeadParams):
    """Run every refinement block; returns updated (centroids, features).

    All per-anchor linear maps run in each plane's raster-sorted order, which
    is canonical for coordinate-distinct anchor sets, so permuting the input
    anchors permutes the outputs bit-exactly (BLAS kernels are sensitive to
    row position, never to row content).
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    for block in params.blocks:
        planes = {}
        for plane in PLANES:
            coords = centroids[:, PLANE_AXES[plane]]
            order = raster_serialize(coords, params.omega)
            seq = block.embed[plane](coords[order])
            seq += features[order]
            planes[plane] = (mamba_unet_refine(seq, block.unet[plane]), _inverse_permutation(order))
        centroids = consensus_update(centroids, planes, block.consensus)
        features = planes["xy"][0][planes["xy"][1]]
        features += planes["xz"][0][planes["xz"][1]]
        features += planes["yz"][0][planes["yz"][1]]
        features /= 3.0
    return centroids, features


def run_head(arrays: dict, params: HeadParams, semantic_classes: int) -> dict:
    """Full head: block refinement, then one linear decode of the attribute update.

    Each anchor's 11 + C_sem decoded channels are a centroid offset (3), a
    log-scale delta (3), a quaternion delta (4), an opacity logit (1) and
    the semantic logits.  The decode runs in lexicographic centroid order
    (canonical for distinct coordinates) and scatters back, for the same
    bitwise-equivariance reason as the block refiner.  Centroid, log-scale
    and rotation are updated residually (the rotation renormalized);
    opacity and semantic logits are overwritten.
    """
    centroids, features = refine_features(arrays["centroid"], arrays["feature"], params)
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


def _inverse_covariances(sig: np.ndarray) -> np.ndarray:
    """Closed-form 3x3 inverses of covariances R diag(s^2) R^T (adjugate over determinant)."""
    a, b, c = sig[:, 0, 0], sig[:, 0, 1], sig[:, 0, 2]
    d, e, f = sig[:, 1, 1], sig[:, 1, 2], sig[:, 2, 2]
    det = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
    inv = np.empty_like(sig)
    inv[:, 0, 0] = (d * f - e * e) / det
    inv[:, 0, 1] = inv[:, 1, 0] = (c * e - b * f) / det
    inv[:, 0, 2] = inv[:, 2, 0] = (b * e - c * d) / det
    inv[:, 1, 1] = (a * f - c * c) / det
    inv[:, 1, 2] = inv[:, 2, 1] = (b * c - a * e) / det
    inv[:, 2, 2] = (a * d - b * b) / det
    return inv


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
        inv_sigma=_inverse_covariances(sigma),
        lo=np.clip(lo, 0, last),
        hi=np.clip(hi, 0, last),
        opacity=_sigmoid(np.asarray(arrays["opacity_logit"], dtype=np.float64)),
        class_probs=class_probs,
        radius_sq=float(truncation_radius_sigmas) ** 2,
    )


def _splat_slab(x_lo: int, x_hi: int, inputs: _SplatInputs, density: np.ndarray, scores: np.ndarray):
    """Accumulate every primitive into the voxel slab [x_lo, x_hi), one ``TILE`` at a time.

    Tiles are anchored at multiples of ``TILE`` and clipped to the slab and
    the grid.  Each primitive whose clipped voxel box meets the slab is
    binned to every tile its box meets; a stable sort on the tile id keeps
    each tile's P primitives in ascending index order.  Per tile, the
    per-axis terms of the quadratic form (m00 dx^2, 2 m01 dx, 2 m02 dx;
    m11 dy^2, 2 m12 dy, dy; m22 dz^2, dz) are (t_axis, P) arrays, each
    carrying the -1/2 of exp(-q/2), an exact power-of-two scaling.  A
    squared term is -inf where the voxel lies outside the primitive's box,
    and the form is summed as ((((A + B) + C) + D) + E) + F, so each
    (voxel, primitive) pair gets the bits of the per-primitive evaluation,
    or -inf outside the box.  Pairs beyond the truncation radius (the box
    included) are raised to -radius^2 / 2 before the exp, which keeps numpy's
    exp on its fast path, and are then zeroed by the radius mask.  The class
    product is one stacked matmul of the (tx, ty tz, P) densities with
    [class_probs | 1], yielding the scores and the density together; it
    reassociates the sum over primitives, so a voxel matches the
    per-primitive loop to rounding, not bitwise.  The result of a voxel
    depends only on its tile, so any slab cut along tile boundaries gives
    the same bits.
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
    starts = np.flatnonzero(np.diff(tile, prepend=-1))
    stops = np.append(starts[1:], len(tile))
    corner = np.multiply(np.unravel_index(tile[starts], tiles_per_axis), np.asarray(TILE)[:, None])
    tiles = zip(
        starts.tolist(), stops.tolist(),
        np.maximum(corner[0], x_lo).tolist(), np.minimum(corner[0] + TILE[0], x_hi).tolist(),
        corner[1].tolist(), np.minimum(corner[1] + TILE[1], spec.dims[1]).tolist(),
        corner[2].tolist(), np.minimum(corner[2] + TILE[2], spec.dims[2]).tolist(),
    )
    c, m = inputs.centroid[keep], inputs.inv_sigma[keep]
    table = np.stack([
        c[:, 0], -0.5 * m[:, 0, 0], -m[:, 0, 1], -m[:, 0, 2], lo[:, 0], hi[:, 0],
        c[:, 1], -0.5 * m[:, 1, 1], -m[:, 1, 2], lo[:, 1], hi[:, 1],
        c[:, 2], -0.5 * m[:, 2, 2], lo[:, 2], hi[:, 2],
        inputs.opacity[keep],
    ])[:, rows]
    probs1 = np.concatenate([inputs.class_probs[keep], np.ones((len(keep), 1))], axis=1)
    c_sem = probs1.shape[1] - 1
    axes = spec.axis_centers
    index = [np.arange(spec.dims[a], dtype=np.float64)[:, None] for a in range(3)]
    floor = -0.5 * inputs.radius_sq
    buf = np.empty(int(np.prod(TILE)) * int((stops - starts).max()))
    for start, stop, x0, x1, y0, y1, z0, z1 in tiles:
        cx, m00, m01, m02, lox, hix, cy, m11, m12, loy, hiy, cz, m22, loz, hiz, opacity = table[:, start:stop]
        ix, iy, iz = index[0][x0:x1], index[1][y0:y1], index[2][z0:z1]
        dx = axes[0][x0:x1, None] - cx
        dy = axes[1][y0:y1, None] - cy
        dz = axes[2][z0:z1, None] - cz
        xx = np.where((ix >= lox) & (ix <= hix), m00 * dx**2, -np.inf)
        yy = np.where((iy >= loy) & (iy <= hiy), m11 * dy**2, -np.inf)
        zz = np.where((iz >= loz) & (iz <= hiz), m22 * dz**2, -np.inf)
        shape = (x1 - x0, y1 - y0, z1 - z0, stop - start)
        quad = buf[: int(np.prod(shape))].reshape(shape)
        quad[...] = (xx[:, None] + yy)[:, :, None]
        quad += zz
        quad += (m01 * dx)[:, None, None] * dy[:, None]
        quad += (m02 * dx)[:, None, None] * dz
        quad += (m12 * dy)[:, None] * dz
        inside = quad >= floor
        np.maximum(quad, floor, out=quad)
        dens = np.exp(quad, out=quad)
        dens *= opacity
        dens *= inside
        # A stack of (ty tz, P) @ (P, c_sem + 1) products, not one (tx ty tz, P)
        # product.  numpy's bundled OpenBLAS (0.3.31) threads a product once
        # m n k exceeds 10^6: a 64-row product only from P = 869 on, one
        # 512-row product from P = 109 on.  Threaded products would start BLAS
        # threads in every forked worker: with two workers on a 2-vCPU Xeon VM
        # the occ3d splat (P <= 140) then took 1.64 s instead of 0.48 s.
        out = np.matmul(dens.reshape(shape[0], -1, shape[3]), probs1[rows[start:stop]])
        box = (slice(x0, x1), slice(y0, y1), slice(z0, z1))
        scores[box] += out[..., :c_sem].reshape(shape[:3] + (c_sem,))
        density[box] += out[..., c_sem].reshape(shape[:3])


def _label_slab(x_lo: int, x_hi: int, density: np.ndarray, scores: np.ndarray, labels: np.ndarray,
                threshold: float):
    """Argmax class where the density clears ``threshold``, else empty (``c_sem``), one x-plane at a time."""
    c_sem = scores.shape[-1]
    for x in range(x_lo, x_hi):
        labels[x] = np.where(density[x] >= threshold, np.argmax(scores[x], axis=-1), c_sem)


def _worker_count(threads: int, x_dim: int) -> int:
    """Splat workers: at most ``threads``, the usable cores and one per column of tiles along x."""
    return max(1, min(int(threads), _usable_cores(), -(-x_dim // TILE[0])))


def _slab_bounds(x_dim: int, slabs: int) -> list[int]:
    """Cuts of [0, x_dim) into ``slabs`` runs of whole tile columns, as even as the columns allow."""
    columns = np.linspace(0, -(-x_dim // TILE[0]), slabs + 1).astype(int)
    return np.minimum(columns * TILE[0], x_dim).tolist()


def _grid_buffers(dims: tuple, c_sem: int, shared: bool):
    """Zeroed density and scores plus the u8 labels; one shared anonymous mapping when ``shared``."""
    if not shared:
        return np.zeros(dims), np.zeros(dims + (c_sem,)), np.empty(dims, dtype=np.uint8)
    voxels = int(np.prod(dims))
    buf = mmap.mmap(-1, voxels * (8 + 8 * c_sem + 1))
    density = np.frombuffer(buf, dtype=np.float64, count=voxels).reshape(dims)
    scores = np.frombuffer(buf, dtype=np.float64, count=voxels * c_sem, offset=8 * voxels)
    labels = np.frombuffer(buf, dtype=np.uint8, count=voxels, offset=8 * voxels * (1 + c_sem))
    return density, scores.reshape(dims + (c_sem,)), labels.reshape(dims)


def _fork_slabs(bounds: list[int], fill) -> None:
    """Run ``fill(x_lo, x_hi)`` for each slab in its own forked child and wait for all.

    A child always leaves through ``os._exit``, with status 0 only if its
    slab is complete; a failure's message reaches the parent through a pipe.
    The children start with SIGINT blocked, so an interrupt reaches the
    parent only.  If a child fails, a fork fails or the wait is interrupted,
    every child still running is killed and every child is reaped before the
    error propagates.  The children call BLAS (the splat's per-tile class
    products); forking while the parent's BLAS threads exist is safe because
    OpenBLAS shuts its thread pool down before a fork and a child starts its
    own only if one of its products is large enough to be threaded.
    """
    children = []  # [pid or None once reaped, read end of its message pipe, slab]
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for slab in zip(bounds[:-1], bounds[1:]):
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
                    fill(*slab)
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
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if code != 0:
                message = os.read(read_fd, 4096).decode(errors="replace") or f"exit code {code}"
                raise SplatWorkerError(f"splat worker of x-slab [{x_lo}, {x_hi}) failed: {message}", (x_lo, x_hi))
    except KeyboardInterrupt:
        running = [slab for pid, _, slab in children if pid is not None]
        if not running:
            raise
        x_lo, x_hi = running[0]
        raise SplatWorkerError(
            f"interrupted while waiting for the splat worker of x-slab [{x_lo}, {x_hi})", (x_lo, x_hi)
        ) from None
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid, read_fd, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read_fd)


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
    stacked class-product matmul over the primitives whose boxes meet it,
    so a voxel's sums agree with a per-primitive loop to rounding.
    ``threads`` caps the worker processes (pipeline: ``GOC_THREADS``,
    passed unclamped); ``_worker_count`` clamps it to the usable cores and
    to one worker per column of tiles along x, and is the only clamp.  Each worker is a forked child that splats one
    x-slab of whole tile columns and labels it, writing into one shared
    anonymous mapping whose views are the returned grid's arrays; the
    parent only waits.  One worker, or a platform without ``os.fork``, runs
    the same slab function in-process.  Each tile lies in exactly one slab
    and is computed from its own primitive list, in ascending index order,
    so results are bit-identical for any worker count.  A failed or
    interrupted worker raises ``SplatWorkerError`` naming its slab, after
    every child has been reaped.
    """
    inputs = _splat_inputs(arrays, spec, truncation_radius_sigmas)
    c_sem = inputs.class_probs.shape[1]
    workers = _worker_count(threads, spec.dims[0])
    forked = workers > 1 and hasattr(os, "fork")
    density, scores, labels = _grid_buffers(spec.dims, c_sem, shared=forked)

    def fill(x_lo: int, x_hi: int):
        _splat_slab(x_lo, x_hi, inputs, density, scores)
        _label_slab(x_lo, x_hi, density, scores, labels, occupancy_threshold)

    if forked:
        _fork_slabs(_slab_bounds(spec.dims[0], workers), fill)
    else:
        fill(0, spec.dims[0])
    return SemanticOccupancyGrid(spec=spec, labels=labels, scores=scores)
