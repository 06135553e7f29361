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
bitwise equivariant under anchor permutations.  After the final block a
linear head decodes per-anchor attribute updates (centroid offset,
log-scale delta, quaternion delta, opacity, semantics).

``splat_arrays`` rasterizes the primitives into a dense semantic volume:
each voxel accumulates opacity-weighted Gaussian densities times class
probabilities, in ascending primitive order so results are bit-reproducible
regardless of how the grid is sharded across threads.
"""

from __future__ import annotations

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
    make_covariance,
    normalize_quaternion,
)
from .errors import ConfigurationError, DegenerateCovarianceError, SequenceTooShortError
from .params import AXIS_PLANES, PLANES, ParameterBundle

MIN_SPLAT_SCALE = 1e-6
DEFAULT_OCCUPANCY_THRESHOLD = 0.1
ZOH_SERIES_CUTOFF = 1e-4

# axis pairs backing each plane: (first coord, second coord); the second
# coordinate is the primary raster sort key
PLANE_AXES = {"xy": (0, 1), "xz": (0, 2), "yz": (1, 2)}


@dataclass(frozen=True)
class RasterOrder:
    """A canonical anchor order; ``inverse`` recomputes its inverse permutation on each access."""

    indices: np.ndarray

    @property
    def inverse(self) -> np.ndarray:
        inv = np.empty_like(self.indices)
        inv[self.indices] = np.arange(len(self.indices))
        return inv


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
        hidden = np.maximum(normed @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2


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
class DecodedAttributes:
    """Per-anchor decoded update: 3 + 3 + 4 + 1 + C_sem channels."""

    centroid_offset: np.ndarray
    log_scale_delta: np.ndarray
    rotation_delta: np.ndarray
    opacity_logit: np.ndarray
    semantic_logits: np.ndarray

    @property
    def width(self) -> int:
        return 11 + self.semantic_logits.shape[-1]


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


def raster_serialize(coords: np.ndarray, omega: float) -> RasterOrder:
    """Stable ascending sort by key = primary * omega + secondary.

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
    return RasterOrder(indices=np.argsort(keys, kind="stable"))


def zoh_discretize(a, b, delta):
    """Zero-order-hold discretization of dh/dt = a h + b x over step delta.

    Abar = exp(z) and Bbar = ((Abar - 1) / a) b = (expm1(z) / z) delta b, with
    z = delta * a.  expm1(z) / z is computed once, straight into the Bbar
    buffer; the truncated series 1 + z/2 + z^2/6 + z^3/24 is then evaluated
    only on the entries with |z| < 1e-4 and written over them, so z == 0
    yields 1 and neither a NaN nor a warning.  Bbar is scaled by delta and b
    in place and Abar overwrites z, so a call allocates its two outputs and
    the small-|z| mask.  Broadcasts over any shapes; 0-d inputs give scalars.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    z = np.asarray(delta * a)
    bbar = np.abs(z, out=np.empty(np.broadcast_shapes(z.shape, b.shape)))
    small = bbar < ZOH_SERIES_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.expm1(z, out=bbar), z, out=bbar)
    zs = np.broadcast_to(z, bbar.shape)[small]
    bbar[small] = 1.0 + zs / 2.0 + zs**2 / 6.0 + zs**3 / 24.0
    bbar *= delta
    bbar *= b
    return np.exp(z, out=z)[()], bbar[()]


def selective_scan(tokens: np.ndarray, params: SsmParams) -> np.ndarray:
    """Input-dependent diagonal SSM recurrence over a T x F sequence.

    Per token: delta = softplus(x W_delta + b_delta), state input B = x W_b,
    readout C = x W_c; h_t = Abar_t h_{t-1} + Bbar_t x_t with h_0 = 0 and
    y_t = C_t . h_t + D_skip x_t.  The sequence is processed in time blocks
    of 1024 tokens.  Per block, ``zoh_discretize`` is called once, Bbar_t x_t
    is folded into the Bbar buffer in place, and the only per-token work is
    the state update h_t = Abar_t h_{t-1} + (Bbar_t x_t), whose result
    overwrites that buffer; the C readout is then one batched matmul over
    the block's states and the D skip is added for the whole block.  The
    state carries across blocks.  The recurrence itself is sequential, so
    any evaluation strategy must reproduce the plain per-token recurrence.
    """
    x = np.asarray(tokens, dtype=np.float64)
    t_total, f = x.shape
    delta = _softplus(x @ params.w_delta + params.b_delta)
    b_in = x @ params.w_b
    c_out = x @ params.w_c
    h = np.zeros((f, params.a.shape[1]))
    y = np.empty_like(x)
    block = 1024
    for start in range(0, t_total, block):
        stop = min(start + block, t_total)
        abar, states = zoh_discretize(
            params.a[None], b_in[start:stop, None, :], delta[start:stop, :, None]
        )
        states *= x[start:stop, :, None]
        for t in range(stop - start):
            states[t] += abar[t] * h
            h = states[t]
        y[start:stop] = np.matmul(states, c_out[start:stop, :, None])[..., 0]
        y[start:stop] += params.d_skip * x[start:stop]
    return y


def _avg_pool2(x: np.ndarray) -> np.ndarray:
    t = x.shape[0]
    pairs = t // 2
    pooled = (x[0 : 2 * pairs : 2] + x[1 : 2 * pairs : 2]) / 2.0
    if t % 2:
        pooled = np.concatenate([pooled, x[-1:]], axis=0)
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
    d1 = _unpool2(bottom, e1.shape[0]) @ params.dec1 + e1
    d0 = _unpool2(d1, x.shape[0]) @ params.dec2 + x
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


def decode_attributes(features: np.ndarray, params: DecodeParams, semantic_classes: int) -> DecodedAttributes:
    """Linear decode into the per-anchor attribute update vector."""
    raw = np.asarray(features, dtype=np.float64) @ params.w + params.b
    if raw.shape[-1] != 11 + semantic_classes:
        raise ConfigurationError(
            f"decode width {raw.shape[-1]} does not match 11 + {semantic_classes} classes"
        )
    return DecodedAttributes(
        centroid_offset=raw[..., 0:3],
        log_scale_delta=raw[..., 3:6],
        rotation_delta=raw[..., 6:10],
        opacity_logit=raw[..., 10],
        semantic_logits=raw[..., 11:],
    )


def apply_decoded(arrays: dict, decoded: DecodedAttributes) -> dict:
    """Apply a decoded update: residual geometry, overwritten opacity/semantics."""
    out = dict(arrays)
    out["centroid"] = arrays["centroid"] + decoded.centroid_offset
    out["log_scale"] = arrays["log_scale"] + decoded.log_scale_delta
    out["rotation"] = normalize_quaternion(arrays["rotation"] + decoded.rotation_delta)
    out["opacity_logit"] = np.array(decoded.opacity_logit, dtype=np.float64)
    out["semantic_logits"] = np.array(decoded.semantic_logits, dtype=np.float64)
    return out


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
            seq = features[order.indices] + block.embed[plane](coords[order.indices])
            planes[plane] = (mamba_unet_refine(seq, block.unet[plane]), order.inverse)
        centroids = consensus_update(centroids, planes, block.consensus)
        refined = {plane: rows[inverse] for plane, (rows, inverse) in planes.items()}
        features = (refined["xy"] + refined["xz"] + refined["yz"]) / 3.0
    return centroids, features


def run_head(arrays: dict, params: HeadParams, semantic_classes: int) -> dict:
    """Full head: block refinement then the single trailing attribute decode.

    The decode runs in lexicographic centroid order (canonical for distinct
    coordinates) and scatters back, for the same bitwise-equivariance reason
    as the block refiner.
    """
    centroids, features = refine_features(arrays["centroid"], arrays["feature"], params)
    staged = dict(arrays)
    staged["centroid"] = centroids
    staged["feature"] = features
    canonical = np.lexsort((centroids[:, 2], centroids[:, 0], centroids[:, 1]))
    inverse = RasterOrder(indices=canonical).inverse
    decoded_sorted = decode_attributes(features[canonical], params.decode, semantic_classes)
    decoded = DecodedAttributes(
        centroid_offset=decoded_sorted.centroid_offset[inverse],
        log_scale_delta=decoded_sorted.log_scale_delta[inverse],
        rotation_delta=decoded_sorted.rotation_delta[inverse],
        opacity_logit=decoded_sorted.opacity_logit[inverse],
        semantic_logits=decoded_sorted.semantic_logits[inverse],
    )
    return apply_decoded(staged, decoded)


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


def _splat_slab(
    x_lo: int,
    x_hi: int,
    spec: GridSpec,
    centroids: np.ndarray,
    inv_sigma: np.ndarray,
    half_extents: np.ndarray,
    opacity: np.ndarray,
    class_probs: np.ndarray,
    radius_sq: float,
    density: np.ndarray,
    scores: np.ndarray,
):
    """Accumulate every primitive (ascending index) into the voxel slab [x_lo, x_hi)."""
    dims = spec.dims
    axes_y = spec.origin[1] + (np.arange(dims[1]) + 0.5) * spec.voxel_size[1]
    axes_z = spec.origin[2] + (np.arange(dims[2]) + 0.5) * spec.voxel_size[2]
    axes_x = spec.origin[0] + (np.arange(dims[0]) + 0.5) * spec.voxel_size[0]
    lo_idx = np.ceil((centroids - half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    hi_idx = np.floor((centroids + half_extents - spec.origin) / spec.voxel_size - 0.5).astype(np.int64)
    lo_idx = np.clip(lo_idx, 0, np.asarray(dims) - 1)
    hi_idx = np.clip(hi_idx, 0, np.asarray(dims) - 1)
    for i in range(len(centroids)):
        x0 = max(lo_idx[i, 0], x_lo)
        x1 = min(hi_idx[i, 0], x_hi - 1)
        if x0 > x1:
            continue
        y0, y1 = lo_idx[i, 1], hi_idx[i, 1]
        z0, z1 = lo_idx[i, 2], hi_idx[i, 2]
        if y0 > y1 or z0 > z1:
            continue
        dx = axes_x[x0 : x1 + 1] - centroids[i, 0]
        dy = axes_y[y0 : y1 + 1] - centroids[i, 1]
        dz = axes_z[z0 : z1 + 1] - centroids[i, 2]
        m = inv_sigma[i]
        quad = (
            m[0, 0] * (dx**2)[:, None, None]
            + m[1, 1] * (dy**2)[None, :, None]
            + m[2, 2] * (dz**2)[None, None, :]
            + 2.0 * m[0, 1] * dx[:, None, None] * dy[None, :, None]
            + 2.0 * m[0, 2] * dx[:, None, None] * dz[None, None, :]
            + 2.0 * m[1, 2] * dy[None, :, None] * dz[None, None, :]
        )
        inside = quad <= radius_sq
        if not inside.any():
            continue
        dens = np.where(inside, opacity[i] * np.exp(-0.5 * quad), 0.0)
        density[x0 : x1 + 1, y0 : y1 + 1, z0 : z1 + 1] += dens
        scores[x0 : x1 + 1, y0 : y1 + 1, z0 : z1 + 1] += dens[..., None] * class_probs[i]


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
    degenerate.  Sharding over x-slabs never changes per-voxel accumulation
    order, so results are identical for any thread count.  Zero rows give an
    all-empty grid.
    """
    if truncation_radius_sigmas < 1:
        raise ConfigurationError("truncation radius must be >= 1 sigma", field="truncation_sigmas")
    centroids = np.asarray(arrays["centroid"], dtype=np.float64)
    scales = np.exp(np.asarray(arrays["log_scale"], dtype=np.float64))
    tiny = scales < MIN_SPLAT_SCALE
    if tiny.any():
        idx = int(np.argwhere(tiny.any(axis=1))[0, 0])
        raise DegenerateCovarianceError(
            f"primitive {idx} has scale below {MIN_SPLAT_SCALE} m; covariance is singular"
        )
    rotations = np.asarray(arrays["rotation"], dtype=np.float64)
    opacity = _sigmoid(np.asarray(arrays["opacity_logit"], dtype=np.float64))
    class_probs = _softmax(np.asarray(arrays["semantic_logits"], dtype=np.float64))
    c_sem = class_probs.shape[1]
    sigma = make_covariance(scales, rotations)
    inv_sigma = _inverse_covariances(sigma)
    half_extents = truncation_radius_sigmas * np.sqrt(np.diagonal(sigma, axis1=1, axis2=2))
    radius_sq = float(truncation_radius_sigmas) ** 2

    density = np.zeros(spec.dims)
    scores = np.zeros(spec.dims + (c_sem,))
    threads = max(int(threads), 1)
    slabs = threads if 2 * threads <= spec.dims[0] else 1
    bounds = np.linspace(0, spec.dims[0], slabs + 1).astype(int)
    with ThreadPoolExecutor(max_workers=slabs) as pool:
        futures = [
            pool.submit(
                _splat_slab, int(bounds[j]), int(bounds[j + 1]), spec, centroids,
                inv_sigma, half_extents, opacity, class_probs, radius_sq, density, scores,
            )
            for j in range(slabs)
        ]
        for fut in futures:
            fut.result()

    labels = np.where(density >= occupancy_threshold, np.argmax(scores, axis=-1), c_sem).astype(np.uint8)
    return SemanticOccupancyGrid(spec=spec, labels=labels, scores=scores)
