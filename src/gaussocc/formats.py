"""Binary codecs: GOCW weight bundles, GOC1 label grids, P6 slice images.

GOCW: magic "GOCW", version u32, entry count u32, then per entry
      path length u16, UTF-8 path, rank u8, dims u32 each, payload f32 LE.
GOC1: magic "GOC1", version u32, dims 3xu32, class count u32,
      voxel size 3xf32 LE, origin 3xf32 LE, labels u8 row-major x fastest.
All integers little-endian.  Loaders report the failing byte offset and
reject non-finite f32 payloads.  ``_Reader`` is the one byte reader; the
scene codec in ``harness`` uses it too.

``write_file`` is the one writer: every file the package writes is created
new after any old entry at its path is unlinked, because truncating the old
file or renaming a temporary file over it makes ext4 force writeback.  This
only matters where a file already exists at the path and is not yet written
back, as on a quick re-run into the same output directory; a write to a new
path costs the same either way.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .core import GridSpec, SemanticOccupancyGrid
from .errors import ConfigurationError, FormatError
from .params import ParameterBundle

GOCW_MAGIC = b"GOCW"
GOC1_MAGIC = b"GOC1"
FORMAT_VERSION = 1


def write_file(path, data: bytes) -> bytes:
    """Write ``data`` to ``path`` as a new file, replacing any entry there,
    and return ``data``, so a writer can hand back the bytes it wrote.

    The old directory entry is unlinked first, so the file is never
    truncated in place.  Truncate-and-write and write-to-temp plus
    rename-over both make ext4 (``auto_da_alloc``, on by default) force the
    file's writeback on close, which cost 15-80 ms a file on a re-run into
    the same directory seconds later (2-vCPU VM); a new file under an
    unlinked name does not.  Once the old file is written back, unlinking
    it costs tens of milliseconds too, so the gain there is smaller.

    That forced writeback is ext4's guard against a replaced file being
    left empty by a crash, and this writer gives it up: after a crash
    within the kernel's writeback delay (30 s by default) of a rewrite, the
    file can be empty and its old contents are gone.  Every file the
    package writes can be made again from its inputs and seed.

    An existing regular file that this process may not write raises
    ``PermissionError`` and is left as it was, as truncating it would.  A
    reader holding the old file keeps the old bytes, and a symlink or hard
    link at ``path`` is replaced, not written through.  A directory at
    ``path`` raises ``IsADirectoryError``.
    """
    path = Path(path)
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and stat.S_ISREG(mode) and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    try:
        path.unlink()
    except FileNotFoundError:
        pass
    path.write_bytes(data)
    return data


class _Reader:
    """Bytes ``data[start:end]`` read in order; offsets are indices into ``data``."""

    def __init__(self, data: bytes, label: str, start: int = 0, end: int | None = None):
        self.data = data
        self.offset = start
        self.end = len(data) if end is None else end
        self.label = label

    def take(self, n: int) -> bytes:
        if n < 0 or self.offset + n > self.end:
            raise FormatError(f"truncated {self.label}: wanted {n} bytes", offset=self.offset)
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def line(self) -> bytes:
        """Bytes up to the next newline, which is consumed but not returned."""
        end = self.data.find(b"\n", self.offset, self.end)
        if end < 0:
            raise FormatError(f"unterminated line in {self.label}", offset=self.offset)
        return self.take(end + 1 - self.offset)[:-1]

    def finite_f32(self, count: int, what: str) -> np.ndarray:
        """``count`` little-endian f32 values; NaN or inf anywhere is rejected."""
        offset = self.offset
        values = np.frombuffer(self.take(4 * count), dtype="<f4")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite value in {what}", offset=offset)
        return values

    def expect_end(self):
        if self.offset != self.end:
            raise FormatError(f"trailing bytes in {self.label}", offset=self.offset)


def dump_bundle(bundle: ParameterBundle) -> bytes:
    parts = [GOCW_MAGIC, struct.pack("<II", FORMAT_VERSION, len(bundle))]
    for path in bundle.paths():
        arr = bundle.raw(path)
        encoded = path.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def parse_bundle(data: bytes) -> ParameterBundle:
    r = _Reader(data, "weight bundle")
    if r.take(4) != GOCW_MAGIC:
        raise FormatError("bad weight-bundle magic", offset=0)
    (version,) = r.unpack("I")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported weight-bundle version {version}", offset=4)
    (count,) = r.unpack("I")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (path_len,) = r.unpack("H")
        path_offset = r.offset
        try:
            path = r.take(path_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("weight-bundle path is not UTF-8", offset=path_offset) from None
        if path in entries:
            raise FormatError(f"duplicate weight-bundle path {path}", offset=path_offset)
        (rank,) = r.unpack("B")
        if rank > 64:
            raise FormatError(f"weight-bundle rank {rank} exceeds numpy's 64", offset=r.offset - 1)
        shape = tuple(r.unpack("I" * rank))
        entries[path] = r.finite_f32(math.prod(shape), f"weight-bundle entry {path}").reshape(shape)
    r.expect_end()
    return ParameterBundle(entries)


def save_bundle(bundle: ParameterBundle, path) -> None:
    write_file(path, dump_bundle(bundle))


def load_bundle(path) -> ParameterBundle:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read weight bundle {path}: {exc}") from exc
    return parse_bundle(data)


def dump_grid(grid: SemanticOccupancyGrid, class_count: int) -> bytes:
    spec = grid.spec
    header = GOC1_MAGIC + struct.pack(
        "<IIIII3f3f",
        FORMAT_VERSION,
        spec.dims[0],
        spec.dims[1],
        spec.dims[2],
        class_count,
        *np.asarray(spec.voxel_size, dtype=np.float32),
        *np.asarray(spec.origin, dtype=np.float32),
    )
    # x fastest: Fortran ravel of the (X, Y, Z) label volume
    return header + np.asarray(grid.labels, dtype=np.uint8).ravel(order="F").tobytes()


def parse_grid(data: bytes) -> SemanticOccupancyGrid:
    return _read_grid(_Reader(data, "grid file"))


# byte offset, within a GOC1 block, of each GridSpec field a ConfigurationError can name
_GRID_FIELD_OFFSETS = {"dims": 8, "voxel_size": 24, "origin": 36}


def _read_grid(r: _Reader) -> SemanticOccupancyGrid:
    """One GOC1 block filling the reader; faults are reported at offsets into ``r.data``."""
    start = r.offset
    if r.take(4) != GOC1_MAGIC:
        raise FormatError("bad grid magic", offset=start)
    (version,) = r.unpack("I")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported grid version {version}", offset=start + 4)
    dx, dy, dz, classes = r.unpack("IIII")
    voxel = np.array(r.unpack("fff"), dtype=np.float64)
    origin = np.array(r.unpack("fff"), dtype=np.float64)
    try:
        spec = GridSpec(origin=origin, voxel_size=voxel, dims=(dx, dy, dz))
    except ConfigurationError as exc:
        raise FormatError(f"invalid grid header: {exc}", offset=start + _GRID_FIELD_OFFSETS[exc.field]) from None
    payload_offset = r.offset
    labels = np.frombuffer(r.take(dx * dy * dz), dtype=np.uint8)
    r.expect_end()
    if classes < 1 or labels.size and labels.max() >= classes:
        raise FormatError(
            f"label exceeds declared class count {classes}", offset=payload_offset
        )
    return SemanticOccupancyGrid(spec=spec, labels=labels.reshape((dx, dy, dz), order="F"))


def emit_grid(grid: SemanticOccupancyGrid, path, class_count: int) -> bytes:
    """Write the grid's GOC1 bytes to ``path`` and return them."""
    return write_file(path, dump_grid(grid, class_count=class_count))


def load_grid(path) -> SemanticOccupancyGrid:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read grid {path}: {exc}") from exc
    return parse_grid(data)


DEFAULT_PALETTE = np.array(
    [
        (0, 0, 0),        # others
        (255, 120, 50),   # barrier
        (255, 192, 203),  # bicycle
        (255, 255, 0),    # bus
        (0, 150, 245),    # car
        (0, 255, 255),    # construction vehicle
        (200, 180, 0),    # motorcycle
        (255, 0, 0),      # pedestrian
        (255, 240, 150),  # traffic cone
        (135, 60, 0),     # trailer
        (160, 32, 240),   # truck
        (255, 0, 255),    # driveable surface
        (139, 137, 137),  # other flat
        (75, 0, 75),      # sidewalk
        (150, 240, 80),   # terrain
        (213, 213, 213),  # manmade
        (0, 175, 0),      # vegetation
        (40, 40, 40),     # empty
    ],
    dtype=np.uint8,
)


def palette_for(class_count: int) -> np.ndarray:
    """Palette with one color per label; empty is always the last entry.

    The 18-entry default covers the standard taxonomy; larger taxonomies get
    deterministic golden-angle hues appended for the overflow classes.
    """
    if class_count <= len(DEFAULT_PALETTE):
        return np.concatenate([DEFAULT_PALETTE[: class_count - 1], DEFAULT_PALETTE[-1:]])
    import colorsys

    extra = []
    for i in range(class_count - len(DEFAULT_PALETTE)):
        hue = (0.618033988749895 * (i + 1)) % 1.0
        rgb = colorsys.hsv_to_rgb(hue, 0.85, 0.95)
        extra.append(tuple(int(round(255 * c)) for c in rgb))
    return np.concatenate(
        [DEFAULT_PALETTE[:-1], np.array(extra, dtype=np.uint8), DEFAULT_PALETTE[-1:]]
    )


def emit_bev_slice(grid: SemanticOccupancyGrid, z_index: int, palette: np.ndarray, path) -> None:
    """Binary P6 pixmap of the XY slice at ``z_index``, one pixel per voxel."""
    dims = grid.spec.dims
    if not 0 <= z_index < dims[2]:
        raise IndexError(f"z index {z_index} outside grid depth {dims[2]}")
    palette = np.asarray(palette, dtype=np.uint8)
    slab = grid.labels[:, :, z_index]
    if slab.size and int(slab.max()) >= len(palette):
        raise FormatError(f"palette with {len(palette)} entries cannot cover label {int(slab.max())}")
    # image rows run along y, columns along x
    pixels = palette[slab.T.astype(np.int64)]
    header = f"P6\n{dims[0]} {dims[1]}\n255\n".encode("ascii")
    write_file(path, header + pixels.tobytes())
