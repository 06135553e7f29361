"""Binary codecs: GOCW weight bundles, GOC1 label grids, P6 slice images.

GOCW: magic "GOCW", version u32, entry count u32, then per entry
      path length u16, UTF-8 path, rank u8, dims u32 each, payload f32 LE.
GOC1: magic "GOC1", version u32, dims 3xu32, class count u32,
      voxel size 3xf32 LE, origin 3xf32 LE, labels u8 row-major x fastest.
All integers little-endian.  Loaders report the failing byte offset and
reject non-finite f32 payloads.  ``_Reader`` is the one reader of every
file, the scene codec's in ``harness`` too, over a binary stream: the open
file for ``load_*``, an ``io.BytesIO`` for ``parse_*``, so a file and its
bytes take one parse path.  It reads each section straight into the array
that keeps it, once the bytes left can hold it: a file is never held whole.

``write_file`` is the one writer: every file the package writes is created
new after any old entry at its path is unlinked, because truncating the old
file or renaming a temporary file over it makes ext4 force writeback.  This
only matters where a file already exists at the path and is not yet written
back, as on a quick re-run into the same output directory; a write to a new
path costs the same either way.
"""

from __future__ import annotations

import errno
import io
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


# bytes of f32 that ``_Reader.finite_f32`` reads and checks at a time
_BLOCK_BYTES = 2**20


class _Reader:
    """The bytes of the binary ``stream`` from its position to ``end``, read in order.

    Offsets are absolute byte offsets into the stream, and ``offset`` is its
    position.  Every read checks its length against ``end`` before it reads.
    """

    def __init__(self, stream, label: str, end: int | None = None):
        self.stream, self.label, self.offset = stream, label, stream.tell()
        self.end = stream.seek(0, os.SEEK_END) if end is None else end
        stream.seek(self.offset)

    def need(self, n: int) -> None:
        if n < 0 or self.offset + n > self.end:
            raise FormatError(f"truncated {self.label}: wanted {n} bytes", offset=self.offset)

    def take(self, n: int) -> bytes:
        self.need(n)
        chunk = self.stream.read(n)
        if len(chunk) != n:  # the file shrank while it was read
            raise FormatError(f"truncated {self.label}: wanted {n} bytes", offset=self.offset)
        self.offset += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def line(self) -> bytes:
        """Bytes up to the next newline, which is consumed but not returned."""
        line = self.stream.readline(self.end - self.offset)
        if not line.endswith(b"\n"):
            raise FormatError(f"unterminated line in {self.label}", offset=self.offset)
        self.offset += len(line)
        return line[:-1]

    def section(self, n: int, label: str) -> "_Reader":
        """A reader of the next ``n`` bytes, which this reader counts as read:
        it is read through before this reader reads on."""
        self.need(n)
        self.offset += n
        return _Reader(self.stream, label, self.offset)

    def empty(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """``np.empty`` for the next f32 section of ``shape``, once the bytes left hold it."""
        self.need(4 * math.prod(shape))
        return np.empty(shape, dtype=dtype)

    def finite_f32(self, out: np.ndarray, what: str) -> np.ndarray:
        """``out`` filled in C order with the next f32 values; NaN or inf anywhere
        is a FormatError at the section's start.

        Each block is read with ``readinto`` straight into ``out`` where it is
        contiguous float32, else into one reused float32 buffer cast into
        ``out`` (any float array or view), and checked before the next.
        """
        start = self.offset
        self.need(4 * out.size)
        flags = ["external_loop", "buffered", "zerosize_ok"]
        with np.nditer(out, flags, [["writeonly"]], op_dtypes="<f4", casting="same_kind",
                       buffersize=_BLOCK_BYTES // 4, order="C") as blocks:
            for block in blocks:
                if self.stream.readinto(block) != block.nbytes:
                    raise FormatError(f"truncated {self.label}: wanted {4 * out.size} bytes", offset=start)
                if not np.isfinite(block).all():
                    raise FormatError(f"non-finite value in {what}", offset=start)
                self.offset += block.nbytes
        return out

    def expect_end(self):
        if self.offset != self.end:
            raise FormatError(f"trailing bytes in {self.label}", offset=self.offset)


def _open(path, what: str):
    """``path`` opened for binary reading; a failure, or a file that cannot
    seek (a pipe), is an OSError naming ``what`` and the path."""
    try:
        stream = open(path, "rb")
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    if not stream.seekable():
        stream.close()
        raise OSError(f"cannot read {what} {path}: not a seekable file")
    return stream


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
    return _read_bundle(io.BytesIO(data))


def _read_bundle(stream) -> ParameterBundle:
    r = _Reader(stream, "weight bundle")
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
        entries[path] = r.finite_f32(r.empty(shape), f"weight-bundle entry {path}")
    r.expect_end()
    return ParameterBundle(entries)


def save_bundle(bundle: ParameterBundle, path) -> None:
    write_file(path, dump_bundle(bundle))


def load_bundle(path) -> ParameterBundle:
    with _open(path, "weight bundle") as stream:
        return _read_bundle(stream)


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
    return _read_grid(_Reader(io.BytesIO(data), "grid file"))


# byte offset, within a GOC1 block, of each GridSpec field a ConfigurationError can name
_GRID_FIELD_OFFSETS = {"dims": 8, "voxel_size": 24, "origin": 36}


def _read_grid(r: _Reader) -> SemanticOccupancyGrid:
    """One GOC1 block filling the reader; faults are reported at offsets into ``r.stream``."""
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
    with _open(path, "grid") as stream:
        return _read_grid(_Reader(stream, "grid file"))


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
