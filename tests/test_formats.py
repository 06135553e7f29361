import dataclasses
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussocc.cli import main
from gaussocc.core import NUSCENES_CLASS_NAMES, ClassTaxonomy, GridSpec, SemanticOccupancyGrid
from gaussocc.errors import FormatError
from gaussocc.formats import (
    palette_for,
    DEFAULT_PALETTE,
    dump_bundle,
    dump_grid,
    emit_bev_slice,
    emit_grid,
    load_bundle,
    load_grid,
    parse_bundle,
    parse_grid,
    save_bundle,
    write_file,
)
from gaussocc.harness import SceneConfig, dump_scene, generate_scene, load_scene, parse_scene, save_scene
from gaussocc.params import ParameterBundle


def random_grid(rng, c_total=18):
    dims = tuple(int(d) for d in rng.integers(1, 9, size=3))
    spec = GridSpec(
        origin=rng.uniform(-10, 10, 3).astype(np.float32),
        voxel_size=rng.uniform(0.05, 2.0, 3).astype(np.float32),
        dims=dims,
    )
    labels = rng.integers(0, c_total, size=dims).astype(np.uint8)
    return SemanticOccupancyGrid(spec=spec, labels=labels), c_total


def random_bundle(rng):
    entries = {}
    for i in range(int(rng.integers(1, 8))):
        rank = int(rng.integers(0, 4))
        shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
        entries[f"p{i}.tensor"] = rng.normal(size=shape).astype(np.float32)
    return ParameterBundle(entries)


class TestBundleCodec:
    def test_round_trip_identity(self, small_bundle):
        again = parse_bundle(dump_bundle(small_bundle))
        assert again.paths() == small_bundle.paths()
        for path in small_bundle.paths():
            np.testing.assert_array_equal(again.raw(path), small_bundle.raw(path))

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            bundle = random_bundle(rng)
            again = parse_bundle(dump_bundle(bundle))
            for path in bundle.paths():
                np.testing.assert_array_equal(again.raw(path), bundle.raw(path))

    def test_bad_magic(self):
        with pytest.raises(FormatError) as info:
            parse_bundle(b"NOPE" + b"\x00" * 16)
        assert info.value.offset == 0

    def test_truncation_reports_offset(self, small_bundle):
        data = dump_bundle(small_bundle)
        with pytest.raises(FormatError) as info:
            parse_bundle(data[: len(data) // 2])
        assert info.value.offset is not None

    def test_trailing_bytes_rejected(self, small_bundle):
        with pytest.raises(FormatError):
            parse_bundle(dump_bundle(small_bundle) + b"x")

    def test_file_round_trip(self, small_bundle, tmp_path):
        path = tmp_path / "weights.gocw"
        save_bundle(small_bundle, path)
        again = load_bundle(path)
        np.testing.assert_array_equal(again.raw("fusion.wq_l"), small_bundle.raw("fusion.wq_l"))


class TestGridCodec:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(4)
        grid, c_total = random_grid(rng)
        again = parse_grid(dump_grid(grid, class_count=c_total))
        np.testing.assert_array_equal(again.labels, grid.labels)
        np.testing.assert_array_equal(again.spec.origin, grid.spec.origin)
        np.testing.assert_array_equal(again.spec.voxel_size, grid.spec.voxel_size)
        assert again.spec.dims == grid.spec.dims

    def test_header_is_48_bytes_then_labels(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 1))
        grid = SemanticOccupancyGrid(spec=spec, labels=np.zeros((2, 2, 1), dtype=np.uint8))
        data = dump_grid(grid, class_count=18)
        # magic + version + dims + class count + voxel size + origin = 48 bytes
        assert len(data) == 48 + 4

    def test_x_fastest_layout(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 1))
        labels = np.array([[[0], [1]], [[2], [3]]], dtype=np.uint8)  # labels[x][y][z]
        data = dump_grid(SemanticOccupancyGrid(spec=spec, labels=labels), class_count=4)
        assert list(data[48:]) == [0, 2, 1, 3]

    def test_truncated_file(self):
        rng = np.random.default_rng(4)
        grid, c_total = random_grid(rng)
        data = dump_grid(grid, class_count=c_total)
        with pytest.raises(FormatError) as info:
            parse_grid(data[:-1])
        assert info.value.offset is not None

    def test_bad_magic_offset_zero(self):
        with pytest.raises(FormatError) as info:
            parse_grid(b"BAD!" + b"\x00" * 44)
        assert info.value.offset == 0

    def test_label_exceeding_class_count(self):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(1, 1, 1))
        grid = SemanticOccupancyGrid(spec=spec, labels=np.array([[[5]]], dtype=np.uint8))
        with pytest.raises(FormatError):
            parse_grid(dump_grid(grid, class_count=3))

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        grid, c_total = random_grid(rng)
        path = tmp_path / "grid.goc1"
        emit_grid(grid, path, class_count=c_total)
        np.testing.assert_array_equal(load_grid(path).labels, grid.labels)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.goc1"
        with pytest.raises(OSError, match="cannot read grid .*absent.goc1"):
            load_grid(path)

    def test_pipe_refused_by_name(self):
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            with pytest.raises(OSError, match=f"cannot read grid /dev/fd/{read_end}: not a seekable file"):
                load_grid(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)


class TestBevSlice:
    def test_image_dims_match_grid(self, tmp_path):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(5, 3, 2))
        labels = np.random.default_rng(0).integers(0, 18, size=(5, 3, 2)).astype(np.uint8)
        grid = SemanticOccupancyGrid(spec=spec, labels=labels)
        path = tmp_path / "slice.ppm"
        emit_bev_slice(grid, 1, DEFAULT_PALETTE, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n5 3\n255\n")
        assert len(data) == len(b"P6\n5 3\n255\n") + 5 * 3 * 3

    def test_empty_slice_uniform_background(self, tmp_path):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(4, 4, 1))
        grid = SemanticOccupancyGrid(spec=spec, labels=np.full((4, 4, 1), 17, dtype=np.uint8))
        path = tmp_path / "empty.ppm"
        emit_bev_slice(grid, 0, DEFAULT_PALETTE, path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert body == bytes(DEFAULT_PALETTE[17]) * 16

    def test_palette_covers_all_labels(self, tmp_path):
        assert len(DEFAULT_PALETTE) == 18
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(18, 1, 1))
        labels = np.arange(18, dtype=np.uint8).reshape(18, 1, 1)
        emit_bev_slice(SemanticOccupancyGrid(spec=spec, labels=labels), 0, DEFAULT_PALETTE, tmp_path / "all.ppm")

    def test_z_index_out_of_range(self, tmp_path):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 2))
        grid = SemanticOccupancyGrid(spec=spec, labels=np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(IndexError):
            emit_bev_slice(grid, 2, DEFAULT_PALETTE, tmp_path / "x.ppm")

    def test_palette_shorter_than_labels(self, tmp_path):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(3, 1, 1))
        grid = SemanticOccupancyGrid(spec=spec, labels=np.array([0, 5, 2], dtype=np.uint8).reshape(3, 1, 1))
        with pytest.raises(FormatError, match="palette with 5 entries cannot cover label 5"):
            emit_bev_slice(grid, 0, DEFAULT_PALETTE[:5], tmp_path / "short.ppm")
        assert not (tmp_path / "short.ppm").exists()

    def test_palette_extends_to_larger_taxonomies(self):
        pal = palette_for(20)
        assert pal.shape == (20, 3)
        assert len({tuple(c) for c in pal}) == 20
        np.testing.assert_array_equal(pal[-1], DEFAULT_PALETTE[-1])
        small = palette_for(7)
        assert small.shape == (7, 3)
        np.testing.assert_array_equal(small[:6], DEFAULT_PALETTE[:6])
        np.testing.assert_array_equal(small[-1], DEFAULT_PALETTE[-1])


def _write_grid(path, k, scene, bundle):
    spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 2))
    emit_grid(SemanticOccupancyGrid(spec=spec, labels=np.full((2, 2, 2), k, dtype=np.uint8)), path, class_count=18)


def _write_bev(path, k, scene, bundle):
    spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 1))
    grid = SemanticOccupancyGrid(spec=spec, labels=np.full((2, 2, 1), k, dtype=np.uint8))
    emit_bev_slice(grid, 0, DEFAULT_PALETTE, path)


def _write_bundle(path, k, scene, bundle):
    save_bundle(ParameterBundle({"a": np.full(2, k, dtype=np.float32)}), path)


def _write_scene(path, k, scene, bundle):
    save_scene(dataclasses.replace(scene, seed=scene.seed + k), path)


# every file writer of the package; write(path, k, ...) writes different bytes for k = 0 and 1
WRITERS = {
    "write_file": lambda path, k, scene, bundle: write_file(path, bytes([k]) * 4),
    "emit_grid": _write_grid,
    "emit_bev_slice": _write_bev,
    "save_bundle": _write_bundle,
    "save_scene": _write_scene,
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
class TestWriteFile:
    def test_rewrite_replaces_file(self, writer, small_scene, small_bundle, tmp_path):
        path = tmp_path / "out"
        writer(path, 0, small_scene, small_bundle)
        old = path.read_bytes()
        fd = os.open(path, os.O_RDONLY)
        try:
            writer(path, 1, small_scene, small_bundle)
            # truncating in place would leave the open file linked, holding the new bytes
            assert os.fstat(fd).st_nlink == 0
            assert os.pread(fd, len(old) + 1, 0) == old
        finally:
            os.close(fd)
        new = path.read_bytes()
        assert new != old
        writer(tmp_path / "fresh", 1, small_scene, small_bundle)
        assert new == (tmp_path / "fresh").read_bytes()

    def test_symlink_replaced_not_followed(self, writer, small_scene, small_bundle, tmp_path):
        target = tmp_path / "target"
        target.write_bytes(b"old target bytes")
        path = tmp_path / "out"
        path.symlink_to(target)
        writer(path, 1, small_scene, small_bundle)
        assert not path.is_symlink() and path.is_file()
        writer(tmp_path / "fresh", 1, small_scene, small_bundle)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
        assert target.read_bytes() == b"old target bytes"

    def test_read_only_file_raises(self, writer, small_scene, small_bundle, tmp_path, monkeypatch):
        path = tmp_path / "out"
        writer(path, 0, small_scene, small_bundle)
        old, inode = path.read_bytes(), path.stat().st_ino
        path.chmod(0o444)
        if os.access(path, os.W_OK):  # root may write any file: answer as for an unprivileged user
            monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        with pytest.raises(PermissionError):
            writer(path, 1, small_scene, small_bundle)
        assert (path.read_bytes(), path.stat().st_ino) == (old, inode)

    def test_directory_path_raises(self, writer, small_scene, small_bundle, tmp_path):
        path = tmp_path / "out"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            writer(path, 1, small_scene, small_bundle)
        assert path.is_dir()


def _scene_edit(pattern, replacement):
    def build(scene, bundle):
        data = dump_scene(scene)
        edited, hits = re.subn(pattern, replacement, data, count=1)
        assert hits == 1
        return "--scene", edited

    return build


def _nan_plane(scene, bundle):
    data = bytearray(dump_scene(scene))
    start = data.index(b"END_HEADER\n") + len(b"END_HEADER\n")
    data[start + 8 : start + 12] = struct.pack("<f", np.nan)
    return "--scene", bytes(data)


def _non_utf8_path(scene, bundle):
    data = bytearray(dump_bundle(bundle))
    data[14] = 0xFF  # first byte of the first path: magic, version, count, path length
    return "--weights", bytes(data)


def _nan_weight(scene, bundle):
    entries = {path: bundle.raw(path).copy() for path in bundle.paths()}
    entries[bundle.paths()[-1]].reshape(-1)[0] = np.nan
    return "--weights", dump_bundle(ParameterBundle(entries))


def _duplicate_path(scene, bundle):
    data = dump_bundle(ParameterBundle({"a": np.ones(1), "b": np.ones(1)}))
    return "--weights", data.replace(b"\x01\x00b", b"\x01\x00a")  # path length 1, path "b" -> "a"


def _rank_over_64(scene, bundle):
    # one entry "a" of rank 65 with every dim 0, so no payload bytes follow
    return "--weights", b"GOCW" + struct.pack("<IIH", 1, 1, 1) + b"a" + struct.pack("<B65I", 65, *[0] * 65)


MALFORMED = {
    "scene-missing-key": _scene_edit(rb"\nnoise_sigma=[^\n]*", b""),
    "scene-non-ascii-header": _scene_edit(rb"classes=", "classes=é".encode("utf-8")),
    "scene-unparsable-number": _scene_edit(rb"noise_sigma=", b"noise_sigma=x"),
    "scene-wrong-value-count": _scene_edit(rb"grid\.dims=[^\n]*", b"grid.dims=4 4"),
    "scene-non-finite-header-float": _scene_edit(rb"noise_sigma=[^\n]*", b"noise_sigma=nan"),
    "scene-nan-plane": _nan_plane,
    "bundle-non-utf8-path": _non_utf8_path,
    "bundle-nan-weight": _nan_weight,
    "bundle-rank-over-64": _rank_over_64,
    "bundle-duplicate-path": _duplicate_path,
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_format_error_with_offset(self, case, small_scene, small_bundle):
        option, data = MALFORMED[case](small_scene, small_bundle)
        parse = parse_scene if option == "--scene" else parse_bundle
        with pytest.raises(FormatError) as info:
            parse(data)
        assert 0 <= info.value.offset <= len(data)

    def test_nan_weight_rejected_at_payload_offset(self):
        bundle = ParameterBundle({"a": np.ones(2), "b": np.array([3.0, np.nan])})
        with pytest.raises(FormatError, match="non-finite") as info:
            parse_bundle(dump_bundle(bundle))
        # header 12 bytes; entry "a" 2 + 1 + 1 + 4 + 8 bytes; entry "b" 2 + 1 + 1 + 4 before its payload
        assert info.value.offset == 12 + 16 + 8

    def test_nan_plane_value_rejected(self, small_scene):
        data = _nan_plane(small_scene, None)[1]
        with pytest.raises(FormatError, match="non-finite value in depth planes") as info:
            parse_scene(data)
        assert info.value.offset == data.index(b"END_HEADER\n") + len(b"END_HEADER\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_reports_error_and_exits_1(self, case, small_scene, small_bundle, tmp_path, capsys):
        option, data = MALFORMED[case](small_scene, small_bundle)
        path = tmp_path / "bad.bin"
        path.write_bytes(data)
        code = main(["run", "--preset", "synthetic", option, str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "byte offset" in err
        assert "Traceback" not in err


def _goc1_field_edit(offset, fmt, value):
    """A 2x2x1 GOC1 file with one header field overwritten."""

    def build(scene):
        spec = GridSpec(origin=np.zeros(3), voxel_size=np.ones(3), dims=(2, 2, 1))
        data = bytearray(dump_grid(SemanticOccupancyGrid(spec=spec, labels=np.zeros((2, 2, 1))), class_count=4))
        struct.pack_into(fmt, data, offset, value)
        return parse_grid, bytes(data)

    return build


def _scene_case(pattern, replacement, field):
    """Scene header edit ``pattern`` -> ``replacement``, faulting at the line of ``field``."""

    def build(scene):
        edited, hits = re.subn(pattern, replacement, dump_scene(scene), count=1)
        assert hits == 1
        return parse_scene, edited

    return build, lambda data: data.index(b"\n" + field + b"=") + 1


def _repeated_key_case(pattern, repeat, field):
    """Scene header line ``pattern`` followed by the line ``repeat`` of the same key, faulting at ``repeat``."""
    build, _ = _scene_case(pattern, rb"\g<0>" + repeat, field)
    return build, lambda data: data.rindex(b"\n" + field + b"=") + 1


OVERLONG_ROW = b"blob" + b"9" * 5000

# parseable but invalid header values: (edit, offset of the offending field)
INVALID_HEADER = {
    "goc1-zero-dim": (_goc1_field_edit(12, "<I", 0), lambda data: 8),
    "goc1-zero-voxel": (_goc1_field_edit(24, "<f", 0.0), lambda data: 24),
    "goc1-negative-voxel": (_goc1_field_edit(32, "<f", -0.5), lambda data: 24),
    "goc1-nan-origin": (_goc1_field_edit(40, "<f", math.nan), lambda data: 36),
    "gscn-zero-dim": _scene_case(rb"grid\.dims=\d+", b"grid.dims=0", b"grid.dims"),
    "gscn-zero-voxel": _scene_case(rb"grid\.voxel=[^ ]+", b"grid.voxel=0.0", b"grid.voxel"),
    "gscn-negative-class-weight": _scene_case(rb"class_weights=", b"class_weights=-", b"class_weights"),
    "gscn-class-weight-count": _scene_case(rb"classes=", b"classes=extra,", b"class_weights"),
    "gscn-feature-width-below-classes": _scene_case(rb"feature_width=\d+", b"feature_width=2", b"feature_width"),
    "gscn-zero-depth-planes": _scene_case(rb"depth_planes=\d+", b"depth_planes=0", b"depth_planes"),
    "gscn-zero-cameras": _scene_case(rb"cameras=\d+", b"cameras=0", b"cameras"),
    "gscn-reversed-blob-range": _scene_case(rb"blob_range=[^\n]*", b"blob_range=5 3", b"blob_range"),
    "gscn-zero-plane-shape": _scene_case(rb"plane_shape=\d+", b"plane_shape=0", b"plane_shape"),
    "gscn-negative-focal-length": _scene_case(rb"cam1\.intrinsics=", b"cam1.intrinsics=-", b"cam1.intrinsics"),
    "gscn-zero-cell-size": _scene_case(rb"stack\.cell_size=[^\n]*", b"stack.cell_size=0 -1", b"stack.cell_size"),
    "gscn-negative-cell-size": _scene_case(
        rb"stack\.cell_size=[^\n]*", b"stack.cell_size=0.5 -0.5", b"stack.cell_size"
    ),
    "gscn-short-stack-origin": _scene_case(rb"stack\.origin_xy=[^ ]*", b"stack.origin_xy=", b"stack.origin_xy"),
    "gscn-zero-truth-threshold": _scene_case(rb"truth_threshold=[^\n]*", b"truth_threshold=0.0", b"truth_threshold"),
    "gscn-unit-truth-threshold": _scene_case(rb"truth_threshold=[^\n]*", b"truth_threshold=1.0", b"truth_threshold"),
    # blob rows: centroid (3), scale (3), rotation (4), class id
    "gscn-blob-class-too-large": _scene_case(rb"(blob0=[^\n]* )\d+\n", rb"\g<1>99\n", b"blob0"),
    "gscn-blob-class-negative": _scene_case(rb"(blob0=[^\n]* )\d+\n", rb"\g<1>-3\n", b"blob0"),
    "gscn-blob-class-fractional": _scene_case(rb"(blob0=[^\n]* )\d+\n", rb"\g<1>2.5\n", b"blob0"),
    "gscn-blob-negative-scale": _scene_case(rb"(blob0=(?:[^ ]+ ){3})[^ ]+", rb"\g<1>-0.5", b"blob0"),
    "gscn-blob-non-unit-quaternion": _scene_case(rb"(blob0=(?:[^ ]+ ){6})[^ ]+", rb"\g<1>5.0", b"blob0"),
    # the blob count: within the header's blob_range (3 to 6 here), with no row past it
    "gscn-blob-count-negative": _scene_case(rb"\nblobs=\d+", b"\nblobs=-1", b"blobs"),
    "gscn-blob-count-above-range": _scene_case(rb"\nblobs=\d+", b"\nblobs=7", b"blobs"),
    "gscn-blob-row-past-count": _scene_case(rb"\nblob0=([^\n]*)", rb"\g<0>\nblob9=\g<1>", b"blob9"),
    # a row index of more digits than int() parses
    "gscn-blob-row-index-overlong": _scene_case(rb"\nblob0=", b"\n" + OVERLONG_ROW + rb"=\g<0>", OVERLONG_ROW),
    # a repeated key faults at its second line, instead of the last one silently winning
    "gscn-repeated-noise-sigma": _repeated_key_case(rb"\nnoise_sigma=[^\n]*", b"\nnoise_sigma=0.5", b"noise_sigma"),
    "gscn-repeated-blob-row": _repeated_key_case(rb"\nblob3=[^\n]*", b"\nblob3=0 0 0 1 1 1 1 0 0 0 0", b"blob3"),
}


def _truth_start(scene, data):
    """Byte offset of the embedded GOC1 truth grid, the last block of a scene file."""
    return len(data) - len(dump_grid(scene.truth, class_count=scene.config.taxonomy.c_total))


class TestInvalidHeaderValues:
    @pytest.mark.parametrize("case", sorted(INVALID_HEADER))
    def test_format_error_at_field_offset(self, case, small_scene):
        edit, field_offset = INVALID_HEADER[case]
        parse, data = edit(small_scene)
        with pytest.raises(FormatError) as info:
            parse(data)
        assert info.value.offset == field_offset(data)

    def test_truth_grid_fault_reported_at_scene_offset(self, small_scene, tmp_path):
        path = tmp_path / "scene.gscn"
        save_scene(small_scene, path)
        data = bytearray(path.read_bytes())
        truth_start = _truth_start(small_scene, data)
        data[truth_start] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="bad grid magic") as info:
            load_scene(path)
        assert info.value.offset == truth_start

    def test_truth_grid_must_match_header_grid(self, small_scene):
        data = bytearray(dump_scene(small_scene))
        truth_start = _truth_start(small_scene, data)
        struct.pack_into("<f", data, truth_start + 36, 100.0)  # truth origin x
        with pytest.raises(FormatError, match="truth grid") as info:
            parse_scene(bytes(data))
        assert info.value.offset == truth_start


def _fuzz_samples():
    """One small valid file per codec, its canonical re-encoder and its header length."""
    rng = np.random.default_rng(0)
    taxonomy = ClassTaxonomy(names=NUSCENES_CLASS_NAMES[:3], class_weights=np.ones(4))
    spec = GridSpec(origin=np.array([-2.0, -2.0, -1.0]), voxel_size=np.array([0.5, 0.5, 0.5]), dims=(8, 8, 4))
    config = SceneConfig(
        grid=spec,
        taxonomy=taxonomy,
        feature_width=4,
        depth_planes=2,
        plane_shape=(2, 3),
        cameras=1,
        camera_shape=(2, 3),
        blob_range=(2, 2),
    )
    scene = dump_scene(generate_scene(config, seed=5))
    grid = dump_grid(SemanticOccupancyGrid(spec=spec, labels=rng.integers(0, 4, size=spec.dims)), class_count=4)
    bundle = dump_bundle(
        ParameterBundle({"a.w": rng.normal(size=(2, 3)), "b": np.float32(1.5), "c.bias": rng.normal(size=4)})
    )
    return {
        "GOC1": (grid, lambda b: dump_grid(parse_grid(b), class_count=struct.unpack_from("<I", b, 20)[0]), 48),
        # a bundle's metadata is interleaved with its payloads, so every byte counts as header
        "GOCW": (bundle, lambda b: dump_bundle(parse_bundle(b)), len(bundle)),
        "GSCN": (scene, lambda b: dump_scene(parse_scene(b)), scene.index(b"END_HEADER\n") + len(b"END_HEADER\n")),
    }


FUZZ_SAMPLES = _fuzz_samples()


class TestCodecFuzz:
    """Truncations, bit flips and header byte edits of valid files either
    round-trip (the re-encoding is a fixed point) or raise FormatError."""

    @pytest.mark.parametrize("codec", sorted(FUZZ_SAMPLES))
    def test_samples_round_trip(self, codec):
        valid, encode, _ = FUZZ_SAMPLES[codec]
        assert encode(valid) == valid

    @pytest.mark.parametrize("codec", sorted(FUZZ_SAMPLES))
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_mutations_round_trip_or_raise_format_error(self, codec, data):
        valid, encode, header_len = FUZZ_SAMPLES[codec]
        mutated = bytearray(valid)
        kind = data.draw(st.sampled_from(["truncate", "flip", "header"]))
        if kind == "truncate":
            mutated = mutated[: data.draw(st.integers(0, len(valid) - 1))]
        elif kind == "flip":
            mutated[data.draw(st.integers(0, len(valid) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        else:
            mutated[data.draw(st.integers(0, header_len - 1))] = data.draw(st.integers(0, 255))
        try:
            once = encode(bytes(mutated))
        except FormatError:
            return
        assert encode(once) == once


# each codec's file read through its path and from its bytes, and the bytes that identify what it read
READERS = {
    "GOC1": (load_grid, parse_grid, lambda grid: dump_grid(grid, class_count=0)),
    "GOCW": (load_bundle, parse_bundle, dump_bundle),
    "GSCN": (load_scene, parse_scene, dump_scene),
}


def _outcome(read, source, identify):
    """``identify`` of what ``read(source)`` returns, or its FormatError's message and offset."""
    try:
        return identify(read(source))
    except FormatError as exc:
        return str(exc), exc.offset


class TestPathAndBytes:
    """A file and its bytes go through one parse path, so they read alike."""

    @pytest.mark.parametrize("codec", sorted(FUZZ_SAMPLES))
    def test_truncations_and_bit_flips_read_alike(self, codec, tmp_path):
        valid, _, header_len = FUZZ_SAMPLES[codec]
        load, parse, identify = READERS[codec]
        cuts = sorted({0, 3, 4, 5, 12, header_len - 1, header_len, len(valid) // 2, len(valid) - 1})
        rng = np.random.default_rng(7)
        flips = []
        for at, bit in zip(rng.integers(0, len(valid), 40), rng.integers(0, 8, 40)):
            flipped = bytearray(valid)
            flipped[at] ^= 1 << int(bit)
            flips.append(bytes(flipped))
        path = tmp_path / "sample.bin"
        refused = 0
        for data in [valid] + [valid[:n] for n in cuts] + flips:
            path.write_bytes(data)
            outcome = _outcome(load, path, identify)
            assert outcome == _outcome(parse, data, identify)
            refused += isinstance(outcome, tuple)
        assert refused >= len(cuts)


def _hostile_scene():
    """A scene whose camera plane outweighs its depth planes: 4 KiB of depth, 48 KiB of camera."""
    config = SceneConfig(
        grid=GridSpec(origin=np.array([-2.0, -2.0, -1.0]), voxel_size=np.full(3, 0.25), dims=(16, 16, 8)),
        taxonomy=ClassTaxonomy(names=NUSCENES_CLASS_NAMES[:3], class_weights=np.ones(4)),
        feature_width=8,
        depth_planes=2,
        plane_shape=(8, 8),
        cameras=1,
        camera_shape=(32, 48),
        blob_range=(2, 2),
    )
    data = dump_scene(generate_scene(config, seed=5))
    return data, data.index(b"END_HEADER\n") + len(b"END_HEADER\n")


def _hostile_scene_edit(old, new, wanted, after_depth):
    """The hostile scene with header text ``old`` made ``new``: a section of ``wanted``
    bytes, refused at the depth planes' start or, with ``after_depth``, the camera plane's."""

    def build():
        data, depth_start = _hostile_scene()
        edited = data.replace(old, new, 1)
        start = depth_start + len(new) - len(old) + (4 * 2 * 8 * 8 * 8 if after_depth else 0)
        return "GSCN", edited, f"truncated scene file: wanted {wanted} bytes", start

    return build


def _hostile_bundle():
    # one entry "a" of shape (2^32 - 1, 2^32 - 1) with 64 KiB of its payload
    dim = 2**32 - 1
    data = b"GOCW" + struct.pack("<IIH", 1, 1, 1) + b"a" + struct.pack("<BII", 2, dim, dim) + bytes(2**16)
    return "GOCW", data, f"truncated weight bundle: wanted {4 * dim * dim} bytes", 24


def _hostile_grid():
    # dims (2^32 - 1, 2^32 - 1, 1) with 64 KiB of labels
    dim = 2**32 - 1
    header = b"GOC1" + struct.pack("<IIIII3f3f", 1, dim, dim, 1, 18, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    return "GOC1", header + bytes(2**16), f"truncated grid file: wanted {dim * dim} bytes", 48


# section lengths no file could hold: (codec, data, message, offset)
HOSTILE_LENGTHS = {
    "gscn-plane-shape": _hostile_scene_edit(b"plane_shape=8 8", b"plane_shape=65536 65536", 4 * 2 * 65536**2 * 8, False),
    "gscn-feature-width": _hostile_scene_edit(b"feature_width=8", b"feature_width=4000000000", 4 * 2 * 8 * 8 * 4 * 10**9, False),
    "gscn-camera-shape": _hostile_scene_edit(b"camera_shape=32 48", b"camera_shape=65536 65536", 4 * 65536**2 * 8, True),
    "gocw-entry-shape": _hostile_bundle,
    "goc1-dims": _hostile_grid,
}


class TestHostileLengths:
    """A section longer than the bytes left is refused before anything is allocated for it."""

    @pytest.mark.parametrize("how", ["path", "bytes"])
    @pytest.mark.parametrize("case", sorted(HOSTILE_LENGTHS))
    def test_refused_at_section_start_allocating_nothing(self, case, how, tmp_path):
        codec, data, message, offset = HOSTILE_LENGTHS[case]()
        load, parse, _ = READERS[codec]
        path = tmp_path / "hostile.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                load(path) if how == "path" else parse(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in str(info.value)
        assert info.value.offset == offset
        assert peak < 2 * len(data)
