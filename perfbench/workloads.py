"""Benchmark workloads: run-config overrides and why each one is here.

Every workload runs with GOC_THREADS set to the number of usable cores. The
seed given to the benchmark becomes the config seed, so it picks the scene
and every in-run draw (anchors, depth chunking). The weight bundle comes
from the fixed WEIGHTS_SEED, as one trained model serves many scenes. A
seed-drawn bundle changes the decoded Gaussian sizes, and with them the
splat's work: on dense-grid its time ranged from 4.0 to 5.8 s over five
seeds (2-vCPU Xeon VM at 2.1 GHz).

Each scene has 8 blobs, the middle of the default 3-12 range. The truth
grid costs one dense pass per blob and Lovasz one sort per present class,
so with a seed-drawn blob count dense-grid set-up ranged from 1.2 to 3.1 s
over five seeds. Seeds still vary blob positions, shapes and classes.
"""

from __future__ import annotations

BLOBS = {"blob_min": 8, "blob_max": 8}
WEIGHTS_SEED = 0

WORKLOADS: dict[str, dict] = {
    "occ3d": {
        "overrides": {"preset": "occ3d", "smoothing": True, **BLOBS},
        "oracles": False,
        "why": (
            "Head-heavy: 12,800 anchors at F=128, N=16, so the selective scan and "
            "zoh_discretize dominate; 6 wide cameras give the most lifting work; "
            "smoothing=on is the only workload where the smoothing layer does work."
        ),
    },
    "dense-grid": {
        # the criterion-10 config of tests/test_acceptance.py, with 8 blobs
        "overrides": {
            "preset": "synthetic",
            "gaussian_count": 25600,
            "grid_dims": (256, 256, 32),
            "grid_origin": (-51.2, -51.2, -2.0),
            "grid_voxel": (0.4, 0.4, 0.25),
            "plane_shape": (128, 128),
            "camera_shape": (64, 96),
            "truncation_sigmas": 3.0,
            **BLOBS,
        },
        "oracles": False,
        "why": (
            "Grid-heavy: 25,600 anchors onto 256x256x32 at 3 sigma, the largest score "
            "volume, so the splat, Lovasz, CE and anchor set-up dominate; its head is "
            "narrow (F=32) but long (T=6400)."
        ),
    },
    "small": {
        "overrides": {"preset": "synthetic", **BLOBS},
        "oracles": True,
        "why": (
            "Small calls: 1,024 anchors onto 32x32x16 in about 0.6 s, so fixed "
            "per-call costs (thread-pool start-up, parameter unpacking, file I/O) "
            "are a visible share; small enough for the splat and scan oracle checks."
        ),
    },
}

# Inputs for the warm-up call that precedes the measured calls in every run
# process: tiny, so they cannot raise a workload's peak RSS.
WARMUP = {"overrides": {"preset": "synthetic"}, "seed": 0}

