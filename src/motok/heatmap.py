"""Keypoint sequences and their Gaussian heatmap renderings.

A sequence of per-frame joint coordinates is rendered into dense volumes: one
Gaussian bump per joint per frame, in 2D stacks ``[F,K,H,W]``, 3D volumes
``[F,K,D,H,W]``, or tri-plane projections ``[F,3K,H,W]``. All rendering is
pure numpy; these volumes are model inputs, not differentiated through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .errors import ArgumentError, DataError, ShapeError


@dataclass
class KeypointSequence:
    """Per-frame 2D or 3D joint coordinates with validity flags.

    ``coords`` is [F,K,dims] with axis order (x, y[, z]) in pixel/voxel units.
    """

    coords: np.ndarray
    validity: np.ndarray = None

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 3 or self.coords.shape[2] not in (2, 3):
            raise ShapeError(f"coords must be [F,K,2] or [F,K,3], got {self.coords.shape}")
        if self.coords.shape[0] < 1 or self.coords.shape[1] < 1:
            raise ArgumentError("need at least one frame and one joint")
        if self.validity is None:
            self.validity = np.ones(self.coords.shape[:2], dtype=bool)
        else:
            self.validity = np.asarray(self.validity, dtype=bool)
            if self.validity.shape != self.coords.shape[:2]:
                raise ShapeError(f"validity must be [F,K], got {self.validity.shape}")
        if not np.all(np.isfinite(self.coords[self.validity])):
            raise ArgumentError("valid keypoints must have finite coordinates")

    @property
    def frames(self) -> int:
        return self.coords.shape[0]

    @property
    def joints(self) -> int:
        return self.coords.shape[1]

    @property
    def dims(self) -> int:
        return self.coords.shape[2]


def _gauss_1d(kp: KeypointSequence, axis: int, extent: int, sigma: float) -> np.ndarray:
    # coordinate ``axis`` [F,K] against the grid 0..extent-1 -> [F,K,extent];
    # all zeros for an invalid joint, whatever its (maybe NaN) coordinate
    d = np.arange(extent, dtype=np.float64)[None, None, :] - kp.coords[:, :, axis, None]
    return np.where(kp.validity[:, :, None], np.exp(-(d * d) / (2.0 * sigma * sigma)), 0.0)


def render2d(kp: KeypointSequence, h: int, w: int, sigma: float) -> np.ndarray:
    """Gaussian bump per joint per frame on an HxW grid, as f64 ``[F,K,H,W]``.

    Pixel (i,j) of a joint's map holds exp(-((j-x)^2 + (i-y)^2) / (2 sigma^2));
    rows index y, columns index x. Invalid keypoints give all-zero maps.
    """
    if sigma <= 0:
        raise ArgumentError(f"sigma must be positive, got {sigma}")
    if kp.dims != 2:
        raise ArgumentError(f"render2d needs 2-D keypoints, got dims={kp.dims}")
    gy, gx = _gauss_1d(kp, 1, h, sigma), _gauss_1d(kp, 0, w, sigma)
    return gy[:, :, :, None] * gx[:, :, None, :]


def _gauss_zyx(kp: KeypointSequence, d: int, h: int, w: int, sigma: float, caller: str):
    # the z, y and x Gaussians [F,K,extent] of 3-D keypoints
    if sigma <= 0:
        raise ArgumentError(f"sigma must be positive, got {sigma}")
    if kp.dims != 3:
        raise ArgumentError(f"{caller} needs 3-D keypoints, got dims={kp.dims}")
    return tuple(_gauss_1d(kp, axis, n, sigma) for axis, n in ((2, d), (1, h), (0, w)))


def render3d(kp: KeypointSequence, d: int, h: int, w: int, sigma: float) -> np.ndarray:
    """3-D extension, f64 ``[F,K,D,H,W]``: voxel (k,i,j) holds the Gaussian of (x,y,z) distance."""
    gz, gy, gx = _gauss_zyx(kp, d, h, w, sigma, "render3d")
    return gz[:, :, :, None, None] * gy[:, :, None, :, None] * gx[:, :, None, None, :]


def render_triplane(kp: KeypointSequence, n: int, sigma: float) -> np.ndarray:
    """``project_triplane(render3d(kp, n, n, n, sigma))``, f64 ``[F,3K,n,n]``,
    with the same bytes but no n^3 volume.

    Each projection takes the max of one 1-D Gaussian before multiplying in
    ``render3d``'s order, (gz * gy) * gx: rounding a product of non-negative
    factors is monotone in each factor, so the max moves through it.
    """
    gz, gy, gx = _gauss_zyx(kp, n, n, n, sigma, "render_triplane")
    mz, my, mx = (g.max(axis=2, keepdims=True) for g in (gz, gy, gx))
    xy = (mz * gy)[:, :, :, None] * gx[:, :, None, :]
    yz = (gz[:, :, :, None] * gy[:, :, None, :]) * mx[:, :, :, None]
    xz = (gz * my)[:, :, :, None] * gx[:, :, None, :]
    return np.concatenate([xy, yz, xz], axis=1)


def project_triplane(v: np.ndarray) -> np.ndarray:
    """Max-project a 3-D volume ``[F,K,D,H,W]`` onto the X-Y, Y-Z, and X-Z planes.

    Projections run over D, W, and H respectively and are stacked on the
    channel axis as ``[F,3K,H,W]``, [xy(K), yz(K), xz(K)], in the input's
    dtype; all three plane shapes must agree.
    """
    if v.ndim != 5:
        raise ArgumentError(f"project_triplane needs an [F,K,D,H,W] volume, got rank {v.ndim}")
    xy = v.max(axis=2)   # over D -> [F,K,H,W]
    yz = v.max(axis=4)   # over W -> [F,K,D,H]
    xz = v.max(axis=3)   # over H -> [F,K,D,W]
    if not (xy.shape == yz.shape == xz.shape):
        raise ShapeError("tri-plane stacking needs matching plane shapes; "
                         f"got {xy.shape[2:]}, {yz.shape[2:]}, {xz.shape[2:]} (use D=H=W)")
    return np.concatenate([xy, yz, xz], axis=1)


def window(kp: KeypointSequence, length: int, stride: int) -> list:
    """Fixed-length windows at offsets 0, stride, 2*stride, ...; partials dropped."""
    if length < 1 or stride < 1:
        raise ArgumentError("window length and stride must be >= 1")
    out = []
    start = 0
    while start + length <= kp.frames:
        out.append(KeypointSequence(kp.coords[start:start + length].copy(),
                                    kp.validity[start:start + length].copy()))
        start += stride
    return out


# ---------------------------------------------------------------------------
# Keypoint file: one JSON object per line, {"frame", "kp", "valid"}.
# ---------------------------------------------------------------------------

def save_keypoints(path, kp: KeypointSequence) -> None:
    tc.write_text(path, "".join(json.dumps({
        "frame": i,
        "kp": [[float(v) for v in joint] for joint in kp.coords[i]],
        "valid": [bool(v) for v in kp.validity[i]],
    }, separators=(",", ":")) + "\n" for i in range(kp.frames)))


def load_keypoints(path) -> KeypointSequence:
    coords = []
    valid = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:  # bad UTF-8 or JSON, too deep, too long an int
                rec = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{where}: malformed keypoint record: {exc}") from exc
            if not (isinstance(rec, dict) and "kp" in rec and "valid" in rec):
                raise DataError(f'{where}: a keypoint record must be a JSON object with "kp" '
                                'and "valid"')
            try:
                kp = np.asarray(rec["kp"], dtype=np.float64)
                ok = np.asarray(rec["valid"], dtype=bool)
            except (TypeError, ValueError, OverflowError) as exc:  # incl. an int past f64
                raise DataError(f"{where}: keypoints must be lists of numbers: {exc}") from exc
            if kp.ndim != 2:
                raise DataError(f'{where}: "kp" must be a list of joints, got shape {kp.shape}')
            if kp.shape[1] not in (2, 3):
                raise DataError(f"{where}: a joint has {kp.shape[1]} coordinates, "
                                "it needs 2 (x, y) or 3 (x, y, z)")
            if ok.shape != kp.shape[:1]:
                raise DataError(f'{where}: "valid" must hold one flag for each of the '
                                f"{len(kp)} joints, got shape {ok.shape}")
            if coords and kp.shape != coords[0].shape:
                raise DataError(f"{where}: inconsistent joint counts across frames: "
                                f"{kp.shape} joints x coordinates, the first frame has "
                                f"{coords[0].shape}")
            coords.append(kp)
            valid.append(ok)
    if not coords:
        raise DataError(f"{path}: empty keypoint file")
    try:
        return KeypointSequence(np.stack(coords), np.stack(valid))
    except ArgumentError as exc:  # a valid joint with a NaN or infinite coordinate
        raise DataError(f"{path}: {exc}") from exc
