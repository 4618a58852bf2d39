import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motok import heatmap as hm
from motok.errors import ArgumentError, DataError, ShapeError
from motok.heatmap import KeypointSequence


def gaussian2d_oracle(kp, h, w, sigma):
    """Scalar per-pixel re-evaluation of the rendering formula."""
    out = np.zeros((kp.frames, kp.joints, h, w))
    for f in range(kp.frames):
        for k in range(kp.joints):
            if not kp.validity[f, k]:
                continue
            x, y = kp.coords[f, k]
            for i in range(h):
                for j in range(w):
                    d2 = (j - x) ** 2 + (i - y) ** 2
                    out[f, k, i, j] = np.exp(-d2 / (2 * sigma ** 2))
    return out


def random_kp(rng, frames=2, joints=3, dims=2, extent=12):
    coords = rng.uniform(0, extent - 1, size=(frames, joints, dims))
    return KeypointSequence(coords)


class TestRender2d:
    def test_peak_at_keypoint(self):
        kp = KeypointSequence(np.array([[[5.0, 5.0]]]))
        vol = hm.render2d(kp, 16, 16, sigma=2.0)
        assert vol[0, 0, 5, 5] == 1.0

    def test_known_distance_value(self):
        kp = KeypointSequence(np.array([[[0.0, 0.0]]]))
        vol = hm.render2d(kp, 8, 8, sigma=2.0)
        # squared distance 8 at sigma 2 -> e^-1
        assert np.isclose(vol[0, 0, 2, 2], np.exp(-1.0), atol=1e-12)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(0)
        kp = random_kp(rng)
        kp.validity[0, 1] = False
        vol = hm.render2d(kp, 12, 12, sigma=1.7)
        want = gaussian2d_oracle(kp, 12, 12, 1.7)
        assert np.max(np.abs(vol - want)) < 1e-12

    def test_invalid_keypoint_all_zero(self):
        kp = KeypointSequence(np.array([[[3.0, 3.0]]]), np.array([[False]]))
        vol = hm.render2d(kp, 8, 8, sigma=2.0)
        assert np.all(vol == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_invalid_nonfinite_keypoint_all_zero(self, bad):
        coords = np.array([[[bad, bad], [3.0, 4.0]], [[1.0, bad], [2.0, 2.0]]])
        valid = np.array([[False, True], [False, True]])
        vol = hm.render2d(KeypointSequence(coords, valid), 8, 8, sigma=2.0)
        assert np.all(vol[:, 0] == 0)
        assert np.array_equal(vol[:, 1],
                              hm.render2d(KeypointSequence(coords[:, 1:]), 8, 8, 2.0)[:, 0])

    def test_bad_sigma(self):
        kp = KeypointSequence(np.zeros((1, 1, 2)))
        with pytest.raises(ArgumentError):
            hm.render2d(kp, 8, 8, sigma=0.0)

    def test_dims_mismatch(self):
        kp = KeypointSequence(np.zeros((1, 1, 3)))
        with pytest.raises(ArgumentError):
            hm.render2d(kp, 8, 8, sigma=1.0)

    def test_separability(self):
        rng = np.random.default_rng(4)
        kp = random_kp(rng, frames=1, joints=1)
        sigma = 2.5
        vol = hm.render2d(kp, 12, 12, sigma)
        x, y = kp.coords[0, 0]
        gy = np.exp(-((np.arange(12) - y) ** 2) / (2 * sigma ** 2))
        gx = np.exp(-((np.arange(12) - x) ** 2) / (2 * sigma ** 2))
        assert np.max(np.abs(vol[0, 0] - np.outer(gy, gx))) < 1e-12

    def test_monotone_in_distance(self):
        kp = KeypointSequence(np.array([[[0.0, 0.0]]]))
        vol = hm.render2d(kp, 1, 16, sigma=3.0)
        row = vol[0, 0, 0]
        assert np.all(np.diff(row) < 0)

    def test_sigma_scaling(self):
        kp = KeypointSequence(np.array([[[0.0, 0.0]]]))
        v1 = hm.render2d(kp, 1, 32, sigma=2.0)[0, 0, 0]
        v2 = hm.render2d(kp, 1, 32, sigma=4.0)[0, 0, 0]
        # doubling sigma maps value at distance d to old value at d/2
        for d in (2, 4, 6, 8):
            assert np.isclose(v2[d], v1[d // 2], atol=1e-12)


class TestRender3d:
    def test_peak(self):
        kp = KeypointSequence(np.array([[[3.0, 4.0, 5.0]]]))
        vol = hm.render3d(kp, 8, 8, 8, sigma=1.5)
        assert vol[0, 0, 5, 4, 3] == 1.0

    def test_axis_offset_e_minus_one(self):
        sigma = 2.0
        kp = KeypointSequence(np.array([[[0.0, 0.0, 0.0]]]))
        vol = hm.render3d(kp, 1, 1, 16, sigma=sigma)
        # offset sqrt(2 sigma^2) is not integral; check via continuous formula
        d = np.sqrt(2 * sigma ** 2)
        val = np.exp(-d ** 2 / (2 * sigma ** 2))
        assert np.isclose(val, np.exp(-1.0))
        assert np.isclose(vol[0, 0, 0, 0, 2], np.exp(-4 / 8))

    def test_full_volume_oracle(self):
        rng = np.random.default_rng(1)
        kp = random_kp(rng, frames=1, joints=2, dims=3, extent=6)
        sigma = 1.3
        vol = hm.render3d(kp, 6, 6, 6, sigma)
        for k in range(2):
            x, y, z = kp.coords[0, k]
            for d in range(6):
                for i in range(6):
                    for j in range(6):
                        want = np.exp(-((j - x) ** 2 + (i - y) ** 2 + (d - z) ** 2)
                                      / (2 * sigma ** 2))
                        assert abs(vol[0, k, d, i, j] - want) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_invalid_nonfinite_keypoint_all_zero(self, bad):
        coords = np.array([[[bad, 1.0, bad], [3.0, 4.0, 5.0]]])
        vol = hm.render3d(KeypointSequence(coords, np.array([[False, True]])), 8, 8, 8, 1.5)
        assert np.all(vol[:, 0] == 0)
        assert np.array_equal(vol[:, 1],
                              hm.render3d(KeypointSequence(coords[:, 1:]), 8, 8, 8, 1.5)[:, 0])


class TestTriplane:
    def test_unit_voxel(self):
        vals = np.zeros((1, 1, 4, 4, 4))
        vals[0, 0, 2, 1, 3] = 1.0
        tri = hm.project_triplane(vals)
        xy, yz, xz = tri[0, 0], tri[0, 1], tri[0, 2]
        assert xy[1, 3] == 1.0 and xy.sum() == 1.0
        assert yz[2, 1] == 1.0 and yz.sum() == 1.0
        assert xz[2, 3] == 1.0 and xz.sum() == 1.0

    def test_zero_volume(self):
        tri = hm.project_triplane(np.zeros((2, 1, 3, 3, 3)))
        assert tri.shape == (2, 3, 3, 3)
        assert np.all(tri == 0)

    def test_random_max_oracle(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(size=(2, 2, 5, 5, 5))
        tri = hm.project_triplane(vals)
        for f in range(2):
            for k in range(2):
                assert np.array_equal(tri[f, k], vals[f, k].max(axis=0))
                assert np.array_equal(tri[f, 2 + k], vals[f, k].max(axis=2))
                assert np.array_equal(tri[f, 4 + k], vals[f, k].max(axis=1))

    def test_wrong_layout(self):
        with pytest.raises(ArgumentError):
            hm.project_triplane(np.zeros((1, 1, 3, 3)))

    def test_mismatched_planes_rejected(self):
        with pytest.raises(ShapeError):
            hm.project_triplane(np.zeros((1, 1, 2, 3, 4)))


class TestRenderTriplane:
    def test_same_bytes_as_projected_volume(self):
        # Off-grid joints, and invalid ones with NaN coordinates.
        rng = np.random.default_rng(17)
        invalid = 0
        for _ in range(40):
            f, k = (int(v) for v in rng.integers(1, 5, size=2))
            n = int(rng.integers(1, 20))
            coords = rng.uniform(-3.0, n + 3.0, size=(f, k, 3))
            valid = rng.uniform(size=(f, k)) > 0.25
            coords[~valid] = np.nan
            invalid += int((~valid).sum())
            sigma = float(rng.uniform(0.3, 4.0))
            kp = KeypointSequence(coords, valid)
            got = hm.render_triplane(kp, n, sigma)
            want = hm.project_triplane(hm.render3d(kp, n, n, n, sigma))
            assert got.dtype == want.dtype and got.shape == want.shape == (f, 3 * k, n, n)
            assert got.tobytes() == want.tobytes()
        assert invalid > 0

    def test_rejects_2d_keypoints_and_bad_sigma(self):
        with pytest.raises(ArgumentError):
            hm.render_triplane(KeypointSequence(np.zeros((1, 1, 2))), 4, 1.0)
        with pytest.raises(ArgumentError):
            hm.render_triplane(KeypointSequence(np.zeros((1, 1, 3))), 4, 0.0)


class TestWindow:
    def test_exact_fit(self):
        kp = KeypointSequence(np.zeros((64, 2, 2)))
        assert len(hm.window(kp, 64, 90)) == 1

    def test_stride_arithmetic(self):
        kp = KeypointSequence(np.zeros((244, 2, 2)))
        wins = hm.window(kp, 64, 90)
        assert len(wins) == 3
        # starts at 0, 90, 180
        kp2 = KeypointSequence(np.arange(244 * 2 * 2, dtype=float).reshape(244, 2, 2))
        wins2 = hm.window(kp2, 64, 90)
        assert np.array_equal(wins2[1].coords[0], kp2.coords[90])
        assert np.array_equal(wins2[2].coords[0], kp2.coords[180])

    def test_short_sequence_empty(self):
        kp = KeypointSequence(np.zeros((10, 1, 2)))
        assert hm.window(kp, 64, 90) == []

    @given(f=st.integers(1, 200), length=st.integers(1, 80), stride=st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_window_properties(self, f, length, stride):
        kp = KeypointSequence(np.zeros((f, 1, 2)))
        wins = hm.window(kp, length, stride)
        expected = (f - length) // stride + 1 if f >= length else 0
        assert len(wins) == expected
        assert all(w.frames == length for w in wins)


class TestKeypointFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        kp = random_kp(rng, frames=5, joints=4)
        kp.validity[2, 1] = False
        p = tmp_path / "kp.jsonl"
        hm.save_keypoints(p, kp)
        back = hm.load_keypoints(p)
        assert np.array_equal(back.coords, kp.coords)
        assert np.array_equal(back.validity, kp.validity)

    def test_record_schema(self, tmp_path):
        kp = KeypointSequence(np.array([[[1.0, 2.0]]]))
        p = tmp_path / "kp.jsonl"
        hm.save_keypoints(p, kp)
        rec = json.loads(p.read_text().splitlines()[0])
        assert set(rec) == {"frame", "kp", "valid"}
        assert rec["kp"] == [[1.0, 2.0]]

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "kp.jsonl"
        p.write_text('{"frame": 0, "kp": [[1,2]]}\n')  # missing "valid"
        with pytest.raises(DataError):
            hm.load_keypoints(p)
