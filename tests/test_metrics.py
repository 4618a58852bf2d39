import csv
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from motok import metrics as mt
from motok import model as mdl
from motok.errors import ArgumentError, ShapeError
from motok.metrics import MetricsReport


def ssim_oracle(x, y):
    """Scalar-loop SSIM: explicit window loops, no vectorized statistics."""
    win, sig = mt.SSIM_WINDOW, mt.SSIM_SIGMA
    half = win // 2
    k = np.empty((win, win))
    for i in range(win):
        for j in range(win):
            k[i, j] = np.exp(-((i - half) ** 2 + (j - half) ** 2) / (2 * sig ** 2))
    k /= k.sum()

    imgs_x = x.reshape(-1, *x.shape[-2:])
    imgs_y = y.reshape(-1, *y.shape[-2:])
    vals = []
    for a, b in zip(imgs_x, imgs_y):
        h, w = a.shape
        for r in range(h - win + 1):
            for c in range(w - win + 1):
                pa = a[r:r + win, c:c + win]
                pb = b[r:r + win, c:c + win]
                mx = float((k * pa).sum())
                my = float((k * pb).sum())
                vx = float((k * pa * pa).sum()) - mx * mx
                vy = float((k * pb * pb).sum()) - my * my
                cv = float((k * pa * pb).sum()) - mx * my
                num = (2 * mx * my + mt.SSIM_C1) * (2 * cv + mt.SSIM_C2)
                den = (mx * mx + my * my + mt.SSIM_C1) * (vx + vy + mt.SSIM_C2)
                vals.append(num / den)
    return float(np.mean(vals))


def psnr_oracle(x, y, max_val=1.0):
    se = 0.0
    for i in np.ndindex(x.shape):
        se += (x[i] - y[i]) ** 2
    mse = se / x.size
    if mse == 0.0:
        return mt.PSNR_CAP_DB
    return 10.0 * np.log10(max_val * max_val / mse)


def l1_oracle(x, y):
    acc = 0.0
    for i in np.ndindex(x.shape):
        acc += abs(x[i] - y[i])
    return acc / x.size


def tstd_oracle(v):
    """Scalar-loop temporal instability for a [F,C,H,W] stack."""
    f, ch, h, w = v.shape
    per_channel = []
    for c in range(ch):
        total = 0.0
        for t in range(f):
            sq = 0.0
            for i in range(h):
                for j in range(w):
                    mu = sum(v[tt, c, i, j] for tt in range(f)) / f
                    sq += (v[t, c, i, j] - mu) ** 2
            total += np.sqrt(sq / (h * w))
        per_channel.append(total / (f * h * w))
    return float(np.mean(per_channel))


def random_pair(rng, shape=(2, 10, 10)):
    return rng.uniform(size=shape), rng.uniform(size=shape)


class TestSsim:
    def test_self_is_one(self):
        rng = np.random.default_rng(0)
        x, _ = random_pair(rng)
        assert mt.ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        x, y = random_pair(rng)
        assert abs(mt.ssim(x, y) - ssim_oracle(x, y)) < 1e-9

    def test_channel_frame_stack(self):
        rng = np.random.default_rng(20)
        x, y = random_pair(rng, shape=(2, 3, 9, 9))
        assert abs(mt.ssim(x, y) - ssim_oracle(x, y)) < 1e-9

    @pytest.mark.parametrize("shape", [(3, 5, 9, 8), (17, 7, 9), (2, 12, 7), (7, 7), (10, 13)])
    def test_image_group_edges(self, shape):
        # Image counts that are not a multiple of SSIM_GROUP, extents equal
        # to the window, non-square extents and a single 2-D image.
        rng = np.random.default_rng(23)
        x, y = random_pair(rng, shape=shape)
        assert abs(mt.ssim(x, y) - ssim_oracle(x, y)) < 1e-9

    def test_peak_memory_flat_in_image_count(self):
        rng = np.random.default_rng(24)

        def peak(shape):
            x, y = (rng.uniform(size=shape).astype(np.float32) for _ in range(2))
            tracemalloc.start()
            try:
                mt.ssim(x, y)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak((64, 4, 32, 32)) <= 1.25 * peak((16, 4, 32, 32))

    VIEWS = {"moveaxis": ((19, 16, 9, 11), lambda a: np.moveaxis(a, 0, 1)),
             "transposed": ((3, 9, 12), lambda a: a.swapaxes(1, 2)),
             "reversed": ((5, 2, 8, 9), lambda a: a[::-1, :, ::-1])}

    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_view_matches_contiguous_bitwise(self, view):
        # evaluate scores moveaxis views of the window and the decoded volume:
        # a view's images must be read in the same order with the same bytes.
        shape, make = self.VIEWS[view]
        x, y = (make(a) for a in random_pair(np.random.default_rng(25), shape=shape))
        assert not x.flags.c_contiguous
        assert mt.ssim(x, y) == mt.ssim(np.ascontiguousarray(x), np.ascontiguousarray(y))

    def test_view_peak_matches_contiguous(self):
        # Each group is taken straight from a view: no copy of the whole input.
        rng = np.random.default_rng(26)
        x, y = (np.moveaxis(rng.uniform(size=(19, 16, 32, 32)).astype(np.float32), 0, 1)
                for _ in range(2))

        def peak(a, b):
            tracemalloc.start()
            try:
                mt.ssim(a, b)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(x, y) <= 1.05 * peak(np.ascontiguousarray(x), np.ascontiguousarray(y))

    def test_bounded(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x, y = random_pair(rng, shape=(1, 8, 8))
            assert -1.0 <= mt.ssim(x, y) <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        x, y = random_pair(rng)
        assert mt.ssim(x, y) == pytest.approx(mt.ssim(y, x), abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ArgumentError):
            mt.ssim(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mt.ssim(np.zeros((1, 8, 8)), np.zeros((2, 8, 8)))


@pytest.mark.parametrize("name", ["psnr", "l1", "tstd"])
def test_view_scores_like_contiguous_bitwise(name):
    # evaluate scores moveaxis views; detokenize writes the contiguous
    # volume. Whichever a metric reads, it must give the same bytes.
    rng = np.random.default_rng(27)
    fn = getattr(mt, name)
    for _ in range(20):
        x, y = (np.moveaxis(a, 0, 1) for a in random_pair(rng, shape=(4, 16, 32, 32)))
        args = (y,) if name == "tstd" else (x, y)
        assert fn(*args) == fn(*(np.ascontiguousarray(a) for a in args))


class TestPsnr:
    def test_identical_capped(self):
        x = np.random.default_rng(1).uniform(size=(2, 8, 8))
        assert mt.psnr(x, x) == mt.PSNR_CAP_DB

    def test_known_value(self):
        x = np.zeros((1, 4, 4))
        y = np.full((1, 4, 4), 0.5)
        assert mt.psnr(x, y) == pytest.approx(10 * np.log10(1 / 0.25), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(30 + seed)
        x, y = random_pair(rng)
        assert abs(mt.psnr(x, y) - psnr_oracle(x, y)) < 1e-9

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(40)
        x = rng.uniform(size=(2, 8, 8))
        noise = rng.normal(size=x.shape)
        vals = [mt.psnr(x, x + eps * noise) for eps in (1e-3, 1e-2, 1e-1)]
        assert vals[0] > vals[1] > vals[2]

    def test_bad_max_val(self):
        with pytest.raises(ArgumentError):
            mt.psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), max_val=0.0)


class TestL1:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(50 + seed)
        x, y = random_pair(rng)
        assert abs(mt.l1(x, y) - l1_oracle(x, y)) < 1e-9

    def test_identical_zero(self):
        x = np.ones((2, 3, 3))
        assert mt.l1(x, x) == 0.0


class TestTstd:
    def test_static_sequence_zero(self):
        frame = np.random.default_rng(2).uniform(size=(2, 6, 6))
        v = np.stack([frame] * 5)
        assert mt.tstd(v) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(60 + seed)
        v = rng.uniform(size=(4, 2, 5, 5))
        assert abs(mt.tstd(v) - tstd_oracle(v)) < 1e-9

    def test_three_axis_input(self):
        rng = np.random.default_rng(70)
        v = rng.uniform(size=(4, 5, 5))
        assert abs(mt.tstd(v) - tstd_oracle(v[:, None])) < 1e-9

    def test_frame_permutation_invariant(self):
        rng = np.random.default_rng(71)
        v = rng.uniform(size=(5, 1, 4, 4))
        perm = rng.permutation(5)
        assert mt.tstd(v) == pytest.approx(mt.tstd(v[perm]), abs=1e-12)

    def test_scales_with_amplitude(self):
        rng = np.random.default_rng(72)
        v = rng.uniform(size=(4, 1, 4, 4))
        assert mt.tstd(2 * v) == pytest.approx(2 * mt.tstd(v), abs=1e-12)

    def test_bad_rank(self):
        with pytest.raises(ShapeError):
            mt.tstd(np.zeros((2, 2)))


class TestEvaluate:
    def small_state(self):
        cfg = mdl.ModelConfig(compression="F8", vocab=32, embed_dim=8,
                              base_channels=8, in_channels=2,
                              input_extents=(8, 16, 16))
        return mdl.build(cfg, seed=0)

    def test_report_fields(self):
        state = self.small_state()
        rng = np.random.default_rng(3)
        data = [rng.uniform(size=(2, 8, 16, 16)).astype(np.float32)]
        rep = mt.evaluate(state, data, model_tag="test")
        assert rep.model_tag == "test"
        assert rep.compression == "F8"
        assert rep.vocab == 32
        for v in (rep.ssim, rep.psnr, rep.l1, rep.tstd, rep.qloss):
            assert np.isfinite(v)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = [rng.uniform(size=(2, 8, 16, 16)).astype(np.float32)]
        a = mt.evaluate(self.small_state(), data)
        b = mt.evaluate(self.small_state(), data)
        assert a == b

    def test_empty_dataset(self):
        with pytest.raises(ArgumentError):
            mt.evaluate(self.small_state(), [])

    def test_reads_windows_one_at_a_time(self):
        # Of 6 windows a generator yields, at most the one being scored and
        # the one before it may be alive at once.
        state, rng = self.small_state(), np.random.default_rng(5)
        alive, most, made = set(), [0], []

        def windows():
            for i in range(6):
                win = rng.uniform(size=(2, 8, 16, 16)).astype(np.float32)
                alive.add(i)
                weakref.finalize(win, alive.discard, i)
                most[0] = max(most[0], len(alive))
                made.append(i)
                yield win

        mt.evaluate(state, windows())
        assert made == list(range(6))
        assert most[0] <= 2


class TestReportFiles:
    def sample(self):
        return MetricsReport("VQ-GAN", "F8", 512, 0.975, 31.23, 0.002, 0.151, 0.01)

    def test_csv_round_trip(self, tmp_path):
        p = tmp_path / "report.csv"
        mt.write_report_csv(p, [self.sample()])
        rows = list(csv.reader(p.open()))
        assert rows[0] == mt.REPORT_COLUMNS
        assert rows[1][0] == "VQ-GAN"
        assert float(rows[1][3]) == 0.975

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "report.json"
        mt.write_report_json(p, [self.sample()])
        payload = json.loads(p.read_text())
        assert payload[0]["model"] == "VQ-GAN"
        assert payload[0]["psnr"] == 31.23
        assert set(payload[0]) == set(mt.REPORT_COLUMNS)
