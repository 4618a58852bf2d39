import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motok import metrics as mx
from motok import quantizer as qz
from motok import tensorcore as tc
from motok.errors import ArgumentError, DataError, ShapeError, StateError
from motok.quantizer import Codebook, TokenGrid
from motok.tensorcore import Tape, Tensor, backward

from helpers import FUZZ, corrupt, corruptions


def brute_force_nearest(z_flat, entries):
    """Exhaustive scan over every entry, the independent oracle."""
    out = np.empty(len(z_flat), dtype=np.int64)
    for i, z in enumerate(z_flat):
        best = None
        best_d = np.inf
        for v, e in enumerate(entries):
            d = float(np.sum((z - e) ** 2))
            if d < best_d:
                best_d = d
                best = v
        out[i] = best
    return out


def as_latent(vectors):
    """[P,d] rows -> a [1,d,P,1,1] latent tensor."""
    arr = np.asarray(vectors, dtype=np.float64)
    return Tensor(np.moveaxis(arr, 1, 0)[None, :, :, None, None])


class TestQuantize:
    def test_two_entry_book(self):
        book = Codebook(Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]), requires_grad=True))
        res = qz.quantize(as_latent([[0.9, 0.8]]), book)
        assert res.grids[0].indices.ravel().tolist() == [1]
        assert np.allclose(res.z_q.numpy().ravel(), [1.0, 1.0])

    def test_exact_entry_zero_residual(self):
        rng = np.random.default_rng(0)
        entries = rng.normal(size=(8, 3))
        book = Codebook(Tensor(entries, requires_grad=True))
        z_e = as_latent([entries[3]])
        res = qz.quantize(z_e, book)
        assert res.grids[0].indices.ravel().tolist() == [3]
        assert mx.qloss(z_e.data, res.grids[0].indices, entries) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        entries = rng.normal(size=(16, 4))
        book = Codebook(Tensor(entries, requires_grad=True))
        z = rng.normal(size=(50, 4))
        res = qz.quantize(as_latent(z), book)
        assert np.array_equal(res.grids[0].indices.ravel(), brute_force_nearest(z, entries))

    def test_duplicate_entries_pick_lowest(self):
        e = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        book = Codebook(Tensor(e, requires_grad=True))
        res = qz.quantize(as_latent([[0.1, -0.1]]), book)
        assert res.grids[0].indices.ravel().tolist() == [1]

    def test_usage_counting(self):
        book = qz.init_codebook(4, 2, seed=0)
        qz.quantize(as_latent(np.zeros((5, 2))), book)
        assert book.usage.sum() == 5

    def test_dim_mismatch(self):
        book = qz.init_codebook(4, 3, seed=0)
        with pytest.raises(ShapeError):
            qz.quantize(as_latent(np.zeros((2, 2))), book)

    def test_straight_through_identity_gradient(self):
        rng = np.random.default_rng(2)
        book = Codebook(Tensor(rng.normal(size=(8, 3)), requires_grad=True))
        zv = rng.normal(size=(4, 3))

        z1 = as_latent(zv)
        z1.requires_grad = True
        with Tape():
            res = qz.quantize(z1, book)
            backward(tc.tsum(tc.mul(res.z_q, res.z_q)))
        through_quantizer = z1.grad.copy()

        # same downstream function with z_q replaced by z_e, shifted so the
        # forward values coincide with the quantized ones
        z2 = as_latent(zv)
        z2.requires_grad = True
        shift = Tensor(res.z_q.data - z2.data)
        with Tape():
            zq_alias = tc.add(z2, shift)
            backward(tc.tsum(tc.mul(zq_alias, zq_alias)))
        assert np.array_equal(through_quantizer, z2.grad)


class TestVqLoss:
    def test_zero_when_equal(self):
        z = Tensor(np.array([1.0, 2.0]))
        assert float(qz.vq_loss(z, Tensor(np.array([1.0, 2.0]))).numpy()) == 0.0

    def test_single_position_value(self):
        z = Tensor(np.array([1.0, 0.0]))
        e = Tensor(np.array([0.0, 0.0]))
        assert float(qz.vq_loss(z, e).numpy()) == 2.0

    def test_total_is_twice_distance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        e = rng.normal(size=(6, 4))
        total = float(qz.vq_loss(Tensor(z), Tensor(e)).numpy())
        want = 2.0 * np.sum((z - e) ** 2) / 6
        assert np.isclose(total, want, atol=1e-6)

    def test_gradient_routing(self):
        rng = np.random.default_rng(4)
        z = Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
        e = Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
        with Tape():
            backward(qz.vq_loss(z, e))
        # codebook term: d/de of ||sg(z)-e||^2 = -2(z-e)/P ; commitment term
        # symmetric for z. Cross-gradients are exactly zero by stop-gradient.
        assert np.allclose(z.grad, 2.0 * (z.data - e.data) / 3)
        assert np.allclose(e.grad, -2.0 * (z.data - e.data) / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            qz.vq_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestPerplexity:
    def test_single_entry(self):
        book = qz.init_codebook(8, 2, seed=0)
        book.usage[3] = 10
        assert qz.perplexity(book) == pytest.approx(1.0)

    def test_uniform_usage(self):
        book = qz.init_codebook(128, 2, seed=0)
        book.usage[:] = 5
        assert qz.perplexity(book) == pytest.approx(128.0)

    def test_random_histogram_oracle(self):
        rng = np.random.default_rng(5)
        book = qz.init_codebook(32, 2, seed=0)
        book.usage[:] = rng.integers(0, 100, size=32)
        p = book.usage / book.usage.sum()
        nz = p[p > 0]
        want = np.exp(-np.sum(nz * np.log(nz)))
        assert abs(qz.perplexity(book) - want) < 1e-10

    def test_no_usage_raises(self):
        book = qz.init_codebook(8, 2, seed=0)
        with pytest.raises(StateError):
            qz.perplexity(book)


class TestInitCodebook:
    def test_deterministic(self):
        a = qz.init_codebook(64, 8, seed=42)
        b = qz.init_codebook(64, 8, seed=42)
        assert np.array_equal(a.entries.data, b.entries.data)

    def test_range(self):
        book = qz.init_codebook(100, 16, seed=1)
        assert np.all(np.abs(book.entries.data) <= 1.0 / 100)

    def test_largest_table_configuration(self):
        book = qz.init_codebook(1024, 256, seed=0)
        assert book.entries.shape == (1024, 256)


class TestTokenFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = TokenGrid((2, 4, 4), rng.integers(0, 500, size=(2, 4, 4)), 512)
        p = tmp_path / "t.mtk"
        qz.save_tokens(p, grid)
        back = qz.load_tokens(p)
        assert back.vocab == 512
        assert back.extents == (2, 4, 4)
        assert np.array_equal(back.indices, grid.indices)

    def test_vocab_cap(self, tmp_path):
        grid = TokenGrid((1, 1, 1), np.zeros((1, 1, 1), dtype=np.int64), 70000)
        with pytest.raises(ArgumentError):
            qz.save_tokens(tmp_path / "t.mtk", grid)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "t.mtk"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DataError):
            qz.load_tokens(p)

    def test_out_of_range_index(self):
        with pytest.raises(DataError):
            TokenGrid((1, 1, 2), np.array([[[0, 9]]]), 8)

    def test_every_truncation_is_data_error(self, tmp_path):
        p = tmp_path / "t.mtk"
        qz.save_tokens(p, TokenGrid((1, 2, 3), np.arange(6).reshape(1, 2, 3), 8))
        blob = p.read_bytes()
        for n in range(len(blob)):
            p.write_bytes(blob[:n])
            with pytest.raises(DataError):
                qz.load_tokens(p)

    @FUZZ
    @given(data=st.data())
    def test_corrupt_file_loads_or_is_data_error(self, tmp_path, data):
        p = tmp_path / "t.mtk"
        qz.save_tokens(p, TokenGrid((1, 2, 3), np.arange(6).reshape(1, 2, 3), 8))
        blob = p.read_bytes()
        p.write_bytes(corrupt(blob, data.draw(corruptions(len(blob)))))
        try:
            qz.load_tokens(p)
        except DataError:
            pass
