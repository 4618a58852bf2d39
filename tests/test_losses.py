import numpy as np
import pytest

from motok import losses as ls
from motok import tensorcore as tc
from motok.errors import ArgumentError, ShapeError
from motok.losses import FeatureExtractor
from motok.tensorcore import Tape, Tensor, backward

from helpers import check_grads


class TestL1:
    def test_identical_zero(self):
        x = Tensor(np.ones((2, 3)))
        assert float(ls.l1_loss(x, Tensor(np.ones((2, 3)))).numpy()) == 0.0

    def test_mean_abs(self):
        x = Tensor(np.array([0.0, 0.0]))
        y = Tensor(np.array([1.0, -1.0]))
        assert float(ls.l1_loss(x, y).numpy()) == 1.0

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 4, 5))
        got = float(ls.l1_loss(Tensor(a, dtype=np.float64),
                               Tensor(b, dtype=np.float64)).numpy())
        acc = 0.0
        for i in np.ndindex(a.shape):
            acc += abs(a[i] - b[i])
        assert abs(got - acc / a.size) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ls.l1_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


class TestPerceptual:
    def shaped(self, rng, scale=1.0):
        return scale * rng.normal(size=(1, 2, 8, 8, 8))

    def test_identical_zero(self):
        rng = np.random.default_rng(1)
        psi = FeatureExtractor(2, seed=0)
        x = Tensor(self.shaped(rng).astype(np.float32))
        assert float(ls.perceptual_loss(x, x, psi).numpy()) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        psi = FeatureExtractor(2, seed=0)
        a = Tensor(self.shaped(rng).astype(np.float32))
        b = Tensor(self.shaped(rng).astype(np.float32))
        assert np.isclose(float(ls.perceptual_loss(a, b, psi).numpy()),
                          float(ls.perceptual_loss(b, a, psi).numpy()))

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_for_distinct_inputs(self, seed):
        rng = np.random.default_rng(100 + seed)
        psi = FeatureExtractor(2, seed=seed)
        a = Tensor(self.shaped(rng).astype(np.float32))
        b = Tensor(self.shaped(rng).astype(np.float32))
        assert float(ls.perceptual_loss(a, b, psi).numpy()) > 0.0

    def test_frozen_weights_no_grad(self):
        rng = np.random.default_rng(3)
        psi = FeatureExtractor(2, seed=0)
        x = Tensor(self.shaped(rng).astype(np.float32), requires_grad=True)
        y = Tensor(self.shaped(rng).astype(np.float32))
        with Tape():
            backward(ls.perceptual_loss(x, y, psi))
        assert x.grad is not None
        for w, b in psi.weights:
            assert w.grad is None and b.grad is None

    def test_deterministic_per_seed(self):
        a = FeatureExtractor(3, seed=9)
        b = FeatureExtractor(3, seed=9)
        for (w1, _), (w2, _) in zip(a.weights, b.weights):
            assert np.array_equal(w1.data, w2.data)


class TestHinge:
    def test_inactive_hinges(self):
        out = ls.hinge_d_loss(Tensor(np.array([1.0])), Tensor(np.array([-1.0])))
        assert float(out.numpy()) == 0.0

    def test_zero_logits(self):
        out = ls.hinge_d_loss(Tensor(np.array([0.0])), Tensor(np.array([0.0])))
        assert float(out.numpy()) == 2.0

    def test_scalar_oracle(self):
        rng = np.random.default_rng(4)
        dr = rng.normal(size=8)
        df = rng.normal(size=8)
        got = float(ls.hinge_d_loss(Tensor(dr, dtype=np.float64),
                                    Tensor(df, dtype=np.float64)).numpy())
        want = np.mean([max(0.0, 1 - v) for v in dr]) \
            + np.mean([max(0.0, 1 + v) for v in df])
        assert abs(got - want) < 1e-12

    def test_nonnegative_and_zero_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dr = Tensor(rng.normal(size=4), dtype=np.float64)
            df = Tensor(rng.normal(size=4), dtype=np.float64)
            v = float(ls.hinge_d_loss(dr, df).numpy())
            assert v >= 0.0
            if np.all(dr.data >= 1) and np.all(df.data <= -1):
                assert v == 0.0

    def test_inactive_hinge_zero_gradient(self):
        dr = Tensor(np.array([2.0, 0.5]), requires_grad=True, dtype=np.float64)
        df = Tensor(np.array([-3.0, 0.0]), requires_grad=True, dtype=np.float64)
        with Tape():
            backward(ls.hinge_d_loss(dr, df))
        assert dr.grad[0] == 0.0 and dr.grad[1] != 0.0
        assert df.grad[0] == 0.0 and df.grad[1] != 0.0

    def test_empty_batch(self):
        with pytest.raises(ArgumentError):
            ls.hinge_d_loss(Tensor(np.zeros(0)), Tensor(np.zeros(1)))


class TestGLoss:
    def test_single(self):
        assert float(ls.g_loss(Tensor(np.array([0.5]))).numpy()) == -0.5

    def test_balanced(self):
        assert float(ls.g_loss(Tensor(np.array([1.0, -1.0]))).numpy()) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=5)
        a = float(ls.g_loss(Tensor(2 * v, dtype=np.float64)).numpy())
        b = float(ls.g_loss(Tensor(v, dtype=np.float64)).numpy())
        assert np.isclose(a, 2 * b)


class TestTotal:
    def test_weighted_sum(self):
        total = ls.total_generator_loss(
            Tensor(np.array(0.0)), Tensor(np.array(1.0)),
            Tensor(np.array(2.0)), Tensor(np.array(3.0)),
            alpha=1.0, beta=1.0, lam=0.1)
        assert np.isclose(float(total.numpy()), 3.3)

    def test_lambda_zero_drops_adversarial(self):
        parts = [Tensor(np.array(0.5)), Tensor(np.array(1.0)), Tensor(np.array(2.0))]
        with_none = ls.total_generator_loss(*parts, None, alpha=1.0, beta=1.0, lam=0.0)
        with_adv = ls.total_generator_loss(*parts, Tensor(np.array(99.0)),
                                           alpha=1.0, beta=1.0, lam=0.0)
        assert float(with_none.numpy()) == float(with_adv.numpy())

    def test_gradient_is_weighted_sum(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4,))

        def build(xt):
            perc = tc.tsum(tc.mul(xt, xt))
            l1v = tc.tsum(tc.tabs(xt))
            vq = tc.tsum(xt)
            adv = tc.tmean(xt)
            return ls.total_generator_loss(perc, l1v, vq, adv,
                                           alpha=0.7, beta=1.3, lam=0.2)

        assert check_grads(build, [x]) < 1e-5

