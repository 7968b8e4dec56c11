"""Layers, losses, training loop, gradient checks, and checkpoints."""

import numpy as np
import pytest

from poselang import neural


def make_pool_safe_batch(rng, shape, net, min_gap=1e-3):
    """Inputs whose global-max-pool winner is clear of ties.

    Near-ties at the max make the pooled output non-differentiable, which
    would invalidate central finite differences at step h.
    """
    for _ in range(50):
        x = rng.normal(size=shape)
        conv_act = _conv1d_activations(net, x)
        top2 = np.sort(conv_act, axis=1)[:, -2:, :]
        if np.min(top2[:, 1, :] - top2[:, 0, :]) > min_gap:
            return x
    raise AssertionError("could not find a pool-tie-free input")


def _conv1d_activations(net, x):
    x = np.asarray(x, dtype=np.float64)
    B, T, D = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
    cols = np.concatenate([xp[:, :T, :], xp[:, 1:T + 1, :], xp[:, 2:T + 2, :]],
                          axis=2)
    return np.tanh((cols.reshape(-1, 3 * D) @ net.W + net.b).reshape(B, T, -1))


class TestPrimitives:
    def test_sigmoid_stable(self):
        z = np.array([-1e4, -2.0, 0.0, 2.0, 1e4])
        out = neural.sigmoid(z)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[4] == 1.0
        assert out[2] == 0.5
        assert np.allclose(out[1] + out[3], 1.0)

    def test_dense_forward_backward(self):
        rng = np.random.default_rng(0)
        layer = neural.Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x)
        assert np.allclose(out, x @ layer.W + layer.b)
        dout = rng.normal(size=(4, 2))
        dx = layer.backward(dout)
        assert np.allclose(layer.dW, x.T @ dout)
        assert np.allclose(layer.db, dout.sum(axis=0))
        assert np.allclose(dx, dout @ layer.W.T)
        with pytest.raises(neural.ShapeMismatch):
            layer.forward(np.zeros((2, 5)))

    def test_avgpool_shapes(self):
        pool = neural.AvgPool2()
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = pool.forward(x)
        assert out.shape == (1, 2, 2, 1)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)
        with pytest.raises(neural.ShapeMismatch):
            pool.forward(np.zeros((1, 3, 4, 1)))

    def test_conv2d_same_padding_identity_kernel(self):
        rng = np.random.default_rng(1)
        conv = neural.Conv2D(1, 1, rng)
        conv.W[...] = 0.0
        conv.W[4, 0] = 1.0  # center tap of the 3x3 kernel
        conv.b[...] = 0.0
        x = rng.normal(size=(2, 5, 6, 1))
        assert np.allclose(conv.forward(x), x)


def _im2col_reference(x):
    """The tap-by-tap im2col Conv2D.forward used before its one-copy
    rewrite."""
    B, H, W, C = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((B, H, W, 9 * C))
    for i in range(3):
        for j in range(3):
            cols[..., (i * 3 + j) * C:(i * 3 + j + 1) * C] = \
                xp[:, i:i + H, j:j + W, :]
    return cols.reshape(-1, 9 * C)


def _col2im_reference(dcols, shape):
    B, H, W, C = shape
    dcols = dcols.reshape(B, H, W, 9 * C)
    dxp = np.zeros((B, H + 2, W + 2, C))
    for i in range(3):
        for j in range(3):
            dxp[:, i:i + H, j:j + W, :] += \
                dcols[..., (i * 3 + j) * C:(i * 3 + j + 1) * C]
    return dxp[:, 1:-1, 1:-1, :]


class TestBitExactRewrites:
    """The layer rewrites keep every result bit for bit."""

    @pytest.mark.parametrize("shape", [(4, 32, 32, 2), (3, 16, 16, 8),
                                       (2, 5, 6, 3), (1, 1, 1, 1)])
    def test_conv2d_matches_loop_im2col(self, shape):
        rng = np.random.default_rng(sum(shape))
        conv = neural.Conv2D(shape[-1], 5, rng)
        conv.b[...] = rng.normal(size=5)
        x = rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e6], size=shape)
        out = conv.forward(x)
        cols = _im2col_reference(x)
        assert np.array_equal(conv._cols, cols)
        assert np.array_equal(out, (cols @ conv.W + conv.b).reshape(
            shape[:3] + (5,)))
        dout = rng.normal(size=out.shape)
        dflat = dout.reshape(-1, 5)
        dx = conv.backward(dout)
        assert np.array_equal(dx, _col2im_reference(dflat @ conv.W.T, shape))
        assert np.array_equal(conv.dW, cols.T @ dflat)
        assert np.array_equal(conv.db, dflat.sum(axis=0))

    @pytest.mark.parametrize("shape", [(4, 32, 32, 8), (3, 8, 8, 32),
                                       (2, 2, 2, 1), (1, 6, 4, 3)])
    def test_avgpool_matches_mean(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * rng.choice([1e-12, 1.0, 1e12],
                                                size=shape)
        B, H, W, C = shape
        ref = x.reshape(B, H // 2, 2, W // 2, 2, C).mean(axis=(2, 4))
        assert np.array_equal(neural.AvgPool2().forward(x), ref)

    def test_encoder_backward_skips_only_the_input_gradient(self):
        rng = np.random.default_rng(5)
        net = neural.ConvEncoder(in_hw=(16, 16), channels=(4, 6, 8),
                                 n_classes=3, seed=2)
        x = rng.uniform(-1.0, 1.0, size=(6, 16, 16, 2))
        _, dlogits = neural.softmax_cross_entropy(net.forward(x),
                                                  rng.integers(0, 3, size=6))
        d = dlogits
        for layer in reversed(net.layers):
            d = layer.backward(d)  # full backward, input gradient included
        assert d.shape == x.shape
        full = [g.copy() for g in net.grads()]
        for g in net.grads():
            g[...] = np.nan
        assert net.backward(dlogits) is None
        assert all(np.array_equal(a, b) for a, b in zip(full, net.grads()))


class TestLosses:
    def test_softmax_cross_entropy(self):
        logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
        labels = np.array([0, 2])
        loss, dlogits = neural.softmax_cross_entropy(logits, labels)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expect = -(np.log(p[0, 0]) + np.log(p[1, 2])) / 2
        assert loss == pytest.approx(expect)
        assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_bce_with_logits(self):
        logits = np.array([[0.5, -1.5]])
        targets = np.array([[1.0, 0.0]])
        loss, dlogits = neural.bce_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits))
        expect = -(np.log(p[0, 0]) + np.log(1 - p[0, 1])) / 2
        assert loss == pytest.approx(expect)
        assert np.allclose(dlogits, (p - targets) / 2)
        with pytest.raises(neural.ShapeMismatch):
            neural.bce_with_logits(logits, np.zeros((2, 2)))

    def test_unknown_loss(self):
        with pytest.raises(neural.PoselangError):
            neural._loss_fn("hinge")


class TestTraining:
    def test_loss_decreases_on_separable_problem(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-2.0, 0.5, size=(30, 4)),
                            rng.normal(2.0, 0.5, size=(30, 4))])
        y = np.array([0] * 30 + [1] * 30)
        net = neural.RecurrentNet(input_dim=4, hidden=8, n_out=2, seed=0)
        spec = neural.TrainSpec(learning_rate=0.1, epochs=15, batch_size=8,
                                seed=0, loss="softmax")
        curve = neural.train(net, x[:, None, :], y, spec)
        assert len(curve) == 15
        assert curve[-1] < curve[0] * 0.5

    def test_spec_validation(self):
        with pytest.raises(neural.PoselangError):
            neural.TrainSpec(learning_rate=-1.0)
        with pytest.raises(neural.PoselangError):
            neural.TrainSpec(epochs=0)

    def test_training_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 3, 4))
        y = rng.integers(0, 2, size=20)
        curves = []
        for _ in range(2):
            net = neural.RecurrentNet(input_dim=4, hidden=6, n_out=2, seed=5)
            spec = neural.TrainSpec(learning_rate=0.05, epochs=4, seed=5,
                                    loss="softmax")
            curves.append(neural.train(net, x, y, spec))
        assert curves[0] == curves[1]


class TestGradientChecks:
    def test_conv_encoder(self):
        rng = np.random.default_rng(10)
        net = neural.ConvEncoder(in_hw=(8, 8), in_channels=2, channels=(2, 3),
                                 n_classes=2, seed=1)
        x = rng.normal(size=(2, 8, 8, 2))
        y = np.array([0, 1])
        assert neural.gradient_check(net, x, y, "softmax") < 1e-4

    def test_recurrent(self):
        rng = np.random.default_rng(11)
        net = neural.RecurrentNet(input_dim=3, hidden=4, n_out=2, seed=2)
        x = rng.normal(size=(2, 5, 3))
        y = rng.integers(0, 2, size=(2, 2)).astype(float)
        assert neural.gradient_check(net, x, y, "bce") < 1e-4

    def test_conv1d(self):
        rng = np.random.default_rng(12)
        net = neural.Conv1DNet(input_dim=3, channels=4, n_out=2, seed=3)
        x = make_pool_safe_batch(rng, (2, 6, 3), net)
        y = rng.integers(0, 2, size=(2, 2)).astype(float)
        assert neural.gradient_check(net, x, y, "bce") < 1e-4


class TestNets:
    def test_embedding_is_pre_head_pool(self):
        net = neural.ConvEncoder(in_hw=(8, 8), in_channels=2, channels=(2, 3),
                                 n_classes=4, seed=0)
        x = np.random.default_rng(0).normal(size=(3, 8, 8, 2))
        emb = net.embed(x)
        assert emb.shape == (3, net.embedding_dim)
        assert np.allclose(net.forward(x), emb @ net.head.W + net.head.b)

    def test_shape_guards(self):
        net = neural.RecurrentNet(input_dim=3, hidden=4, n_out=1, seed=0)
        with pytest.raises(neural.ShapeMismatch):
            net.forward(np.zeros((2, 5, 7)))
        enc = neural.ConvEncoder(in_hw=(8, 8), channels=(2,), seed=0)
        with pytest.raises(neural.ShapeMismatch):
            enc.forward(np.zeros((8, 8, 2)))

    def test_nonfinite_guard(self):
        net = neural.RecurrentNet(input_dim=2, hidden=3, n_out=1, seed=0)
        net.head.b[...] = np.nan
        with pytest.raises(neural.NonFiniteActivation):
            net.forward(np.zeros((1, 4, 2)))

    def test_2d_input_promoted(self):
        net = neural.Conv1DNet(input_dim=3, channels=4, n_out=2, seed=0)
        single = net.forward(np.zeros((5, 3)))
        assert single.shape == (1, 2)


class TestCheckpoints:
    @pytest.mark.parametrize("make", [
        lambda: neural.ConvEncoder(in_hw=(8, 8), channels=(2, 3),
                                   n_classes=3, seed=4),
        lambda: neural.RecurrentNet(input_dim=5, hidden=6, n_out=2, seed=4),
        lambda: neural.Conv1DNet(input_dim=5, channels=6, n_out=2, seed=4),
    ])
    def test_round_trip(self, tmp_path, make):
        net = make()
        path = tmp_path / "net.ckpt"
        neural.save_checkpoint(net, path, config_hash="h1")
        back = neural.load_checkpoint(path, expect_config_hash="h1")
        assert type(back) is type(net)
        assert back.config == net.config
        for p, q in zip(net.params(), back.params()):
            assert np.array_equal(p, q)

    def test_guards(self, tmp_path):
        net = neural.Conv1DNet(input_dim=2, channels=2, n_out=1, seed=0)
        path = tmp_path / "net.ckpt"
        neural.save_checkpoint(net, path, config_hash="good")
        with pytest.raises(neural.PoselangError):
            neural.load_checkpoint(path, expect_config_hash="bad")
        path.write_bytes(b'{"magic": "nope"}\n')
        with pytest.raises(neural.PoselangError):
            neural.load_checkpoint(path)
