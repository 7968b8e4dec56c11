"""Minimal float64 neural stack: conv encoder, gated recurrent net, 1D-conv
baseline, losses, SGD trainer, and finite-difference gradient checking.

Gradients are hand-derived per layer; everything is deterministic given a
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import PoselangError


class ShapeMismatch(PoselangError):
    pass


class NonFiniteActivation(PoselangError):
    pass


class DivergedLoss(PoselangError):
    pass


def _rng(seed, tag: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(tag)))


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Layers

class Dense:
    def __init__(self, n_in, n_out, rng):
        scale = 1.0 / np.sqrt(n_in)
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x):
        if x.shape[1] != self.W.shape[0]:
            raise ShapeMismatch(f"dense input {x.shape} vs W {self.W.shape}")
        self._x = x
        return x @ self.W + self.b

    def backward(self, dout):
        self.dW[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        return dout @ self.W.T

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class Tanh:
    def forward(self, x):
        self._out = np.tanh(x)
        return self._out

    def backward(self, dout):
        return dout * (1.0 - self._out ** 2)

    def params(self):
        return []

    def grads(self):
        return []


class Conv2D:
    """3x3 same-padding convolution, stride 1, NHWC layout."""

    def __init__(self, c_in, c_out, rng):
        scale = 1.0 / np.sqrt(9 * c_in)
        self.W = rng.normal(0.0, scale, size=(9 * c_in, c_out))
        self.b = np.zeros(c_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.c_in = c_in

    def forward(self, x):
        B, H, Wd, C = x.shape
        if C != self.c_in:
            raise ShapeMismatch(f"conv input channels {C} != {self.c_in}")
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        # Column (i * 3 + j) * C + c holds tap (i, j) of channel c.
        taps = sliding_window_view(xp, (3, 3), axis=(1, 2))  # (B,H,W,C,3,3)
        self._cols = np.ascontiguousarray(
            taps.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, 9 * C)
        self._shape = (B, H, Wd, C)
        out = self._cols @ self.W + self.b
        return out.reshape(B, H, Wd, -1)

    def backward(self, dout, input_grad=True):
        """Set dW and db; return the input gradient, or None when
        `input_grad` is false."""
        B, H, Wd, C = self._shape
        dflat = dout.reshape(-1, dout.shape[-1])
        self.dW[...] = self._cols.T @ dflat
        self.db[...] = dflat.sum(axis=0)
        if not input_grad:
            return None
        dcols = (dflat @ self.W.T).reshape(B, H, Wd, 9 * C)
        dxp = np.zeros((B, H + 2, Wd + 2, C))
        for i in range(3):
            for j in range(3):
                dxp[:, i:i + H, j:j + Wd, :] += \
                    dcols[..., (i * 3 + j) * C:(i * 3 + j + 1) * C]
        return dxp[:, 1:-1, 1:-1, :]

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class AvgPool2:
    """2x2 average pooling; spatial dims must be even."""

    def forward(self, x):
        B, H, W, C = x.shape
        if H % 2 or W % 2:
            raise ShapeMismatch(f"avgpool needs even spatial dims, got {H}x{W}")
        self._shape = x.shape
        # Same additions in the same order as mean(axis=(2, 4)) over the
        # (B, H/2, 2, W/2, 2, C) view, without its strided reduction.
        return (x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
                + x[:, 1::2, 0::2] + x[:, 1::2, 1::2]) / 4.0

    def backward(self, dout):
        B, H, W, C = self._shape
        d = np.repeat(np.repeat(dout, 2, axis=1), 2, axis=2)
        return d / 4.0

    def params(self):
        return []

    def grads(self):
        return []


class GlobalAvgPool:
    def forward(self, x):
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, dout):
        B, H, W, C = self._shape
        return np.broadcast_to(dout[:, None, None, :], self._shape) / (H * W)

    def params(self):
        return []

    def grads(self):
        return []


# ---------------------------------------------------------------------------
# Networks

class _Net:
    """Common parameter plumbing for all networks."""

    layers: list

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def grads(self):
        out = []
        for layer in self.layers:
            out.extend(layer.grads())
        return out

    def check_finite(self, out):
        if not np.all(np.isfinite(out)):
            raise NonFiniteActivation(f"{type(self).__name__} produced non-finite values")
        return out


class ConvEncoder(_Net):
    """Small conv net over pose images; the pooled vector before the
    classifier head serves as the window embedding."""

    kind = "conv_encoder"

    def __init__(self, in_hw=(32, 32), in_channels=2, channels=(8, 16, 32),
                 n_classes=2, seed=0):
        self.config = {"in_hw": tuple(in_hw), "in_channels": in_channels,
                       "channels": tuple(channels), "n_classes": n_classes}
        self.seed = seed
        self.layers = []
        c_prev = in_channels
        for i, c in enumerate(channels):
            self.layers += [Conv2D(c_prev, c, _rng(seed, i)), Tanh(), AvgPool2()]
            c_prev = c
        self.pool = GlobalAvgPool()
        self.head = Dense(c_prev, n_classes, _rng(seed, 100))
        self.layers += [self.pool, self.head]
        self.embedding_dim = c_prev

    def forward(self, x):
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 4:
            raise ShapeMismatch(f"encoder wants (B,H,W,C), got {h.shape}")
        for layer in self.layers:
            h = layer.forward(h)
        return self.check_finite(h)

    def backward(self, dout):
        """Set every layer's parameter gradients.  The input is data, so
        the first convolution skips its input gradient and nothing is
        returned."""
        d = dout
        for layer in reversed(self.layers[1:]):
            d = layer.backward(d)
        self.layers[0].backward(d, input_grad=False)

    def embed(self, x):
        """(B, H, W, C) -> (B, embedding_dim) pooled activations."""
        h = np.asarray(x, dtype=np.float64)
        for layer in self.layers[:-1]:
            h = layer.forward(h)
        return self.check_finite(h)


class LSTMCellStack:
    """Single-layer LSTM unrolled over time with backprop through time."""

    def __init__(self, n_in, n_hidden, rng):
        scale = 1.0 / np.sqrt(n_in + n_hidden)
        self.W = rng.normal(0.0, scale, size=(n_in + n_hidden, 4 * n_hidden))
        self.b = np.zeros(4 * n_hidden)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.n_hidden = n_hidden

    def forward(self, x):
        """x: (B, T, D) -> hidden states (B, T, H)."""
        B, T, D = x.shape
        H = self.n_hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        self._cache = []
        hs = np.empty((B, T, H))
        for t in range(T):
            xt = x[:, t, :]
            z = np.concatenate([xt, h], axis=1) @ self.W + self.b
            i = sigmoid(z[:, :H])
            f = sigmoid(z[:, H:2 * H])
            o = sigmoid(z[:, 2 * H:3 * H])
            g = np.tanh(z[:, 3 * H:])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            self._cache.append((xt, h, c, i, f, o, g, c_new, tc))
            h, c = h_new, c_new
            hs[:, t, :] = h
        return hs

    def backward(self, dhs):
        """dhs: (B, T, H) gradients w.r.t. each step's hidden output."""
        B, T, H = dhs.shape
        dx = np.empty((B, T, self.W.shape[0] - H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        self.dW[...] = 0.0
        self.db[...] = 0.0
        for t in reversed(range(T)):
            xt, h_prev, c_prev, i, f, o, g, c_new, tc = self._cache[t]
            dh = dhs[:, t, :] + dh_next
            do = dh * tc
            dc = dh * o * (1.0 - tc ** 2) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            dz = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g ** 2),
            ], axis=1)
            xh = np.concatenate([xt, h_prev], axis=1)
            self.dW += xh.T @ dz
            self.db += dz.sum(axis=0)
            dxh = dz @ self.W.T
            dx[:, t, :] = dxh[:, :dx.shape[2]]
            dh_next = dxh[:, dx.shape[2]:]
        return dx

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class RecurrentNet(_Net):
    """LSTM over histogram-sequence steps, mean-pooled, dense head."""

    kind = "recurrent"

    def __init__(self, input_dim, hidden=64, n_out=1, seed=0):
        self.config = {"input_dim": input_dim, "hidden": hidden, "n_out": n_out}
        self.seed = seed
        self.cell = LSTMCellStack(input_dim, hidden, _rng(seed, 0))
        self.head = Dense(hidden, n_out, _rng(seed, 1))
        self.layers = [self.cell, self.head]

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != self.config["input_dim"]:
            raise ShapeMismatch(f"recurrent input {x.shape}")
        hs = self.cell.forward(x)
        self._T = hs.shape[1]
        pooled = hs.mean(axis=1)
        return self.check_finite(self.head.forward(pooled))

    def backward(self, dout):
        dpooled = self.head.backward(dout)
        dhs = np.broadcast_to(dpooled[:, None, :],
                              (dpooled.shape[0], self._T, dpooled.shape[1]))
        return self.cell.backward(dhs / self._T)

    def predict_proba(self, x):
        return sigmoid(self.forward(x))


class Conv1DNet(_Net):
    """Temporal 1D convolution (kernel 3, same padding), global max pool."""

    kind = "conv1d"

    def __init__(self, input_dim, channels=32, n_out=1, seed=0):
        self.config = {"input_dim": input_dim, "channels": channels, "n_out": n_out}
        self.seed = seed
        rng = _rng(seed, 0)
        scale = 1.0 / np.sqrt(3 * input_dim)
        self.W = rng.normal(0.0, scale, size=(3 * input_dim, channels))
        self.b = np.zeros(channels)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.act = Tanh()
        self.head = Dense(channels, n_out, _rng(seed, 1))
        self.layers = [self.act, self.head]  # conv params handled directly

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        B, T, D = x.shape
        if D != self.config["input_dim"]:
            raise ShapeMismatch(f"conv1d input {x.shape}")
        xp = np.pad(x, ((0, 0), (1, 1), (0, 0)))
        cols = np.concatenate([xp[:, :T, :], xp[:, 1:T + 1, :], xp[:, 2:T + 2, :]],
                              axis=2)
        self._cols = cols
        conv = cols.reshape(-1, 3 * D) @ self.W + self.b
        conv = conv.reshape(B, T, -1)
        act = self.act.forward(conv)
        self._argmax = act.argmax(axis=1)          # (B, C)
        self._act_shape = act.shape
        pooled = np.take_along_axis(act, self._argmax[:, None, :], axis=1)[:, 0, :]
        return self.check_finite(self.head.forward(pooled))

    def backward(self, dout):
        dpooled = self.head.backward(dout)
        dact = np.zeros(self._act_shape)
        np.put_along_axis(dact, self._argmax[:, None, :], dpooled[:, None, :], axis=1)
        dconv = self.act.backward(dact)
        B, T, C = dconv.shape
        D = self.config["input_dim"]
        dflat = dconv.reshape(-1, C)
        self.dW[...] = self._cols.reshape(-1, 3 * D).T @ dflat
        self.db[...] = dflat.sum(axis=0)
        dcols = (dflat @ self.W.T).reshape(B, T, 3 * D)
        dxp = np.zeros((B, T + 2, D))
        dxp[:, :T, :] += dcols[:, :, :D]
        dxp[:, 1:T + 1, :] += dcols[:, :, D:2 * D]
        dxp[:, 2:T + 2, :] += dcols[:, :, 2 * D:]
        return dxp[:, 1:-1, :]

    def predict_proba(self, x):
        return sigmoid(self.forward(x))

    def params(self):
        return [self.W, self.b] + self.head.params()

    def grads(self):
        return [self.dW, self.db] + self.head.grads()


# ---------------------------------------------------------------------------
# Losses: each returns (mean loss, gradient w.r.t. logits).

def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    B = logits.shape[0]
    p = softmax(logits)
    loss = -np.log(np.maximum(p[np.arange(B), labels], 1e-300)).mean()
    dlogits = p.copy()
    dlogits[np.arange(B), labels] -= 1.0
    return loss, dlogits / B


def bce_with_logits(logits, targets, weight: float = 1.0):
    """Per-class binary cross entropy, averaged over batch and classes."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ShapeMismatch(f"targets {targets.shape} vs logits {logits.shape}")
    z, y = logits, targets
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    dlogits = (sigmoid(z) - y) / logits.size
    return weight * loss.mean(), weight * dlogits


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainSpec:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    loss: str = "softmax"  # or "bce"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise PoselangError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise PoselangError("epochs must be >= 1")


def _loss_fn(kind):
    if kind == "softmax":
        return softmax_cross_entropy
    if kind == "bce":
        return bce_with_logits
    raise PoselangError(f"unknown loss {kind!r}")


class SGD:
    def __init__(self, params, lr, momentum):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p) for p in params]

    def step(self, grads):
        for p, g, v in zip(self.params, grads, self.velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        yield order[i:i + batch_size]


def train(net, inputs, targets, spec: TrainSpec, epoch_hook=None):
    """Mini-batch SGD with momentum; returns the per-epoch mean loss curve.

    `inputs` is either one stacked array or a list of per-sample arrays
    (variable-length sequences are grouped into equal-length sub-batches).
    """
    loss_fn = _loss_fn(spec.loss)
    opt = SGD(net.params(), spec.learning_rate, spec.momentum)
    rng = _rng(spec.seed, 7)
    is_list = isinstance(inputs, list)
    n = len(inputs)
    curve = []
    for epoch in range(spec.epochs):
        total, count = 0.0, 0
        for idx in _batches(n, spec.batch_size, rng):
            if is_list:
                groups: dict[int, list[int]] = {}
                for i in idx:
                    groups.setdefault(inputs[i].shape[0], []).append(i)
                sub_batches = [np.array(g) for _, g in sorted(groups.items())]
            else:
                sub_batches = [idx]
            for sub in sub_batches:
                x = np.stack([inputs[i] for i in sub]) if is_list else inputs[sub]
                y = targets[sub]
                logits = net.forward(x)
                loss, dlogits = loss_fn(logits, y)
                if not np.isfinite(loss):
                    raise DivergedLoss(f"loss diverged at epoch {epoch}")
                net.backward(dlogits)
                opt.step(net.grads())
                total += loss * len(sub)
                count += len(sub)
        curve.append(total / count)
        if epoch_hook is not None:
            epoch_hook(epoch, net)
    return curve


# ---------------------------------------------------------------------------
# Finite-difference gradient checking

def gradient_check(net, x, y, loss_kind: str, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    loss_fn = _loss_fn(loss_kind)

    def compute_loss():
        logits = net.forward(x)
        return loss_fn(logits, y)

    loss, dlogits = compute_loss()
    net.backward(dlogits)
    analytic = [g.copy() for g in net.grads()]

    worst = 0.0
    for p, g in zip(net.params(), analytic):
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = compute_loss()
            flat[i] = orig - h
            lm, _ = compute_loss()
            flat[i] = orig
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric) + abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints: JSON header line + flat little-endian float64 parameters.

CKPT_MAGIC = "POSELANG-CKPT-1"

_NET_KINDS = {}


def _register(cls):
    _NET_KINDS[cls.kind] = cls
    return cls


_register(ConvEncoder)
_register(RecurrentNet)
_register(Conv1DNet)


def save_checkpoint(net, path, config_hash: str = "") -> None:
    header = {
        "magic": CKPT_MAGIC, "kind": net.kind, "config": _jsonable(net.config),
        "seed": int(net.seed), "config_hash": config_hash,
    }
    flat = np.concatenate([p.ravel() for p in net.params()])
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(np.ascontiguousarray(flat, dtype="<f8").tobytes())


def _jsonable(config):
    return {k: list(v) if isinstance(v, tuple) else v for k, v in config.items()}


def load_checkpoint(path, expect_config_hash: str | None = None):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("magic") != CKPT_MAGIC:
            raise PoselangError(f"{path}: not a checkpoint file")
        if expect_config_hash is not None and header["config_hash"] != expect_config_hash:
            raise PoselangError(
                f"{path}: config hash {header['config_hash']} != "
                f"{expect_config_hash}")
        flat = np.frombuffer(fh.read(), dtype="<f8")
    cls = _NET_KINDS[header["kind"]]
    config = {k: tuple(v) if isinstance(v, list) else v
              for k, v in header["config"].items()}
    net = cls(seed=header["seed"], **config)
    offset = 0
    for p in net.params():
        p[...] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size
    if offset != flat.size:
        raise PoselangError(f"{path}: parameter count mismatch")
    return net
