"""Minimal float64 neural stack: conv encoder, gated recurrent net, 1D-conv
baseline, losses, SGD trainer, and finite-difference gradient checking.

Gradients are hand-derived per layer; everything is deterministic given a
seed.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import artifacts
from .core import InvariantViolated, PoselangError, ShapeMismatch


class NonFiniteActivation(PoselangError):
    pass


class DivergedLoss(PoselangError):
    pass


class WorkerFailed(InvariantViolated):
    """A training worker died, exited non-zero or sent no whole result."""


def _rng(seed, tag: int) -> np.random.Generator:
    return np.random.default_rng((int(seed), int(tag)))


def sigmoid(z):
    # Both branches of the stable form take exp(-|z|), so one exp serves.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _matmul(x, W, rowwise: bool):
    """x @ W for a (B, K) x.  With `rowwise`, the product is a stack of
    (1, K) @ (K, N) products, so each row gets the BLAS call, and the
    bits, of multiplying that row alone; inference uses this so a batch
    scores each clip exactly as scoring it by itself would."""
    return (x[:, None, :] @ W)[:, 0, :] if rowwise else x @ W


# ---------------------------------------------------------------------------
# Layers

class _Weighted:
    """A layer with weights W and bias b, and their gradients dW and db."""

    def params(self):
        return [self.W, self.b]

    def grads(self):
        return [self.dW, self.db]


class _Stateless:
    """A layer without parameters."""

    def params(self):
        return []

    grads = params


class Dense(_Weighted):
    def __init__(self, n_in, n_out, rng):
        scale = 1.0 / np.sqrt(n_in)
        self.W = rng.normal(0.0, scale, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x, rowwise=False):
        if x.shape[1] != self.W.shape[0]:
            raise ShapeMismatch(f"dense input {x.shape} vs W {self.W.shape}")
        self._x = x
        return _matmul(x, self.W, rowwise) + self.b

    def backward(self, dout):
        self.dW[...] = self._x.T @ dout
        self.db[...] = dout.sum(axis=0)
        return dout @ self.W.T


class Tanh(_Stateless):
    def forward(self, x):
        self._out = np.tanh(x)
        return self._out

    def backward(self, dout):
        return dout * (1.0 - self._out ** 2)


class Conv2D(_Weighted):
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


class AvgPool2(_Stateless):
    """2x2 average pooling; spatial dims must be even."""

    def forward(self, x):
        B, H, W, C = x.shape
        if H % 2 or W % 2:
            raise ShapeMismatch(f"avgpool needs even spatial dims, got {H}x{W}")
        # Same additions in the same order as mean(axis=(2, 4)) over the
        # (B, H/2, 2, W/2, 2, C) view, without its strided reduction.
        return (x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
                + x[:, 1::2, 0::2] + x[:, 1::2, 1::2]) / 4.0

    def backward(self, dout):
        # Each input cell gets a quarter of its pooled cell's gradient.
        B, h, w, C = dout.shape
        dx = np.empty((B, h, 2, w, 2, C))
        dx[...] = (dout / 4.0)[:, :, None, :, None, :]
        return dx.reshape(B, 2 * h, 2 * w, C)


class GlobalAvgPool(_Stateless):
    def forward(self, x):
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, dout):
        B, H, W, C = self._shape
        return np.broadcast_to(dout[:, None, None, :], self._shape) / (H * W)


# ---------------------------------------------------------------------------
# Networks

class _Net:
    """Common parameter plumbing for all networks."""

    layers: list

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def grads(self):
        return [g for layer in self.layers for g in layer.grads()]

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
        """(B, H, W, C) -> (B, channels[-1]) pooled activations."""
        h = np.asarray(x, dtype=np.float64)
        for layer in self.layers[:-1]:
            h = layer.forward(h)
        return self.check_finite(h)


class LSTMCellStack(_Weighted):
    """Single-layer LSTM unrolled over time with backprop through time."""

    def __init__(self, n_in, n_hidden, rng):
        scale = 1.0 / np.sqrt(n_in + n_hidden)
        self.W = rng.normal(0.0, scale, size=(n_in + n_hidden, 4 * n_hidden))
        self.b = np.zeros(4 * n_hidden)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self.n_hidden = n_hidden

    def forward(self, x, rowwise=False):
        """x: (B, T, D) -> hidden states (B, T, H)."""
        B, T, D = x.shape
        H = self.n_hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        self._cache = []
        hs = np.empty((B, T, H))
        for t in range(T):
            xt = x[:, t, :]
            z = _matmul(np.concatenate([xt, h], axis=1), self.W,
                        rowwise) + self.b
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


class RecurrentNet(_Net):
    """LSTM over histogram-sequence steps, mean-pooled, dense head."""

    kind = "recurrent"

    def __init__(self, input_dim, hidden=64, n_out=1, seed=0):
        self.config = {"input_dim": input_dim, "hidden": hidden, "n_out": n_out}
        self.seed = seed
        self.cell = LSTMCellStack(input_dim, hidden, _rng(seed, 0))
        self.head = Dense(hidden, n_out, _rng(seed, 1))
        self.layers = [self.cell, self.head]

    def forward(self, x, rowwise=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[2] != self.config["input_dim"]:
            raise ShapeMismatch(f"recurrent input {x.shape}")
        hs = self.cell.forward(x, rowwise)
        self._T = hs.shape[1]
        pooled = hs.mean(axis=1)
        return self.check_finite(self.head.forward(pooled, rowwise))

    def backward(self, dout):
        dpooled = self.head.backward(dout)
        dhs = np.broadcast_to(dpooled[:, None, :],
                              (dpooled.shape[0], self._T, dpooled.shape[1]))
        return self.cell.backward(dhs / self._T)

    def predict_proba(self, x):
        """Probabilities for one (T, D) clip or a (B, T, D) batch; each
        clip's row has the same bits as scoring it alone."""
        return sigmoid(self.forward(x, rowwise=True))


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

    def forward(self, x, rowwise=False):
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
        # Rowwise, each clip's (T, 3D) @ (3D, C) is its own product.
        conv = cols @ self.W if rowwise \
            else (cols.reshape(-1, 3 * D) @ self.W).reshape(B, T, -1)
        conv += self.b
        act = self.act.forward(conv)
        self._argmax = act.argmax(axis=1)          # (B, C)
        self._act_shape = act.shape
        pooled = np.take_along_axis(act, self._argmax[:, None, :], axis=1)[:, 0, :]
        return self.check_finite(self.head.forward(pooled, rowwise))

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
        """Probabilities for one (T, D) clip or a (B, T, D) batch; each
        clip's row has the same bits as scoring it alone."""
        return sigmoid(self.forward(x, rowwise=True))

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


def bce_with_logits(logits, targets):
    """Per-class binary cross entropy, averaged over batch and classes."""
    z, y = logits, np.asarray(targets, dtype=np.float64)
    if y.shape != z.shape:
        raise ShapeMismatch(f"targets {y.shape} vs logits {z.shape}")
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    dlogits = (sigmoid(z) - y) / z.size
    return loss.mean(), dlogits


# ---------------------------------------------------------------------------
# Training

@dataclass(frozen=True)
class TrainSpec:
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PoselangError(f"{name} must be a finite number, "
                                    f"got {value!r}")
        if self.learning_rate < 0:
            raise PoselangError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise PoselangError("epochs must be >= 1")


def loss_for(targets):
    """Softmax cross entropy for integer class ids; for float targets, one
    0/1 column per output, binary cross entropy."""
    integer = np.issubdtype(np.asarray(targets).dtype, np.integer)
    return softmax_cross_entropy if integer else bce_with_logits


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


def epochs(net, inputs, targets, spec: TrainSpec):
    """Mini-batch SGD with momentum; yields each epoch's mean loss.

    `inputs` is one stacked array or a list of per-sample arrays.  Each
    mini-batch splits into sub-batches of equal-length samples, shortest
    first; the rows of a stacked array form one.
    """
    targets = np.asarray(targets)
    loss_fn = loss_for(targets)
    opt = SGD(net.params(), spec.learning_rate, spec.momentum)
    rng = _rng(spec.seed, 7)
    n = len(inputs)
    for epoch in range(spec.epochs):
        total = 0.0
        order = rng.permutation(n)
        for i in range(0, n, spec.batch_size):
            groups: dict[int, list[int]] = {}
            for j in order[i:i + spec.batch_size]:
                groups.setdefault(inputs[j].shape[0], []).append(j)
            for _, sub in sorted(groups.items()):
                logits = net.forward(np.stack([inputs[j] for j in sub]))
                loss, dlogits = loss_fn(logits, targets[sub])
                if not np.isfinite(loss):
                    raise DivergedLoss(f"loss diverged at epoch {epoch}")
                net.backward(dlogits)
                opt.step(net.grads())
                total += loss * len(sub)
        yield total / n


def train(net, inputs, targets, spec: TrainSpec):
    """Train for `spec.epochs` epochs; returns the per-epoch loss curve.
    A parameter left non-finite by the last SGD step raises DivergedLoss."""
    curve = list(epochs(net, inputs, targets, spec))
    if not all(np.isfinite(p).all() for p in net.params()):
        raise DivergedLoss(f"parameters diverged to non-finite values by "
                           f"epoch {spec.epochs - 1}")
    return curve


def flat_params(net) -> np.ndarray:
    """The net's parameters, flattened in `params()` order."""
    return np.concatenate([p.ravel() for p in net.params()])


def _set_params(net, flat) -> None:
    offset = 0
    for p in net.params():
        p[...] = flat[offset:offset + p.size].reshape(p.shape)
        offset += p.size


# ---------------------------------------------------------------------------
# Training in worker processes, one per net

_WORKER = "from poselang import neural; neural._worker_main()"


def _worker_main() -> None:
    """Worker side of `train_in_workers`: read one pickled
    (net, inputs, targets, spec), train it, and write its flat parameters,
    or the PoselangError that stopped training, to standard output."""
    net, inputs, targets, spec = pickle.load(sys.stdin.buffer)
    try:
        train(net, inputs, targets, spec)
        result = flat_params(net)
    except PoselangError as exc:
        result = exc
    pickle.dump(result, sys.stdout.buffer, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_result(name, proc, err) -> np.ndarray:
    """The flat parameters a finished worker sent; its PoselangError
    re-raised; or WorkerFailed naming the job and the exit status."""
    out = proc.stdout.read()
    status = proc.wait()
    err.seek(0)
    tail = err.read().decode("utf-8", "replace").strip().splitlines()
    why = f": {tail[-1]}" if tail else ""
    if status < 0:
        raise WorkerFailed(f"training worker for {name!r} was killed by "
                           f"signal {-status}{why}")
    if status:
        raise WorkerFailed(f"training worker for {name!r} exited with "
                           f"status {status}{why}")
    try:
        result = pickle.loads(out)
    except (pickle.UnpicklingError, EOFError):
        raise WorkerFailed(f"training worker for {name!r} exited with "
                           f"status 0 but sent {len(out)} bytes, not a "
                           f"whole result{why}") from None
    if tail:  # the worker's warnings
        print("\n".join(tail), file=sys.stderr)
    if isinstance(result, PoselangError):
        raise result
    return result


def train_in_workers(jobs):
    """Train each job's net in its own worker process, all at once, and
    return {name: trained net} in `jobs` order.

    `jobs` maps a name to `(net, inputs, targets, spec)`.  Each worker is
    a fresh interpreter with a one-thread OpenBLAS that runs `train` and
    sends back only the flat parameters, which land in the given net; the
    bits are those in-process training gives.  A PoselangError raised in
    a worker re-raises here with its class and message.  Every worker is
    gone when this returns or raises.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    procs = {}
    with contextlib.ExitStack() as stack:
        try:
            for name in jobs:
                err = stack.enter_context(tempfile.TemporaryFile())
                procs[name] = (subprocess.Popen(
                    [sys.executable, "-c", _WORKER], env=env,
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=err), err)
            # Every worker gets its job before any result is read, so
            # all of them train at once.
            for name, (proc, _) in procs.items():
                # A worker that dies early closes the pipe; its exit
                # status says why.
                with contextlib.suppress(BrokenPipeError):
                    pickle.dump(jobs[name], proc.stdin,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    proc.stdin.close()
            for name, (proc, err) in procs.items():
                _set_params(jobs[name][0], _worker_result(name, proc, err))
            return {name: job[0] for name, job in jobs.items()}
        finally:
            for proc, _ in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                for pipe in (proc.stdin, proc.stdout):
                    with contextlib.suppress(BrokenPipeError):
                        pipe.close()


# ---------------------------------------------------------------------------
# Checkpoints: the header names the net's kind, constructor config and
# seed; the payload holds its parameters, flattened in `params()` order.

CKPT_MAGIC = "POSELANG-CKPT-1"

_NET_KINDS = {cls.kind: cls for cls in (ConvEncoder, RecurrentNet, Conv1DNet)}


def save_checkpoint(net, path, config_hash: str = "") -> None:
    config = {k: list(v) if isinstance(v, tuple) else v
              for k, v in net.config.items()}
    artifacts.write(path, {
        "magic": CKPT_MAGIC, "kind": net.kind, "config": config,
        "seed": int(net.seed), "config_hash": config_hash,
    }, flat_params(net))


def load_checkpoint(path, expect_config_hash: str | None = None):
    header, flat = artifacts.read(path, CKPT_MAGIC, expect_config_hash)
    cls = _NET_KINDS.get(str(header.get("kind")))
    if cls is None:
        raise artifacts.CorruptArtifact(
            f"{path}: unknown net kind {header.get('kind')!r}")
    with artifacts.fields_of(path):
        net = cls(seed=header["seed"], **{
            k: tuple(v) if isinstance(v, list) else v
            for k, v in header["config"].items()})
    params = net.params()
    if sum(p.size for p in params) != flat.size:
        raise artifacts.CorruptArtifact(
            f"{path}: {flat.size} parameters, but a {cls.kind} net of this "
            f"config has {sum(p.size for p in params)}")
    _set_params(net, flat)
    return net
