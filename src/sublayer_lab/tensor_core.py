"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Everything is 64-bit: the models are tiny and sharp gradient checks matter
more than speed. A ``Tape`` and the tensors recorded on it form a
single-threaded unit; the active-tape stack is thread-local so independent
tapes may run on separate threads.

Besides the primitive ops there are three fused ones, each a single tape
node with a hand-written backward: ``attention`` (multi-head scaled
dot-product attention with its four projections; self-attention projects
Q, K and V in one GEMM), ``linear`` and ``linear_relu``. A tape owns its
nodes and their outputs; a tensor refers back to its tape only weakly, so
dropping the tape frees a step's activations without a garbage-collector
pass.

``adam_step`` keeps the parameters and both Adam moments in one flat buffer
each: after the first step every parameter's ``data`` is a view into the
optimizer's buffer, and the update runs over that buffer in fixed blocks.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "relu",
    "reshape",
    "swap_axes",
    "embedding",
    "slice_rows",
    "sum_all",
    "mean_all",
    "softmax_rows",
    "layer_norm",
    "cross_entropy_loss",
    "dropout",
    "linear",
    "linear_relu",
    "attention",
    "OptimizerState",
    "adam_step",
    "zero_grads",
    "finite_difference_check",
]


class Tensor:
    """Dense float64 array plus an accumulated gradient of the same shape."""

    __slots__ = ("data", "grad", "_tape")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._tape: "weakref.ref[Tape] | None" = None

    @property
    def tape(self) -> "Tape | None":
        """The tape this tensor was recorded on, while that tape is alive."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # operator sugar so model code reads like the math
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    def __rmul__(self, other):
        return scale(self, float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Append-only record of operations; node order is topological."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _active().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _active().pop()
        return False


_LOCAL = threading.local()


def _active() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def _current_tape() -> Tape | None:
    stack = _active()
    return stack[-1] if stack else None


@contextmanager
def no_grad():
    """Disable recording even if a tape is open (cheap inference/eval path)."""
    _active().append(None)
    try:
        yield
    finally:
        _active().pop()


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    tape = _current_tape()
    if tape is not None:
        out._tape = weakref.ref(tape)
        tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


def _reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: sum gradient down to the operand's shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate gradients of a scalar loss into every reachable tensor.

    Walks the tape in reverse creation order; tensors whose outputs never
    receive a gradient are left untouched. Bit-for-bit deterministic.
    """
    tape = tape if tape is not None else loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on any tape")
    if loss.data.shape != ():
        raise ValueError(f"backward root must be a scalar, got shape {loss.data.shape}")
    one = np.ones((), dtype=np.float64)
    loss.grad = one if loss.grad is None else loss.grad + one
    for node in reversed(tape.nodes):
        out_grad = node.output.grad
        if out_grad is None:
            continue
        for tensor, g in zip(node.inputs, node.backward_fn(out_grad)):
            if g is None:
                continue
            tensor.grad = g if tensor.grad is None else tensor.grad + g


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _record(
        out,
        (a, b),
        lambda g: (_reduce_to_shape(g, a.data.shape), _reduce_to_shape(g, b.data.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _record(
        out,
        (a, b),
        lambda g: (_reduce_to_shape(g, a.data.shape), _reduce_to_shape(-g, b.data.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(
        out,
        (a, b),
        lambda g: (
            _reduce_to_shape(g * b.data, a.data.shape),
            _reduce_to_shape(g * a.data, b.data.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)
    return _record(out, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands broadcast like np.matmul."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul expects >=2-d operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.data.ndim == 2 and a.data.ndim > 2:
            # batched activations x 2-d weight: one flat GEMM beats a batched
            # product followed by a reduction
            k = a.data.shape[-1]
            gb = np.matmul(a.data.reshape(-1, k).T, g.reshape(-1, g.shape[-1]))
        else:
            gb = _reduce_to_shape(
                np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape
            )
        return _reduce_to_shape(ga, a.data.shape), gb

    return _record(out, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    out = Tensor(np.where(keep, a.data, 0.0))
    return _record(out, (a,), lambda g: (g * keep,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, axis1, axis2))
    return _record(out, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: output[..., :] = table[ids[...], :]; backward scatter-adds."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids])

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), bwd)


def slice_rows(a: Tensor, start: int, length: int) -> Tensor:
    out = Tensor(a.data[start : start + length])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[start : start + length] = g
        return (ga,)

    return _record(out, (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())
    return _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.sum() / n)
    return _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.data.shape).copy(),))


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by row-max subtraction.

    ``mask`` is a boolean array broadcastable to ``x`` where True marks
    positions allowed to receive mass; masked entries come out exactly 0.
    Raises on any fully-masked row.
    """
    z = x.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax_rows: fully masked row")
        z = np.where(mask, z, -np.inf)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return _record(out, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = centered * ivar
    out = Tensor(gain.data * xhat + bias.data)

    def bwd(g):
        dxhat = g * gain.data
        dx = dxhat - dxhat.mean(axis=-1, keepdims=True)
        dx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx *= ivar
        dgain = _reduce_to_shape(g * xhat, gain.data.shape)
        dbias = _reduce_to_shape(g, bias.data.shape)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), bwd)


def cross_entropy_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood in nats over all target positions.

    ``targets`` holds integer class ids shaped like ``logits`` minus its last
    (vocabulary) axis.
    """
    targets = np.asarray(targets)
    vocab = logits.data.shape[-1]
    if targets.shape != logits.data.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError(f"target id out of range [0, {vocab})")
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    logsum = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logsum
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    n = targets.size
    out = Tensor(-picked.sum() / n)

    def bwd(g):
        p = np.exp(logp)
        gl = p.copy()
        np.subtract.at(gl.reshape(-1, vocab), (np.arange(n), targets.reshape(-1)), 1.0)
        return (gl * (g / n),)

    return _record(out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity (and no tape node) at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    factor = keep / (1.0 - rate)
    out = Tensor(x.data * factor)
    return _record(out, (x,), lambda g: (g * factor,))


# ---------------------------------------------------------------------------
# fused operations: one tape node each, gradients equal to the primitive
# composition up to float rounding


def _linear(x: Tensor, w: Tensor, b: Tensor, relu_out: bool) -> Tensor:
    k, n = w.data.shape
    if x.data.shape[-1] != k or b.data.shape != (n,):
        raise ValueError(
            f"linear shape mismatch: {x.data.shape} @ {w.data.shape} + {b.data.shape}"
        )
    x2 = x.data.reshape(-1, k)
    y = x2 @ w.data
    y += b.data
    keep = None
    if relu_out:
        keep = y > 0
        y *= keep
    out = Tensor(y.reshape(*x.data.shape[:-1], n))

    def bwd(g):
        g2 = g.reshape(-1, n)
        if keep is not None:
            g2 = g2 * keep
        gx = (g2 @ w.data.T).reshape(x.data.shape)
        return gx, x2.T @ g2, g2.sum(axis=0)

    return _record(out, (x, w, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., k], w [k, n], b [n], as one flat GEMM."""
    return _linear(x, w, b, relu_out=False)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``relu(x @ w + b)`` as one node."""
    return _linear(x, w, b, relu_out=True)


def _split_heads(a: np.ndarray, lead: tuple, t: int, heads: int) -> np.ndarray:
    # [N, d] rows of [*lead, t] -> [*lead, heads, t, d/heads] (a view)
    return np.swapaxes(a.reshape(*lead, t, heads, -1), -2, -3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    # [..., heads, t, hd] -> [N, heads*hd]
    return np.swapaxes(a, -2, -3).reshape(-1, a.shape[-3] * a.shape[-1])


def attention(
    queries: Tensor,
    keys_values: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    bq: Tensor,
    bk: Tensor,
    bv: Tensor,
    bo: Tensor,
    heads: int,
    mask: np.ndarray | None = None,
    capture: Callable[[np.ndarray], None] | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention with its projections, one node.

    queries [..., t, d] and keys_values [..., m, d] (leading axes broadcast)
    give [..., t, d]. ``mask`` is a boolean [t, m] array where True marks
    positions a query may attend to; masked probabilities are exactly 0 and
    a fully masked row raises ``ValueError``. When ``queries is
    keys_values`` Q, K and V come from one GEMM with ``[wq | wk | wv]``;
    otherwise Q comes from one and K, V from another with ``[wk | wv]``.
    ``capture``, when given, receives the [..., heads, t, m] post-softmax
    probabilities.
    """
    d = wq.data.shape[0]
    t, m = queries.data.shape[-2], keys_values.data.shape[-2]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (t, m):
            raise ValueError(f"attention mask shape {mask.shape} != {(t, m)}")
        if not mask.any(axis=-1).all():
            raise ValueError("attention: fully masked row")
    if queries is keys_values:
        groups = ((queries, (wq, wk, wv), (bq, bk, bv)),)
    else:
        groups = ((queries, (wq,), (bq,)), (keys_values, (wk, wv), (bk, bv)))
    projections, saved = [], []
    for x, ws, bs in groups:
        x2 = x.data.reshape(-1, d)
        w = np.concatenate([p.data for p in ws], axis=1)
        y = x2 @ w
        y += np.concatenate([p.data for p in bs])
        projections += [y[:, i * d : (i + 1) * d] for i in range(len(ws))]
        saved.append((x.data.shape, x2, w, len(ws)))
    lead_q, lead_kv = queries.data.shape[:-2], keys_values.data.shape[:-2]
    q = _split_heads(projections[0], lead_q, t, heads)
    k = _split_heads(projections[1], lead_kv, m, heads)
    v = _split_heads(projections[2], lead_kv, m, heads)
    scale = 1.0 / math.sqrt(d // heads)
    probs = np.matmul(q, np.swapaxes(k, -1, -2))  # softmax in place from here
    probs *= scale
    if mask is not None:
        np.copyto(probs, -np.inf, where=~mask)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    if capture is not None:
        capture(probs)
    ctx2 = _merge_heads(np.matmul(probs, v))
    y = ctx2 @ wo.data
    y += bo.data
    lead = probs.shape[:-3]
    out = Tensor(y.reshape(*lead, t, d))

    def bwd(g):
        g2 = g.reshape(-1, d)
        gctx = _split_heads(g2 @ wo.data.T, lead, t, heads)
        gz = np.matmul(gctx, np.swapaxes(v, -1, -2))  # d loss / d probs, then d scores
        gz -= (gz * probs).sum(axis=-1, keepdims=True)
        gz *= probs
        gz *= scale
        # leading axes broadcast between queries and keys_values: sum back
        gq = _reduce_to_shape(np.matmul(gz, k), q.shape)
        gk = _reduce_to_shape(np.matmul(np.swapaxes(gz, -1, -2), q), k.shape)
        gv = _reduce_to_shape(np.matmul(np.swapaxes(probs, -1, -2), gctx), v.shape)
        gproj = [_merge_heads(gq), _merge_heads(gk), _merge_heads(gv)]
        gxs, gws, gbs, i = [], [], [], 0
        for shape, x2, w, n in saved:
            gy = np.concatenate(gproj[i : i + n], axis=1)
            i += n
            gxs.append((gy @ w.T).reshape(shape))
            gw, gb = x2.T @ gy, gy.sum(axis=0)
            gws += [gw[:, j * d : (j + 1) * d] for j in range(n)]
            gbs += [gb[j * d : (j + 1) * d] for j in range(n)]
        if len(gxs) == 1:
            gxs.append(None)  # keys_values is queries: its gradient is in gxs[0]
        return (*gxs, *gws, ctx2.T @ g2, *gbs, g2.sum(axis=0))

    return _record(out, (queries, keys_values, wq, wk, wv, wo, bq, bk, bv, bo), bwd)


# ---------------------------------------------------------------------------
# optimizer


# Elements per Adam block: the block's temporaries stay in cache, unlike
# those of one whole-buffer expression.
ADAM_BLOCK = 16384


class OptimizerState:
    """Adam moments plus hyperparameters; buffers are allocated on the first step.

    The parameters, ``m`` and ``v`` each live in one flat float64 buffer.
    ``adam_step`` rebinds every ``p.data`` to a view into the parameter
    buffer; rebinding a ``p.data`` afterwards makes the next step re-pack
    all parameters into a fresh buffer.
    """

    def __init__(self, lr: float = 3e-4, betas=(0.9, 0.999), eps: float = 1e-8):
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._views: list[np.ndarray] = []  # p.data of each parameter, in order
        self._flat: np.ndarray | None = None
        self._grads: list[np.ndarray] = []  # per-parameter views into _grad
        self._grad: np.ndarray | None = None

    def _pack(self, params: Sequence[Tensor]) -> None:
        shapes = [p.data.shape for p in params]
        if self.m is not None and shapes != [a.shape for a in self._views]:
            raise ValueError("optimizer state does not match parameter list")
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        sizes = [math.prod(shape) for shape in shapes]
        total = sum(sizes)
        if self.m is None:
            self.m = np.zeros(total)
            self.v = np.zeros(total)
            self._grad = np.empty(total)
        self._flat = np.empty(total)
        self._views, self._grads, offset = [], [], 0
        for p, shape, n in zip(params, shapes, sizes):
            view = self._flat[offset : offset + n].reshape(shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self._grads.append(self._grad[offset : offset + n].reshape(shape))
            offset += n


def adam_step(params: Sequence[Tensor], state: OptimizerState) -> None:
    """One bias-corrected Adam update; parameter grads are cleared after.

    Elementwise it is the textbook per-tensor update, bit for bit, run over
    the flat buffers in blocks of ``ADAM_BLOCK`` elements.
    """
    if state.m is not None and len(params) != len(state._views):
        raise ValueError("optimizer state does not match parameter list")
    if state.m is None or any(p.data is not a for p, a in zip(params, state._views)):
        state._pack(params)
    for p, g in zip(params, state._grads):
        if p.grad is None:
            g.fill(0.0)
        else:
            g[...] = p.grad
            p.grad = None
    state.step_count += 1
    b1, b2 = state.betas
    c1 = 1.0 - b1**state.step_count
    c2 = 1.0 - b2**state.step_count
    for start in range(0, state._flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, m, v = state._grad[block], state.m[block], state.v[block]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        state._flat[block] -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    floor: float = 1e-8,
) -> float:
    """Compare reverse-mode grad of scalar ``f(x)`` to central differences.

    Returns max over coordinates of |analytic - numeric| / (|analytic| +
    |numeric| + floor). ``f`` is re-evaluated 2 per coordinate with recording
    disabled, so it must be a pure function of ``x.data``.
    """
    x.grad = None
    with Tape() as tape:
        y = f(x)
    if y.data.shape != ():
        raise ValueError("finite_difference_check needs a scalar-valued function")
    backward(y, tape)
    analytic = (
        x.grad.reshape(-1).copy()
        if x.grad is not None
        else np.zeros(x.data.size, dtype=np.float64)
    )
    flat = x.data.reshape(-1)
    numeric = np.empty_like(analytic)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x).data)
            flat[i] = orig - eps
            lo = float(f(x).data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * eps)
    denom = np.abs(analytic) + np.abs(numeric) + floor
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
