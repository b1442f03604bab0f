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
dropping the tape frees a step's activations without a garbage-collector pass.

``backward`` consumes its tape: once a node's backward has run, the node is
replaced by a shared spent marker (so ``len(tape.nodes)`` is unchanged) and
its output's ``.grad`` is cleared. Activations and intermediate gradients
are freed in reverse order while backward runs, and afterwards only leaves
(tensors that no node on the tape produced, such as parameters) hold a
``.grad``. A second ``backward`` on a consumed tape raises ``ValueError``.

``attention`` keeps its scores key-major, [keys, ..., heads, queries], so
the softmax's max, sum and division, and its backward's sum over keys, are
vectorised passes along axis 0 instead of reductions along a short last
axis; the [..., heads, queries, keys] probabilities are a view of that
buffer. Those two sums add the keys in order rather than numpy's pairwise
order, which moves results by about 1e-15 relative; it is the only rounding
that differs from a last-axis softmax. The head products are written
straight into the [N, d] rows the projections read. ``layer_norm`` and
gradient reduction call ``np.add.reduce`` directly: the same float
operations, in the same order, as ``ndarray.mean``/``sum``.

Inside ``buffer_pool()`` the ops take their activation and gradient buffers
from a thread-local pool instead of allocating them, so a loop of training
steps stops freeing and re-faulting the same memory. The rule that keeps this
safe: a buffer is handed out again only when ``sys.getrefcount`` shows that
nothing but the pool still references it. A live view references its base,
so a buffer cannot be reused while any tensor, closure or caller still reads
it. Buffers are kept flat, keyed by size and dtype, and reshaped when handed
out. Each op asks once whether to pool (``_pool_for``): only inside a pool
and only when its input has at least ``POOL_MIN_SIZE`` elements. The ops
write into the buffers with ``out=``, the same ufuncs and GEMMs in the same
order, so results are bitwise those without a pool; without one, ``out=None``
lets numpy allocate as the operator form does. ``lm_harness.train_model``
enters a pool around its steps.

``adam_step`` keeps the parameters and both Adam moments in one flat buffer
each. It copies the parameters into its own buffer and rebinds every
parameter's ``data`` to a view of it, and the update runs over that buffer in
fixed blocks.
"""

from __future__ import annotations

import math
import sys
import threading
import weakref
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "no_grad",
    "buffer_pool",
    "backward",
    "add",
    "matmul",
    "swap_axes",
    "embedding",
    "slice_rows",
    "sum_all",
    "layer_norm",
    "cross_entropy_loss",
    "dropout",
    "linear",
    "linear_relu",
    "attention",
    "tile",
    "OptimizerState",
    "adam_step",
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


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


# stands in for every node whose backward has run (see ``backward``)
_SPENT = _Node(None, (), None)


class Tape:
    """Append-only record of operations; node order is topological.

    ``backward`` consumes a tape: each node becomes a spent marker once its
    backward has run, and the tape cannot be walked again.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _LOCAL.tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _LOCAL.tapes.pop()
        return False


class _ThreadState(threading.local):
    """What each thread has entered; ``threading.local`` runs ``__init__``
    once per thread."""

    def __init__(self):
        self.tapes: list[Tape | None] = []  # innermost last; None is a no_grad
        self.pool: _Pool | None = None  # the buffer pool entered, if any


_LOCAL = _ThreadState()


@contextmanager
def no_grad():
    """Disable recording even if a tape is open (cheap inference/eval path)."""
    _LOCAL.tapes.append(None)
    try:
        yield
    finally:
        _LOCAL.tapes.pop()


class _Pool:
    """Flat buffers per (size, dtype); ``take`` hands out the first one in
    its list that nothing else references."""

    def __init__(self):
        self.buffers: dict[tuple, list[np.ndarray]] = {}
        self.misses = 0  # buffers allocated rather than reused

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A buffer of ``shape`` that nothing else references, new if need be."""
        key = (math.prod(shape), dtype)
        bufs = self.buffers.setdefault(key, [])
        for buf in bufs:
            if sys.getrefcount(buf) == _FREE:
                return buf.reshape(shape)
        self.misses += 1
        bufs.append(np.empty(key[0], dtype))
        return bufs[-1].reshape(shape)


def _free_count() -> int:
    """References to a buffer that only the pool holds, as ``take`` counts
    them: its list's, the local name's and the argument's."""
    bufs = [np.empty(0)]
    buf = bufs[0]
    return sys.getrefcount(buf)


_FREE = _free_count()

# Ops on smaller inputs do not pool. 16384 float64 elements are 128 KiB,
# glibc's default mmap threshold: smaller buffers come from its heap, where
# they did not fault, and a pool scan costs more than it saves (a d=64 step at
# batch 4, whose inputs have 8192 elements, ran 2-4% slower pooled).
POOL_MIN_SIZE = 16384


@contextmanager
def buffer_pool():
    """Reuse op buffers on this thread until exit (see the module docstring).

    Yields the pool; its ``misses`` counts the buffers it had to allocate.
    On exit the pool lets go of its buffers; any still referenced stay with
    whoever holds them.
    """
    prev = _LOCAL.pool
    _LOCAL.pool = pool = _Pool()
    try:
        yield pool
    finally:
        _LOCAL.pool = prev


def _pool_for(a: np.ndarray) -> _Pool | None:
    """The active pool for an op whose buffers scale with ``a``, or None when
    no pool is active or ``a`` has fewer than ``POOL_MIN_SIZE`` elements.

    An op passes ``out=pool and pool.take(shape)``: None lets numpy allocate,
    as the operator form does.
    """
    pool = _LOCAL.pool
    return pool if pool is not None and a.size >= POOL_MIN_SIZE else None


def _empty(pool: _Pool | None, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``np.empty``, or a free buffer of ``pool``."""
    return np.empty(shape, dtype) if pool is None else pool.take(shape, dtype)


def _record(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    tapes = _LOCAL.tapes
    tape = tapes[-1] if tapes else None
    if tape is not None:
        out._tape = weakref.ref(tape)
        tape.nodes.append(_Node(out, inputs, backward_fn))
    return out


def _reduce_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo numpy broadcasting: sum gradient down to the operand's shape."""
    if g.shape == shape:
        return g
    for _ in range(g.ndim - len(shape)):
        g = np.add.reduce(g, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate gradients of a scalar loss into the leaves it reaches.

    Walks the tape in reverse creation order and consumes it: each node is
    replaced by a spent marker once its backward has run, which frees its
    saved arrays, and its output's ``.grad`` is cleared. Only leaves, tensors
    that no node on this tape produced, keep (and accumulate) a ``.grad``;
    leaves whose gradient is never reached are left untouched. A consumed
    tape, or a loss recorded on another tape, raises ``ValueError``.
    Bit-for-bit deterministic.
    """
    tape = tape if tape is not None else loss.tape
    if tape is None:
        raise ValueError("loss was not recorded on any tape")
    if loss._tape is not None and loss._tape() is not tape:
        raise ValueError("loss was recorded on another tape")
    if loss.data.shape != ():
        raise ValueError(f"backward root must be a scalar, got shape {loss.data.shape}")
    if tape._consumed:
        raise ValueError("tape was already consumed by backward")
    tape._consumed = True
    nodes = tape.nodes
    one = np.ones((), dtype=np.float64)
    loss.grad = one if loss.grad is None else loss.grad + one
    for i in range(len(nodes) - 1, -1, -1):
        node, nodes[i] = nodes[i], _SPENT
        out_grad, node.output.grad = node.output.grad, None
        if out_grad is None:
            continue
        for tensor, g in zip(node.inputs, node.backward_fn(out_grad)):
            if g is None:
                continue
            if tensor.grad is None:
                tensor.grad = g
            else:
                pool = _pool_for(g)
                tensor.grad = np.add(tensor.grad, g, out=pool and pool.take(g.shape))


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    pool = _pool_for(a.data)
    if a.data.shape[a.data.ndim - b.data.ndim :] != b.data.shape:
        pool = None  # the sum is not shaped like a: numpy works its shape out
    out = Tensor(np.add(a.data, b.data, out=pool and pool.take(a.data.shape)))
    return _record(
        out,
        (a, b),
        lambda g: (_reduce_to_shape(g, a.data.shape), _reduce_to_shape(g, b.data.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands broadcast like np.matmul."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul expects >=2-d operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    pool = _pool_for(a.data) if b.data.ndim == 2 else None
    shape = (*a.data.shape[:-1], b.data.shape[-1])  # the product's, when b is 2-d
    out = Tensor(np.matmul(a.data, b.data, out=pool and pool.take(shape)))

    def bwd(g):
        pool = _pool_for(g) if b.data.ndim == 2 else None
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2), out=pool and pool.take(a.data.shape))
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


# added to the variance before its inverse square root
LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Means are ``np.add.reduce`` then a division by the axis length, the same
    float operations as ``ndarray.mean``, run in place where they can be.
    """
    n = x.data.shape[-1]
    pool = _pool_for(x.data)
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = np.subtract(x.data, mu, out=pool and pool.take(x.data.shape))
    y = np.multiply(xhat, xhat, out=pool and pool.take(x.data.shape))  # the squares, then output
    ivar = np.add.reduce(y, axis=-1, keepdims=True)  # the variance, then its inverse root
    ivar /= n
    ivar += LAYER_NORM_EPS
    np.sqrt(ivar, out=ivar)
    np.divide(1.0, ivar, out=ivar)
    xhat *= ivar
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def bwd(g):
        pool = _pool_for(g)
        dxhat = np.multiply(g, gain.data, out=pool and pool.take(g.shape))
        mean = np.add.reduce(dxhat, axis=-1, keepdims=True)
        mean /= n
        dx = np.subtract(dxhat, mean, out=pool and pool.take(g.shape))
        dxhat *= xhat
        mean = np.add.reduce(dxhat, axis=-1, keepdims=True)
        mean /= n
        np.multiply(xhat, mean, out=dxhat)
        dx -= dxhat
        dx *= ivar
        dgain = _reduce_to_shape(np.multiply(g, xhat, out=dxhat), gain.data.shape)
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
    shape = logits.data.shape
    pool = _pool_for(logits.data)
    m = logits.data.max(axis=-1, keepdims=True)
    z = np.subtract(logits.data, m, out=pool and pool.take(shape))
    logsum = np.log(np.exp(z, out=pool and pool.take(shape)).sum(axis=-1, keepdims=True))
    logp = np.subtract(z, logsum, out=z)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    n = targets.size
    out = Tensor(-picked.sum() / n)

    def bwd(g):
        pool = _pool_for(logp)
        gl = np.exp(logp, out=pool and pool.take(shape))
        np.subtract.at(gl.reshape(-1, vocab), (np.arange(n), targets.reshape(-1)), 1.0)
        gl *= g / n
        return (gl,)

    return _record(out, (logits,), bwd)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity (and no tape node) at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    shape, pool = x.data.shape, _pool_for(x.data)
    draws = rng.random(out=_empty(pool, shape))
    keep = np.greater_equal(draws, rate, out=pool and pool.take(shape, bool))
    factor = np.divide(keep, 1.0 - rate, out=pool and pool.take(shape))
    out = Tensor(np.multiply(x.data, factor, out=pool and pool.take(shape)))

    def bwd(g):
        pool = _pool_for(g)
        return (np.multiply(g, factor, out=pool and pool.take(shape)),)

    return _record(out, (x,), bwd)


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
    pool = _pool_for(x2)
    y = np.matmul(x2, w.data, out=pool and pool.take((x2.shape[0], n)))
    y += b.data
    keep = None
    if relu_out:
        keep = np.greater(y, 0, out=pool and pool.take(y.shape, bool))
        y *= keep
    out = Tensor(y.reshape(*x.data.shape[:-1], n))

    def bwd(g):
        pool = _pool_for(g)
        g2 = g.reshape(-1, n)
        if keep is not None:
            g2 = np.multiply(g2, keep, out=pool and pool.take(g2.shape))
        gx = np.matmul(g2, w.data.T, out=pool and pool.take(x2.shape)).reshape(x.data.shape)
        return gx, np.matmul(x2.T, g2, out=pool and pool.take(w.data.shape)), g2.sum(axis=0)

    return _record(out, (x, w, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for x [..., k], w [k, n], b [n], as one flat GEMM."""
    return _linear(x, w, b, relu_out=False)


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``relu(x @ w + b)`` as one node."""
    return _linear(x, w, b, relu_out=True)


def _heads(a: np.ndarray, shape: tuple, heads: int) -> list[np.ndarray]:
    """[*lead, heads, t, d/heads] views of each d-column block of ``a``.

    ``a`` holds [N, k*d] rows for an input shaped ``shape`` = [*lead, t, d];
    products written through the views land in ``a``.
    """
    *lead, t, d = shape
    return [
        np.swapaxes(a[:, i : i + d].reshape(*lead, t, heads, -1), -2, -3)
        for i in range(0, a.shape[1], d)
    ]


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

    The scores live key-major, [m, ..., heads, t], and the softmax runs along
    axis 0 (see the module docstring for its rounding).
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
    pool = _pool_for(queries.data)
    projections, saved = [], []
    for x, ws, bs in groups:
        x2 = x.data.reshape(-1, d)
        w = np.concatenate([p.data for p in ws], axis=1)
        y = np.matmul(x2, w, out=pool and pool.take((x2.shape[0], w.shape[1])))
        y += np.concatenate([p.data for p in bs])
        projections += _heads(y, x.data.shape, heads)
        saved.append((x.data.shape, x2, w))
    q, k, v = projections
    lead, lead_kv = queries.data.shape[:-2], keys_values.data.shape[:-2]
    if lead != lead_kv:
        lead = np.broadcast_shapes(lead, lead_kv)
    shape = (*lead, t, d)
    scale = 1.0 / math.sqrt(d // heads)
    scores = _empty(pool, (m, *lead, heads, t))  # softmax in place from here
    key_last = (*range(1, scores.ndim), 0)
    probs = scores.transpose(key_last)  # [*lead, heads, t, m]
    np.matmul(q, np.swapaxes(k, -1, -2), out=probs)
    scores *= scale
    if mask is not None:
        np.copyto(scores, -np.inf, where=~mask.T.reshape(m, *[1] * (len(lead) + 1), t))
    scores -= np.maximum.reduce(scores, axis=0)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=0)
    if capture is not None:
        capture(probs)
    ctx2 = _empty(pool, (math.prod(shape[:-1]), d))
    np.matmul(probs, v, out=_heads(ctx2, shape, heads)[0])
    y = np.matmul(ctx2, wo.data, out=pool and pool.take(ctx2.shape))
    y += bo.data
    out = Tensor(y.reshape(shape))

    def bwd(g):
        pool = _pool_for(g)
        g2 = g.reshape(-1, d)
        (gctx,) = _heads(np.matmul(g2, wo.data.T, out=pool and pool.take(g2.shape)), shape, heads)
        gscores = _empty(pool, scores.shape)  # d loss / d probs, then d scores
        gz = gscores.transpose(key_last)
        np.matmul(gctx, np.swapaxes(v, -1, -2), out=gz)
        inner = np.multiply(gscores, scores, out=pool and pool.take(scores.shape))
        gscores -= np.add.reduce(inner, axis=0)
        gscores *= scores
        gscores *= scale
        gys = [_empty(pool, (x2.shape[0], w.shape[1])) for _, x2, w in saved]
        gq, gk, gv = [
            h for (x_shape, _, _), gy in zip(saved, gys) for h in _heads(gy, x_shape, heads)
        ]
        for a, b, gh in (
            (gz, k, gq),
            (np.swapaxes(gz, -1, -2), q, gk),
            (np.swapaxes(probs, -1, -2), gctx, gv),
        ):
            if gh.shape[:-3] == lead:
                np.matmul(a, b, out=gh)
            else:  # leading axes broadcast between queries and keys_values: sum back
                gh[...] = _reduce_to_shape(np.matmul(a, b), gh.shape)
        gxs, gws, gbs = [], [], []
        for (x_shape, x2, w), gy in zip(saved, gys):
            gxs.append(np.matmul(gy, w.T, out=pool and pool.take(x2.shape)).reshape(x_shape))
            gw = np.matmul(x2.T, gy, out=pool and pool.take(w.shape))
            gb = np.add.reduce(gy, axis=0)
            gws += [gw[:, j : j + d] for j in range(0, w.shape[1], d)]
            gbs += [gb[j : j + d] for j in range(0, w.shape[1], d)]
        if len(gxs) == 1:
            gxs.append(None)  # keys_values is queries: its gradient is in gxs[0]
        gwo = np.matmul(ctx2.T, g2, out=pool and pool.take(wo.data.shape))
        return (*gxs, *gws, gwo, *gbs, np.add.reduce(g2, axis=0))

    return _record(out, (queries, keys_values, wq, wk, wv, wo, bq, bk, bv, bo), bwd)


# ---------------------------------------------------------------------------
# optimizer


# Elements per Adam block: the block's temporaries stay in cache, unlike
# those of one whole-buffer expression.
ADAM_BLOCK = 16384


def tile(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape, in order."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


class OptimizerState:
    """Adam moments plus hyperparameters; buffers are allocated on the first step.
    ``betas`` and ``eps`` are fixed at Adam's usual values.

    The parameters, ``m`` and ``v`` each live in one flat float64 buffer.
    The first step copies the parameters into a fresh buffer and rebinds
    each ``p.data`` to a view of it; rebinding a ``p.data`` afterwards makes
    the next step do so again.
    """

    betas = (0.9, 0.999)
    eps = 1e-8

    def __init__(self, lr: float = 3e-4):
        self.lr = lr
        self.step_count = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._views: list[np.ndarray] = []  # p.data of each parameter, in order
        self._flat: np.ndarray | None = None
        self._grads: list[np.ndarray] = []  # per-parameter views into _grad
        self._grad: np.ndarray | None = None

    def _bind(self, params: Sequence[Tensor]) -> None:
        shapes = [p.data.shape for p in params]
        if self.m is not None and shapes != [a.shape for a in self._views]:
            raise ValueError("optimizer state does not match parameter list")
        if len({id(p) for p in params}) != len(params):
            raise ValueError("a parameter is listed twice")
        self._flat = np.empty(sum(math.prod(shape) for shape in shapes))
        for p, view in zip(params, tile(self._flat, shapes)):
            view[...] = p.data
            p.data = view
        if self.m is None:
            self.m = np.zeros(self._flat.size)
            self.v = np.zeros(self._flat.size)
            self._grad = np.empty(self._flat.size)
        self._views = [p.data for p in params]
        self._grads = tile(self._grad, shapes)


def adam_step(params: Sequence[Tensor], state: OptimizerState) -> None:
    """One bias-corrected Adam update; parameter grads are cleared after.

    Elementwise it is the textbook per-tensor update, bit for bit, run over
    the flat buffers in blocks of ``ADAM_BLOCK`` elements.
    """
    if state.m is not None and len(params) != len(state._views):
        raise ValueError("optimizer state does not match parameter list")
    if state.m is None or any(p.data is not a for p, a in zip(params, state._views)):
        state._bind(params)
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


def finite_difference_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare reverse-mode grad of scalar ``f(x)`` to central differences.

    Returns max over coordinates of |analytic - numeric| / (|analytic| +
    |numeric| + 1e-8), the numeric gradient taken with a step of 1e-5 either
    side. ``f`` is re-evaluated 2 per coordinate with recording disabled, so
    it must be a pure function of ``x.data``.
    """
    eps = 1e-5
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
    denom = np.abs(analytic) + np.abs(numeric) + 1e-8
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
