"""Tape ops that only the tests use.

The package's model runs on the fused ops and a few primitives of
``sublayer_lab.tensor_core``. The ops here record onto the same tape with
hand-written backwards. The tests use them in two ways: to build scalar
losses for gradient checks (``sum_all(mul(out, pick))``), and to compose the
primitive reference that ``attention`` and ``linear`` are checked against.
"""

from __future__ import annotations

import numpy as np

from sublayer_lab.tensor_core import Tensor, _record, _reduce_to_shape


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


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    out = Tensor(np.where(keep, a.data, 0.0))
    return _record(out, (a,), lambda g: (g * keep,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.data.shape),))


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
