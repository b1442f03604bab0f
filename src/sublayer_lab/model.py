"""Transformer stacks assembled from an ordering string.

Every sublayer is the same residual block around its own branch:
``x + branch(norm(x))`` with pre-norm placement (default), or
``norm(x + branch(x))`` with post-norm, where training adds inverted dropout
to the branch's output. Attention is multi-head scaled dot-product, one fused
``tensor_core.attention`` node; self-attention (`s`) is causal over the stream
itself, and cross-attention (`c`) reads keys/values from a provided memory
sequence. The feedforward branch is a two-layer MLP,
``linear(linear_relu(h))``. So an `s` sublayer records 3 tape nodes (norm,
attention, residual add) and an `f` sublayer 4.

A checkpoint's JSON header holds every :class:`ModelConfig` field by name.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import struct
import types
from dataclasses import dataclass, fields

import numpy as np

from ._json import loads, typed
from .arch_dsl import OrderingSpec, SublayerKind, parse_ordering
from .tensor_core import (
    Tensor,
    add,
    attention,
    dropout,
    embedding,
    layer_norm,
    linear,
    linear_relu,
    matmul,
    slice_rows,
    swap_axes,
    tile,
)

__all__ = [
    "ModelConfig",
    "TransformerStack",
    "build_model",
    "count_params",
    "self_attention_sublayer",
    "cross_attention_sublayer",
    "feedforward_sublayer",
    "forward",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_MAGIC = b"SLAB"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    d: int
    heads: int
    vocab: int
    context: int
    ordering: OrderingSpec
    ffn_inner: int = 0  # 0 means the default 4*d
    tie_embeddings: bool = True
    pre_norm: bool = True
    dropout: float = 0.0

    def __post_init__(self):
        sizes = ("d", "heads", "vocab", "context", "ffn_inner")
        for name in sizes:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # numpy integers are not JSON-serialisable
        if self.ffn_inner == 0:
            self.ffn_inner = 4 * self.d
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        for name in ("tie_embeddings", "pre_norm"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, numbers.Real):
            raise ValueError(f"dropout must be a number, got {self.dropout!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class TransformerStack:
    config: ModelConfig
    token_embedding: Tensor  # [vocab, d]
    positional_embedding: Tensor  # [context, d]
    sublayers: list[types.SimpleNamespace]  # one per config.ordering kind, its _layout names as attributes
    final_gain: Tensor
    final_bias: Tensor
    output_projection: Tensor | None  # None when tied to the token embedding

    def parameters(self) -> list[Tensor]:
        """All trainable tensors in :func:`_layout` order (checkpoint order)."""
        return [getattr(self if i is None else self.sublayers[i], name) for i, name, _ in _layout(self.config)]


def _layout(config: ModelConfig):
    """Yield ``(sublayer index or None, name, shape)`` for every parameter in
    the one order that parameters(), initialisation and checkpoints use; the
    only statement of the parameters' names and shapes."""
    d, inner = config.d, config.ffn_inner
    yield None, "token_embedding", (config.vocab, d)
    yield None, "positional_embedding", (config.context, d)
    for i, kind in enumerate(config.ordering.kinds):
        if kind is SublayerKind.FEEDFORWARD:
            shapes = {"w1": (d, inner), "b1": (inner,), "w2": (inner, d), "b2": (d,)}
        else:
            shapes = {name: (d, d) for name in ("wq", "wk", "wv", "wo")}
            shapes.update((name, (d,)) for name in ("bq", "bk", "bv", "bo"))
        for name, shape in {**shapes, "norm_gain": (d,), "norm_bias": (d,)}.items():
            yield i, name, shape
    yield from ((None, "final_gain", (d,)), (None, "final_bias", (d,)))
    if not config.tie_embeddings:
        yield None, "output_projection", (d, config.vocab)


def _param_floats(config: ModelConfig) -> int:
    return sum(math.prod(shape) for *_, shape in _layout(config))


def _assemble(config: ModelConfig, flat: np.ndarray) -> TransformerStack:
    """A stack whose tensors are consecutive views into ``flat``, laid out by
    :func:`_layout`; each sublayer is a namespace of its layout names."""
    own: dict[str, Tensor | None] = {"output_projection": None}
    subs: list[dict[str, Tensor]] = [{} for _ in config.ordering.kinds]
    layout = list(_layout(config))
    for (i, name, _), a in zip(layout, tile(flat, [shape for *_, shape in layout])):
        (own if i is None else subs[i])[name] = Tensor(a)
    return TransformerStack(config=config, sublayers=[types.SimpleNamespace(**views) for views in subs], **own)


def build_model(config: ModelConfig, rng_seed: int) -> TransformerStack:
    """Initialize a stack over one flat buffer; matrices are scaled-uniform,
    biases zero, gains one.

    Deterministic for a given seed: matrices are drawn in :func:`_layout` order.
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    model = _assemble(config, np.zeros(_param_floats(config)))
    for (_, name, shape), p in zip(_layout(config), model.parameters()):
        if len(shape) == 2:
            fan_in, fan_out = shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            p.data[...] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith("gain"):
            p.data.fill(1.0)
    return model


def count_params(model: TransformerStack) -> int:
    """The sublayer weight-matrix total: the sum of per-kind 4d^2 / 8d^2
    costs at the default ``ffn_inner``. Biases, norms and embeddings are
    left out; ``sum(p.data.size for p in model.parameters())`` counts them all.
    """
    return sum(math.prod(shape) for i, _, shape in _layout(model.config) if i is not None and len(shape) == 2)


@functools.lru_cache(maxsize=32)
def _causal_mask(t: int) -> np.ndarray:
    """Read-only [t, t] lower-triangular mask, built once per length."""
    mask = np.tril(np.ones((t, t), dtype=bool))
    mask.flags.writeable = False
    return mask


def _residual(x, inner, p, pre_norm, drop_rate, drop_rng):
    """The wiring every sublayer shares: ``x + branch(norm(x))`` (pre-norm) or
    ``norm(x + branch(x))`` (post-norm), where the branch is ``inner``
    followed, when ``drop_rng`` is given, by dropout at ``drop_rate``."""
    out = inner(layer_norm(x, p.norm_gain, p.norm_bias) if pre_norm else x)
    if drop_rng is not None:
        out = dropout(out, drop_rate, drop_rng)
    return add(x, out) if pre_norm else layer_norm(add(x, out), p.norm_gain, p.norm_bias)


def _attention_sublayer(x, memory, p, heads, hook, pre_norm, drop_rate, drop_rng):
    """Causal self-attention over ``x`` when ``memory`` is None, else
    unmasked cross-attention from ``x`` to ``memory``; ``hook``, when given,
    receives the post-softmax probabilities."""
    mask = _causal_mask(x.shape[-2]) if memory is None else None

    def inner(h):
        kv = h if memory is None else memory
        return attention(h, kv, p.wq, p.wk, p.wv, p.wo, p.bq, p.bk, p.bv, p.bo, heads, mask, hook)

    return _residual(x, inner, p, pre_norm, drop_rate, drop_rng)


def self_attention_sublayer(
    x: Tensor,
    p: types.SimpleNamespace,
    heads: int,
    capture: list | None = None,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual causal multi-head self-attention over [..., t, d]; ``capture``,
    when given, gets the [..., heads, t, t] post-softmax map appended."""
    hook = None if capture is None else capture.append
    return _attention_sublayer(x, None, p, heads, hook, pre_norm, drop_rate, drop_rng)


def cross_attention_sublayer(
    y: Tensor,
    memory: Tensor,
    p: types.SimpleNamespace,
    heads: int,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual cross-attention: queries from y, keys/values from memory."""
    if memory.shape[-2] < 1:
        raise ValueError("cross-attention memory must be non-empty")
    return _attention_sublayer(y, memory, p, heads, None, pre_norm, drop_rate, drop_rng)


def feedforward_sublayer(
    x: Tensor,
    p: types.SimpleNamespace,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual two-layer MLP with ReLU."""

    def inner(h):
        return linear(linear_relu(h, p.w1, p.b1), p.w2, p.b2)

    return _residual(x, inner, p, pre_norm, drop_rate, drop_rng)


def forward(
    model: TransformerStack,
    tokens: np.ndarray,
    capture: list | None = None,
    memory: Tensor | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Token ids [t] or [batch, t] -> logits [t, vocab] or [batch, t, vocab].

    Decoder orderings (containing `c`) additionally require ``memory``.
    ``capture``, when given, gets each `s` sublayer's post-softmax map
    appended in order (see :func:`self_attention_sublayer`).
    Inverted dropout at ``config.dropout`` applies to each residual branch
    only when ``dropout_rng`` is passed (training); inference omits it.
    """
    cfg = model.config
    tokens = np.asarray(tokens)
    if tokens.ndim not in (1, 2):
        raise ValueError(f"tokens must be 1-d or 2-d, got shape {tokens.shape}")
    t = tokens.shape[-1]
    if t < 1 or t > cfg.context:
        raise ValueError(f"sequence length {t} outside [1, {cfg.context}]")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    x = add(embedding(model.token_embedding, tokens), slice_rows(model.positional_embedding, 0, t))
    wiring = (cfg.pre_norm, cfg.dropout, dropout_rng)
    for kind, p in zip(cfg.ordering.kinds, model.sublayers):
        # module globals, looked up on each call: replacing one by attribute takes effect
        if kind is SublayerKind.FEEDFORWARD:
            x = feedforward_sublayer(x, p, *wiring)
        elif kind is SublayerKind.SELF_ATTENTION:
            x = self_attention_sublayer(x, p, cfg.heads, capture, *wiring)
        elif memory is None:
            raise ValueError("ordering contains 'c' but no memory was provided")
        else:
            x = cross_attention_sublayer(x, memory, p, cfg.heads, *wiring)
    if cfg.pre_norm:
        x = layer_norm(x, model.final_gain, model.final_bias)
    if model.output_projection is not None:
        return matmul(x, model.output_projection)
    return matmul(x, swap_axes(model.token_embedding, -1, -2))


# ---------------------------------------------------------------------------
# checkpoint container: magic, version byte, length-prefixed JSON config,
# then the parameters as one run of little-endian float64 values in
# parameters() order. A load sizes that run from the config's layout before
# allocating, reads it into one buffer in one call, and assembles the stack
# over that buffer.


def save_checkpoint(model: TransformerStack, path) -> None:
    cfg = model.config
    header = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}
    # "activation" is always "relu", the only one; kept so checkpoint bytes do not change
    header.update(ordering=str(cfg.ordering), decoder_mode=cfg.ordering.decoder_mode, activation="relu")
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"checkpoint truncated in its {what}")
    return raw


def _ordering(text, decoder_mode) -> OrderingSpec:
    decoder_mode = typed(decoder_mode, bool, "decoder_mode")
    if text == "":  # the zero-sublayer stack, which parse_ordering rejects
        return OrderingSpec(kinds=(), decoder_mode=decoder_mode)
    return parse_ordering(text, decoder_mode)


def load_checkpoint(path) -> TransformerStack:
    """Read a checkpoint written by :func:`save_checkpoint`; a damaged or
    incomplete file raises ``ValueError``."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        (version,) = struct.unpack("<B", _read_exact(fh, 1, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
        header = loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        try:
            if header["activation"] != "relu":
                raise ValueError(f"unsupported activation {header['activation']!r}")
            config = ModelConfig(**{
                f.name: _ordering(header["ordering"], header["decoder_mode"])
                if f.name == "ordering" else header[f.name]
                for f in fields(ModelConfig)
            })
        except KeyError as exc:
            raise ValueError(f"checkpoint header lacks {exc}") from None
        except TypeError as exc:  # not a JSON object, or a field of the wrong type
            raise ValueError(f"malformed checkpoint header: {exc}") from None
        count = _param_floats(config)
        if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * count:  # before allocating
            raise ValueError("checkpoint truncated in its parameters")
        flat = np.empty(count, dtype="<f8")
        if fh.readinto(flat) != flat.nbytes:  # one read, straight into the buffer
            raise ValueError("checkpoint truncated in its parameters")
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    return _assemble(config, flat)
