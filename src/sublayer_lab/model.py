"""Transformer stacks assembled from an ordering string.

Each sublayer is a residual block: ``x + sublayer(norm(x))`` with pre-norm
placement (default), or ``norm(x + sublayer(x))`` with post-norm. Attention is
multi-head scaled dot-product, one fused ``tensor_core.attention`` node; the
feedforward block is a two-layer MLP, ``linear(linear_relu(h))``. So an `s`
sublayer records 3 tape nodes (norm, attention, residual add) and an `f`
sublayer 4. Cross-attention (`c`) reads queries from the decoder stream and
keys/values from a provided memory sequence.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .arch_dsl import OrderingSpec, SublayerKind, parse_ordering, sublayer_param_count
from .tensor_core import (
    Tensor,
    attention,
    dropout,
    embedding,
    layer_norm,
    linear,
    linear_relu,
    matmul,
    slice_rows,
    swap_axes,
)

__all__ = [
    "ModelConfig",
    "AttentionParams",
    "FeedforwardParams",
    "TransformerStack",
    "AttentionCapture",
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
    activation: str = "relu"
    dropout: float = 0.0

    def __post_init__(self):
        sizes = ("d", "heads", "vocab", "context", "ffn_inner")
        for name in sizes:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.ffn_inner == 0:
            self.ffn_inner = 4 * self.d
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d % self.heads:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.activation not in ("relu",):
            raise ValueError(f"unsupported activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class AttentionParams:
    """Self- or cross-attention sublayer: four d x d projections + norm."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor
    norm_gain: Tensor
    norm_bias: Tensor


@dataclass
class FeedforwardParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    norm_gain: Tensor
    norm_bias: Tensor


SublayerParams = AttentionParams | FeedforwardParams


@dataclass
class TransformerStack:
    config: ModelConfig
    token_embedding: Tensor  # [vocab, d]
    positional_embedding: Tensor  # [context, d]
    sublayers: list[SublayerParams]  # kinds follow config.ordering exactly
    final_gain: Tensor
    final_bias: Tensor
    output_projection: Tensor | None  # None when tied to the token embedding

    def parameters(self) -> list[Tensor]:
        """All trainable tensors in fixed declaration order (checkpoint order)."""
        out = [self.token_embedding, self.positional_embedding]
        for p in self.sublayers:
            if isinstance(p, AttentionParams):
                out += [p.wq, p.wk, p.wv, p.wo, p.bq, p.bk, p.bv, p.bo]
            else:
                out += [p.w1, p.b1, p.w2, p.b2]
            out += [p.norm_gain, p.norm_bias]
        out += [self.final_gain, self.final_bias]
        if self.output_projection is not None:
            out.append(self.output_projection)
        return out


class AttentionCapture:
    """Collects post-softmax attention weights emitted during one forward pass.

    Entries are ``(kind_char, probs)`` with probs shaped [heads, t, m]
    (m == t for self-attention).
    """

    def __init__(self):
        self.records: list[tuple[str, np.ndarray]] = []

    def add(self, kind: str, probs: np.ndarray) -> None:
        self.records.append((kind, probs.copy()))

    def self_attention_stack(self) -> np.ndarray:
        """[s_count, heads, t, t] array of the captured self-attention maps."""
        maps = [p for kind, p in self.records if kind == "s"]
        if not maps:
            raise ValueError("no self-attention sublayers were captured")
        return np.stack(maps)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def build_model(config: ModelConfig, rng_seed: int) -> TransformerStack:
    """Initialize a stack; matrices are scaled-uniform, biases zero, gains one.

    Deterministic for a given seed: draws happen in declaration order.
    """
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    d, inner = config.d, config.ffn_inner
    tok = Tensor(_glorot(rng, config.vocab, d))
    pos = Tensor(_glorot(rng, config.context, d))
    sublayers: list[SublayerParams] = []
    for kind in config.ordering.kinds:
        if kind is SublayerKind.FEEDFORWARD:
            sublayers.append(
                FeedforwardParams(
                    w1=Tensor(_glorot(rng, d, inner)),
                    b1=Tensor(np.zeros(inner)),
                    w2=Tensor(_glorot(rng, inner, d)),
                    b2=Tensor(np.zeros(d)),
                    norm_gain=Tensor(np.ones(d)),
                    norm_bias=Tensor(np.zeros(d)),
                )
            )
        else:
            sublayers.append(
                AttentionParams(
                    wq=Tensor(_glorot(rng, d, d)),
                    wk=Tensor(_glorot(rng, d, d)),
                    wv=Tensor(_glorot(rng, d, d)),
                    wo=Tensor(_glorot(rng, d, d)),
                    bq=Tensor(np.zeros(d)),
                    bk=Tensor(np.zeros(d)),
                    bv=Tensor(np.zeros(d)),
                    bo=Tensor(np.zeros(d)),
                    norm_gain=Tensor(np.ones(d)),
                    norm_bias=Tensor(np.zeros(d)),
                )
            )
    out_proj = None if config.tie_embeddings else Tensor(_glorot(rng, d, config.vocab))
    return TransformerStack(
        config=config,
        token_embedding=tok,
        positional_embedding=pos,
        sublayers=sublayers,
        final_gain=Tensor(np.ones(d)),
        final_bias=Tensor(np.zeros(d)),
        output_projection=out_proj,
    )


def count_params(
    model: TransformerStack,
    include_bias: bool = False,
    include_embeddings: bool = False,
) -> int:
    """Exact parameter count.

    With both flags off this is the sublayer weight-matrix total, equal to the
    sum of per-kind 4d^2 / 8d^2 costs. ``include_bias`` adds sublayer biases
    and per-sublayer norm parameters; ``include_embeddings`` adds the token
    and positional tables plus the untied output projection. The final norm's
    gain/bias count only when both flags are on.
    """
    cfg = model.config
    d = cfg.d
    weights = sum(sublayer_param_count(k, d) for k in cfg.ordering.kinds)
    # ffn_inner != 4d changes the true matrix sizes; count the actual tensors
    if cfg.ffn_inner != 4 * d:
        weights = 0
        for p in model.sublayers:
            if isinstance(p, AttentionParams):
                weights += 4 * d * d
            else:
                weights += p.w1.data.size + p.w2.data.size
    total = weights
    if include_bias:
        for p in model.sublayers:
            if isinstance(p, AttentionParams):
                total += p.bq.data.size + p.bk.data.size + p.bv.data.size + p.bo.data.size
            else:
                total += p.b1.data.size + p.b2.data.size
            total += p.norm_gain.data.size + p.norm_bias.data.size
    if include_embeddings:
        total += model.token_embedding.data.size
        total += model.positional_embedding.data.size
        if model.output_projection is not None:
            total += model.output_projection.data.size
        if include_bias:
            total += model.final_gain.data.size + model.final_bias.data.size
    return total


@functools.lru_cache(maxsize=32)
def _causal_mask(t: int) -> np.ndarray:
    """Read-only [t, t] lower-triangular mask, built once per length."""
    mask = np.tril(np.ones((t, t), dtype=bool))
    mask.flags.writeable = False
    return mask


def _attention(
    queries: Tensor,
    keys_values: Tensor,
    p: AttentionParams,
    heads: int,
    mask: np.ndarray | None,
    capture: AttentionCapture | None,
    kind_char: str,
) -> Tensor:
    return attention(
        queries, keys_values, p.wq, p.wk, p.wv, p.wo, p.bq, p.bk, p.bv, p.bo, heads,
        mask, None if capture is None else lambda probs: capture.add(kind_char, probs),
    )


def _residual(x, inner, p, pre_norm, drop_rate=0.0, drop_rng=None):
    def branch(h):
        out = inner(h)
        if drop_rate > 0.0 and drop_rng is not None:
            out = dropout(out, drop_rate, drop_rng)
        return out

    if pre_norm:
        return x + branch(layer_norm(x, p.norm_gain, p.norm_bias))
    return layer_norm(x + branch(x), p.norm_gain, p.norm_bias)


def self_attention_sublayer(
    x: Tensor,
    p: AttentionParams,
    heads: int,
    causal: bool = True,
    capture: AttentionCapture | None = None,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual multi-head self-attention over [..., t, d]."""
    t = x.shape[-2]
    mask = _causal_mask(t) if causal else None
    return _residual(
        x,
        lambda h: _attention(h, h, p, heads, mask, capture, "s"),
        p,
        pre_norm,
        drop_rate,
        drop_rng,
    )


def cross_attention_sublayer(
    y: Tensor,
    memory: Tensor,
    p: AttentionParams,
    heads: int,
    capture: AttentionCapture | None = None,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual cross-attention: queries from y, keys/values from memory."""
    if memory.shape[-2] < 1:
        raise ValueError("cross-attention memory must be non-empty")
    return _residual(
        y,
        lambda h: _attention(h, memory, p, heads, None, capture, "c"),
        p,
        pre_norm,
        drop_rate,
        drop_rng,
    )


def feedforward_sublayer(
    x: Tensor,
    p: FeedforwardParams,
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
    capture: AttentionCapture | None = None,
    memory: Tensor | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Token ids [t] or [batch, t] -> logits [t, vocab] or [batch, t, vocab].

    Decoder orderings (containing `c`) additionally require ``memory``.
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
    x = embedding(model.token_embedding, tokens) + slice_rows(
        model.positional_embedding, 0, t
    )
    rate = cfg.dropout if dropout_rng is not None else 0.0
    for kind, p in zip(cfg.ordering.kinds, model.sublayers):
        if kind is SublayerKind.SELF_ATTENTION:
            x = self_attention_sublayer(
                x, p, cfg.heads, causal=True, capture=capture,
                pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=dropout_rng,
            )
        elif kind is SublayerKind.FEEDFORWARD:
            x = feedforward_sublayer(
                x, p, pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=dropout_rng
            )
        else:
            if memory is None:
                raise ValueError("ordering contains 'c' but no memory was provided")
            x = cross_attention_sublayer(
                x, memory, p, cfg.heads, capture=capture,
                pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=dropout_rng,
            )
    if cfg.pre_norm:
        x = layer_norm(x, model.final_gain, model.final_bias)
    if model.output_projection is not None:
        return matmul(x, model.output_projection)
    return matmul(x, swap_axes(model.token_embedding, -1, -2))


# ---------------------------------------------------------------------------
# checkpoint container: magic, version byte, length-prefixed JSON config,
# then raw little-endian float64 arrays in parameters() order.


def save_checkpoint(model: TransformerStack, path) -> None:
    cfg = model.config
    header = {
        "ordering": str(cfg.ordering),
        "decoder_mode": cfg.ordering.decoder_mode,
        "d": cfg.d,
        "heads": cfg.heads,
        "vocab": cfg.vocab,
        "context": cfg.context,
        "ffn_inner": cfg.ffn_inner,
        "tie_embeddings": cfg.tie_embeddings,
        "pre_norm": cfg.pre_norm,
        "activation": cfg.activation,
        "dropout": cfg.dropout,
    }
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
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
        try:
            config = ModelConfig(
                d=header["d"],
                heads=header["heads"],
                vocab=header["vocab"],
                context=header["context"],
                ordering=parse_ordering(header["ordering"], header["decoder_mode"]),
                ffn_inner=header["ffn_inner"],
                tie_embeddings=header["tie_embeddings"],
                pre_norm=header["pre_norm"],
                activation=header["activation"],
                dropout=header["dropout"],
            )
        except KeyError as exc:
            raise ValueError(f"checkpoint header lacks {exc}") from None
        except TypeError as exc:  # not a JSON object, or a field of the wrong type
            raise ValueError(f"malformed checkpoint header: {exc}") from None
        model = build_model(config, rng_seed=0)
        for p in model.parameters():
            raw = _read_exact(fh, p.data.size * 8, "parameters")
            p.data = np.frombuffer(raw, dtype="<f8").reshape(p.data.shape).copy()
        if fh.read(1):
            raise ValueError("trailing bytes after checkpoint payload")
    return model
