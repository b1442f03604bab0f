"""Transformer stacks assembled from an ordering string.

Each sublayer is a residual block: ``x + sublayer(norm(x))`` with pre-norm
placement (default), or ``norm(x + sublayer(x))`` with post-norm. Attention is
multi-head scaled dot-product, one fused ``tensor_core.attention`` node; the
feedforward block is a two-layer MLP, ``linear(linear_relu(h))``. So an `s`
sublayer records 3 tape nodes (norm, attention, residual add) and an `f`
sublayer 4. Cross-attention (`c`) reads queries from the decoder stream and
keys/values from a provided memory sequence.

A :class:`Cohort` stacks models of one shape but different orderings for
lockstep training: at each position the trials with an `s` run one stacked
sublayer and those with an `f` another, and each trial's own stack is a set
of views into the cohort's weights.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from ._json import loads, typed
from .arch_dsl import OrderingSpec, SublayerKind, parse_ordering
from .tensor_core import (
    Tensor,
    attention,
    dropout,
    embedding,
    layer_norm,
    linear,
    linear_relu,
    matmul,
    put_rows,
    reshape,
    slice_rows,
    swap_axes,
    take_rows,
    tile,
)

__all__ = [
    "ModelConfig",
    "AttentionParams",
    "FeedforwardParams",
    "TransformerStack",
    "Cohort",
    "AttentionCapture",
    "build_model",
    "build_cohort",
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
        """All trainable tensors in declaration order (checkpoint order): the
        stack's fields, with each sublayer's fields in place of ``sublayers``."""
        out = []
        for value in _field_values(self):
            if isinstance(value, list):
                for p in value:
                    out += _field_values(p)
            elif isinstance(value, Tensor):
                out.append(value)
        return out

    def positions(self) -> list[list["Group"]]:
        """One group per position, running on every row of the activations."""
        return [[Group(kind, None, p)] for kind, p in zip(self.config.ordering.kinds, self.sublayers)]


@dataclass
class Group:
    """The sublayer of one kind at one position of a stack or cohort: its
    parameters, and the cohort rows (trials) that run it (None: every row)."""

    kind: SublayerKind
    rows: np.ndarray | None
    params: SublayerParams


@dataclass
class Cohort:
    """Stacks of one shape but different orderings, held as stacked weights
    for lockstep training.

    Each field's tensor stacks the trials' tensors as [T, ...]; at each
    position, ``groups`` holds one group per kind present there, whose
    weights stack its member trials' as [T_g, ...]. Every stacked tensor is
    a view into one flat buffer, in ``tensors`` order, and trial ``j``'s own
    stack ``models[j]`` is made of views of its rows, so Adam's updates to
    the buffer are the trials' updates.
    """

    configs: list[ModelConfig]
    token_embedding: Tensor  # [T, vocab, d]
    positional_embedding: Tensor  # [T, context, d]
    groups: list[list[Group]]  # per position, in kind order
    final_gain: Tensor  # [T, d]
    final_bias: Tensor
    output_projection: Tensor | None  # [T, d, vocab]; None when tied
    models: list[TransformerStack]
    tensors: list[Tensor]  # every stacked tensor, in buffer order

    @property
    def config(self) -> ModelConfig:
        """The fields every trial shares (its ordering is the first trial's)."""
        return self.configs[0]

    def parameters(self) -> list[Tensor]:
        """The stacked tensors in buffer order."""
        return list(self.tensors)

    def positions(self) -> list[list[Group]]:
        return self.groups


def _field_values(obj) -> list:
    return [getattr(obj, f.name) for f in fields(obj)]


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


def _sublayer_shapes(kind: SublayerKind, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Field name -> shape of one sublayer of ``kind``, in declaration order."""
    d, inner = config.d, config.ffn_inner
    if kind is SublayerKind.FEEDFORWARD:
        shapes = {"w1": (d, inner), "b1": (inner,), "w2": (inner, d), "b2": (d,)}
    else:
        shapes = {name: (d, d) for name in ("wq", "wk", "wv", "wo")}
        shapes.update((name, (d,)) for name in ("bq", "bk", "bv", "bo"))
    return {**shapes, "norm_gain": (d,), "norm_bias": (d,)}


def _outer_shapes(config: ModelConfig) -> tuple[dict, dict]:
    """Field name -> shape of the stack's own parameters: those before the
    sublayers, and those after them."""
    d = config.d
    head = {"token_embedding": (config.vocab, d), "positional_embedding": (config.context, d)}
    tail = {"final_gain": (d,), "final_bias": (d,)}
    if not config.tie_embeddings:
        tail["output_projection"] = (d, config.vocab)
    return head, tail


def _layout(config: ModelConfig):
    """Yield ``(sublayer index or None, field name, shape)`` for every parameter
    in declaration order, which is parameters() order and checkpoint order."""
    head, tail = _outer_shapes(config)
    yield from ((None, name, shape) for name, shape in head.items())
    for i, kind in enumerate(config.ordering.kinds):
        for name, shape in _sublayer_shapes(kind, config).items():
            yield i, name, shape
    yield from ((None, name, shape) for name, shape in tail.items())


def _shapes(config: ModelConfig) -> list[tuple[int, ...]]:
    return [shape for *_, shape in _layout(config)]


def _param_floats(config: ModelConfig) -> int:
    return sum(math.prod(shape) for shape in _shapes(config))


def _sublayer(kind: SublayerKind, fields: dict) -> SublayerParams:
    return (FeedforwardParams if kind is SublayerKind.FEEDFORWARD else AttentionParams)(**fields)


def _assemble(config: ModelConfig, arrays) -> TransformerStack:
    """A stack whose tensors wrap ``arrays``, one per :func:`_layout` entry, in order."""
    own: dict[str, Tensor | None] = {"output_projection": None}
    subs: list[dict[str, Tensor]] = [{} for _ in config.ordering.kinds]
    for (i, name, _), a in zip(_layout(config), arrays):
        (own if i is None else subs[i])[name] = Tensor(a)
    sublayers = [_sublayer(kind, views) for kind, views in zip(config.ordering.kinds, subs)]
    return TransformerStack(config=config, sublayers=sublayers, **own)


def _initialize(model: TransformerStack, rng_seed: int) -> None:
    """Fill a zeroed stack: matrices scaled-uniform, drawn in declaration
    order, biases zero, gains one."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    for (_, name, shape), p in zip(_layout(model.config), model.parameters()):
        if len(shape) == 2:
            fan_in, fan_out = shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            p.data[...] = rng.uniform(-limit, limit, size=shape)
        elif name.endswith("gain"):
            p.data.fill(1.0)


def build_model(config: ModelConfig, rng_seed: int) -> TransformerStack:
    """Initialize a stack over one flat buffer; matrices are scaled-uniform,
    biases zero, gains one.

    Deterministic for a given seed: matrices are drawn in declaration order.
    """
    model = _assemble(config, tile(np.zeros(_param_floats(config)), _shapes(config)))
    _initialize(model, rng_seed)
    return model


def build_cohort(configs: list[ModelConfig], rng_seeds: list[int]) -> Cohort:
    """Stack ``configs``' models, each initialized exactly as
    ``build_model(config, seed)``, over one flat buffer.

    The configs may differ in their orderings only; a budgeted cohort's
    shallower trials join no group past their depth.
    """
    first = configs[0]
    for c in configs[1:]:
        if replace(c, ordering=first.ordering) != first:
            raise ValueError("a cohort's models may differ in their orderings only")
    depth = max(len(c.ordering.kinds) for c in configs)
    everyone = list(range(len(configs)))
    head, tail = _outer_shapes(first)
    # (field owner key, field name, per-trial shape, member trials) in buffer order:
    # the stack's layout, with one group per (position, kind) for the sublayers
    entries = [(None, name, shape, everyone) for name, shape in head.items()]
    members_at: dict[tuple, list[int]] = {}  # (position, kind) -> the trials with that kind there
    for i in range(depth):
        for kind in SublayerKind:
            members = [j for j, c in enumerate(configs) if c.ordering.kinds[i : i + 1] == (kind,)]
            if members:
                members_at[i, kind] = members
                entries += [((i, kind), name, shape, members) for name, shape in _sublayer_shapes(kind, first).items()]
    entries += [(None, name, shape, everyone) for name, shape in tail.items()]
    sizes = [(len(members), *shape) for _, _, shape, members in entries]
    tensors = [Tensor(a) for a in tile(np.zeros(sum(math.prod(s) for s in sizes)), sizes)]
    own: dict[str, Tensor | None] = {"output_projection": None}
    by_group: dict[tuple, dict[str, Tensor]] = {}
    trial_arrays: list[dict[tuple, np.ndarray]] = [{} for _ in configs]
    for (key, name, _, members), t in zip(entries, tensors):
        if key is None:
            own[name] = t
        else:
            by_group.setdefault(key, {})[name] = t
        for r, j in enumerate(members):
            trial_arrays[j][(key[0] if key else None, name)] = t.data[r]
    groups: list[list[Group]] = [[] for _ in range(depth)]
    for (i, kind), f in by_group.items():
        members = members_at[i, kind]
        rows = None if members == everyone else np.array(members)
        groups[i].append(Group(kind, rows, _sublayer(kind, f)))
    models = []
    for c, seed, arrays in zip(configs, rng_seeds, trial_arrays):
        model = _assemble(c, [arrays[(i, name)] for i, name, _ in _layout(c)])
        _initialize(model, seed)
        models.append(model)
    return Cohort(configs=list(configs), groups=groups, models=models, tensors=tensors, **own)


def count_params(
    model: TransformerStack,
    include_bias: bool = False,
    include_embeddings: bool = False,
) -> int:
    """Exact parameter count.

    With both flags off this is the sublayer weight-matrix total, equal to the
    sum of per-kind 4d^2 / 8d^2 costs at the default ``ffn_inner``.
    ``include_bias`` adds sublayer biases and per-sublayer norm parameters;
    ``include_embeddings`` adds the token and positional tables plus the
    untied output projection. The final norm's gain/bias count only when both
    flags are on.
    """

    def total(tensors) -> int:
        return sum(t.data.size for t in tensors if include_bias or t.ndim == 2)

    count = sum(total(_field_values(p)) for p in model.sublayers)
    if include_embeddings:
        count += total(t for t in _field_values(model) if isinstance(t, Tensor))
    return count


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
    capture: AttentionCapture | None = None,
    pre_norm: bool = True,
    drop_rate: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Residual causal multi-head self-attention over [..., t, d]."""
    mask = _causal_mask(x.shape[-2])
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
    model: TransformerStack | Cohort,
    tokens: np.ndarray,
    capture: AttentionCapture | None = None,
    memory: Tensor | None = None,
    dropout_rng=None,
) -> Tensor:
    """Token ids [t] or [batch, t] -> logits [t, vocab] or [batch, t, vocab].

    Decoder orderings (containing `c`) additionally require ``memory``.
    Inverted dropout at ``config.dropout`` applies to each residual branch
    only when ``dropout_rng`` is passed (training); inference omits it.

    A :class:`Cohort` takes tokens [T, batch, t] and one dropout generator
    per trial, and gives stacked logits [T, batch, t, vocab]; at a position
    where not every trial runs one group, each group runs on its trials'
    rows and trials past their depth pass through.
    """
    cfg = model.config
    stacked = isinstance(model, Cohort)
    tokens = np.asarray(tokens)
    if tokens.ndim - stacked not in (1, 2):
        raise ValueError(f"tokens must be 1-d or 2-d, got shape {tokens.shape}")
    t = tokens.shape[-1]
    if t < 1 or t > cfg.context:
        raise ValueError(f"sequence length {t} outside [1, {cfg.context}]")
    if tokens.min() < 0 or tokens.max() >= cfg.vocab:
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    batched_trials = stacked and tokens.ndim == 3
    positions = slice_rows(model.positional_embedding, 0, t, stacked=stacked)
    if batched_trials:  # each trial's positions broadcast over its batch
        positions = reshape(positions, (positions.shape[0], 1, *positions.shape[1:]))
    x = embedding(model.token_embedding, tokens, stacked=stacked) + positions
    rate = cfg.dropout if dropout_rng is not None else 0.0
    for groups in model.positions():
        parts = []
        for group in groups:
            h, rng = x, dropout_rng
            if group.rows is not None:
                h = take_rows(x, group.rows)
                rng = None if rng is None else [rng[j] for j in group.rows]
            parts.append((group.rows, _sublayer_forward(group, h, cfg, capture, memory, rate, rng)))
        x = parts[0][1] if parts[0][0] is None else put_rows(x, parts)
    if cfg.pre_norm:
        x = layer_norm(x, model.final_gain, model.final_bias)
    w = model.output_projection
    if w is None:
        w = swap_axes(model.token_embedding, -1, -2)
    if batched_trials:  # each trial's [d, vocab] output weights broadcast over its batch
        w = reshape(w, (w.shape[0], 1, *w.shape[1:]))
    return matmul(x, w)


def _sublayer_forward(group: Group, x, cfg, capture, memory, rate, rng) -> Tensor:
    p = group.params
    if group.kind is SublayerKind.SELF_ATTENTION:
        return self_attention_sublayer(
            x, p, cfg.heads, capture=capture, pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=rng,
        )
    if group.kind is SublayerKind.FEEDFORWARD:
        return feedforward_sublayer(x, p, pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=rng)
    if memory is None:
        raise ValueError("ordering contains 'c' but no memory was provided")
    return cross_attention_sublayer(
        x, memory, p, cfg.heads, capture=capture, pre_norm=cfg.pre_norm, drop_rate=rate, drop_rng=rng,
    )


# ---------------------------------------------------------------------------
# checkpoint container: magic, version byte, length-prefixed JSON config,
# then the parameters as one run of little-endian float64 values in
# parameters() order. A load sizes that run from the config's layout before
# allocating, reads it into one buffer in one call, and assembles the stack
# over that buffer.


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
        "activation": "relu",  # the only activation; kept so checkpoint bytes do not change
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
            config = ModelConfig(
                d=header["d"],
                heads=header["heads"],
                vocab=header["vocab"],
                context=header["context"],
                ordering=_ordering(header["ordering"], header["decoder_mode"]),
                ffn_inner=header["ffn_inner"],
                tie_embeddings=header["tie_embeddings"],
                pre_norm=header["pre_norm"],
                dropout=header["dropout"],
            )
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
    return _assemble(config, tile(flat, _shapes(config)))
