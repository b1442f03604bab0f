"""Ordering-string DSL: parse, generate, and measure sublayer orderings.

A transformer stack is named by a lowercase string over ``s`` (self-attention),
``f`` (feedforward), and, for decoders, ``c`` (cross-attention), read
input-to-output left-to-right. All architecture-space arithmetic (parameter
units, sandwich construction, random sampling, half-splits) lives here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._json import loads

__all__ = [
    "SublayerKind",
    "OrderingSpec",
    "OrderingError",
    "UNIT_COST",
    "parse_ordering",
    "format_ordering",
    "sublayer_param_count",
    "total_units",
    "sandwich",
    "sandwich_decoder",
    "sample_permutation",
    "sample_budgeted",
    "split_halves",
    "half_counts",
    "HalfCounts",
    "bundled_tables_path",
    "load_table_records",
    "TABLES_FIXTURE",
]


class OrderingError(ValueError):
    """Malformed ordering string; ``index`` points at the offending character."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SublayerKind(enum.Enum):
    SELF_ATTENTION = "s"
    FEEDFORWARD = "f"
    CROSS_ATTENTION = "c"

    @property
    def char(self) -> str:
        return self.value


_KIND_BY_CHAR = {kind.value: kind for kind in SublayerKind}

# One unit = 4*d^2 weight parameters, the cost of a single `s` sublayer.
# `f` holds twice that (8*d^2 with the default 4d inner width); `c` mirrors
# `s` because it has the same four-projection structure.
UNIT_COST = {
    SublayerKind.SELF_ATTENTION: 1,
    SublayerKind.FEEDFORWARD: 2,
    SublayerKind.CROSS_ATTENTION: 1,
}

TABLES_FIXTURE = "tables_1_2.jsonl"


@dataclass(frozen=True)
class OrderingSpec:
    """A validated sequence of sublayer kinds — the architecture genome.

    ``decoder_mode`` permits cross-attention; every ``c`` must immediately
    follow an ``s`` (the pair reorders as one ``sc`` unit). ``parse_ordering``
    never yields an empty spec, but programmatic constructions (half-splits,
    the zero-sublayer sanity model) may be empty.
    """

    kinds: tuple[SublayerKind, ...]
    decoder_mode: bool = False

    def __str__(self) -> str:
        return format_ordering(self)

    def __len__(self) -> int:
        return len(self.kinds)

    def count(self, kind: SublayerKind) -> int:
        return sum(1 for k in self.kinds if k is kind)


def parse_ordering(text: str, decoder_mode: bool = False) -> OrderingSpec:
    """Parse an ordering string like ``"sfsfsf"`` or (decoder) ``"scfscf"``.

    Raises :class:`OrderingError` with the character index for: an unknown
    character, ``c`` outside decoder mode, ``c`` not directly after ``s``,
    or empty input.
    """
    if not text:
        raise OrderingError("empty ordering string", index=0)
    kinds: list[SublayerKind] = []
    for i, ch in enumerate(text):
        kind = _KIND_BY_CHAR.get(ch)
        if kind is None:
            raise OrderingError(f"unknown character {ch!r} at index {i}", index=i)
        if kind is SublayerKind.CROSS_ATTENTION:
            if not decoder_mode:
                raise OrderingError(
                    f"cross-attention 'c' at index {i} requires decoder mode", index=i
                )
            if i == 0 or kinds[-1] is not SublayerKind.SELF_ATTENTION:
                raise OrderingError(
                    f"'c' at index {i} must immediately follow 's'", index=i
                )
        kinds.append(kind)
    return OrderingSpec(kinds=tuple(kinds), decoder_mode=decoder_mode)


def format_ordering(spec: OrderingSpec) -> str:
    """Inverse of :func:`parse_ordering`; round-trips exactly."""
    return "".join(k.value for k in spec.kinds)


def sublayer_param_count(kind: SublayerKind, d: int) -> int:
    """Weight parameters of one sublayer at model width ``d``, excluding biases.

    ``s`` and ``c`` hold four d x d projections (4*d^2); ``f`` holds the
    d x 4d and 4d x d pair (8*d^2): ``UNIT_COST`` units of 4*d^2 each.
    """
    if d < 1:
        raise ValueError(f"model width must be >= 1, got {d}")
    return UNIT_COST[kind] * 4 * d * d


def total_units(spec: OrderingSpec) -> int:
    """Parameter cost of a whole ordering in 4d^2 units."""
    return sum(UNIT_COST[k] for k in spec.kinds)


def _sandwich(n: int, k: int, unit: tuple[SublayerKind, ...], decoder_mode: bool) -> OrderingSpec:
    """unit^k (unit f)^(n-k) f^k, for a sandwich coefficient k in [0, n-1]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"sandwich coefficient k={k} out of range [0, {n - 1}]")
    f = (SublayerKind.FEEDFORWARD,)
    return OrderingSpec(kinds=unit * k + (unit + f) * (n - k) + f * k, decoder_mode=decoder_mode)


def sandwich(n: int, k: int) -> OrderingSpec:
    """The s^k (sf)^(n-k) f^k family: n sublayers of each kind, length 2n.

    k=0 is the interleaved stack (sf)^n; k=n-1 is the extreme s^n f^n.
    """
    return _sandwich(n, k, (SublayerKind.SELF_ATTENTION,), decoder_mode=False)


def sandwich_decoder(n: int, k: int) -> OrderingSpec:
    """The decoder family (sc)^k ((sc)f)^(n-k) f^k; `sc` moves as one unit."""
    unit = (SublayerKind.SELF_ATTENTION, SublayerKind.CROSS_ATTENTION)
    return _sandwich(n, k, unit, decoder_mode=True)


def _generator(seed: int) -> np.random.Generator:
    # PCG64 keeps sampled architectures reproducible across platforms.
    return np.random.Generator(np.random.PCG64(seed))


def sample_permutation(n_s: int, n_f: int, rng_seed: int) -> OrderingSpec:
    """Uniformly random permutation of n_s ``s`` and n_f ``f`` sublayers."""
    if n_s < 0 or n_f < 0:
        raise ValueError("sublayer counts must be non-negative")
    if n_s + n_f < 1:
        raise ValueError("need at least one sublayer to permute")
    s, f = SublayerKind.SELF_ATTENTION, SublayerKind.FEEDFORWARD
    pool = np.array([0] * n_s + [1] * n_f, dtype=np.int64)
    shuffled = _generator(rng_seed).permutation(pool)
    kinds = tuple(f if flag else s for flag in shuffled)
    return OrderingSpec(kinds=kinds)


def sample_budgeted(budget: int, rng_seed: int) -> OrderingSpec:
    """Append ``s`` or ``f`` with equal probability until ``budget`` units are spent.

    When the drawn kind costs more than the remaining budget the affordable
    kind is appended instead, so the budget is always met exactly (a draw is
    consumed either way).
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1 unit, got {budget}")
    rng = _generator(rng_seed)
    s, f = SublayerKind.SELF_ATTENTION, SublayerKind.FEEDFORWARD
    kinds: list[SublayerKind] = []
    remaining = budget
    while remaining > 0:
        kind = f if rng.integers(0, 2) else s
        if UNIT_COST[kind] > remaining:
            kind = s
        kinds.append(kind)
        remaining -= UNIT_COST[kind]
    return OrderingSpec(kinds=tuple(kinds))


def split_halves(spec: OrderingSpec) -> tuple[OrderingSpec, OrderingSpec]:
    """Slice an encoder ordering at half its parameter mass.

    The bottom half is the maximal prefix whose unit weight does not exceed
    half the total (compared exactly, as 2*prefix <= total); a sublayer
    straddling the midpoint goes to the top half, so the bottom may be empty
    (e.g. ``"fs"`` splits to ``("", "fs")``).
    """
    if spec.count(SublayerKind.CROSS_ATTENTION):
        raise ValueError("split_halves expects an encoder ordering (no 'c')")
    total = total_units(spec)
    acc = 0
    cut = 0
    for i, kind in enumerate(spec.kinds):
        if 2 * (acc + UNIT_COST[kind]) > total:
            break
        acc += UNIT_COST[kind]
        cut = i + 1
    bottom = OrderingSpec(kinds=spec.kinds[:cut], decoder_mode=spec.decoder_mode)
    top = OrderingSpec(kinds=spec.kinds[cut:], decoder_mode=spec.decoder_mode)
    return bottom, top


@dataclass(frozen=True)
class HalfCounts:
    bottom_s: int
    bottom_f: int
    top_s: int
    top_f: int


def half_counts(spec: OrderingSpec) -> HalfCounts:
    """Per-half sublayer tallies for the parameter-mass split."""
    bottom, top = split_halves(spec)
    s, f = SublayerKind.SELF_ATTENTION, SublayerKind.FEEDFORWARD
    return HalfCounts(
        bottom_s=bottom.count(s),
        bottom_f=bottom.count(f),
        top_s=top.count(s),
        top_f=top.count(f),
    )


def bundled_tables_path() -> Path:
    """Path of the bundled reference tables, read by :func:`load_table_records`."""
    return Path(str(resources.files(__package__).joinpath("data", TABLES_FIXTURE)))


def load_table_records() -> list[dict]:
    """Bundled reference results: one record per row of the two dev-set tables.

    Each record has ``ordering`` (string), ``dev_ppl`` (float), ``source``
    ("table1" or "table2"), and ``baseline`` (bool; True for the interleaved
    reference runs).
    """
    text = bundled_tables_path().read_text()
    return [loads(line) for line in text.splitlines() if line.strip()]
