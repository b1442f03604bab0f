"""Attention-distance analysis between trained models.

For two models run on the same tokens, each (self-attention sublayer, token)
pair yields a head-to-head cost matrix of 1-Wasserstein distances between
attention distributions; a minimum-cost head matching gives the distance for
that token and layer, and the grand mean averages over all of them. The
(sublayer, token) cells of every distinct pair of a distance matrix go to a
shortest-augmenting-path assignment solver together, one call per block of
at most ``SOLVE_BLOCK`` cells, and each cell is solved bitwise as if alone;
a model's distance to itself is 0 without solving, since its cost matrices
have a zero diagonal and no negative entry.

A cost is the L1 distance between two CDFs, ``sum_i |CDF_p(i) - CDF_q(i)|``
(Vallender 1974): each dump's rows are cumulatively summed once, and a cost
is one difference of CDFs, not the CDF of a difference. The two forms round
differently (on trained models' dumps, costs differ by at most 1.6e-14
absolute); every cost is bitwise :func:`emd_1d` of its two rows. The
differences are built in blocks of cells, at most ``COST_FLOATS`` floats at a
time, so building costs takes bounded memory however long the dumps are.

Symmetry is exact by construction: negating a float is exact, so the costs
of (B, A) are bitwise the transposes of those of (A, B). Each cell is solved
in a canonical orientation, its transpose when the first entry (row-major)
where the two differ is smaller there and the matrix as built otherwise, so
both orders solve the same matrix and ``distance(A, B) == distance(B, A)``
bit-for-bit. Totals are accumulated with ``math.fsum`` so they do not depend
on summation order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._json import loads, typed
from .model import TransformerStack, forward
from .tensor_core import no_grad

__all__ = [
    "AttentionDump",
    "DistanceReport",
    "DistanceTable",
    "capture",
    "save_dump",
    "load_dump",
    "emd_1d",
    "hungarian",
    "attention_distance",
    "shape_mismatches",
    "distance_matrix",
    "group_pair_means",
]

DUMP_VERSION = 1
SOLVE_BLOCK = 1024  # cells per assignment solve; the cost per cell is flat above about this many
COST_FLOATS = 2**20  # floats of absolute CDF differences built at once


@dataclass
class AttentionDump:
    """Per-sublayer, per-head, per-token attention distributions of one model.

    ``probs[i, h, tok]`` is head h's distribution over attended positions at
    the i-th self-attention sublayer; rows sum to 1 and, under causal masking,
    are supported on positions <= tok.
    """

    model_id: str
    ordering: str
    heads: int
    t: int
    probs: np.ndarray  # [s_count, heads, t, t]

    @property
    def s_count(self) -> int:
        return self.probs.shape[0]


def capture(model: TransformerStack, tokens, model_id: str = "") -> AttentionDump:
    """Run inference on one token sequence recording every self-attention map.

    Raises ``ValueError`` for a model without self-attention sublayers.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValueError("capture expects a single 1-d token sequence")
    maps: list[np.ndarray] = []
    with no_grad():
        forward(model, tokens, capture=maps)
    if not maps:
        raise ValueError("no self-attention sublayers were captured")
    return AttentionDump(
        model_id=model_id,
        ordering=str(model.config.ordering),
        heads=model.config.heads,
        t=int(tokens.size),
        probs=np.stack(maps),
    )


def save_dump(dump: AttentionDump, path) -> None:
    """JSON Lines: a header then one line per (layer, head, token) vector.

    Floats serialize via repr (shortest round-trip form), so loading restores
    the exact values.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {
                    "v": DUMP_VERSION,
                    "kind": "header",
                    "tool_version": __version__,
                    "model_id": dump.model_id,
                    "ordering": dump.ordering,
                    "heads": dump.heads,
                    "t": dump.t,
                    "s_count": dump.s_count,
                },
                sort_keys=True,
            )
            + "\n"
        )
        for i in range(dump.s_count):
            for h in range(dump.heads):
                for tok in range(dump.t):
                    fh.write(
                        json.dumps(
                            {
                                "layer": i,
                                "head": h,
                                "token": tok,
                                "p": dump.probs[i, h, tok].tolist(),
                            }
                        )
                        + "\n"
                    )


def _check_probabilities(probs: np.ndarray, model_id: str) -> None:
    """Raise ``ValueError`` unless every row is a finite, non-negative unit mass."""
    if not np.isfinite(probs).all():
        raise ValueError(f"dump {model_id!r} holds non-finite probabilities")
    if (probs < 0.0).any():
        raise ValueError(f"dump {model_id!r} holds negative probabilities")
    drift = np.abs(probs.sum(axis=-1) - 1.0).max()
    if drift > 1e-9:
        raise ValueError(f"dump {model_id!r} rows deviate from unit mass by {drift:g}")


def load_dump(path) -> AttentionDump:
    """Read a dump written by :func:`save_dump`.

    Raises ``ValueError`` for anything but a complete, consistent dump: a
    missing or mistyped header field, an index outside the header's shape, a
    (layer, head, token) vector given twice or not at all, a vector of the
    wrong length, or probabilities that ``attention_distance`` would reject
    (non-finite, negative, or a row off unit mass).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"empty dump file: {path}")
    header = loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError("dump file must start with a header line")
    if header.get("v") != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {header.get('v')}")
    shape = tuple(typed(header.get(k), int, f"dump header: {k!r}") for k in ("s_count", "heads", "t"))
    if min(shape) < 1:
        raise ValueError(f"dump header shape (s_count, heads, t) = {shape} is invalid")
    model_id = typed(header.get("model_id"), str, "dump header: 'model_id'")
    ordering = typed(header.get("ordering"), str, "dump header: 'ordering'")
    t = shape[2]
    if math.prod(shape) * t > len(text):  # before allocating: each probability takes a character
        raise ValueError(f"dump file is too short for its shape {shape}")
    probs = np.zeros(shape + (t,))
    filled = np.zeros(shape, dtype=bool)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        what = f"dump line {lineno}"
        doc = loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"{what} is not a JSON object")
        index = (doc.get("layer"), doc.get("head"), doc.get("token"))
        if not all(type(i) is int and 0 <= i < n for i, n in zip(index, shape)):
            raise ValueError(f"{what}: (layer, head, token) {index} is not an index into {shape}")
        if filled[index]:
            raise ValueError(f"{what}: (layer, head, token) {index} given twice")
        row = np.asarray(doc.get("p"))
        # a bool among floats makes a float row, so the entries' types are checked too
        if row.shape != (t,) or row.dtype.kind not in "iuf" or bool in map(type, doc["p"]):
            raise ValueError(f"{what}: 'p' must be a list of {t} numbers")
        probs[index] = row
        filled[index] = True
    if not filled.all():
        raise ValueError(f"dump holds {int(filled.sum())} vectors, expected {filled.size}")
    _check_probabilities(probs, model_id)
    return AttentionDump(
        model_id=model_id, ordering=ordering, heads=shape[1], t=t, probs=probs
    )


def emd_1d(p, q) -> float:
    """1-Wasserstein distance between same-length distributions on the integer
    line with unit ground spacing: sum_i |CDF_p(i) - CDF_q(i)|. Each must sum
    to 1 within 1e-6.

    Computed as written, from the difference of the two cumulative sums,
    which can differ from the cumulative sum of ``p - q`` in the last bits."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"emd_1d needs two same-length vectors, got {p.shape}, {q.shape}")
    if abs(p.sum() - 1.0) > 1e-6 or abs(q.sum() - 1.0) > 1e-6:
        raise ValueError("emd_1d inputs must each sum to 1 within tolerance")
    return float(np.abs(np.cumsum(p) - np.cumsum(q)).sum())


def _assignment_min(cost: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Minimum-cost assignment of every cell of a ``[K, n, n]`` stack.

    O(n^3) shortest-augmenting-path solve (row potentials u, column
    potentials v; Jonker & Volgenant 1987), run for all K cells in lockstep:
    each numpy step does, per cell, the float operations of the scalar loop
    in the same order with the same first-index tie-breaks, so every matching
    and total is bitwise what a cell solved alone would give. Returns the
    ``[K, n]`` row -> column matchings and the K totals, each ``math.fsum``'d
    over its selected entries.
    """
    cost = np.asarray(cost, dtype=np.float64)
    k, n = cost.shape[0], cost.shape[1]
    cells = np.arange(k)
    rows = np.zeros((k * n, n + 1))  # 1-based columns, like the potentials
    rows[:, 1:] = cost.reshape(k * n, n)
    # column j's matched row is p[:, j] (1-based, 0 = free; column 0 holds the
    # row being inserted) and urow[:, j] is that row's potential u[p[j]]; the
    # ``*f`` names are flat views, indexed by ``at + column``
    p = np.zeros((k, n + 1), dtype=np.intp)
    urow = np.zeros((k, n + 1))
    v = np.zeros((k, n + 1))
    way = np.zeros((k, n + 1), dtype=np.intp)
    pf, urowf = p.reshape(-1), urow.reshape(-1)
    at = cells * (n + 1)
    row_at = cells * n - 1
    for i in range(1, n + 1):
        p[:, 0] = i
        urow[:, 0] = 0.0
        j0 = np.zeros(k, dtype=np.intp)
        minv = np.full((k, n + 1), np.inf)
        free = np.ones((k, n + 1), dtype=bool)  # columns not yet on the search tree
        freef = free.reshape(-1)
        live = np.ones(k, dtype=bool)  # cells whose augmenting path is still open
        # a finished cell keeps stepping until all have finished, on whatever
        # row its free end column indexes, but with a zero delta, and its way
        # changes only at free columns, which are off its path
        while True:
            here = at + j0
            freef[here] = False
            cur = rows.take(row_at + pf.take(here), axis=0)
            cur -= urowf.take(here)[:, None]
            cur -= v
            better = cur < minv
            better &= free
            minv = np.where(better, cur, minv)
            way = np.where(better, j0[:, None], way)
            masked = np.where(free, minv, np.inf)
            j1 = masked.argmin(axis=1)  # the first column holding the minimum
            delta = np.where(live, masked.reshape(-1).take(at + j1), 0.0)[:, None]
            # potentials are never -0.0, so adding a zero leaves them bitwise
            # unchanged; a used column's minv is never read again
            step = ~free * delta
            urow += step
            v -= step
            minv -= delta
            j0 = np.where(live, j1, j0)
            live &= pf.take(at + j0) != 0
            if not live.any():
                break
        wayf = way.reshape(-1)
        while True:  # augment back along each path; column 0 maps to itself
            here = at + j0
            prev = wayf.take(here)
            back = at + prev
            pf[here] = pf.take(back)
            urowf[here] = urowf.take(back)
            if not prev.any():
                break
            j0 = prev
    match = np.empty((k, n), dtype=np.intp)
    match[cells[:, None], p[:, 1:] - 1] = np.arange(n)
    chosen = np.take_along_axis(cost, match[:, :, None], axis=2)[:, :, 0]
    return match, [math.fsum(row) for row in chosen.tolist()]


def hungarian(cost) -> tuple[tuple[int, ...], float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (matching, total) where matching[i] is the column assigned to row
    i: one :func:`_assignment_min` solve, whose first-index tie-breaks pick
    the same optimum among cost-equal ones on every call. The total is fsum'd
    over the selected entries, so it is independent of summation order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.shape[0] == 0:
        raise ValueError(f"cost matrix must be square and non-empty, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if (cost < 0).any():
        raise ValueError("cost matrix must be non-negative")
    match, totals = _assignment_min(cost[None])
    return tuple(match[0].tolist()), totals[0]


@dataclass
class DistanceReport:
    """Per-(sublayer, token) matching costs and their aggregates."""

    model_a: str
    model_b: str
    distances: np.ndarray  # [s_count, t]
    per_layer_mean: np.ndarray  # [s_count]
    grand_mean: float


def _cdfs(probs: np.ndarray) -> np.ndarray:
    """A dump's ``[layers, H, t, t]`` rows as the CDFs of its cells, ``[layers * t, H, t]``."""
    _, h, t, _ = probs.shape
    return np.cumsum(probs, axis=-1).transpose(0, 2, 1, 3).reshape(-1, h, t)


def _oriented_costs(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The ``[K, H, H]`` head-to-head costs of K cells from their ``[K, H, t]``
    CDFs: summed absolute CDF differences, each cell transposed where that is
    its canonical orientation (see the module docstring).

    The ``[cells, H, H, t]`` differences are built a few cells at a time in
    one reused buffer of at most ``COST_FLOATS`` floats (at least one cell)."""
    k, h, t = ca.shape
    cost = np.empty((k, h, h))
    step = max(1, COST_FLOATS // (h * h * t))
    buf = np.empty((min(step, k), h, h, t))
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        diff = buf[: hi - lo]
        np.subtract(ca[lo:hi, :, None, :], cb[lo:hi, None, :, :], out=diff)
        np.add.reduce(np.abs(diff, out=diff), axis=-1, out=cost[lo:hi])
    cost_t = cost.transpose(0, 2, 1)
    flat, flat_t = cost.reshape(k, -1), cost_t.reshape(k, -1)
    first = (flat != flat_t).argmax(axis=1)  # 0 when the matrix is symmetric
    cells = np.arange(k)
    use_t = flat_t[cells, first] < flat[cells, first]
    return np.where(use_t[:, None, None], cost_t, cost)


def _pair_minima(pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[list[float]]:
    """Every cell's minimum matching cost, per ``(cdfs_a, cdfs_b)`` pair.

    The cells of all pairs, pair after pair, are built and solved in blocks
    of at most ``SOLVE_BLOCK``, one solver call each, so memory stays bounded
    however many pairs there are. A block may cut a pair in two: each cell's
    cost is built from its own rows and solved bitwise as if alone.
    """
    k = len(pairs[0][0]) if pairs else 0
    cells = len(pairs) * k
    totals: list[float] = []
    for start in range(0, cells, SOLVE_BLOCK):
        stop = min(start + SOLVE_BLOCK, cells)
        costs = []
        for p in range(start // k, (stop - 1) // k + 1):
            ca, cb = pairs[p]
            lo, hi = max(start - p * k, 0), min(stop - p * k, k)
            costs.append(_oriented_costs(ca[lo:hi], cb[lo:hi]))
        totals += _assignment_min(np.concatenate(costs))[1]
    return [totals[p * k : (p + 1) * k] for p in range(len(pairs))]


def shape_mismatches(dumps) -> list[str]:
    """One message per dump whose (s_count, heads, t) differs from the first dump's."""
    shapes = [(d.s_count, d.heads, d.t) for d in dumps]
    return [
        f"dump {i} ({d.model_id!r}) has (s_count, heads, t) = {shape}, "
        f"dump 0 ({dumps[0].model_id!r}) has {shapes[0]}"
        for i, (d, shape) in enumerate(zip(dumps, shapes))
        if shape != shapes[0]
    ]


def _check_shapes(dumps) -> None:
    mismatches = shape_mismatches(dumps)
    if mismatches:
        raise ValueError("incompatible dumps: " + "; ".join(mismatches))


def attention_distance(dump_a: AttentionDump, dump_b: AttentionDump) -> DistanceReport:
    """Minimal total head-matching EMD per (sublayer ordinal, token).

    Sublayers pair by self-attention ordinal (i-th `s` with i-th `s`), so the
    dumps must agree on head count, token count, and number of self-attention
    sublayers. The grand mean averages the per-(token, layer) minima, which
    come from :func:`_pair_minima` as for one pair of a distance matrix; a
    self pair solves nothing.
    """
    _check_shapes([dump_a, dump_b])
    _check_probabilities(dump_a.probs, dump_a.model_id)
    if dump_b is not dump_a:
        _check_probabilities(dump_b.probs, dump_b.model_id)
    layers, t = dump_a.s_count, dump_a.t
    distances = np.zeros((layers, t))
    if dump_a is not dump_b:  # a self pair's costs have a zero diagonal: every minimum is 0
        [minima] = _pair_minima([(_cdfs(dump_a.probs), _cdfs(dump_b.probs))])
        distances[:] = np.reshape(minima, (layers, t))
    per_layer = np.array([math.fsum(distances[i]) / t for i in range(layers)])
    grand = math.fsum(distances.reshape(-1)) / (layers * t)
    return DistanceReport(
        model_a=dump_a.model_id,
        model_b=dump_b.model_id,
        distances=distances,
        per_layer_mean=per_layer,
        grand_mean=grand,
    )


@dataclass
class DistanceTable:
    model_ids: list[str]
    grand_means: np.ndarray  # [n, n], symmetric, zero diagonal


def distance_matrix(dumps) -> DistanceTable:
    """All pairwise grand means, bitwise those of :func:`attention_distance`.

    Raises ``ValueError`` naming every dump whose shape differs from the first
    dump's, before any other work. Each diagonal entry is
    ``attention_distance(d, d)``, which validates the dump's rows and is 0.
    Each dump's rows are then cumulatively summed once, and the cells of every
    distinct pair are solved together (:func:`_pair_minima`); the same dump
    object listed twice is 0 apart without a solve.
    """
    dumps = list(dumps)
    if len(dumps) < 2:
        raise ValueError("distance_matrix needs at least 2 dumps")
    _check_shapes(dumps)
    n = len(dumps)
    table = np.zeros((n, n))
    for i, dump in enumerate(dumps):
        table[i, i] = attention_distance(dump, dump).grand_mean
    cdfs = {id(dump): _cdfs(dump.probs) for dump in dumps}
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if dumps[i] is not dumps[j]]
    minima = _pair_minima([(cdfs[id(dumps[i])], cdfs[id(dumps[j])]) for i, j in pairs])
    for (i, j), cells in zip(pairs, minima):
        table[i, j] = table[j, i] = math.fsum(cells) / len(cells)
    return DistanceTable(model_ids=[d.model_id for d in dumps], grand_means=table)


def group_pair_means(table: DistanceTable, group_of: dict[str, str]) -> dict:
    """Mean grand distance per unordered group pair (distinct models only).

    With two groups this reproduces the usual layout: two within-group cells
    and one cross-group cell averaged over every combination.
    """
    sums: dict[tuple[str, str], list[float]] = {}
    ids = table.model_ids
    for i, j in itertools.combinations(range(len(ids)), 2):
        ga, gb = group_of[ids[i]], group_of[ids[j]]
        key = tuple(sorted((ga, gb)))
        sums.setdefault(key, []).append(float(table.grand_means[i, j]))
    return {key: math.fsum(vals) / len(vals) for key, vals in sums.items()}
