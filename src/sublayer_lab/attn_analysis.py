"""Attention-distance analysis between trained models.

For two models run on the same tokens, each (self-attention sublayer, token)
pair yields a head-to-head cost matrix of 1-Wasserstein distances between
attention distributions; a minimum-cost head matching gives the distance for
that token and layer, and the grand mean averages over all of them. Each
cell's minimum comes from one shortest-augmenting-path assignment solve; a
model's distance to itself is 0 without solving, since its cost matrices
have a zero diagonal and no negative entry.

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
from .model import AttentionCapture, TransformerStack, forward
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
    "distance_matrix",
    "group_pair_means",
]

DUMP_VERSION = 1


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

    Cross-attention sublayers are excluded from the dump.
    """
    tokens = np.asarray(tokens)
    if tokens.ndim != 1:
        raise ValueError("capture expects a single 1-d token sequence")
    sink = AttentionCapture()
    with no_grad():
        forward(model, tokens, capture=sink)
    return AttentionDump(
        model_id=model_id,
        ordering=str(model.config.ordering),
        heads=model.config.heads,
        t=int(tokens.size),
        probs=sink.self_attention_stack(),
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


def _header_field(header: dict, key: str, kind: type):
    value = header.get(key)
    if type(value) is not kind:  # exact type: JSON true is not the integer 1
        raise ValueError(f"dump header: {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def load_dump(path) -> AttentionDump:
    """Read a dump written by :func:`save_dump`.

    Raises ``ValueError`` for anything but a complete, consistent dump: a
    missing or mistyped header field, an index outside the header's shape, a
    (layer, head, token) vector given twice or not at all, or a vector of the
    wrong length.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"empty dump file: {path}")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise ValueError("dump file must start with a header line")
    if header.get("v") != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {header.get('v')}")
    shape = tuple(_header_field(header, key, int) for key in ("s_count", "heads", "t"))
    if min(shape) < 1:
        raise ValueError(f"dump header shape (s_count, heads, t) = {shape} is invalid")
    model_id = _header_field(header, "model_id", str)
    ordering = _header_field(header, "ordering", str)
    t = shape[2]
    probs = np.zeros(shape + (t,))
    filled = np.zeros(shape, dtype=bool)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        doc = json.loads(line)
        what = f"dump line {lineno}"
        if not isinstance(doc, dict):
            raise ValueError(f"{what} is not a JSON object")
        index = (doc.get("layer"), doc.get("head"), doc.get("token"))
        if not all(type(i) is int and 0 <= i < n for i, n in zip(index, shape)):
            raise ValueError(f"{what}: (layer, head, token) {index} is not an index into {shape}")
        if filled[index]:
            raise ValueError(f"{what}: (layer, head, token) {index} given twice")
        row = np.asarray(doc.get("p"))
        if row.shape != (t,) or row.dtype.kind not in "iuf":
            raise ValueError(f"{what}: 'p' must be a list of {t} numbers")
        probs[index] = row
        filled[index] = True
    if not filled.all():
        raise ValueError(f"dump holds {int(filled.sum())} vectors, expected {filled.size}")
    return AttentionDump(
        model_id=model_id, ordering=ordering, heads=shape[1], t=t, probs=probs
    )


def emd_1d(p, q, tol: float = 1e-6) -> float:
    """1-Wasserstein distance between same-length distributions on the integer
    line with unit ground spacing: sum_i |CDF_p(i) - CDF_q(i)|."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"emd_1d needs two same-length vectors, got {p.shape}, {q.shape}")
    if abs(p.sum() - 1.0) > tol or abs(q.sum() - 1.0) > tol:
        raise ValueError("emd_1d inputs must each sum to 1 within tolerance")
    return float(np.abs(np.cumsum(p - q)).sum())


def _assignment_min(cost: np.ndarray) -> tuple[list[int], float]:
    """O(n^3) shortest-augmenting-path assignment (row potentials u, column
    potentials v); returns (row -> column, optimal total)."""
    n = cost.shape[0]
    rows = cost.tolist()  # Python floats index and subtract faster than numpy scalars
    INF = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            row = rows[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    match = [0] * n
    for j in range(1, n + 1):
        match[p[j] - 1] = j - 1
    total = math.fsum(rows[i][match[i]] for i in range(n))
    return match, total


def hungarian(cost) -> tuple[tuple[int, ...], float]:
    """Minimum-cost perfect matching on a square cost matrix.

    Returns (matching, total) where matching[i] is the column assigned to row
    i. Among cost-equal optima the lexicographically smallest matching wins
    (row 0's column minimized first, then row 1's, ...). Totals are fsum'd
    over the selected entries, so they are independent of summation order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.shape[0] == 0:
        raise ValueError(f"cost matrix must be square and non-empty, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must be finite")
    if (cost < 0).any():
        raise ValueError("cost matrix must be non-negative")
    n = cost.shape[0]
    _, best = _assignment_min(cost)
    # lexicographic refinement: fix rows in order to the lowest column index
    # that still admits an optimal completion
    tol = 1e-12 * max(1.0, abs(best))
    chosen: list[int] = []
    free_cols = list(range(n))
    remaining_target = best
    for i in range(n):
        rest_rows = list(range(i + 1, n))
        for pos, c in enumerate(free_cols):
            rest_cols = free_cols[:pos] + free_cols[pos + 1 :]
            if rest_rows:
                _, sub = _assignment_min(cost[np.ix_(rest_rows, rest_cols)])
            else:
                sub = 0.0
            if cost[i, c] + sub <= remaining_target + tol:
                chosen.append(c)
                free_cols = rest_cols
                remaining_target -= cost[i, c]
                break
        else:  # unreachable unless float drift exceeds tol
            raise RuntimeError("assignment refinement failed to find an optimal column")
    total = math.fsum(cost[i, c] for i, c in enumerate(chosen))
    return tuple(chosen), total


@dataclass
class DistanceReport:
    """Per-(sublayer, token) matching costs and their aggregates."""

    model_a: str
    model_b: str
    distances: np.ndarray  # [s_count, t]
    per_layer_mean: np.ndarray  # [s_count]
    grand_mean: float


def _layer_distances(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Minimal total head-matching EMD per token of one sublayer.

    ``pa`` and ``pb`` are ``[H, t, t]``; the ``[t, H, H]`` costs are built in
    one expression and each token's matrix is solved once, in its canonical
    orientation (see the module docstring).
    """
    pa, pb = pa.transpose(1, 0, 2), pb.transpose(1, 0, 2)  # [t, H, t]
    cost = np.abs(np.cumsum(pa[:, :, None, :] - pb[:, None, :, :], axis=-1)).sum(axis=-1)
    t = cost.shape[0]
    flat = cost.reshape(t, -1)
    flat_t = cost.transpose(0, 2, 1).reshape(t, -1)
    first = (flat != flat_t).argmax(axis=1)  # 0 when the matrix is symmetric
    tokens = np.arange(t)
    use_t = flat_t[tokens, first] < flat[tokens, first]
    return np.array(
        [_assignment_min(cost[tok].T if use_t[tok] else cost[tok])[1] for tok in range(t)]
    )


def attention_distance(dump_a: AttentionDump, dump_b: AttentionDump) -> DistanceReport:
    """Minimal total head-matching EMD per (sublayer ordinal, token).

    Sublayers pair by self-attention ordinal (i-th `s` with i-th `s`), so the
    dumps must agree on head count, token count, and number of self-attention
    sublayers. The grand mean averages the per-(token, layer) minima.
    """
    for attr in ("heads", "t", "s_count"):
        va, vb = getattr(dump_a, attr), getattr(dump_b, attr)
        if va != vb:
            raise ValueError(f"incompatible dumps: {attr} {va} != {vb}")
    for dump in (dump_a, dump_b):
        if not np.isfinite(dump.probs).all():
            raise ValueError(f"dump {dump.model_id!r} holds non-finite probabilities")
        if (dump.probs < 0.0).any():
            raise ValueError(f"dump {dump.model_id!r} holds negative probabilities")
        drift = np.abs(dump.probs.sum(axis=-1) - 1.0).max()
        if drift > 1e-9:
            raise ValueError(
                f"dump {dump.model_id!r} rows deviate from unit mass by {drift:g}"
            )
    layers, t = dump_a.s_count, dump_a.t
    distances = np.zeros((layers, t))
    if dump_a is not dump_b:  # a self pair's costs have a zero diagonal: every minimum is 0
        for i in range(layers):
            distances[i] = _layer_distances(dump_a.probs[i], dump_b.probs[i])
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
    """All pairwise grand means; each unordered pair is computed once."""
    dumps = list(dumps)
    if len(dumps) < 2:
        raise ValueError("distance_matrix needs at least 2 dumps")
    n = len(dumps)
    table = np.zeros((n, n))
    for i in range(n):
        table[i, i] = attention_distance(dumps[i], dumps[i]).grand_mean
        for j in range(i + 1, n):
            g = attention_distance(dumps[i], dumps[j]).grand_mean
            table[i, j] = g
            table[j, i] = g
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
