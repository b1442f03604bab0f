import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublayer_lab import attn_analysis as aa
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.model import ModelConfig, build_model


def make_model(ordering="sfsf", heads=4, d=16, seed=0):
    cfg = ModelConfig(
        d=d, heads=heads, vocab=11, context=16, ordering=parse_ordering(ordering)
    )
    return build_model(cfg, seed)


def random_dump(seed, s_count=2, heads=3, t=6, model_id="m"):
    """Synthetic causal attention dump: rows normalized, support <= token."""
    rng = np.random.default_rng(seed)
    probs = rng.random((s_count, heads, t, t)) + 0.05
    for tok in range(t):
        probs[:, :, tok, tok + 1 :] = 0.0
        probs[:, :, tok, :] /= probs[:, :, tok, :].sum(axis=-1, keepdims=True)
    return aa.AttentionDump(
        model_id=model_id, ordering="sf" * s_count, heads=heads, t=t, probs=probs
    )


# -- capture ------------------------------------------------------------------


def test_capture_shape_sums_and_token_zero():
    model = make_model("sfsf", heads=4)
    tokens = np.arange(8) % 11
    dump = aa.capture(model, tokens, model_id="demo")
    assert dump.probs.shape == (2, 4, 8, 8)
    assert dump.s_count == 2 and dump.heads == 4 and dump.t == 8
    assert np.abs(dump.probs.sum(axis=-1) - 1.0).max() < 1e-9
    # causality: token 0 must be a point mass on position 0
    assert np.all(dump.probs[:, :, 0, 0] == 1.0)
    assert np.all(dump.probs[:, :, 0, 1:] == 0.0)
    with pytest.raises(ValueError):
        aa.capture(model, np.array([[1, 2], [3, 4]]))


def test_dump_round_trip_is_exact(tmp_path):
    dump = random_dump(0)
    path = tmp_path / "dump.jsonl"
    aa.save_dump(dump, path)
    loaded = aa.load_dump(path)
    assert loaded.model_id == dump.model_id and loaded.ordering == dump.ordering
    assert np.array_equal(loaded.probs, dump.probs)
    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text("\n".join((path.read_text().splitlines())[:-3]) + "\n")
    with pytest.raises(ValueError):
        aa.load_dump(truncated)


def _duplicate_first_vector(lines):
    lines[2] = lines[1]  # the vector count still matches the header


def _replace_line(i, text):
    def edit(lines):
        lines[i] = text
    return edit


def _set_header(key, value):
    """Edit one header field; None removes it."""
    def edit(lines):
        header = json.loads(lines[0])
        if value is None:
            del header[key]
        else:
            header[key] = value
        lines[0] = json.dumps(header)
    return edit


def _set_vector(key, value):
    def edit(lines):
        doc = json.loads(lines[1])
        doc[key] = value
        lines[1] = json.dumps(doc)
    return edit


def _edit_first_probabilities(change):
    def edit(lines):
        doc = json.loads(lines[1])
        doc["p"] = change(doc["p"])
        lines[1] = json.dumps(doc)
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _duplicate_first_vector,
        _set_vector("layer", -1),
        _set_vector("layer", 9),
        _set_vector("token", True),
        _set_vector("p", [1.0]),
        _set_vector("p", "abc"),
        _set_header("t", None),
        _set_header("heads", 0),
        _set_header("model_id", 7),
        _replace_line(0, "[1, 2]"),
        _replace_line(1, "[1, 2]"),
        _edit_first_probabilities(lambda p: [-5.0, 6.0 - sum(p[2:]), *p[2:]]),
        _edit_first_probabilities(lambda p: [math.nan, *p[1:]]),
        _edit_first_probabilities(lambda p: [True] + [0.0] * (len(p) - 1)),
    ],
    ids=[
        "duplicate-vector", "negative-layer", "layer-out-of-range", "bool-token",
        "short-vector", "string-vector", "header-without-t", "zero-heads",
        "non-string-model-id", "non-object-header", "non-object-vector",
        "negative-probability", "nan-probability", "bool-probability",
    ],
)
def test_load_dump_rejects_inconsistent_files(tmp_path, edit):
    path = tmp_path / "dump.jsonl"
    aa.save_dump(random_dump(0), path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        aa.load_dump(path)


# -- emd -----------------------------------------------------------------------


def test_emd_frozen_examples():
    assert aa.emd_1d([0.25, 0.75], [0.25, 0.75]) == 0.0
    assert aa.emd_1d([1, 0], [0, 1]) == 1.0
    assert aa.emd_1d([0.5, 0.5, 0], [0, 0, 1]) == 1.5


def test_emd_validation():
    with pytest.raises(ValueError):
        aa.emd_1d([1, 0], [0.5, 0.5, 0])
    with pytest.raises(ValueError):
        aa.emd_1d([0.7, 0.7], [0.5, 0.5])


def brute_force_transport(p, q):
    """Independent oracle: split each distribution into equal mass grains and
    try every grain matching."""
    grains = 4
    a = [i for i, mass in enumerate(p) for _ in range(round(mass * grains))]
    b = [i for i, mass in enumerate(q) for _ in range(round(mass * grains))]
    best = min(
        sum(abs(x - y) for x, y in zip(a, perm))
        for perm in itertools.permutations(b)
    )
    return best / grains


def test_emd_matches_brute_force_transport_sample():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        p = rng.multinomial(4, np.ones(m) / m) / 4.0
        q = rng.multinomial(4, np.ones(m) / m) / 4.0
        assert abs(aa.emd_1d(p, q) - brute_force_transport(p, q)) < 1e-12


@st.composite
def distribution_pair(draw):
    m = draw(st.integers(2, 8))
    def dist():
        raw = draw(
            st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m)
        )
        arr = np.array(raw)
        return arr / arr.sum()
    return dist(), dist(), dist()


@given(distribution_pair())
@settings(max_examples=150, deadline=None)
def test_emd_metric_properties(triple):
    p, q, r = triple
    dpq = aa.emd_1d(p, q)
    assert dpq >= 0.0
    assert aa.emd_1d(q, p) == dpq  # exact symmetry
    assert aa.emd_1d(p, p) == 0.0
    assert dpq <= aa.emd_1d(p, r) + aa.emd_1d(r, q) + 1e-9


# -- hungarian --------------------------------------------------------------------


def test_hungarian_frozen_example():
    perm, total = aa.hungarian([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    assert total == 5.0
    assert perm == (1, 0, 2)


def test_hungarian_identity_on_zero_diagonal():
    cost = np.full((4, 4), 9.0)
    np.fill_diagonal(cost, 0.0)
    perm, total = aa.hungarian(cost)
    assert perm == (0, 1, 2, 3) and total == 0.0


def test_hungarian_lexicographic_ties():
    assert aa.hungarian(np.ones((3, 3)))[0] == (0, 1, 2)
    assert aa.hungarian(np.zeros((2, 2)))[0] == (0, 1)
    # two optima: (0,1) costs 1+1, (1,0) costs 1+1 -> pick lexicographic
    assert aa.hungarian([[1, 1], [1, 1]])[0] == (0, 1)


def test_hungarian_validation():
    with pytest.raises(ValueError):
        aa.hungarian([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        aa.hungarian([[1, np.inf], [1, 1]])
    with pytest.raises(ValueError):
        aa.hungarian([[1, -0.5], [1, 1]])
    with pytest.raises(ValueError):
        aa.hungarian(np.zeros((0, 0)))


def test_hungarian_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        cost = rng.random((n, n)) * 5
        perm, total = aa.hungarian(cost)
        assert sorted(perm) == list(range(n))
        best = min(
            math.fsum(cost[i, p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert abs(total - best) < 1e-9
        # proper greedy matching: each row takes its cheapest unused column
        free = list(range(n))
        greedy = 0.0
        for i in range(n):
            j = min(free, key=lambda c: cost[i, c])
            free.remove(j)
            greedy += cost[i, j]
        assert total <= greedy + 1e-9


def test_hungarian_beats_greedy_at_larger_sizes():
    rng = np.random.default_rng(3)
    for n in (8, 12, 16, 20):
        cost = rng.random((n, n)) * 7
        _, total = aa.hungarian(cost)
        free = list(range(n))
        greedy = 0.0
        for i in range(n):
            j = min(free, key=lambda c: cost[i, c])
            free.remove(j)
            greedy += cost[i, j]
        assert total <= greedy + 1e-9


# -- attention distance --------------------------------------------------------------


def test_self_distance_is_exactly_zero():
    dump = random_dump(3)
    report = aa.attention_distance(dump, dump)
    assert np.all(report.distances == 0.0)
    assert report.grand_mean == 0.0


def test_head_permutation_invariance_exact():
    dump = random_dump(4, heads=4)
    shuffled = dump.probs.copy()
    rng = np.random.default_rng(5)
    for layer in range(dump.s_count):
        shuffled[layer] = shuffled[layer][rng.permutation(dump.heads)]
    other = aa.AttentionDump(
        model_id="perm", ordering=dump.ordering, heads=dump.heads, t=dump.t,
        probs=shuffled,
    )
    report = aa.attention_distance(dump, other)
    assert report.grand_mean == 0.0
    assert np.all(report.distances == 0.0)


def test_distance_symmetry_exact():
    a, b = random_dump(6, model_id="a"), random_dump(7, model_id="b")
    ab = aa.attention_distance(a, b)
    ba = aa.attention_distance(b, a)
    assert np.array_equal(ab.distances, ba.distances)
    assert ab.grand_mean == ba.grand_mean
    assert ab.grand_mean > 0.0


def test_grand_mean_is_plain_average():
    a, b = random_dump(8), random_dump(9)
    report = aa.attention_distance(a, b)
    layers, t = report.distances.shape
    assert report.grand_mean == math.fsum(report.distances.reshape(-1)) / (layers * t)
    assert np.allclose(
        report.per_layer_mean,
        [math.fsum(report.distances[i]) / t for i in range(layers)],
    )


def tie_heavy_dump(seed, heads, kind, s_count=2, t=10, model_id="m"):
    """Dumps whose cost matrices tie: uniform rows, duplicated heads, masses
    in quarters, or "early" heads that stochastically dominate "late" ones,
    where every matching costs the same up to rounding. Under causal masking
    tokens 0 and 1 have 1-2 positions in every kind."""
    dump = random_dump(seed, s_count=s_count, heads=heads, t=t, model_id=model_id)
    probs = dump.probs
    if kind in ("early", "late"):
        for tok in range(t):
            lo, hi = (0, tok // 2) if kind == "early" else (tok // 2, tok)
            probs[:, :, tok, :lo] = 0.0
            probs[:, :, tok, hi + 1 :] = 0.0
            probs[:, :, tok] /= probs[:, :, tok].sum(axis=-1, keepdims=True)
    elif kind == "uniform":
        for tok in range(t):
            probs[:, :, tok, : tok + 1] = 1.0 / (tok + 1)
    elif kind == "duplicated":
        probs[:, 1::2] = probs[:, : heads // 2]
    elif kind == "quarters":
        rng = np.random.default_rng(seed)
        for tok in range(t):
            counts = rng.multinomial(4, np.ones(tok + 1) / (tok + 1), size=(s_count, heads))
            probs[:, :, tok, : tok + 1] = counts / 4.0
    return dump


@pytest.mark.parametrize("heads", [1, 3, 8])
@pytest.mark.parametrize(
    "kinds", [("random", "random"), ("uniform", "random"), ("duplicated", "duplicated"),
              ("quarters", "quarters"), ("uniform", "quarters"), ("early", "late")],
)
def test_distance_matches_hungarian_and_is_symmetric_on_ties(heads, kinds):
    a = tie_heavy_dump(25, heads, kinds[0], model_id="a")
    b = tie_heavy_dump(26, heads, kinds[1], model_id="b")
    ab = aa.attention_distance(a, b)
    ba = aa.attention_distance(b, a)
    assert np.array_equal(ab.distances, ba.distances)
    assert ab.grand_mean == ba.grand_mean
    for i in range(a.s_count):
        for tok in range(a.t):
            cost = np.array(
                [[aa.emd_1d(p, q) for q in b.probs[i, :, tok]] for p in a.probs[i, :, tok]]
            )
            assert abs(ab.distances[i, tok] - aa.hungarian(cost)[1]) <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_dump_raises(bad):
    a, b = random_dump(14, model_id="a"), random_dump(15, model_id="b")
    b.probs[1, 2, 3, 0] = bad
    with pytest.raises(ValueError):
        aa.attention_distance(a, b)
    with pytest.raises(ValueError):
        aa.attention_distance(b, b)


def test_negative_probability_dump_raises():
    a, b = random_dump(14, model_id="a"), random_dump(15, model_id="b")
    row = b.probs[1, 2, 3]
    row[0] = -5.0
    row[1] = 6.0 - row[2:].sum()  # the row still has unit mass
    with pytest.raises(ValueError, match="negative"):
        aa.attention_distance(a, b)
    with pytest.raises(ValueError, match="negative"):
        aa.attention_distance(b, b)


def test_incompatible_dumps_raise():
    a = random_dump(10, heads=3)
    b = random_dump(11, heads=4)
    with pytest.raises(ValueError):
        aa.attention_distance(a, b)
    c = random_dump(12, s_count=3)
    with pytest.raises(ValueError):
        aa.attention_distance(a, c)
    d = random_dump(13, t=5)
    with pytest.raises(ValueError):
        aa.attention_distance(a, d)


# -- distance matrix -------------------------------------------------------------------


def test_distance_matrix_structure_and_groups():
    dumps = [random_dump(20 + i, model_id=f"m{i}") for i in range(4)]
    table = aa.distance_matrix(dumps)
    assert table.grand_means.shape == (4, 4)
    assert np.all(np.diag(table.grand_means) == 0.0)
    assert np.array_equal(table.grand_means, table.grand_means.T)
    assert (table.grand_means[np.triu_indices(4, 1)] > 0).all()

    groups = {"m0": "base", "m1": "base", "m2": "sand", "m3": "sand"}
    means = aa.group_pair_means(table, groups)
    assert set(means) == {("base", "base"), ("base", "sand"), ("sand", "sand")}
    assert means[("base", "base")] == table.grand_means[0, 1]
    cross = [table.grand_means[i, j] for i in (0, 1) for j in (2, 3)]
    assert abs(means[("base", "sand")] - math.fsum(cross) / 4) < 1e-15

    with pytest.raises(ValueError):
        aa.distance_matrix(dumps[:1])


# -- assignment solver ------------------------------------------------------------------


def reference_assignment_min(cost):
    """The scalar shortest-augmenting-path loop that ``_assignment_min`` runs
    in lockstep over a stack: one square matrix, (row -> column, total)."""
    n = cost.shape[0]
    rows = cost.tolist()
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
    return match, math.fsum(rows[i][match[i]] for i in range(n))


def cost_stack(rng, n, count):
    """``count`` matrices of side n, cycling through random, quarter-rounded
    (many ties), all-equal, half-zero and all-zero kinds."""
    kinds = [
        lambda: rng.random((n, n)) * 3,
        lambda: np.round(rng.random((n, n)) * 8) / 4,
        lambda: np.full((n, n), float(rng.integers(0, 3))),
        lambda: rng.random((n, n)) * (rng.random((n, n)) < 0.5),
        lambda: np.zeros((n, n)),
    ]
    return np.stack([kinds[c % len(kinds)]() for c in range(count)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_assignment_min_is_bitwise_the_scalar_loop(n):
    costs = cost_stack(np.random.default_rng(40 + n), n, 1000)
    match, totals = aa._assignment_min(costs)
    assert match.shape == (1000, n) and len(totals) == 1000
    for cell in range(1000):
        ref_match, ref_total = reference_assignment_min(costs[cell])
        assert match[cell].tolist() == ref_match
        assert totals[cell].hex() == ref_total.hex()  # bitwise, signed zeros included


def test_assignment_min_of_empty_stacks():
    match, totals = aa._assignment_min(np.zeros((3, 0, 0)))
    assert match.shape == (3, 0) and totals == [0.0, 0.0, 0.0]
    match, totals = aa._assignment_min(np.zeros((0, 4, 4)))
    assert match.shape == (0, 4) and totals == []


def test_hungarian_is_one_assignment_solve():
    rng = np.random.default_rng(41)
    for trial in range(400):
        cost = cost_stack(rng, trial % 7 + 1, 5)[trial % 5]
        perm, total = aa.hungarian(cost)
        match, totals = aa._assignment_min(cost[None])
        assert perm == tuple(match[0].tolist()) and total.hex() == totals[0].hex()


@pytest.mark.parametrize("heads", [1, 3, 8])
@pytest.mark.parametrize("kinds", [("random", "random"), ("quarters", "quarters"), ("early", "late")])
def test_distance_cells_are_bitwise_scalar_solves(heads, kinds):
    a = tie_heavy_dump(27, heads, kinds[0], model_id="a")
    b = tie_heavy_dump(28, heads, kinds[1], model_id="b")
    report = aa.attention_distance(a, b)
    for i in range(a.s_count):
        for tok in range(a.t):
            cost = np.array(
                [[aa.emd_1d(p, q) for q in b.probs[i, :, tok]] for p in a.probs[i, :, tok]]
            )
            flat, flat_t = cost.reshape(-1), cost.T.reshape(-1)
            differ = np.flatnonzero(flat != flat_t)
            if differ.size and flat_t[differ[0]] < flat[differ[0]]:
                cost = cost.T  # the canonical orientation
            assert report.distances[i, tok] == reference_assignment_min(cost)[1]


def _count_solver_calls(monkeypatch) -> list:
    calls = []
    solve = aa._assignment_min

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(aa, "_assignment_min", counted)
    return calls


def test_one_solver_call_per_distinct_pair(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    dumps = [random_dump(30 + i, s_count=2, heads=3, t=6, model_id=f"m{i}") for i in range(2)]
    aa.attention_distance(dumps[0], dumps[0])
    assert calls == []
    aa.attention_distance(dumps[0], dumps[1])
    assert calls == [(12, 3, 3)]  # every (sublayer, token) cell in one stack


def test_one_solver_call_per_distance_matrix(monkeypatch):
    calls = _count_solver_calls(monkeypatch)
    dumps = [random_dump(30 + i, s_count=2, heads=3, t=6, model_id=f"m{i}") for i in range(3)]
    aa.distance_matrix(dumps)
    assert calls == [(36, 3, 3)]  # the cells of all three pairs in one stack


def test_distance_matrix_is_bitwise_the_per_pair_distances(monkeypatch):
    base = random_dump(31, heads=4, t=10, model_id="random")
    quarters = tie_heavy_dump(32, 4, "quarters", model_id="quarters")
    copy = aa.AttentionDump("copy", quarters.ordering, 4, 10, quarters.probs.copy())
    dumps = [base, quarters, tie_heavy_dump(33, 4, "early", model_id="early"), base, copy]
    expected = np.array([[aa.attention_distance(a, b).grand_mean for b in dumps] for a in dumps])
    solved = []
    solve = aa._assignment_min

    def counted(cost):
        solved.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(aa, "_assignment_min", counted)
    table = aa.distance_matrix(dumps).grand_means
    assert table.tobytes() == expected.tobytes()
    assert solved == [9 * 20]  # every pair but the one dump object listed twice
    assert table[0, 3] == table[1, 4] == 0.0  # the same dump twice, and an equal copy
    assert (table[np.triu_indices(5, 1)] > 0).sum() == 8


def test_solver_blocks_may_cut_a_pair_in_two(monkeypatch):
    dumps = [random_dump(40 + i, s_count=2, heads=3, t=6, model_id=f"m{i}") for i in range(4)]
    whole = aa.distance_matrix(dumps).grand_means
    calls = []
    solve = aa._assignment_min

    def counted(cost):
        calls.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(aa, "_assignment_min", counted)
    monkeypatch.setattr(aa, "SOLVE_BLOCK", 5)
    assert aa.distance_matrix(dumps).grand_means.tobytes() == whole.tobytes()
    cells = 6 * 12  # six pairs of 2 sublayers x 6 tokens; 12 is not a multiple of 5
    assert len(calls) == math.ceil(cells / 5) and sum(calls) == cells and max(calls) == 5


def test_a_distance_matrix_checks_each_dumps_rows_once(monkeypatch):
    calls = []
    check = aa._check_probabilities

    def counted(probs, model_id):
        calls.append(model_id)
        check(probs, model_id)

    monkeypatch.setattr(aa, "_check_probabilities", counted)
    aa.distance_matrix([random_dump(90 + i, model_id=f"m{i}") for i in range(3)])
    assert calls == ["m0", "m1", "m2"]


# -- cell costs -------------------------------------------------------------------


@pytest.mark.parametrize("cells_per_block", [0, 1, 7])  # 0: below one cell, still one at a time
def test_cost_blocks_leave_the_table_bitwise_unchanged(monkeypatch, cells_per_block):
    dumps = [random_dump(100 + i, s_count=2, heads=4, t=9, model_id=f"m{i}") for i in range(3)]
    whole = aa.distance_matrix(dumps).grand_means
    costs = aa._cell_costs(dumps[0].probs, dumps[1].probs)
    monkeypatch.setattr(aa, "COST_FLOATS", cells_per_block * 4 * 4 * 9)  # 18 cells per pair
    assert aa._cell_costs(dumps[0].probs, dumps[1].probs).tobytes() == costs.tobytes()
    assert aa.distance_matrix(dumps).grand_means.tobytes() == whole.tobytes()


def test_building_costs_takes_bounded_memory():
    dumps = [random_dump(110 + i, s_count=2, heads=16, t=128, model_id=f"m{i}") for i in range(2)]
    tracemalloc.start()
    try:
        aa.distance_matrix(dumps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # all 256 cells' [16, 16, 128] differences at once peak at about 77 MB
    assert peak < 30e6, peak


def reference_cell_costs(pa, pb):
    """The cost body that cumulatively summed every (head, head') difference,
    before costs came from per-dump CDFs: ``[layers * t, H, H]``, unoriented."""
    pa, pb = pa.transpose(0, 2, 1, 3), pb.transpose(0, 2, 1, 3)  # [layers, t, H, t]
    diff = pa[:, :, :, None, :] - pb[:, :, None, :, :]
    np.cumsum(diff, axis=-1, out=diff)
    cost = np.abs(diff, out=diff).sum(axis=-1)
    h = cost.shape[-1]
    return cost.reshape(-1, h, h)


def cost_dump(seed, heads, t, kind, model_id="m"):
    """A dump of one kind: "full" rows over every position (not causal),
    "random" causal rows, or one of ``tie_heavy_dump``'s tie-heavy kinds."""
    if kind == "full":
        rng = np.random.default_rng(seed)
        probs = rng.random((2, heads, t, t)) + 0.05
        probs /= probs.sum(axis=-1, keepdims=True)
        return aa.AttentionDump(model_id=model_id, ordering="sfsf", heads=heads, t=t, probs=probs)
    return tie_heavy_dump(seed, heads, kind, t=t, model_id=model_id)


COST_KINDS = [("full", "full"), ("full", "random"), ("random", "random"),
              ("quarters", "quarters"), ("uniform", "duplicated"), ("early", "late")]


@pytest.mark.parametrize("t", [1, 7, 32])
@pytest.mark.parametrize("heads", [1, 3, 8])
@pytest.mark.parametrize("kinds", COST_KINDS)
def test_cell_costs_match_the_cumsum_of_differences(heads, t, kinds):
    a = cost_dump(50 + t, heads, t, kinds[0], model_id="a")
    b = cost_dump(60 + heads, heads, t, kinds[1], model_id="b")
    cost = aa._cell_costs(a.probs, b.probs)
    ref = reference_cell_costs(a.probs, b.probs)
    assert cost.shape == ref.shape == (2 * t, heads, heads)
    # each cell is the reference or, in its canonical orientation, its transpose
    err = np.minimum(
        np.abs(cost - ref).max(axis=(1, 2)),
        np.abs(cost - ref.transpose(0, 2, 1)).max(axis=(1, 2)),
    )
    assert err.max() <= 1e-12


@pytest.mark.parametrize("t", [1, 7, 32])
@pytest.mark.parametrize("heads", [1, 3, 8])
@pytest.mark.parametrize("kinds", COST_KINDS)
def test_cell_costs_are_bitwise_emd_of_their_rows(heads, t, kinds):
    a = cost_dump(70 + t, heads, t, kinds[0], model_id="a")
    b = cost_dump(80 + heads, heads, t, kinds[1], model_id="b")
    cost = aa._cell_costs(a.probs, b.probs)
    for i in range(a.s_count):
        for tok in range(t):
            emd = np.array(
                [[aa.emd_1d(p, q) for q in b.probs[i, :, tok]] for p in a.probs[i, :, tok]]
            )
            flat, flat_t = emd.reshape(-1), emd.T.reshape(-1)
            differ = np.flatnonzero(flat != flat_t)
            if differ.size and flat_t[differ[0]] < flat[differ[0]]:
                emd = emd.T  # the canonical orientation
            assert np.array_equal(cost[i * t + tok], emd)
