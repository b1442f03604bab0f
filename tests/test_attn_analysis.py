import itertools
import json
import math

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
    ],
    ids=[
        "duplicate-vector", "negative-layer", "layer-out-of-range", "bool-token",
        "short-vector", "string-vector", "header-without-t", "zero-heads",
        "non-string-model-id", "non-object-header", "non-object-vector",
        "negative-probability", "nan-probability",
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
