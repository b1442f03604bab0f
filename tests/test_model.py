import dataclasses
import gc
import hashlib
import json
import struct
import weakref

import numpy as np
import pytest

from sublayer_lab.arch_dsl import OrderingSpec, parse_ordering, sandwich, sample_permutation
from sublayer_lab import model as model_module
from sublayer_lab.model import (
    ModelConfig,
    build_model,
    count_params,
    cross_attention_sublayer,
    feedforward_sublayer,
    forward,
    load_checkpoint,
    save_checkpoint,
    self_attention_sublayer,
)
from sublayer_lab.tensor_core import (
    OptimizerState,
    Tape,
    Tensor,
    adam_step,
    attention,
    backward,
    cross_entropy_loss,
    finite_difference_check,
    sum_all,
)


def small_config(ordering="sf", **kw):
    if isinstance(ordering, str):
        ordering = parse_ordering(ordering)
    base = dict(d=8, heads=2, vocab=11, context=8, ordering=ordering)
    base.update(kw)
    return ModelConfig(**base)


def rand(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


# -- construction ---------------------------------------------------------------


ATTENTION_NAMES = ["wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo", "norm_gain", "norm_bias"]
FEEDFORWARD_NAMES = ["w1", "b1", "w2", "b2", "norm_gain", "norm_bias"]


def test_build_structure_follows_ordering():
    m = build_model(small_config("sf"), rng_seed=0)
    assert [list(vars(p)) for p in m.sublayers] == [ATTENTION_NAMES, FEEDFORWARD_NAMES]

    m2 = build_model(small_config("ssfsfsff", d=16, heads=4), rng_seed=0)
    names = [list(vars(p)) for p in m2.sublayers]
    assert all(n in (ATTENTION_NAMES, FEEDFORWARD_NAMES) for n in names)
    kinds = ["f" if n == FEEDFORWARD_NAMES else "s" for n in names]
    assert "".join(kinds) == str(sandwich(4, 1))


def test_build_determinism_and_seed_variation():
    a = build_model(small_config(), 7)
    b = build_model(small_config(), 7)
    c = build_model(small_config(), 8)
    for pa, pb, pc in zip(a.parameters(), b.parameters(), c.parameters()):
        assert np.array_equal(pa.data, pb.data)
        assert pa.data.shape == pc.data.shape
    assert any(
        not np.array_equal(pa.data, pc.data)
        for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(d=9, heads=2)
    with pytest.raises(ValueError):
        small_config(vocab=0)


# -- parameter counting ------------------------------------------------------------


def test_count_params_hand_cases():
    m = build_model(small_config("sf"), 0)
    assert count_params(m) == 4 * 64 + 8 * 64 == 768

    m2 = build_model(small_config("ssssff"), 0)
    assert count_params(m2) == 4 * (4 * 64) + 2 * (8 * 64) == 2048


def test_count_params_counts_the_actual_ffn_inner_width():
    m = build_model(small_config("sf", ffn_inner=12), 0)
    assert count_params(m) == 4 * 64 + 2 * 8 * 12 == 448


def test_param_equivalence_across_reorderings():
    ref = count_params(build_model(small_config("sf" * 16, context=8, d=16, heads=2), 0))
    for k in (1, 5, 15):
        m = build_model(
            small_config(str(sandwich(16, k)), context=8, d=16, heads=2), 0
        )
        assert count_params(m) == ref
    for seed in range(10):
        text = str(sample_permutation(16, 16, seed))
        m = build_model(small_config(text, context=8, d=16, heads=2), 0)
        assert count_params(m) == ref


# -- sublayers -----------------------------------------------------------------------


def test_self_attention_residual_identity_with_zero_output_proj():
    m = build_model(small_config(), 1)
    p = m.sublayers[0]
    p.wo.data[:] = 0.0
    x = Tensor(rand(5, 8, seed=2))
    y = self_attention_sublayer(x, p, heads=2)
    assert np.array_equal(y.data, x.data)


def test_self_attention_causal_mask():
    m = build_model(small_config(), 3)
    cap = []
    x = Tensor(rand(6, 8, seed=4))
    self_attention_sublayer(x, m.sublayers[0], heads=2, capture=cap)
    (probs,) = cap  # [heads, t, t]
    for h in range(2):
        for i in range(6):
            assert np.all(probs[h, i, i + 1 :] == 0.0)
    assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-9


def test_self_attention_gradient():
    m = build_model(small_config(), 5)
    p = m.sublayers[0]

    def f(x):
        return sum_all(self_attention_sublayer(x, p, heads=2))

    assert finite_difference_check(f, Tensor(rand(5, 8, seed=6))) < 1e-4

    x_fixed = rand(5, 8, seed=7)

    def fw(w):
        return sum_all(self_attention_sublayer(Tensor(x_fixed), p, heads=2))

    for w in (p.wq, p.wk, p.wv, p.wo, p.norm_gain):
        assert finite_difference_check(lambda _x, w=w: fw(w), w) < 1e-4


def test_cross_attention_residual_and_singleton_memory(monkeypatch):
    m = build_model(small_config(ordering=parse_ordering("scf", True)), 1)
    p = m.sublayers[1]
    p.wo.data[:] = 0.0
    y = Tensor(rand(4, 8, seed=8))
    memory = Tensor(rand(6, 8, seed=9))
    out = cross_attention_sublayer(y, memory, p, heads=2)
    assert np.array_equal(out.data, y.data)

    cap = []

    def capturing(*args):  # the sublayer's own last argument, its capture, is None
        return attention(*args[:-1], capture=cap.append)

    monkeypatch.setattr(model_module, "attention", capturing)
    single = Tensor(rand(1, 8, seed=10))
    cross_attention_sublayer(y, single, p, heads=2)
    (probs,) = cap
    assert probs.shape == (2, 4, 1)
    assert np.all(probs == 1.0)


def test_cross_attention_gradient():
    m = build_model(small_config(ordering=parse_ordering("scf", True)), 11)
    p = m.sublayers[1]
    mem_fixed = rand(6, 8, seed=12)

    def fy(y):
        return sum_all(cross_attention_sublayer(y, Tensor(mem_fixed), p, heads=2))

    assert finite_difference_check(fy, Tensor(rand(4, 8, seed=13))) < 1e-4

    y_fixed = rand(4, 8, seed=14)

    def fm(mem):
        return sum_all(cross_attention_sublayer(Tensor(y_fixed), mem, p, heads=2))

    assert finite_difference_check(fm, Tensor(mem_fixed.copy())) < 1e-4


def test_feedforward_residual_identity_and_hand_case():
    m = build_model(small_config(), 15)
    p = m.sublayers[1]
    p.w2.data[:] = 0.0
    p.b2.data[:] = 0.0
    x = Tensor(rand(5, 8, seed=16))
    assert np.array_equal(feedforward_sublayer(x, p).data, x.data)

    # d=1: layer norm flattens the single feature to 0, relu(0)=0, so the
    # residual passes -2 through regardless of the weights
    one = ModelConfig(d=1, heads=1, vocab=3, context=4, ordering=parse_ordering("f"), ffn_inner=1)
    mp = build_model(one, 0).sublayers[0]
    mp.w1.data[:] = 1.0
    mp.w2.data[:] = 1.0
    out = feedforward_sublayer(Tensor([[-2.0]]), mp)
    assert np.allclose(out.data, [[-2.0]], atol=1e-12)


def test_feedforward_gradient():
    m = build_model(small_config(), 17)
    p = m.sublayers[1]

    def f(x):
        return sum_all(feedforward_sublayer(x, p))

    assert finite_difference_check(f, Tensor(rand(5, 8, seed=18))) < 1e-4


# -- forward -----------------------------------------------------------------------


def test_forward_shapes_and_token_validation():
    m = build_model(small_config("sfsf"), 19)
    toks = np.array([1, 2, 3, 4, 5])
    assert forward(m, toks).shape == (5, 11)
    assert forward(m, np.array([[1, 2, 3], [4, 5, 6]])).shape == (2, 3, 11)
    with pytest.raises(ValueError):
        forward(m, np.array([1, 11]))
    with pytest.raises(ValueError):
        forward(m, np.arange(9))  # longer than context


def test_forward_rejects_tokens_of_three_dimensions():
    m = build_model(small_config("sf"), 0)
    with pytest.raises(ValueError, match=r"tokens must be 1-d or 2-d, got shape \(1, 2, 3\)"):
        forward(m, np.zeros((1, 2, 3), dtype=np.int64))


def test_config_rejects_a_dropout_of_one():
    with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\), got 1.0"):
        small_config(dropout=1.0)


def test_forward_causality_probe():
    for text in ("sfsf", "ssff", "fsfs"):
        m = build_model(small_config(text), 20)
        base_toks = np.array([1, 4, 2, 9, 0, 5, 7, 3])
        base = forward(m, base_toks).data
        for j in range(8):
            perturbed = base_toks.copy()
            perturbed[j] = (perturbed[j] + 1) % 11
            out = forward(m, perturbed).data
            assert np.array_equal(base[:j], out[:j])
            assert not np.array_equal(base[j:], out[j:])


def test_forward_causality_on_random_orderings():
    rng = np.random.default_rng(99)
    for trial in range(6):
        text = "".join(rng.choice(["s", "f"], size=rng.integers(1, 7)))
        m = build_model(small_config(text, context=6), trial)
        toks = rng.integers(0, 11, size=6)
        base = forward(m, toks).data
        for j in range(6):
            perturbed = toks.copy()
            perturbed[j] = (perturbed[j] + 3) % 11
            assert np.array_equal(base[:j], forward(m, perturbed).data[:j]), (text, j)


def test_forward_ordering_matters():
    a = build_model(small_config("sf"), 21)
    b = build_model(small_config("fs"), 21)
    toks = np.array([1, 2, 3, 4])
    assert not np.array_equal(forward(a, toks).data, forward(b, toks).data)


def test_forward_decoder_needs_memory():
    cfg = small_config(ordering=parse_ordering("scf", True))
    m = build_model(cfg, 22)
    toks = np.array([1, 2, 3])
    with pytest.raises(ValueError):
        forward(m, toks)
    memory = Tensor(rand(5, 8, seed=23))
    assert forward(m, toks, memory=memory).shape == (3, 11)


def test_forward_post_norm_variant_runs():
    m = build_model(small_config("sf", pre_norm=False), 24)
    assert forward(m, np.array([1, 2, 3])).shape == (3, 11)


def test_end_to_end_gradient_sfsf():
    cfg = ModelConfig(d=8, heads=2, vocab=11, context=6, ordering=parse_ordering("sfsf"))
    m = build_model(cfg, 25)
    toks = np.array([1, 4, 2, 9, 0, 5])
    targets = np.array([4, 2, 9, 0, 5, 1])

    def loss_fn(_):
        return cross_entropy_loss(forward(m, toks), targets)

    for p in (m.sublayers[0].wq, m.sublayers[1].w1, m.token_embedding):
        assert finite_difference_check(lambda _x, p=p: loss_fn(None), p) < 1e-4


def test_forward_empty_ordering_is_embedding_to_output():
    from sublayer_lab.arch_dsl import OrderingSpec

    cfg = ModelConfig(d=8, heads=2, vocab=11, context=8, ordering=OrderingSpec(kinds=()))
    m = build_model(cfg, 26)
    assert m.sublayers == []
    assert forward(m, np.array([1, 2, 3])).shape == (3, 11)


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    m = build_model(small_config("sfsf"), 27)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert str(loaded.config.ordering) == "sfsf"
    for a, b in zip(m.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    toks = np.array([1, 2, 3, 4])
    assert np.array_equal(forward(m, toks).data, forward(loaded, toks).data)


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    m = build_model(small_config(), 28)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(m, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_numpy_integer_sizes_are_stored_as_ints_and_checkpoint(tmp_path):
    sizes = dict(d=np.int64(8), heads=np.int32(2), vocab=np.int64(11), context=np.int16(8), ffn_inner=np.int64(12))
    cfg = small_config("sf", **sizes)
    assert all(type(getattr(cfg, name)) is int for name in sizes)
    path = tmp_path / "numpy.ckpt"
    save_checkpoint(build_model(cfg, 30), path)
    assert load_checkpoint(path).config == cfg
    plain = tmp_path / "plain.ckpt"
    save_checkpoint(build_model(small_config("sf", ffn_inner=12), 30), plain)
    assert path.read_bytes() == plain.read_bytes()


def test_checkpoint_damaged_header_raises_value_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(small_config(), 29), path)
    data = path.read_bytes()
    header_end = 9 + struct.unpack("<I", data[5:9])[0]  # magic, version, length, JSON
    cut = tmp_path / "cut.ckpt"
    for size in range(header_end + 1):
        cut.write_bytes(data[:size])
        with pytest.raises(ValueError):
            load_checkpoint(cut)
    header = json.loads(data[9:header_end])
    blobs = (
        json.dumps({k: v for k, v in header.items() if k != "d"}),
        json.dumps({**header, "d": "x"}),
        "[1, 2]",
    )
    for blob in blobs:
        raw = blob.encode("utf-8")
        cut.write_bytes(data[:5] + struct.pack("<I", len(raw)) + raw + data[header_end:])
        with pytest.raises(ValueError):
            load_checkpoint(cut)


# One config per layout feature: tied and untied output, a non-default FFN width,
# cross-attention, a wider model and no sublayers at all.
LAYOUT_CASES = {
    "tied-sfsf": dict(ordering="sfsf"),
    "untied-ssfsfsff-d16": dict(ordering="ssfsfsff", d=16, heads=4, tie_embeddings=False),
    "ffn_inner-12": dict(ordering="sf", ffn_inner=12),
    "decoder-scfscf": dict(ordering=parse_ordering("scfscf", decoder_mode=True)),
    "d64-sfsfsfsf": dict(ordering="sfsfsfsf", d=64, heads=4),
    "empty": dict(ordering=OrderingSpec(kinds=())),
}

# SHA-256 of save_checkpoint(build_model(config, seed)) for seeds 0 and 1, taken
# before build and load shared one flat parameter buffer: checkpoint v1 bytes
# and the seeded initialization must not move.
CHECKPOINT_SHA256 = {
    "tied-sfsf": (
        "5d2c6343d7d6572eba11ffd6071e6e8306a5deb8ab2ac49f92de64b29fa84713",
        "4daa41399ca157a586c5b7e2dc46c2492740c3587b8a60a573396352a9ac5887",
    ),
    "untied-ssfsfsff-d16": (
        "e16a40dd063435703f624818de1875fa8b51d5fb730c61ccd7a0379c85f53272",
        "1102e8df87f4090c5e1314eb2e0b830d004d2accfbf8420e291d8ed8a7b65a2a",
    ),
    "ffn_inner-12": (
        "3e559b99d3ac351735b04a420e4112b5af4299f6ab1e11a20aae6a264c75faf0",
        "0960301bdc4d4408539e728111ea2fb371163e4f121ae085afb56939c12f2e53",
    ),
    "decoder-scfscf": (
        "9cc41e0bce11e59b3ff6d079710c950c681cb006cb830c75d8a57300a13cacc5",
        "355eb7e36570e19769833a7bdced7752268f68fd0bc36f577583b9a05055aacc",
    ),
    "d64-sfsfsfsf": (
        "c97904803257a5df81dbc374a5934a6e76a6402fd21adcbd4ab765648744991e",
        "c7b19fe41cee7750e1036b2c5b6fd54e29c0e97c0d6692082ab0c970a37919b1",
    ),
    "empty": (
        "53266c649913236e5e40fd309a76e6402958164cb83bac5aac3d0be76e55bd39",
        "b1d45290ef3cdf4bc71573651cf7ba6732befa74a04ef79d37dabff0697a34b0",
    ),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_checkpoint_bytes_are_frozen(case, seed, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(small_config(**LAYOUT_CASES[case]), seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[case][seed]


def _assert_one_buffer(model):
    params = model.parameters()
    base = params[0].data.base
    offset = 0
    for p in params:
        assert p.data.base is base
        assert p.data.ctypes.data == base.ctypes.data + 8 * offset
        offset += p.data.size
    assert offset == base.size


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_checkpoint_round_trip_over_layouts(case, tmp_path):
    m = build_model(small_config(**LAYOUT_CASES[case]), 3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.config == m.config
    for a, b in zip(m.parameters(), loaded.parameters(), strict=True):
        assert a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
    assert count_params(loaded) == count_params(m)
    _assert_one_buffer(m)
    _assert_one_buffer(loaded)
    if m.config.ordering.decoder_mode:
        return  # forward needs memory; the parameters are compared above
    toks = np.array([1, 2, 3, 4])
    assert np.array_equal(forward(m, toks).data, forward(loaded, toks).data)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pre_norm", "false"),
        ("pre_norm", 0),
        ("tie_embeddings", 1),
        ("tie_embeddings", None),
        ("dropout", True),
        ("dropout", "0.1"),
        ("decoder_mode", "false"),
    ],
)
def test_checkpoint_non_boolean_flags_raise_value_error(field, value, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(small_config(), 29), path)
    data = path.read_bytes()
    header_end = 9 + struct.unpack("<I", data[5:9])[0]
    raw = json.dumps({**json.loads(data[9:header_end]), field: value}).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(raw)) + raw + data[header_end:])
    with pytest.raises(ValueError, match=field):
        load_checkpoint(path)


def test_checkpoint_float_size_raises_value_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(small_config(), 29), path)
    data = path.read_bytes()
    header_end = 9 + struct.unpack("<I", data[5:9])[0]
    raw = json.dumps({**json.loads(data[9:header_end]), "d": 8.0}).encode("utf-8")
    path.write_bytes(data[:5] + struct.pack("<I", len(raw)) + raw + data[header_end:])
    with pytest.raises(ValueError, match="integer"):
        load_checkpoint(path)


def test_checkpoint_header_holds_every_config_field_and_round_trips_it(tmp_path):
    # every field away from its default, so a field the header dropped would show
    cfg = ModelConfig(
        d=12, heads=3, vocab=7, context=5, ordering=parse_ordering("scf", decoder_mode=True),
        ffn_inner=10, tie_embeddings=False, pre_norm=False, dropout=0.25,
    )
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_model(cfg, 31), path)
    data = path.read_bytes()
    header = json.loads(data[9 : 9 + struct.unpack("<I", data[5:9])[0]])
    names = [f.name for f in dataclasses.fields(ModelConfig)]
    assert sorted(header) == sorted(names + ["decoder_mode", "activation"])
    assert header["decoder_mode"] is True and header["activation"] == "relu"
    loaded = load_checkpoint(path).config
    for name in names:
        value = getattr(cfg, name)
        assert header[name] == (str(value) if name == "ordering" else value)
        assert getattr(loaded, name) == value


def test_forward_draws_no_dropout_when_the_rate_is_zero():
    toks = np.array([[1, 2, 3, 4], [5, 6, 7, 8]])
    for rate, draws in ((0.0, False), (0.1, True)):
        m = build_model(small_config("sfsf", dropout=rate), 32)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = forward(m, toks, dropout_rng=rng)
        assert (rng.bit_generator.state != before) == draws
        assert np.array_equal(out.data, forward(m, toks).data) != draws


@pytest.mark.parametrize("field", ["d", "heads", "vocab", "context", "ffn_inner"])
@pytest.mark.parametrize("value", [8.0, True, "8"])
def test_config_rejects_non_integral_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})
    small_config(**{field: np.int64(8)})


def test_dropped_training_tape_is_freed_without_gc():
    m = build_model(small_config("sfsf", dropout=0.1), 30)
    toks = np.array([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]])
    gc.disable()
    try:
        with Tape() as tape:
            logits = forward(m, toks[:, :-1], dropout_rng=np.random.default_rng(0))
            loss = cross_entropy_loss(logits, toks[:, 1:])
        assert tape.nodes[-1].output is loss
        backward(loss, tape)
        adam_step(m.parameters(), OptimizerState())
        ref = weakref.ref(tape)
        del tape, loss, logits
        assert ref() is None
    finally:
        gc.enable()
