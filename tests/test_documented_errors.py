"""Documented errors that no other test raises: each input is refused with
the error its docstring or the CLI contract names."""

import json

import numpy as np
import pytest

from sublayer_lab import arch_dsl, results
from sublayer_lab.attn_analysis import capture, emd_1d
from sublayer_lab.arch_dsl import parse_ordering
from sublayer_lab.cli import main
from sublayer_lab.model import ModelConfig, build_model, cross_attention_sublayer
from sublayer_lab.tensor_core import Tensor, cross_entropy_loss


@pytest.mark.parametrize(
    "argv, message",
    [
        (["params", "--ordering", "sf", "--d", "0"], "error: --d must be >= 1, got 0"),
        (["sample", "--mode", "permutation", "--n-f", "2", "--seed", "0"],
         "error: permutation mode requires --n-s and --n-f"),
        (["split", "--ordering", "sxf"], "error: "),
    ],
    ids=["params_d_0", "sample_permutation_without_n_s", "split_unknown_sublayer"],
)
def test_a_bad_flag_value_exits_2_with_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(message)


def test_sandwich_rejects_n_0():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        arch_dsl.sandwich(0, 0)


def test_sample_permutation_rejects_a_negative_count():
    with pytest.raises(ValueError, match="sublayer counts must be non-negative"):
        arch_dsl.sample_permutation(-1, 2, 0)


def test_capture_of_a_model_without_self_attention_raises():
    model = build_model(ModelConfig(d=8, heads=2, vocab=11, context=8, ordering=parse_ordering("ff")), 1)
    with pytest.raises(ValueError, match="no self-attention sublayers were captured"):
        capture(model, np.arange(4))


def test_cross_attention_rejects_an_empty_memory():
    config = ModelConfig(d=8, heads=2, vocab=11, context=8, ordering=parse_ordering("scf", True))
    p = build_model(config, 1).sublayers[1]
    with pytest.raises(ValueError, match="cross-attention memory must be non-empty"):
        cross_attention_sublayer(Tensor(np.ones((4, 8))), Tensor(np.ones((0, 8))), p, heads=2)


def test_record_from_json_dict_rejects_an_index_below_minus_1():
    rec = results.TrialRecord.build("sf", -1, 0, [(1, 2.0)], 1.5, 10, 0.1, index=0)
    doc = json.loads(json.dumps({**results.record_to_json_dict(rec), "index": -2}))
    with pytest.raises(ValueError, match="record index must be >= -1, got -2"):
        results.record_from_json_dict(doc)


def test_cross_entropy_loss_rejects_targets_of_another_shape():
    logits = Tensor(np.zeros((2, 3, 5)))
    with pytest.raises(ValueError, match=r"targets shape \(2, 2\) does not match logits \(2, 3, 5\)"):
        cross_entropy_loss(logits, np.zeros((2, 2), dtype=np.int64))


def test_emd_1d_takes_a_mass_within_1e_6_of_1_and_refuses_one_beyond():
    assert emd_1d([1.0 + 9e-7, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError, match="must each sum to 1 within tolerance"):
        emd_1d([1.0 + 2e-6, 0.0], [0.0, 1.0])
