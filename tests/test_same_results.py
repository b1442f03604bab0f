import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_results.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_results_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_same_results_of_this_tree_against_itself_reports_each_file_equal():
    tool = load_tool()
    toy = {"d": 8, "heads": 2, "context": 8, "batch_size": 2, "steps": 2, "eval_interval": 1}
    assert tool.compare(tool.CHANGE_DIR, train=toy) == {"search.jsonl": None, "sweep.jsonl": None}


def test_first_difference_ignores_meta_and_names_the_first_other_difference(tmp_path):
    tool = load_tool()
    header = {"v": 1, "kind": "header", "meta": {"created_unix": 1}}
    trial = {"v": 1, "kind": "trial", "valid_nats": 1.5, "meta": {"wall_clock_s": 0.1}}
    parent, change = tmp_path / "parent.jsonl", tmp_path / "change.jsonl"

    def write(path, *docs):
        path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))

    write(parent, header, trial, trial)
    write(change, {**header, "meta": {"created_unix": 2}}, {**trial, "meta": {"wall_clock_s": 9.0}}, trial)
    assert tool.first_difference(parent, change) is None
    write(change, header, trial, {**trial, "valid_nats": 1.25})
    diff = tool.first_difference(parent, change)
    assert diff.startswith("line 3 differs\n") and '"valid_nats": 1.25' in diff.splitlines()[2]
    write(change, header, trial)
    assert tool.first_difference(parent, change).splitlines()[2] == "  change: (no line)"
