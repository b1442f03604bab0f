import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def test_ab_of_this_tree_against_itself_reports_each_call_equal():
    spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    rows = ab.compare(ab.CHANGE_DIR, 3, shapes={"d8": (8, 2, 8, 2)})
    assert [r.call for r in rows] == ["step d8", "evaluate d8"]
    for r in rows:
        assert r.rounds == 3 and 0 <= r.change_won <= 3 and r.equal
        for q1, median, q3 in (r.parent_ms, r.change_ms):
            assert 0 < q1 <= median <= q3
    lines = ab.report(rows).splitlines()
    assert lines[0].split()[0] == "call" and len(lines) == 3
    assert [line.split()[-2:] for line in lines[1:]] == [[f"{r.change_won}/3", "equal"] for r in rows]
    assert not [name for name in sys.modules if name.split(".")[0] in ("ab_parent", "ab_change")]
