import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

MODULES = {
    "__init__.py": "",
    "a.py": '''"""Module docstring
over two lines."""

# a comment
import os


def f():
    """One-line docstring."""
    x = 1  # a trailing comment
    return (x +
            2)
''',
    "b.py": '''class C:
    """Class docstring."""

    y = "a string that is not a docstring"
    """Nor is this one: it does not open the body."""
''',
}


def test_src_lines_counts_raw_and_code_lines_per_module_and_in_total(tmp_path):
    for name, source in MODULES.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert out.splitlines()[0].split() == ["module", "raw", "code"]
    assert rows == {
        "__init__.py": ["0", "0"],
        "a.py": ["12", "5"],  # import, def, the assignment and the two lines of the return
        "b.py": ["5", "3"],  # class, the assignment and the second string
        "total": ["17", "8"],
    }
