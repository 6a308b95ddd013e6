"""The README library tour must stay executable, and its layout table complete."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_python_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README lost its python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_layout_table_lists_every_module():
    rows = set(re.findall(r"^\| `quarklets\.(\w+)` \|", README.read_text(), flags=re.MULTILINE))
    modules = {path.stem for path in (ROOT / "src" / "quarklets").glob("*.py")} - {"__init__", "__main__"}
    assert rows == modules
