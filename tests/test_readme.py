"""The README library tour must stay executable, its layout table complete, and its CLI lines in bounds."""

import re
import shlex
from pathlib import Path

from quarklets import cli

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


def test_cli_lines_stay_inside_the_bounds():
    block = re.search(r"^## CLI\n\n```sh\n(.*?)```", README.read_text(), flags=re.DOTALL | re.MULTILINE).group(1)
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    commands = [argv[1:] for argv in lines if argv[:1] == ["quarklets"]]
    assert sum(argv[0] == "dual" for argv in commands) >= 2
    parser = cli.build_parser()
    for argv in commands:
        cli._check_bounds(parser.parse_args(argv))
