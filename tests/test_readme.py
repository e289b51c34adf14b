"""README.md's library example, run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README.md holds no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out  # the predictions and the pooled accuracy
