import re
from pathlib import Path

import thetalab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_and_exports_resolve():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", text,
                      re.S)
    assert block is not None, "README lost its Library quick start block"
    exec(compile(block.group(1), str(README), "exec"), {})
    missing = [n for n in thetalab.__all__ if not hasattr(thetalab, n)]
    assert not missing, missing
