"""The README's Python quickstart runs as written, and its tables name the library's."""

import re
from pathlib import Path

from pointforms import tasks

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README.md has no ```python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_gen_row_lists_the_tasks_in_order():
    row = re.search(r"^\| `gen \{([^}]*)\}` \|", README.read_text(), re.M)
    assert row, "README.md has no `gen {...}` row in its subcommand table"
    assert row.group(1).split(",") == list(tasks.TASKS)
