"""README.md's library example runs as written and prints the tally it
states, so the example cannot drift from the API."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_prints_its_tally():
    section = README.read_text().split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md (Library use)", "exec"), {})
    assert out.getvalue() == "(4, 3)\n"
