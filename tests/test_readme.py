"""README's library example runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_blocks_run():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks, "README has no python block"
    for code in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        assert out.getvalue().strip(), "README example printed nothing"
