"""The README's Library example runs as written: each line of its python
block that ends in a `# value` comment evaluates to that value."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_values():
    # the imports, a blank line, then one `expression  # value` a line
    imports, body = _library_block().split("\n\n", 1)
    namespace = {}
    exec(imports, namespace)
    lines = body.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        code, sep, value = line.partition("# ")
        assert sep, line
        assert eval(code, namespace) == ast.literal_eval(value), line
