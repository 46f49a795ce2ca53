"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_in_sixty_seconds_runs():
    text = README.read_text()
    section = text[text.index("## Library in sixty seconds"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md (Library in sixty seconds)", "exec"), scope)
    assert len(scope["report"].per_dim_spearman) == scope["clean"].n_dims
