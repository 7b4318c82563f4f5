import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(capsys):
    """The README's "Library entry points" example runs against the package."""
    section = README.read_text().split("## Library entry points", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    cost, rho, ds = (float(v) for v in capsys.readouterr().out.split())
    # gf-to-gfds: GF violation at most 2, DS violation 0
    assert cost > 0 and 0 <= rho <= 2 and ds == 0
