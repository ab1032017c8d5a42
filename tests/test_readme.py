"""The README's library example runs as written."""

import re
from pathlib import Path

from dapien.metrics import EvaluationReport

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert isinstance(report, EvaluationReport)
    assert report.n == len(namespace["test_set"])
    assert capsys.readouterr().out.startswith("PICP ")
