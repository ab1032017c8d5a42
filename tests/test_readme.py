"""The README's library example runs as written, and its suite table is what the suite prints."""

import json
import re
from pathlib import Path

from dapien.cli import ExperimentConfig, run_suite
from dapien.metrics import EvaluationReport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    report = namespace["report"]
    assert isinstance(report, EvaluationReport)
    assert report.n == len(namespace["test_set"])
    assert capsys.readouterr().out.startswith("PICP ")


def table_rows(text, header):
    """The cells of each row of the markdown table that starts at ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_the_suite_table_is_what_the_default_configs_print(tmp_path):
    configs = [
        ExperimentConfig.from_dict(json.loads(path.read_text()))
        for path in sorted((ROOT / "configs").glob("*.json"))
    ]
    run_suite(configs, tmp_path)
    header = "| dataset | method | PICP | MPIW |"
    printed = table_rows((tmp_path / "summary.md").read_text(), header)
    quoted = table_rows(README.read_text(), header + "\n")
    assert quoted == [row[:4] for row in printed]
