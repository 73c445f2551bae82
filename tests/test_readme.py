"""The README's Python and configuration examples run as written."""
import json
import re
from pathlib import Path

from click.testing import CliRunner

from crtoptim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_cli_config_example_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    cfg = json.loads(blocks[0])
    cfg["out"] = str(tmp_path / "out")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    result = CliRunner().invoke(
        main, ["optimize", "--config", str(cfg_path), "--restarts", "2"])
    assert result.exit_code == 0, result.output
    for name in ("design_grid.csv", "summary.json"):
        assert (tmp_path / "out" / name).is_file()
