"""The README's example config and library example run as documented."""
import contextlib
import io
import re
from pathlib import Path

import rkhslab as rl
from rkhslab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str) -> str:
    """The first fenced ``lang`` block following the text ``after``."""
    match = re.search(re.escape(after) + rf".*?```{lang}\n(.*?)```", README, re.S)
    assert match, f"README has no {lang} block after {after!r}"
    return match.group(1)


def test_readme_config_verifies(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(_block("Example config:", "json"))
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "report.json")]) == 0


def test_readme_library_example():
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(_block("## Library example", "python"), namespace)
    space, f = namespace["space"], namespace["f"]
    assert abs(rl.rkhs_inner(space, f, f) - 1.0) <= 1e-12
    assert rl.reproducing_residuals(space, f).max() < 1e-12
