import re
import shlex
from pathlib import Path

from wildcycles.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})


def test_readme_cli_lines_run(capsys):
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S) if b.startswith("wildcycles ")]
    for line in block.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "wildcycles"
        assert run(argv[1:]) == 0, line
        capsys.readouterr()
