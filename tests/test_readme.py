import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})
