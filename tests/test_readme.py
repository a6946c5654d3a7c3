import re
from pathlib import Path


def test_readme_library_tour_runs():
    """The README's "Library tour" code block runs as written against the public API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert tour is not None, "README.md has no python block under '## Library tour'"
    exec(compile(tour.group(1), "README.md", "exec"), {})
