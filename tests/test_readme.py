"""README's library tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md (Library tour)", "exec"), namespace)
    records = namespace["records"]
    assert [rec.snr_db for rec in records] == [0.0, 10.0, 20.0]
