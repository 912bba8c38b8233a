"""The size cap on the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "localpolytope"
LINE_CAP = 3246  # ROADMAP: src/ is no bigger at the end of the round


def test_package_source_stays_within_line_cap():
    # newlines, as wc -l counts them
    lines = {f.name: f.read_bytes().count(b"\n") for f in SRC.glob("*.py")}
    assert len(lines) >= 8
    assert sum(lines.values()) <= LINE_CAP, lines
