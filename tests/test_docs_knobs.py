"""docs/SERVING.md may only name knobs that exist.

The two ``| knob | default | what it trades |`` tables (§4 pool, §5
gateway) are what an operator configures from; a row that outlives its
config field documents an option the constructor rejects.  Every
back-ticked name in a table's first column must be a dataclass field of
``PoolConfig`` / ``GatewayConfig`` respectively.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro.serving import GatewayConfig, PoolConfig

SERVING_MD = Path(__file__).resolve().parents[1] / "docs" / "SERVING.md"
HEADER = "| knob | default | what it trades |"


def knob_tables() -> list[list[str]]:
    """The knob names of each knob table, in document order (a cell like
    `` `a` / `b` `` names two)."""
    tables: list[list[str]] = []
    lines = iter(SERVING_MD.read_text().splitlines())
    for line in lines:
        if line.strip() != HEADER:
            continue
        next(lines)  # the |---|---|---| rule
        knobs: list[str] = []
        for row in lines:
            if not row.startswith("|"):
                break
            knobs += re.findall(r"`([^`]+)`", row.split("|")[1])
        tables.append(knobs)
    return tables


def test_every_documented_knob_is_a_config_field():
    tables = knob_tables()
    assert len(tables) == 2, "expected the §4 pool and §5 gateway knob tables"
    for config, knobs in zip((PoolConfig, GatewayConfig), tables):
        fields = {f.name for f in dataclasses.fields(config)}
        assert knobs, f"empty knob table for {config.__name__}"
        unknown = [knob for knob in knobs if knob not in fields]
        assert not unknown, f"{config.__name__} has no field(s) {unknown}"
