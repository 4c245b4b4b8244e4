"""README's perf number blocks are the committed bench tables, verbatim.

Each block sits between ``<!-- BENCH_<name>_table.txt -->`` and
``<!-- end BENCH_<name>_table.txt -->`` in a ``text`` fence and must equal
``benchmarks/results/BENCH_<name>_table.txt``, which the bench rewrites on
every run.  When a bench is re-run and its table committed, copy the new
table into the block.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"

#: Tables README must quote: the DFE, TX-chain and fleet (scale, failover) benches.
REQUIRED = (
    "BENCH_dfe_table.txt",
    "BENCH_txchain_table.txt",
    "BENCH_fleet_table.txt",
    "BENCH_fleet_failover_table.txt",
)

BLOCK = re.compile(
    r"<!-- (?P<name>BENCH_\w+\.txt) -->\n```text\n(?P<body>.*?)```\n<!-- end (?P=name) -->",
    re.DOTALL,
)


def _blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    for match in BLOCK.finditer((REPO / "README.md").read_text()):
        assert match["name"] not in blocks, f"{match['name']} is marked twice"
        blocks[match["name"]] = match["body"]
    return blocks


def test_every_required_table_is_marked():
    assert set(REQUIRED) <= set(_blocks())


@pytest.mark.parametrize("name", sorted(_blocks()))
def test_block_equals_committed_table(name):
    assert _blocks()[name] == (RESULTS / name).read_text(), (
        f"README's {name} block differs from benchmarks/results/{name}"
    )
