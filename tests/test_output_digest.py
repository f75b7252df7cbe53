"""scripts/output_digest.py on a few lines of each input."""

import dataclasses

import isk4lab.cli as cli
from scripts.output_digest import FAMILIES, ROOT, _child, digests

LIMIT = 3


def test_equal_trees_give_equal_digests():
    here = digests(LIMIT)
    assert list(here) == list(FAMILIES)
    assert _child(ROOT / "src", LIMIT) == here


def test_a_changed_colouring_changes_only_the_color_family(monkeypatch):
    before = digests(LIMIT)
    exact = cli.chromatic_number_exact

    def renamed(g, bound=None):
        col = exact(g, bound)
        return col and dataclasses.replace(
            col, color=tuple(col.k - 1 - c for c in col.color))

    monkeypatch.setattr(cli, "chromatic_number_exact", renamed)
    after = digests(LIMIT)
    assert {f for f in FAMILIES if after[f] != before[f]} == {"color"}
