"""Smoke test of tools/lattice_identity.py on a few cases of each set."""

import json
import os
import runpy

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "lattice_identity.py")


def test_lattice_identity_writes_one_line_per_case(tmp_path):
    out = tmp_path / "identity.jsonl"
    assert runpy.run_path(TOOL)["main"]([str(out), "--seeds", "1", "--per-seed", "3"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["set"] for line in lines] == ["channels"] * 3 + ["brute"] * 3
    for line in lines[:3]:
        names = ["lll_0.75", "lll_0.99", "kz_lll"] + (["kz", "sv"] if line["m"] <= 10 else [])
        assert all(isinstance(line[name], list) for name in names)  # an error is written as a dict
    assert all(isinstance(line["brute"], list) for line in lines[3:])
