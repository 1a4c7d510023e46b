"""Smoke test of tools/lattice_identity.py on a few cases of each set."""

import json
import os
import runpy

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "lattice_identity.py")


def test_lattice_identity_writes_one_line_per_case(tmp_path):
    out = tmp_path / "identity.jsonl"
    assert runpy.run_path(TOOL)["main"]([str(out), "--seeds", "1", "--per-seed", "3"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    floats = [json.loads(line) for line in (tmp_path / "identity.floats.jsonl").read_text().splitlines()]
    assert [line["set"] for line in lines] == ["channels"] * 3 + ["brute"] * 3
    assert [(f["set"], f["seed"], f["i"]) for f in floats] == [(x["set"], x["seed"], x["i"]) for x in lines]
    for line, f in zip(lines[:3], floats[:3]):
        names = ["lll_0.75", "lll_0.99", "kz_lll"] + (["kz", "sv"] if line["m"] <= 10 else [])
        assert all(isinstance(line[name], list) for name in names)  # an error is written as a dict
        if line["m"] <= 10:
            assert all(isinstance(v, int) for v in line["sv"]) and isinstance(f["sv"], float)
    for line, f in zip(lines[3:], floats[3:]):
        assert all(isinstance(v, int) for row in line["brute"] for v in row)
        assert isinstance(f["brute"], float)
