"""Smoke tests of the identity tools in tools/ on a few cases."""

import json
import os
import runpy

import numpy as np

from ifwb.simulate import CHUNK_TRIALS

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
TOOL = os.path.join(TOOLS, "lattice_identity.py")


def test_lattice_identity_writes_one_line_per_case(tmp_path):
    out = tmp_path / "identity.jsonl"
    assert runpy.run_path(TOOL)["main"]([str(out), "--seeds", "1", "--per-seed", "3"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    floats = [json.loads(line) for line in (tmp_path / "identity.floats.jsonl").read_text().splitlines()]
    sets = ["channels", "brute", "ties", "brute_wide"]
    assert [line["set"] for line in lines] == [name for name in sets for _ in range(3)]
    assert [(f["set"], f["seed"], f["i"]) for f in floats] == [(x["set"], x["seed"], x["i"]) for x in lines]
    for line, f in zip(lines[:3] + lines[6:9], floats[:3] + floats[6:9]):
        names = ["lll_0.75", "lll_0.99", "kz_lll"] + (["kz", "sv"] if line["m"] <= 10 else [])
        assert all(isinstance(line[name], list) for name in names)  # an error is written as a dict
        if line["m"] <= 10:
            assert all(isinstance(v, int) for v in line["sv"]) and isinstance(f["sv"], float)
    for line, f in zip(lines[3:6] + lines[9:], floats[3:6] + floats[9:]):
        assert all(isinstance(v, int) for row in line["brute"] for v in row)
        assert isinstance(f["brute"], float)
    assert {line["bound"] for line in lines[9:]} <= {4, 5}
    # one tie case of each kind; an orthogonal basis keeps its own columns
    assert [line["kind"] for line in lines[6:9]] == ["orthogonal", "scaled", "permuted"]
    assert lines[6]["kz"] == np.eye(lines[6]["m"], dtype=int).tolist()


def test_sim_identity_writes_one_line_per_run(tmp_path):
    out = tmp_path / "sim.jsonl"
    main = runpy.run_path(os.path.join(TOOLS, "sim_identity.py"))["main"]
    assert main([str(out), "--seeds", "1", "--per-seed", "2"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    floats = [json.loads(line) for line in (tmp_path / "sim.floats.jsonl").read_text().splitlines()]
    decoders = ("run_successive_if_trials", "run_lr_aided_sic_trials")
    configs = 2 + 8  # the uniform configs, then those whose last chunk is one trial
    runs = [(i, d, s) for i in range(configs) for d in decoders for s in (0.0, 0.5, 1.0)]
    assert [(x["i"], x["decoder"], x["noise_scale"]) for x in lines] == runs
    assert [x["trials"] for x in lines[2 * 6::6]] == [1] * 4 + [CHUNK_TRIALS + 1] * 4
    keys = ("seed", "i", "decoder", "noise_scale")
    assert [[f[k] for k in keys] for f in floats] == [[x[k] for k in keys] for x in lines]
    for line, f in zip(lines, floats):
        assert "error" not in line
        assert len(line["symbol_errors"]) == len(line["equation_errors"]) == line["m"]
        assert all(isinstance(v, int) and 0 <= v <= line["trials"] for v in line["symbol_errors"])
        assert len(line["equation_decisions"]) == len(line["stream_decisions"]) == 64
        assert np.shape(f["Ktilde"]) == (line["m"], line["m"])


def test_cli_identity_runs_each_distinct_call_once(tmp_path, capsys):
    main = runpy.run_path(os.path.join(TOOLS, "cli_identity.py"))["main"]
    assert main([str(tmp_path), "--workloads", "region_scan"]) == 0
    assert capsys.readouterr().out == "region_scan: 25 calls, 0 with a problem\n"
    calls = (tmp_path / "region_scan" / "calls.txt").read_text().splitlines()
    names = [line.split()[0] for line in calls]
    assert len(set(names)) == len(names) == 25 and names[0] == "golden_example1"
    assert all(line.split()[1:] == ["0", "''"] for line in calls)
    outputs = sorted(os.listdir(tmp_path / "region_scan" / "out"))
    assert outputs == sorted(f"{name}.{ext}" for name in names for ext in ("json", "csv"))
