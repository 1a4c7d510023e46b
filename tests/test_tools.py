"""Smoke tests of tools/identity.py on a few cases."""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from ifwb.simulate import CHUNK_TRIALS

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "identity.py")


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module; its load() runs on the src/ under test, and what it
    changes of sys is undone after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def small(tool, monkeypatch):
    """The tool with one CLI seed, the first block of each workload's pool and
    one case per lattice set and simulator seed: the calls and cases are the
    first ones of a full run."""
    lib, workloads = tool.load(os.path.join(os.path.dirname(TOOL), "..", "src"))
    monkeypatch.setattr(tool, "CLI_SEEDS", (7,))
    monkeypatch.setattr(tool, "LATTICE_SEEDS", 1)
    monkeypatch.setattr(tool, "LATTICE_PER_SEED", 1)
    monkeypatch.setattr(tool, "SIM_SEEDS", 1)
    monkeypatch.setattr(tool, "SIM_PER_SEED", 1)
    monkeypatch.setattr(workloads, "POOL_BLOCKS", dict.fromkeys(workloads.WORKLOADS, 1))
    return tool, lib, workloads


def test_lattice_set_writes_one_line_per_case(tool):
    lib, _ = tool.load(os.path.join(os.path.dirname(TOOL), "..", "src"))
    lines, floats = zip(*tool.lattice_set(lib, 1, 3))
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


def test_sim_set_writes_one_line_per_run(tool):
    lib, _ = tool.load(os.path.join(os.path.dirname(TOOL), "..", "src"))
    lines, floats = zip(*tool.sim_set(lib, 1, 2))
    decoders = ("run_successive_if_trials", "run_lr_aided_sic_trials")
    configs = 2 + tool.LAST_CHUNK_CONFIGS  # the uniform configs, then those whose last chunk is one trial
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


def test_main_writes_every_set(small, tmp_path, capsys):
    tool, lib, workloads = small
    assert tool.main([str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [f"cli/7/{w}" for w in workloads.WORKLOADS]
    assert all(line.endswith(" calls, 0 with a problem") for line in printed)
    calls = (tmp_path / "cli" / "7" / "region_scan" / "calls.txt").read_text().splitlines()
    names = [line.split()[0] for line in calls]
    assert len(set(names)) == len(names) and names[0] == "golden_example1"
    assert printed[1] == f"cli/7/region_scan: {len(names)} calls, 0 with a problem"
    assert all(line.split()[1:] == ["0", "''"] for line in calls)
    outputs = sorted(os.listdir(tmp_path / "cli" / "7" / "region_scan" / "out"))
    assert outputs == sorted(f"{name}.{ext}" for name in names for ext in ("json", "csv"))
    for name, pairs in (("lattice", tool.lattice_set(lib, 1, 1)), ("sim", tool.sim_set(lib, 1, 1))):
        lines, floats = zip(*pairs)
        for suffix, want in ((".jsonl", lines), (".floats.jsonl", floats)):
            text = (tmp_path / (name + suffix)).read_text()
            assert text == "".join(json.dumps(x) + "\n" for x in want)


def test_main_exits_1_when_a_call_has_a_problem(small, tmp_path, capsys, monkeypatch):
    tool, _, workloads = small
    monkeypatch.setattr(workloads, "check", lambda op, *_: ["flagged"] if op.kind == "region" else [])
    assert tool.main([str(tmp_path)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith(" calls, 0 with a problem")
    calls = (tmp_path / "cli" / "7" / "region_scan" / "calls.txt").read_text().splitlines()
    assert printed[1] == f"cli/7/region_scan: {len(calls)} calls, {len(calls)} with a problem"
    assert printed[2:2 + len(calls)] == [f"  {line.split()[0]}: flagged" for line in calls]
