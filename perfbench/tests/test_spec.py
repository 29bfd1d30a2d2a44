import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_spec(spec: dict) -> list:
    """Problems with a BENCHMARK.json document; empty when it is valid."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return problems
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        problems.append("command must be a list of 1 to 32 strings")
    else:
        for part in cmd:
            if not isinstance(part, str) or len(part) > 200 or part.startswith("/") or ".." in part:
                problems.append(f"bad command part {part!r}")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1 to 16 directories")
    else:
        for p in paths:
            if not (isinstance(p, str) and PATH_RE.match(p)) or ".." in p or p.startswith("/"):
                problems.append(f"bad path {p!r}")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    seen = set()

    def check_name(name):
        if not (isinstance(name, str) and NAME_RE.match(name)):
            problems.append(f"bad name {name!r}")
        elif name in seen:
            problems.append(f"name {name!r} used twice")
        seen.add(name)

    wls = spec["workloads"]
    if not (isinstance(wls, list) and 2 <= len(wls) <= 8):
        problems.append("workloads must hold 2 to 8 entries")
        wls = []
    for w in wls:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
            continue
        check_name(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            problems.append(f"bad why for {w['name']!r}")

    for section, lo, hi, bounded in (("end_to_end", 1, 16, True), ("per_layer", 1, 128, False)):
        metrics = spec[section]
        if not (isinstance(metrics, list) and lo <= len(metrics) <= hi):
            problems.append(f"{section} must hold {lo} to {hi} metrics")
            continue
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in metrics:
            if set(m) != want:
                problems.append(f"{section} metric keys {sorted(m)} != {sorted(want)}")
                continue
            check_name(m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                problems.append(f"bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                problems.append(f"bad better {m['better']!r}")
            if bounded:
                b = m["bound"]
                if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
                    problems.append(f"bound of {m['name']!r} must lie in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, better lower")
    elif any(m.get("bound", 0) > setup[0]["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems


def test_benchmark_json_follows_the_contract():
    assert validate_spec(SPEC) == []


def test_emitted_metrics_are_the_declared_ones():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    emitted = tracing.LAYER_METRICS + (tracing.OVERHEAD_METRIC,)
    assert [m["name"] for m in SPEC["per_layer"]] == list(emitted)
    for m in SPEC["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "name", ["", "_lead", "-lead", "has space", "x" * 65, "café", "a/b", 7]
)
def test_invalid_metric_names_are_rejected(name):
    spec = copy.deepcopy(SPEC)
    spec["per_layer"][0]["name"] = name
    assert validate_spec(spec)


def test_duplicate_names_units_and_bounds_are_rejected():
    spec = copy.deepcopy(SPEC)
    spec["per_layer"][1]["name"] = spec["per_layer"][0]["name"]
    assert any("twice" in p for p in validate_spec(spec))
    spec = copy.deepcopy(SPEC)
    spec["per_layer"][0]["unit"] = "micro seconds"
    assert validate_spec(spec)
    spec = copy.deepcopy(SPEC)
    spec["end_to_end"][1]["bound"] = 0.3
    assert validate_spec(spec)
    spec = copy.deepcopy(SPEC)
    spec["end_to_end"][1]["bound"] = 0.25
    spec["end_to_end"][0]["bound"] = 0.2
    assert any("largest" in p for p in validate_spec(spec))


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-feddc-full",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
