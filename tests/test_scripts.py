"""Smoke runs of the scripts under scripts/, from a directory outside the
checkout, and a check that the benchmark's tracer still finds its entry
points."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["castle_scaling.py", "--max-n", "2"],
        ["synthesis_survey.py", "--trials", "5"],
    ],
)
def test_script_runs(argv, tmp_path):
    script, *rest = argv
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *rest],
        cwd=tmp_path,
        capture_output=True,
        env=subprocess_env(),
        timeout=120,
    )
    assert r.returncode == 0, r.stderr.decode()
    assert r.stdout


def test_perfbench_trace_entry_points_resolve():
    """perfbench/run.py --trace 1 wraps these names with owner.__dict__[attr]
    and fails with KeyError when a library rename removes one."""
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.EXPLICIT.items():
        mod = importlib.import_module(f"cantordyn.{layer}")
        for qual in names:
            owner, attr = mod, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
            assert attr in owner.__dict__, f"{layer}.{qual}"


def test_perfbench_workloads_build_and_pass_their_checks(monkeypatch):
    """perfbench/workloads.py builds its maps with Odometer(sig, k) and
    as_prefix_map, labels castles with T.shift and calls homeo.compose and
    homeo.inverse; the first ops of two of its workloads run and pass their
    oracle checks.  Nothing is written."""
    bench = os.path.join(ROOT, "perfbench")
    monkeypatch.syspath_prepend(bench)
    # held in sys.modules only for the test, as the module loaded below
    monkeypatch.setitem(sys.modules, "oracle", importlib.import_module("oracle"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(bench, "workloads.py")
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for w in (workloads.castle(0), workloads.algebra(0, triples=20)):
        for op in w.ops[:5]:
            assert op.check(op.fn()), op.label
