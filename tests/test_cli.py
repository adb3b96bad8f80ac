import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from cantordyn import cli, gen, synth
from cantordyn.cli import COMMANDS, build_parser, main
from cantordyn.docformat import parse
from cantordyn.space import DYADIC, Clopen

from conftest import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWAP_DOC = "homeo tree-pair dyadic {0->1, 1->0}"
DISS_DOC = "homeo tree-pair dyadic {0->00, 10->01, 11->1}"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "id", "swap")
    assert code == 0 and out == "2\n"
    code, out, _ = run(capsys, "dist", "swap", SWAP_DOC)
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, "dist", "odometer:dyadic", "odometer:dyadic:1")
    assert code == 0 and out == "0\n"
    for k in ("-1", "3"):
        code, out, _ = run(
            capsys, "dist", f"odometer:dyadic:{k}", f"homeo odometer dyadic {k}"
        )
        assert code == 0 and out == "0\n"


def test_dist_from_file(capsys, tmp_path):
    f = tmp_path / "swap.cdyn"
    f.write_text("cdyn 1\n" + SWAP_DOC + "\n")
    code, out, _ = run(capsys, "dist", "id", str(f))
    assert code == 0 and out == "2\n"


def test_member_exit_codes(capsys):
    n = "neighborhood weak 5/2 (tree-pair dyadic {e->e})"
    code, out, _ = run(capsys, "member", "swap", n)
    assert code == 0 and "member true" in out
    n = "neighborhood weak 1/2 (tree-pair dyadic {e->e})"
    code, out, _ = run(capsys, "member", "swap", n)
    assert code == 2 and "member false" in out
    # the ball is open: a radius equal to the distance excludes the map
    n = "neighborhood weak 2 (tree-pair dyadic {e->e})"
    code, out, _ = run(capsys, "member", "swap", n)
    assert code == 2 and "lower 2, member false, upper 2" in out


SWAP_BASE = "(tree-pair dyadic {0->1, 1->0})"
ID_BASE = "(tree-pair dyadic {e->e})"


@pytest.mark.parametrize(
    "topology,code,entries",
    [
        (f"p {ID_BASE} [{{0}}]", 2, "member false, mismatch_0 {0}"),
        (f"p {SWAP_BASE} [{{0}}, {{1}}]", 0, "member true"),
        (
            f"uniform 1/2 {ID_BASE} [(dirac (0)), (uniform)]",
            2,
            "mass_0 1, mass_1 1, member false",
        ),
        (
            f"uniform 1/2 {SWAP_BASE} [(dirac (0)), (uniform)]",
            0,
            "mass_0 0, mass_1 0, member true",
        ),
        (f"barp 1/2 {ID_BASE} [{{0}}] [(uniform)]", 2, "max_defect 2, member false"),
        (f"barp 1/2 {SWAP_BASE} [{{0}}] [(uniform)]", 0, "max_defect 0, member true"),
    ],
)
def test_member_of_set_and_measure_neighborhoods(capsys, topology, code, entries):
    got, out, _ = run(capsys, "member", "swap", f"neighborhood {topology}")
    assert got == code
    assert out == f"cdyn 1\ncertificate dyadic membership {{{entries}}}\n"


@pytest.mark.parametrize("kind,value", [("tau-prime", "1"), ("bar-tau", "0")])
def test_defect(capsys, kind, value):
    code, out, _ = run(
        capsys,
        "defect", "swap", "id",
        "--measure", "uniform",
        "--partition", "{0},{1}",
        "--kind", kind,
    )
    assert code == 0 and out == value + "\n"


BASE3 = "odometer:base(;3)"


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "odometer:dyadic", BASE3],
        ["dist", "swap", BASE3],
        ["diff", "odometer:dyadic", BASE3],
        ["fullgroup", "odometer:dyadic", BASE3],
        ["member", BASE3, "neighborhood weak 1 (odometer dyadic 1)"],
        ["member", BASE3, "neighborhood p (odometer dyadic 1) [{0}]"],
        ["defect", BASE3, "swap", "--measure", "uniform", "--partition", "{0},{1},{2}"],
        ["defect", "swap", BASE3, "--measure", "uniform", "--partition", "{0},{1}",
         "--kind", "bar-tau"],
        ["centralizer", "odometer:dyadic", BASE3],
    ],
)
def test_maps_over_different_signatures_are_refused(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: signature mismatch\n")


ROKHLIN = ["rokhlin", "--target", "odometer:dyadic", "--n", "2", "--measure", "uniform"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["defect", "swap", "id", "--measure", "uniform", "--partition", "{0},{0}"],
         "input sets do not partition the space"),
        (["centralizer", "odometer:dyadic", "swap"],
         "centralizer test needs an odometer as second argument"),
        (["measure", "uniform", "{0}"], "the set argument must be a clopen document"),
        (["dist", "odometer:dyadicx", "swap"], "trailing input after signature"),
        (["measure", "uniform x", "clopen dyadic {0}"], "trailing input after measure"),
        (["defect", "swap", "id", "--measure", "uniform", "--partition", "{0},{1} x"],
         "trailing input after partition"),
        (["centralizer", "odometer:dyadic", "odometer:dyadic", "--depth", "-1"],
         "--depth must not be negative, got -1"),
        (["tabulate", "swap", "--depth", "-1"], "--depth must not be negative, got -1"),
        (["fullgroup", "swap", "odometer:dyadic", "--bound", "-1"],
         "bound must not be negative, got -1"),
        # the alias shift is an ASCII integer, as in a document
        (["dist", "swap", "odometer:dyadic:1_0"], "trailing input after odometer shift"),
        (["dist", "swap", "odometer:dyadic:\u0663"], "expected an integer"),
        (["dist", "swap", "odometer:dyadic:"], "expected an integer"),
        (["dist", "swap", "odometer:dyadic:x"], "expected an integer"),
        (["dist", "swap", "odometer:dyadic:+3"],
         "not canonical: integer-form +3 (printed 3)"),
        # --epsilon is a rational as a document prints it
        (ROKHLIN + ["--epsilon", "0.25"], "trailing input after --epsilon"),
        (ROKHLIN + ["--epsilon", "2.5e-1"], "trailing input after --epsilon"),
        (ROKHLIN + ["--epsilon", "1_0/30"], "trailing input after --epsilon"),
        (ROKHLIN + ["--epsilon", "\u0663/4"], "expected an integer"),
        (ROKHLIN + ["--epsilon", "2/4"],
         "not canonical: rational-form 2/4 (printed 1/2)"),
        (ROKHLIN + ["--epsilon", "+1/4"],
         "not canonical: rational-form +1/4 (printed 1/4)"),
        # the identity is no odometer, whichever alias names it
        (["centralizer", "odometer:dyadic", "id"],
         "centralizer test needs an odometer as second argument"),
        (["centralizer", "id", "odometer:dyadic:0"],
         "centralizer test needs an odometer as second argument"),
    ],
)
def test_bad_arguments_are_refused_by_name(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {reason}")


def test_identity_alias_takes_a_signature(capsys):
    code, out, _ = run(capsys, "compose", "id:base(;3)")
    assert code == 0 and out == "cdyn 1\nhomeo tree-pair base(;3) {e->e}\n"


def test_compose_and_tabulate(capsys):
    code, out, _ = run(capsys, "compose", "swap", "swap")
    assert code == 0
    assert "tree-pair dyadic {e->e}" in out
    # a composition equal to x + k prints as the odometer
    code, out, _ = run(capsys, "compose", "odometer:dyadic", "odometer:dyadic")
    assert (code, out) == (0, "cdyn 1\nhomeo odometer dyadic 2\n")
    code, out, _ = run(capsys, "compose", "odometer:dyadic", "odometer:dyadic:-1")
    assert (code, out) == (0, "cdyn 1\nhomeo tree-pair dyadic {e->e}\n")
    code, out, _ = run(capsys, "compose", "odometer:dyadic:0")
    assert (code, out) == (0, "cdyn 1\nhomeo tree-pair dyadic {e->e}\n")
    code, out, _ = run(capsys, "tabulate", "odometer:dyadic", "--depth", "2")
    assert code == 0
    assert "00 -> 10" in out and "11 -> 00+1" in out


def test_diff_and_periods(capsys):
    code, out, _ = run(capsys, "diff", "id", "swap")
    assert code == 0 and "certificate dyadic difference {core {e}}" in out
    code, out, _ = run(capsys, "periods", "swap", "--bound", "4")
    assert code == 0
    assert "aperiodic false" in out and "period_2 {e}" in out
    code, out, _ = run(capsys, "periods", "odometer:dyadic")
    assert code == 0 and "aperiodic true" in out


def test_periods_of_a_map_that_is_not_synchronous(capsys):
    # the cells follow the branches, not the 2^129 words of depth 129
    code, out, _ = run(capsys, "periods", DISS_DOC, "--bound", "128")
    assert code == 0
    assert "aperiodic false, isolated_1_0 point (0), isolated_1_1 point (1)" in out
    assert "period_128 {}" in out and "residual {e}" in out


def test_fullgroup(capsys):
    code, out, _ = run(capsys, "fullgroup", "swap", "odometer:dyadic")
    assert code == 0
    assert "power_-1 {1}" in out and "power_1 {0}" in out
    code, out, _ = run(capsys, "fullgroup", DISS_DOC, "odometer:dyadic")
    assert code == 2 and "refusal" in out
    code, out, _ = run(capsys, "fullgroup", "id", "id", "--bound", "0")
    assert (code, out) == (0, "cdyn 1\ncertificate dyadic fullgroup {power_0 {e}}\n")


def test_centralizer(capsys):
    code, out, _ = run(
        capsys, "centralizer", "odometer:dyadic:3", "odometer:dyadic"
    )
    assert code == 0 and "ok true" in out
    code, out, _ = run(capsys, "centralizer", "swap", "odometer:dyadic")
    assert code == 2 and "failure_level" in out


def test_synth_odometer_and_witness(capsys):
    code, out, _ = run(
        capsys,
        "synth", "odometer",
        "--target", "odometer:dyadic",
        "--partition", "{0},{1}",
    )
    assert code == 0
    assert "homeo" in out and "set_images_match true" in out
    code, out, _ = run(
        capsys,
        "synth", "odometer",
        "--target", DISS_DOC,
        "--partition", "{0},{1}",
    )
    assert code == 2
    assert "witness {forward-closed true, set {0}}" in out


def test_synth_fundamental_and_aperiodize(capsys):
    code, out, _ = run(
        capsys, "synth", "fundamental", "--target", "swap", "--period", "2"
    )
    assert code == 0 and "clopen dyadic {0}" in out
    code, out, _ = run(
        capsys,
        "synth", "aperiodize",
        "--target", "swap",
        "--epsilon", "2",
        "--period", "2",
    )
    assert code == 0 and "synth-aperiodize" in out


def test_synth_rank1(capsys):
    code, out, _ = run(
        capsys,
        "synth", "rank1",
        "--target", "odometer:dyadic",
        "--measure", "uniform",
        "--epsilon", "1/2",
    )
    assert code == 0 and "mass_0 0" in out
    # the odometer is its own rank-1 approximant, printed as an odometer
    code, out, _ = run(
        capsys,
        "synth", "rank1",
        "--target", "odometer:dyadic",
        "--measure", "uniform",
        "--epsilon", "1/100000",
    )
    assert code == 0 and out.startswith("cdyn 1\nhomeo odometer dyadic 1\n")


def test_rokhlin(capsys):
    code, out, _ = run(
        capsys,
        "rokhlin",
        "--target", "odometer:dyadic",
        "--n", "2",
        "--measure", "uniform",
        "--epsilon", "1/4",
    )
    assert code == 0
    assert "castle dyadic towers[({0}, 2)] base {0} bound [1]" in out
    assert "bound 1 > 3/4" in out


def test_graph_dot(capsys):
    code, out, _ = run(
        capsys,
        "graph-dot",
        "--target", "odometer:dyadic",
        "--partition", "{0},{1}",
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "v0 -> v1" in out and "v1 -> v0" in out


def test_measure_command(capsys):
    code, out, _ = run(capsys, "measure", "uniform", "clopen dyadic {01}")
    assert code == 0 and out == "1/4\n"
    code, out, _ = run(
        capsys, "measure", "dirac (0)", "clopen dyadic {01}"
    )
    assert code == 0 and out == "0\n"


def test_gen_is_seeded_and_canonical(capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "5", "--count", "10")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--seed", "5", "--count", "10")
    assert out1 == out2
    code, out3, _ = run(capsys, "gen", "--seed", "6", "--count", "10")
    assert out1 != out3
    # every generated document parses back
    lines = [ln for ln in out1.splitlines() if ln and ln != "cdyn 1"]
    for ln in lines:
        parse(ln)


def test_gen_of_nothing_prints_nothing(capsys):
    code, out, err = run(capsys, "gen", "--count", "0")
    assert (code, out, err) == (0, "", "")
    code, out, _ = run(capsys, "gen", "--count", "0", "--format", "json")
    assert code == 0 and json.loads(out) == []


def test_json_format(capsys):
    code, out, _ = run(capsys, "dist", "id", "swap", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"value": "2"}]
    code, out, _ = run(
        capsys, "compose", "swap", "swap", "--format", "json"
    )
    payload = json.loads(out)
    assert payload[0]["kind"] == "homeo"
    assert payload[0]["homeo"] == "tree-pair dyadic {e->e}"


def test_errors_exit_one(capsys):
    code, out, err = run(capsys, "dist", "id", "nonsense input")
    assert code == 1 and out == "" and "error:" in err
    code, out, err = run(capsys, "member", "swap", "clopen dyadic {0}")
    assert code == 1 and "expected a neighborhood" in err
    code, _, err = run(capsys, "rokhlin", "--target", "swap", "--n", "2",
                       "--measure", "uniform", "--epsilon", "1/4")
    assert code == 1 and "period" in err


def test_periodic_refusal_stops_at_the_least_period(capsys):
    """A map with a fixed point is refused after its first power, however
    large --n is."""
    t0 = time.monotonic()
    code, out, err = run(capsys, "rokhlin", "--target", DISS_DOC, "--n", "1000",
                         "--measure", "uniform", "--epsilon", "1/2")
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert err == "error: periodic point of period 1 found: Point[(0)]\n"


def test_zero_denominator_exits_one_without_traceback():
    doc = "cdyn 1\nneighborhood weak 1/0 (tree-pair dyadic {0->1, 1->0})\n"
    r = subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", "member", "swap", doc],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert r.returncode == 1 and r.stdout == ""
    assert "error: zero-denominator" in r.stderr
    assert "Traceback" not in r.stderr


def test_golden_output(capsys):
    """Every fixture of perfbench/golden_cli.json prints the recorded stdout
    bytes and exits with the recorded code."""
    with open(os.path.join(ROOT, "perfbench", "golden_cli.json"), encoding="utf-8") as f:
        golden = json.load(f)
    for g in golden:
        code, out, _ = run(capsys, *g["argv"])
        assert (out, code) == (g["stdout"], g["code"]), g["argv"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (ROKHLIN + ["--epsilon", "1/0"], "zero-denominator: rational 1/0"),
        (ROKHLIN + ["--epsilon", "0"], "epsilon must be positive"),
        (["synth", "aperiodize", "--target", "swap", "--epsilon", "0"],
         "epsilon must be positive"),
        (["synth", "rank1", "--target", "odometer:dyadic", "--measure", "uniform",
          "--epsilon", "0"], "epsilon must be positive"),
        (["synth", "fundamental", "--target", "swap"], "synth fundamental needs --period"),
        (["synth", "fundamental", "--target", "swap", "--period", "0"],
         "period must be positive"),
        (["synth", "odometer", "--target", "odometer:dyadic"],
         "synth odometer needs --partition"),
    ],
)
def test_bad_synth_input_exits_one_without_traceback(argv, reason):
    r = subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=20,
    )
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith(f"error: {reason}")
    assert "Traceback" not in r.stderr


def test_aperiodize_refuses_a_split_past_its_cell_cap():
    """The cells of diameter below epsilon / 2 under the swap's fundamental
    domain number 2^20 here; the split stops at 2^16."""
    t0 = time.monotonic()
    r = subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", "synth", "aperiodize",
         "--target", "swap", "--epsilon", "1/1000000"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert time.monotonic() - t0 < 5
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: aperiodization needs more than {1 << 16} cells\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (ROKHLIN[:3] + ["--n", "0", "--measure", "uniform", "--epsilon", "1/4"],
         "n must be positive, got 0"),
        (["periods", "swap", "--bound", "0"], "bound must be positive, got 0"),
        (["gen", "--count", "-1"], "--count must not be negative, got -1"),
        (["tabulate", "odometer:dyadic", "--depth", "40"],
         "--depth 40 gives more than 65536 cylinders"),
    ],
)
def test_bad_bound_exits_one_without_traceback(argv, reason):
    """A height, power bound or count below its least value is refused
    before any work, with nothing on stdout."""
    r = subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", *argv],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=20,
    )
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == f"error: {reason}\n"


def test_imports_load_only_what_they_use():
    code = (
        "import sys, cantordyn\n"
        "print([m for m in sys.modules if m.startswith('cantordyn.')])\n"
        "import cantordyn.cli\n"
        "print('cantordyn.synth' in sys.modules)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "import cantordyn.synth\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=20,
    )
    assert r.stdout == "[]\nFalse\nFalse False\nFalse False\n", r.stderr


# What each command adds to the modules loaded before it, in one process,
# from a fresh interpreter: (argv, modules it must add, modules it must not).
BASE = {"cli", "docformat", "homeo", "space"}
LOADS = [
    (["dist", "id", "swap"], BASE, {"measure", "topology", "gen", "synth", "json"}),
    (["member", "swap", "neighborhood weak 1 (tree-pair dyadic {0->1, 1->0})"],
     {"topology", "measure"}, {"gen", "synth", "json"}),
    (["rokhlin", "--target", "odometer:dyadic", "--n", "2", "--measure", "uniform",
      "--epsilon", "1/2"], {"synth"}, {"gen", "json"}),
    (["gen", "--count", "1"], {"gen"}, {"json"}),
]


def test_each_command_loads_only_the_modules_it_runs():
    """A module imported at the top of cli or docformat would load for every
    command; these calls, in order, show each optional module arriving with
    the first command that runs it."""
    code = (
        "import ast, io, sys\n"
        "from contextlib import redirect_stdout\n"
        "def loaded():\n"
        "    return {m.removeprefix('cantordyn.') for m in sys.modules\n"
        "            if m.startswith('cantordyn.') or m == 'json'}\n"
        "before = loaded()\n"
        "from cantordyn.cli import main\n"
        "for argv in ast.literal_eval(sys.argv[1]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    now = loaded()\n"
        "    print(sorted(now - before))\n"
        "    before = now\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, repr([argv for argv, _, _ in LOADS])],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=20,
    )
    assert r.returncode == 0, r.stderr
    added = [set(ast.literal_eval(line)) for line in r.stdout.splitlines()]
    assert len(added) == len(LOADS)
    assert added[0] == BASE
    for (argv, must, must_not), new in zip(LOADS, added):
        assert must <= new and not must_not & new, (argv, new)


# Each capped command at its cap and one above.  At the cap the command's work
# is a stub that records its argument; above it the command refuses before any
# work, so no capped command runs here.
CAPPED = [
    (["tabulate", "odometer:dyadic"], "--depth", 16, 17, "cylinders"),
    (["tabulate", "odometer:base(;3)"], "--depth", 10, 11, "cylinders"),
    (["centralizer", "odometer:dyadic:3", "odometer:dyadic"], "--depth", 15, 16,
     "cylinders"),
    (["periods", "swap"], "--bound", cli.BOUND_CAP, cli.BOUND_CAP + 1, "cap"),
    (["fullgroup", "swap", "odometer:dyadic"], "--bound", cli.BOUND_CAP,
     cli.BOUND_CAP + 1, "cap"),
    (["gen"], "--count", cli.COUNT_CAP, cli.COUNT_CAP + 1, "cap"),
    (["rokhlin", "--target", "odometer:dyadic", "--measure", "uniform", "--epsilon",
      "1/2"], "--n", cli.BOUND_CAP, cli.BOUND_CAP + 1, "cap"),
]


def _stub_work(monkeypatch):
    seen = []

    def table(self, depth):
        seen.append(depth)
        return []

    def centralizer(R, S, depth):
        seen.append(depth)
        return {"ok": True, "indices": (), "moduli": ()}

    def periods(T, bound):
        seen.append(bound)
        return {"aperiodic_up_to_bound": False, "exact_period_parts": {},
                "isolated_periodic_points": {}, "residual": Clopen.empty(DYADIC)}

    def fullgroup(S, T, bound):
        seen.append(bound)
        return {}, None

    def castle(T, n, measures, epsilon):
        seen.append(n)
        full = Clopen.full(DYADIC)
        return synth.Castle(towers=[(full, n, [full] * n)], base=full, bound=[1])

    doc = parse("cdyn 1\nclopen dyadic {0}\n")

    def document(rng, kind):
        seen.append(1)
        return doc

    monkeypatch.setattr(cli.PrefixMap, "table", table)
    monkeypatch.setattr(cli, "centralizer_index_sequence", centralizer)
    monkeypatch.setattr(cli, "period_structure", periods)
    monkeypatch.setattr(cli, "full_group_membership", fullgroup)
    monkeypatch.setattr(gen, "random_document", document)
    monkeypatch.setattr(synth, "rokhlin_castle", castle)
    return seen


@pytest.mark.parametrize("argv, option, cap, above, word", CAPPED)
def test_caps_admit_their_value_and_refuse_above(
    capsys, monkeypatch, argv, option, cap, above, word
):
    seen = _stub_work(monkeypatch)
    code, _, err = run(capsys, *argv, option, str(cap))
    assert (code, err) == (0, "")
    assert seen == ([1] * cap if argv == ["gen"] else [cap])
    del seen[:]
    code, out, err = run(capsys, *argv, option, str(above))
    assert (code, out, seen) == (1, "", [])
    assert err.startswith(f"error: {option} {above} ") and word in err


def _child(argv, stdout, unbuffered):
    """A `python -m cantordyn.cli` child, with PYTHONUNBUFFERED set or not."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "cantordyn.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_is_a_named_error(unbuffered):
    """A reader of stdout that has gone ends the call with `error: ...` and
    exit code 1, whether the write or the final flush finds it gone."""
    r, w = os.pipe()
    os.close(r)
    try:
        p = _child(["gen", "--count", "5"], w, unbuffered)
    finally:
        os.close(w)
    assert p.returncode == 1
    assert p.stderr == b"error: [Errno 32] Broken pipe\n"


def test_fast_exit_loses_no_output(capsys):
    """run() ends the process without the interpreter's final flush, so a
    buffered stdout must be flushed before: every byte that main writes in
    process arrives, and the exit code is main's."""
    argv = ["gen", "--count", "2000"]
    code, out, _ = run(capsys, *argv)
    p = _child(argv, subprocess.PIPE, unbuffered=False)
    assert (p.returncode, p.stdout, p.stderr) == (code, out.encode(), b"")
    assert len(p.stdout) > 1 << 16  # more than one pipe buffer
    with open(os.path.join(ROOT, "perfbench", "golden_cli.json"), encoding="utf-8") as f:
        witness = next(g for g in json.load(f) if DISS_DOC in g["argv"])
    p = _child(witness["argv"], subprocess.PIPE, unbuffered=False)
    assert (p.returncode, p.stdout.decode()) == (2, witness["stdout"])


# a shortest argv that each command's parser accepts
PARSED = {
    "dist": ["a", "b"],
    "member": ["a", "b"],
    "defect": ["a", "b", "--measure", "m", "--partition", "p"],
    "compose": ["a"],
    "tabulate": ["a"],
    "diff": ["a", "b"],
    "periods": ["a"],
    "fullgroup": ["a", "b"],
    "centralizer": ["a", "b"],
    "synth": ["rank1", "--target", "t"],
    "rokhlin": ["--target", "t", "--n", "1", "--measure", "m", "--epsilon", "e"],
    "graph-dot": ["--target", "t", "--partition", "p"],
    "measure": ["m", "s"],
    "gen": [],
}


def _commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def _parse(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return out.getvalue(), err.getvalue(), result


@pytest.mark.parametrize("command", list(PARSED))
def test_one_command_parser_matches_the_full_tree(monkeypatch, command):
    """main builds only the parser of the command it runs; its help, its
    usage errors (a missing argument, an unrecognized one, which the
    top-level parser reports with its usage line) and its parse are those of
    the parser of every command."""
    assert list(PARSED) == list(COMMANDS)
    monkeypatch.setenv("COLUMNS", "80")
    built = []

    def spy(*args):
        built.append(build_parser(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        main([command, *PARSED[command], "--bogus"])
    assert [_commands(p) for p in built] == [[command]]
    one, full = build_parser(command), build_parser()
    assert _commands(one) == [command] and _commands(full) == list(COMMANDS)
    for argv in (
        [command, "--help"],
        [command] if PARSED[command] else [command, "extra"],
        [command, *PARSED[command], "--bogus"],
        [command, *PARSED[command]],
    ):
        assert _parse(one, argv) == _parse(full, argv), argv
