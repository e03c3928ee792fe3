"""End-to-end command line behavior, run in process."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import kmcrystals
from kmcrystals import cli, demazure
from kmcrystals.crystals import ExtremalityVerdict
from kmcrystals.demazure import EquivalenceViolation
from kmcrystals.paths import PLPath
from kmcrystals.rootdata import preset


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _schema(name):
    text = resources.files("kmcrystals").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def test_decompose_table(capsys):
    code, out, err = run(capsys, "decompose", "--preset", "A2",
                         "--lambda", "ω1+ω2", "--mu", "ω1+ω2",
                         "--v", "1", "--w", "1,2")
    assert code == 0 and not err
    assert "criterion holds" in out
    assert "components" in out and "partition ok" in out
    assert "v = s1" in out


def test_decompose_table_nu_above_lambda(capsys):
    # ν = (1,1,1) = λ+α1+α2+α3 lies above λ = ω2, but every ν lies below the
    # product's top weight λ+μ, from which the finite-mode column measures
    code, out, _ = run(capsys, "decompose", "--preset", "A3", "--lambda", "ω2",
                       "--v", "2", "--w", "2,1,3,2", "--mu", "1,0,1")
    assert code == 0
    assert "ν from λ+μ" in out
    rows = {line.split()[2]: line.split()[3] for line in out.splitlines()
            if line.startswith("   ") and line.split()[0].isdigit()}
    assert rows == {"(1,1,1)": "λ+μ", "(0,0,2)": "λ+μ-α1-α2",
                    "(2,0,0)": "λ+μ-α2-α3", "(0,1,0)": "λ+μ-α1-α2-α3"}
    assert "--" not in out


def test_decompose_json_schema_and_determinism(capsys):
    argv = ("decompose", "--preset", "A2", "--lambda", "1,1", "--mu", "1,1",
            "--v", "1,2,1", "--w", "1,2,1", "--format", "json", "--seed", "7")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out1)
    jsonschema.validate(payload, _schema("decomposition.schema.json"))
    assert payload["meta"] == {"seed": 7}
    assert payload["checks"]["partition_ok"] is True
    assert len(payload["components"]) == 6
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_decompose_infinity_json(capsys):
    code, out, _ = run(capsys, "decompose", "--preset", "A2",
                       "--lambda", "ω1", "--mu", "",  # mu ignored in ∞ mode
                       "--v", "2", "--w", "2",
                       "--mode", "infinity", "--depth", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("decomposition.schema.json"))
    assert payload["config"]["mode"] == "infinity"
    assert payload["config"]["mu"] is None


def test_check_single_and_sweep(capsys):
    code, out, _ = run(capsys, "check", "--preset", "A2",
                       "--lambda", "1,1", "--mu", "1,1", "--v", "1", "--w", "2")
    assert code == 0
    assert "criterion=F" in out and "agree=T" in out
    code, out, _ = run(capsys, "check", "--preset", "A2",
                       "--lambda", "1,0", "--mu", "1,0", "--all-vw",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["pairs"] == 36
    assert payload["summary"]["agree"] == 36
    assert payload["summary"]["inconclusive"] == 0
    schema = _schema("equivalence.schema.json")
    for row in payload["records"]:
        jsonschema.validate(row, schema)


def test_check_infinity_depth_zero_is_inconclusive(capsys):
    # a depth-0 window holds only the top of each product, so extremality is
    # left open instead of read off the strings through the top alone
    code, out, _ = run(capsys, "check", "--preset", "A2", "--lambda", "ω1",
                       "--all-vw", "--mode", "infinity", "--depth", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["pairs"] == payload["summary"]["agree"] == 36
    for row in payload["records"]:
        assert row["agree"] is True
        if row["extremal"] == "inconclusive" and row["decomposable"] != "no":
            assert "window 0" in row["witness"]
    # the case that disagreed at depth 0 keeps its deeper records
    want = {"agree": True, "components": 2, "criterion": False, "decomposable": "no",
            "extremal": "violated", "letters": [2], "v_word": [1], "w_word": [2, 1],
            "witness": "component of (1,0) is not a Demazure set"}
    for depth in ("0", "1", "2", "3"):
        code, out, _ = run(capsys, "check", "--preset", "A2", "--lambda", "ω1",
                           "--v", "1", "--w", "2,1", "--mode", "infinity",
                           "--depth", depth, "--format", "json")
        assert code == 0
        [row] = json.loads(out)["records"]
        if depth == "0":
            assert row["extremal"] == "inconclusive" and row["agree"] is True
        else:
            assert row == want


def test_check_infinity_shallow_windows_agree(capsys):
    # at depth 1, two products hold no violated string within the window
    # though their criterion and decomposability both fail; extremality is
    # left open there instead of dissenting.  A "yes" is left open too where
    # B_w(infinity) is cut: its primitives for ω1 lie as deep as D_λ = 2
    argv = ("check", "--preset", "A2", "--lambda", "ω1", "--all-vw",
            "--mode", "infinity", "--format", "json", "--depth")
    code, out, _ = run(capsys, *argv, "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"agree": 36, "criterion_holds": 20,
                                  "inconclusive": 20, "pairs": 36}
    opened = [r for r in payload["records"] if r["extremal"] == "inconclusive"]
    assert [(r["v_word"], r["w_word"]) for r in opened] == [([2, 1], [1, 2]),
                                                          ([1, 2, 1], [1, 2])]
    for r in opened:
        assert not r["criterion"] and r["decomposable"] == "no"
        assert "window 1 is truncated" in r["witness"]
    for r in payload["records"]:
        if r["criterion"] and r["w_word"]:
            assert r["decomposable"] == "inconclusive"
            assert r["witness"] == "window 1 may miss a primitive: they lie as deep as D_λ = 2"
        elif r["criterion"]:  # B_e(infinity) is the top alone, so nothing is cut
            assert r["decomposable"] == "yes"
    # deeper windows settle every pair; these bytes predate the fix
    for depth in ("2", "3", "4", "5"):
        code, out, _ = run(capsys, *argv, depth)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0899ce187cf6533f7595052a32dfa0ab11bee057d70595042240a2d2cfe1ab86"), depth


@pytest.fixture
def g2(tmp_path):
    """The G2 datum of the README, as a --datum file."""
    path = tmp_path / "g2.json"
    path.write_text(json.dumps({"name": "G2", "n": 2, "m": 2,
                                "cartan": [[2, -1], [-3, 2]],
                                "roots": [[2, -1], [-3, 2]],
                                "pairing": [[1, 0], [0, 1]]}))
    return path


def test_check_infinity_yes_needs_every_primitive(capsys, g2):
    # For G2 and λ = ω1, the component that is not Demazure is headed by a
    # primitive at depth 5.  A window above it holds Demazure components only,
    # which is no "yes" below D_λ = 10, the greatest depth of a primitive.
    argv = ("check", "--datum", str(g2), "--lambda", "1,0", "--v", "1",
            "--w", "2,1,2,1,2", "--mode", "infinity", "--format", "json", "--depth")
    code, out, err = run(capsys, *argv, "4")
    assert code == 0, err
    [row] = json.loads(out)["records"]
    assert (row["criterion"], row["extremal"], row["decomposable"]) == (
        False, "inconclusive", "inconclusive")
    assert row["witness"].startswith(
        "window 4 may miss a primitive: they lie as deep as D_λ = 10")
    code, out, err = run(capsys, *argv, "10")
    assert code == 0, err
    [row] = json.loads(out)["records"]
    assert (row["criterion"], row["extremal"], row["decomposable"]) == (
        False, "violated", "no")
    assert row["witness"] == "component of (0,0) is not a Demazure set"


@pytest.mark.parametrize("lam, v, depth", [("1,0", "", "18"), ("1,0", "", "20"),
                                           ("0,1", "2,1", "14"), ("0,1", "2,1", "16")])
def test_g2_deepest_component_is_w0(capsys, g2, lam, v, depth):
    # B_{s2s1s2s1s2}(∞) and B_{w0}(∞) agree down to depth 9, so a search in
    # shallow windows once named the deepest component s2s1s2s1s2, or failed
    # to match it deeper down; the probes tell them apart at any depth
    code, out, err = run(capsys, "decompose", "--datum", str(g2), "--lambda", lam,
                         "--v", v, "--w", "2,1,2,1,2,1", "--mode", "infinity",
                         "--depth", depth, "--format", "json")
    assert code == 0, err
    comps = json.loads(out)["components"]
    deepest = max(comps, key=lambda c: c["primitive_depth"])
    assert deepest["u_word"] == [2, 1, 2, 1, 2, 1]


@pytest.mark.parametrize("argv, flag", [
    (("--preset", "A1", "--lambda", "ω1", "--v", "1", "--w", "1", "--depth", "4"), False),
    (("--preset", "A3", "--lambda", "ω2", "--v", "2", "--w", "2,1,3,2", "--depth", "6"), True),
])
def test_recognition_backtracked(capsys, argv, flag):
    # In A1 every identity component is B_e or B_{w0}, and no probe leaves the
    # passing set before the longest one; the flagship's do
    code, out, _ = run(capsys, "decompose", *argv, "--mode", "infinity", "--format", "json")
    assert code == 0
    assert json.loads(out)["checks"]["recognition_backtracked"] is flag


def test_finite_disagreement_still_exits_three(capsys, monkeypatch):
    # a complete set keeps conclusive verdicts: a forced "extremal" against a
    # failing criterion is still a violation
    monkeypatch.setattr(demazure, "is_extremal",
                        lambda *a, **kw: ExtremalityVerdict("extremal"))
    code, out, err = run(capsys, "check", "--preset", "A2", "--lambda", "1,1",
                         "--mu", "1,1", "--v", "1", "--w", "2")
    assert code == 3 and out == ""
    assert err.startswith("verification failed: conclusive disagreement")


def test_boundary_layer_gap_exits_three(capsys, monkeypatch):
    # The partition check compares exact truncations at one absolute depth,
    # so an element no component covers is a fault even in the last layer:
    # here the product is cut one layer below the components
    real = demazure.product_set
    monkeypatch.setattr(demazure, "product_set",
                        lambda a, b, *, window=None: real(a, b, window=window + 1))
    code, out, err = run(capsys, "decompose", "--preset", "A2", "--lambda", "ω1",
                         "--v", "1", "--w", "1", "--mode", "infinity", "--depth", "2")
    assert code == 3 and out == ""
    assert err.startswith("verification failed: partition check failed: 1 uncovered")


def test_internal_check_failure_exits_three(capsys, monkeypatch):
    # the graph build checks axiom C1 on every path it enumerates
    real = PLPath.phi
    monkeypatch.setattr(PLPath, "phi", lambda self, i: real(self, i) + (i == 2))
    code, out, err = run(capsys, "graph", "--preset", "A2", "--lambda", "1,1",
                         "--w", "1,2,1")
    assert code == 3 and out == ""
    assert err.startswith("internal check failed: axiom C1 fails")
    assert "Traceback" not in err


def test_python_m_runs_the_cli(capsys):
    argv = ["graph", "--preset", "A2", "--lambda", "1,1", "--w", "1,2", "--format", "json"]
    code, direct, _ = run(capsys, *argv)
    assert code == 0
    src = str(Path(kmcrystals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "kmcrystals", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == direct


def test_graph_dot_and_json(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "--preset", "A2",
                       "--lambda", "ω1+ω2", "--w", "1,2,1")
    assert code == 0
    assert out.startswith("digraph") and out.count(" -> ") == 8
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "graph", "--preset", "A2", "--w", "1,2",
                       "--mode", "infinity", "--depth", "3",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["meta"]["truncated"] is True


def test_datum_file_round_trip(capsys, tmp_path):
    blob = tmp_path / "datum.json"
    blob.write_text(json.dumps(preset("A2").to_json()))
    # files carry no fundamental-weight table, so spell the weight out
    code, out, _ = run(capsys, "graph", "--datum", str(blob),
                       "--lambda", "1,0", "--w", "1,2")
    assert code == 0 and "digraph" in out
    code, _, err = run(capsys, "graph", "--datum", str(blob),
                       "--lambda", "ω1", "--w", "1,2")
    assert code == 1 and "fundamental" in err


def test_config_errors_exit_one(capsys, tmp_path):
    cases = [
        ("decompose", "--preset", "A2", "--lambda", "ω1", "--mu", "ω1",
         "--v", "1,1"),                                   # non-reduced word
        ("decompose", "--preset", "A2", "--lambda", "ω1",
         "--mode", "infinity"),                           # missing --depth
        ("decompose", "--preset", "A2", "--lambda", "ω1", "--v", "1"),  # no mu
        ("decompose", "--preset", "Z9", "--lambda", "ω1", "--mu", "ω1"),
        ("decompose", "--preset", "A2", "--lambda", "-1,0", "--mu", "ω1"),
        ("decompose", "--preset", "A2", "--lambda", "1/2,0", "--mu", "ω1"),
        ("graph", "--preset", "A2", "--lambda", "ω1", "--mode", "bogus"),
        ("graph", "--datum", str(tmp_path / "missing.json"), "--lambda", "ω1"),
        ("decompose", "--preset", "A2", "--lambda", "ω1", "--w", "1",
         "--mode", "infinity", "--depth", "-3"),          # negative depth
        ("check", "--preset", "A2", "--lambda", "ω1", "--mode", "infinity",
         "--depth", "-1"),
        ("graph", "--preset", "A2", "--w", "1", "--mode", "infinity",
         "--depth", "-2"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "graph", "--datum", str(broken), "--lambda", "ω1")
    assert code == 1


def test_criterion_failure_exit_two(capsys):
    code, out, err = run(capsys, "decompose", "--preset", "A2",
                         "--lambda", "1,1", "--mu", "1,1",
                         "--v", "1", "--w", "2")
    assert code == 2 and out == ""
    assert err.startswith("criterion fails")


def test_violation_exit_three(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise EquivalenceViolation("forced for the exit-code contract")

    monkeypatch.setattr(cli, "check_equivalence", boom)
    code, out, err = run(capsys, "check", "--preset", "A2",
                         "--lambda", "1,0", "--mu", "1,0",
                         "--v", "1", "--w", "1")
    assert code == 3 and err.startswith("verification failed")


def test_keyprod_gl2(capsys):
    argv = ("keyprod", "--preset", "GL2", "--lambda", "1,0", "--mu", "1,0",
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["pairs_checked"] == 4 and payload["pairs_skipped"] == 0
    ident = [r for r in payload["records"]
             if r["v_word"] == [] and r["w_word"] == []]
    assert ident[0]["expansion"] == {"2,0": 1}
    code, out2, _ = run(capsys, *argv)
    assert out == out2


def test_keyprod_frees_its_datum(capsys, monkeypatch):
    # the Demazure sets and the edge memo live on the command's datum, so nothing
    # keeps it alive once the command returns
    made = []

    def recording_preset(name):
        datum = preset(name)
        made.append(weakref.ref(datum))
        return datum

    monkeypatch.setattr(cli, "preset", recording_preset)
    code, _, _ = run(capsys, "keyprod", "--preset", "GL3", "--lambda", "1,1,0",
                     "--mu", "1,0,0", "--format", "json")
    assert code == 0 and len(made) == 1
    gc.collect()
    assert made[0]() is None


def test_keyprod_table(capsys):
    code, out, _ = run(capsys, "keyprod", "--preset", "GL2",
                       "--lambda", "1,0", "--mu", "1,0")
    assert code == 0
    assert "κ(" in out and "ok = True" in out


def test_keyprod_rejects_non_gl(capsys, tmp_path):
    # keys exist in every finite type, so only non-finite data are refused,
    # before any Weyl group walk
    code, out, _ = run(capsys, "keyprod", "--preset", "A2",
                       "--lambda", "1,0", "--mu", "1,0")
    assert code == 0 and "ok = True" in out
    affine = tmp_path / "affine.json"
    affine.write_text(json.dumps({"name": "A1^(1)", "n": 2, "m": 3,
                                  "cartan": [[2, -2], [-2, 2]],
                                  "roots": [[2, -2], [-2, 2], [1, 0]],
                                  "pairing": [[1, 0, 0], [0, 1, 0]]}))
    code, _, err = run(capsys, "keyprod", "--datum", str(affine),
                       "--lambda", "1,0,0", "--mu", "1,0,0")
    assert code == 1 and "finite type" in err


def test_out_file_writes_exact_bytes(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = ("decompose", "--preset", "A2", "--lambda", "1,1", "--mu", "1,1",
            "--v", "1", "--w", "1,2", "--format", "json", "--out", str(target))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == ""
    code, direct, _ = run(capsys, "decompose", "--preset", "A2",
                          "--lambda", "1,1", "--mu", "1,1",
                          "--v", "1", "--w", "1,2", "--format", "json")
    assert target.read_text() == direct


def test_missing_subcommand_is_config_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
