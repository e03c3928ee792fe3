"""End-to-end command line behavior, run in process."""

import json
from importlib import resources

import jsonschema
import pytest

from kmcrystals import cli
from kmcrystals.demazure import EquivalenceViolation
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


def test_keyprod_table(capsys):
    code, out, _ = run(capsys, "keyprod", "--preset", "GL2",
                       "--lambda", "1,0", "--mu", "1,0")
    assert code == 0
    assert "κ(" in out and "ok = True" in out


def test_keyprod_rejects_non_gl(capsys):
    code, _, err = run(capsys, "keyprod", "--preset", "A2",
                       "--lambda", "1,0", "--mu", "1,0")
    assert code == 1 and "error" in err


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
