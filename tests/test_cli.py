import hashlib
import json

import pytest
from click.testing import CliRunner

from braidseq.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_braid_info_golden():
    res = run("braid", "info", "--word", "1 1 -2", "--degree", "3")
    assert res.exit_code == 0
    assert "(1) (2 3)" in res.output
    assert "fixed points:  [1]" in res.output


def test_braid_info_json_round_trip():
    res = run("braid", "info", "--word", "B3 1 1 -2", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["word"] == "B3 1 1 -2"
    assert doc["permutation"] == [1, 3, 2]


def test_tribraid_golden():
    res = run("tribraid", "--word", "-1 2 2")
    assert res.exit_code == 0
    assert "trace:        4" in res.output
    assert "sqrt(12)" in res.output
    assert "3.7320508075" in res.output


def test_tribraid_rejects_bad_word():
    res = run("tribraid", "--word", "1 2")
    assert res.exit_code == 2


def test_entropy_json():
    res = run("entropy", "--braid", "B3 -1 2 2", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["converged"] is True
    assert abs(doc["normalized_entropy"] - 2.6339157938) < 1e-6


def test_entropy_nonconverged_exit_code():
    res = run("entropy", "--braid", "B3 2 2", "--max-iter", "64", "--json")
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["converged"] is False


def test_cone_norm():
    res = run("cone", "norm", "--n", "3", "--u", "2", "--class", "5,14")
    assert res.exit_code == 0
    assert res.output.strip() == "38"


def test_prongs_sweep_csv():
    res = run("prongs", "--orbit", "1,0:2,1", "--twist", "1",
              "--class", "p,1", "--sweep", "p=1..4")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "p,x,y,axis_prongs,strand_prongs,fill"
    assert lines[1] == "1,1,1,2,4,safe"
    assert lines[4] == "4,4,1,5,7,safe"


def test_prongs_preset():
    res = run("prongs", "--orbit", "sigma1i-sq", "--twist", "1",
              "--class", "2,1")
    assert res.exit_code == 0
    assert "3,5,safe" in res.output.replace("2,2,1,", "")


def test_family_words():
    res = run("family", "xi", "--p", "1..2")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[1].startswith("1,6,1 2 3 3 4 5")
    assert lines[2].startswith("2,8,")


def test_family_requires_seed_degree():
    res = run("family", "z", "--p", "1", "--seed-blocks", "-1")
    assert res.exit_code == 2


def test_spin_check():
    res = run("spin", "check", "--family", "odd", "--p", "1")
    assert res.exit_code == 0
    assert "genus:      3" in res.output
    assert "preserves q1: True" in res.output


def test_spin_lift():
    res = run("spin", "lift", "--word", "SB8 2 3 4 5 6 7 4 5 6 7 7")
    assert res.exit_code == 0
    assert "genus 3" in res.output
    assert "preserves q1: True" in res.output


def test_generator_command():
    res = run("braid", "generator", "--kind", "rho", "--n", "3", "--j", "3")
    assert res.exit_code == 0
    assert res.output.strip() == "B3 1 2 2"


def test_reproduce_runs_and_is_deterministic(tmp_path):
    args = ("reproduce", "thm1.1", "--pmax", "2", "--tol", "1e-6")
    out1 = run(*args)
    out2 = run(*args)
    assert out1.exit_code == 0
    assert out1.output == out2.output
    assert "limit 2*log(2+sqrt(3))" in out1.output


def test_manifest_written(tmp_path):
    path = tmp_path / "manifest.json"
    res = run("tribraid", "--word", "-1 2 2", "--manifest", str(path))
    assert res.exit_code == 0
    doc = json.loads(path.read_text())
    assert doc["command"] == "tribraid"
    assert len(doc["outputs_digest"]) == 64


def test_manifest_digest_matches_output(tmp_path):
    import hashlib
    path = tmp_path / "m.json"
    res = run("braid", "info", "--word", "1 -2", "--degree", "3",
              "--manifest", str(path))
    doc = json.loads(path.read_text())
    digest = hashlib.sha256(res.output.rstrip("\n").encode()).hexdigest()
    assert doc["outputs_digest"] == digest


def test_cone_braid_word():
    res = run("cone", "braid", "--seed-blocks", "-1", "--seed-degree", "3",
              "--class", "1,1")
    assert res.exit_code == 0
    assert res.output.strip() == "B4 -1 2 3 3"


@pytest.mark.parametrize("args", [
    ("prongs", "--class", "5"),
    ("family", "z", "--p", "1", "--seed-blocks", "x", "--seed-degree", "3"),
    ("cone", "braid", "--seed-blocks", "-1|-1", "--seed-degree", "3",
     "--class", "2,4"),
    ("cone", "norm", "--n", "3", "--u", "1", "--class", "-1,2"),
    ("spin", "lift", "--word", "1", "--degree", "2"),
    ("cone", "table", "--seed-blocks", "-1", "--seed-degree", "2"),
    ("entropy", "--braid", "1 -2", "--kernel", "pure"),
    ("tribraid", "--word", "1 2"),
    ("braid", "info", "--word", "1 5", "--degree", "3"),
])
def test_rejected_input_is_a_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "Usage:" in res.output and "Error:" in res.output
    assert res.exc_info[0] is SystemExit      # no traceback escaped


def test_csv_file_and_manifest_match_stdout(tmp_path):
    args = ("family", "xi", "--p", "1..2")
    stdout = run(*args).output
    csv_path, manifest = tmp_path / "f.csv", tmp_path / "m.json"
    res = run(*args, "--csv", str(csv_path), "--manifest", str(manifest))
    assert res.exit_code == 0
    assert res.output == f"wrote {csv_path}\n"
    assert csv_path.read_text() == stdout
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "family xi"
    assert doc["outputs_digest"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert doc["arguments"]["p_range"] == "1..2"
