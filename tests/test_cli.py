import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import invoke

from braidseq import cli, dynnikov


def run(*args):
    return invoke(args)


def strict_json(text):
    """``json.loads`` that rejects NaN and Infinity, which RFC 8259 lacks."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_braid_info_golden():
    res = run("braid", "info", "--word", "B3 1 1 -2")
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


def test_tribraid_json():
    res = run("tribraid", "--word", "-1 2 2", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["trace"] == 4 and doc["matrix"] == [[3, 1], [2, 1]]


def test_tribraid_rejects_bad_word():
    res = run("tribraid", "--word", "1 2")
    assert res.exit_code == 2


def test_entropy_json():
    res = run("entropy", "--braid", "B3 -1 2 2", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["converged"] is True and doc["method"] == "linear_piece"
    assert abs(doc["normalized_entropy"] - 2.6339157938) < 1e-6
    assert doc["cycle"] == 1 and "accumulated_scale" not in doc


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["diagnostics", "json"])
def test_undefined_last_delta_is_json_null(flags):
    # one pass gives no per-pass growth rate to compare
    res = run("entropy", "--braid", "1 -2", "--max-iter", "1", *flags)
    assert res.exit_code == 1
    doc = strict_json(res.output)
    assert doc["converged"] is False and doc["last_delta"] is None
    assert doc["cycle"] is None


def test_entropy_plain_text():
    res = run("entropy", "--braid", "B3 -1 2 2")
    assert res.exit_code == 0
    assert "converged:    True" in res.output
    assert "Ent:          2.633915793" in res.output


SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(*args, cwd=None):
    """Run ``python ARGS`` in a new interpreter that imports the package from
    this tree."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": SRC})


def test_cli_import_loads_no_numerics_library():
    # numpy alone would add about 12 MB of resident memory and 0.16 s of
    # start-up to every command
    code = ("import sys, braidseq.cli; "
            "print(sorted({'numpy', 'mpmath', 'sympy'} & set(sys.modules)))")
    out = fresh("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_what_estimating_commands_run():
    # every run compiles and loads these, the Thurston norm in standard among
    # them; spin, 3-braid and prong code, json and hashlib load only in the
    # commands that use them, and no command loads click, dataclasses or
    # inspect
    code = ("import sys, braidseq.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('braidseq'))); "
            "print(sorted({'json', 'hashlib', 'fractions', 'decimal'}"
            " & set(sys.modules))); "
            "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))")
    out = fresh("-c", code)
    assert out.returncode == 0, out.stderr
    modules = ["braidseq", "braidseq._fan", "braidseq._kernel_py",
               "braidseq.cli", "braidseq.dynnikov", "braidseq.families",
               "braidseq.standard", "braidseq.words"]
    assert out.stdout.splitlines() == [repr(modules), "[]", "[]"]
    # a whole command: -X importtime lists every module the run imports
    out = fresh("-X", "importtime", "-m", "braidseq.cli", "reproduce", "thm1.1")
    assert out.returncode == 0, out.stderr
    imported = {line.rpartition("|")[2].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")}
    assert "braidseq.dynnikov" in imported
    assert not {"click", "dataclasses", "inspect"} & imported


def test_traced_cli_prints_what_the_cli_prints(tmp_path):
    # perfbench/traced_cli.py runs a command with layer spans (benchmark
    # runs with --trace 1); it calls the CLI's entry point in-process
    traced_cli = Path(SRC).parent / "perfbench" / "traced_cli.py"
    spans = tmp_path / "spans.json.gz"
    traced = fresh(str(traced_cli), str(spans), "0", "reproduce", "thm1.1")
    plain = fresh("-m", "braidseq.cli", "reproduce", "thm1.1")
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    assert spans.stat().st_size > 0


def test_cli_import_fills_no_cache():
    # start-up pays for no table: every cached helper is filled on first use
    code = ("import braidseq.cli\n"
            "from braidseq import _fan, dynnikov\n"
            "for mod in (_fan, dynnikov):\n"
            "    for name, f in sorted(vars(mod).items()):\n"
            "        if hasattr(f, 'cache_info'):\n"
            "            print(name, f.cache_info().currsize)")
    out = fresh("-c", code)
    assert out.returncode == 0, out.stderr
    sizes = dict(line.split() for line in out.stdout.splitlines())
    assert {"_layout", "triangles", "letter_programs", "_suite_vectors"} <= set(sizes)
    assert set(sizes.values()) == {"0"}


# stdout, and the manifest where one is asked for, of one command per import
# deferred out of the module level, each in a fresh interpreter
DEFERRED_GOLDENS = [
    (["tribraid", "--word", "-1 2", "--json"], """\
{
  "dilatation": "(1/2)*(3 + sqrt(5))",
  "dilatation_decimal": "2.61803398874989484820",
  "log_dilatation": 0.9624236501192058,
  "matrix": [
    [
      2,
      1
    ],
    [
      1,
      1
    ]
  ],
  "trace": 3,
  "word": "B3 -1 2"
}
""", None),
    (["cone", "norm", "--n", "3", "--u", "1", "--class", "1,1"], "3\n", None),
    (["prongs", "--class", "2,1"],
     "p,x,y,axis_prongs,strand_prongs,fill\n-,2,1,2,4,safe\n", None),
    (["spin", "lift", "--word", "1 2"],
     "genus 1; preserves q0: False; preserves q1: True\n", None),
    (["braid", "info", "--word", "1 -2", "--json", "--manifest", "m.json"], """\
{
  "cycles": [
    [
      1,
      2,
      3
    ]
  ],
  "degree": 3,
  "exponent_sum": 0,
  "fixed_points": [],
  "length": 2,
  "palindromic_word": false,
  "permutation": [
    2,
    3,
    1
  ],
  "skew_palindromic_word": false,
  "word": "B3 1 -2"
}
""", """\
{
  "arguments": {
    "as_json": true,
    "manifest": "m.json",
    "word": "1 -2"
  },
  "command": "braid info",
  "outputs_digest": "f83a2656bbd13a9161c3918c87f797976e01ae34ea4426b49ecf0194b8574132",
  "tool_version": "0.1.0"
}
"""),
]


@pytest.mark.parametrize("args, stdout, manifest", DEFERRED_GOLDENS,
                         ids=["tribraid", "cone-norm", "prongs", "spin-lift",
                              "manifest"])
def test_deferred_import_commands_in_fresh_interpreter(args, stdout, manifest,
                                                       tmp_path):
    out = fresh("-m", "braidseq.cli", *args, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == stdout
    if manifest is not None:
        assert (tmp_path / "m.json").read_bytes() == manifest.encode()


@pytest.mark.parametrize("args, header", [
    (("entropy", "--braid", "B3 2 2", "--max-iter", "64", "--json"), "{"),
    (("family", "z", "--p", "1..2", "--with-entropy", "--max-iter", "8"),
     "p,degree,word,ent,Ent,converged"),
    (("cone", "table", "--seed-blocks", "-1",
      "--xmax", "2", "--ymax", "2", "--max-iter", "1"),
     "x,y,norm,ent,Ent,converged"),
    (("reproduce", "thm5.2", "--pmax", "2", "--max-iter", "8"),
     "p,degree,ent,Ent,abs_error_vs_Ent_b1,converged"),
], ids=["entropy", "family", "cone-table", "reproduce"])
def test_entropy_nonconverged_exit_code(args, header):
    res = run(*args)
    assert res.exit_code == 1
    assert res.exc_info[0] is SystemExit
    assert res.output.startswith(header)
    if args[0] == "entropy":
        assert json.loads(res.output)["converged"] is False
    else:
        assert ",False\n" in res.output


@pytest.mark.parametrize("repeats", [737, 740])
def test_entropy_beyond_float_range_exits_1_with_json(repeats):
    word = "B3 " + " ".join(["-1 2"] * repeats)
    res = run("entropy", "--braid", word, "--max-iter", "8")
    assert res.exit_code == 1 and res.exc_info[0] is SystemExit
    doc = strict_json(res.output)
    exact = strict_json(run("tribraid", "--word", word, "--json").output)
    assert doc["method"] == "none" and doc["converged"] is False
    assert abs(doc["value"] - exact["log_dilatation"]) < 1e-12


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
    res = run("braid", "info", "--word", "B3 1 -2", "--manifest", str(path))
    doc = json.loads(path.read_text())
    digest = hashlib.sha256(res.output.rstrip("\n").encode()).hexdigest()
    assert doc["outputs_digest"] == digest


def test_cone_braid_word():
    res = run("cone", "braid", "--seed-blocks", "-1", "--class", "1,1")
    assert res.exit_code == 0
    assert res.output.strip() == "B4 -1 2 3 3"


@pytest.mark.parametrize("args", [
    ("prongs", "--class", "5"),
    ("family", "z", "--p", "1", "--seed-blocks", "x"),
    ("cone", "braid", "--seed-blocks", "-1|-1", "--class", "2,4"),
    ("cone", "norm", "--n", "3", "--u", "1", "--class", "-1,2"),
    ("spin", "lift", "--word", "B2 1"),
    # a seed of degree 2 is blocks with no letter
    ("cone", "table", "--seed-blocks", "|"),
    ("entropy", "--braid", "1 -2", "--kernel", "pure"),
    ("tribraid", "--word", "1 2"),
    ("braid", "info", "--word", "B3 1 5"),
    ("entropy", "--braid", "1 -2", "--max-iter", "0"),
    ("entropy", "--braid", "1 -2", "--max-iter", "-3"),
    ("entropy", "--braid", "1 -2", "--tol", "0"),
    ("entropy", "--braid", "1 -2", "--tol", "-1"),
    ("family", "xi", "--p", "1", "--with-entropy", "--max-iter", "0"),
    ("reproduce", "thm1.1", "--pmax", "0"),
    ("braid", "linking", "--word", "1 1", "--strand", "3"),
    ("braid", "linking", "--word", "1 1", "--strand", "0"),
    ("prongs", "--class", "1,1", "--twist", "-1"),
    ("prongs", "--class", "2,1", "--sweep", "q"),
    ("prongs", "--class", "2,1", "--sweep", "p=1=2"),
    ("family", "xi", "--p", "3..1"),
    ("entropy", "--braid", "B3 1 -2", "--degree", "4"),
    ("cone", "table", "--seed-blocks", "-1 | -1", "--xmax", "0"),
    ("cone", "table", "--seed-blocks", "-1 | -1", "--ymax", "0"),
    ("braid", "info", "--word", "B3 1 -2", "--spherical"),
    ("spin", "lift", "--word", "B3 1 1", "--spherical"),
    ("entropy", "--braid", "1 -2", "--tol", "inf"),
    ("family", "xi", "--p", "1", "--csv", "/nonexistent/x.csv"),
    ("family", "xi", "--p", "1", "--csv", "/tmp"),
    ("tribraid", "--word", "-1 2", "--manifest", "/nonexistent/d/m.json"),
    # family checks the estimator's budget even without --with-entropy
    ("family", "xi", "--p", "1", "--max-iter", "0"),
    ("family", "xi", "--p", "1", "--tol", "inf"),
    ("family", "xi", "--p", "1", "--tol", "-1"),
    ("family", "xi", "--p", "1", "--tol", "inf", "--manifest", "/nonexistent/m.json"),
    ("family", "beta", "--p", "1", "--pre-twist", "2"),
    ("family", "xi", "--p", "1", "--seed-blocks", "-1"),
    ("family", "z", "--p", "1", "--seed-degree", "3"),
    ("prongs", "--class", "p,1"),
    ("prongs", "--orbit", "bad", "--class", "1,1"),
    ("prongs", "--class", "2,1", "--epsilon", "0"),
    ("family", "xi", "--p", "a..b"),
    ("family", "xi", "--p", "0"),
    ("cone", "norm", "--n", "3", "--u", "1", "--class", "5"),
    ("bogus",),
    ("entropy", "--braid", "1 -2", "--tol", "abc"),
    ("entropy",),
    # the disk class and classes outside the cone have no fiber to foliate
    ("prongs", "--class", "0,1"),
    ("prongs", "--class", "-1,1"),
    ("prongs", "--class", "1,-3"),
    # orbit data whose axis class meets the axis slope not at all
    ("prongs", "--orbit", "1,1:2,1", "--epsilon", "-1", "--class", "1,1"),
    # one file for the table and its manifest would keep only the manifest
    ("family", "xi", "--p", "1..2", "--csv", "/dev/null",
     "--manifest", "/dev/../dev/null"),
    ("braid", "info", "--word", "S3 1"),
    ("braid", "linking", "--word", "B3 1", "--strand", "1"),
    ("tribraid", "--word", ""),
    # the header states a word's degree and sphericity, the letters a
    # seed's degree; the options that said it again are gone
    ("braid", "info", "--word", "1 1 -2", "--degree", "3"),
    ("braid", "linking", "--word", "1", "--degree", "3", "--strand", "1"),
    ("spin", "lift", "--word", "1", "--degree", "3"),
    ("cone", "braid", "--seed-blocks", "-1", "--seed-degree", "3",
     "--class", "1,1"),
    # a split seed: B4 blocks that never use s_2
    ("cone", "table", "--seed-blocks", "-1 | -1", "--seed-degree", "4",
     "--xmax", "2", "--ymax", "2"),
    ("family", "xi", "--p", "1", "--csv", ""),
    ("family", "xi", "--p", "1", "--manifest", ""),
    ("prongs", "--class", "1,x"),
])
def test_rejected_input_is_a_usage_error(args):
    res = run(*args)
    assert res.exit_code == 2
    assert res.output.startswith("Usage:")    # no output precedes the error
    assert "Error:" in res.output
    assert res.exc_info[0] is SystemExit      # no traceback escaped
    assert USAGE_MESSAGES.get(args, "") in res.output


USAGE_MESSAGES = {
    ("prongs", "--class", "2,1", "--sweep", "q"): "expected --sweep p=LO..HI",
    ("prongs", "--class", "2,1", "--sweep", "p=1=2"): "expected --sweep p=LO..HI",
    ("family", "xi", "--p", "3..1"): "the range '3..1' is empty",
    ("entropy", "--braid", "B3 1 -2", "--degree", "4"):
        "unrecognized arguments: --degree 4",
    ("cone", "table", "--seed-blocks", "-1 | -1", "--xmax", "0"):
        "'--xmax': 0 is not in the range x>=1",
    ("cone", "table", "--seed-blocks", "-1 | -1", "--ymax", "0"):
        "'--ymax': 0 is not in the range x>=1",
    ("braid", "info", "--word", "B3 1 -2", "--spherical"):
        "unrecognized arguments: --spherical",
    ("spin", "lift", "--word", "B3 1 1", "--spherical"):
        "unrecognized arguments: --spherical",
    ("entropy", "--braid", "1 -2", "--tol", "inf"): "need a finite tol",
    ("family", "xi", "--p", "1", "--csv", "/nonexistent/x.csv"):
        "cannot write /nonexistent/x.csv: No such file or directory",
    ("family", "xi", "--p", "1..2", "--csv", "/dev/null",
     "--manifest", "/dev/../dev/null"):
        "--csv and --manifest name the same file: /dev/null",
    ("family", "xi", "--p", "1", "--csv", "/tmp"):
        "cannot write /tmp: Is a directory",
    ("tribraid", "--word", "-1 2", "--manifest", "/nonexistent/d/m.json"):
        "cannot write /nonexistent/d/m.json: No such file or directory",
    ("family", "xi", "--p", "1", "--max-iter", "0"): "max_iter >= 1; got 1e-09, 0",
    ("family", "xi", "--p", "1", "--tol", "inf"): "need a finite tol",
    ("family", "xi", "--p", "1", "--tol", "-1"): "need a finite tol > 0",
    ("family", "xi", "--p", "1", "--tol", "inf", "--manifest", "/nonexistent/m.json"):
        "need a finite tol",
    # z at --pre-twist t was z at p + t; the option is gone
    ("family", "beta", "--p", "1", "--pre-twist", "2"):
        "unrecognized arguments: --pre-twist 2",
    ("family", "xi", "--p", "1", "--seed-blocks", "-1"): "family xi takes no seed",
    ("family", "z", "--p", "1", "--seed-degree", "3"):
        "unrecognized arguments: --seed-degree 3",
    ("prongs", "--class", "p,1"): "class contains p but no --sweep given",
    ("prongs", "--orbit", "bad", "--class", "1,1"): "expected axis:strand classes",
    ("prongs", "--class", "2,1", "--epsilon", "0"): "epsilon must be +-1",
    ("family", "xi", "--p", "a..b"): "expected a value or range",
    ("family", "xi", "--p", "0"): "parameters must be >= 1",
    ("cone", "norm", "--n", "3", "--u", "1", "--class", "5"): "expected a class like 5,14",
    # an option value that starts with "-" is a value, not an option
    ("cone", "braid", "--seed-blocks", "-1|-1", "--class", "2,4"):
        "(2, 4) is not primitive",
    ("cone", "norm", "--n", "3", "--u", "1", "--class", "-1,2"):
        "norm is computed on nonzero classes",
    ("bogus",): "'bogus'",
    ("entropy", "--braid", "1 -2", "--tol", "abc"): "Invalid value for '--tol'",
    ("entropy",): "--braid",
    ("prongs", "--class", "0,1"): "need x >= 1 and y >= 0",
    ("prongs", "--class", "-1,1"): "need x >= 1 and y >= 0",
    ("prongs", "--class", "1,-3"): "need x >= 1 and y >= 0",
    ("prongs", "--orbit", "1,1:2,1", "--epsilon", "-1", "--class", "1,1"):
        "prong count must be >= 1",
    ("braid", "info", "--word", "S3 1"): "bad header token 'S3'",
    ("braid", "linking", "--word", "B3 1", "--strand", "1"):
        "strand 1 is not fixed by the permutation",
    ("tribraid", "--word", ""): "empty word",
    ("cone", "table", "--seed-blocks", "|"): "blocks '|' have no letter",
    ("spin", "lift", "--word", "B2 1"): "degree 2 too small to lift",
    ("braid", "info", "--word", "B3 1 5"): "letter 5 out of range for degree 3",
    ("braid", "info", "--word", "1 1 -2", "--degree", "3"):
        "unrecognized arguments: --degree 3",
    ("braid", "linking", "--word", "1", "--degree", "3", "--strand", "1"):
        "unrecognized arguments: --degree 3",
    ("spin", "lift", "--word", "1", "--degree", "3"):
        "unrecognized arguments: --degree 3",
    ("cone", "braid", "--seed-blocks", "-1", "--seed-degree", "3",
     "--class", "1,1"): "unrecognized arguments: --seed-degree 3",
    ("cone", "table", "--seed-blocks", "-1 | -1", "--seed-degree", "4",
     "--xmax", "2", "--ymax", "2"): "unrecognized arguments: --seed-degree 4",
    ("family", "xi", "--p", "1", "--csv", ""):
        "cannot write : No such file or directory",
    ("family", "xi", "--p", "1", "--manifest", ""):
        "cannot write : No such file or directory",
    ("prongs", "--class", "1,x"): "expected a class like 2,1 or p,1; got '1,x'",
}


def test_no_arguments_print_the_help_as_a_usage_error():
    out = fresh("-m", "braidseq.cli")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("Usage:")
    assert all(name in out.stderr for name in ("entropy", "family", "reproduce"))


@pytest.mark.parametrize("group", sorted(cli._GROUPS))
def test_group_without_its_command_prints_its_help_as_a_usage_error(group, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([group])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"Usage: braidseq {group} [-h] COMMAND ...\n")
    assert err == run(group, "--help").output


def test_help_exits_zero():
    res = run("--help")
    assert res.exit_code == 0
    assert res.output.startswith("Usage:")
    assert all(name in res.output for name in ("entropy", "family", "reproduce"))


def test_manifest_that_is_not_json_is_a_usage_error(tmp_path):
    # JSON cannot record --tol inf; the estimator's budget rule rejects it
    # before anything is written, also when no estimate is made
    path = tmp_path / "m.json"
    res = run("family", "xi", "--p", "1", "--tol", "inf", "--manifest", str(path))
    assert res.exit_code == 2 and res.output.startswith("Usage:")
    assert "need a finite tol" in res.output
    assert not path.exists()


def test_csv_and_manifest_on_one_file_write_nothing(tmp_path):
    path = tmp_path / "out"
    res = run("reproduce", "thm5.2", "--pmax", "1", "--csv", str(path),
              "--manifest", f"{tmp_path}/./out")
    assert res.exit_code == 2 and res.output.startswith("Usage:")
    assert "--csv and --manifest name the same file" in res.output
    assert not path.exists()


def test_unwritable_manifest_writes_no_table(tmp_path, monkeypatch):
    # every output path is opened before any is written
    monkeypatch.chdir(tmp_path)
    args = ("family", "xi", "--p", "1", "--csv", "t.csv",
            "--manifest", "/nonexistent/m.json")
    res = run(*args)
    assert res.exit_code == 2 and res.output.startswith("Usage:")
    assert "cannot write /nonexistent/m.json" in res.output
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "t.csv").write_bytes(b"kept")
    assert run(*args).exit_code == 2
    assert (tmp_path / "t.csv").read_bytes() == b"kept"


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
    assert doc["arguments"] == {
        "name": "xi", "p_range": "1..2", "seed_blocks": None,
        "with_entropy": False,
        "tol": 1e-9, "max_iter": 512, "csv_path": str(csv_path),
        "manifest": str(manifest)}


@pytest.mark.parametrize("line", [
    'entropy --braid "1 -2"',
    "family xi --p 1",
    "cone table --seed-blocks -1",
    "reproduce thm1.1",
], ids=lambda line: line.split(" --")[0])
def test_every_estimating_command_defaults_to_the_library_budget(line):
    args = cli._parser().parse_args(shlex.split(line))
    assert (args.tol, args.max_iter) == (dynnikov.DEFAULT_TOL,
                                         dynnikov.DEFAULT_MAX_ITER)


# exact stdout of commands that write through ``_emit`` or estimate through
# ``_estimate``; all exit 0
EMIT_GOLDENS = [
    ('braid linking --word "B5 1 2 2 3 3 4" --strand 3', """\
component,linking_number
1 2,1
4 5,1
u,2
verdict,increasing
conclusive,True
"""),
    ("braid generator --kind rho --n 3 --j 3", "B3 1 2 2\n"),
    ("cone norm --n 3 --u 2 --class 5,14", "38\n"),
    ('cone table --seed-blocks "-1" --xmax 2 --ymax 2', """\
x,y,norm,ent,Ent,converged
1,1,3,0.9624236501192069,2.887270950357621,True
1,2,4,0.8314429455293103,3.3257717821172412,True
2,1,5,0.5435350724978704,2.7176753624893517,True
"""),
    ("spin check --family even --p 3", """\
family:     v_3 (companion SB12 2 3 4 5 6 7 8 9 10 11 2 3 4 5 6 7 8 9 10 11 11 11 11)
genus:      5
lift:       t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t11 t11 t11
preserves q0: True
preserves q1: False
"""),
    ('spin lift --word "SB8 2 3 4 5 6 7 4 5 6 7 7"',
     "genus 3; preserves q0: False; preserves q1: True\n"),
    ('family beta --p 1..2 --seed-blocks "-1 | -1" --with-entropy',
     "p,degree,word,ent,Ent,converged\n"
     "1,7,-1 2 3 4 5 6 6 -1 2 3 4 5 6 6 1 2 3 4 5 6 6 1 2 3 4 5 6 6,"
     "0.9624236501192079,5.774541900715247,True\n"
     "2,11,-1 2 3 4 5 6 7 8 9 10 10 -1 2 3 4 5 6 7 8 9 10 10 "
     "1 2 3 4 5 6 7 8 9 10 10 1 2 3 4 5 6 7 8 9 10 10,"
     "0.6045416380110363,6.045416380110363,True\n"),
    ("reproduce thm5.2 --pmax 2", """\
p,degree,ent,Ent,abs_error_vs_Ent_b1,converged
1,7,0.9624236501192079,5.774541900715247,0.8770016635192457,True
2,11,0.6045416380110363,6.045416380110363,0.60612718412413,True
# Ent(b_1) = 6.651543564234493
"""),
    ("prongs --orbit 1,0:2,1 --twist 3 --class p,1 --sweep p=1..4", """\
p,x,y,axis_prongs,strand_prongs,fill
1,1,1,4,6,safe
2,2,1,5,7,safe
3,3,1,6,8,safe
4,4,1,7,9,safe
"""),
    ('entropy --braid "B3 -1 2 2"', """\
log lambda:   1.3169578969248186
Ent:          2.633915793849637
iterations:   3
converged:    True
"""),
]


@pytest.mark.parametrize("line, stdout", EMIT_GOLDENS,
                         ids=[line.split(" --")[0] for line, _ in EMIT_GOLDENS])
def test_emit_goldens(line, stdout):
    res = run(*shlex.split(line))
    assert res.exit_code == 0
    assert res.output == stdout


# the full stdout of the paper's two tables at default arguments; a change
# that moves a digit updates this golden and says so in CHANGES.md
REPRODUCE_GOLDENS = {
    "thm1.1": """\
p,degree,ent,Ent,abs_error_vs_limit,converged
1,6,0.5435350724978704,2.7176753624893517,0.08375956863971856,True
2,8,0.38224508584003986,2.675715600880279,0.04179980703064601,True
3,10,0.2954418837970854,2.658976954173769,0.025061160324135745,True
4,12,0.2409651873973168,2.6506170613704847,0.016701267520851548,True
5,14,0.20352636661402496,2.6458427659823243,0.011926972132691116,True
6,16,0.1761906568670097,2.6428598530051453,0.008944059155512107,True
7,18,0.1553453928846777,2.640871679039521,0.006955885189887656,True
8,20,0.13892000860940604,2.639480163578715,0.005564369729081697,True
# limit 2*log(2+sqrt(3)) = 2.633915793849633
""",
    "thm5.2": """\
p,degree,ent,Ent,abs_error_vs_Ent_b1,converged
1,7,0.9624236501192079,5.774541900715247,0.8770016635192457,True
2,11,0.6045416380110363,6.045416380110363,0.60612718412413,True
3,15,0.4421378287317577,6.189929602244608,0.4616139619898849,True
4,19,0.34883781922274104,6.279080746009338,0.3724628182251548,True
5,23,0.28815704384697105,6.339454964633363,0.3120885996011298,True
6,27,0.2455007350599882,6.383019111559693,0.2685244526748001,True
7,31,0.21386418429551407,6.415925528865422,0.2356180353690709,True
8,35,0.1894604336510611,6.441654744136078,0.20988882009841525,True
# Ent(b_1) = 6.651543564234493
""",
}


@pytest.mark.parametrize("target", sorted(REPRODUCE_GOLDENS))
def test_reproduce_defaults_print_their_golden(target):
    res = run("reproduce", target)
    assert res.exit_code == 0
    assert res.output == REPRODUCE_GOLDENS[target]


def test_cone_braid_readme_golden():
    # B39: four blocks of 38 letters each followed by s_38^2; kept as a digest
    res = run("cone", "braid", "--seed-blocks", "-1 | -1", "--class", "5,14")
    assert res.exit_code == 0
    assert len(res.output) == 870 and res.output.startswith("B39 -1 2 3 ")
    assert hashlib.sha256(res.output.encode()).hexdigest() == \
        "224eba1c129610b5815665f23d1e479ce35e0d912de57a95f696e0c16d3746d2"


def _scoped():
    """(scope, node) for every node of cli.py; the scope is ``Class.method``
    for methods and ``<module>`` at top level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            yield ".".join(inner) or "<module>", child
            yield from visit(child, inner)

    return visit(ast.parse(Path(cli.__file__).read_text()), ())


def _named(node):
    return (node.attr if isinstance(node, ast.Attribute) else
            node.id if isinstance(node, ast.Name) else
            node.name if isinstance(node, ast.alias) else None)


def _mentions(name: str) -> set[str]:
    """Scopes of cli.py whose code names ``name``, as an attribute, a name or
    an import."""
    return {scope for scope, node in _scoped() if _named(node) == name}


@pytest.mark.parametrize("name, owners", [
    ("stdout", {"_emit"}),                         # one writer
    # one error boundary for library ValueErrors (main); the parser turns
    # an option value its type rejects into the same usage error
    ("error", {"main", "_Parser.parse_known_args"}),
    ("entropy_estimate", {"_estimate"}),           # one estimate path
], ids=["stdout", "error", "entropy_estimate"])
def test_cli_has_one_path_per_job(name, owners):
    assert _mentions(name) == owners


def test_cli_decides_exit_1_in_one_place():
    # (scope, code) of every exit call: 1 only in _emit; 2 for a usage error
    # and for a group named without its command
    exits = {(scope, node.args[0].value) for scope, node in _scoped()
             if isinstance(node, ast.Call) and _named(node.func) == "exit"}
    assert exits == {("_emit", 1), ("_Parser.error", 2), ("main", 2)}
