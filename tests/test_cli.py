import argparse
import dataclasses
import json
import os
import resource
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pretzel_pi1 import __version__, cli, derivation, surgery
from pretzel_pi1.derivation import run_pipeline
from pretzel_pi1.presentations import trace_to_json
from pretzel_pi1.words import Word


DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def run_cli(*argv, check=False, env=None):
    """Run the CLI as a subprocess in the caller's environment, so that
    PYTHONPATH still finds the package. The caller's PRETZEL_PI1_DEPTH is
    dropped, so runs use the default budget unless `env` sets one."""
    child_env = {k: v for k, v in os.environ.items() if k != "PRETZEL_PI1_DEPTH"}
    child_env.update(env or {})
    proc = subprocess.run([sys.executable, "-m", "pretzel_pi1", *argv],
                          capture_output=True, text=True, env=child_env)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


def normalized_json(text):
    doc = json.loads(text)
    doc.pop("version", None)
    doc.pop("engine_version", None)
    return doc


def test_derive_json_golden():
    proc = run_cli("derive", "--s", "3", "--format", "json", check=True)
    expected = normalized_json(DATA.joinpath("derive_s3.json").read_text())
    assert normalized_json(proc.stdout) == expected
    doc = json.loads(proc.stdout)
    assert doc["relator"]["compact"] == "clcLCL^-3CLclcl^2"
    assert doc["replay"] == "PASS"


def test_gen_text_golden():
    proc = run_cli("gen", "--s", "3", "--stage", "wirtinger", check=True)
    assert proc.stdout == DATA.joinpath("gen_s3.txt").read_text()


def test_nlo_json_golden():
    proc = run_cli("nlo", "--s", "3", "--slope", "19/1", "--format", "json",
                   check=True)
    expected = normalized_json(DATA.joinpath("nlo_s3_19_1.json").read_text())
    assert normalized_json(proc.stdout) == expected


def test_gen_tunnel_stage():
    proc = run_cli("gen", "--s", "3", "--stage", "tunnel", check=True)
    assert "rel r_inf: f0 a^-1" in proc.stdout
    assert "rel r6: f1 f0 f^-1 a^-1" in proc.stdout


# one small argv for each leaf command of the parser
LEAF_ARGV = {
    "gen": ["gen", "--s", "3"],
    "derive": ["derive", "--s", "4"],
    "surgery": ["surgery", "--s", "3", "--slope", "19/1"],
    "verify fact": ["verify", "fact", "--s", "5"],
    "verify lemma-k": ["verify", "lemma-k", "--slope", "39/2"],
    "verify induction": ["verify", "induction", "--s", "3"],
    "verify trace": ["verify", "trace", str(DATA / "trace_v1_s3.json")],
    "h1": ["h1", "--s", "3", "--slope", "39/2"],
    "abelianize": ["abelianize", str(DATA / "gen_s3.txt")],
    "nlo": ["nlo", "--s", "3", "--slope", "19/1"],
    "parse": ["parse", "clcLCL^-3CLclcl^2"],
}


def _leaves(parser, path=()):
    """(command path, parser) for every parser below parser with no subcommands."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_every_leaf_command_has_one_output_path():
    """Each leaf runs through a handler of its own and takes --format, so
    main writes its output; no leaf prints for itself."""
    leaves = dict(_leaves(cli.build_parser()))
    assert leaves.keys() == LEAF_ARGV.keys()
    for name, leaf in leaves.items():
        assert callable(leaf.get_default("run")), name
        assert "--format" in leaf._option_string_actions, name


@pytest.mark.parametrize("command", LEAF_ARGV)
def test_stdout_is_exactly_one_json_document(capsys, command):
    assert cli.main(LEAF_ARGV[command] + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"  # one document, nothing else


def test_verify_subcommands_exit_zero():
    assert run_cli("verify", "fact", "--s", "5").returncode == 0
    assert run_cli("verify", "lemma-k", "--slope", "39/2").returncode == 0
    assert run_cli("verify", "induction", "--s", "3").returncode == 0


def assert_exact_json(proc, expected):
    """stdout is exactly the document expected, key order included, plus the version."""
    assert proc.stdout == json.dumps({**expected, "version": __version__}, indent=2) + "\n"


@pytest.mark.parametrize("argv,expected", [
    (("fact", "--s", "5"),
     {"command": "verify fact", "s": 5,
      "checks": [{"name": "free reduction identity", "ok": True},
                 {"name": "meridian blocks sum to 4s+7", "ok": True}],
      "passed": True}),
    (("lemma-k", "--slope", "39/2"),
     {"command": "verify lemma-k", "slope": "39/2",
      "checks": [{"name": "k^2 = M", "ok": True}, {"name": "k^-39 = L", "ok": True}],
      "passed": True}),
    (("induction", "--s", "3"),
     {"command": "verify induction", "s": 3,
      "R": {"steps": 6, "passed": True}, "L": {"steps": 6, "passed": True},
      "passed": True}),
    (("lemma-k", "--slope", "39"),  # the parsed slope, as h1 and surgery print it
     {"command": "verify lemma-k", "slope": "39/1",
      "checks": [{"name": "k^1 = M", "ok": True}, {"name": "k^-39 = L", "ok": True}],
      "passed": True}),
])
def test_verify_json_documents(argv, expected):
    assert_exact_json(run_cli("verify", *argv, "--format", "json", check=True), expected)


def _corrupt_move(data):
    data["moves"][5]["via"] = "nope"


def _corrupt_end(data):
    data["end"]["relators"][0]["word"] += " c"


def _corrupt_longitude(data):
    data["longitude_end"] += " c"


def _corrupt_both_ends(data):
    _corrupt_end(data)
    _corrupt_longitude(data)


def _corrupt_added_generator(data):
    data["moves"][0]["gen"] = "A"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_derive_exits_one_when_a_pipeline_move_is_rejected(monkeypatch, capsys, fmt):
    """A move the pipeline emits that its replay rejects is a located failure:
    exit 1, the move's index and reason on stderr, nothing on stdout."""
    tunnel_moves = derivation.tunnel_moves

    def bad_tunnel_moves(s):
        *kept, last = tunnel_moves(s)
        return (*kept, dataclasses.replace(last, label="nope"))

    monkeypatch.setattr(derivation, "tunnel_moves", bad_tunnel_moves)
    assert cli.main(["derive", "--s", "3", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: move 2 RewriteRelator [tunnel] rejected: "
                   "RewriteRelator: \"no relator labeled 'nope'\"\n")


@pytest.mark.parametrize("corrupt,code,failure", [
    (None, 0, {}),
    (_corrupt_move, 1, {"detail": "move 5 failed", "failed_move": 5}),
    (_corrupt_end, 1, {"detail": "end presentation does not match"}),
    (_corrupt_longitude, 1, {"detail": "end longitude does not match"}),
    (_corrupt_added_generator, 1, {"detail": "move 0 failed", "failed_move": 0}),
    (_corrupt_both_ends, 1,
     {"detail": "end presentation does not match; end longitude does not match"}),
])
def test_verify_trace_json_documents(tmp_path, corrupt, code, failure):
    data = trace_to_json(run_pipeline(3).trace)
    if corrupt:
        corrupt(data)
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data, indent=2))
    proc = run_cli("verify", "trace", str(trace_file), "--format", "json")
    assert proc.returncode == code
    assert_exact_json(proc, {"command": "verify trace", "file": str(trace_file),
                             "moves": 49, "passed": not failure, **failure})


def test_verify_trace_text_names_both_failing_end_checks(tmp_path):
    data = trace_to_json(run_pipeline(3).trace)
    _corrupt_both_ends(data)
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data, indent=2))
    proc = run_cli("verify", "trace", str(trace_file))
    assert proc.returncode == 1
    *_, presentation, longitude, verdict = proc.stdout.splitlines()
    assert presentation.startswith("  FAIL end presentation")
    assert longitude.startswith("  FAIL end longitude")
    assert verdict == "FAIL -- end presentation does not match; end longitude does not match"


def test_verify_trace_round_trip(tmp_path):
    trace_file = tmp_path / "trace.json"
    run_cli("derive", "--s", "3", "--emit-trace", str(trace_file), check=True)
    proc = run_cli("verify", "trace", str(trace_file), "--check-abelian")
    assert proc.returncode == 0

    # negative control: corrupt one move
    data = json.loads(trace_file.read_text())
    data["moves"][5]["via"] = "r1"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(data))
    proc = run_cli("verify", "trace", str(bad_file), "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["passed"] is False


# The largest power of two below sys.maxsize over the pointer size: the most
# letters a run may have, so that a tuple can hold it (2^59 on 64-bit builds).
MAX_RUN = 2 ** (sys.maxsize.bit_length() - struct.calcsize("P").bit_length())


def too_large(exp):
    """The usage error of a run of exp letters.  A count past MAX_RUN is
    refused before any tuple is built; a smaller count such as 10^9 would
    really be allocated."""
    return f"exponent {exp} is too large: a run has at most {MAX_RUN} letters\n"


def too_long_filling(q):
    """The usage error of a slope 1/q whose filling c L^q no tuple can hold."""
    return (f"slope denominator {q} is too large: c^p L^q would have more than {MAX_RUN} "
            "letters before reduction\n")


def test_verify_trace_malformed_is_a_usage_error(tmp_path):
    trace_file = tmp_path / "trace.json"
    run_cli("derive", "--s", "3", "--emit-trace", str(trace_file), check=True)
    data = json.loads(trace_file.read_text())
    del data["start"]
    no_start = tmp_path / "no_start.json"
    no_start.write_text(json.dumps(data))
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]")
    data = json.loads(trace_file.read_text())
    data["longitude_end"] = f"c^{2 ** 64}"
    huge_end = tmp_path / "huge_end.json"
    huge_end.write_text(json.dumps(data))
    data = json.loads(trace_file.read_text())
    (step,) = data["moves"][48]["steps"]
    step["conj"] = f"c^{2 ** 64}"
    huge_conj = tmp_path / "huge_conj.json"
    huge_conj.write_text(json.dumps(data))
    for path, named in ((no_start, "'start'"), (a_list, "list"),
                        (huge_end, "longitude_end: " + too_large(2 ** 64)),
                        (huge_conj, "move 48: field 'steps': " + too_large(2 ** 64))):
        proc = run_cli("verify", "trace", str(path))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and named in proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_trace_nested_past_the_recursion_limit_is_a_usage_error(tmp_path, fmt):
    """JSON nested deeper than the parser recurses is unreadable JSON, as a
    syntax error is: exit 2 and one line naming the file, not a RecursionError.
    So is a trace that is not JSON, or a trace or presentation not in UTF-8.
    So is a malformed presentation, which also names the line at fault."""
    nested = "JSON nested too deeply to read"
    texts = {f"nested_{n}.json": ("[" * n + "]" * n, nested) for n in (1_000, 5_000, 100_000)}
    data = trace_to_json(run_pipeline(3).trace)
    data["start"] = "START"
    texts["nested_start.json"] = (
        json.dumps(data).replace('"START"', "[" * 1_000 + "]" * 1_000), nested)
    texts["not_json.json"] = ("not json", "Expecting value: line 1 column 1 (char 0)")
    latin1 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    texts["latin1.json"] = (b"\xff{}", latin1)
    texts["latin1.txt"] = (b"\xffgens: c", latin1)
    texts["unparseable.txt"] = ("gens: c\nfoo bar\n", "line 2: unparseable line: 'foo bar'")
    texts["zero_exponent.txt"] = ("gens: c\n# r\nrel r: c^0\n",
                                  "line 3: zero exponent in token: 'c^0'")
    texts["no_gens.txt"] = ("rel r: c\n", "missing 'gens:' line")
    for name, (text, reason) in texts.items():
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        command = ("abelianize",) if name.endswith(".txt") else ("verify", "trace")
        proc = run_cli(*command, str(path), "--format", fmt)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {path}: {reason}\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command,target", [("verify trace", "missing.json"),
                                            ("verify trace", "."),
                                            ("abelianize", "missing.txt")])
def test_an_unreadable_file_is_a_usage_error(tmp_path, command, target, fmt):
    """A missing file or a directory is a usage error, exit 2, not the exit 1
    of a proof that fails: one file error line and no traceback."""
    proc = run_cli(*command.split(), str(tmp_path / target), "--format", fmt)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("file error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [("derive", "--s", "3", "--emit-trace"),
                                  ("surgery", "--s", "3", "--slope", "19/1", "--emit"),
                                  ("nlo", "--s", "3", "--slope", "19/1", "--cert")])
def test_an_unwritable_output_file_is_a_usage_error(tmp_path, argv, fmt):
    """An output file in a missing directory is a usage error: exit 2, one
    file error line, and nothing on stdout, though the command itself ran."""
    proc = run_cli(*argv, str(tmp_path / "missing" / "out.json"), "--format", fmt)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("file error: ")


@pytest.mark.parametrize("kind,field", [("RewriteRelator", "steps"),
                                        ("SubstituteEverywhere", "only_in")])
def test_verify_trace_rejects_a_string_for_a_list_field(tmp_path, kind, field):
    """A string in a list field is a malformed trace, not an identity move."""
    data = trace_to_json(run_pipeline(3).trace)
    i = next(i for i, move in enumerate(data["moves"])
             if move["kind"] == kind and move.get(field))
    data["moves"][i][field] = ""
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data))
    proc = run_cli("verify", "trace", str(trace_file))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"move {i}: field '{field}': expected a list" in proc.stderr


def test_h1_output():
    proc = run_cli("h1", "--s", "3", "--slope", "39/2", check=True)
    assert proc.stdout.strip() == "39"
    proc = run_cli("h1", "--s", "4", "--slope", "23/1", "--format", "json",
                   check=True)
    assert json.loads(proc.stdout)["order"] == 23


def _no_filling_word(s, slope):
    raise AssertionError(f"built the filling word of s={s} slope={slope}")


@pytest.mark.parametrize("argv,out", [
    (["h1", "--s", "3", "--slope", "100001/1000"], "100001"),
    (["h1", "--s", "3", "--slope=1000000007/1"], "1000000007"),
])
def test_h1_builds_no_filling_word(monkeypatch, capsys, argv, out):
    """h1 reads |H1| from exponent rows: a filling word of 10^9 letters is
    never built, so these answer at once."""
    monkeypatch.setattr(surgery, "surgered_presentation", _no_filling_word)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == out


def test_nlo_builds_no_filling_word(monkeypatch, capsys):
    """nlo and its certificate replay cite |H1| without building the filling,
    here on a slope of the dearest slope_ladder stratum of the benchmark."""
    monkeypatch.setattr(surgery, "surgered_presentation", _no_filling_word)
    assert cli.main(["nlo", "--s", "5", "--slope", "5675/162", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["replay"] == "OK"


def _no_power(word, n):
    raise AssertionError(f"took the power {n} of {word}")


@pytest.mark.parametrize("argv", [
    ["surgery", "--s", "5", "--slope", "5693/162"],
    ["surgery", "--s", "5", "--slope", "5693/162", "--format", "json"],
    ["verify", "induction", "--s", "5"],
    ["derive", "--s", "5", "--verify-induction"],
])
def test_closed_forms_take_no_word_power(monkeypatch, capsys, argv):
    """The filling c^p L^q and the closed forms of the induction oracles are
    built from their runs; only the power rule of nlo takes a Word power."""
    monkeypatch.setattr(Word, "__pow__", _no_power)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_abelianize_file(tmp_path):
    target = tmp_path / "filled.txt"
    run_cli("surgery", "--s", "3", "--slope", "19/1", "--emit", str(target),
            check=True)
    proc = run_cli("abelianize", str(target))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "19"
    missing = run_cli("abelianize", str(tmp_path / "nope.txt"))
    assert missing.returncode == 2


def test_surgery_rejects_bad_slope():
    proc = run_cli("surgery", "--s", "3", "--slope", "38/2")
    assert proc.returncode == 2
    assert "lowest terms" in proc.stderr


def test_nlo_exit_codes_and_cert_file(tmp_path):
    cert_file = tmp_path / "cert.json"
    proc = run_cli("nlo", "--s", "3", "--slope", "19/1", "--cert", str(cert_file))
    assert proc.returncode == 0
    saved = json.loads(cert_file.read_text())
    assert saved["verdict"] == "not_left_orderable"
    inconclusive_file = tmp_path / "none.json"
    proc = run_cli("nlo", "--s", "3", "--slope", "17/1", "--cert", str(inconclusive_file))
    assert proc.returncode == 3
    assert not inconclusive_file.exists()  # no certificate, so no file
    proc = run_cli("nlo", "--s", "3", "--slope", "18/1", "--format", "json")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["verdict"] == "inconclusive"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("s, p", [(10 ** 12, 10 ** 17 + 1), (10 ** 8, 4 * 10 ** 8 + 7)])
def test_h1_at_huge_s_builds_no_word(s, p):
    """|H1| comes from the closed forms' runs, so an s whose relator would have
    O(s) letters costs no more than s=3, under a 4 GB address space."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pretzel_pi1", "h1", "--s", str(s),
                           "--slope", f"{p}/1"], capture_output=True, text=True,
                          preexec_fn=_limit_memory, timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, f"{p}\n"), proc.stderr
    assert elapsed < 2


def test_nlo_depth_env():
    proc = run_cli("nlo", "--s", "3", "--slope", "19/1", "--format", "json",
                   env={"PRETZEL_PI1_DEPTH": "2"})
    assert proc.returncode == 3
    assert "budget" in json.loads(proc.stdout)["reason"]


def test_nlo_depth_env_malformed():
    bad = {"PRETZEL_PI1_DEPTH": "abc"}
    proc = run_cli("h1", "--s", "3", "--slope", "19/1", env=bad)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "19"
    proc = run_cli("nlo", "--s", "3", "--slope", "19/1", env=bad)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_parse_both_grammars():
    assert run_cli("parse", "c l C c L", check=True).stdout.strip() == "c"
    proc = run_cli("parse", "clcLCL^-3CLclcl^2", check=True)
    assert proc.stdout.strip() == "c l c l^-1 c^-1 l^-3 c^-1 l^-1 c l c l^2"
    assert run_cli("parse", "c^0").returncode == 2


@pytest.mark.parametrize("argv,exp", [
    (("parse", f"c^{2 ** 64}"), 2 ** 64),
    (("parse", f"c^{2 ** 64}", "--format", "json"), 2 ** 64),
    (("parse", f"cL^-{2 ** 64}", "--compact"), -2 ** 64),
    (("surgery", "--s", "3", "--slope", f"{2 ** 64}/1"), 2 ** 64),
    (("surgery", "--s", "3", "--slope", f"{2 ** 64}/1", "--format", "json"), 2 ** 64),
])
def test_an_exponent_past_sys_maxsize_is_a_usage_error(argv, exp):
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: " + too_large(exp))


@pytest.mark.parametrize("exp", [2 ** 61, 2 ** 62])
@pytest.mark.parametrize("argv", [
    ("parse", "c^{exp}"),
    ("parse", "c^{exp}", "--format", "json"),
    ("surgery", "--s", "3", "--slope", "{exp}/1"),
    ("surgery", "--s", "3", "--slope", "{exp}/1", "--format", "json"),
    ("surgery", "--s", "3", "--slope", "1/{exp}"),
    ("surgery", "--s", "3", "--slope", "1/{exp}", "--format", "json"),
])
def test_a_run_no_tuple_can_hold_is_a_usage_error(argv, exp):
    """A count below sys.maxsize that no tuple can hold is a usage error too,
    not a MemoryError traceback: a run of exp letters, or exp copies of L."""
    proc = run_cli(*(arg.format(exp=exp) for arg in argv))
    message = too_long_filling(exp) if "1/{exp}" in argv else too_large(exp)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: " + message)


def test_usage_errors_exit_two():
    assert run_cli("gen").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("gen", "--s", "2").returncode == 2


@pytest.mark.parametrize("script", [("reproduce.py", "--max-s", "4"), ("certify_slopes.py",)])
def test_scripts_run_clean(script):
    name, *argv = script
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("key,value,failure", [
    ("rel", "nope", {"detail": "move 48 failed", "failed_move": 48}),
    ("at", 10 ** 6, {"detail": "move 48 failed", "failed_move": 48}),
    ("conj", "z", {"detail": "move 48 broke the longitude", "failed_move": 48}),
    # a flipped inverse is still a sound insertion: only the end longitude differs
    ("inv", False, {"detail": "end longitude does not match"}),
])
def test_verify_trace_rejects_a_bad_v2_longitude_step(tmp_path, key, value, failure):
    """A longitude rewrite that cites a missing relator, inserts out of range
    or conjugates by an undeclared generator fails at its own move, the last
    of the s=3 trace; verify trace exits 1 and names the move."""
    data = trace_to_json(run_pipeline(3).trace)
    (step,) = data["moves"][48]["steps"]
    assert data["moves"][48]["kind"] == "RewriteLongitude" and step[key] != value
    step[key] = value
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(data, indent=2))
    proc = run_cli("verify", "trace", str(trace_file), "--check-abelian", "--format", "json")
    assert proc.returncode == 1
    assert_exact_json(proc, {"command": "verify trace", "file": str(trace_file),
                             "moves": 49, "passed": False, **failure})
    text = run_cli("verify", "trace", str(trace_file))
    assert text.returncode == 1 and "Traceback" not in text.stderr
    located = "FAIL move 48 RewriteLongitude [longitude_simplification]: "
    assert (located in text.stdout) == ("failed_move" in failure)
