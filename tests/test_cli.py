import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rewbench import cli
from rewbench.cli import main
from rewbench.parallel import WorkerDied


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_unit(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "normalize", "dab")
    assert (code, out) == (0, "1\n")


def test_normalize_empty_word_token(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "normalize", "1")
    assert (code, out) == (0, "1\n")


def test_normalize_zero_result(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "normalize", "aab")
    assert (code, out) == (0, "0\n")


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "--catalog", "M2",
                       "normalize", "adacab")
    assert code == 0
    assert json.loads(out) == {"input": "adacab", "normalForm": "a"}


def test_confluence_text_line(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "confluence")
    assert code == 0
    assert out == ("locally confluent: true, terminating: true, "
                   "critical pairs: 0\n")


def test_confluence_json_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "json", "--catalog", "M3",
                       "confluence")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"locallyConfluent": True, "terminating": True,
                   "criticalPairCount": 0, "unresolved": []}


def test_confluence_refuted_exit(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("generators: a b\nrelations:\nab = a\nba = b\n")
    code, out, _ = run(capsys, "--file", str(path), "confluence")
    assert code == 1
    assert "locally confluent: false" in out
    assert "unresolved:" in out


def test_confluence_json_lists_unresolved_pairs(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("generators: a b\nrelations:\nabb = 1\nab = 0\n")
    code, out, _ = run(capsys, "--format", "json", "--precedence", "ab",
                       "--file", str(path), "confluence")
    assert code == 1
    obj = json.loads(out)
    assert obj["locallyConfluent"] is False
    assert obj["unresolved"] == [{
        "rule1": 0, "rule2": 1, "overlapWord": "abb",
        "left": "1", "right": "0",
    }]


def test_equal_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "--catalog", "M2", "equal", "adacab", "a")
    assert (code, out) == (0, "equal: true\n")
    code, out, _ = run(capsys, "--catalog", "M2", "equal", "a", "b")
    assert (code, out) == (1, "equal: false\n")
    code, out, _ = run(capsys, "--catalog", "M2", "equal", "aab", "0")
    assert (code, out) == (0, "equal: true\n")
    path = tmp_path / "p.txt"
    path.write_text("generators: a b\nrelations:\nab = a\nba = b\n")
    code, out, _ = run(capsys, "--file", str(path), "equal", "a", "b")
    assert (code, out) == (2, "equal: undetermined\n")


def test_complete_text(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "complete")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "completed: true, rules: 5, steps: 0"
    assert "dab -> 1" in lines
    assert "aab -> 0" in lines


def test_complete_collapse_refuted(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("generators: a\nrelations:\na = 1\na = 0\n")
    code, out, _ = run(capsys, "--file", str(path), "complete")
    assert code == 1
    assert "collapsed" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ["complete"],
    ["dehn", "a", "a"],
    ["dehn-profile", "--n-max", "1"],
    ["probe", "a", "a", "--radius", "1"],
], ids=["complete", "dehn", "dehn-profile", "probe"])
def test_unorientable_input_is_an_input_error_before_the_subcommand(
        capsys, tmp_path, fmt, argv):
    # complete's own collapse report (exit 1) is for relations that
    # completion derives, not for one the input already states
    path = tmp_path / "p.txt"
    path.write_text("generators: a\nrelations:\n1 = 0\n")
    assert run(capsys, "--format", fmt, "--file", str(path), *argv) == (
        3, "", "error: relation 1 = 0 collapses the monoid; cannot orient\n")


def test_complete_limits_undetermined(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("generators: a b\nrelations:\naba = bab\n")
    code, out, _ = run(capsys, "--file", str(path), "complete",
                       "--max-rules", "6", "--max-steps", "200")
    assert code == 2
    assert "completed: false" in out


def test_enumerate_text_and_csv(capsys):
    code, out, _ = run(capsys, "--catalog", "M1", "enumerate",
                       "--max-len", "1")
    assert (code, out) == (0, "1\na\nb\nc\nd\n")
    code, out, _ = run(capsys, "--format", "csv", "--catalog", "M1",
                       "enumerate", "--max-len", "1")
    assert out == "length,word\n0,1\n1,a\n1,b\n1,c\n1,d\n"


def test_growth_formats(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "growth", "--max-len", "3")
    assert code == 0
    assert out == "0: 1\n1: 4\n2: 13\n3: 38\ntotal: 56\n"
    code, out, _ = run(capsys, "--format", "csv", "--catalog", "M2",
                       "growth", "--max-len", "2")
    assert out == "length,count\n0,1\n1,4\n2,13\n"
    code, out, _ = run(capsys, "--format", "json", "--catalog", "M2",
                       "growth", "--max-len", "3")
    assert json.loads(out) == {"maxLen": 3, "counts": [1, 4, 13, 38],
                               "total": 56}


def test_witness_constructive(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "witness", "b")
    assert (code, out) == (0, "x: d, y: 1\n")


def test_witness_normalizes_input_first(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "witness", "adacab")
    assert code == 0
    assert out == "x: 1, y: c\n"


def test_witness_zero_refuted(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "witness", "aab")
    assert code == 1
    assert "not a unit" in out


def test_witness_search_path(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "witness", "a")
    assert (code, out) == (0, "x: a, y: d\n")


def test_witness_search_undetermined(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "witness", "ca",
                       "--max-nodes", "3")
    assert code == 2
    assert "undetermined" in out


def test_probe_text(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "probe", "a", "aa",
                       "--radius", "9")
    assert code == 0
    assert out == "collapsed: true, merges: 24, trace length: 1\n"


def test_probe_zero_seed(capsys):
    code, out, _ = run(capsys, "--catalog", "M2", "probe", "1", "0",
                       "--radius", "3")
    assert code == 0


def test_probe_undetermined(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "probe",
                       "a", "b", "--radius", "2")
    assert code == 2
    assert "collapsed: false" in out


def test_probe_all_text_and_csv(capsys):
    code, out, _ = run(capsys, "--catalog", "M1", "probe-all",
                       "--seed-len", "1", "--radius", "9")
    assert code == 0
    assert out == ("pairs: 15, collapsed: 15, undetermined: 0, "
                   "worst trace length: 2\n")
    code, out, _ = run(capsys, "--format", "csv", "--catalog", "M1",
                       "probe-all", "--seed-len", "1", "--radius", "9")
    lines = out.splitlines()
    assert lines[0] == "seed_u,seed_v,status,trace_len,truncated"
    assert len(lines) == 16
    assert lines[1].startswith("0,1,collapsed,")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_probe_all_seed_longer_than_radius_is_input_error(capsys, jobs):
    assert run(capsys, "--jobs", jobs, "--catalog", "M2", "probe-all",
               "--seed-len", "3", "--radius", "2") == (
        3, "", "error: seed normal form 'aaa' is longer than radius 2\n")


def test_dehn_text(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "dehn",
                       "aabb", "bbaa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "area: 4"
    assert lines[1].startswith("derivation: aabb -> ")


def test_dehn_not_equal(capsys):
    code, out, _ = run(capsys, "--catalog", "M1", "dehn", "a", "b")
    assert (code, out) == (1, "not equal\n")


def test_dehn_resource_limit(capsys):
    code, out, _ = run(capsys, "--catalog", "dehn-example", "dehn",
                       "aaaabbbb", "bbbbaaaa", "--max-nodes", "5")
    assert code == 2
    assert "resource limit" in out


def test_dehn_max_len_below_input_is_input_error(capsys):
    assert run(capsys, "--catalog", "dehn-example", "dehn", "aabb", "bbaa",
               "--max-len", "3") == (
        3, "", "error: max_len is smaller than an input word\n")


def test_dehn_profile_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "--catalog",
                       "dehn-example", "dehn-profile", "--n-max", "4")
    assert code == 0
    assert out == ("n,d,witness_u,witness_v,limited_pairs\n"
                   "0,0,1,1,0\n1,0,1,1,0\n2,1,1,cd,0\n"
                   "3,1,1,cd,0\n4,2,1,cabd,0\n")


def test_dehn_profile_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "--catalog", "M1",
                       "dehn-profile", "--n-max", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["nMax"] == 2
    assert [row["d"] for row in obj["rows"]] == [0, 0, 1]
    assert obj["limitedPairs"] == 0


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify-identities", "--n", "2")
    assert code == 0
    assert out.splitlines()[-1] == "all identities hold: true"


def test_verify_identities_rejects_source(capsys):
    code, _, err = run(capsys, "--catalog", "M2", "verify-identities",
                       "--n", "2")
    assert code == 3
    assert "no input system" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["M1", "M2", "M3", "M4", "M5", "M6", "dehn-example"]


def test_catalog_dump_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "dump", "M1")
    assert code == 0
    assert "generators: a b c d" in out
    assert "ab = 0" in out


def test_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "--catalog", "M2", "normalize", "xyz")
    assert code == 3 and "letter" in err
    code, _, err = run(capsys, "normalize", "a")
    assert code == 3 and "--catalog or --file" in err
    code, _, err = run(capsys, "--catalog", "M70", "normalize", "a")
    assert code == 3 and "capped" in err
    code, _, err = run(capsys, "--catalog", "nope", "normalize", "a")
    assert code == 3
    code, _, err = run(capsys, "--file", str(tmp_path / "missing.txt"),
                       "normalize", "a")
    assert code == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("generators: a b\nab = ba\n")
    code, _, err = run(capsys, "--file", str(bad), "normalize", "a")
    assert code == 3 and ("line 2" in err or "relations" in err)
    bad.write_bytes(b"\xff")
    code, out, err = run(capsys, "--file", str(bad), "normalize", "a")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1
    code, _, err = run(capsys, "--format", "csv", "--catalog", "M2",
                       "normalize", "a")
    assert code == 3 and "csv" in err
    assert run(capsys, "--catalog", "M2", "--jobs", "0", "probe-all",
               "--seed-len", "1", "--radius", "3") == (
        3, "", "error: --jobs must be >= 1\n")
    code, _, _ = run(capsys, "--catalog", "M2", "probe", "aa", "1",
                     "--radius", "1")
    assert code == 3


_FILES = {"comm.rws": "generators: a b\nrelations:\nab = ba\n",
          "collapse.rws": "generators: a\nrelations:\na = 1\na = 0\n"}

# (argv, exit code, text stdout, JSON value, csv stdout or None when the
# subcommand has no csv form).  Outputs of more than a few hundred bytes
# are pinned by their SHA-256.
FORMAT_CASES = [
    (["--catalog", "M2", "normalize", "adacab"], 0,
     "a\n",
     {"input": "adacab", "normalForm": "a"},
     None),
    (["--catalog", "M2", "equal", "aadb", "a"], 1,
     "equal: false\n",
     {"decidedByCompleteSystem": True, "equal": False, "u": "aadb", "v": "a"},
     None),
    (["--catalog", "dehn-example", "confluence"], 0,
     "locally confluent: true, terminating: true, critical pairs: 0\n",
     {"criticalPairCount": 0,
      "locallyConfluent": True,
      "terminating": True,
      "unresolved": []},
     None),
    (["--file", "comm.rws", "--precedence", "ba", "complete"], 0,
     "completed: true, rules: 1, steps: 0\nab -> ba\n",
     {"completed": True,
      "reason": "",
      "rules": [{"lhs": "ab", "rhs": "ba"}],
      "steps": 0},
     None),
    (["--file", "collapse.rws", "complete"], 1,
     ("completed: false, collapsed: completion derived 1 = 0; the mono"
      "id collapses to zero\n"),
     {"collapsed": True,
      "completed": False,
      "reason": "completion derived 1 = 0; the monoid collapses to zero"},
     None),
    (["--catalog", "M1", "enumerate", "--max-len", "1"], 0,
     "1\na\nb\nc\nd\n",
     {"count": 5, "maxLen": 1, "normalForms": ["1", "a", "b", "c", "d"]},
     "length,word\n0,1\n1,a\n1,b\n1,c\n1,d\n"),
    (["--catalog", "M1", "growth", "--max-len", "2"], 0,
     "0: 1\n1: 4\n2: 12\ntotal: 17\n",
     {"counts": [1, 4, 12], "maxLen": 2, "total": 17},
     "length,count\n0,1\n1,4\n2,12\n"),
    (["--catalog", "M1", "witness", "b"], 0,
     "x: d, y: 1\n",
     {"method": "constructive", "unit": True, "word": "b", "x": "d", "y": "1"},
     None),
    (["--catalog", "dehn-example", "witness", "a"], 0,
     "x: a, y: d\n",
     {"method": "search", "unit": True, "word": "a", "x": "a", "y": "d"},
     None),
    (["--catalog", "M1", "probe", "a", "b", "--radius", "2"], 0,
     "collapsed: true, merges: 12, trace length: 1\n",
     {"classCount": 6,
      "collapsed": True,
      "merges": 12,
      "radius": 2,
      "traceLength": 1,
      "truncated": 46,
      "universeSize": 18},
     None),
    (["--catalog", "M1", "probe-all", "--seed-len", "0", "--radius", "2"], 0,
     "pairs: 1, collapsed: 1, undetermined: 0, worst trace length: 1\n",
     {"collapsedCount": 1,
      "radius": 2,
      "rows": [{"collapsed": True, "traceLength": 1, "truncated": 0,
                "u": "0", "v": "1"}],
      "undeterminedCount": 0,
      "undeterminedWithoutTruncation": 0,
      "universeSize": 18,
      "worstTraceLength": 1},
     "seed_u,seed_v,status,trace_len,truncated\n0,1,collapsed,1,0\n"),
    (["--catalog", "dehn-example", "dehn", "ab", "ba"], 0,
     "area: 1\nderivation: ab -> ba\n",
     {"derivation": ["ab", "ba"], "reason": "", "status": "area", "steps": 1},
     None),
    (["--catalog", "dehn-example", "dehn-profile", "--n-max", "2"], 0,
     "D(0) = 0\nD(1) = 0\nD(2) = 1  witness: 1 ~ cd\nresolved pairs: 1\n",
     {"incompleteClasses": [],
      "limitedPairs": 0,
      "maxLen": 6,
      "nMax": 2,
      "resolvedPairs": 1,
      "rows": [{"d": 0, "limitedPairs": 0, "n": 0,
                "witnessU": "1", "witnessV": "1"},
               {"d": 0, "limitedPairs": 0, "n": 1,
                "witnessU": "1", "witnessV": "1"},
               {"d": 1, "limitedPairs": 0, "n": 2,
                "witnessU": "1", "witnessV": "cd"}]},
     ("n,d,witness_u,witness_v,limited_pairs\n"
      "0,0,1,1,0\n"
      "1,0,1,1,0\n"
      "2,1,1,cd,0\n")),
    (["verify-identities", "--n", "1"], 0,
     "sha256:4b07af412a5ca92a2ecd25b712ed72d5fafdc6a62b86b2f70bd457e99c18fe1f",
     "sha256:1106db42c9a10d57372d61a5964bcf19279c50e614053881875a0b4437281649",
     None),
    (["catalog", "list"], 0,
     ("M1: congruence-free monoid on a,b,c,d with a^1 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 1\n"
      "M2: congruence-free monoid on a,b,c,d with a^2 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 2\n"
      "M3: congruence-free monoid on a,b,c,d with a^3 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 3\n"
      "M4: congruence-free monoid on a,b,c,d with a^4 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 4\n"
      "M5: congruence-free monoid on a,b,c,d with a^5 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 5\n"
      "M6: congruence-free monoid on a,b,c,d with a^6 b = 0, ac = 1, d"
      "b = 1, dc = 1, d a^k b = 1 for 0 < k < 6\n"
      "dehn-example: commutation-driven example: ab = ba, cbad = 1, cb"
      "^2 = 1, a^2 d = 1, cad = 0, cbd = 0, cd = 1; minimal derivation"
      " areas grow quadratically\n"),
     "sha256:5b066105d8723709716f2e2d042aeeb72aa54270b6f1c657df5e5b8007701456",
     ("name,generators,precedence,relations\n"
      "M1,abcd,abcd,4\n"
      "M2,abcd,abcd,5\n"
      "M3,abcd,abcd,6\n"
      "M4,abcd,abcd,7\n"
      "M5,abcd,abcd,8\n"
      "M6,abcd,abcd,9\n"
      "dehn-example,abcd,bacd,7\n")),
    (["catalog", "dump", "M1"], 0,
     "generators: a b c d\nrelations:\nab = 0\nac = 1\ndb = 1\ndc = 1\n",
     {"generators": "abcd",
      "name": "M1",
      "precedence": "abcd",
      "provenance": "congruence-free monoid on a,b,c,d with a^1 b = 0, ac = "
                    "1, db = 1, dc = 1, d a^k b = 1 for 0 < k < 1",
      "relations": [["ab", "0"], ["ac", "1"], ["db", "1"], ["dc", "1"]]},
     None),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv,code,text,obj,table", FORMAT_CASES,
                         ids=[" ".join(c[0]) for c in FORMAT_CASES])
def test_every_subcommand_in_every_format(capsys, tmp_path, fmt, argv, code,
                                          text, obj, table):
    for name, content in _FILES.items():
        (tmp_path / name).write_text(content)
    argv = [str(tmp_path / a) if a in _FILES else a for a in argv]
    if fmt == "text":
        expected = (code, text, "")
    elif fmt == "json":
        expected = (code, obj if isinstance(obj, str) else
                    json.dumps(obj, sort_keys=True, indent=2) + "\n", "")
    elif table is not None:
        expected = (code, table, "")
    else:
        subcommand = next(a for a in argv if a in cli._HANDLERS)
        expected = (3, "", f"error: {subcommand} has no csv form\n")
    got_code, out, err = run(capsys, "--format", fmt, *argv)
    if expected[1].startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (got_code, out, err) == expected


@pytest.mark.parametrize("argv", [
    ["--catalog", "dehn-example", "dehn", "ab", "ba", "--max-nodes", "-3"],
    ["--catalog", "dehn-example", "witness", "a", "--max-len", "-1"],
    ["--catalog", "dehn-example", "witness", "a", "--max-nodes", "-1"],
    ["--catalog", "M2", "complete", "--max-rules", "-1"],
    ["--catalog", "M2", "complete", "--max-word-len", "-1"],
    ["--catalog", "M2", "complete", "--max-steps", "-1"],
])
def test_negative_budgets_are_input_errors(capsys, argv):
    flag = argv[-2]
    assert run(capsys, *argv) == (3, "", f"error: {flag} must be >= 0\n")
    code, _, err = run(capsys, *argv[:-1], "0")
    assert code != 3 and err == ""


@pytest.mark.parametrize("target,argv", [
    ("probe_all_pairs", ["--catalog", "M2", "probe-all", "--seed-len", "1",
                         "--radius", "3"]),
    ("dehn_profile", ["--catalog", "dehn-example", "dehn-profile",
                      "--n-max", "3"]),
])
@pytest.mark.parametrize("exc", [WorkerDied, KeyboardInterrupt])
def test_worker_crash_or_interrupt_exits_2_without_traceback(
        capsys, monkeypatch, target, argv, exc):
    def fail(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(cli, target, fail)
    code, out, err = run(capsys, "--jobs", "2", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_memory_exits_2_with_one_error_line(tmp_path):
    # a free monoid's ball of radius 16 needs about 90 MB; the child alone
    # gets a 64 MB address space, so the probe fails to allocate
    resource = pytest.importorskip("resource")
    cap = 64 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = tmp_path / "free.rws"
    path.write_text("generators: a b\nrelations:\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "rewbench.cli", "--file", str(path), "probe",
         "a", "b", "--radius", "16"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) \
        == (2, "", "error: out of memory\n")


_TRIVIAL = "generators: a b\nrelations:\nab = ab\nba = ab\n1 = 1\nab = ab\n"


@pytest.mark.parametrize("argv,code,out,error", [
    (["normalize", "bab"], 0, "abb\n", ""),
    (["complete"], 0, "completed: true, rules: 1, steps: 0\nba -> ab\n", ""),
    (["dehn", "ba", "ab"], 0, "area: 1\nderivation: ba -> ab\n", ""),
    (["normalize", "xyz"], 3, "", "error: letter 'x' not in alphabet 'ab'\n"),
], ids=["normalize", "complete", "dehn", "input-error"])
@pytest.mark.parametrize("action", ["default", "error"])
def test_trivial_relation_warns_once_per_message(capsys, tmp_path, argv, code,
                                                 out, error, action):
    path = tmp_path / "trivial.rws"
    path.write_text(_TRIVIAL)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        got = run(capsys, "--file", str(path), *argv)
    assert got == (code, out, "warning: skipping trivial relation ab = ab\n"
                   "warning: skipping trivial relation 1 = 1\n" + error)


def test_unknown_subcommand_exits_3(capsys):
    assert main(["frobnicate"]) == 3


def test_no_subcommand_exits_3(capsys):
    assert main([]) == 3


def test_byte_identical_reruns(capsys):
    first = run(capsys, "--format", "json", "--catalog", "M2", "probe-all",
                "--seed-len", "1", "--radius", "9")
    second = run(capsys, "--format", "json", "--catalog", "M2", "probe-all",
                 "--seed-len", "1", "--radius", "9")
    assert first == second
    parallel = run(capsys, "--jobs", "2", "--format", "json", "--catalog",
                   "M2", "probe-all", "--seed-len", "1", "--radius", "9")
    assert parallel == first


def test_file_system_full_pipeline(capsys, tmp_path):
    path = tmp_path / "comm.txt"
    path.write_text("generators: a b\nrelations:\nab = ba\n")
    code, out, _ = run(capsys, "--file", str(path), "normalize", "ab")
    assert (code, out) == (0, "ab\n")
    code, out, _ = run(capsys, "--file", str(path), "--precedence", "ba",
                       "normalize", "ab")
    assert (code, out) == (0, "ba\n")
    code, out, _ = run(capsys, "--file", str(path), "growth",
                       "--max-len", "2")
    assert code == 0
    assert out == "0: 1\n1: 2\n2: 3\ntotal: 6\n"
