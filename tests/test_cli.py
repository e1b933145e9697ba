import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nlie import cli
from nlie.cli import main
from nlie.core import parse_algebra, serialize_algebra, serialize_subspace
from nlie.catalog import catalog_build
from nlie.fields import GF, QQ
from nlie.linalg import coordinate_subspace

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def ex33_path(tmp_path):
    path = tmp_path / "ex33.json"
    path.write_text(serialize_algebra(catalog_build("EX33", QQ)))
    return str(path)


@pytest.fixture
def ex41_path(tmp_path):
    path = tmp_path / "ex41.json"
    path.write_text(serialize_algebra(catalog_build("EX41", QQ)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid_document(capsys, ex33_path):
    code, out, _ = run(capsys, "check", ex33_path)
    assert code == 0
    assert "fundamental identity: holds" in out


def test_check_invalid_algebra_exits_1(capsys, ex41_path):
    code, out, _ = run(capsys, "check", ex41_path)
    assert code == 1
    assert "violated" in out


def test_report_verb(capsys, ex33_path):
    code, out, _ = run(capsys, "report", ex33_path)
    assert code == 0
    assert "derived dim: 1" in out
    assert "nilpotent: True" in out


def test_center_verb(capsys, ex33_path):
    code, out, _ = run(capsys, "center", ex33_path)
    assert code == 0
    assert "center dim 1" in out


def test_derived_verb(capsys, ex33_path):
    code, out, _ = run(capsys, "derived", ex33_path, "--s", "3")
    assert code == 0
    assert "3-derived series dims: [4, 1, 0]" in out


def test_alphabeta_modular(capsys, ex41_path):
    code, out, _ = run(capsys, "alphabeta", ex41_path, "--p", "3")
    assert code == 0
    assert "alpha = 4, beta = 1" in out


def test_alphabeta_over_q_unsupported(capsys, ex33_path):
    code, _, err = run(capsys, "alphabeta", ex33_path)
    assert code == 3
    assert "unsupported" in err


def test_alphabeta_q_bounds(capsys, ex33_path):
    code, out, _ = run(capsys, "alphabeta", ex33_path, "--q-bounds")
    assert code == 0
    assert "alpha >= 3" in out


def test_catalog_build_parameter_error(capsys, tmp_path):
    code, _, err = run(capsys, "catalog", "build", "T35-b6",
                       "--dim", "6", "--alpha", "0")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("argv, message", [
    (["catalog", "build", "EX31", "--dim", "5"], "EX31 takes no parameters, got m"),
    (["catalog", "build", "T34-a1", "--n", "5"], "T34-a1 takes m, got n"),
    (["catalog", "build", "L21-c2", "--dim", "5", "--n", "4"], "L21-c2 takes n, alpha, got m"),
    (["lie-catalog", "upper", "--dim", "4"], "upper takes n, got dim"),
    (["lie-catalog", "affine", "--n", "3"], "affine takes dim, got n"),
])
def test_parameter_a_family_does_not_take_is_named_from_the_registry(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, dim", [
    (["catalog", "build", "T34-a1", "--dim", "5"], 5),
    (["lie-catalog", "upper", "--n", "2"], 3),
])
def test_parameter_a_family_takes_builds(capsys, argv, dim):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert parse_algebra(json.dumps(json.loads(out)["result"])).dim == dim


def test_catalog_build_and_check_roundtrip(capsys, tmp_path):
    out_path = str(tmp_path / "b6.json")
    code, _, _ = run(capsys, "catalog", "build", "T35-b6",
                     "--dim", "6", "--alpha", "2", "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0


def test_catalog_list_json_is_deterministic(capsys):
    code, out1, _ = run(capsys, "catalog", "list", "--json")
    code, out2, _ = run(capsys, "catalog", "list", "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "nlie-report-v1"
    assert any(f["id"] == "T44-3" for f in doc["result"]["families"])


def test_json_report_deterministic(capsys, ex33_path):
    _, out1, _ = run(capsys, "report", ex33_path, "--json")
    _, out2, _ = run(capsys, "report", ex33_path, "--json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verb"] == "report"
    assert doc["result"]["derived_dim"] == 1


def test_classify_verb(capsys, tmp_path, ex33_path):
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(serialize_subspace(coordinate_subspace(QQ, 4, (0, 3))))
    code, out, _ = run(capsys, "classify", ex33_path, str(sub_path))
    assert code == 0
    assert "is_abelian_ideal: True" in out


def test_assoc_lie_verb(capsys, tmp_path, ex33_path):
    code, out, _ = run(capsys, "assoc-lie", ex33_path, "--w", "0,0,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 2


def test_assoc_lie_bad_vector(capsys, ex33_path):
    code, _, err = run(capsys, "assoc-lie", ex33_path, "--w", "1,2")
    assert code == 2


def test_extend_verb(capsys, tmp_path):
    lie_path = tmp_path / "heis.json"
    code, out, _ = run(capsys, "lie-catalog", "heisenberg", "--dim", "3",
                       "--out", str(lie_path))
    assert code == 0
    code, out, _ = run(capsys, "extend", str(lie_path))
    assert code == 0
    L = parse_algebra(out)
    assert L.arity == 3 and L.dim == 4


def test_sum_verb(capsys, tmp_path, ex33_path):
    code, out, _ = run(capsys, "sum", ex33_path, ex33_path)
    assert code == 0
    L = parse_algebra(out)
    assert L.dim == 8


def test_fingerprint_verb(capsys, ex33_path):
    code, out, _ = run(capsys, "fingerprint", ex33_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["derived_dim"] == 1
    assert doc["result"]["alpha_beta"] is None


def test_iso_verb_exit_codes(capsys, tmp_path):
    p1 = tmp_path / "b4.json"
    p2 = tmp_path / "b5.json"
    p1.write_text(serialize_algebra(catalog_build("T35-b4", GF(2), m=4)))
    p2.write_text(serialize_algebra(catalog_build("T35-b5", GF(2), m=4)))
    code, out, _ = run(capsys, "iso", str(p1), str(p2))
    assert code == 1
    assert "verdict: no" in out
    code, out, _ = run(capsys, "iso", str(p1), str(p1))
    assert code == 0
    assert "verdict: yes" in out


def test_classify44_verb(capsys, ex33_path):
    code, out, _ = run(capsys, "classify44", ex33_path)
    assert code == 0
    assert "case: 3-solvable" in out


def test_verify_paper_single_criterion(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "2")
    assert code == 0
    assert "criterion 2 [PASS]" in out


@pytest.mark.parametrize("only,unknown", [
    (["10"], 10), (["0"], 0), (["1", "10"], 10),
], ids=["10", "0", "1-and-10"])
def test_verify_paper_unknown_criterion_runs_none(capsys, only, unknown):
    argv = [arg for number in only for arg in ("--only", number)]
    code, out, err = run(capsys, "verify-paper", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: unknown criterion: {unknown}\n"


def test_derived_s_above_arity_is_unsupported(capsys, tmp_path):
    lie_path = tmp_path / "affine.json"
    run(capsys, "lie-catalog", "affine", "--dim", "2", "--out", str(lie_path))
    code, _, err = run(capsys, "derived", str(lie_path), "--s", "3")
    assert code == 3
    assert "arity" in err


def test_derived_takes_any_s_from_2_to_the_arity(capsys, tmp_path):
    path = str(tmp_path / "b1.json")
    run(capsys, "catalog", "build", "L21-b1", "--n", "4", "--out", path)
    code, out, _ = run(capsys, "derived", path, "--s", "4")
    assert code == 0
    assert "4-derived series dims: [5, 1, 0]" in out
    code, _, err = run(capsys, "derived", path, "--s", "5")
    assert code == 3
    assert "s=5 exceeds the arity 4" in err
    code, _, err = run(capsys, "derived", path, "--s", "1")
    assert code == 2
    assert "s must be in 2..4, got 1" in err


@pytest.mark.parametrize("field,ambient,message", [
    (GF(2), 4, "field mismatch"),
    (QQ, 5, "ambient dimension mismatch"),
], ids=["field", "ambient"])
def test_classify_field_mismatch_is_usage_error(capsys, tmp_path, ex33_path,
                                                field, ambient, message):
    sub_path = tmp_path / "sub.json"
    sub_path.write_text(serialize_subspace(coordinate_subspace(field, ambient, (0,))))
    code, _, err = run(capsys, "classify", ex33_path, str(sub_path))
    assert code == 2
    assert message in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/file.json")
    assert code == 2


def test_directory_argument_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_non_utf8_document_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"format": "nlie-v1", "labels": ["\xe9"]}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error: ")


def test_catalog_build_alpha_parsed_in_target_field(capsys):
    code, _, err = run(capsys, "catalog", "build", "T35-b6", "--dim", "5",
                       "--alpha", "1/2", "--p", "3")
    assert code == 2
    assert "GF(3)" in err


@pytest.mark.parametrize("argv", [
    ["catalog", "build", "EX33"],
    ["lie-catalog", "heisenberg", "--dim", "3"],
    ["iso", "EX33_PATH", "EX33_PATH"],
    ["alphabeta", "EX33_PATH"],
], ids=lambda argv: argv[0])
def test_zero_modulus_is_usage_error(capsys, ex33_path, argv):
    argv = [ex33_path if a == "EX33_PATH" else a for a in argv]
    code, out, err = run(capsys, *argv, "--p", "0")
    assert code == 2
    assert "modulus must be prime: 0" in err
    assert out == ""


@pytest.fixture
def ex33_gf2_path(tmp_path):
    path = tmp_path / "ex33_gf2.json"
    path.write_text(serialize_algebra(catalog_build("EX33", GF(2))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["iso", "D", "D"],
    ["alphabeta", "D"],
    ["classify44", "D"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("p", ["3", "0"])
def test_other_modulus_on_prime_field_document_is_usage_error(capsys, ex33_gf2_path,
                                                              argv, p):
    argv = [ex33_gf2_path if a == "D" else a for a in argv]
    code, out, err = run(capsys, *argv, "--p", p)
    assert code == 2
    assert f"--p {p} does not match the document's field GF(2)" in err
    assert out == ""
    # the document's own prime is accepted
    code, _, _ = run(capsys, *argv, "--p", "2")
    assert code == 0


def test_alphabeta_budget_stop_is_undecided(capsys, ex33_path, ex33_gf2_path):
    """A search stopped by its budget leaves alpha/beta undecided: exit 3, the
    stopped searches named, and no claim that the primes agree.  The budget
    bounds the subspaces tested, the count reported: on EX33 the alpha scan
    starts at the alpha bound 3 and hits at the first subspace it tests,
    and the beta search then tries 1 candidate ideal at p = 2 and at p = 3."""
    code, out, _ = run(capsys, "alphabeta", ex33_path, "--p", "2", "--budget", "0")
    assert code == 3
    assert "primes agree" not in out
    assert "undecided: alpha scan stopped in dimension 3 after 0 subspaces: budget 0" in out
    code, out, _ = run(capsys, "alphabeta", ex33_path, "--p", "2", "--p", "3",
                       "--budget", "1", "--json")
    assert code == 3
    runs = json.loads(out)["result"]["runs"]
    assert [(r["alpha_exact"], r["beta_exact"]) for r in runs] == [(True, False)] * 2
    assert [r["subspaces_scanned"] for r in runs] == [1, 1]
    note = "beta search stopped after 0 candidate ideals: budget 1"
    assert [r["notes"] for r in runs] == [[note], [note]]
    code, out, _ = run(capsys, "alphabeta", ex33_gf2_path, "--budget", "1")
    assert code == 3
    assert "alpha = 3, beta = None" in out
    assert "undecided: beta search stopped after 0 candidate ideals: budget 1" in out
    code, out, _ = run(capsys, "alphabeta", ex33_gf2_path, "--budget", "2")
    assert code == 0
    assert "alpha = 3, beta = 2 (exact over GF(2); 2 subspaces)" in out
    code, out, _ = run(capsys, "alphabeta", ex33_path, "--p", "2", "--p", "3")
    assert code == 0
    assert "primes agree: True" in out


def test_alphabeta_budget_counts_only_the_subspaces_tested(capsys, tmp_path):
    """T44-3 over GF(3) at m = 10 has 72,636,421 subspaces in its alpha
    level, but the alpha scan starts at the alpha bound 8 and its first test
    hits, and beta needs no closure: a budget of 1 decides both."""
    path = tmp_path / "t44_3.json"
    path.write_text(serialize_algebra(catalog_build("T44-3", GF(3), m=10)))
    for budget in ([], ["--budget", "1"]):
        code, out, _ = run(capsys, "alphabeta", str(path), *budget)
        assert code == 0
        assert out == "alpha = 8, beta = 6 (exact over GF(3); 1 subspaces)\n"
    code, out, _ = run(capsys, "alphabeta", str(path), "--budget", "0")
    assert code == 3
    assert "undecided: alpha scan stopped in dimension 8 after 0 subspaces: budget 0" in out


@pytest.mark.parametrize("verb", [["alphabeta", "D"], ["iso", "D", "D"], ["classify44", "D"]])
@pytest.mark.parametrize("value", ["-1", "x"])
def test_budget_must_be_a_count(capsys, ex33_path, verb, value):
    """``--budget`` is a count of work: a negative or non-integer value is a
    usage error (exit 2), in every verb that takes it."""
    argv = [ex33_path if a == "D" else a for a in verb]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --budget: must be an integer >= 0, got '{value}'" in err


def test_derived_steps_is_a_count(capsys, tmp_path):
    """``--steps`` is a count: a negative value is a usage error (exit 2)
    with the message of ``--budget``, and 0 shows the first term only.  On
    EX42 at m = 6 the 2-derived series is [6, 3, 0]."""
    path = str(tmp_path / "ex42.json")
    run(capsys, "catalog", "build", "EX42", "--dim", "6", "--out", path)
    for value in ("-1", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["derived", path, "--steps", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --steps: must be an integer >= 0, got '{value}'" in err
    for steps, dims in (("0", [6]), ("1", [6, 3]), ("2", [6, 3, 0]), ("5", [6, 3, 0])):
        code, out, _ = run(capsys, "derived", path, "--steps", steps)
        assert code == 0
        assert f"2-derived series dims: {dims}\n" in out


def test_alphabeta_refuses_q_bounds_it_would_ignore(capsys, ex33_path, ex33_gf2_path):
    """``--q-bounds`` is for a document over Q alone: on a GF(p) document,
    or with ``--p`` on a Q document, it is refused (exit 2, nothing on
    stdout) instead of being ignored."""
    for argv, message in (
            ([ex33_gf2_path, "--q-bounds"], "conflicts with a document over GF(2)"),
            ([ex33_path, "--q-bounds", "--p", "2"], "conflicts with --p")):
        code, out, err = run(capsys, "alphabeta", *argv)
        assert (code, out) == (2, "")
        assert message in err


@pytest.mark.parametrize("verb", [["alphabeta", "D"], ["verify-paper"]])
def test_threads_option_is_gone(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main(verb + ["--threads", "2"])
    assert exc.value.code == 2


def test_malformed_document_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2


def test_dense_full_space_over_the_limit_is_refused(tmp_path):
    """On a table of dim 100,000, empty (EMPTY) or with one bracket (ONE),
    the calls that need the whole space as m unit vectors, or the centre as
    a dense kernel basis, exit 3 before building its 10^10 scalars; ``check``
    needs neither and answers.  Run under an address-space limit, so that
    building either fails with MemoryError instead of exhausting the
    machine."""
    head = '{"format":"nlie-v1","arity":3,"dim":100000,"field":"Q","brackets":['
    (tmp_path / "EMPTY").write_text(head + "]}")
    (tmp_path / "ONE").write_text(head + '{"on":[1,2,3],"val":{"4":"1"}}]}')
    code = (
        "import contextlib, io, os, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))\n"
        "from nlie.cli import main\n"
        "for line in sys.argv[2:]:\n"
        "    argv = line.split()\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        rc = main([os.path.join(sys.argv[1], a) if a.isupper() else a for a in argv])\n"
        "    print(line, rc, (out.getvalue() + err.getvalue()).strip())\n")
    calls = ["center EMPTY", "report EMPTY", "fingerprint EMPTY", "check EMPTY",
             "center ONE", "alphabeta EMPTY --p 2", "alphabeta ONE --p 3"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)] + calls, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    refused = ("error: dim 100000 is too large: the dense full space needs "
               "m^2 = 10000000000 scalars, more than 10000000")
    kernel = ("error: dim 100000 is too large: the dense kernel basis needs "
              "(m - rank) * m = 9999700000 scalars, more than 10000000")
    assert proc.stdout.splitlines() == [
        f"center EMPTY 3 {refused}", f"report EMPTY 3 {refused}",
        f"fingerprint EMPTY 3 {refused}", "check EMPTY 0 fundamental identity: holds",
        f"center ONE 3 {kernel}", f"alphabeta EMPTY --p 2 3 {refused}",
        f"alphabeta ONE --p 3 3 {kernel}"]


_VERBS = ["check", "report", "center", "derived", "classify", "alphabeta", "assoc-lie",
          "extend", "sum", "catalog", "lie-catalog", "fingerprint", "iso", "classify44",
          "verify-paper"]


# help, version, abbreviation and usage-error argvs; DOC stands for an EX33
# document (``scripts/capture_outputs.py`` digests the answers to these too)
PARSER_ARGVS = [
    ["--help"], ["--version"], [], ["bogus"], ["-h"], ["--json"],
    ["check", "--bogus", "x"], ["check"], ["check", "--version"], ["catalog", "build"],
    ["derived", "x", "--s", "two"], ["alphabeta"],
    ["check", "--js", "DOC"], ["check", "DOC", "--bogus"], ["check", "DOC", "extra"],
    ["check", "--", "--json"], ["derived", "DOC", "--s"],
    ["alphabeta", "DOC", "--budget", "-1"], ["iso", "DOC"],
] + [[verb, "--help"] for verb in _VERBS]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_of_one_verb_answers_like_the_full_parser(capsys, monkeypatch, ex33_path, argv):
    """When argv names a verb only that verb's parser is built; abbreviations,
    help, version and usage errors (exit code, stdout and stderr) stay those
    of ``main`` with the parser of every verb, ``build_parser()``, parsing
    all of argv.  DOC stands for an EX33 document."""
    argv = [ex33_path if a == "DOC" else a for a in argv]

    def outcome():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setenv("COLUMNS", "80")
    assert list(cli.VERBS) == _VERBS
    one = outcome()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert one == outcome()
    assert one[0] in (0, 2)


def test_each_call_builds_its_own_parser(capsys, monkeypatch, ex33_path):
    """A successful verb call constructs exactly one ArgumentParser, and the
    next call constructs its own: no parser is kept between calls."""
    init, built = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["check", ex33_path]) == 0
    assert built == ["nlie check"]
    assert main(["check", ex33_path]) == 0
    assert built == ["nlie check", "nlie check"]
