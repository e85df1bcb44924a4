import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hdmcg.cli import SUITE_NAMES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_abelianization_json(capsys):
    code, out, _ = run(capsys, "abelianization", "--g", "2", "--n", "7",
                       "--group", "mcg", "--format", "json")
    assert code == 0
    assert out.strip() == '{"rank": 0, "torsion": [2, 2]}'


def test_abelianization_variants(capsys):
    code, out, _ = run(capsys, "abelianization", "--g", "1", "--n", "5",
                       "--group", "torelli", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rank": 0, "torsion": [992]}
    code, out, _ = run(capsys, "abelianization", "--g", "3", "--n", "9",
                       "--group", "gg")
    assert code == 0
    assert out.strip() == "Z/4"
    code, out, _ = run(capsys, "abelianization", "--g", "1", "--n", "9",
                       "--group", "halfmcg", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rank": 1, "torsion": [2, 4]}


def test_json_round_trips_byte_identically(capsys):
    for argv in (("abelianization", "--g", "1", "--n", "9", "--format", "json"),
                 ("splits", "--g", "1", "--n", "7", "--format", "json"),
                 ("theta", "--n", "7", "--format", "json"),
                 ("boundary", "--n", "7", "--sgn", "0", "--chi2", "8",
                  "--format", "json")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_boundary_text(capsys):
    code, out, _ = run(capsys, "boundary", "--n", "7", "--sgn", "0",
                       "--chi2", "8")
    assert code == 0
    assert out.strip() == "Sigma_Q"
    code, out, _ = run(capsys, "boundary", "--n", "7", "--sgn", "8",
                       "--chi2", "0")
    assert out.strip() == "Sigma_P"
    code, out, _ = run(capsys, "boundary", "--n", "3", "--sgn", "1",
                       "--chi2", "1")
    assert out.strip() == "0"


def test_boundary_rejects_bad_divisibility(capsys):
    code, out, err = run(capsys, "boundary", "--n", "5", "--sgn", "4")
    assert code == 1
    assert "not divisible by 8" in err


def test_splits_text(capsys):
    code, out, _ = run(capsys, "splits", "--g", "1", "--n", "7")
    assert code == 0
    assert "kreck1: unknown" in out
    assert "[CorC-i-Rem]" in out


def test_theta_and_errors(capsys):
    code, out, _ = run(capsys, "theta", "--n", "3")
    assert code == 0
    assert "Z/28" in out
    code, _, err = run(capsys, "theta", "--n", "11")
    assert code == 1
    assert "exceptional" in err


def test_n11_refusal_names_the_library_keyword(capsys):
    """No verb places Sigma_Q at n = 11, so the refusal points to
    ``theta_data``'s keyword and says no verb takes it."""
    for argv in (("boundary", "--n", "11", "--sgn", "8", "--chi2", "0"),
                 ("theta", "--n", "11", "--sigma-q-order", "2"),
                 ("abelianization", "--g", "1", "--n", "11")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and len(err.splitlines()) == 1
        assert err.endswith("Place it with theta_data's sigma_q_ambient "
                            "keyword, which no CLI verb takes.\n")


def test_coker_j_flag_ignores_the_environment_variable(tmp_path, capsys,
                                                       monkeypatch):
    """The coker-J data comes from the flag alone: a valid degree-27 file
    in the former environment variable ``HDMCG_COKER_J_TABLE`` is never
    opened, and each of the three verbs reads the same file by its flag."""
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 27, "torsion": [2]}]))
    monkeypatch.setenv("HDMCG_COKER_J_TABLE", str(path))
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr("builtins.open", spy)
    for argv in (("theta", "--n", "13"),
                 ("boundary", "--n", "13", "--sgn", "8"),
                 ("abelianization", "--g", "2", "--n", "13")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and len(err.splitlines()) == 1
        assert "coker-J table exhausted at degree 27" in err
        assert "abelianization, theta or boundary verb's --coker-j-table" \
            in err
    assert opened == []
    flag = ("--coker-j-table", str(path))
    assert run(capsys, "theta", "--n", "13", *flag)[:2] == (0, (
        "theta = Z/2 + Z/67100672\n"
        "Sigma_P coords [0, 1], Sigma_Q coords [0, 0]\n"
        "coker J = Z/2, omega = Z/2\n"))
    assert run(capsys, "boundary", "--n", "13", "--sgn", "8", *flag) \
        == (0, "Sigma_P\n", "")
    assert run(capsys, "abelianization", "--g", "2", "--n", "13", *flag) \
        == (0, "(Z/2)^2 + Z/4\n", "")
    assert opened == [str(path)] * 3


@pytest.mark.parametrize("order", [None, 2, 4, 8])
def test_boundary_and_theta_read_the_same_sphere_flags(tmp_path, capsys,
                                                       order):
    """At n = 15, chi2/2 = 1 puts the boundary on Sigma_Q, wherever
    ``--sigma-q-order`` places it; ``boundary`` and ``theta`` agree."""
    path = tmp_path / "ck31.json"
    path.write_text(json.dumps([{"degree": 31, "torsion": [2]}]))
    flags = ["--coker-j-table", str(path), "--format", "json"]
    if order is not None:
        flags += ["--sigma-q-order", str(order)]
    code, out, _ = run(capsys, "theta", "--n", "15", *flags)
    assert code == 0
    sigma_q = json.loads(out)["sigma_Q"]
    code, out, _ = run(capsys, "boundary", "--n", "15", "--sgn", "0",
                       "--chi2", "2", *flags)
    assert (code, json.loads(out)) == (0, {"label": "Sigma_Q",
                                           "coords": sigma_q})
    bp = 2 ** 14 * (2 ** 15 - 1) * 3617  # |bP_32|
    assert sigma_q == [0, bp // (order or 2)]


def test_coker_j_entry_contradicting_a_builtin_is_refused(tmp_path, capsys):
    """A built-in degree answers with the built-in group: each verb that
    takes the flag refuses the same entry alike."""
    path = tmp_path / "ck15.json"
    path.write_text(json.dumps([{"degree": 15, "torsion": [4]}]))
    flag = ("--coker-j-table", str(path))
    by_theta = run(capsys, "theta", "--n", "7", *flag)
    by_boundary = run(capsys, "boundary", "--n", "7", "--sgn", "0",
                      "--chi2", "8", *flag)
    assert by_theta == by_boundary == (
        1, "", "coker-J table entry for degree 15 is Z/4, but the built-in "
               "group in that degree is Z/2\n")
    path.write_text(json.dumps([{"degree": 15, "torsion": [2]}]))
    agreeing = run(capsys, "theta", "--n", "7", *flag)
    assert agreeing == run(capsys, "theta", "--n", "7")
    assert agreeing[0] == 0 and "Z/2 + Z/8128" in agreeing[1]


def test_signature_of_the_nonzero_example(capsys):
    path = Path(__file__).resolve().parents[1] / "examples" / "nonzero.json"
    assert run(capsys, "signature", "--file", str(path)) == (0, "4\n", "")


def test_signature_and_chi2_files(tmp_path, capsys):
    ident2 = [[1, 0], [0, 1]]
    cls = {"g": 1, "h": 1, "pairs": [[ident2, ident2]],
           "translations": [[[1, 0], [0, 1]]]}
    path = tmp_path / "cls.json"
    path.write_text(json.dumps(cls))
    code, out, _ = run(capsys, "chi2", "--file", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"chi2": 2}
    code, out, _ = run(capsys, "signature", "--file", str(path))
    assert code == 0
    assert out.strip() == "0"
    plain = {"g": 1, "h": 1, "pairs": [[ident2, ident2]]}
    path2 = tmp_path / "plain.json"
    path2.write_text(json.dumps(plain))
    code, _, err = run(capsys, "chi2", "--file", str(path2))
    assert code == 1
    assert "translation" in err


def test_table3_verb(capsys):
    code, out, _ = run(capsys, "table3", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_fast_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables")
    assert code == 0
    assert "all checks passed" in out
    code, out, _ = run(capsys, "verify", "--suite", "spheres",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_suite_names_are_the_verify_suites():
    from hdmcg.verify import SUITES
    assert SUITE_NAMES == tuple(SUITES)


def test_verify_all_contract(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "0",
                       "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"] is True and blob["seed"] == 0


def test_verify_deterministic_under_seed():
    from hdmcg.verify import suite_cocycles
    a = suite_cocycles(seed=7, triples=25, classes=8, conjugations=3, affine=8)
    b = suite_cocycles(seed=7, triples=25, classes=8, conjugations=3, affine=8)
    assert a == b


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["abelianization", "--g", "two", "--n", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flags", [
    (["--g", "1", "--n", "5", "--group", "gg", "--sigma-q-order", "0"],
     ["--sigma-q-order"]),
    (["--g", "1", "--n", "9", "--group", "halfmcg", "--sigma-q-order", "-4",
      "--coker-j-table", "/nonexistent"],
     ["--sigma-q-order", "--coker-j-table"]),
    (["--g", "2", "--n", "7", "--group", "gg", "--coker-j-table", "t.json"],
     ["--coker-j-table"]),
    (["--g", "2", "--n", "5", "--group", "halfmcg", "--sigma-q-order", "2"],
     ["--sigma-q-order"]),
])
def test_abelianization_refuses_flags_its_group_ignores(capsys, argv, flags):
    """gg and halfmcg read no sphere data, so the two sphere-data flags are
    usage errors there rather than silently dropped."""
    code, out, err = run(capsys, "abelianization", *argv)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1
    assert [f for f in ("--sigma-q-order", "--coker-j-table") if f in err] \
        == flags


IDENT2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("blob, message", [
    ([{"g": 1, "pairs": [[IDENT2, IDENT2]]}], "JSON object"),
    ({"pairs": [[IDENT2, IDENT2]]}, "'g'"),
    ({"g": 2, "h": 1}, "'pairs'"),
    ({"g": 1, "pairs": [[[[1, 0], [0, 1.5]], IDENT2]]}, "integers"),
    ({"g": 1, "pairs": [[[[1, 0], [0]], IDENT2]]}, "integers"),
    ({"g": 2, "pairs": [[IDENT2, IDENT2]]}, "4x4"),
    ({"g": 1, "pairs": [[IDENT2, IDENT2]], "translations": [[[1], [0, 1]]]},
     "translation"),
], ids=["top-level-list", "missing-g", "missing-pairs", "non-integer-entry",
        "ragged-rows", "wrong-size", "short-translation"])
def test_malformed_class_file_is_a_one_line_error(tmp_path, capsys, blob,
                                                  message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    for verb in ("signature", "chi2"):
        code, out, err = run(capsys, verb, "--file", str(path))
        assert code == 1 and not out
        assert len(err.strip().splitlines()) == 1
        assert message in err and f"class file {path}:" in err


@pytest.mark.parametrize("text", ['{"g": 1,', ""],
                         ids=["truncated-json", "empty-file"])
def test_unreadable_class_file_is_a_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for verb in ("signature", "chi2"):
        code, out, err = run(capsys, verb, "--file", str(path))
        assert code == 1 and not out
        assert len(err.strip().splitlines()) == 1
        assert f"class file {path}: not valid JSON" in err


# the verbs that read n = 15 and n = 13 from a supplied table; the "env"
# ids are kept from the environment variable, which is no longer read,
# that was this row's source before ``boundary`` took the flag
@pytest.mark.parametrize("argv", [
    pytest.param(["abelianization", "--g", "1", "--n", "15"], id="flag"),
    pytest.param(["boundary", "--n", "13", "--sgn", "0"], id="env"),
])
@pytest.mark.parametrize("text, message", [
    ("[{", "not valid JSON"),
    ({"degree": 31}, "JSON list"),
    ([1], "JSON object"),
    ([{"rank": 0}], "'degree'"),
    ([{"degree": "31"}], "integer degree"),
    ([{"degree": 31.0}], "integer degree"),
    ([{"degree": True}], "integer degree"),
    ([{"degree": 31, "rank": False}], "integer degree and rank"),
    ([{"degree": 31, "torsion": [2.0]}], "integer torsion"),
    ([{"degree": 31, "torsion": [0]}], "positive"),
], ids=["not-json", "top-level-object", "entry-not-object", "missing-degree",
        "string-degree", "float-degree", "bool-degree", "bool-rank",
        "float-torsion", "zero-torsion"])
def test_malformed_coker_j_table_is_a_one_line_error(tmp_path, capsys, argv,
                                                     text, message):
    path = tmp_path / "ckj.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    code, out, err = run(capsys, *argv, "--coker-j-table", str(path))
    assert code == 1 and not out
    assert len(err.strip().splitlines()) == 1
    assert message in err and f"coker-J table {path}" in err


def test_negative_genus_is_refused(capsys):
    for group in ("mcg", "torelli", "halfmcg", "gg"):
        code, out, err = run(capsys, "abelianization", "--g", "-3", "--n", "5",
                             "--group", group)
        assert code == 1 and not out
        assert "genus must be >=" in err
        assert "copies" not in err


def test_negative_dimension_is_refused(capsys):
    code, out, err = run(capsys, "abelianization", "--g", "1", "--n", "-1",
                         "--group", "gg")
    assert (code, out, err) == (1, "", "n must be >= 1\n")
    code, out, _ = run(capsys, "abelianization", "--g", "1", "--n", "1",
                       "--group", "gg")
    assert (code, out) == (0, "Z/12\n")


@pytest.mark.parametrize("argv", [
    ("theta", "--n", "9"),
    ("abelianization", "--g", "1", "--n", "5"),
    ("theta", "--n", "15"),
], ids=["theta-n9", "abelianization-n5", "theta-n15"])
def test_sigma_q_order_below_1_is_refused_for_every_n(capsys, argv):
    code, out, err = run(capsys, *argv, "--sigma-q-order", "0")
    assert (code, out, err) == (1, "", "sigma_q_order must be >= 1\n")


def test_readme_example_class_file(capsys):
    """The class file the README's CLI block runs."""
    from pathlib import Path
    path = str(Path(__file__).resolve().parents[1] / "examples" / "class.json")
    code, out, _ = run(capsys, "signature", "--file", path)
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "chi2", "--file", path)
    assert code == 0 and abs(int(out)) == 2


# in-process fuzz of the verbs that take numbers and files: every argument
# is bounded (|g| <= 12, n <= 41) and every file comes from a fixed set, so
# no drawn vector starts large work
EXAMPLE_CLASS = Path(__file__).resolve().parents[1] / "examples" / "class.json"
FILE_KINDS = ("missing", "directory", "malformed", "class", "coker-j")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "malformed.json").write_text('[{"degree": 27,')
    (root / "coker-j.json").write_text(json.dumps([{"degree": 27,
                                                    "torsion": [2]}]))
    return {"missing": root / "missing.json", "directory": root,
            "malformed": root / "malformed.json", "class": EXAMPLE_CLASS,
            "coker-j": root / "coker-j.json"}


def _opt(flag, values):
    return st.just([]) | values.map(lambda v: [flag, str(v)])


def _cli_argv():
    # the answering values drawn often, the whole range the rest of the time
    g = (st.integers(0, 4) | st.integers(-12, 12)).map(lambda v: ["--g",
                                                                  str(v)])
    n = (st.sampled_from((3, 5, 7, 9, 13, 15)) | st.integers(-3, 41)).map(
        lambda v: ["--n", str(v)])
    small = st.integers(-5, 5).map(lambda v: 8 * v) | st.integers(-40, 40)
    sphere = st.tuples(_opt("--sigma-q-order", st.integers(-2, 16)),
                       _opt("--coker-j-table", st.sampled_from(FILE_KINDS)))
    fmt = _opt("--format", st.sampled_from(("json", "text")))
    groups = _opt("--group", st.sampled_from(("mcg", "torelli", "halfmcg",
                                              "gg")))
    verbs = (
        st.tuples(st.just(["abelianization"]), g, n, groups, sphere, fmt),
        st.tuples(st.just(["splits"]), g, n, fmt),
        st.tuples(st.just(["boundary"]), n, small.map(lambda v: ["--sgn",
                                                                 str(v)]),
                  _opt("--chi2", small), sphere, fmt),
        st.tuples(st.just(["theta"]), n, sphere, fmt),
        st.tuples(st.sampled_from((["signature"], ["chi2"])),
                  st.sampled_from(FILE_KINDS).map(lambda k: ["--file", k]),
                  fmt),
    )
    stray = st.sampled_from(([], [], [], ["--n"], ["--bogus"], ["7"]))
    return st.tuples(st.one_of(verbs), stray)


def _flatten(parts):
    out = []
    for part in parts:
        out.extend(_flatten(part) if isinstance(part, tuple) else part)
    return out


@settings(max_examples=300, deadline=None)
@given(drawn=_cli_argv())
def test_cli_fuzz_exits_0_1_or_2_with_one_error_line(fuzz_files, drawn):
    """No exception escapes ``main``, the exit code is 0, 1 or 2, and a
    nonzero exit that is not an argparse usage error is one stderr line."""
    argv = [str(fuzz_files.get(token, token)) for token in _flatten(drawn)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:  # argparse's usage error
            code, usage = exc.code, True
    assert code in (0, 1, 2), argv
    assert not usage or code == 2, argv
    if code and not usage:
        assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        assert not out.getvalue(), argv
    if not code:
        assert out.getvalue() and not err.getvalue(), argv
