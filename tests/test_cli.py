import json
from pathlib import Path

import pytest

from hdmcg.cli import SUITE_NAMES, main
from hdmcg.spheres import COKER_J_ENV


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


def test_theta_coker_j_flag_matches_the_environment_variable(tmp_path, capsys,
                                                             monkeypatch):
    path = tmp_path / "ckj.json"
    path.write_text(json.dumps([{"degree": 31, "torsion": [2]}]))
    monkeypatch.delenv(COKER_J_ENV, raising=False)
    code, _, err = run(capsys, "theta", "--n", "15")
    assert code == 1 and "theta verb's --coker-j-table" in err
    for fmt in ("text", "json"):
        argv = ("theta", "--n", "15", "--format", fmt)
        monkeypatch.delenv(COKER_J_ENV, raising=False)
        by_flag = run(capsys, *argv, "--coker-j-table", str(path))
        monkeypatch.setenv(COKER_J_ENV, str(path))
        by_env = run(capsys, *argv)
        assert by_flag == by_env and by_flag[0] == 0 and by_flag[1]


def test_coker_j_entry_contradicting_a_builtin_is_refused(tmp_path, capsys,
                                                          monkeypatch):
    """A built-in degree answers with the built-in group, from every source:
    the flag and the environment variable refuse the same entry alike."""
    path = tmp_path / "ck15.json"
    path.write_text(json.dumps([{"degree": 15, "torsion": [4]}]))
    monkeypatch.delenv(COKER_J_ENV, raising=False)
    by_flag = run(capsys, "theta", "--n", "7", "--coker-j-table", str(path))
    monkeypatch.setenv(COKER_J_ENV, str(path))
    by_env = run(capsys, "theta", "--n", "7")
    assert by_flag == by_env == (
        1, "", "coker-J table entry for degree 15 is Z/4, but the built-in "
               "group in that degree is Z/2\n")
    path.write_text(json.dumps([{"degree": 15, "torsion": [2]}]))
    agreeing = run(capsys, "theta", "--n", "7")
    monkeypatch.delenv(COKER_J_ENV)
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


@pytest.mark.parametrize("via", ["flag", "env"])
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
def test_malformed_coker_j_table_is_a_one_line_error(tmp_path, capsys,
                                                     monkeypatch, via, text,
                                                     message):
    path = tmp_path / "ckj.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    argv = ["abelianization", "--g", "1", "--n", "15"]
    if via == "flag":
        monkeypatch.delenv(COKER_J_ENV, raising=False)
        argv += ["--coker-j-table", str(path)]
    else:
        monkeypatch.setenv(COKER_J_ENV, str(path))
    code, out, err = run(capsys, *argv)
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
