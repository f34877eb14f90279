import json

import pytest

from kronlab.cli import main

SUPPORT_GOLDEN = """\
     1111 1112 1121 1122 1211 1212 1221 1222
1111    a    a    b    b    a    a    b    b
1112    a    a    b    b    a    a    b    b
1211    a    a    b    b    a    a    b    b
1212    a    a    b    b    a    a    b    b
2111    c    c    d    d    c    c    d    d
2112    c    c    d    d    c    c    d    d
2211    c    c    d    d    c    c    d    d
2212    c    c    d    d    c    c    d    d
"""


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def intro_vectors(tmp_path):
    a = write(tmp_path / "a.json",
              {"rows": 2, "cols": 1, "entries": [["1"], ["2"]]})
    b = write(tmp_path / "b.json",
              {"rows": 1, "cols": 2, "entries": [["3", "4"]]})
    return a, b


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_enum(capsys):
    code, out, _ = run(capsys, ["gamma", "enum", "2", "3"])
    assert code == 0
    assert json.loads(out) == [[1, 1], [1, 2], [1, 3], [2, 1], [2, 2], [2, 3]]


def test_gamma_rank_and_unrank(capsys):
    code, out, _ = run(capsys, ["gamma", "rank", "2", "3", "--index", "2,1"])
    assert code == 0 and json.loads(out)["rank"] == 4
    code, out, _ = run(capsys, ["gamma", "unrank", "2", "3", "--k", "4"])
    assert code == 0 and json.loads(out)["index"] == [2, 1]


def test_kron_dense_golden(capsys, intro_vectors):
    a, b = intro_vectors
    code, out, _ = run(capsys, ["kron", a, b])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"rows": 2, "cols": 2, "entries": [["3", "4"], ["6", "8"]]}


def test_kron_lazy_matvec(capsys, intro_vectors, tmp_path):
    a, b = intro_vectors
    x = write(tmp_path / "x.json", ["1", "0"])
    code, out, _ = run(capsys, ["kron", a, b, "--lazy", "--matvec", x])
    assert code == 0
    assert json.loads(out) == ["3", "6"]


def test_kron_labels(capsys, intro_vectors):
    a, b = intro_vectors
    code, out, _ = run(capsys, ["kron", a, b, "--labels"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["11", "12"]
    assert lines[1].split() == ["11", "3", "4"]
    assert lines[2].split() == ["21", "6", "8"]


def test_matvec_command(capsys, intro_vectors, tmp_path):
    a, b = intro_vectors
    x = write(tmp_path / "x.json", ["0", "1"])
    code, out, _ = run(capsys, ["matvec", a, b, "--x", x])
    assert code == 0
    assert json.loads(out) == ["4", "8"]


def test_verify_accepts_and_rejects(capsys, tmp_path):
    good = write(tmp_path / "good.json", {
        "shape": [2, 2], "ambientDim": 4,
        "values": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    code, out, _ = run(capsys, ["verify", good])
    assert code == 0
    assert json.loads(out)["isTensorProduct"] is True

    bad = write(tmp_path / "bad.json", {
        "shape": [2, 2], "ambientDim": 4,
        "values": [["1", "0", "0", "0"], ["1", "0", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    code, out, _ = run(capsys, ["verify", bad])
    assert code == 1
    doc = json.loads(out)
    assert doc["failedCriterion"] == "independence"
    assert doc["witness"] is not None


def test_factor_command(capsys, tmp_path):
    a = write(tmp_path / "a.json",
              {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3", "4"]]})
    b = write(tmp_path / "b.json",
              {"rows": 2, "cols": 2, "entries": [["5", "6"], ["7", "8"]]})
    code, out, _ = run(capsys, ["factor", a, b])
    assert code == 0
    assert json.loads(out)["entries"] == [["19", "22"], ["43", "50"]]


def test_inner_induced(capsys, tmp_path):
    t1 = write(tmp_path / "t1.json", {"shape": [2, 2], "coeffs": ["1", "0", "2", "0"]})
    t2 = write(tmp_path / "t2.json", {"shape": [2, 2], "coeffs": ["3", "0", "5", "0"]})
    code, out, _ = run(capsys, ["inner", t1, t2, "--induced"])
    assert code == 0
    assert json.loads(out)["value"] == "13"


def test_inner_with_form_file_gaussian(capsys, tmp_path):
    form = write(tmp_path / "form.json", {
        "leftDim": 2, "rightDim": 2,
        "gram": [["1+0i", "0+0i"], ["0+0i", "1+0i"]]})
    t1 = write(tmp_path / "t1.json", {"shape": [2], "coeffs": ["1+1i", "0+0i"]})
    t2 = write(tmp_path / "t2.json", {"shape": [2], "coeffs": ["1+1i", "0+0i"]})
    code, out, _ = run(capsys, ["--backend", "gaussian", "inner", form, t1, t2])
    assert code == 0
    assert json.loads(out)["value"] == "2+0i"


def test_decompose_command(capsys):
    code, out, _ = run(capsys, [
        "decompose", "--shape", "3,4",
        "--parts", "[[[1,3],[2]],[[2,4],[1,3]]]"])
    assert code == 0
    doc = json.loads(out)
    assert doc["totalDim"] == 12
    assert [b["dim"] for b in doc["blocks"]] == [4, 4, 2, 2]
    assert doc["blocks"][0]["members"] == [[1, 2], [1, 4], [3, 2], [3, 4]]


def test_blocks_example_golden(capsys):
    code, out, _ = run(capsys, ["blocks", "--example", "rwsclmslex"])
    assert code == 0
    assert out == SUPPORT_GOLDEN


def test_blocks_explicit_configuration(capsys):
    code, out, _ = run(capsys, [
        "blocks", "--row-shape", "2,2,1,2", "--col-shape", "1,2,2,2",
        "--row-parts", "[[[1],[2]],[[1,2]],[[1]],[[1,2]]]",
        "--col-parts", "[[[1]],[[1,2]],[[1],[2]],[[1,2]]]"])
    assert code == 0
    assert out == SUPPORT_GOLDEN


def test_partitions_listing(capsys):
    code, out, _ = run(capsys, ["partitions", "--n", "4"])
    assert code == 0
    assert len(json.loads(out)) == 15


def test_partitions_hasse_dot(capsys):
    code, out, _ = run(capsys, ["partitions", "--n", "3", "--hasse", "--dot"])
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert '"{1,2,3}" -> "{1,2}|{3}";' in out


def test_counts_command(capsys):
    code, out, _ = run(capsys, ["counts", "--n", "3", "--p", "5"])
    assert code == 0
    assert json.loads(out) == {"SNC": 10, "WNC": 35, "INJ": 60, "PER": 6}


def test_oracle_subset(capsys):
    code, out, _ = run(capsys, ["oracle", "--suite", "rank_unrank",
                                "--suite", "interchange", "--seed", "7"])
    assert code == 0
    assert "rank_unrank: 42/42 ok" in out
    assert "suites passed: 2/2" in out


def test_complex_backend_scalars_are_pairs(capsys, tmp_path):
    a = write(tmp_path / "a.json",
              {"rows": 2, "cols": 2,
               "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    x = write(tmp_path / "x.json", [[0.5, 0.25], [2.0, -1.0]])
    code, out, _ = run(capsys, ["--backend", "complex64", "matvec", a, "--x", x])
    assert code == 0
    assert json.loads(out) == [[0.5, 0.25], [2.0, -1.0]]


def test_backend_env_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("KRONLAB_BACKEND", "gaussian")
    a = write(tmp_path / "a.json",
              {"rows": 1, "cols": 1, "entries": [["1+2i"]]})
    code, out, _ = run(capsys, ["kron", a])
    assert code == 0
    assert json.loads(out)["entries"] == [["1+2i"]]


def test_error_reporting(capsys, tmp_path):
    code, _, err = run(capsys, ["verify", str(tmp_path / "missing.json")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["verify", str(bad)])
    assert code == 2 and "error:" in err
    a = write(tmp_path / "a.json",
              {"rows": 1, "cols": 2, "entries": [["1", "2"]]})
    x = write(tmp_path / "x.json", ["1", "2", "3"])
    code, _, err = run(capsys, ["matvec", a, "--x", x])
    assert code == 2 and "error:" in err
    # malformed documents get one error line, not a traceback
    m = write(tmp_path / "m.json", {"rows": 1, "cols": 1, "entries": 5})
    t = write(tmp_path / "t.json", {"shape": [2, 2], "ambientDim": 4, "values": 5})
    z = write(tmp_path / "z.json", {"shape": [2], "coeffs": ["1/0", "1"]})
    r = write(tmp_path / "r.json", {"rows": None, "cols": 1, "entries": [["1"]]})
    for argv in (["kron", m], ["verify", t], ["kron", r],
                 ["--backend", "rational", "inner", z, z, "--induced"],
                 ["--backend", "gaussian", "inner", z, z, "--induced"]):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
        assert "Fraction(" not in err
    _, _, err = run(capsys, ["kron", r])
    assert "'rows' must be an integer, got null" in err
    # non-list or null shapes and null or non-integer stated dimensions
    tensors = [{"shape": 5, "coeffs": ["1"]}, {"shape": None, "coeffs": ["1"]},
               {"shape": [2.5], "coeffs": ["1", "1"]}]
    tables = [{"shape": 5, "ambientDim": 1, "values": [["1"]]},
              {"shape": [1], "ambientDim": None, "values": [["1"]]},
              {"shape": [1], "ambientDim": "1", "values": [["1"]]}]
    forms = [{"leftDim": None, "rightDim": 1, "gram": [["1"]]},
             {"leftDim": 1, "rightDim": 1.5, "gram": [["1"]]}]
    good = write(tmp_path / "good.json", {"shape": [1], "coeffs": ["1"]})
    argvs = [["inner", write(tmp_path / f"t{i}.json", d), good, "--induced"]
             for i, d in enumerate(tensors)]
    argvs += [["verify", write(tmp_path / f"n{i}.json", d)] for i, d in enumerate(tables)]
    argvs += [["inner", write(tmp_path / f"f{i}.json", d), good, good]
              for i, d in enumerate(forms)]
    # --parts: per-axis ground sets come from the stated shape
    argvs += [["decompose", "--shape", "2", "--parts", parts]
              for parts in ("[5]", "5", "[[[1],[3]]]", "[[]]", "[[[1],[2]],[[1]]]",
                            "[[[1],[null]]]", "[[1, 2]]")]
    argvs.append(["blocks", "--row-shape", "2", "--col-shape", "2",
                  "--row-parts", "[[[1,2]]]", "--col-parts", "[[[1],[3]]]"])
    for argv in argvs:
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (argv, err)
    _, _, err = run(capsys, ["decompose", "--shape", "2", "--parts", "[[[1],[3]]]"])
    assert "blocks must cover 1..2" in err
    _, _, err = run(capsys, ["decompose", "--shape", "2", "--parts", "[[]]"])
    assert "blocks must cover 1..2" in err


def test_identical_invocations_produce_identical_bytes(capsys, intro_vectors):
    a, b = intro_vectors
    _, out1, _ = run(capsys, ["kron", a, b])
    _, out2, _ = run(capsys, ["kron", a, b])
    assert out1 == out2
