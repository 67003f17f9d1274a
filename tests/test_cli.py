"""The command-line interface, driven through main() with captured output."""

import json
import sys

import pytest

from klcells.algebra import structure_constants
from klcells.cells import compute_cells
from klcells.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE_GUARD,
    EXIT_USAGE,
    main,
)
from klcells.dihedral import dihedral_group, render
from klcells.reps import decompose

cli_module = sys.modules["klcells.cli"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cells_text(capsys):
    code, out, err = run(capsys, "cells", "--n", "4")
    assert code == EXIT_OK
    assert "cells of D_4" in out
    assert "Ls = {s, ts, sts}" in out
    assert "two sided order: J1 < J2 < J3" in out
    assert err == ""


def test_cells_json(capsys):
    code, out, _ = run(capsys, "cells", "--n", "5", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["n"] == 5
    assert obj["j_order"] == ["J1", "J2", "J3"]


def test_cells_dot(capsys):
    code, out, _ = run(capsys, "cells", "--n", "4", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph cells_D4 {")
    assert "left_Ls" in out


def test_cells_bad_n(capsys):
    code, out, err = run(capsys, "cells", "--n", "2")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["cellrep", "classify", "decompose", "klmult"])
def test_bad_n_exits_with_usage(capsys, tmp_path, command):
    extra = {"cellrep": ["--cell", "Ls"], "decompose": [str(tmp_path / "unread.json")], "klmult": ["s", "t"]}
    code, out, err = run(capsys, command, "--n", "2", *extra.get(command, []))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


def test_cellrep_text(capsys):
    code, out, _ = run(capsys, "cellrep", "--n", "4", "--cell", "Ls")
    assert code == EXIT_OK
    assert "cell Ls of D_4: basis (s, sts, ts)" in out
    assert "[2, 0, 1]" in out
    assert "decomposition: V(1,-1) ⊕ V(4,1)" in out


def test_cellrep_le(capsys):
    code, out, _ = run(capsys, "cellrep", "--n", "4", "--cell", "Le")
    assert code == EXIT_OK
    assert "decomposition: V(-1,-1)" in out


def test_cellrep_lw0_n5(capsys):
    code, out, _ = run(capsys, "cellrep", "--n", "5", "--cell", "Lw0")
    assert code == EXIT_OK
    assert "[2]" in out
    assert "decomposition: V(1,1)" in out


def test_cellrep_all_elements(capsys):
    code, out, _ = run(capsys, "cellrep", "--n", "4", "--cell", "Lw0", "--all")
    assert code == EXIT_OK
    # absorption scalars for every element, including A_w0 = [2n]
    assert "A_w0:" in out
    assert "[8]" in out


def test_cellrep_json(capsys):
    code, out, _ = run(capsys, "cellrep", "--n", "4", "--cell", "Lt", "--format", "json", "--all")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["cell"] == "Lt"
    assert obj["basis"] == ["st", "t", "tst"]
    assert obj["theta_s"] == [[2, 1, 1], [0, 0, 0], [0, 0, 0]]
    assert obj["decomposition"] == {"V(-1,1)": 1, "V(4,1)": 1}
    assert len(obj["matrices"]) == 8


def test_cellrep_unknown_cell(capsys):
    code, _, err = run(capsys, "cellrep", "--n", "4", "--cell", "Lq")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_klmult(capsys):
    code, out, _ = run(capsys, "klmult", "--n", "4", "s", "tst")
    assert code == EXIT_OK
    assert out.strip() == "w0 + st"
    code, out, _ = run(capsys, "klmult", "--n", "4", "w0", "w0")
    assert code == EXIT_OK
    assert out.strip() == "8·w0"
    code, out, _ = run(capsys, "klmult", "--n", "4", "e", "ts")
    assert code == EXIT_OK
    assert out.strip() == "ts"


def test_klmult_json(capsys):
    code, out, _ = run(capsys, "klmult", "--n", "4", "--format", "json", "t", "st")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj == {"n": 4, "basis": "KL", "coeffs": {"t": 1, "tst": 1}}


def test_klmult_n40_matches_the_table(capsys):
    group = dihedral_group(40)
    u, w = "st" * 18 + "s", "ts" * 10
    code, out, _ = run(capsys, "klmult", "--n", "40", "--format", "json", u, w)
    assert code == EXIT_OK
    expected = structure_constants(40).product(
        group.element_from_text(u), group.element_from_text(w)
    )
    assert json.loads(out)["coeffs"] == {render(v): c for v, c in expected.items()}


def test_klmult_bad_word(capsys):
    code, _, err = run(capsys, "klmult", "--n", "4", "s", "xyz")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_decompose_file(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {
                "n": 4,
                "rank": 3,
                "theta_s": [[0, 0, 0], [0, 0, 0], [1, 1, 2]],
                "theta_t": [[2, 0, 1], [0, 2, 1], [0, 0, 0]],
            }
        )
    )
    code, out, _ = run(capsys, "decompose", "--n", "4", str(path))
    assert code == EXIT_OK
    assert out.strip() == "V(-1,1) ⊕ V(4,1)"


def test_decompose_bare_matrices(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"theta_s": [[1, 1], [1, 1]], "theta_t": [[1, 1], [1, 1]]}))
    code, out, _ = run(capsys, "decompose", "--n", "4", str(path))
    assert code == EXIT_OK
    assert out.strip() == "V(1,1) ⊕ V(-1,-1)"


def test_decompose_json_format(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"theta_s": [[2]], "theta_t": [[2]]}))
    code, out, _ = run(capsys, "decompose", "--n", "4", "--format", "json", str(path))
    assert code == EXIT_OK
    assert json.loads(out) == {"V(1,1)": 1}


def test_json_payloads_are_json_dumps(capsys, tmp_path):
    # every JSON payload the CLI prints is what json.dumps writes with
    # indent=2 and sorted keys, plus print's newline: the cells and
    # decompose payloads against the objects they print, the rest against
    # the object read back
    theta_s, theta_t = ((0, 0, 0), (0, 0, 0), (1, 1, 2)), ((2, 0, 1), (0, 2, 1), (0, 0, 0))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"theta_s": theta_s, "theta_t": theta_t}))
    commands = {
        ("cells", "--n", "6"): compute_cells(6).to_jsonable(),
        ("decompose", "--n", "4", str(path)): decompose(4, theta_s, theta_t).to_jsonable(),
        ("cellrep", "--n", "5", "--cell", "Ls", "--all"): None,
        ("klmult", "--n", "5", "st", "ts"): None,
    }
    for argv, payload in commands.items():
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, argv
        if payload is None:
            payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n", argv


def test_decompose_wrong_n(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"n": 4, "rank": 1, "theta_s": [[0]], "theta_t": [[0]]}))
    code, _, err = run(capsys, "decompose", "--n", "5", str(path))
    assert code == EXIT_USAGE
    assert "the file says n=4 but --n 5 was given" in err


def test_decompose_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "decompose", "--n", "4", str(path))
    assert code == EXIT_USAGE
    assert "parse error" in err
    assert "line 1" in err


def test_decompose_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "decompose", "--n", "4", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "error:" in err


def test_decompose_non_square_matrix(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"theta_s": [[2, 0]], "theta_t": [[2]]}))
    code, _, err = run(capsys, "decompose", "--n", "4", str(path))
    assert code == EXIT_USAGE
    assert f"bad matrix pair in {path}" in err


def test_decompose_non_module(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"theta_s": [[3]], "theta_t": [[0]]}))
    code, _, err = run(capsys, "decompose", "--n", "4", str(path))
    assert code == EXIT_CHECK_FAILURE
    assert "check failed:" in err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4")
    assert code == EXIT_OK
    assert "rank 1: 2 candidate(s)" in out
    assert "rank 2: 1 candidate(s)" in out
    assert "rank 3: 1 candidate(s)" in out
    assert "REALIZED_CELL(Lw0)" in out


def test_classify_json_deterministic(capsys):
    code, first, _ = run(capsys, "classify", "--n", "4", "--ranks", "1,2", "--format", "json")
    assert code == EXIT_OK
    code, second, _ = run(
        capsys, "classify", "--n", "4", "--ranks", "1,2", "--format", "json", "--jobs", "2"
    )
    assert code == EXIT_OK
    assert first == second
    obj = json.loads(first)
    assert obj["guard"]["tripped"] is False
    assert obj["rejections"] == {"F3": 9, "F4": 3, "F5": 13}


def test_classify_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "classify", "--n", "4", "--ranks", "1", "--format", "json",
        "--output", str(target),
    )
    assert code == EXIT_OK
    obj = json.loads(target.read_text())
    assert obj["n"] == 4
    assert out == ""


def test_classify_output_file_not_writable(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code, out, err = run(
        capsys, "classify", "--n", "4", "--ranks", "1", "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {target}")
    assert out == ""
    assert not target.exists()


def test_classify_checks_the_output_path_before_the_search(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli_module, "classify", lambda *args, **kwargs: calls.append((args, kwargs)))
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code, out, err = run(capsys, "classify", "--n", "6", "--ranks", "4", "--output", str(target))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {target}")
    assert out == ""
    assert calls == []
    # a writable path is left as it was until the report is written
    monkeypatch.undo()
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    code, _, _ = run(capsys, "classify", "--n", "4", "--ranks", "1", "--entry-bound", "0", "--output", str(kept))
    assert code == EXIT_USAGE
    assert kept.read_text() == "old"
    fresh = tmp_path / "fresh.json"
    code, _, _ = run(capsys, "classify", "--n", "4", "--ranks", "1", "--entry-bound", "0", "--output", str(fresh))
    assert code == EXIT_USAGE
    assert not fresh.exists()


def test_classify_no_filter(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4", "--ranks", "2", "--no-filter", "F7")
    assert code == EXIT_OK
    assert "[[1, 1], [1, 1]]" in out
    assert "unknown: no recorded classification" in out


def test_classify_guard(capsys):
    code, out, _ = run(capsys, "classify", "--n", "4", "--ranks", "3", "--max-states", "10")
    assert code == EXIT_RESOURCE_GUARD
    assert "resource guard tripped" in out


def test_classify_bad_ranks(capsys):
    code, _, err = run(capsys, "classify", "--n", "4", "--ranks", "x")
    assert code == EXIT_USAGE
    assert "cannot parse ranks" in err
    code, out, err = run(capsys, "classify", "--n", "4", "--ranks", "1,1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "ranks must not repeat" in err


def test_classify_env_jobs(capsys, monkeypatch):
    monkeypatch.setenv("KLCELLS_JOBS", "2")
    code, out, _ = run(capsys, "classify", "--n", "4", "--ranks", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["pairs_evaluated"] == 4
    monkeypatch.setenv("KLCELLS_JOBS", "abc")
    code, _, err = run(capsys, "classify", "--n", "4", "--ranks", "1")
    assert code == EXIT_USAGE
    assert "KLCELLS_JOBS must be an integer" in err


def test_verify_paper_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == EXIT_OK
    assert "A3: PASS" in out
    assert "8/8 checks passed (suite paper)" in out


def test_verify_timing_flag(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper", "--timing")
    assert code == EXIT_OK
    assert "[" in out and "s]" in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus-subcommand"])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_USAGE
    capsys.readouterr()
