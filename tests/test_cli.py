import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tnt
from tnt import (
    MoveCertificate,
    boundary_simplex,
    is_boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    from_text,
    load_complex,
    save_complex,
    stacked_sphere,
)
from tnt.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0


@pytest.fixture()
def octa_file(tmp_path):
    path = tmp_path / "octa.facets"
    save_complex(cross_polytope_boundary(3), str(path))
    return str(path)


@pytest.fixture()
def walkup_file(tmp_path):
    path = tmp_path / "walkup.facets"
    save_complex(dataset("walkup_M3"), str(path))
    return str(path)


# -- info ---------------------------------------------------------------------


def test_info_json(octa_file, capsys):
    assert run_cli(["info", octa_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_vector"] == [6, 12, 8]
    assert payload["euler_characteristic"] == 2
    assert payload["pure"] is True
    assert payload["pseudomanifold"]["is_closed_pseudomanifold"] is True
    meta = payload["meta"]
    assert meta["tool"] == "tnt"
    assert meta["input"] == octa_file
    assert meta["input_hash"] == cross_polytope_boundary(3).canonical_hash()
    assert "version" in meta


def test_info_text(octa_file, capsys):
    assert run_cli(["info", octa_file]) == 0
    out = capsys.readouterr().out
    assert "f = (6, 12, 8)" in out
    assert "chi = 2" in out


def test_info_missing_file(tmp_path, capsys):
    assert run_cli(["info", str(tmp_path / "nope.facets")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_info_parse_error_line_numbered(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("1 2 3\n1 2 4\n1 2 two\n")
    assert run_cli(["info", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


# -- construct ------------------------------------------------------------------


def test_construct_stdout_round_trip(capsys):
    assert run_cli(["construct", "boundary-simplex", "--d", "4"]) == 0
    out = capsys.readouterr().out
    assert from_text(out) == boundary_simplex(4)


def test_construct_to_file(tmp_path, capsys):
    out = tmp_path / "c47.facets"
    assert run_cli(["construct", "cyclic", "--d", "4", "--n", "7", "-o", str(out)]) == 0
    assert load_complex(str(out)) == cyclic_polytope_boundary(4, 7)
    assert "wrote" in capsys.readouterr().out


def test_construct_stacked_sphere_deterministic(tmp_path):
    a, b = tmp_path / "a.facets", tmp_path / "b.facets"
    assert run_cli(["construct", "stacked-sphere", "--d", "3", "--n", "9", "--seed", "4", "-o", str(a)]) == 0
    assert run_cli(["construct", "stacked-sphere", "--d", "3", "--n", "9", "--seed", "4", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_complex(str(a)) == stacked_sphere(3, 9, seed=4)


def test_construct_usage_errors(capsys):
    assert run_cli(["construct", "cyclic", "--d", "4"]) == 2
    assert "--n" in capsys.readouterr().err
    assert run_cli(["construct", "stacked-sphere", "--d", "3", "--n", "8"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert run_cli(["construct", "dataset"]) == 2
    assert "--name" in capsys.readouterr().err
    assert run_cli(["construct", "dataset", "--name", "no_such_thing"]) == 2
    capsys.readouterr()


def test_construct_product(tmp_path, capsys):
    f1, f2 = tmp_path / "f1.facets", tmp_path / "f2.facets"
    save_complex(boundary_simplex(2), str(f1))
    save_complex(boundary_simplex(2), str(f2))
    assert run_cli(["construct", "product", "--factors", str(f1), str(f2)]) == 0
    M = from_text(capsys.readouterr().out)
    assert M.f_vector()[0] == 9
    assert M.dim == 2


# -- verify ---------------------------------------------------------------------


def test_verify_walkup_m3_passes(walkup_file, capsys):
    assert run_cli(["verify", walkup_file, "--suite", "walkup_m3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert all(c["ok"] for c in payload["checks"])
    names = {c["check"] for c in payload["checks"]}
    assert "tightness_exhaustive" in names and "betti_gf2" in names


def test_verify_fails_with_witness(tmp_path, capsys):
    path = tmp_path / "c46.facets"
    save_complex(cyclic_polytope_boundary(4, 6), str(path))
    assert run_cli(["verify", str(path), "--suite", "walkup_m3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "witness" in out


def test_verify_m6_16_records_involution_search_limit(tmp_path, capsys, monkeypatch):
    # a search beyond its ceiling fails its check, as the automorphism
    # check already does; the rest of the suite still runs
    def capped(M):
        raise tnt.SearchLimitError("involution search supports at most 32 vertices, got 40")

    monkeypatch.setattr(tnt.cli.morse, "central_symmetry", capped)
    path = tmp_path / "m6.facets"
    save_complex(dataset("M6_16"), str(path))
    assert run_cli(["verify", str(path), "--suite", "m6_16", "--seed", "1", "--json"]) == 1
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["central_involution"] == {
        "check": "central_involution", "detail": "involution search supports at most 32 vertices, got 40", "ok": False,
    }
    assert [name for name, c in checks.items() if not c["ok"]] == ["central_involution"]
    assert len(checks) == 10


def test_verify_lemma34_requires_seed(walkup_file, capsys):
    assert run_cli(["verify", walkup_file, "--suite", "lemma34"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_json_deterministic(walkup_file, capsys):
    run_cli(["verify", walkup_file, "--suite", "walkup_m3", "--json"])
    first = capsys.readouterr().out
    run_cli(["verify", walkup_file, "--suite", "walkup_m3", "--json"])
    second = capsys.readouterr().out
    assert first == second


# -- reduce ----------------------------------------------------------------------


def test_reduce_reaches_target(tmp_path, capsys):
    src = tmp_path / "s.facets"
    save_complex(stacked_sphere(3, 8, seed=2), str(src))
    out, cert_path = tmp_path / "out.facets", tmp_path / "cert.json"
    code = run_cli([
        "reduce", str(src), "--seed", "5", "--target-f0", "5",
        "--steps", "4000", "-o", str(out), "--cert", str(cert_path), "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reached"] is True
    assert payload["best_f"][0] == 5
    best = load_complex(str(out))
    assert best.f_vector() == (5, 10, 10, 5)
    cert = MoveCertificate.from_json(cert_path.read_text())
    assert cert.replay(stacked_sphere(3, 8, seed=2)) == best


def test_reduce_requires_seed(octa_file, capsys):
    assert run_cli(["reduce", octa_file, "--target-f0", "5"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_reduce_rejects_negative_steps(octa_file, capsys, extra):
    assert run_cli(["reduce", octa_file, "--seed", "1", "--steps", "-5", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "steps must be >= 0" in captured.err


def test_reduce_target_unreachable(tmp_path, capsys):
    src = tmp_path / "m.facets"
    save_complex(boundary_simplex(4), str(src))
    code = run_cli(["reduce", str(src), "--seed", "1", "--target-f0", "4", "--steps", "200", "--json"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["reached"] is False
    assert payload["best_f"][0] == 5


# -- tight -----------------------------------------------------------------------


def test_tight_simplex_ambient_pass(tmp_path, capsys):
    path = tmp_path / "b4.facets"
    save_complex(boundary_simplex(4), str(path))
    assert run_cli(["tight", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tight"] is True
    assert payload["subsets_checked"] == 32


def test_tight_fail_reports_witness(tmp_path, capsys):
    path = tmp_path / "c46.facets"
    save_complex(cyclic_polytope_boundary(4, 6), str(path))
    assert run_cli(["tight", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["tight"] is False
    assert payload["witness"] is not None


def test_tight_cross_diagonals(octa_file, capsys):
    assert run_cli(["tight", octa_file, "--ambient", "cross", "--diagonals", "1,2;3,4;5,6"]) == 0
    assert "tight" in capsys.readouterr().out


def test_tight_cross_auto_derives_diagonals(octa_file, capsys):
    assert run_cli(["tight", octa_file, "--ambient", "cross", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tight"] is True
    assert payload["subsets_checked"] == 46


def test_tight_cross_needs_matching(tmp_path, capsys):
    path = tmp_path / "b4.facets"
    save_complex(boundary_simplex(4), str(path))
    assert run_cli(["tight", str(path), "--ambient", "cross"]) == 2
    assert "diagonals" in capsys.readouterr().err


def test_tight_negative_imax_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c4.facets"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    assert run_cli(["tight", str(path), "--imax", "-1", "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "i_max" in err


@pytest.mark.parametrize("diagonals", ["1,2;3", "1,2;5,x"])
def test_tight_bad_diagonals_part_named(octa_file, capsys, diagonals):
    assert run_cli(["tight", octa_file, "--ambient", "cross", "--diagonals", diagonals]) == 2
    out, err = capsys.readouterr()
    bad = diagonals.split(";")[1]
    assert out == "" and repr(bad) in err and "a,b" in err


# -- morse -----------------------------------------------------------------------


def test_morse_histogram(octa_file, capsys):
    assert run_cli(["morse", octa_file, "--orderings", "20", "--seed", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["histogram"].values()) == 20
    assert payload["morse_relation_violations"] == []
    assert payload["betti"] == [1, 0, 1]


def test_morse_deterministic(octa_file, capsys):
    run_cli(["morse", octa_file, "--orderings", "15", "--seed", "9", "--json"])
    first = capsys.readouterr().out
    run_cli(["morse", octa_file, "--orderings", "15", "--seed", "9", "--json"])
    assert first == capsys.readouterr().out


def test_morse_requires_seed(octa_file, capsys):
    assert run_cli(["morse", octa_file]) == 2
    assert "--seed" in capsys.readouterr().err


# -- stacked ---------------------------------------------------------------------


def test_stacked_certified(tmp_path, capsys):
    src = tmp_path / "s37.facets"
    save_complex(stacked_sphere(3, 7, seed=1), str(src))
    cert_path = tmp_path / "cert.json"
    code = run_cli(["stacked", str(src), "--k", "1", "--seed", "3", "--cert", str(cert_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "certified"
    cert = MoveCertificate.from_json(cert_path.read_text())
    end = cert.replay(stacked_sphere(3, 7, seed=1))
    assert is_boundary_simplex(end)


def test_stacked_unknown_exit(octa_file, capsys):
    assert run_cli(["stacked", octa_file, "--k", "1", "--seed", "3", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "unknown"


def test_stacked_bad_k(octa_file, capsys):
    assert run_cli(["stacked", octa_file, "--k", "0", "--seed", "3"]) == 2
    capsys.readouterr()


# -- counts ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["morse", "{f}", "--orderings", "-3", "--seed", "1", "--json"], "--orderings"),
        (["stacked", "{f}", "--k", "1", "--budget", "-1", "--seed", "0"], "--budget"),
        (["verify", "{f}", "--suite", "lemma34", "--samples", "-4", "--seed", "1"], "--samples"),
        (["verify", "{f}", "--suite", "m6_16", "--budget", "-2"], "--budget"),
        (["tight", "{f}", "--samples", "-1", "--seed", "1"], "--samples"),
        (["morse", "{f}", "--orderings", "x", "--seed", "1"], "--orderings"),
    ],
)
def test_negative_count_is_usage_error(octa_file, capsys, argv, flag):
    assert run_cli([a.format(f=octa_file) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}" in err


def test_zero_count_stays_valid(octa_file, capsys):
    assert run_cli(["morse", octa_file, "--orderings", "0", "--seed", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["orderings"] == 0


# -- bounds ----------------------------------------------------------------------


def test_bounds_tight_neighborly(capsys):
    assert run_cli(["bounds", "tight-neighborly", "--dim", "3", "--beta1", "1", "--f0", "9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 9 and payload["actual"] == 9
    assert payload["equality"] is True and payload["slack"] == 0


def test_bounds_heawood(capsys):
    assert run_cli(["bounds", "heawood", "--chi", "0", "--f0", "7"]) == 0
    out = capsys.readouterr().out
    assert "bound 7" in out and "equality" in out


def test_bounds_glbc(capsys):
    assert run_cli(["bounds", "glbc", "--dim", "5", "--k", "2", "--j", "5", "--f", "1,7,21", "--actual", "7", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 7 and payload["equality"] is True
    assert "conjecture" in payload["note"]


def test_bounds_glbc_validation(capsys):
    assert run_cli(["bounds", "glbc", "--dim", "4", "--k", "2", "--j", "3", "--f", "1,10,40"]) == 2
    assert "error" in capsys.readouterr().err


def test_bounds_six(capsys):
    assert run_cli(["bounds", "six", "--chi", "4", "--f0", "16", "--f1", "112", "--actual", "448", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == 448 and payload["equality"] is True


def test_bounds_binomial(capsys):
    assert run_cli(["bounds", "binomial", "--f0", "15", "--dim", "4", "--beta1", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["satisfied"] is True and payload["equality"] is True
    assert payload["lhs"] == payload["rhs"] == 45


def test_bounds_ds6(capsys):
    fv = "16,112,448,980,1232,840,240"
    assert run_cli(["bounds", "ds6", "--f", fv, "--chi", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] == 0


@pytest.mark.parametrize("bound", ["glbc", "ds6"])
def test_bounds_without_f_is_usage_error(bound, capsys):
    argv = {"glbc": ["--dim", "5", "--k", "2", "--j", "5"], "ds6": ["--chi", "4"]}[bound]
    assert run_cli(["bounds", bound, *argv, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--f" in captured.err


def test_bounds_bad_f_is_usage_error(capsys):
    assert run_cli(["bounds", "ds6", "--f", "16,x", "--chi", "4"]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- entry points -------------------------------------------------------------------


def test_version_flag():
    assert run_cli(["--version"]) == 0


def run_tree(argv, tmp_path, bin_dir=None):
    """Run ``argv`` in a subprocess that imports the ``tnt`` under test.

    The source directory of the imported ``tnt`` goes first on PYTHONPATH,
    and the working directory is ``tmp_path``, so neither an installed copy
    nor the caller's directory can shadow it. ``bin_dir``, when given, goes
    first on PATH.
    """
    env = dict(os.environ)
    src = str(Path(tnt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path)


def test_console_script_on_path(tmp_path):
    # `tnt --version` runs the console script pyproject.toml declares. The
    # launcher is the one an installer writes for it, so the check needs no
    # install and cannot pick up some other `tnt` already on PATH.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    scripts = project.get("scripts", {})
    assert "tnt" in scripts, "pyproject.toml declares no `tnt` console script"
    module, _, attr = scripts["tnt"].partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "tnt"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)
    proc = run_tree(["tnt", "--version"], tmp_path, bin_dir=bin_dir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"tnt {project['version']}\n"


def test_module_entry(tmp_path):
    proc = run_tree([sys.executable, "-m", "tnt", "bounds", "heawood", "--chi", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "bound 4" in proc.stdout


def test_import_without_numpy(tmp_path):
    code = "import sys, tnt, tnt.cli; print('numpy' in sys.modules)"
    proc = run_tree([sys.executable, "-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
