"""tools/config_digests.py: the 1e-10 numeric gate (``compare_csv``), the
resolution of its config arguments and its check of the thread settings."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "config_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("config_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = "# homlab-csv kind=hconv\nn,err_solution,status\n1,0.25,ok\n2,0.125,ok\n"


def compare(digests, tmp_path, new_text):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    new.write_text(new_text)
    old.write_text(REFERENCE)
    return digests.compare_csv(new, old)


def test_identical_files_pass_with_zero_deviation(digests, tmp_path):
    assert compare(digests, tmp_path, REFERENCE) == (0.0, 0.0, True)


def test_relative_change_below_tolerance_passes(digests, tmp_path):
    _, rel, ok = compare(digests, tmp_path, REFERENCE.replace("0.125", repr(0.125 * (1 + 1e-11))))
    assert ok
    assert rel == pytest.approx(1e-11, rel=1e-3)


def test_relative_change_above_tolerance_fails(digests, tmp_path):
    _, rel, ok = compare(digests, tmp_path, REFERENCE.replace("0.125", repr(0.125 * (1 + 1e-9))))
    assert not ok
    assert rel == pytest.approx(1e-9, rel=1e-3)


def test_roundoff_level_change_passes_without_a_relative_deviation(digests, tmp_path):
    # a 1e-16 -> 2e-16 cell is within ATOL; its ratio of 1 is not reported
    ref = REFERENCE.replace("0.25", "1e-16")
    old = tmp_path / "old.csv"
    old.write_text(ref)
    new = tmp_path / "new.csv"
    new.write_text(ref.replace("1e-16", "2e-16"))
    dev_abs, rel, ok = digests.compare_csv(new, old)
    assert ok
    assert dev_abs == pytest.approx(1e-16)
    assert rel == 0.0


def test_changed_text_cell_fails(digests, tmp_path):
    assert not compare(digests, tmp_path, REFERENCE.replace("2,0.125,ok", "2,0.125,FAIL"))[2]


def test_missing_row_fails(digests, tmp_path):
    assert not compare(digests, tmp_path, REFERENCE.replace("2,0.125,ok\n", ""))[2]


def test_bare_stem_names_a_shipped_config(digests, capsys):
    assert digests.resolve_config(Path("thermo_laminate")) \
        == TOOL.parents[1] / "configs" / "thermo_laminate.cfg"
    assert digests.main(["solve1d"]) == 0
    assert capsys.readouterr().out.endswith("  solve1d/solution.csv\n")


@pytest.mark.parametrize("arg", ["no_such_config", "configs/no_such_config.cfg"])
def test_missing_config_is_a_usage_error(digests, capsys, arg):
    # used to die with a configparser.NoSectionError traceback
    with pytest.raises(SystemExit) as exc:
        digests.main([arg])
    assert exc.value.code == 2
    assert "no_such_config.cfg" in capsys.readouterr().err


def test_compare_names_a_changed_thread_setting(digests, capsys, tmp_path, monkeypatch):
    # evo_two_scale's gap_strong moves by 1 % with the BLAS thread count, so
    # a comparison across thread settings is refused before anything runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert digests.main(["--save", str(tmp_path), "solve1d"]) == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        digests.main(["--compare", str(tmp_path), "solve1d"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "OPENBLAS_NUM_THREADS" in err
    assert "OMP_NUM_THREADS" not in err and "MKL_NUM_THREADS" not in err
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert digests.main(["--compare", str(tmp_path), "solve1d"]) == 0
