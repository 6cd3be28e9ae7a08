import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gramquad.cli
from gramquad.cli import main
from gramquad.weights import compute_rule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWeightsCommand:
    def test_csv_three_points(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--points", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,w"
        assert len(lines) == 4
        assert out.endswith("\n")
        parsed = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert [x for x, _ in parsed] == [-1.0, 0.0, 1.0]
        for _, w in parsed:
            assert w == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_csv_round_trips_bit_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--points", "17")
        assert code == 0
        rule = compute_rule(17)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        nodes = np.array([float(x) for x, _ in rows])
        weights = np.array([float(w) for _, w in rows])
        np.testing.assert_array_equal(nodes, rule.nodes)
        np.testing.assert_array_equal(weights, rule.weights)

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "weights", "--points", "101", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["points"] == 101
        assert document["degree"] == 10
        rule = compute_rule(101)
        np.testing.assert_array_equal(np.array(document["nodes"]), rule.nodes)
        np.testing.assert_array_equal(np.array(document["weights"]), rule.weights)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "weights", "--points", "5", "--output", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,w"
        assert len(lines) == 6

    def test_explicit_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "weights", "--points", "101", "--degree", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["degree"] == 4

    def test_single_point_rejected(self, capsys):
        code, out, err = run_cli(capsys, "weights", "--points", "1")
        assert code == 1
        assert out == ""
        assert "2" in err  # message names the minimum point count

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "weights", "--points", "31")
        _, second, _ = run_cli(capsys, "weights", "--points", "31")
        assert first == second

    def test_missing_points_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["weights"])
        assert excinfo.value.code == 2


class TestIntegrateCommand:
    def test_builtin_quartic(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--points", "101", "--builtin", "appendix-poly"
        )
        assert code == 0
        assert float(out) == pytest.approx(12.4, abs=1e-10)

    def test_builtin_constant(self, capsys):
        code, out, _ = run_cli(capsys, "integrate", "--points", "11", "--builtin", "one")
        assert code == 0
        assert float(out) == pytest.approx(2.0, abs=1e-12)

    def test_samples_file(self, tmp_path, capsys):
        rule = compute_rule(11)
        path = tmp_path / "samples.txt"
        path.write_text(
            "".join(f"{float(x * x)!r}\n" for x in rule.nodes), encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "integrate", "--points", "11", "--samples", str(path))
        assert code == 0
        assert float(out) == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_sample_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "samples.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in range(10)), encoding="utf-8")
        code, out, err = run_cli(capsys, "integrate", "--points", "11", "--samples", str(path))
        assert code == 1
        assert out == ""
        assert "11" in err and "10" in err  # expected vs found

    @pytest.mark.parametrize("bad", ["nan", "1e400", "-inf"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, bad):
        path = tmp_path / "samples.txt"
        values = ["1.0"] * 11
        values[3] = bad
        path.write_text("\n".join(values) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "integrate", "--points", "11", "--samples", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "sample 3" in err

    def test_missing_sample_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "integrate", "--points", "11", "--samples", str(tmp_path / "nope.txt")
        )
        assert code == 1
        assert err != ""

    def test_unknown_builtin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["integrate", "--points", "11", "--builtin", "mystery"])
        assert excinfo.value.code == 2

    def test_source_flags_required_and_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["integrate", "--points", "11"])
        assert excinfo.value.code == 2
        path = tmp_path / "samples.txt"
        path.write_text("1.0\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["integrate", "--points", "11", "--builtin", "one", "--samples", str(path)]
            )
        assert excinfo.value.code == 2

    def test_interval_mapping(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "integrate", "--points", "101", "--builtin", "one", "--interval", "0", "2",
        )
        assert code == 0
        assert float(out) == pytest.approx(2.0, abs=1e-12)

    def test_interval_quartic_on_unit_interval(self, capsys):
        # f(x) = 9x^2 + 585x^3 + 16x^4 on [0, 1] integrates to 3 + 585/4 + 16/5.
        code, out, _ = run_cli(
            capsys,
            "integrate", "--points", "101", "--builtin", "appendix-poly",
            "--interval", "0", "1",
        )
        assert code == 0
        assert float(out) == pytest.approx(3.0 + 585.0 / 4.0 + 3.2, abs=1e-9)

    def test_empty_interval_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integrate", "--points", "11", "--builtin", "one", "--interval", "1", "1",
        )
        assert code == 1
        assert err != ""


    @pytest.mark.parametrize(
        "lines, interval",
        [(["1e308"] * 3, ("-1", "1")), (["1e10"] * 3, ("0", "1e308"))],
    )
    def test_overflowing_result_rejected(self, tmp_path, capsys, lines, interval):
        path = tmp_path / "samples.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "integrate", "--points", "3", "--samples", str(path),
                "--interval", *interval,
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflows" in err

    @pytest.mark.parametrize("bounds", [("0", "inf"), ("1", "1e999"), ("nan", "1")])
    def test_non_finite_interval_rejected(self, capsys, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "integrate", "--points", "11", "--builtin", "appendix-poly",
                "--interval", *bounds,
            )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestCheckCommand:
    def test_healthy_rule(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--points", "101")
        assert code == 0
        assert "status: ok" in out
        assert "weight sum:" in out
        assert "min weight:" in out
        assert "orthonormality residual:" in out
        for d in range(11):
            assert f"monomial residual d={d}:" in out

    def test_two_point_rule_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--points", "2")
        assert code == 0
        assert "status: ok" in out

    def test_single_point_rejected(self, capsys):
        code, _, err = run_cli(capsys, "check", "--points", "1")
        assert code == 1
        assert err != ""

    def test_memory_stays_blocked(self, capsys):
        # The full basis matrix at this size would take 253 MB; the blocked
        # Gram accumulation stays within a 16 MiB block and a few vectors.
        tracemalloc.start()
        try:
            code = main(["check", "--points", "100001"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "status: ok" in capsys.readouterr().out
        assert peak < 64 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"


class TestCompareCommand:
    def test_unstable_point_count(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--points", "9")
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines()[2:]}
        gram_min = float(lines["gram"].split()[1])
        cotes_min = float(lines["newton-cotes"].split()[1])
        assert gram_min > 0.0
        assert cotes_min < 0.0

    def test_stable_point_count(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--points", "3")
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines()[2:]}
        assert float(lines["gram"].split()[1]) > 0.0
        assert float(lines["newton-cotes"].split()[1]) > 0.0

    def test_out_of_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--points", "31")
        assert code == 1
        assert err != ""


def test_memory_error_reported(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(gramquad.cli, "compute_rule", exhausted)
    code, out, err = run_cli(capsys, "weights", "--points", "3000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "3000000000" in err


def test_module_entry_point():
    # The child does not inherit pytest's sys.path, so point it at src/.
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "gramquad.cli", "weights", "--points", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "x,w"
