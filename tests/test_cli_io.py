"""Command-line interface: records, tables, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st
from conftest import assert_allclose

import vacbrownian.cli_io
import vacbrownian.dispersion
import vacbrownian.oracle
import vacbrownian.regimes
from vacbrownian.cli_io import CORR_HEADER, QUANTITY_CHOICES, SWEEP_HEADER, VERIFY_HEADER, main
from vacbrownian.dispersion import EvalPoint, pos_disp_normal
from vacbrownian.errors import QuadratureConvergenceError
from vacbrownian.units_constants import C_SI, unit_preset


# Numeric CLI inputs are fuzzed with these boundary values and with ordinary floats.
EXTREMES = [math.inf, -math.inf, math.nan, 0.0, -1.0, 1e-300, 1e300, 1e-100, 1e-160]
BOUNDARY_FLOATS = st.sampled_from(EXTREMES) | st.floats(min_value=1e-3, max_value=1e3) | st.floats()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "eval", "--particle", "unit", "--z", "1",
                           "--t-over-z", "3", "--quantity", "vel_disp_normal")
        assert code == 0
        record = json.loads(out)
        assert record["particle"] == "unit"
        assert record["t_over_z"]["value"] == 3.0
        cell = record["quantities"]["vel_disp_normal"]
        assert cell["unit_natural"] == "c^2"
        assert cell["unit_si"] == "m^2/s^2"
        assert_allclose(cell["value_si"], cell["value_natural"] * C_SI ** 2,
                        rtol=1e-15)
        assert record["flags"]["near_lightcone"] is False

    def test_si_time_suffix(self, capsys):
        code, out, _ = run(capsys, "eval", "--z", "1e-6m", "--t", "1e-14s",
                           "--quantity", "vel_disp_normal")
        assert code == 0
        record = json.loads(out)
        assert_allclose(record["t"]["value"], 1e-14 * C_SI, rtol=1e-15)

    def test_every_number_is_tagged(self, capsys):
        _, out, _ = run(capsys, "eval", "--particle", "unit", "--z", "1",
                        "--t-over-z", "0.5", "--quantity", "pos_disp_normal",
                        "--quantity", "effective_temperature")
        record = json.loads(out)

        def walk(node, path):
            if isinstance(node, dict):
                if "value" in node or "value_natural" in node:
                    return  # tagged cell
                for key, item in node.items():
                    walk(item, path + (key,))
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                raise AssertionError(f"bare number at {path}")

        walk(record, ())

    def test_lightcone_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "--particle", "unit", "--z", "1",
                           "--t-over-z", "2.0", "--quantity", "vel_disp_normal")
        assert code == 3
        assert "lightcone" in err

    def test_argument_errors(self, capsys):
        # no quantity
        assert run(capsys, "eval", "--z", "1", "--t", "1")[0] == 2
        # unknown quantity
        assert run(capsys, "eval", "--z", "1", "--t", "1",
                   "--quantity", "spin")[0] == 2
        # both t and t-over-z
        assert run(capsys, "eval", "--z", "1", "--t", "1", "--t-over-z", "2",
                   "--quantity", "vel_disp_normal")[0] == 2
        # neither
        assert run(capsys, "eval", "--z", "1",
                   "--quantity", "vel_disp_normal")[0] == 2
        # bad number
        assert run(capsys, "eval", "--z", "abc", "--t", "1",
                   "--quantity", "vel_disp_normal")[0] == 2
        # unknown preset
        assert run(capsys, "eval", "--particle", "muon", "--z", "1", "--t", "1",
                   "--quantity", "vel_disp_normal")[0] == 2

    def test_error_names_parameter(self, capsys):
        _, _, err = run(capsys, "eval", "--z", "abc", "--t", "1",
                        "--quantity", "vel_disp_normal")
        assert "z" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--frequency", "3"])
        assert info.value.code == 2

    def test_charge_mass_override(self, capsys):
        code, out, _ = run(capsys, "eval", "--particle", "unit", "--charge", "2",
                           "--mass", "4", "--z", "1", "--t-over-z", "1",
                           "--quantity", "vel_disp_normal")
        assert code == 0
        record = json.loads(out)
        assert record["particle"] == "custom"
        base = math.log(3.0) / (16.0 * math.pi ** 2)
        assert_allclose(record["quantities"]["vel_disp_normal"]["value_natural"],
                        base * (2.0 / 4.0) ** 2, rtol=1e-12)


class TestNegativeValues:
    """A token like -1e-3 or -1m after a flag is that flag's value: no flag starts with -<digit>."""

    def test_exponent_charge_as_its_own_token(self, capsys):
        tail = ["--z", "1", "--t-over-z", "3", "--quantity", "vel_disp_normal"]
        code, out, err = run(capsys, "eval", "--charge", "-1e-3", *tail)
        assert (code, err) == (0, "")
        assert run(capsys, "eval", "--charge=-1e-3", *tail) == (0, out, "")

    @pytest.mark.parametrize("dt_min, first", [("-1e-3", "-0.001"), ("-1m", "-1.0")])
    def test_corr_negative_dt_min(self, capsys, dt_min, first):
        code, out, err = run(capsys, "corr", "--z", "1", "--dt-min", dt_min,
                             "--dt-max", "4", "--count", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith(f"{first},1.0,")

    def test_negative_ratio_gets_our_refusal(self, capsys):
        assert run(capsys, "eval", "--z", "1", "--t-over-z", "-1e-3",
                   "--quantity", "vel_disp_normal") == (
            2, "", "error: parameter t/z: t must be positive\n")

    @pytest.mark.parametrize("ratio", ["-inf", "-Infinity", "-nan", "-NaN"])
    def test_negative_infinity_and_nan_get_our_refusal(self, capsys, ratio):
        # argparse's own negative-number pattern takes these tokens for flags
        assert run(capsys, "eval", "--z", "1", "--t-over-z", ratio,
                   "--quantity", "vel_disp_normal") == (
            2, "", "error: parameter t/z: t must be finite\n")


class TestQuantityTable:
    DISPERSIONS = ("vel_disp_transverse", "vel_disp_normal", "pos_disp_transverse", "pos_disp_normal")

    def test_choices_in_order(self):
        assert QUANTITY_CHOICES == (*self.DISPERSIONS, *(f"{q}_asym" for q in self.DISPERSIONS),
                                    "effective_temperature", "radiated_velocity_sq")

    @pytest.mark.parametrize("ratio", [0.5, 3.0])
    def test_evaluate_is_the_public_function(self, ratio):
        p = EvalPoint(t=ratio * 1.5, z=1.5, particle=unit_preset())
        expected = {
            "effective_temperature": (
                vacbrownian.regimes.effective_temperature_natural(p.particle, p.z), "temperature"),
            "radiated_velocity_sq": (
                vacbrownian.regimes.radiated_velocity_sq(p.particle, p.z, p.t), "velocity"),
        }
        for q in QUANTITY_CHOICES[:8]:
            if q.endswith("_asym") and ratio < 2.0:
                with pytest.raises(ValueError, match="require t > 2z"):
                    getattr(vacbrownian, q)(p)
                with pytest.raises(ValueError, match="require t > 2z"):
                    vacbrownian.cli_io._evaluate(q, p)
                continue
            result = getattr(vacbrownian, q)(p)
            expected[q] = result.value, result.kind
        for q, (value, kind) in expected.items():
            natural, _, got_kind = vacbrownian.cli_io._evaluate(q, p)
            assert (natural, got_kind) == (value, kind), q
        assert len(expected) == (6 if ratio < 2.0 else 10)


class TestSweep:
    def test_rows_are_not_copied_into_one_text(self, tmp_path):
        # Header, joined rows and footer are written in turn: the rows' text
        # exists once beside the row list, not again with "[\n" and "\n]\n".
        import tracemalloc

        target = tmp_path / "sweep.json"
        tracemalloc.start()
        try:
            assert main(["sweep", "--particle", "unit", "--min", "1e-3", "--max", "1e4",
                         "--count", "2000", "--format", "json", "--output", str(target)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * target.stat().st_size

    def test_memory_does_not_grow_with_count(self, tmp_path):
        # Rows are written as they are made: a sweep of 100,000 points peaks
        # within twice what one of 1,000 points does (each holding all its
        # rows, the larger one would peak near 40 MB).
        import tracemalloc

        def peak(count):
            tracemalloc.start()
            try:
                assert main(["sweep", "--particle", "unit", "--min", "1e-3", "--max", "1e4",
                             "--count", str(count), "--quantity", "vel_disp_normal",
                             "--output", str(tmp_path / "sweep.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(1000)
        assert peak(100_000) < 2 * small

    @pytest.mark.parametrize("argv, message", [
        # the last point's t = 1e308 * 10 overflows
        (["--min", "1", "--max", "1e308", "--z", "10"], "t must be finite"),
        # the first point's t/z = 1 / 1e-320 overflows
        (["--var", "z", "--t", "1", "--min", "1e-320", "--max", "1"], "t/z must be finite"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refusal_writes_nothing(self, tmp_path, capsys, argv, message, fmt):
        argv = ["sweep", "--particle", "unit", "--count", "5", "--format", fmt, *argv]
        target = tmp_path / "sweep.out"
        assert_refused(*run(capsys, *argv), "parameter t/z:", message)
        assert_refused(*run(capsys, *argv, "--output", str(target)), "parameter t/z:", message)
        assert not target.exists()

    @pytest.mark.parametrize("var, key", [("t", "t"), ("t_over_z", "t"), ("z", "z")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_fixed_value_of_swept_variable_refused(self, tmp_path, capsys, var, key, source):
        # the grid sets the swept variable (t/z sets t), so a fixed one would go unused
        argv = ["sweep", "--particle", "unit", "--var", var, "--min", "1", "--max", "3",
                "--count", "2", "--quantity", "vel_disp_normal"]
        if var == "z":
            argv += ["--t", "1"]
        if source == "flag":
            argv += [f"--{key}", "1e300"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({key: "1e300"}))
            argv += ["--config", str(config)]
        assert_refused(*run(capsys, *argv), f"parameter {key}: sweeping {var} takes no fixed --{key}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_error_mid_stream_exits_5(self, capsys, fmt):
        # 2,000 points overrun the file buffer, so the write fails between rows
        code, out, err = run(capsys, "sweep", "--particle", "unit", "--min", "1e-3",
                             "--max", "1e4", "--count", "2000", "--format", fmt,
                             "--output", "/dev/full")
        assert (code, out) == (5, "")
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closing_stdout_ends_quietly(self, unbuffered):
        # as under `| head -1`: the reader takes the header of a 200,000-point
        # sweep and closes the pipe; the sweep exits 0 and writes no stderr,
        # not even when the interpreter flushes stdout at exit
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(Path(vacbrownian.cli_io.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "vacbrownian.cli_io", "sweep", "--particle", "unit",
             "--min", "1e-3", "--max", "1e4", "--count", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        with proc:
            assert proc.stdout.readline() == (SWEEP_HEADER + "\n").encode()
            proc.stdout.close()
            assert proc.wait(timeout=120) == 0
            assert proc.stderr.read() == b""

    def test_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "--particle", "unit",
                           "--var", "t_over_z", "--min", "0.5", "--max", "8",
                           "--count", "5", "--quantity", "vel_disp_normal",
                           "--quantity", "pos_disp_normal")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 5 * 2

    def test_singular_rows_marked(self, capsys):
        # linear grid 1..4 with 4 points hits t/z = 2 exactly
        code, out, _ = run(capsys, "sweep", "--particle", "unit",
                           "--var", "t_over_z", "--min", "1", "--max", "4",
                           "--count", "4", "--spacing", "linear",
                           "--quantity", "vel_disp_normal")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        singular = [row for row in rows if row[6] == "singular"]
        assert len(singular) == 1
        assert singular[0][2] == "2.0"
        assert singular[0][4] == ""  # no value cells
        assert singular[0][5] == ""
        assert singular[0][7] in ("true", "false")  # flags still reported

    def test_asymptote_undefined_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--particle", "unit",
                           "--var", "t_over_z", "--min", "1", "--max", "8",
                           "--count", "4", "--spacing", "linear",
                           "--quantity", "vel_disp_normal_asym")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[6] for row in rows] == ["undefined", "ok", "ok", "ok"]

    def test_csv_roundtrip_reevaluates(self, capsys):
        code, out, _ = run(capsys, "sweep", "--particle", "unit",
                           "--var", "t_over_z", "--min", "0.1", "--max", "30",
                           "--count", "20", "--quantity", "pos_disp_normal")
        assert code == 0
        unit = unit_preset()
        for line in out.strip().split("\n")[1:]:
            cells = line.split(",")
            if cells[6] != "ok":
                continue
            point = EvalPoint(t=float(cells[0]), z=float(cells[1]), particle=unit)
            assert_allclose(pos_disp_normal(point).value, float(cells[4]),
                            rtol=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "sweep", "--particle", "unit",
                           "--var", "t_over_z", "--min", "0.5", "--max", "1.5",
                           "--count", "3", "--format", "json",
                           "--quantity", "vel_disp_normal")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        assert records[0]["value_natural"]["unit"] == "c^2"
        assert records[0]["status"] == "ok"

    def test_z_sweep_needs_fixed_t(self, capsys):
        assert run(capsys, "sweep", "--var", "z", "--min", "1", "--max", "2",
                   "--count", "3")[0] == 2

    def test_z_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--particle", "unit", "--var", "z",
                           "--min", "0.5", "--max", "2", "--count", "3",
                           "--t", "10", "--quantity", "vel_disp_normal")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == ["10.0"] * 3

    def test_output_file_and_determinism(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        args = ["sweep", "--particle", "unit", "--var", "t_over_z",
                "--min", "0.1", "--max", "100", "--count", "25",
                "--quantity", "pos_disp_transverse"]
        assert main(args + ["--output", str(target)]) == 0
        first = target.read_bytes()
        assert main(args + ["--output", str(target)]) == 0
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_unwritable_output_exits_5(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.csv"
        code, _, err = run(capsys, "sweep", "--var", "t_over_z", "--min", "1",
                           "--max", "3", "--count", "3",
                           "--quantity", "vel_disp_normal",
                           "--output", str(target))
        assert code == 5
        assert "output" in err


    def test_asymptote_rows_compute_flags_once_per_point(self, capsys, monkeypatch):
        calls = []
        flags = vacbrownian.regimes.regime_flags

        def counted(*args, **kwargs):
            calls.append(args)
            return flags(*args, **kwargs)

        monkeypatch.setattr(vacbrownian.regimes, "regime_flags", counted)
        monkeypatch.setattr(vacbrownian.dispersion, "regime_flags", counted)
        code, out, _ = run(capsys, "sweep", "--particle", "unit", "--min", "3", "--max", "1e3",
                           "--count", "100", *[f"--quantity={q}_asym" for q in
                                               vacbrownian.dispersion.QUANTITY_IDS])
        assert code == 0
        assert len(out.splitlines()) == 1 + 400
        assert len(calls) == 100

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flags_once_per_point(self, capsys, monkeypatch, fmt):
        # every id over t/z from 1 to 3, one point inside the lightcone window and
        # eleven with undefined asymptotes: each of the 21 points reads its flags once
        calls = []
        flags = vacbrownian.regimes.regime_flags

        def counted(*args):
            calls.append(args)
            return flags(*args)

        monkeypatch.setattr(vacbrownian.regimes, "regime_flags", counted)
        monkeypatch.setattr(vacbrownian.dispersion, "regime_flags", counted)
        code, out, _ = run(capsys, "sweep", "--particle", "unit", "--min", "1", "--max", "3",
                           "--count", "21", "--spacing", "linear", "--format", fmt,
                           *[f"--quantity={q}" for q in QUANTITY_CHOICES])
        assert code == 0
        assert out.count("singular") == 4 and out.count("undefined") == 4 * 11
        assert len(calls) == 21

    def test_unmapped_error_exits_70(self, capsys, monkeypatch):
        def broken(point):
            raise RuntimeError("forced failure")

        # the sweep takes each quantity's function from the table, once per sweep
        monkeypatch.setitem(vacbrownian.cli_io._QUANTITIES, "vel_disp_transverse",
                            (broken, "velocity"))
        code, out, err = run(capsys, "sweep", "--particle", "unit", "--min", "1", "--max", "3",
                             "--count", "3", "--format", "json")
        assert (code, out, err) == (70, "", "error: internal: RuntimeError: forced failure\n")


# Ranges of t/z for the sweep round trip: either centred on the lightcone,
# where closed forms turn singular (an odd linear grid lands on t/z = 2) and
# asymptotes undefined, or anywhere over t/z in [1e-9, 1e9].
CENTRED = st.floats(min_value=0.01, max_value=1.9).map(lambda h: (2.0 - h, 2.0 + h))
SPREAD = st.tuples(st.floats(min_value=1e-9, max_value=1e3),
                   st.floats(min_value=1.01, max_value=1e6)).map(lambda b: (b[0], b[0] * b[1]))


class TestSweepTemplate:
    """The sweep's JSON records are exactly what json.dumps(indent=2) prints."""

    @given(
        var=st.sampled_from(["t", "z", "t_over_z"]),
        spacing=st.sampled_from(["linear", "log"]),
        preset=st.sampled_from(["electron", "unit"]),
        count=st.integers(min_value=2, max_value=20),
        ratios=CENTRED | SPREAD,
        z=st.sampled_from([1.0, 1e-6, 3.7e-5, 2.5]),
        quantities=st.lists(st.sampled_from(QUANTITY_CHOICES), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_and_csv_cells(self, var, spacing, preset, count, ratios, z,
                                           quantities):
        lo, hi = ratios
        if var == "t_over_z":
            bounds = ["--z", repr(z), "--min", repr(lo), "--max", repr(hi)]
        elif var == "t":
            bounds = ["--z", repr(z), "--min", repr(lo * z), "--max", repr(hi * z)]
        else:  # z runs from t/hi to t/lo at t = 2z
            bounds = ["--t", repr(2.0 * z), "--min", repr(2.0 * z / hi), "--max", repr(2.0 * z / lo)]
        argv = ["sweep", "--particle", preset, "--var", var, "--spacing", spacing,
                "--count", str(count), *bounds, *[f"--quantity={q}" for q in quantities]]
        outputs = {}
        for fmt in ("json", "csv"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--format", fmt])
            assert (code, stderr.getvalue()) == (0, ""), argv
            outputs[fmt] = stdout.getvalue()

        records = json.loads(outputs["json"])
        # lists, not strings: pytest reports the first line that differs, without a long diff
        expected = json.dumps(records, indent=2, allow_nan=False) + "\n"
        assert outputs["json"].splitlines(True) == expected.splitlines(True)
        strict_json(outputs["json"])

        def cell(value):
            if value is None:
                return ""
            return value if isinstance(value, str) else json.dumps(value)

        rows = [line.split(",") for line in outputs["csv"].splitlines()[1:]]
        assert len(rows) == len(records) == count * len(quantities)
        for row, r in zip(rows, records):
            assert row == [cell(v) for v in (
                r["t"]["value"], r["z"]["value"], r["t_over_z"]["value"], r["quantity"],
                r["value_natural"]["value"], r["value_si"]["value"], r["status"],
                r["validity_ok"], r["radiation_ok"])]
            assert (r["value_natural"]["unit"] is None) == (r["status"] != "ok")

    def test_text_cells_need_no_escaping(self):
        texts = [*QUANTITY_CHOICES, "ok", "singular", "undefined"]
        texts += [unit for natural, si, _ in vacbrownian.cli_io._UNITS.values()
                  for unit in (natural, si)]
        for text in texts:
            assert json.dumps(text)[1:-1] == text


# Sweep ranges of t/z over every closed-form branch: the series (t/z < 1e-2),
# both sides of the lightcone, the edges of its window (t/z = 2(1 +- 1e-6)
# and an ulp inside each), past LARGE_X (t/z > 8) and far past it.
EDGE = 2.0 * vacbrownian.dispersion.DEFAULT_LIGHTCONE_DELTA
BRANCH_RANGES = st.sampled_from([
    (1e-9, 1e-2), (1e-2, 1.99), (2.01, 8.0), (7.9, 8.1), (8.0, 1e12),
    (2.0 - EDGE, 2.0 + EDGE), (math.nextafter(2.0 - EDGE, 3.0), math.nextafter(2.0 + EDGE, 1.0)),
])


class TestSweepValues:
    @seed(20261018)
    @given(
        bounds=BRANCH_RANGES.flatmap(lambda b: st.tuples(
            st.floats(min_value=b[0], max_value=b[1]), st.floats(min_value=b[0], max_value=b[1]))
            .filter(lambda r: r[0] < r[1])),
        count=st.integers(min_value=2, max_value=5),
        spacing=st.sampled_from(["linear", "log"]),
        preset=st.sampled_from(["electron", "unit"]),
        z=st.sampled_from([1.0, 1e-6, 3.7e-5, 2.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_cells_are_the_single_evaluation_path(self, bounds, count, spacing, preset, z):
        # Every quantity of every row, bit for bit: value_natural is the repr of
        # `_QUANTITIES[id][0]` at the row's point, value_si that of its SI form.
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["sweep", "--particle", preset, "--z", repr(z), "--min", repr(bounds[0]),
                         "--max", repr(bounds[1]), "--count", str(count), "--spacing", spacing,
                         *[f"--quantity={q}" for q in QUANTITY_CHOICES]])
        assert (code, stderr.getvalue()) == (0, "")
        out = stdout.getvalue()
        spec = vacbrownian.cli_io._PRESETS[preset]()
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == count * len(QUANTITY_CHOICES)
        for t, z_text, _, q, natural, si, status, *_ in rows:
            p = EvalPoint(t=float(t), z=float(z_text), particle=spec)
            value, kind = vacbrownian.cli_io._QUANTITIES[q]
            try:
                expected = value(p)
            except (ValueError, vacbrownian.LightconeSingularityError):
                assert (natural, si) == ("", "") and status != "ok"
                continue
            to_si = vacbrownian.cli_io._UNITS[kind][2] or float  # None: a position's SI value
            assert (natural, si, status) == (repr(expected), repr(to_si(expected)), "ok")


class TestVerify:
    def test_report_shape_and_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "post-lightcone")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == VERIFY_HEADER
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            assert line.split(",")[6] == "true"

    def test_failing_tolerance_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--grid", "post-lightcone",
                           "--tolerance", "1e-16")
        assert code == 1
        assert any(line.split(",")[6] == "false"
                   for line in out.strip().split("\n")[1:])

    def test_one_tolerance_passes_every_row(self, capsys):
        # 1e-4 replaces the tighter pre-lightcone tier too, and every row still holds
        code, out, _ = run(capsys, "verify", "--grid", "full", "--tolerance", "1e-4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 36
        assert all(line.split(",")[6] == "true" for line in lines[1:])

    def test_bad_grid_exits_2(self, capsys):
        assert run(capsys, "verify", "--grid", "everywhere")[0] == 2

    def test_determinism(self, tmp_path, capsys):
        target = tmp_path / "verify.csv"
        args = ["verify", "--grid", "pre-lightcone", "--output", str(target)]
        assert main(list(args)) == 0
        first = target.read_bytes()
        assert main(list(args)) == 0
        assert target.read_bytes() == first
        capsys.readouterr()

    def test_no_grid_reaches_exit_4(self, cold_oracle_memo):
        # verify evaluates only its grid's fixed t/z, where the oracle answers,
        # so over z from 1e-320 to 1e300, and at the smallest subnormal z,
        # where t rounds onto 2z, a call passes (exit 0), is refused (2) or
        # lands in the lightcone window (3), and no oracle refusal is met (4)
        rng = random.Random(36)
        zs = [10.0 ** rng.uniform(-320.0, 300.0) for _ in range(200)]
        codes = set()
        for z in zs + [k * 5e-324 for k in range(1, 9)]:
            for grid in vacbrownian.oracle.GRIDS:
                argv = ["verify", "--z", repr(z), "--grid", grid,
                        "--particle", rng.choice(("unit", "electron"))]
                codes.add(run_fuzzed(argv, (0, 2, 3))[0])
        assert codes == {0, 2, 3}

    def test_oracle_failure_exits_4(self, capsys, monkeypatch, cold_oracle_memo):
        # a warm memo would hold every scaled integral and call no quadrature
        def broken(*args, **kwargs):
            raise QuadratureConvergenceError("forced failure", achieved=1.0)

        monkeypatch.setattr(vacbrownian.oracle, "_integrate", broken)
        code, _, err = run(capsys, "verify", "--grid", "post-lightcone")
        assert code == 4
        assert "converge" in err


class TestCorr:
    def test_table_with_singular_row(self, capsys):
        code, out, _ = run(capsys, "corr", "--z", "1", "--dt-min", "0",
                           "--dt-max", "4", "--count", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CORR_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert rows[2][4] == "singular"
        assert rows[2][2] == ""
        coincidence = 1.0 / (16.0 * math.pi ** 2)
        assert_allclose(float(rows[0][2]), coincidence, rtol=1e-12)

    def test_regularized_table_has_no_singular_rows(self, capsys):
        code, out, _ = run(capsys, "corr", "--z", "1", "--dt-min", "0",
                           "--dt-max", "4", "--count", "5", "--eps", "1e-3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(row[4] == "ok" for row in rows)

    def test_requires_dt_max(self, capsys):
        assert run(capsys, "corr", "--z", "1")[0] == 2


class TestRegimes:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "regimes", "--z", "1e-6m", "--t-over-z", "10")
        assert code == 0
        report = json.loads(out)
        assert report["particle"] == "electron"
        assert report["t_eff"]["unit"] == "K"
        assert report["validity_ok"] is True

    def test_ratio_x_null_before_lightcone(self, capsys):
        _, out, _ = run(capsys, "regimes", "--z", "1", "--t-over-z", "1")
        report = json.loads(out)
        assert report["ratio_x"]["value"] is None


class TestConstants:
    def test_payload(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert payload["constants"]["alpha"]["value"] == 7.2973525693e-3
        assert_allclose(payload["electron_preset"]["e"]["value"],
                        math.sqrt(4.0 * math.pi * 7.2973525693e-3), rtol=1e-15)


PARTICLE_FLAGS = ["--config CONFIG", "--particle PARTICLE", "--charge CHARGE", "--mass MASS"]


class TestHelp:
    # Each subcommand's flags with their dests (shown as metavars), written out
    # here rather than read from the table the parser is built from.  corr
    # reads no particle and constants reads nothing, so neither takes those flags.
    @pytest.mark.parametrize("command, flags", [
        ("eval", PARTICLE_FLAGS + ["--z Z", "--t T", "--t-over-z T_OVER_Z",
                                   "--quantity QUANTITY"]),
        ("sweep", PARTICLE_FLAGS + ["--var VAR", "--min MIN", "--max MAX", "--count COUNT",
                                    "--spacing SPACING", "--z Z", "--t T",
                                    "--quantity QUANTITY", "--format FORMAT",
                                    "--output OUTPUT"]),
        ("verify", PARTICLE_FLAGS + ["--z Z", "--grid GRID", "--tolerance TOLERANCE",
                                     "--output OUTPUT"]),
        ("regimes", PARTICLE_FLAGS + ["--z Z", "--t T", "--t-over-z T_OVER_Z"]),
        ("corr", ["--config CONFIG", "--z Z", "--dt-min DT_MIN", "--dt-max DT_MAX",
                  "--count COUNT", "--eps EPS", "--output OUTPUT"]),
        ("constants", []),
    ])
    def test_lists_exactly_the_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--\S+(?: [A-Z_]+)?)", capsys.readouterr().out, re.M)
        assert listed == ["--help"] + flags

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        built = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(parser, **kwargs):
            built.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        vacbrownian.cli_io._build_parser.cache_clear()
        assert main(["constants"]) == 0
        assert main(["eval", "--t-over-z", "3", "--quantity", "vel_disp_normal"]) == 0
        capsys.readouterr()
        assert built == ["vacbrownian"]

    @pytest.mark.parametrize("argv", [
        ["corr", "--particle", "unit", "--z", "1", "--dt-max", "4"],
        ["corr", "--mass", "2", "--z", "1", "--dt-max", "4"],
        ["corr", "--charge", "2", "--z", "1", "--dt-max", "4"],
        ["constants", "--particle", "muon"],
        ["constants", "--config", "x.json"],
    ])
    def test_flags_a_subcommand_ignores_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"z": "1", "t_over_z": "3",
                                      "particle": "unit",
                                      "quantity": ["vel_disp_normal"]}))
        code, out, _ = run(capsys, "eval", "--config", str(config))
        assert code == 0
        assert json.loads(out)["t_over_z"]["value"] == 3.0

    def test_flags_beat_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"z": "1", "t_over_z": "3",
                                      "particle": "unit",
                                      "quantity": ["vel_disp_normal"]}))
        code, out, _ = run(capsys, "eval", "--config", str(config),
                           "--t-over-z", "5")
        assert code == 0
        assert json.loads(out)["t_over_z"]["value"] == 5.0

    def test_null_means_unset(self, tmp_path, capsys):
        # a JSON null falls through to the default (z = 1), as an absent key does
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"z": None, "t_over_z": "3", "particle": None,
                                      "quantity": ["vel_disp_normal"]}))
        code, out, _ = run(capsys, "eval", "--config", str(config))
        assert code == 0
        record = json.loads(out)
        assert (record["particle"], record["z"]["value"]) == ("electron", 1.0)

    def test_non_string_quantity_refused(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"z": 1, "t": 1, "quantity": 5}))
        assert_refused(*run(capsys, "eval", "--config", str(config)),
                       "parameter quantity: unknown quantity 5")

    @pytest.mark.parametrize("command, config, key", [
        # a misspelt flag name; the parent ignored it and asked for --t
        (["eval"], {"z": 1, "t_ovr_z": 3, "quantity": "vel_disp_normal"}, "t_ovr_z"),
        # output is read from the flag only
        (["sweep", "--particle", "unit", "--min", "1", "--max", "3"],
         {"output": "table.csv"}, "output"),
        # a flag of other subcommands that corr does not read
        (["corr", "--z", "1", "--dt-max", "4"], {"particle": "unit"}, "particle"),
    ])
    def test_unknown_key_refused(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert_refused(*run(capsys, *command, "--config", str(path)),
                       f"parameter config: unknown key {key!r}")

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("not json")
        assert run(capsys, "eval", "--config", str(config), "--z", "1",
                   "--t", "1", "--quantity", "vel_disp_normal")[0] == 2
        config.write_text("[1, 2]")
        assert run(capsys, "eval", "--config", str(config), "--z", "1",
                   "--t", "1", "--quantity", "vel_disp_normal")[0] == 2
        assert run(capsys, "eval", "--config", str(tmp_path / "absent.json"),
                   "--z", "1", "--t", "1",
                   "--quantity", "vel_disp_normal")[0] == 2

    # json.load raises other errors than JSONDecodeError for these three
    @pytest.mark.parametrize("command, content", [
        ("eval", b'{"z": "1\xff"}'),
        ("eval", b'{"z": ' + b"1" * 5000 + b"}"),
        ("sweep", b'{"z": ' + b"1" * 5000 + b"}"),
        ("eval", b"[" * 100_000 + b"]" * 100_000),
    ], ids=["not-utf8", "long-integer-eval", "long-integer-sweep", "nested-past-recursion-limit"])
    def test_unreadable_json_config_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "run.json"
        path.write_bytes(content)
        assert_refused(*run(capsys, command, "--config", str(path)),
                       f"parameter config: invalid JSON in {str(path)!r}")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are refused, every number finite."""
    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    def check(node):
        if isinstance(node, dict):
            for item in node.values():
                check(item)
        elif isinstance(node, list):
            for item in node:
                check(item)
        elif isinstance(node, float):
            assert math.isfinite(node)

    check(json.loads(text, parse_constant=refuse))


def run_fuzzed(argv, codes):
    """Run one CLI call, which exits with one of ``codes``; a refusal (exit 2
    or 3) prints no output and one stderr line.  Returns the code and stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in codes, (argv, err)
    if code in (2, 3):
        assert out == "", argv
        assert err.startswith("error: parameter " if code == 2 else "error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    return code, out


def assert_refused(code, out, err, *fragments):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


class TestBoundary:
    def test_infinite_z_refused(self, capsys):
        assert_refused(*run(capsys, "eval", "--particle", "unit", "--z", "inf",
                            "--t-over-z", "0.5", "--quantity", "vel_disp_normal"),
                       "parameter t/z:", "finite")

    def test_infinite_mass_refused(self, capsys):
        assert_refused(*run(capsys, "eval", "--particle", "unit", "--z", "1",
                            "--t-over-z", "0.5", "--mass", "inf",
                            "--quantity", "vel_disp_normal"),
                       "parameter charge/mass:", "finite")

    def test_infinite_sweep_bound_refused(self, capsys):
        assert_refused(*run(capsys, "sweep", "--particle", "unit", "--z", "1",
                            "--min", "0.1", "--max", "inf", "--count", "3"),
                       "parameter min/max:")

    def test_overflowing_sweep_point_refused(self, capsys):
        # every bound is finite, but t = (t/z) * z overflows at the top of the grid
        assert_refused(*run(capsys, "sweep", "--particle", "unit", "--z", "1e300",
                            "--min", "1", "--max", "1e10", "--count", "3"),
                       "parameter t/z:", "t must be finite")

    @pytest.mark.parametrize("extra", [
        ["--min", "1e-200", "--max", "1e200"],
        ["--var", "z", "--t", "1e-300", "--min", "1e-310", "--max", "1e300"],
    ])
    def test_overflowing_log_sweep_ratio_refused(self, capsys, extra):
        # both ends are finite, but the log grid's max/min overflows
        assert_refused(*run(capsys, "sweep", "--particle", "unit", *extra, "--count", "3"),
                       "parameter min/max:", f"max/min = {float(extra[-1])!r}/"
                       f"{float(extra[-3])!r} leaves the float range")

    def test_overflowing_corr_range_refused(self, capsys):
        # both ends are finite, but dt-max - dt-min overflows
        assert_refused(*run(capsys, "corr", "--z", "1", "--dt-min", "-1e308",
                            "--dt-max", "1e308", "--count", "3"),
                       "parameter dt-min/dt-max:", "dt-max - dt-min leaves the float range")

    def test_prefactor_overflow_refused(self, capsys):
        assert_refused(*run(capsys, "eval", "--z", "1e-300", "--t-over-z", "0.5",
                            "--quantity", "vel_disp_normal"),
                       "parameter quantity: vel_disp_normal:", "overflows")

    def test_prefactor_overflow_sweep_rows_undefined(self, capsys):
        code, out, err = run(capsys, "sweep", "--z", "1e-300", "--min", "0.1",
                             "--max", "1", "--count", "3",
                             "--quantity", "vel_disp_normal", "--quantity", "pos_disp_normal")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[6] for row in rows if row[3] == "vel_disp_normal"] == ["undefined"] * 3
        assert [row[4] for row in rows if row[3] == "vel_disp_normal"] == [""] * 3
        assert [row[6] for row in rows if row[3] == "pos_disp_normal"] == ["ok"] * 3

    def test_large_x_series_past_the_range_of_x_squared(self, capsys, closed_form):
        # at t/z = 1e300 x^2 overflows, but neither transverse form needs it
        code, out, err = run(capsys, "eval", "--particle", "unit", "--z", "1",
                             "--t-over-z", "1e300", "--quantity", "vel_disp_transverse",
                             "--quantity", "pos_disp_transverse")
        assert code == 0 and err == ""
        p = EvalPoint(t=1e300, z=1.0, particle=unit_preset())
        exact = closed_form("pos_disp_transverse", p)
        value = json.loads(out)["quantities"]["pos_disp_transverse"]["value_natural"]
        assert_allclose(value, float(exact), rtol=1e-15)

    @pytest.mark.parametrize("extra", [
        ["--particle", "unit", "--z", "1", "--t-over-z", "1e300",
         "--quantity", "pos_disp_normal"],  # its leading x^2/2 overflows
        ["--z", "1e-300", "--t-over-z", "0.5",
         "--quantity", "effective_temperature"],  # divides by an underflowed zero
        ["--particle", "unit", "--z", "1e200", "--t-over-z", "0.5",
         "--quantity", "radiated_velocity_sq"],  # z**4 raises OverflowError
        ["--particle", "unit", "--z", "1", "--t-over-z", "1e300",
         "--quantity", "pos_disp_normal_asym"],  # the same x^2/2 as pos_disp_normal
        ["--charge", "1e150", "--mass", "1", "--z", "1e160", "--t", "1e161",
         "--quantity", "effective_temperature"],  # 4 pi^2 m z z overflows: 0.0, not 2.533e-22
        ["--particle", "unit", "--mass", "1e100", "--z", "1e70", "--t", "1e300",
         "--quantity", "radiated_velocity_sq"],  # z^4 m^3 overflows: 0.0, not 2.02e-283
        ["--particle", "unit", "--z", "1e-150", "--t", "1e-320",
         "--quantity", "vel_disp_normal"],  # x^2 underflows in the bracket: 0.0, not 6.3e-43
        ["--z", "1e308", "--t", "1e-320",
         "--quantity", "pos_disp_transverse"],  # t/z underflows to 0
    ])
    def test_values_outside_float_range_refused(self, capsys, extra):
        assert_refused(*run(capsys, "eval", *extra),
                       f"parameter quantity: {extra[-1]}:", "float range")

    def test_regimes_out_of_range_refused(self, capsys):
        assert_refused(*run(capsys, "regimes", "--particle", "unit", "--z", "1",
                            "--t", "inf"),
                       "parameter t/z:")

    def test_regimes_estimate_rounding_to_zero_refused(self, capsys):
        # 3 pi t m overflows, so ratio_x, truly 1.22e-156, would print as 0.0
        assert run(capsys, "regimes", "--mass", "1e102", "--z", "1", "--t", "1e210") == (
            2, "", "error: parameter t/z: regime report leaves the float range\n")

    def test_estimate_rounding_to_zero_sweep_rows_undefined(self, capsys):
        code, out, err = run(capsys, "sweep", "--charge", "1e150", "--mass", "1", "--z", "1e160",
                             "--var", "t", "--min", "1e161", "--max", "1e162", "--count", "3",
                             "--quantity", "effective_temperature")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[4:7] for row in rows] == [["", "", "undefined"]] * 3

    @pytest.mark.parametrize("extra", [
        ["--particle", "unit", "--z", "1e-150", "--max", "1e-300",
         "--quantity", "vel_disp_normal"],  # x^2 underflows in the bracket
        ["--z", "1e308", "--max", "1.7976931348623157e308", "--spacing", "linear",
         "--quantity", "pos_disp_transverse"],  # t/z underflows
    ], ids=["bracket", "ratio"])
    def test_closed_form_rounding_to_zero_sweep_row_undefined(self, capsys, extra):
        # no closed form vanishes below the lightcone: the first row's 0.0 underflowed
        code, out, err = run(capsys, "sweep", "--var", "t", "--min", "1e-320", "--count", "3",
                             *extra)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert rows[0][4:7] == ["", "", "undefined"]
        assert [row[6] for row in rows[1:]] == ["ok", "ok"]

    @pytest.mark.parametrize("extra, message", [
        (["--z", "1", "--t", "inf"], "t must be finite"),
        (["--z", "1", "--t", "nan"], "t must be finite"),
        (["--z", "inf", "--t", "1"], "z must be finite"),
    ], ids=["t=inf", "t=nan", "z=inf"])
    def test_regimes_refuses_non_finite_point_as_eval_does(self, capsys, extra, message):
        expected = (2, "", f"error: parameter t/z: {message}\n")
        assert run(capsys, "regimes", *extra) == expected
        assert run(capsys, "eval", *extra, "--quantity", "vel_disp_normal") == expected

    @pytest.mark.parametrize("extra, fragment", [
        (["--z", "nan", "--dt-max", "4"], "parameter z:"),
        (["--z", "-1", "--dt-max", "4"], "parameter z:"),
        (["--z", "inf", "--dt-max", "4"], "parameter z:"),
        (["--z", "1e200", "--dt-max", "4e200"], "parameter dt/z:"),  # 4z^2 overflows
        (["--z", "1e-200", "--dt-max", "4e-200"], "parameter dt/z:"),  # 4z^2 underflows at dt = 0
        (["--dt-max", "4", "--eps", "0"], "parameter eps:"),
        (["--dt-max", "4", "--eps", "nan"], "parameter eps:"),
        (["--dt-max", "4", "--eps", "1e300"], "parameter dt/z/eps:"),
        (["--dt-max", "inf"], "parameter dt-min/dt-max:"),
        (["--dt-max", "1e200"], "parameter dt/z:"),
        # (dt^2 - 4z^2)^3 overflows: corr_transverse is 0.0, not -1.0132e-241
        (["--z", "1", "--dt-min", "1e60", "--dt-max", "2e60"], "parameter dt/z:"),
    ])
    def test_corr_out_of_range_refused(self, capsys, extra, fragment):
        assert_refused(*run(capsys, "corr", "--count", "5", *extra), fragment)

    def test_corr_accepts_z_whose_square_underflows(self, capsys):
        # 4z^2 underflows to zero, yet every cell with dt >> z is finite
        code, out, err = run(capsys, "corr", "--z", "1e-200", "--dt-min", "1", "--dt-max", "2",
                             "--count", "3")
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[4] for row in rows] == ["ok"] * 3
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[:4])
        # at dt = 1 both kernels reach their free-space limits -+1/pi^2
        assert float(rows[0][2]) == -1.0 / math.pi**2 == -float(rows[0][3])

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-6"])
    def test_verify_bad_tolerance_refused(self, capsys, tolerance):
        assert_refused(*run(capsys, "verify", "--grid", "pre-lightcone",
                            f"--tolerance={tolerance}"),
                       "parameter tolerance:")

    @pytest.mark.parametrize("extra, fragment", [
        (["--z", "inf"], "z must be finite"),
        (["--z", "-1"], "must be positive"),
        (["--z", "1e-300"], "overflows"),
        # the velocity rows hold (e^2/(m^2 z^2) = 1), but e^2/m^2 = 1e-600 underflows
        (["--z", "1e-300", "--charge", "1e-150", "--mass", "1e150"], "position prefactor"),
    ])
    def test_verify_refused_z_names_t_z(self, capsys, extra, fragment):
        assert_refused(*run(capsys, "verify", "--grid", "pre-lightcone", *extra),
                       "parameter t/z:", fragment)

    @pytest.mark.parametrize("z", ["0", "-1", "-0.0"])
    def test_verify_non_positive_z_refused_as_z(self, capsys, z):
        # t = (t/z) z is no verify input, so the refusal blames z, as eval's does
        assert run(capsys, "verify", "--grid", "pre-lightcone", f"--z={z}") == (
            2, "", "error: parameter t/z: z must be positive\n")

    def test_verify_unknown_grid_names_grid(self, capsys):
        assert_refused(*run(capsys, "verify", "--grid", "diagonal", "--z", "inf"),
                       "parameter grid:")

    @seed(20261019)
    @given(
        z=BOUNDARY_FLOATS,
        lo=BOUNDARY_FLOATS,
        hi=BOUNDARY_FLOATS,
        eps=st.none() | BOUNDARY_FLOATS,
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_corr_cells_finite(self, z, lo, hi, eps):
        argv = ["corr", f"--z={z!r}", f"--dt-min={lo!r}", f"--dt-max={hi!r}", "--count=5"]
        if eps is not None:
            argv.append(f"--eps={eps!r}")
        code, out = run_fuzzed(argv, (0, 2))
        if code == 2:
            return
        for row in out.splitlines()[1:]:
            cells = row.split(",")
            if cells[4] != "singular":
                assert all(math.isfinite(float(cell)) for cell in cells[:4]), (argv, row)
                # a plain correlator never vanishes; a regularized one may cross zero
                assert eps is not None or 0.0 not in map(float, cells[2:4]), (argv, row)

    @seed(20261019)
    @given(
        z=BOUNDARY_FLOATS,
        charge=st.none() | BOUNDARY_FLOATS,
        mass=st.none() | BOUNDARY_FLOATS,
        grid=st.sampled_from(["pre-lightcone", "post-lightcone"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_fuzz_verify(self, z, charge, mass, grid):
        argv = ["verify", f"--grid={grid}", f"--z={z!r}"]
        if charge is not None:
            argv.append(f"--charge={charge!r}")
        if mass is not None:
            argv.append(f"--mass={mass!r}")
        code, out = run_fuzzed(argv, (0, 1, 2))
        if code == 2:
            return
        for row in out.splitlines()[1:]:
            cells = row.split(",")
            # t/z, closed form, oracle value, relative error, error estimate
            assert all(math.isfinite(float(cell)) for cell in cells[1:6]), (argv, row)
            assert cells[6] in ("true", "false"), (argv, row)

    def test_verify_closed_form_underflow_refused(self, capsys):
        # e^2 = 1e-320 keeps the prefactors positive, but a closed form
        # rounds to 0.0 and no relative error against it exists
        code, out, err = run(capsys, "verify", "--charge", "1e-160", "--mass", "1",
                             "--grid", "pre-lightcone")
        assert (code, out, err) == (2, "", "error: parameter t/z: value leaves the float range\n")

    def test_verify_grid_zero_closed_form_refused(self, capsys):
        # past the lightcone `Quantity.value` returns the 0.0, so verify_grid's
        # own zero refusal is the one that answers
        code, out, err = run(capsys, "verify", "--charge", "1e-161", "--mass", "1",
                             "--grid", "post-lightcone")
        assert (code, out, err) == (2, "", "error: parameter t/z: value leaves the float range\n")

    @seed(20261019)
    @given(
        z=BOUNDARY_FLOATS,
        ratio=BOUNDARY_FLOATS,
        mass=st.none() | BOUNDARY_FLOATS,
        charge=st.none() | BOUNDARY_FLOATS,
        quantities=st.lists(st.sampled_from(QUANTITY_CHOICES), min_size=1, max_size=2),
        command=st.sampled_from(["eval", "regimes"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_exit_codes_and_strict_json(self, z, ratio, mass, charge, quantities, command):
        argv = [command, "--particle=unit", f"--z={z!r}", f"--t-over-z={ratio!r}"]
        if mass is not None:
            argv.append(f"--mass={mass!r}")
        if charge is not None:
            argv.append(f"--charge={charge!r}")
        if command == "eval":
            argv += [f"--quantity={q}" for q in quantities]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 2, 3), (argv, stderr.getvalue())
        if code == 0:
            assert stderr.getvalue() == ""
            strict_json(stdout.getvalue())
            record = json.loads(stdout.getvalue())
            # estimates that cannot vanish print no 0.0 (the kelvin value of a
            # subnormal natural temperature may truly underflow, and is not checked)
            if command == "eval":
                printed = [record["quantities"][q]["value_natural"] for q in quantities
                           if q in ("effective_temperature", "radiated_velocity_sq")]
            else:
                printed = [record[key]["value"] for key in ("t_eff", "dv2_rad", "ratio_z")]
                if record["ratio_x"]["value"] is not None:
                    printed.append(record["ratio_x"]["value"])
            assert 0.0 not in printed, (argv, printed)
        else:
            assert stdout.getvalue() == ""
            assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
