"""End-to-end tests of the command line tool: config parsing, exit
codes, CSV output, sweeps, and determinism."""

import math

import numpy as np
import pytest

from cexlab import cli, transport
from cexlab.fields import load_field


def run(args):
    return cli.main(list(args))


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_rows(path):
    header, rows = None, []
    for line in open(path, encoding="utf-8"):
        if line.startswith("#"):
            continue
        parts = line.strip().split(",")
        if header is None:
            header = parts
        else:
            rows.append(parts)
    return header, rows


class TestConfigParsing:
    def test_values_and_comments(self):
        text = """
        # a comment
        bump.n = 5          # trailing comment
        bump.alpha = 0.25
        transport.grid = 512
        """
        out = cli.parse_config_text(text)
        assert out == {"bump.n": 5, "bump.alpha": 0.25,
                       "transport.grid": 512}
        assert isinstance(out["bump.n"], int)

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.CliError, match="line 2.*unknown"):
            cli.parse_config_text("bump.n = 4\nbump.bogus = 1\n")

    def test_malformed_line(self):
        with pytest.raises(cli.CliError, match="expected 'section.key"):
            cli.parse_config_text("just some words\n")

    def test_effective_config_merges_defaults(self):
        cfg = cli.effective_config({"wave.times": 7})
        assert cfg["wave.times"] == 7
        assert cfg["wave.m"] == cli.CONFIG_DEFAULTS["wave.m"]


class TestSweepParsing:
    def test_bare_key_is_qualified(self):
        assert cli.parse_sweep("n=4..6", "bump") == ("bump.n", [4, 5, 6])

    def test_qualified_key(self):
        assert cli.parse_sweep("wave.times=3..3", "bump") \
            == ("wave.times", [3])

    def test_bad_forms(self):
        for text in ("n", "n=4", "n=4..x", "bogus.key=1..2", "n=5..4"):
            with pytest.raises(cli.CliError):
                cli.parse_sweep(text, "bump")


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bump.bogus = 1\n")
        assert run(["bump", "--config", cfg]) == 2
        assert "unknown configuration key" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run(["bump", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_sweep(self, capsys):
        assert run(["bump", "--sweep", "n=6..4"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_tol_rejected_where_meaningless(self, capsys):
        assert run(["bump", "--tol", "0.1"]) == 2
        assert "no tolerance setting" in capsys.readouterr().err

    def test_precondition_failure_is_config_error(self, tmp_path, capsys):
        # beta*n = 4.5 < n + 2 violates the separation hypothesis
        cfg = write_cfg(tmp_path, "bump.n = 3\n")
        out = str(tmp_path / "r.csv")
        assert run(["bump", "--config", cfg, "--csv", out]) == 2
        assert "beta*n" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "exercise.n_count = 2\n")
        dest = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert run(["exercise", "--config", cfg, "--csv", dest]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_verification_failure_still_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "ex.csv")
        code = run(["exercise", "--csv", out, "--tol", "-0.9"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("verification failed:")
        header, rows = read_rows(out)
        assert header == list(cli.EXERCISE_COLUMNS)
        assert len(rows) == 3

    def test_overflow_is_numeric_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "transport.n = 1000\n")
        out = str(tmp_path / "t.csv")
        assert run(["transport", "--config", cfg, "--csv", out]) == 4
        err = capsys.readouterr().err
        assert "range error" in err or "overflow" in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("cexlab ")


class TestExerciseCommand:
    def test_default_csv_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["exercise"]) == 0
        assert (tmp_path / "exercise_report.csv").exists()

    def test_stdout_output(self, capsys):
        assert run(["exercise", "--csv", "-"]) == 0
        out = capsys.readouterr().out
        assert "# command: exercise" in out
        assert ",".join(cli.EXERCISE_COLUMNS) in out

    def test_rows_and_config_echo(self, tmp_path):
        out = str(tmp_path / "ex.csv")
        assert run(["exercise", "--csv", out]) == 0
        text = open(out, encoding="utf-8").read()
        for key in cli.CONFIG_DEFAULTS:
            assert f"# config: {key} = " in text
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["4", "8", "16"]
        lips = [float(r[2]) for r in rows]
        assert lips[0] < lips[1] < lips[2]

    def test_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run(["exercise", "--csv", a]) == 0
        assert run(["exercise", "--csv", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestBumpCommand:
    def test_single_run(self, tmp_path):
        out = str(tmp_path / "b.csv")
        assert run(["bump", "--csv", out]) == 0
        header, rows = read_rows(out)
        assert header == list(cli.BUMP_COLUMNS)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["n0"] == "51"
        assert row["support_ok"] == "true"
        assert float(row["holder"]) <= float(row["holder_bound"])

    def test_sweep_levels(self, tmp_path):
        out = str(tmp_path / "b.csv")
        assert run(["bump", "--csv", out, "--sweep", "n=4..6"]) == 0
        header, rows = read_rows(out)
        assert [r[0] for r in rows] == ["4", "5", "6"]
        text = open(out, encoding="utf-8").read()
        assert "# sweep: bump.n = 4..6" in text


class TestWaveCommand:
    CFG = "wave.lam_min_exp = 4\nwave.lam_max_exp = 5\nwave.times = 3\n"

    def test_small_family(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG + "wave.tol = 1e-8\n")
        out = str(tmp_path / "w.csv")
        assert run(["wave", "--config", cfg, "--csv", out]) == 0
        header, rows = read_rows(out)
        assert header == list(cli.WAVE_COLUMNS)
        assert len(rows) == 6
        lams = sorted({float(r[0]) for r in rows})
        assert lams == [16.0, 32.0]
        for lam in lams:
            bounds = [float(r[7]) for r in rows if float(r[0]) == lam]
            logs = [float(r[6]) for r in rows if float(r[0]) == lam]
            # the energy stays above the flux-based lower bound
            assert all(e >= b - 1e-6 for e, b in zip(logs, bounds))


class TestTransportCommand:
    def test_scaling_mode_sweep(self, tmp_path):
        out = str(tmp_path / "t.csv")
        assert run(["transport", "--csv", out, "--sweep", "n=1..8"]) == 0
        header, rows = read_rows(out)
        assert header == list(cli.TRANSPORT_COLUMNS)
        assert len(rows) == 8
        assert [r[0] for r in rows] == [str(i) for i in range(1, 9)]
        lams = [float(r[1]) for r in rows]
        assert lams == sorted(lams, reverse=True)
        lbs = [float(r[10]) for r in rows]
        assert all(b > 0 for b in lbs)

    def test_base_measurements_are_taken_once_per_sweep(self, tmp_path):
        cli._base_measurements.cache_clear()
        out = str(tmp_path / "t.csv")
        assert run(["transport", "--csv", out, "--sweep", "n=1..3"]) == 0
        info = cli._base_measurements.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (2, 1, 4)

    def test_csv_same_with_stage_velocity_cache_cold_and_warm(self, tmp_path):
        cfg = write_cfg(tmp_path, "transport.stage_min = 4\n"
                                  "transport.stage_max = 4\n"
                                  "transport.grid = 256\n"
                                  "transport.steps = 40\n")
        cache = transport._build_stage_velocity
        cache.cache_clear()
        csvs = []
        for name in ("cold.csv", "warm.csv"):
            out = tmp_path / name
            assert run(["transport", "--config", cfg, "--csv", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert cache.cache_info().misses == 2  # one build per half period
        assert csvs[0] == csvs[1]

    def test_demo_with_snapshot(self, tmp_path):
        cfg = write_cfg(tmp_path, "transport.stage_min = 4\n"
                                  "transport.stage_max = 4\n"
                                  "transport.grid = 256\n"
                                  "transport.steps = 40\n")
        out = str(tmp_path / "t.csv")
        snap = str(tmp_path / "final.pthl")
        assert run(["transport", "--config", cfg, "--csv", out,
                    "--snapshot", snap]) == 0
        header, rows = read_rows(out)
        assert header == list(cli.TRANSPORT_COLUMNS)
        assert len(rows) == 3  # one stage, three record times
        field = load_field(snap)
        assert field.n == 256
        assert float(np.max(np.abs(field.values))) > 0
