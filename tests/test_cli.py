import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ferrofem import cli, driver, verify
from ferrofem.cli import ConfigError, parse_config


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.pair == "l0"
        assert cfg.levels == (4, 8, 16, 32, 64, 128)
        assert cfg.picard_iters == 2
        assert cfg.oseen_iters == 2
        prm = cfg.params
        assert (prm.mu0, prm.Ms, prm.gamma, prm.rho, prm.eta) == (1, 1, 1, 1, 1)

    def test_overrides_applied_others_default(self):
        cfg = parse_config("pair = l1\nlevels = 4,8,16\n")
        assert cfg.pair == "l1"
        assert cfg.levels == (4, 8, 16)
        assert cfg.picard_iters == 2

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\npair = l1  # trailing\n")
        assert cfg.pair == "l1"

    def test_non_ascending_levels_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config("levels = 8,4\n")

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("pair = l0\nwibble = 3\n")

    def test_malformed_value_line_numbered(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("picard_iters = many\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("pair l0\n")

    def test_bad_pair_rejected(self):
        with pytest.raises(ConfigError, match="pair"):
            parse_config("pair = l7\n")

    def test_material_params_from_chi0(self):
        cfg = parse_config("chi0 = 1.0\nMs = 2.0\n")
        assert cfg.params.gamma == pytest.approx(1.5)

    def test_inconsistent_gamma_chi0_rejected(self):
        with pytest.raises(ConfigError, match="inconsistent"):
            parse_config("gamma = 1.0\nchi0 = 1.0\n")

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("eta = -2.0\n")


class TestCsvFormat:
    def test_structure_and_footers(self):
        report = verify.run_convergence_study("l0", [4, 8])
        text = cli.format_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 2 + 2
        assert lines[-2].startswith("order_pairwise,,")
        assert lines[-1].startswith("order_lsq,,")
        for line in lines[1:3]:
            assert len(line.split(",")) == 8

    def test_curl_column_scientific_four_significant_digits(self):
        report = verify.run_convergence_study("l0", [4, 8])
        text = cli.format_csv(report)
        curl_field = text.strip().split("\n")[1].split(",")[-1]
        mantissa, exp = curl_field.split("e")
        assert len(mantissa.replace(".", "").lstrip("-")) == 4

    def test_failed_trailer(self):
        report = verify.run_convergence_study("l0", [4])
        text = cli.format_csv(report, failed_at=8)
        assert text.strip().endswith("# FAILED at N=8")


class TestCommands:
    def test_run_writes_csv_and_json(self, tmp_path):
        cfg = parse_config("levels = 4,8\n")
        assert cli.cmd_run(cfg, tmp_path / "out.csv", tmp_path / "out.json") == 0
        lines = (tmp_path / "out.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["levels"] == [4, 8]
        assert set(doc["orders_lsq"]) == set(verify.ERROR_COLUMNS)
        assert doc["rows"][0]["errors"]["err_phi_h1"] == pytest.approx(0.3943, rel=0.01)
        # Stokes seed plus two Oseen sweeps, each with its GMRES count
        for row in doc["rows"]:
            counts = row["diagnostics"]["solve_iterations"]["flow"]
            assert len(counts) == 3 and all(k > 0 for k in counts)
            # CG on the seed factor: the direct seed, then two Picard sweeps
            counts = row["diagnostics"]["solve_iterations"]["potential"]
            assert len(counts) == 3 and counts[0] == 0 and counts[1] > 0
            fill = row["diagnostics"]["solve_fill"]["potential"]
            assert len(set(fill)) == 1 and fill[0] > 0
            recovery = row["diagnostics"]["solve_iterations"]["recovery"]
            assert set(recovery) == {"M", "psi"} and all(k > 0 for k in recovery.values())
            # one update per sweep of each chain; the Oseen updates contract
            updates = row["diagnostics"]["sweep_updates"]
            assert len(updates["potential"]) == cfg.picard_iters
            assert len(updates["flow"]) == cfg.oseen_iters
            assert all(b < 0.1 * a for a, b in zip(updates["flow"], updates["flow"][1:]))
            timings = row["timings"]
            assert set(timings) == {"solve_s", "errors_s", "setup_s", "picard_s", "flow_s",
                                    "recovery_s"}
            assert all(t >= 0.0 for t in timings.values())
            # the stages are disjoint parts of the solve
            parts = ("setup_s", "flow_s", "picard_s", "recovery_s")
            assert sum(timings[key] for key in parts) <= timings["solve_s"]

    def test_every_diagnostics_key_in_readme(self, tmp_path):
        cfg = parse_config("levels = 4\n")
        assert cli.cmd_run(cfg, tmp_path / "out.csv", tmp_path / "out.json") == 0
        row = json.loads((tmp_path / "out.json").read_text())["rows"][0]
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        listed = readme.split("under `diagnostics`:", 1)[1].split("\n\n", 2)[1]
        assert [k for k in row["diagnostics"] if not re.search(rf"`{k}[`.]", listed)] == []
        listed = readme.split("Each row also has `timings`", 1)[1].split("\n\n", 1)[0]
        assert [k for k in row["timings"] if f"`{k}`" not in listed] == []

    def test_run_partial_output_on_failure(self, tmp_path, monkeypatch):
        real = verify._solve_level

        def flaky(pair, n, *args):
            if n == 8:
                raise driver.StageError("navier-stokes", RuntimeError("forced"))
            return real(pair, n, *args)

        monkeypatch.setattr(verify, "_solve_level", flaky)
        cfg = parse_config("levels = 4,8,16\n")
        assert cli.cmd_run(cfg, tmp_path / "out.csv", tmp_path / "out.json") == 1
        text = (tmp_path / "out.csv").read_text()
        assert "# FAILED at N=8" in text
        assert text.count("\n") >= 2  # header + the completed N=4 row
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["failed_at"] == 8

    def test_table_prints_csv(self, capsys):
        assert cli.cmd_table(parse_config("levels = 4\n")) == 0
        out = capsys.readouterr().out
        assert out.startswith(cli.CSV_HEADER)
        assert len(out.strip().split("\n")) == 2  # no orders with one level

    def test_check_passes(self, capsys):
        assert cli.main(["check", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "PASS alpha-bounds" in out
        assert "FAIL" not in out
        assert out.rstrip("\n").endswith("all 18 properties passed")
        # one size: the battery has no reduced variant
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--quick"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_check_rejects_a_bad_seed(self, capsys, seed):
        # numpy's generators take non-negative seeds only: rejected when the
        # arguments are parsed, never a traceback from inside the battery
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_check_reports_failures(self, capsys, monkeypatch):
        def broken(seed=42):
            return [verify.PropertyResult("alpha-bounds", False, "forced")]

        monkeypatch.setattr(verify, "run_property_battery", broken)
        assert cli.cmd_check() == 1
        assert "FAIL alpha-bounds" in capsys.readouterr().out


class TestMain:
    def test_missing_config_file_exits_2(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent/path.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-json"])
    @pytest.mark.parametrize("bad", ["missing/x.out", "."])
    def test_unwritable_output_fails_before_the_study(self, tmp_path, capsys, monkeypatch,
                                                      flag, bad):
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(verify, "run_convergence_study", study)
        outs = {"--out-csv": tmp_path / "s.csv", "--out-json": tmp_path / "s.json"}
        outs[flag] = tmp_path / bad  # a missing directory, or a directory
        assert cli.main(["run", *(str(a) for kv in outs.items() for a in kv)]) == 2
        assert "output error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # neither output written

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("levels = 8,4\n")
        assert cli.main(["table", "--config", str(path)]) == 2

    def test_level_below_two_exits_2(self, tmp_path, capsys):
        # N = 1 has no free potential dof; it must not reach the solvers
        path = tmp_path / "one.cfg"
        path.write_text("levels = 1,2\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "line 1: levels must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            # the quadrature policy, the study and the output paths are not
            # config keys
            ("quad_bump = 2\n", "line 1: unknown key 'quad_bump'"),
            ("levels = 4\nstudy = uniform-square\n", "line 2: unknown key 'study'"),
            ("levels = 4\npair = l1\nout_csv = x.csv\n", "line 3: unknown key 'out_csv'"),
        ],
    )
    def test_removed_keys_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 7\n", "config error: line 1: unknown key 'seed'"),
            # gamma = 3 chi0 / Ms would divide by zero
            ("levels = 2\nchi0 = 1\nMs = 0\n", "config error: Ms must be strictly positive"),
            # chi0 is named, not the gamma it would give
            ("levels = 2\nchi0 = 0\n", "config error: chi0 must be strictly positive, got 0.0"),
            # beta(0) = Ms ln(gamma) / gamma overflows
            ("levels = 4,8\ngamma = 1e-310\n", "config error: beta(0) = Ms ln(gamma)/gamma"
             " is not finite for gamma=1e-310"),
        ],
    )
    def test_dead_seed_key_and_zero_ms_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["table", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            # a material constant, and a study key with another key between
            ("mu0 = 2\nmu0 = 3\n", "config error: line 2: repeated key 'mu0'"),
            ("levels = 4,8\npair = l0\nlevels = 4\n", "config error: line 3: repeated key 'levels'"),
        ],
    )
    def test_repeated_key_exits_2(self, tmp_path, capsys, monkeypatch, text, message):
        # the last value used to win silently
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(verify, "run_convergence_study", study)
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        assert cli.main(["run", "--config", str(path), "--out-csv", str(out_csv),
                         "--out-json", str(out_json)]) == 2
        assert message in capsys.readouterr().err
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize("key", ["picard_iters", "oseen_iters"])
    def test_sweep_counts_bounded(self, tmp_path, capsys, monkeypatch, key):
        # a count above the bound is refused before any solve (1e9 sweeps
        # would run for days), and the bound itself is accepted
        def study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(verify, "run_convergence_study", study)
        assert getattr(parse_config(f"{key} = {cli.MAX_SWEEPS}\n"), key) == cli.MAX_SWEEPS
        for count in (cli.MAX_SWEEPS + 1, 1_000_000_000):
            path = tmp_path / "long.cfg"
            path.write_text(f"levels = 2\n{key} = {count}\n")
            assert cli.main(["table", "--config", str(path)]) == 2
            assert (f"config error: {key} must be between 1 and {cli.MAX_SWEEPS}"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize(
        "text, vector", [("Ms = 1e308\n", "rhs_phi"), ("mu0 = 1e308\n", "rhs_u")]
    )
    def test_overflowing_constants_fail_at_setup(self, tmp_path, capsys, text, vector):
        # the load vectors' 2-norms overflow; no solver may report it as its own failure
        path = tmp_path / "huge.cfg"
        path.write_text("levels = 2,3\n" + text)
        assert cli.main(["table", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"stage 'setup' failed: load vector {vector} is not finite" in err
        assert "Traceback" not in err

    def test_zero_error_column_gets_no_order(self, tmp_path):
        # the exact M norm underflows, so err_M_l2 is exactly zero on both levels
        path = tmp_path / "tiny.cfg"
        path.write_text("Ms = 1e-308\nlevels = 2,4\n")
        out_csv, out_json = tmp_path / "t.csv", tmp_path / "t.json"
        rc = cli.main(["run", "--config", str(path), "--out-csv", str(out_csv),
                       "--out-json", str(out_json)])
        assert rc == 0
        col = cli.CSV_HEADER.split(",").index("err_M_l2")
        rows = [line.split(",") for line in out_csv.read_text().strip().split("\n")]
        assert [row[col] for row in rows[1:]] == ["0", "0", "", ""]
        assert all(row[col - 1] != "" for row in rows[3:])
        doc = json.loads(out_json.read_text())
        assert doc["orders_lsq"]["err_M_l2"] is None
        assert doc["orders_pairwise"]["err_M_l2"] is None
        assert doc["orders_lsq"]["err_phi_h1"] > 0

    def test_run_roundtrip(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("levels = 4\n")
        rc = cli.main(
            [
                "run",
                "--config",
                str(path),
                "--out-csv",
                str(tmp_path / "t.csv"),
                "--out-json",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "t.csv").exists()

    def test_small_run_bit_identical(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("levels = 4,8\n")
        outs = []
        for tag in ("a", "b"):
            rc = cli.main(
                [
                    "run",
                    "--config",
                    str(path),
                    "--out-csv",
                    str(tmp_path / f"{tag}.csv"),
                    "--out-json",
                    str(tmp_path / f"{tag}.json"),
                ]
            )
            assert rc == 0
            outs.append((tmp_path / f"{tag}.csv").read_bytes())
        assert outs[0] == outs[1]


_WIDE_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-308"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

_CONFIG_LINES = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["mu0", "Ms", "gamma", "chi0", "rho", "eta"]), _WIDE_FLOATS),
    # the keys that cost time stay small: levels 2..6, at most 3 sweeps
    st.builds("levels = {}".format,
              st.lists(st.integers(2, 6), min_size=1, max_size=3).map(
                  lambda ns: ",".join(map(str, ns)))),
    st.builds("{} = {}".format,
              st.sampled_from(["picard_iters", "oseen_iters"]), st.integers(-1, 3)),
    st.builds("quad_bump = {}".format, st.integers(-2, 10)),
    st.sampled_from(["pair = l0", "pair = l1", "pair = l2", "study = uniform-square",
                     "study = disc"]),
    st.text(max_size=20),  # junk
)


class TestFuzz:
    @given(st.lists(_CONFIG_LINES, max_size=6).map("\n".join))
    @example("Ms = 1e-308\nlevels = 2,4")
    @example("chi0 = 1\nMs = 0")
    @settings(max_examples=60, deadline=None, database=None)
    def test_table_exits_with_a_code_never_a_traceback(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
        # a bounded levels line first unless the example sets levels (a key
        # may appear once), so no example runs the default study
        keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in text.splitlines()]
        path.write_text(("" if "levels" in keys else "levels = 2,3\n") + text + "\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["table", "--config", str(path)])
        assert rc in (0, 1, 2)
