"""CLI tests."""

import argparse

import pytest

from repro.analysis.sweeps import SWEEP_PARAMETERS
from repro.cli import build_parser, main
from repro.core.advisor import GROUPING_ALGORITHMS
from repro.core.service import SCALING_POLICIES


class TestParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.command == "plan"
        assert args.tenants == 300
        assert args.replication == 3

    def test_sweep_requires_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "theta"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_replay_scaling_choices(self):
        args = build_parser().parse_args(["replay", "--scaling", "disabled"])
        assert args.scaling == "disabled"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--scaling", "magic"])

    def test_choices_are_the_registry_keys(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        for command, option, table in (
            ("plan", "grouping", GROUPING_ALGORITHMS),
            ("replay", "grouping", GROUPING_ALGORITHMS),
            ("replay", "scaling", SCALING_POLICIES),
            ("sweep", "parameter", SWEEP_PARAMETERS),
        ):
            (action,) = [a for a in commands[command]._actions if a.dest == option]
            assert action.choices == sorted(table), (command, option)

    def test_replay_obs_out(self):
        args = build_parser().parse_args(["replay", "--obs-out", "out/"])
        assert args.obs_out == "out/"
        assert build_parser().parse_args(["replay"]).obs_out is None

    def test_obs_requires_directory(self):
        args = build_parser().parse_args(["obs", "report/", "--top", "3"])
        assert args.directory == "report/"
        assert args.top == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestCommands:
    _FAST = ["--tenants", "30", "--days", "7", "--sessions", "2", "--seed", "5"]

    def test_loadtimes(self, capsys):
        assert main(["loadtimes"]) == 0
        out = capsys.readouterr().out
        assert "2-node / 200GB" in out
        assert "10-node / 1.0TB" in out

    def test_plan(self, capsys):
        assert main(["plan", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "effectiveness" in out
        assert "tenant groups" in out

    def test_plan_with_groups(self, capsys):
        assert main(["plan", "--groups", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "Per-group detail" in out
        assert "tg0" in out

    def test_plan_ffd(self, capsys):
        assert main(["plan", "--grouping", "ffd", *self._FAST]) == 0
        assert "ffd" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "replication_factor", "1", "2", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "Sweep over replication_factor" in out
        assert "2step_eff" in out

    @pytest.mark.parametrize(
        "option", [("--sla", "50"), ("--theta", "2.0"), ("--replication", "2"), ("--epoch", "600")]
    )
    def test_sweep_with_config_option_is_usage_error(self, capsys, option):
        # A sweep varies one parameter and keeps every other one at the
        # scale's default, so plan/replay's config options are not offered.
        with pytest.raises(SystemExit) as err:
            main(["sweep", "theta", "0.5", *option, *self._FAST])
        assert err.value.code == 2
        assert option[0] in capsys.readouterr().err

    def test_sweep_pool_rows_match_serial(self, capsys):
        def deterministic_rows(workers):
            argv = ["sweep", "epoch_size_s", "60", "600", *self._FAST, "--workers", workers]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            body = lines[lines.index(next(l for l in lines if l.startswith("---"))) + 1 :]
            # Every column but the trailing two solver-time columns.
            return [line.split()[:7] for line in body if line.strip()]

        serial = deterministic_rows("0")
        assert [row[0] for row in serial] == ["60", "600"]
        assert deterministic_rows("2") == serial

    @pytest.mark.parametrize("parameter, value", [("num_tenants", "1.5"), ("theta", "abc")])
    def test_sweep_malformed_value_is_usage_error(self, capsys, parameter, value):
        assert main(["sweep", parameter, value, *self._FAST]) == 2
        assert repr(value) in capsys.readouterr().err

    def test_sweep_negative_workers_is_usage_error(self, capsys):
        assert main(["sweep", "epoch_size_s", "60", *self._FAST, "--workers", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay(self, capsys):
        assert main(["replay", "--replay-days", "0.5", *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "SLA met" in out
        assert "queries completed" in out

    def test_replay_obs_out_writes_report_and_obs_reads_it(self, capsys, tmp_path):
        out = tmp_path / "report"
        assert main(["replay", "--replay-days", "0.25", "--obs-out", str(out), *self._FAST]) == 0
        assert "observability report written" in capsys.readouterr().out
        for filename in ("metrics.jsonl", "spans.jsonl", "summary.json"):
            assert (out / filename).exists(), filename

        assert main(["obs", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "queries submitted" in rendered
        assert "groups by queries submitted" in rendered
        assert "RT-TTP trajectory" in rendered
        assert "Routing decisions" in rendered

    def test_obs_on_missing_directory_exits_2(self, capsys, tmp_path):
        assert main(["obs", str(tmp_path / "nothing-here")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repro_error_exits_2(self, capsys):
        # theta outside (0, 1) raises a ConfigurationError inside the
        # library; the CLI converts it to exit code 2 with a message.
        assert main(["sweep", "theta", "2.0", *self._FAST]) == 2
        assert "error:" in capsys.readouterr().err
