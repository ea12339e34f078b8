"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, version_string


class TestVersion:
    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip() == version_string()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == version_string()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate", "trio"])
        assert args.scheme == "trio"
        assert args.samples == 20_000


#: one representative argv per command, for the one-command parser checks
REPRESENTATIVE_ARGV = {
    "version": ["version"],
    "schemes": ["schemes"],
    "evaluate": ["evaluate", "trio", "--samples", "500", "--no-cache"],
    "fig8": ["fig8", "--seed", "3", "--workers", "2"],
    "hardware": ["hardware", "--expansion"],
    "rank": ["rank", "--samples", "300", "--workers", "3"],
    "campaign": ["campaign", "--runs", "1", "--events", "2500",
                 "--heartbeat", "0", "--engine", "reference"],
    "system": ["system", "--scheme", "duet", "--exaflops", "1", "2"],
    "report": ["report", "-o", "report.md", "--seed", "7"],
    "search": ["search", "--population", "8", "--generations", "2"],
    "runs": ["runs", "--runs-dir", "store", "trace", "run-1", "--limit", "0"],
    "chaos": ["chaos", "--kill-daemon", "--events", "1200"],
    "serve": ["serve", "--port", "0", "--tenant-weight", "a=2"],
    "submit": ["submit", "campaign", "runs=1", "events=800", "--watch"],
    "jobs": ["jobs", "list", "--state", "queued", "--url", "http://x"],
}


class TestOneCommandParser:
    """``main`` builds only the named command's parser, which must read,
    parse and fail exactly as the full parser does."""

    @staticmethod
    def _outcome(parser, argv, capsys):
        """Exit code and printed text of parsing ``argv``."""
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return excinfo.value.code, captured.out, captured.err

    def test_every_command_has_a_representative_argv(self, capsys):
        from repro.cli import _COMMANDS

        assert list(REPRESENTATIVE_ARGV) == list(_COMMANDS)
        _, _, err = self._outcome(build_parser(), [], capsys)
        assert "{" + ",".join(_COMMANDS) + "}" in err

    @pytest.mark.parametrize("command", list(REPRESENTATIVE_ARGV))
    def test_matches_the_full_parser(self, command, capsys):
        one, full = build_parser(command), build_parser()
        for argv in ([command, "-h"], [command, "--no-such-flag"]):
            assert (self._outcome(one, argv, capsys)
                    == self._outcome(full, argv, capsys))
        argv = REPRESENTATIVE_ARGV[command]
        assert one.parse_args(argv) == full.parse_args(argv)

    @pytest.mark.parametrize("argv,built", [
        (["version"], "version"),
        ([], None),
        (["-h"], None),
        (["--version"], None),
        (["frobnicate"], None),
    ])
    def test_main_builds_only_the_named_command(self, monkeypatch, argv,
                                                built):
        from repro import cli

        built_for = []
        real = cli.build_parser

        def spy(command=None):
            built_for.append(command)
            return real(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        try:
            cli.main(argv)
        except SystemExit:
            pass
        assert built_for == [built]

    def test_version_flag_prints_what_the_version_command_prints(self,
                                                                 capsys):
        assert main(["version"]) == 0
        command = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == command


class TestCommands:
    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "TrioECC" in out
        assert "SSC-DSD+" in out
        assert "[extension]" in out
        assert "[expansion]" in out
        for name in ("hsiao-v2", "sec-daec", "bch-dec", "polar"):
            assert name in out

    def test_evaluate(self, capsys):
        assert main(["evaluate", "duet", "--samples", "500"]) == 0
        out = capsys.readouterr().out
        assert "per-pattern outcomes" in out
        assert "exhaustive" in out
        assert "Table-1 weighted" in out

    def test_evaluate_alias(self, capsys):
        assert main(["evaluate", "TrioECC", "--samples", "500"]) == 0
        assert "TrioECC" in capsys.readouterr().out

    def test_evaluate_unknown_scheme(self, capsys):
        assert main(["evaluate", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown ECC scheme 'nonsense'" in err
        assert "trio" in err  # registry names are listed...
        assert "duetecc" in err  # ...and so are the aliases
        assert "Traceback" not in err

    def test_campaign_unknown_fleet_scheme(self, capsys):
        assert main(["campaign", "--runs", "1", "--events", "10",
                     "--fleet-size", "100", "--fleet-scheme", "bogus",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown ECC scheme 'bogus'" in err

    def test_fig8(self, capsys):
        assert main(["fig8", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert out.count("%") > 20
        assert "NI:SEC-DED" in out

    def test_hardware(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "Encoders" in out and "Decoders" in out
        assert "TrioECC" in out
        assert "BCH-DEC" not in out  # expansion tables are opt-in

    def test_hardware_expansion(self, capsys):
        assert main(["hardware", "--expansion"]) == 0
        out = capsys.readouterr().out
        assert "TrioECC" in out
        assert "BCH-DEC" in out and "Polar" in out

    def test_rank(self, capsys):
        assert main(["rank", "--samples", "200", "--no-cache"]) == 0
        out = capsys.readouterr().out
        for name in ("trio", "bch-dec", "polar", "ssc-dsd+"):
            assert name in out
        assert "SDC" in out and "area" in out

    def test_campaign(self, capsys):
        assert main(["campaign", "--runs", "1", "--events", "200",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Derived Table 1" in out
        assert "SBSE" in out

    def test_campaign_streaming_matches_materialize(self, capsys):
        argv = ["campaign", "--runs", "1", "--events", "200", "--seed",
                "3", "--fleet-size", "100", "--no-cache"]
        assert main([*argv, "--stats", "streaming"]) == 0
        streamed = capsys.readouterr().out
        assert main([*argv, "--stats", "materialize"]) == 0
        materialized = capsys.readouterr().out
        assert "Fleet model: 100 GPUs" in streamed
        assert "MTBF" in streamed and "FIT" in streamed
        assert streamed == materialized  # byte-identical reports

    def test_reference_engine_implies_materialize(self, capsys):
        assert main(["campaign", "--runs", "1", "--events", "200",
                     "--seed", "3", "--engine", "reference",
                     "--no-cache"]) == 0
        assert "Derived Table 1" in capsys.readouterr().out

    def test_reference_engine_rejects_streaming_with_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--events", "200", "--engine", "reference",
                  "--stats", "streaming"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no streaming statistics path" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", [3, 11, 2021])
    def test_default_report_matches_scalar_reference(self, capsys, seed):
        # the default path (shm engine, streamed statistics) against the
        # scalar oracle, byte for byte
        argv = ["campaign", "--runs", "1", "--events", "400", "--seed",
                str(seed), "--no-cache", "--heartbeat", "0"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--engine", "reference",
                     "--stats", "materialize"]) == 0
        assert default == capsys.readouterr().out
        assert "Derived Table 1" in default

    def test_default_report_statistics_match_the_scalar_derivation(
            self, capsys):
        # the CLI derives every path's statistics through one accumulator
        # fold; hold that fold to the scalar derive_table1 /
        # breadth_class_fractions over the reference run's events
        from repro.beam import (
            BeamCampaign,
            breadth_class_fractions,
            derive_table1,
            filter_intermittent,
            group_events,
            run_statistics_campaign,
        )
        from repro.cli import beam_campaign_config
        from repro.stats import CampaignAccumulator

        seed, events = 11, 400
        config = beam_campaign_config({"runs": 1, "seed": seed})
        beam_observed = group_events(filter_intermittent(
            BeamCampaign(config).run().records).soft_records)
        reference = run_statistics_campaign(events, seed=seed,
                                            engine="reference")
        observed = beam_observed + reference.observed_events
        table1 = derive_table1(observed)
        class_fractions = breadth_class_fractions(observed)

        streamed = run_statistics_campaign(events, seed=seed, engine="shm",
                                           stats="streaming")
        accumulator = CampaignAccumulator()
        accumulator.update_from_events(beam_observed)
        final = accumulator.merge(streamed.accumulator).finalize()
        assert final["table1"] == table1  # exact floats
        assert final["class_fractions"] == class_fractions

        assert main(["campaign", "--runs", "1", "--events", str(events),
                     "--seed", str(seed), "--no-cache",
                     "--heartbeat", "0"]) == 0
        rendered = "\n".join(
            ["Event classes (Figure 4a):",
             *(f"  {klass.name}: {fraction:.1%}"
               for klass, fraction in class_fractions.items()),
             "", "Derived Table 1:",
             *(f"  {pattern.value:8s}: {probability:.2%}"
               for pattern, probability in table1.items())])
        assert rendered in capsys.readouterr().out

    def test_system(self, capsys):
        assert main(["system", "--scheme", "trio", "--samples", "500",
                     "--exaflops", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "exascale" in out
        assert "ISO 26262" in out

    def test_search(self, capsys):
        assert main(["search", "--population", "8", "--generations", "1",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "Base32" in out
        assert "aliases" in out


class TestSampleCount:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "trio"], ["fig8"], ["rank"], ["system"], ["report"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_non_positive_samples_exit_2(self, capsys, argv, samples):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--samples", samples, "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "at least 1" in err
        assert "Traceback" not in err

    def test_non_integer_samples_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "trio", "--samples", "many"])
        assert excinfo.value.code == 2
        assert "invalid sample count" in capsys.readouterr().err


class TestWorkerCount:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "trio"], ["fig8"], ["rank"], ["system"], ["report"],
        ["campaign"], ["chaos"], ["serve"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, argv, workers):
        # rejected by argparse, before any sweep, campaign or daemon starts
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--workers", workers])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "at least 1" in err
        assert "Traceback" not in err


class TestCampaignEdges:
    @pytest.mark.parametrize("flag", ["--events", "--runs"])
    def test_negative_counts_exit_2(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", flag, "-1", "--no-cache"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "at least 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag,value", [
        ("chaos", "--events", "-1"),
        ("chaos", "--runs", "-2"),
        ("chaos", "--max-restarts", "-1"),
    ])
    def test_negative_chaos_counts_exit_2(self, capsys, monkeypatch,
                                          command, flag, value):
        # rejected by argparse, before any scratch dir or clean campaign
        import subprocess

        def no_subprocess(*args, **kwargs):
            raise AssertionError("a subprocess was started")

        monkeypatch.setattr(subprocess, "run", no_subprocess)
        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "at least 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["campaign", "--chunk-timeout", "0"],
        ["campaign", "--chunk-timeout", "-1"],
        ["chaos", "--chunk-timeout", "0"],
        ["evaluate", "trio", "--cell-timeout", "0"],
        ["fig8", "--cell-timeout", "-1"],
        ["report", "--cell-timeout", "nan"],
    ])
    def test_non_positive_timeouts_exit_2(self, capsys, argv):
        # a bound of 0 or less would time out every job and quietly fall
        # back to serial evaluation; Table-2 cells run on threads, which
        # cannot be timed out, so --cell-timeout is no option at all
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        if "--cell-timeout" in argv:
            assert "unrecognized arguments: --cell-timeout" in err
        else:
            assert "must be above 0 seconds" in err
        assert "Traceback" not in err

    def test_positive_timeouts_parse(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(
            ["campaign", "--chunk-timeout", "2.5"]).chunk_timeout == 2.5
        assert parser.parse_args(["chaos"]).chunk_timeout is None
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["evaluate", "trio", "--cell-timeout", "1e-3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign", "chaos"])
    def test_removed_columnar_engine_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--engine", "columnar"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'columnar'" in capsys.readouterr().err

    @pytest.mark.parametrize("events,reason", [
        ("0", "no events to classify"),
        ("1", "no multi-bit events observed"),
    ])
    @pytest.mark.parametrize("engine", ["shm", "reference"])
    def test_too_few_events_exit_1_with_one_line(self, capsys, events,
                                                 reason, engine):
        assert main(["campaign", "--runs", "0", "--events", events,
                     "--engine", engine, "--no-cache",
                     "--heartbeat", "0"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "repro: error: the campaign observed too few events to "
            f"derive its statistics ({reason})"]


class TestReport:
    def test_report_heartbeat(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--samples", "300", "--no-cache",
                     "--heartbeat", "1e-9", "-o", str(target)]) == 0
        err = capsys.readouterr().err
        assert "[repro] report: " in err
        assert "63/63 cells" in err

    def test_report_heartbeat_zero_is_silent(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--samples", "300", "--no-cache",
                     "--heartbeat", "0", "-o", str(target)]) == 0
        assert "[repro]" not in capsys.readouterr().err

    def test_report_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["report", "--samples", "300"]) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "## Table 2" in out
        assert "## Figure 9" in out
        assert "ISO 26262" in out

    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "report.md"
        assert main(["report", "--samples", "300", "-o", str(target)]) == 0
        assert "report written" in capsys.readouterr().out
        content = target.read_text()
        assert "TrioECC" in content


class TestStartupImports:
    """The CLI's start-up must not load what most commands never use."""

    @staticmethod
    def _loaded(code, modules):
        """Which of ``modules`` a fresh interpreter holds after ``code``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        probe = (f"{code}\nimport sys\n"
                 f"print(sorted(m for m in {tuple(modules)!r} "
                 "if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        return result.stdout.strip()

    @pytest.mark.parametrize("code", [
        "import repro.cli",
        "from repro.cli import build_parser; build_parser()",
    ], ids=["import", "build_parser"])
    def test_no_asyncio_or_scipy(self, code):
        assert self._loaded(code, ("asyncio", "scipy")) == "[]"

    def test_no_shared_memory_until_a_chaos_verdict_needs_it(self):
        # the chaos parser is built on every command; only its leak
        # verdicts use repro.core.shm (and multiprocessing.shared_memory)
        code = "from repro.cli import build_parser; build_parser()"
        assert self._loaded(code, ("repro.core.shm",
                                   "multiprocessing.shared_memory")) == "[]"

    def test_one_command_parser_loads_no_other_command(self):
        # only --version needs importlib.metadata; only the named
        # command's module is imported, and the campaign's engine loads
        # when the command runs, not when its arguments are parsed
        code = ("from repro.cli import build_parser\n"
                "build_parser('campaign').parse_args(['campaign'])")
        assert self._loaded(code, (
            "importlib.metadata", "repro.faults.chaos", "repro.serve",
            "repro.runs.cli", "repro.core.shm", "repro.beam")) == "[]"

    def test_lazy_analysis_names_still_import(self):
        from repro.analysis import fit_exponential, format_table
        from repro.analysis.fitting import fit_exponential as direct

        assert fit_exponential is direct
        assert callable(format_table)
