"""Tests for the memexplore CLI."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


DATA = Path(__file__).parent / "data"


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["explore", "compress"],
            ["mincache", "compress"],
            ["layout", "compress"],
            ["mpeg"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "mpeg:idct" in out

    def test_mincache_reports_paper_numbers(self, capsys):
        assert main(["mincache", "compress", "--line-sizes", "4"]) == 0
        out = capsys.readouterr().out
        assert "lines=4" in out
        assert "size=16 bytes" in out

    def test_layout_reports_padding(self, capsys):
        assert main(
            ["layout", "compress", "--cache-size", "8", "--line-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "conflict_free=True" in out
        assert "(36, 1)" in out

    def test_explore_small_sweep(self, capsys):
        code = main(
            [
                "explore", "compress",
                "--max-size", "64", "--min-size", "32",
                "--tilings", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "min energy" in out

    def test_explore_infeasible_bound_fails(self, capsys):
        code = main(
            [
                "explore", "compress",
                "--max-size", "32", "--min-size", "32",
                "--tilings", "1",
                "--cycle-bound", "1",
            ]
        )
        assert code == 1
        assert "selection failed" in capsys.readouterr().err

    def test_explore_unoptimized_layout_flag(self, capsys):
        code = main(
            [
                "explore", "compress",
                "--max-size", "32", "--min-size", "32",
                "--tilings", "1", "--no-layout-opt",
            ]
        )
        assert code == 0

    def test_explore_alternative_sram(self, capsys):
        code = main(
            [
                "explore", "compress",
                "--max-size", "32", "--min-size", "32",
                "--tilings", "1", "--sram", "16Mbit",
            ]
        )
        assert code == 0


class TestGoldenOutputs:
    """Recorded outputs of the analysis and search commands, byte for byte."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["trace", "matmul"], "cli_trace_matmul.txt"),
            (
                ["trace", "compress", "--optimized"],
                "cli_trace_compress_optimized.txt",
            ),
            (
                ["datasheet", "matmul", "--cache-size", "64",
                 "--no-layout-opt"],
                "cli_datasheet_matmul_c64.txt",
            ),
            (
                ["layout", "compress", "--cache-size", "8",
                 "--line-size", "2"],
                "cli_layout_compress_c8l2.txt",
            ),
            (
                ["layout", "pde", "--cache-size", "32", "--line-size", "4"],
                "cli_layout_pde_c32l4.txt",
            ),
            (
                ["layout", "matmul", "--cache-size", "64",
                 "--line-size", "8"],
                "cli_layout_matmul_c64l8.txt",
            ),
            (
                ["layout", "mpeg:idct", "--cache-size", "16",
                 "--line-size", "4"],
                "cli_layout_mpeg_idct_c16l4.txt",
            ),
            (
                ["pareto", "compress", "--max-size", "256", "--generations",
                 "6", "--population", "8", "--seed", "11"],
                "cli_pareto_compress_nsga2.txt",
            ),
            (
                ["pareto", "compress", "--max-size", "256", "--generations",
                 "6", "--population", "8", "--seed", "11", "--searcher", "ge"],
                "cli_pareto_compress_ge.txt",
            ),
            (
                ["pareto", "compress", "--max-size", "256", "--generations",
                 "6", "--population", "8", "--seed", "11", "--searcher",
                 "greedy"],
                "cli_pareto_compress_greedy.txt",
            ),
            (
                ["pareto", "compress", "--max-size", "256", "--generations",
                 "6", "--population", "8", "--seed", "11", "--searcher",
                 "pruned"],
                "cli_pareto_compress_pruned.txt",
            ),
        ],
    )
    def test_output_is_byte_identical(self, capsys, argv, golden):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.encode() == (DATA / golden).read_bytes()


class TestNewCommands:
    def test_spm(self, capsys):
        assert main(["spm", "matadd", "--budgets", "32", "128"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "spm" in out

    def test_trace_stats(self, capsys):
        assert main(["trace", "compress", "--line-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "compulsory fraction" in out
        assert "miss-ratio curve" in out

    def test_trace_din_export(self, tmp_path, capsys):
        target = tmp_path / "t.din"
        assert main(["trace", "matadd", "--din", str(target)]) == 0
        content = target.read_text().splitlines()
        assert len(content) == 108  # 36 iterations x 3 refs
        assert content[0].split()[0] in ("0", "1")

    def test_trace_optimized_layout(self, capsys):
        assert main(
            ["trace", "compress", "--optimized", "--cache-size", "16",
             "--line-size", "4"]
        ) == 0

    def test_search(self, capsys):
        assert main(["search", "compress", "--max-size", "128"]) == 0
        out = capsys.readouterr().out
        assert "best (energy)" in out
        assert "evaluations spent" in out

    def test_codegen(self, capsys):
        assert main(
            ["codegen", "compress", "--cache-size", "8", "--line-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "void compress(void)" in out
        assert "36*(" in out  # the paper's padded pitch

    def test_codegen_tiled_dense(self, capsys):
        assert main(
            ["codegen", "matmul", "--tiling", "4", "--no-layout-opt"]
        ) == 0
        out = capsys.readouterr().out
        assert "for (int tj" in out

    def test_sensitivity(self, capsys):
        assert main(
            ["sensitivity", "compress", "--max-size", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "Em (main memory)" in out
        assert "swing" in out


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("memexplore ")
        assert out.split()[1][0].isdigit()

    def test_version_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out


class TestKeyboardInterrupt:
    def test_ctrl_c_returns_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        # main() rebuilds the parser per call, so the subcommand default
        # picks up the patched module global.
        monkeypatch.setattr(cli, "_cmd_list", interrupted)
        assert cli.main(["list"]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestServeCommands:
    def test_parsers_wired(self):
        parser = build_parser()
        for argv in (
            ["serve", "--port", "0"],
            ["submit", "compress", "--no-wait"],
            ["jobs"],
            ["jobs", "some-job-id", "--wait"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_submit_and_jobs_against_live_service(self, tmp_path, capsys):
        import threading

        from repro.serve import ExplorationService, make_server

        service = ExplorationService(
            str(tmp_path / "r.db"), str(tmp_path / "spool")
        ).start()
        httpd = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        server = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            code = main(
                ["submit", "compress", "--max-size", "32", "--tilings", "1",
                 "--server", server]
            )
            captured = capsys.readouterr()
            assert code == 0
            assert "min energy" in captured.out
            job_id = captured.err.split()[1]

            assert main(["jobs", "--server", server]) == 0
            assert job_id in capsys.readouterr().out

            # `jobs <id> --wait` renders the same result byte-for-byte.
            assert main(["jobs", job_id, "--wait", "--server", server]) == 0
            assert capsys.readouterr().out == captured.out
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.stop()

    def test_submit_unreachable_server_fails_cleanly(self):
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="cannot reach"):
            main(
                ["submit", "compress", "--no-wait",
                 "--server", "http://127.0.0.1:1"]
            )

    def test_top_one_shot_against_live_service(self, tmp_path, capsys):
        import threading

        from repro.serve import ExplorationService, make_server

        service = ExplorationService(
            str(tmp_path / "r.db"), str(tmp_path / "spool")
        ).start()
        httpd = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        server = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            job, _ = service.submit(
                {"spec": {"kernel": "compress", "max_size": 32,
                          "tilings": [1]}}
            )
            service.manager.wait(job.job_id, timeout_s=120)
            assert main(
                ["top", "--server", server, "--iterations", "2",
                 "--interval", "0.05"]
            ) == 0
            out = capsys.readouterr().out
            assert "repro top" in out
            assert "configs/s" in out
            assert "done=1" in out
        finally:
            httpd.shutdown()
            httpd.server_close()
            service.stop()

    def test_top_unreachable_server_is_exit_1(self, capsys):
        assert main(
            ["top", "--server", "http://127.0.0.1:1", "--iterations", "1"]
        ) == 1
        assert "error:" in capsys.readouterr().out


class TestStatsFromFile:
    def test_renders_written_report(self, tmp_path, capsys):
        target = tmp_path / "obs.json"
        assert main(
            ["stats", "compress", "--max-size", "32", "--tilings", "1",
             "--metrics-out", str(target)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--from", str(target)]) == 0
        out = capsys.readouterr().out
        assert "per-stage timing" in out
        assert "engine.configs_evaluated" in out

    def test_missing_file_is_one_line_exit_2(self, tmp_path, capsys):
        assert main(["stats", "--from", str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read metrics report")
        assert len(err.strip().splitlines()) == 1

    def test_corrupt_file_is_one_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", "--from", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt metrics report")
        assert len(err.strip().splitlines()) == 1

    def test_wrong_document_is_one_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "other.json"
        bad.write_text('{"rows": []}')
        assert main(["stats", "--from", str(bad)]) == 2
        assert "not a repro.obs document" in capsys.readouterr().err

    def test_wrong_schema_is_one_line_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "vnext.json"
        bad.write_text('{"schema": "repro.obs/99"}')
        assert main(["stats", "--from", str(bad)]) == 2
        assert "unsupported report schema" in capsys.readouterr().err

    def test_stats_without_kernel_or_file_is_exit_2(self, capsys):
        assert main(["stats"]) == 2
        assert "needs a kernel" in capsys.readouterr().err


class TestRegistryIntegration:
    def test_explore_writes_manifest(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        code = main(
            [
                "explore", "compress",
                "--max-size", "32", "--min-size", "32",
                "--tilings", "1", "--manifest-out", str(target),
            ]
        )
        assert code == 0
        assert "wrote repro.manifest/1 manifest" in capsys.readouterr().err
        import json as _json

        from repro.registry import check_manifest

        manifest = check_manifest(_json.loads(target.read_text()))
        used = {(row["kind"], row["name"]) for row in manifest["plugins"]}
        assert ("kernel", "compress") in used
        # The default engine backend is the "auto" alias (one-pass grid).
        assert ("backend", "auto") in used
        assert manifest["eval_id"]
        assert manifest["sweep_fingerprint"]

    def test_explore_kamble_ghose_energy_model(self, capsys):
        code = main(
            [
                "explore", "compress",
                "--max-size", "32", "--min-size", "32",
                "--tilings", "1", "--energy-model", "kamble-ghose",
            ]
        )
        assert code == 0
        assert "Pareto frontier" in capsys.readouterr().out

    def test_unknown_kernel_is_exit_2_with_suggestion(self, capsys):
        for argv in (["explore", "comprss"], ["mincache", "comprss"],
                     ["datasheet", "comprss"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "unknown kernel 'comprss'" in err
            assert "did you mean 'compress'" in err

    def test_plugins_lists_every_kind(self, capsys):
        assert main(["plugins"]) == 0
        out = capsys.readouterr().out
        for name in ("fastsim", "compress", "hwo", "CY7C-2Mbit", "sqlite"):
            assert name in out

    def test_submit_rejects_energy_model(self, capsys):
        code = main(
            ["submit", "compress", "--energy-model", "kamble-ghose",
             "--server", "http://127.0.0.1:1", "--no-wait"]
        )
        assert code == 2
        assert "does not support --energy-model" in capsys.readouterr().err
