"""Unit tests for the command-line interface."""

import pytest

from repro.alignment import ontology_alignment_to_graph
from repro.cli import main
from repro.datasets import KISTI_DATASET_URI, KISTI_URI_PATTERN, akt_to_kisti_alignment
from repro.turtle import serialize_turtle

from .conftest import FIGURE_1_QUERY


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "query.rq"
    path.write_text(FIGURE_1_QUERY, encoding="utf-8")
    return path


@pytest.fixture()
def alignment_file(tmp_path):
    graph = ontology_alignment_to_graph(akt_to_kisti_alignment())
    path = tmp_path / "alignments.ttl"
    path.write_text(serialize_turtle(graph), encoding="utf-8")
    return path


@pytest.fixture()
def sameas_file(tmp_path, sameas_service):
    path = tmp_path / "sameas.ttl"
    path.write_text(serialize_turtle(sameas_service.to_graph()), encoding="utf-8")
    return path


class TestRewriteCommand:
    def test_rewrite_outputs_translated_query(self, capsys, query_file, alignment_file, sameas_file):
        exit_code = main([
            "rewrite", str(query_file), str(alignment_file),
            "--target", str(KISTI_DATASET_URI),
            "--source-ontology", "http://www.aktors.org/ontology/portal#",
            "--sameas", str(sameas_file),
            "--uri-pattern", KISTI_URI_PATTERN,
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "hasCreatorInfo" in captured.out
        assert "alignments considered: 24" in captured.err

    def test_rewrite_filter_aware_mode(self, capsys, query_file, alignment_file, sameas_file):
        exit_code = main([
            "rewrite", str(query_file), str(alignment_file),
            "--target", str(KISTI_DATASET_URI),
            "--sameas", str(sameas_file),
            "--uri-pattern", KISTI_URI_PATTERN,
            "--mode", "filter-aware",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "PER_00000000000105047" in captured.out

    def test_rewrite_warns_on_empty_alignment_kb(self, capsys, query_file, tmp_path):
        empty = tmp_path / "empty.ttl"
        empty.write_text("", encoding="utf-8")
        exit_code = main([
            "rewrite", str(query_file), str(empty),
            "--target", str(KISTI_DATASET_URI),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "no ontology alignments" in captured.err


class TestQueryCommand:
    def test_query_against_turtle_file(self, capsys, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("""
            @prefix akt: <http://www.aktors.org/ontology/portal#> .
            @prefix id: <http://southampton.rkbexplorer.com/id/> .
            id:paper-1 akt:has-author id:person-02686 , id:person-2 .
        """, encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(FIGURE_1_QUERY, encoding="utf-8")
        exit_code = main(["query", str(query), str(data)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "person-2" in captured.out
        assert "1 rows" in captured.err

    def test_query_explain_prints_plan(self, capsys, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("""
            @prefix akt: <http://www.aktors.org/ontology/portal#> .
            @prefix id: <http://southampton.rkbexplorer.com/id/> .
            id:paper-1 akt:has-author id:person-02686 , id:person-2 .
        """, encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(FIGURE_1_QUERY, encoding="utf-8")
        exit_code = main(["query", str(query), str(data), "--explain"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out.startswith("plan for SELECT query")
        assert "scan (" in captured.out

    def test_query_reference_engine_matches_planner(self, capsys, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("""
            @prefix akt: <http://www.aktors.org/ontology/portal#> .
            @prefix id: <http://southampton.rkbexplorer.com/id/> .
            id:paper-1 akt:has-author id:person-02686 , id:person-2 .
        """, encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(FIGURE_1_QUERY, encoding="utf-8")
        assert main(["query", str(query), str(data), "--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(["query", str(query), str(data), "--engine", "planner"]) == 0
        planner_out = capsys.readouterr().out
        assert reference_out == planner_out


class TestFederateCommand:
    def test_demo_run(self, capsys):
        exit_code = main(["federate", "--persons", "15", "--papers", "30", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Federated co-authors" in captured.out
        assert "recall" in captured.out

    def test_demo_run_reports_endpoint_statistics(self, capsys):
        exit_code = main(["federate", "--persons", "15", "--papers", "30", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        # Per-endpoint EndpointStatistics surfaced uniformly via health().
        assert "served" in captured.out
        assert "queries" in captured.out

    def test_format_json_puts_results_on_stdout_and_summary_on_stderr(self, capsys):
        import json

        exit_code = main([
            "federate", "--persons", "15", "--papers", "30", "--seed", "3",
            "--format", "json",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["head"]["vars"] == ["a"]
        assert payload["results"]["bindings"]
        assert "Federated co-authors" in captured.err

    def test_format_csv_is_parseable(self, capsys):
        from repro.sparql import parse_results

        exit_code = main([
            "federate", "--persons", "15", "--papers", "30", "--seed", "3",
            "--format", "csv",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        result = parse_results(captured.out, "csv")
        assert result.variables and len(result) > 0


class TestQueryOutputFormats:
    @pytest.fixture()
    def data_and_query(self, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("""
            @prefix akt: <http://www.aktors.org/ontology/portal#> .
            @prefix id: <http://southampton.rkbexplorer.com/id/> .
            id:paper-1 akt:has-author id:person-02686 , id:person-2 .
        """, encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(FIGURE_1_QUERY, encoding="utf-8")
        return data, query

    @pytest.mark.parametrize("format_name", ["json", "xml", "csv", "tsv"])
    def test_query_formats_parse_back(self, capsys, data_and_query, format_name):
        from repro.sparql import parse_results

        data, query = data_and_query
        exit_code = main(["query", str(query), str(data), "--format", format_name])
        captured = capsys.readouterr()
        assert exit_code == 0
        result = parse_results(captured.out, format_name)
        assert len(result) == 1
        assert result.variables[0].name == "a"

    def test_query_table_is_default(self, capsys, data_and_query):
        data, query = data_and_query
        assert main(["query", str(query), str(data)]) == 0
        assert "?a" in capsys.readouterr().out

    def test_ask_rejects_csv(self, capsys, data_and_query, tmp_path):
        data, _ = data_and_query
        ask = tmp_path / "ask.rq"
        ask.write_text(
            "PREFIX akt:<http://www.aktors.org/ontology/portal#> "
            "ASK { ?p akt:has-author ?a }", encoding="utf-8")
        assert main(["query", str(ask), str(data), "--format", "csv"]) == 2
        assert "json or xml" in capsys.readouterr().err

    def test_data_format_flag(self, capsys, tmp_path):
        data = tmp_path / "data.rdf"
        data.write_text(
            "<http://x.org/paper-1> <http://www.aktors.org/ontology/portal#has-author> "
            "<http://southampton.rkbexplorer.com/id/person-02686> .\n", encoding="utf-8")
        query = tmp_path / "query.rq"
        query.write_text(FIGURE_1_QUERY, encoding="utf-8")
        assert main(["query", str(query), str(data), "--data-format", "ntriples"]) == 0


class TestServeCommand:
    def test_rejects_neither_data_nor_scenario(self, capsys):
        assert main(["serve"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_both_data_and_scenario(self, capsys, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("", encoding="utf-8")
        assert main(["serve", str(data), "--scenario"]) == 2

    def test_serves_an_rdf_file_over_http(self, tmp_path):
        import json
        import os
        import subprocess
        import sys as _sys
        import urllib.parse
        import urllib.request
        from pathlib import Path

        data = tmp_path / "data.ttl"
        data.write_text("""
            @prefix ex: <http://example.org/> .
            ex:a ex:knows ex:b .
        """, encoding="utf-8")
        source_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_dir) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", str(data), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        try:
            endpoint_line = process.stdout.readline().strip()
            assert endpoint_line.startswith("SPARQL endpoint: http://")
            url = endpoint_line.split(": ", 1)[1]
            query = "SELECT ?s WHERE { ?s <http://example.org/knows> ?o }"
            with urllib.request.urlopen(
                url + "?" + urllib.parse.urlencode({"query": query}), timeout=10
            ) as response:
                payload = json.loads(response.read())
            assert payload["results"]["bindings"] == [
                {"s": {"type": "uri", "value": "http://example.org/a"}}
            ]
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_unknown_scenario_dataset_is_a_friendly_error(self, capsys):
        code = main([
            "serve", "--scenario", "--dataset", "http://typo.example/void",
            "--persons", "8", "--papers", "12",
        ])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestLintCommand:
    DATA = '<http://e/s> <http://e/p> "v" .\n'

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_clean_query_exits_zero(self, capsys, tmp_path):
        query = self._write(tmp_path, "q.rq", "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }")
        assert main(["lint", str(query)]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_error_diagnostics_exit_nonzero_and_render(self, capsys, tmp_path):
        query = self._write(tmp_path, "bad.rq", "SELECT ?nope WHERE { ?s ?p ?o }")
        assert main(["lint", str(query)]) == 1
        out = capsys.readouterr().out
        assert f"{query}:1:8: error[SQA101]" in out

    def test_warnings_pass_unless_strict(self, capsys, tmp_path):
        query = self._write(
            tmp_path, "warn.rq", "SELECT ?s WHERE { ?s ?p ?o FILTER(1 = 2) }"
        )
        assert main(["lint", str(query)]) == 0
        assert "warning[SQA108]" in capsys.readouterr().out
        assert main(["lint", str(query), "--strict"]) == 1

    def test_json_format_is_machine_readable(self, capsys, tmp_path):
        import json

        query = self._write(tmp_path, "bad.rq", "SELECT ?nope WHERE { ?s ?p ?o }")
        assert main(["lint", str(query), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [entry] = payload
        assert entry["file"] == str(query)
        assert any(d["code"] == "SQA101" for d in entry["diagnostics"])

    def test_parse_failure_is_a_finding_not_a_crash(self, capsys, tmp_path):
        query = self._write(tmp_path, "broken.rq", "SELECT WHERE {")
        assert main(["lint", str(query)]) == 1
        assert "error[PARSE]" in capsys.readouterr().out

    def test_multiple_files_aggregate(self, capsys, tmp_path):
        good = self._write(tmp_path, "good.rq", "SELECT ?s ?o WHERE { ?s <http://e/p> ?o }")
        bad = self._write(tmp_path, "bad.rq", "SELECT ?nope WHERE { ?s ?p ?o }")
        assert main(["lint", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert str(bad) in out and str(good) not in out

    def test_lint_with_data_reports_without_executing(self, capsys, tmp_path):
        query = self._write(tmp_path, "q.rq", "SELECT ?nope WHERE { ?s ?p ?o }")
        data = self._write(tmp_path, "d.nt", self.DATA)
        assert main(["lint", str(query), "--data", str(data)]) == 1
        assert "error[SQA101]" in capsys.readouterr().out


class TestQueryLintFlags:
    def test_query_strict_flag_rejects(self, capsys, tmp_path):
        query = tmp_path / "q.rq"
        query.write_text("SELECT ?nope WHERE { ?s ?p ?o }")
        data = tmp_path / "d.nt"
        data.write_text('<http://e/s> <http://e/p> "v" .\n')
        assert main(["query", str(query), str(data), "--strict"]) == 1
        assert "SQA101" in capsys.readouterr().err

    def test_federate_lint_flag(self, capsys):
        code = main(["federate", "--lint", "--persons", "8", "--papers", "12"])
        assert code == 0


class TestStoreCommand:
    DATA = """
        @prefix ex: <http://example.org/> .
        ex:a ex:knows ex:b .
        ex:b ex:knows ex:c .
        ex:a a ex:Person .
    """

    def _build(self, tmp_path, capsys):
        data = tmp_path / "data.ttl"
        data.write_text(self.DATA, encoding="utf-8")
        store_dir = tmp_path / "store"
        assert main(["store", "build", str(store_dir), str(data),
                     "--buffer-limit", "2"]) == 0
        capsys.readouterr()
        return store_dir

    def test_build_stats_compact_round_trip(self, capsys, tmp_path):
        store_dir = self._build(tmp_path, capsys)
        assert main(["store", "stats", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "format:     2" in out
        assert "triples:    3" in out
        assert "http://example.org/knows: 2" in out
        assert "class http://example.org/Person: 1" in out

        assert main(["store", "compact", str(store_dir)]) == 0
        assert "segment" in capsys.readouterr().out
        # Compacting a compacted store is a reported no-op.
        assert main(["store", "compact", str(store_dir)]) == 0
        assert "already compact" in capsys.readouterr().out

    def test_build_extends_an_existing_store(self, capsys, tmp_path):
        store_dir = self._build(tmp_path, capsys)
        more = tmp_path / "more.ttl"
        more.write_text("@prefix ex: <http://example.org/> . ex:c ex:knows ex:a .",
                        encoding="utf-8")
        assert main(["store", "build", str(store_dir), str(more)]) == 0
        assert "+1 new" in capsys.readouterr().out

        from repro.rdf import open_graph

        graph = open_graph(store_dir)
        assert len(graph) == 4
        graph.close()

    @pytest.mark.parametrize("limit", ["0", "-1", "two"])
    def test_build_rejects_a_buffer_limit_below_one(self, capsys, tmp_path, limit):
        data = tmp_path / "data.ttl"
        data.write_text(self.DATA, encoding="utf-8")
        store_dir = tmp_path / "store"
        with pytest.raises(SystemExit) as exited:
            main(["store", "build", str(store_dir), str(data), "--buffer-limit", limit])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "argument --buffer-limit:" in errors[0], err
        assert "Traceback" not in err
        assert not store_dir.exists()

    @pytest.mark.parametrize("command", ["stats", "compact"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_store_commands_reject_a_directory_without_a_store(self, capsys, tmp_path,
                                                               command, existing):
        target = tmp_path / "nostore"
        if existing:
            target.mkdir()
        assert main(["store", command, str(target)]) == 2
        assert f"no store at {target}" in capsys.readouterr().err
        assert target.exists() == existing
        assert not existing or list(target.iterdir()) == []

    def test_serve_rejects_missing_store_directory(self, capsys, tmp_path):
        assert main(["serve", "--store", str(tmp_path / "nope")]) == 2
        assert "MANIFEST.json" in capsys.readouterr().err

    def test_serve_rejects_store_plus_data(self, capsys, tmp_path):
        data = tmp_path / "data.ttl"
        data.write_text("", encoding="utf-8")
        assert main(["serve", str(data), "--store", str(tmp_path)]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_serves_a_store_directory_over_http(self, capsys, tmp_path):
        import json
        import os
        import subprocess
        import sys as _sys
        import urllib.parse
        import urllib.request
        from pathlib import Path

        store_dir = self._build(tmp_path, capsys)
        source_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_dir) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--store", str(store_dir), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        try:
            endpoint_line = process.stdout.readline().strip()
            assert endpoint_line.startswith("SPARQL endpoint: http://")
            url = endpoint_line.split(": ", 1)[1]
            query = "SELECT ?s WHERE { ?s <http://example.org/knows> ?o }"
            with urllib.request.urlopen(
                url + "?" + urllib.parse.urlencode({"query": query}), timeout=10
            ) as response:
                payload = json.loads(response.read())
            got = sorted(row["s"]["value"] for row in payload["results"]["bindings"])
            assert got == ["http://example.org/a", "http://example.org/b"]
        finally:
            process.terminate()
            process.wait(timeout=10)


class TestInputErrors:
    """Bad input files end in one ``error:`` line and exit 2, not a traceback."""

    BAD_QUERY = "SELECT ?s WHERE { ?s <http://e/p> }"
    BAD_TURTLE = "this is not turtle"

    @pytest.mark.parametrize("argv", [
        ["rewrite", "{missing}", "{missing}", "--target", "http://e/target"],
        ["query", "{missing}", "{missing}"],
        ["query", "{bad_query}", "{data}"],
        ["query", "{query}", "{bad_data}"],
        ["lint", "{missing}"],
        ["serve", "{missing}", "--port", "0"],
        ["store", "build", "{store}", "{missing}"],
        ["trace", "{missing}"],
    ], ids=["rewrite", "query", "query-parse", "query-data", "lint", "serve",
            "store-build", "trace"])
    def test_bad_input_is_a_one_line_error(self, capsys, tmp_path, argv):
        files = {
            "query": ("q.rq", "SELECT ?s WHERE { ?s ?p ?o }"),
            "bad_query": ("bad.rq", self.BAD_QUERY),
            "data": ("d.ttl", "<http://e/s> <http://e/p> <http://e/o> ."),
            "bad_data": ("bad.ttl", self.BAD_TURTLE),
        }
        paths = {"missing": tmp_path / "missing.rq", "store": tmp_path / "store"}
        for key, (name, text) in files.items():
            paths[key] = tmp_path / name
            paths[key].write_text(text, encoding="utf-8")
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestEntryPoint:
    COMMANDS = ("rewrite", "query", "federate", "serve", "store", "lint", "trace")

    def test_pyproject_installs_one_console_script(self):
        import importlib
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"repro": "repro.cli:main"}
        module, _, name = scripts["repro"].partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_module_help_lists_every_subcommand(self):
        import os
        import subprocess
        import sys as _sys
        from pathlib import Path

        source_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(source_dir) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [_sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert process.returncode == 0, process.stderr
        listed = process.stdout.split("{", 1)[1].split("}", 1)[0].split(",")
        assert tuple(listed) == self.COMMANDS
