"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_demo_runs(self, capsys):
        code, out, _err = run_cli(capsys, "demo", "--sources", "2",
                                  "--products", "8")
        assert code == 0
        assert "products integrated" in out
        assert "no errors" in out

    def test_demo_parallel(self, capsys):
        code, out, _err = run_cli(capsys, "demo", "--sources", "2",
                                  "--products", "8", "--concurrency",
                                  "thread")
        assert code == 0

    @pytest.mark.parametrize("mode", ["serial", "thread", "asyncio"])
    def test_demo_concurrency_modes(self, capsys, mode):
        code, out, _err = run_cli(capsys, "demo", "--sources", "2",
                                  "--products", "8", "--concurrency", mode)
        assert code == 0
        assert "products integrated" in out


class TestQuery:
    def test_text_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "query", "SELECT product", "--format", "text",
            "--sources", "2", "--products", "6")
        assert code == 0
        assert out.count("watch [") + out.count("product [") == 6

    def test_json_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "query", "SELECT product", "--format", "json",
            "--sources", "2", "--products", "6")
        assert code == 0
        assert len(json.loads(out)) == 6

    def test_fleet_shards_the_query(self, capsys):
        code, out, err = run_cli(
            capsys, "query", "SELECT product", "--format", "json",
            "--fleet", "2", "--sources", "2", "--products", "6",
            "--metrics")
        assert code == 0
        assert len(json.loads(out)) == 6
        assert "shard_dispatches_total" in err

    def test_owl_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "query", "SELECT product", "--format", "owl",
            "--sources", "2", "--products", "4")
        assert code == 0
        from repro.rdf.rdfxml import parse_rdfxml
        assert len(parse_rdfxml(out)) > 0

    def test_merge_key(self, capsys):
        code, out, _err = run_cli(
            capsys, "query", "SELECT product", "--format", "json",
            "--merge-key", "brand,model", "--sources", "2",
            "--products", "6")
        assert code == 0
        assert len(json.loads(out)) == 6  # no duplicates in this world

    def test_batch_file_runs_all_queries(self, capsys, tmp_path):
        batch = tmp_path / "queries.s2sql"
        batch.write_text(
            "# the paper's example plus two more\n"
            'SELECT product WHERE case = "stainless-steel"\n'
            "\n"
            "SELECT provider\n"
            "SELECT product\n")
        code, out, err = run_cli(
            capsys, "query", "--batch-file", str(batch),
            "--format", "text", "--sources", "2", "--products", "6")
        assert code == 0
        assert out.count("===") == 2 * 3  # one header per query
        assert "3 queries in one shared scan" in err

    def test_batch_file_json_blocks(self, capsys, tmp_path):
        batch = tmp_path / "queries.s2sql"
        batch.write_text("SELECT provider\nSELECT product\n")
        code, out, _err = run_cli(
            capsys, "query", "--batch-file", str(batch),
            "--format", "json", "--sources", "2", "--products", "4")
        assert code == 0
        assert "SELECT provider" in out and "SELECT product" in out

    def test_batch_file_and_inline_query_rejected(self, capsys, tmp_path):
        batch = tmp_path / "queries.s2sql"
        batch.write_text("SELECT product\n")
        code, _out, err = run_cli(
            capsys, "query", "SELECT product",
            "--batch-file", str(batch))
        assert code == 2
        assert "not both" in err

    def test_neither_query_nor_batch_file_rejected(self, capsys):
        code, _out, err = run_cli(capsys, "query")
        assert code == 2
        assert "either" in err

    def test_empty_batch_file_rejected(self, capsys, tmp_path):
        batch = tmp_path / "queries.s2sql"
        batch.write_text("# only comments\n\n")
        code, _out, err = run_cli(
            capsys, "query", "--batch-file", str(batch))
        assert code == 2
        assert "no queries" in err

    def test_conflict_level_none(self, capsys):
        code, out, _err = run_cli(
            capsys, "query",
            'SELECT product WHERE case = "stainless-steel"',
            "--format", "json", "--conflicts", "none",
            "--sources", "3", "--products", "9")
        assert code == 0
        records = json.loads(out)
        assert all(r["case"] == "stainless-steel" for r in records)

    def test_bad_query_reports_error(self, capsys):
        code, _out, err = run_cli(capsys, "query",
                                  "SELECT product FROM warehouse")
        assert code == 1
        assert "error:" in err


class TestPlanAndMapping:
    def test_plan_shows_closure(self, capsys):
        code, out, _err = run_cli(capsys, "plan",
                                  'SELECT product WHERE brand = "Seiko"')
        assert code == 0
        assert "output classes: product, watch, provider" in out
        assert "thing.product.brand = 'Seiko' (string)" in out.replace(
            "brand", "brand", 1) or "thing.product.brand" in out

    def test_mapping_lines(self, capsys):
        code, out, err = run_cli(capsys, "mapping", "--sources", "2",
                                 "--products", "4")
        assert code == 0
        assert "thing.product.brand = " in out
        assert "coverage 100%" in err

    def test_ontology_rdfxml(self, capsys):
        code, out, _err = run_cli(capsys, "ontology")
        assert code == 0
        from repro.ontology.owlxml import parse_ontology
        ontology = parse_ontology(out, "demo")
        assert "watch" in ontology.class_names()

    def test_ontology_turtle(self, capsys):
        code, out, _err = run_cli(capsys, "ontology", "--format", "turtle")
        assert code == 0
        assert "owl:Class" in out


class TestParser:
    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([])


class TestSuggest:
    def test_suggest_lists_candidates(self, capsys):
        code, out, _err = run_cli(capsys, "suggest", "--sources", "2",
                                  "--products", "4")
        assert code == 0
        assert "thing.product.brand <-" in out
        assert "score" in out


class TestIngest:
    def scenario_args(self):
        return ["--sources", "3", "--products", "6"]

    def test_run_and_status(self, capsys, tmp_path):
        journal = str(tmp_path / "journal")
        code, out, _err = run_cli(capsys, "ingest", "run",
                                  "--journal", journal,
                                  *self.scenario_args())
        assert code == 0
        assert "3 done" in out and "completed" in out
        code, out, _err = run_cli(capsys, "ingest", "status",
                                  "--journal", journal,
                                  *self.scenario_args())
        assert code == 0
        assert "3 done" in out
        assert "dead letters: 0" in out

    def test_crash_resumes_from_the_journal(self, capsys, tmp_path):
        journal = str(tmp_path / "journal")
        store = str(tmp_path / "store")
        code, out, _err = run_cli(capsys, "ingest", "run",
                                  "--journal", journal, "--dir", store,
                                  "--stop-after", "1",
                                  *self.scenario_args())
        assert code == 1  # the aborted run reports failure
        assert "aborted" in out and "1 done" in out
        code, out, err = run_cli(capsys, "ingest", "run",
                                 "--journal", journal, "--dir", store,
                                 *self.scenario_args())
        assert code == 0
        assert "completed" in out
        assert "1 skipped" in out
        assert "loaded 1 materialization(s)" in err

    def test_run_on_a_fleet(self, capsys, tmp_path):
        code, out, _err = run_cli(capsys, "ingest", "run",
                                  "--journal", str(tmp_path / "journal"),
                                  "--fleet", "3:thread",
                                  *self.scenario_args())
        assert code == 0
        assert "3 done" in out and "completed" in out

    def test_fleet_cannot_be_shared(self, capsys, tmp_path):
        code, _out, err = run_cli(capsys, "ingest", "run",
                                  "--journal", str(tmp_path / "journal"),
                                  "--fleet", "2:shared",
                                  *self.scenario_args())
        assert code == 1
        assert "unknown --fleet token 'shared'" in err

    def test_dead_letter_and_requeue_empty(self, capsys, tmp_path):
        journal = str(tmp_path / "journal")
        code, out, _err = run_cli(capsys, "ingest", "dead-letter",
                                  "--journal", journal)
        assert code == 0
        assert "empty" in out
        code, out, _err = run_cli(capsys, "ingest", "requeue",
                                  "--journal", journal,
                                  *self.scenario_args())
        assert code == 0
        assert "nothing to requeue" in out


class TestServe:
    def test_serve_binds_and_exits_after_duration(self, capsys, tmp_path):
        port_file = str(tmp_path / "port")
        code, out, err = run_cli(capsys, "serve", "--duration", "0",
                                 "--port-file", port_file,
                                 "--tenants", "acme:tok,globex",
                                 "--sources", "2", "--products", "4")
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        assert "acme" in out and "globex" in out
        assert "server stopped" in err
        with open(port_file, encoding="utf-8") as handle:
            assert int(handle.read()) > 0

    def test_serve_rejects_empty_tenants(self, capsys):
        code, _out, err = run_cli(capsys, "serve", "--duration", "0",
                                  "--tenants", ",")
        assert code == 1
        assert "at least one tenant" in err

    def test_serve_rejects_mixed_fleet_spellings(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "serve", "--duration", "0",
                    "--fleet", "2", "--query-workers", "2")
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_shared_fleet(self, capsys):
        code, out, _err = run_cli(capsys, "serve", "--duration", "0",
                                  "--fleet", "2:thread:shared",
                                  "--tenants", "acme,globex",
                                  "--sources", "2", "--products", "4")
        assert code == 0
        assert "shared fleet: 2 thread worker(s)" in out

    def test_serve_fleet_spec_validated(self, capsys):
        code, _out, err = run_cli(capsys, "serve", "--duration", "0",
                                  "--fleet", "2:fork")
        assert code == 1
        assert "unknown --fleet token" in err



class TestClient:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.server import S2SServer, ServerThread, Tenant, \
            TenantRegistry
        from repro.workloads import B2BScenario
        registry = TenantRegistry()
        registry.add(Tenant(
            "acme",
            B2BScenario(n_sources=2, n_products=5,
                        seed=7).build_middleware(store=True),
            token="tok", owned=True))
        thread = ServerThread(S2SServer(registry))
        host, port = thread.start()
        yield {"host": host, "port": str(port)}
        thread.stop()

    def client_args(self, server, *extra):
        return ("client", "--port", server["port"], "--tenant", "acme",
                "--token", "tok", *extra)

    def test_query(self, capsys, server):
        code, out, err = run_cli(capsys,
                                 *self.client_args(server, "SELECT Product"))
        assert code == 0
        assert out.count("watch ") == 5
        assert "5 entities" in err and "round-trip" in err

    def test_batch_file(self, capsys, server, tmp_path):
        batch = tmp_path / "queries.s2sql"
        batch.write_text("SELECT Product\nSELECT Provider\n")
        code, out, _err = run_cli(
            capsys, *self.client_args(server, "--batch-file", str(batch)))
        assert code == 0
        assert "=== SELECT Product (5 entities) ===" in out
        assert "=== SELECT Provider" in out

    def test_status_and_metrics(self, capsys, server):
        code, out, _err = run_cli(capsys,
                                  *self.client_args(server, "--status"))
        assert code == 0
        assert '"tenant": "acme"' in out
        code, out, _err = run_cli(capsys,
                                  *self.client_args(server, "--metrics"))
        assert code == 0
        assert "server_requests_total" in out

    def test_explain(self, capsys, server):
        code, out, _err = run_cli(
            capsys, *self.client_args(server, "--explain", "SELECT Product"))
        assert code == 0
        assert "query" in out

    def test_sparql(self, capsys, server):
        run_cli(capsys, *self.client_args(server, "SELECT Product"))
        code, out, _err = run_cli(capsys, *self.client_args(
            server, "--sparql",
            "SELECT ?s WHERE { ?s "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c }"))
        assert code == 0
        assert out.startswith("?s") or out.startswith("s")

    def test_exactly_one_mode_required(self, capsys, server):
        code, _out, err = run_cli(
            capsys, *self.client_args(server, "SELECT Product", "--status"))
        assert code == 2
        assert "exactly one" in err

    def test_bad_token_reports_error(self, capsys, server):
        code, _out, err = run_cli(capsys, "client", "--port",
                                  server["port"], "--tenant", "acme",
                                  "--token", "wrong", "SELECT Product")
        assert code == 1
        assert "error:" in err
