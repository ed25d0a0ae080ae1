import json
from fractions import Fraction

import pytest

from interdict.cli import build_parser, main
from interdict.graph import Arc, Instance
from interdict.instances import fig2a, parse, serialize
from interdict.linopt import NumericalFailure


@pytest.fixture
def fig2a_file(tmp_path):
    path = tmp_path / "fig2a_k6_g2.txt"
    path.write_text(serialize(fig2a(6, 2)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_writes_file_and_counts(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code, stdout, _ = run(
            capsys, "generate", "--family", "fig2a", "--k", "6", "--gamma", "2",
            "--out", str(out),
        )
        assert code == 0
        assert "nodes=3 arcs=9" in stdout
        assert parse(out.read_text()) == fig2a(6, 2)

    def test_stdout_mode_keeps_file_clean(self, capsys):
        code, stdout, stderr = run(
            capsys, "generate", "--family", "fig2a", "--k", "2", "--gamma", "1"
        )
        assert code == 0
        assert parse(stdout) == fig2a(2, 1)
        assert "nodes=3 arcs=4" in stderr

    def test_random_deterministic_per_seed(self, capsys):
        args = ("generate", "--family", "random", "--gamma", "2", "--seed", "7",
                "--nodes", "6", "--arcs", "10", "--cap-max", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_invalid_k_exits_one(self, capsys):
        code, _, stderr = run(
            capsys, "generate", "--family", "fig1", "--k", "2", "--gamma", "2"
        )
        assert code == 1
        assert "K >= gamma + 1" in stderr

    def test_unknown_flag_exits_one(self, fig2a_file, capsys):
        for argv in (
            ("generate", "--family", "fig2a", "--oops", "1"),
            ("solve", "--model", "ni", fig2a_file, "--cut-limit", "5"),
            ("solve", "--model", "ni", fig2a_file, "--path-limit", "5"),
        ):
            with pytest.raises(SystemExit) as err:
                run(capsys, *argv)
            assert err.value.code == 1


class TestSolve:
    def test_ni_table(self, fig2a_file, capsys):
        code, stdout, _ = run(capsys, "solve", "--model", "ni", fig2a_file)
        assert code == 0
        assert "Z_NI = 4" in stdout

    def test_rni_path_value(self, tmp_path, capsys):
        from interdict.instances import fig1

        path = tmp_path / "fig1.txt"
        path.write_text(serialize(fig1(12, 2)))
        code, stdout, _ = run(capsys, "solve", "--model", "rni-path", str(path))
        assert code == 0
        assert "Z_RNI^Path = 8" in stdout
        assert "PASS" in stdout

    def test_rni_json_round_trip(self, fig2a_file, capsys):
        code, stdout, _ = run(capsys, "solve", "--model", "rni", fig2a_file, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["model"] == "rni"
        assert f"{payload['value']:.12g}" == f"{2.0:.12g}"
        assert payload["certificate"]["pass"] is True
        assert sum(s["prob"] for s in payload["strategy"]) == pytest.approx(1.0)
        assert payload["instance"]["arcs"] == 9

    def test_gamma1_on_gamma2_instance_exits_one(self, fig2a_file, capsys):
        code, _, stderr = run(capsys, "solve", "--model", "gamma1", fig2a_file)
        assert code == 1
        assert "gamma" in stderr

    def test_gamma1_solves(self, tmp_path, capsys):
        path = tmp_path / "g1.txt"
        path.write_text(serialize(fig2a(3, 1)))
        code, stdout, _ = run(capsys, "solve", "--model", "gamma1", str(path))
        assert code == 0
        assert "Z_RNI = 1.5" in stdout
        assert "PASS" in stdout

    @pytest.mark.parametrize(
        "model, extra",
        [
            ("ni", {"witness_removal": [1, 2]}),
            ("lo", {"theta_star": 2.0, "flow_value": 6.0}),
        ],
    )
    def test_models_without_strategy_json(self, fig2a_file, capsys, model, extra):
        code, stdout, _ = run(capsys, "solve", "--model", model, fig2a_file, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["strategy"] == []
        assert payload["certificate"] is None
        assert {key: payload.get(key) for key in extra} == extra

    def test_numerical_failure_exits_three(self, fig2a_file, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalFailure("no status certified")

        monkeypatch.setattr("interdict.linopt._Simplex.solve", fail)
        code, stdout, _ = run(capsys, "solve", "--model", "rni", fig2a_file, "--json")
        assert code == 3
        assert json.loads(stdout)["error"] == {
            "kind": "numerical",
            "message": "no status certified",
        }

    def test_lo_model(self, fig2a_file, capsys):
        code, stdout, _ = run(capsys, "solve", "--model", "lo", fig2a_file)
        assert code == 0
        assert "Z_LO = 2" in stdout
        assert "theta_star = 2" in stdout

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("p interdict 2 1 0\nn 1 s\nn 2 t\na 1 2 1\n")
        code, _, stderr = run(capsys, "solve", "--model", "ni", str(bad))
        assert code == 1
        assert "gamma out of range" in stderr

    def test_limit_exit_two(self, fig2a_file, capsys):
        code, _, stderr = run(
            capsys, "solve", "--model", "rni-path", fig2a_file,
            "--scenario-limit", "3",
        )
        assert code == 2
        assert "exceed" in stderr

    def test_json_error_object(self, fig2a_file, capsys):
        code, stdout, _ = run(
            capsys, "solve", "--model", "rni-path", fig2a_file,
            "--scenario-limit", "3", "--json",
        )
        assert code == 2
        payload = json.loads(stdout)
        assert payload["error"]["kind"] == "limit"

    def test_stdin_instance(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(serialize(fig2a(6, 2))))
        code, stdout, _ = run(capsys, "solve", "--model", "ni", "-")
        assert code == 0
        assert "Z_NI = 4" in stdout

    def test_environment_variables_are_ignored(self, fig2a_file, capsys, monkeypatch):
        # the flags are the only settings: a limit of 3 would refuse this
        monkeypatch.setenv("INTERDICT_SCENARIO_LIMIT", "3")
        code, _, _ = run(capsys, "solve", "--model", "rni-path", fig2a_file)
        assert code == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p interdict 2 1 1\nn 1 s\nn 2 t\na 1 2 Infinity\n", "bad capacity"),
            (
                "p interdict 2 2 1\nn 1 s\nn 2 t\na 1 2 inf\na 1 2 inf\n",
                "more than gamma",
            ),
        ],
        ids=["non-finite-capacity", "unbounded-value"],
    )
    def test_unusable_capacities_are_input_errors(
        self, capsys, monkeypatch, text, message
    ):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, stdout, _ = run(capsys, "solve", "--model", "ni", "-", "--json")
        assert code == 1
        error = json.loads(stdout)["error"]
        assert error["kind"] == "input"
        assert message in error["message"]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("flag", ["--scenario-limit", "--tolerance"])
    def test_zero_flag_is_rejected_not_replaced(self, fig2a_file, capsys, flag):
        code, stdout, _ = run(
            capsys, "solve", "--model", "ni", fig2a_file, flag, "0", "--json"
        )
        assert code == 1
        assert json.loads(stdout)["error"]["kind"] == "input"


class TestReport:
    def test_fig1_tight_row(self, tmp_path, capsys):
        from interdict.instances import fig1

        path = tmp_path / "fig1.txt"
        path.write_text(serialize(fig1(12, 2)))
        code, stdout, _ = run(capsys, "report", str(path))
        assert code == 0
        assert "Z_NI = 11" in stdout
        assert "Z_RNI^Path/Z_LO = 1.3333 <= 1.3333 PASS(tight)" in stdout

    def test_json_bounds_schema(self, fig2a_file, capsys):
        code, stdout, _ = run(capsys, "report", fig2a_file, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["model"] == "report"
        names = {row["name"] for row in payload["bounds"]}
        assert "Z_NI/Z_RNI" in names
        for row in payload["bounds"]:
            assert set(row) == {"name", "lhs", "rhs", "verdict", "tight"}
            assert row["verdict"] in ("PASS", "FAIL", "NA")
        assert payload["values"]["z_ni"] == pytest.approx(4.0)
        assert payload["partial"] is False

    def test_partial_flag_under_tiny_limits(self, fig2a_file, capsys):
        # a limit of 3 only blocks the path model: NI and the arc model
        # enumerate fig2a's 2 cuts, which a limit of 1 blocks as well
        code, stdout, _ = run(
            capsys, "report", fig2a_file, "--scenario-limit", "3", "--json"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["partial"] is True
        assert set(payload["skipped"]) == {"rni_path"}
        code, stdout, _ = run(
            capsys, "report", fig2a_file, "--scenario-limit", "1", "--json"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert set(payload["skipped"]) == {"ni", "rni", "rni_path"}

    def test_partial_table_line(self, fig2a_file, capsys):
        code, stdout, _ = run(capsys, "report", fig2a_file, "--scenario-limit", "3")
        assert code == 0
        assert "partial result: skipped rni_path (limits)" in stdout
        assert "Z_RNI^Path = n/a" in stdout


@pytest.fixture(scope="module")
def long_chain_file(tmp_path_factory):
    """1,100 nodes in a chain, 3 parallel unit arcs per link, gamma 2: its
    s-t paths are 1,099 arcs long and far more than any limit."""
    n = 1100
    arcs = tuple(Arc(v, v + 1, Fraction(1)) for v in range(1, n) for _ in range(3))
    path = tmp_path_factory.mktemp("chain") / "chain.txt"
    path.write_text(serialize(Instance(n, 1, n, arcs, 2)))
    return str(path)


class TestLongPaths:
    def test_path_model_is_refused_by_the_limit(self, long_chain_file, capsys):
        code, stdout, _ = run(
            capsys, "solve", "--model", "rni-path", long_chain_file, "--json"
        )
        assert code == 2
        assert json.loads(stdout)["error"]["kind"] == "limit"

    def test_report_is_partial(self, long_chain_file, capsys):
        code, stdout, _ = run(capsys, "report", long_chain_file, "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["partial"] is True
        assert payload["skipped"] == ["ni", "rni", "rni_path"]
