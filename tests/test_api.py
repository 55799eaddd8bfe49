"""The façade: registry dispatch, cross-backend validity, reports, batch.

The heart is the cross-backend consistency suite: every registered
``(task, backend)`` pair must return a *valid* solution (ground-truth
validators, not solver self-reports) on a shared grid of small graphs and
seeds — the contract that makes backends interchangeable.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.api import (
    BACKENDS,
    TASKS,
    RunReport,
    SolverRegistry,
    UnknownSolverError,
    read_jsonl,
    registry,
    solve,
    solve_many,
    sweep,
)
from repro.api.batch import RunSpec
from repro.api.facade import _DEGRADE_BACKENDS
from repro.api.registry import SolverOutput
from repro.api.__main__ import main as cli_main, parse_graph_spec
from repro.core.config import MatchingConfig, MISConfig
from repro.graph.csr import as_csr
from repro.graph.generators import (
    cycle_graph,
    gnp_random_graph,
    path_graph,
    random_weighted_graph,
    star_graph,
)
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_valid_fractional_matching,
    is_vertex_cover,
)
from repro.verify.checkers import fractional_columns
from repro.graph.weighted import WeightedGraph
from repro.mpc.spec import ClusterSpec
from repro.ooc.format import load_csr, save_csr


def shared_grid():
    """The small-graph grid every backend must handle."""
    return [
        ("path9", path_graph(9)),
        ("cycle8", cycle_graph(8)),
        ("star7", star_graph(7)),
        ("gnp60", gnp_random_graph(60, 0.08, seed=5)),
    ]


GRID = shared_grid()
PAIRS = registry.pairs()
SEEDS = (1, 9)

_PARENT_PID = os.getpid()
from repro.api.batch import _run_indexed as _real_run_indexed  # noqa: E402


def _exit_in_child(job):
    """Pool sabotage: hard-kill the worker handling spec #1.

    Module-level so the pool can pickle it by reference; the PID guard
    keeps the parent's serial salvage pass (which runs the same specs)
    alive.  ``os._exit`` models an OOM kill — no exception, no cleanup,
    just a dead process and a broken pool.
    """
    if job[0] == 1 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return _real_run_indexed(job)


class TestRegistry:
    def test_every_task_has_at_least_two_backends(self):
        for task in TASKS:
            assert len(registry.backends(task)) >= 2, task

    def test_all_tasks_registered(self):
        assert registry.tasks() == list(TASKS)

    def test_auto_prefers_the_paper_mpc_algorithm(self):
        for task in TASKS:
            assert registry.resolve(task).backend == "mpc"

    def test_unknown_pair_raises_with_alternatives(self):
        with pytest.raises(UnknownSolverError, match="available backends"):
            registry.get("weighted_matching", "pregel")

    def test_unknown_task_raises(self):
        with pytest.raises(UnknownSolverError):
            registry.resolve("coloring")

    def test_duplicate_registration_rejected(self):
        fresh = SolverRegistry()

        @fresh.register("mis", "greedy", solution_kind="vertex_set")
        def first(graph, **kwargs):
            return SolverOutput(solution=set())

        with pytest.raises(ValueError, match="already registered"):

            @fresh.register("mis", "greedy", solution_kind="vertex_set")
            def second(graph, **kwargs):
                return SolverOutput(solution=set())

    def test_register_validates_names(self):
        fresh = SolverRegistry()
        with pytest.raises(ValueError, match="unknown task"):
            fresh.register("coloring", "mpc", solution_kind="vertex_set")
        with pytest.raises(ValueError, match="unknown backend"):
            fresh.register("mis", "quantum", solution_kind="vertex_set")


class TestCrossBackendConsistency:
    @pytest.mark.parametrize(
        "task,backend", PAIRS, ids=[f"{t}-{b}" for t, b in PAIRS]
    )
    @pytest.mark.parametrize("name,graph", GRID, ids=[name for name, _ in GRID])
    def test_every_pair_valid_on_grid(self, task, backend, name, graph):
        report = solve(task, graph, backend=backend, seed=1)
        assert report.task == task and report.backend == backend
        assert report.valid, f"{task}/{backend} invalid on {name}"
        _check_ground_truth(task, graph, report)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "task,backend", PAIRS, ids=[f"{t}-{b}" for t, b in PAIRS]
    )
    def test_every_pair_valid_across_seeds(self, task, backend, seed):
        graph = gnp_random_graph(40, 0.1, seed=17)
        report = solve(task, graph, backend=backend, seed=seed)
        assert report.valid
        assert report.seed == seed

    def test_same_seed_same_solution(self):
        graph = gnp_random_graph(50, 0.1, seed=3)
        for task, backend in PAIRS:
            first = solve(task, graph, backend=backend, seed=23)
            again = solve(task, graph, backend=backend, seed=23)
            assert first.solution == again.solution, (task, backend)


UNWEIGHTED_PAIRS = [
    (entry.task, entry.backend) for entry in registry.entries() if not entry.weighted
]


def _spy_on_entries(monkeypatch, pairs):
    """Wrap each pair's registered adapter; returns the list of inputs seen."""
    seen = []
    for pair in pairs:
        entry = registry.get(*pair)

        def spy(graph, *, _fn=entry.fn, _pair=pair, **kwargs):
            seen.append((_pair, graph))
            return _fn(graph, **kwargs)

        monkeypatch.setitem(
            registry._entries, pair, dataclasses.replace(entry, fn=spy)
        )
    return seen


class TestSolverInput:
    """The façade hands every unweighted backend its memoized CSR form."""

    @pytest.mark.parametrize(
        "task,backend",
        UNWEIGHTED_PAIRS,
        ids=[f"{t}-{b}" for t, b in UNWEIGHTED_PAIRS],
    )
    def test_unweighted_entries_receive_the_csr(self, monkeypatch, task, backend):
        seen = _spy_on_entries(monkeypatch, [(task, backend)])
        graph = gnp_random_graph(40, 0.1, seed=2)
        weighted = random_weighted_graph(40, 0.1, seed=2)
        solve(task, graph, backend=backend, seed=1)
        solve(task, weighted, backend=backend, seed=1)
        assert [pair for pair, _ in seen] == [(task, backend)] * 2
        assert seen[0][1] is as_csr(graph)
        assert seen[1][1] is as_csr(weighted.structure)

    @pytest.mark.parametrize(
        "task",
        ["mis", "fractional_matching", "vertex_cover", "matching",
         "one_plus_eps_matching"],
    )
    def test_degrade_fallback_receives_the_csr(self, monkeypatch, task):
        fallback = (task, _DEGRADE_BACKENDS[task])
        seen = _spy_on_entries(monkeypatch, [fallback])
        graph = gnp_random_graph(300, 0.03, seed=1)
        report = solve(
            task, graph, backend="mpc", seed=0, budget=0.05,
            governance={"allow_sparsify": False, "allow_chunk": False},
        )
        assert report.extras["governance"]["degraded"]
        assert [pair for pair, _ in seen] == [fallback]
        assert seen[0][1] is as_csr(graph)

    def test_central_cover_weight_is_the_fractional_weight(self):
        # Both sum Central-Rand's weights in sorted edge order, so the two
        # readings agree to the bit.
        graph = random_weighted_graph(300, 0.05, seed=7).structure
        cover = solve("vertex_cover", graph, backend="central", seed=9)
        fractional = solve("fractional_matching", graph, backend="central", seed=9)
        assert cover.extras["fractional_weight"] == fractional.metrics["weight"]


ALL_PAIRS = [(entry.task, entry.backend) for entry in registry.entries()]


class TestSolverOutput:
    """Every adapter hands the façade its kind's one array form."""

    @pytest.mark.parametrize("representation", ["graph", "csr", "mmap"])
    @pytest.mark.parametrize(
        "task,backend", ALL_PAIRS, ids=[f"{t}-{b}" for t, b in ALL_PAIRS]
    )
    def test_solution_has_the_kind_array_form(
        self, monkeypatch, tmp_path, task, backend, representation
    ):
        entry = registry.get(task, backend)
        outputs = []

        def spy(graph, **kwargs):
            outputs.append(entry.fn(graph, **kwargs))
            return outputs[-1]

        monkeypatch.setitem(
            registry._entries, (task, backend), dataclasses.replace(entry, fn=spy)
        )
        graph = gnp_random_graph(60, 0.1, seed=3)
        if representation != "graph":
            graph = as_csr(graph)
        if representation == "mmap":
            graph = load_csr(save_csr(graph, tmp_path / "graph"))
        solve(task, graph, backend=backend, seed=4)
        [output] = outputs
        solution = output.solution
        if entry.solution_kind == "vertex_set":
            assert isinstance(solution, np.ndarray) and solution.dtype == np.int64
            assert solution.ndim == 1 and solution.size > 0
            assert len(np.unique(solution)) == len(solution)
            return
        rows = solution.edges if entry.solution_kind == "fractional" else solution
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[1] == 2 and len(rows) > 0
        assert bool(np.all(rows[:, 0] < rows[:, 1]))
        assert len(np.unique(rows, axis=0)) == len(rows)


def _check_ground_truth(task: str, graph, report: RunReport) -> None:
    """Re-validate with the property predicates, independent of metrics."""
    structure = graph.structure if isinstance(graph, WeightedGraph) else graph
    if task == "mis":
        assert is_maximal_independent_set(structure, report.vertex_set())
    elif task == "vertex_cover":
        assert is_vertex_cover(structure, report.vertex_set())
    elif task == "fractional_matching":
        assert is_valid_fractional_matching(
            structure, *fractional_columns(report.solution)
        )
    else:
        assert is_matching(structure, report.edge_set())


class TestSolveFacade:
    def test_auto_backend(self):
        report = solve("mis", cycle_graph(10), seed=2)
        assert report.backend == "mpc"

    def test_config_dict_is_constructed(self):
        report = solve(
            "matching", cycle_graph(12), config={"epsilon": 0.2}, seed=1
        )
        assert report.config["epsilon"] == 0.2
        assert report.config["__type__"] == "MatchingConfig"

    def test_config_dataclass_passthrough(self):
        report = solve("mis", path_graph(8), config=MISConfig(alpha=0.5), seed=1)
        assert report.config["alpha"] == 0.5

    def test_budget_overrides_memory_factor(self):
        report = solve("mis", gnp_random_graph(40, 0.2, seed=1), budget=4.0)
        assert report.config["memory_factor"] == 4.0

    def test_budget_ignored_by_configless_backend(self):
        # Sweep-wide budgets must not break backends="all": backends with
        # no memory model simply ignore the hint.
        report = solve("mis", path_graph(6), backend="greedy", budget=2.0)
        assert report.valid and report.config == {}

    def test_dict_config_ignored_by_configless_backend(self):
        report = solve(
            "matching", path_graph(6), backend="central", config={"epsilon": 0.2}
        )
        assert report.valid and report.config == {}

    def test_dataclass_config_rejected_by_configless_backend(self):
        with pytest.raises(TypeError, match="takes no config"):
            solve(
                "matching",
                path_graph(6),
                backend="central",
                config=MatchingConfig(),
            )

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            solve("mis", path_graph(6), budget=-1.0)
        with pytest.raises(ValueError, match="positive"):
            solve("mis", path_graph(6), backend="greedy", budget=-1.0)

    @pytest.mark.parametrize(
        "task, backend",
        [("mis", "mpc"), ("mis", "congested_clique"), ("matching", "mpc")],
    )
    def test_no_rng_knob(self, task, backend):
        """The counter generator is the only one: no mode to pick or report."""
        graph = gnp_random_graph(60, 0.08, seed=5)
        assert "rng" not in solve(task, graph, backend=backend, seed=3).config
        with pytest.raises(TypeError, match="rng"):
            solve(task, graph, backend=backend, seed=3, rng="counter")

    def test_non_int_seed_rejected(self):
        import random

        with pytest.raises(TypeError, match="int seed"):
            solve("mis", path_graph(6), seed=random.Random(1))

    def test_weighted_task_wraps_plain_graph(self):
        report = solve("weighted_matching", cycle_graph(8), seed=1)
        assert report.valid
        assert report.metrics["weight"] == pytest.approx(float(report.size))

    def test_unweighted_task_accepts_weighted_graph(self):
        weighted = random_weighted_graph(30, 0.15, seed=4)
        report = solve("matching", weighted, backend="greedy", seed=4)
        assert report.valid
        assert report.n == weighted.num_vertices

    def test_metrics_carry_weight_for_fractional(self):
        report = solve("fractional_matching", cycle_graph(10), seed=1)
        assert report.metrics["weight"] > 0

    def test_extras_preserve_backend_measurements(self):
        report = solve("mis", gnp_random_graph(80, 0.3, seed=2), seed=2)
        assert "prefix_phases" in report.extras
        cc = solve(
            "mis", gnp_random_graph(80, 0.3, seed=2), backend="congested_clique"
        )
        assert "max_routed_messages" in cc.extras

    def test_empty_graph(self):
        report = solve("mis", Graph(5), seed=1)
        assert report.valid
        assert report.vertex_set() == {0, 1, 2, 3, 4}


class TestRunReport:
    def test_json_roundtrip_every_kind(self):
        graph = gnp_random_graph(30, 0.15, seed=6)
        for task, backend in (
            ("mis", "mpc"),
            ("matching", "greedy"),
            ("fractional_matching", "central"),
            ("weighted_matching", "mpc"),
        ):
            report = solve(task, graph, backend=backend, seed=11)
            assert RunReport.from_json(report.to_json()) == report

    def test_solution_is_canonical_json(self):
        report = solve("matching", cycle_graph(10), backend="greedy", seed=1)
        payload = json.loads(report.to_json())
        assert payload["solution"] == sorted(payload["solution"])
        for u, v in payload["solution"]:
            assert u < v

    def test_solution_kind_accessors_guard(self):
        report = solve("mis", path_graph(6), seed=1)
        with pytest.raises(TypeError):
            report.edge_set()
        with pytest.raises(TypeError):
            report.edge_weights()

    def test_invalid_solution_kind_rejected(self):
        with pytest.raises(ValueError, match="solution_kind"):
            RunReport(
                task="mis",
                backend="mpc",
                n=1,
                num_edges=0,
                solution_kind="matrix",
                solution=[],
            )

    def test_summary_row_fields(self):
        row = solve("vertex_cover", cycle_graph(8), seed=1).summary_row()
        assert {"task", "backend", "n", "m", "size", "rounds", "valid"} <= set(row)


class TestSolveMany:
    def test_sweep_cross_product_and_jsonl(self, tmp_path):
        graphs = [cycle_graph(8), gnp_random_graph(30, 0.12, seed=8)]
        specs = sweep(
            ["mis", "matching"],
            graphs,
            backends=["mpc", "greedy"],
            seeds=(1, 2),
            configs=(None,),
        )
        assert len(specs) == 16  # 2 graphs x 2 tasks x 2 backends x 2 seeds
        out = tmp_path / "reports.jsonl"
        result = solve_many(specs, jsonl_path=out)
        assert len(result) == 16 and not result.failures
        loaded = read_jsonl(out)
        assert loaded == result.reports
        assert all(report.valid for report in loaded)

    def test_sweep_all_backends(self):
        specs = sweep(["vertex_cover"], [path_graph(7)], backends="all")
        assert {spec.backend for spec in specs} == set(
            registry.backends("vertex_cover")
        )

    def test_failures_recorded_not_raised(self):
        specs = [
            RunSpec(task="mis", graph=path_graph(5), backend="mpc", seed=1),
            RunSpec(task="weighted_matching", graph=path_graph(5), backend="pregel"),
        ]
        result = solve_many(specs)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert "UnknownSolverError" in result.failures[0]["error"]

    def test_raise_on_error(self):
        specs = [RunSpec(task="mis", graph=path_graph(5), backend="central")]
        with pytest.raises(UnknownSolverError):
            solve_many(specs, raise_on_error=True)

    def test_jsonl_truncates_by_default_appends_on_request(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        specs = sweep(["mis"], [path_graph(6)], backends="greedy", seeds=(1, 2))
        solve_many(specs, jsonl_path=out)
        solve_many(specs, jsonl_path=out)
        assert len(read_jsonl(out)) == 2  # second run replaced the first
        # append resumes idempotently: already-settled specs are skipped,
        # not duplicated (see tests/test_batch_resume.py for the full
        # contract), while genuinely new specs still land.
        solve_many(specs, jsonl_path=out, append=True)
        assert len(read_jsonl(out)) == 2
        more = sweep(["mis"], [path_graph(6)], backends="greedy", seeds=(3,))
        solve_many(more, jsonl_path=out, append=True)
        assert len(read_jsonl(out)) == 3

    def test_spec_label_lands_in_extras(self):
        specs = sweep(["mis"], [path_graph(6), cycle_graph(6)], backends="greedy")
        result = solve_many(specs)
        assert [r.extras["spec_label"] for r in result.reports] == ["g0", "g1"]

    def test_multiprocessing_pool_matches_serial(self):
        specs = sweep(
            ["mis", "vertex_cover"],
            [gnp_random_graph(40, 0.1, seed=2)],
            backends="greedy",
            seeds=(1, 2, 3),
        )
        serial = solve_many(specs)
        pooled = solve_many(specs, processes=2)
        assert [r.solution for r in serial.reports] == [
            r.solution for r in pooled.reports
        ]


class TestSolveManyFailurePaths:
    def test_empty_spec_list(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        result = solve_many([], jsonl_path=out)
        assert len(result) == 0
        assert result.reports == [] and result.failures == []
        assert result.elapsed_s >= 0.0
        assert out.read_text() == ""  # file created, zero rows

    def test_worker_exception_recorded_on_pool_path(self):
        # An unregistered (task, backend) pair raises inside the worker;
        # the pool path must record it and keep the good specs.
        specs = [
            RunSpec(task="mis", graph=path_graph(6), backend="greedy", seed=1),
            RunSpec(task="mis", graph=path_graph(6), backend="central", seed=1),
            RunSpec(task="matching", graph=path_graph(6), backend="greedy", seed=1),
        ]
        result = solve_many(specs, processes=2)
        assert len(result.reports) == 2
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["backend"] == "central"
        assert "UnknownSolverError" in failure["error"]

    def test_malformed_spec_config_recorded(self):
        # A typed config routed to a backend that takes none is the
        # facade's TypeError; solve_many must absorb it per-spec.
        specs = [
            RunSpec(
                task="mis",
                graph=path_graph(6),
                backend="greedy",
                config=MISConfig(),
            ),
            RunSpec(task="mis", graph=path_graph(6), backend="greedy"),
        ]
        result = solve_many(specs)
        assert len(result.reports) == 1
        assert len(result.failures) == 1
        assert "TypeError" in result.failures[0]["error"]

    def test_malformed_spec_raises_when_requested(self):
        specs = [
            RunSpec(
                task="mis",
                graph=path_graph(6),
                backend="greedy",
                config=MISConfig(),
            )
        ]
        with pytest.raises(RuntimeError, match="spec failed"):
            solve_many(specs, raise_on_error=True, processes=2)

    def test_pool_failure_keeps_jsonl_of_successes(self, tmp_path):
        out = tmp_path / "partial.jsonl"
        specs = [
            RunSpec(task="mis", graph=path_graph(6), backend="central", seed=1),
            RunSpec(task="mis", graph=path_graph(6), backend="greedy", seed=1),
        ]
        result = solve_many(specs, processes=2, jsonl_path=out)
        assert len(result.failures) == 1
        assert len(read_jsonl(out)) == 1

    def test_broken_pool_salvages_sweep_serially(self, monkeypatch):
        # A worker process dying outright (OOM-kill class, not a Python
        # exception) breaks the pool.  The sweep must still deliver every
        # report — the unfinished specs re-run serially — and record the
        # incident instead of raising.
        import repro.api.batch as batch_module

        monkeypatch.setattr(batch_module, "_run_indexed", _exit_in_child)
        specs = sweep(
            ["mis"],
            [path_graph(6)],
            backends="greedy",
            seeds=(1, 2, 3, 4),
        )
        result = solve_many(specs, processes=2)
        assert len(result.reports) == 4
        assert not result.failures
        assert result.incidents
        assert "re-run serially" in result.incidents[0]
        serial = solve_many(specs)
        assert [r.solution for r in result.reports] == [
            r.solution for r in serial.reports
        ]


class TestRunReportSchema:
    def test_current_schema_round_trips(self):
        report = solve("mis", path_graph(5), backend="greedy", seed=1)
        payload = json.loads(report.to_json())
        assert payload["schema"] == 2
        assert RunReport.from_json(report.to_json()) == report

    def test_version1_payload_upgraded(self):
        report = solve("mis", path_graph(5), backend="greedy", seed=1)
        payload = report.to_dict()
        # A PR1/PR2-era row: no schema and none of the v2 fields.
        for key in ("schema", "total_comm_words", "verification"):
            payload.pop(key)
        loaded = RunReport.from_dict(payload)
        assert loaded.schema == 2
        assert loaded.total_comm_words == 0
        assert loaded.verification == {}
        assert loaded.solution == report.solution

    @pytest.mark.parametrize("bad", [0, 3, 99, "2.0", None])
    def test_unknown_schema_rejected(self, bad):
        report = solve("mis", path_graph(5), backend="greedy", seed=1)
        payload = report.to_dict()
        payload["schema"] = bad
        with pytest.raises(ValueError, match="schema version"):
            RunReport.from_dict(payload)
        with pytest.raises(ValueError, match="schema version"):
            RunReport.from_json(json.dumps(payload))

    def test_constructor_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema version"):
            RunReport(
                task="mis",
                backend="greedy",
                n=1,
                num_edges=0,
                solution_kind="vertex_set",
                solution=[0],
                schema=7,
            )


class TestClusterSpec:
    def test_fit_matches_mis_sizing(self):
        graph = gnp_random_graph(100, 0.1, seed=1)
        spec = ClusterSpec.from_graph(graph, 8.0, machines="fit")
        words = max(int(8.0 * 100), 64)
        total = 2 * graph.num_edges + 100
        assert spec.words_per_machine == words
        assert spec.num_machines == max(2, -(-total // words) + 1)

    def test_sqrt_machines(self):
        spec = ClusterSpec.from_graph(Graph(100), machines="sqrt")
        assert spec.num_machines == 11

    def test_minimum_words_floor(self):
        spec = ClusterSpec.from_graph(Graph(3), 1.0)
        assert spec.words_per_machine == 64

    def test_build_cluster(self):
        cluster = ClusterSpec.from_graph(Graph(50)).build_cluster()
        assert cluster.words_per_machine == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec.from_graph(Graph(10), memory_factor=0.0)
        with pytest.raises(ValueError):
            ClusterSpec.from_graph(Graph(10), machines="cubic")
        with pytest.raises(ValueError):
            ClusterSpec(num_machines=0, words_per_machine=10)

    def test_to_dict(self):
        spec = ClusterSpec.from_graph(Graph(10), 2.0)
        assert spec.to_dict()["memory_factor"] == 2.0


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        assert "congested_clique" in capsys.readouterr().out

    def test_solve(self, capsys):
        rc = cli_main(
            ["solve", "--task", "mis", "--graph", "gnp:n=50,p=0.1", "--seed", "3"]
        )
        assert rc == 0
        assert "mis" in capsys.readouterr().out

    def test_solve_json_output(self, capsys):
        rc = cli_main(
            [
                "solve",
                "--task",
                "matching",
                "--backend",
                "greedy",
                "--graph",
                "cycle:n=10",
                "--json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "matching"

    def test_sweep_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "cli.jsonl"
        rc = cli_main(
            [
                "sweep",
                "--tasks",
                "mis,vertex_cover",
                "--backends",
                "mpc,greedy",
                "--graphs",
                "path:n=8",
                "cycle:n=8",
                "--seeds",
                "1,2,3",
                "--jsonl",
                str(out),
            ]
        )
        assert rc == 0
        reports = read_jsonl(out)
        assert len(reports) == 24  # 2 graphs x 2 tasks x 2 backends x 3 seeds
        assert all(report.valid for report in reports)

    def test_bad_graph_spec_is_an_error(self, capsys):
        rc = cli_main(
            ["solve", "--task", "mis", "--graph", "torus:n=10"]
        )
        assert rc == 2
        assert "unknown graph kind" in capsys.readouterr().err

    def test_parse_graph_spec_kinds(self):
        assert parse_graph_spec("grid:rows=3,cols=4").num_vertices == 12
        assert parse_graph_spec("complete:n=5").num_edges == 10
        with pytest.raises(ValueError):
            parse_graph_spec("gnp:n==5")


class TestPeakRssNormalization:
    """ru_maxrss units differ per platform; the report field is bytes."""

    def test_darwin_reports_bytes(self):
        from repro.api.facade import _ru_maxrss_unit

        assert _ru_maxrss_unit("darwin") == 1

    def test_linux_and_bsds_report_kib(self):
        from repro.api.facade import _ru_maxrss_unit

        for platform in ("linux", "freebsd13", "openbsd7", "netbsd"):
            assert _ru_maxrss_unit(platform) == 1024

    def test_current_platform_measurement_is_plausible_bytes(self):
        from repro.api.facade import _peak_rss_bytes

        peak = _peak_rss_bytes()
        # A running CPython interpreter occupies at least a few MiB; a
        # KiB-valued reading slipping through unconverted would fail this.
        assert peak > 4 * 2**20
        assert peak < 2**40

    def test_report_carries_normalized_bytes(self):
        report = solve("mis", path_graph(8), backend="greedy")
        assert report.peak_rss_bytes > 4 * 2**20

    def test_children_high_water_mark_is_included(self, monkeypatch):
        # Worker processes (repro.dist executors, solve_many pools) only
        # show up in the RUSAGE_CHILDREN high-water mark; the report must
        # sum both readings before normalizing to bytes.
        import resource as resource_module

        from repro.api import facade

        class FakeUsage:
            def __init__(self, ru_maxrss):
                self.ru_maxrss = ru_maxrss

        readings = {
            resource_module.RUSAGE_SELF: FakeUsage(300_000),
            resource_module.RUSAGE_CHILDREN: FakeUsage(120_000),
        }
        monkeypatch.setattr(
            facade.resource, "getrusage", lambda who: readings[who]
        )
        expected = (300_000 + 120_000) * facade._ru_maxrss_unit()
        assert facade._peak_rss_bytes() == expected

    def test_children_reading_reflects_reaped_workers(self):
        # End to end: after a parallel solve the owned executor is closed
        # (workers reaped) before the reading, so the reported peak covers
        # the whole process tree and never shrinks below the self peak.
        report = solve(
            "fractional_matching",
            gnp_random_graph(80, 0.1, seed=7),
            backend="mpc",
            seed=5,
            executor="parallel",
            workers=2,
        )
        from repro.api.facade import _peak_rss_bytes

        assert report.peak_rss_bytes > 4 * 2**20
        assert _peak_rss_bytes() >= report.peak_rss_bytes
