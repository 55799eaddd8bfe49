"""Unit tests for ``repro.ooc``: on-disk format, external build, streaming
generators, the counter RNG, and the bounded-RSS solve wiring."""

import json
import os

import numpy as np
import pytest

from repro.api import solve
from repro.core.config import MISConfig, MatchingConfig
from repro.core.thresholds import ThresholdOracle
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.ooc import (
    MMapCSRGraph,
    OOC_SCHEMA_VERSION,
    build_mmap_csr,
    load_csr,
    read_header,
    save_csr,
    write_edge_list,
    write_gnp_edge_list,
    write_powerlaw_edge_list,
)
from repro.utils import counter_rng


def small_csr(n=60, seed=3, degree=6.0, path_dir=None):
    """A deterministic small CSRGraph via the streaming generator."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.txt")
        write_gnp_edge_list(path, n, degree, seed)
        edges = np.loadtxt(path, dtype=np.int64, skiprows=1).reshape(-1, 2)
    return CSRGraph.from_edge_array(n, edges)


class TestFormat:
    def test_save_load_round_trip(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        loaded = load_csr(tmp_path / "g")
        assert isinstance(loaded, MMapCSRGraph)
        assert loaded == graph
        assert load_csr(tmp_path / "g", materialize=True) == graph

    def test_header_is_the_commit_marker(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        os.unlink(tmp_path / "g" / "header.json")
        with pytest.raises(FileNotFoundError):
            load_csr(tmp_path / "g")

    def test_unsupported_schema_rejected(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        header = json.loads((tmp_path / "g" / "header.json").read_text())
        header["schema"] = OOC_SCHEMA_VERSION + 1
        (tmp_path / "g" / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="schema"):
            read_header(tmp_path / "g")

    def test_length_mismatch_rejected(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        header = json.loads((tmp_path / "g" / "header.json").read_text())
        header["num_edges"] += 1
        (tmp_path / "g" / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError):
            load_csr(tmp_path / "g")

    def test_indices_file_bytes(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        loaded = load_csr(tmp_path / "g")
        # npy header + 2m int64 slots
        assert loaded.indices_file_bytes >= 16 * graph.num_edges

    def test_release_is_safe_to_call(self, tmp_path):
        graph = small_csr()
        save_csr(graph, tmp_path / "g")
        loaded = load_csr(tmp_path / "g")
        loaded.release()
        assert loaded.degrees().sum() == 2 * graph.num_edges


class TestBuilder:
    def test_matches_in_memory_build(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_gnp_edge_list(path, 300, 8.0, 11)
        built = build_mmap_csr(path, tmp_path / "g", chunk_edges=97, bucket_rows=64)
        edges = np.loadtxt(path, dtype=np.int64, skiprows=1).reshape(-1, 2)
        assert built == CSRGraph.from_edge_array(300, edges)

    def test_deduplicates_and_handles_both_orders(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("n 5\n3 1\n1 3\n0 4\n4 0\n1 3\n")
        built = build_mmap_csr(path, tmp_path / "g")
        assert built == CSRGraph.from_edges(5, [(1, 3), (0, 4)])

    def test_rejects_self_loops(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(ValueError, match="self-loop"):
            build_mmap_csr(path, tmp_path / "g")

    def test_rejects_negative_endpoints(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n-2 3\n")
        with pytest.raises(ValueError):
            build_mmap_csr(path, tmp_path / "g")

    def test_interrupted_build_leaves_no_header(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 2\n")  # fails mid-build on the self-loop
        with pytest.raises(ValueError):
            build_mmap_csr(path, tmp_path / "g")
        with pytest.raises(FileNotFoundError):
            load_csr(tmp_path / "g")

    def test_gzip_input(self, tmp_path):
        path = tmp_path / "edges.txt.gz"
        write_gnp_edge_list(path, 120, 5.0, 2)
        built = build_mmap_csr(path, tmp_path / "g")
        assert built.num_vertices == 120


class TestGenerators:
    def test_deterministic(self, tmp_path):
        for family in ("random", "powerlaw"):
            a, b = tmp_path / "a.txt", tmp_path / "b.txt"
            write_edge_list(a, family, 200, 6.0, seed=5)
            write_edge_list(b, family, 200, 6.0, seed=5)
            assert a.read_text() == b.read_text()
            assert a.read_text() != ""

    def test_unknown_family(self, tmp_path):
        with pytest.raises(ValueError, match="family"):
            write_edge_list(tmp_path / "x.txt", "clique", 10, 2.0, seed=0)

    def test_gnp_edges_canonical_and_in_range(self, tmp_path):
        path = tmp_path / "g.txt"
        count = write_gnp_edge_list(path, 100, 8.0, 3)
        edges = np.loadtxt(path, dtype=np.int64, skiprows=1).reshape(-1, 2)
        assert len(edges) == count > 0
        assert (edges[:, 0] < edges[:, 1]).all()
        assert edges.min() >= 0 and edges.max() < 100
        keys = edges[:, 0] * 100 + edges[:, 1]
        assert (np.diff(keys) > 0).all()  # strictly increasing: no dups

    def test_gnp_density_near_target(self, tmp_path):
        path = tmp_path / "g.txt"
        count = write_gnp_edge_list(path, 2000, 10.0, 1)
        assert 0.8 * 10_000 < count < 1.2 * 10_000

    def test_powerlaw_no_self_loops(self, tmp_path):
        path = tmp_path / "g.txt"
        write_powerlaw_edge_list(path, 150, 6.0, 9)
        edges = np.loadtxt(path, dtype=np.int64, skiprows=1).reshape(-1, 2)
        assert (edges[:, 0] < edges[:, 1]).all()
        assert edges.max() < 150


class TestCounterRng:
    def test_deterministic_and_keyed(self):
        ents = np.arange(50, dtype=np.int64)
        a = counter_rng.uniform01(123, ents, 7)
        assert np.array_equal(a, counter_rng.uniform01(123, ents, 7))
        assert not np.array_equal(a, counter_rng.uniform01(124, ents, 7))
        assert not np.array_equal(a, counter_rng.uniform01(123, ents, 8))

    def test_order_free(self):
        """Chunked / shuffled evaluation gives identical per-entity draws."""
        ents = np.arange(1000, dtype=np.int64)
        full = counter_rng.uniform01(9, ents, 0)
        chunked = np.concatenate(
            [counter_rng.uniform01(9, ents[i : i + 37], 0) for i in range(0, 1000, 37)]
        )
        assert np.array_equal(full, chunked)
        perm = np.random.default_rng(0).permutation(1000)
        assert np.array_equal(full[perm], counter_rng.uniform01(9, ents[perm], 0))

    def test_uniform01_range_and_spread(self):
        draws = counter_rng.uniform01(42, np.arange(20_000), 1)
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.02
        assert len(np.unique(draws)) == len(draws)

    def test_integers(self):
        draws = counter_rng.integers(7, np.arange(10_000), 3, high=13)
        assert draws.dtype == np.int64
        assert draws.min() >= 0 and draws.max() <= 12
        assert len(np.unique(draws)) == 13
        with pytest.raises(ValueError):
            counter_rng.integers(7, np.arange(4), 0, high=0)

    def test_permutation(self):
        perm = counter_rng.permutation(5, 1000)
        assert np.array_equal(np.sort(perm), np.arange(1000))
        assert np.array_equal(perm, counter_rng.permutation(5, 1000))
        assert not np.array_equal(perm, counter_rng.permutation(6, 1000))

    def test_derive_key_namespaced(self):
        assert counter_rng.derive_key(1, "a") != counter_rng.derive_key(1, "b")
        assert counter_rng.derive_key(1, "a") != counter_rng.derive_key(2, "a")
        assert 0 <= counter_rng.derive_key(1, "a") < 2**64


class TestThresholdOracleCounter:
    def test_values_in_band_and_deterministic(self):
        oracle = ThresholdOracle(0.2, 0.4, seed=5)
        vs = np.arange(500)
        draws = oracle.thresholds_batch(vs, 3)
        assert (draws >= 0.2).all() and (draws <= 0.4).all()
        again = ThresholdOracle(0.2, 0.4, seed=5)
        assert np.array_equal(draws, again.thresholds_batch(vs, 3))

    def test_scalar_batch_parity_and_crosses(self):
        oracle = ThresholdOracle(0.2, 0.4, seed=5)
        vs = np.arange(40)
        batch = oracle.thresholds_batch(vs, 2)
        for v in range(40):
            assert oracle.threshold(v, 2) == batch[v]
        estimates = np.linspace(0.0, 0.6, 40)
        decisions = oracle.crosses_batch(vs, 2, estimates)
        for v in range(40):
            assert oracle.crosses(v, 2, estimates[v]) == decisions[v]



class TestConfigRng:
    def test_no_rng_field(self):
        # Every solver draws from the counter generator: no mode to choose.
        with pytest.raises(TypeError):
            MISConfig(rng="counter")
        with pytest.raises(TypeError):
            MatchingConfig(rng="counter")
        assert MISConfig(sparse_strategy="ghaffari").sparse_strategy == "ghaffari"


@pytest.fixture(scope="module")
def trio(tmp_path_factory):
    """(Graph, CSRGraph, MMapCSRGraph) of one 250-vertex instance."""
    tmp = tmp_path_factory.mktemp("trio")
    path = tmp / "edges.txt"
    write_gnp_edge_list(path, 250, 8.0, 17)
    mapped = build_mmap_csr(path, tmp / "g")
    csr = CSRGraph(np.array(mapped.indptr), np.array(mapped.indices))
    plain = Graph(250)
    for u, v in csr.edges():
        plain.add_edge(u, v)
    return plain, csr, mapped


class TestSolveParity:
    @pytest.mark.parametrize("backend", ["mpc", "congested_clique"])
    @pytest.mark.parametrize("strategy", ["luby", "ghaffari"])
    def test_mis_byte_parity_across_representations(self, trio, backend, strategy):
        config = {"sparse_strategy": strategy}
        reports = [
            solve("mis", g, backend=backend, seed=23, config=config, verify=True)
            for g in trio
        ]
        assert reports[0].solution == reports[1].solution == reports[2].solution
        assert reports[0].rounds == reports[1].rounds == reports[2].rounds
        assert reports[0].extras == reports[1].extras == reports[2].extras
        assert all(r.valid and r.verified for r in reports)

    @pytest.mark.parametrize(
        "task",
        ["fractional_matching", "vertex_cover", "matching", "one_plus_eps_matching"],
    )
    def test_byte_parity_across_representations(self, trio, task):
        plain, csr, mapped = trio
        reports = [
            solve(task, g, backend="mpc", seed=23) for g in (plain, csr, mapped)
        ]
        assert reports[0].solution == reports[1].solution == reports[2].solution
        assert reports[0].rounds == reports[1].rounds == reports[2].rounds
        assert reports[0].extras == reports[1].extras == reports[2].extras
        assert all(r.valid for r in reports)

    def test_mis_solution_is_canonical_list(self, trio):
        _, _, mapped = trio
        report = solve("mis", mapped, backend="mpc", seed=1)
        assert report.solution == sorted(report.solution)
        assert all(isinstance(v, int) for v in report.solution[:5])

    @pytest.mark.parametrize("strategy", ["luby", "ghaffari"])
    def test_compaction_budget_does_not_change_output(
        self, trio, monkeypatch, strategy
    ):
        """Compacting earlier (tiny budget) must not change a single
        chosen vertex: the slots keep their order either way."""
        import importlib

        sp = importlib.import_module("repro.core.sparsified_mis")

        _, csr, _ = trio
        config = {"sparse_strategy": strategy}
        base = solve("mis", csr, backend="mpc", seed=4, config=config)
        monkeypatch.setattr(sp, "_COMPACT_SLOT_BUDGET", 8)
        tiny = solve("mis", csr, backend="mpc", seed=4, config=config)
        assert base.solution == tiny.solution

    @pytest.mark.parametrize(
        "task", ["matching", "fractional_matching", "one_plus_eps_matching"]
    )
    @pytest.mark.parametrize("kind", ["csr", "mmap"])
    def test_verify_ratio_oracles_on_csr_inputs(self, trio, task, kind):
        """Under the oracle cap the exact ratio checks run on CSR inputs too."""
        plain, csr, mapped = trio
        graph = csr if kind == "csr" else mapped
        report = solve(task, graph, backend="mpc", seed=5, verify=True)
        assert report.verified
        reference = solve(task, plain, backend="mpc", seed=5, verify=True)
        assert report.verification == reference.verification

    @pytest.mark.parametrize("kind", ["csr", "mmap"])
    def test_verify_cover_oracle_on_small_csr_inputs(self, tmp_path, kind):
        """The brute-force cover oracle (n <= 12) also takes CSR inputs."""
        csr = small_csr(n=10, degree=3.0)
        graph = csr if kind == "csr" else load_csr(save_csr(csr, tmp_path / "g"))
        report = solve("vertex_cover", graph, backend="mpc", seed=5, verify=True)
        checks = {c["name"]: c for c in report.verification["checks"]}
        assert report.verified
        assert "OPT=" in checks["cover_ratio"]["detail"]


class TestBenchDiffOoc:
    def _payload(self, rss):
        return {
            "suite": "ooc",
            "environment": {"cpu_count": 1},
            "results": [
                {
                    "task": "mis",
                    "family": "random",
                    "n": 1000,
                    "seconds": 1.0,
                    "peak_rss_bytes": rss,
                }
            ],
        }

    def test_layout_and_cells(self):
        from tools.bench_diff import cells

        assert cells(self._payload(10)) == {"mis/random/1000": 1.0}

    def test_rss_gate(self, capsys):
        from tools.bench_diff import rss_gate

        assert rss_gate(self._payload(100), fail_rss_over=200) == 0
        assert rss_gate(self._payload(300), fail_rss_over=200) == 1
        empty = {"suite": "ooc", "results": [{"task": "t", "family": "f", "n": 1, "seconds": 0.1}]}
        assert rss_gate(empty, fail_rss_over=200) == 1  # vacuous pass refused
        capsys.readouterr()

    def test_main_fail_rss_over(self, tmp_path, capsys):
        from tools.bench_diff import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(self._payload(100)))
        new.write_text(json.dumps(self._payload(100)))
        assert main([str(old), str(new), "--fail-rss-over", "200"]) == 0
        new.write_text(json.dumps(self._payload(300)))
        assert main([str(old), str(new), "--fail-rss-over", "200"]) == 1
        capsys.readouterr()

    def test_require_cell_still_works_for_ooc(self, tmp_path, capsys):
        from tools.bench_diff import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(self._payload(100)))
        new.write_text(json.dumps(self._payload(100)))
        assert main([str(old), str(new), "--require-cell", "mis/random/1000"]) == 0
        assert main([str(old), str(new), "--require-cell", "mis/random/9"]) == 1
        capsys.readouterr()
