"""Unit tests for repro.stream: overlay, batches, maintainers, driver, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import gnm_random_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.properties import (
    is_matching,
    is_maximal_independent_set,
    is_maximal_matching,
    is_valid_fractional_matching,
    is_vertex_cover,
)
from repro.verify.checkers import fractional_columns
from repro.stream import (
    DynamicGraph,
    EdgeBatch,
    StreamReport,
    churn_batches,
    growth_batches,
    make_maintainer,
    make_scenario,
    read_batches_jsonl,
    replay_edge_list,
    sliding_window_batches,
    solve_stream,
    write_batches_jsonl,
)
from repro.stream.__main__ import main as stream_cli
from repro.stream.dynamic import decode_keys, encode_edges


class TestEdgeBatch:
    def test_make_canonicalizes_and_dedups(self):
        batch = EdgeBatch.make(insertions=[(3, 1), (1, 3), (0, 2)])
        assert batch.insertions.tolist() == [[0, 2], [1, 3]]
        assert batch.size == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeBatch.make(insertions=[(2, 2)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EdgeBatch.make(deletions=[(-1, 2)])

    def test_negative_growth_rejected(self):
        with pytest.raises(ValueError, match="new_vertices"):
            EdgeBatch.make(new_vertices=-1)

    def test_touched_vertices(self):
        batch = EdgeBatch.make(insertions=[(0, 5)], deletions=[(2, 5)])
        assert batch.touched_vertices().tolist() == [0, 2, 5]

    def test_dict_round_trip(self):
        batch = EdgeBatch.make(
            insertions=[(0, 1)], deletions=[(2, 3)], new_vertices=2, timestamp=7.0
        )
        clone = EdgeBatch.from_dict(batch.to_dict())
        assert clone.insertions.tolist() == batch.insertions.tolist()
        assert clone.deletions.tolist() == batch.deletions.tolist()
        assert clone.new_vertices == 2
        assert clone.timestamp == 7.0

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            EdgeBatch.from_dict({"schema": 99})


class TestEdgeKeys:
    def test_encode_decode_round_trip(self):
        edges = np.array([[0, 1], [5, 2], [100000, 99999]], dtype=np.int64)
        decoded = decode_keys(encode_edges(edges))
        assert decoded.tolist() == [[0, 1], [2, 5], [99999, 100000]]


class TestDynamicGraph:
    def test_starts_identical_to_base(self):
        base = gnm_random_graph(20, 40, seed=1)
        dyn = DynamicGraph(base)
        assert dyn.num_vertices == 20
        assert dyn.num_edges == 40
        assert dyn.pending_edits == 0
        assert dyn.to_graph() == base

    def test_add_and_remove_edge(self):
        dyn = DynamicGraph(Graph(4, [(0, 1)]))
        assert dyn.add_edge(1, 2)
        assert dyn.has_edge(1, 2) and dyn.has_edge(2, 1)
        assert dyn.num_edges == 2
        dyn.remove_edge(0, 1)
        assert not dyn.has_edge(0, 1)
        assert dyn.num_edges == 1

    def test_duplicate_insert_is_noop(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        assert not dyn.add_edge(0, 1)  # already in base
        dyn.add_edge(1, 2)
        assert not dyn.add_edge(2, 1)  # already in delta
        assert dyn.num_edges == 2

    def test_remove_missing_raises(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        with pytest.raises(KeyError):
            dyn.remove_edge(1, 2)
        assert not dyn.discard_edge(1, 2)

    def test_reinsert_after_remove(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        dyn.remove_edge(0, 1)
        assert dyn.add_edge(0, 1)
        assert dyn.has_edge(0, 1)
        assert dyn.num_edges == 1

    def test_self_loop_rejected(self):
        dyn = DynamicGraph(Graph(3))
        with pytest.raises(ValueError, match="self-loop"):
            dyn.add_edge(1, 1)

    def test_out_of_range_rejected(self):
        dyn = DynamicGraph(Graph(3))
        with pytest.raises(ValueError, match="out of range"):
            dyn.add_edge(0, 3)

    def test_degree_and_neighbors_merge_delta(self):
        dyn = DynamicGraph(Graph(5, [(0, 1), (0, 2)]))
        dyn.remove_edge(0, 1)
        dyn.add_edge(0, 4)
        assert dyn.degree(0) == 2
        assert dyn.neighbors(0).tolist() == [2, 4]
        assert dyn.neighbors(3).tolist() == []

    def test_add_vertices(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        first = dyn.add_vertices(2)
        assert first == 3
        assert dyn.num_vertices == 5
        dyn.add_edge(1, 4)
        assert dyn.degree(4) == 1
        assert dyn.neighbors(4).tolist() == [1]
        assert dyn.to_graph() == Graph(5, [(0, 1), (1, 4)])

    def test_compact_folds_delta_and_advances_epoch(self):
        base = gnm_random_graph(15, 30, seed=2)
        dyn = DynamicGraph(base)
        dyn.remove_edge(*next(iter(base.edges())))
        dyn.add_vertices(1)
        dyn.add_edge(0, 15)
        before = dyn.to_graph()
        csr = dyn.compact()
        assert dyn.epoch == 1
        assert dyn.pending_edits == 0
        assert csr.to_graph() == before
        assert dyn.base is csr

    def test_compact_without_pending_is_cheap_noop(self):
        dyn = DynamicGraph(Graph(4, [(0, 1)]))
        base = dyn.base
        assert dyn.compact() is base
        assert dyn.epoch == 1

    def test_snapshot_cached_until_mutation(self):
        dyn = DynamicGraph(Graph(4, [(0, 1)]))
        dyn.add_edge(1, 2)
        snap = dyn.snapshot()
        assert dyn.snapshot() is snap
        dyn.add_edge(2, 3)
        assert dyn.snapshot() is not snap

    def test_dirty_vertices_track_effective_edits(self):
        dyn = DynamicGraph(Graph(5, [(0, 1)]))
        dyn.add_edge(0, 1)  # no-op: not dirty
        dyn.add_edge(2, 3)
        dyn.remove_edge(0, 1)
        assert dyn.dirty_vertices().tolist() == [0, 1, 2, 3]
        dyn.compact()
        assert dyn.dirty_vertices().tolist() == []

    def test_apply_edges_reports_effective_changes_only(self):
        dyn = DynamicGraph(Graph(5, [(0, 1), (1, 2)]))
        inserted, deleted = dyn.apply_edges(
            insertions=np.array([[0, 1], [3, 4]]),  # (0,1) already present
            deletions=np.array([[1, 2], [2, 3]]),  # (2,3) absent
        )
        assert inserted.tolist() == [[3, 4]]
        assert deleted.tolist() == [[1, 2]]
        assert dyn.num_edges == 2

    def test_apply_edges_delete_then_insert_same_edge(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        inserted, deleted = dyn.apply_edges(
            insertions=np.array([[0, 1]]), deletions=np.array([[0, 1]])
        )
        assert deleted.tolist() == [[0, 1]]
        assert inserted.tolist() == [[0, 1]]
        assert dyn.has_edge(0, 1)

    def test_auto_compact_on_large_delta(self):
        dyn = DynamicGraph(Graph(10, [(0, 1)]), compact_fraction=0.5)
        dyn.apply_edges(
            insertions=np.array([[i, i + 1] for i in range(1, 9)]),
            deletions=np.empty((0, 2), dtype=np.int64),
        )
        assert dyn.epoch == 1
        assert dyn.pending_edits == 0

    def test_accepts_csr_base(self):
        base = CSRGraph.from_graph(gnm_random_graph(10, 20, seed=3))
        dyn = DynamicGraph(base)
        assert dyn.base is base

    def test_mirrors_reference_graph_under_random_edits(self):
        rng = np.random.default_rng(7)
        reference = gnm_random_graph(12, 20, seed=4)
        dyn = DynamicGraph(reference)
        mirror = reference.copy()
        for step in range(300):
            u, v = int(rng.integers(12)), int(rng.integers(12))
            if u == v:
                continue
            if mirror.has_edge(u, v):
                mirror.remove_edge(u, v)
                dyn.remove_edge(u, v)
            else:
                mirror.add_edge(u, v)
                dyn.add_edge(u, v)
            assert dyn.num_edges == mirror.num_edges
            if step % 60 == 0:
                dyn.compact()
        assert dyn.to_graph() == mirror


class TestStreamSources:
    def test_replay_edge_list_chunks(self, tmp_path):
        graph = gnm_random_graph(30, 60, seed=5)
        path = tmp_path / "g.txt"
        from repro.graph.io import write_edge_list

        write_edge_list(graph, path)
        batches = list(replay_edge_list(path, batch_edges=16))
        assert all(len(b.insertions) <= 16 for b in batches)
        assert sum(len(b.insertions) for b in batches) == 60
        assert sum(b.new_vertices for b in batches) == 30
        replayed = DynamicGraph(Graph(0))
        for batch in batches:
            replayed.add_vertices(batch.new_vertices)
            replayed.apply_edges(batch.insertions, batch.deletions)
        assert replayed.to_graph() == graph

    def test_jsonl_round_trip(self, tmp_path):
        batches = [
            EdgeBatch.make(insertions=[(0, 1)], timestamp=0.0),
            EdgeBatch.make(deletions=[(0, 1)], new_vertices=3, timestamp=1.0),
        ]
        path = tmp_path / "stream.jsonl"
        write_batches_jsonl(batches, path)
        loaded = list(read_batches_jsonl(path))
        assert len(loaded) == 2
        assert loaded[0].insertions.tolist() == [[0, 1]]
        assert loaded[1].deletions.tolist() == [[0, 1]]
        assert loaded[1].new_vertices == 3

    def test_sliding_window_keeps_window_edges(self):
        edges = [(i, i + 1) for i in range(40)]
        window, batches = sliding_window_batches(edges, window=10, batch_edges=5)
        assert len(window) == 10
        dyn = DynamicGraph(Graph(41, window))
        for batch in batches:
            dyn.apply_edges(batch.insertions, batch.deletions)
            assert dyn.num_edges == 10
        assert sorted(dyn.to_graph().edges()) == edges[-10:]

    def test_growth_batches_extend_preferentially(self):
        initial = gnm_random_graph(20, 40, seed=6)
        batches = list(
            growth_batches(
                initial, epochs=3, vertices_per_epoch=5, attachment=2, seed=1
            )
        )
        assert len(batches) == 3
        assert all(b.new_vertices == 5 for b in batches)
        assert all(len(b.insertions) == 10 for b in batches)
        dyn = DynamicGraph(initial)
        for batch in batches:
            dyn.add_vertices(batch.new_vertices)
            dyn.apply_edges(batch.insertions, batch.deletions)
        assert dyn.num_vertices == 35

    def test_churn_batches_preserve_edge_count(self):
        initial = gnm_random_graph(30, 90, seed=7)
        dyn = DynamicGraph(initial)
        for batch in churn_batches(initial, epochs=4, churn_fraction=0.1, seed=2):
            inserted, deleted = dyn.apply_edges(batch.insertions, batch.deletions)
            assert len(inserted) == len(deleted) > 0
        assert dyn.num_edges == 90

    def test_churn_validation(self):
        with pytest.raises(ValueError, match="churn_fraction"):
            list(churn_batches(Graph(5), epochs=1, churn_fraction=0.0))

    def test_make_scenario_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_scenario("nope", n=10, epochs=1)


def _run_maintainer(task, initial, batches, **kwargs):
    maintainer = make_maintainer(task, initial, **kwargs)
    maintainer.initialize()
    stats = [maintainer.step(batch) for batch in batches]
    return maintainer, stats


class TestMISMaintainer:
    def test_insert_conflict_evicts_one_endpoint(self):
        graph = path_graph(4)  # MIS of 0-1-2-3 under any solver
        maintainer = make_maintainer(
            "mis", graph, backend="greedy", seed=0, resolve_fraction=1.0
        )
        maintainer.initialize()
        chosen = set(maintainer.solution())
        pair = sorted(chosen)[:2]
        stats = maintainer.step(EdgeBatch.make(insertions=[tuple(pair)]))
        assert stats.action == "repair"
        current = maintainer.graph.to_graph()
        assert is_maximal_independent_set(current, set(maintainer.solution()))

    def test_delete_restores_maximality(self):
        graph = star_graph(5)  # center 0, leaves 1..5
        maintainer = make_maintainer("mis", graph, backend="greedy", seed=0)
        maintainer.initialize()
        # Deleting a center-leaf edge must free that leaf (or keep it
        # dominated) while staying maximal.
        maintainer.step(EdgeBatch.make(deletions=[(0, 1)]))
        current = maintainer.graph.to_graph()
        assert is_maximal_independent_set(current, set(maintainer.solution()))

    def test_growth_covers_new_vertices(self):
        graph = gnm_random_graph(20, 40, seed=8)
        maintainer, stats = _run_maintainer(
            "mis",
            graph,
            growth_batches(graph, epochs=2, vertices_per_epoch=4, seed=3),
            seed=0,
        )
        assert maintainer.graph.num_vertices == 28
        current = maintainer.graph.to_graph()
        assert is_maximal_independent_set(current, set(maintainer.solution()))

    def test_resolve_fraction_zero_always_resolves(self):
        graph = gnm_random_graph(20, 40, seed=9)
        maintainer, stats = _run_maintainer(
            "mis",
            graph,
            churn_batches(graph, epochs=2, churn_fraction=0.05, seed=4),
            resolve_fraction=0.0,
            seed=0,
        )
        assert all(s.action == "resolve" for s in stats)
        assert maintainer.epochs_resolved == 2

    def test_step_before_initialize_raises(self):
        maintainer = make_maintainer("mis", Graph(4))
        with pytest.raises(RuntimeError, match="initialize"):
            maintainer.step(EdgeBatch.make())


class TestMatchingMaintainer:
    def test_deleted_matched_edge_releases_and_rematches(self):
        graph = path_graph(6)
        maintainer = make_maintainer(
            "matching", graph, backend="greedy", seed=0, resolve_fraction=1.0
        )
        maintainer.initialize()
        matched = maintainer.matched_edges()
        stats = maintainer.step(EdgeBatch.make(deletions=[matched[0]]))
        assert stats.action == "repair"
        current = maintainer.graph.to_graph()
        assert is_maximal_matching(current, maintainer.matched_edges())

    def test_inserted_free_free_edge_gets_matched(self):
        # 0-1 matched, 2 and 3 isolated; inserting (2,3) must match it.
        graph = Graph(4, [(0, 1)])
        maintainer = make_maintainer("matching", graph, backend="greedy", seed=0)
        maintainer.initialize()
        maintainer.step(EdgeBatch.make(insertions=[(2, 3)]))
        assert (2, 3) in maintainer.matched_edges()

    def test_augmenting_path_recovers_size(self):
        # Path 0-1-2-3 with 1-2 matched; deleting nothing, inserting
        # nothing — instead craft: matching {1,2}; insert (0,1),(2,3)
        # makes {1,2} augmentable to {(0,1),(2,3)}.
        graph = Graph(4, [(1, 2)])
        maintainer = make_maintainer(
            "matching", graph, backend="greedy", seed=0, resolve_fraction=1.0
        )
        maintainer.initialize()
        assert maintainer.size() == 1
        stats = maintainer.step(EdgeBatch.make(insertions=[(0, 1), (2, 3)]))
        assert maintainer.size() == 2
        assert stats.extras["augmented"] >= 1
        current = maintainer.graph.to_graph()
        assert is_maximal_matching(current, maintainer.matched_edges())

    def test_churn_keeps_matching_maximal(self):
        graph = gnm_random_graph(40, 120, seed=10)
        maintainer, stats = _run_maintainer(
            "matching",
            graph,
            churn_batches(graph, epochs=5, churn_fraction=0.05, seed=5),
            seed=0,
        )
        current = maintainer.graph.to_graph()
        assert is_maximal_matching(current, maintainer.matched_edges())


class TestVertexCoverMaintainer:
    def test_cover_tracks_matching_endpoints(self):
        graph = gnm_random_graph(30, 80, seed=11)
        maintainer, _ = _run_maintainer(
            "vertex_cover",
            graph,
            churn_batches(graph, epochs=4, churn_fraction=0.05, seed=6),
            seed=0,
        )
        current = maintainer.graph.to_graph()
        cover = set(maintainer.solution())
        assert is_vertex_cover(current, cover)
        assert len(cover) == 2 * len(maintainer.matched_edges())


class TestFractionalMaintainer:
    def test_feasible_and_saturated_after_churn(self):
        graph = gnm_random_graph(30, 90, seed=12)
        maintainer, _ = _run_maintainer(
            "fractional_matching",
            graph,
            churn_batches(graph, epochs=5, churn_fraction=0.05, seed=7),
            seed=0,
        )
        current = maintainer.graph.to_graph()
        edges, x = fractional_columns(maintainer.solution())
        assert is_valid_fractional_matching(current, edges, x, tolerance=1e-6)
        # Every edge must see a saturated endpoint — the 2-approx invariant.
        loads = maintainer.loads
        for u, v in current.edges():
            assert max(loads[u], loads[v]) >= 1.0 - 1e-6

    def test_deletion_drops_weight_then_resaturates(self):
        graph = path_graph(3)  # edges (0,1),(1,2): loads cap at vertex 1
        maintainer = make_maintainer(
            "fractional_matching", graph, backend="central", seed=0
        )
        maintainer.initialize()
        before = maintainer.total_weight()
        maintainer.step(EdgeBatch.make(deletions=[(0, 1)]))
        current = maintainer.graph.to_graph()
        edges, x = fractional_columns(maintainer.solution())
        assert is_valid_fractional_matching(current, edges, x, tolerance=1e-6)
        assert maintainer.total_weight() == pytest.approx(1.0)
        assert before >= 1.0 - 1e-9

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="no maintainer"):
            make_maintainer("weighted_matching", Graph(4))


class TestSolveStream:
    def test_report_round_trip_and_schema(self):
        initial, batches = make_scenario("churn", n=40, epochs=3, seed=0)
        report = solve_stream("mis", initial, batches, seed=0, verify=True)
        clone = StreamReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert clone.ok and clone.size == report.size
        payload = report.to_dict()
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            StreamReport.from_dict(payload)

    def test_every_epoch_certified(self):
        initial, batches = make_scenario("churn", n=60, epochs=4, seed=1)
        report = solve_stream("matching", initial, batches, seed=1, verify=True)
        assert len(report.epochs) == 4
        assert all(r.verification.get("ok") for r in report.epochs)

    def test_differential_ratio_recorded(self):
        initial, batches = make_scenario("churn", n=60, epochs=3, seed=2)
        report = solve_stream(
            "matching", initial, batches, seed=2, differential_every=1
        )
        ratios = [r.differential_ratio for r in report.epochs]
        assert all(ratio is not None for ratio in ratios)
        assert report.ok

    def test_counts_and_config_recorded(self):
        initial, batches = make_scenario("growth", n=30, epochs=3, seed=3)
        report = solve_stream(
            "mis", initial, batches, seed=3, resolve_fraction=0.5
        )
        assert report.epochs_repaired + report.epochs_resolved == 3
        assert report.config["resolve_fraction"] == 0.5
        assert report.n_final > report.n_initial

    def test_solution_matches_final_graph(self):
        initial, batches = make_scenario("sliding_window", n=50, epochs=3, seed=4)
        report = solve_stream("mis", initial, batches, seed=4)
        # Rebuild the final graph independently and check the solution.
        dyn = DynamicGraph(initial)
        _, replay = make_scenario("sliding_window", n=50, epochs=3, seed=4)
        for batch in replay:
            dyn.add_vertices(batch.new_vertices)
            dyn.apply_edges(batch.insertions, batch.deletions)
        assert is_maximal_independent_set(
            dyn.to_graph(), set(report.solution)
        )

    def test_invalid_differential_every(self):
        with pytest.raises(ValueError, match="differential_every"):
            solve_stream("mis", Graph(4), [], differential_every=-1)

    def test_facade_reexports(self):
        from repro.api import solve_stream as api_solve_stream
        from repro import solve_stream as top_solve_stream

        assert api_solve_stream is solve_stream
        assert top_solve_stream is solve_stream


class TestStreamCLI:
    def test_single_run_exits_zero(self, capsys):
        status = stream_cli(
            [
                "--task",
                "mis",
                "--scenario",
                "churn",
                "--n",
                "60",
                "--epochs",
                "3",
                "--verify",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "stream: mis on churn" in out

    def test_jsonl_output(self, tmp_path, capsys):
        path = tmp_path / "report.jsonl"
        status = stream_cli(
            [
                "--task",
                "matching",
                "--n",
                "40",
                "--epochs",
                "2",
                "--jsonl",
                str(path),
            ]
        )
        assert status == 0
        report = StreamReport.from_json(path.read_text().strip())
        assert report.task == "matching"

    def test_replay_jsonl_stream(self, tmp_path, capsys):
        batches = [
            EdgeBatch.make(insertions=[(0, 1), (2, 3)]),
            EdgeBatch.make(deletions=[(0, 1)]),
        ]
        path = tmp_path / "updates.jsonl"
        write_batches_jsonl(batches, path)
        status = stream_cli(
            ["--task", "mis", "--replay", str(path), "--n", "4", "--verify"]
        )
        assert status == 0


class TestStreamReportIO:
    def test_read_stream_jsonl(self, tmp_path):
        initial, batches = make_scenario("churn", n=30, epochs=2, seed=5)
        report = solve_stream("mis", initial, batches, seed=5)
        path = tmp_path / "streams.jsonl"
        path.write_text(report.to_json() + "\n" + report.to_json() + "\n")
        from repro.stream import read_stream_jsonl

        loaded = read_stream_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0].to_json() == report.to_json()

    def test_differential_band_violation_fails_epoch(self, monkeypatch):
        # An impossible band (max <= 0.5 * min) marks every differential
        # epoch failed — exercising the failure recording path.
        import repro.verify

        monkeypatch.setattr(repro.verify, "agreement_band", lambda task: 0.5)
        initial, batches = make_scenario("churn", n=40, epochs=2, seed=6)
        report = solve_stream(
            "matching", initial, batches, seed=6, differential_every=1
        )
        assert not report.ok
        names = [
            check["name"]
            for record in report.epochs
            for check in record.verification.get("checks", [])
        ]
        assert "differential_band" in names


class TestDynamicGraphValidation:
    def test_compact_fraction_must_be_positive(self):
        with pytest.raises(ValueError, match="compact_fraction"):
            DynamicGraph(Graph(3), compact_fraction=0.0)

    def test_edges_iterates_current_graph(self):
        dyn = DynamicGraph(Graph(4, [(0, 1), (2, 3)]))
        dyn.remove_edge(2, 3)
        dyn.add_edge(1, 2)
        assert list(dyn.edges()) == [(0, 1), (1, 2)]

    def test_repr_mentions_pending(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        dyn.add_edge(1, 2)
        assert "pending=1" in repr(dyn)

    def test_add_vertices_negative_rejected(self):
        with pytest.raises(ValueError, match="count"):
            DynamicGraph(Graph(3)).add_vertices(-1)

    def test_apply_edges_rejects_bad_endpoints_on_clean_path(self):
        dyn = DynamicGraph(Graph(3, [(0, 1)]))
        with pytest.raises(ValueError, match="out of range"):
            dyn.apply_edges(np.array([[0, 7]]), np.empty((0, 2), np.int64))
        with pytest.raises(ValueError, match="self-loop"):
            dyn.apply_edges(np.empty((0, 2), np.int64), np.array([[1, 1]]))


class TestSourceValidation:
    def test_growth_requires_attachment_headroom(self):
        with pytest.raises(ValueError, match="initial graph"):
            list(growth_batches(Graph(2), epochs=1, vertices_per_epoch=1, attachment=3))
        with pytest.raises(ValueError, match="attachment"):
            list(
                growth_batches(
                    gnm_random_graph(10, 15, seed=1),
                    epochs=1,
                    vertices_per_epoch=1,
                    attachment=0,
                )
            )

    def test_sliding_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            sliding_window_batches([(0, 1)], window=0, batch_edges=1)

    def test_scenario_epochs_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            make_scenario("churn", n=10, epochs=0)


class TestCheckMatrix:
    def test_tiny_check_matrix_exits_zero(self, monkeypatch, capsys):
        import repro.stream.__main__ as cli

        monkeypatch.setattr(cli, "CHECK_TASKS", ("mis", "matching"))
        monkeypatch.setattr(cli, "CHECK_SIZES", (32,))
        monkeypatch.setattr(cli, "CHECK_SEEDS", (0,))
        monkeypatch.setattr(cli, "CHECK_EPOCHS", 2)
        assert cli.main(["--check"]) == 0
        assert "stream conformance" in capsys.readouterr().out

    def test_tiny_check_writes_jsonl(self, monkeypatch, tmp_path):
        import repro.stream.__main__ as cli

        monkeypatch.setattr(cli, "CHECK_TASKS", ("mis",))
        monkeypatch.setattr(cli, "CHECK_SIZES", (32,))
        monkeypatch.setattr(cli, "CHECK_SEEDS", (0,))
        monkeypatch.setattr(cli, "CHECK_EPOCHS", 2)
        monkeypatch.setattr(cli, "SCENARIOS", ("churn",))
        path = tmp_path / "check.jsonl"
        assert cli.main(["--check", "--jsonl", str(path)]) == 0
        from repro.stream import read_stream_jsonl

        loaded = read_stream_jsonl(path)
        assert len(loaded) == 1 and loaded[0].ok


class TestReviewRegressions:
    """Pins for bugs found in review: each was a live failure mode."""

    def test_growth_rejects_endpoint_poor_graph(self):
        # Only two distinct endpoints but attachment=3: must raise, not
        # spin forever in the distinct-target sampling loop.
        with pytest.raises(ValueError, match="distinct"):
            list(
                growth_batches(
                    Graph(10, [(0, 1)]),
                    epochs=1,
                    vertices_per_epoch=1,
                    attachment=3,
                )
            )

    def test_jsonl_batches_gzip_round_trip(self, tmp_path):
        batches = [EdgeBatch.make(insertions=[(0, 1)], new_vertices=2)]
        path = tmp_path / "stream.jsonl.gz"
        write_batches_jsonl(batches, path)
        loaded = list(read_batches_jsonl(path))
        assert loaded[0].insertions.tolist() == [[0, 1]]
        assert loaded[0].new_vertices == 2

    def test_cli_edge_list_replay_has_no_phantom_vertices(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        graph = gnm_random_graph(30, 60, seed=20)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        out = tmp_path / "report.jsonl"
        status = stream_cli(
            ["--task", "mis", "--replay", str(path), "--jsonl", str(out)]
        )
        assert status == 0
        report = StreamReport.from_json(out.read_text().strip())
        # Default --n is 1000; the file's universe (30) must win.
        assert report.n_final == 30

    def test_sliding_window_batch_larger_than_window_rejected(self):
        with pytest.raises(ValueError, match="must not exceed window"):
            sliding_window_batches([(0, 1)] * 30, window=10, batch_edges=20)

    def test_epoch_stats_count_batches_not_compactions(self):
        # A caller-supplied overlay with aggressive auto-compaction must
        # not skew the reported epoch numbers.
        dyn = DynamicGraph(gnm_random_graph(12, 6, seed=21), compact_fraction=0.01)
        maintainer = make_maintainer("mis", dyn, backend="greedy", seed=0)
        maintainer.initialize()
        epochs = [
            maintainer.step(EdgeBatch.make(insertions=[(0, i + 1)])).epoch
            for i in range(3)
        ]
        assert epochs == [1, 2, 3]


class TestSecondReviewRegressions:
    def test_edge_batch_rejects_oversized_vertex_ids(self):
        # (5, 2^32) would silently wrap into edge (5, 0) in key packing.
        with pytest.raises(ValueError, match="2\\^31"):
            EdgeBatch.make(insertions=[(5, 2**32)])

    def test_apply_edges_validates_on_dirty_overlay_too(self):
        dyn = DynamicGraph(Graph(10, [(0, 1)]))
        dyn.add_edge(1, 2)  # overlay now dirty: per-edge path
        with pytest.raises(ValueError, match="out of range"):
            dyn.apply_edges(np.empty((0, 2), np.int64), np.array([[0, 99]]))
        with pytest.raises(ValueError, match="self-loop"):
            dyn.apply_edges(np.array([[3, 3]]), np.empty((0, 2), np.int64))

    @pytest.mark.parametrize(
        "task", ["matching", "vertex_cover", "fractional_matching"]
    )
    def test_step_resolve_path_per_task(self, task):
        # resolve_fraction=0.0 forces the mid-stream fallback branch the
        # conformance matrix may not hit for every task.
        graph = gnm_random_graph(30, 90, seed=22)
        maintainer, stats = _run_maintainer(
            task,
            graph,
            churn_batches(graph, epochs=2, churn_fraction=0.05, seed=8),
            resolve_fraction=0.0,
            seed=0,
        )
        assert all(s.action == "resolve" for s in stats)
        current = maintainer.graph.to_graph()
        if task == "matching":
            assert is_maximal_matching(current, maintainer.matched_edges())
        elif task == "vertex_cover":
            assert is_vertex_cover(current, set(maintainer.solution()))
        else:
            edges, x = fractional_columns(maintainer.solution())
            assert is_valid_fractional_matching(current, edges, x, tolerance=1e-6)
