"""Unit tests for the CONGESTED-CLIQUE model, Lenzen routing, and CC MIS."""

import pytest

from repro.congested_clique.mis import congested_clique_mis
from repro.congested_clique.model import IDS_PER_MESSAGE, CongestedClique
from repro.congested_clique.routing import LENZEN_ROUND_COST, lenzen_route
from repro.core.config import MISConfig
from repro.graph.generators import complete_graph, gnp_random_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.properties import is_maximal_independent_set
from repro.mpc.errors import ProtocolError


class TestModel:
    def test_round_counting(self):
        clique = CongestedClique(5)
        clique.broadcast_round()
        clique.charge_rounds(3, "something")
        assert clique.rounds == 4

    def test_point_to_point_bandwidth(self):
        clique = CongestedClique(3)
        clique.round_of_messages([(0, 1, IDS_PER_MESSAGE)])
        assert clique.rounds == 1

    def test_bandwidth_violation_raises(self):
        clique = CongestedClique(3)
        with pytest.raises(ProtocolError):
            clique.round_of_messages([(0, 1, IDS_PER_MESSAGE + 1)])

    def test_pair_aggregation(self):
        clique = CongestedClique(3)
        with pytest.raises(ProtocolError):
            clique.round_of_messages([(0, 1, 2), (0, 1, 1)])

    def test_invalid_player(self):
        clique = CongestedClique(2)
        with pytest.raises(ProtocolError):
            clique.round_of_messages([(0, 5, 1)])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CongestedClique(0)


class TestLenzenRouting:
    def test_routes_and_charges_constant(self):
        clique = CongestedClique(4)
        inboxes = lenzen_route(
            clique, [(0, 1, "a"), (2, 1, "b"), (3, 0, "c")]
        )
        assert clique.rounds == LENZEN_ROUND_COST
        assert sorted(inboxes[1]) == ["a", "b"]
        assert inboxes[0] == ["c"]

    def test_volume_precondition_send(self):
        clique = CongestedClique(2)
        messages = [(0, 1, i) for i in range(3)]  # 3 > n = 2
        with pytest.raises(ProtocolError, match="sends"):
            lenzen_route(clique, messages)

    def test_volume_precondition_receive(self):
        clique = CongestedClique(3)
        messages = [(0, 2, 0), (0, 2, 1), (1, 2, 2), (1, 2, 3)]
        with pytest.raises(ProtocolError, match="receives"):
            lenzen_route(clique, messages)

    def test_endpoint_validation(self):
        clique = CongestedClique(2)
        with pytest.raises(ProtocolError):
            lenzen_route(clique, [(0, 9, "x")])


class TestCCMIS:
    def test_output_is_maximal_independent(self):
        graph = gnp_random_graph(150, 0.08, seed=3)
        result = congested_clique_mis(graph, seed=3)
        assert is_maximal_independent_set(graph, result.mis)

    def test_dense_graph_uses_prefix_phases(self):
        graph = gnp_random_graph(400, 0.5, seed=5)
        result = congested_clique_mis(graph, seed=5)
        assert result.prefix_phases >= 1
        assert is_maximal_independent_set(graph, result.mis)

    def test_routed_volume_is_linear_in_n(self):
        graph = gnp_random_graph(300, 0.3, seed=7)
        result = congested_clique_mis(graph, seed=7)
        # Lemma 3.1: the per-phase prefix subgraph has O(n) edges, i.e. a
        # constant number of volume-n Lenzen invocations.
        assert result.max_routed_messages <= 4 * graph.num_vertices

    def test_star(self):
        graph = star_graph(30)
        result = congested_clique_mis(graph, seed=1)
        assert is_maximal_independent_set(graph, result.mis)

    def test_complete_graph_single_vertex(self):
        graph = complete_graph(40)
        result = congested_clique_mis(graph, seed=2)
        assert len(result.mis) == 1

    def test_empty_graph(self):
        result = congested_clique_mis(Graph(0))
        assert result.mis.tolist() == []
        assert result.rounds == 0

    def test_edgeless_graph_takes_all(self):
        graph = Graph(9)
        result = congested_clique_mis(graph, seed=1)
        assert result.mis.tolist() == list(range(9))

    def test_determinism(self):
        graph = gnp_random_graph(100, 0.1, seed=11)
        a = congested_clique_mis(graph, seed=9)
        b = congested_clique_mis(graph, seed=9)
        assert a.mis.tolist() == b.mis.tolist()
        assert a.rounds == b.rounds
