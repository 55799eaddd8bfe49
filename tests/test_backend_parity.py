"""Seeded parity pins: the non-MPC backend vectorization is output-preserving.

The fingerprints below were captured from the *pre-vectorization*
implementations (PR 5's starting point: pure-Python CONGESTED-CLIQUE
routing, per-vertex Pregel supersteps, set-based baselines).  The CSR
rewrite must reproduce every one of them byte-for-byte — solutions, round
counts, and communication accounting alike.  Regenerate deliberately with

    PYTHONPATH=src python tests/test_backend_parity.py

only when an *intentional* behavior change lands (and say so in the PR).
The matching-family pins (``fractional/*``, ``matching/mpc`` and the
n=2000 MPC cells) were re-captured on ``executor=None`` when the
Central-Rand thresholds and the Line (d) owner draws moved onto the
counter generator; they hold for both executors.  The
``mis/congested_clique/*`` pins were re-captured when MIS's rank
permutation and sparsified finish moved onto the counter generator.
The 18 mpc pins (``fractional/mpc``, ``matching/mpc``, the n=2000 MPC
cells and the mpc ``report/*`` cells) were re-captured once, for the
accounting fields only, when every MPC solve began reporting the words
its cluster metered, governed or not; their solutions and rounds did not
move.  The 7 integral-matching mpc pins (``matching/mpc``, the n=2000
``matching`` and ``one_plus_eps_matching`` cells and the two
``report/matching`` cells) were re-captured once more, again for the
accounting only, when a direct Central-Rand tail that fits one machine
began finishing there: rounds, words, and the report cells' rounds
budget (the matching ``rounds_constant`` went from 64 to 40).  Their
solutions did not move.  The
``mis/pregel`` and ``matching/pregel`` pins were re-captured
when the Pregel engine's draws and vertex placement moved onto the
counter generator and the matching proposal target became a uniform
live neighbor.  The 17 matching-family pins (``fractional/*``,
``matching/mpc``, the n=2000 ``fractional_matching``, ``vertex_cover``,
``matching`` and ``one_plus_eps_matching`` cells and their ``report/*``
cells) were re-captured when MPC-Simulation began its schedule at the
measured maximum degree ``Δ`` (``d = Δ``, ``w0 = (1-4ε)(1-ε)^2/Δ``,
two growth steps below the threshold band) instead of at ``n``:
solutions, rounds and words all moved, and the two ``report/matching``
cells' rounds budget with them (the matching ``rounds_constant`` went
from 40 to 28).  The MIS, baseline and Pregel pins did not.

The module also property-tests the array-based substrate validation
(Lenzen routing loads, clique bandwidth), the batched SHA stream and the
threshold oracle against their scalar/dict-based references, and checks
the batched Pregel kernels against per-vertex references.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import solve
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import luby_mis
from repro.graph.generators import gnp_random_graph
from tests.reference.parallel_greedy import parallel_greedy_mis


def _fingerprint(payload) -> str:
    """Stable hash of a JSON-shaped payload (float repr is exact)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _solve_fingerprint(
    task, backend, n, p, graph_seed, solve_seed, executor=None
) -> str:
    graph = gnp_random_graph(n, p, seed=graph_seed)
    report = solve(task, graph, backend=backend, seed=solve_seed, executor=executor)
    # Executor metadata (worker count, phase walls) describes the run, not
    # its output; every executor must reproduce the same fingerprint.
    extras = {k: v for k, v in report.extras.items() if k != "executor"}
    return _fingerprint(
        {
            "task": report.task,
            "backend": report.backend,
            "solution": report.solution,
            "rounds": report.rounds,
            "max_machine_words": report.max_machine_words,
            "total_comm_words": report.total_comm_words,
            "extras": extras,
        }
    )


def _report_fingerprint(task, backend, n, p, graph_seed, solve_seed) -> str:
    """The whole verified report — metrics and certificate included —
    minus the host-dependent wall time and RSS."""
    graph = gnp_random_graph(n, p, seed=graph_seed)
    report = solve(task, graph, backend=backend, seed=solve_seed, verify=True)
    payload = report.to_dict()
    del payload["wall_time_s"], payload["peak_rss_bytes"]
    return _fingerprint(payload)


def _luby_fingerprint(n, p, graph_seed, seed) -> str:
    result = luby_mis(gnp_random_graph(n, p, seed=graph_seed), seed=seed)
    return _fingerprint({"mis": sorted(result.mis), "rounds": result.rounds})


def _israeli_itai_fingerprint(n, p, graph_seed, seed) -> str:
    result = israeli_itai_matching(
        gnp_random_graph(n, p, seed=graph_seed), seed=seed
    )
    return _fingerprint(
        {
            "matching": sorted([int(u), int(v)] for u, v in result.matching),
            "rounds": result.rounds,
        }
    )


def _parallel_greedy_fingerprint(n, p, graph_seed, seed) -> str:
    result = parallel_greedy_mis(gnp_random_graph(n, p, seed=graph_seed), seed=seed)
    return _fingerprint(
        {
            "mis": sorted(result.mis),
            "rounds": result.rounds,
            "decided_per_round": list(result.decided_per_round),
        }
    )


# (case name) -> (thunk args, pinned sha256).  REGENERATE-MARKER
SOLVE_CASES = {
    "mis/congested_clique/sparse": ("mis", "congested_clique", 300, 0.05, 11, 5),
    "mis/congested_clique/dense": ("mis", "congested_clique", 250, 0.3, 12, 6),
    "fractional/congested_clique": (
        "fractional_matching",
        "congested_clique",
        200,
        0.1,
        13,
        7,
    ),
    "mis/pregel": ("mis", "pregel", 300, 0.05, 14, 8),
    "matching/pregel": ("matching", "pregel", 300, 0.05, 15, 9),
    "fractional/mpc": ("fractional_matching", "mpc", 300, 0.1, 19, 13),
    "matching/mpc": ("matching", "mpc", 200, 0.1, 20, 14),
}

# The integral matching's multi-pass residual loop and its long direct
# Central-Rand phase only get exercised at a few thousand vertices, so the
# MPC tasks are also pinned on G(n=2000, average degree 20) — once per
# executor, against one shared pin: the in-process run and the 2-worker
# process pool must produce the same bytes.
LARGE_MPC_TASKS = (
    "matching",
    "fractional_matching",
    "vertex_cover",
    "one_plus_eps_matching",
)
LARGE_MPC_CASES = {
    f"{task}/mpc/n2000/seed{seed}": (task, "mpc", 2000, 20 / 1999, 21, seed)
    for task in LARGE_MPC_TASKS
    for seed in (1, 2)
}

# Whole-report pins: the four perfbench tasks with ``verify=True``, so the
# quality metrics and the serialized certificate are pinned too.
REPORT_CASES = {
    f"report/{task}/mpc/n2000/seed{seed}": (task, "mpc", 2000, 20 / 1999, 21, seed)
    for task in ("mis", "fractional_matching", "vertex_cover", "matching")
    for seed in (1, 2)
}

BASELINE_CASES = {
    "luby": (_luby_fingerprint, (250, 0.08, 16, 10)),
    "israeli_itai": (_israeli_itai_fingerprint, (250, 0.08, 17, 11)),
    "parallel_greedy": (_parallel_greedy_fingerprint, (250, 0.08, 18, 12)),
}

PINS = {
    "fractional/congested_clique": "14eb82c797fa8b5a939a9e9c0248e448a426b34f921615ab8759cbd23af6e77e",
    "fractional/mpc": "673e725f288b3691fc073442ff4eaab8e7fcca7dafcb441bff342470a8b9daf0",
    "fractional_matching/mpc/n2000/seed1": "5c756fce997a067e9b08d445057011d153c1908799297b0b3d9499d80cf0bb54",
    "fractional_matching/mpc/n2000/seed2": "d26366c1747c6bbd40cc6317cc5d4c4de471c3e69fa45ef14660d80fd8957b7d",
    "israeli_itai": "47eed39d4c0274eab55fd49bc7baa038b5f9bf392daff924d51e9025e5ce019c",
    "luby": "f77e102d6259b7e96d985e94f818c0e25b6a9ab7b1558000d56a391d3e5b927c",
    "matching/mpc": "b970780ab91399e6117b624118dbd2891bc2eb9958a8b7e1f7c3bcca23a09cb8",
    "matching/mpc/n2000/seed1": "dd98d84af80d95c95a1588b2b0fe066954b4aba33363a49076a1ce512c27d9d7",
    "matching/mpc/n2000/seed2": "328cb4e6093764a5784c651a0713092d4554f07457f0b1c3b0f0528c9ebb3156",
    "matching/pregel": "c3acf958e8d1e5172c70a12a60a9cd016aff2446763b9ebec02db9ca8296f185",
    "mis/congested_clique/dense": "93186594464b1d58171e110a8d093ef4695cfd733ecf4256709d3d9e21d1cdaa",
    "mis/congested_clique/sparse": "c597f125f0408c12fbe20548c9781a9450f51dc147988201cd57c7aa4422995f",
    "mis/pregel": "0faefe166cbd0c51e281517f4583354f6bfc912cbbf8ebfd5313815762deaeec",
    "one_plus_eps_matching/mpc/n2000/seed1": "14ceecb65470197effabd90ef000b958725506971e3bf5a5ad88df1dc7d51ba1",
    "one_plus_eps_matching/mpc/n2000/seed2": "48e36fee94cfa5b249dd1325d1cd046044f6bda812ce30da9b75c4ba8acc24a7",
    "parallel_greedy": "42bce1427a0a72eb377430b9c258e4606edbfeffe4487b0b15813871d92595c8",
    "report/fractional_matching/mpc/n2000/seed1": "2b1fd9c94c1bf6f898391bae85e3d2af71f5922f3f02e20008a51f89285bc630",
    "report/fractional_matching/mpc/n2000/seed2": "64b0878ce6ead8e4198533146421a843ec47c3b502bbc6d82f8de4dd7c6a6510",
    "report/matching/mpc/n2000/seed1": "c01dbbd93b62f6be0891fbaf18559246092e62324349361445caad00ea07bd07",
    "report/matching/mpc/n2000/seed2": "5ece582d4228e16831b6f8287a2cc1673548857d35fc07eb17b5d9ec264eae0d",
    "report/mis/mpc/n2000/seed1": "eafcaf666c4cdf0e4f7e0179427545567b90b4e12f6ca6c62ba42226aa77a8a7",
    "report/mis/mpc/n2000/seed2": "9a987249c2e78a153c63c74048f22047d9349770a57f2cde5c45806ed61d0314",
    "report/vertex_cover/mpc/n2000/seed1": "76e80c91c01cf9733310ae35d04bacbea9cded129f128fb3d13a3b08660c348c",
    "report/vertex_cover/mpc/n2000/seed2": "74b5f639107943bec3d423b24759e790c1d16c84b89c4d91ff2b295058c4d99c",
    "vertex_cover/mpc/n2000/seed1": "1e4fe4d227476936b11a59e25e9a8f7322619ba4670615881a38f1d4c7275bbf",
    "vertex_cover/mpc/n2000/seed2": "f0e2b67b0a16ec989ca328c7a39b0c9d2d7d5e36795865aa483c68def49914cb",
}


def _all_fingerprints():
    out = {}
    for name, args in {**SOLVE_CASES, **LARGE_MPC_CASES}.items():
        out[name] = _solve_fingerprint(*args)
    for name, args in REPORT_CASES.items():
        out[name] = _report_fingerprint(*args)
    for name, (fn, args) in BASELINE_CASES.items():
        out[name] = fn(*args)
    return out


@pytest.mark.parametrize("name", sorted(SOLVE_CASES) + sorted(BASELINE_CASES))
def test_pinned_output(name):
    if name in SOLVE_CASES:
        got = _solve_fingerprint(*SOLVE_CASES[name])
    else:
        fn, args = BASELINE_CASES[name]
        got = fn(*args)
    assert got == PINS[name], (
        f"{name}: output fingerprint changed — the vectorized backend no "
        "longer reproduces the pre-rewrite seeded output"
    )


@pytest.mark.parametrize("executor", [None, "parallel"])
@pytest.mark.parametrize("name", sorted(LARGE_MPC_CASES))
def test_pinned_large_mpc_output(name, executor):
    got = _solve_fingerprint(*LARGE_MPC_CASES[name], executor=executor)
    assert got == PINS[name], (
        f"{name} (executor={executor}): output fingerprint changed"
    )


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_pinned_whole_report(name):
    got = _report_fingerprint(*REPORT_CASES[name])
    assert got == PINS[name], f"{name}: report fingerprint changed"


# ---------------------------------------------------------------------------
# Array-based substrate validation vs the scalar/dict-based references
# ---------------------------------------------------------------------------

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congested_clique.model import CongestedClique
from repro.congested_clique.routing import lenzen_route, lenzen_route_arrays
from repro.core.thresholds import ThresholdOracle, fixed_oracle
from repro.mpc.errors import ProtocolError
from repro.utils.rng import RngStream

message_batches = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=4 * n,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(message_batches)
def test_lenzen_array_load_validation_matches_dict_reference(batch):
    """The bincount-validated array router accepts/rejects exactly the
    message multisets the dict-based reference does, and charges the same
    rounds when it accepts."""
    n, messages = batch
    reference = CongestedClique(n)
    vectorized = CongestedClique(n)
    senders = np.array([s for s, _ in messages], dtype=np.int64)
    receivers = np.array([r for _, r in messages], dtype=np.int64)
    try:
        lenzen_route(reference, [(s, r, None) for s, r in messages])
        ref_outcome = None
    except ProtocolError as error:
        ref_outcome = "sends" if "sends" in str(error) else "receives"
    try:
        lenzen_route_arrays(vectorized, senders, receivers)
        vec_outcome = None
    except ProtocolError as error:
        vec_outcome = "sends" if "sends" in str(error) else "receives"
    assert vec_outcome == ref_outcome
    if ref_outcome is None:
        assert vectorized.rounds == reference.rounds


@settings(max_examples=100, deadline=None)
@given(message_batches)
def test_clique_round_array_validation_matches_dict_reference(batch):
    n, messages = batch
    reference = CongestedClique(n)
    vectorized = CongestedClique(n)
    senders = np.array([s for s, _ in messages], dtype=np.int64)
    receivers = np.array([r for _, r in messages], dtype=np.int64)
    try:
        reference.round_of_messages([(s, r, 1) for s, r in messages])
        ref_ok = True
    except ProtocolError:
        ref_ok = False
    try:
        vectorized.round_of_messages_array(senders, receivers)
        vec_ok = True
    except ProtocolError:
        vec_ok = False
    assert vec_ok == ref_ok
    if ref_ok:
        assert vectorized.rounds == reference.rounds == 1


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    vertices=st.lists(
        st.integers(min_value=0, max_value=10**7), min_size=1, max_size=40
    ),
    iteration=st.integers(min_value=0, max_value=500),
)
def test_rng_batch_matches_scalar_draws(seed, vertices, iteration):
    """random_batch is bit-for-bit the scalar method."""
    stream = RngStream(seed, namespace="parity")
    scalar = [stream.random(v, iteration) for v in vertices]
    assert stream.random_batch(vertices, iteration).tolist() == scalar


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    iteration=st.integers(min_value=0, max_value=200),
    estimates=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
)
def test_oracle_crosses_batch_matches_scalar(seed, iteration, estimates):
    oracle = ThresholdOracle(0.6, 0.9, seed=seed)
    vertices = list(range(len(estimates)))
    scalar = [
        oracle.crosses(v, iteration, estimate)
        for v, estimate in zip(vertices, estimates)
    ]
    batch = oracle.crosses_batch(vertices, iteration, estimates)
    assert batch.tolist() == scalar
    thresholds = oracle.thresholds_batch(vertices, iteration)
    assert thresholds.tolist() == [oracle.threshold(v, iteration) for v in vertices]


def test_fixed_oracle_crosses_batch():
    oracle = fixed_oracle(0.5)
    batch = oracle.crosses_batch([1, 2, 3], 0, [0.4, 0.5, 0.6])
    assert batch.tolist() == [False, True, True]
    assert oracle.thresholds_batch([7, 8], 3).tolist() == [0.5, 0.5]


# ---------------------------------------------------------------------------
# Batched Pregel kernels vs per-vertex references
# ---------------------------------------------------------------------------
#
# The two closures below are the protocols of ``repro.mpc.programs``
# written one vertex at a time against ``PregelEngine.run``.  They are the
# reference the batched kernels are checked against: same solution, same
# supersteps, same rounds and the same word accounting.

from repro.graph.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph.graph import Graph, canonical_edge
from repro.mpc.engine import PregelEngine
from repro.mpc.errors import MemoryExceededError
from repro.mpc.programs import luby_vertex_program, matching_vertex_program

_LIVE, _IN_SET, _DEAD = "live", "in_set", "dead"


def _luby_reference(graph, seed):
    """Luby's MIS: propose a draw to every neighbor, join when beaten by none."""

    def compute(ctx, messages):
        state = ctx.state
        if state["status"] == _DEAD:
            ctx.vote_to_halt()
            return
        if ctx.superstep % 2 == 0:  # propose
            if state["status"] == _IN_SET:
                ctx.vote_to_halt()
                return
            if any(kind == "joined" for kind, _ in messages):
                state["status"] = _DEAD
                ctx.vote_to_halt()
                return
            value = (ctx.random(), ctx.vertex)
            state["draw"] = value
            ctx.send_to_neighbors(("draw", value))
        else:  # resolve
            if state["status"] != _LIVE:
                ctx.vote_to_halt()
                return
            draws = [payload for kind, payload in messages if kind == "draw"]
            if all(state["draw"] < other for other in draws):
                state["status"] = _IN_SET
                ctx.send_to_neighbors(("joined", ctx.vertex))
                ctx.vote_to_halt()

    outcome = PregelEngine(graph, seed=seed).run(
        compute, initial_state=lambda v: {"status": _LIVE}
    )
    mis = {
        v
        for v, state in outcome.states.items()
        if state["status"] == _IN_SET or graph.degree(v) == 0
    }
    return mis, outcome


def _matching_reference(graph, seed):
    """The propose/accept handshake: proposers pick a uniform live neighbor,
    acceptors take the smallest proposer, matched vertices announce."""

    def compute(ctx, messages):
        state = ctx.state
        if state["live_neighbors"] is None:
            state["live_neighbors"] = set(ctx.neighbors)
        if state["status"] == _DEAD:
            ctx.vote_to_halt()
            return
        phase = ctx.superstep % 3
        if phase == 0:  # propose
            for kind, payload in messages:
                if kind == "dead":
                    state["live_neighbors"].discard(payload)
            if state["mate"] is not None or not state["live_neighbors"]:
                state["status"] = _DEAD
                ctx.vote_to_halt()
                return
            r = ctx.random()
            state["role"] = "proposer" if r < 0.5 else "acceptor"
            if r < 0.5:
                live = sorted(state["live_neighbors"])
                target = live[min(int(2.0 * r * len(live)), len(live) - 1)]
                ctx.send_to(target, ("propose", ctx.vertex))
        elif phase == 1:  # accept
            if state["role"] == "acceptor":
                proposers = sorted(
                    payload
                    for kind, payload in messages
                    if kind == "propose" and payload in state["live_neighbors"]
                )
                if proposers:
                    state["mate"] = proposers[0]
                    ctx.send_to(proposers[0], ("accept", ctx.vertex))
        else:  # finalize
            if state["role"] == "proposer":
                accepts = [p for kind, p in messages if kind == "accept"]
                if accepts:
                    state["mate"] = accepts[0]
            if state["mate"] is not None:
                state["status"] = _DEAD
                for u in state["live_neighbors"]:
                    if u != state["mate"]:
                        ctx.send_to(u, ("dead", ctx.vertex))
                ctx.vote_to_halt()

    outcome = PregelEngine(graph, seed=seed).run(
        compute,
        initial_state=lambda v: {"status": _LIVE, "mate": None, "live_neighbors": None},
    )
    matching = {
        canonical_edge(v, state["mate"])
        for v, state in outcome.states.items()
        if state["mate"] is not None
        and outcome.states[state["mate"]]["mate"] == v
    }
    return matching, outcome


ENGINE_PARITY_GRAPHS = [
    gnp_random_graph(80, 0.1, seed=0),
    gnp_random_graph(150, 0.05, seed=3),
    gnp_random_graph(60, 0.3, seed=5),
    star_graph(15),
    path_graph(10),
    cycle_graph(9),
    Graph(6, [(0, 1)]),
    Graph(0),
    Graph(5),
]


def _assert_same_run(batched, outcome):
    assert batched.supersteps == outcome.supersteps
    assert batched.rounds == outcome.rounds
    assert batched.max_machine_message_words == outcome.max_machine_message_words
    assert batched.total_message_words == outcome.total_message_words


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_luby_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    mis, outcome = _luby_reference(graph, seed)
    batched = luby_vertex_program(graph, seed=seed)
    assert batched.mis == mis
    _assert_same_run(batched, outcome)


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_matching_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    matching, outcome = _matching_reference(graph, seed)
    batched = matching_vertex_program(graph, seed=seed)
    assert batched.matching == matching
    _assert_same_run(batched, outcome)


def test_engine_memory_enforcement_matches_in_batch_mode():
    """A volume that blows the per-vertex word budget blows the batched one
    at the same superstep (K_20 draws exceed the sqrt-machine budget)."""
    graph = complete_graph(20)
    with pytest.raises(MemoryExceededError) as per_vertex:
        _luby_reference(graph, seed=0)
    with pytest.raises(MemoryExceededError) as batched:
        luby_vertex_program(graph, seed=0)
    assert str(batched.value) == str(per_vertex.value)


def test_neighbors_bulk_small_batch_fast_path():
    from repro.graph.csr import SMALL_GATHER_ROWS, CSRGraph

    graph = gnp_random_graph(300, 0.05, seed=2)
    csr = CSRGraph.from_graph(graph)
    for size in (1, 3, SMALL_GATHER_ROWS, SMALL_GATHER_ROWS + 1, 200):
        vertices = list(range(0, min(size * 3, 300), 3))[:size]
        expected = np.concatenate(
            [csr.neighbors(v) for v in vertices]
        ) if vertices else np.empty(0, dtype=np.int64)
        assert np.array_equal(csr.neighbors_bulk(vertices), expected)


def test_from_graph_mask_matches_filter_edges():
    from repro.graph.csr import CSRGraph

    graph = gnp_random_graph(120, 0.08, seed=9)
    csr = CSRGraph.from_graph(graph)
    rng_mask = np.arange(120) % 3 != 0
    assert CSRGraph.from_graph(graph, mask=rng_mask) == csr.filter_edges(rng_mask)
    assert CSRGraph.from_graph(graph, mask=np.flatnonzero(rng_mask)) == (
        csr.filter_edges(rng_mask)
    )


if __name__ == "__main__":
    print(json.dumps(_all_fingerprints(), indent=4, sort_keys=True))
