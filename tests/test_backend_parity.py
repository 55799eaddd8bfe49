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

The module also property-tests the array-based substrate validation
(Lenzen routing loads, clique bandwidth), the batched SHA stream and the
threshold oracle against their scalar/dict-based references.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import solve
from repro.baselines.israeli_itai import israeli_itai_matching
from repro.baselines.luby import luby_mis
from repro.baselines.parallel_greedy import parallel_greedy_mis
from repro.graph.generators import gnp_random_graph


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
    "fractional/congested_clique": "2d68bcb6ea9372be42c5bd1925921cd16012ad51606a815a2a9c6b0fde097269",
    "fractional/mpc": "915dea3467af3f0b92bdbe707c044a824786bae181b1e17c40e44c49deb5164c",
    "fractional_matching/mpc/n2000/seed1": "de7389795bfbcfca3de64a249f853f3f9f9373fd6167ad28e96ffe2059988cfe",
    "fractional_matching/mpc/n2000/seed2": "13a850611f7302c5677fadfef79e20c5fd3e04d28bb6fac20e7bf9433f14fb4a",
    "israeli_itai": "47eed39d4c0274eab55fd49bc7baa038b5f9bf392daff924d51e9025e5ce019c",
    "luby": "f77e102d6259b7e96d985e94f818c0e25b6a9ab7b1558000d56a391d3e5b927c",
    "matching/mpc": "ee1223b675031b66e073f5302a55528a0b5076d01d4462ed6faab5e53e5dabb6",
    "matching/mpc/n2000/seed1": "58368ad03a4bad092aacde144877adadaed6ce67c3dbeef3efbf555218c58d09",
    "matching/mpc/n2000/seed2": "ce69825d424198b73be7cc8be39e7ad2dfc1951f5f0865fcdabb078279c7386f",
    "matching/pregel": "2150036e7c7f24af1f32535b5a3ca2680d0009e2a49772a5e4187763b7c7a689",
    "mis/congested_clique/dense": "93186594464b1d58171e110a8d093ef4695cfd733ecf4256709d3d9e21d1cdaa",
    "mis/congested_clique/sparse": "c597f125f0408c12fbe20548c9781a9450f51dc147988201cd57c7aa4422995f",
    "mis/pregel": "cf0e631933eb1381de63f9c463be415227e2977c13be702caff1567919515f9e",
    "one_plus_eps_matching/mpc/n2000/seed1": "ea6a51f32e870b405cf0bb6c8bf068de63d188c6b797ba6e75568082773d0fb5",
    "one_plus_eps_matching/mpc/n2000/seed2": "6f7dbfef682f9cf4ab6f416959b473b1ef196488e6f26e2d69b66af32f4c7db9",
    "parallel_greedy": "42bce1427a0a72eb377430b9c258e4606edbfeffe4487b0b15813871d92595c8",
    "report/fractional_matching/mpc/n2000/seed1": "73e63597961a522c4b48d50ba4704b7f1dcd72662d10e3f7a9019ecf63ef5a03",
    "report/fractional_matching/mpc/n2000/seed2": "8772562775e3d631f64fe2178e9e40a07e7ad70c3a516926d78e171b3f5df9e4",
    "report/matching/mpc/n2000/seed1": "37ff37397ab4ac75beb1b8da22ce43d12e478a3b3ed7f0bfec62ffed7bfececf",
    "report/matching/mpc/n2000/seed2": "6c67faa402e0920ae20015c0232f863f1069fe66d805ba7c7859377fbe0cbf6b",
    "report/mis/mpc/n2000/seed1": "9ee43984d1f3ed827f22024e7d0403ea81ab94d3067d389c57f26034c9d52c17",
    "report/mis/mpc/n2000/seed2": "4047c425afeaf83374cc34682ac5fbe94062d0c3d5fe68c2a2bb425984d3dae1",
    "report/vertex_cover/mpc/n2000/seed1": "0a6c2d05e762d37a82f4691e9a968817dce38f61024d7c997673cf3cd6fbe61f",
    "report/vertex_cover/mpc/n2000/seed2": "11d57238933e8239f10795eca5e1180b424e9d6b9e7fa280b7e9b712ae3785ec",
    "vertex_cover/mpc/n2000/seed1": "ec9622f698f25b47aaee4f2de0acd1e9bafa6587580066499e546f23ac8f476a",
    "vertex_cover/mpc/n2000/seed2": "ed497d362e25bea4cbec8edc0d99e948f2021a347e2fdf34aa3ec58d890694f7",
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
# Batched Pregel kernels vs the per-vertex programs
# ---------------------------------------------------------------------------

from repro.graph.generators import cycle_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.mpc.programs import luby_vertex_program, matching_vertex_program

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


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_luby_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    reference = luby_vertex_program(graph, seed=seed, batched=False)
    batched = luby_vertex_program(graph, seed=seed, batched=True)
    assert batched.mis == reference.mis
    assert batched.supersteps == reference.supersteps
    assert batched.rounds == reference.rounds
    assert batched.max_machine_message_words == reference.max_machine_message_words
    assert batched.total_message_words == reference.total_message_words


@pytest.mark.parametrize("index", range(len(ENGINE_PARITY_GRAPHS)))
@pytest.mark.parametrize("seed", [0, 7])
def test_matching_batch_kernel_matches_per_vertex(index, seed):
    graph = ENGINE_PARITY_GRAPHS[index]
    reference = matching_vertex_program(graph, seed=seed, batched=False)
    batched = matching_vertex_program(graph, seed=seed, batched=True)
    assert batched.matching == reference.matching
    assert batched.supersteps == reference.supersteps
    assert batched.rounds == reference.rounds
    assert batched.max_machine_message_words == reference.max_machine_message_words
    assert batched.total_message_words == reference.total_message_words


def test_engine_memory_enforcement_matches_in_batch_mode():
    """A volume that blows the per-vertex word budget blows the batched one
    at the same superstep (K_20 draws exceed the sqrt-machine budget)."""
    from repro.graph.generators import complete_graph
    from repro.mpc.errors import MemoryExceededError

    graph = complete_graph(20)
    with pytest.raises(MemoryExceededError) as per_vertex:
        luby_vertex_program(graph, seed=0, batched=False)
    with pytest.raises(MemoryExceededError) as batched:
        luby_vertex_program(graph, seed=0, batched=True)
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
