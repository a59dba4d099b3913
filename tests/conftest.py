import pytest

from irrdec.graph_core import InvariantViolated, cycle, path, recognize_exception, t_family_members
from irrdec.oracle import atlas_connected_graphs, min_parts


# Built once a session: one atlas_connected_graphs(7) call costs 70-90 ms on
# a 2-vCPU host.  Tuples, so no test can change what the next one reads.
@pytest.fixture(scope="session")
def atlas6():
    return tuple(atlas_connected_graphs(6))


@pytest.fixture(scope="session")
def atlas7():
    return tuple(atlas_connected_graphs(7))


def exceptions_never_decompose(max_edges: int, others) -> dict:
    """Exhaustively confirm the exception catalogue on small instances.

    Checks that every odd path, odd cycle, and triangle-family member with
    at most max_edges edges is infeasible for every k, and that every graph
    of others (connected graphs, such as the atlas fixtures) outside the
    catalogue is feasible, with infeasibility agreeing exactly with the
    recognizer.  A broken check raises InvariantViolated, which `python -O`
    keeps.
    """
    exceptions = []
    for length in range(1, max_edges + 1, 2):
        exceptions.append((f"path({length})", path(length)))
    for length in range(3, max_edges + 1, 2):
        exceptions.append((f"cycle({length})", cycle(length)))
    for i, member in enumerate(t_family_members(max_edges)):
        exceptions.append((f"t_member_{i}_m{member.m}", member))

    exception_verdicts = {}
    for name, g in exceptions:
        res = min_parts(g)
        if res.feasible_k is not None or not res.exhausted:
            raise InvariantViolated(f"exception {name} is not certified infeasible: "
                                    f"least k {res.feasible_k}, exhausted {res.exhausted}")
        exception_verdicts[name] = {"edges": g.m, "infeasible": True}

    other_count = 0
    feasible_hist = {}
    disagreements = []
    for g in others:
        marked = recognize_exception(g)
        res = min_parts(g)
        infeasible = res.feasible_k is None
        if infeasible != (marked is not None):
            disagreements.append({"n": g.n, "edges": sorted(g.edges),
                                  "recognizer": None if marked is None else marked.name,
                                  "oracle_k": res.feasible_k})
        if marked is None:
            other_count += 1
            if res.feasible_k is None:
                raise InvariantViolated(f"non-exception graph is infeasible: {sorted(g.edges)}")
            feasible_hist[res.feasible_k] = feasible_hist.get(res.feasible_k, 0) + 1
    if disagreements:
        raise InvariantViolated(f"recognizer and oracle disagree on {len(disagreements)} "
                                f"graph(s): {disagreements[:3]}")
    return {
        "exceptions": exception_verdicts,
        "other_connected_graphs": other_count,
        "feasible_k_histogram": {str(k): v for k, v in sorted(feasible_hist.items())},
        "recognizer_agreement": True,
    }


def risky_sets(cls) -> tuple:
    """The risky edges r1, r2, r3 of a classification as three sets, after
    checking that no collection holds an edge twice: classify returns lists
    and the resampler its own sets, so only the sets compare."""
    sets = tuple(set(r) for r in (cls.r1, cls.r2, cls.r3))
    for edges, unique in zip((cls.r1, cls.r2, cls.r3), sets):
        if len(edges) != len(unique):
            raise AssertionError(f"an edge repeats among {len(edges)} risky edges")
    return sets
