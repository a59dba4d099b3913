import pytest

from irrdec.oracle import atlas_connected_graphs


# Built once a session: one atlas_connected_graphs(7) call costs 70-90 ms on
# a 2-vCPU host.  Tuples, so no test can change what the next one reads.
@pytest.fixture(scope="session")
def atlas6():
    return tuple(atlas_connected_graphs(6))


@pytest.fixture(scope="session")
def atlas7():
    return tuple(atlas_connected_graphs(7))
