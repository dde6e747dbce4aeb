import gc

import pytest

from capnet import network, taxonomy


@pytest.fixture(scope="session")
def catalog():
    return taxonomy.load_default_catalog()


@pytest.fixture(scope="session")
def interrelations():
    return network.load_default_interrelations()


@pytest.fixture(scope="session")
def candidates():
    return network.load_default_candidates()


@pytest.fixture(scope="session")
def reference_correlations():
    return network.load_default_correlations()


@pytest.fixture(scope="session")
def built_graph(interrelations, catalog):
    return network.build_graph(interrelations, catalog)


@pytest.fixture(scope="session")
def final_graph(built_graph, reference_correlations, candidates):
    pruned = network.prune_weak(built_graph, reference_correlations, 0.4)
    return network.augment_strong(pruned, candidates, repair=True)


@pytest.fixture(scope="session")
def sitting_set(catalog):
    return taxonomy.sitting_over_table_set(catalog)


@pytest.fixture
def cyclic_garbage():
    """Run ``action()`` with the cyclic collector off; return what gc.collect() then frees.

    A reference cycle (such as a recursive closure's cell pointing back at
    its function) is freed only by that collector, so a nonzero count means
    the action left one behind.
    """

    def run(action):
        gc.collect()
        gc.disable()
        try:
            action()
            return gc.collect()
        finally:
            gc.enable()

    return run
