"""Registries filled by an import side effect are filled by their reader.

Each case runs in a fresh interpreter that imports only the module that
reads the registry, so a registration that used to ride on importing a
package (``repro.comm`` importing the backends and the cost planner,
``repro.network`` importing the topology families, the switch driver
importing the train kernels) cannot go missing unnoticed.
"""

from __future__ import annotations

import pytest

from tests.test_import_layering import loaded_after

PACKAGES = (
    "repro", "repro.baselines", "repro.collectives", "repro.comm", "repro.core",
    "repro.data", "repro.figures", "repro.network", "repro.provenance",
    "repro.pspin", "repro.service", "repro.sparse", "repro.utils",
)


def test_algorithm_registry_lists_every_builtin():
    loaded_after("""
        from repro.comm.registry import available_algorithms

        assert available_algorithms() == (
            "butterfly", "flare_dense", "flare_sparse", "flare_switch",
            "flare_switch_sparse", "rabenseifner", "recursive_doubling", "ring",
            "sparcml", "swing",
        ), available_algorithms()
    """)


def test_every_topology_family_builds_by_name():
    loaded_after("""
        from repro.network.topology import available_topologies, build_topology

        families = available_topologies()
        assert families == ("dragonfly", "fat-tree", "multi-rail", "torus", "xgft"), families
        for family in families:
            assert build_topology(family).family == family
    """)


def test_cost_auto_mode_resolves():
    loaded_after("""
        from repro.comm.registry import available_auto_modes, resolve
        from repro.comm.request import CollectiveRequest

        assert available_auto_modes() == ("cost", "static")
        request = CollectiveRequest(
            nbytes="1MiB", n_hosts=16, algorithm="auto", params={"auto_mode": "cost"}
        )
        assert resolve(request).name in ("ring", "swing", "butterfly", "flare_dense")
        assert "sub_chunk_bytes" in request.params or "chunk_bytes" in request.params
    """)


@pytest.mark.parametrize("aggregation", ["tree", "multi(4)"])
def test_standalone_flare_switch_takes_the_fast_path(aggregation):
    loaded_after(f"""
        import numpy as np
        from repro.comm.communicator import Communicator

        comm = Communicator(n_hosts=8, n_clusters=2)
        payload = np.ones((8, 4, 256), dtype=np.int32)
        result = comm.allreduce(payload, algorithm="flare_switch", aggregation={aggregation!r})
        assert result.raw.fast_path_used
    """)


def test_standalone_flare_switch_sparse_takes_the_fast_path():
    loaded_after("""
        from repro.comm.communicator import Communicator

        comm = Communicator(n_hosts=8, n_clusters=2)
        result = comm.allreduce(
            "8KiB", algorithm="flare_switch_sparse", sparse=True, density=0.1, seed=1
        )
        assert result.extra["fast_path_used"]
    """)


def test_switch_driver_loads_its_train_kernels():
    loaded_after("""
        from repro.core.allreduce import plan_switch_allreduce

        dense = plan_switch_allreduce("16KiB", children=8, algorithm="tree", dtype="int32")
        assert dense.execute(seed=1).fast_path_used
        sparse = plan_switch_allreduce("8KiB", children=8, density=0.1, storage="array")
        assert sparse.execute(seed=1).fast_path_used
    """)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    loaded_after(f"""
        import importlib

        package = importlib.import_module({package!r})
        listed = dir(package)
        for name in package.__all__:
            getattr(package, name)
            assert name in listed, name
    """)
