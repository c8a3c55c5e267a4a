"""Import layering: each path loads only the subsystems it uses.

Every package ``__init__`` imports a public name's module on the name's
first access, and modules load optional subsystems (faults, FIFO
windows, the sparse engine, the provenance store, the cost planner) at
first use.  Each case runs in a fresh interpreter and lists the modules
it left loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def loaded_after(code: str) -> set[str]:
    """The modules loaded once ``code`` ran in a fresh interpreter."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json as _json, sys as _sys
        print(_json.dumps(sorted(_sys.modules)))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def under(modules: set[str], *prefixes: str) -> list[str]:
    """The modules in ``modules`` that are one of ``prefixes`` or inside one."""
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_import_repro_loads_nothing_else():
    loaded = loaded_after("import repro")
    assert under(loaded, "repro") == ["repro"]
    assert "numpy" not in loaded


def test_storm_path_loads_only_network_and_engine():
    loaded = loaded_after("""
        import repro.network
        import repro.pspin.pdes as pdes

        topo = repro.network.FatTreeTopology(n_hosts=64, hosts_per_leaf=8, n_spines=4)
        sim, net = pdes.build_engine(topo, router="updown", arbitration="fifo")
        hosts = topo.hosts
        net.on_deliver(hosts[9], lambda msg, t: None)
        net.send(repro.network.Message(hosts[0], hosts[9], 4096, 0), at=0.0)
        sim.run()
        assert sim.now > 0
    """)
    assert under(
        loaded, "repro.pspin.switch", "repro.core", "repro.comm", "repro.collectives",
        "repro.sparse", "repro.provenance", "repro.network.faults",
        "sqlite3", "argparse", "subprocess",
    ) == []


def test_standalone_flare_switch_loads_no_optional_subsystem():
    loaded = loaded_after("""
        import numpy as np
        from repro import Communicator

        comm = Communicator(n_hosts=8, n_clusters=2)
        payload = np.ones((8, 4, 256), dtype=np.int32)
        result = comm.allreduce(payload, algorithm="flare_switch")
        assert result.raw.fast_path_used
    """)
    assert under(
        loaded, "repro.provenance.store", "repro.provenance.cli",
        "repro.provenance.recorder", "sqlite3", "argparse",
        "repro.network.windows", "repro.network.faults",
        "repro.sparse.fastpath", "repro.sparse.formats", "repro.sparse.handlers",
    ) == []


def test_cli_help_loads_no_simulator():
    loaded = loaded_after("""
        from repro.__main__ import main

        try:
            main(["--help"])
        except SystemExit as exc:
            assert exc.code == 0
    """)
    assert under(
        loaded, "repro.pspin", "repro.network", "repro.core", "repro.comm",
        "repro.collectives", "repro.sparse", "repro.service", "numpy",
    ) == []
