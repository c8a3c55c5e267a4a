"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one knob of the Flare design and asserts the
direction of the effect the paper's analysis predicts:

* staggered sending on/off (Sec. 5);
* scheduling-subset size S (Eq. 1 memory/bandwidth trade);
* multi-buffer count B (Sec. 6.2 contention relaxation);
* hierarchical vs plain FCFS scheduling (remote-L1 penalty);
* reproducible (tree) vs throughput-optimal policy at large sizes;
* shared-nothing cluster scaling linearity (the paper's 4->64 method);
* hash table sizing vs spill traffic (Sec. 7).
"""

from conftest import save_and_show

from repro.core.allreduce import plan_switch_allreduce
from repro.core.config import FlareConfig
from repro.core.models import evaluate_design
from repro.utils.tables import ascii_table


def _switch(data_bytes, seed=0, jitter=1.0, **plan):
    """Plan one switch-level allreduce and execute it once."""
    return plan_switch_allreduce(data_bytes, **plan).execute(seed=seed, jitter=jitter)


def test_ablation_staggered_sending(benchmark, results_dir):
    def run():
        return {
            label: _switch(
                "64KiB", children=8, n_clusters=2, algorithm="single",
                staggered=flag, jitter=0.0, seed=21,
            )
            for label, flag in (("staggered", True), ("sequential", False))
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, round(v.bandwidth_tbps, 2), int(v.contention_wait_cycles)]
            for k, v in rs.items()]
    save_and_show(results_dir, "ablation_staggered",
                  ascii_table(["sending", "band (Tbps)", "wait (cycles)"], rows,
                              title="Ablation: staggered sending"))
    assert rs["staggered"].contention_wait_cycles < rs["sequential"].contention_wait_cycles
    assert rs["staggered"].bandwidth_tbps >= rs["sequential"].bandwidth_tbps


def test_ablation_subset_size(benchmark, results_dir):
    def run():
        out = {}
        for S in (1, 2, 4, 8):
            cfg = FlareConfig(children=64, subset_size=S, data_bytes="64KiB")
            out[S] = evaluate_design(cfg, "single")
        return out

    points = benchmark.pedantic(run, rounds=3, iterations=1)
    rows = [[S, round(p.bandwidth_tbps, 2),
             round(p.input_buffer_bytes / 2**20, 2)] for S, p in points.items()]
    save_and_show(results_dir, "ablation_subset_size",
                  ascii_table(["S", "band (Tbps)", "inbuf (MiB)"], rows,
                              title="Ablation: scheduling subset size"))
    # Bandwidth falls and input-buffer occupancy falls as S grows (Eq. 1).
    assert points[1].bandwidth_tbps > points[8].bandwidth_tbps
    assert points[1].input_buffer_bytes > points[8].input_buffer_bytes


def test_ablation_buffer_count(benchmark, results_dir):
    def run():
        return {
            B: _switch(
                "16KiB", children=16, n_clusters=2,
                algorithm=f"multi({B})" if B > 1 else "single", seed=22,
            )
            for B in (1, 2, 4, 8)
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[B, round(r.bandwidth_tbps, 2), int(r.contention_wait_cycles),
             round(r.peak_working_memory_bytes / 1024, 0)]
            for B, r in rs.items()]
    save_and_show(results_dir, "ablation_buffers",
                  ascii_table(["B", "band (Tbps)", "wait", "wmem (KiB)"], rows,
                              title="Ablation: multi-buffer count"))
    # More buffers -> less lock waiting, more working memory.
    assert rs[4].contention_wait_cycles < rs[1].contention_wait_cycles
    assert rs[4].peak_working_memory_bytes > rs[1].peak_working_memory_bytes


def test_ablation_scheduler(benchmark, results_dir):
    def run():
        return {
            sched: _switch(
                "32KiB", children=16, n_clusters=4, algorithm="tree",
                scheduler=sched, seed=23,
            )
            for sched in ("hierarchical", "fcfs")
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, round(v.bandwidth_tbps, 2)] for k, v in rs.items()]
    save_and_show(results_dir, "ablation_scheduler",
                  ascii_table(["scheduler", "band (Tbps)"], rows,
                              title="Ablation: hierarchical vs plain FCFS"))
    # Plain FCFS pays remote-L1 penalties on most packets.
    assert rs["hierarchical"].bandwidth_tbps > 1.5 * rs["fcfs"].bandwidth_tbps


def test_ablation_reproducibility_cost(benchmark, results_dir):
    """F3 at large sizes: tree (reproducible) vs single (fastest)."""
    def run():
        return {
            label: _switch(
                "256KiB", children=16, n_clusters=2, algorithm=algo, seed=24,
            )
            for label, algo in (("tree (reproducible)", "tree"),
                                ("single (fastest)", "single"))
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[k, round(v.bandwidth_tbps, 2)] for k, v in rs.items()]
    save_and_show(results_dir, "ablation_reproducibility",
                  ascii_table(["mode", "band (Tbps)"], rows,
                              title="Ablation: reproducibility premium at 256KiB"))
    tree = rs["tree (reproducible)"].bandwidth_tbps
    single = rs["single (fastest)"].bandwidth_tbps
    # The premium exists but is bounded (paper: tree stays near optimal).
    assert tree > 0.55 * single


def test_ablation_cluster_scaling(benchmark, results_dir):
    """Shared-nothing linearity: per-cluster bandwidth ~constant, the
    basis of the paper's 4->64 cluster extrapolation."""
    def run():
        return {
            n: _switch(
                "32KiB", children=16, n_clusters=n, algorithm="tree", seed=25,
            )
            for n in (1, 2, 4)
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[n, round(r.sim_bandwidth_tbps, 3),
             round(r.sim_bandwidth_tbps / n, 3)] for n, r in rs.items()]
    save_and_show(results_dir, "ablation_cluster_scaling",
                  ascii_table(["clusters", "sim band (Tbps)", "per-cluster"], rows,
                              title="Ablation: cluster scaling linearity"))
    per_cluster = [r.sim_bandwidth_tbps / n for n, r in rs.items()]
    spread = (max(per_cluster) - min(per_cluster)) / max(per_cluster)
    assert spread < 0.5, "per-cluster bandwidth should be roughly flat"


def test_ablation_hash_table_sizing(benchmark, results_dir):
    """Bigger tables buy less spill traffic at constant block memory
    growth — the Sec. 7 memory/traffic dial."""
    def run():
        return {
            f: _switch(
                "16KiB", density=0.2, storage="hash", children=16,
                n_clusters=1, seed=26, hash_slots_factor=f,
            )
            for f in (1.0, 4.0, 16.0)
        }

    rs = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f, round(r.extra_traffic_pct, 0),
             round(r.block_memory_bytes / 1024, 1)] for f, r in rs.items()]
    save_and_show(results_dir, "ablation_hash_sizing",
                  ascii_table(["slots factor", "extra traffic (%)", "block mem (KiB)"],
                              rows, title="Ablation: hash table sizing"))
    assert rs[16.0].spilled_bytes < rs[1.0].spilled_bytes
    assert rs[16.0].block_memory_bytes > rs[1.0].block_memory_bytes
