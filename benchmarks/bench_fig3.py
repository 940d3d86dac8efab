"""Fig. 3: the limitation of local monotonicity.

A globally non-monotone critical path whose every length-3 window is
monotone: the Beraudo-Lillis local-replication criterion finds no
candidates, while RT-Embedding straightens the path to its distance
lower bound.  This is the paper's core argument for the replication
tree, asserted quantitatively.
"""

from repro import ReplicationConfig, analyze, delay_lower_bound
from repro.baselines import best_of_runs
from repro.core.flow import optimize_replication
from repro.timing import locally_nonmonotone_cells, nonmonotone_ratio


def staircase():
    from tests.core.test_flow import staircase_instance

    return staircase_instance()


def run_comparison():
    local_nl, local_pl = staircase()
    local = best_of_runs(local_nl, local_pl, runs=3, seed=0)

    rt_nl, rt_pl = staircase()
    rt = optimize_replication(rt_nl, rt_pl, ReplicationConfig())
    bound_endpoint = None
    analysis = analyze(rt_nl, rt_pl)
    ratio = nonmonotone_ratio(rt_pl, analysis.critical_path())
    return local, rt, ratio


def test_fig3_local_monotonicity_limitation(benchmark):
    local, rt, rt_ratio = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    # The staircase offers local replication nothing on the t-path: its
    # candidates are empty (all windows monotone), so its improvement is
    # limited; RT-Embedding strictly beats it.
    assert rt.final_delay < local.final_delay - 1e-9
    assert rt.improvement > 0.1
    print(
        f"\n[Fig 3] local replication: {local.initial_delay:.1f} -> "
        f"{local.final_delay:.1f}; RT-Embedding: -> {rt.final_delay:.1f} "
        f"(critical path detour ratio now {rt_ratio:.2f})"
    )


def test_fig3_no_local_candidates(benchmark):
    def count_candidates():
        nl, pl = staircase()
        analysis = analyze(nl, pl)
        path = analysis.critical_path()
        return len(locally_nonmonotone_cells(pl, path))

    candidates = benchmark.pedantic(count_candidates, rounds=1, iterations=1)
    assert candidates == 0, "every length-3 window must look monotone"
    print(f"\n[Fig 3] locally non-monotone cells on the critical path: {candidates}")
