"""Fault tolerance: pure vs impure solvers under injected failures.

The paper distinguishes *pure* solvers (only fault-tolerant Spark operations;
lost tasks are recomputed from lineage) from *impure* ones (data staged in a
shared file system is outside lineage and may be unrecoverable).  This example

1. runs the pure Blocked In-Memory solver while injecting task failures and
   shows the result is still correct (tasks are retried / recomputed), and
2. deletes a staged block from the shared file system mid-run of the impure
   Blocked Collect/Broadcast solver and shows the run aborts with a
   lineage error, exactly the hazard Section 4.2 describes.

Run with:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.common.config import EngineConfig
from repro.common.errors import LineageError
from repro.core import BlockedCollectBroadcastSolver, BlockedInMemorySolver, SolveRequest
from repro.graph import erdos_renyi_adjacency
from repro.sequential import floyd_warshall_reference
from repro.spark.context import SparkContext
from repro.spark.faults import FaultPlan


def main() -> int:
    adjacency = erdos_renyi_adjacency(96, seed=5)
    reference = floyd_warshall_reference(adjacency)
    config = EngineConfig(num_executors=4, cores_per_executor=2)
    request = SolveRequest(block_size=16, partitioner="MD")

    # --- Pure solver with injected task failures --------------------------------
    print("Running the pure Blocked In-Memory solver with injected task failures...")
    plan = FaultPlan(fail_task_indices=frozenset({3, 17, 40, 77}), max_failures=4)
    context = SparkContext(config, fault_plan=plan)
    solver = BlockedInMemorySolver(config=config, request=request)
    result = solver.solve(adjacency, context=context)
    injected = context.fault_injector.injected_failures
    retried = context.metrics.tasks_retried
    context.stop()
    assert np.allclose(result.distances, reference)
    print(f"  injected {injected} task failures, engine retried {retried} tasks, "
          "result still matches the reference.")

    # --- Impure solver losing shared-filesystem data ------------------------------
    print("Running the impure Blocked Collect/Broadcast solver and deleting staged data...")
    context = SparkContext(config)
    solver = BlockedCollectBroadcastSolver(config=config, request=request)

    original_write = context.shared_fs.write
    state = {"dropped": False}

    def sabotaging_write(name, value):
        path = original_write(name, value)
        # Simulate the staged file disappearing before executors read it
        # (e.g. the task is rescheduled on a node after cleanup).
        if not state["dropped"] and "rowcol" in name:
            context.shared_fs.drop(path)
            state["dropped"] = True
        return path

    context.shared_fs.write = sabotaging_write
    try:
        solver.solve(adjacency, context=context)
        print("  unexpectedly succeeded (no staged data was read after the drop)")
    except LineageError as exc:
        print(f"  run failed as expected: {exc}")
        print("  impure solvers cannot recover staged data from lineage "
              "— the paper's fault-tolerance caveat.")
    finally:
        context.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
