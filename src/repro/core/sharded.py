"""Vestige: ``ShardedDeployment(n_workers=N)`` is ``Deployment(jobs=N)``.

Kept because ``benchmarks/e2e/workloads.py:35,253-261`` imports and calls
it (passing ``transport="shm"``) and code PRs may not edit that directory;
ROADMAP item 3's ``benchmark`` PR deletes those lines and this file.
"""

from repro.core.deployment import Deployment


def ShardedDeployment(original, target, n_workers=2, transport="shm", **kw):
    if transport != "shm":
        raise ValueError(f"transport={transport!r}: the choice was removed")
    return Deployment(original, target, jobs=n_workers, **kw)
