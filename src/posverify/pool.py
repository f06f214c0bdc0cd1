"""The one process pool: calibration cells and experiment trials map through it."""

from __future__ import annotations

from concurrent import futures


def pool_map(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]``, in job order.

    With ``workers > 1`` and more than one job, the jobs run in a process
    pool of ``min(workers, len(jobs))`` processes, so ``fn`` and every job
    must pickle; otherwise they run inline. The result never depends on
    ``workers``, only the wall time does.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    jobs = list(jobs)
    if workers == 1 or len(jobs) < 2:
        return [fn(job) for job in jobs]
    # the platform's default start method (fork on Linux): a spawned worker
    # re-imports numpy and scipy for every pool, which on 2 CPUs cut
    # 4-trial sig-noise-q-55 runs from 4.0 to 2.3 trials/s and added 11-12%
    # to peak memory
    with futures.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        return list(pool.map(fn, jobs))
