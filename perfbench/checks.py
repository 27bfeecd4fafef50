"""Checks of the program's answers and index, made with numpy apart from it.

Every check raises :class:`CheckError` naming what is wrong; the benchmark
counts an operation whose output fails a check as failed. Distances are
recomputed here in the direct form ``sqrt(sum((x - q)**2))``, not the
GEMM form the program uses, so a shared bug in the kernel cannot hide.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

#: Absolute tolerance on Euclidean distances. The program's GEMM form
#: ``|x|² + |q|² − 2x·q`` loses ~1e-13 of d² for z-normalised length-256
#: series (|x|² = 256), which is ~3e-7 of d near d = 0 (a query's own row).
TOL = 1e-5

Answer = Sequence[Tuple[int, float]]


class CheckError(Exception):
    """An output of the program disagrees with the independent computation."""


def ed_direct(X: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``X`` to ``q``, by differences."""
    D = np.asarray(X, dtype=np.float64) - np.asarray(q, dtype=np.float64)[None, :]
    return np.sqrt(np.einsum("ij,ij->i", D, D))


def topk_exact(ids: np.ndarray, X: np.ndarray, q: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force top-``k`` of the rows ``(ids, X)``: (ids, distances) ascending."""
    d = ed_direct(X, q)
    order = np.lexsort((ids, d))[:k]
    return ids[order], d[order]


def check_well_formed(answer: Answer, k: int) -> None:
    """``k`` distinct ids with non-decreasing distances."""
    if len(answer) != k:
        raise CheckError(f"{len(answer)} results, expected {k}")
    ids = [int(i) for i, _ in answer]
    if len(set(ids)) != k:
        raise CheckError("duplicate ids in the answer")
    d = np.array([float(x) for _, x in answer])
    if np.any(np.diff(d) < 0):
        raise CheckError("distances are not ascending")


def check_distances(answer: Answer, X: np.ndarray, q: np.ndarray) -> None:
    """Each reported distance equals the ED of that id's series (row ``id`` of ``X``) to ``q``."""
    ids = np.array([int(i) for i, _ in answer], dtype=np.int64)
    out = np.flatnonzero((ids < 0) | (ids >= X.shape[0]))
    if out.size:
        raise CheckError(f"id {int(ids[out[0]])} is not in the data set")
    true = ed_direct(X[ids], q)
    got = np.array([float(x) for _, x in answer])
    bad = np.flatnonzero(np.abs(got - true) > TOL)
    if bad.size:
        b = int(bad[0])
        raise CheckError(f"id {int(ids[b])}: distance {got[b]!r}, numpy gives {true[b]!r}")


def check_members(answer: Answer, allowed: np.ndarray, what: str) -> None:
    """Every id of the answer lies in ``allowed``."""
    ids = np.array([int(i) for i, _ in answer], dtype=np.int64)
    out = ids[~np.isin(ids, allowed)]
    if out.size:
        raise CheckError(f"id {int(out[0])} is outside {what}")


def check_equals_topk(answer: Answer, exact_d: np.ndarray, what: str) -> None:
    """The answer's distances equal the exact top-K distances, rank by rank.

    Together with :func:`check_distances` and :func:`check_members` this
    means the ids are an exact top-K of the pool, differing from numpy's
    only where distances tie within :data:`TOL`.
    """
    got = np.array([float(x) for _, x in answer])
    bad = np.flatnonzero(np.abs(got - exact_d) > TOL) if got.shape == exact_d.shape else [-1]
    if len(bad):
        raise CheckError(f"not the exact top-{exact_d.size} of {what} (first difference at rank {int(bad[0])})")


def recall(answer: Answer, exact_ids: np.ndarray) -> float:
    """Def. 4: share of the exact top-K ids found by the answer."""
    return len({int(i) for i, _ in answer} & {int(i) for i in exact_ids}) / len(exact_ids)


def plan_rows(pid: np.ndarray, node: np.ndarray, plan) -> Tuple[np.ndarray, np.ndarray]:
    """Stored rows in a plan's partitions, and the rows the plan selects.

    A plan that does not scan whole partitions selects, within them, the
    rows whose trie node lies in the subtree of one of its prefixes.
    """
    parts = np.flatnonzero(np.isin(pid, np.asarray(plan.pids, dtype=np.int64)))
    if plan.expand_full or "" in plan.prefixes:
        return parts, parts
    keep = [any(n == p or n.startswith(p + "/") for p in plan.prefixes) for n in node[parts]]
    return parts, parts[np.array(keep, dtype=bool)]


@dataclass(frozen=True)
class PlanExpectation:
    """What numpy says about one query's answer under one plan."""

    part_ids: np.ndarray  # ids stored in the plan's partitions
    sel_ids: np.ndarray  # ids the plan selects within them
    sel_d: np.ndarray  # exact top-K distances over the selected rows


def expect_plan(ids: np.ndarray, pid: np.ndarray, node: np.ndarray, X: np.ndarray, plan, q: np.ndarray, k: int) -> PlanExpectation:
    """Independent expectation for ``plan`` over the stored rows ``(ids, pid, node, X)``."""
    parts, sel = plan_rows(pid, node, plan)
    _, sel_d = topk_exact(ids[sel], X[sel], q, k)
    return PlanExpectation(ids[parts], ids[sel], sel_d)


def check_plan_answer(answer: Answer, exp: PlanExpectation, X: np.ndarray, q: np.ndarray, k: int) -> None:
    """A CLIMBER answer is K ids from the plan's partitions, the exact top-K of the rows it selects."""
    check_well_formed(answer, k)
    check_distances(answer, X, q)
    check_members(answer, exp.part_ids, "the plan's partitions")
    check_members(answer, exp.sel_ids, "the plan's trie-node rows")
    check_equals_topk(answer, exp.sel_d, "the rows the plan selects")


def check_exact_answer(answer: Answer, exact_d: np.ndarray, X: np.ndarray, q: np.ndarray, k: int) -> None:
    """An exact answer (Dss) is a top-K of the whole data set."""
    check_well_formed(answer, k)
    check_distances(answer, X, q)
    check_equals_topk(answer, exact_d, "the data set")


# ---- build properties ------------------------------------------------------


def check_stored_rows(stored_ids: np.ndarray, stored_X: np.ndarray, ids: np.ndarray, X: np.ndarray) -> None:
    """Every input id is stored exactly once, with its series unchanged."""
    if stored_ids.size != ids.size:
        raise CheckError(f"{stored_ids.size} rows stored for {ids.size} inputs")
    order = np.argsort(stored_ids, kind="stable")
    s_ids = stored_ids[order]
    dup = np.flatnonzero(s_ids[1:] == s_ids[:-1])
    if dup.size:
        raise CheckError(f"id {int(s_ids[dup[0]])} is stored more than once")
    want = np.argsort(ids, kind="stable")
    if not np.array_equal(s_ids, ids[want]):
        raise CheckError("stored ids differ from the input ids")
    bad = np.flatnonzero(np.any(stored_X[order] != X[want], axis=1))
    if bad.size:
        raise CheckError(f"series of id {int(s_ids[bad[0]])} changed in storage")


def check_partition_counts(stored_pid: np.ndarray, pid_counts: Mapping[int, int], n: int) -> None:
    """Per-partition row counts equal ``pid_counts`` and sum to ``n``."""
    pids, counts = np.unique(stored_pid, return_counts=True)
    seen: Dict[int, int] = {int(p): int(c) for p, c in zip(pids, counts)}
    want = {int(p): int(c) for p, c in pid_counts.items()}
    if seen != want:
        diff = sorted(p for p in set(seen) | set(want) if seen.get(p) != want.get(p))
        raise CheckError(f"partition {diff[0]}: {seen.get(diff[0], 0)} rows stored, pid_counts says {want.get(diff[0], 0)}")
    if sum(want.values()) != n:
        raise CheckError(f"pid_counts sum to {sum(want.values())}, not {n}")


def check_assignment(stored_pid: np.ndarray, expected_pid: np.ndarray, ids: np.ndarray) -> None:
    """Each row's stored partition equals the one assigned outside Spark."""
    bad = np.flatnonzero(stored_pid != expected_pid)
    if bad.size:
        b = int(bad[0])
        raise CheckError(
            f"id {int(ids[b])} stored in partition {int(stored_pid[b])}, "
            f"assign_records gives {int(expected_pid[b])} ({bad.size} rows differ)"
        )


def plan_key(plan) -> Tuple:
    """The parts of a ``QueryPlan`` that decide which rows a query reads."""
    return (tuple(plan.pids), tuple(plan.prefixes), bool(plan.expand_full))


def check_same_plans(a: Sequence, b: Sequence, what: str) -> None:
    """Two plan lists select the same rows query by query."""
    for i, (pa, pb) in enumerate(zip(a, b)):
        if plan_key(pa) != plan_key(pb):
            raise CheckError(f"query {i}: {what}: {plan_key(pa)} vs {plan_key(pb)}")
    if len(a) != len(b):
        raise CheckError(f"{what}: {len(a)} vs {len(b)} plans")
