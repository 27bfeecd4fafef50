#!/usr/bin/env python3
"""Self-tests of the checkers in ``checks.py``, on small numpy inputs, no Spark.

Each case corrupts a correct result and expects the checker to reject it;
the correct result itself must pass. ``run.py`` runs these before every
benchmark run; run them alone with ``python3 perfbench/selftest.py``.
"""
from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import List

import numpy as np

import checks as C


def _cases() -> List[tuple]:
    rng = np.random.default_rng(0)
    n, length, k = 60, 16, 5
    X = rng.standard_normal((n, length))
    ids = np.arange(n)
    pid = ids % 3  # three partitions
    node = np.array(["1/2" if i % 2 else "1/3" for i in ids], dtype=object)
    q = X[7] + 0.01
    full = SimpleNamespace(pids=(0, 1), prefixes=("",), expand_full=True)
    sub = SimpleNamespace(pids=(0, 1), prefixes=("1/2",), expand_full=False)

    def answer(sel):
        top, d = C.topk_exact(ids[sel], X[sel], q, k)
        return [(int(i), float(x)) for i, x in zip(top, d)]

    parts, _ = C.plan_rows(pid, node, full)
    _, sub_sel = C.plan_rows(pid, node, sub)
    exp_full = C.expect_plan(ids, pid, node, X, full, q, k)
    exp_sub = C.expect_plan(ids, pid, node, X, sub, q, k)
    good = answer(parts)
    sixth = C.topk_exact(ids[parts], X[parts], q, k + 1)
    outside = int(ids[pid == 2][0])
    off_node = int(parts[node[parts] == "1/3"][0])  # in the plan's partitions, not its trie node
    _, exact_d = C.topk_exact(ids, X, q, k)
    good_exact = answer(ids)

    def plan(a, e=exp_full):
        return lambda: C.check_plan_answer(a, e, X, q, k)

    wrong_d = [(i, d + 1e-3) if r == 2 else (i, d) for r, (i, d) in enumerate(good)]
    dropped = good[:2] + good[3:] + [(int(sixth[0][-1]), float(sixth[1][-1]))]
    unplanned = good[:-1] + [(outside, float(C.ed_direct(X[[outside]], q)[0]))]
    good_sub = answer(sub_sel)
    off_sub = sorted(good_sub[:-1] + [(off_node, float(C.ed_direct(X[[off_node]], q)[0]))], key=lambda t: t[1])
    stored_dup = np.concatenate([ids[:-1], ids[:1]])
    return [
        ("correct plan answer", True, plan(good)),
        ("correct trie-node answer", True, plan(good_sub, exp_sub)),
        ("correct exact answer", True, lambda: C.check_exact_answer(good_exact, exact_d, X, q, k)),
        ("correct build", True, lambda: (C.check_stored_rows(ids, X, ids, X),
                                         C.check_partition_counts(pid, {0: 20, 1: 20, 2: 20}, n))),
        ("dropped id", False, plan(dropped)),
        ("short answer", False, plan(good[:-1])),
        ("wrong distance", False, plan(wrong_d)),
        ("id from an unplanned partition", False, plan(unplanned)),
        ("id outside the trie node", False, plan(off_sub, exp_sub)),
        ("dropped id, exact answer", False, lambda: C.check_exact_answer(
            good_exact[:-1] + [(outside, float(C.ed_direct(X[[outside]], q)[0]))], exact_d, X, q, k)),
        ("duplicated stored row", False, lambda: C.check_stored_rows(stored_dup, X[stored_dup], ids, X)),
        ("changed stored series", False, lambda: C.check_stored_rows(ids, X + (ids == 3)[:, None], ids, X)),
        ("wrong partition count", False, lambda: C.check_partition_counts(pid, {0: 20, 1: 21, 2: 19}, n)),
        ("counts not summing to N", False, lambda: C.check_partition_counts(pid, {0: 20, 1: 20, 2: 20}, n + 1)),
        ("wrong stored partition", False, lambda: C.check_assignment(pid, np.where(ids == 4, 9, pid), ids)),
        ("plan moved", False, lambda: C.check_same_plans([full], [sub], "plans")),
    ]


def run_selftest() -> List[str]:
    """Names of the cases the checkers got wrong (empty when all pass)."""
    wrong = []
    for name, should_pass, fn in _cases():
        try:
            fn()
            passed = True
        except C.CheckError:
            passed = False
        if passed != should_pass:
            wrong.append(f"{name}: {'rejected' if should_pass else 'accepted'}")
    return wrong


if __name__ == "__main__":
    bad = run_selftest()
    for line in bad:
        print(line)
    print(f"{len(_cases()) - len(bad)} of {len(_cases())} checker cases right")
    sys.exit(1 if bad else 0)
