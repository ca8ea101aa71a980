#!/usr/bin/env python3
"""Bench gates: run one bench's reduced gate run and check its report.

Every gated bench writes the shared report layout (bench/common/
bench_report.hpp):

  {"bench": name, "machine": {"cpus", "cpu_model", "build_type"},
   "config": {...}, "summary": {...}, "rows": {table: [flat row, ...]}}

RUNS says how to invoke each bench's reduced gate run. GATES holds every
gate, one row each, with its bound. A gate reads a summary value, or a
column on every row of a table (optionally filtered by `where`), and is
one of:

  <=, <, >=, ==   against a constant, or against another key of the same
                  row when the bound is a key name
  base==          equal to the committed baseline (BENCH_<bench>.json at
                  the repo root); table rows are matched on ROW_KEYS, rows
                  the baseline lacks are skipped, and at least one must match
  base/2          at least half the committed baseline (wall-clock gates are
                  machine-dependent, so they only catch a runaway regression)
  nondecreasing   non-decreasing along the `along` column within groups of
                  the other row keys

A gate with `min_cpus` is armed only when machine.cpus reaches it (a worker
pool cannot speed up a smaller box). A gated key that is missing or null,
or a filter matching no row, fails the gate.

Simulated-time benches (rendezvous, collectives) are machine-independent,
so their baseline compares are exact; a drift is a real protocol-cost
change that needs a deliberate baseline update.

Usage:
  scripts/bench_check.py {substrate|parallel|rendezvous|fabric|collectives}
      --binary PATH [--max-shard-tax N]
  scripts/bench_check.py --self-test [--max-shard-tax N]

--self-test runs no bench: for every gate it checks that the committed
baseline passes, and that a copy pushed just past the bound, or with the
gated key removed, fails.

Exit status: 0 ok, 1 regression, 2 usage/environment error.
"""

import argparse
import copy
import json
import operator
import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Arguments of each bench's reduced gate run; {out} is the report path.
RUNS = {
    "substrate": ["4096", "500", "{out}"],
    "parallel": ["0,1024", "100", "{out}"],
    "rendezvous": ["{out}"],
    "fabric": ["--hosts", "128", "--flows-per-host", "64", "--shards", "4",
               "--threads", "1,2", "--out", "{out}"],
    "collectives": ["--max-ranks", "128", "--out", "{out}"],
}

# Columns that identify a row of a table (baseline matching, grouping).
ROW_KEYS = {
    ("parallel", "sizes"): ("msg_size",),
    ("parallel", "alltoall"): ("msg_size", "threads"),
    ("parallel", "ring"): ("msg_size", "threads"),
    ("fabric", "threads"): ("threads",),
    ("fabric", "layers"): ("layer",),
    ("collectives", "results"): ("preset", "ranks", "op"),
}

OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
       "==": operator.eq}
BASE_OPS = {"base==": "==", "base/2": ">="}


class Gate(NamedTuple):
    bench: str
    key: str
    op: str
    bound: object = None
    table: str = None  # None: the summary
    where: tuple = ()  # ((column, op, value), ...)
    along: str = None  # nondecreasing only
    min_cpus: int = 0


FABRIC_LAYERS = ("src_queue", "transit", "deliver", "handler", "e2e")
BARRIER_64 = (("op", "==", "barrier"), ("ranks", ">=", 64))

GATES = [
    # Substrate: no runaway slowdown, no steady-state allocation (traced or
    # not), no physical per-hop payload copy, and the *modeled* copies per
    # message never drift (zero-copy is a simulator optimisation, not a
    # change to what the simulated machine is charged).
    Gate("substrate", "events_per_sec", "base/2"),
    Gate("substrate", "allocs_per_event", "<=", 0.01),
    Gate("substrate", "traced_allocs_per_event", "<=", 0.01),
    Gate("substrate", "real_hop_copies", "==", 0),
    Gate("substrate", "modeled_copies_per_msg", "base=="),
    # Parallel: bit-identical digests at every thread count; exactly zero
    # steady-state allocations on both workloads; dense windows (a collapse
    # to lookahead-sized quanta is a scheduler regression even when digests
    # match); the 1-thread shard tax vs the one-shard cluster of the same
    # run; the 1-thread rate; and the 4-thread speedup on >= 4 CPUs.
    Gate("parallel", "digest_ok", "==", True),
    Gate("parallel", "allocs_per_event", "<=", 0, table="alltoall"),
    Gate("parallel", "events_per_window", ">=", 50, table="alltoall"),
    Gate("parallel", "allocs_per_event", "<=", 0, table="ring"),
    Gate("parallel", "shard_tax_pct", "<=", 5.0, table="sizes"),
    Gate("parallel", "events_per_sec", "base/2", table="alltoall",
         where=(("threads", "==", 1),)),
    Gate("parallel", "speedup_4t_vs_1t", ">=", 1.5, table="sizes",
         min_cpus=4),
    # Rendezvous: the zero-copy proof (no per-hop copy, every payload byte
    # DMA-placed exactly once, endpoint copies below one payload: control
    # traffic only) and a single, unmoved eager/RDMA latency crossover.
    Gate("rendezvous", "hop_copies", "==", 0),
    Gate("rendezvous", "rdma_bytes", "==", "payload_bytes"),
    Gate("rendezvous", "endpoint_bytes", "<", "max_msg_bytes"),
    Gate("rendezvous", "advantage_flips", "==", 1),
    Gate("rendezvous", "crossover_bytes", "base=="),
    # Fabric: identical digests with every flow completed, zero steady-state
    # allocations, bounded coroutine frames per event (credit return visits
    # only the peers owed credits), and every latency layer present with
    # every flow observed and finite ordered quantiles.
    Gate("fabric", "digest_ok", "==", True),
    Gate("fabric", "allocs_per_event", "<=", 0, table="threads"),
    Gate("fabric", "frames_per_event", "<=", 3.0),
    *[Gate("fabric", col, "==", True, table="layers",
           where=(("layer", "==", layer),))
      for layer in FABRIC_LAYERS for col in ("complete", "quantiles_ordered")],
    # Collectives: one host interruption per NIC operation; no host handler
    # and no allocation in any NIC phase; host latency grows with ranks; the
    # NIC barrier beats the host one by 1.5x at 64+ ranks with a saving that
    # grows with scale; every overlapping row equals the baseline exactly.
    Gate("collectives", "completions_ok", "==", True),
    Gate("collectives", "nic_handler_starts", "==", 0, table="results"),
    Gate("collectives", "nic_allocs", "==", 0, table="results"),
    Gate("collectives", "host_us", "nondecreasing", table="results",
         along="ranks"),
    Gate("collectives", "speedup", ">=", 1.5, table="results",
         where=BARRIER_64),
    Gate("collectives", "saved_us", "nondecreasing", table="results",
         where=BARRIER_64, along="ranks"),
    Gate("collectives", "host_us", "base==", table="results"),
    Gate("collectives", "nic_us", "base==", table="results"),
]


def need(row, key):
    """row[key], failing the gate when the key is missing or null."""
    if row.get(key) is None:
        raise KeyError(key)
    return row[key]


def select(g, rep):
    if g.table is None:
        return [rep["summary"]]
    rows = [r for r in rep["rows"][g.table]
            if all(OPS[op](need(r, col), v) for col, op, v in g.where)]
    if not rows:
        raise KeyError(f"no rows.{g.table} row matches")
    return rows


def ident(g, row):
    return tuple(need(row, k) for k in ROW_KEYS.get((g.bench, g.table), ()))


def series(g, rows):
    """Rows grouped by their non-`along` keys, each sorted along `along`."""
    groups = {}
    for r in sorted(rows, key=lambda r: need(r, g.along)):
        key = tuple(need(r, k) for k in ROW_KEYS[(g.bench, g.table)]
                    if k != g.along)
        groups.setdefault(key, []).append(r)
    return list(groups.values())


def bound_of(g, row, base_index):
    """The value row[g.key] is compared against."""
    if g.op.startswith("base"):
        want = need(base_index[ident(g, row)], g.key)
        return want if g.op == "base==" else want / 2
    return need(row, g.bound) if isinstance(g.bound, str) else g.bound


def evaluate(g, rep, base):
    """Failure messages of gate g on rep; None when the gate is not armed."""
    if g.min_cpus and need(rep["machine"], "cpus") < g.min_cpus:
        return None
    rows = select(g, rep)
    if g.op == "nondecreasing":
        return [f"{ident(g, b)}: {b[g.key]} < {a[g.key]} at "
                f"{g.along}={a[g.along]}"
                for s in series(g, rows) for a, b in zip(s, s[1:])
                if need(b, g.key) < need(a, g.key)]
    index = {}
    if g.op.startswith("base"):
        index = {ident(g, r): r for r in select(g, base)}
        rows = [r for r in rows if ident(g, r) in index]
        if not rows:
            return ["no row matches the committed baseline"]
    op = OPS[BASE_OPS.get(g.op, g.op)]
    return [f"{ident(g, r) or g.key}: {need(r, g.key)} vs {bound_of(g, r, index)}"
            for r in rows if not op(need(r, g.key), bound_of(g, r, index))]


def describe(g):
    where = " where " + ", ".join(f"{c} {o} {v}" for c, o, v in g.where) \
        if g.where else ""
    scope = f"rows.{g.table}" if g.table else "summary"
    bound = "" if g.bound is None else f" {g.bound}"
    along = f" along {g.along}" if g.along else ""
    return f"{scope}.{g.key} {g.op}{bound}{along}{where}"


def check(g, rep, base):
    """Evaluate one gate; a missing key or mistyped value fails it."""
    try:
        fails = evaluate(g, rep, base)
    except (KeyError, TypeError) as e:
        fails = [f"missing or mistyped: {e}"]
    if fails is None:
        return "skip", [f"needs {g.min_cpus} cpus, machine has "
                        f"{rep['machine']['cpus']}"]
    return ("FAIL" if fails else "ok"), fails


def observed(g, rep):
    """The gated value, or its range over the selected rows, for the log."""
    try:
        vals = [need(r, g.key) for r in select(g, rep)]
    except KeyError:
        return ""
    if len(vals) > 1 and all(isinstance(v, (int, float)) for v in vals):
        return f" ({min(vals)} .. {max(vals)} over {len(vals)} rows)"
    return f" ({', '.join(map(str, vals))})"


def load(bench):
    with open(os.path.join(ROOT, f"BENCH_{bench}.json")) as f:
        return json.load(f)


def run_gates(bench, binary, gates):
    base = load(bench)
    with tempfile.TemporaryDirectory(prefix="bench_check_") as tmp:
        out = os.path.join(tmp, "report.json")
        cmd = [binary] + [a.format(out=out) for a in RUNS[bench]]
        # A bench exits non-zero when its own checks fail; the gates below
        # see the same failure in the report, so only a missing report is
        # an error.
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        with open(out) as f:
            rep = json.load(f)
    print(f"bench_check: {bench} (exit {proc.returncode}), machine "
          f"{rep.get('machine')}")
    ok = True
    for g in gates:
        if g.bench != bench:
            continue
        status, notes = check(g, rep, base)
        ok = ok and status != "FAIL"
        print(f"  {status:4s}  {describe(g)}{observed(g, rep)}")
        for n in notes:
            print(f"          {n}", file=sys.stderr if status == "FAIL"
                  else sys.stdout)
    return ok


def push_past(g, rep):
    """Mutate rep, a copy of the baseline, so that gate g sees one value
    just past its bound (worked out here, not by the evaluator)."""
    rows = select(g, rep)
    if g.op == "nondecreasing":
        a, b = next(s for s in series(g, rows) if len(s) > 1)[:2]
        b[g.key] = a[g.key] - 1e-3
        return
    row = rows[0]
    v = row[g.key]  # the baseline's own value
    b = row[g.bound] if isinstance(g.bound, str) else g.bound
    eps = 1e-6 * max(1.0, abs(v), abs(b or 0))
    if g.op == "base/2":
        row[g.key] = v / 2 - eps
    elif g.op == "base==":
        row[g.key] = v + 1
    elif isinstance(b, bool):
        row[g.key] = not b
    else:
        row[g.key] = {"<=": b + eps, "<": b, ">=": b - eps, "==": b + 1}[g.op]


def self_test(gates):
    """Every gate passes the committed baseline and fails just past it."""
    bad = 0
    for g in gates:
        base = load(g.bench)
        cases = [("committed baseline", lambda r: None, False),
                 ("pushed past the bound", lambda r: push_past(g, r), True),
                 ("gated key removed",
                  lambda r: select(g, r)[0].pop(g.key), True)]
        if g.min_cpus:
            cases.append(("machine.cpus removed",
                          lambda r: r["machine"].pop("cpus"), True))
        if isinstance(g.bound, str):
            cases.append(("bound key removed",
                          lambda r: select(g, r)[0].pop(g.bound), True))
        for name, mutate, must_fail in cases:
            rep = copy.deepcopy(base)
            if must_fail and g.min_cpus:  # arm the gate on any machine
                rep["machine"]["cpus"] = max(rep["machine"]["cpus"],
                                             g.min_cpus)
            mutate(rep)
            status, notes = check(g, rep, base)
            if (status == "FAIL") != must_fail:
                bad += 1
                print(f"self-test: {g.bench} {describe(g)}: {name} gave "
                      f"{status} {notes}", file=sys.stderr)
    print(f"self-test: {len(gates)} gates, {bad} wrong verdicts")
    return bad == 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("bench", nargs="?", choices=sorted(RUNS))
    ap.add_argument("--binary", help="path to the bench executable")
    ap.add_argument("--max-shard-tax", type=float,
                    help="bound of the parallel shard-tax gate, in %% "
                         "(default 5)")
    ap.add_argument("--self-test", action="store_true",
                    help="check every gate against the committed baselines")
    args = ap.parse_args()
    gates = [g._replace(bound=args.max_shard_tax)
             if g.key == "shard_tax_pct" and args.max_shard_tax is not None
             else g for g in GATES]
    try:
        if args.self_test:
            return 0 if self_test(gates) else 1
        if not args.bench or not args.binary:
            ap.error("need a bench name and --binary (or --self-test)")
        return 0 if run_gates(args.bench, args.binary, gates) else 1
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_check: failed: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
