#!/usr/bin/env python3
"""Runs alternating parent/change benchmark pairs and appends the two
entries to BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload paper_campaign \\
        --parent <parent perfbench> --change <change perfbench> \\
        --parent-commit <parent sha> --seeds 111-120 --confirm 121-122
    python3 scripts/bench_pairs.py --selftest

Run from the repository root, with each side's perfbench binary built
from its own checkout (its own CARGO_TARGET_DIR). The run length, the
end-to-end metrics, their directions and bounds come from
BENCHMARK.json. One pair per seed, the side that runs first alternating
from pair to pair; the confirmation seeds continue the alternation.
Then three alternating `--trace 1 --seed 0` pairs give the exact work
counts, which must not differ between a side's runs, and each side's
median per-layer self times.

Each entry holds the median, q1 and q3 of every metric (linear
interpolation over the pairs in `seeds`), `pairs_won` (pairs in which
that side read better; ties count for neither), the work counts, the
failed and attempted operations, and every run at full precision.
Verdicts go to standard output, progress to standard error. A metric
reads `gain` only when the change won at least 9 in 10 pairs by a gap
wider than the parent's IQR, and the confirmation seeds agree: the
change won most of them and its confirmation median is better too.
Without that agreement, or without `--confirm`, it reads `unconfirmed
gain`.

`--selftest` recomputes the median, q1 and q3 of every committed entry
from its runs, and each pair of entries' pairs_won counts. Older entries
store runs rounded to 6 decimals, so a statistic agrees within 1e-6, and
a pair whose rounded runs tie may have been won by either side.
"""
import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_campaign", "replicate_sync", "warm_replay")


def seed_range(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quantile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    pos = (len(s) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def better(direction, a, b):
    """True when value `a` reads better than `b`."""
    return a < b if direction == "lower" else a > b


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return out, result


def work_counts(stdout):
    """The integer lines of perfbench's deterministic-work block."""
    counts = {}
    lines = iter(stdout.splitlines())
    for line in lines:
        if line.startswith("deterministic work per pass"):
            break
    for line in lines:
        m = re.fullmatch(r"  (\S+)\s+(\d+)", line)
        if not m:
            break
        counts[m.group(1)] = int(m.group(2))
    return counts


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count()}


def entry(commit, names, units, directions, runs, other, confirm, counts, seconds):
    metrics = {}
    won = {"pairs": len(runs)}
    for name in names:
        values = [r[name] for r in runs]
        metrics[name] = {"unit": units[name], "median": quantile(values, 0.5),
                         "q1": quantile(values, 0.25), "q3": quantile(values, 0.75)}
        won[name] = sum(better(directions[name], r[name], o[name]) for r, o in zip(runs, other))
    e = {
        "commit": commit,
        "host": host(),
        "pool_width": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "metrics": metrics,
        "pairs_won": won,
        "work_counts": counts,
        "failed_ops": sum(r["failed"] for r in runs),
        "attempted_ops": sum(r["attempted"] for r in runs),
        "seeds": [r["seed"] for r in runs],
        "runs": [{k: v for k, v in r.items() if k not in ("failed", "attempted")} for r in runs],
    }
    if confirm:
        e["confirmation_runs"] = [{k: v for k, v in r.items() if k not in ("failed", "attempted")}
                                  for r in confirm]
    return e


def judge(direction, bound, p, c, pc, cc):
    """One metric's row from the parent's and the change's runs of the
    pairs (`p`, `c`) and of the confirmation pairs (`pc`, `cc`): the
    medians, the change's delta, the pairs it won, the parent's IQR as a
    share of its median, and the verdict."""
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    spread = quantile(p, 0.75) - quantile(p, 0.25)
    share = spread / abs(pm) if pm else 0.0
    delta = (cm - pm) / abs(pm) if pm else 0.0
    worse = delta if direction == "lower" else -delta
    won = sum(better(direction, b, a) for a, b in zip(p, c))
    cwon = sum(better(direction, b, a) for a, b in zip(pc, cc))
    if p == c:
        text = "identical in every pair"
    elif share > bound:
        text = "unresolved: the parent's spread exceeds the bound"
    elif worse > bound:
        text = "WORSE than the bound"
    elif won >= 0.9 * len(p) and abs(cm - pm) > spread and worse < 0:
        if pc and 2 * cwon > len(pc) and better(direction, quantile(cc, 0.5), quantile(pc, 0.5)):
            text = "gain: won at least 9 in 10 pairs, gap exceeds the parent's IQR, confirmed"
        else:
            text = "unconfirmed gain: the confirmation seeds did not agree or did not run"
    else:
        text = "within the bound"
    if pc:
        text += (f"; confirmation won {cwon}/{len(pc)}, medians "
                 f"{quantile(pc, 0.5):.6g} -> {quantile(cc, 0.5):.6g}")
    return pm, cm, delta, won, share, text


def verdicts(bench, parent, change, parent_confirm, change_confirm):
    print(f"{'metric':<18} {'parent':>14} {'change':>14} {'delta':>8} {'won':>6} "
          f"{'IQR/med':>8} {'bound':>6}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        pm, cm, delta, won, share, text = judge(
            m["better"], bound, *([r[name] for r in runs]
                                  for runs in (parent, change, parent_confirm, change_confirm)))
        print(f"{name:<18} {pm:>14.6g} {cm:>14.6g} {delta:>+8.2%} {won:>3}/{len(parent):<2} "
              f"{share:>8.2%} {bound:>6.2f}  {text}")
    failed = sum(r["failed"] for r in parent + change + parent_confirm + change_confirm)
    print(f"failed operations over both sides and all pairs: {failed}")


def traced(sides, workload, seconds, pairs=3):
    """Work counts and median per-layer self times from `pairs`
    alternating `--trace 1 --seed 0` pairs; exits when a side's work
    counts differ between its runs."""
    counts = {"parent": [], "change": []}
    layers = {"parent": [], "change": []}
    for i in range(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            out, result = run(sides[side], workload, 0, seconds, 1)
            counts[side].append(work_counts(out))
            layers[side].append({k: v["value"] for k, v in result["metrics"].items()
                                 if k.startswith("self.")})
            print(f"traced {i + 1}/{pairs} {side}: self.pass_ms="
                  f"{layers[side][-1].get('self.pass_ms', 0.0):.6g}", file=sys.stderr)
    for side in ("parent", "change"):
        first = counts[side][0]
        for other in counts[side][1:]:
            if other != first:
                diff = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
                sys.exit(f"{side}: the work counts of its --trace 1 --seed 0 runs differ "
                         f"({', '.join(diff)}); the benchmark is not deterministic")
    medians = {side: {k: quantile([run[k] for run in layers[side]], 0.5) for k in layers[side][0]}
               for side in ("parent", "change")}
    return {side: counts[side][0] for side in counts}, medians


def measure(a):
    bench = benchmark()
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": a.parent, "change": a.change}
    runs = {"parent": [], "change": []}
    confirm = {"parent": [], "change": []}
    units = {}
    seeds = seed_range(a.seeds)
    confirm_seeds = seed_range(a.confirm) if a.confirm else []
    for i, seed in enumerate(seeds + confirm_seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            _, result = run(sides[side], a.workload, seed, seconds, 0)
            row = {"seed": seed}
            for name in names:
                row[name] = result["metrics"][name]["value"]
                units[name] = result["metrics"][name]["unit"]
            row["failed"], row["attempted"] = result["failed"], result["attempted"]
            (runs if seed in seeds else confirm)[side].append(row)
            shown = " ".join(f"{n}={row[n]:.6g}" for n in ("wall_s", "ns_per_event"))
            print(f"seed {seed} {side}: {shown} failed {row['failed']}", file=sys.stderr)
    counts, layers = traced(sides, a.workload, seconds)
    commits = {"parent": a.parent_commit,
               "change": f"child of {a.parent_commit} (the commit that adds this entry)"}
    entries = [entry(commits[s], names, units, directions, runs[s],
                     runs["change" if s == "parent" else "parent"], confirm[s], counts[s], seconds)
               for s in ("parent", "change")]
    path = os.path.join(ROOT, f"BENCH_{a.workload}.json")
    with open(path) as f:
        raw = f.read()
    doc = json.loads(raw)
    doc["entries"].extend(entries)
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=1, ensure_ascii=False) + ("\n" if raw.endswith("\n") else ""))
    print(f"{a.workload}: appended two entries to {path}")
    verdicts(bench, runs["parent"], runs["change"], confirm["parent"], confirm["change"])
    same = counts["parent"] == counts["change"]
    print(f"work counts of the --trace 1 --seed 0 runs: {'identical' if same else 'DIFFER'}")
    if not same:
        for k in sorted(set(counts["parent"]) | set(counts["change"])):
            if counts["parent"].get(k) != counts["change"].get(k):
                print(f"  {k}: {counts['parent'].get(k)} -> {counts['change'].get(k)}")
    print("per-layer self time, median of three alternating --trace 1 --seed 0 pairs "
          "(ms per pass):")
    for k in layers["parent"]:
        p, c = layers["parent"][k], layers["change"].get(k, 0.0)
        delta = f"{(c - p) / p:+8.2%}" if p else ""
        print(f"  {k:<24} {p:>12.3f} {c:>12.3f} {delta}")


def selftest():
    bench = benchmark()
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    stats = exact = bounded = 0
    errors = []
    for workload in WORKLOADS:
        with open(os.path.join(ROOT, f"BENCH_{workload}.json")) as f:
            entries = json.load(f)["entries"]
        for e in entries:
            for name, m in e["metrics"].items():
                values = [r[name] for r in e["runs"]]
                for key, p in (("median", 0.5), ("q1", 0.25), ("q3", 0.75)):
                    got = quantile(values, p)
                    if abs(got - m[key]) > 1e-6 + 1e-12 * abs(m[key]):
                        errors.append(f"{workload} {e['commit']}: {name} {key} "
                                      f"{m[key]} != {got} from its runs")
                stats += 1
        if len(entries) % 2:
            errors.append(f"{workload}: entries do not pair up")
        for parent, change in zip(entries[0::2], entries[1::2]):
            if parent["seeds"] != change["seeds"]:
                errors.append(f"{workload} {parent['commit']}: the pair's seeds differ")
                continue
            for name in parent["metrics"]:
                p = [r[name] for r in parent["runs"]]
                c = [r[name] for r in change["runs"]]
                ties = sum(a == b for a, b in zip(p, c))
                for e, wins in ((parent, sum(better(directions[name], a, b) for a, b in zip(p, c))),
                                (change, sum(better(directions[name], b, a) for a, b in zip(p, c)))):
                    stored = e["pairs_won"][name]
                    if not wins <= stored <= wins + ties:
                        errors.append(f"{workload} {e['commit']}: pairs_won {name} {stored}, "
                                      f"runs give {wins} with {ties} ties")
                    if ties:
                        bounded += 1
                    else:
                        exact += 1
    for err in errors:
        print(err, file=sys.stderr)
    print(f"{stats} entry metrics' median, q1 and q3 recomputed from their runs; "
          f"pairs_won checked exactly {exact} times, within ties {bounded} times; "
          f"{len(errors)} disagreements")
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--selftest", action="store_true",
                    help="recompute every committed entry's statistics from its runs")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--parent", help="the parent's perfbench binary")
    ap.add_argument("--change", help="the change's perfbench binary")
    ap.add_argument("--parent-commit", help="the parent's commit, as the entries name it")
    ap.add_argument("--seeds", help="pair seeds, e.g. 111-120")
    ap.add_argument("--confirm", help="confirmation seeds, e.g. 121-122")
    a = ap.parse_args()
    if a.selftest:
        return selftest()
    missing = [f for f in ("workload", "parent", "change", "parent_commit", "seeds")
               if getattr(a, f) is None]
    if missing:
        ap.error("required: " + ", ".join("--" + f.replace("_", "-") for f in missing))
    measure(a)
    return 0


if __name__ == "__main__":
    sys.exit(main())
