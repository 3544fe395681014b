"""shapecheck benchmark.

    python3 perfbench/run.py --workload norm-deep --seed 1 --seconds 25 --trace 0

Runs one workload (or `all` of them, one process each) from the root of a
source checkout, in one process with a closed loop and a single client:
each input is sent only after the previous verdict is back. Every verdict
is checked against a reference; a wrong one makes the exit code 1.

With `--trace 0` the run is untraced and reports the end-to-end metrics.
With `--trace 1` it spends half the time untraced and half with timing
wrappers bound over the library's public functions, and reports the
per-layer metrics from those spans together with the tracing overhead.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import percentiles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SUITES = ("monitor_demos", "measure", "correctness", "macro_agreement",
          "shape_semantics", "enumeration", "decl_agreement")
LAYERS = ("calculus", "oracle", "measure", "decls", "shapes", "cppmacro", "cli")


@dataclass
class Phase:
    """Timings of one measurement phase."""

    times: dict[str, list[float]]  # per input id, one entry per round
    walls: list[float] = field(default_factory=list)  # per round
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)


class _Failed:
    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"[:300]


def measure(items: list, seconds: float, seed: int, rec: spans.Recorder | None = None) -> Phase:
    """Whole rounds over all inputs, at least one, for `seconds`: another
    round starts only if one more as long as the last still ends in time.
    Each round's verdicts are checked after the round, outside its timing.

    Every round sends the inputs in a new order, so that collector pauses,
    which fall on whichever input crosses the allocation threshold, land
    on different inputs and drop out of the per-input medians. The heap is
    collected and frozen before each round: collections during the round
    then scan only what the round allocates, as in a process that checks
    one input, and not the benchmark's own inputs and references."""
    phase = Phase({it.id: [] for it in items})
    rng = random.Random(seed)
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        order = rng.sample(items, len(items))
        gc.collect()
        gc.freeze()
        outputs = []
        if rec is not None:
            rec.active = True
        start = perf_counter()
        for it in order:
            if rec is not None:
                rec.input_id = it.id
            t0 = perf_counter()
            try:
                out = it.run()
            except Exception as exc:  # counted in fail_ratio, never hidden
                out = _Failed(exc)
            phase.times[it.id].append(perf_counter() - t0)
            outputs.append(out)
        phase.walls.append(perf_counter() - start)
        if rec is not None:
            rec.active = False
        phase.attempted += len(items)
        for it, out in zip(order, outputs):
            if isinstance(out, _Failed):
                phase.failures.append(f"{it.id}: {out.text}")
                continue
            try:
                problem = it.check(out)
            except Exception as exc:  # an output the check cannot read is wrong
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                phase.wrong.append(f"{it.id}: {problem}")
        now = perf_counter()
        if now + (now - round_start) > deadline:
            return phase


def _growth(items: list, per_input: dict[str, float]) -> tuple[float, dict]:
    """Time ratio between the two largest sizes of each scaling family
    (summed over the inputs of a size); the geometric mean over families."""
    by_family: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for it in items:
        if it.size:
            by_family[it.family][it.size] += per_input[it.id]
    ratios = {}
    for family, sizes in by_family.items():
        if len(sizes) >= 2:
            second, largest = sorted(sizes)[-2:]
            ratios[f"{family}:{largest}/{second}"] = sizes[largest] / sizes[second]
    return statistics.geometric_mean(ratios.values()), ratios


def end_to_end(items: list, phase: Phase, setup_times: list[float]) -> tuple[dict, list[str]]:
    per_input = {i: statistics.median(ts) for i, ts in phase.times.items()}
    samples = list(per_input.values())
    tail, pct, n = percentiles.tail(samples)
    growth, ratios = _growth(items, per_input)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(phase.walls), "s"),
        "verdict_p50_ms": (1e3 * statistics.median(samples), "ms"),
        "verdict_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "growth_x": (growth, "x"),
    }
    slowest = sorted(per_input.items(), key=lambda kv: kv[1], reverse=True)[:percentiles.BEYOND + 1]
    notes = [
        "slowest inputs (ms): " + ", ".join(f"{i} {1e3 * t:.3f}" for i, t in slowest),
        f"verdict_tail_ms is p{pct} of n={n} inputs, each the median of {len(phase.walls)} round(s)",
        f"fail_ratio: {len(phase.failures) / phase.attempted:.6f} "
        f"({len(phase.failures)} of {phase.attempted} inputs raised)",
        "growth_x per family: " + ", ".join(f"{k} = {v:.3f}" for k, v in ratios.items()),
        f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"wall_s rounds: {', '.join(f'{t:.4f}' for t in phase.walls)}",
    ]
    family_ms = {it.id: 1e3 * per_input[it.id] for it in items if it.size}
    notes.append("family inputs (ms): " + json.dumps(family_ms, sort_keys=True))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


# ---------------------------------------------------------------------------
# Traced run


def _steps(args, r):
    return {"steps": r.steps, "blocked": int(type(r).__name__ == "Diverges")}


def _fuel(args, r):
    return {"steps": r.steps, "out_of_fuel": int(type(r).__name__ == "OutOfFuel")}


def _checked(args, r):
    return {"decls": len(r), "rejected": sum(type(x).__name__ != "Accepted" for x in r)}


def _tokens(args, r):
    return {"tokens": len(r)}


def targets(sc) -> list[spans.Target]:
    c, d, p, o = sc.calculus, sc.decls, sc.cppmacro, sc.oracle
    T = spans.Target
    return [
        T(c, "parse_program", "calculus.parse_program"),
        T(c, "normalize", "calculus.normalize", _steps),
        T(sc.measure, "assert_decrease", "measure.assert_decrease"),
        T(d, "parse_decls", "decls.parse_decls"),
        T(d, "check_decls", "decls.check_decls", _checked),
        T(d, "shape_disjoint_union", "shapes.shape_disjoint_union"),
        T(d, "component_shape", "shapes.component_shape"),
        T(p, "parse_macro_file", "cppmacro.parse_macro_file"),
        T(p, "compare_first_order", "cppmacro.compare_first_order"),
        T(p, "expand", "cppmacro.expand", _tokens),
        T(p, "hsadd", "cppmacro.hsadd", _tokens),
        T(o, "selftest", "oracle.selftest"),
        T(o, "fuel_normalize", "oracle.fuel_normalize", _fuel),
        *[T(o, f"run_{s}" if s == "monitor_demos" else f"run_{s}_suite", f"oracle.suite.{s}")
          for s in SUITES],
        T(sc.cli, "main", "cli.main"),
    ]


def per_layer(items: list, rec: spans.Recorder, traced: Phase, untraced: Phase,
              components: int) -> dict:
    rounds = len(traced.walls)
    self_t = spans.self_times(rec.spans)
    own: Counter = Counter()
    total: Counter = Counter()
    calls: Counter = Counter()
    work: dict[str, Counter] = defaultdict(Counter)
    size_of = {it.id: (it.family, it.size) for it in items}
    expo: dict[int, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for s, st in zip(rec.spans, self_t):
        own[s.name] += st
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        work[s.name].update(s.work)
        if s.name == "calculus.normalize" and size_of.get(s.input_id, ("",))[0] == "expo-n":
            acc = expo[size_of[s.input_id][1]]
            acc[0] += st
            acc[1] += s.work["steps"]

    def ratio(a, b):
        return a / b if b else 0.0

    traced_wall = statistics.median(traced.walls)
    m = {
        "calculus.normalize.self_s": (own["calculus.normalize"] / rounds, "s"),
        "calculus.steps": (work["calculus.normalize"]["steps"] / rounds, "count"),
        "calculus.us_per_step": (1e6 * ratio(own["calculus.normalize"],
                                             work["calculus.normalize"]["steps"]), "us"),
        "calculus.blocked_ratio": (ratio(work["calculus.normalize"]["blocked"],
                                         calls["calculus.normalize"]), "ratio"),
        "calculus.parse_program.s": (total["calculus.parse_program"] / rounds, "s"),
    }
    for n in workloads.NORM_SIZES:
        m[f"calculus.us_per_step.expo-{n}"] = (1e6 * ratio(*expo[n]), "us")
    m.update({
        "oracle.fuel_normalize.self_s": (own["oracle.fuel_normalize"] / rounds, "s"),
        "oracle.fuel_steps": (work["oracle.fuel_normalize"]["steps"] / rounds, "count"),
        "oracle.us_per_fuel_step": (1e6 * ratio(own["oracle.fuel_normalize"],
                                                work["oracle.fuel_normalize"]["steps"]), "us"),
        "oracle.out_of_fuel_ratio": (ratio(work["oracle.fuel_normalize"]["out_of_fuel"],
                                           calls["oracle.fuel_normalize"]), "ratio"),
    })
    for s in SUITES:
        m[f"oracle.suite.{s}.s"] = (total[f"oracle.suite.{s}"] / rounds, "s")
    m.update({
        "measure.assert_decrease.calls": (calls["measure.assert_decrease"] / rounds, "count"),
        "measure.us_per_call": (1e6 * ratio(total["measure.assert_decrease"],
                                            calls["measure.assert_decrease"]), "us"),
        "decls.check_decls.self_s": (own["decls.check_decls"] / rounds, "s"),
        "decls.us_per_decl": (1e6 * ratio(total["decls.check_decls"],
                                          work["decls.check_decls"]["decls"]), "us"),
        "decls.reject_ratio": (ratio(work["decls.check_decls"]["rejected"],
                                     work["decls.check_decls"]["decls"]), "ratio"),
        "decls.components": (components, "count"),
        "decls.parse_decls.s": (total["decls.parse_decls"] / rounds, "s"),
        "shapes.shape_disjoint_union.calls": (calls["shapes.shape_disjoint_union"] / rounds, "count"),
        "shapes.component_shape.calls": (calls["shapes.component_shape"] / rounds, "count"),
        "cppmacro.expand.self_s": (own["cppmacro.expand"] / rounds, "s"),
        "cppmacro.hsadd.calls": (calls["cppmacro.hsadd"] / rounds, "count"),
        "cppmacro.hsadd.tokens": (work["cppmacro.hsadd"]["tokens"] / rounds, "count"),
        "cppmacro.rebuild_per_out_token": (ratio(work["cppmacro.hsadd"]["tokens"],
                                                 work["cppmacro.expand"]["tokens"]), "ratio"),
        "cppmacro.parse_macro_file.s": (total["cppmacro.parse_macro_file"] / rounds, "s"),
        "cli.self_s": (own["cli.main"] / rounds, "s"),
    })
    layer_self: Counter = Counter()
    for name, t in own.items():
        layer_self[name.split(".")[0]] += t
    for layer in LAYERS:
        m[f"self_share.{layer}"] = (ratio(layer_self[layer] / rounds, traced_wall), "ratio")
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - statistics.median(untraced.walls), "s"),
        "trace.spans": (len(rec.spans) / rounds, "count"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------
# Provenance


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, items: list, rounds: int) -> dict:
    counts: dict[str, Counter] = defaultdict(Counter)
    for it in items:
        counts[it.family][str(it.size)] += 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "rounds": rounds,
        "inputs": {family: dict(sizes) for family, sizes in counts.items()},
    }


# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    build = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            sc = workloads.import_package()
            items = build(sc, args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        wrapped = targets(sc)
        originals = spans.snapshot(wrapped)

        spans.assert_original(wrapped, originals)
        untraced = measure(items, args.seconds / 2 if args.trace else args.seconds, args.seed)
        phases = [untraced]
        if args.trace:
            rec = spans.Recorder()
            installed = spans.Installed(wrapped, rec)
            try:
                traced = measure(items, args.seconds / 2, args.seed, rec)
            finally:
                installed.restore()
            spans.assert_original(wrapped, originals)
            phases.append(traced)
            decl_items = [it for it in items if it.source]
            metrics = per_layer(items, rec, traced, untraced,
                                workloads.decl_components(sc, decl_items))
            notes = []
        else:
            metrics, notes = end_to_end(items, untraced, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its inputs there
            pass

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    wrong = [w for p in phases for w in p.wrong]
    info = provenance(args, items, sum(len(p.walls) for p in phases))
    print("provenance: " + json.dumps(info, sort_keys=True))
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for line in failures[:10] + wrong[:10]:
        print(("FAILED " if line in failures else "WRONG ") + line)
    result = {"correct": not wrong, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"provenance": info, "notes": notes, "failures": failures, "wrong": wrong,
                    **result}, indent=1), encoding="utf-8")
    if args.trace:
        (out_dir / f"spans-{stem}.json").write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.input_id, s.work] for s in rec.spans]),
            encoding="utf-8")
    print(json.dumps(result))
    return 1 if wrong else 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "shapecheck" / "__init__.py").is_file():
        print(f"perfbench: no shapecheck package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
