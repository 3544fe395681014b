"""Command-line interface: check / norm / cpp / compare-cpp / selftest."""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import calculus, cppmacro, decls, measure, oracle, shapes, syntax


def _strategy(name: str) -> calculus.Strategy:
    return (calculus.Strategy.LEFTMOST_OUTERMOST if name == "outermost"
            else calculus.Strategy.LEFTMOST_INNERMOST)


CONFLICT_BANNER = ("This declaration is invalid, some [@unboxed] annotations "
                   "introduce overlapping representations.")


def _report_lines(report: decls.CheckReport) -> list[str]:
    if isinstance(report, decls.Accepted):
        lines = [f"{report.decl}: accepted {shapes.render_shape(report.shape)}"]
        for ctor, shape in report.unboxed_arg_shapes:
            lines.append(f"  {ctor}: {shapes.render_shape(shape)}")
        return lines
    if isinstance(report, decls.RejectedConflict):
        return [
            f"{report.decl}: rejected",
            f"error: {CONFLICT_BANNER}",
            f"  {report.witness.describe()}",
        ]
    return [
        f"{report.decl}: rejected",
        f"error: unfolding of type {report.decl} does not terminate",
        f"  blocked on {report.name} with trace [{','.join(report.trace)}]; "
        f"path: {' -> '.join(report.path)}",
    ]


def _report_json(report: decls.CheckReport) -> dict:
    if isinstance(report, decls.Accepted):
        return {
            "name": report.decl,
            "verdict": "accepted",
            "shape": shapes.render_shape(report.shape),
            "unboxed": {c: shapes.render_shape(s) for c, s in report.unboxed_arg_shapes},
        }
    if isinstance(report, decls.RejectedConflict):
        w = report.witness
        return {
            "name": report.decl,
            "verdict": "rejected_conflict",
            "witness": {"side": w.side, "value": w.value,
                        "left": w.left_origin, "right": w.right_origin},
        }
    return {
        "name": report.decl,
        "verdict": "rejected_cycle",
        "witness": {"name": report.name, "trace": list(report.trace)},
        "cycle_path": list(report.path),
    }


def _per_file(args, report) -> int:
    """Run `report(path, text)` on each input file in order. It returns the
    file's output lines and exit code; the lines are printed under a
    `# path` header when there are several files and the output is text.
    The result is the highest exit code."""
    code = 0
    for path in args.files:
        with open(path, "r", encoding="utf-8") as f:
            lines, file_code = report(path, f.read())
        if len(args.files) > 1 and not getattr(args, "json", False):
            print(f"# {path}")
        for line in lines:
            print(line)
        code = max(code, file_code)
    return code


def _cmd_check(args) -> int:
    prims = shapes.load_prim_table(args.prims) if args.prims else shapes.default_prim_table()

    def report(path, text):
        reports = decls.check_decls(decls.parse_decls(text, prims), prims)
        code = int(any(not isinstance(r, decls.Accepted) for r in reports))
        if args.json:
            doc = {"schema": 1, "file": path, "decls": [_report_json(r) for r in reports]}
            return [json.dumps(doc)], code
        return [line for r in reports for line in _report_lines(r)], code

    return _per_file(args, report)


def _cmd_norm(args) -> int:
    mode = calculus.Mode.CLOSED_HIGHER_ORDER if args.higher_order else calculus.Mode.FIRST_ORDER
    strategy = _strategy(args.strategy)

    def report(path, text):
        program = calculus.parse_program(text, mode)
        lines: list[str] = []
        # --json prints no per-step line, so it renders no term and no measure
        trace = args.trace and not args.json
        show_measure = args.check_measure and not args.json
        measure_ok = True
        last = None  # the measure of the term before the next step, so each term is measured once
        if trace or args.check_measure:
            start = calculus.annotate(program.root, {}, None)
            if args.check_measure:
                last = measure.tree_measure(start, mode)
            if trace:
                lines.append(f"start: {calculus.render_ann_term(start, mode)}")
                if show_measure:
                    lines.append(f"  measure: {measure.render_tree_measure(last)}")

        def on_step(before, after, info):
            nonlocal measure_ok, last
            if trace:
                lines.append(f"step {info.name}: {calculus.render_ann_term(after, mode)}")
            if args.check_measure:
                m = measure.tree_measure(after, mode)
                if show_measure:
                    lines.append(f"  measure: {measure.render_tree_measure(m)}")
                if not measure.tree_measure_less(m, last):
                    measure_ok = False
                last = m

        hook = on_step if (trace or args.check_measure) else None
        outcome = calculus.normalize(program, strategy, max_steps=args.max_steps, on_step=hook)
        code = 0
        if isinstance(outcome, calculus.Normal):
            normal_form = calculus.render_term(outcome.term, mode)
            verdict = {"verdict": "normal", "normal_form": normal_form, "steps": outcome.steps}
            text_out = [f"normal form: {normal_form}", f"steps: {outcome.steps}"]
        else:
            w = outcome.witness
            verdict = {"verdict": "diverges",
                       "witness": {"name": w.name, "trace": list(w.trace)},
                       "steps": outcome.steps}
            text_out = [f"diverges: {w.name} blocked with trace [{','.join(w.trace)}]",
                        f"steps: {outcome.steps}"]
            code = 1
        if args.check_measure:
            verdict["measure_ok"] = measure_ok
            text_out.append(f"measure: {'ok' if measure_ok else 'VIOLATION'}")
            if not measure_ok:
                code = 2
        if args.json:
            return [json.dumps({"schema": 1, "file": path, **verdict})], code
        return lines + text_out, code

    return _per_file(args, report)


def _cmd_cpp(args) -> int:
    def report(path, text):
        defs, call = cppmacro.parse_macro_file(text)
        out = cppmacro.expand(call, defs)
        return [cppmacro.render_tokens(out, show_hide_sets=args.show_hidesets)], 0

    return _per_file(args, report)


def _cmd_compare_cpp(args) -> int:
    def report(path, text):
        defs, call = cppmacro.parse_macro_file(text)
        r = cppmacro.compare_first_order(defs, call)
        code = 0 if r.agrees else 1
        if args.json:
            return [json.dumps({"schema": 1, "file": path, "agrees": r.agrees,
                                "outcome": r.outcome, "cpp_output": r.cpp_output,
                                "calculus": r.calculus_outcome, "detail": r.detail})], code
        return [f"agreement: {'yes' if r.agrees else 'NO'} ({r.outcome})",
                f"cpp: {r.cpp_output}",
                f"calculus: {r.calculus_outcome}",
                f"detail: {r.detail}"], code

    return _per_file(args, report)


def _cmd_selftest(args) -> int:
    ok = oracle.selftest(seed=args.seed, cases=args.cases, fuel=args.fuel)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then kept: building
    it costs more than checking a small file. Each subcommand runs the
    `_cmd_<name>` function found when it is called."""
    parser = argparse.ArgumentParser(
        prog="shapecheck",
        description="Check [@unboxed] constructor annotations by head-shape "
                    "computation; normalize recursive definitions with on-the-fly "
                    "divergence detection; expand and cross-check macros.",
        epilog="Declaration files: `type ('a) pair name [@shape (imm: top; block: {0})] = "
               "Ctor of ty [@unboxed] | Other of ty * ty`. Program files: "
               "`let rec f(x) = body and g() = body in term` with `#` comments. "
               "Macro files: `#define NAME(args) body` lines then one call line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check [@unboxed] declarations in .decl files")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.add_argument("--prims", metavar="FILE", help="override the primitive shape table")

    p = sub.add_parser("norm", help="normalize a .lam program with divergence monitoring")
    p.add_argument("files", nargs="+")
    p.add_argument("--strategy", choices=("outermost", "innermost"), default="outermost")
    p.add_argument("--higher-order", action="store_true",
                   help="allow names as arguments and results")
    p.add_argument("--trace", action="store_true", help="print every reduction step")
    p.add_argument("--check-measure", action="store_true",
                   help="assert the termination measure decreases at every step")
    p.add_argument("--max-steps", type=int, default=None,
                   help="defensive step bound (default: unlimited)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cpp", help="expand a restricted macro file")
    p.add_argument("files", nargs="+")
    p.add_argument("--show-hidesets", action="store_true")

    p = sub.add_parser("compare-cpp", help="compare macro expansion against normalization")
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("selftest", help="run the oracle cross-checking suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--fuel", type=int, default=100_000)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (syntax.SourceError, cppmacro.MacroError, ValueError, OSError) as e:
        print(f"shapecheck: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # exit 1 is a verdict, so no crash may fall through to it
        print(f"shapecheck: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
