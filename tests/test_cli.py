import hashlib
import json

import pytest

from shapecheck import calculus, cli, cppmacro, decls, measure, oracle
from shapecheck import fixtures as F


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestCheck:
    def test_zarith_accepted(self, tmp_path, capsys):
        path = write(tmp_path, "zarith.decl", F.ZARITH_DECL)
        code, out = run(capsys, ["check", path])
        assert code == 0
        assert out == (
            "gmp: accepted (imm: {}; block: {255})\n"
            "zarith: accepted (imm: top; block: {255})\n"
            "  Small: (imm: top; block: {})\n"
            "  Big: (imm: {}; block: {255})\n"
        )

    def test_clash_rejected_with_banner(self, tmp_path, capsys):
        path = write(tmp_path, "clash.decl", F.CLASH_DECL)
        code, out = run(capsys, ["check", path])
        assert code == 1
        assert "overlapping representations" in out

    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, "zarith.decl", F.ZARITH_DECL)
        code, out = run(capsys, ["check", "--json", path])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == 1
        assert doc["decls"][1]["verdict"] == "accepted"
        assert doc["decls"][1]["shape"] == "(imm: top; block: {255})"

    def test_json_cycle_fields(self, tmp_path, capsys):
        path = write(tmp_path, "loop.decl", F.LOOP_DECL)
        code, out = run(capsys, ["check", "--json", path])
        doc = json.loads(out)
        assert code == 1
        assert doc["decls"][1]["verdict"] == "rejected_cycle"
        assert doc["decls"][1]["cycle_path"] == ["loop", "loop"]

    def test_prims_override(self, tmp_path, capsys):
        prims = write(tmp_path, "prims.txt", "int = (imm: {0}; block: {})\n")
        path = write(tmp_path, "t.decl", "type t = A of int [@unboxed] | B\n")
        code, out = run(capsys, ["check", "--prims", prims, path])
        assert code == 1  # int is now {0}, clashing with the constant B
        assert "overlap" in out

    def test_missing_file_is_a_usage_error(self, capsys):
        assert cli.main(["check", "/nonexistent/x.decl"]) == 2

    def test_growing_lazy_like_argument_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "grow.decl", "type ('a) box = B of 'a\n"
                     "type ('a) t = L of ((('a) box) t) lazy [@unboxed]\n")
        assert cli.main(["check", path]) == 2
        assert "lazy-like arguments nest more than 100 levels" in capsys.readouterr().err

    def test_deeply_growing_lazy_like_argument_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "deep.decl", "type ('a) box = B of 'a\n"
                     "type ('a) t = L of ((((('a) box) box) box) t) lazy [@unboxed]\n"
                     "type u = U of (int) t [@unboxed]\n")
        assert cli.main(["check", path]) == 2
        assert capsys.readouterr().err == (
            "shapecheck: error: lazy-like arguments nest more than 100 levels deep\n")

    def test_cycle_reported_before_an_earlier_conflict(self, tmp_path, capsys):
        path = write(tmp_path, "t.decl", "type t = A | B of int [@unboxed] | C of t [@unboxed]\n")
        code, out = run(capsys, ["check", "--json", path])
        assert code == 1
        (doc,) = json.loads(out)["decls"]
        assert doc == {"name": "t", "verdict": "rejected_cycle",
                       "witness": {"name": "t", "trace": ["t"]}, "cycle_path": ["t", "t"]}

    def test_output_is_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "zarith.decl", F.ZARITH_DECL)
        _, first = run(capsys, ["check", path])
        _, second = run(capsys, ["check", path])
        assert first == second

    def test_unfold_limit_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # u unfolds in 2^11 + 1 steps
        monkeypatch.setattr(decls, "_UNFOLD_LIMIT", 1000)
        path = write(tmp_path, "two.decl", "type 'a two = L of 'a [@unboxed] | R of 'a [@unboxed]\n"
                     "type u = U of int" + " two" * 10 + " [@unboxed]\n")
        assert cli.main(["check", path]) == 2
        assert capsys.readouterr().err == "shapecheck: error: more than 1000 unfolding steps\n"


class TestNorm:
    def test_normal_form(self, tmp_path, capsys):
        path = write(tmp_path, "id.lam", F.ID_LAM)
        code, out = run(capsys, ["norm", path])
        assert code == 0
        assert out == "normal form: int\nsteps: 2\n"

    def test_divergence_message_and_exit(self, tmp_path, capsys):
        path = write(tmp_path, "loop.lam", F.LOOP_LAM)
        code, out = run(capsys, ["norm", path])
        assert code == 1
        assert out == "diverges: loop blocked with trace [loop]\nsteps: 1\n"

    def test_trace_with_measure_check(self, tmp_path, capsys):
        path = write(tmp_path, "id.lam", F.ID_LAM)
        code, out = run(capsys, ["norm", "--trace", "--check-measure", path])
        assert code == 0
        assert out == (
            "start: id[](id[](int[]))\n"
            "  measure: {[{} {} {}], [{} {}], [{}]}\n"
            "step id: id[](int[])\n"
            "  measure: {[{} {}], [{}]}\n"
            "step id: int[]\n"
            "  measure: {[{}]}\n"
            "normal form: int\n"
            "steps: 2\n"
            "measure: ok\n"
        )

    def test_higher_order_flag(self, tmp_path, capsys):
        path = write(tmp_path, "nil.lam", F.NIL_LAM)
        code, out = run(capsys, ["norm", "--higher-order", path])
        assert code == 0
        assert out == "normal form: fortytwo\nsteps: 4\n"

    def test_first_order_rejects_higher_order_text(self, tmp_path, capsys):
        path = write(tmp_path, "nil.lam", F.ACHAIN_LAM)
        assert cli.main(["norm", path]) == 2

    def test_json_fields(self, tmp_path, capsys):
        path = write(tmp_path, "loop.lam", F.LOOP_LAM)
        code, out = run(capsys, ["norm", "--json", "--check-measure", path])
        doc = json.loads(out)
        assert code == 1
        assert doc["verdict"] == "diverges"
        assert doc["witness"] == {"name": "loop", "trace": ["loop"]}
        assert doc["steps"] == 1
        assert doc["measure_ok"] is True

    def test_json_renders_no_step(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "id.lam", F.ID_LAM)
        argv = ["norm", "--trace", "--check-measure", "--json", path]
        expected = run(capsys, argv)

        def refuse(*args, **kwargs):
            raise AssertionError("rendered under --json")

        monkeypatch.setattr(calculus, "render_ann_term", refuse)
        monkeypatch.setattr(measure, "render_tree_measure", refuse)
        assert run(capsys, argv) == expected
        assert expected == (0, json.dumps({"schema": 1, "file": path, "verdict": "normal",
                                           "normal_form": "int", "steps": 2,
                                           "measure_ok": True}) + "\n")

    @pytest.mark.parametrize("flags", [[], ["--trace"], ["--json"]])
    def test_each_term_is_measured_once(self, tmp_path, capsys, monkeypatch, flags):
        defs = ["f0(x) = c(x)"] + [f"f{i}(x) = f{i - 1}(f{i - 1}(x))" for i in range(1, 7)]
        path = write(tmp_path, "expo6.lam", "let rec " + "\nand ".join(defs) + "\nin f6(k)\n")
        calls = []
        tree_measure = measure.tree_measure
        monkeypatch.setattr(measure, "tree_measure", lambda *a: calls.append(1) or tree_measure(*a))
        code, out = run(capsys, ["norm", "--check-measure", *flags, path])
        assert code == 0 and "127" in out
        assert len(calls) == 128  # the start and each of the 127 steps' terms

    def test_max_steps_guard(self, tmp_path, capsys):
        path = write(tmp_path, "id.lam", F.ID_LAM)
        assert cli.main(["norm", "--max-steps", "1", path]) == 2

    def test_innermost_strategy(self, tmp_path, capsys):
        path = write(tmp_path, "id.lam", F.ID_LAM)
        code, out = run(capsys, ["norm", "--strategy", "innermost", path])
        assert (code, out) == (0, "normal form: int\nsteps: 2\n")

    def test_deep_input_normalizes(self, tmp_path, capsys):
        n = 1500
        path = write(tmp_path, "deep.lam", "let rec id(x) = x in " + "id(" * n + "k" + ")" * n)
        code, out = run(capsys, ["norm", path])
        assert (code, out) == (0, "normal form: k\nsteps: 1500\n")

    def test_deep_normal_form_is_printed(self, tmp_path, capsys):
        defs = ["f0(x) = c(x)"] + [f"f{i}(x) = f{i - 1}(f{i - 1}(x))" for i in range(1, 11)]
        path = write(tmp_path, "expo10.lam", "let rec " + "\nand ".join(defs) + "\nin f10(k)\n")
        code, out = run(capsys, ["norm", path])
        assert (code, out) == (0, f"normal form: {'c(' * 1024}k{')' * 1024}\nsteps: 2047\n")

    def test_trace_and_measure_output_is_pinned(self, tmp_path, capsys):
        # SHA-1 of stdout and exit code of `norm --trace --check-measure`,
        # recorded before the two strategies' searches became one loop
        first, higher = calculus.Mode.FIRST_ORDER, calculus.Mode.CLOSED_HIGHER_ORDER
        inputs = [(F.ID_LAM, first), (F.LOOP_LAM, first), (F.NIL_LAM, higher),
                  (F.ACHAIN_LAM, higher), (F.DELTA_LAM, higher), (F.FSTOP_LAM, higher)]
        for mode in (first, higher):
            programs = oracle.gen_programs(0, oracle.GenParams(count=100, mode=mode))
            inputs += [(calculus.render_program(p), mode) for p in programs]
        digest = hashlib.sha1()
        for i, (text, mode) in enumerate(inputs):
            path = write(tmp_path, f"p{i}.lam", text)
            flags = ["--higher-order"] if mode is higher else []
            for strategy in ("outermost", "innermost"):
                code, out = run(capsys, ["norm", "--trace", "--check-measure",
                                         "--strategy", strategy, *flags, path])
                digest.update(f"{out}exit {code}\n".encode())
        assert digest.hexdigest() == "140159c0ae760b52032c0957f3225b8e1d563b8b"

    def test_multiple_files_emitted_in_input_order(self, tmp_path, capsys):
        a = write(tmp_path, "id.lam", F.ID_LAM)
        b = write(tmp_path, "loop.lam", F.LOOP_LAM)
        code, out = run(capsys, ["norm", a, b])
        assert code == 1
        assert out == (
            f"# {a}\nnormal form: int\nsteps: 2\n"
            f"# {b}\ndiverges: loop blocked with trace [loop]\nsteps: 1\n"
        )


class TestCpp:
    def test_expansion_output(self, tmp_path, capsys):
        path = write(tmp_path, "nil.cpp", F.NIL_CPP)
        code, out = run(capsys, ["cpp", path])
        assert (code, out) == (0, "42\n")

    def test_multiple_files_get_headers(self, tmp_path, capsys):
        a = write(tmp_path, "nil.cpp", F.NIL_CPP)
        b = write(tmp_path, "f.cpp", F.FSTOP_CPP)
        code, out = run(capsys, ["cpp", a, b])
        assert (code, out) == (0, f"# {a}\n42\n# {b}\nf ( stop , stop )\n")

    def test_show_hidesets(self, tmp_path, capsys):
        path = write(tmp_path, "f.cpp", F.FSTOP_CPP)
        code, out = run(capsys, ["cpp", "--show-hidesets", path])
        assert out == "f^{f,id} (^{f,id} stop^{f,id} , stop^{f,id} )^{f,id}\n"

    def test_deep_call_expands(self, tmp_path, capsys):
        n = 1500
        path = write(tmp_path, "deep.cpp", "#define f(x) x\n" + "f(" * n + "z" + ")" * n)
        assert run(capsys, ["cpp", path]) == (0, "z\n")

    def test_token_limit_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        # the argument doubles at each of 10 levels, in 12 substitutions
        monkeypatch.setattr(cppmacro, "_TOKEN_LIMIT", 1000)
        lines = ["#define z(x,y) c", "#define f0(x) z(x,x)"]
        lines += [f"#define f{i}(x) f{i - 1}(k(x,x))" for i in range(1, 11)]
        path = write(tmp_path, "dup.cpp", "\n".join(lines) + "\nf10(a)\n")
        assert cli.main(["cpp", path]) == 2
        assert capsys.readouterr().err == "shapecheck: error: more than 1000 tokens\n"


class TestCompareCpp:
    def test_agreement_text(self, tmp_path, capsys):
        path = write(tmp_path, "id.cpp", F.ID_CPP)
        code, out = run(capsys, ["compare-cpp", path])
        assert code == 0
        assert out.startswith("agreement: yes (normalized)\n")

    def test_agreement_json(self, tmp_path, capsys):
        path = write(tmp_path, "loop.cpp", F.LOOP_CPP)
        code, out = run(capsys, ["compare-cpp", "--json", path])
        doc = json.loads(out)
        assert code == 0
        assert doc["agrees"] is True and doc["outcome"] == "blocked"

    def test_not_first_order_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "nil.cpp", F.NIL_CPP)
        assert cli.main(["compare-cpp", path]) == 2

    def test_deep_expansion_agrees(self, tmp_path, capsys):
        # expo-8 expands to a 256-deep term; the comparison must not recurse
        defs = ["#define f0(x) c(x)"] + [f"#define f{i}(x) f{i - 1}(f{i - 1}(x))"
                                         for i in range(1, 9)]
        path = write(tmp_path, "expo8.cpp", "\n".join(defs) + "\nf8(k)\n")
        code, out = run(capsys, ["compare-cpp", path])
        assert code == 0
        assert out.startswith("agreement: yes (normalized)\n")

    def test_deep_call_agrees(self, tmp_path, capsys):
        n = 1500
        path = write(tmp_path, "deep.cpp", "#define f(x) x\n" + "f(" * n + "z" + ")" * n)
        code, out = run(capsys, ["compare-cpp", path])
        assert code == 0
        assert out.startswith("agreement: yes (normalized)\n")


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code = cli.main(["selftest", "--seed", "3", "--cases", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selftest: all suites passed" in out

    def test_zero_fuel_exits_two_before_any_suite(self, capsys, monkeypatch):
        called = []
        for name in dir(oracle):
            if name.startswith("run_"):
                monkeypatch.setattr(oracle, name, lambda *a, _name=name, **k: called.append(_name))
        assert cli.main(["selftest", "--fuel", "0"]) == 2
        assert capsys.readouterr().err == "shapecheck: error: fuel must be at least 1\n"
        assert called == []


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["norm", "--no-such-flag", "x"])
    assert exc.value.code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_internal_error_exits_three(monkeypatch, capsys):
    def boom(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_check", boom)
    assert cli.main(["check", "x.decl"]) == 3
    assert capsys.readouterr().err == (
        "shapecheck: internal error: RecursionError: maximum recursion depth exceeded\n")
