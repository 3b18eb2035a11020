import hashlib
import io
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import corrupt_family
from qabel import cli, registry
from qabel.abel import FamilyId, abel_poly
from qabel.cli import (
    ArityError,
    BinOp,
    Call,
    IntLit,
    NonScalarDenominator,
    ParseError,
    SymRef,
    UnknownFunction,
    eval_expr,
    parse_expr,
    run_command,
)
from qabel.mpoly import MPoly, Symbol
from qabel.operators import InvalidIndex
from qabel.qcomb import qint
from qabel.qfield import DivisionByZero, PoleAtPoint, QRat


def run(argv):
    err = io.StringIO()
    out, code = run_command(argv, stderr=err)
    return out, code, err.getvalue()


class TestParser:
    def test_precedence(self):
        tree = parse_expr("x^2 + q*a")
        assert tree == BinOp("+", BinOp("^", SymRef("x"), IntLit(2)), BinOp("*", SymRef("q"), SymRef("a")))

    def test_call(self):
        assert parse_expr("qbinom(4,2)") == Call("qbinom", (IntLit(4), IntLit(2)))

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x +")
        assert exc.value.offset == 3

    def test_left_associativity(self):
        tree = parse_expr("1 - 2 - 3")
        assert tree == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))

    def test_unary_minus(self):
        assert eval_expr(parse_expr("-x + 1")) == MPoly.one() - MPoly.var(Symbol.x)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_expr("frob(2)")

    def test_arity(self):
        with pytest.raises(ArityError):
            parse_expr("qbinom(4)")

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_expr("z + 1")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 2")
        assert exc.value.offset == 2

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("x^a")

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x ? 1")
        assert exc.value.offset == 2

    @pytest.mark.parametrize("text", ["²", "٣ + x"], ids=["superscript-two", "arabic-indic-three"])
    def test_non_ascii_digit(self, text):
        # Characters that str.isdigit accepts but are not ASCII digits: one
        # would reach int() and fail with no offset, the other read as 3.
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (str(exc.value), exc.value.offset) == (f"unexpected character {text[0]!r} at offset 0", 0)
        out, code, err = run(["eval", text, "--q", "1", "--x", "1"])
        assert (out, code) == ("", 2)
        assert err.startswith("error: unexpected character")

    def test_parse_error_pickles(self):
        # verify --jobs re-raises a worker's exception here from a pickle
        with pytest.raises(ParseError) as exc:
            parse_expr("qbinom(4,")
        err = exc.value
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is ParseError
        assert str(back) == str(err)
        assert (back.offset, back.expected) == (err.offset, err.expected)


class TestEval:
    def test_family_call(self):
        assert eval_expr(parse_expr("G(2)")) == abel_poly(FamilyId.G, 2)

    def test_qnum_times_x(self):
        assert eval_expr(parse_expr("qnum(3)*x")) == MPoly.var(Symbol.x).scale(qint(3))

    def test_scalar_denominator(self):
        out = eval_expr(parse_expr("x/(1-q)"))
        assert out == MPoly.var(Symbol.x).scale(QRat([1], [1, -1]))

    def test_non_scalar_denominator(self):
        with pytest.raises(NonScalarDenominator):
            eval_expr(parse_expr("1/x"))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            eval_expr(parse_expr("x/(1-1)"))

    def test_qpoch(self):
        from qabel.qcomb import qpoch

        assert eval_expr(parse_expr("qpoch(x,2)")) == qpoch(MPoly.var(Symbol.x), 2)

    def test_symbolic_index_rejected(self):
        with pytest.raises(InvalidIndex):
            eval_expr(parse_expr("qnum(x)"))

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidIndex):
            eval_expr(parse_expr("qfac(0-1)"))


ROUND_TRIP_CORPUS = [
    "G(2)",
    "A(3)",
    "B(4)",
    "Bg(2)",
    "w(3)",
    "S(2)",
    "abelc(3)",
    "qbinom(4,2)",
    "qpoch(x,3)",
    "qpoch(a*b,2)",
    "x^2*y - a*b^2/q",
    "(x + y)^3",
    "qnum(3)*x - qfac(3)",
    "x/(1-q)",
    "1 - x - y - a - b",
    "q^3*x - x/(q^2+q)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_render_parse_round_trip(text):
    value = eval_expr(parse_expr(text))
    assert eval_expr(parse_expr(str(value))) == value


class TestPolyCommand:
    def test_g2(self):
        out, code, _ = run(["poly", "G", "2"])
        assert code == 0
        assert out == "q*x^2 - (q + 1)*x*a - (q + 1)*x*b + (q + 1)*a*b + b^2\n"

    def test_family_zero(self):
        out, code, _ = run(["poly", "abelc", "0"])
        assert (out, code) == ("1\n", 0)

    def test_bad_family(self):
        _, code, err = run(["poly", "H", "2"])
        assert code == 2 and err

    def test_negative_index(self):
        _, code, err = run(["poly", "G", "-1"])
        assert code == 2 and err

    def test_g14_pinned(self):
        # Its q-coefficients reach degree 169 and 45 bits, so most products
        # in qprod are long enough to leave the schoolbook multiply.
        out, code, err = run(["poly", "G", "14"])
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "7ca4561e8ce0042decdb03259e2f137877280a97da9b30af2fe2e93c11c4e31d"


class TestEvalCommand:
    def test_qnum(self):
        out, code, _ = run(["eval", "qnum(3)", "--q", "2"])
        assert (out, code) == ("7\n", 0)

    def test_with_symbols(self):
        out, code, _ = run(["eval", "x^2 + a", "--q", "1", "--x", "3/2", "--a", "1/4"])
        assert (out, code) == ("5/2\n", 0)

    def test_missing_symbol(self):
        _, code, err = run(["eval", "x + 1", "--q", "1"])
        assert code == 2 and "--x" in err

    def test_pole_at_one(self):
        _, code, err = run(["eval", "x/(1-q)", "--q", "1", "--x", "1"])
        assert code == 2 and "q = 1" in err

    def test_q_one_without_pole(self):
        out, code, _ = run(["eval", "qbinom(4,2)", "--q", "1"])
        assert (out, code) == ("6\n", 0)

    def test_bad_rational(self):
        _, code, err = run(["eval", "x", "--q", "1", "--x", "oops"])
        assert code == 2 and err

    # Only what the message promises, ASCII [+-]p or [+-]p/r: an exponent
    # would build its power of ten in full, and decimals, digit separators,
    # blanks and non-ASCII digits are refused as in expressions.
    @pytest.mark.parametrize("value", ["1e10000000", "0.5", "\u0663", "1_000", " 3", "1/0"],
                             ids=["exponent", "decimal", "non-ascii", "underscore", "blank", "zero-den"])
    def test_rational_is_ascii_digits_only(self, value):
        expected = f"error: --x must be an integer or p/r rational, got {value!r}\n"
        assert run(["eval", "x", "--q", "1", "--x", value]) == ("", 2, expected)

    def test_signed_rationals(self):
        assert run(["eval", "q*x", "--q=-2/4", "--x", "+3"]) == ("-3/2\n", 0, "")

    # argparse takes a token that starts with "-" for an option unless it
    # reads as a negative int or decimal; a negative fraction is a value too.
    @pytest.mark.parametrize("argv", [["--x", "-2/3"], ["--x", "-3"], ["--x=-2/3"]],
                             ids=["fraction", "integer", "equals"])
    def test_negative_point_is_its_own_token(self, argv):
        x0 = Fraction(argv[-1].split("=")[-1])
        assert run(["eval", "x + a", "--q", "1", "--a", "1/6"] + argv) == (f"{x0 + Fraction(1, 6)}\n", 0, "")

    def test_negative_q_is_its_own_token(self):
        assert run(["eval", "q*x", "--q", "-2/3", "--x", "3"]) == ("-2\n", 0, "")

    def test_option_like_value_is_still_refused(self):
        assert run(["eval", "x", "--q", "1", "--x", "-foo"]) == ("", 2, "error: argument --x: expected one argument\n")

    def test_parse_error_offset(self):
        _, code, err = run(["eval", "x +", "--q", "1", "--x", "1"])
        assert code == 2 and "offset 3" in err


class TestExpandCommand:
    def test_x_squared(self):
        out, code, _ = run(["expand", "x^2"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0: b^2"
        assert lines[1] == "1: (q + 1)/q*a + (q + 1)/q*b"
        assert lines[2] == "2: 1/q"

    def test_rejects_y(self):
        _, code, err = run(["expand", "y + x"])
        assert code == 2 and err

    # argparse takes a token that starts with "-" and holds no blank for an
    # option; an expression that starts with "-" still reaches the command.
    def test_leading_minus(self):
        out, code, err = run(["expand", "-x^2"])
        assert (code, err) == (0, "")
        assert out == run(["expand", "-1*x^2"])[0] == run(["expand", "--", "-x^2"])[0]
        assert out.splitlines()[2] == "2: -1/q"

    def test_leading_minus_eval(self):
        assert run(["eval", "-x", "--q", "1", "--x", "2"]) == ("-2\n", 0, "")
        assert run(["eval", "--q", "1", "-x", "--x", "-2/3"]) == ("2/3\n", 0, "")
        assert run(["eval", "-(x - a)^2", "--x=-1", "--q", "2", "--a", "1"]) == ("-4\n", 0, "")

    def test_leading_minus_keeps_options(self, capsys):
        for argv in (["expand", "-h"], ["expand", "--help"], ["eval", "-h"]):
            assert run(argv) == ("", 0, "")
            assert capsys.readouterr().out.startswith("usage: qabel " + argv[0])
        assert run(["expand", "-x", "-y"]) == ("", 2, "error: unrecognized arguments: -y\n")
        assert run(["eval", "-x", "--q", "1", "--x", "-foo"]) == ("", 2, "error: argument --x: expected one argument\n")


class TestLagrangeCommand:
    def test_plain_on_exp(self):
        out, code, _ = run(["lagrange", "--mode", "plain", "--f", "e_xz", "--terms", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0: 1"
        assert lines[1] == "1: x"
        for k, line in enumerate(lines):
            prefix, text = line.split(": ", 1)
            assert int(prefix) == k
            assert text == str(abel_poly(FamilyId.B_PLAIN, k))

    def test_buermann_on_falling_exp(self):
        out, code, _ = run(["lagrange", "--mode", "buermann", "--f", "E_neg_yz", "--terms", "2"])
        assert code == 0 and out.splitlines()[0] == "0: 1"

    def test_z_builtin_general(self):
        out, code, _ = run(["lagrange", "--mode", "general", "--f", "z", "--terms", "2"])
        assert code == 0
        assert out.splitlines()[1] == "1: 1"

    def test_bad_mode(self):
        _, code, err = run(["lagrange", "--mode", "weird", "--f", "z", "--terms", "2"])
        assert code == 2 and err


class TestVerifyCommand:
    def test_single_identity_range(self):
        out, code, _ = run(["verify", "--id", "1.3", "--max-n", "4"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # five entries plus the summary
        assert all(line.startswith("pass") for line in lines[:5])
        assert lines[-1] == "total 5  passed 5  failed 0"

    def test_unknown_id(self):
        _, code, err = run(["verify", "--id", "99.9"])
        assert code == 2
        assert err == "error: unknown identity '99.9'\n"

    def test_json_report_schema(self):
        out, code, _ = run(["verify", "--id", "2.2", "--max-n", "3", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"entries", "total", "passed", "failed"}
        assert payload["total"] == payload["passed"] == len(payload["entries"]) == 10
        entry = payload["entries"][0]
        assert set(entry) == {"identity", "params", "status", "difference", "elapsed_ms"}
        assert entry["status"] == "pass" and entry["difference"] is None

    def test_text_and_json_verdicts_agree(self):
        text_out, text_code, _ = run(["verify", "--id", "5.4", "--max-n", "4"])
        json_out, json_code, _ = run(["verify", "--id", "5.4", "--max-n", "4", "--json"])
        assert text_code == json_code == 0
        payload = json.loads(json_out)
        text_statuses = [line.split()[0] for line in text_out.splitlines()[:-1]]
        json_statuses = ["pass" if e["status"] == "pass" else "FAIL" for e in payload["entries"]]
        assert text_statuses == json_statuses

    def test_jobs_deterministic(self):
        seq, code1, _ = run(["verify", "--id", "2.1", "--max-n", "4"])
        par, code2, _ = run(["verify", "--id", "2.1", "--max-n", "4", "--jobs", "4"])
        assert code1 == code2 == 0
        strip = lambda text: [line.split("(")[0] for line in text.splitlines()]
        assert strip(seq) == strip(par)

    def test_repeated_id_runs_once(self):
        out, code, _ = run(["verify", "--id", "5.4", "--id", "5.4", "--max-n", "2"])
        assert code == 0
        assert out.splitlines()[-1] == "total 3  passed 3  failed 0"

    def test_jobs_below_one_rejected(self):
        _, code, err = run(["verify", "--id", "5.4", "--jobs", "0"])
        assert code == 2 and "--jobs" in err

    def test_mutation_flips_exit_code(self):
        with corrupt_family(FamilyId.G, n=2):
            out, code, _ = run(["verify", "--id", "1.8", "--max-n", "3"])
        assert code == 1
        assert "FAIL" in out and "difference:" in out


# The elapsed times of verify's text and JSON reports.
_ELAPSED = re.compile(r"\(\d+\.\d ms\)|\"elapsed_ms\": [-+.\deE]+")


def _masked(result):
    out, code, err = result
    return _ELAPSED.sub("_", out), code, err


@pytest.fixture
def two_cpus(monkeypatch):
    """Let `--jobs 2` start two workers on a one-CPU host too."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _swap_check(monkeypatch, identity_id, compute):
    ident = registry.REGISTRY[identity_id]
    swapped = registry.Identity(ident.id, ident.description, ident.ranges, compute)
    monkeypatch.setitem(registry.REGISTRY, identity_id, swapped)


@pytest.mark.usefixtures("two_cpus")
class TestVerifyJobs:
    """`verify --jobs 2` runs each identity's checks as one task on forked
    worker processes; nothing of its report or exit code may change."""

    SEVERAL = ["verify", "--id", "1.8", "--id", "2.2", "--id", "5.9", "--id", "4.13", "--id", "3.3-vs-3.5",
               "--max-n", "3", "--order", "4"]

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_pool_output_matches_in_process(self, fmt):
        par = run(self.SEVERAL + fmt + ["--jobs", "2"])
        seq = run(self.SEVERAL + fmt)
        assert seq[1] == 0
        assert _masked(par) == _masked(seq)
        assert multiprocessing.active_children() == []

    def test_corrupted_family_fails_alike(self):
        argv = ["verify", "--id", "1.8", "--id", "1.7", "--id", "3.2", "--id", "2.1", "--max-n", "3"]
        with corrupt_family(FamilyId.G, n=2):
            par = run(argv + ["--jobs", "2"])
            seq = run(argv)
        assert seq[1] == 1 and "difference:" in seq[0]
        assert _masked(par) == _masked(seq)

    @pytest.mark.parametrize("error, text", [
        (lambda k: PoleAtPoint(Fraction(k)), "denominator vanishes at q = {k}"),
        (lambda k: ParseError("unexpected token", k, {")"}), "unexpected token at offset {k} (expected ))"),
    ])
    def test_worker_exception_reraised(self, monkeypatch, error, text):
        # Every check raises; the first identity's error is the one reported.
        for i, identity_id in enumerate(("5.5", "5.4", "0.3"), start=1):
            def raises(_i=i, **params):
                raise error(_i)
            _swap_check(monkeypatch, identity_id, raises)
        argv = ["verify", "--id", "5.5", "--id", "5.4", "--id", "0.3", "--max-n", "2"]
        par = run(argv + ["--jobs", "2"])
        assert par == run(argv) == ("", 2, f"error: {text.format(k=1)}\n")
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_2(self, monkeypatch):
        parent = os.getpid()

        def dies(**params):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("the check ran in the test process")

        _swap_check(monkeypatch, "5.4", dies)
        out, code, err = run(["verify", "--id", "5.5", "--id", "5.4", "--max-n", "2", "--jobs", "2"])
        assert (out, code) == ("", 2)
        assert err.startswith("error: ") and "worker" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_one_job_imports_no_pool(self):
        code = ("import sys; from qabel.cli import run_command; run_command(['verify', '--id', '5.4']); "
                "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.stdout == "[]\n", proc.stderr


def test_import_loads_no_code_generation_or_json():
    # Every command pays for `import qabel.cli` in a fresh interpreter, so it
    # leaves out what only some commands need (json) and what the records do
    # without (dataclasses and the modules it loads).
    code = ("import sys; import qabel.cli as cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'json') "
            "if m in sys.modules)); "
            "out, code = cli.run_command(['verify', '--json', '--id', '5.4']); print(code); sys.stdout.write(out)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    loaded, exit_code, report = proc.stdout.split("\n", 2)
    assert (loaded, exit_code) == ("[]", "0"), proc.stderr
    payload = json.loads(report)
    assert payload["total"] == payload["passed"] > 0 and payload["failed"] == 0


class TestListCommand:
    def test_lists_all_identities(self):
        from qabel.registry import identity_ids

        out, code, _ = run(["list"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(identity_ids())
        assert lines[0].startswith("0.3")
        assert any("verified" in line for line in lines)

    def test_verified_column_matches_default_enumeration(self):
        from qabel.registry import enumerate_checks, get_identity, identity_ids

        out, _, _ = run(["list"])
        for identity_id, line in zip(identity_ids(), out.splitlines()):
            text = get_identity(identity_id).verified
            assert f" verified: {text} " in line
            seen: dict[str, tuple[int, int]] = {}
            for _, params in enumerate_checks([identity_id]):
                for name, v in params.items():
                    lo, hi = seen.get(name, (v, v))
                    seen[name] = (min(lo, v), max(hi, v))
            assert _listed_bounds(text) == seen, identity_id


def _listed_bounds(text):
    """Per-parameter (min, max) read from a `verified` text such as
    "1 <= i <= 4, i+m <= k <= 6": a missing lower bound is 0, and a bound
    naming earlier parameters takes their extreme values."""
    bounds: dict[str, tuple[int, int]] = {}

    def value(bound, side):
        return sum(int(t) if t.isdigit() else bounds[t][side] for t in bound.split("+"))

    for clause in text.split(", "):
        words = clause.split(" ")
        if words[1] == "=":
            name, lo, hi = words[0], words[2], words[2]
        elif len(words) == 3:
            name, lo, hi = words[0], "0", words[2]
        else:
            lo, name, hi = words[0], words[2], words[4]
        bounds[name] = (value(lo, 0), value(hi, 1))
    return bounds


class TestUsage:
    def test_no_command(self):
        _, code, err = run([])
        assert code == 2

    def test_unknown_command(self):
        _, code, err = run(["frobnicate"])
        assert code == 2


def _backquoted(text, label):
    """(name, parameter list) of each backquoted name from `label` to the end of its sentence."""
    sentence = re.split(r"\.\s", text[text.index(label) + len(label):], maxsplit=1)[0]
    return re.findall(r"`(\w+)(?:\(([^)]*)\))?`", sentence)


def test_docs_name_every_cli_table_entry():
    # README and the module docstring name the functions, lagrange built-ins
    # and modes that the CLI's tables hold, in table order and no others.
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")) as fh:
        readme = fh.read()
    functions = _backquoted(readme, "Functions:")
    assert [(name, len(params.split(","))) for name, params in functions] == [
        (name, arity) for name, (arity, _) in cli._CALLS.items()
    ]
    assert [name for name, _ in _backquoted(readme, "Built-in series (`--f`):")] == list(cli._SERIES)
    assert [name for name, _ in _backquoted(readme, "Modes (`--mode`):")] == list(cli._MODES)
    listed = re.search(r"function calls\s+(.*?)\.\s", cli.__doc__, re.S).group(1)
    assert listed.split(", ") == list(cli._CALLS)


class TestDeepRecursion:
    # Inputs that recurse past the interpreter's depth limit end as usage
    # errors, not as a traceback with the exit code reserved for failed checks.
    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "(" * 2000 + "x" + ")" * 2000],
            ["eval", "qfac(1500)", "--q", "1"],
            ["eval", "qbinom(1500,3)", "--q", "1"],
            ["expand", "x^1100"],
        ],
        ids=["deep-parens", "qfac", "qbinom", "expand-degree"],
    )
    def test_exits_2_with_error(self, argv):
        out, code, err = run(argv)
        assert (out, code) == ("", 2)
        assert err.startswith("error: ")

    # A flat chain of + or * is evaluated in a loop, so its length is not
    # limited by the interpreter's depth limit.
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["expand", "+".join(["x"] * 3000)], "0: 3000*b\n1: 3000\n"),
            (["eval", "*".join(["x"] * 3000), "--q", "1", "--x", "1"], "1\n"),
        ],
        ids=["long-sum", "long-product"],
    )
    def test_flat_chain_succeeds(self, argv, expected):
        assert run(argv) == (expected, 0, "")


class TestHugeIndex:
    # An index or exponent too large for a tuple's length ends as a usage
    # error, not as a traceback with the exit code reserved for failed checks.
    # Only values that overflow at once: a merely large one allocates.
    @pytest.mark.parametrize(
        "argv",
        [["poly", "G", "99999999999999999999"], ["expand", "x^999999999999999999999999999999"]],
        ids=["poly-index", "expand-exponent"],
    )
    def test_exits_2_with_error(self, argv):
        assert run(argv) == ("", 2, "error: index or exponent too large to evaluate\n")


# Outputs whose coefficients carry a rational scalar beside a q-denominator.
# The split of the scalar between numerator and denominator shows in their
# text, so any change to how a coefficient stores its rational content is
# checked against these bytes.
@pytest.mark.parametrize(
    "argv,fragment,digest",
    [
        (["expand", "3/7*q^2*x^3 - 5/(2*q-4)*a*x"], "0: 3/7*q^2*b^3 - 5/2/(q - 2)*a*b\n",
         "1c1e0ae632a87fda4a84d548b3fcf908a88500182b040cbf71e9c071da701ace"),
        (["expand", "(x + a)^4/(1-2*q)"], "/(2*q^4 - q^3)*a^3",
         "093a332e21fd30a344640b3c11582c111ba89b40dc80881c5cd2517b2bf4dfdf"),
        (["eval", "qfac(4)/(2-3*q) + x/6", "--q", "5/3", "--x", "1/2"], "-425767/8748\n",
         "a0e3ff951f2c0d4d54945de782b20a03d8d6970b3bb00e31acd23cf1cda5e7ad"),
    ],
    ids=["expand-scalar-den", "expand-den-content", "eval-scalar-den"],
)
def test_scalar_denominators_pinned(argv, fragment, digest):
    out, code, err = run(argv)
    assert (code, err) == (0, "")
    assert fragment in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
