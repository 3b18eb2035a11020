"""The immutable records of the library: QPoly, Monomial, AbelCoefficients,
Span, Identity, CheckResult, the parse-tree nodes and Report.

Each is built by position and by name, compares and hashes over its type and
fields, shows the repr `Name(field=value, ...)`, refuses assignment, and the
ones that cross `verify --jobs` workers survive a pickle.
"""
import pickle
from fractions import Fraction

import pytest

from qabel.abel import AbelCoefficients, FamilyId, abel_expand
from qabel.cli import BinOp, Call, IntLit, Report, SymRef, parse_expr
from qabel.mpoly import A, B, MPoly, Monomial, X
from qabel.qfield import QPoly
from qabel.registry import CheckResult, Identity, Span


def _check(status="pass", elapsed=0.5):
    return CheckResult("1.3", {"n": 3}, status, None, elapsed)


# (class, fields in order, values of one record, values of a different one, its repr)
RECORDS = [
    (QPoly, ("coeffs",), ((Fraction(1), Fraction(-2, 3)),), ((Fraction(1),),),
     "QPoly(coeffs=(Fraction(1, 1), Fraction(-2, 3)))"),
    (Monomial, ("exps",), ((1, 0, 2, 0, 0),), ((0, 1, 2, 0, 0),), "Monomial(exps=(1, 0, 2, 0, 0))"),
    (AbelCoefficients, ("basis", "coeffs"), (FamilyId.G, (A, MPoly.const(2))), (FamilyId.A, (A, MPoly.const(2))),
     "AbelCoefficients(basis=<FamilyId.G: 'G'>, coeffs=(MPoly(a), MPoly(2)))"),
    (Span, ("lo", "hi", "cap"), (1, "order", 4), (1, "order", None), "Span(lo=1, hi='order', cap=4)"),
    (Identity, ("id", "description", "ranges", "compute"), ("z", "d", {"n": Span()}, len),
     ("z", "d", {"n": Span(cap=2)}, len),
     "Identity(id='z', description='d', ranges={'n': Span(lo=0, hi='max_n', cap=None)}, "
     "compute=<built-in function len>)"),
    (CheckResult, ("identity_id", "params", "status", "difference", "elapsed"), ("1.3", {"n": 3}, "pass", None, 0.5),
     ("1.3", {"n": 3}, "fail", "q", 0.5),
     "CheckResult(identity_id='1.3', params={'n': 3}, status='pass', difference=None, elapsed=0.5)"),
    (IntLit, ("value",), (2,), (3,), "IntLit(value=2)"),
    (SymRef, ("name",), ("x",), ("y",), "SymRef(name='x')"),
    (BinOp, ("op", "left", "right"), ("^", SymRef("x"), IntLit(2)), ("*", SymRef("x"), IntLit(2)),
     "BinOp(op='^', left=SymRef(name='x'), right=IntLit(value=2))"),
    (Call, ("name", "args"), ("qint", (IntLit(3),)), ("qfac", (IntLit(3),)),
     "Call(name='qint', args=(IntLit(value=3),))"),
    (Report, ("entries", "format"), ((_check(),), "json"), ((_check(),), "text"),
     "Report(entries=(CheckResult(identity_id='1.3', params={'n': 3}, status='pass', difference=None, "
     "elapsed=0.5),), format='json')"),
]
UNHASHABLE = (Identity, CheckResult, Report)  # they hold dicts
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_agree(self, cls, names, values, other, text):
        rec = cls(*values)
        assert rec == cls(**dict(zip(names, values)))
        assert tuple(getattr(rec, n) for n in names) == values

    def test_equality(self, cls, names, values, other, text):
        assert cls(*values) == cls(*values)
        assert not cls(*values) != cls(*values)
        assert cls(*values) != cls(*other)
        assert not cls(*values) == cls(*other)
        assert cls(*values) != values and cls(*values) != object()

    def test_hash_agrees_with_equality(self, cls, names, values, other, text):
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(cls(*values))
            return
        assert hash(cls(*values)) == hash(cls(*values))
        assert len({cls(*values), cls(*values), cls(*other)}) == 2

    def test_repr(self, cls, names, values, other, text):
        assert repr(cls(*values)) == text

    def test_refuses_assignment(self, cls, names, values, other, text):
        rec = cls(*values)
        with pytest.raises(AttributeError):
            setattr(rec, names[0], values[0])
        with pytest.raises(AttributeError):
            rec.extra = 1
        with pytest.raises(AttributeError):
            delattr(rec, names[-1])
        assert getattr(rec, names[-1]) == values[-1]

    def test_wrong_arguments(self, cls, names, values, other, text):
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{names[-1]: values[-1], "extra": 1})
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})


class TestDefaults:
    def test_span(self):
        assert Span() == Span(0, "max_n", None)
        assert repr(Span()) == "Span(lo=0, hi='max_n', cap=None)"
        assert Span(hi=3) == Span(0, 3)
        assert Span("order", "order") == Span(lo="order", hi="order", cap=None)

    def test_report(self):
        assert Report(()) == Report((), "text") == Report(entries=())
        assert Report(()).format == "text"

    def test_required_fields(self):
        with pytest.raises(TypeError):
            IntLit()
        with pytest.raises(TypeError):
            Report(format="json")


class TestPickle:
    """verify --jobs sends CheckResults back from its workers in a pickle."""

    @pytest.mark.parametrize("rec", [
        _check(),
        CheckResult("2.2", {"n": 1, "k": 0}, "fail", "q - 1", 0.25),
        abel_expand(X ** 2 + A * X + B),
        parse_expr("x^2 + qbinom(3, 1)*a - w(2)/(1 + q)"),
        QPoly.of([1, 0, Fraction(1, 2)]),
        Monomial((0, 1, 0, 0, 3)),
        Span("order", "order"),
    ], ids=lambda r: type(r).__name__)
    def test_round_trip(self, rec):
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec)
        assert back == rec
        assert repr(back) == repr(rec)


class TestPostInitChecks:
    def test_qpoly_trailing_zero(self):
        with pytest.raises(ValueError, match="leading coefficient"):
            QPoly((Fraction(1), Fraction(0)))
        with pytest.raises(ValueError):
            QPoly(coeffs=(Fraction(0),))
        assert QPoly(()).is_zero()

    def test_abel_coefficients_free_of_x(self):
        with pytest.raises(ValueError, match="free of x"):
            AbelCoefficients(FamilyId.G, (A, X))
        with pytest.raises(ValueError):
            AbelCoefficients(basis=FamilyId.A, coeffs=(X * A,))
        assert AbelCoefficients(FamilyId.G, (A, B)).coeffs == (A, B)
