"""Exact scalar/vector/covector layer, and the Record base of the lab's result types."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minmodlab
from minmodlab.exactnum import (
    Covector,
    Record,
    Vector,
    as_rational,
    basis_vector,
    dual_norm_l1,
    format_rational,
    parse_rational,
    sup_norm,
)
from minmodlab.linops import Dense, RankOne

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=32)


def test_as_rational_accepts_exact_inputs():
    assert as_rational(3) == Fraction(3)
    assert as_rational("2/3") == Fraction(2, 3)
    assert as_rational(Fraction(5, 7)) == Fraction(5, 7)


def test_as_rational_rejects_inexact_inputs():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        as_rational(None)


def _float_uses(tree: ast.AST):
    """(line, what) for each float literal, float(...) call, inf or nan name or attribute, and inf or nan import."""
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)  # of a Name or an Attribute
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...) call"
        elif isinstance(node, (ast.Name, ast.Attribute)) and name in ("inf", "nan"):
            yield node.lineno, f"name {name}"
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, f"import of {alias.name}") for alias in node.names if alias.name in ("inf", "nan"))


def test_the_core_has_no_float():
    # isinstance(value, float) stays allowed: as_rational names the type to refuse a float, and makes none
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(Path(minmodlab.__file__).parent.glob("*.py"))
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    assert sorted(_float_uses(ast.parse("from math import inf\nx = 0.5 + float(y) + math.nan"))) == [
        (1, "import of inf"), (2, "float literal 0.5"), (2, "float(...) call"), (2, "name nan"),
    ]


def _unicode_digit_patterns(tree: ast.AST):
    r"""(line, pattern) for each ``re.*`` call on a pattern literal with \d that does not pass re.ASCII (or re.A)."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and _is_re(func.value)):
            continue
        pattern = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "pattern"), None)
        if not (isinstance(pattern, ast.Constant) and isinstance(pattern.value, str) and "\\d" in pattern.value):
            continue
        flags = (n.attr for arg in (*node.args[1:], *(k.value for k in node.keywords)) for n in ast.walk(arg)
                 if isinstance(n, ast.Attribute) and _is_re(n.value))
        if not {"ASCII", "A"} & set(flags):
            yield node.lineno, pattern.value


def _is_re(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "re"


def test_the_core_reads_ascii_digits_only():
    # without re.ASCII, \d matches every Unicode decimal digit, and int() and Fraction() then read them
    found = [
        f"{path.name}:{line}: {pattern!r}"
        for path in sorted(Path(minmodlab.__file__).parent.glob("*.py"))
        for line, pattern in _unicode_digit_patterns(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
    snippet = "\n".join([
        r'a = re.compile(r"^\d+$")',
        r'b = re.compile(r"\d", re.ASCII)',
        r'c = re.fullmatch(pattern=r"x\d", string=s, flags=re.I | re.A)',
        r'd = re.match("[0-9]", s) or other.match(r"\d", s)',
        r'e = re.search(r"\d", s, re.IGNORECASE)',
        r'f = re.sub(pattern=r"\d", repl="", string=s)',
    ])
    assert list(_unicode_digit_patterns(ast.parse(snippet))) == [(1, r"^\d+$"), (5, r"\d"), (6, r"\d")]


def _int_types(tree: ast.AST):
    """The line of each ``type=int`` keyword, which hands an argument to int() and its non-ASCII digits."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "type" and getattr(node.value, "id", None) == "int":
            yield node.value.lineno


def test_cli_integers_read_ascii_digits_only():
    path = Path(minmodlab.__file__).parent / "cli.py"
    assert list(_int_types(ast.parse(path.read_text(encoding="utf-8"), str(path)))) == []
    snippet = "\n".join([
        'p.add_argument("n", type=int)',
        'p.add_argument("--seed", type=_integer, default=int("3"))',
        'options = dict(type=int, default=10)',
    ])
    assert list(_int_types(ast.parse(snippet))) == [1, 3]


def test_rational_wire_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-3)) == "-3"
    assert parse_rational("-3/6") == Fraction(-1, 2)
    # digits are ASCII only: not an Arabic-Indic two or three, a fullwidth two or a superscript two
    for bad in ("1.5", "3e2", "a/b", "1/2/3", "", "1/0", "-2/00", "1_000",
                "\u0662", "\uff12", "\u00b2", "1/\u0663", "\u0662/3"):
        with pytest.raises(ValueError, match="not an exact rational literal"):
            parse_rational(bad)


@given(rationals)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_sup_norm_examples():
    assert sup_norm(Vector([1, "-1/2", "1/4"])) == 1
    assert sup_norm(Vector([0] * 5)) == 0
    assert sup_norm(Vector(["1/3", "-2/3"])) == Fraction(2, 3)


def test_dual_norm_examples():
    assert dual_norm_l1(Covector([0, "1/2", "1/4"])) == Fraction(3, 4)
    assert dual_norm_l1(Covector([0, 0, 0])) == 0
    assert dual_norm_l1(Covector([1, -1])) == 2


def test_evaluate_examples():
    g = Covector([0, "1/2", "1/4"])
    assert g(Vector([1, 1, 1])) == Fraction(3, 4)
    assert g(Vector([0] * 3)) == 0
    assert Covector([0, "1/2"])(Vector([1, "2/3"])) == Fraction(1, 3)


def test_evaluate_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Covector([1, 2])(Vector([1, 2, 3]))


def test_coordinates_are_one_based():
    x = Vector([5, 6, 7])
    assert x.coord(1) == 5 and x.coord(3) == 7
    with pytest.raises(IndexError, match=r"^coordinate 0 outside 1\.\.3$"):
        x.coord(0)
    with pytest.raises(IndexError, match=r"^coordinate 4 outside 1\.\.3$"):
        x.coord(4)
    g = Covector(["1/2", "1/3"])
    assert g.coeff(2) == Fraction(1, 3)
    with pytest.raises(IndexError, match=r"^coefficient 3 outside 1\.\.2$"):
        g.coeff(3)


def test_basis_and_embed():
    e2 = basis_vector(2, 4)
    assert e2.coords == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        basis_vector(5, 4)


def test_empty_rejected():
    with pytest.raises(ValueError, match="^a vector needs at least one coordinate$"):
        Vector(())
    with pytest.raises(ValueError, match="^a covector needs at least one coefficient$"):
        Covector([])


@settings(max_examples=60)
@given(st.lists(rationals, min_size=1, max_size=6), rationals)
def test_sup_norm_is_a_norm(coords, c):
    x = Vector(tuple(coords))
    assert sup_norm(x) >= 0
    assert (sup_norm(x) == 0) == all(v == 0 for v in coords)
    assert sup_norm(Vector(c * v for v in coords)) == abs(c) * sup_norm(x)
    y = Vector(tuple(reversed(coords)))
    assert sup_norm(Vector(a + b for a, b in zip(coords, reversed(coords)))) <= sup_norm(x) + sup_norm(y)


@settings(max_examples=60)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
))
def test_pairing_bounded_by_norm_product(pair):
    gs, xs = pair
    g = Covector(tuple(gs))
    x = Vector(tuple(xs))
    assert abs(g(x)) <= dual_norm_l1(g) * sup_norm(x)


# ---------------------------------------------------------------------------
# Record against the frozen dataclass it replaces


def _package_modules() -> list:
    """Every module of minmodlab but ``__main__``, which runs the CLI on import."""
    return [importlib.import_module(f"minmodlab.{info.name}")
            for info in pkgutil.iter_modules(minmodlab.__path__) if info.name != "__main__"]


def _record_classes() -> list:
    _package_modules()  # so that every Record subclass is defined
    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            found.append(sub)
    return [cls for cls in found if cls._fields]


def _field_values(cls) -> tuple:
    """Two unequal tuples of field values that ``cls`` keeps as given."""
    one, two = Fraction(1), Fraction(2)
    special = {
        Vector: [((one, two),), ((one, one),)],
        Covector: [((one, two),), ((two, two),)],
        Dense: [(((1, 0), (0, 1)), (1, 1)), (((1, 2), (0, 1)), (1, 3))],
        RankOne: [(Vector((1, 2)), Covector((1, 0))), (Vector((1, 2)), Covector((0, 1)))],
    }
    n = len(cls._fields)
    return special.get(cls, [tuple(range(n)), tuple(range(1, n + 1))])


def test_every_record_matches_its_frozen_dataclass_twin():
    classes = _record_classes()
    assert {cls.__name__ for cls in classes} == {
        "Vector", "Covector", "Dense", "RankOne", "LinearProgram", "LPResult",
        "MinModResult", "ConvergenceRow", "ConvergenceReport", "WeakNullVerdict",
        "SearchOutcome", "Report"}
    for cls in classes:
        twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
        first, second = _field_values(cls)
        make = cls.of_rows if cls is Dense else cls  # Dense(entries) reads a matrix; of_rows takes the two fields
        a, a2, b = make(*first), make(*first), make(*second)
        ta, ta2, tb = twin(*first), twin(*first), twin(*second)
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        assert (a == a2, a != a2, a == b, a != b) == (ta == ta2, ta != ta2, ta == tb, ta != tb) \
            == (True, False, False, True)
        assert hash(a) == hash(a2) == hash(ta) and hash(b) == hash(tb)
        assert (a == ta) is False and a.__eq__(object()) is NotImplemented
        for obj in (a, ta):
            with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field"):
                setattr(obj, cls._fields[0], first[0])
            with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field"):
                delattr(obj, cls._fields[0])
        if cls in (Vector, Covector, Dense):  # each takes one iterable
            continue
        keywords = dict(zip(cls._fields, first))
        assert cls(**keywords) == cls(first[0], **dict(list(keywords.items())[1:])) == a
        wrong = [(first[:-1], {}), (first + (0,), {}), (first, {"bogus": 0}), (first[:-1], {"bogus": 0}),
                 (first, {cls._fields[0]: first[0]}), ((), {}), ((), {**keywords, "bogus": 0}),
                 ((), dict(list(keywords.items())[1:]))]
        if len(first) > 1:  # the right count, with the first field twice and the last missing
            wrong.append((first[:-1], {cls._fields[0]: first[0]}))
        for make in (cls, twin):
            for args, kwargs in wrong:
                with pytest.raises(TypeError):
                    make(*args, **kwargs)


def test_records_of_different_classes_never_compare_equal():
    assert Vector((1, 2)) != Covector((1, 2))
    assert not Vector((1, 2)) == Covector((1, 2))


def test_post_init_checks_run_for_keyword_construction():
    for make in (lambda e: Dense(e), lambda e: Dense(entries=e)):
        assert make(((1, "1/2"), (0, 3))).entries == ((1, Fraction(1, 2)), (0, 3))
        assert make(((1, "1/2"), (0, 3))) == Dense.of_rows(((2, 1), (0, 3)), (2, 1))
        assert all(isinstance(x, Fraction) for row in make(((1, 2), (3, 4))).entries for x in row)
        with pytest.raises(ValueError, match="must be square"):
            make(((1, 2),))
    for make in (lambda u, g: RankOne(u, g), lambda u, g: RankOne(direction=u, functional=g),
                 lambda u, g: RankOne(u, functional=g)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            make(Vector((1, 2)), Covector((1,)))


def test_only_oracle_result_is_a_dataclass():
    # A frozen dataclass generates its methods with exec on every import.  Every
    # record is a Record instead, except OracleResult: bench/test_bench.py builds a
    # shifted copy of one with dataclasses.replace.
    found = {obj.__qualname__ for module in _package_modules() for obj in vars(module).values()
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == {"OracleResult"}
