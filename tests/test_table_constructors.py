"""The table constructors against the per-table loops they replaced.

GradedAlgebra and SteenrodAction now check every table, then reduce all of
them mod p into one new buffer and keep the nonzero ones as read-only views
of it; from_dict reads well-formed JSON tables in one pass.  The classes
below hold the constructors and from_dict as they were, verbatim apart from
their names, as the reference.  Both must store the same keys in the same
order and equal int64 arrays, read-only, and refuse a malformed table with
the same exception type and message.  The one intended difference is a
JSON object that names one degree pair twice, which from_dict now refuses.
"""

import json

import numpy as np
import pytest

from periodica import algebra, corpus, fplin, steenrod
from periodica import periodicity as P
from periodica.algebra import MAX_TOTAL_DIM, GradedAlgebra, _as_int, _object
from periodica.steenrod import SteenrodAction, operation_shift
from test_derived_tables import CORPUS_SPECS, DECOMPOSE_SPECS, PERIOD_SPECS, TABLES_SPECS

# --- the reference constructors, verbatim apart from their names ------------


class ReferenceAlgebra(GradedAlgebra):
    def __init__(self, p: int, top_degree: int, dims, mult, labels=None):
        p = fplin.check_modulus(p)
        top_degree = _as_int(top_degree, "top_degree")
        if top_degree < 0:
            raise ValueError("need top_degree >= 0")
        self.p = p
        self.n = top_degree
        dims = list(dims)
        if len(dims) != top_degree + 1:
            raise ValueError("dims must cover degrees 0..top_degree")
        self.dims = tuple(_as_int(d, "a dimension") for d in dims)
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension")
        if sum(self.dims) >= MAX_TOTAL_DIM:
            raise ValueError(f"total dimension {sum(self.dims)} is not below {MAX_TOTAL_DIM}")
        self.mult: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), m in mult.items():
            if i < 0 or j < 0 or i + j > top_degree:
                raise ValueError(f"multiplication table for out-of-range degrees ({i}, {j})")
            arr = fplin.as_matrix(m, p)
            want = (self.dim(i + j), self.dim(i) * self.dim(j))
            if arr.shape != want:
                raise ValueError(f"table ({i}, {j}) has shape {arr.shape}, expected {want}")
            if arr.size and arr.any():
                arr.setflags(write=False)
                self.mult[(i, j)] = arr
        self.labels: dict[int, tuple[str, ...]] = {}
        if labels:
            for i, names in labels.items():
                i = int(i)
                if not 0 <= i <= top_degree:
                    raise ValueError(f"labels for degree {i} outside 0..{top_degree}")
                if len(names) != self.dim(i):
                    raise ValueError(f"labels for degree {i} do not match dim {self.dim(i)}")
                self.labels[i] = tuple(str(s) for s in names)

    @classmethod
    def from_dict(cls, data: dict) -> "GradedAlgebra":
        data = _object(data, "the algebra")
        mult = {}
        for key, m in _object(data.get("mult", {}), "mult").items():
            i, j = (int(s) for s in key.split(","))
            mult[(i, j)] = m
        labels = {int(k): v for k, v in _object(data.get("labels", {}), "labels").items()} or None
        return cls(data["p"], data["top_degree"], data["dims"], mult, labels)


class ReferenceAction(SteenrodAction):
    def __init__(self, alg: GradedAlgebra, maps):
        self.alg = alg
        self.p = alg.p
        self.maps: dict[tuple[int, int], np.ndarray] = {}
        for (s, j), m in maps.items():
            if s < 1:
                raise ValueError("store only operations with s >= 1; s = 0 is implied")
            arr = fplin.as_matrix(m, self.p)
            t = j + operation_shift(self.p, s)
            if t > alg.n:
                continue
            want = (alg.dim(t), alg.dim(j))
            if arr.shape != want:
                raise ValueError(f"operation ({s}, {j}) has shape {arr.shape}, expected {want}")
            if arr.size and arr.any():
                arr.setflags(write=False)
                self.maps[(s, j)] = arr

    @classmethod
    def from_dict(cls, alg: GradedAlgebra, data: dict) -> "SteenrodAction":
        data = _object(data, "the action")
        maps = {}
        for key, m in _object(data.get("maps", {}), "maps").items():
            s, j = (int(v) for v in key.split(","))
            maps[(s, j)] = m
        return cls(alg, maps)

# --- the comparison ---------------------------------------------------------


def stored(tables: dict) -> list:
    """The stored tables as (key, type, dtype, read-only, shape, entries)."""
    return [(key, type(m), m.dtype, not m.flags.writeable, m.shape, m.tolist())
            for key, m in tables.items()]


def outcome(make):
    """The tables make() stores, or the type and message of what it raises."""
    try:
        obj = make()
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)
    return stored(obj.mult if isinstance(obj, GradedAlgebra) else obj.maps)


def as_json(tables: dict) -> list:
    """The tables keyed "a,b" as given, and with their arrays made lists."""
    return [{f"{a},{b}": m for (a, b), m in tables.items()},
            {f"{a},{b}": m.tolist() if isinstance(m, np.ndarray) else m
             for (a, b), m in tables.items()}]


def assert_same_algebra(p, n, dims, mult):
    """Directly and through from_dict, the same tables or the same refusal."""
    want = outcome(lambda: ReferenceAlgebra(p, n, dims, mult))
    assert outcome(lambda: GradedAlgebra(p, n, dims, mult)) == want
    for tables in as_json(mult):
        doc = {"p": p, "top_degree": n, "dims": dims, "mult": tables}
        assert outcome(lambda: GradedAlgebra.from_dict(doc)) == outcome(
            lambda: ReferenceAlgebra.from_dict(doc))
    return want


def assert_same_action(alg, maps):
    want = outcome(lambda: ReferenceAction(alg, maps))
    assert outcome(lambda: SteenrodAction(alg, maps)) == want
    for tables in as_json(maps):
        doc = {"maps": tables}
        assert outcome(lambda: SteenrodAction.from_dict(alg, doc)) == outcome(
            lambda: ReferenceAction.from_dict(alg, doc))
    return want


def recorded_inputs(monkeypatch, work):
    """The arguments of every GradedAlgebra and SteenrodAction constructed
    while work() runs, windows and induced actions included."""
    calls = []
    new_algebra, new_action = GradedAlgebra.__init__, SteenrodAction.__init__

    def algebra_init(self, p, top_degree, dims, mult, labels=None):
        calls.append(("algebra", (p, top_degree, list(dims), dict(mult))))
        new_algebra(self, p, top_degree, dims, mult, labels)

    def action_init(self, alg, maps):
        calls.append(("action", (alg, dict(maps))))
        new_action(self, alg, maps)

    monkeypatch.setattr(GradedAlgebra, "__init__", algebra_init)
    monkeypatch.setattr(SteenrodAction, "__init__", action_init)
    work()
    monkeypatch.undo()
    return calls


def fixture_and_windows(text):
    """Build a fixture, round-trip it through JSON and cut its windows."""
    fx = corpus.build(corpus.parse_spec(text))
    doc = json.loads(json.dumps(fx.algebra.to_dict()))
    alg = GradedAlgebra.from_dict(doc)
    if fx.action is not None:
        SteenrodAction.from_dict(alg, json.loads(json.dumps(fx.action.to_dict())))
    found = P.search_degrees(fx.algebra, range(1, min(fx.algebra.n, 9)))
    for cert in found.values():
        if isinstance(cert, P.PeriodicityCertificate):
            P.subquotient(fx.algebra, cert, action=fx.action)


SPECS = tuple(dict.fromkeys(CORPUS_SPECS + PERIOD_SPECS + DECOMPOSE_SPECS[:5] + TABLES_SPECS[:4]))


@pytest.mark.parametrize("text", SPECS)
def test_fixtures_and_windows_store_what_the_reference_stores(monkeypatch, text):
    calls = recorded_inputs(monkeypatch, lambda: fixture_and_windows(text))
    assert any(kind == "action" for kind, _ in calls) or text.startswith("TruncatedPoly")
    for kind, args in calls:
        if kind == "algebra":
            assert_same_algebra(*args)
        else:
            assert_same_action(*args)


def test_windows_are_among_the_recorded_inputs(monkeypatch):
    """The window constructor goes through GradedAlgebra.__init__ too."""
    calls = recorded_inputs(monkeypatch, lambda: fixture_and_windows("ComplexProj(8)@2"))
    window_dims = [args[2] for kind, args in calls if kind == "algebra" and args[2][0] == 0]
    assert window_dims


def test_a_callers_arrays_are_copied():
    """Writing to the caller's arrays after construction leaves the algebra
    and the action as they were."""
    fx = corpus.build(corpus.parse_spec("Product(ComplexProj(3),ComplexProj(3))@3"))
    mult = {key: np.array(m) for key, m in fx.algebra.mult.items()}
    maps = {key: np.array(m) for key, m in fx.action.maps.items()}
    alg = GradedAlgebra(3, fx.algebra.n, fx.algebra.dims, mult)
    act = SteenrodAction(alg, maps)
    before = stored(alg.mult), stored(act.maps)
    for m in [*mult.values(), *maps.values()]:
        m += 1
    assert (stored(alg.mult), stored(act.maps)) == before
    assert before == (stored(fx.algebra.mult), stored(fx.action.maps))
    assert not any(np.shares_memory(a, b) for a in alg.mult.values() for b in mult.values())
    one = np.array([[4]])  # a single table, which needs no concatenation
    alg = GradedAlgebra(3, 0, [1], {(0, 0): one})
    one[0, 0] = 0
    assert stored(alg.mult) == [((0, 0), np.ndarray, np.int64, True, (1, 1), [[1]])]


# The document of _degree1_document in test_cli: x in degree 1, x * x the top class.
ONE = [[1]]
GOOD = {(0, 0): ONE, (0, 1): ONE, (1, 0): ONE, (0, 2): ONE, (2, 0): ONE, (1, 1): ONE}
MALFORMED = {
    "bool": [[True]], "bool-and-int": [[True, 2]], "numpy-bool": [[np.bool_(True)]],
    "bool-array": np.array([[True]]), "float": [[0.5]], "float-array": np.array([[1.0]]),
    "string": [["1"]], "2^70": [[2 ** 70]], "-2^70": [[-2 ** 70]],
    "2^63": [[2 ** 63]],  # read as uint64 and wrapped, by the reference too
    "the-modulus": [[2]],  # every entry in 0..p, one of them p: reduced to zero
    "ragged": [[1], [1, 0]], "empty": [], "empty-row": [[]], "1-D": [1], "3-D": [[[1]]],
    "scalar": 1, "wrong-shape": [[1, 0]], "tuple": ((1,),),
    "int32-array": np.array([[3]], np.int32), "object": [[object()]], "none": None,
}


@pytest.mark.parametrize("name", MALFORMED)
@pytest.mark.parametrize("position", ["first", "last"])
def test_malformed_tables_match_the_reference(name, position):
    """Each malformed table, as the first or the last key, gives the
    reference's result: the same refusal, or the same stored tables."""
    for key in ((1, 1), (0, 1)):
        bad = {key: MALFORMED[name]}
        rest = {k: m for k, m in GOOD.items() if k != key}
        mult = {**bad, **rest} if position == "first" else {**rest, **bad}
        assert_same_algebra(2, 2, [1, 1, 1], mult)
    alg = GradedAlgebra(2, 2, [1, 1, 1], GOOD)
    for maps in ({(1, 1): MALFORMED[name]}, {(1, 1): ONE, (1, 2): MALFORMED[name]},
                 {(1, 5): MALFORMED[name], (1, 1): ONE}):  # (1, 2) and (1, 5) land past the top
        assert_same_action(alg, maps)


def test_checks_keep_their_order():
    """A key out of range, s < 1, a junk map past the top degree and a bad
    shape are refused by the check the reference refuses them with, also
    when another table is malformed in another way."""
    alg = GradedAlgebra(2, 2, [1, 1, 1], GOOD)
    cases = [
        ({(2, 1): ONE}, "multiplication table for out-of-range degrees (2, 1)"),
        ({(-1, 1): [["x"]]}, "multiplication table for out-of-range degrees (-1, 1)"),
        ({(1, 1): [[1, 0]], (0, 3): ONE}, "table (1, 1) has shape (1, 2), expected (1, 1)"),
        ({(1, 1): [[0.5]], (2, 1): ONE}, "entries must be integers, got float64 entries"),
    ]
    for mult, message in cases:
        assert assert_same_algebra(2, 2, [1, 1, 1], {**GOOD, **mult}) == (ValueError, message)
    action_cases = [
        ({(0, 1): ONE}, "store only operations with s >= 1; s = 0 is implied"),
        ({(1, 5): [["junk", 2.5]], (1, 1): ONE}, "entries must be integers, got <U32 entries"),
        ({(1, 1): [[1, 1]], (0, 1): [[True]]},
         "operation (1, 1) has shape (1, 2), expected (1, 1)"),
    ]
    for maps, message in action_cases:
        assert assert_same_action(alg, maps) == (ValueError, message)
    # a well-typed map of any shape past the top degree is dropped
    assert assert_same_action(alg, {(1, 5): [[1, 1, 1]], (1, 1): ONE}) == stored(
        SteenrodAction(alg, {(1, 1): ONE}).maps)


def _random_table(rng, shape, p):
    """A table of the given shape, or now and then of another shape or kind."""
    r, c = shape
    kind = rng.integers(10)
    if kind == 0:
        return rng.integers(0, p, (r, c + 1)).tolist()
    if kind == 1:
        return np.zeros(shape, dtype=np.int64)
    if kind == 2:
        return rng.integers(-3 * p, 3 * p, shape)
    if kind == 3 and r * c:
        return [[int(x) if x else True for x in row] for row in rng.integers(0, 2, shape)]
    if kind == 4:
        return (rng.integers(0, 2, shape) * 2 ** 62).tolist()
    return rng.integers(-p, 2 * p, shape).tolist()


@pytest.mark.parametrize("seed", range(12))
def test_random_dicts_match_the_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        p = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(0, 6))
        dims = rng.integers(0, 3, n + 1).tolist()
        dim = lambda d: dims[d] if 0 <= d <= n else 0  # noqa: E731
        mult = {}
        for _ in range(rng.integers(0, 10)):
            i, j = (int(d) for d in rng.integers(-1, n + 2, 2))
            mult[(i, j)] = _random_table(rng, (dim(i + j), dim(i) * dim(j)), p)
        assert_same_algebra(p, n, dims, mult)
        good = {key: m for key, m in mult.items()
                if isinstance(outcome(lambda: ReferenceAlgebra(p, n, dims, {key: m})), list)}
        alg = GradedAlgebra(p, n, dims, good)
        maps = {}
        for _ in range(rng.integers(0, 8)):
            s, j = int(rng.integers(0, 3)), int(rng.integers(0, n + 1))
            maps[(s, j)] = _random_table(rng, (dim(j + operation_shift(p, s)), dim(j)), p)
        assert_same_action(alg, maps)


def test_a_pair_written_twice_is_refused():
    """from_dict refuses two keys that read as one pair, where it kept the
    last of them; the reference shows the old behaviour."""
    doc = {"p": 2, "top_degree": 2, "dims": [1, 1, 1],
           "mult": {**{f"{i},{j}": m for (i, j), m in GOOD.items()}, "01,1": [[0]]}}
    assert list(ReferenceAlgebra.from_dict(doc).mult) == [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0)]
    with pytest.raises(ValueError, match=r"^mult names \(1, 1\) twice, as '1,1' and '01,1'$"):
        GradedAlgebra.from_dict(doc)
    alg = GradedAlgebra(2, 2, [1, 1, 1], GOOD)
    with pytest.raises(ValueError, match=r"^maps names \(1, 1\) twice, as '1,1' and '1, 1'$"):
        SteenrodAction.from_dict(alg, {"maps": {"1,1": ONE, "1, 1": ONE}})


def test_one_from_dict_converts_and_reduces_once(monkeypatch):
    """A from_dict of a product's tables makes no per-table array conversion
    or reduction: one pass reads the JSON lists and one buffer is reduced.
    The reference makes one of each per table."""
    fx = corpus.build(corpus.parse_spec("Product(ComplexProj(8),ComplexProj(8))@3"))
    doc = json.loads(json.dumps(fx.algebra.to_dict()))
    maps = json.loads(json.dumps(fx.action.to_dict()))
    counts = {"conversions": 0, "table reductions": 0, "buffers": 0}
    int_array, as_matrix, reduced = fplin._int_array, fplin.as_matrix, algebra._reduced

    def counted_int_array(data):
        if not (type(data) is np.ndarray and data.dtype == np.int64):
            counts["conversions"] += 1
        return int_array(data)

    def counted_as_matrix(data, p):
        counts["table reductions"] += 1
        return as_matrix(data, p)

    def counted_reduced(tables, p):
        counts["buffers"] += 1
        return reduced(tables, p)

    monkeypatch.setattr(fplin, "_int_array", counted_int_array)
    monkeypatch.setattr(fplin, "as_matrix", counted_as_matrix)
    monkeypatch.setattr(algebra, "_reduced", counted_reduced)
    monkeypatch.setattr(steenrod, "_reduced", counted_reduced)
    alg = GradedAlgebra.from_dict(doc)
    act = SteenrodAction.from_dict(alg, maps)
    assert counts == {"conversions": 0, "table reductions": 0, "buffers": 2}
    tables = len(doc["mult"]) + len(maps["maps"])
    assert tables > 150
    ref = ReferenceAlgebra.from_dict(doc)
    ref_act = ReferenceAction.from_dict(ref, maps)
    assert counts["conversions"] == counts["table reductions"] == tables
    assert (stored(alg.mult), stored(act.maps)) == (stored(ref.mult), stored(ref_act.maps))
