"""The axiom checks over generators against the loops they replaced.

`GradedAlgebra.validate` checks associativity as (xg)y = x(gy) and graded
commutativity as gy = +-yg for g a generator only, and `verify_action`
checks the Cartan formula for P(gy) only (Light's test: the elements that
pass are closed under products).  The loops below run
over every degree pair and triple instead; they are kept verbatim as the
reference, and both must reach the same verdict, down to the exception
type, on fixtures, windows and single-entry mutants of tables and actions.

The two generator checks themselves now join the tables' nonzero entries;
the dense per-degree loops they replaced are kept verbatim below too, and
the join must give the same verdict strings on the same algebras.  So must
the unit check, the generators, the duality verdict and the Cartan check,
which read the same entries, against their dense per-degree loops.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodica import algebra, corpus, fplin, steenrod
from periodica import periodicity as P
from periodica.algebra import AlgebraDefect, GradedAlgebra, verify_poincare_duality
from periodica.steenrod import ActionDefect, SteenrodAction, operation_shift, verify_action
from rebasing import rebased, rebased_with_action

# --- the reference loops, verbatim apart from their names -------------------

def old_validate(self) -> None:
    """Check unit, graded commutativity and associativity; raise AlgebraDefect."""
    p, n = self.p, self.n
    if self.dim(0) != 1:
        raise AlgebraDefect(f"degree 0 must be one-dimensional, got {self.dim(0)}")
    one = self.basis_element(0, 0)
    for j in range(n + 1):
        if self.dim(j) == 0:
            continue
        if not np.array_equal(self.cup_matrix(0, one, j), np.eye(self.dim(j), dtype=np.int64)):
            raise AlgebraDefect(f"unit fails on the left in degree {j}")
        right = np.einsum("tab,b->ta", self.mult3(j, 0), one) % p
        if not np.array_equal(right, np.eye(self.dim(j), dtype=np.int64)):
            raise AlgebraDefect(f"unit fails on the right in degree {j}")
    for i in range(n + 1):
        for j in range(i, n + 1 - i):
            if self.dim(i) == 0 or self.dim(j) == 0:
                continue
            sign = p - 1 if (i % 2 and j % 2 and p != 2) else 1
            m_ij = self.mult3(i, j)
            m_ji = self.mult3(j, i)
            if not np.array_equal((sign * m_ji.transpose(0, 2, 1)) % p, m_ij):
                raise AlgebraDefect(f"graded commutativity fails for degrees ({i}, {j})")
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                if self.dim(i) == 0 or self.dim(j) == 0 or self.dim(k) == 0:
                    continue
                left = np.einsum("tuk,uij->tijk", self.mult3(i + j, k), self.mult3(i, j)) % p
                right = np.einsum("tiv,vjk->tijk", self.mult3(i, j + k), self.mult3(j, k)) % p
                if not np.array_equal(left, right):
                    raise AlgebraDefect(f"associativity fails for degrees ({i}, {j}, {k})")


def old_element_power(alg: GradedAlgebra, degree: int, vec, e: int) -> tuple[int, np.ndarray]:
    """e-th multiplicative power; zero above the top degree."""
    if e < 1:
        raise ValueError("need e >= 1")
    d, v = degree, fplin.as_vector(vec, alg.p)
    for _ in range(e - 1):
        v = alg.cup(degree, vec, d, v)
        d += degree
        if d > alg.n:
            return d, np.zeros(0, dtype=np.int64)
    return d, v


def old_verify_action(alg: GradedAlgebra, act: SteenrodAction) -> None:
    """Check instability, the top-power axiom and the Cartan formula."""
    if act.alg is not alg and act.alg.to_dict() != alg.to_dict():
        raise ActionDefect("action was built over a different algebra")
    p, n = alg.p, alg.n
    for (s, j), m in act.maps.items():
        unstable = s > j if p == 2 else 2 * s > j
        if unstable and m.any():
            raise ActionDefect(f"operation ({s}, {j}) must vanish above the degree")
    for j in range(1, n + 1):
        if alg.dim(j) == 0:
            continue
        s = j if p == 2 else (j // 2 if j % 2 == 0 else None)
        if s is None or s == 0:
            continue
        t = act.target_degree(s, j)
        if t > n:
            continue
        got = act.op_matrix(s, j)
        want = np.zeros((alg.dim(t), alg.dim(j)), dtype=np.int64)
        for b in range(alg.dim(j)):
            deg, v = old_element_power(alg, j, alg.basis_element(j, b), 2 if p == 2 else p)
            if deg == t and v.size:
                want[:, b] = v
        if not np.array_equal(got, want):
            raise ActionDefect(f"top operation on degree {j} is not the {'square' if p == 2 else 'p-th power'}")
    for i in range(n + 1):
        for j in range(i, n + 1 - i):
            if alg.dim(i) == 0 or alg.dim(j) == 0:
                continue
            s = 1
            while i + j + operation_shift(p, s) <= n:
                t = i + j + operation_shift(p, s)
                lhs = (act.op_matrix(s, i + j) @ alg.mult_map(i, j)) % p
                rhs = np.zeros_like(lhs)
                for h in range(s + 1):
                    ti = act.target_degree(h, i)
                    tj = act.target_degree(s - h, j)
                    if ti > n or tj > n:
                        continue
                    # (t, u, v) -> (t, u, b) -> (t, b, a), reduced in between
                    right = (alg.mult3(ti, tj) @ act.op_matrix(s - h, j)) % p
                    piece = (right.transpose(0, 2, 1) @ act.op_matrix(h, i)) % p
                    rhs = (rhs + piece.transpose(0, 2, 1).reshape(
                        alg.dim(t), alg.dim(i) * alg.dim(j))) % p
                if not np.array_equal(lhs, rhs):
                    raise ActionDefect(f"Cartan formula fails for s={s} on degrees ({i}, {j})")
                s += 1


def associative_by_triples(alg) -> bool:
    """The associativity loop of old_validate on its own."""
    p, n = alg.p, alg.n
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for k in range(n + 1 - i - j):
                left = np.einsum("tuk,uij->tijk", alg.mult3(i + j, k), alg.mult3(i, j)) % p
                right = np.einsum("tiv,vjk->tijk", alg.mult3(i, j + k), alg.mult3(j, k)) % p
                if not np.array_equal(left, right):
                    return False
    return True


def old_associativity_defect(self) -> str | None:
    """None when the product is associative, else the degrees where it fails.

    Light's test: the g with (xg)y = x(gy) for all x, y are closed under
    products, so checking g over the generators covers every element.
    """
    p, n, mult = self.p, self.n, self.mult
    degrees = [d for d in range(n + 1) if self.dim(d)]
    for i, gens in self.generators.items():
        g = list(gens)
        for j in degrees:
            for k in degrees:
                if i + j + k > n:
                    break
                # each side is zero when one of its two tables is absent
                if ((j, i) not in mult or (j + i, k) not in mult) and \
                        ((i, k) not in mult or (j, i + k) not in mult):
                    continue
                left = np.einsum("tuc,uag->tagc", self.mult3(j + i, k), self.mult3(j, i)[:, :, g]) % p
                right = np.einsum("tav,vgc->tagc", self.mult3(j, i + k), self.mult3(i, k)[:, g]) % p
                if not np.array_equal(left, right):
                    return f"associativity fails for degrees ({j}, {i}, {k})"
    return None


def old_commutativity_defect(self) -> str | None:
    """None when gy = (-1)^(|g||y|) yg for every generator g and every y,
    else the degrees where it fails.  For an associative algebra that is
    graded commutativity: the graded centre is closed under products."""
    p, n = self.p, self.n
    for i, gens in self.generators.items():
        g = list(gens)
        for j in range(n + 1 - i):
            if self.dim(j) == 0 or ((i, j) not in self.mult and (j, i) not in self.mult):
                continue
            sign = p - 1 if (i % 2 and j % 2 and p != 2) else 1
            if not np.array_equal((sign * self.mult3(j, i)[:, :, g].transpose(0, 2, 1)) % p,
                                  self.mult3(i, j)[:, g]):
                return f"graded commutativity fails for degrees ({i}, {j})"
    return None


def same_defects(alg):
    """The entry join's verdict strings, asserted equal to the dense loops'
    on fresh instances: with the join in one range, and split into ranges
    of at most three pairs (one x with more pairs is a range alone), so
    every range boundary is crossed."""
    want = (old_associativity_defect(alg), old_commutativity_defect(alg))
    for rows in (algebra._JOIN_ROWS, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "_JOIN_ROWS", rows)
            fresh = GradedAlgebra(alg.p, alg.n, alg.dims, alg.mult)
            assert (fresh.associativity_defect, fresh.commutativity_defect) == want, rows
    return want


def loop_unit_defect(self) -> str | None:
    """None when degree 0 is spanned by a two-sided unit, else why not."""
    if self.dim(0) != 1:
        return f"degree 0 must be one-dimensional, got {self.dim(0)}"
    for j in range(self.n + 1):
        eye = np.eye(self.dim(j), dtype=np.int64)
        if not np.array_equal(self.mult3(0, j)[:, 0], eye):
            return f"unit fails on the left in degree {j}"
        if not np.array_equal(self.mult3(j, 0)[:, :, 0], eye):
            return f"unit fails on the right in degree {j}"
    return None


def loop_generators(self) -> dict[int, tuple[int, ...]]:
    """Per degree, the basis indices outside the pivots of the decomposables.

    The decomposables of degree d are spanned by the products of degrees
    (i, d - i) with 0 < i < d.  The basis vectors at the returned indices
    span a complement of them, so by induction on the degree they
    generate the algebra.  Degrees without generators are left out, and
    so is degree 0 when it is spanned by a two-sided unit: the unit
    passes every check that runs over the generators by itself.
    """
    out = {}
    for d in range(0 if loop_unit_defect(self) else 1, self.n + 1):
        products = [self.mult[(i, d - i)].T for i in range(1, d) if (i, d - i) in self.mult]
        pivots = fplin.rref(np.vstack(products), self.p)[1] if products else ()
        gens = tuple(t for t in range(self.dim(d)) if t not in pivots)
        if gens:
            out[d] = gens
    return out


def pairing_matrix(alg: GradedAlgebra, i: int) -> np.ndarray:
    """Pairing H^i x H^(n-i) -> H^n as a dim(i) x dim(n-i) matrix (dim(n) must be 1)."""
    if alg.dim(alg.n) != 1:
        raise AlgebraDefect("top degree is not one-dimensional")
    return alg.mult_map(i, alg.n - i).reshape(alg.dim(i), alg.dim(alg.n - i))


def loop_poincare_duality(alg: GradedAlgebra) -> bool:
    """True iff dim H^0 = dim H^n = 1 and every degree pairing is perfect."""
    if alg.dim(0) != 1 or alg.dim(alg.n) != 1:
        return False
    for i in range(alg.n + 1):
        if alg.dim(i) != alg.dim(alg.n - i):
            return False
        pm = pairing_matrix(alg, i)
        if fplin.rank(pm, alg.p) != alg.dim(i):
            return False
    return True


def loop_cartan_fails(alg: GradedAlgebra, act: SteenrodAction, s: int, i: int, gens: list,
                      j: int, terms: list) -> bool:
    """True iff P^s(gv) != sum P^h(g) P^k(v) over the (h, k) in terms for some
    basis vector g of degree i at an index in gens and some basis vector v
    of degree j.  Terms must hold each (h, k) with h + k = s whose maps are
    stored."""
    p, t = alg.p, i + j + operation_shift(alg.p, s)
    lhs = np.zeros((alg.dim(t), len(gens), alg.dim(j)), dtype=np.int64)
    if (s, i + j) in act.maps and (i, j) in alg.mult:
        lhs = np.einsum("tu,ugv->tgv", act.maps[(s, i + j)], alg.mult3(i, j)[:, gens]) % p
    rhs = np.zeros_like(lhs)
    for h, k in terms:
        ti, tj = act.target_degree(h, i), act.target_degree(k, j)
        if (ti, tj) not in alg.mult:
            continue
        # (t, u, v) -> (t, u, b) -> (t, b, g), reduced in between
        right = (alg.mult3(ti, tj) @ act.op_matrix(k, j)) % p
        piece = right.transpose(0, 2, 1) @ act.op_matrix(h, i)[:, gens]
        rhs = (rhs + piece.transpose(0, 2, 1)) % p
    return not np.array_equal(lhs, rhs)


def loop_verify_action(alg: GradedAlgebra, act: SteenrodAction) -> None:
    """Check instability, the top-power axiom and the Cartan formula.

    The Cartan formula is checked for P(xy) with x a generator of the
    algebra and y anything.  The x that satisfy it against every y are
    closed under products in an associative algebra, so this covers every
    product in either order; a non-associative algebra is refused.
    """
    if act.alg is not alg and act.alg.to_dict() != alg.to_dict():
        raise ActionDefect("action was built over a different algebra")
    p, n = alg.p, alg.n
    for (s, j), m in act.maps.items():
        unstable = s > j if p == 2 else 2 * s > j
        if unstable and m.any():
            raise ActionDefect(f"operation ({s}, {j}) must vanish above the degree")
    for j in range(1, n + 1):
        if alg.dim(j) == 0:
            continue
        s = j if p == 2 else (j // 2 if j % 2 == 0 else None)
        if s is None or s == 0:
            continue
        t = act.target_degree(s, j)
        if t > n:
            continue
        # column b of the power is the p-th power of the b-th basis vector
        if p == 2:
            want = alg.mult3(j, j).diagonal(axis1=1, axis2=2)
        else:
            want = np.eye(alg.dim(j), dtype=np.int64)
            for e in range(1, p):
                want = np.einsum("tbc,cb->tb", alg.mult3(j, e * j), want) % p
        if not np.array_equal(act.op_matrix(s, j), want):
            raise ActionDefect(f"top operation on degree {j} is not the {'square' if p == 2 else 'p-th power'}")
    if alg.associativity_defect is not None:
        raise ActionDefect(f"the Cartan check needs an associative algebra: {alg.associativity_defect}")
    stored: dict[int, set] = {}  # degree -> the s of its stored maps, and 0
    for s, j in act.maps:
        stored.setdefault(j, {0}).add(s)
    for i, gens in loop_generators(alg).items():
        for j in range(n + 1 - i):
            if alg.dim(j) == 0:
                continue
            terms: dict[int, list] = {s: [] for s in stored.get(i + j, ())}
            for h in stored.get(i, {0}):
                for k in stored.get(j, {0}):
                    terms.setdefault(h + k, []).append((h, k))
            for s in sorted(terms):
                if s and i + j + operation_shift(p, s) <= n and \
                        loop_cartan_fails(alg, act, s, i, list(gens), j, terms[s]):
                    raise ActionDefect(f"Cartan formula fails for s={s} on degrees ({i}, {j})")


def _action_verdict(check, alg, act):
    """None, or the type and message of the defect check raises."""
    try:
        check(alg, act)
    except (ActionDefect, AlgebraDefect) as e:
        return f"{type(e).__name__}: {e}"
    return None


def same_checks(alg, act=None):
    """The unit verdict, generator tuples, duality verdict and verify_action
    string of the entry checks, asserted equal to the loops' on fresh
    instances, with the joins in one range and in ranges of at most three
    pairs; returned as the loops give them."""
    want = (loop_unit_defect(alg), loop_generators(alg), loop_poincare_duality(alg),
            None if act is None else _action_verdict(loop_verify_action, alg, act))
    for rows in (algebra._JOIN_ROWS, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "_JOIN_ROWS", rows)
            fresh = GradedAlgebra(alg.p, alg.n, alg.dims, alg.mult)
            got = (fresh.unit_defect, fresh.generators, verify_poincare_duality(fresh),
                   None if act is None else
                   _action_verdict(verify_action, fresh, SteenrodAction(fresh, act.maps)))
            assert got == want, rows
    return want


# --- verdicts ----------------------------------------------------------------

def _verdict(validate, check_action, alg, act):
    """None, or the name of the first exception the checks raise."""
    try:
        if validate is not None:
            validate(alg)
        if act is not None:
            check_action(alg, act)
    except Exception as e:
        return type(e).__name__
    return None


def same_verdict(alg, act, unital=True):
    """The verdict of both chains (validate, then verify_action); windows
    have no unit, so there only the actions are checked."""
    old = _verdict(old_validate if unital else None, old_verify_action, alg, act)
    # a fresh instance, so that nothing the old chain did is cached
    new_alg = GradedAlgebra(alg.p, alg.n, alg.dims, alg.mult) if unital else alg
    new_act = None if act is None else SteenrodAction(new_alg, act.maps)
    new = _verdict(GradedAlgebra.validate if unital else None, verify_action, new_alg, new_act)
    assert new == old, (alg, old, new)
    return new


def _chain(k, leaf):
    body = leaf
    for _ in range(k - 1):
        body = f"ConnectedSum({body},{leaf})"
    return body


# The specs of the benchmark's period, decompose and tables workloads.
WORKLOAD_SPECS = [
    f"{_chain(2, 'ComplexProj(5)')}@5", f"{_chain(2, 'ComplexProj(7)')}@5",
    f"{_chain(2, 'ComplexProj(8)')}@5", f"{_chain(3, 'ComplexProj(4)')}@5",
    f"{_chain(3, 'ComplexProj(8)')}@3", f"{_chain(4, 'ComplexProj(5)')}@3",
    f"{_chain(3, 'QuatProj(3)')}@5",
    "Product(Sphere(2),ComplexProj(8))@3", "Product(Sphere(2),ComplexProj(10))@3",
    "Product(Sphere(3),QuatProj(3))@3", "Product(ComplexProj(3),ComplexProj(4))@5",
    "Product(ComplexProj(3),ComplexProj(4))@3", "Product(ComplexProj(2),ComplexProj(5))@3",
    *(f"{_chain(k, 'ComplexProj(6)')}@2" for k in (2, 3, 4, 5)),
    f"{_chain(2, 'ComplexProj(6)')}@5",
    *(f"{_chain(k, 'ComplexProj(4)')}@2" for k in (4, 6)),
    *(f"{_chain(k, 'ComplexProj(4)')}@3" for k in (3, 4)),
    *(f"Product(ComplexProj({a}),ComplexProj({b}))@{p}"
      for a, b, p in ((4, 4, 2), (6, 6, 2), (7, 7, 2), (5, 5, 3), (6, 6, 3), (8, 8, 3),
                      (5, 7, 3), (6, 6, 5), (6, 8, 5))),
]


def _inner_nodes(spec):
    if spec.family in ("Product", "ConnectedSum"):
        yield spec
        for arg in spec.args:
            yield from _inner_nodes(arg)


NODES = sorted({str(node) for text in WORKLOAD_SPECS
                for node in _inner_nodes(corpus.parse_spec(text))})


@functools.lru_cache(maxsize=None)
def build(text):
    return corpus.build(corpus.parse_spec(text))


@pytest.mark.parametrize("text", NODES)
def test_workload_nodes_pass_both_chains(text):
    fx = build(text)
    assert same_verdict(fx.algebra, fx.action) is None


@pytest.mark.parametrize("text", NODES)
@pytest.mark.parametrize("seed", [None, 1])
def test_workload_nodes_get_the_loops_defect_strings(text, seed):
    alg = build(text).algebra
    assert same_defects(alg if seed is None else rebased(alg, seed)) == (None, None)


@pytest.mark.parametrize("text", NODES)
@pytest.mark.parametrize("seed", [None, 1])
def test_workload_nodes_get_the_loops_generators_duality_and_cartan(text, seed):
    fx = build(text)
    alg, act = fx.algebra, fx.action
    if seed is not None:
        alg, act = rebased_with_action(alg, act, seed)
    unit, gens, duality, action = same_checks(alg, act)
    assert (unit, duality, action) == (None, True, None) and gens


def test_a_wide_chain_and_its_mutants_get_the_loops_defect_strings():
    """16 x CP(6) at p = 2: the tables are block-diagonal by leaf, so the
    join holds few pairs where the loops multiply whole tables."""
    alg = build(f"{_chain(16, 'ComplexProj(6)')}@2").algebra
    assert same_defects(alg) == (None, None)
    rng = np.random.default_rng(16)
    verdicts = [same_defects(random_mutant(alg, None, False, rng)[0]) for _ in range(8)]
    assert verdicts.count((None, None)) < len(verdicts)


def test_a_wide_chain_and_its_mutants_get_the_loops_generators_and_cartan_strings():
    """16 x CP(6) at p = 2, and single-entry mutants of its tables and of
    its action: the Cartan join holds few pairs where the loop multiplies
    whole tables and maps."""
    fx = build(f"{_chain(16, 'ComplexProj(6)')}@2")
    assert same_checks(fx.algebra, fx.action)[2:] == (True, None)
    rng = np.random.default_rng(17)
    verdicts = [same_checks(*random_mutant(fx.algebra, fx.action, on_action, rng))[3]
                for on_action in (True, False) * 4]
    assert sum(v is not None and "Cartan" in v for v in verdicts) >= 2, verdicts


def test_one_range_holds_a_fixture_and_a_small_bound_splits_it(monkeypatch):
    alg = build(f"{_chain(4, 'ComplexProj(6)')}@2").algebra
    steps = []
    unbalanced = algebra._unbalanced

    def counted(key, val, p):
        steps.append(key.size)
        return unbalanced(key, val, p)
    monkeypatch.setattr(algebra, "_unbalanced", counted)
    assert GradedAlgebra(alg.p, alg.n, alg.dims, alg.mult).associativity_defect is None
    whole = steps[:]
    steps.clear()
    monkeypatch.setattr(algebra, "_JOIN_ROWS", 3)
    assert GradedAlgebra(alg.p, alg.n, alg.dims, alg.mult).associativity_defect is None
    assert len(whole) == 1 and len(steps) > 1 and sum(steps) == whole[0]


# Inner nodes with a direct certificate.  The windows of the p = 5 sums
# below have p * k > n - 1 and carry no induced action; every other window
# carries one.
WINDOW_SPECS = [t for t in NODES if t.startswith("ConnectedSum") or "Sphere(2)" in t]
NO_ACTION_SPECS = [f"{_chain(m, leaf)}@5" for m, leaf in (
    (2, "ComplexProj(4)"), (3, "ComplexProj(4)"), (2, "ComplexProj(5)"),
    (2, "QuatProj(3)"), (3, "QuatProj(3)"))]


def _window(text):
    fx = build(text)
    rep = P.minimum_period(fx.algebra)
    window = P.subquotient(fx.algebra, rep.certificate, action=fx.action)
    assert same_defects(window) == (window.associativity_defect, window.commutativity_defect)
    return fx, window


@pytest.mark.parametrize("text", NO_ACTION_SPECS)
def test_windows_past_p_k_carry_no_action(text):
    assert text in WINDOW_SPECS
    _, window = _window(text)
    assert window.action is None and window.p * window.k > window.n - 1
    same_checks(window)


@pytest.mark.parametrize("text", [t for t in WINDOW_SPECS if t not in NO_ACTION_SPECS])
def test_windows_pass_both_action_checks(text):
    fx, window = _window(text)
    assert window.action is not None
    assert same_verdict(window, window.action, unital=False) is None
    assert same_checks(window, window.action)[3] is None
    steenrod.verify_induced_action(window, fx.action, window.action)
    # single-entry mutants of the window action
    rng = np.random.default_rng(len(text))
    for _ in range(12):
        _, mutant = random_mutant(window, window.action, True, rng)
        same_verdict(window, mutant, unital=False)
        same_checks(window, mutant)


# --- single-entry mutants ----------------------------------------------------

def _table_keys(alg):
    return [(i, j) for i in range(alg.n + 1) for j in range(alg.n + 1 - i)
            if alg.dim(i) and alg.dim(j) and alg.dim(i + j)]


def _action_keys(alg, act):
    return [(s, j) for j in range(alg.n + 1) for s in range(1, alg.n + 1)
            if act.target_degree(s, j) <= alg.n and alg.dim(j)
            and alg.dim(act.target_degree(s, j))]


def _mutate(tables, key, rng, p, shape=None):
    """tables with one entry of tables[key] (zero when absent) changed."""
    out = dict(tables)
    old = tables.get(key)
    table = np.zeros(shape, dtype=np.int64) if old is None else old.copy()
    at = tuple(int(rng.integers(d)) for d in table.shape)
    table[at] = (table[at] + int(rng.integers(1, p))) % p
    out[key] = table
    return out


def table_mutant(alg, act, key, rng):
    shape = (alg.dim(key[0] + key[1]), alg.dim(key[0]) * alg.dim(key[1]))
    mult = _mutate(alg.mult, key, rng, alg.p, shape)
    new = GradedAlgebra(alg.p, alg.n, alg.dims, mult)
    return new, None if act is None else SteenrodAction(new, act.maps)


def action_mutant(alg, act, key, rng):
    shape = (alg.dim(act.target_degree(*key)), alg.dim(key[1]))
    return alg, SteenrodAction(alg, _mutate(act.maps, key, rng, alg.p, shape))


def random_mutant(alg, act, on_action, rng):
    """A single-entry mutant of an action map when on_action and the action
    has room for one, else of a table."""
    keys = _action_keys(alg, act) if on_action and act is not None else []
    if keys:
        return action_mutant(alg, act, keys[rng.integers(len(keys))], rng)
    keys = _table_keys(alg)
    return table_mutant(alg, act, keys[rng.integers(len(keys))], rng)


# Small fixtures with several generators, odd-degree classes at odd p for the
# signs, and actions of every kind.
MUTANT_SPECS = [
    "Product(ComplexProj(2),ComplexProj(3))@2", "Product(Sphere(3),Sphere(5))@3",
    "Product(Sphere(3),ComplexProj(3))@3", "Product(Sphere(3),Sphere(3))@5",
    "ConnectedSum(ComplexProj(4),QuatProj(2))@2", "Product(Sphere(2),QuatProj(2))@3",
    "Product(Product(Sphere(1),Sphere(3)),Sphere(2))@2",
    "Product(Product(Sphere(3),Sphere(3)),Sphere(5))@5",
    "Product(ComplexProj(3),QuatProj(2))@5", "TruncatedPoly(2,6)@3",
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(MUTANT_SPECS), st.booleans(), st.booleans(), st.integers(0, 2**16))
def test_single_entry_mutants_get_the_parent_verdict(text, on_action, rebase, seed):
    fx = build(text)
    alg, act = fx.algebra, fx.action
    if rebase:
        alg, act = rebased_with_action(alg, act, seed)
    alg, act = random_mutant(alg, act, on_action, np.random.default_rng(seed))
    assert (alg.associativity_defect is None) == associative_by_triples(alg)
    same_defects(alg)
    same_checks(alg, act)
    same_verdict(alg, act)


@pytest.mark.parametrize("text", [
    "Product(ComplexProj(2),ComplexProj(3))@2", "ConnectedSum(ComplexProj(4),QuatProj(2))@2",
    "Product(ComplexProj(3),ComplexProj(3))@2", "ComplexProj(6)@3", "TruncatedPoly(2,6)@3",
    "Product(ComplexProj(3),QuatProj(2))@5",
])
def test_two_entry_action_mutants_get_the_loops_cartan_strings(text):
    """Two changed entries of stable operations below the top power can
    break the Cartan formula at two pairs (|y|, s) for one |g|: the message
    must name the loop's first, the least |y| before the least s."""
    fx = build(text)
    p = fx.algebra.p
    keys = [(s, j) for s, j in _action_keys(fx.algebra, fx.action)
            if (s < j if p == 2 else 2 * s < j)]
    rng = np.random.default_rng(len(text))
    verdicts = []
    for _ in range(8):
        act = fx.action
        for _ in range(2):
            act = action_mutant(fx.algebra, act, keys[rng.integers(len(keys))], rng)[1]
        verdicts.append(same_checks(fx.algebra, act)[3])
    assert sum(v is not None and "Cartan" in v for v in verdicts) >= 4, verdicts


@pytest.mark.parametrize("rows", [3, 60])
def test_one_cartan_range_holds_a_fixture_and_a_small_bound_splits_it(monkeypatch, rows):
    """4 x CP(6) at p = 2 has four generators of 29 Cartan pairs each.  In
    ranges of at most 3 pairs each is a range alone; in ranges of 60, two
    share one.  Either way the split join sums every pair."""
    fx = build(f"{_chain(4, 'ComplexProj(6)')}@2")
    steps = []
    unbalanced = steenrod._unbalanced

    def counted(key, val, p):
        steps.append(key.size)
        return unbalanced(key, val, p)
    monkeypatch.setattr(steenrod, "_unbalanced", counted)
    sizes = []
    for bound in (algebra._JOIN_ROWS, rows):
        monkeypatch.setattr(algebra, "_JOIN_ROWS", bound)
        alg = GradedAlgebra(fx.algebra.p, fx.algebra.n, fx.algebra.dims, fx.algebra.mult)
        verify_action(alg, SteenrodAction(alg, fx.action.maps))
        sizes.append(steps[:])
        steps.clear()
    whole, split = sizes
    assert len(whole) == 1 and len(split) > 1 and sum(split) == whole[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.booleans(), st.integers(0, 2**16))
def test_mutants_at_the_largest_prime_get_the_loops_defect_strings(rebase, seed):
    """p = 2097143, the largest prime below fplin.P_MAX.  The join keys a
    product (t, x, g, y) of basis vectors by one int64 below T^4 for T the
    total dimension (here 4, and below algebra.MAX_TOTAL_DIM in general, so
    T^4 < 2^63).  Each pair's value is a product of two residues below
    2^21, reduced mod p, and a key sums at most 2T of them, so no sum
    reaches 2^63 either.  A rebased basis makes most entries large."""
    alg = build("Product(Sphere(3),Sphere(3))@2097143").algebra
    assert alg.p == fplin.P_MAX - 9
    if rebase:
        alg = rebased(alg, seed)
    same_defects(random_mutant(alg, None, False, np.random.default_rng(seed))[0])


@pytest.mark.parametrize("xy, yx", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_keys_just_below_the_total_dimension_bound(xy, yx):
    """x in degree 2, x^2 = y, and xy, yx on the last of the degree-6
    classes, whose global index is T - 1 for T = MAX_TOTAL_DIM - 1: the key
    of (yx or xy) comes within T^3 of T^4, the largest.  Degree 0 is empty,
    as in a window, so no unit table of size T^2 is needed."""
    size = algebra.MAX_TOTAL_DIM - 1
    last = np.zeros((size - 2, 1), dtype=np.int64)
    mult = {(2, 2): np.array([[1]], dtype=np.int64), (2, 4): last.copy(), (4, 2): last.copy()}
    mult[(2, 4)][-1], mult[(4, 2)][-1] = xy, yx
    alg = GradedAlgebra(3, 6, [0, 0, 1, 0, 1, 0, size - 2], mult)
    assert alg.total_dim == size
    want = (None, None) if xy == yx else ("associativity fails for degrees (2, 2, 2)",
                                          "graded commutativity fails for degrees (2, 4)")
    assert same_defects(alg) == want


def test_sampled_mutants_are_refused():
    """A mutant both chains pass shows nothing, so nearly all must break an
    axiom.  Some cannot: in S3 x S3 x S5 at p = 5, P^1 on degree 3 lands in
    the top degree, where no axiom constrains it."""
    rng = np.random.default_rng(11)
    verdicts = []
    for text in MUTANT_SPECS:
        fx = build(text)
        for _ in range(6):
            verdicts.append(same_verdict(*random_mutant(fx.algebra, fx.action, rng.integers(2), rng)))
    assert verdicts.count(None) <= len(verdicts) // 20, verdicts


# --- the generators and what rests on them -----------------------------------

def _decomposables(alg, d):
    rows = [alg.mult[(i, d - i)].T for i in range(1, d) if (i, d - i) in alg.mult]
    return np.vstack(rows) if rows else np.zeros((0, alg.dim(d)), dtype=np.int64)


@pytest.mark.parametrize("text, gens", [
    ("ComplexProj(4)@2", {2: (0,)}),
    ("QuatProj(3)@3", {4: (0,)}),
    ("Product(Sphere(3),Sphere(5))@3", {3: (0,), 5: (0,)}),
    ("Product(ComplexProj(2),ComplexProj(2))@2", {2: (0, 1)}),
    ("ConnectedSum(ComplexProj(4),QuatProj(2))@2", {2: (0,), 4: (1,)}),
])
def test_generators_of_known_algebras(text, gens):
    assert build(text).algebra.generators == gens


@pytest.mark.parametrize("text", MUTANT_SPECS)
@pytest.mark.parametrize("seed", [None, 3, 4])
def test_generators_complement_the_decomposables(text, seed):
    alg = build(text).algebra
    if seed is not None:
        alg, _ = rebased_with_action(alg, None, seed)
    assert 0 not in alg.generators  # the unit is checked on its own
    for d in range(1, alg.n + 1):
        dec = _decomposables(alg, d)
        gens = alg.generators.get(d, ())
        eye = np.eye(alg.dim(d), dtype=np.int64)[list(gens)]
        assert fplin.rank(np.vstack([dec, eye]), alg.p) == alg.dim(d), d
        assert fplin.rank(dec, alg.p) + len(gens) == alg.dim(d), d


def test_window_generators_include_no_unit():
    fx = build("ConnectedSum(ComplexProj(4),ComplexProj(4))@2")
    window = P.subquotient(fx.algebra, P.minimum_period(fx.algebra).certificate)
    assert window.unit_defect is not None
    assert window.generators == {2: (0, 1)}


def _two_dim_algebra(p, xy, yx):
    """Degree-1 classes x, y with x^2 = y^2 = 0 and one top class in degree 2."""
    one = np.array([[1]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    mult = {(0, 0): one, (0, 1): eye, (1, 0): eye, (0, 2): one, (2, 0): one,
            (1, 1): np.array([[0, xy, yx, 0]], dtype=np.int64)}
    return GradedAlgebra(p, 2, [1, 2, 1], mult)


@pytest.mark.parametrize("p, xy, yx", [(2, 1, 0), (3, 1, 1), (5, 1, 1), (5, 1, 2)])
def test_validate_refuses_an_associative_noncommutative_algebra(p, xy, yx):
    alg = _two_dim_algebra(p, xy, yx)
    assert alg.associativity_defect is None
    with pytest.raises(AlgebraDefect, match="commutativity"):
        alg.validate()
    with pytest.raises(AlgebraDefect):
        old_validate(alg)
    _two_dim_algebra(p, 1, p - 1).validate()


@pytest.mark.parametrize("key", [(2, 4), (4, 2)])
def test_verify_action_refuses_a_nonassociative_algebra(key):
    """CP(3) at p = 2 with one of y * y^2 and y^2 * y set to zero: one side
    of (yy)y = y(yy) is zero, the other is not."""
    fx = build("ComplexProj(3)@2")
    mult = dict(fx.algebra.mult)
    del mult[key]
    alg = GradedAlgebra(2, fx.algebra.n, fx.algebra.dims, mult)
    act = SteenrodAction(alg, fx.action.maps)
    assert alg.associativity_defect is not None
    with pytest.raises(ActionDefect, match="associative"):
        verify_action(alg, act)
    with pytest.raises(AlgebraDefect):
        alg.validate()
    # the verdict stays after validate has computed it
    with pytest.raises(ActionDefect, match="associative"):
        verify_action(alg, act)


def test_without_a_unit_degree_zero_is_checked():
    """e = e^2 acts as a unit on the left only, x^2 = z, and (xe)x = 0 while
    x(ex) = z.  Only e in the middle shows it."""
    one, zero = np.array([[1]], dtype=np.int64), np.array([[0]], dtype=np.int64)
    mult = {(0, 0): one, (0, 1): one, (0, 2): one, (1, 0): zero, (2, 0): zero, (1, 1): one}
    alg = GradedAlgebra(2, 2, [1, 1, 1], mult)
    assert alg.unit_defect == "unit fails on the right in degree 1"
    assert 0 in alg.generators
    assert alg.associativity_defect == "associativity fails for degrees (1, 0, 1)"
    assert same_defects(alg) == (alg.associativity_defect, alg.commutativity_defect)
    with pytest.raises(ActionDefect, match="associative"):
        verify_action(alg, SteenrodAction(alg, {(1, 1): one}))  # Sq^1 x = x^2


@pytest.mark.parametrize("text", ["Product(ComplexProj(3),ComplexProj(3))@2",
                                  "ConnectedSum(ComplexProj(3),ComplexProj(3))@2"])
def test_cartan_runs_over_every_generator(text):
    """Sq^2(g^2) = 0 for each degree-2 generator g; setting it to g^3 breaks
    the Cartan formula only for products that hold g^2, which no other
    generator reaches."""
    fx = build(text)
    alg, act = fx.algebra, fx.action
    for g in alg.generators[2]:
        e = alg.basis_element(2, g)
        square = alg.cup(2, e, 2, e)
        cube = alg.cup(2, e, 4, square)
        (c,) = np.flatnonzero(square)
        maps = dict(act.maps)
        table = maps.get((2, 4), np.zeros((alg.dim(6), alg.dim(4)), dtype=np.int64)).copy()
        table[:, c] = (table[:, c] + cube) % 2
        maps[(2, 4)] = table
        mutant = SteenrodAction(alg, maps)
        with pytest.raises(ActionDefect, match="Cartan"):
            verify_action(alg, mutant)
        with pytest.raises(ActionDefect, match="Cartan"):
            old_verify_action(alg, mutant)


def test_checks_are_computed_once_per_instance(monkeypatch):
    fx = build("Product(ComplexProj(3),ComplexProj(2))@3")
    calls = []
    for name in ("unit_defect", "_is_generator", "generators", "associativity_defect"):
        once = GradedAlgebra.__dict__[name]

        def counted(self, func=once.func, name=name):
            calls.append(name)
            return func(self)
        prop = type(once)(counted)
        prop.__set_name__(GradedAlgebra, name)
        monkeypatch.setattr(GradedAlgebra, name, prop)
    alg = GradedAlgebra.from_dict(fx.algebra.to_dict())
    act = SteenrodAction.from_dict(alg, fx.action.to_dict())
    alg.validate()
    verify_action(alg, act)
    alg.validate()
    verify_action(alg, act)
    assert alg.generators == alg.generators
    assert sorted(calls) == ["_is_generator", "associativity_defect", "generators", "unit_defect"]


def test_top_power_is_one_batched_power_per_degree():
    """The top check no longer multiplies one basis vector at a time."""
    assert not hasattr(steenrod, "element_power")
    fx = build("ComplexProj(5)@5")
    # P^1 on degree 2 is the fifth power, into degree 10
    maps = _mutate(fx.action.maps, (1, 2), np.random.default_rng(0), 5, (1, 1))
    mutant = SteenrodAction(fx.algebra, maps)
    with pytest.raises(ActionDefect, match="p-th power"):
        verify_action(fx.algebra, mutant)
    with pytest.raises(ActionDefect, match="p-th power"):
        old_verify_action(fx.algebra, mutant)
