"""Property tests: bulk GF(2^m) ops vs their scalar counterparts.

The batch engine leans on the vectorized field kernels (`vmul`, `vexp`,
`vdlog`, per-element `vpowv`, and the batched Lemma-4 coset lookup).
Each bulk op must agree elementwise with the scalar op it amortizes,
raise in exactly the scalar cases, and charge the :class:`GFOpSink`
identically (one tally per element -- opcount parity is what keeps the
bound-accounting ledger honest across engines).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.addressing import batched_slots
from repro.core.scheme import PPScheme
from repro.gf.gf2m import GF2m, set_op_sink
from repro.gf.opcount import GFOpSink

F1 = GF2m(1)
F3 = GF2m(3)
F8 = GF2m(8)
F18 = GF2m.get(18)  # the n = 9 field F_{2^18} of the Section-4 layer
FIELDS = [F1, F3, F8, F18]


def field_and_elems(draw, min_size=1, max_size=32, nonzero=False):
    f = draw(st.sampled_from(FIELDS))
    lo = 1 if nonzero else 0
    xs = draw(
        st.lists(
            st.integers(lo, f.order - 1), min_size=min_size,
            max_size=max_size,
        )
    )
    return f, np.array(xs, dtype=np.int64)


# ---------------------------------------------------------------------------
# elementwise agreement with the scalar ops


@given(st.data())
def test_vmul_matches_scalar(data):
    f, a = field_and_elems(data.draw)
    b = np.array(
        data.draw(
            st.lists(
                st.integers(0, f.order - 1), min_size=a.size,
                max_size=a.size,
            )
        ),
        dtype=np.int64,
    )
    want = [f.mul(int(x), int(y)) for x, y in zip(a, b)]
    assert list(f.vmul(a, b)) == want


@given(st.data())
def test_vinv_vdiv_match_scalar(data):
    f, a = field_and_elems(data.draw, nonzero=True)
    assert list(f.vinv(a)) == [f.inv(int(x)) for x in a]
    b = np.roll(a, 1)
    assert list(f.vdiv(a, b)) == [
        f.div(int(x), int(y)) for x, y in zip(a, b)
    ]


@given(st.data(), st.integers(0, 40))
def test_vpow_matches_scalar(data, e):
    f, a = field_and_elems(data.draw)
    assert list(f.vpow(a, e)) == [f.pow(int(x), e) for x in a]


@given(st.data())
def test_vpowv_matches_scalar_including_negative(data):
    f, a = field_and_elems(data.draw)
    e = np.array(
        data.draw(
            st.lists(
                st.integers(-30, 30), min_size=a.size, max_size=a.size
            )
        ),
        dtype=np.int64,
    )
    e = np.where(a == 0, np.abs(e), e)  # 0**negative raises (both paths)
    want = [f.pow(int(x), int(k)) for x, k in zip(a, e)]
    assert list(f.vpowv(a, e)) == want


@given(st.data())
def test_vsqrt_vfrobenius_match_scalar(data):
    f, a = field_and_elems(data.draw)
    roots = f.vsqrt(a)
    assert list(roots) == [f.sqrt(int(x)) for x in a]
    # char-2 identity: sqrt really is the halving of squaring
    assert list(f.vmul(roots, roots)) == list(a)
    for k in (1, 2):
        assert list(f.vfrobenius(a, k)) == [
            f.frobenius(int(x), k) for x in a
        ]


@given(st.data())
def test_vfrobenius_is_additive(data):
    """Frobenius is a field automorphism: (a+b)^2 = a^2 + b^2."""
    f, a = field_and_elems(data.draw)
    b = np.roll(a, 1)
    lhs = f.vfrobenius(f.vadd(a, b))
    rhs = f.vadd(f.vfrobenius(a), f.vfrobenius(b))
    assert list(lhs) == list(rhs)


@given(st.data())
def test_vlog_vexp_match_scalar_and_invert(data):
    f, a = field_and_elems(data.draw, nonzero=True)
    logs = f.vlog(a)
    assert list(logs) == [f.log(int(x)) for x in a]
    assert list(f.vexp(logs)) == list(a)
    e = np.array(
        data.draw(
            st.lists(st.integers(-200, 200), min_size=1, max_size=16)
        ),
        dtype=np.int64,
    )
    assert list(f.vexp(e)) == [f.exp(int(k)) for k in e]


# ---------------------------------------------------------------------------
# error-path parity


def test_vector_zero_handling_matches_scalar():
    a = np.array([0, 1, 3], dtype=np.int64)
    with pytest.raises(ZeroDivisionError):
        F3.vinv(a)
    with pytest.raises(ZeroDivisionError):
        F3.vdiv(np.ones(3, dtype=np.int64), a)
    with pytest.raises(ZeroDivisionError):
        F3.vpowv(a, np.array([-1, 2, 2], dtype=np.int64))
    with pytest.raises(ValueError):
        F3.vlog(a)
    # scalar twins
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)
    with pytest.raises(ZeroDivisionError):
        F3.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        F3.pow(0, -1)
    with pytest.raises(ValueError):
        F3.log(0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_vector_op_matches_scalar_on_all_operands(m):
    """Exhaustive over the field, zero included: the log sentinel and the
    zero tail of the exp table must reproduce every scalar zero rule."""
    f = GF2m(m)
    elems = f.elements()
    a, b = (x.ravel() for x in np.meshgrid(elems, elems))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.vmul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    nz = b != 0
    assert f.vdiv(a[nz], b[nz]).tolist() == [
        f.div(x, y) for x, y in pairs if y != 0
    ]
    nonzero = elems[1:]
    assert f.vinv(nonzero).tolist() == [f.inv(x) for x in nonzero.tolist()]
    assert f.vlog(nonzero).tolist() == [f.log(x) for x in nonzero.tolist()]
    for e in range(2 * f.order + 2):
        assert f.vpow(elems, e).tolist() == [
            f.pow(x, e) for x in elems.tolist()
        ]
    exps = np.arange(-2 * f.order, 2 * f.order + 2, dtype=np.int64)
    base, ex = (x.ravel() for x in np.meshgrid(elems, exps))
    ok = (base != 0) | (ex >= 0)
    assert f.vpowv(base[ok], ex[ok]).tolist() == [
        f.pow(x, k) for x, k in zip(base[ok].tolist(), ex[ok].tolist())
    ]
    assert f.vexp(exps).tolist() == [f.exp(k) for k in exps.tolist()]
    assert f.vsqrt(elems).tolist() == [f.sqrt(x) for x in elems.tolist()]
    assert f.vfrobenius(elems, 2).tolist() == [
        f.frobenius(x, 2) for x in elems.tolist()
    ]
    # every zero the scalar ops refuse, the vector ops refuse too
    zero = np.zeros(1, dtype=np.int64)
    for x in elems.tolist():
        with pytest.raises(ZeroDivisionError):
            f.div(x, 0)
        with pytest.raises(ZeroDivisionError):
            f.vdiv(np.array([x]), zero)
    for vec, scalar, exc in (
        (lambda: f.vinv(zero), lambda: f.inv(0), ZeroDivisionError),
        (lambda: f.vlog(zero), lambda: f.log(0), ValueError),
        (lambda: f.vpowv(zero, -1), lambda: f.pow(0, -1), ZeroDivisionError),
    ):
        with pytest.raises(exc):
            vec()
        with pytest.raises(exc):
            scalar()


# ---------------------------------------------------------------------------
# opcount parity: one bulk op of size k == k scalar ops, same counters


@given(st.data())
def test_opcount_parity_bulk_vs_scalar(data):
    f, a = field_and_elems(data.draw, nonzero=True, max_size=16)
    b = np.roll(a, 1)
    e = np.arange(a.size, dtype=np.int64) + 1

    scalar_ops = lambda: [  # noqa: E731 -- paired with vector_ops below
        [f.add(int(x), int(y)) for x, y in zip(a, b)],
        [f.mul(int(x), int(y)) for x, y in zip(a, b)],
        [f.inv(int(x)) for x in a],
        [f.pow(int(x), int(k)) for x, k in zip(a, e)],
        [f.log(int(x)) for x in a],
        [f.exp(int(k)) for k in e],
    ]
    vector_ops = lambda: [  # noqa: E731
        list(f.vadd(a, b)),
        list(f.vmul(a, b)),
        list(f.vinv(a)),
        list(f.vpowv(a, e)),
        list(f.vlog(a)),
        list(f.vexp(e)),
    ]

    sink_s, sink_v = GFOpSink(), GFOpSink()
    prev = set_op_sink(sink_s)
    try:
        want = scalar_ops()
        set_op_sink(sink_v)
        got = vector_ops()
    finally:
        set_op_sink(prev)

    assert got == want
    assert sink_s.as_dict() == sink_v.as_dict()
    assert sink_v.total() == 6 * a.size


def test_broadcast_ops_charge_their_output_size():
    """A ``(3, 1)`` by ``(1, 4)`` op is 12 elementwise ops, not 4."""
    a = np.array([[1], [2], [3]], dtype=np.int64)
    b = np.array([[1, 2, 4, 5]], dtype=np.int64)
    sink = GFOpSink()
    prev = set_op_sink(sink)
    try:
        shapes = {
            F3.vadd(a, b).shape, F3.vmul(a, b).shape, F3.vdiv(a, b).shape,
            F3.vpowv(a, b).shape,
        }
    finally:
        set_op_sink(prev)
    assert shapes == {(3, 4)}
    assert sink.as_dict() == {"add": 12, "mul": 36, "dlog": 0, "exp": 0}


def test_vsqrt_vfrobenius_charge_like_scalar():
    a = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    sink = GFOpSink()
    prev = set_op_sink(sink)
    try:
        F3.vsqrt(a)
        F3.vfrobenius(a)
    finally:
        set_op_sink(prev)
    # each is one vpow: a.size mul tallies, same as 5 scalar pow calls
    assert sink.as_dict() == {"add": 0, "mul": 10, "dlog": 0, "exp": 0}


# ---------------------------------------------------------------------------
# batched coset lookup (Lemma 4) vs a Lemma-2 enumeration
#
# Scalar ``locate`` runs the same closed-form kernel as the batch path,
# so agreeing with it proves nothing about the closed form.  The oracle
# here is ``gamma_module(u)``: the variables stored in module ``u``,
# listed in slot order, which shares no code with the kernel.


@pytest.fixture(scope="module", params=[(2, 3), (4, 3)])
def scheme(request):
    q, n = request.param
    return PPScheme(q, n)


def enumerated_cells(scheme, var):
    """``{(module, slot)}`` holding a copy of variable ``var``, found by
    scanning ``gamma_module(u)`` for the variable's coset key."""
    g = scheme.graph
    key = g.variables.key(scheme.addressing.unrank(var))
    return {
        (u, k)
        for u in g.gamma_variable(scheme.addressing.unrank(var))
        for k, mat in enumerate(g.gamma_module(u))
        if g.variables.key(mat) == key
    }


def test_batched_slots_match_scalar_locate(scheme):
    idx = scheme.random_request_set(32, seed=7)
    mats = scheme.addressing.vunrank(idx)
    modules = scheme.graph.vgamma_variables(mats)
    slots = batched_slots(scheme.graph, mats, modules)
    assert slots.shape == modules.shape == (idx.size, scheme.graph.q + 1)
    for i, var in enumerate(idx):
        want = enumerated_cells(scheme, int(var))
        assert len(want) == scheme.graph.q + 1
        got = set(zip(modules[i].tolist(), slots[i].tolist()))
        assert got == want == set(scheme.locate(int(var)))


def test_vlocate_matches_locate(scheme):
    idx = scheme.random_request_set(24, seed=3)
    modules, slots = scheme.addressing.vlocate(idx)
    for i, var in enumerate(idx):
        want = enumerated_cells(scheme, int(var))
        got = set(zip(modules[i].tolist(), slots[i].tolist()))
        assert got == want == set(scheme.addressing.locate(int(var)))


def test_vslots_delegates_to_shared_kernel(scheme):
    idx = scheme.random_request_set(8, seed=1)
    mats = scheme.addressing.vunrank(idx)
    modules = scheme.graph.vgamma_variables(mats)
    slots = scheme.addressing.vslots(mats, modules)
    np.testing.assert_array_equal(
        slots, batched_slots(scheme.graph, mats, modules)
    )
    for i, var in enumerate(idx):
        got = set(zip(modules[i].tolist(), slots[i].tolist()))
        assert got == enumerated_cells(scheme, int(var))
