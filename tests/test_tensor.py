import itertools

import numpy as np
import pytest

from tnkit.tensor import (
    DenseTensor,
    TruncationSpec,
    _freeze,
    contract,
    contract_network,
    qr_split,
    qr_matrix,
    svd_matrix,
    scale_axis,
    svd_split,
    trace,
    truncate_spectrum,
    _greedy_pair,
    _phase_fix_columns,
)


def rand_tensor(rng, dims, labels):
    data = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return DenseTensor(data, labels)


def test_construction_and_value_semantics():
    arr = np.zeros((2, 3), dtype=complex)
    t = DenseTensor(arr, ("a", "b"))
    arr[0, 0] = 5.0  # later writes by the caller must not leak in
    assert t.data[0, 0] == 0.0
    assert not t.data.flags.writeable
    assert t.dims == (2, 3) and t.dim("b") == 3 and t.rank == 2
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((2, 2)), ("a",))
    with pytest.raises(ValueError):
        DenseTensor(np.zeros((2, 2)), ("a", "a"))
    with pytest.raises(ValueError):
        DenseTensor(np.array([np.nan]), ("a",))


def test_matrix_vector_contraction():
    m = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]), ("i", "j"))
    v = DenseTensor(np.array([1.0, 1.0]), ("j",))
    out = contract(m, v, [("j", "j")])
    assert out.labels == ("i",)
    assert np.allclose(out.data, [3.0, 7.0])


def test_contract_validation():
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (2, 3), ("i", "j"))
    b = rand_tensor(rng, (4, 2), ("j", "k"))
    with pytest.raises(ValueError):
        contract(a, b, [("j", "j")])  # 3 vs 4
    with pytest.raises(ValueError):
        contract(a, b, [("x", "j")])  # unknown label
    c = rand_tensor(rng, (3, 5), ("j", "i"))
    with pytest.raises(ValueError):
        contract(a, c, [("j", "j")])  # surviving labels collide on "i"


def test_contract_is_bilinear():
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, (3, 4), ("i", "j"))
    b1 = rand_tensor(rng, (4, 2), ("j", "k"))
    b2 = rand_tensor(rng, (4, 2), ("j", "k"))
    alpha = 0.3 - 1.7j
    lhs = contract(a, DenseTensor(b1.data + alpha * b2.data, ("j", "k")), ["j"])
    rhs = contract(a, b1, ["j"]).data + alpha * contract(a, b2, ["j"]).data
    assert np.allclose(lhs.data, rhs, atol=1e-12)


def test_outer_product_and_scalar_result():
    a = DenseTensor(np.array([1.0, 2.0]), ("i",))
    b = DenseTensor(np.array([3.0, 5.0]), ("j",))
    outer = contract(a, b, [])
    assert outer.labels == ("i", "j")
    assert np.allclose(outer.data, [[3.0, 5.0], [6.0, 10.0]])
    full = contract(a, a.relabel({"i": "i2"}), [("i", "i2")])
    assert full.rank == 0
    assert np.isclose(full.item(), 5.0)


def test_ring_of_identities_traces_to_two():
    eye = np.eye(2)
    ring = [
        DenseTensor(eye, ("a", "b")),
        DenseTensor(eye, ("b", "c")),
        DenseTensor(eye, ("c", "d")),
        DenseTensor(eye, ("d", "a")),
    ]
    out = contract_network(ring)
    assert out.rank == 0
    assert np.isclose(out.item(), 2.0)


def test_greedy_picks_first_pair_on_cost_ties():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, (2, 3), ("i", "j"))
    b = rand_tensor(rng, (3, 4), ("j", "k"))
    c = rand_tensor(rng, (4, 2), ("k", "l"))
    # multiply counts: (a,b)=24, (b,c)=24, (a,c)=48 -> tie, first pair wins
    assert _greedy_pair([a, b, c]) == (0, 1)
    out = contract_network([a, b, c]).transpose(("i", "l"))
    assert np.allclose(out.data, a.data @ b.data @ c.data, atol=1e-12)


def test_explicit_order_and_validation():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (2, 3), ("i", "j"))
    b = rand_tensor(rng, (3, 4), ("j", "k"))
    c = rand_tensor(rng, (4, 2), ("k", "l"))
    ref = a.data @ b.data @ c.data
    # contract (b, c) first: result appended at the end, then merged with a
    out = contract_network([a, b, c], order=[(1, 2), (0, 1)])
    assert np.allclose(out.transpose(("i", "l")).data, ref, atol=1e-12)
    with pytest.raises(ValueError):
        contract_network([a, b, c], order=[(0, 0)])
    with pytest.raises(ValueError):
        contract_network([a, b, c], order=[(0, 1)])  # leaves two tensors


def test_network_label_validation():
    eye = np.eye(2)
    t1 = DenseTensor(eye, ("a", "b"))
    t2 = DenseTensor(eye, ("b", "c"))
    t3 = DenseTensor(eye, ("b", "d"))
    with pytest.raises(ValueError):
        contract_network([t1, t2, t3])  # "b" appears three times
    t4 = DenseTensor(np.eye(3), ("a", "e"))
    with pytest.raises(ValueError):
        contract_network([t1, t4])  # extent mismatch on "a"


def test_disconnected_network_is_outer_product():
    a = DenseTensor(np.array([2.0]), ("i",))
    b = DenseTensor(np.array([3.0, 4.0]), ("j",))
    out = contract_network([a, b])
    assert out.labels == ("i", "j")
    assert np.allclose(out.data, [[6.0, 8.0]])


def _all_orders(n):
    """Every sequence of position pairs that folds n tensors into one,
    using the append-at-end indexing of contract_network."""
    if n == 1:
        yield []
        return
    for i in range(n):
        for j in range(i + 1, n):
            for rest in _all_orders(n - 1):
                yield [(i, j)] + rest


@pytest.mark.parametrize("n_tensors", [3, 4, 5])
def test_order_invariance_exhaustive(n_tensors):
    rng = np.random.default_rng(42 + n_tensors)
    # a ring with one dangling leg so results are rank-1
    tensors = []
    for k in range(n_tensors):
        labels = (f"b{k}", f"b{(k + 1) % n_tensors}")
        dims = (2, 2)
        if k == 0:
            labels = labels + ("out",)
            dims = dims + (3,)
        tensors.append(rand_tensor(rng, dims, labels))
    ref = contract_network(tensors).transpose(("out",)).data
    for order in _all_orders(n_tensors):
        out = contract_network(tensors, order=order).transpose(("out",)).data
        assert np.allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_order_invariance_six_tensors_greedy_vs_explicit():
    rng = np.random.default_rng(99)
    chain = [rand_tensor(rng, (2, 2), (f"x{k}", f"x{k+1}")) for k in range(6)]
    ref = contract_network(chain).transpose(("x0", "x6"))
    # right-to-left explicit folding; the merged tensor lands at the end of
    # the shrinking working list each time
    out = contract_network(chain, order=[(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)])
    assert np.allclose(out.transpose(("x0", "x6")).data, ref.data, rtol=1e-10)


def test_trace_partial_and_full():
    rng = np.random.default_rng(4)
    t = rand_tensor(rng, (3, 2, 3, 2), ("u", "l", "d", "r"))
    full = trace(t, [("u", "d"), ("l", "r")])
    assert full.rank == 0
    assert np.isclose(full.item(), np.einsum("ulul->", t.data))
    part = trace(t, [("u", "d")])
    assert part.labels == ("l", "r")
    assert np.allclose(part.data, np.einsum("ulur->lr", t.data))
    with pytest.raises(ValueError):
        trace(t, [("u", "l")])  # extents differ


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def test_svd_identity_capped():
    t = DenseTensor(np.eye(4), ("i", "j"))
    u, s, v, rep = svd_split(t, ["i"], TruncationSpec(max_bond=2))
    assert np.allclose(s, [1.0, 1.0])
    assert rep.kept == 2
    assert np.isclose(rep.discarded_weight, 0.5)


def test_svd_full_rank_reconstructs():
    rng = np.random.default_rng(5)
    t = rand_tensor(rng, (3, 4, 5), ("a", "b", "c"))
    u, s, v, rep = svd_split(t, ["a", "b"])
    assert rep.discarded_weight == 0.0
    recon = contract(scale_axis(u, "bond", s), v, ["bond"])
    assert recon.labels == ("a", "b", "c")
    assert np.max(np.abs(recon.data - t.data)) < 1e-12
    # u isometric over its row group, v over its column group
    um = u.data.reshape(12, -1)
    assert np.allclose(um.conj().T @ um, np.eye(um.shape[1]), atol=1e-12)
    vm = v.data.reshape(v.dims[0], -1)
    assert np.allclose(vm @ vm.conj().T, np.eye(vm.shape[0]), atol=1e-12)


def test_svd_norm_accounting():
    rng = np.random.default_rng(6)
    t = rand_tensor(rng, (6, 7), ("a", "b"))
    total = np.linalg.norm(t.data) ** 2
    u, s, v, rep = svd_split(t, ["a"], TruncationSpec(max_bond=3))
    assert np.isclose(np.sum(s**2) + rep.discarded_weight * total, total, rtol=1e-12)


def test_svd_renormalize_policy():
    rng = np.random.default_rng(7)
    t = rand_tensor(rng, (6, 7), ("a", "b"))
    total = np.linalg.norm(t.data) ** 2
    u, s, v, rep = svd_split(
        t, ["a"], TruncationSpec(max_bond=3, norm_policy="renormalize")
    )
    assert rep.discarded_weight > 0.0
    assert np.isclose(np.sum(s**2), total, rtol=1e-12)


def test_svd_phase_convention():
    rng = np.random.default_rng(8)
    t = rand_tensor(rng, (5, 4), ("a", "b"))
    u, s, v, _ = svd_split(t, ["a"])
    for j in range(u.dims[1]):
        col = u.data[:, j]
        top = col[np.argmax(np.abs(col))]
        assert abs(np.imag(top)) < 1e-13
        assert np.real(top) > 0.0


def test_truncate_spectrum_rules():
    s = np.array([1.0, 0.6, 0.3, 0.1])
    k, w = truncate_spectrum(s, max_bond=10, rel_cutoff=0.5)
    assert k == 2
    assert np.isclose(w, (0.09 + 0.01) / np.sum(s**2))
    # degenerate pair straddling the cutoff is kept together
    s = np.array([1.0, 0.5 * (1 + 2e-15), 0.5 * (1 - 2e-15), 0.2])
    k, _ = truncate_spectrum(s, max_bond=10, rel_cutoff=0.5)
    assert k == 3
    # ... but max_bond still caps
    k, w = truncate_spectrum(np.ones(4), max_bond=2, rel_cutoff=0.0)
    assert k == 2 and np.isclose(w, 0.5)
    # at least one value is always kept
    k, _ = truncate_spectrum(np.array([1.0, 1e-30]), max_bond=5, rel_cutoff=0.9)
    assert k == 1


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        TruncationSpec(max_bond=0)
    with pytest.raises(ValueError):
        TruncationSpec(max_bond=4, rel_cutoff=1.0)
    with pytest.raises(ValueError):
        TruncationSpec(max_bond=4, norm_policy="clip")


def test_qr_split_isometry_and_identity_on_isometric_input():
    rng = np.random.default_rng(9)
    t = rand_tensor(rng, (4, 2, 3), ("a", "b", "c"))
    q, r = qr_split(t, ["a", "b"])
    qm = q.data.reshape(8, -1)
    assert np.allclose(qm.conj().T @ qm, np.eye(qm.shape[1]), atol=1e-12)
    recon = contract(q, r, ["bond"])
    assert np.max(np.abs(recon.data - t.data)) < 1e-12
    # feeding the isometry back in gives R = identity (same phase convention)
    q2, r2 = qr_split(q, ["a", "b"], bond_label="k")
    assert np.max(np.abs(r2.data - np.eye(r2.dims[0]))) < 1e-12


def test_split_argument_validation():
    rng = np.random.default_rng(10)
    t = rand_tensor(rng, (2, 3), ("a", "b"))
    with pytest.raises(ValueError):
        svd_split(t, [])
    with pytest.raises(ValueError):
        svd_split(t, ["a", "b"])
    with pytest.raises(ValueError):
        svd_split(t, ["z"])
    with pytest.raises(ValueError):
        svd_split(t, ["a"], bond_label="b")
    with pytest.raises(ValueError):
        qr_matrix(np.array([[np.inf, 1.0], [0.0, 1.0]]))


def _phase_fix_columns_loop(u, other):
    """The column-by-column form of the phase convention, as a reference."""
    for j in range(u.shape[1]):
        col = u[:, j]
        a = col[int(np.argmax(np.abs(col)))]
        if abs(a) == 0.0:
            continue
        ph = a / abs(a)
        u[:, j] *= np.conj(ph)
        other[j, :] *= ph


def test_phase_fix_matches_column_loop():
    rng = np.random.default_rng(17)
    u = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
    other = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    u[:, 2] = 0.0  # zero column keeps phase 1
    u[:, 4] = 0.0
    u[[1, 3, 7], 4] = [0.6j, -0.6, 0.6]  # tied maxima: the first one decides
    product = u @ other
    want_u, want_other = u.copy(), other.copy()
    _phase_fix_columns_loop(want_u, want_other)
    _phase_fix_columns(u, other)
    np.testing.assert_allclose(u, want_u, rtol=0, atol=1e-14)
    np.testing.assert_allclose(other, want_other, rtol=0, atol=1e-14)
    np.testing.assert_allclose(u @ other, product, rtol=0, atol=1e-13)
    assert u[1, 4] == 0.6 and np.all(u[:, 2] == 0.0)
    leading = u[np.argmax(np.abs(u), axis=0), np.arange(6)]
    assert np.all(np.abs(leading[[0, 1, 3, 4, 5]].imag) < 1e-15)
    assert np.all(leading[[0, 1, 3, 4, 5]].real > 0.0)


@pytest.mark.parametrize(
    "data, dtype",
    [
        (np.ones((2, 2), dtype=int), np.float64),
        (np.ones((2, 2), dtype=bool), np.float64),
        (np.ones((2, 2), dtype=np.float32), np.float64),
        (np.ones((2, 2)), np.float64),
        (np.ones((2, 2), dtype=np.complex64), np.complex128),
        (np.ones((2, 2), dtype=complex), np.complex128),
        ([[1.0, 2.0j]], np.complex128),
    ],
)
def test_freeze_keeps_real_data_real(data, dtype):
    out = _freeze(data)
    assert out.dtype == dtype
    assert not out.flags.writeable and out.flags.c_contiguous
    np.testing.assert_array_equal(out, np.asarray(data))
    assert _freeze(out) is out


def test_real_factorizations_stay_real_with_sign_fixed_columns():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(7, 5))
    u, s, vh, _ = svd_matrix(m)
    q, r = qr_matrix(m)
    assert all(a.dtype == np.float64 for a in (u, vh, q, r))
    for left in (u, q):
        leading = left[np.argmax(np.abs(left), axis=0), np.arange(left.shape[1])]
        assert np.all(leading > 0.0)
    np.testing.assert_allclose((u * s) @ vh, m, rtol=0, atol=1e-13)
    np.testing.assert_allclose(q @ r, m, rtol=0, atol=1e-13)
