import numpy as np
import pytest

from tnkit.tensor import (
    TruncationSpec,
    _freeze,
    _phase_fix_columns,
    qr_matrix,
    rq_matrix,
    split_matrix,
    svd_matrix,
    truncate_spectrum,
)


def rand_matrix(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------


def test_svd_identity_capped():
    u, s, vh, rep = svd_matrix(np.eye(4), TruncationSpec(max_bond=2))
    assert np.allclose(s, [1.0, 1.0])
    assert u.shape == (4, 2) and vh.shape == (2, 4)
    assert rep.kept == 2
    assert np.isclose(rep.discarded_weight, 0.5)


def test_svd_full_rank_reconstructs():
    rng = np.random.default_rng(5)
    m = rand_matrix(rng, (3, 4, 5)).reshape(12, 5)
    u, s, vh, rep = svd_matrix(m)
    assert rep.discarded_weight == 0.0
    assert np.max(np.abs((u * s) @ vh - m)) < 1e-12
    # u has orthonormal columns, vh orthonormal rows
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
    assert np.allclose(vh @ vh.conj().T, np.eye(vh.shape[0]), atol=1e-12)



def test_svd_falls_back_to_gesvd(monkeypatch):
    # when gesdd fails, scipy's gesvd (imported only then) gives the same
    # truncated factorization under the same phase convention
    rng = np.random.default_rng(9)
    m = rand_matrix(rng, (12, 7))
    spec = TruncationSpec(max_bond=5)
    u0, s0, vh0, rep0 = svd_matrix(m, spec)

    def no_gesdd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_gesdd)
    u, s, vh, rep = svd_matrix(m, spec)
    assert rep.kept == rep0.kept == 5
    assert rep.discarded_weight == pytest.approx(rep0.discarded_weight, rel=1e-12)
    assert np.allclose(s, s0, rtol=1e-12, atol=0)
    assert np.allclose(u, u0, atol=1e-12) and np.allclose(vh, vh0, atol=1e-12)

def test_svd_norm_accounting():
    rng = np.random.default_rng(6)
    m = rand_matrix(rng, (6, 7))
    total = np.linalg.norm(m) ** 2
    u, s, vh, rep = svd_matrix(m, TruncationSpec(max_bond=3))
    assert np.isclose(np.sum(s**2) + rep.discarded_weight * total, total, rtol=1e-12)


def test_svd_renormalize_policy():
    rng = np.random.default_rng(7)
    m = rand_matrix(rng, (6, 7))
    total = np.linalg.norm(m) ** 2
    u, s, vh, rep = svd_matrix(m, TruncationSpec(max_bond=3, norm_policy="renormalize"))
    assert rep.discarded_weight > 0.0
    assert np.isclose(np.sum(s**2), total, rtol=1e-12)


def test_svd_phase_convention():
    rng = np.random.default_rng(8)
    u, s, vh, _ = svd_matrix(rand_matrix(rng, (5, 4)))
    for j in range(u.shape[1]):
        col = u[:, j]
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


def test_qr_isometry_and_identity_on_isometric_input():
    rng = np.random.default_rng(9)
    m = rand_matrix(rng, (4, 2, 3)).reshape(8, 3)
    q, r = qr_matrix(m)
    assert np.allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-12)
    assert np.max(np.abs(q @ r - m)) < 1e-12
    # feeding the isometry back in gives R = identity (same phase convention)
    q2, r2 = qr_matrix(q)
    assert np.max(np.abs(r2 - np.eye(r2.shape[0]))) < 1e-12


def _split_input(seed, shape, dtype, rank=None):
    """A random matrix of ``shape``, of rank ``rank`` when given."""
    rng = np.random.default_rng(seed)
    inner = min(shape) if rank is None else rank
    left, right = rng.normal(size=(shape[0], inner)), rng.normal(size=(inner, shape[1]))
    if dtype is complex:
        left = left + 1j * rng.normal(size=left.shape)
        right = right + 1j * rng.normal(size=right.shape)
    return left @ right


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(6, 6), (9, 4), (4, 9)])
@pytest.mark.parametrize("leftward", [False, True])
@pytest.mark.parametrize("rank", [None, 2])
def test_split_that_keeps_every_value_is_an_exact_qr(dtype, shape, leftward, rank):
    m = _split_input(13, shape, dtype, rank)
    k = min(shape)
    a, b, rep = split_matrix(m, TruncationSpec(max_bond=k), leftward)
    assert rep.kept == k and rep.discarded_weight == 0.0
    assert a.shape == (shape[0], k) and b.shape == (k, shape[1])
    assert a.dtype == b.dtype == np.result_type(dtype, np.float64)
    assert np.linalg.norm(a @ b - m) <= 1e-13 * np.linalg.norm(m)
    # the isometry: columns of a, or rows of b leftward, orthonormal and
    # phase-fixed (largest-magnitude entry real and positive)
    iso = b.conj().T if leftward else a
    assert np.max(np.abs(iso.conj().T @ iso - np.eye(k))) < 1e-13
    leading = iso[np.argmax(np.abs(iso), axis=0), np.arange(k)]
    assert np.all(np.abs(leading.imag) < 1e-15) and np.all(leading.real > 0.0)
    want = rq_matrix(m) if leftward else qr_matrix(m)
    np.testing.assert_array_equal(a, want[0])
    np.testing.assert_array_equal(b, want[1])


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("leftward", [False, True])
@pytest.mark.parametrize(
    "spec",
    [
        TruncationSpec(max_bond=3),
        TruncationSpec(max_bond=3, norm_policy="renormalize"),
        TruncationSpec(max_bond=8, rel_cutoff=0.2),
        TruncationSpec(max_bond=8, rel_cutoff=1e-15),
    ],
)
def test_split_that_can_cut_is_the_svd_with_values_absorbed(dtype, leftward, spec):
    m = _split_input(14, (7, 5), dtype)
    a, b, rep = split_matrix(m, spec, leftward)
    u, s, vh, want = svd_matrix(m, spec)
    want_a, want_b = (u * s, vh) if leftward else (u, s[:, None] * vh)
    np.testing.assert_array_equal(a, want_a)
    np.testing.assert_array_equal(b, want_b)
    assert rep == want


def test_split_argument_validation():
    def split(m):
        return split_matrix(m, TruncationSpec(max_bond=2))

    for factor in (svd_matrix, qr_matrix, rq_matrix, split):
        for bad in (np.inf, np.nan):
            m = np.eye(2)
            m[1, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                factor(m)


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
    # a writeable input is copied, so later writes by the caller do not leak
    arr = np.array(data)
    frozen = _freeze(arr)
    arr[...] = 0
    np.testing.assert_array_equal(frozen, np.asarray(data))


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
