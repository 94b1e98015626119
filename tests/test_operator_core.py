from dataclasses import dataclass, field

import numpy as np
import pytest

from qmix.operator_core import (
    as_matrix,
    choi_from_super,
    eig_hermitian,
    expm_superop,
    haar_unitary,
    hermitian_part,
    kraus_schrodinger_super,
    left_right_super,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    random_hermitian,
    random_psd,
    report_dict,
    require_hermitian,
    unvec,
    vec,
)

from qmix.generators import build_lindblad

from conftest import PAULI_X, same_bits


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_require_hermitian_rejects_and_symmetrizes(rng):
    a = random_hermitian(3, rng)
    out = require_hermitian(a + 1e-14 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]]))
    assert np.max(np.abs(out - out.conj().T)) == 0.0
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 0.1
    with pytest.raises(ValueError):
        require_hermitian(a + skew)


def test_eig_hermitian_examples():
    w, v = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    w, v = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    w, v = eig_hermitian(PAULI_X)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    # eigenvectors (1, -/+1)/sqrt(2) up to phase
    assert abs(abs(v[0, 0]) - 1 / np.sqrt(2)) < 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-10


def test_eig_hermitian_reconstruction(rng):
    for _ in range(20):
        a = random_hermitian(5, rng)
        w, v = eig_hermitian(a)
        rec = (v * w) @ v.conj().T
        assert np.max(np.abs(a - rec)) <= 1e-10 * (1 + np.max(np.abs(a)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-10


def test_matrix_function_examples(rng):
    a = random_hermitian(4, rng)
    assert np.max(np.abs(matrix_function(a, lambda x: x, eig_floor=-np.inf) - a)) < 1e-12
    lg = matrix_function(np.diag([np.e, np.e ** 2]), np.log)
    assert np.allclose(lg, np.diag([1.0, 2.0]), atol=1e-12)
    p = random_psd(4, rng)
    root = matrix_function(p, np.sqrt)
    assert np.max(np.abs(root @ root - p)) < 1e-10 * (1 + np.max(np.abs(p)))


def _matrix_function_loop(a, f, eig_floor=None):
    """Reference: f applied eigenvalue by eigenvalue."""
    w, v = eig_hermitian(a)
    if eig_floor is None:
        eig_floor = 1e-14 * max(float(w[-1]), 0.0)
    w = np.maximum(w, eig_floor)
    fw = np.asarray([f(x) for x in w], dtype=float)
    return hermitian_part((v * fw) @ v.conj().T)


def test_matrix_function_vectorized_equals_loop(rng):
    # numpy may evaluate `w ** s` on an array with a SIMD pow that differs in
    # the last bit from the scalar pow; np.float_power keeps the scalar result
    for d in (2, 3, 4, 6):
        for _ in range(5):
            a = random_psd(d, rng)
            for s in (0.37, -0.25, 1.5):
                assert np.array_equal(matrix_function(a, lambda w: np.float_power(w, s)),
                                      _matrix_function_loop(a, lambda x: x ** s))
            for f in (np.log, np.sqrt):
                assert np.array_equal(matrix_function(a, f), _matrix_function_loop(a, f))


def test_matrix_function_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_function(np.diag([1.0, 0.0]), np.log, eig_floor=-np.inf)


def test_matrix_function_exp_vs_left_multiplication_superoperator(rng):
    # d = 2 cross-check: exp of the map X -> A X applied to the identity is e^A
    a = random_hermitian(2, rng)
    s = left_right_super(a, np.eye(2))
    out = unvec(expm_superop(s, 1.0) @ vec(np.eye(2)), 2)
    assert np.max(np.abs(out - matrix_function(a, np.exp, eig_floor=-np.inf))) < 1e-11


def test_vectorization_convention_is_column_stacking(rng):
    # the one convention every superoperator depends on:
    # vec(A X B) = kron(B.T, A) vec(X)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stacked_vec_and_unvec_equal_each_matrix_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = _with_signed_zeros(rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)),
                           rng)
    v = vec(x)
    assert v.shape == (n, 9)
    each = [m.reshape(-1, order="F") for m in x], [vec(m) for m in x]
    assert all(same_bits(v, np.array(e, dtype=complex).reshape(n, 9)) for e in each)
    back = unvec(v, 3)
    assert back.shape == (n, 3, 3)
    each = [r.reshape(3, 3, order="F") for r in v], [unvec(r) for r in v]
    assert all(same_bits(back, np.array(e, dtype=complex).reshape(n, 3, 3)) for e in each)
    assert same_bits(back, x)


def _with_signed_zeros(a, rng):
    a = a.copy()
    a[rng.random(a.shape) < 0.3] = -0.0
    a[rng.random(a.shape) < 0.2] = 0.0
    return a


def test_left_right_super_is_kron_bit_for_bit(rng):
    for d in range(1, 9):
        for _ in range(3):
            re_a, re_b = (_with_signed_zeros(rng.standard_normal((d, d)), rng) for _ in range(2))
            a = _with_signed_zeros(re_a + 1j * rng.standard_normal((d, d)), rng)
            b = _with_signed_zeros(re_b + 1j * rng.standard_normal((d, d)), rng)
            for x, y in ((re_a, re_b), (a, b), (re_a, b), (np.eye(d), a)):
                ref = np.kron(np.asarray(y, dtype=complex).T, np.asarray(x, dtype=complex))
                assert same_bits(left_right_super(x, y), ref)


def test_kraus_schrodinger_super_is_kron_sum_bit_for_bit(rng):
    for d in (1, 2, 3, 5, 8):
        ks = [_with_signed_zeros(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
                                 rng) for _ in range(3)]
        ref = np.zeros((d * d, d * d), dtype=complex)
        for k in ks:
            ref += np.kron(k.conj(), k)
        assert same_bits(kraus_schrodinger_super(ks), ref)


def test_vectorize_identity_and_diagonal_examples():
    assert np.allclose(left_right_super(np.eye(2), np.eye(2)), np.eye(4))
    a = np.diag([2.0, 5.0])
    s = left_right_super(a, np.eye(2))
    assert np.allclose(s, np.diag([2.0, 5.0, 2.0, 5.0]))


def test_vectorize_round_trip_against_direct_application(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = left_right_super(a, b)
    for _ in range(50):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = a @ x @ b
        via_super = unvec(s @ vec(x), 4)
        assert np.max(np.abs(direct - via_super)) < 1e-12 * max(1, np.max(np.abs(direct)))


def test_expm_identity_and_scalar():
    s = np.zeros((9, 9))
    assert np.allclose(expm_superop(s, 0.0), np.eye(9))
    gamma, t = 0.7, 1.3
    assert np.allclose(expm_superop(-gamma * np.eye(9), t),
                       np.exp(-gamma * t) * np.eye(9), atol=1e-13)


def test_expm_semigroup_property(rng):
    heis = build_lindblad(random_hermitian(3, rng),
                          [rng.standard_normal((3, 3)) / 2 for _ in range(2)]).super_L
    t1, t2 = 0.41, 0.77
    lhs = expm_superop(heis, t1) @ expm_superop(heis, t2)
    rhs = expm_superop(heis, t1 + t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_choi_identity_map():
    d = 3
    j = choi_from_super(np.eye(d * d), d)
    omega = sum(np.kron(np.eye(d)[:, i], np.eye(d)[:, i]) for i in range(d))
    assert np.max(np.abs(j - np.outer(omega, omega.conj()))) < 1e-14


def test_choi_kraus_round_trip(rng):
    d = 3
    ks = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
          for _ in range(2)]
    s = kraus_schrodinger_super(ks)
    j = choi_from_super(s, d)
    w, v = np.linalg.eigh(0.5 * (j + j.conj().T))
    kraus = [np.sqrt(max(wi, 0)) * unvec(v[:, i], d)
             for i, wi in enumerate(w) if wi > 1e-12]
    rho = random_psd(d, rng)
    direct = unvec(s @ vec(rho), d)
    rebuilt = sum(k @ rho @ k.conj().T for k in kraus)
    assert np.max(np.abs(direct - rebuilt)) < 1e-11


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(5, rng)
    assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-12


def test_matrix_json_round_trip(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_json(matrix_to_json(a))
    assert np.max(np.abs(a - back)) == 0.0
    with pytest.raises(ValueError):
        matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


def test_report_dict_keeps_non_array_fields_in_order_shallow_copied():
    @dataclass
    class Report:
        x: float
        witness: np.ndarray
        tags: dict = field(default_factory=dict)
        failures: list = field(default_factory=list)

    rep = Report(x=0.5, witness=np.eye(2), tags={"a": [1]}, failures=[{"i": 0}])
    out = report_dict(rep)
    assert list(out) == ["x", "tags", "failures"]
    assert out == {"x": 0.5, "tags": {"a": [1]}, "failures": [{"i": 0}]}
    assert out["tags"] is not rep.tags and out["tags"]["a"] is rep.tags["a"]
    assert out["failures"] is not rep.failures and out["failures"][0] is rep.failures[0]
