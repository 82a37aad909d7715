import numpy as np
import pytest

from epslab.linalg import op_norm
from epslab.presets import (PRESET_NAMES, convergence_problem,
                            cross_validation_spec, decay_base,
                            dirichlet_neumann, make_commuting_pair,
                            make_pair, make_scalar_pair, make_wentzell_pair,
                            neumann_dirichlet, uniformity_base)


def test_scalar_pair_values():
    pair = make_scalar_pair(a=2.0, b=-0.25)
    assert pair.A[0, 0] == 2.0
    assert pair.B[0, 0] == -0.25
    assert pair.commutes()


def test_commuting_pair_structure():
    pair = make_commuting_pair(n_y=6)
    assert pair.n == 6
    assert pair.grid is not None and pair.grid.n == 6
    assert pair.commutes()
    want = np.diag(1.0 + 2.0 * pair.grid.nodes)
    assert np.allclose(pair.A, want)
    assert np.allclose(pair.B, 0.3 * np.eye(6) + 0.1 * want)
    assert pair.positivity is not None and pair.positivity.passed


def test_wentzell_pair_structure():
    pair = make_wentzell_pair(n_y=12)
    assert pair.n == 12
    assert not pair.commutes()
    # second-order part annihilates constants through the eliminated rows
    const = np.ones(12)
    assert np.max(np.abs(pair.A @ const)) < 1e-8
    # Nystrom drift is small and smooth
    assert op_norm(pair.B) < 0.6
    assert pair.positivity is not None
    assert 0.0 not in pair.positivity.lam_samples


def test_constant_expressions_build_the_constant_pairs():
    pair = make_wentzell_pair(n_y=8, a="2", b="0", kernel="0.5")
    want = make_wentzell_pair(n_y=8, a=2.0, b=0.0, kernel=0.5)
    assert np.array_equal(pair.A, want.A) and np.array_equal(pair.B, want.B)
    assert np.array_equal(make_commuting_pair(n_y=5, a="3").A, 3 * np.eye(5))


def test_wentzell_pair_keeps_lam_samples_unchecked():
    # check mode builds the pair unchecked and scans these samples later
    pair = make_wentzell_pair(check_positive=False)
    assert pair.positivity is None
    assert pair.lam_samples == (1.0, 10.0, 100.0, 1000.0)


def test_make_pair_dispatch():
    for name in PRESET_NAMES:
        assert make_pair(name).n >= 1
    with pytest.raises(ValueError):
        make_pair("nope")


def test_boundary_builders():
    bc = dirichlet_neumann(3, f1=2.0, f2=1j)
    assert (bc.m1, bc.m2) == (0, 1)
    assert bc.d != 0
    assert np.allclose(bc.f1, 2.0)
    assert np.allclose(bc.f2, 1j)
    bc2 = neumann_dirichlet(2)
    assert (bc2.m1, bc2.m2) == (1, 0)
    assert bc2.d != 0


def test_uniformity_base_scalar_and_commuting():
    s = uniformity_base("scalar", eps=0.5, lam=3.0)
    assert s.pair.n == 1 and s.eps == 0.5 and s.lam == 3.0
    assert s.f is not None
    c = uniformity_base("commuting")
    assert c.pair.n == 8
    assert "y" in c.f
    samples = c.f_samples(np.array([0.5]))
    assert samples.shape == (1, 8)
    assert np.all(np.abs(samples) > 0)


def test_decay_base_orientation():
    spec = decay_base(eps=0.03)
    assert spec.lam == 0
    assert spec.pair.B[0, 0].real < 0
    assert (spec.bc.m1, spec.bc.m2) == (1, 0)


def test_convergence_problem_wiring():
    base, u0 = convergence_problem("scalar")
    assert base.lam == 0
    assert u0.shape == (1,)
    base2, u02 = convergence_problem("commuting")
    assert u02.shape == (8,) == (base2.n,)
    with pytest.raises(ValueError):
        convergence_problem("wentzell")


def test_cross_validation_spec_shape():
    spec = cross_validation_spec()
    assert spec.T == 2.0
    assert spec.pair.commutes()
    assert spec.n_t == 400
