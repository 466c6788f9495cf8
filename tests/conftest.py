"""Shared fixtures: reference chains, generator-matrix factories and the chains' 40-digit oracle."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from restartk import FiniteCTMC, FiniteSupport, PointMass, exp_weighted_integral
from restartk.errors import check_positive
from restartk.quadrature import DEFAULT_REL_TOL


def random_generator(rng, n, scale=1.0):
    """A dense ergodic generator matrix with rates of order ``scale``."""
    Q = rng.uniform(0.5, 1.5, size=(n, n)) * scale
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def resolvent(kernel, lam, y, target, rel_tol=DEFAULT_REL_TOL):
    """R_lam(y, target) = int_0^inf exp(-lam*s) P(s, y, target) ds.

    The invariant law of the restarted process is lam times the nu-average
    of this resolvent.  This is the quadrature definition, whatever the
    kernel: it never takes the kernel's exact ``stationary_probability``,
    so it is the independent oracle for those routes.
    """
    lam = check_positive("restart rate", lam)
    kernel.space.check_target(target)
    weighted = exp_weighted_integral(
        lambda s: kernel.transition_probabilities(s, y, target), lam, math.inf, rel_tol=rel_tol
    ).value
    return weighted / lam


def resolvent_matrix(chain, lam):
    """(lam*I - Q)^(-1), the Laplace transform of a chain's transition matrices."""
    return np.linalg.inv(lam * np.eye(chain.space.n) - chain.Q)


def restarted_generator(chain, lam, w):
    """Q + lam*(1 w - I): the generator of the chain under rate-lam restarts drawn from w."""
    n = chain.space.n
    return chain.Q + lam * (np.outer(np.ones(n), np.asarray(w, dtype=float)) - np.eye(n))


def cancelling_horizons(chain, lam, y, target, times):
    """The positive times s of ``times`` at which the resolvent identity for the
    chain's restart term would cancel, exp(-lam*s) (v exp(Q*s))_G > v_G/2 with
    v = row y of lam*(lam*I - Q)^(-1) and G the target's states: the chain
    integrates these by quadrature and takes the identity at the others."""
    v = lam * resolvent_matrix(chain, lam)[y]
    columns = list(target.indices)
    late = lambda s: math.exp(-lam * s) * (v @ expm(chain.Q * s))[columns].sum()
    return [s for s in times if s > 0.0 and late(s) > 0.5 * v[columns].sum()]


def mp_restarted_row(chain, lam, w, t, x):
    """Row x of P~(t) = exp(R*t), R = Q - lam*I + lam*1w the restarted
    generator; the restart term r, its part beyond exp(-lam*t) exp(Q*t);
    and q = lam*w(lam*I - Q)^(-1), the invariant law: each a list of the n
    states' values at 40 digits.

    r is one row whatever the start, and the chain's own stationary law pi
    (pi Q = 0) sees exp(-lam*t) pi + r in pi exp(R*t); where r is small the
    difference loses about log10(1/(lam*t)) digits.  Q's diagonal is taken
    as minus its row's off-diagonal sum, exactly: the float diagonal misses
    it by a rounding, and over t = 5000 a row that leaks that much mass
    moves P~ by 2e-12 on a 12-state chain, which is the generator's
    rounding, not the chain's route.  w is normalised exactly for the same
    reason: the floats 0.3 and 0.7 add to 1 in float arithmetic but to
    1 - 5.6e-17 exactly, and the restarted generator's rows would leak the
    difference."""
    mp = pytest.importorskip("mpmath")
    n = chain.space.n
    with mp.workdps(40):
        l, h = mp.mpf(lam), mp.mpf(t)
        w = [mp.mpf(v) for v in w]
        w = [v / mp.fsum(w) for v in w]
        Q = mp.matrix(chain.Q.tolist())
        for i in range(n):
            Q[i, i] = -mp.fsum(Q[i, j] for j in range(n) if j != i)
        R = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                R[i, j] = Q[i, j] + l * w[j] - (l if i == j else 0)
        E = mp.expm(R * h)
        A = Q.T
        for j in range(n):
            A[n - 1, j] = 1
        pi = mp.lu_solve(A, mp.matrix([0] * (n - 1) + [1]))
        term = [mp.fsum(pi[i] * E[i, j] for i in range(n)) - mp.exp(-l * h) * pi[j] for j in range(n)]
        q = mp.lu_solve((l * mp.eye(n) - Q).T, mp.matrix([l * v for v in w]))
        return [E[x, j] for j in range(n)], term, [q[j] for j in range(n)]


def mp_restarted_mass(chain, lam, w, t, x, columns):
    """P~(t, x, G) and the restart term r_G of ``mp_restarted_row``, G the states in columns."""
    mp = pytest.importorskip("mpmath")
    row, term, _ = mp_restarted_row(chain, lam, w, t, x)
    with mp.workdps(40):
        return mp.fsum(row[j] for j in columns), mp.fsum(term[j] for j in columns)


def random_restart_weights(rng, n):
    w = rng.uniform(0.2, 1.0, size=n)
    return w / w.sum()


def finite_support_from_weights(w):
    pts = tuple((i, float(x)) for i, x in enumerate(w))
    # rescale the last weight so the sum is exactly 1 in floats
    total = sum(x for _, x in pts[:-1])
    pts = pts[:-1] + ((len(w) - 1, 1.0 - total),)
    return FiniteSupport(pts)


def point_or_two_atom_laws(atoms):
    """Hypothesis strategy: a point mass or a two-atom law on states drawn from ``atoms``."""
    two_atoms = st.tuples(atoms, atoms, st.floats(0.05, 0.95)).map(
        lambda a: FiniteSupport(((a[0], a[2]), (a[1], 1.0 - a[2])))
    )
    return st.one_of(atoms.map(PointMass), two_atoms)


def make_three_state_chain():
    Q = np.array([[-2.0, 1.5, 0.5], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]])
    return FiniteCTMC(Q, [0.3, -1.2, 2.5])


@pytest.fixture
def three_state_chain():
    return make_three_state_chain()
