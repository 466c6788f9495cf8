"""Shared fixtures: reference chains and generator-matrix factories."""

import numpy as np
import pytest
from hypothesis import strategies as st

from restartk import FiniteCTMC, FiniteSupport, PointMass


def random_generator(rng, n, scale=1.0):
    """A dense ergodic generator matrix with rates of order ``scale``."""
    Q = rng.uniform(0.5, 1.5, size=(n, n)) * scale
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def resolvent_matrix(chain, lam):
    """(lam*I - Q)^(-1), the Laplace transform of a chain's transition matrices."""
    return np.linalg.inv(lam * np.eye(chain.space.n) - chain.Q)


def restarted_generator(chain, lam, w):
    """Q + lam*(1 w - I): the generator of the chain under rate-lam restarts drawn from w."""
    n = chain.space.n
    return chain.Q + lam * (np.outer(np.ones(n), np.asarray(w, dtype=float)) - np.eye(n))


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
