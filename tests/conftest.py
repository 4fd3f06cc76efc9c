import numpy as np
import pytest

from bbcsec import AuxChain, CondDist, Dist, binary_symmetric, from_marginals


@pytest.fixture(scope="session")
def bsc12():
    """BSC(0.1) to node 1, BSC(0.2) to node 2 (node 2 degraded)."""
    return from_marginals(binary_symmetric(0.1), binary_symmetric(0.2))


@pytest.fixture(scope="session")
def degraded_chain():
    """Constant first layer, second layer = uniform binary input."""
    return AuxChain(Dist([1.0]), CondDist([[0.5, 0.5]]), CondDist(np.eye(2)))


@pytest.fixture(scope="session")
def noiseless2():
    return from_marginals(np.eye(2), np.eye(2))


def random_chain(rng, nu, nv, nx):
    return AuxChain(
        Dist(rng.dirichlet(np.ones(nu))),
        CondDist(rng.dirichlet(np.ones(nv), size=nu)),
        CondDist(rng.dirichlet(np.ones(nx), size=nv)),
    )


def with_zeros(rng, chain):
    """The chain with about a third of its probabilities set to zero."""

    def sparse(rows):
        rows = np.where(rng.random(rows.shape) < 0.35, 0.0, rows)
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        return rows / rows.sum(axis=1, keepdims=True)

    return AuxChain(
        Dist(sparse(chain.pu.probs[None])[0]), CondDist(sparse(chain.pvu.rows)), CondDist(sparse(chain.pxv.rows))
    )


def random_channel(rng, nx, ny1, ny2):
    tensor = rng.dirichlet(np.ones(ny1 * ny2), size=nx).reshape(nx, ny1, ny2)
    from bbcsec import BroadcastChannel

    return BroadcastChannel(tensor)
