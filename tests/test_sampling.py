"""Seeded generators reproduce their draws: a frozen digest of each output at two seeds.

Tests and demos take their seeded inputs from ``povmkit.sampling``, so a change to a
generator's draws, down to the last bit, changes every input drawn from it.  The
digests are SHA-256 of the output's bytes (a matrix, a state's density matrix, a
measure's element stack or a marginal set's ``(4, 2, 2)`` values) under numpy's
default generator; a numpy or LAPACK build that rounds QR differently changes the
two QR-based digests, and the frozen values then need a deliberate re-pin.
"""

import hashlib

import numpy as np
import pytest

from povmkit import sampling

GENERATORS = {
    "random_unitary": lambda rng: sampling.random_unitary(3, rng),
    "random_pure_state": lambda rng: sampling.random_pure_state(3, rng).matrix,
    "random_density_matrix": lambda rng: sampling.random_density_matrix(3, rng).matrix,
    "random_hermitian": lambda rng: sampling.random_hermitian(3, rng),
    "random_basis_pvm": lambda rng: sampling.random_basis_pvm(3, rng).stack(),
    "random_no_signaling_marginals": lambda rng: sampling.random_no_signaling_marginals(rng).values,
}

FROZEN = {
    ("random_unitary", 1): "bc9f80fc94f6c4edd4d12f41c58b788308f3386a3c38266b4894c17067d62c70",
    ("random_unitary", 2): "2d922d882d3aed7498fcc4c3cbb52b5244204a32b72a64daaf986094ffe7e85a",
    ("random_pure_state", 1): "f19f8e7a63f618f1aa45f2463e84999c4f65afd5a2771575c7ad70d6d17bca98",
    ("random_pure_state", 2): "d5f03d9dac2f3fc40635da9869c9eced9f87a0742d34631616f5a7e65716adfc",
    ("random_density_matrix", 1): "99dc9e951e6c19ee9b0352537ec4b006330e847aecac0812df904f67bf6268d1",
    ("random_density_matrix", 2): "17d657259d0a2514f6373537e93bce930ef453d1bd22a25d9ee3a538835393a2",
    ("random_hermitian", 1): "5e7bae811651c0d86e05e3e8edc96ace553003cbf13843e223a9d234c3b339e6",
    ("random_hermitian", 2): "4155e437349cc4001dc9a5d956924ce35cfcafdc25bb6ca34e007ba48aeec7ff",
    ("random_basis_pvm", 1): "ff9cc2f7fe45c2faa46d98408b9dc55903d1d0d320e996e93aa808a243357ff5",
    ("random_basis_pvm", 2): "2c5fb3e4a886e01f90961fb9c4a7baeecb5dc5b863f5461a89d9985999c87258",
    ("random_no_signaling_marginals", 1):
        "94232c9d181e08e6d688238470ed042d128fbae12c915dfadf1cd6864c006945",
    ("random_no_signaling_marginals", 2):
        "76197fc82ade5a663ed368935da1e07358f89043a6e4e5950301fa99f25255a9",
}


@pytest.mark.parametrize(("name", "seed"), sorted(FROZEN))
def test_seeded_draws_match_their_frozen_digest(name, seed):
    out = GENERATORS[name](np.random.default_rng(seed))
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == FROZEN[name, seed]
