"""Shared fixtures: shipped datasets and small root systems."""

import itertools
from pathlib import Path

import pytest

from locmult import generate_weyl_group, load_dataset_file, wv
from locmult.fpdata import FixedPointDatum, LocalizationDataset

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def grassmannian(k, n):
    """Fixed-point data of the Pluecker bundle on Gr(k, n) under the
    diagonal torus of GL_n: the fixed point S, a k-subset of 0..n-1, has
    fiber weight sum_(i in S) e_i and normal weights e_i - e_j for i in S
    and j not in S.  Its m-th power has the GL_n character (m^k, 0^(n-k))."""
    def e(i, j=None):
        return wv(*(int(t == i) - int(t == j) for t in range(n)))

    return LocalizationDataset(n, tuple(
        FixedPointDatum("".join(map(str, s)), sum((e(i) for i in s), wv(*(0,) * n)),
                        tuple(e(i, j) for i in s for j in range(n) if j not in s))
        for s in itertools.combinations(range(n), k)))


@pytest.fixture(scope="session")
def cp1():
    return load_dataset_file(DATASETS / "cp1.json")


@pytest.fixture(scope="session")
def cp2_weighted():
    return load_dataset_file(DATASETS / "cp2_weighted.json")


@pytest.fixture(scope="session")
def cp2_standard():
    return load_dataset_file(DATASETS / "cp2_standard.json")


@pytest.fixture(scope="session")
def cp3_standard():
    return load_dataset_file(DATASETS / "cp3_standard.json")


@pytest.fixture(scope="session")
def a1():
    # weight lattice Z, simple root 2, coroot functional 1
    return generate_weyl_group((wv(2),), [[1]])


@pytest.fixture(scope="session")
def a1xa1():
    return generate_weyl_group((wv(2, 0), wv(0, 2)), [[1, 0], [0, 1]])


@pytest.fixture(scope="session")
def a2():
    # type A2 realized on the rank-3 lattice with roots e_i - e_j, where
    # the coordinate dot product agrees with the coroot pairing
    return generate_weyl_group(
        (wv(1, -1, 0), wv(0, 1, -1)), [[1, -1, 0], [0, 1, -1]]
    )
