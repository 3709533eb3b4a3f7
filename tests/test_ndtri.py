"""``core.inference.ndtri``: the in-tree port of the cephes routine.

The pinned table runs everywhere; the sweep needs scipy (the ``dev``
extra), whose ``scipy.special.ndtri`` is the oracle the port must match
bit for bit — a release's range is ``mean ± ndtri(1 - level) * std``, so
one differing bit would move every golden output.
"""

import math

import numpy as np
import pytest

from repro.core.inference import ndtri

# (argument, scipy.special.ndtri(argument)) as float.hex, scipy 1.17.
_PINNED = [
    # lower tail, z = sqrt(-2 log y) >= 8 (the P2/Q2 tables)
    ("0x0.0000000000001p-1022", "-0x1.33bd3f27fcd03p+5"),  # 5e-324
    ("0x1.0000000000000p-1022", "-0x1.2c27b05bf1a0bp+5"),  # 2.2e-308
    ("0x1.56e1fc2f8f359p-997", "-0x1.286074064c26ep+5"),  # 1e-300
    ("0x1.bff2ee48e0530p-333", "-0x1.546010d755220p+4"),  # 1e-100
    ("0x1.6849b86a12b9bp-47", "-0x1.e9a3e40341036p+2"),  # 1e-14
    ("0x1.b05876e5b0120p-47", "-0x1.e8233a64eb590p+2"),  # 1.2e-14
    # the z = 8 boundary, y = exp(-32), and one float either side
    ("0x1.c8464f7616467p-47", "-0x1.e7b15a9b9d30ep+2"),
    ("0x1.c8464f7616468p-47", "-0x1.e7b15a9b9d30ep+2"),
    ("0x1.c8464f7616469p-47", "-0x1.e7b15a9b9d30ep+2"),
    # 2 <= z < 8 (the P1/Q1 tables)
    ("0x1.d45fd6237ebe3p-47", "-0x1.e779fdba7a8bep+2"),  # 1.3e-14
    ("0x1.12e0be826d695p-30", "-0x1.7fdc11f44b5a7p+2"),  # 1e-9
    ("0x1.4f8b588e368f1p-19", "-0x1.24257b6faf431p+2"),  # 2.5e-6
    ("0x1.a368d05fa3068p-16", "-0x1.038f957b78539p+2"),  # 1/(2*20001)
    ("0x1.a36e2eb1c432dp-15", "-0x1.f1feea391d147p+1"),  # 1/(2*10000)
    ("0x1.47ae147ae147bp-7", "-0x1.29c5c4630ff0ep+1"),  # 0.01
    ("0x1.999999999999ap-6", "-0x1.f5c0331eeff86p+0"),  # 0.025
    # the exp(-2) boundary and one float either side
    ("0x1.152aaa3bf81cbp-3", "-0x1.19fd30bc4de02p+0"),
    ("0x1.152aaa3bf81ccp-3", "-0x1.19fd30bc4de02p+0"),
    ("0x1.152aaa3bf81cdp-3", "-0x1.19fd30bc4de03p+0"),
    # the central rational (P0/Q0)
    ("0x1.999999999999ap-3", "-0x1.aee8fa73a1333p-1"),  # 0.2
    ("0x1.0000000000000p-1", "0x0.0p+0"),  # 0.5
    ("0x1.8000000000000p-1", "0x1.5956b87528a49p-1"),  # 0.75
    # the 1 - exp(-2) boundary and one float either side
    ("0x1.bab5557101f8cp-1", "0x1.19fd30bc4de01p+0"),
    ("0x1.bab5557101f8dp-1", "0x1.19fd30bc4de03p+0"),
    ("0x1.bab5557101f8ep-1", "0x1.19fd30bc4de05p+0"),
    # upper tail: what a release asks for, ndtri(1 - level)
    ("0x1.fae147ae147aep-1", "0x1.29c5c4630ff0ep+1"),  # 0.99
    ("0x1.fff7ced916873p-1", "0x1.eb058d4aae141p+1"),  # 1 - 1/(2*8000)
    ("0x1.fff972474538fp-1", "0x1.f1feea391d182p+1"),  # 1 - 1/(2*10000)
    ("0x1.fffcb92e5f40cp-1", "0x1.038f957b786f3p+2"),  # 1 - 1/(2*20001)
    ("0x1.fffffff768fa1p-1", "0x1.7fdc11f93a20fp+2"),  # 1 - 1e-9
    ("0x1.fffffffffffa6p-1", "0x1.e9a5933d08f52p+2"),  # 1 - 1e-14
    ("0x1.fffffffffffffp-1", "0x1.06b48528cea52p+3"),  # 1 - 2**-53
]


@pytest.mark.parametrize("argument, expected", _PINNED)
def test_pinned_values(argument, expected):
    assert ndtri(float.fromhex(argument)).hex() == expected


def test_edges_of_the_domain():
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    for outside in (-0.1, 1.1, -math.inf, math.inf, math.nan):
        assert math.isnan(ndtri(outside))
    assert type(ndtri(0.3)) is float


def test_bit_identical_to_scipy():
    """Every level a release can ask for, both tails, against the oracle."""
    oracle = pytest.importorskip("scipy.special").ndtri
    populations = np.concatenate(
        [np.arange(2, 200_001), 10 ** np.arange(6, 12)]
    ).astype(float)
    rng = np.random.default_rng(0)
    levels = np.concatenate([
        1.0 / (2.0 * populations),
        10.0 ** rng.uniform(-300.0, 0.0, 125_000),
        rng.uniform(0.0, 1.0, 125_000),
    ])
    arguments = np.concatenate([levels, 1.0 - levels])
    expected = oracle(arguments)
    ours = np.fromiter(
        map(ndtri, arguments.tolist()), dtype=float, count=len(arguments)
    )
    # == would let -0.0 pass for 0.0 and fail nan for nan: compare bits.
    differing = np.flatnonzero(
        ours.view(np.uint64) != expected.view(np.uint64)
    )
    assert differing.size == 0, arguments[differing[:5]]
