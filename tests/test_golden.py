"""Bit-for-bit guard on the assembled tableaus and stage orders.

Each digest is the sha256 of the little-endian float64 bytes of the
assembled A, b and c, followed by the little-endian int64 stage order of
:func:`derive_schedule`, for M = 1, 2, 3, 8 in turn (and, in a second set,
for M = 33, 100).  Assembly is exact
rational-to-double conversion plus copies and single divisions by M, so the
digests do not depend on the BLAS build; residuals and step results, which
do, are deliberately left out.  A third set hashes the coupling stacks
``fs`` and ``sf`` of ``method.couplings(M)`` for every M = 1..16, also for
two type-S pairs with overridden free parameters.  A refactor that changes
any byte fails here.
"""

import hashlib

import numpy as np
import pytest

import mrgark as mg

GOLDEN_M = (1, 2, 3, 8)

GOLDEN = {
    "EX-EX 2(1)A": "a8e69eaf4e01bb02b1609b6ca1dcde285ad11ac82172c37ca22520b503df5134",
    "EX-EX 2(1)S": "3f4b6b9a2b849a9e2c05eca3ec2e24cb1623adab2b13f922a47a44ee794a3cd6",
    "EX-EX 3(2)3s-A": "188079c41e79809eef029a0ff0427770641a967b293d54bac6764cb2b552b3ff",
    "EX-EX 3(2)4s-A": "1a35acf89e98294e09732a48eb9f4cd87906ab5c99ada9e28dc7c71992a2144f",
    "EX-EX 3(2)S": "329872c4a5066d6d8eaf57a5d6601793b03825cbbf627aa13458afd88cdbc169",
    "EX-EX 4(3)A": "d0dac600f73382ec7480da9a82b70ef04d1f120bb3d14ae23b8c2155e3d535ff",
    "EX-IM 2(1)A": "008979e818813994116f214102051ea56d478a48ebc958f0498fec569ab4fc8c",
    "EX-IM 3(2)A": "d6fac827f6c6f8ae41e089c44c4b137122014f19dddbabeed9341ec7de748e79",
    "EX-IM 4(3)A": "2495c7e3aae6b17a479d5ef063014e1a6b59bd6288c3a11cbacbca933a30728d",
    "IM-EX 2(1)A": "b039db9e6446346bf56ac7ca76081c34652ee9723b1c7d699ac75621b2122d0c",
    "IM-EX 3(2)A": "1dc04ed5719511050cc1f424bdf097b19da1560bf2a2748a65debead603153cd",
    "IM-EX 4(2)A": "9e19f80e60133346120c0197d765c3ab53d21de0df428a3dd7d40a8db941f7f0",
}


GOLDEN_LARGE_M = (33, 100)

GOLDEN_LARGE = {
    "EX-EX 2(1)A": "db7ba4fba2dcd4cf3a075b2bda0138fa5640345322f579a85a71e62232ec6f5c",
    "EX-EX 2(1)S": "8169e6ec3dbfee5ee810da748a5ff86588619f371428f992cb236170e2680339",
    "EX-EX 3(2)3s-A": "6184ec404994f6ddde69978ff19ffc6d19b65ba2259cea2a05e8572591f6280e",
    "EX-EX 3(2)4s-A": "fa3b371131b09923eb08675f2f69abdcb6dbd32927223634eb635df332963749",
    "EX-EX 3(2)S": "245b4a552bbeb38c3a1392c871ad4f754838e38a6870950ef34dd95d7c227859",
    "EX-EX 4(3)A": "22e7645d46aee1b25327ab83e261fd8071b4027fd358b3c6a5a303b41c3d7f79",
    "EX-IM 2(1)A": "53592f0023b8b660ffa32a08bc40148405fbbdb122236087086a6dce0fff8015",
    "EX-IM 3(2)A": "f3719c21ed99d2b025c53227f4dc304c4e3302bc5b753fbe664023ba4dc74a34",
    "EX-IM 4(3)A": "fcdd377764f11d1fdeb814e3001dda533dd3af37192aa4ed5fee1b04a7f01c09",
    "IM-EX 2(1)A": "70de6c686da654a45f5366f9188b9618b6a5426e89d3b4197bab53350545e7a7",
    "IM-EX 3(2)A": "f89ac005c52f96dadc9bd50273655fa0d84d0124a32972d32fed30446b42b0af",
    "IM-EX 4(2)A": "0608b77a54af71c8f7a07061a00557e75e3f10bf40cd8f6350df41985a04618b",
}


def test_golden_covers_the_registry():
    assert tuple(GOLDEN) == mg.METHOD_NAMES
    assert tuple(GOLDEN_LARGE) == mg.METHOD_NAMES


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_assembly_and_schedule_digest_at_large_m(name):
    method = mg.registry_lookup(name)
    digest = hashlib.sha256()
    for M in GOLDEN_LARGE_M:
        g = mg.assemble(method, M)
        for a in (g.A, g.b, g.c):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        digest.update(np.array(mg.derive_schedule(method, M), dtype="<i8").tobytes())
    assert digest.hexdigest() == GOLDEN_LARGE[name]


@pytest.mark.parametrize("name", mg.METHOD_NAMES)
def test_assembly_and_schedule_digest(name):
    method = mg.registry_lookup(name)
    digest = hashlib.sha256()
    for M in GOLDEN_M:
        g = mg.assemble(method, M)
        for a in (g.A, g.b, g.c):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        digest.update(np.array(mg.derive_schedule(method, M), dtype="<i8").tobytes())
    assert digest.hexdigest() == GOLDEN[name]


GOLDEN_COUPLINGS_M = range(1, 17)

GOLDEN_COUPLINGS = [
    ("EX-EX 2(1)A", {}, "b59194536941f5fcd0480e62592f737ef2becae24aa281f2024f691f271125c2"),
    ("EX-EX 2(1)S", {}, "0f2183846029dfc1461a10ee324f787a4efd423d5060e5fa9adda314d35c0c6b"),
    ("EX-EX 3(2)3s-A", {}, "0d4eb94cebbaa76431c942b7b8870682897d3a93148824ca6a96bef72b09d255"),
    ("EX-EX 3(2)4s-A", {}, "ac2873bb232cbaab26f37880534059d2dd71deb9e51f67c067b0f165bb39bf96"),
    ("EX-EX 3(2)S", {}, "cf2cc198eddfa665a472e77dd058a7c65187ad5ec0c721f3cbfbb1c39bb98c59"),
    ("EX-EX 4(3)A", {}, "1eefbaa736d446a20e01d3f07263b012218bed0de7e2c2130c9544021da462fb"),
    ("EX-IM 2(1)A", {}, "e85b0207eba962b6d1f5f862c4ff53630a62e8520a036b92ccc3f34e65a14e47"),
    ("EX-IM 3(2)A", {}, "709c5b184b8016fc168730c59b971dbf006fe651630e03287414d48f44d94b25"),
    ("EX-IM 4(3)A", {}, "e370238f2a45ed41b798e7c7df9af3ac3387def13ccd3642e3bdbacd1a76d203"),
    ("IM-EX 2(1)A", {}, "382e5aadd0e39adbabdbf0067e3403b1b79a56c36fbd8f8e02024324a1cca3de"),
    ("IM-EX 3(2)A", {}, "58d6cd55b54c0a84be5cf7d7a47c7cf71d1ccfe66685f7d74316993bb3afa1ed"),
    ("IM-EX 4(2)A", {}, "ab6a39327ee805e45461dd69854f03e6c29d6555771255a8a115f3446016cff4"),
    ("EX-EX 2(1)S", {"c2": "1/3"}, "dbe08c586ce4ab409a4a184b6af3ab360ab97f0969d851bd8a27a27d43b12b20"),
    ("EX-EX 3(2)S", {"c2": 0.25, "b_hat_2": "3/4"}, "0ac533231b2128385fefee8755a5ebc9c3c21da831a161b16e0f0abbcd8a1cee"),
]


def test_coupling_digests_cover_the_registry():
    assert tuple(name for name, overrides, _ in GOLDEN_COUPLINGS if not overrides) == mg.METHOD_NAMES


@pytest.mark.parametrize("name, overrides, expected", GOLDEN_COUPLINGS,
                         ids=[f"{name} {overrides}" if overrides else name for name, overrides, _ in GOLDEN_COUPLINGS])
def test_coupling_digest(name, overrides, expected):
    method = mg.registry_lookup(name, **overrides)
    digest = hashlib.sha256()
    for M in GOLDEN_COUPLINGS_M:
        for stack in method.couplings(M):
            digest.update(np.ascontiguousarray(stack, dtype="<f8").tobytes())
    assert digest.hexdigest() == expected
