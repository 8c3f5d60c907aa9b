"""The generator's output, pinned bit for bit.

A trace is a pure function of its recipe ``(benchmark, accesses, L2
lines, seed, core)``, and campaign stores replay results keyed by that
recipe: a generator edit that changed one line address would replay stale
results as if they were current.  The digests below are SHA-256s of
``Trace.lines`` as the plain numpy formulation of the generator draws
them (``rng.choice`` for regions, ``searchsorted`` for zipf ranks); any
faster formulation must reproduce them.  They cover every catalog
benchmark at the ``micro`` and ``small`` recipes on cores 0 and 3, and
one zipf and one stream benchmark at ``paper`` length.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import scale_preset
from repro.util.rng import make_rng
from repro.workloads.generator import (
    _CORE_SHIFT,
    _REGION_SHIFT,
    generate_trace,
    guide_table,
    guided_ranks,
)
from repro.workloads.spec2000 import (
    PATTERN_STREAM,
    PATTERN_ZIPF,
    PATTERNS,
    ZIPF_EXPONENT,
    BenchmarkSpec,
    Phase,
    RegionSpec,
)

DIGESTS = {
    ("micro", "applu", 0):
        "5eaab96b299c09e724e362438ef96f35428e0987fb8355ac84edd4ec09450e7b",
    ("micro", "applu", 3):
        "dd905c0ac81dfea10f78d9abf46f628a9fc89167f8239eb36a018e1deeccdf0c",
    ("micro", "apsi", 0):
        "2efa2c698c3b9174f52a0c036c4bd4480865c72f59912783e4f595a5045a2b77",
    ("micro", "apsi", 3):
        "e1a63f7ae40c2e88af63c95a26c1c5e4b15e0d6d5c40343c26b51d996a2f82bc",
    ("micro", "art", 0):
        "1e71511eb32d0add26ce2c5a90ee2122bb69dd7f182075f783317b324c9b28ca",
    ("micro", "art", 3):
        "f1e9b380ab98be4a098eb15ce5e498dfc125d87c16d52bc2abf41c9ad3604fda",
    ("micro", "bzip2", 0):
        "398efee169ed32ace33c5324babf0af034704a3ba81ff4ea9b72ce4941ef8b38",
    ("micro", "bzip2", 3):
        "801133578e1f5ad07aef961604e63030def542413473261a8f033e449a257965",
    ("micro", "crafty", 0):
        "d4eb9ada343ce9d3629e9128dee7c2089ef509782595313f02aa47ae93864efb",
    ("micro", "crafty", 3):
        "54f856a7fe565b93f3aae1f7b721c4a22f6fbf151e45758308c279ffa56b9c9c",
    ("micro", "eon", 0):
        "d5d0ba2cbab899c85cc65e8d5de617df4711fdb021ddabf9a04e461356e3f660",
    ("micro", "eon", 3):
        "8360a30dc3a55d332869703c48dcecab091538ca45c3d7efc5bc35918770232f",
    ("micro", "equake", 0):
        "6d753721a0300c858478eb53b48c357391409000fd87f1fa604840f4dab02f40",
    ("micro", "equake", 3):
        "de71780f0afec147501e659fd1039dc3a2db7413ac33477beb3c55a299da2134",
    ("micro", "facerec", 0):
        "5405eb2a0aa6187739ba75bc033b6c9697357a5a419c49f284211e663ef3f323",
    ("micro", "facerec", 3):
        "e14d597deb89bcb8cf95093f057e32a5985ad94c868ec2f5dba41e2c0fc842e8",
    ("micro", "fma3d", 0):
        "fc024cbe1a57f9149546aba786faee08fab1045df7a72b6bd016cd1bc5a6197d",
    ("micro", "fma3d", 3):
        "d7ed9920dbf962b8bbac1a008135cf224a8ea9adca38cb6f301d988023160632",
    ("micro", "galgel", 0):
        "9bffbdca3328e1af9303ca4ed9a86c23b0005ed8810fff89e3e34eb6b945b15c",
    ("micro", "galgel", 3):
        "1415dfe6647406445600fee7d38ab76003dc193859b4557085242b89553a6816",
    ("micro", "gap", 0):
        "d5bf42ee2b92b6c12d375d387e2c7056c5bcaeff7e625c4b023d0c0115e6e05b",
    ("micro", "gap", 3):
        "b94a2c32d8f10433d32555d38d314f76143bca9c45c2ad1eb074ea19c35df2ed",
    ("micro", "gcc", 0):
        "e89599be98cdcdbdd196af918f0d1e1a47b4d3c99042b811db88354b2061237c",
    ("micro", "gcc", 3):
        "fdead23eb84644605e64b5fa8a8d71b90e6711368ecddc75d12d4bfcf3347f0d",
    ("micro", "gzip", 0):
        "6b7d0ef247a21a69e9cb46647fa049eed853f41d6abdc4fe2b8339271b9b2a35",
    ("micro", "gzip", 3):
        "09879d4c29bd1d3418ffd8cde0ba4bcc3a583172124cb90685e49c9746de0367",
    ("micro", "lucas", 0):
        "a3e42dd458f44a516111ff1bdb28e7dda1818f743f5cc5ffa19b147d6eac69eb",
    ("micro", "lucas", 3):
        "1201917aefe44831831958c283732a93fe7e6b03c4a50ca217a503bdc8e48d2b",
    ("micro", "mcf", 0):
        "16ec73ee2a3bb4b8b71dcd4bf72c40065263580450debb33c1f98399e954ed7a",
    ("micro", "mcf", 3):
        "37e5484991e0a3fed473b738af514d1d2bfd4093fb5ec39f51102c21ff3aae27",
    ("micro", "mesa", 0):
        "898a2b48042ccbefd198888d43b7de9e2397669744e25a5cd8ff51b1a781b496",
    ("micro", "mesa", 3):
        "1ccef07f0de1c0a06076912da391fcf8dea9a7887042e8878e0564dd95bea993",
    ("micro", "mgrid", 0):
        "6bab4ff7bc553c2d707d091579cc9ffa4a4f2f6cc4ea117d2ca1f9c0277863b9",
    ("micro", "mgrid", 3):
        "8ba108ca9f30460ac75c696e330eaa38d823b1bfdb40e7c17837a415081aea72",
    ("micro", "parser", 0):
        "05bf6f2519d90a18ced5ac632faeccb1034357fe676ad06c358479022862b735",
    ("micro", "parser", 3):
        "1dbe15cce4e90413ac532dbbcc306129230702ffc1c64eafe5f2f1f2d09f4bed",
    ("micro", "perl", 0):
        "4ea2b7638ccb0f3b2cf1adb3e67d68424dfadeb901d788fd068b398914d46775",
    ("micro", "perl", 3):
        "fc18479d6b88bff5c11cf4d1f4a7ab4e2416c781fa7419b5f76ae32f09389ce9",
    ("micro", "perlbmk", 0):
        "4ea2b7638ccb0f3b2cf1adb3e67d68424dfadeb901d788fd068b398914d46775",
    ("micro", "perlbmk", 3):
        "fc18479d6b88bff5c11cf4d1f4a7ab4e2416c781fa7419b5f76ae32f09389ce9",
    ("micro", "sixtrack", 0):
        "fe1666a9ecea59d19f2294ed14670cf7ad6995c9ab63c81f0bb1ec1b09842e6b",
    ("micro", "sixtrack", 3):
        "f4d486e55c61502a66bc7192d12e4ec4fe13e94a70dacd9523ccb40556b829ec",
    ("micro", "swim", 0):
        "375dd4e28a65fa4b22bc9891a28db2ead74f2e3cc23fa7dd8b772821269015c3",
    ("micro", "swim", 3):
        "d584ed9d7ff4cc4801763c2b15d5c60ee622dca132d8e70eb22aedff7f173983",
    ("micro", "twolf", 0):
        "1998ba0b338add88008fc7d08f94c6d640917f74d1bb270c775fec133f3824ad",
    ("micro", "twolf", 3):
        "5b801997ce2a4e4123f245e73e86ad6f987aed42d7572e12de90240054fb7dc8",
    ("micro", "vortex", 0):
        "16f39864d407173f63383794d51573109e29bf03cf40fb2b5a7c3fac5227861f",
    ("micro", "vortex", 3):
        "c796324d728d46683229cf21a3e46e797a3092366dce06a24afe280a499a71af",
    ("micro", "vpr", 0):
        "f8be8638b967bf58bef4a895cd3f3025eac0fbb05e4d744715d91b85151b3258",
    ("micro", "vpr", 3):
        "36591ae06709e08a1a03172da77b3ce4284399523eacf0472465e61b028c24d4",
    ("micro", "wupwise", 0):
        "9baed3c8c776b9b4089dd786d332cde0d4e9008ab73eaba855710601215c16c6",
    ("micro", "wupwise", 3):
        "e92c38ee8008054b72251b1e853935c0b9681ca3d471aa6a44fcaa72e2e42a3a",
    ("small", "applu", 0):
        "d4bf711c7e645bc8d1a7201d5fba1de7d5030bbb6bde9d255704120ec181c029",
    ("small", "applu", 3):
        "db747deb57fa40f13fee1ec3cf54b5d2a0141d3a79e80b5f81881372cc6519ff",
    ("small", "apsi", 0):
        "bfafa2f089619f28e2eafd1c86d2f802a1a6aec907a180a2b6bb664e6c3a2c40",
    ("small", "apsi", 3):
        "71a7ec878753b879679f38a02313c80b179f5bad4f3fb2809d702639eb93376f",
    ("small", "art", 0):
        "cc67992a20cf7aafb9500ce97bf71ce17b86eab5c03efcb5d24ec8c62cd59872",
    ("small", "art", 3):
        "2b10e2919a1dc6132c217e83ef7595082a94013f86efad15cc8d72c3c7b98405",
    ("small", "bzip2", 0):
        "f609c2c9302cb37763c9f9850847bb9f1d87ac59144b43ddcfb21dbb02c1bc2e",
    ("small", "bzip2", 3):
        "ab5a20ff0c6ef5f5323feec6bb4d33fe264b00f67a690d4b22fc94edc8f0fe85",
    ("small", "crafty", 0):
        "2e99d7137c0fd68364a152dd03a3bb7f2f7cb8844243609e1989a64b73b339f0",
    ("small", "crafty", 3):
        "38bad22eaeb06d3de3ad3b7f8a4da0d5a447425a91d82ec00f0313aeccb8239c",
    ("small", "eon", 0):
        "1ce134d7951c0eb55db8bf47acfb5a470cc0ee2c13ef6f4380aa830a5ac18409",
    ("small", "eon", 3):
        "e3fa6b9326f095acafa531a8a9ac8c0030d270125d9e8edf3108942f9e171beb",
    ("small", "equake", 0):
        "b5b27aed2875b582c9bd353f0dd953b786657269e8bbc0cc708387d1bf43f6af",
    ("small", "equake", 3):
        "b6b11af64215aff7133aaea22d39aa36de52bc71393f123a5199e6d152883db0",
    ("small", "facerec", 0):
        "3b5970cb2289752eb5fdb8d3457ea8d08f3259e0e121750ccf93aba876ed96f5",
    ("small", "facerec", 3):
        "f6615672fc77b712307cabe1f8a7c963434dae42fd9273e77a753b05c2718e55",
    ("small", "fma3d", 0):
        "67aff104fe638909708fe8f0ed53794e774cb3c075740877ad1228c4deeca95b",
    ("small", "fma3d", 3):
        "5b2ecf507f51c20f80382e62cb7db6e3c03c8ddbb0795bcdbba0351df378ca8b",
    ("small", "galgel", 0):
        "ed1562627dd7e627b6301035e83a874c103975893819cc29cc4eb153798f4a6c",
    ("small", "galgel", 3):
        "420eefd0ecc8b65ab7754733205817d801b3453911d8d2c0789a871bc43531c4",
    ("small", "gap", 0):
        "5c47c8dca92fb33da456458ecdb2fd35a855c8cc989e7d1d7cd4ed97108e47d8",
    ("small", "gap", 3):
        "9f3fdb1a4fc753583b6fa6f4a68c42e63962f1f5a4b89d3439bb878ce9ec4fc8",
    ("small", "gcc", 0):
        "4f5672eba25336a91790da51cdbdaf0d7f07c38dfd3dc5aabab8fdb33a583d31",
    ("small", "gcc", 3):
        "16a322d8e18d9ee2cc9d10b41bac0875be2b6399ab6e92dcdfda3761dcb4b445",
    ("small", "gzip", 0):
        "984f28570946b6e8f60de7a3f3458226616dca0ca6a66ebe237f6e86017654ea",
    ("small", "gzip", 3):
        "ded2547a5dd81f5dbcec7b82bf71487a90f3dd31eb3e3f8040095e8cc216e1af",
    ("small", "lucas", 0):
        "af51d02b111fc58ace112c403beabb51b47d845e24c9b9f5d2592e72ee8cece5",
    ("small", "lucas", 3):
        "4a5ce86c66a677886a27c83b65baccf842b4561df1a6019ad556aa53eef2c36c",
    ("small", "mcf", 0):
        "aaf14a60777af731a3a0f3919ceae9752358964461535f01be1d8f50fab033f6",
    ("small", "mcf", 3):
        "9decb45dc29020d2d737b831ca5eba9dea722333ba671c6f74579f056719e8de",
    ("small", "mesa", 0):
        "cb5f5cb159d0ccf1ab321464c71394387c2167eda47eaf14b5ea6e8dea1b509c",
    ("small", "mesa", 3):
        "cc58d9d7d792f5746219df7fb40e3a173a1a5badb37208feab8598f7c8afc7ab",
    ("small", "mgrid", 0):
        "7ac25ac398f2bc5d0b10dd563aaef10084d3c49877305d1c7a2eefbf4d0f884c",
    ("small", "mgrid", 3):
        "4abca28e4aef3cec8b149ef75b6271de4d976caf4b9b432f5263df3155129918",
    ("small", "parser", 0):
        "0f770a901f18c9aa145a3b762cef3f87ff273ba22924b7582500a5291a996feb",
    ("small", "parser", 3):
        "0ea22f7da8c2f81e9555890d329c22cf81a1314b50209f6e53ba95f528b6f2f6",
    ("small", "perl", 0):
        "4101abcb3d5b6779a1359f8d8455ede16548d8fb8b224ff51144ac6bb31f7353",
    ("small", "perl", 3):
        "2cfb42515a8fd8a419c4e3c43fb0c0cf7b4d8b6662ba4fc064894d656531a2b8",
    ("small", "perlbmk", 0):
        "4101abcb3d5b6779a1359f8d8455ede16548d8fb8b224ff51144ac6bb31f7353",
    ("small", "perlbmk", 3):
        "2cfb42515a8fd8a419c4e3c43fb0c0cf7b4d8b6662ba4fc064894d656531a2b8",
    ("small", "sixtrack", 0):
        "8cab69d5d5b573c1de8c560ca143a2a3a59855ff84031fd5a52c1d8c7de0f6fe",
    ("small", "sixtrack", 3):
        "032187eabaf62602badd338c5a13bc9245bf1ff2bb29871961b4a806c1f58448",
    ("small", "swim", 0):
        "539dece7b5f5356d33687725c202de4a3977ba1a86a8d16ca024c7840b3d14e8",
    ("small", "swim", 3):
        "d5cf9db1940e57d2e2befea72277f2580938b5549692f0462395bc1acf91f460",
    ("small", "twolf", 0):
        "c1dfc7b07e3c874ea06920c38dfd2765557c7df3eef51f750f5b5f69a7bcd595",
    ("small", "twolf", 3):
        "22b2922054860907ce0f442fac9f7d3fc44f5e0d60c8c80faf745837d26d2f1e",
    ("small", "vortex", 0):
        "23141f1302202c9e436baa2bd1203c0dd7606f2c60527b490a7c75eba67bf80e",
    ("small", "vortex", 3):
        "885ee1ec4c602c4b863f9b606a0ec0137600c47847d481b992117ae6bded8923",
    ("small", "vpr", 0):
        "9b95d063d59a465a8034204c65385754208b7e3a24e03a6e362e25cb1c95916e",
    ("small", "vpr", 3):
        "334f3f69e361e17872d78e7e27f01cf4f868ecb96f403309e8e25b1fff14e978",
    ("small", "wupwise", 0):
        "029a29bde07c356eddef472a3b129fe40d101f60f90e5d50b8b9dc0f890e64ae",
    ("small", "wupwise", 3):
        "40ac81ddf9f29e43d6992c813a5f64b92f21ea6fdd3c3cf5f5d1eb3a3c03c56c",
    ("paper", "parser", 0):
        "29dba0e45bbbfe4a43abd7113538bf73793e7fb54ddbb70137d36d5f45fe74e1",
    ("paper", "mcf", 3):
        "be5724a694e002d7161570b7425c2aa2a5ae2d627cea4c79dbc8515af90af3bc",
}


@pytest.mark.parametrize("preset,name,core_id", sorted(DIGESTS))
def test_trace_matches_pinned_digest(preset, name, core_id):
    scale = scale_preset(preset)
    trace = generate_trace(name, scale.accesses,
                           scale.baseline_l2_lines, seed=scale.seed,
                           core_id=core_id)
    assert len(trace) == scale.accesses
    assert (hashlib.sha256(trace.lines).hexdigest()
            == DIGESTS[preset, name, core_id])


def reference_lines(spec, num_accesses, l2_lines, seed, core_id):
    """The plain numpy formulation the generator must reproduce."""
    rng = make_rng(seed, "trace", spec.name, core_id)
    sizes = [region.size_lines(l2_lines) for region in spec.regions]
    zipf = {}
    for r, region in enumerate(spec.regions):
        if region.pattern == PATTERN_ZIPF:
            cdf = np.cumsum(np.arange(1, sizes[r] + 1, dtype=np.float64)
                            ** -ZIPF_EXPONENT)
            cdf /= cdf[-1]
            permutation = make_rng(seed, "zipf", spec.name, r).permutation(
                sizes[r]).astype(np.int64)
            zipf[r] = cdf, permutation
    stream_pos = [0] * len(sizes)
    segments, filled, phase = [], 0, 0
    while filled < num_accesses:
        weights = np.asarray(spec.phases[phase % len(spec.phases)].weights,
                             dtype=np.float64)
        phase += 1
        count = min(spec.phase_accesses, num_accesses - filled)
        choices = rng.choice(len(sizes), size=count, p=weights / weights.sum())
        segment = np.empty(count, dtype=np.int64)
        for r, region in enumerate(spec.regions):
            mask = choices == r
            n = int(mask.sum())
            if n == 0:
                continue
            if region.pattern == PATTERN_STREAM:
                offsets = stream_pos[r] + np.arange(n, dtype=np.int64)
                stream_pos[r] += n
            elif r in zipf:
                cdf, permutation = zipf[r]
                offsets = permutation[np.searchsorted(cdf, rng.random(n),
                                                      side="left")]
            else:
                offsets = rng.integers(0, sizes[r], size=n, dtype=np.int64)
            segment[mask] = ((core_id << _CORE_SHIFT) | (r << _REGION_SHIFT)
                             ) + offsets
        segments.append(segment)
        filled += count
    return np.concatenate(segments)


@st.composite
def specs(draw):
    """A benchmark of 1-4 regions of any pattern and 1-3 phases whose
    weights include zeros."""
    regions = tuple(
        RegionSpec(f"r{i}", draw(st.floats(0.001, 2.0)),
                   draw(st.sampled_from(PATTERNS)))
        for i in range(draw(st.integers(1, 4))))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
    phases = []
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.lists(weight, min_size=len(regions),
                                max_size=len(regions)))
        if sum(weights) == 0:
            weights[-1] = 1.0
        phases.append(Phase(tuple(weights)))
    return BenchmarkSpec(name=draw(st.sampled_from(["a", "b"])), ipm=4.0,
                         cpi_base=1.0, regions=regions, phases=tuple(phases),
                         phase_accesses=draw(st.integers(1, 700)))


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(1, 2_000), st.integers(16, 1_024),
       st.integers(0, 50), st.integers(0, 7))
def test_generator_equals_reference_formulation(spec, accesses, l2_lines,
                                                seed, core_id):
    trace = generate_trace(spec, accesses, l2_lines, seed=seed,
                           core_id=core_id)
    assert np.array_equal(trace.lines, reference_lines(
        spec, accesses, l2_lines, seed, core_id))


@st.composite
def cdf_and_draws(draw):
    """A non-decreasing CDF ending at 1.0, a guide-table size ``k`` and
    draws ``u`` in ``[0, 1)``.

    CDF values and draws both come from the bucket edges ``j / k``, their
    float neighbours and arbitrary floats, with repeats, so runs of equal
    CDF values and a draw just below an edge (where ``u * k`` can round up
    into the next bucket) both occur.
    """
    buckets = draw(st.integers(1, 200))
    edges = np.arange(buckets) / buckets
    special = np.concatenate([edges, np.nextafter(edges, 0.0),
                              np.nextafter(edges, 1.0)])
    value = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special.tolist()))
    cdf = np.sort(np.array(draw(st.lists(value, max_size=80)) + [1.0]))
    u = np.concatenate([special, cdf, np.nextafter(cdf, 0.0),
                        np.array(draw(st.lists(value, max_size=40)))])
    return cdf, buckets, u[u < 1.0]


@settings(max_examples=300, deadline=None)
@given(cdf_and_draws())
def test_guided_ranks_equal_searchsorted_left(case):
    cdf, buckets, u = case
    guide = guide_table(cdf, buckets)
    assert np.array_equal(guided_ranks(cdf, guide, u),
                          np.searchsorted(cdf, u, side="left"))
