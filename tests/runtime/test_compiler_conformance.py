"""Pinned digests of serial runs: the results of the one serial reference.

The compiled closures are the serial interpreter; the vectorized, lane and
release suites compare the member-batched runtime against them.  These pins
hold the serial runs themselves.  Each build runs ``cam_init`` and two
``cam_run_step`` calls, and the state after each step is hashed in two
parts:

* structure: history field names, dtypes, shapes and write counts, the
  statement count, the PRNG draws and the per-line coverage counts;
* values: the bytes of every field's latest write and first write.

The pins were taken before the dispatch walker, the tree-walking engine
the closures replaced, was deleted: walker and closures gave the same
digests for all 16 states.  FTZ's pins equal the control build's because no
subnormal arises in two steps, so ``test_flush_to_zero`` is the test that
shows the flush.

numpy chooses its float64 kernels by CPU: numpy 2.4's AVX-512 kernels for
exp, log, pow and several trigonometric and hyperbolic functions round
differently from the libm path other x86-64 CPUs take.  So the value pins
are keyed by a fingerprint of the kernels the runtime calls; they were
taken on one AVX-512 host, with numpy's AVX-512 and then its AVX2 kernels
switched off through ``NPY_DISABLE_CPU_FEATURES`` for the other sets.
Structure does not depend on the kernels and is pinned for every platform;
a platform whose fingerprint is not pinned checks structure only and
reports the value check as skipped, naming the fingerprint to pin.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.model import ModelConfig, build_model_source
from repro.runtime import FPConfig
from repro.runtime.intrinsics import INTRINSIC_FUNCTIONS
from repro.runtime.interpreter import Interpreter

BUILDS = {
    "control": ((), FPConfig()),
    "fma": ((), FPConfig(fma=True)),
    "ftz": ((), FPConfig(flush_to_zero=True)),
    "cldfrc-premib": (("cldfrc-premib",), FPConfig()),
    "goffgratch": (("goffgratch",), FPConfig()),
    "mg-autoconv": (("mg-autoconv",), FPConfig()),
    "rand-mt": (("rand-mt",), FPConfig()),
    "wsubbug": (("wsubbug",), FPConfig()),
}

#: build -> structure digests after step 1 and step 2
STRUCTURE = {
    "control": (
        "382bbe6dce03298bee714fd651a092282ff342f88a603a2a2cb443c4f2e94941",
        "eb4f03617d04e749c0ee2ef7f3c5a67f8321ced1cfb976cd2df32c71137bcbf1",
    ),
    "fma": (
        "382bbe6dce03298bee714fd651a092282ff342f88a603a2a2cb443c4f2e94941",
        "716d7e9efe95334620fb36a57fcf332f79ecaee344b832b68a63fbf2496e627c",
    ),
    "ftz": (
        "382bbe6dce03298bee714fd651a092282ff342f88a603a2a2cb443c4f2e94941",
        "eb4f03617d04e749c0ee2ef7f3c5a67f8321ced1cfb976cd2df32c71137bcbf1",
    ),
    "cldfrc-premib": (
        "8dde988985b6935dcb75674781104b5e0722d8eda28bccdbd6c4bbd7523f4073",
        "032ad5b0605668e0c6c49a55cec1dd2fb85bbab1270dc07a99bbd8728580c10b",
    ),
    "goffgratch": (
        "c76c29338ba53121a67de2d5f8dfab9b5f4e6ef18d0007bb0208210df86befd9",
        "23162ebc81160823b646422c81c03ede6c08b22d006fa67a66d1ea61a0bd9127",
    ),
    "mg-autoconv": (
        "c07d66c722315f09eb6d48dd3a00be671062b6fa08c57bf11f74f4e7b32c6c5e",
        "f279e7adf37c3af3a0cc45664e7a38d933602b52ec8d520f9abb18f11ca07226",
    ),
    "rand-mt": (
        "f51204128d203219725696035c7964602c4cf3b88cdac90d06b5c5d5ad82c3e5",
        "ec401d5c6e53dfbf3355f74905eb6c77b12896f90cdee2635c18e8bd3b900c7c",
    ),
    "wsubbug": (
        "382bbe6dce03298bee714fd651a092282ff342f88a603a2a2cb443c4f2e94941",
        "eb4f03617d04e749c0ee2ef7f3c5a67f8321ced1cfb976cd2df32c71137bcbf1",
    ),
}

#: value digests after step 1 and step 2 under numpy 2.4's AVX-512 kernels
AVX512_VALUES = {
    "control": (
        "5c9b3ae415b68d6d674b8d51bb865455b92453cc84a964dfb706937c8b257ca1",
        "5abf4f5f59439202c1eea5e0ec4f66fc846ed124cb14f51f1118e2752bd70aba",
    ),
    "fma": (
        "1491bb56d09adce47f8214b19c8b4920f2c913c57b7edfb2092e7d7d4f99133d",
        "89dda6493164f1c07a9f22464d5e8302b597e554def55479bb9efc00855557c3",
    ),
    "ftz": (
        "5c9b3ae415b68d6d674b8d51bb865455b92453cc84a964dfb706937c8b257ca1",
        "5abf4f5f59439202c1eea5e0ec4f66fc846ed124cb14f51f1118e2752bd70aba",
    ),
    "cldfrc-premib": (
        "079a4e9cb696014cb25e021f918b55a93ea829fd9cef0d2735c5b6aace1ce36d",
        "989997684412693aa96d8825d9503cc632e3d5f91316e8c9884429e66ce11501",
    ),
    "goffgratch": (
        "a19a9e20b28a87a59e7e4b1005f4781cdc66cbd61b60f44d82ca28699dcda021",
        "fc65e02b105e2ed21865bd6f4b2c6d6fc89da47e184d76cb428561793f218a51",
    ),
    "mg-autoconv": (
        "54955d9bdc2c0ef785a27af32452e4a82b13402374d7125cf79001301e103b82",
        "bbb5bddfb87cdca04a62259f1336448135487fdd9994a62ac4f39a76d7f39546",
    ),
    "rand-mt": (
        "f306a84796f86693b110a3a14567f28fbee57024a4876f9b18d32efd75e1d614",
        "f3e38ad233e9e8fbfd1e241f34009f6679a5ec5f00776513ede88f9c9add7235",
    ),
    "wsubbug": (
        "149111e55fe93679e7caa03bd0916f796577b5fd11244f58c5ccf6d61974e482",
        "783abce771063560e805202e04e316822798b50583bfb61a9d74f6a0b4a62ec0",
    ),
}

#: value digests after step 1 and step 2 under the libm path numpy 2.4
#: takes without AVX-512 (the AVX2 and x86-64-v2 kernel sets differ only in
#: tanh, which these steps leave out of every history field)
LIBM_VALUES = {
    "control": (
        "8fc2581d1c9e4c78a9eefdc9ce640d051a209f39e9b01b380e5f12615889c05f",
        "1232d22cef340d2083cd45b1c21e3a407a4e7e5a882dbf8ed2742961f5efd07f",
    ),
    "fma": (
        "f670a0b53ecee6bc57c4280d3fb8305cd453cbb5bc2418b8fc180afd767fb1fd",
        "3c15390d8b5f2dde57a8997e73ba9491a6b05989d164e85f68d8c2973fccac2e",
    ),
    "ftz": (
        "8fc2581d1c9e4c78a9eefdc9ce640d051a209f39e9b01b380e5f12615889c05f",
        "1232d22cef340d2083cd45b1c21e3a407a4e7e5a882dbf8ed2742961f5efd07f",
    ),
    "cldfrc-premib": (
        "c26bc9803fd2b81c37e7873ad4954f469540485358dfbea2f3f716b4be3858cd",
        "526d3a4e04f7b48cbba80fa1c0d2b4e928d43fb93cd40e5495af262c0ac050fd",
    ),
    "goffgratch": (
        "a1830d2207f4b2d6deb287ae00f3569d0c95012b5a99368e32d907d0af3effff",
        "e316d699998e65f9c7a76f973c3272094c0d392e2d5fd9fcc2bd6d3d0ea82328",
    ),
    "mg-autoconv": (
        "a2ac2f8485f452f8bc3663f7d4ba1c59daf320a1b9ea92f12772453b0ca70a2d",
        "f3d4cecb80a8050d16ee084d906eae149676cadfcd002e4808d03558a4ec7126",
    ),
    "rand-mt": (
        "78994626fbe34bca672bbbd9bc0069b41ef8877598ba77e9e05d6e033476e698",
        "ed38aa5f0d6330b999b5aa883709fc6b47b14ae33652662176ba5698d3f56cb6",
    ),
    "wsubbug": (
        "8fd7ccf24f37480445fbba4bce3f1eefd5e3633c8ff62acacf0f073c93f7d735",
        "4c28b7c1dc04147ae7d84da0fb8fd62b7e18d68cc8ebdc613133ce5a73a69ed1",
    ),
}

#: kernel fingerprint -> build -> value digests after step 1 and step 2
VALUES = {
    "362e01bf0e50cb53": AVX512_VALUES,
    "c81737dd392b548b": LIBM_VALUES,  # AVX2
    "50a2f6222d73cdc0": LIBM_VALUES,  # x86-64-v2
}


def structure_digest(interp) -> str:
    history = interp.history
    counts = interp.coverage.counts
    fields = {}
    for kind, snapshot in (("latest", history.fields), ("first", history.first)):
        for name, value in snapshot.items():
            value = np.asarray(value)
            fields[f"{kind}:{name}"] = [value.dtype.str, list(value.shape)]
    state = {
        "fields": fields,
        "ncalls": history.ncalls,
        "statements": interp.statements_executed,
        "draws": interp.prng.total_draws(),
        "coverage": [[f, line, counts[f, line]] for f, line in sorted(counts)],
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def values_digest(interp) -> str:
    digest = hashlib.sha256()
    history = interp.history
    for snapshot in (history.fields, history.first):
        for name in sorted(snapshot):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(snapshot[name]).tobytes())
    return digest.hexdigest()


def kernel_fingerprint() -> str:
    """Digest of the numpy float64 kernels the runtime calls, over fixed
    inputs: two platforms with one fingerprint round alike."""
    x = np.linspace(0.01, 0.99, 997)
    digest = hashlib.sha256()
    for name in sorted(INTRINSIC_FUNCTIONS):
        ufunc = getattr(INTRINSIC_FUNCTIONS[name], "ufunc", None)
        if ufunc is not None:
            digest.update(ufunc(x).tobytes())
    for result in (np.power(x, 1.37), np.arctan2(x, x[::-1]),
                   np.sum(x), np.dot(x, x[::-1])):
        digest.update(np.asarray(result).tobytes())
    return digest.hexdigest()[:16]


def step_digests(build: str) -> list[tuple[str, str]]:
    """(structure, values) digests after each of two steps of ``build``."""
    patches, fp = BUILDS[build]
    asts = build_model_source(ModelConfig(patches=patches)).parse()
    interp = Interpreter(asts, fp=fp, seed=321)
    interp.call("cam_comp", "cam_init", [1e-14, 321])
    states = []
    for _ in range(2):
        interp.call("cam_comp", "cam_run_step", [])
        states.append((structure_digest(interp), values_digest(interp)))
    interp.close()
    return states


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_serial_run_matches_its_pins(build):
    structure, values = zip(*step_digests(build))
    assert structure == STRUCTURE[build]
    fingerprint = kernel_fingerprint()
    pinned = VALUES.get(fingerprint)
    if pinned is None:
        pytest.skip(f"no value digests pinned for float kernels {fingerprint}")
    assert values == pinned[build]

