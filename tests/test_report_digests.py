"""Golden digests of whole reports: byte-identity as a Tier-1 gate.

Each call below runs in-process through ``crossint.cli.main`` and is
pinned by one SHA-256 over its file name, its exit code and its report
bytes, with the numbers of the two timing keys, ``millis`` and
``runtime_millis``, replaced by 0 and nothing else touched.  The calls
are those of the benchmark's three workloads at seed 0 (verify-oracle,
orbit-sweep and set-audit, copied here rather than imported), plus one
sweep written as CSV.

A change that means to change a report updates its digest here, in the
same change, and says which calls changed and why.  Every sweep report
carries the package ``version`` in its first line, so a version bump
changes the digest of every call but the ``shift`` ones.
"""

import hashlib
import random
import re
from itertools import combinations
from math import comb

import pytest

from crossint import cli, extremal, orbitgraph


def _sweep(command, ks, ss, ls, *extra):
    argv = [command]
    for axis, (lo, hi) in zip("ksl", (ks, ss, ls)):
        argv.append(f"--{axis}-range={lo}:{hi}")
    return argv + list(extra) + ["--jobs", "1"]


def _calls():
    """(file name, argv, family) of every pinned call; ``family`` is the
    (n, text) of a ``shift`` call's input file, else None."""
    calls = []
    # verify-oracle: single verify calls with C(n, k) from 210 to 924
    for n, k, s in ((10, 4, 2), (11, 4, 2), (10, 5, 2), (11, 5, 2),
                    (12, 5, 2), (11, 5, 3), (12, 5, 3), (12, 6, 3)):
        calls.append((f"verify-{n}-{k}-{s}.json", [
            "verify", "--n", str(n), "--k", str(k), "--s", str(s),
            "--jobs", "1"], None))
    # orbit-sweep: lemmas and chains over 12,586 triples
    grid = ((3, 30), (2, 29), (0, 30))
    calls.append(("lemmas.json", _sweep("check-lemmas", *grid, "--checks",
                                        "lemma1,lemma2", "--cap", "1"), None))
    calls.append(("chains.json", _sweep("check-chains", *grid), None))
    # set-audit: deep audits up to C(n, k) = 35, the edge grids up to
    # n = 12, lemma 1 with its enumerated MIS, and 24 shift closures
    for k in range(2, 7):
        for s in range(1, k):
            n = 2 * k - s + 1
            while comb(n, k) <= 35:
                calls.append((f"audit-{n}-{k}-{s}.json", [
                    "verify", "--n", str(n), "--k", str(k), "--s", str(s),
                    "--deep-audit", "--jobs", "1"], None))
                n += 1
    for k in range(3, 7):
        for s in range(2, k):
            calls.append((f"edges-{k}-{s}.json", _sweep(
                "check-edges", (k, k), (s, s), (0, 12 - (2 * k - s + 1))),
                None))
    calls.append(("lemma1.json", _sweep("check-lemmas", (3, 5), (2, 4), (0, 2),
                                        "--checks", "lemma1"), None))
    rng = random.Random("set-audit/0")
    for idx in range(24):
        n, k = rng.randint(9, 12), rng.randint(3, 5)
        members = rng.sample(list(combinations(range(1, n + 1), k)),
                             rng.randint(20, 60))
        text = "".join(",".join(map(str, m)) + "\n" for m in members)
        calls.append((f"shift-{idx}.txt", ["shift", "--n", str(n)], (n, text)))
    # one CSV sweep, with skip records (s = 1, l = -1) among its rows
    calls.append(("lemmas.csv", _sweep(
        "check-lemmas", (3, 8), (1, 7), (-1, 8), "--checks",
        "lemma1,lemma2,chains,hm", "--cap", "1", "--format", "csv"), None))
    return {name: (argv, family) for name, argv, family in calls}


CALLS = _calls()

_JSON_TIMING = re.compile(rb'"(millis|runtime_millis)": [-+.0-9eE]+')
_CSV_MILLIS = re.compile(rb",[-+.0-9eE]+$", re.M)  # the last CSV column


def _digest(name, code, data: bytes) -> str:
    """SHA-256 of the call's file name, exit code and report bytes, with
    the timing numbers replaced by 0."""
    if name.endswith(".json"):
        data = _JSON_TIMING.sub(rb'"\1": 0', data)
    elif name.endswith(".csv"):
        data = _CSV_MILLIS.sub(b",0", data)
    return hashlib.sha256(b"\0".join(
        [name.encode(), str(code).encode(), data])).hexdigest()


def run_call(name, directory):
    """Run one pinned call in ``directory``: its exit code and report."""
    argv, family = CALLS[name]
    if family is not None:
        n, text = family
        path = directory / f"family-{name}"
        path.write_text(text, encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    out = directory / name
    return cli.main(argv + ["--out", str(out)]), out.read_bytes()


DIGESTS = {
    "audit-4-2-1.json":
        "83c44fbf6126e92b8558c633a9c8a31b25c6734f7a1ddabb6f22cb215446c082",
    "audit-5-2-1.json":
        "236ddb8f4298763d47fc1d3206ff98f2958a804647332157b3d87ad0a6b495b0",
    "audit-5-3-2.json":
        "d0f101a7390051ce2ba2080e58dc6710a9015289bfa0c2a19b6ea87e2b196c7e",
    "audit-6-2-1.json":
        "37377a3f262acb14cd9b58747907ceb0b9c14a8a7fd86bba880a55fde0f64b0e",
    "audit-6-3-1.json":
        "eb20bd606780ed35743ad45cbf4e7b09db46d5ee20bc0dc22702cb63ee46b1f3",
    "audit-6-3-2.json":
        "c36bbce967c95f3f2dbb2077131843dbd8a07aeba4eae187e26eb6069746a26e",
    "audit-6-4-3.json":
        "10f8bf831e40c5cab881bd07e1ac53573990d65acc58186e247c3574510aa7a3",
    "audit-7-2-1.json":
        "e8a33c66cc1fabfaa6c4186ac656140833947b4bcdc33414014b43dd0cd08c8e",
    "audit-7-3-1.json":
        "c6103f4602c76fe5d96a83210ae86cd7be9e6a9d0366867d1a296905aa962b8b",
    "audit-7-3-2.json":
        "0ad81d91724a1cc6389fe2bb7a7dfe81bf06c47a732a820da9efcebb2bde8f7d",
    "audit-7-4-2.json":
        "6e810e374d746b1314155f204ff7731d0f8d8b5b2315773fa34787e11d9720ac",
    "audit-7-4-3.json":
        "517782521f75071acb5e99bd8c224764f3316b9c17af895d8d0dc0ccf1970391",
    "audit-7-5-4.json":
        "295176cd027b31b79e93fc4cf02be91fd59e11fd54e7f7f8124ac4e47747aea3",
    "audit-8-2-1.json":
        "b18a4a19b54af4a05563607c369452bb133cff995fe7fba237b1a7742d2e378d",
    "audit-8-6-5.json":
        "7c3a2b077ed0e23b5ce95dcddfdbe1e4eaa3065a6cc8d49a01ac8a3a2c8eed00",
    "chains.json":
        "34194125ee4592a60bd484186e645da39b571fb0e80d55cb9d56867deaadaa44",
    "edges-3-2.json":
        "eab7ec93790d6dd5ec3dca51690e7120882226975c630366dc1211245548e32b",
    "edges-4-2.json":
        "2394638df0ad55128aed71def5c33d206b7dc50ee49d67b7025c44d6c390a1f8",
    "edges-4-3.json":
        "9d1f786d858134506ecc89c9b1e0f13759db76175198a5201d7cb30d728e0a5c",
    "edges-5-2.json":
        "28f348856609155f0898c7f45c21fe5bb650b813f0f1e271d943098ba704d49d",
    "edges-5-3.json":
        "27d45305ed73333c72d3f5029635615e48c87550514e30ef71c125f8ca2704af",
    "edges-5-4.json":
        "b68e6cc27aa51a13ea5249b039e768e2235fc583328bf4008508107bc2c60944",
    "edges-6-2.json":
        "6c00e0a6a193756340ad98cece1bd93d24021216340eadf639816764484a3256",
    "edges-6-3.json":
        "6e6995adc0953d21ce9e93f1b83f1ba6e03c3f267b48e1141510ce34056b06fb",
    "edges-6-4.json":
        "c04b1557c1936ecbe04c5e62cfc3a28a214561e2dd0365a3369f57950144811b",
    "edges-6-5.json":
        "eb86737a26f1d17e86e05b96c0fc57e1b3d380c5d1d5bb6cff02ddfd68215c1e",
    "lemma1.json":
        "6a962049652a8ceaf0bf01f14fca1c5b4730cbd67386d8339a62b0debff405e8",
    "lemmas.csv":
        "4d7a94db0777a95404d28457cb2102cff2600b01026ccea6d6de0abf9336a8f1",
    "lemmas.json":
        "27fcbaaf1ed74e5a3eaf701e6495479bfb7930bd093ad15e76932f0dfd5e0283",
    "shift-0.txt":
        "92b74abdca875f5a69321221d576641e92df42adbcc3084473032f874fefbdac",
    "shift-1.txt":
        "1919b6a3bf00a81de41473d187237e14f2b83064667b9522cd4fb1eb8476b547",
    "shift-10.txt":
        "5f20a21b09eedfc608a03897427b507d0b7cfa07cede6d508bbe6ad29e4f7f26",
    "shift-11.txt":
        "88ba18be453b74bfd2461049fcd908a2c548397475bdc12ee249c9baefe58b3a",
    "shift-12.txt":
        "6c595cf7bf391183142e359dcb292397d2f573f4a0752e2f145f9823144d680d",
    "shift-13.txt":
        "c1f14b84917d547ec3ef8187a7028b64952b96c4f1829007b992243b6e6b8076",
    "shift-14.txt":
        "ca187905ef02cff34c6ac64423b226f62ee0e59837be669046fbdd455534a17e",
    "shift-15.txt":
        "dfcc1a933285062c38a03085df965257f553503647136f10afbf94b0e79ea3c7",
    "shift-16.txt":
        "6a5d3ee37e5eb6fb027b8b615b6b091d9c59456d412ad858c3121ffde36f40df",
    "shift-17.txt":
        "7b9156459ab847ad7a539335cd97162d2baba5a44597d0535723f064d0c9c7ad",
    "shift-18.txt":
        "4738284f82e5512c6a44566a4f531eb374760a8f470498c906ffb1e76b42aa3a",
    "shift-19.txt":
        "dc3745ac098401da1d723bc2cc58f5cbbfd2489d951e2340c30577a11b58a76c",
    "shift-2.txt":
        "d40a991b79aeff46b7c934c90a19c09dd34dcafa74c91996e6d1d8032c4ee0e9",
    "shift-20.txt":
        "2e5043fba55fa210f529b2210bb2c7883bcde58818fbb1d936389dc0cc8a9107",
    "shift-21.txt":
        "d8b7e1492c6f95644bba78dcc0f88bef7796b5d38e8afd1b009fc310cf7b9b4e",
    "shift-22.txt":
        "40ff82e86edbd0671aa5a65eb11075dc782b6b8b261239778340789b52a404cb",
    "shift-23.txt":
        "de53d9881f6494abba2229172e4f2202d64cecaed7f30e800657698126f8b3fd",
    "shift-3.txt":
        "4396f8adf2cbba03ce704c4ab5c349b38e3c3649244e7a6205f96f4229c003ec",
    "shift-4.txt":
        "2699452dd122a556d087b2de53f26878d2558d9e4c450ad7f85ec8c6f4c786dc",
    "shift-5.txt":
        "60108e2eb33b89fcd3af687892ae3a71c0ce6061fe07a87655b64d3298cc3fab",
    "shift-6.txt":
        "e718531213c1bad7b52b0b651f6b3900390eb025555238a5e4e6000bb1faa57d",
    "shift-7.txt":
        "0ad92f4e8e2b061758054bcb956aa1d770ea8aacd66f1a2cde48de926db5161d",
    "shift-8.txt":
        "8aeab06e453dd8106db168a138f71b25cc98644ea3af8e2be4f63db40e042969",
    "shift-9.txt":
        "6715a4d54db58e8c98d19ed6f34c43c58df840d00a547f124d6a4c9deaadc5bc",
    "verify-10-4-2.json":
        "d8f71e472f8f52e223eb5fcca9b4f9201bb10b6661d806a06616fba9123a2243",
    "verify-10-5-2.json":
        "d0162ff2602ac979804824955e793ed3a1e32c59a39907a83144c63f9e9a63b0",
    "verify-11-4-2.json":
        "d564274957b31791ab3d7d70a758da55bfeca79bd7e52ee2bfc068168f3d7241",
    "verify-11-5-2.json":
        "ad94001e970d7ca3c64c46acfed5239aeff1923904f65cdbc2c42e31c5bea69c",
    "verify-11-5-3.json":
        "4d70558ff9ccabf3a4c80d31e41422410aeb6100c4ed671468b952269113b54c",
    "verify-12-5-2.json":
        "12c8a55bcb26b612a18ac5f9b3161bd1d8a42a3251d4170eae89f9a6a7c85a83",
    "verify-12-5-3.json":
        "af98e2a640e3968c61ffea6924906604a62e79f72d99b630c740e06b57e698a0",
    "verify-12-6-3.json":
        "e2430b9968f14abff6bfbd7bb6e6c4aba13677f80743e36e14ff17813d453bb5",
}


def test_table_covers_every_call():
    assert sorted(DIGESTS) == sorted(CALLS)
    assert len(CALLS) == 61


@pytest.mark.parametrize("name", sorted(CALLS))
def test_report_digest(name, tmp_path):
    got = _digest(name, *run_call(name, tmp_path))
    if got != DIGESTS.get(name):
        raise AssertionError(f"{name}: report digest {got}, pinned "
                             f"{DIGESTS.get(name)}")


def test_digest_sees_timing_only_as_timing():
    base = b'{"millis": 1.5, "runtime_millis": 2e-05}\n'
    assert _digest("a.json", 0, base) == _digest(
        "a.json", 0, b'{"millis": 7, "runtime_millis": 3.25}\n')
    for other in (b'{"millis": null, "runtime_millis": 2e-05}\n',
                  b'{"millis": 1.5, "runtime_millis": 2e-05} \n'):
        assert _digest("a.json", 0, base) != _digest("a.json", 0, other)
    assert _digest("a.json", 0, base) != _digest("a.json", 1, base)
    assert _digest("a.csv", 0, b"1,pass,0.25\n2,skip,\n") == _digest(
        "a.csv", 0, b"1,pass,9\n2,skip,\n")


def test_tampered_weight_row_changes_digest_and_exit_code(monkeypatch,
                                                          tmp_path):
    """Swapping w(k-2) and w(k-3) in every weight row breaks lemma 1's
    values: the pinned digest no longer matches and the exit code goes
    from 0 to 1."""
    name = "lemma1.json"
    row = extremal._weight_row

    def swapped(n, k):
        weights = list(row(n, k))
        if k >= 3:
            weights[k - 2], weights[k - 3] = weights[k - 3], weights[k - 2]
        return tuple(weights)

    for module in (extremal, orbitgraph):
        monkeypatch.setattr(module, "_weight_row", swapped)
    orbitgraph._vertex_rows.cache_clear()
    try:
        code, data = run_call(name, tmp_path)
    finally:
        orbitgraph._vertex_rows.cache_clear()
    assert code == 1
    assert _digest(name, 0, data) != DIGESTS[name]  # 0: the pinned code
