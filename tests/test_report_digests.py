"""The stdout bytes and exit code of one command line per subcommand, plus
two failed identities and one refusal, on seeded inputs, and the same bytes
written to a file with ``--output``.  ``adhm check`` and ``monad classify``
run on a locally free and a reflexive datum too, whose j is not zero.

Each report is pinned by its sha256, so any change to a report's bytes
fails here and not only in the benchmark.  The inputs come from the seeded
generators, and none reaches a factor string of sympy, whose text may
differ between sympy versions.  To re-pin after an intended change of a
report, print ``hashlib.sha256(out.encode()).hexdigest()`` for the failing
command line.
"""

import hashlib
import json

import pytest

from qadhm.adhm import random_nonstable_solution, random_stable_solution
from qadhm.cli import _GROUPS, commands, run

from helpers import (random_complex_datum, random_locally_free_solution,
                     random_real_solution, random_reflexive_solution)


def write_inputs():
    """Write the input files into the current directory."""
    files = {
        "stable.json": random_stable_solution(2, 2, 3).to_json(),
        "nonstable.json": random_nonstable_solution(2, 2, 5)[0].to_json(),
        "real.json": random_real_solution(2, 7, "regular")[0].to_json(),
        "raw.json": random_complex_datum(2, 2, 1).to_json(),
        # j != 0: regular, and semiregular but not regular
        "locfree.json": random_locally_free_solution(2, 1).to_json(),
        "reflexive.json": random_reflexive_solution(2, 1).to_json(),
        "cocycle.json": {"cocycle": [
            {"exponents": [1, 0, -2, -1], "coeff": "1"},
            {"exponents": [0, 2, -1, -3], "coeff": "2/3-1/2*i"}]},
    }
    for name, obj in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


# command line -> (exit code, sha256 of stdout)
DIGESTS = {
    "adhm check nonstable.json": (
        0, "52b7fbbaabaea66b9688f9b2367420f0227d474602264729fd2c9d245c96dfe9"),
    "adhm check raw.json": (
        1, "e87fd1712e35b5dce8044cf77f761401924c6158fe8013243e48932007d5066d"),
    "adhm check locfree.json": (
        0, "9bf968fd42b7769e62394fe87eb80d4534ee10c91802164d304d2344d2743448"),
    # the witness comes from the costable side
    "adhm check reflexive.json": (
        0, "657f76222353fa4f8fa3682bb3ab0b6780715c5989110cb21ac6a65a6b1a6e18"),
    "adhm embed real.json": (
        0, "5fd354f78a78603f5aa2592782edcf6df108bde097220ccb00302db7b40666ed"),
    "adhm random -r 2 -c 3 --seed 5": (
        0, "b007a93f2562d2f06c4aad35e978ca6f9e23895df8374a78c97abe93d6d36c64"),
    "adhm rank stable.json": (
        0, "f57e557d1014958b8324770f578d9fd2895326b7f9fe529d3c825aae19657df3"),
    "monad build stable.json": (
        0, "d41ede9d8d2d3dae26eed75ce999082ce0b06131019dfa974e223e6e03d43c37"),
    "monad classify stable.json": (
        0, "bc8fc4ffe43cb1cd72b327e49bf681157e23db4d4d535c097425ec659c942f29"),
    "monad classify locfree.json": (
        0, "eae2aa73f35a5f658bd80a76a36fae2579385586e1508660035d2f4bcd8c5fc7"),
    "monad classify reflexive.json": (
        0, "5b337e5ba7175a1a8933ba2a6d6ec43036a5ba46aa39bf894265db07eb6e2010"),
    "monad chern -r 2 -c 1 -k -1": (
        0, "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28"),
    "q normalize x21*x12+q^-2*x12*x21": (
        0, "4058201eefaed5041bdddcf2c61eee22a12785016c5bdd7a88c7cb9fe04c7e4f"),
    "q partial x11*x22-q*x12*x21": (
        0, "a17f9eead74ced82d1b40a1d488ebd0eafe3de9385c343f8d798ae0707c665d7"),
    "q laplace det*x11": (
        0, "5ea72ae53b2f94f2500f3394263ade9360b35f444d0bd563403d84aa22a1ce50"),
    "q harmonic -l 2 -m 0 -n 2 -k 1": (
        0, "8e22d5c8432562a85ba5caa8e4078472c8fe1375fac112938078567bf18233e0"),
    "q eigen -k 1 -l 2 --p-choice qinv": (
        0, "a688a177b7375cb2c72c88c3972d6b3217b78ec858ed12c57a8f2775313685a5"),
    "q table --p-choice qinv": (
        0, "a1179ae6f5cb86b0edb0f835d66511f9903c73adc186508972be4bc5f308bbba"),
    "q penrose cocycle.json": (
        0, "731194106680cd5652590cfa81334e88a9dad2403d6ad054b05b03da6e64fd51"),
    "inst verify stable.json": (
        0, "d41e0e4ad5eb6f41d4a04e316c016b208f9e7636bf706fa2b443bb9908c905fc"),
    "inst verify raw.json": (
        1, "fd4fd10cf63e01f2547e8ac6959d2858250f92bec2c3379e82952c6abcb8bd3d"),
    "inst curvature stable.json": (
        0, "50137c0d785dd0add399e9961469eb2ce44773244a22aac7f7856aeac8754b0f"),
    "inst slices stable.json --grid-size 4 --dmax 2": (
        0, "2f2247eb295e4ed40cc9059a6ca4a4722ed45aed48aaa0bda278ae1abd94a357"),
    "monad build raw.json": (
        2, "83f9d65f856b73eb2f6a84323f889fcc5e47292ff1d51d013c059c45624b8877"),
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_report_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    code = run(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_report_file_bytes(argv, tmp_path, monkeypatch, capsys):
    # with --output the report goes to the file and stdout stays empty; a
    # refusal still goes to stdout, and no file is written
    monkeypatch.chdir(tmp_path)
    write_inputs()
    code = run([*argv.split(), "--output", "report.json"])
    out = capsys.readouterr().out
    report = tmp_path / "report.json"
    if code == 2:
        assert not report.exists()
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv][1]
    else:
        assert out == ""
        assert hashlib.sha256(report.read_bytes()).hexdigest() \
            == DIGESTS[argv][1]
    assert code == DIGESTS[argv][0]


def test_every_subcommand_is_pinned():
    pinned = {tuple(argv.split()[:2]) for argv in DIGESTS}
    assert pinned == {(group, command) for group in _GROUPS
                      for command in commands(group)}
