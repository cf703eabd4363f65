"""The input contract of every file reader, under a seeded mutation fuzz through ``gvpr.cli.main``.

Each case mutates one small valid input of one subcommand by a bit flip, an insert, a delete, a
truncation or a duplicated span, and runs the subcommand in process. It must exit 0, or exit 1
with exactly one stderr line that starts `error: <path>:`, where the path is the mutated file's
or, for inputs that must agree with it, one listed in the case's ``blame``. The valid run of each
case must call the case's reader. Deterministic cases give one input of a subcommand another
input's header; each must exit 1 in that way. No case may raise past ``main`` (a NumPy
RuntimeWarning raises in tier-1) or allocate more than ``PEAK_BYTES`` at its tracemalloc peak.
A reader that no subcommand reaches is a library case: called on the mutated file, it must
return or raise the ValueError whose message ``main`` would print as that one line.
"""

import contextlib
import importlib
import inspect
import io
import itertools
import pkgutil
import random
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import gvpr
from gvpr import cli, embed, relabel, retrieval, surf3d, synth
from gvpr.cli import main

CASES_PER_READER = 12  # about 20 ms a case under tracemalloc, most of it argparse: 4 s in all
PEAK_BYTES = 1 << 20  # a valid case peaks near 0.2 MB
INSERT_BYTES = b'0123456789,.-+e \n\r"x\x00\xff'

POSE6_ROWS = ["id,r00,r01,r02,r10,r11,r12,r20,r21,r22,t0,t1,t2",
              "c0,1,0,0,0,1,0,0,0,1,0,0,0", "c1,1,0,0,0,1,0,0,0,1,-0.5,0,0"]


def write_inputs(d) -> dict:
    """Tiny valid inputs for every reader the subcommands reach; name -> path."""
    paths = {name: d / name for name in (
        "poses.csv", "labels.csv", "features.bin", "model.bin", "query_features.bin", "map_features.bin",
        "gt.csv", "query_poses.csv", "map_poses.csv", "query_descriptors.bin", "map_descriptors.bin",
        "cloud.xyz", "poses6.csv", "intrinsics.txt")}
    paths["poses.csv"].write_text("id,scene,t0,t1,alpha_deg\na,s,0,0,0\nb,s,3,1,20\nc,s,40,0,180\n")
    paths["labels.csv"].write_text("query_id,map_id,psi\na,b,0.75\n")
    rng = np.random.default_rng(3)
    embed.write_features(paths["features.bin"], [embed.FeatureMap(i, rng.uniform(0.5, 2, (2, 3))) for i in "ab"])
    embed.save_model(paths["model.bin"], embed.init_model(2, 2, seed=1))
    for role, ids in (("query", ["q0", "q1"]), ("map", ["m0", "m1", "m2"])):
        embed.write_features(paths[f"{role}_features.bin"],
                             [embed.FeatureMap(i, rng.uniform(0.5, 2, (2, 3))) for i in ids])
        retrieval.write_descriptors(paths[f"{role}_descriptors.bin"],
                                    retrieval.DescriptorSet(ids, rng.normal(size=(len(ids), 2))))
        rows = [f"{i},v,{k},{k % 2},{10 * k}" for k, i in enumerate(ids)]
        paths[f"{role}_poses.csv"].write_text("\n".join(["id,scene,t0,t1,alpha_deg", *rows]) + "\n")
    paths["gt.csv"].write_text("query_id,map_id\nq0,m0\nq1,m2\n")
    paths["cloud.xyz"].write_text("0 0 1\n0.25 0 1\n\n0.5 0 1\n0.75 0 1\n")
    paths["poses6.csv"].write_text("\n".join(POSE6_ROWS) + "\n")
    paths["intrinsics.txt"].write_text("fx = 2\nfy = 2\ncx = 0.5\ncy = 0.5\nwidth = 1\nheight = 1\n")
    return paths


def command(name, p, out) -> list:
    return {
        "relabel": ["relabel", "--poses", p["poses.csv"], "--out", out, "--arc-segments", "16"],
        "profile": ["profile", "--poses", p["poses.csv"], "--out", out, "--arc-segments", "16"],
        "train": ["train", "--labels", p["labels.csv"], "--features", p["features.bin"], "--out", out,
                  "--d-out", "2"],
        "eval-model": ["eval", "--model", p["model.bin"], "--query-features", p["query_features.bin"],
                       "--map-features", p["map_features.bin"], "--gt", p["gt.csv"], "--ks", "1,2",
                       "--query-poses", p["query_poses.csv"], "--map-poses", p["map_poses.csv"], "--out", out],
        "eval-descriptors": ["eval", "--query-descriptors", p["query_descriptors.bin"], "--map-descriptors",
                             p["map_descriptors.bin"], "--gt", p["gt.csv"], "--ks", "1,2"],
        "overlap3d": ["overlap3d", "--cloud", p["cloud.xyz"], "--poses", p["poses6.csv"],
                      "--intrinsics", p["intrinsics.txt"], "--out", out],
    }[name]


@dataclass(frozen=True)
class Case:
    command: str
    file: str
    reader: object
    blame: tuple = ()  # inputs that must agree with the mutated file, and may be named when they do not


READERS = [
    Case("relabel", "poses.csv", relabel.load_poses),
    Case("profile", "poses.csv", relabel.load_poses),
    Case("train", "labels.csv", relabel.load_labels),
    Case("train", "features.bin", embed.file_pools, ("labels.csv",)),
    Case("eval-model", "model.bin", embed.load_model, ("query_features.bin", "map_features.bin")),
    Case("eval-model", "query_features.bin", embed.file_descriptors, ("gt.csv", "query_poses.csv")),
    Case("eval-model", "map_features.bin", embed.file_descriptors, ("gt.csv", "map_poses.csv")),
    Case("eval-model", "gt.csv", synth.load_ground_truth),
    Case("eval-model", "query_poses.csv", cli._poses_covering),
    Case("eval-model", "map_poses.csv", cli._poses_covering),
    Case("eval-descriptors", "query_descriptors.bin", retrieval.read_descriptors, ("gt.csv",)),
    Case("eval-descriptors", "map_descriptors.bin", retrieval.read_descriptors, ("gt.csv",)),
    Case("overlap3d", "cloud.xyz", surf3d.load_point_cloud),
    Case("overlap3d", "poses6.csv", surf3d.load_poses_6dof),
    Case("overlap3d", "intrinsics.txt", surf3d.load_intrinsics),
]
LIBRARY_READERS = [Case("", "features.bin", embed.read_features)]


def mutate(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one bit flipped, bytes inserted, a span deleted or duplicated, or its tail cut,
    half the time within the first 24 bytes, where the headers and their sizes are."""
    i = rng.randrange(len(data) if rng.random() < 0.5 else min(len(data), 24))
    j = min(len(data), i + rng.randint(1, 8))
    kind = rng.choice(["flip", "insert", "delete", "truncate", "duplicate"])
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]
    if kind == "insert":
        return data[:i] + bytes(rng.choices(INSERT_BYTES, k=j - i)) + data[i:]
    if kind == "delete":
        return data[:i] + data[j:]
    if kind == "truncate":
        return data[:i]
    return data[:j] + data[i:j] + data[j:]


def run(argv) -> tuple:
    """(exit code, stderr, tracemalloc peak) of ``main(argv)``; an exception past main is the code."""
    return traced(lambda: main([str(a) for a in argv]))


def run_library(reader, path) -> tuple:
    """``run``'s triple for ``reader(path)``: exit 0 when it returns, 1 with main's `error:` line for a ValueError."""
    def call():
        try:
            reader(path)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        return 0
    return traced(call)


def traced(call) -> tuple:
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = call()
    except Exception as e:  # any exception that leaves the call breaks the contract
        rc = repr(e)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return rc, err.getvalue(), peak


def readers_called(argv) -> set:
    """The decorated readers whose bodies run in ``main(argv)``, which must succeed."""
    reader_of = {reader.__wrapped__.__code__: reader for reader in wrapped_readers()}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in reader_of:
            called.add(reader_of[frame.f_code])

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0
    finally:
        sys.setprofile(None)
    return called


def wrapped_readers() -> set:
    """Every function in gvpr that carries ``__wrapped__``: the readers ``io.file_reader`` decorates."""
    found = set()
    for info in pkgutil.iter_modules(gvpr.__path__):
        module = importlib.import_module(f"gvpr.{info.name}")
        found.update(f for f in vars(module).values()
                     if inspect.isfunction(f) and hasattr(f, "__wrapped__") and f.__module__ == module.__name__)
    return found


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("inputs"))


def test_every_reader_is_fuzzed(tmp_path, inputs):
    """Every decorated reader has a case, and each subcommand case's valid run calls its reader."""
    assert wrapped_readers() == {case.reader for case in READERS + LIBRARY_READERS}
    for case in READERS:
        assert case.reader in readers_called(command(case.command, inputs, tmp_path / "out")), case


@pytest.mark.parametrize("case", READERS, ids=lambda c: f"{c.command}-{c.file}")
def test_mutated_input_fails_as_one_line(tmp_path, inputs, case):
    out = tmp_path / "out"
    assert run(command(case.command, inputs, out))[:2] == (0, "")
    bad = tmp_path / case.file
    blamed = [bad] + [inputs[name] for name in case.blame]
    failures = []
    for seed in range(CASES_PER_READER):
        bad.write_bytes(mutate(inputs[case.file].read_bytes(), random.Random(f"{case.command}/{case.file}/{seed}")))
        rc, err, peak = run(command(case.command, {**inputs, case.file: bad}, out))
        ok = rc == 0 or (rc == 1 and err.count("\n") == 1 and err.endswith("\n")
                         and any(err.startswith(f"error: {path}:") for path in blamed))
        if not ok or peak > PEAK_BYTES:
            failures.append((seed, rc, err, peak))
    assert failures == []


@pytest.mark.parametrize("case", LIBRARY_READERS, ids=lambda c: c.reader.__name__)
def test_mutated_input_fails_a_library_reader_as_one_line(tmp_path, inputs, case):
    assert run_library(case.reader, inputs[case.file])[:2] == (0, "")
    bad = tmp_path / case.file
    failures = []
    for seed in range(CASES_PER_READER):
        bad.write_bytes(mutate(inputs[case.file].read_bytes(), random.Random(f"{case.reader.__name__}/{seed}")))
        rc, err, peak = run_library(case.reader, bad)
        ok = rc == 0 or (rc == 1 and err.count("\n") == 1 and err.endswith("\n") and err.startswith(f"error: {bad}:"))
        if not ok or peak > PEAK_BYTES:
            failures.append((seed, rc, err, peak))
    assert failures == []


def header(path) -> bytes:
    """A file's header: a text file's first line (a CSV's header line), a binary file's magic and header."""
    data = path.read_bytes()
    return data[:20] if path.suffix == ".bin" else data[:data.index(b"\n") + 1]


@pytest.mark.parametrize("name", ["train", "eval-model", "eval-descriptors", "overlap3d"])
def test_swapped_header_fails_as_one_line(tmp_path, inputs, name):
    """For each ordered pair of the subcommand's inputs, the first with the second's header in place of its own."""
    out = tmp_path / "out"
    files = [f for f, path in inputs.items() if path in command(name, inputs, out)]
    blame = {case.file: case.blame for case in READERS if case.command == name}
    swaps, failures = 0, []
    for first, second in itertools.permutations(files, 2):
        own, head = header(inputs[first]), header(inputs[second])
        if head == own:  # query and map poses share one header: no change to test
            continue
        bad = tmp_path / first
        bad.write_bytes(head + inputs[first].read_bytes()[len(own):])
        rc, err, peak = run(command(name, {**inputs, first: bad}, out))
        blamed = [bad] + [inputs[n] for n in blame.get(first, ())]
        ok = (rc == 1 and err.count("\n") == 1 and err.endswith("\n")
              and any(err.startswith(f"error: {path}:") for path in blamed))
        if not ok or peak > PEAK_BYTES:
            failures.append((first, second, rc, err, peak))
        swaps += 1
    assert failures == [] and swaps >= len(files)
