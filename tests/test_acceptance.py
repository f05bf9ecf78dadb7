"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
bench table.  The synthetic bench (criteria 7 and 8) runs the real CLI in a
subprocess at worker counts 0, 1, 2 and 4.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mrdikit.algebra import (
    GF,
    QQ,
    ZZ,
    ExactMatrix,
    Polynomial,
    polynomial_ring,
    univariate_ring,
)
from mrdikit.ipc import framing, spawn_pool
from mrdikit.mrdi import (
    DeserializerState,
    GlobalSerializerState,
    Mode,
    SerializerState,
    load,
    parse_text,
    save,
    serialize_text,
)
from mrdikit.workloads import components_of_kernel, modular_determinant

from test_framing import random_message
from test_pool import assert_each_call_carries_what_its_worker_lacks
from test_kernel import (
    check_against_oracle,
    oracle_kernel_blocks,
    poly_to_vector,
    random_monomial_map,
    spans_match,
    segre_2x2,
    twisted_conic,
    with_constant_images,
)
from test_linalg import cofactor_det, random_zz_t_matrix
from test_serialize import random_value

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number, text):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {text}")


def test_criterion_1_roundtrip_suite():
    with criterion(1, "500 randomized values round-trip with parent identity, under 30 s"):
        rng = random.Random(0xACCE551)
        writer = GlobalSerializerState()
        reader = GlobalSerializerState()
        start = time.perf_counter()
        for i in range(500):
            value = random_value(rng)
            doc = save(value, SerializerState(Mode.LONG_TERM, writer))
            got = load(
                parse_text(serialize_text(doc)), DeserializerState(Mode.LONG_TERM, reader)
            )
            assert got == value, f"round-trip mismatch at case {i}"
            if isinstance(value, (Polynomial, ExactMatrix)):
                assert got.parent is load(
                    parse_text(serialize_text(doc)),
                    DeserializerState(Mode.LONG_TERM, reader),
                ).parent
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"round-trip suite took {elapsed:.1f}s"


def test_criterion_2_golden_file():
    with criterion(2, "canonical bytes for the bivariate example match the committed file"):
        gs = GlobalSerializerState(uuid_seed=20240820)
        R, (x, y) = polynomial_ring(QQ, "x", "y")
        p = x**3 - x * y + Polynomial.constant(R, 1)
        doc = save(p, SerializerState(Mode.LONG_TERM, gs))
        raw = serialize_text(doc)
        assert raw == (GOLDEN / "fig1_poly.mrdi").read_bytes()
        again = serialize_text(save(p, SerializerState(Mode.LONG_TERM, gs)))
        assert again == raw


def test_criterion_3_encoding_equivalence():
    with criterion(3, "sparse and dense encodings of 200 univariate polynomials decode equal"):
        rng = random.Random(0xE9C0DE)
        rings = [univariate_ring(ZZ, "t")[0], univariate_ring(QQ, "q")[0], univariate_ring(GF(65537), "s")[0]]
        gs = GlobalSerializerState()
        for i in range(200):
            ring = rings[i % len(rings)]
            terms = []
            for _ in range(rng.randrange(8)):
                degree = rng.randrange(10)
                if ring.base == QQ:
                    coeff = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                elif ring.base == ZZ:
                    coeff = rng.randint(-(10**12), 10**12)
                else:
                    coeff = rng.randrange(65537)
                terms.append(((degree,), coeff))
            p = Polynomial.from_terms(ring, terms)
            gs.register_context(p.parent)
            sparse_doc = save(p, SerializerState(Mode.LONG_TERM, gs))
            dense_doc = save(p, SerializerState(Mode.IPC, gs))
            a = load(sparse_doc, DeserializerState(Mode.LONG_TERM, gs))
            b = load(dense_doc, DeserializerState(Mode.IPC, gs))
            assert a == b == p


def test_criterion_4_context_protocol():
    with criterion(4, "exactly-once, complete context delivery on a 3-worker pool"):
        events = []
        Rt, t = univariate_ring(ZZ, "t")
        Ru, u = univariate_ring(Rt, "u")
        polys = [u.scale(t) ** 2 + u**k for k in range(12)]
        with spawn_pool(3, tap=events.append) as pool:
            results = pool.parallel_map("poly_square", [(p,) for p in polys])
            assert results == [p * p for p in polys]
            inner_uuid = pool.global_state.uuid_for(Rt)
            outer_uuid = pool.global_state.uuid_for(Ru)

        # the contexts each Call carried in its arguments' `_refs`
        loads = [
            (worker_id, uuid)
            for direction, worker_id, msg in events
            if direction == "send" and isinstance(msg, framing.Call)
            for uuid in msg.args.get("_refs", ())
        ]
        assert len(loads) == len(set(loads)), "a context was delivered twice"
        per_worker = {w for w, _ in loads}
        assert per_worker == {0, 1, 2}
        for worker_id in per_worker:
            delivered = {uid for w, uid in loads if w == worker_id}
            assert delivered == {inner_uuid, outer_uuid}, "a worker lacks a context"
        assert_each_call_carries_what_its_worker_lacks(events)


def test_criterion_5_determinant_oracle():
    with criterion(5, "50 random matrices match the cofactor-expansion oracle, under 60 s"):
        rng = random.Random(0xDE70)
        start = time.perf_counter()
        for i in range(50):
            n = rng.randrange(1, 7)
            m = random_zz_t_matrix(rng, n, max_deg=4, coeff_range=10**6)
            assert modular_determinant(m) == cofactor_det(m), f"mismatch at case {i} (n={n})"
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_6_kernel_oracle():
    with criterion(6, "named kernels are exact; 20 random maps match the brute-force oracle"):
        phi, (x, y, z) = twisted_conic()
        assert components_of_kernel(phi, 2) == {(2, 2): [x * z - y * y]}
        seg, (x11, x12, x21, x22) = segre_2x2()
        assert components_of_kernel(seg, 2) == {(1, 1, 1, 1): [x11 * x22 - x12 * x21]}
        rng = random.Random(0x6E6B)
        for i in range(20):
            phi = random_monomial_map(rng)
            max_degree = rng.randrange(2, 5)
            got = components_of_kernel(phi, max_degree, minimalize=False)
            blocks = oracle_kernel_blocks(phi, max_degree)
            assert set(got) == set(blocks), f"component keys differ at case {i}"
            for md, gens in got.items():
                monos, oracle_basis = blocks[md]
                vectors = [poly_to_vector(g, monos) for g in gens]
                assert spans_match(vectors, oracle_basis, len(monos)), f"span mismatch at {md}"
        # maps that send some variables to constants
        for i in range(4):
            check_against_oracle(with_constant_images(rng, random_monomial_map(rng)), 3)


# -- bench-driven criteria (7 and 8) ---------------------------------------------


def run_bench(suite, workers, out_dir):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "mrdikit",
            "bench",
            "--suite",
            suite,
            "--workers",
            workers,
            "--json",
            "--out-dir",
            str(out_dir),
        ],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory):
    detcrt_dir = tmp_path_factory.mktemp("bench-detcrt")
    kernel_dir = tmp_path_factory.mktemp("bench-kernel")
    detcrt = run_bench("detcrt-synthetic", "0,1,2,4", detcrt_dir)
    kernel = run_bench("kernel-synthetic", "0,1,2,4", kernel_dir)
    return detcrt, kernel, detcrt_dir, kernel_dir


def test_criterion_7_pool_invariance(bench_results):
    with criterion(7, "byte-identical outputs at worker counts 0, 1, 2, 4 for both workloads"):
        detcrt, kernel, detcrt_dir, kernel_dir = bench_results
        for rows, out_dir, name in (
            (detcrt, detcrt_dir, "detcrt"),
            (kernel, kernel_dir, "kernel"),
        ):
            assert [r["workers"] for r in rows] == [0, 1, 2, 4]
            digests = {r["result_digest"] for r in rows}
            assert len(digests) == 1, f"{name} digests differ across worker counts"
            blobs = {Path(r["result_path"]).read_bytes() for r in rows}
            assert len(blobs) == 1, f"{name} output files differ byte-wise"


def test_criterion_8_scaled_speedup(bench_results):
    detcrt, _, _, _ = bench_results
    table = {r["workers"]: r["seconds"] for r in detcrt}
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    timings = ", ".join(f"{table[w]:.3f}s at {w}" for w in (0, 1, 2, 4))
    print(f"\nbench detcrt-synthetic (16x16, degree 12) on {cores} usable core(s): {timings}")
    if cores < 2:
        pytest.skip(f"a speedup needs 2 usable cores, this process has {cores}: {timings} workers")
    with criterion(8, "4 workers beat 1 worker on the 16x16 degree-12 synthetic instance"):
        assert table[4] < table[1], f"no speedup: {table[4]:.2f}s at 4 vs {table[1]:.2f}s at 1"


def test_criterion_9_wire_fuzz():
    with criterion(9, "10,000 fuzzed protocol messages survive frame round-trips"):
        rng = random.Random(0xF42A)
        total = 0
        while total < 10_000:
            batch = [random_message(rng) for _ in range(rng.randrange(1, 10))]
            total += len(batch)
            buf = io.BytesIO(b"".join(framing.frame_bytes(m) for m in batch))
            got = []
            while (msg := framing.read_message(buf)) is not None:
                got.append(msg)
            assert got == batch
