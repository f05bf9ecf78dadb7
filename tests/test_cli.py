import errno
import json
import os
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from mrdikit import cli
from mrdikit.algebra import QQ, ZZ, ExactMatrix, Polynomial, polynomial_ring, univariate_ring
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
from mrdikit.workloads import MonomialMap


def write_value(path, value, seed=11):
    state = SerializerState(Mode.LONG_TERM, GlobalSerializerState(uuid_seed=seed))
    raw = serialize_text(save(value, state))
    path.write_bytes(raw)
    return raw


@pytest.fixture
def toy_matrix_file(tmp_path):
    Rt, t = univariate_ring(ZZ, "t")
    one = Polynomial.constant(Rt, 1)
    m = ExactMatrix.from_rows(Rt, [[t, one], [one, t]])
    path = tmp_path / "m.mrdi"
    write_value(path, m)
    return path


@pytest.fixture
def conic_map_file(tmp_path):
    S, _ = polynomial_ring(QQ, "x", "y", "z")
    T, (s, t) = polynomial_ring(QQ, "s", "t")
    phi = MonomialMap(S, T, (s * s, s * t, t * t))
    path = tmp_path / "phi.mrdi"
    write_value(path, phi)
    return path


# -- roundtrip ------------------------------------------------------------------


def test_roundtrip_canonical_file(toy_matrix_file, capsys):
    assert cli.main(["roundtrip", str(toy_matrix_file)]) == 0
    assert "canonical round-trip" in capsys.readouterr().out


def test_roundtrip_reordered_keys_fails(toy_matrix_file, tmp_path, capsys):
    obj = json.loads(toy_matrix_file.read_bytes())
    reordered = {"data": obj["data"], "_type": obj["_type"], "_refs": obj["_refs"], "_ns": obj["_ns"]}
    twisted = tmp_path / "twisted.mrdi"
    twisted.write_text(json.dumps(reordered, indent=2) + "\n")
    assert cli.main(["roundtrip", str(twisted)]) == 1
    assert "NOT byte-identical" in capsys.readouterr().out


def test_roundtrip_quotes_long_lines_by_their_head(toy_matrix_file, tmp_path, capsys):
    obj = json.loads(toy_matrix_file.read_bytes())
    (ref,) = obj["_refs"].values()
    ref["data"]["symbol"] = "s" * 6000
    compact = tmp_path / "compact.mrdi"
    compact.write_text(json.dumps(obj))
    assert cli.main(["roundtrip", str(compact)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("  line 1: '{\"_ns\": {") and "characters)" in lines[1]
    assert max(map(len, lines)) < 300


def test_roundtrip_missing_file(tmp_path):
    assert cli.main(["roundtrip", str(tmp_path / "nope.mrdi")]) == 2


# -- validate -------------------------------------------------------------------


def test_validate_ok(toy_matrix_file, capsys):
    assert cli.main(["validate", str(toy_matrix_file)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_dangling_uuid(tmp_path, capsys):
    raw = {
        "_ns": {"system": "mrdikit", "version": "0.1.0"},
        "_type": {"name": "PolyRingElem", "params": "12345678-1234-4123-8123-123456789abc"},
        "_refs": {},
        "data": [],
    }
    path = tmp_path / "dangling.mrdi"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert "dangling reference" in out[0]


def test_validate_accumulates_errors(tmp_path, capsys):
    raw = {
        "_type": {"name": "Frobnicator", "params": "12345678-1234-4123-8123-123456789abc"},
        "_refs": {},
        "data": [],
    }
    path = tmp_path / "bad.mrdi"
    path.write_text(json.dumps(raw))
    assert cli.main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 3  # unknown tag, mode violation, dangling reference


def test_validate_native_number(tmp_path, capsys):
    path = tmp_path / "native.mrdi"
    path.write_text('{"_type": "ZZRingElem", "data": 5}')
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "data: non-text scalar 5 (numbers must be stored as text)\n"


@pytest.mark.parametrize(
    "body",
    [
        b'{"_type": "ZZRingElem", "data": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        b'{"_type": ' + b'{"name": "Vector", "params": ' * 600 + b'"ZZRingElem"'
        + b"}" * 600 + b', "data": "7"}',
    ],
    ids=["json-5000", "vector-type-600"],
)
def test_deep_nesting_exits_cleanly(tmp_path, capsys, body):
    path = tmp_path / "deep.mrdi"
    path.write_bytes(body)
    assert cli.main(["validate", str(path)]) == 1
    assert "nested deeper" in capsys.readouterr().out
    assert cli.main(["roundtrip", str(path)]) == 2
    assert "nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize("nrows", ["7" * 5000, "-" + "7" * 5000], ids=["positive", "negative"])
def test_a_dimension_past_the_digit_limit_is_bad_input(tmp_path, capsys, nrows):
    # str() of an integer past 4300 digits raises ValueError, so an error
    # text must not convert the dimension back.
    doc = json.loads((Path(__file__).parent / "golden" / "matrix_zzt.mrdi").read_bytes())
    doc["data"]["nrows"] = nrows
    path = tmp_path / "long.mrdi"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    out = str(tmp_path / "det.mrdi")
    for argv in (["roundtrip", str(path)], ["detcrt", "--matrix", str(path), "--out", out]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data") and err.count("\n") == 1, err
        assert len(err) < 300


@pytest.mark.parametrize("nrows", ["7" * 5000, "-" + "7" * 5000], ids=["positive", "negative"])
def test_validate_loads_the_document(tmp_path, capsys, nrows):
    # The invariants hold for such a document; only loading it fails.
    doc = json.loads((Path(__file__).parent / "golden" / "matrix_zzt.mrdi").read_bytes())
    doc["data"]["nrows"] = nrows
    path = tmp_path / "long.mrdi"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert cli.main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("data") and out.count("\n") == 1, out
    assert len(out) < 300


def ring_chain_file(tmp_path, depth, top_first):
    """A long-term file holding the zero polynomial of the top ring of a chain
    of ``depth`` rings through ``_refs``, each one the next one's base and ZZ
    the first one's.  The UUIDs sort from the bottom ring up, or with
    ``top_first`` from the top ring down.  Returns the path and the UUIDs,
    bottom ring first."""
    uuids = [f"{k:08x}-0000-4000-8000-000000000000" for k in range(depth)]
    if top_first:
        uuids.reverse()
    refs, base = {}, "ZZRing"
    for k, uuid in enumerate(uuids):
        refs[uuid] = {"_type": "PolyRing", "data": {"base_ring": base, "symbol": f"t{k}"}}
        base = uuid
    doc = {
        "_ns": {"system": "mrdikit", "version": "0.1.0"},
        "_type": {"name": "PolyRingElem", "params": uuids[-1]},
        "_refs": refs,
        "data": [],
    }
    path = tmp_path / f"chain{depth}.mrdi"
    path.write_bytes(serialize_text(doc))
    return path, uuids


@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
def test_a_chain_of_100_rings_round_trips(tmp_path, capsys, top_first):
    path, _ = ring_chain_file(tmp_path, 100, top_first)
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["roundtrip", str(path)]) == 0
    assert "canonical round-trip" in capsys.readouterr().out


@pytest.mark.parametrize("top_first", [False, True], ids=["bottom-first", "top-first"])
@pytest.mark.parametrize("depth", [101, 500, 2000])
def test_a_longer_chain_of_rings_is_one_error_line(tmp_path, capsys, depth, top_first):
    path, uuids = ring_chain_file(tmp_path, depth, top_first)
    # Loading reads the top ring first: the 101st ring down is refused.
    error = f"_refs/{uuids[depth - 101]}: refs chained deeper than 100 levels"
    assert cli.main(["roundtrip", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr() == (f"{error}\n", "")


def golden_doc(name):
    return json.loads((Path(__file__).parent / "golden" / f"{name}.mrdi").read_bytes())


def assert_one_load_error(tmp_path, capsys, doc, error):
    path = tmp_path / "edited.mrdi"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert cli.main(["validate", str(path)]) == 1
    assert capsys.readouterr() == (f"{error}\n", "")
    assert cli.main(["roundtrip", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("name", ["conic_map", "fig1_poly"])
def test_an_mpoly_ring_ref_with_its_symbols_under_symbol_is_refused(tmp_path, capsys, name):
    # Such a ref used to load as the MPolyRing and re-save under "symbols".
    for uuid in golden_doc(name)["_refs"]:
        doc = golden_doc(name)
        fields = doc["_refs"][uuid]["data"]
        fields["symbol"] = symbols = fields.pop("symbols")
        error = f"_refs/{uuid}: symbol must be text, got {symbols!r}"
        assert_one_load_error(tmp_path, capsys, doc, error)


def test_a_poly_ring_ref_with_its_symbol_under_symbols_is_refused(tmp_path, capsys):
    doc = golden_doc("matrix_zzt")
    [(uuid, ref)] = doc["_refs"].items()
    ref["data"]["symbols"] = [ref["data"].pop("symbol")]
    error = (
        f"_refs/{uuid}: the ref document of "
        "MultivariatePolyRing(base=IntegerRing(), symbols=('t',)) has the wrong type"
    )
    assert_one_load_error(tmp_path, capsys, doc, error)


# -- detcrt ----------------------------------------------------------------------


def load_file_value(path):
    return load(
        parse_text(path.read_bytes()),
        DeserializerState(Mode.LONG_TERM, GlobalSerializerState()),
    )


def test_detcrt_serial(toy_matrix_file, tmp_path, capsys):
    out = tmp_path / "det.mrdi"
    assert cli.main(["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "detcrt" in report and "workers=0" in report
    det = load_file_value(out)
    Rt, t = univariate_ring(ZZ, "t")
    assert det == t * t - Polynomial.constant(Rt, 1)


def test_detcrt_pool_output_matches_serial_bytes(toy_matrix_file, tmp_path):
    out0 = tmp_path / "det0.mrdi"
    out2 = tmp_path / "det2.mrdi"
    assert cli.main(["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out0)]) == 0
    assert (
        cli.main(
            ["detcrt", "--matrix", str(toy_matrix_file), "--workers", "2", "--out", str(out2)]
        )
        == 0
    )
    assert out0.read_bytes() == out2.read_bytes()


def test_detcrt_rejects_nonsquare(tmp_path):
    Rt, t = univariate_ring(ZZ, "t")
    m = ExactMatrix.from_rows(Rt, [[t, t]])
    path = tmp_path / "wide.mrdi"
    write_value(path, m)
    assert cli.main(["detcrt", "--matrix", str(path), "--out", str(tmp_path / "o.mrdi")]) == 2


def test_detcrt_rejects_non_matrix(conic_map_file, tmp_path):
    out = tmp_path / "o.mrdi"
    assert cli.main(["detcrt", "--matrix", str(conic_map_file), "--out", str(out)]) == 2


def test_detcrt_worker_failure_exit_code(toy_matrix_file, tmp_path, monkeypatch):
    from mrdikit.errors import TransportError

    def broken_spawn(n, **kwargs):
        raise TransportError("no workers today")

    monkeypatch.setattr(cli, "spawn_pool", broken_spawn)
    out = tmp_path / "det.mrdi"
    assert (
        cli.main(
            ["detcrt", "--matrix", str(toy_matrix_file), "--workers", "2", "--out", str(out)]
        )
        == 3
    )


def test_detcrt_exits_3_when_the_worker_start_up_process_never_answers(
    toy_matrix_file, tmp_path, monkeypatch, capsys
):
    from mrdikit.ipc import zygote

    mute = tmp_path / "mute-zygote"
    mute.write_text("#!/bin/sh\nexec cat > /dev/null\n")
    mute.chmod(0o755)
    monkeypatch.setattr(zygote, "_zygote", None)
    monkeypatch.setattr(sys, "executable", str(mute))
    monkeypatch.setattr(zygote, "_REPLY_TIMEOUT_SECONDS", 0.5)
    out = tmp_path / "det.mrdi"
    argv = ["detcrt", "--matrix", str(toy_matrix_file), "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 3
    assert "no answer within 0.5 s" in capsys.readouterr().err
    assert zygote._zygote is None and not out.exists()


def test_pool_workers_answer_before_the_clock_starts(toy_matrix_file, tmp_path, monkeypatch):
    from mrdikit.ipc.framing import Call, Result

    events = []
    real_spawn, real_timed = cli.spawn_pool, cli._timed
    monkeypatch.setattr(cli, "spawn_pool", lambda n, **kw: real_spawn(n, tap=events.append, **kw))
    started = []
    monkeypatch.setattr(
        cli, "_timed", lambda fn, *a, **kw: started.append(list(events)) or real_timed(fn, *a, **kw)
    )
    out = tmp_path / "det.mrdi"
    argv = ["detcrt", "--matrix", str(toy_matrix_file), "--workers", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    (before,) = started
    sent = [(w, m.fn) for d, w, m in before if d == "send" and isinstance(m, Call)]
    answered = [w for d, w, m in before if d == "recv" and isinstance(m, Result)]
    assert sorted(sent) == [(0, "identity"), (1, "identity"), (2, "identity")]
    assert sorted(answered) == [0, 1, 2]


def test_detcrt_json_report(toy_matrix_file, tmp_path, capsys):
    out = tmp_path / "det.mrdi"
    assert (
        cli.main(["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out), "--json"]) == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["workload"] == "detcrt"
    assert report["workers"] == 0
    assert report["startup_s"] == 0
    assert report["result_path"] == str(out)


def test_detcrt_json_report_times_pool_start_up_apart(toy_matrix_file, tmp_path, capsys):
    out = tmp_path / "det.mrdi"
    argv = ["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out), "--workers", "2"]
    assert cli.main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["workers"] == 2
    assert report["startup_s"] > 0


# -- kernel -----------------------------------------------------------------------


def test_kernel_conic(conic_map_file, tmp_path, capsys):
    out = tmp_path / "k.mrdi"
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "2", "--out", str(out)])
        == 0
    )
    assert "kernel" in capsys.readouterr().out
    value = load_file_value(out)
    S, (x, y, z) = polynomial_ring(QQ, "x", "y", "z")
    assert value == [([2, 2], [x * z - y * y])]


def test_kernel_degree_one_empty(conic_map_file, tmp_path):
    out = tmp_path / "k1.mrdi"
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "1", "--out", str(out)])
        == 0
    )
    assert load_file_value(out) == []


def test_kernel_rejects_bad_degree(conic_map_file, tmp_path):
    out = tmp_path / "k.mrdi"
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "0", "--out", str(out)])
        == 2
    )


def test_kernel_rejects_matrix_input(toy_matrix_file, tmp_path):
    out = tmp_path / "k.mrdi"
    assert (
        cli.main(["kernel", "--map", str(toy_matrix_file), "--degree", "2", "--out", str(out)])
        == 2
    )


def test_kernel_rejects_two_term_image(conic_map_file, tmp_path, capsys):
    obj = json.loads(conic_map_file.read_bytes())
    obj["data"]["images"][1].append([["0", "0"], "1"])  # y -> s*t + 1
    path = tmp_path / "two_terms.mrdi"
    path.write_text(json.dumps(obj, indent=2))
    out = tmp_path / "k.mrdi"
    assert cli.main(["kernel", "--map", str(path), "--degree", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: data: images must be single nonzero terms\n"


def test_kernel_constant_image(tmp_path):
    S, (x, y, z) = polynomial_ring(QQ, "x", "y", "z")
    T, (s, t) = polynomial_ring(QQ, "s", "t")
    two_thirds = Polynomial.constant(T, Fraction(-2, 3))
    path = tmp_path / "phi.mrdi"
    write_value(path, MonomialMap(S, T, (s * s, two_thirds, t * t)))
    for extra in ([], ["--no-minimalize"]):
        out = tmp_path / "k.mrdi"
        argv = ["kernel", "--map", str(path), "--degree", "2", "--out", str(out), *extra]
        assert cli.main(argv) == 0
        assert cli.main(["validate", str(out)]) == 0
        state = DeserializerState(Mode.LONG_TERM, GlobalSerializerState())
        value = load(parse_text(out.read_bytes()), state)
        assert value == [([0, 0], [y.scale(3) + Polynomial.constant(S, 2)])]


def assert_cannot_write(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_detcrt_unwritable_output_is_bad_input(toy_matrix_file, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "d.mrdi"
    assert cli.main(["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out)]) == 2
    assert_cannot_write(capsys, out)


@pytest.fixture
def no_spawn(monkeypatch):
    from mrdikit.errors import TransportError

    def broken_spawn(n, **kwargs):
        raise TransportError("no workers today")

    monkeypatch.setattr(cli, "spawn_pool", broken_spawn)


@pytest.mark.parametrize("kind", ["map", "nonsquare"])
def test_detcrt_checks_its_input_before_any_pool_starts(
    conic_map_file, tmp_path, capsys, no_spawn, kind
):
    path = conic_map_file
    if kind == "nonsquare":
        Rt, t = univariate_ring(ZZ, "t")
        path = tmp_path / "wide.mrdi"
        write_value(path, ExactMatrix.from_rows(Rt, [[t, t]]))
    out = tmp_path / "o.mrdi"
    argv = ["detcrt", "--matrix", str(path), "--workers", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detcrt", "--matrix", "m.mrdi", "--out", "d.mrdi", "--heuristic"],
        ["kernel", "--map", "phi.mrdi", "--degree", "2", "--out", "k.mrdi", "--workers", "2"],
    ],
    ids=["detcrt-heuristic", "kernel-workers"],
)
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_kernel_synthetic_spawns_no_workers(tmp_path, capsys, no_spawn):
    argv = ["bench", "--suite", "kernel-synthetic", "--workers", "0,2", "--json"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["workers"] for r in rows] == [0, 2]
    assert [r["startup_s"] for r in rows] == [0, 0]
    assert len({Path(r["result_path"]).read_bytes() for r in rows}) == 1


def test_kernel_unwritable_output_is_bad_input(conic_map_file, tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "k.mrdi"
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "2", "--out", str(out)])
        == 2
    )
    assert_cannot_write(capsys, out)


def test_bench_unwritable_out_dir_is_bad_input(tmp_path, capsys):
    out_dir = tmp_path / "a-file"
    out_dir.write_bytes(b"")
    assert (
        cli.main(["bench", "--suite", "kernel-synthetic", "--out-dir", str(out_dir)]) == 2
    )
    assert_cannot_write(capsys, out_dir)


def test_failed_output_write_leaves_old_file_and_no_temporary(
    conic_map_file, tmp_path, monkeypatch
):
    out = tmp_path / "k.mrdi"
    out.write_bytes(b"previous result")
    real_fdopen = os.fdopen
    seen = []

    class HalfWrite:
        """Writes half of the bytes, then fails as a full disk would."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            seen.extend(p.name for p in tmp_path.iterdir())
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: HalfWrite(real_fdopen(fd, mode)))
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "2", "--out", str(out)])
        == 2
    )
    assert any(name.startswith(".k.mrdi.") for name in seen)  # the write was underway
    assert out.read_bytes() == b"previous result"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.mrdi", "phi.mrdi"]


def kernel_out(conic_map_file, out):
    assert (
        cli.main(["kernel", "--map", str(conic_map_file), "--degree", "2", "--out", str(out)])
        == 0
    )


@pytest.mark.parametrize("existing", [True, False])
def test_output_through_symlink_writes_its_target(conic_map_file, tmp_path, existing):
    real = tmp_path / "real.mrdi"
    if existing:
        real.write_bytes(b"previous result")
    link = tmp_path / "link.mrdi"
    link.symlink_to(real)
    kernel_out(conic_map_file, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert load_file_value(real) == load_file_value(link) != []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.mrdi", "phi.mrdi", "real.mrdi"]


def test_output_into_fifo_writes_through_it(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        cli._write_atomic(fifo, b"result bytes")
        assert os.read(reader, 100) == b"result bytes"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_output_keeps_mode_and_hard_links(conic_map_file, tmp_path):
    out = tmp_path / "k.mrdi"
    out.write_bytes(b"previous result")
    out.chmod(0o640)
    kernel_out(conic_map_file, out)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    other = tmp_path / "other-name.mrdi"
    os.link(out, other)
    out.write_bytes(b"previous result")
    kernel_out(conic_map_file, out)
    assert os.path.samefile(out, other) and other.read_bytes() == out.read_bytes()


# -- bench ------------------------------------------------------------------------


def test_bench_kernel_synthetic_single_row(tmp_path, capsys):
    assert (
        cli.main(
            [
                "bench",
                "--suite",
                "kernel-synthetic",
                "--workers",
                "0",
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "kernel-synthetic" in out
    assert out.count("workers=") == 1


def test_bench_without_out_dir_keeps_its_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert cli.main(["bench", "--suite", "kernel-synthetic", "--workers", "0,1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    (out_dir,) = tmp_path.glob("mrdikit-bench-*")
    paths = [Path(r["result_path"]) for r in rows]
    assert [p.parent for p in paths] == [out_dir, out_dir]
    assert all(p.is_file() for p in paths)
    assert (out_dir / "kernel-instance.mrdi").is_file()


def test_bench_into_a_closed_stdout_is_one_error_line(tmp_path):
    # As ``mrdikit bench ... | head -1`` when head has already exited.
    argv = ["bench", "--suite", "kernel-synthetic", "--workers", "0", "--out-dir", str(tmp_path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mrdikit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["error: cannot write standard output: [Errno 32] Broken pipe"]


def test_worker_truncated_frame_is_one_failure_line():
    # A frame header announcing 5 payload bytes, then only 4 of them.
    proc = subprocess.run(
        [sys.executable, "-m", "mrdikit", "--worker"],
        input=b'\x00\x00\x00\x05\x02{"id',
        capture_output=True,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert err.splitlines() == ["worker failure: truncated frame: wanted 5 bytes, got 4"]


@pytest.mark.parametrize("command", ["worker", "detcrt"])
def test_an_init_module_that_cannot_be_imported_is_a_worker_failure(
    toy_matrix_file, tmp_path, command
):
    # ``mrdikit --worker`` reports it itself; under detcrt each forked worker
    # writes the line and the coordinator then finds its workers gone.
    argv = {
        "worker": ["--worker"],
        "detcrt": ["detcrt", "--matrix", str(toy_matrix_file), "--workers", "2",
                   "--out", str(tmp_path / "det.mrdi")],
    }[command]
    proc = subprocess.run(
        [sys.executable, "-m", "mrdikit", *argv],
        env=dict(os.environ, MRDI_WORKER_INIT="no_such_init_module"),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert "Traceback" not in err and "'no_such_init_module'" in err
    assert all(line.startswith("worker failure: ") for line in err.splitlines()), err


def test_an_init_module_that_raises_keeps_its_traceback(tmp_path):
    (tmp_path / "raising_init.py").write_text("raise RuntimeError('init broke')\n")
    path = os.pathsep.join(filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mrdikit", "--worker"],
        env=dict(os.environ, MRDI_WORKER_INIT="raising_init", PYTHONPATH=path),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 1 and "Traceback" in err and "RuntimeError: init broke" in err


def test_bench_unknown_suite_rejected(tmp_path):
    with pytest.raises(SystemExit) as info:
        cli.main(["bench", "--suite", "nope", "--out-dir", str(tmp_path)])
    assert info.value.code == 2


def test_bench_bad_worker_list(tmp_path):
    assert (
        cli.main(
            ["bench", "--suite", "kernel-synthetic", "--workers", "a,b", "--out-dir", str(tmp_path)]
        )
        == 2
    )


def test_bench_kernel_synthetic_digests_agree(tmp_path, capsys):
    assert (
        cli.main(
            [
                "bench",
                "--suite",
                "kernel-synthetic",
                "--workers",
                "0,2",
                "--json",
                "--out-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert [r["workers"] for r in rows] == [0, 2]
    assert len({r["result_digest"] for r in rows}) == 1


@pytest.mark.parametrize(
    "suite, command",
    [
        ("detcrt-synthetic", ["detcrt", "--workers", "0", "--matrix"]),
        ("kernel-synthetic", ["kernel", "--degree", "4", "--map"]),
    ],
)
def test_bench_writes_what_its_command_writes_on_the_instance(tmp_path, capsys, suite, command):
    argv = ["bench", "--suite", suite, "--workers", "0", "--json", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    bench = json.loads(capsys.readouterr().out)
    (instance,) = tmp_path.glob("*-instance.mrdi")
    out = tmp_path / "alone.mrdi"
    assert cli.main(command + [str(instance), "--out", str(out), "--json"]) == 0
    alone = json.loads(capsys.readouterr().out)
    assert out.read_bytes() == Path(bench["result_path"]).read_bytes()
    assert (alone["input_digest"], alone["result_digest"]) == (
        bench["input_digest"],
        bench["result_digest"],
    )


@pytest.mark.parametrize("as_json", [False, True])
def test_bench_digests_that_differ_exit_1(tmp_path, capsys, monkeypatch, as_json):
    real = cli.components_of_kernel
    runs = []

    def drop_a_generator_on_the_second_count(*args, **kwargs):
        components = real(*args, **kwargs)
        runs.append(1)
        if len(runs) == 2:  # every multidegree here has one generator
            del components[next(iter(components))]
        return components

    monkeypatch.setattr(cli, "components_of_kernel", drop_a_generator_on_the_second_count)
    argv = ["bench", "--suite", "kernel-synthetic", "--workers", "0,2", "--out-dir", str(tmp_path)]
    assert cli.main(argv + ["--json"] * as_json) == 1
    out, err = capsys.readouterr()
    if as_json:
        rows = json.loads(out)
        assert len({r["result_digest"] for r in rows}) == 2
        assert "result digests DIFFER" in err
    else:
        assert "result digests DIFFER across worker counts" in out
