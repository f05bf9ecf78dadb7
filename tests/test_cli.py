import errno
import json
import os
import stat
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
    assert "native value" in capsys.readouterr().out


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


def test_detcrt_heuristic_matches_provable(toy_matrix_file, tmp_path):
    out_a = tmp_path / "a.mrdi"
    out_b = tmp_path / "b.mrdi"
    assert cli.main(["detcrt", "--matrix", str(toy_matrix_file), "--out", str(out_a)]) == 0
    assert (
        cli.main(
            ["detcrt", "--matrix", str(toy_matrix_file), "--heuristic", "--out", str(out_b)]
        )
        == 0
    )
    assert load_file_value(out_a) == load_file_value(out_b)


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
    assert report["result_path"] == str(out)


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


def test_kernel_rejects_constant_image_with_the_restriction(conic_map_file, tmp_path, capsys):
    obj = json.loads(conic_map_file.read_bytes())
    obj["data"]["images"][1][0][0] = ["0", "0"]  # y -> 1
    path = tmp_path / "constant.mrdi"
    path.write_text(json.dumps(obj, indent=2))
    out = tmp_path / "k.mrdi"
    assert cli.main(["kernel", "--map", str(path), "--degree", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "image monomials must be nonconstant" in err
    assert "such as x -> 2, is not supported" in err


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


def test_kernel_workers_run_in_process(conic_map_file, tmp_path, no_spawn):
    outputs = []
    for workers in ("0", "2"):
        out = tmp_path / f"k{workers}.mrdi"
        argv = ["kernel", "--map", str(conic_map_file), "--degree", "3", "--out", str(out)]
        assert cli.main(argv + ["--workers", workers]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_bench_kernel_synthetic_spawns_no_workers(tmp_path, capsys, no_spawn):
    argv = ["bench", "--suite", "kernel-synthetic", "--workers", "0,2", "--json"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["workers"] for r in rows] == [0, 2]
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
