import json

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
