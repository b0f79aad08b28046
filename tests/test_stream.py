"""Batch and EdgeStream containers."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import make_batch
from repro.datasets.stream import Batch, EdgeStream, batches_from_arrays, sorted_unique
from repro.errors import ConfigurationError


def test_batch_length_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        Batch(0, np.array([1, 2]), np.array([3]), np.array([1.0, 1.0]))


def test_batch_rejects_integer_is_delete():
    """A 0/1 int array would index rows instead of masking them: the
    insertions would read src [3, 2, 3] and the deletions [1, 2, 1]."""
    with pytest.raises(ConfigurationError, match="is_delete must be a bool array"):
        Batch(0, np.array([1, 2, 3]), np.array([4, 5, 6]), np.ones(3),
              is_delete=np.array([0, 1, 0]))


def test_batch_rejects_float_vertex_ids():
    with pytest.raises(ConfigurationError, match="src must be an integer array"):
        Batch(0, np.array([1.0, 2.0]), np.array([3, 4]), np.ones(2))
    with pytest.raises(ConfigurationError, match="dst must be an integer array"):
        Batch(0, np.array([1, 2]), np.array([3.0, 4.0]), np.ones(2))


def test_batch_rejects_bool_vertex_ids():
    with pytest.raises(ConfigurationError, match="dst must be an integer array"):
        Batch(0, np.array([1, 2]), np.array([True, False]), np.ones(2))


def test_batch_accepts_narrow_and_unsigned_ids():
    b = Batch(0, np.array([1, 2], dtype=np.int32), np.array([3, 4], dtype=np.uint32),
              np.ones(2), is_delete=np.array([False, True]))
    assert b.deletions.src.tolist() == [2]


def test_batch_negative_id_rejected():
    with pytest.raises(ConfigurationError):
        make_batch([1], [2], batch_id=-1)


def test_batch_size_and_len():
    b = make_batch([1, 2, 3], [4, 5, 6])
    assert b.size == 3
    assert len(b) == 3


def test_insertions_view_of_insert_only_batch_is_identity():
    b = make_batch([1], [2])
    assert b.insertions is b


def test_insertions_and_deletions_split():
    b = make_batch([1, 2, 3], [4, 5, 6], is_delete=[False, True, False])
    ins, dels = b.insertions, b.deletions
    assert ins.src.tolist() == [1, 3]
    assert dels.src.tolist() == [2]
    assert dels.dst.tolist() == [5]
    # Views keep the original batch id.
    assert ins.batch_id == b.batch_id == dels.batch_id


def test_deletions_of_insert_only_batch_is_empty():
    b = make_batch([1], [2])
    assert b.deletions.size == 0


def test_unique_vertices_covers_both_endpoints():
    b = make_batch([1, 1, 2], [3, 4, 4])
    assert b.unique_vertices().tolist() == [1, 2, 3, 4]


def test_sorted_unique_matches_np_unique():
    rng = np.random.default_rng(0)
    for size in (0, 1, 2, 1_000):
        values = rng.integers(0, 50, size=size)
        got = sorted_unique(values)
        assert got.dtype == values.dtype
        assert np.array_equal(got, np.unique(values))


def test_no_hash_based_unique_in_src():
    """A plain `np.unique(x)` or `np.union1d` takes NumPy's hash-based
    path, over 10x slower than sorting on 100K ids; `src/` calls
    `sorted_unique` instead.  `np.unique` asking for counts, indices or
    the inverse sorts, so those calls stay allowed."""
    src_dir = Path(__file__).resolve().parent.parent / "src" / "repro"
    offenders = []
    for path in sorted(src_dir.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if not (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "np"
            ):
                continue
            sorts = any(
                (kw.arg or "").startswith("return_") for kw in node.keywords
            )
            if func.attr == "union1d" or (func.attr == "unique" and not sorts):
                offenders.append(
                    f"{path.relative_to(src_dir)}:{node.lineno}: np.{func.attr}"
                )
    assert not offenders, "\n".join(offenders)


def test_degrees_per_side():
    b = make_batch([1, 1, 2], [5, 5, 5])
    out_v, out_c = b.out_degrees()
    assert dict(zip(out_v.tolist(), out_c.tolist())) == {1: 2, 2: 1}
    in_v, in_c = b.in_degrees()
    assert dict(zip(in_v.tolist(), in_c.tolist())) == {5: 3}
    assert b.max_degree() == 3


def test_max_degree_empty_batch():
    b = make_batch([], [])
    assert b.max_degree() == 0


def test_batches_from_arrays_splits_and_pads():
    src = np.arange(10)
    dst = np.arange(10) + 100
    batches = batches_from_arrays(src, dst, batch_size=4)
    assert [b.size for b in batches] == [4, 4, 2]
    assert [b.batch_id for b in batches] == [0, 1, 2]
    assert batches[2].src.tolist() == [8, 9]
    assert all((b.weight == 1.0).all() for b in batches)


def test_batches_from_arrays_validates():
    with pytest.raises(ConfigurationError):
        batches_from_arrays(np.arange(3), np.arange(2), 2)
    with pytest.raises(ConfigurationError):
        batches_from_arrays(np.arange(3), np.arange(3), 0)
    with pytest.raises(ConfigurationError):
        batches_from_arrays(np.arange(3), np.arange(3), 2, weight=np.ones(2))


def test_edge_stream_counts_and_enforces_size():
    batches = batches_from_arrays(np.arange(6), np.arange(6), 3)
    stream = EdgeStream(batches, batch_size=3, name="s")
    consumed = list(stream)
    assert len(consumed) == 2
    assert stream.batches_emitted == 2
    assert stream.edges_emitted == 6


def test_edge_stream_rejects_oversized_batch():
    big = make_batch([1, 2, 3], [4, 5, 6])
    stream = EdgeStream([big], batch_size=2)
    with pytest.raises(ConfigurationError):
        list(stream)


def test_edge_stream_rejects_bad_batch_size():
    with pytest.raises(ConfigurationError):
        EdgeStream([], batch_size=0)
