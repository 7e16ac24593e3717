"""Tests for the SPECWeb99 fileset and workload generator."""

import pickle
import random
from itertools import accumulate

import pytest

from repro.ossim.vfs import VirtualFileSystem
from repro.sim.rng import SeededRng
from repro.specweb.fileset import (
    CLASS_COUNT,
    CLASS_WEIGHTS,
    FILES_PER_CLASS,
    WITHIN_CLASS_WEIGHTS,
    SpecWebFileset,
)
from repro.specweb.workload import (
    _CLASS_DRAW,
    _FILE_DRAW,
    _KIND_DRAW,
    DYNAMIC_WRAPPER_BYTES,
    OPERATION_MIX,
    OperationKind,
    WorkloadGenerator,
    POST_BODY_BYTES,
)


@pytest.fixture
def fileset():
    fs = SpecWebFileset(directories=3)
    vfs = VirtualFileSystem()
    fs.populate(vfs)
    return fs


def test_structure_counts(fileset):
    assert fileset.total_files() == 3 * CLASS_COUNT * FILES_PER_CLASS
    assert len(fileset.entries) == fileset.total_files()


def test_class_sizes_follow_specweb_pattern():
    fs = SpecWebFileset(directories=1)
    assert fs.file_size(0, 0) == 100
    assert fs.file_size(0, 8) == 900
    assert fs.file_size(1, 4) == 5_000
    assert fs.file_size(2, 0) == 10_000
    assert fs.file_size(3, 8) == 900_000


def test_mean_transfer_close_to_15kb():
    fs = SpecWebFileset(directories=1)
    assert 12_000 < fs.mean_transfer_bytes() < 18_000


def test_populate_creates_real_vfs_nodes(fileset):
    vfs_entry = fileset.entry("/dir00002/class3_8")
    assert vfs_entry is not None
    assert vfs_entry.size == 900_000


def test_entry_ground_truth_matches_vfs():
    fs = SpecWebFileset(directories=2)
    vfs = VirtualFileSystem()
    fs.populate(vfs)
    for url, entry in fs.entries.items():
        node = vfs.lookup(f"{fs.root}{url}")
        assert node is not None
        assert node.size == entry.size
        assert node.content_id == entry.content_id


def test_invalid_directory_count():
    with pytest.raises(ValueError):
        SpecWebFileset(directories=0)


def test_total_bytes_scales_with_directories():
    small = SpecWebFileset(directories=1).total_bytes()
    assert SpecWebFileset(directories=4).total_bytes() == 4 * small


def test_workload_mix_close_to_specweb(fileset):
    generator = WorkloadGenerator(fileset, SeededRng(5))
    counts = {kind: 0 for kind in OperationKind}
    for _ in range(4000):
        counts[generator.next_operation().kind] += 1
    assert 0.65 < counts[OperationKind.STATIC_GET] / 4000 < 0.75
    assert 0.20 < counts[OperationKind.DYNAMIC_GET] / 4000 < 0.30
    assert 0.03 < counts[OperationKind.POST] / 4000 < 0.08


def test_workload_deterministic_per_connection(fileset):
    a = WorkloadGenerator(fileset, SeededRng(5)).for_connection(3)
    b = WorkloadGenerator(fileset, SeededRng(5)).for_connection(3)
    ops_a = [a.next_operation().request.path for _ in range(20)]
    ops_b = [b.next_operation().request.path for _ in range(20)]
    assert ops_a == ops_b
    c = WorkloadGenerator(fileset, SeededRng(5)).for_connection(4)
    ops_c = [c.next_operation().request.path for _ in range(20)]
    assert ops_a != ops_c


# The first 50 draws of connection 3 at seed 5.  Every campaign digest
# rests on this sequence, so any change to how the generator draws
# (weights, their running sums, the order of RNG calls) must fail here.
GOLDEN_DRAWS = """
    static_get /dir00002/class1_7
    dynamic_get /dir00001/class0_5
    static_get /dir00000/class1_3
    static_get /dir00000/class2_5
    static_get /dir00001/class0_5
    static_get /dir00002/class1_7
    static_get /dir00000/class2_1
    static_get /dir00001/class0_5
    static_get /dir00001/class1_6
    dynamic_get /dir00001/class0_3
    static_get /dir00001/class0_5
    static_get /dir00001/class1_6
    dynamic_get /dir00001/class0_5
    post /postlog/form
    dynamic_get /dir00001/class0_2
    static_get /dir00002/class1_4
    dynamic_get /dir00001/class1_3
    static_get /dir00001/class1_2
    static_get /dir00002/class0_3
    static_get /dir00001/class1_5
    dynamic_get /dir00002/class0_0
    static_get /dir00002/class1_3
    static_get /dir00000/class2_2
    static_get /dir00000/class2_5
    dynamic_get /dir00000/class1_4
    static_get /dir00002/class2_3
    dynamic_get /dir00001/class2_5
    static_get /dir00001/class1_3
    static_get /dir00002/class1_3
    dynamic_get /dir00000/class1_2
    static_get /dir00001/class1_4
    post /postlog/form
    static_get /dir00002/class0_0
    static_get /dir00001/class1_5
    static_get /dir00001/class0_2
    static_get /dir00000/class0_3
    static_get /dir00001/class0_4
    static_get /dir00000/class0_5
    post /postlog/form
    dynamic_get /dir00002/class1_5
    static_get /dir00001/class1_5
    static_get /dir00000/class2_2
    static_get /dir00000/class1_3
    static_get /dir00000/class0_6
    static_get /dir00000/class0_6
    dynamic_get /dir00002/class0_3
    static_get /dir00002/class1_6
    dynamic_get /dir00000/class1_2
    dynamic_get /dir00000/class0_3
    dynamic_get /dir00000/class0_7
""".split()


def test_workload_draws_golden(fileset):
    generator = WorkloadGenerator(fileset, SeededRng(5)).for_connection(3)
    draws = []
    for _ in range(50):
        operation = generator.next_operation()
        draws += [operation.kind.value, operation.request.path]
    assert draws == GOLDEN_DRAWS


@pytest.mark.parametrize("draw, population, weights", [
    (_KIND_DRAW, [kind for kind, _weight in OPERATION_MIX],
     [weight for _kind, weight in OPERATION_MIX]),
    (_CLASS_DRAW, list(range(CLASS_COUNT)), CLASS_WEIGHTS),
    (_FILE_DRAW, list(range(FILES_PER_CLASS)), WITHIN_CLASS_WEIGHTS),
], ids=["kind", "class", "file"])
def test_direct_draw_is_random_choices(draw, population, weights):
    """Each direct draw picks what ``Random.choices`` picks and leaves
    the generator where ``choices`` leaves it."""
    cum_weights = list(accumulate(weights))
    for seed in range(200):
        direct = random.Random(seed)
        reference = random.Random(seed)
        for _ in range(5):
            expected = reference.choices(
                population, cum_weights=cum_weights
            )[0]
            assert draw.draw(direct.random) == expected
        assert direct.getstate() == reference.getstate()


def test_static_operations_carry_checkable_truth(fileset):
    generator = WorkloadGenerator(fileset, SeededRng(9))
    for _ in range(100):
        operation = generator.next_operation()
        if operation.kind is OperationKind.STATIC_GET:
            entry = fileset.entry(operation.request.path)
            assert operation.expected_size == entry.size
            assert operation.expected_content_id == entry.content_id
        elif operation.kind is OperationKind.DYNAMIC_GET:
            entry = fileset.entry(operation.request.path)
            assert operation.expected_size == entry.size + 128
            assert operation.request.dynamic
        else:
            assert operation.request.body_size == POST_BODY_BYTES


def test_class_mix_respects_weights(fileset):
    generator = WorkloadGenerator(fileset, SeededRng(6))
    class_counts = [0, 0, 0, 0]
    draws = 0
    for _ in range(5000):
        operation = generator.next_operation()
        if operation.kind is OperationKind.POST:
            continue
        draws += 1
        name = operation.request.path.rsplit("/", 1)[1]
        class_counts[int(name[5])] += 1
    assert class_counts[1] > class_counts[0] > class_counts[2]
    assert class_counts[3] < draws * 0.03


def test_rows_hold_each_files_url_and_entry(fileset):
    assert len(fileset.rows) == fileset.directories
    for dir_index in range(fileset.directories):
        for class_index in range(CLASS_COUNT):
            for file_index in range(FILES_PER_CLASS):
                url = fileset.url_path(dir_index, class_index, file_index)
                row = fileset.rows[dir_index][
                    class_index * FILES_PER_CLASS + file_index
                ]
                assert row == (url, fileset.entry(url))


def test_rows_stay_out_of_pickles_and_are_rebuilt_on_load(fileset):
    assert "rows" not in fileset.__getstate__()
    restored = pickle.loads(pickle.dumps(fileset))
    assert restored.rows == fileset.rows
    assert restored.entries == fileset.entries


def _reference_operations(fileset, stream, count):
    """``(kind, path, expected size, content id)`` of ``count`` draws,
    made as the generator made them before the rows: the directory by
    ``randint``, its URL formatted and looked up."""
    operations = []
    for _ in range(count):
        kind = _KIND_DRAW.draw(stream.random)
        if kind is OperationKind.POST:
            operations.append((kind, fileset.post_target, -1, 0))
            continue
        class_index = _CLASS_DRAW.draw(stream.random)
        file_index = _FILE_DRAW.draw(stream.random)
        dir_index = stream.randint(0, fileset.directories - 1)
        path = fileset.url_path(dir_index, class_index, file_index)
        entry = fileset.entry(path)
        if kind is OperationKind.DYNAMIC_GET:
            operations.append(
                (kind, path, entry.size + DYNAMIC_WRAPPER_BYTES, 0)
            )
        else:
            operations.append((kind, path, entry.size, entry.content_id))
    return operations


@pytest.mark.parametrize("directories", [1, 3, 8])
def test_directory_draw_is_randint(directories):
    """The generator draws what ``randint(0, directories - 1)`` draws
    for the directory, and leaves its stream where ``randint`` leaves
    it."""
    fileset = SpecWebFileset(directories=directories)
    fileset.populate(VirtualFileSystem())
    for seed in range(200):
        generator = WorkloadGenerator(fileset, SeededRng(seed))
        reference = SeededRng(seed)._random
        expected = _reference_operations(fileset, reference, 8)
        drawn = [generator.next_operation() for _ in range(8)]
        assert [
            (op.kind, op.request.path, op.expected_size,
             op.expected_content_id)
            for op in drawn
        ] == expected
        assert generator.rng._random.getstate() == reference.getstate()
