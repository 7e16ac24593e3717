"""Unit and property tests for the virtual file system."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ossim.vfs import SimBuffer, VirtualFileSystem, _digest


@pytest.fixture
def vfs():
    fs = VirtualFileSystem()
    fs.mkdir("/site/docs", parents=True)
    fs.create_file("/site/docs/a.html", size=1000)
    return fs


def test_lookup_root(vfs):
    assert vfs.lookup("/") is vfs.root
    assert vfs.lookup("") is vfs.root


def test_lookup_file_and_missing(vfs):
    node = vfs.lookup("/site/docs/a.html")
    assert node is not None and not node.is_dir
    assert vfs.lookup("/site/docs/missing") is None
    assert vfs.lookup("/nope/a") is None


def test_path_roundtrip(vfs):
    node = vfs.lookup("/site/docs/a.html")
    assert node.path() == "/site/docs/a.html"
    assert vfs.root.path() == "/"
    assert vfs.lookup("/site").path() == "/site"
    gone = vfs.create_file("/site/docs/gone.html", size=10)
    assert vfs.delete("/site/docs/gone.html")
    assert gone.path() == "/site/docs/gone.html"


def test_mkdir_idempotent(vfs):
    first = vfs.mkdir("/site/docs")
    assert first is vfs.lookup("/site/docs")


def test_mkdir_through_file_fails(vfs):
    assert vfs.mkdir("/site/docs/a.html/sub", parents=True) is None


def test_create_file_conflicts(vfs):
    assert vfs.create_file("/site/docs/a.html") is None  # exists
    assert vfs.create_file("/no/parent/file") is None


def test_create_file_capacity():
    fs = VirtualFileSystem(capacity_bytes=100)
    fs.mkdir("/d", parents=True)
    assert fs.create_file("/d/big", size=200) is None
    assert fs.create_file("/d/ok", size=50) is not None


def test_delete_file(vfs):
    assert vfs.delete("/site/docs/a.html")
    assert vfs.lookup("/site/docs/a.html") is None
    assert not vfs.delete("/site/docs/a.html")


def test_delete_nonempty_dir_fails(vfs):
    assert not vfs.delete("/site/docs")
    vfs.delete("/site/docs/a.html")
    assert vfs.delete("/site/docs")


def test_delete_open_file_fails(vfs):
    node = vfs.lookup("/site/docs/a.html")
    node.open_count = 1
    assert not vfs.delete("/site/docs/a.html")


def test_listdir(vfs):
    vfs.create_file("/site/docs/b.html", size=10)
    assert vfs.listdir("/site/docs") == ["a.html", "b.html"]
    assert vfs.listdir("/site/docs/a.html") is None


def test_read_within_file(vfs):
    node = vfs.lookup("/site/docs/a.html")
    buffer = vfs.read(node, 0, 400)
    assert buffer.length == 400
    assert buffer.matches(node.content_id, 0, 400)


def test_read_truncates_at_eof(vfs):
    node = vfs.lookup("/site/docs/a.html")
    buffer = vfs.read(node, 900, 400)
    assert buffer.length == 100


def test_read_past_eof_empty(vfs):
    node = vfs.lookup("/site/docs/a.html")
    assert vfs.read(node, 2000, 10).length == 0


def test_write_grows_file_and_changes_content(vfs):
    node = vfs.lookup("/site/docs/a.html")
    old_content = node.content_id
    written = vfs.write(node, 900, 400)
    assert written == 400
    assert node.size == 1300
    assert node.content_id != old_content


def test_write_negative_rejected(vfs):
    node = vfs.lookup("/site/docs/a.html")
    assert vfs.write(node, -1, 10) == -1
    assert vfs.write(node, 0, -10) == -1


def test_write_capacity_enforced():
    fs = VirtualFileSystem(capacity_bytes=1000)
    fs.mkdir("/d", parents=True)
    node = fs.create_file("/d/f", size=500)
    assert fs.write(node, 500, 1000) == -1
    assert node.size == 500


def test_truncate(vfs):
    node = vfs.lookup("/site/docs/a.html")
    assert vfs.truncate(node, 100)
    assert node.size == 100
    assert not vfs.truncate(node, -5)


def test_buffer_detects_wrong_offset(vfs):
    """A read from the wrong offset is distinguishable — the corruption
    channel the benchmark client's content validation relies on."""
    node = vfs.lookup("/site/docs/a.html")
    good = vfs.read(node, 0, 100)
    shifted = vfs.read(node, 4, 100)
    assert good != shifted


def test_buffer_detects_stale_content(vfs):
    node = vfs.lookup("/site/docs/a.html")
    before = vfs.read(node, 0, 100)
    vfs.write(node, 0, 10)
    after = vfs.read(node, 0, 100)
    assert before != after


def test_simbuffer_equality_and_hash():
    a = SimBuffer.for_content(42, 0, 10)
    b = SimBuffer.for_content(42, 0, 10)
    c = SimBuffer.for_content(42, 1, 10)
    assert a == b and hash(a) == hash(b)
    assert a != c


# Fingerprints feed every campaign digest (the client checks each
# response body against one), so they are pinned, not recomputed.
@pytest.mark.parametrize("content_id, offset, length, fingerprint", [
    (0, 0, 0, 0x5A91843FD3897F57),
    (123456789, 0, 1024, 0x8421D00D8309ED2B),
    (2**63 - 1, 4096, 900000, 0xD582772CCA40363B),
    ("/dir00002/class3_8", 17, 5000, 0x1C075D859AD10070),
    ("/site/résumé-日本.html", 0, 100, 0x3B52E4F08F396E81),
])
def test_simbuffer_fingerprint_golden(content_id, offset, length,
                                      fingerprint):
    assert _digest(content_id, offset, length) == fingerprint
    for _ in range(2):  # a repeat is served from the memo
        buffer = SimBuffer.for_content(content_id, offset, length)
        assert buffer.fingerprint == fingerprint
        assert buffer.matches(content_id, offset, length)


def test_fingerprints_keep_equal_lengths_of_other_types_apart():
    # 10 == 10.0 and 1 == True, but the digest hashes their text.
    lengths = (10, 10.0, 1, True)
    fingerprints = [
        SimBuffer.for_content(42, 0, length).fingerprint
        for length in lengths
    ]
    assert fingerprints == [_digest(42, 0, length) for length in lengths]
    assert len(set(fingerprints)) == len(lengths)


def test_content_id_golden_for_non_ascii_path():
    fs = VirtualFileSystem()
    fs.mkdir("/site", parents=True)
    node = fs.create_file("/site/résumé.html", size=10)
    assert node.content_id == 0xA57C7F97C985BF9E
    node.touch()
    assert node.content_id == 0x19D6931F0B6E693A


def test_count_files(vfs):
    assert vfs.count_files() == 1
    vfs.create_file("/site/docs/b", size=1)
    assert vfs.count_files() == 2


_name = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=122),
    min_size=1, max_size=8,
)


@settings(max_examples=40)
@given(st.lists(_name, min_size=1, max_size=4, unique=True))
def test_property_create_then_lookup(names):
    """Every created file is found at exactly its own path."""
    fs = VirtualFileSystem()
    fs.mkdir("/root", parents=True)
    for name in names:
        node = fs.create_file(f"/root/{name}", size=10)
        assert node is not None
    for name in names:
        found = fs.lookup(f"/root/{name}")
        assert found is not None
        assert found.path() == f"/root/{name}"
    assert fs.listdir("/root") == sorted(names)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=0, max_value=6000),
       st.integers(min_value=0, max_value=6000))
def test_property_read_window_never_exceeds_file(size, offset, length):
    fs = VirtualFileSystem()
    fs.mkdir("/d", parents=True)
    node = fs.create_file("/d/f", size=size)
    buffer = fs.read(node, offset, length)
    assert 0 <= buffer.length <= min(max(0, length), size)
    if offset < size and length > 0:
        assert buffer.length == min(length, size - offset)
