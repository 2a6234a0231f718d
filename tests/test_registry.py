"""Artifact registry: pids, storage, search, credentials, persistence."""

import json
import multiprocessing
import random
import re
import sys
import threading

import pytest

import oracle
from hpcfair._canonical import append_records, dumps_canonical, \
    read_records
from hpcfair.errors import (
    AuthError,
    DuplicateContentError,
    IntegrityError,
    InvalidArtifactError,
    UnknownPidError,
)
from hpcfair.registry import (
    ArtifactDraft,
    Registry,
    SearchQuery,
    derive_pid,
    normalize_tag,
)

from conftest import make_model_checkpoint


def draft(title, artifact_type="model", backend="pt", tags=(), **kw):
    return ArtifactDraft(title=title, artifact_type=artifact_type,
                         backend_tag=backend, tags=tuple(tags), **kw)


# ---------------------------------------------------------------------------
# persistent identifiers


class TestPids:
    def test_empty_content_pid(self):
        assert derive_pid(b"") == "hpcf-e3b0c44298fc1c149afb"

    def test_pid_matches_independent_hash(self):
        for payload in (b"abc", b"\x00" * 100, "snowman ☃".encode()):
            assert derive_pid(payload) == oracle.pid_of(payload)

    def test_pid_is_deterministic(self):
        assert derive_pid(b"same") == derive_pid(b"same")

    def test_random_contents_have_distinct_pids(self):
        rng = random.Random(99)
        payloads = {rng.randbytes(rng.randint(1, 64)) for _ in range(500)}
        pids = {derive_pid(p) for p in payloads}
        assert len(pids) == len(payloads)


# ---------------------------------------------------------------------------
# registration


class TestRegister:
    def test_pt_model_gets_interchange_companion(self, store, publisher):
        records = store.register_artifact(
            make_model_checkpoint("enc"), draft("Encoder", tags=("nlp",)),
            publisher)
        assert len(records) == 2
        primary, companion = records
        assert primary.backend_tag == "pt"
        assert companion.backend_tag == "onnx"
        assert companion.title == "Encoder (onnx)"
        assert companion.provenance == ((primary.pid, "converted-from"),)
        assert companion.tags == primary.tags

    def test_onnx_artifact_registers_alone(self, store, publisher):
        from hpcfair.interchange import serialize_graph
        from test_interchange import identity_graph
        records = store.register_artifact(
            serialize_graph(identity_graph()),
            draft("Plain", backend="onnx"), publisher)
        assert len(records) == 1
        assert records[0].provenance == ()

    def test_duplicate_content_reports_original_pid(self, store, publisher):
        content = make_model_checkpoint("dup")
        (first, _) = store.register_artifact(content, draft("A"), publisher)
        with pytest.raises(DuplicateContentError) as err:
            store.register_artifact(content, draft("B"), publisher)
        assert err.value.existing_pid == first.pid

    def test_failed_duplicate_stores_nothing(self, store, publisher):
        content = make_model_checkpoint("once")
        store.register_artifact(content, draft("A"), publisher)
        before = {r.pid for r in store.all_records()}
        with pytest.raises(DuplicateContentError):
            store.register_artifact(content, draft("B"), publisher)
        assert {r.pid for r in store.all_records()} == before

    def test_read_your_write(self, store, publisher):
        content = make_model_checkpoint("rw")
        (primary, _) = store.register_artifact(content, draft("RW"),
                                               publisher)
        assert store.fetch_content(primary.pid, publisher) == content
        assert store.fetch_metadata(primary.pid).title == "RW"

    def test_bad_checkpoint_registers_nothing(self, store, publisher):
        before = {r.pid for r in store.all_records()}
        with pytest.raises(Exception):
            store.register_artifact(b"{not a checkpoint}", draft("Bad"),
                                    publisher)
        assert {r.pid for r in store.all_records()} == before

    def test_unknown_artifact_type_rejected(self, store, publisher):
        with pytest.raises(InvalidArtifactError):
            store.register_artifact(
                b"x", draft("T", artifact_type="notebook"), publisher)

    def test_created_at_format(self, store, publisher):
        (rec, _) = store.register_artifact(make_model_checkpoint("ts"),
                                           draft("TS"), publisher)
        import re
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                            rec.created_at)


class TestDraftFields:
    """Every metadata field's type is checked once, in ArtifactDraft."""

    DOC = {"title": "T", "artifact_type": "dataset", "backend_tag": "csv"}

    @pytest.mark.parametrize("field, value", [
        ("title", 123), ("title", None), ("artifact_type", 1),
        ("backend_tag", ["pt"]), ("license", 7),
        ("tags", "abc"), ("tags", 5), ("tags", ["nlp", 3]),
        ("version", True), ("version", "1"), ("version", 0),
        ("provenance", [1]), ("provenance", "p"),
        ("provenance", {"parent_pid": "p", "operation": "derived-from"}),
        ("provenance", [["p", "derived-from"]]),
        ("provenance", [{"parent_pid": 1, "operation": "derived-from"}]),
        ("provenance", [{"parent_pid": "p"}]),
        ("provenance", [{"parent_pid": "p", "operation": "derived-from",
                         "extra": 1}]),
    ])
    def test_from_dict_names_the_bad_field(self, field, value):
        with pytest.raises(InvalidArtifactError, match=f"^{field} "):
            ArtifactDraft.from_dict({**self.DOC, field: value})

    @pytest.mark.parametrize("field, value", [
        ("title", 123), ("license", 7), ("tags", "abc"), ("tags", 5),
        ("version", True), ("provenance", [1]),
        ("provenance", (("p", 1),))])
    def test_direct_draft_names_the_bad_field(self, field, value):
        kwargs = {"title": "T", "artifact_type": "dataset",
                  "backend_tag": "csv", field: value}
        with pytest.raises(InvalidArtifactError, match=f"^{field} "):
            ArtifactDraft(**kwargs)

    def test_well_formed_fields_are_kept(self):
        d = ArtifactDraft.from_dict({
            **self.DOC, "tags": ["a", "b"], "version": 2, "license": "mit",
            "provenance": [{"parent_pid": "p", "operation": "derived-from"}]})
        assert d.tags == ("a", "b")
        assert d.version == 2
        assert d.provenance == (("p", "derived-from"),)
        assert ArtifactDraft(title="T", artifact_type="dataset",
                             backend_tag="csv", tags=["x"]).tags == ("x",)

    def test_rejected_title_leaves_title_search_working(self, store,
                                                        publisher):
        with pytest.raises(InvalidArtifactError):
            store.register_artifact(
                b"poison", ArtifactDraft.from_dict({**self.DOC,
                                                    "title": 123}),
                publisher)
        store.register_artifact(b"fine", ArtifactDraft.from_dict(self.DOC),
                                publisher)
        for handle in (store, Registry(store.root)):
            hits = handle.search(SearchQuery(title_substring="t"))
            assert [r.title for r in hits] == ["T"]


# ---------------------------------------------------------------------------
# credentials


class TestAuth:
    def test_token_round_trip(self, store):
        cred = store.issue_token("carol", "reader", 3600)
        assert store.authenticate(cred) == ("carol", "reader")
        assert store.authenticate(cred.token) == ("carol", "reader")

    def test_issued_tokens_are_hex(self, store):
        # a leading '-' would read as an option on the command line
        for _ in range(64):
            token = store.issue_token("erin", "reader", 3600).token
            assert re.fullmatch(r"[0-9a-f]{64}", token), token

    def test_missing_credential(self, store):
        with pytest.raises(AuthError) as err:
            store.authenticate(None)
        assert err.value.code == "unauthorized"

    def test_random_token_is_unknown(self, store):
        with pytest.raises(AuthError) as err:
            store.authenticate("not-a-real-token")
        assert err.value.code == "unknown_token"

    def test_zero_ttl_token_is_expired(self, store):
        cred = store.issue_token("dave", "reader", 0)
        for handle in (store, Registry(store.root)):  # index, and catch-up
            with pytest.raises(AuthError) as err:
                handle.authenticate(cred)
            assert err.value.code == "expired_token"

    def test_issued_rows_are_unsalted(self, store):
        store.issue_token("carol", "reader", 3600)
        store.issue_token("dave", "publisher", 3600)
        _, rows = read_records(store.token_file)
        assert [row["salt"] for row in rows] == ["", ""]

    def test_unsalted_token_is_one_hash(self, store, monkeypatch):
        creds = [store.issue_token(f"user{i}", "reader", 3600)
                 for i in range(50)]
        calls = []
        real = Registry._hash_token

        def counted(salt, token):
            calls.append(salt)
            return real(salt, token)

        monkeypatch.setattr(Registry, "_hash_token", staticmethod(counted))
        assert store.authenticate(creds[-1]) == ("user49", "reader")
        assert calls == [""]

    def test_salted_row_of_an_older_store_authenticates(self, store):
        store.issue_token("carol", "reader", 3600)
        salt = "0123456789abcdef"
        live, expired = "a" * 64, "b" * 64
        append_records(store.token_file, [
            {"token_hash": Registry._hash_token(salt, token), "salt": salt,
             "account": "old", "role": "publisher", "expires_at": expires}
            for token, expires in ((live, "2999-01-01T00:00:00+00:00"),
                                   (expired, "2000-01-01T00:00:00+00:00"))])
        assert store.authenticate(live) == ("old", "publisher")
        assert Registry(store.root).authenticate(live) == \
            ("old", "publisher")
        with pytest.raises(AuthError) as err:
            store.authenticate(expired)
        assert err.value.code == "expired_token"
        with pytest.raises(AuthError) as err:
            store.authenticate("c" * 64)
        assert err.value.code == "unknown_token"

    def test_token_of_another_handle_is_found_at_the_next_call(self,
                                                               store):
        with pytest.raises(AuthError):
            store.authenticate("f" * 64)
        cred = Registry(store.root).issue_token("frank", "publisher", 3600)
        assert store.authenticate(cred) == ("frank", "publisher")

    def test_reader_cannot_publish(self, store, reader):
        with pytest.raises(AuthError) as err:
            store.register_artifact(make_model_checkpoint("no"),
                                    draft("No"), reader)
        assert err.value.code == "forbidden"

    def test_reader_can_fetch_content(self, store, publisher, reader):
        content = make_model_checkpoint("yes")
        (rec, _) = store.register_artifact(content, draft("Yes"), publisher)
        assert store.fetch_content(rec.pid, reader) == content

    def test_metadata_is_public(self, store, publisher):
        (rec, _) = store.register_artifact(make_model_checkpoint("pub"),
                                           draft("Pub"), publisher)
        assert store.fetch_metadata(rec.pid).pid == rec.pid


# ---------------------------------------------------------------------------
# search


@pytest.fixture
def tagged_store(store, publisher):
    store.register_artifact(
        make_model_checkpoint("a"), draft("Text Encoder", tags=("nlp",)),
        publisher)
    store.register_artifact(
        make_model_checkpoint("b"),
        draft("Char Encoder", tags=("nlp", "encoder")), publisher)
    store.register_artifact(
        make_model_checkpoint("c"), draft("Edge Finder", tags=("vision",)),
        publisher)
    return store


class TestSearch:
    def test_single_tag(self, tagged_store):
        hits = tagged_store.search(SearchQuery(tags=("nlp",)))
        assert {r.title for r in hits} == {"Text Encoder", "Text Encoder"
                                           " (onnx)", "Char Encoder",
                                           "Char Encoder (onnx)"}

    def test_conjunction(self, tagged_store):
        hits = tagged_store.search(SearchQuery(tags=("nlp", "encoder")))
        assert {r.title for r in hits} == {"Char Encoder",
                                           "Char Encoder (onnx)"}

    def test_absent_tag(self, tagged_store):
        assert tagged_store.search(SearchQuery(tags=("audio",))) == []

    def test_tag_normalization(self, tagged_store):
        assert (tagged_store.search(SearchQuery(tags=("  NLP ",)))
                == tagged_store.search(SearchQuery(tags=("nlp",))))
        assert normalize_tag("  Speech Models ") == "speech-models"

    def test_backend_filter(self, tagged_store):
        hits = tagged_store.search(SearchQuery(tags=("nlp",),
                                               backend_tag="onnx"))
        assert {r.backend_tag for r in hits} == {"onnx"}

    def test_title_substring(self, tagged_store):
        hits = tagged_store.search(SearchQuery(title_substring="Char"))
        assert {r.title for r in hits} == {"Char Encoder",
                                           "Char Encoder (onnx)"}

    def test_results_sorted_by_pid(self, tagged_store):
        hits = tagged_store.search(SearchQuery(tags=("nlp",)))
        assert [r.pid for r in hits] == sorted(r.pid for r in hits)


def scan(records, query):
    """Brute-force search over every record, by the documented rules."""
    tags = {"-".join(tag.lower().split()) for tag in query.tags} - {""}
    title = (query.title_substring or "").lower()
    hits = [r for r in records
            if tags <= set(r.tags)
            and query.artifact_type in (None, "", r.artifact_type)
            and query.backend_tag in (None, "", r.backend_tag)
            and title in r.title.lower()]
    hits.sort(key=lambda r: r.pid)
    return sorted(hits, key=lambda r: r.created_at, reverse=True)


class TestSearchOracle:
    """``search`` equals a scan of ``all_records()`` on every field, before
    and after a reopen and a cut torn tail."""

    POOL = ("nlp", "vision", "speech-models", "v2")
    QUERIES = (
        SearchQuery(artifact_type="model"),
        SearchQuery(artifact_type="dataset"),
        SearchQuery(artifact_type="container-manifest"),
        SearchQuery(backend_tag="onnx"),
        SearchQuery(backend_tag="csv"),
        SearchQuery(backend_tag="none"),
        SearchQuery(title_substring="ENCODER"),
        SearchQuery(title_substring="set 1"),
        SearchQuery(title_substring="É"),
        SearchQuery(tags=("absent",)),
        SearchQuery(tags=("nlp", "absent")),
        SearchQuery(tags=("  Speech   Models ",)),
        SearchQuery(tags=(" NLP", "V2  ")),
        SearchQuery(tags=("nlp",), artifact_type="model",
                    backend_tag="onnx", title_substring="enc"),
    )

    def fill(self, store, cred):
        rng = random.Random(24)
        for i in range(12):
            store.register_artifact(
                make_model_checkpoint(f"m{i}"),
                draft(f"{'Text' if i % 2 else 'Image'} Encoder {i}",
                      tags=rng.sample(self.POOL, rng.randint(0, 4))), cred)
        for i in range(30):
            store.register_artifact(
                f"set {i}".encode(),
                draft(f"Set {i} ÉTÉ" if i % 3 else f"set {i}", "dataset",
                      rng.choice(("csv", "jsonl")),
                      tags=rng.sample(self.POOL, rng.randint(0, 4))), cred)
        store.register_artifact(b"build", draft(
            "Build", "container-manifest", "none", tags=["v2"]), cred)

    def check(self, *handles):
        for handle in handles:
            records = handle.all_records()
            for query in self.QUERIES:
                assert handle.search(query) == scan(records, query), query
        assert len({len(handle.all_records()) for handle in handles}) == 1

    def test_search_equals_the_scan(self, tmp_path):
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        self.fill(first, cred)
        self.check(first)
        assert all(first.search(query) for query in self.QUERIES[:9])

        reopened = Registry(root)
        assert reopened.all_records() == first.all_records()
        self.check(first, reopened)

        with open(root / "meta.log", "ab") as fh:  # a crashed append
            fh.write(dumps_canonical({"pid": "hpcf-torn"})[:-9])
        self.check(first, reopened, Registry(root))
        reopened.register_artifact(b"after", draft(
            "Set After ÉTÉ", "dataset", "csv", tags=["NLP "]), cred)
        assert b"hpcf-torn" not in (root / "meta.log").read_bytes()  # cut
        self.check(first, reopened, Registry(root))
        assert [r.title for r in Registry(root).search(SearchQuery(
            title_substring="after"))] == ["Set After ÉTÉ"]


# ---------------------------------------------------------------------------
# integrity and persistence


class TestDurability:
    def test_reopened_records_share_their_repeated_strings(self, store,
                                                            publisher):
        for label in ("a", "b"):
            store.register_artifact(
                f"dataset {label}".encode(),
                draft(label.upper(), "dataset", "none", tags=["speech"]),
                publisher)
        first, second = Registry(store.root).all_records()
        for name in ("artifact_type", "backend_tag", "creator", "license"):
            assert getattr(first, name) is getattr(second, name)
        assert first.tags[0] is second.tags[0]

    def test_corrupted_blob_detected(self, store, publisher):
        (rec, _) = store.register_artifact(make_model_checkpoint("x"),
                                           draft("X"), publisher)
        blob_path = next(store.blob_dir.rglob("*"))
        while blob_path.is_dir():
            blob_path = next(blob_path.iterdir())
        data = bytearray(blob_path.read_bytes())
        data[0] ^= 0xFF
        blob_path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            store.fetch_content(rec.pid, publisher)

    def test_unknown_pid(self, store, publisher):
        with pytest.raises(UnknownPidError):
            store.fetch_metadata("hpcf-0000000000000000dead")

    def test_restart_replays_meta_log(self, tmp_path, publisher):
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        content = make_model_checkpoint("persist")
        records = first.register_artifact(content, draft("Keep"), cred)

        again = Registry(root)
        for rec in records:
            assert again.fetch_metadata(rec.pid) == rec
        assert again.fetch_content(records[0].pid, cred) == content

    def test_title_with_a_unicode_line_separator_replays(self, tmp_path):
        # the log is split on "\n" only; str.splitlines also splits U+2028
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        records = first.register_artifact(b"x", draft(
            "line\u2028sep", artifact_type="dataset", backend="csv"), cred)
        assert Registry(root).all_records() == records

    def test_search_after_restart(self, tmp_path):
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        first.register_artifact(make_model_checkpoint("s"),
                                draft("S", tags=("kept",)), cred)
        again = Registry(root)
        assert (sorted(r.pid for r in again.search(SearchQuery(
            tags=("kept",))))
            == sorted(r.pid for r in first.search(SearchQuery(
                tags=("kept",)))))


class TestTornLogs:
    """A crash mid-append leaves an unterminated last line; reopening drops
    it and later appends start a fresh line."""

    def test_meta_log_cut_at_every_offset(self, tmp_path, caplog):
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        kept = first.register_artifact(b"kept", draft(
            "Kept", artifact_type="dataset", backend="csv"), cred)
        first.register_artifact(b"cut", draft(
            "Cut", artifact_type="dataset", backend="csv"), cred)
        full = first.meta_log.read_bytes()
        start = full.rindex(b"\n", 0, len(full) - 1) + 1

        for offset in range(start, len(full)):
            first.meta_log.write_bytes(full[:offset])
            reopened = Registry(root)
            assert reopened.all_records() == kept
            new = reopened.register_artifact(b"new", draft(
                "New", artifact_type="dataset", backend="csv"), cred)
            assert [r.pid for r in Registry(root).all_records()] == \
                [kept[0].pid, new[0].pid]
        assert "meta.log ends in a torn line" in caplog.text

    def test_push_over_a_torn_tail_of_equal_length_is_seen(self, tmp_path):
        def push(store):
            cred = store.issue_token("alice", "publisher", 3600)
            [record] = store.register_artifact(b"late", draft(
                "Late", artifact_type="dataset", backend="csv"), cred)
            return record

        probe = Registry(tmp_path / "probe")
        push(probe)
        line = probe.meta_log.stat().st_size
        root = tmp_path / "r"
        Registry(root).meta_log.write_bytes(b"x" * line)  # a torn tail
        reader = Registry(root)  # reads up to the torn tail
        record = push(Registry(root))  # cuts it, appends as many bytes
        assert reader.meta_log.stat().st_size == line
        assert reader.fetch_metadata(record.pid) == record

    def test_tokens_cut_at_every_offset(self, tmp_path):
        root = tmp_path / "r"
        first = Registry(root)
        kept = first.issue_token("alice", "reader", 3600)
        torn = first.issue_token("bob", "reader", 3600)
        full = first.token_file.read_bytes()
        start = full.rindex(b"\n", 0, len(full) - 1) + 1

        for offset in range(start, len(full)):
            first.token_file.write_bytes(full[:offset])
            reopened = Registry(root)
            assert reopened.authenticate(kept) == ("alice", "reader")
            for token in (torn, "f" * 64):
                with pytest.raises(AuthError) as err:
                    reopened.authenticate(token)
                assert err.value.code == "unknown_token"
            new = reopened.issue_token("carol", "publisher", 3600)
            again = Registry(root)
            assert again.authenticate(kept) == ("alice", "reader")
            assert again.authenticate(new) == ("carol", "publisher")

    def test_torn_tokens_line_is_ignored_before_reopen(self, store, reader):
        with open(store.token_file, "ab") as fh:
            fh.write(b'{"token_hash":"ab')
        assert store.authenticate(reader) == ("bob", "reader")
        with pytest.raises(AuthError) as err:
            store.authenticate("f" * 64)
        assert err.value.code == "unknown_token"

    def test_torn_tokens_tail_warns_once_not_per_call(self, tmp_path,
                                                       caplog):
        root = tmp_path / "r"
        token = Registry(root).issue_token("alice", "reader", 3600)
        with open(root / "tokens", "ab") as fh:
            fh.write(b'{"token_hash":"ab')
        store = Registry(root)
        for _ in range(3):
            assert store.authenticate(token) == ("alice", "reader")
        torn = [r for r in caplog.records if "ends in a torn line" in
                r.getMessage()]
        assert len(torn) == 1 and torn[0].levelname == "WARNING"

    @pytest.mark.parametrize("name,read", [
        ("meta.log", Registry),
        ("tokens", lambda root: Registry(root).authenticate("f" * 64))])
    def test_corrupt_whole_line_is_an_integrity_failure(self, tmp_path,
                                                        name, read):
        root = tmp_path / "r"
        Registry(root).issue_token("alice", "publisher", 3600)
        with open(root / name, "ab") as fh:
            fh.write(b'{"not json\n')
        with pytest.raises(IntegrityError, match=f"{name} line"):
            read(root)


def _issue_tokens(root, account, count, barrier, results):
    """Worker: open the store, wait for the others, then issue tokens."""
    registry = Registry(root)
    barrier.wait(timeout=60)
    results.put((account, [registry.issue_token(account, "reader", 3600).token
                           for _ in range(count)]))


class TestOneBatchPerLine:
    """A push and its companion are one meta.log line, kept or lost
    together; appenders in any process take turns and cut a torn tail."""

    def test_pt_push_cut_at_every_offset_loses_both(self, tmp_path):
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        kept = first.register_artifact(b"kept", draft(
            "Kept", artifact_type="dataset", backend="csv"), cred)
        content = make_model_checkpoint("torn")
        pids = [r.pid for r in
                first.register_artifact(content, draft("Torn"), cred)]
        full = first.meta_log.read_bytes()
        start = full.rindex(b"\n", 0, len(full) - 1) + 1

        for offset in range(start, len(full)):
            first.meta_log.write_bytes(full[:offset])
            reopened = Registry(root)
            assert reopened.all_records() == kept
            again = reopened.register_artifact(content, draft("Torn"), cred)
            assert [r.pid for r in again] == pids
            assert [r.pid for r in Registry(root).all_records()] == \
                [kept[0].pid] + pids

    def test_push_written_as_two_lines_reopens_with_both(self, tmp_path):
        # the layout of stores written before a push became one batch
        root = tmp_path / "r"
        first = Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        records = first.register_artifact(make_model_checkpoint("old"),
                                          draft("Old"), cred)
        assert first.meta_log.read_bytes().count(b"\n") == 1
        first.meta_log.write_bytes(b"".join(
            dumps_canonical(r.to_dict()) for r in records))
        assert Registry(root).all_records() == records

    def test_processes_issuing_tokens_share_one_log(self, tmp_path):
        root = tmp_path / "r"
        Registry(root).issue_token("seed", "reader", 3600)
        token_file = root / "tokens"
        token_file.write_bytes(token_file.read_bytes() + b'{"token_hash":"ab')
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(3), ctx.Queue()
        procs = [ctx.Process(target=_issue_tokens,
                             args=(root, f"user{i}", 50, barrier, results))
                 for i in range(3)]
        for proc in procs:
            proc.start()
        issued = dict(results.get(timeout=120) for _ in procs)
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        lines = token_file.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == 1 + 3 * 50
        for line in lines:
            json.loads(line)
        store = Registry(root)
        for account, tokens in issued.items():
            for token in tokens:
                assert store.authenticate(token) == (account, "reader")


def _push_same_contents(root, count, barrier, results):
    """Worker: open the store, wait for the others, then push the contents
    every worker pushes; report how many were accepted."""
    registry = Registry(root)
    cred = registry.issue_token("worker", "publisher", 3600)
    barrier.wait(timeout=60)
    accepted = 0
    for i in range(count):
        try:
            registry.register_artifact(f"shared {i}".encode(), draft(
                f"Shared {i}", artifact_type="dataset", backend="csv"), cred)
            accepted += 1
        except DuplicateContentError:
            pass
    results.put(accepted)


class TestFollowingTheLogs:
    """Every handle on a store sees what any other handle or process
    appended, and one content is registered once."""

    def test_push_through_one_handle_is_seen_by_another(self, tmp_path):
        root = tmp_path / "r"
        first, second = Registry(root), Registry(root)
        cred = first.issue_token("alice", "publisher", 3600)
        assert second.authenticate(cred) == ("alice", "publisher")
        [record] = first.register_artifact(b"same", draft(
            "Same", artifact_type="dataset", backend="csv", tags=("x",)),
            cred)
        assert second.fetch_metadata(record.pid) == record
        assert second.search(SearchQuery(tags=("x",))) == [record]
        with pytest.raises(DuplicateContentError) as err:
            second.register_artifact(b"same", draft(
                "Again", artifact_type="dataset", backend="csv"), cred)
        assert err.value.existing_pid == record.pid
        assert first.meta_log.read_bytes().count(b"\n") == 1

    def test_processes_pushing_the_same_contents_register_each_once(
            self, tmp_path):
        root = tmp_path / "r"
        Registry(root)
        ctx = multiprocessing.get_context("spawn")
        barrier, results = ctx.Barrier(3), ctx.Queue()
        procs = [ctx.Process(target=_push_same_contents,
                             args=(root, 30, barrier, results))
                 for _ in range(3)]
        for proc in procs:
            proc.start()
        accepted = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert sum(accepted) == 30
        assert (root / "meta.log").read_bytes().count(b"\n") == 30
        assert len(Registry(root).all_records()) == 30

    def test_unchanged_logs_are_not_read_again(self, store, reader,
                                               monkeypatch):
        reads = []

        def counting(path, start=0):
            reads.append((path.name, start))
            return read_records(path, start)

        monkeypatch.setattr("hpcfair.registry.read_records", counting)
        for _ in range(3):
            assert store.authenticate(reader) == ("bob", "reader")
        first_line = store.token_file.stat().st_size
        publisher = store.issue_token("alice", "publisher", 3600)
        [record] = store.register_artifact(b"d", draft(
            "D", artifact_type="dataset", backend="csv"), publisher)
        assert store.fetch_metadata(record.pid) == record
        assert store.all_records() == [record]
        # each line is read once, from where the last read of its log ended
        assert reads == [("tokens", 0), ("tokens", first_line),
                         ("meta.log", 0)]

    def test_search_beside_pushes_sees_a_snapshot(self, store, publisher):
        errors = []
        done = threading.Event()

        def searcher():
            while not done.is_set():
                try:  # a scan of the keys, and the tag index
                    store.search(SearchQuery(artifact_type="dataset"))
                    hits = store.search(SearchQuery(tags=("c", "even")))
                    assert all({"c", "even"} <= set(r.tags) for r in hits)
                except Exception as exc:  # noqa: BLE001 - any is a failure
                    errors.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=searcher)
        thread.start()
        try:
            for i in range(300):
                store.register_artifact(f"c{i}".encode(), draft(
                    f"C{i}", artifact_type="dataset", backend="csv",
                    tags=["c", "even" if i % 2 == 0 else "odd"]), publisher)
        finally:
            done.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        assert len(store.search(SearchQuery(artifact_type="dataset"))) == 300
        assert len(store.search(SearchQuery(tags=("c", "even")))) == 150

    def test_corrupt_tokens_line_fails_when_the_store_opens(self, tmp_path):
        root = tmp_path / "r"
        Registry(root).issue_token("alice", "publisher", 3600)
        with open(root / "tokens", "ab") as fh:
            fh.write(b'{"not json\n')
        with pytest.raises(IntegrityError, match="tokens line") as err:
            Registry(root)
        assert err.value.code == "integrity_failure"
