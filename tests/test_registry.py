"""Artifact registry: pids, storage, search, credentials, persistence."""

import json
import random
import re

import pytest

import oracle
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
        with pytest.raises(AuthError) as err:
            store.authenticate(cred)
        assert err.value.code == "expired_token"

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


# ---------------------------------------------------------------------------
# integrity and persistence


class TestDurability:
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
