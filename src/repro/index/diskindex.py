"""Binary on-disk index: persist an inverted index with compressed postings.

Format (little-endian, version 1)::

    magic     4 bytes  b"QECX"
    version   1 byte
    codec     1 byte   0 = varint, 1 = gamma
    n_docs    4 bytes  uint32
    doc_lengths        varint block (n_docs values, each length + 1)
    n_terms   4 bytes  uint32
    per term, in sorted term order:
        term_len   2 bytes  uint16
        term       term_len bytes, UTF-8
        df         4 bytes  uint32 (posting count)
        blob_len   4 bytes  uint32
        blob       blob_len bytes (encode_postings output)

The reader materializes the term directory eagerly but keeps posting blobs
compressed in memory, decoding on demand (and caching nothing — posting
decode is cheap at this scale and keeping it stateless keeps the reader
trivially thread-safe for reads).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

from repro.errors import IndexingError
from repro.index.backend import BackendCapabilities, IndexBackend
from repro.index.compression import (
    CODECS,
    GAMMA,
    VARINT,
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
)
from repro.index.postings import PostingList, intersect_all, union_all

_MAGIC = b"QECX"
_VERSION = 1
_CODEC_BYTE = {VARINT: 0, GAMMA: 1}
_BYTE_CODEC = {v: k for k, v in _CODEC_BYTE.items()}


def write_index(
    index: IndexBackend, path: str | Path, codec: str = VARINT
) -> int:
    """Serialize any :class:`IndexBackend` to ``path``; return the byte size.

    Only the retrieval structures are persisted (postings + doc lengths);
    the documents themselves are persisted separately via
    :mod:`repro.data.io` so the two halves can live in different files.
    Works for every protocol conformer — the in-memory index, the dynamic
    index, and a sharded index all flatten to the same on-disk format.
    """
    if codec not in CODECS:
        raise IndexingError(f"unknown codec {codec!r}; use one of {CODECS}")
    path = Path(path)
    out = bytearray()
    out += _MAGIC
    out += bytes([_VERSION, _CODEC_BYTE[codec]])
    n_docs = index.num_documents
    out += struct.pack("<I", n_docs)
    lengths = [index.doc_length(pos) + 1 for pos in range(n_docs)]
    length_blob = varint_encode(lengths) if lengths else b""
    out += struct.pack("<I", len(length_blob))
    out += length_blob
    vocab = index.vocabulary()
    out += struct.pack("<I", len(vocab))
    for term in vocab:
        plist = index.postings(term)
        blob = encode_postings(plist.docs.tolist(), plist.tfs.tolist(), codec=codec)
        term_bytes = term.encode("utf-8")
        if len(term_bytes) > 0xFFFF:
            raise IndexingError(f"term too long to serialize: {term[:40]!r}...")
        out += struct.pack("<H", len(term_bytes))
        out += term_bytes
        out += struct.pack("<II", len(plist), len(blob))
        out += blob
    path.write_bytes(bytes(out))
    return len(out)


class DiskIndex:
    """Read-only index loaded from the binary format of :func:`write_index`.

    Offers the same retrieval surface as
    :class:`~repro.index.inverted_index.InvertedIndex` (postings, document
    frequency, boolean queries, doc lengths) without needing the corpus in
    memory. Posting blobs stay compressed; :meth:`postings` decodes on
    demand.
    """

    def __init__(
        self,
        codec: str,
        doc_lengths: list[int],
        directory: dict[str, tuple[int, bytes]],
    ) -> None:
        self._codec = codec
        self._doc_lengths = doc_lengths
        self._directory = directory

    # -- loading ------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "DiskIndex":
        """Load an index file; all corruption surfaces as IndexingError."""
        data = Path(path).read_bytes()
        try:
            return cls._parse(data, path)
        except IndexingError:
            raise
        except (struct.error, UnicodeDecodeError, IndexError) as exc:
            raise IndexingError(f"corrupt index file {path}: {exc}") from None

    @classmethod
    def build(
        cls, corpus, path: str | Path, codec: str = VARINT
    ) -> "DiskIndex":
        """Index ``corpus``, persist to ``path``, and return the reader.

        One-stop construction for the ``disk`` backend: equivalent to
        building an :class:`~repro.index.inverted_index.InvertedIndex`,
        calling :func:`write_index`, and :meth:`load`-ing the result.
        """
        from repro.index.inverted_index import InvertedIndex

        write_index(InvertedIndex(corpus), path, codec=codec)
        return cls.load(path)

    @classmethod
    def _parse(cls, data: bytes, path: str | Path) -> "DiskIndex":
        if len(data) < 6 or data[:4] != _MAGIC:
            raise IndexingError(f"not a QECX index file: {path}")
        version, codec_byte = data[4], data[5]
        if version != _VERSION:
            raise IndexingError(f"unsupported index version {version}")
        codec = _BYTE_CODEC.get(codec_byte)
        if codec is None:
            raise IndexingError(f"unknown codec byte {codec_byte}")
        offset = 6
        (n_docs,) = struct.unpack_from("<I", data, offset)
        offset += 4
        (length_blob_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        length_blob = data[offset : offset + length_blob_len]
        offset += length_blob_len
        lengths = [v - 1 for v in varint_decode(length_blob)]
        if len(lengths) != n_docs:
            raise IndexingError(
                f"corrupt index: {len(lengths)} doc lengths for {n_docs} docs"
            )
        (n_terms,) = struct.unpack_from("<I", data, offset)
        offset += 4
        directory: dict[str, tuple[int, bytes]] = {}
        for _ in range(n_terms):
            (term_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            term = data[offset : offset + term_len].decode("utf-8")
            offset += term_len
            df, blob_len = struct.unpack_from("<II", data, offset)
            offset += 8
            blob = data[offset : offset + blob_len]
            if len(blob) != blob_len:
                raise IndexingError(f"corrupt index: truncated blob for {term!r}")
            offset += blob_len
            directory[term] = (df, blob)
        if offset != len(data):
            raise IndexingError(
                f"corrupt index: {len(data) - offset} trailing bytes"
            )
        return cls(codec, lengths, directory)

    # -- introspection --------------------------------------------------------

    @property
    def codec(self) -> str:
        return self._codec

    @property
    def num_documents(self) -> int:
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        return len(self._directory)

    def __contains__(self, term: object) -> bool:
        return term in self._directory

    def vocabulary(self) -> list[str]:
        return sorted(self._directory)

    def document_frequency(self, term: str) -> int:
        entry = self._directory.get(term)
        return entry[0] if entry else 0

    def doc_length(self, pos: int) -> int:
        return self._doc_lengths[pos]

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name="disk", persistent=True, compressed=True
        )

    # -- retrieval -------------------------------------------------------------

    def postings(self, term: str) -> PostingList:
        """Decode and return the posting list for ``term``."""
        entry = self._directory.get(term)
        if entry is None:
            return PostingList()
        count, blob = entry
        doc_ids, tfs = decode_postings(blob, count, codec=self._codec)
        return PostingList.from_columns(doc_ids, tfs)

    def and_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("AND query needs at least one term")
        lists = [self.postings(t) for t in term_list]
        if any(not pl for pl in lists):
            return []
        return intersect_all(lists).doc_ids()

    def or_query(self, terms: Iterable[str]) -> list[int]:
        term_list = list(terms)
        if not term_list:
            raise IndexingError("OR query needs at least one term")
        return union_all([self.postings(t) for t in term_list]).doc_ids()
