"""Fixed twin of ``bad_registry``: the full backend surface, honest claims.

``FullBackend`` defines every member of the pinned ``BACKENDS`` surface
and backs its ``mutable=True`` claim with ``add_all``/``remove``.
"""


class _Registry:
    def __init__(self):
        self._by_name = {}

    def register(self, name, obj=None):
        if obj is not None:
            self._by_name[name] = obj
            return obj

        def deco(target):
            self._by_name[name] = target
            return target

        return deco


BACKENDS = _Registry()


class BackendCapabilities:
    def __init__(self, mutable=False):
        self.mutable = mutable


@BACKENDS.register("full")
class FullBackend:
    def __init__(self, corpus):
        self._corpus = corpus
        self._docs = {}

    def num_documents(self):
        return len(self._docs)

    def num_terms(self):
        return 0

    def corpus(self):
        return self._corpus

    def __contains__(self, term):
        return False

    def vocabulary(self):
        return iter(())

    def postings(self, term):
        return []

    def document_frequency(self, term):
        return 0

    def doc_length(self, pos):
        return 0

    def and_query(self, terms):
        return []

    def or_query(self, terms):
        return []

    def capabilities(self):
        return BackendCapabilities(mutable=True)

    def add_all(self, docs):
        for doc in docs:
            self._docs[doc.doc_id] = doc

    def remove(self, doc_id):
        self._docs.pop(doc_id, None)
