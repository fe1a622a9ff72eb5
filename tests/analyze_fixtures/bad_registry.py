"""REG001/REG002 seeds: registered classes that break their contracts.

``StubBackend`` registers into ``BACKENDS`` but implements a fraction
of the backend surface (REG001), and its ``capabilities()`` claims
``mutable=True`` without defining ``add_all``/``remove`` (REG002).
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


@BACKENDS.register("stub")
class StubBackend:
    def __init__(self, corpus):
        self._corpus = corpus

    def num_documents(self):
        return len(self._corpus)

    def postings(self, term):
        return []

    def capabilities(self):
        return BackendCapabilities(mutable=True)
