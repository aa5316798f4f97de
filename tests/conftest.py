import sys

import pytest

from lowrank import rings


@pytest.fixture
def ring_elements_built(monkeypatch):
    """A list that records the value of every RingElement built from here
    on, by either constructor: RingElement.__init__ and rings._trusted,
    the latter patched in every lowrank module that imported it."""
    built = []
    init = rings.RingElement.__init__
    trusted = rings._trusted

    def counted_init(self, spec, value):
        built.append(value)
        init(self, spec, value)

    def counted_trusted(spec, value):
        built.append(value)
        return trusted(spec, value)

    monkeypatch.setattr(rings.RingElement, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("lowrank") and getattr(module, "_trusted", None) is trusted:
            monkeypatch.setattr(module, "_trusted", counted_trusted)
    return built
