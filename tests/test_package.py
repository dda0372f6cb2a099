"""The package's top-level namespace."""

import drsplit
from drsplit import certify, funclass, prox, sdplite, splitting


def test_every_public_name_is_exported_at_the_top_level():
    for module in (funclass, prox, splitting, certify, sdplite):
        for name in module.__all__:
            assert getattr(drsplit, name) is getattr(module, name), (module.__name__, name)
            assert name in drsplit.__all__, (module.__name__, name)
