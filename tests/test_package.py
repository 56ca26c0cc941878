import dephimetry


def test_star_import_exports_all():
    # a stale __all__ entry would only fail at a user's `import *`
    namespace = {}
    exec("from dephimetry import *", namespace)
    for name in dephimetry.__all__:
        assert hasattr(dephimetry, name), name
        assert namespace[name] is getattr(dephimetry, name)
