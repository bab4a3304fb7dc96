import obstaclesim


def test_every_export_resolves():
    # a stale name in __all__ would only fail at ``from obstaclesim import *``
    missing = [name for name in obstaclesim.__all__ if not hasattr(obstaclesim, name)]
    assert missing == []
    assert len(set(obstaclesim.__all__)) == len(obstaclesim.__all__)
    namespace = {}
    exec("from obstaclesim import *", namespace)
    assert set(obstaclesim.__all__) <= set(namespace)
