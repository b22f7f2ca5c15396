import pytest

from nearline.synthetic import manifold_classes, separable_clusters


@pytest.mark.parametrize(
    "make, kwargs, message",
    [
        (manifold_classes, {"n_classes": 4}, r"at most 3 classes supported \(2 offset coordinates\)"),
        (manifold_classes, {"ambient_dim": 6}, "ambient_dim must be >= 7"),
        (separable_clusters, {"n_classes": 4}, r"at most 3 classes supported \(2 center coordinates\)"),
        (separable_clusters, {"d": 2}, "d must be >= 3"),
    ],
)
def test_argument_guards(make, kwargs, message):
    with pytest.raises(ValueError, match=message):
        make(**kwargs)


@pytest.mark.parametrize(
    "make, kwargs, d",
    [(manifold_classes, {"ambient_dim": 7}, 7), (separable_clusters, {"d": 3}, 3)],
)
def test_guard_bounds_are_accepted(make, kwargs, d):
    ds = make(n_per_class=4, n_classes=3, **kwargs)
    assert (ds.n, ds.d) == (12, d)
