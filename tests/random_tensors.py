"""Random test tensors, importable from every test module (unlike ``conftest``,
whose name ``perfbench/tests`` also uses)."""


def random_tensor(rng, n1, n2, n3, scale=1.0):
    return scale * rng.normal(size=(n1, n2, n3))
