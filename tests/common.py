"""Sample algebras and helpers shared by the test modules."""

from lowrank import GF, StructureConstants


def f4_algebra():
    """Rank-2 table over F2 with x^2 = x + 1 (the four-element field)."""
    spec = GF(2)
    o, z = spec.one, spec.zero
    return StructureConstants(spec, [[[o, z], [z, o]], [[z, o], [o, o]]])


def random_algebra_element(alg, rng, span=9):
    spec = alg.spec
    if spec.kind == "Fp":
        return alg.element([rng.randrange(spec.p) for _ in range(alg.rank)])
    return alg.element([rng.randint(-span, span) for _ in range(alg.rank)])


def horner(f, x, one):
    """f(x) by Horner's rule for a square matrix or an algebra element x,
    with `one` the identity that the coefficients embed along."""
    acc = one * f.spec.zero
    for c in reversed(f.coeffs):
        acc = acc * x + one * c
    return acc


def count_kernel_calls(monkeypatch):
    """A list that records, by name, every call into the table's product
    and linear-extension loops (_mul_values and _combine_values)."""
    calls = []
    for name in ("_mul_values", "_combine_values"):
        kernel = getattr(StructureConstants, name)

        def counted(self, u, v, kernel=kernel, name=name):
            calls.append(name)
            return kernel(self, u, v)

        monkeypatch.setattr(StructureConstants, name, counted)
    return calls
