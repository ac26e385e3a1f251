import math

import numpy as np
import pytest

from sepdiff import (
    JumpKernel,
    KernelClass,
    NotAProbabilityError,
    OriginMassError,
    OutOfRangeError,
    ReducibleError,
    TorusGeometry,
    TorusSizeError,
    build_kernel,
    classify,
    symmetrize,
    validate,
)


def test_entries_sorted_and_fractions_parsed():
    k = build_kernel(1, [((2,), "1/3"), ((-1,), "2/3")])
    assert k.entries == (((-1,), 2.0 / 3.0), ((2,), 1.0 / 3.0))
    assert k.range == 2
    assert k.probability((2,)) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert k.probability((5,)) == 0.0


def test_scalar_displacement_promoted_in_1d():
    k = build_kernel(1, [(1, 0.5), (-1, 0.5)])
    assert k.support == ((-1,), (1,))


def test_fractional_displacement_refused():
    for z in ((1.5,), (float("inf"),), (float("nan"),)):
        with pytest.raises(OutOfRangeError, match="whole-number"):
            build_kernel(1, [(z, 0.5), ((-1,), 0.5)])
    with pytest.raises(OutOfRangeError, match="whole-number"):
        build_kernel(2, [((1, 0.5), 0.5), ((-1, 0), 0.5)])
    # whole numbers written as floats are the same displacement
    k = build_kernel(1, [((2.0,), 0.5), ((-1.0,), 0.5)])
    assert k.support == ((-1,), (2,))
    assert all(type(c) is int for z in k.support for c in z)


def test_probability_sum_checked():
    with pytest.raises(NotAProbabilityError):
        build_kernel(1, [((1,), 0.7)])
    # fsum keeps an awkward but exact decomposition acceptable
    build_kernel(1, [((1,), 0.1)] + [((k,), 0.3) for k in (-1, 2, -2)])


def test_empty_nonpositive_duplicate_rejected():
    with pytest.raises(NotAProbabilityError):
        build_kernel(1, [])
    with pytest.raises(NotAProbabilityError):
        build_kernel(1, [((1,), 1.5), ((-1,), -0.5)])
    with pytest.raises(NotAProbabilityError):
        validate(JumpKernel(1, (((1,), 0.5), ((1,), 0.5))))
    # weights that do not parse as a number
    for p in ("x", "1/0", None, [0.5]):
        with pytest.raises(NotAProbabilityError):
            build_kernel(1, [((1,), p), ((-1,), 0.5)])


def test_origin_mass_rejected():
    with pytest.raises(OriginMassError):
        build_kernel(1, [((0,), 0.5), ((1,), 0.5)])
    with pytest.raises(OriginMassError):
        build_kernel(2, [((0, 0), 1.0)])


def test_lattice_generation():
    with pytest.raises(ReducibleError):
        build_kernel(1, [((2,), 0.5), ((-2,), 0.5)])
    with pytest.raises(ReducibleError):
        build_kernel(2, [((1, 0), 0.5), ((-1, 0), 0.5)])
    # {+2, -3} generates Z via gcd
    build_kernel(1, [((2,), 0.5), ((-3,), 0.5)])
    # diagonal pair spans Z^2: dets are 2, so adding e1 is needed
    with pytest.raises(ReducibleError):
        build_kernel(2, [((1, 1), 0.5), ((1, -1), 0.5)])
    build_kernel(2, [((1, 1), 0.4), ((1, -1), 0.4), ((1, 0), 0.2)])


def test_classify_all_three_classes(nn1d, meanzero1d, totally_asym1d):
    cls, mean = classify(nn1d)
    assert cls is KernelClass.SYMMETRIC
    assert np.allclose(mean, 0.0)
    cls, mean = classify(meanzero1d)
    assert cls is KernelClass.MEAN_ZERO
    assert abs(mean[0]) <= 1e-12
    cls, mean = classify(totally_asym1d)
    assert cls is KernelClass.ASYMMETRIC
    assert mean[0] == pytest.approx(1.0)


def test_symmetrize(meanzero1d, nn1d):
    s = symmetrize(meanzero1d)
    cls, _ = classify(s)
    assert cls is KernelClass.SYMMETRIC
    assert s.probability((1,)) == pytest.approx(1.0 / 3.0)
    assert s.probability((-1,)) == pytest.approx(1.0 / 3.0)
    assert s.probability((2,)) == pytest.approx(1.0 / 6.0)
    assert s.probability((-2,)) == pytest.approx(1.0 / 6.0)
    assert math.fsum(p for _, p in s.entries) == pytest.approx(1.0, abs=1e-12)
    assert symmetrize(nn1d).entries == nn1d.entries


def test_geometry_enumeration_row_major():
    geo = TorusGeometry(1, 2)
    assert geo.sites == [(-1,), (0,), (1,), (2,)]
    assert geo.env_sites == [(-1,), (1,), (2,)]
    assert geo.n_sites == 4
    assert geo.n_env_sites == 3
    geo2 = TorusGeometry(2, 1)
    assert geo2.sites == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert geo2.env_sites == [(0, 1), (1, 0), (1, 1)]


def test_wrap_canonical_window():
    geo = TorusGeometry(1, 3)
    # canonical representatives are {-2, ..., 3}
    assert geo.wrap((3,)) == (3,)
    assert geo.wrap((4,)) == (-2,)
    assert geo.wrap((-3,)) == (3,)
    assert geo.wrap((9,)) == (3,)
    assert geo.wrap((0,)) == (0,)
    geo2 = TorusGeometry(2, 2)
    assert geo2.wrap((2, -2)) == (2, 2)
    assert geo2.wrap((5, 4)) == (1, 0)


def test_env_index_round_trip_and_origin_rejected():
    geo = TorusGeometry(2, 2)
    for i, s in enumerate(geo.env_sites):
        assert geo.env_index(s) == i
    assert geo.env_index((-3, 1)) == geo.env_index((1, 1))
    with pytest.raises(OutOfRangeError):
        geo.env_index((0, 0))
    with pytest.raises(OutOfRangeError):
        geo.env_index((4, 0))


def test_kernel_must_fit_torus(nn1d):
    far = build_kernel(1, [((3,), 0.5), ((-3,), 0.3), ((1,), 0.2)])
    geo = TorusGeometry(1, 3)   # side 6 == 2 * range: ambiguous wrap
    with pytest.raises(TorusSizeError):
        geo.require_kernel_fits(far)
    TorusGeometry(1, 4).require_kernel_fits(far)
    with pytest.raises(TorusSizeError):
        TorusGeometry(1, 1).require_kernel_fits(nn1d)
    with pytest.raises(TorusSizeError):
        TorusGeometry(2, 2).require_kernel_fits(nn1d)


def test_bad_constructor_arguments():
    for d, N in ((0, 2), (1, 0), (1, 2.5), (1.5, 2), (True, 2), (1, "2")):
        with pytest.raises(OutOfRangeError):
            TorusGeometry(d, N)
    # whole numbers written as floats are the same torus
    geo = TorusGeometry(2.0, 3.0)
    assert (geo.dimension, geo.N) == (2, 3) and type(geo.N) is int
    with pytest.raises(OutOfRangeError):
        build_kernel(1, [((1, 0), 1.0)])
