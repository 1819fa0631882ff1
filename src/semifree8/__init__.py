"""Exact verification and enumeration of fixed point data of semi-free
Hamiltonian circle actions on closed symplectic 8-manifolds with second
Betti number one.

The per-shape enumeration (``enumerate_case``, ``enumerate_all``,
``admissible_dim_pairs``, ...) lives in ``semifree8.enumeration`` and is
loaded on first use of one of its names, so importing the package, or
running any command but ``enumerate``, does not compile it.

All arithmetic is exact (integers, rationals, polynomials over the
rationals); nothing here floats, and the constructors refuse a float,
string or Fraction where an integer belongs rather than truncate it.
"""

__version__ = "0.1.0"

from .classify import (
    ClassifyError,
    Family,
    FanoClassification,
    FanoFamilyRecord,
    catalog,
    classify_fano,
    default_fano_table,
    fano_table_hash,
    index_from_extremal,
    match_fp_class,
    sphere_constraints,
    sphere_index_rules,
    verification_report,
)
from .dataio import DataError, dump_data, dumps_data, load_data, loads_data
from .dh import dh_profile, positivity_check, total_volume
from .localization import (
    FourDimExtremalNormal,
    FourDimSplitNormal,
    PointNormal,
    SixDimNormal,
    SurfaceNormal,
    abbv_sum,
    abbv_terms,
    contribution,
    contribution_series_oracle,
)
from .model import (
    ComponentType,
    FixedComponent,
    FixedPointData,
    betti_vector,
    cp2_extremal,
    cp3_extremal,
    dim_pair,
    fourdim_interior,
    fp_equivalent,
    kirwan_betti,
    point_component,
    reverse_action,
    surface_component,
    validate,
)

# the per-shape enumeration loads on first use of one of its names
_ENUMERATION_NAMES = (
    "ADMISSIBLE_SHAPES", "EnumerationResult", "Rejection", "admissible_dim_pairs",
    "enumerate_all", "enumerate_case",
)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_ENUMERATION_NAMES))


def __getattr__(name):
    # PEP 562: reached only for names this module does not define
    if name in _ENUMERATION_NAMES:
        from . import enumeration
        return getattr(enumeration, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
