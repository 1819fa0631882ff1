"""Exact verification and enumeration of fixed point data of semi-free
Hamiltonian circle actions on closed symplectic 8-manifolds with second
Betti number one.

Three parts that no verification runs live in modules of their own,
each loaded on first use of one of its names, so importing the package
compiles none of them and each command compiles only what it runs:

* the per-shape enumeration (``enumerate_case``, ``enumerate_all``,
  ``admissible_dim_pairs``, ...), in ``semifree8.enumeration``, which only
  ``enumerate`` loads;
* the volume filter on the Fano table (``classify_fano``,
  ``FanoClassification``), in ``semifree8.fano``, which only
  ``classify-fano`` loads;
* the series oracle of the localization sum
  (``contribution_series_oracle``), in ``semifree8.rings``, which no
  command loads.

All arithmetic is exact (integers, rationals, polynomials over the
rationals); nothing here floats, and the constructors refuse a float,
string or Fraction where an integer belongs rather than truncate it.
"""

__version__ = "0.1.0"

from .classify import (
    ClassifyError,
    Family,
    FanoFamilyRecord,
    catalog,
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
from .record import serve_lazily as _serve_lazily

# name -> the module that defines it, loaded on first use (see above)
_SERVED = {
    **dict.fromkeys((
        "ADMISSIBLE_SHAPES", "EnumerationResult", "Rejection", "admissible_dim_pairs",
        "enumerate_all", "enumerate_case",
    ), "enumeration"),
    **dict.fromkeys(("FanoClassification", "classify_fano"), "fano"),
    "contribution_series_oracle": "rings",
}
__getattr__ = _serve_lazily(globals(), _SERVED)

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + list(_SERVED))
