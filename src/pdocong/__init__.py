"""Exact q-series and xi-polynomial machinery for PDO internal congruences."""

from types import ModuleType as _ModuleType

from .congruence import (
    CongruenceReport,
    CongruenceSpec,
    DivisibilitySpec,
    FAMILIES,
    ScanResult,
    main_family_spec,
    scan,
    verify,
    verify_corollary,
    verify_main,
    verify_ramanujan,
    verify_strengthened,
)
from .etaq import (
    DELTA,
    GAMMA,
    KAPPA,
    XI,
    EtaQuotientSpec,
    PdoTable,
    delta_series,
    euler_series,
    expand,
    gamma_series,
    kappa_series,
    pdo_bruteforce,
    pdo_series,
    xi_series,
)
from .padic import (
    INFINITY,
    ProfileReport,
    check_f_profile,
    check_z_profile,
    nu2,
    profile,
    tau,
)
from .series import NonUnitError, Series
from .xipoly import (
    XiPoly,
    d_min,
    gamma6_poly,
    lambda_poly,
    phi_poly,
    phi_poly_direct,
    poly_to_series,
    zeta,
    zeta_initial,
)

# every public name imported above; the submodules bound by those imports are left out
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
