"""Exact universal series for tautological integrals over Hilbert schemes
of points on surfaces, verified against an equivariant localization oracle."""

from .series import (
    BranchError,
    CompositionError,
    ConstantTermError,
    OrderMismatchError,
    ReversionError,
    Series,
    SeriesError,
    solve_algebraic,
)
from .catalog import (
    SeriesEntry,
    UnknownSeriesError,
    chern_A,
    chern_full,
    segre_A,
    segre_full,
    segre_rank2_branch,
    verlinde_B,
    verlinde_full,
    verlinde_r3_branch,
)
from .localization import (
    EqKClass,
    ToricSurface,
    chern_integral,
    enumerate_fixed_points,
    get_surface,
    parse_class,
    segre_integral,
    segre_series,
    verlinde_chi,
    verlinde_series,
)
from .extraction import (
    Panel,
    PanelError,
    UniversalityError,
    build_panel,
    extract_universal,
    extract_verlinde,
    predict_unknown,
    predict_verlinde,
    solve_exact,
)
from .verify import CheckReport, run_suite, suite_names

__version__ = "0.1.0"
