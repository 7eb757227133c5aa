"""livcalc: numerical calculus of contractive and half-plane analytic
functions attached to symmetric operators with a one-dimensional defect,
their dissipative extensions, and the coupling laws between them."""

from .core import (
    AnalyticFn,
    EvaluationGrid,
    FnKind,
    ToleranceConfig,
    constant_fn,
    default_grid,
    evaluate_many,
    evaluate_on_grid,
    max_modulus,
    min_imag,
    require_upper,
    sup_deviation,
)
from .coupling import (
    CouplingAngles,
    TaggedCharacteristic,
    add_weyl,
    couple_livsic,
    coupling_angles,
    general_k_identity_defect,
    multiply_characteristic,
    verify_class_properties,
)
from .errors import (
    DegenerateMap,
    EmptyMeasure,
    LivcalcError,
    NotContractive,
    OutOfRange,
    PoleEncountered,
    QuadratureFailed,
    UsageError,
    WindowTooSmall,
)
from .extension import (
    ClassMembershipReport,
    ClassVerdict,
    characteristic_from_livsic,
    class_C_check,
    ensure_kappa,
    extract_kappa,
    reference_change_livsic,
    reference_change_weyl,
)
from .measure import (
    BorelMeasureModel,
    InversionResult,
    SampledDensity,
    livsic_from_weyl,
    normalization_defect,
    realize_herglotz,
    stieltjes_invert,
)
from .model import (
    DeficiencyElement,
    ModelFunctions,
    g_minus,
    g_plus,
    model_closed_forms,
    split_interval_check,
)
from .moebius import MoebiusMap
from .oracle import model_livsic_quadrature

__version__ = "0.1.0"
