"""germlab: exact-arithmetic classification of polynomial map-germs up to
orientation-preserving A-equivalence (A-isotopy), plus a perturbation lab
that enumerates the Morin points of stable perturbations of simple germs.
"""

from .polyring import Poly, rat, DimensionError
from .germ import (MapGerm, PreparedForm, prepared_form, translate,
                   GermError, NotCorankOneError, DegenerateGermError)
from .morin import (ClassLabel, recognize_morin, morin_invariants,
                    normal_form, class_count, invariant_kind)
from .lowdim import classify_plane, classify_surface
from .sigma20 import (classify_sigma20, hyp_normal_form, elli_normal_form,
                      DegenerateSigmaError)
from .perturb import (UnfoldingSpec, MorinPoint, PerturbationReport,
                      build_unfolding, morin_points, sweep,
                      table_discrepancy_report, report_to_dict)
from .germparse import parse_map, render_map, ParseError

__version__ = "0.1.0"
