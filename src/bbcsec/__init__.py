"""Capacity-equivocation and secrecy regions of the bidirectional broadcast
channel with a confidential message, plus a desk-scale random-coding
simulator that measures error rates and equivocation directly."""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    BroadcastChannel,
    MarginalChannel,
    binary_symmetric,
    from_marginals,
    load_channel,
    marginal,
    save_channel,
)
from .codebook import Codebook, CodebookParams, generate, rate_check  # noqa: F401
from .coding import (  # noqa: F401
    MessageSets,
    encode,
    make_partition,
    transmit,
)
from .exceptions import BbcsecError, GuardError, ValidationError  # noqa: F401
from .probability import (  # noqa: F401
    CondDist,
    Dist,
    chain_joint,
)
from .region import (  # noqa: F401
    AuxChain,
    InfoQuantities,
    MembershipResult,
    RateTuple,
    SearchParams,
    SupportResult,
    bbc_frontier,
    evaluate_chain,
    input_chain,
    membership,
    octant_directions,
    rc_re_star,
    secrecy_frontier,
    support_function,
    full_frontier,
    tuple_satisfied,
)
from .simulate import (  # noqa: F401
    SimConfig,
    SimReport,
    asymptotic_terms,
    equivocation_exact,
    equivocation_mc,
    run,
)

kernel_backend = "numpy"  # the one chain_info implementation, in bbcsec._core
