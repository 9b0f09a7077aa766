"""Information rates of discrete memoryless channels, uniform-input subset
selection, and a one-bit quantized QPSK MIMO application with a coded link
simulation."""

__version__ = "0.1.0"

from .channel import (
    DmcChannel,
    InputDistribution,
    SubsetMask,
    channel_from_dict,
    channel_to_dict,
    check_channel_dict,
    load_channel,
    restrict,
    save_channel,
)
from .ldpc import BpResult, LdpcCode, bp_decode, build_ldpc
from .link import (
    BerRecord,
    SymbolLabeling,
    average_ber_records,
    compute_llrs_block,
    demap_bits,
    map_bits,
    run_coded_ber,
)
from .mimo import (
    ComplexChannelMatrix,
    SnrPoint,
    build_quantized_mimo,
    enumerate_qpsk_inputs,
    example_h4x4,
    load_h_matrix,
    sample_receive_many,
)
from .rates import (
    BaResult,
    blahut_arimoto,
    cutoff_rate,
    mutual_information,
    per_symbol_misdetect,
    ser_ml,
    uniform_subset_rate,
)
from .sdp import (
    RoundingConfig,
    SdpSelectResult,
    SdpSolution,
    build_gram,
    psd_factorize,
    round_solution,
    sdp_select,
    solve_sdp,
)
from .subset_search import (
    BsaConfig,
    BsaResult,
    bsa_select,
    evaluate_mask,
    exhaustive_select,
)

__all__ = [
    "BaResult",
    "BerRecord",
    "BpResult",
    "BsaConfig",
    "BsaResult",
    "ComplexChannelMatrix",
    "DmcChannel",
    "InputDistribution",
    "LdpcCode",
    "RoundingConfig",
    "SdpSelectResult",
    "SdpSolution",
    "SnrPoint",
    "SubsetMask",
    "SymbolLabeling",
    "average_ber_records",
    "blahut_arimoto",
    "bp_decode",
    "bsa_select",
    "build_gram",
    "build_ldpc",
    "build_quantized_mimo",
    "channel_from_dict",
    "channel_to_dict",
    "check_channel_dict",
    "compute_llrs_block",
    "cutoff_rate",
    "demap_bits",
    "enumerate_qpsk_inputs",
    "evaluate_mask",
    "example_h4x4",
    "exhaustive_select",
    "load_channel",
    "load_h_matrix",
    "map_bits",
    "mutual_information",
    "per_symbol_misdetect",
    "psd_factorize",
    "restrict",
    "round_solution",
    "run_coded_ber",
    "sample_receive_many",
    "save_channel",
    "sdp_select",
    "ser_ml",
    "solve_sdp",
    "uniform_subset_rate",
]
