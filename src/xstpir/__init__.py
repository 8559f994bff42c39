"""X-secure T-private information retrieval over prime fields.

Components:

- field: exact prime-field arithmetic, GF(2) included;
- csa: the cross-subspace-alignment scheme for N > X + T servers;
- special: download-everything (N <= X + T), the three-server bit scheme,
  and the symmetrically secure N = X + 1 scheme;
- capacity: exact rate and capacity formulas as Fractions;
- scheme: one class per scheme behind one interface (storage, queries,
  answer map, decoder, randomness, wire payloads, closed-form rate), and
  the registry that sim, audit and cli find the schemes through;
- audit: exact distribution audits (security, privacy, symmetric
  security, correctness) with exact total-variation distances: by rank
  tests where the scheme declares the map an audit reads affine (`linear`
  for shares and answers, read by security and sym-security, as every
  scheme does; `linear_queries` for queries, read by privacy), by an
  identity test for correctness given `linear`, else by enumeration;
- sim: server objects behind a synchronous wire transport, wire format,
  replayable and validated transcripts;
- cli: the xstpir command.
"""

from .capacity import (
    c_n3,
    c_pir,
    c_tpir,
    finite_k_rate,
    mds_pir_asym,
    mds_pir_rate,
    xstpir_asymptotic,
    xstpir_upper_bound,
)
from .csa import (
    CsaParams,
    MessageSet,
    StorageShare,
    answer,
    choose_alphas,
    decode,
    decoding_matrix,
    delta,
    delta_except,
    encode_storage,
    gen_queries,
)
from .field import (
    FieldMismatchError,
    InsufficientFieldError,
    PrimeField,
    SingularMatrixError,
    smallest_valid_prime,
    solve_linear,
)
from .sim import (
    ProtocolInvariantError,
    RetrievalRun,
    Transcript,
    WireMessage,
    empirical_rate,
    replay,
    run_retrieval,
)
from .special import (
    DownloadAllParams,
    SymXspirParams,
    build_B,
    download_all_decode,
    download_all_encode,
)

__all__ = [
    "CsaParams", "DownloadAllParams",
    "FieldMismatchError", "InsufficientFieldError", "MessageSet",
    "PrimeField", "ProtocolInvariantError", "RetrievalRun",
    "SingularMatrixError", "StorageShare",
    "SymXspirParams", "Transcript", "WireMessage", "answer",
    "build_B", "c_n3", "c_pir", "c_tpir", "choose_alphas",
    "decode", "decoding_matrix", "delta", "delta_except",
    "download_all_decode", "download_all_encode", "empirical_rate",
    "encode_storage", "finite_k_rate", "gen_queries", "mds_pir_asym",
    "mds_pir_rate", "replay", "run_retrieval", "smallest_valid_prime",
    "solve_linear", "xstpir_asymptotic", "xstpir_upper_bound",
]

__version__ = "0.1.0"
