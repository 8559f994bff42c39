"""One class per retrieval scheme, and the registry that finds them.

The paper defines a scheme once: a storage code, a query code, an answer
map and a decoder. A `Scheme` here owns all of that for one scheme, along
with its randomness (enumerated for the audits, sampled for retrievals),
the flat integer payloads its shares travel as, and its closed-form rate.
A query is its wire payload in every scheme: a tuple of ints, the vector
whose inner product with its store a server returns. The simulator
(`sim`), the audits (`audit`) and the command line (`cli`) hold no
per-scheme code: they reach a scheme through this interface, `SCHEMES`
(by name) and `for_params` (by params type).

Adding a scheme: subclass `Scheme`, set `params_type` and the attributes
its docstring lists in `__init__`, implement the methods that raise
NotImplementedError (with `queries` returning the N wire payloads),
override the defaults that do not fit (`share_payloads` only where a
share is not its own payload, `_make` where the params are not
`params_type.make(N, K, X, T, p=p)`), and add the class to `SCHEMES`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, count
from operator import mul
from typing import Sequence

from . import capacity, csa, special
from .csa import CsaParams, MessageSet, QueryNoise, StorageNoise
from .field import Space, reshape
from .special import DownloadAllParams, SymXspirParams

Payload = tuple[int, ...]
# Schemes kept per params value (and per dimensions); a run uses one or a few.
_SCHEMES = 16


class Scheme:
    """One retrieval scheme.

    `__init__` sets `params` (what `sim.run_retrieval` takes), the header
    dimensions N, K, X, T, p and L, the Spaces `messages` (values laid out
    as K rows of L symbols, row k being message k + 1), `storage_noises`
    and `query_randomness`, `query_symbols` (the length of every query
    payload) and `query_alphabet` (the values a query symbol may take).

    `queries` returns the N query payloads, tuples of ints, as they travel
    on the wire and key the audits' tables. Shares stay in the scheme's
    native form; `share_payloads` gives their flat integer payloads (a csa
    share holds its own). `answer` is the per-server answer map, from a
    share and a query payload to the answer payload; `answer_symbols` tells
    from a query payload how many symbols the answer carries, 0 meaning
    the server owes nothing and replies ANSWER_EMPTY.

    Two flags declare maps affine mod p in Space values of base p; only
    `audit.exact_engine` reads them. `linear`: the share payloads are
    affine in (messages, storage noise), `answer_rows` declares each
    answer, `decode` is affine in the answers, and `plaintext` is message
    theta's row of the `messages` values; security and sym-security are
    then decided by rank tests, and correctness by the identity test on
    each (theta, query realization). `linear_queries`: each theta's query
    payloads are affine in the query randomness, which enters them the same
    way for every theta; privacy is then decided by rank tests. With both,
    `answer_rows` is affine in the query payload, and the identity test
    reads the query map once instead of each realization. The audits check
    each declaration against the scheme's own calls at the check point of
    `affine.points`, so a declaration alone cannot pass.
    """

    name = ""
    params_type: type = object
    linear = linear_queries = False

    @classmethod
    @lru_cache(maxsize=_SCHEMES, typed=True)
    def make(cls, N: int, K: int, X: int, T: int, p: int | None = None) -> "Scheme":
        """The scheme at these dimensions, one per class and dimensions and
        shared, so callers must not mutate it; ValueError names the regime
        it needs."""
        for key, value in (("N", N), ("K", K), ("X", X), ("T", T)):
            if value < 1:
                raise ValueError(f"{key} must be a positive integer, got {value}")
        return cls._make(N, K, X, T, p)

    @classmethod
    def _make(cls, N: int, K: int, X: int, T: int, p: int | None) -> "Scheme":
        # the params check their own regime
        return cls(cls.params_type.make(N, K, X, T, p=p))

    @property
    def thetas(self) -> range:
        return range(1, self.K + 1)

    def check_theta(self, theta: int) -> None:
        if not 1 <= theta <= self.K:
            raise ValueError(f"theta must be in 1..{self.K}")

    def header(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in ("N", "K", "X", "T", "p", "L")}

    def describe(self) -> str:
        return f"{self.name} N={self.N} K={self.K} X={self.X} T={self.T} p={self.p}"

    def storage(self, messages, noise) -> tuple:
        raise NotImplementedError

    def queries(self, theta: int, randomness) -> tuple[Payload, ...]:
        raise NotImplementedError

    def share_payloads(self, shares) -> tuple[Payload, ...]:
        return tuple(shares)

    def answer(self, share, query: Payload) -> Payload | None:
        raise NotImplementedError

    def answer_symbols(self, query: Payload) -> int:
        return self.K

    def answer_rows(self, query: Payload):
        """The answer to `query` as a linear map of the share payload, for a
        scheme declared `linear`: per answer symbol its row (js, aj), the
        share indices and coefficients of its nonzero terms; None where the
        server replies ANSWER_EMPTY."""
        raise NotImplementedError

    def check_retrieves(self, theta: int, queries: Sequence[Sequence[int]]) -> None:
        """Raise ValueError unless the query payloads (tuples or bytes), in
        server order and of checked length and alphabet, retrieve message
        theta. The default, which checks nothing, fits queries that do not
        depend on theta."""

    def decode(self, theta: int, answers: Sequence[Payload | None]) -> Payload:
        raise NotImplementedError

    def plaintext(self, messages, theta: int) -> Payload:
        return messages.message(theta)

    def closed_form_rate(self) -> Fraction:
        raise NotImplementedError


def _inner(query: Payload) -> tuple:
    """One answer symbol: the inner product of the share with `query`."""
    return ((tuple(compress(count(), query)), tuple(filter(None, query))),)


class CsaScheme(Scheme):
    """Cross-subspace alignment, for N > X + T."""

    name = "csa"
    params_type = CsaParams
    linear = linear_queries = True

    def __init__(self, params: CsaParams):
        self.params = params
        self.N, self.K, self.X, self.T = params.N, params.K, params.X, params.T
        self.p, self.L = params.p, params.L
        self.messages = MessageSet.space(params.K, params.L, params.field)
        self.storage_noises = StorageNoise.space(params)
        self.query_randomness = QueryNoise.space(params)
        self.query_symbols = params.L * params.K
        self.query_alphabet = range(self.p)

    def storage(self, messages, noise):
        return csa.encode_storage(messages, noise, self.params)

    def queries(self, theta, randomness):
        return csa.gen_queries(theta, randomness, self.params)

    def share_payloads(self, shares):
        return tuple(s.payload for s in shares)

    def answer(self, share, query):
        return (csa.answer(share, query),)

    def answer_symbols(self, query):
        return 1 if any(query) else 0

    def answer_rows(self, query):
        return _inner(query)

    def check_retrieves(self, theta, queries):
        """Each block's queries, unscaled and evaluated at u = 0, must give
        the unit vector of theta (see `csa.constant_terms`)."""
        unit = tuple(int(k == theta) for k in range(1, self.K + 1))
        if any(v != unit for v in csa.constant_terms(queries, self.params)):
            raise ValueError(f"the queries do not retrieve message {theta}")

    def decode(self, theta, answers):
        return csa.decode([a[0] if a else 0 for a in answers], self.params)

    def closed_form_rate(self):
        return capacity.finite_k_rate(self.N, self.X, self.T, self.K, self.p, self.L)


class DownloadAllScheme(Scheme):
    """Download everything, for X < N <= X + T: every server sends its
    whole store and the user strips the noise."""

    name = "download_all"
    params_type = DownloadAllParams
    linear = linear_queries = True

    def __init__(self, params: DownloadAllParams):
        self.params = params
        self.N, self.K, self.X, self.T = params.N, params.K, params.X, params.T
        self.p, self.L = params.p, params.L
        self.messages = MessageSet.space(params.K, params.L, params.field)
        shape = (self.K, self.X)  # per message its X noise symbols
        self.storage_noises = Space(self.p, self.K * self.X, lambda v: reshape(v, shape))
        # The request is constant: there is no query randomness.
        self.query_randomness = Space(self.p, 0, lambda v: None)
        self.query_symbols = 0
        self.query_alphabet = range(self.p)

    def storage(self, messages, noise):
        return special.download_all_encode(messages, noise, self.params)

    def queries(self, theta, randomness):
        return ((),) * self.N

    # check_retrieves keeps the default: the queries are empty, so a replay
    # can only tell theta by re-decoding against the DECODED line.

    def answer(self, share, query):
        return share

    def answer_rows(self, query):
        return tuple(((k,), (1,)) for k in range(self.K))

    def decode(self, theta, answers):
        return special.download_all_decode(answers, self.params)[theta - 1]

    def closed_form_rate(self):
        return Fraction(self.N - self.X, self.N * self.K)


class BinaryScheme(Scheme):
    """The three-server bit scheme over GF(2) (N = 3, X = T = 1).

    `b` replaces the K x K matrix B of `special.build_B`, given like it as
    K rows of ints in {0, 1}; audits inject invalid ones to probe how they
    react to a corrupted instance.
    """

    name = "binary_n3"
    params_type = int
    linear = linear_queries = True

    def __init__(self, k: int, b=None):
        self.params = k
        self.N, self.K, self.X, self.T, self.p, self.L = 3, k, 1, 1, 2, 1
        if b is not None:
            self.b = b
        self.messages = self.storage_noises = self.query_randomness = Space(2, k, tuple)
        self.query_symbols = k
        self.query_alphabet = range(2)

    @cached_property
    def b(self):
        return special.build_B(self.K)

    @classmethod
    def _make(cls, N, K, X, T, p):
        if (N, X, T) != (3, 1, 1):
            raise ValueError("binary_n3 is fixed at N=3, X=1, T=1")
        if K < 2:
            raise ValueError(
                "binary_n3 needs K >= 2: no K x K bit matrix B has both "
                "B and I+B invertible at K=1"
            )
        if p not in (None, 2):
            raise ValueError("binary_n3 runs over GF(2); drop --prime")
        return cls(K)

    def storage(self, messages, noise):
        return special.binary_storage(messages, noise, self.b)

    def queries(self, theta, randomness):
        return special.binary_queries(theta, randomness, self.b)

    def answer(self, share, query):
        """The inner product over GF(2); None for the free all-zero query."""
        if not any(query):
            return None
        if len(share) != len(query):
            raise ValueError("dimension mismatch")
        return (sum(map(mul, share, query)) % 2,)

    def answer_symbols(self, query):
        return 1 if any(query) else 0

    def answer_rows(self, query):
        return _inner(query) if any(query) else None

    def check_retrieves(self, theta, queries):
        """q1 + q2 must be the unit vector of theta; server 1's query is the
        randomness Z' itself, so all three queries are rebuilt from it."""
        if tuple(map(tuple, queries)) != self.queries(theta, queries[0]):
            raise ValueError(f"the queries do not retrieve message {theta}")

    def decode(self, theta, answers):
        return (sum(a[0] for a in answers if a) % 2,)

    def plaintext(self, messages, theta):
        return (messages[theta - 1],)

    def closed_form_rate(self):
        return capacity.finite_k_rate(3, 1, 1, self.K, 2, 1)


class SymXspirScheme(Scheme):
    """The symmetrically secure scheme for N = X + 1, T = 1: the user
    learns message theta and nothing about the others."""

    name = "sym_xspir"
    params_type = SymXspirParams
    # Shares, and the answers to a fixed query, are affine in (messages,
    # noise); the queries are column indices, not affine in m_o.
    linear = True

    def __init__(self, params: SymXspirParams):
        self.params = params
        self.N, self.K, self.X, self.T = params.N, params.K, params.X, 1
        self.p, self.L = params.p, 1
        k = params.K
        self.messages = Space(self.p, k, tuple)
        # z[x][k][m]: noise-server x+1's symbol for message k+1, column m+1.
        shape = (self.X, k, k)
        self.storage_noises = Space(self.p, self.X * k * k, lambda v: reshape(v, shape))
        # The private column m_o, uniform on 1..K.
        self.query_randomness = Space(k, 1, lambda v: v[0] + 1)
        self.query_symbols = k
        self.query_alphabet = range(1, k + 1)

    @classmethod
    def _make(cls, N, K, X, T, p):
        if N != X + 1:
            raise ValueError("sym_xspir needs N = X + 1")
        if T != 1:
            raise ValueError("sym_xspir is single-query-private: T must be 1")
        return cls(SymXspirParams.make(X, K, p=p))

    def storage(self, messages, noise):
        return special.sym_xspir_storage(messages, noise, self.params)

    def queries(self, theta, randomness):
        return special.sym_xspir_queries(theta, randomness, self.params)

    def share_payloads(self, shares):
        return tuple(tuple(chain.from_iterable(grid)) for grid in shares)

    def answer(self, share, query):
        """Entry (k, query[k]) of the stored K x K grid, per message slot k."""
        if len(query) != len(share):
            raise ValueError("need one column index per message")
        return tuple(share[k][m - 1] for k, m in enumerate(query))

    def answer_rows(self, query):
        return tuple(((k * self.K + m - 1,), (1,)) for k, m in enumerate(query))

    def check_retrieves(self, theta, queries):
        """Server N's first column is wrap(m_o - theta + 1), with m_o the
        column every other server is asked for, so all queries are rebuilt
        from m_o = server 1's first column."""
        if tuple(map(tuple, queries)) != self.queries(theta, queries[0][0]):
            raise ValueError(f"the queries do not retrieve message {theta}")

    def decode(self, theta, answers):
        value = answers[-1][theta - 1] - sum(a[theta - 1] for a in answers[: self.X])
        return (value % self.p,)

    def plaintext(self, messages, theta):
        return (messages[theta - 1] % self.p,)

    def closed_form_rate(self):
        return Fraction(1, self.K * self.N)


SCHEMES: dict[str, type[Scheme]] = {
    cls.name: cls for cls in (CsaScheme, DownloadAllScheme, BinaryScheme, SymXspirScheme)
}


@lru_cache(maxsize=_SCHEMES, typed=True)
def for_params(params) -> Scheme:
    """The scheme that runs `params`: CsaParams, DownloadAllParams,
    SymXspirParams, or an int K for the three-server bit scheme. The same
    scheme is returned for equal params, so callers must not mutate it."""
    for cls in SCHEMES.values():
        if type(params) is cls.params_type:
            return cls(params)
    raise TypeError(f"no scheme runs {type(params).__name__}")


def from_header(name: str, header: dict[str, int]) -> Scheme:
    """The scheme a transcript header names, shared like `Scheme.make`'s.
    ValueError if it names none, or dimensions that scheme does not have."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r}")
    scheme = SCHEMES[name].make(header["N"], header["K"], header["X"], header["T"], header["p"])
    if scheme.header() != header:
        raise ValueError(f"header {header} does not match {scheme.describe()} L={scheme.L}")
    return scheme
