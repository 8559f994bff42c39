"""Retrieval schemes outside the aligned regime.

Three constructions live here:

- download-everything for N <= X + T servers: noise is spread by an MDS code
  whose last X coordinates carry no message symbols, the user downloads all
  N*K stored symbols, strips the noise, and keeps message theta;
- the three-server single-bit scheme over GF(2) for N = 3, X = T = 1, built
  around a K x K bit matrix B with B and I + B both invertible;
- the replication-based symmetrically secure scheme for N = X + 1, where the
  user learns message theta and provably nothing about the other messages.

Their params, storage and query maps and decoders live here; each scheme's
noise space and answer map live in its class in `scheme`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Sequence

from .csa import MessageSet
from .field import InsufficientFieldError, PrimeField, is_prime, smallest_valid_prime, solve_linear


@dataclass(frozen=True)
class DownloadAllParams:
    """Parameters for the download-everything scheme, valid when X < N <= X+T.

    Messages have L = N - X symbols. The modulus must exceed N so that the
    noise code has N distinct nonzero evaluation points.
    """

    N: int
    K: int
    X: int
    T: int
    p: int

    def __post_init__(self):
        if self.K < 1 or self.T < 1 or self.X < 0:
            raise ValueError("need K >= 1, T >= 1, X >= 0")
        if not self.X < self.N <= self.X + self.T:
            raise ValueError("download_all needs X < N <= X + T; for N > X + T use csa, "
                             "the aligned scheme")
        if not is_prime(self.p) or self.p <= self.N:
            raise InsufficientFieldError(
                f"need a prime p > N = {self.N} for N distinct nonzero code points"
            )

    @classmethod
    def make(cls, N: int, K: int, X: int, T: int, p: int | None = None) -> "DownloadAllParams":
        if p is None:
            p = smallest_valid_prime(N, 1)
        return cls(N, K, X, T, p)

    @property
    def L(self) -> int:
        return self.N - self.X

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.p)


def _noise_generator(params: DownloadAllParams) -> list[list[int]]:
    """N x X generator spreading X noise symbols across the servers.

    Entry (n, x) is n^(x+1) at the nonzero points 1..N; every X x X submatrix
    is a scaled Vandermonde block and hence invertible, so any X coordinates
    of the codeword are an invertible image of the noise.
    """
    p = params.p
    return [[pow(n, x + 1, p) for x in range(params.X)] for n in range(1, params.N + 1)]


def download_all_encode(
    messages: MessageSet,
    noise: Sequence[Sequence[int]],
    params: DownloadAllParams,
) -> tuple[tuple[int, ...], ...]:
    """Store one symbol per message per server.

    Message k is padded with X zeros to length N and added to the noise
    codeword; server n keeps coordinate n of each sum. Any X servers see an
    invertible image of pure noise.
    """
    messages.check(params)
    if len(noise) != params.K or any(len(zk) != params.X for zk in noise):
        raise ValueError("noise must be K x X")
    p, L = params.p, params.L
    return tuple(
        tuple(
            ((row[n] if n < L else 0) + sum(map(mul, g, zk))) % p
            for row, zk in zip(messages.symbols, noise)
        )
        for n, g in enumerate(_noise_generator(params))
    )


@lru_cache(maxsize=16)  # params values; a run uses one or a few
def _download_all_decoder(params: DownloadAllParams) -> tuple[tuple[int, ...], ...]:
    """Decoder row n < L over a stored column's N symbols: the unit vector
    of n, then -g_n G^-1 over the last X, the noise at n read from there (G
    is the noise generator's X x X tail, g_n its row n)."""
    p, L, x, gen = params.p, params.L, params.X, _noise_generator(params)
    inverse = solve_linear(gen[L:], [[int(i == j) for j in range(x)] for i in range(x)], p)
    return tuple(tuple(int(j == n) for j in range(L)) + tuple(-sum(map(mul, g, col)) % p for col in zip(*inverse))
                 for n, g in enumerate(gen[:L]))


def download_all_decode(
    payloads: Sequence[Sequence[int]], params: DownloadAllParams
) -> tuple[tuple[int, ...], ...]:
    """Recover all K messages from the full N x K download.

    The last X coordinates of each stored column are pure noise through an
    invertible block, so the noise is read from there and subtracted
    everywhere else: one mat-vec per column with the L decoder rows, which
    are computed once per params value (`_download_all_decoder`).
    """
    if len(payloads) != params.N or any(len(row) != params.K for row in payloads):
        raise ValueError("need the full N x K download")
    p, decoder = params.p, _download_all_decoder(params)
    return tuple(tuple(sum(map(mul, row, column)) % p for row in decoder) for column in zip(*payloads))


def build_B(k: int) -> tuple[tuple[int, ...], ...]:
    """A K x K bit matrix B, as K rows of ints in {0, 1}, with B and I + B
    both invertible over GF(2), for any K >= 2.

    Every K: ones on the anti-diagonal i + j = K - 1. Even K: ones also on
    the first K/2 diagonal entries, which is [[I, J], [J, 0]] on half-size
    blocks, J the anti-diagonal identity. Odd K: ones also on the short
    anti-diagonal i + j = (K-1)/2, which is the top-left (K+1)/2 block
    J + I + I' (I' the identity padded by a zero last row and column)
    bordered by truncated anti-diagonal blocks. No such matrix exists for
    K = 1, since B and B + I cannot both be nonzero bits.
    """
    if k < 2:
        raise ValueError("no K x K bit matrix with B and I+B invertible for K < 2")
    h = k // 2
    rows = []
    for i in range(k):
        row = [0] * k
        row[k - 1 - i] = 1
        if k % 2 and i <= h:
            row[h - i] = 1
        elif not k % 2 and i < h:
            row[i] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _check_square(b: Sequence[Sequence[int]], k: int) -> None:
    if len(b) != k or any(len(row) != k for row in b):
        raise ValueError("dimension mismatch")


def binary_storage(
    w: Sequence[int], z: Sequence[int], b: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Three stored vectors: (W + Z, W + Z B, Z), all over GF(2)."""
    if len(w) != len(z):
        raise ValueError("dimension mismatch")
    _check_square(b, len(w))
    if not set(w) | set(z) <= {0, 1}:
        raise ValueError("W and Z must be bit vectors")
    s1 = tuple(a ^ c for a, c in zip(w, z))
    s2 = tuple((a + sum(map(mul, z, col))) % 2 for a, col in zip(w, zip(*b)))
    return s1, s2, tuple(z)


def binary_queries(
    theta: int, zp: Sequence[int], b: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Three query vectors: (Z', Q + Z', (I + B) Z' + B Q), Q the theta
    unit; the third is computed as Z' + B (Q + Z')."""
    k = len(zp)
    _check_square(b, k)
    if not 1 <= theta <= k:
        raise ValueError(f"theta must be in 1..{k}")
    if not set(zp) <= {0, 1}:
        raise ValueError("Z' must be a bit vector")
    q2 = list(zp)
    q2[theta - 1] ^= 1
    q3 = tuple((a + sum(map(mul, row, q2))) % 2 for a, row in zip(zp, b))
    return tuple(zp), tuple(q2), q3


@dataclass(frozen=True)
class SymXspirParams:
    """Parameters of the symmetrically secure scheme: N = X + 1 servers,
    single-symbol messages, T = 1."""

    X: int
    K: int
    p: int

    def __post_init__(self):
        if self.X < 1 or self.K < 1:
            raise ValueError("need X >= 1 and K >= 1")
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")

    @classmethod
    def make(cls, X: int, K: int, p: int | None = None) -> "SymXspirParams":
        return cls(X, K, 2 if p is None else p)

    @property
    def N(self) -> int:
        return self.X + 1

    @property
    def T(self) -> int:
        return 1

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.p)


def _wrap(m: int, k: int) -> int:
    """Fold an index into 1..K."""
    return (m - 1) % k + 1


def sym_xspir_storage(
    w: Sequence[int], z: Sequence[Sequence[Sequence[int]]], params: SymXspirParams
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per-server K x K grids: servers 1..X hold raw noise, server N holds
    every message masked by the column-aligned noise sums."""
    if len(w) != params.K or len(z) != params.X or any(
        len(zx) != params.K or any(len(row) != params.K for row in zx) for zx in z
    ):
        raise ValueError("need K message symbols and an X x K x K noise grid")
    p = params.p
    noise_servers = tuple(tuple(tuple(v % p for v in zk) for zk in zx) for zx in z)
    masked = tuple(
        tuple((w[k] + sum(zx[k][m] for zx in z)) % p for m in range(params.K))
        for k in range(params.K)
    )
    return noise_servers + (masked,)


def sym_xspir_queries(theta: int, m_o: int, params: SymXspirParams) -> tuple[tuple[int, ...], ...]:
    """Per-server column requests, one 1-based column index per message.

    Servers 1..X are asked for the fixed column m_o; server N is asked for
    the shifted diagonal m_o - theta + k. Each request is a deterministic
    image of the uniform m_o alone, hence reveals nothing about theta.
    """
    k = params.K
    if not 1 <= theta <= k:
        raise ValueError(f"theta must be in 1..{k}")
    if not 1 <= m_o <= k:
        raise ValueError(f"m_o must be in 1..{k}")
    flat = tuple(m_o for _ in range(k))
    shifted = tuple(_wrap(m_o - theta + kk, k) for kk in range(1, k + 1))
    return tuple(flat for _ in range(params.X)) + (shifted,)
