"""In-process retrieval harness: server objects behind a synchronous wire
transport, a line-oriented wire format, and replayable transcripts.

The client encodes storage and hands each server object its share, in the
scheme's native form, and nothing else. For each server it then encodes
one QUERY line; the addressed server parses it, applies the scheme's
answer map and encodes an ANSWER line (or ANSWER_EMPTY when its query owes
no symbols, as an all-zero query does); the client parses that line,
checks the whole exchange against the scheme, and decodes. Replay goes
through the same checks. Download accounting counts answer payload symbols
only; upload is free by convention. Every retrieval is driven by a single
seeded generator, so a fixed (params, messages, theta, seed) reproduces a
byte-identical transcript.

Every payload (QUERY and ANSWER lines, and the DECODED line) is written
and read through one symbol codec: a table of the canonical decimal
strings of the symbols below `_TABLE_SIZE`, and its inverse dict, both
built at import; a payload of `_BYTE_FORMAT_MIN` or more symbols in 0..255
is written by three digit tables instead (`bytes.translate`). The parse
needs no alphabet. A line of `2 * _BYTE_FORMAT_MIN` characters or more
whose header counts `_BYTE_FORMAT_MIN` symbols or more is read first as
bytes, with no token objects (`_read_bytes`); a byte other than a digit or
space, a token of three or more digits or a count other than the header's
sends it to the token read. That read takes a line of two or more tokens
by one `itemgetter` call on the inverse table, and a token the table lacks
(a larger value, or a spelling such as "007", "+3" or "1_000" that `int`
accepts) sends the line through `int`, so each line is formatted, accepted
or rejected exactly as by `str` and `int` alone.

Each payload's length and alphabet, and the server ids of each kind, are
checked once, by whoever receives them: a server checks its QUERY in
`Server.handle`, the client checks the ANSWERs (`_answers_by_server`) but
not the queries it built itself, and `replay`, which receives everything,
checks both (`_by_server` the ids), and the queries before the scheme's
check of theta, which packs them into lanes sized for that alphabet, from
the bytes a message keeps (`_raw`), if any. The check,
`_check_symbols`, is the one place that reads an alphabet: the bytes a
`WireMessage` keeps (the byte read's, or `bytes(payload)` for a long
payload built in code) are checked by one `translate` that deletes the
alphabet's bytes, and any other payload by its max (and min, for an
alphabet that does not start at 0). `WireMessage` itself refuses only
negative symbols, and skips that scan for a payload it holds as bytes or
read wholly from the codec table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from random import Random
from typing import Sequence

from .audit import DEFAULT_CAP, OverCap
from .field import record
from .scheme import Payload, Scheme, for_params, from_header

KIND_QUERY = "QUERY"
KIND_ANSWER = "ANSWER"
KIND_ANSWER_EMPTY = "ANSWER_EMPTY"
_KINDS = (KIND_QUERY, KIND_ANSWER, KIND_ANSWER_EMPTY)
_HEADER = ("scheme", "N", "K", "X", "T", "p", "L", "seed", "theta")

# The symbol codec's table: the canonical text of each symbol below a fixed
# bound, and its inverse. Larger symbols take the str/int path.
_TABLE_SIZE = 1024
_TEXT_OF = {v: str(v) for v in range(_TABLE_SIZE)}
_VALUE_OF = {text: v for v, text in _TEXT_OF.items()}
# Per byte, its hundreds, tens and units digit, NUL where it has none; they
# write faster than the table from about 50 symbols on.
_DIGITS = [bytes(48 + b // d % 10 if b >= f else 0 for b in range(256)) for d, f in ((100, 100), (10, 10), (1, 0))]
_BYTE_FORMAT_MIN = 64
# The byte read's lanes: per byte its digit value, else 0; and 0xFF for a
# space, 0 for a digit, 1 for any other byte.
_DIGIT_VALUE = bytes(b - 48 if 48 <= b < 58 else 0 for b in range(256))
_SPACES = bytes(255 if b == 32 else 0 if 48 <= b < 58 else 1 for b in range(256))


def _format_symbols(symbols: Sequence[int]) -> str:
    """`" ".join(map(str, symbols))` for int symbols, by the digit tables
    for a long payload in 0..255, else reading each text from the table.
    (A non-int equal to an entry, such as 3.0, is written as that int.)"""
    try:
        if len(symbols) >= _BYTE_FORMAT_MIN:
            raw, buf = bytes(symbols), bytearray(b" ") * (4 * len(symbols))
            buf[0::4], buf[1::4], buf[2::4] = (raw.translate(t) for t in _DIGITS)
            return buf.translate(None, b"\0")[:-1].decode()
    except (TypeError, ValueError):  # a symbol outside 0..255, or a non-int
        pass
    try:
        return " ".join([_TEXT_OF[v] for v in symbols])
    except (KeyError, TypeError):
        return " ".join(map(str, symbols))


def _read_symbols(tokens: Sequence[str]) -> tuple[tuple[int, ...], bool]:
    """`tuple(map(int, tokens))`, and whether every token was read from the
    codec table, so that no value is negative."""
    try:
        if len(tokens) > 1:  # one token would give a bare value, none a TypeError
            return itemgetter(*tokens)(_VALUE_OF), True
        return tuple(map(_VALUE_OF.__getitem__, tokens)), True
    except KeyError:
        return tuple(map(int, tokens)), False


def _read_bytes(text: str, count: int) -> bytes | None:
    """The `count` symbols of `text` (which `str.split` left starting with
    a digit), as bytes, if it holds only digits and spaces and no token of
    3+ digits, else None. In big-endian byte lanes a token's value
    `V + 10 * (V >> 8)` stands at its last digit; the spaces S and the lanes
    before a digit, `D << 8`, are 0xFF and deleted, so a run of spaces
    separates as one, as in `split`."""
    if not text.isascii():  # which `encode` needs for a lone surrogate
        return None
    raw = text.encode().rstrip()
    spaces = raw.translate(_SPACES)
    if b"\1" in spaces:  # a byte neither a digit nor a space
        return None
    n = len(raw)
    S = int.from_bytes(spaces, "big")
    D = S ^ ((1 << 8 * n) - 1)
    if D & D >> 8 & D >> 16:  # three digits in a row: "105" would read as 5
        return None
    V = int.from_bytes(raw.translate(_DIGIT_VALUE), "big")
    out = (V + 10 * (V >> 8) | S | D << 8).to_bytes(n + 1, "big").translate(None, b"\xff")
    return out if len(out) == count else None


class ProtocolInvariantError(RuntimeError):
    """The harness observed something an honest execution can never produce."""


class WireMessage(record("kind", "server_id", "payload")):
    """One line on the wire: kind, server id, symbol count, symbols. A
    `__slots__` record (`field.record`): these fields are read-only, and
    `==`, `hash` and `repr` are those of a frozen dataclass of them."""

    __slots__ = ("_raw", "_line")

    def __init__(self, kind: str, server_id: int, payload: tuple[int, ...], _raw: Sequence[int] | None = None):
        # `parse` passes `_raw`, the payload as read: the byte read's bytes,
        # or the payload itself if every symbol was read from the codec
        # table. Neither holds a negative symbol, so the scan is skipped.
        if kind not in _KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if kind == KIND_ANSWER_EMPTY and payload:
            raise ValueError("ANSWER_EMPTY carries no payload")
        if server_id < 1:
            raise ValueError("server ids are 1-based")
        self._kind, self._server_id, self._payload = kind, server_id, payload
        self._raw, self._line = _raw, None
        if _raw is None:
            self._raw = payload
            if len(payload) >= _BYTE_FORMAT_MIN:
                try:  # `bytes` takes only ints in 0..255: a payload it takes has no negative symbol
                    self._raw = bytes(payload)  # kept for `_format` and `_check_symbols`
                    return
                except (TypeError, ValueError):
                    pass
            if payload and min(payload) < 0:
                raise ValueError("payload symbols are nonnegative integers")

    def encode(self) -> str:
        """The wire line, newline included. It is formatted on the first
        call and kept, so a message that is sent and then rendered is
        formatted once."""
        line = self._line
        if line is None:
            line = self._line = self._format()
        return line

    def _format(self) -> str:
        head = f"{self._kind} {self._server_id} {len(self._payload)}"
        if not self._payload:
            return head + "\n"
        return f"{head} {_format_symbols(self._raw)}\n"

    @classmethod
    def parse(cls, line: str) -> "WireMessage":
        """The message on `line`: by `_read_bytes` for a long line it reads,
        else by `_read_symbols`; the message, or the error, is the same
        either way."""
        if len(line) >= 2 * _BYTE_FORMAT_MIN:
            head = line.split(None, 3)
            if len(head) == 4:  # the token path reads (and refuses) the same three tokens first
                kind, server_id, count = head[0], int(head[1]), int(head[2])
                if count >= _BYTE_FORMAT_MIN and (raw := _read_bytes(head[3], count)) is not None:
                    return cls(kind, server_id, tuple(raw), raw)
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"malformed wire line: {line!r}")
        kind, server_id, count = parts[0], int(parts[1]), int(parts[2])
        payload, from_table = _read_symbols(parts[3:])
        if len(payload) != count:
            raise ValueError(f"payload count mismatch in line: {line!r}")
        return cls(kind, server_id, payload, payload if from_table else None)


@dataclass(frozen=True)
class Transcript:
    """Everything one retrieval put on the wire, plus the decoded result."""

    scheme: str
    N: int
    K: int
    X: int
    T: int
    p: int
    L: int
    seed: int
    theta: int
    queries: tuple[WireMessage, ...]
    answers: tuple[WireMessage, ...]
    decoded: tuple[int, ...]

    @property
    def downloaded(self) -> tuple[int, ...]:
        return tuple(len(a.payload) for a in self.answers)

    @property
    def total_downloaded(self) -> int:
        return sum(self.downloaded)

    def render(self) -> str:
        lines = [f"scheme {self.scheme}\nN {self.N}\nK {self.K}\nX {self.X}\nT {self.T}\np {self.p}\n"
                 f"L {self.L}\nseed {self.seed}\ntheta {self.theta}\n"]
        lines.extend(m.encode() for m in self.queries)
        lines.extend(m.encode() for m in self.answers)
        decoded = _format_symbols(self.decoded)
        suffix = f" {decoded}" if decoded else ""
        lines.append(f"DECODED {len(self.decoded)}{suffix}\n")
        return "".join(lines)

    @classmethod
    def parse(cls, text: str) -> "Transcript":
        """The transcript `text` renders."""
        header: dict[str, str] = {}
        queries: list[WireMessage] = []
        answers: list[WireMessage] = []
        decoded: tuple[int, ...] | None = None
        for line in text.splitlines():
            if not line.strip():
                continue
            tag = line.split(maxsplit=1)[0]
            if tag in _KINDS:
                msg = WireMessage.parse(line)
                (queries if msg.kind == KIND_QUERY else answers).append(msg)
            elif tag == "DECODED":
                parts = line.split()
                if decoded is not None or len(parts) < 2:
                    raise ValueError(f"repeated or malformed DECODED line: {line!r}")
                decoded = _read_symbols(parts[2:])[0]
                if len(decoded) != int(parts[1]):
                    raise ValueError("DECODED count mismatch")
            else:
                key, _, value = line.partition(" ")
                if key not in _HEADER or key in header:
                    raise ValueError(f"unknown or repeated header line: {line!r}")
                header[key] = value.strip()
        if decoded is None:
            raise ValueError("transcript has no DECODED line")
        missing = [key for key in _HEADER if key not in header]
        if missing:
            raise ValueError(f"transcript header lacks {', '.join(missing)}")
        return cls(
            header["scheme"],
            *(int(header[key]) for key in _HEADER[1:]),
            queries=tuple(queries),
            answers=tuple(answers),
            decoded=decoded,
        )


@lru_cache(maxsize=64)
def _bytes_of(alphabet: range) -> bytes:
    """The values of `alphabet` a byte can hold, as bytes."""
    return bytes(v for v in alphabet if 0 <= v < 256)


def _check_symbols(msg: WireMessage, count: int, alphabet: range) -> None:
    """The receiver's one check of a payload: its length and alphabet. The
    bytes a message keeps are checked by one `translate` that deletes the
    alphabet's; any other payload, as a `WireMessage` holds no negative
    symbol, by its max, and its min for an alphabet that does not start
    at 0."""
    payload, raw = msg.payload, msg._raw
    if len(payload) != count:
        raise ValueError(
            f"{msg.kind} {msg.server_id} carries {len(payload)} symbols, "
            f"the scheme sends {count}"
        )
    if isinstance(raw, bytes):
        outside = raw.translate(None, _bytes_of(alphabet))
    else:
        start = alphabet.start
        outside = payload and (max(payload) >= alphabet.stop or (start and min(payload) < start))
    if outside:
        raise ValueError(
            f"{msg.kind} {msg.server_id} has a symbol outside "
            f"{alphabet.start}..{alphabet.stop - 1}"
        )


def _answers_by_server(
    scheme: Scheme, queries: Sequence[WireMessage], answers: Sequence[WireMessage]
) -> list[Payload | None]:
    """Check one exchange's answers against the scheme and return their
    payloads in server order (None for ANSWER_EMPTY), given the `queries`
    for server ids 1..N in that order.

    Raises ValueError unless there is exactly one ANSWER or ANSWER_EMPTY
    for each server id 1..N, and every answer carries exactly the symbols
    its query owes, each below p. The queries are their receivers' to
    check, ids included (see the module docstring).
    """
    by_id, symbols = _by_server(scheme, "answer", answers), range(scheme.p)
    out: list[Payload | None] = []
    for q in queries:
        a, owed = by_id[q.server_id], scheme.answer_symbols(q.payload)
        if a.kind != (KIND_ANSWER if owed else KIND_ANSWER_EMPTY):
            raise ValueError(f"server {a.server_id} replied {a.kind} to its query")
        _check_symbols(a, owed, symbols)
        out.append(a.payload if owed else None)
    return out


def _by_server(scheme: Scheme, what: str, msgs: Sequence[WireMessage]) -> dict[int, WireMessage]:
    """`msgs` by server id; ValueError unless there is one for each id 1..N."""
    by_id = {m.server_id: m for m in msgs}
    if len(by_id) != len(msgs) or sorted(by_id) != list(range(1, scheme.N + 1)):
        raise ValueError(f"need one {what} per server id 1..{scheme.N}, "
                         f"got ids {sorted(m.server_id for m in msgs)}")
    return by_id


class Server:
    """One server. It holds its own share, in the scheme's native form, and
    nothing else.

    `handle` takes one wire line and returns the reply line. A QUERY
    addressed to this server is answered through the scheme's answer map,
    with ANSWER_EMPTY when the query owes no symbols. Anything else (a
    query for another server, or a line of another kind) is logged as
    misaddressed and answered with ANSWER_EMPTY. `received` logs what
    arrived, for the information-flow checks.
    """

    def __init__(self, server_id: int, share, scheme: Scheme):
        self.server_id = server_id
        self.share = share
        self.scheme = scheme
        self.received: list[str] = []

    def handle(self, line: str) -> str:
        scheme = self.scheme
        msg = WireMessage.parse(line)
        if msg.kind != KIND_QUERY or msg.server_id != self.server_id:
            self.received.append(f"misaddressed:{msg.kind}")
            return WireMessage(KIND_ANSWER_EMPTY, self.server_id, ()).encode()
        self.received.append(msg.kind)
        _check_symbols(msg, scheme.query_symbols, scheme.query_alphabet)
        if not scheme.answer_symbols(msg.payload):
            return WireMessage(KIND_ANSWER_EMPTY, self.server_id, ()).encode()
        return WireMessage(KIND_ANSWER, self.server_id, scheme.answer(self.share, msg.payload)).encode()


@dataclass(frozen=True)
class RetrievalRun:
    """A transcript plus the harness-side record of what each server stored.

    Shares never travel between servers; they are kept here, as flat
    payloads, so collusion views can be assembled for the audits.
    """

    transcript: Transcript
    shares: tuple[tuple[int, ...], ...]
    plaintext: tuple[int, ...]


def run_retrieval(params, messages, theta: int, seed: int, rng: Random | None = None) -> RetrievalRun:
    """Run one full retrieval against server objects over the wire.

    `params` selects the scheme: CsaParams, DownloadAllParams, SymXspirParams,
    or an int K for the three-server bit scheme. `messages` is the scheme's
    plaintext object (a MessageSet, or a tuple of bits or of ints mod p,
    one per message). All randomness comes
    from `rng` (default: Random(seed)); noise is drawn before query
    randomness, so a fixed seed reproduces the transcript byte for byte.
    """
    scheme = for_params(params)
    scheme.check_theta(theta)
    if rng is None:
        rng = Random(seed)
    shares = scheme.storage(messages, scheme.storage_noises.sample(rng))
    queries = scheme.queries(theta, scheme.query_randomness.sample(rng))
    sent = tuple(WireMessage(KIND_QUERY, n, payload) for n, payload in enumerate(queries, start=1))
    servers = [Server(n, share, scheme) for n, share in enumerate(shares, start=1)]
    replies = tuple(WireMessage.parse(server.handle(msg.encode())) for server, msg in zip(servers, sent))
    for server in servers:
        if server.received != [KIND_QUERY]:
            raise ProtocolInvariantError(f"server {server.server_id} saw {server.received}")
    try:
        decoded = scheme.decode(theta, _answers_by_server(scheme, sent, replies))
    except ValueError as exc:
        raise ProtocolInvariantError(f"decode failed: {exc}") from exc
    plaintext = scheme.plaintext(messages, theta)
    if decoded != plaintext:
        raise ProtocolInvariantError(f"decoded {decoded} but plaintext is {plaintext}")
    transcript = Transcript(
        scheme.name, **scheme.header(), seed=seed, theta=theta,
        queries=sent, answers=replies, decoded=decoded,
    )
    return RetrievalRun(transcript, scheme.share_payloads(shares), plaintext)


def _scheme_of(transcript: Transcript) -> Scheme:
    header = {key: getattr(transcript, key) for key in _HEADER[1:7]}
    return from_header(transcript.scheme, header)


def params_from_header(transcript: Transcript):
    """Rebuild the scheme parameters a transcript was produced with."""
    return _scheme_of(transcript).params


def replay(text: str) -> tuple[Transcript, tuple[int, ...]]:
    """Re-decode a rendered transcript mechanically.

    Returns the parsed transcript and the value re-decoded from the recorded
    header, queries and answers alone; a faithful transcript re-decodes to
    its own DECODED line. Raises ValueError when the transcript is not one
    the scheme in its header could have produced (a query of the wrong
    length or alphabet, or see `_answers_by_server`), or when its queries
    do not retrieve the header's theta. download_all sends empty queries,
    so there the re-decode against the DECODED line is the only check of
    theta.
    """
    transcript = Transcript.parse(text)
    scheme = _scheme_of(transcript)
    theta = transcript.theta
    scheme.check_theta(theta)
    by_id = _by_server(scheme, "QUERY", transcript.queries)
    queries = [by_id[n] for n in range(1, scheme.N + 1)]
    for q in queries:
        _check_symbols(q, scheme.query_symbols, scheme.query_alphabet)
    answers = _answers_by_server(scheme, queries, transcript.answers)
    scheme.check_retrieves(theta, [m._raw for m in queries])
    return transcript, scheme.decode(theta, answers)


def empirical_rate(
    params,
    exhaustive: bool = False,
    trials: int = 1000,
    seed: int = 0,
    theta: int = 1,
) -> Fraction:
    """Message length divided by mean downloaded symbols, as an exact Fraction.

    Exhaustive mode enumerates the query randomness, which fully determines
    the download count (a server downloads nothing exactly when its query
    payload is all zero); sampled mode runs `trials` full retrievals with
    seeds seed, seed+1, ... Exhaustive mode refuses (OverCap) more than
    the audits' DEFAULT_CAP query realizations, before enumerating them.
    A theta outside 1..K or `trials` below 1 raises ValueError first, in
    either mode.
    """
    scheme = for_params(params)
    scheme.check_theta(theta)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if exhaustive and (qr := scheme.query_randomness).size > DEFAULT_CAP:
        raise OverCap(f"an exhaustive rate would enumerate {qr.base}^{qr.count} query "
                      f"realizations, over the cap of {DEFAULT_CAP}")
    if exhaustive:
        total = 0
        for randomness in scheme.query_randomness:
            total += sum(map(scheme.answer_symbols, scheme.queries(theta, randomness)))
        return Fraction(scheme.L * scheme.query_randomness.size, total)
    total = 0
    rng_master = Random(seed)
    for i in range(trials):
        messages = scheme.messages.sample(rng_master)
        run = run_retrieval(params, messages, theta, seed + i)
        total += run.transcript.total_downloaded
    return Fraction(scheme.L * trials, total)


def collude(
    runs: Sequence[RetrievalRun], servers: Sequence[int]
) -> dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """Assemble the view of a colluding server subset across retrievals.

    For each listed server id, the view is the tuple over runs of (stored
    share payload, received query payload), exactly what that server held
    and saw; nothing else leaks into it.
    """
    if not servers:
        raise ValueError("collusion set must be nonempty")
    view: dict[int, tuple] = {}
    for sid in servers:
        entries = []
        for run in runs:
            if not 1 <= sid <= len(run.shares):
                raise ValueError(f"server {sid} not present in run")
            entries.append((run.shares[sid - 1], run.transcript.queries[sid - 1].payload))
        view[sid] = tuple(entries)
    return view
