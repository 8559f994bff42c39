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
is written by three digit tables instead (`bytes.translate`), and a line of
two or more tokens read by one `itemgetter` call, from the table of the
receiver's alphabet (`_table_for`) for a line of `_BYTE_FORMAT_MIN` or
more. A symbol or token outside the table (a larger value, or a spelling
such as "007", "+3" or "1_000" that `int` accepts) takes the `str`/`int`
path instead, so each line is formatted, accepted or rejected exactly as
by `str` and `int` alone. A line of `2 * _BYTE_FORMAT_MIN` characters or
more that counts `_BYTE_FORMAT_MIN` symbols or more, read against an
alphabet below 100, is read first as bytes, with no token objects
(`_read_bytes`: two `translate` passes into big-int lanes, and one that
deletes every lane but each token's value). A byte other than a digit or
space, a token of three or more digits, a count other than the header's
or a value outside the alphabet sends the line to the token read, which
then gives the message or the error.

Each payload's length and alphabet, and the server ids of each kind, are
checked once, by whoever receives them: a server checks its QUERY in
`Server.handle`, the client checks the ANSWERs (`_answers_by_server`) but
not the queries it built itself, and `replay`, which receives everything,
checks both (`_by_server` the ids), and the queries before the scheme's
check of theta, which packs them into lanes sized for that alphabet. Each
parses the payload against the alphabet it checks (the scheme's query
alphabet, range(p) for ANSWERs; `replay` once the header names the
scheme), so a payload read wholly from that alphabet's table is checked
for its length alone, and any other is scanned. `WireMessage` itself
refuses only negative symbols, and skips that scan for a line whose every
token was read from a table or for a long payload `bytes` takes (each
symbol an int in 0..255), whose bytes it keeps for the digit tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from random import Random
from typing import Callable, Sequence

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
_TABLE_RANGE = range(_TABLE_SIZE)
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


@lru_cache(maxsize=64)
def _table_for(alphabet: range) -> dict[str, int]:
    """The codec table's entries whose value lies in `alphabet`: a copy of
    `_VALUE_OF` with the others deleted, which keeps its sparse hash table
    and so probes faster than a dict built afresh from the same entries."""
    table = _VALUE_OF.copy()
    for text, v in _VALUE_OF.items():
        if v not in alphabet:
            del table[text]
    return table


def _read_symbols(tokens: Sequence[str], alphabet: range | None = None) -> tuple[tuple[int, ...], range | None]:
    """`tuple(map(int, tokens))`, and a range every value is known to lie
    in. A payload of `_BYTE_FORMAT_MIN` or more tokens wholly in `alphabet`'s
    table gives `alphabet`, any other wholly in the codec table that
    table's range, and a payload read by `int` None."""
    table, within = _VALUE_OF, _TABLE_RANGE
    if alphabet is not None and len(tokens) >= _BYTE_FORMAT_MIN:
        table, within = _table_for(alphabet), alphabet
    try:
        if len(tokens) > 1:  # one token would give a bare value, none a TypeError
            return itemgetter(*tokens)(table), within
        return tuple(map(table.__getitem__, tokens)), within
    except KeyError:
        if table is not _VALUE_OF:
            return _read_symbols(tokens)
        return tuple(map(int, tokens)), None


@lru_cache(maxsize=64)
def _bytes_of(alphabet: range) -> bytes:
    """The values of `alphabet` a byte can hold, as bytes."""
    return bytes(v for v in alphabet if 0 <= v < 256)


def _read_bytes(text: str, count: int, alphabet: range) -> tuple[int, ...] | None:
    """The `count` symbols of `text` (which `str.split` left starting with
    a digit) if it holds digits and spaces, no token of 3+ digits and only
    values in `alphabet`, else None. In big-endian byte lanes a token's
    value `V + 10 * (V >> 8)` stands at its last digit; the spaces S and the
    lanes before a digit, `D << 8`, are 0xFF and deleted, so a run of
    spaces separates as one, as in `split`."""
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
    if len(out) != count or out.translate(None, _bytes_of(alphabet)):
        return None
    return tuple(out)


class ProtocolInvariantError(RuntimeError):
    """The harness observed something an honest execution can never produce."""


class WireMessage(record("kind", "server_id", "payload")):
    """One line on the wire: kind, server id, symbol count, symbols. A
    `__slots__` record (`field.record`): these fields are read-only, and
    `==`, `hash` and `repr` are those of a frozen dataclass of them."""

    __slots__ = ("_within", "_raw", "_line")

    def __init__(self, kind: str, server_id: int, payload: tuple[int, ...], _within: range | None = None):
        # `parse` passes `_within`, the range of the table every symbol was
        # read from (`_read_symbols`), or None if some was read by `int`. No
        # table value is negative, so the scan is skipped; an alphabet's range
        # is kept (else None): checked against it, only the length is checked.
        if kind not in _KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if kind == KIND_ANSWER_EMPTY and payload:
            raise ValueError("ANSWER_EMPTY carries no payload")
        if server_id < 1:
            raise ValueError("server ids are 1-based")
        self._kind, self._server_id, self._payload = kind, server_id, payload
        self._raw, self._line, self._within = payload, None, None
        if _within is None:
            if len(payload) >= _BYTE_FORMAT_MIN:
                try:  # `bytes` takes only ints in 0..255: a payload it takes has no negative symbol
                    self._raw = bytes(payload)  # kept for `_format`
                    return
                except (TypeError, ValueError):
                    pass
            if payload and min(payload) < 0:
                raise ValueError("payload symbols are nonnegative integers")
        elif _within is not _TABLE_RANGE:  # an alphabet its receiver checks
            self._within = _within

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
    def parse(cls, line: str, alphabet: range | None = None) -> "WireMessage":
        """The message on `line`, read against the `alphabet` its receiver
        checks, if given (`_read_bytes` for a long line of symbols below
        100, else `_read_symbols`): the message, or the error, is the same
        either way."""
        if len(line) >= 2 * _BYTE_FORMAT_MIN and alphabet is not None and alphabet.stop <= 100:
            head = line.split(None, 3)
            if len(head) == 4:  # the token path reads (and refuses) the same three tokens first
                kind, server_id, count = head[0], int(head[1]), int(head[2])
                if count >= _BYTE_FORMAT_MIN and (payload := _read_bytes(head[3], count, alphabet)) is not None:
                    return cls(kind, server_id, payload, alphabet)
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"malformed wire line: {line!r}")
        kind, server_id, count = parts[0], int(parts[1]), int(parts[2])
        payload, within = _read_symbols(parts[3:], alphabet)
        if len(payload) != count:
            raise ValueError(f"payload count mismatch in line: {line!r}")
        return cls(kind, server_id, payload, within)


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
    def parse(
        cls, text: str, alphabets: Callable[[dict[str, str]], dict[str, range]] | None = None
    ) -> "Transcript":
        """The transcript `text` renders. `alphabets`, if given, is asked
        for each message kind's alphabet once, at the first message line if
        the header is complete by then, and each line is read against its
        kind's (`WireMessage.parse`): the transcript, or the error, is the
        same either way."""
        header: dict[str, str] = {}
        queries: list[WireMessage] = []
        answers: list[WireMessage] = []
        decoded: tuple[int, ...] | None = None
        by_kind: dict[str, range] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            tag = line.split(maxsplit=1)[0]
            if tag in _KINDS:
                if alphabets is not None and len(header) == len(_HEADER):
                    try:
                        by_kind = alphabets(header)
                    except Exception:  # noqa: BLE001 - read without alphabets: the same lines
                        pass
                alphabets = None
                msg = WireMessage.parse(line, by_kind.get(tag))
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


def _check_symbols(msg: WireMessage, count: int, alphabet: range) -> None:
    """The receiver's one check of a payload: its length and alphabet. A
    payload parsed from `alphabet`'s table needs no scan; otherwise, as a
    `WireMessage` holds no negative symbol, an alphabet from 0 needs only
    the payload's max."""
    payload = msg.payload
    if len(payload) != count:
        raise ValueError(
            f"{msg.kind} {msg.server_id} carries {len(payload)} symbols, "
            f"the scheme sends {count}"
        )
    # (no payload shorter than _BYTE_FORMAT_MIN is read from an alphabet's table)
    if count >= _BYTE_FORMAT_MIN and msg._within == alphabet:
        return
    start = alphabet.start
    if payload and (max(payload) >= alphabet.stop or (start and min(payload) < start)):
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
        msg = WireMessage.parse(line, scheme.query_alphabet)
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
    symbols = range(scheme.p)
    replies = tuple(
        WireMessage.parse(server.handle(msg.encode()), symbols) for server, msg in zip(servers, sent)
    )
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
    built: list[Scheme] = []

    def alphabets(header: dict[str, str]) -> dict[str, range]:
        built.append(from_header(header["scheme"], {key: int(header[key]) for key in _HEADER[1:7]}))
        return {KIND_QUERY: built[0].query_alphabet, KIND_ANSWER: range(built[0].p)}

    transcript = Transcript.parse(text, alphabets)
    scheme = built[0] if built else _scheme_of(transcript)
    theta = transcript.theta
    scheme.check_theta(theta)
    by_id = _by_server(scheme, "QUERY", transcript.queries)
    queries = [by_id[n] for n in range(1, scheme.N + 1)]
    for q in queries:
        _check_symbols(q, scheme.query_symbols, scheme.query_alphabet)
    answers = _answers_by_server(scheme, queries, transcript.answers)
    scheme.check_retrieves(theta, [m.payload for m in queries])
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
