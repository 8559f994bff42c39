"""Protocol harness: wire format, determinism, replay and its transcript
checks, rates, and the information-flow guards."""

import threading
from dataclasses import FrozenInstanceError, dataclass, replace
from itertools import product
from fractions import Fraction
from random import Random

import pytest
from test_csa import CHECK_LANES

from xstpir import csa as csa_mod
from xstpir import sim as sim_mod
from xstpir.csa import CsaParams, MessageSet
from xstpir import scheme as scheme_mod
from xstpir.scheme import BinaryScheme, CsaScheme, Scheme, for_params, from_header
from xstpir.sim import (
    KIND_ANSWER,
    KIND_ANSWER_EMPTY,
    KIND_QUERY,
    ProtocolInvariantError,
    Server,
    Transcript,
    WireMessage,
    empirical_rate,
    replay,
    run_retrieval,
)
from xstpir.special import DownloadAllParams, SymXspirParams, download_all_decode


def _csa_run(seed=0, theta=1):
    params = CsaParams.make(5, 2, 1, 1)
    rng = Random(seed)
    messages = MessageSet.random(2, 3, params.field, rng)
    return params, run_retrieval(params, messages, theta, seed, rng=rng)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def test_wire_message_round_trip():
    for msg in [
        WireMessage(KIND_QUERY, 1, (0, 3, 2)),
        WireMessage(KIND_ANSWER, 4, (7,)),
        WireMessage(KIND_ANSWER_EMPTY, 2, ()),
    ]:
        assert WireMessage.parse(msg.encode()) == msg
    assert WireMessage(KIND_QUERY, 1, (0, 3)).encode() == "QUERY 1 2 0 3\n"
    assert WireMessage(KIND_ANSWER_EMPTY, 2, ()).encode() == "ANSWER_EMPTY 2 0\n"


def test_wire_message_validation():
    with pytest.raises(ValueError):
        WireMessage(KIND_ANSWER_EMPTY, 1, (1,))  # empty answers carry nothing
    with pytest.raises(ValueError):
        WireMessage(KIND_QUERY, 0, (1,))  # ids are 1-based
    with pytest.raises(ValueError):
        WireMessage(KIND_QUERY, 1, (-1,))
    with pytest.raises(ValueError):
        WireMessage(KIND_QUERY, 1, (4, -1, 2))
    with pytest.raises(ValueError):
        WireMessage("PING", 1, ())
    with pytest.raises(ValueError):
        WireMessage.parse("QUERY 1 3 0 1")  # count does not match payload
    with pytest.raises(ValueError):
        WireMessage.parse("PING 1 0")
    with pytest.raises(ValueError):
        WireMessage.parse("QUERY")


@dataclass(frozen=True)
class _FrozenWireMessage:
    """The reference record: a frozen dataclass of WireMessage's fields."""

    kind: str
    server_id: int
    payload: tuple[int, ...]


@pytest.mark.parametrize("length", [0, 5, 64, 600])
def test_wire_message_is_the_record_a_frozen_dataclass_is(length):
    # ==, !=, hash and repr as the reference's, against each other and a
    # plain tuple, for built and parsed messages; the fields are read-only.
    # 64 symbols in 0..255 keep their bytes; 600 reach 599 and are scanned.
    payload = tuple(v * 7 % (256 if length == 64 else 600) for v in range(length))
    other = payload[:-1] + (payload[-1] + 1,) if payload else ()
    if payload:
        fields = [(KIND_QUERY, 2, payload), (KIND_ANSWER, 2, payload), (KIND_QUERY, 3, payload),
                  (KIND_QUERY, 2, other)]
    else:
        fields = [(KIND_QUERY, 2, ()), (KIND_ANSWER_EMPTY, 2, ()), (KIND_ANSWER_EMPTY, 3, ())]
    pairs = [(WireMessage(*f), _FrozenWireMessage(*f)) for f in fields]
    pairs += [(WireMessage.parse(m.encode()), ref) for m, ref in pairs]
    for (a, ref_a), (b, ref_b) in product(pairs, repeat=2):
        assert (a == b) == (ref_a == ref_b)
        assert (a != b) == (ref_a != ref_b)
    for (msg, ref), f in zip(pairs, fields * 2):
        assert (msg.kind, msg.server_id, msg.payload) == f
        assert hash(msg) == hash(ref) == hash(f)
        assert repr(msg) == repr(ref).replace("_FrozenWireMessage(", "WireMessage(", 1)
        assert (msg == f) is (ref == f) is False
        assert (msg != f) is (ref != f) is True
        assert {msg: 1}[WireMessage(*f)] == 1
        for name in ("kind", "server_id", "payload"):
            with pytest.raises(AttributeError):
                setattr(msg, name, getattr(msg, name))
            with pytest.raises(FrozenInstanceError):
                setattr(ref, name, getattr(ref, name))
        assert (msg.kind, msg.server_id, msg.payload) == f


B = sim_mod._TABLE_SIZE
CODEC_PAYLOADS = [
    (),
    (0,),
    (B - 1,),
    (B,),
    (B + 1,),
    (10**30,),
    (0, B - 1, B, B + 1, 10**30, 7, 0),
    tuple(range(B + 3)),
    # long payloads inside 0..255, which the digit tables write
    tuple(range(256)),
    tuple(range(255, -1, -1)),
    (9,) * 70 + (10,) * 70,
    (99,) * 70 + (100,) * 70,
    (255,) * 70,
    (0, 9, 10, 99, 100, 255) * 20,
    # in range up to the last symbol: the tables fail late
    tuple(range(256)) + (256,),
]


def _outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared whole
        return type(exc), str(exc)


@pytest.mark.parametrize("payload", CODEC_PAYLOADS, ids=range(len(CODEC_PAYLOADS)))
def test_symbol_codec_writes_and_reads_what_str_and_int_do(payload):
    text = " ".join(map(str, payload))
    assert sim_mod._format_symbols(payload) == text
    assert sim_mod._read_symbols(text.split())[0] == payload
    msg = WireMessage(KIND_QUERY, 3, payload)
    line = f"QUERY 3 {len(payload)} {text}".rstrip() + "\n"
    assert msg.encode() == line
    assert WireMessage.parse(line) == msg
    _, run = _csa_run()
    t = replace(run.transcript, decoded=payload)
    rendered = t.render()
    assert rendered.endswith(f"DECODED {len(payload)} {text}".rstrip() + "\n")
    assert Transcript.parse(rendered) == t


def test_digit_tables_write_any_length_as_str_does(monkeypatch):
    # With no length gate the digit tables write every payload inside
    # 0..255, the empty one and single symbols included; the others fall
    # back, however late their first symbol past a byte comes.
    monkeypatch.setattr(sim_mod, "_BYTE_FORMAT_MIN", 0)
    for payload in CODEC_PAYLOADS + [(v,) for v in (0, 9, 10, 99, 100, 255, 256)]:
        assert sim_mod._format_symbols(payload) == " ".join(map(str, payload))


def test_symbol_codec_formats_negative_decoded_symbols_as_str_does():
    _, run = _csa_run()
    t = replace(run.transcript, decoded=(-1, -B, 3))
    assert t.render().endswith(f"DECODED 3 -1 -{B} 3\n")
    assert Transcript.parse(t.render()) == t


# Tokens that are not the table's spelling of a symbol. A wire line takes
# the first group as `int` does and refuses the second exactly as before,
# with the same exception and message.
ODD_TOKENS = ["007", "+3", "1_000", "٣", "0" * 40 + "5", str(B), str(10**30)]
BAD_TOKENS = ["-1", "3.0", "x", "1" * 5000, "--1", "0x1f"]


@pytest.mark.parametrize("token", ODD_TOKENS + BAD_TOKENS)
def test_symbol_codec_reads_any_token_as_int_does(token):
    tokens = ["4", token, "0"]
    as_int = _outcome(lambda: tuple(map(int, tokens)))
    assert _outcome(lambda: sim_mod._read_symbols(tokens)[0]) == as_int
    want = _outcome(lambda: WireMessage(KIND_QUERY, 2, tuple(map(int, tokens))))
    assert isinstance(want, WireMessage) == (token in ODD_TOKENS)
    assert isinstance(want, WireMessage) or want[0] is ValueError
    rendered = _csa_run()[1].transcript.render()
    for sep in (" ", "\t", " \t "):
        line = sep.join(["QUERY", "2", "3", *tokens]) + "\n"
        assert _outcome(WireMessage.parse, line) == want
        text = _replace_line(rendered, "DECODED ", sep.join(["DECODED", "3", *tokens]))
        assert _outcome(lambda: Transcript.parse(text).decoded) == as_int


@pytest.mark.parametrize("token", ODD_TOKENS + BAD_TOKENS)
def test_symbol_codec_reads_a_long_line_ending_in_any_token_as_int_does(token):
    # The table read takes the whole line at once, so a token it lacks at
    # the very end sends all 600 back through `int`.
    tokens = [str(v % 256) for v in range(599)] + [token]
    as_int = _outcome(lambda: (tuple(map(int, tokens)), False))
    assert _outcome(sim_mod._read_symbols, tokens) == as_int
    want = _outcome(lambda: WireMessage(KIND_QUERY, 2, tuple(map(int, tokens))))
    assert _outcome(WireMessage.parse, " ".join(["QUERY", "2", "600", *tokens])) == want


def test_symbol_codec_reads_zero_one_and_two_tokens():
    read = sim_mod._read_symbols
    assert read([]) == ((), True)
    assert read(["5"]) == ((5,), True) and read(["007"]) == ((7,), False)
    assert read(["5", "0"]) == ((5, 0), True) and read(["5", "+0"]) == ((5, 0), False)
    assert _outcome(read, ["x"]) == _outcome(int, "x")


def test_each_payload_is_range_checked_once_by_its_receiver(monkeypatch):
    checked = []
    check = sim_mod._check_symbols

    def counting(msg, count, alphabet):
        checked.append((msg.kind, msg.server_id))
        return check(msg, count, alphabet)

    monkeypatch.setattr(sim_mod, "_check_symbols", counting)
    params, run = _csa_run(seed=4)
    n = params.N
    each = sorted((kind, i) for kind in (KIND_QUERY, KIND_ANSWER) for i in range(1, n + 1))
    assert len(checked) == 2 * n
    assert sorted(checked) == each  # the servers' queries, the client's answers
    checked.clear()
    replay(run.transcript.render())
    assert len(checked) == 2 * n
    assert sorted(checked) == each


def test_only_payloads_not_read_from_the_table_are_scanned_for_negatives(monkeypatch):
    scanned = []

    def counting(values):
        scanned.append(tuple(values))
        return min(values)

    monkeypatch.setattr(sim_mod, "min", counting, raising=False)
    WireMessage.parse("QUERY 2 3 4 0 1023\n")  # every token a table entry
    assert scanned == []
    WireMessage.parse("QUERY 2 3 4 007 1024\n")  # read by int: scanned
    WireMessage(KIND_QUERY, 2, (4, 0, 9))  # built in code: scanned
    assert scanned == [(4, 7, 1024), (4, 0, 9)]
    for line in ("QUERY 2 3 4 -1 0\n", "QUERY 2 2 -0 -7\n"):
        with pytest.raises(ValueError, match="payload symbols are nonnegative integers"):
            WireMessage.parse(line)


def test_a_long_payload_built_in_code_is_checked_and_written_through_bytes_once(monkeypatch):
    # 100 symbols: a payload `bytes` takes is thereby known nonnegative and
    # is not scanned, and its line is written from those bytes; one it
    # refuses (a symbol past 255, or floats) is scanned instead, and each
    # line and refusal is the one `str` and the scan give.
    scanned = []

    def counting(values):
        scanned.append(tuple(values))
        return min(values)

    monkeypatch.setattr(sim_mod, "min", counting, raising=False)
    rng = Random(100)
    base = [0, 9, 10, 99, 100, 255] + [rng.randrange(256) for _ in range(94)]
    text = " ".join(map(str, base))
    msg = WireMessage(KIND_QUERY, 2, tuple(base))
    assert scanned == []
    assert msg.encode() == f"QUERY 2 100 {text}\n" == f"QUERY 2 100 {sim_mod._format_symbols(tuple(base))}\n"
    with pytest.raises(ValueError, match="payload symbols are nonnegative integers"):
        WireMessage(KIND_QUERY, 2, tuple(base[:50] + [-1] + base[51:]))
    wide = tuple(base[:50] + [300] + base[51:])
    assert WireMessage(KIND_QUERY, 2, wide).encode() == f"QUERY 2 100 {' '.join(map(str, wide))}\n"
    floats = tuple(map(float, base))
    assert WireMessage(KIND_QUERY, 2, floats).encode() == f"QUERY 2 100 {text}\n"
    assert [len(s) for s in scanned] == [100, 100, 100]
    assert scanned[1:] == [wide, floats]


def test_transcript_round_trip_and_counters():
    _, run = _csa_run(seed=3)
    t = run.transcript
    assert Transcript.parse(t.render()) == t
    assert t.downloaded == tuple(len(a.payload) for a in t.answers)
    assert t.total_downloaded == sum(t.downloaded)
    assert t.render().startswith("scheme csa\n")
    assert t.render().rstrip().splitlines()[-1].startswith("DECODED ")


def test_render_reuses_the_query_lines_the_servers_received(monkeypatch):
    # Each QUERY payload is formatted once, when it is sent; rendering the
    # transcript, however often, joins the very lines the servers parsed.
    formatted = []
    format_line = WireMessage._format

    def counting(msg):
        formatted.append((msg.kind, msg.server_id))
        return format_line(msg)

    monkeypatch.setattr(WireMessage, "_format", counting)
    received = {}
    handle = Server.handle

    def recording(server, text):
        received[server.server_id] = text
        return handle(server, text)

    monkeypatch.setattr(Server, "handle", recording)
    params = CsaParams.make(12, 8, 2, 2)
    messages = MessageSet.random(8, params.L, params.field, Random(5))
    transcript = run_retrieval(params, messages, 3, 5).transcript
    text = transcript.render()
    assert transcript.render() == text
    queries = [kind for kind in formatted if kind[0] == KIND_QUERY]
    assert sorted(queries) == [(KIND_QUERY, n) for n in range(1, 13)]
    for msg in transcript.queries:
        assert msg.encode() is received[msg.server_id]
        assert msg.encode() in text


def test_transcript_parse_rejects_garbage():
    _, run = _csa_run()
    text = run.transcript.render()
    with pytest.raises(ValueError):
        Transcript.parse(text.replace("DECODED 3", "DECODED 2"))
    headerless = "\n".join(
        line for line in text.splitlines() if not line.startswith("DECODED")
    )
    with pytest.raises(ValueError):
        Transcript.parse(headerless)


# ---------------------------------------------------------------------------
# one scheme per params value
# ---------------------------------------------------------------------------

RETRIEVE_MIX_PARAMS = {
    "csa": lambda: CsaParams.make(5, 2, 1, 1),
    "download_all": lambda: DownloadAllParams.make(3, 4, 1, 2),
    "binary_n3": lambda: 8,
    "sym_xspir": lambda: SymXspirParams.make(2, 4),
}


@pytest.mark.parametrize("name", RETRIEVE_MIX_PARAMS)
def test_equal_params_share_one_scheme(name):
    first, second = RETRIEVE_MIX_PARAMS[name](), RETRIEVE_MIX_PARAMS[name]()
    assert first == second
    scheme = for_params(first)
    assert scheme.name == name
    assert for_params(first) is scheme and for_params(second) is scheme
    made = type(scheme).make(scheme.N, scheme.K, scheme.X, scheme.T, scheme.p)
    assert type(scheme).make(scheme.N, scheme.K, scheme.X, scheme.T, scheme.p) is made
    header = scheme.header()
    assert from_header(name, dict(header)) is from_header(name, dict(header)) is made
    assert made.params == scheme.params


@pytest.mark.parametrize("name", RETRIEVE_MIX_PARAMS)
def test_make_for_params_and_a_replayed_header_give_one_scheme(name):
    # every scheme object comes from `for_params`: the dimensions, the
    # params and a rendered transcript's header all resolve to it
    params = RETRIEVE_MIX_PARAMS[name]()
    scheme = for_params(params)
    assert type(scheme).make(scheme.N, scheme.K, scheme.X, scheme.T, scheme.p) is scheme
    assert scheme_mod.SCHEMES[name].make(scheme.N, scheme.K, scheme.X, scheme.T) is scheme
    run = run_retrieval(params, scheme.messages.sample(Random(1)), 1, seed=1)
    assert sim_mod._scheme_of(Transcript.parse(run.transcript.render())) is scheme


def test_for_params_tells_an_int_from_a_bool():
    assert for_params(2).name == "binary_n3"
    with pytest.raises(TypeError, match="no scheme runs bool"):
        for_params(True)
    with pytest.raises(TypeError, match="no scheme runs float"):
        for_params(2.0)


def test_the_scheme_caches_are_bounded():
    # past the constant bound the oldest scheme is dropped and built anew
    bound = scheme_mod._SCHEMES
    for cached in (for_params, vars(Scheme)["make"].__func__):
        assert cached.cache_info().maxsize == bound
    first, made = for_params(2), BinaryScheme.make(3, 2, 1, 1)
    for k in range(3, 3 + bound):
        for_params(k)
        BinaryScheme.make(3, k, 1, 1)
    assert for_params.cache_info().currsize == bound
    assert for_params(2) is not first and for_params(2).b == first.b
    assert BinaryScheme.make(3, 2, 1, 1) is not made


def test_from_header_refuses_a_bad_header_on_every_call():
    # lru_cache keeps no exception: each call refuses again
    header = CsaScheme.make(5, 2, 1, 1).header()
    cases = [
        ("pir", header, "unknown scheme"),
        ("csa", {**header, "L": 2}, "does not match"),
        ("csa", {**header, "N": 2}, "csa needs N > X"),
        ("binary_n3", header, "binary_n3 is fixed"),
    ]
    for _ in range(3):
        for name, bad, match in cases:
            with pytest.raises(ValueError, match=match):
                from_header(name, bad)
        assert from_header("csa", header).header() == header


# ---------------------------------------------------------------------------
# retrieval runs
# ---------------------------------------------------------------------------


def test_run_retrieval_matches_plaintext_across_schemes():
    rng = Random(1)
    csa = CsaParams.make(5, 2, 1, 1)
    w = MessageSet.random(2, 3, csa.field, rng)
    run = run_retrieval(csa, w, 2, seed=1, rng=rng)
    assert run.transcript.decoded == run.plaintext
    assert run.plaintext == w.message(2)

    dl = DownloadAllParams.make(2, 3, 1, 1)
    w = MessageSet.random(3, 1, dl.field, rng)
    run = run_retrieval(dl, w, 3, seed=1, rng=rng)
    assert run.transcript.decoded == w.message(3)
    assert run.transcript.total_downloaded == 6  # always N * K

    run = run_retrieval(3, (1, 0, 1), 1, seed=4)
    assert run.transcript.decoded == (1,)
    assert run.transcript.scheme == "binary_n3"

    sx = SymXspirParams.make(2, 2, p=3)
    f = sx.field
    run = run_retrieval(sx, (f(2), f(1)), 2, seed=9)
    assert run.transcript.decoded == (1,)
    assert run.transcript.downloaded == (2, 2, 2)


# One small instance per scheme: the retrieve-mix shapes.
SMALL = {"csa": (5, 2, 1, 1), "download_all": (3, 4, 1, 2), "binary_n3": (3, 8, 1, 1), "sym_xspir": (3, 4, 2, 1)}


@pytest.mark.parametrize("name", list(scheme_mod.SCHEMES))
def test_queries_are_the_wire_payloads_in_every_scheme(name):
    # The scheme's queries are the N payloads the wire carries, tuples of
    # ints in its alphabet; its answer map takes them as they are and gives
    # the ANSWER payloads of a retrieval at the same seed (None for an
    # ANSWER_EMPTY); decode gives the plaintext as a tuple.
    scheme = scheme_mod.SCHEMES[name].make(*SMALL[name])
    for seed in range(4):
        messages, theta, rng = scheme.messages.sample(Random(~seed)), seed % scheme.K + 1, Random(seed)
        shares = scheme.storage(messages, scheme.storage_noises.sample(rng))
        queries = scheme.queries(theta, scheme.query_randomness.sample(rng))
        assert type(queries) is tuple and len(queries) == scheme.N
        for q in queries:
            assert type(q) is tuple and len(q) == scheme.query_symbols
            assert all(type(v) is int and v in scheme.query_alphabet for v in q)
        transcript = run_retrieval(scheme.params, messages, theta, seed).transcript
        assert tuple(m.payload for m in transcript.queries) == queries
        answers = [scheme.answer(s, q) if scheme.answer_symbols(q) else None for s, q in zip(shares, queries)]
        assert [a.payload if a.kind == KIND_ANSWER else None for a in transcript.answers] == answers
        decoded = scheme.decode(theta, answers)
        assert type(decoded) is tuple and decoded == scheme.plaintext(messages, theta) == transcript.decoded


def test_run_retrieval_deterministic_per_seed():
    for seed in (0, 1, 17):
        _, a = _csa_run(seed=seed)
        _, b = _csa_run(seed=seed)
        assert a.transcript.render() == b.transcript.render()
    _, a = _csa_run(seed=0)
    _, b = _csa_run(seed=1)
    assert a.transcript.render() != b.transcript.render()


def test_run_retrieval_default_rng_comes_from_seed():
    params = CsaParams.make(3, 1, 1, 1)
    w = MessageSet.from_ints([[4]], params.field)
    a = run_retrieval(params, w, 1, seed=5)
    b = run_retrieval(params, w, 1, seed=5, rng=Random(5))
    assert a.transcript.render() == b.transcript.render()


def test_zero_query_servers_answer_empty_and_cost_nothing():
    params = CsaParams.make(3, 1, 1, 1)
    w = MessageSet.from_ints([[2]], params.field)
    hit = None
    for seed in range(60):
        run = run_retrieval(params, w, 1, seed=seed)
        empties = [a for a in run.transcript.answers if a.kind == KIND_ANSWER_EMPTY]
        assert run.transcript.total_downloaded == params.N - len(empties)
        assert run.transcript.decoded == run.plaintext
        if empties:
            hit = run
    # 3 of the 5 noise values silence one server each, so 60 seeds miss all
    # of them with probability (2/5)^60
    assert hit is not None
    assert "ANSWER_EMPTY" in hit.transcript.render()


def test_theta_out_of_range_rejected():
    params = CsaParams.make(3, 2, 1, 1)
    w = MessageSet.from_ints([[0]] * 2, params.field)
    with pytest.raises(ValueError):
        run_retrieval(params, w, 3, seed=0)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_re_decodes_all_schemes():
    rng = Random(2)
    cases = []
    csa = CsaParams.make(5, 2, 1, 1)
    cases.append(run_retrieval(csa, MessageSet.random(2, 3, csa.field, rng), 1, 2, rng=rng))
    dl = DownloadAllParams.make(2, 2, 1, 1)
    cases.append(run_retrieval(dl, MessageSet.random(2, 1, dl.field, rng), 2, 2, rng=rng))
    cases.append(run_retrieval(2, (0, 1), 2, seed=2))
    sx = SymXspirParams.make(1, 2, p=5)
    cases.append(run_retrieval(sx, (sx.field(3), sx.field(0)), 1, seed=2))
    for run in cases:
        text = run.transcript.render()
        parsed, redecoded = replay(text)
        assert parsed == run.transcript
        assert redecoded == run.transcript.decoded



# Each scheme at the edges of the regime its params accept: csa at L = 1,
# download_all at X = 0 (N = 1 and N = T) and at N = X + T, binary_n3 at
# its smallest K, sym_xspir at N = 2, K = 1.
REGIME_EDGES = [
    ("csa", (3, 1, 1, 1)),
    ("download_all", (1, 2, 0, 1)),
    ("download_all", (2, 2, 0, 2)),
    ("download_all", (3, 4, 1, 2)),
    ("binary_n3", (3, 2, 1, 1)),
    ("sym_xspir", (2, 1, 1, 1)),
]


@pytest.mark.parametrize("name,dims", REGIME_EDGES, ids=[f"{n}-{d}" for n, d in REGIME_EDGES])
def test_replay_round_trips_at_each_regime_edge(name, dims):
    # Whatever dimensions a scheme's params accept, `replay` builds the same
    # scheme from the transcript's header and re-decodes to its DECODED line.
    scheme = scheme_mod.SCHEMES[name].make(*dims)
    rng = Random(sum(dims))
    run = run_retrieval(scheme.params, scheme.messages.sample(rng), scheme.K, seed=3)
    parsed, redecoded = replay(run.transcript.render())
    assert parsed == run.transcript
    assert redecoded == run.transcript.decoded == run.plaintext

def test_replay_exposes_tampered_answers():
    _, run = _csa_run(seed=6)
    text = run.transcript.render()
    target = None
    for a in run.transcript.answers:
        if a.kind == KIND_ANSWER:
            target = a
            break
    assert target is not None
    flipped = (target.payload[0] + 1) % 11
    tampered = text.replace(
        target.encode().rstrip("\n"),
        WireMessage(KIND_ANSWER, target.server_id, (flipped,) + target.payload[1:])
        .encode()
        .rstrip("\n"),
        1,
    )
    parsed, redecoded = replay(tampered)
    assert redecoded != parsed.decoded


def test_params_from_header_round_trip():
    for params in [
        CsaParams.make(5, 2, 1, 1),
        DownloadAllParams.make(2, 2, 1, 1),
        SymXspirParams.make(1, 2, p=5),
    ]:
        if isinstance(params, CsaParams):
            w = MessageSet.from_ints([[0, 0, 0]] * 2, params.field)
            run = run_retrieval(params, w, 1, seed=0)
        elif isinstance(params, DownloadAllParams):
            w = MessageSet.from_ints([[0]] * 2, params.field)
            run = run_retrieval(params, w, 1, seed=0)
        else:
            run = run_retrieval(params, (params.field(0), params.field(0)), 1, seed=0)
        assert sim_mod._scheme_of(run.transcript).params == params


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_exhaustive_rates_hit_closed_forms():
    assert empirical_rate(CsaParams.make(3, 1, 1, 1), exhaustive=True) == Fraction(5, 12)
    assert empirical_rate(2, exhaustive=True) == Fraction(4, 9)
    assert empirical_rate(3, exhaustive=True) == Fraction(8, 21)
    assert empirical_rate(
        DownloadAllParams.make(2, 3, 1, 1), exhaustive=True
    ) == Fraction(1, 6)
    assert empirical_rate(SymXspirParams.make(1, 2), exhaustive=True) == Fraction(1, 4)


@pytest.mark.parametrize("exhaustive", [False, True])
@pytest.mark.parametrize(
    "params",
    [CsaParams.make(3, 2, 1, 1), DownloadAllParams.make(3, 4, 1, 2), 2, SymXspirParams.make(1, 2)],
    ids=["csa", "download_all", "binary_n3", "sym_xspir"],
)
def test_empirical_rate_refuses_bad_arguments_before_any_retrieval(monkeypatch, params, exhaustive):
    scheme = sim_mod.for_params(params)
    calls = []
    monkeypatch.setattr(sim_mod, "run_retrieval", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(type(scheme), "queries", lambda *args: calls.append(args))
    for theta in (0, scheme.K + 1, 99):
        with pytest.raises(ValueError, match=rf"theta must be in 1\.\.{scheme.K}"):
            empirical_rate(params, exhaustive=exhaustive, theta=theta)
    for trials in (0, -3):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            empirical_rate(params, exhaustive=exhaustive, trials=trials)
    assert not calls


def test_sampled_rate_approaches_exhaustive():
    exact = empirical_rate(2, exhaustive=True)
    sampled = empirical_rate(2, trials=300, seed=11)
    assert isinstance(sampled, Fraction)
    assert abs(float(sampled) - float(exact)) < 0.05


# ---------------------------------------------------------------------------
# collusion and information flow
# ---------------------------------------------------------------------------


def test_full_collusion_of_download_all_servers_sees_everything():
    # N <= X + T: with all servers colluding, the stored payloads alone
    # reconstruct every message, which is why that regime downloads them all
    params = DownloadAllParams.make(2, 2, 1, 1)
    scheme = for_params(params)
    rng = Random(15)
    w = MessageSet.random(2, 1, params.field, rng)
    payloads = scheme.storage(w, scheme.storage_noises.sample(rng))
    assert download_all_decode(payloads, params) == w.symbols


def test_server_only_ever_sees_its_own_query():
    _, run = _csa_run(seed=8)
    # the harness enforces this invariant on every run; reaching here means
    # no server saw anything but [QUERY], so just re-check the transcript
    assert [q.server_id for q in run.transcript.queries] == [1, 2, 3, 4, 5]
    assert all(q.kind == KIND_QUERY for q in run.transcript.queries)


def test_misaddressed_traffic_is_logged_not_answered(monkeypatch):
    params = CsaParams.make(5, 2, 1, 1)
    scheme = CsaScheme(params)
    noise = scheme.storage_noises.build([0] * scheme.storage_noises.count)
    share = scheme.storage(MessageSet.from_ints([[0, 0, 0]] * 2, params.field), noise)[0]
    server = Server(1, share, scheme)
    query = " ".join(["1"] * scheme.query_symbols)
    reply = server.handle(f"QUERY 2 {scheme.query_symbols} {query}\n")  # for someone else
    assert server.received == ["misaddressed:QUERY"]
    assert WireMessage.parse(reply) == WireMessage(KIND_ANSWER_EMPTY, 1, ())

    server2 = Server(1, share, scheme)
    reply = server2.handle(WireMessage(KIND_ANSWER, 1, (1,)).encode())  # wrong kind
    assert server2.received == ["misaddressed:ANSWER"]
    assert WireMessage.parse(reply).kind == KIND_ANSWER_EMPTY

    # run_retrieval refuses a run in which any server saw misaddressed traffic
    handle = Server.handle

    def readdress(self, line):
        sid = self.server_id % params.N + 1
        return handle(self, line.replace(f"QUERY {self.server_id} ", f"QUERY {sid} ", 1))

    monkeypatch.setattr(Server, "handle", readdress)
    w = MessageSet.from_ints([[0, 0, 0]] * 2, params.field)
    with pytest.raises(ProtocolInvariantError, match="misaddressed:QUERY"):
        run_retrieval(params, w, 1, seed=0)


def test_run_retrieval_starts_no_thread(monkeypatch):
    counts = []
    answer = csa_mod.answer

    def counting_answer(share, query):
        counts.append(threading.active_count())
        return answer(share, query)

    monkeypatch.setattr(csa_mod, "answer", counting_answer)
    before = threading.active_count()
    _, run = _csa_run(seed=8)
    assert run.transcript.decoded == run.plaintext
    assert counts and set(counts) == {before}
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# transcript validation in replay
# ---------------------------------------------------------------------------


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def _reverse_lines(text, prefix):
    """`text` with its lines that start with `prefix` in reverse order."""
    lines = text.splitlines()
    found = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    for i, line in zip(found, reversed([lines[i] for i in found])):
        lines[i] = line
    return "\n".join(lines) + "\n"


def _replace_line(text, prefix, new):
    """Replace the first line starting with `prefix` by `new` (None: drop it)."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index : index + 1] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


def _drop_line(text, prefix):
    return _replace_line(text, prefix, None)


def _set_payload(text, kind, server_id, payload):
    new = WireMessage(kind, server_id, tuple(payload)).encode().rstrip("\n")
    return _replace_line(text, f"{kind} {server_id} ", new)


def _download_all_run():
    params = DownloadAllParams.make(2, 2, 1, 1)
    messages = MessageSet.from_ints([[2], [1]], params.field)
    return run_retrieval(params, messages, 1, seed=0)


def _sym_xspir_run():
    params = SymXspirParams.make(1, 2, p=5)
    return run_retrieval(params, (params.field(3), params.field(0)), 1, seed=0)


# A faithful theta-1 transcript of each scheme; the csa (5,2,1,1) one has no
# ANSWER_EMPTY, and the two download_all messages differ.
FAITHFUL_RUNS = {
    "csa": lambda: _csa_run(seed=0, theta=1)[1],
    "download_all": _download_all_run,
    "binary_n3": lambda: run_retrieval(2, (0, 1), 1, seed=0),
    "sym_xspir": _sym_xspir_run,
}

_THETA_2 = lambda t: _edit(t, "theta 1\n", "theta 2\n")

# Each case edits a faithful transcript (of csa unless a third element names
# the scheme) into one that no run could have produced; `match` names the
# check. download_all queries are empty, so nothing there tells theta but
# the re-decode: its case (match None) must re-decode to something other
# than its DECODED line.
BAD_TRANSCRIPTS = {
    "missing header line": (lambda t: _drop_line(t, "X "), "header lacks X"),
    "repeated header line": (
        lambda t: _edit(t, "theta 1\n", "theta 1\ntheta 2\n"), "repeated header line"
    ),
    "unknown header line": (lambda t: _edit(t, "seed ", "mode fast\nseed "), "unknown"),
    "DECODED line without a count": (
        lambda t: _replace_line(t, "DECODED ", "DECODED"), "malformed DECODED"
    ),
    "theta beyond K": (lambda t: _edit(t, "theta 1\n", "theta 9\n"), "theta must be in 1..2"),
    "theta zero": (lambda t: _edit(t, "theta 1\n", "theta 0\n"), "theta must be in 1..2"),
    "answer symbol not below p": (
        lambda t: _set_payload(t, "ANSWER", 2, [999]), "outside 0..10"
    ),
    "query symbol not below p": (
        lambda t: _set_payload(t, "QUERY", 2, [11, 0, 0, 0, 0, 0]), "outside 0..10"
    ),
    "missing answer": (lambda t: _drop_line(t, "ANSWER 3 "), "one answer per server"),
    "duplicated answer": (lambda t: _edit(t, "ANSWER 3 ", "ANSWER 2 "), "one answer per server"),
    "missing query": (lambda t: _drop_line(t, "QUERY 5 "), "one QUERY per server"),
    "repeated query": (lambda t: _edit(t, "QUERY 3 ", "QUERY 2 "), "one QUERY per server"),
    "query for no server": (lambda t: _edit(t, "QUERY 5 ", "QUERY 6 "), "one QUERY per server"),
    "query too short": (
        lambda t: _set_payload(t, "QUERY", 1, [1, 2, 3, 4, 5]), "carries 5 symbols"
    ),
    "answer too long": (lambda t: _set_payload(t, "ANSWER", 1, [1, 2]), "carries 2 symbols"),
    "empty answer to a nonzero query": (
        lambda t: _replace_line(t, "ANSWER 4 ", "ANSWER_EMPTY 4 0"), "replied ANSWER_EMPTY"
    ),
    "header disagrees with the scheme": (
        lambda t: _edit(t, "L 3\n", "L 2\n"), "does not match"
    ),
    "unknown scheme": (lambda t: _edit(t, "scheme csa\n", "scheme pir\n"), "unknown scheme"),
    "theta edited (csa)": (_THETA_2, "do not retrieve message 2"),
    "theta edited (binary_n3)": (_THETA_2, "do not retrieve message 2", "binary_n3"),
    "theta edited (sym_xspir)": (_THETA_2, "do not retrieve message 2", "sym_xspir"),
    "theta edited (download_all)": (_THETA_2, None, "download_all"),
}


@pytest.mark.parametrize("case", list(BAD_TRANSCRIPTS))
def test_replay_rejects_transcripts_no_run_could_produce(case):
    edit, match, *scheme = BAD_TRANSCRIPTS[case]
    run = FAITHFUL_RUNS[scheme[0] if scheme else "csa"]()
    text = run.transcript.render()
    assert replay(text)[1] == run.transcript.decoded
    if match is None:
        transcript, redecoded = replay(edit(text))
        assert redecoded != transcript.decoded
        return
    with pytest.raises(ValueError, match=match):
        replay(edit(text))


def _lane_run(bits):
    n, k, x, t, p = CHECK_LANES[bits]
    params = CsaParams.make(n, k, x, t, p=p)
    assert csa_mod._lane_bits(p, n) == bits
    messages = MessageSet.random(k, params.L, params.field, Random(p))
    return params, run_retrieval(params, messages, 1, seed=0)


def _query_symbol(params, symbol):
    payload = [symbol] + [0] * (params.L * params.K - 1)
    return lambda t: _set_payload(t, "QUERY", 2, payload)


@pytest.mark.parametrize("case", ["theta edited", "query symbol not below p"])
@pytest.mark.parametrize("bits", list(CHECK_LANES))
def test_replay_rejects_tampering_at_every_lane_width(bits, case):
    params, run = _lane_run(bits)
    text = run.transcript.render()
    assert replay(text)[1] == run.transcript.decoded
    edit, match = {
        "theta edited": (_THETA_2, "do not retrieve message 2"),
        "query symbol not below p": (
            _query_symbol(params, params.p), f"outside 0..{params.p - 1}"
        ),
    }[case]
    with pytest.raises(ValueError, match=match):
        replay(edit(text))


def test_replay_rejects_a_query_symbol_the_lanes_would_take_before_packing(monkeypatch):
    # At p = 41 the check packs symbols as bytes, which would accept 200;
    # the receiver's alphabet check must refuse it before the check runs.
    params, run = _lane_run(16)
    called = []
    monkeypatch.setattr(csa_mod, "constant_terms", lambda *args: called.append(args))
    with pytest.raises(ValueError, match="outside 0..40"):
        replay(_query_symbol(params, 200)(run.transcript.render()))
    assert not called


def test_replay_packs_the_kept_query_bytes(monkeypatch):
    # At p = 41 the byte read keeps each query's bytes, which the check of
    # theta packs as they are, with no tuple built back into bytes.
    _, run = _lane_run(16)
    packed, real = [], csa_mod._pack
    monkeypatch.setattr(csa_mod, "_pack", lambda values, *args: packed.append(type(values)) or real(values, *args))
    transcript, redecoded = replay(run.transcript.render())
    assert redecoded == transcript.decoded
    assert packed == [bytes] * transcript.N


# Retrievals of 64-symbol queries in the two schemes that rebuild them to
# check theta: the byte read keeps their bytes, which must compare as values.
KEPT_BYTES_RUNS = {
    "binary_n3": lambda: run_retrieval(64, tuple(Random(64).getrandbits(1) for _ in range(64)), 1, seed=0),
    "sym_xspir": lambda: run_retrieval(SymXspirParams.make(1, 64), tuple(range(64)), 1, seed=0),
}


@pytest.mark.parametrize("name", list(KEPT_BYTES_RUNS))
def test_kept_query_bytes_retrieve_theta_by_value(name):
    text = KEPT_BYTES_RUNS[name]().transcript.render()
    transcript, redecoded = replay(text)
    assert redecoded == transcript.decoded
    assert all(isinstance(q._raw, bytes) for q in transcript.queries)
    with pytest.raises(ValueError, match="do not retrieve message 2"):
        replay(_THETA_2(text))


def test_replays_with_one_header_eliminate_once(monkeypatch):
    texts = [_csa_run(seed=s, theta=1 + s % 2)[1].transcript.render() for s in (0, 1)]
    calls = []
    solve = csa_mod.solve_linear

    def counting_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(csa_mod, "solve_linear", counting_solve)
    csa_mod._table.cache_clear()
    for text in texts:
        transcript, redecoded = replay(text)
        assert redecoded == transcript.decoded
    assert len(calls) == 1


def test_replay_matches_answers_to_servers_by_id():
    # Answer lines, query lines or both out of server order: replay pairs
    # each with its server and checks theta on the queries in server order.
    _, run = _csa_run(seed=0, theta=2)
    for prefixes in (["ANSWER"], ["QUERY"], ["ANSWER", "QUERY"]):
        text = run.transcript.render()
        for prefix in prefixes:
            text = _reverse_lines(text, prefix)
        parsed, redecoded = replay(text)
        for prefix in prefixes:
            msgs = parsed.answers if prefix == "ANSWER" else parsed.queries
            assert [m.server_id for m in msgs] == [5, 4, 3, 2, 1]
        assert redecoded == run.transcript.decoded


# ---------------------------------------------------------------------------
# a receiver's fused read, the parse of a payload and its alphabet check:
# the outcome of the token read and a scan of every symbol
# ---------------------------------------------------------------------------

ALPHABETS = [range(2), range(23), range(41), range(257), range(1031), range(1, 65)]
_check_symbols = sim_mod._check_symbols


def _scanned(msg, count, alphabet):
    """`_check_symbols` by the max/min scan: `msg` keeps no bytes."""
    msg._raw = msg.payload
    _check_symbols(msg, count, alphabet)


def _as_today(fn, *args):
    """`fn(*args)`'s outcome with no byte read and every check a scan: each
    payload is split into tokens, read by the codec table or `int`, and
    scanned by its receiver."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_mod, "_read_bytes", lambda text, count: None)
        patch.setattr(sim_mod, "_check_symbols", _scanned)
        return _outcome(fn, *args)


def _tampered(tokens, alphabet):
    """`tokens` with one token outside its alphabet or the codec table (the
    alphabet's stop, "0", one below its start, 100 above it, whose last two
    digits are in an alphabet below 100, and the odd and bad tokens) put at
    the start, the middle and the end."""
    for token in [str(alphabet.stop), "0", str(alphabet.start - 1), str(alphabet.start + 100), *ODD_TOKENS, *BAD_TOKENS]:
        for i in {0, len(tokens) // 2, len(tokens) - 1}:
            yield tokens[:i] + [token] + tokens[i + 1 :]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_the_fused_read_parses_and_checks_as_int_and_a_scan_do(alphabet):
    # A receiver's read and check of a payload, short or long, clean or
    # tampered with, against `int` and a scan.
    def received(tokens):
        msg = WireMessage.parse(" ".join(["QUERY", "2", str(len(tokens)), *tokens]))
        sim_mod._check_symbols(msg, len(tokens), alphabet)
        return msg.payload

    def scanned(tokens):
        msg = WireMessage(KIND_QUERY, 2, tuple(map(int, tokens)))
        _scanned(msg, len(tokens), alphabet)
        return msg.payload

    values = [alphabet[i * 37 % len(alphabet)] for i in range(600)]
    clean = list(map(str, values))
    assert WireMessage.parse(" ".join(["QUERY", "2", "600", *clean])).payload == tuple(values)
    for tokens in [clean[:3], clean, *_tampered(clean, alphabet), *_tampered(clean[:3], alphabet)]:
        assert _outcome(received, tokens) == _outcome(scanned, tokens)


# Query alphabets range(p) at p = 23, 41, 257, 1031 and 2, and sym_xspir's
# range(1, K + 1), each on lines of 64 query symbols.
SERVED = {
    "csa p=23": CsaParams.make(12, 8, 2, 2),
    "csa p=41": CsaParams.make(12, 8, 2, 2, p=41),
    "csa p=257": CsaParams.make(12, 8, 2, 2, p=257),
    "csa p=1031": CsaParams.make(12, 8, 2, 2, p=1031),
    "binary_n3": 64,
    "sym_xspir": SymXspirParams.make(1, 64),
}


@pytest.mark.parametrize("name", list(SERVED))
def test_a_server_answers_or_refuses_as_after_a_scan(name):
    scheme, rng = for_params(SERVED[name]), Random(0)
    shares = scheme.storage(scheme.messages.sample(rng), scheme.storage_noises.sample(rng))
    payloads = scheme.queries(1, scheme.query_randomness.sample(rng))
    server = Server(2, shares[1], scheme)
    tokens = list(map(str, payloads[1]))
    assert len(tokens) == 64 and scheme.query_alphabet in ALPHABETS
    for tokens in [tokens, *_tampered(tokens, scheme.query_alphabet)]:
        line = " ".join(["QUERY", "2", str(len(tokens)), *tokens]) + "\n"
        assert _outcome(server.handle, line) == _as_today(server.handle, line)


# Schemes whose answers are 64 symbols (download_all at p = 3, sym_xspir at
# p = 2) or one (csa).
ANSWERED = {
    "download_all": DownloadAllParams.make(2, 64, 1, 1),
    "sym_xspir": SymXspirParams.make(1, 64),
    "csa p=23": CsaParams.make(12, 8, 2, 2),
    "csa p=1031": CsaParams.make(12, 8, 2, 2, p=1031),
}


@pytest.mark.parametrize("name", list(ANSWERED))
def test_the_client_accepts_or_refuses_answers_as_after_a_scan(name, monkeypatch):
    params = ANSWERED[name]
    scheme = for_params(params)
    messages = scheme.messages.sample(Random(1))
    run = lambda: run_retrieval(params, messages, 1, seed=0)
    tokens = list(map(str, run().transcript.answers[1].payload))
    assert len(tokens) in (1, 64)
    handle, reply = Server.handle, {}

    def replying(server, line):  # server 2 sends the reply under test
        honest = handle(server, line)
        return reply["line"] if server.server_id == 2 else honest

    monkeypatch.setattr(Server, "handle", replying)
    for tokens in [tokens, *_tampered(tokens, range(scheme.p))]:
        reply["line"] = " ".join(["ANSWER", "2", str(len(tokens)), *tokens]) + "\n"
        assert _outcome(run) == _as_today(run)


REPLAYED = {
    "csa (24,32,4,4)": lambda: _transcript(CsaParams.make(24, 32, 4, 4)),
    "csa p=1031": lambda: _transcript(CsaParams.make(12, 8, 2, 2, p=1031)),
    "sym_xspir": lambda: _transcript(SymXspirParams.make(1, 64)),
}


def _transcript(params, seed=0):
    scheme = for_params(params)
    return run_retrieval(params, scheme.messages.sample(Random(seed)), 1, seed).transcript


@pytest.mark.parametrize("name", list(REPLAYED))
def test_replay_accepts_or_refuses_as_after_a_scan(name):
    transcript = REPLAYED[name]()
    alphabet = sim_mod._scheme_of(transcript).query_alphabet
    text = transcript.render()
    assert _outcome(replay, text) == _as_today(replay, text)
    tokens = list(map(str, transcript.queries[1].payload))
    for tokens in _tampered(tokens, alphabet):
        tampered = _replace_line(text, "QUERY 2 ", " ".join(["QUERY", "2", str(len(tokens)), *tokens]))
        assert _outcome(replay, tampered) == _as_today(replay, tampered)


def test_a_replay_scans_no_query_payload_it_read_from_its_alphabet(monkeypatch):
    transcript = _transcript(CsaParams.make(24, 32, 4, 4))
    text, scanned = transcript.render(), []

    def counting(values):
        scanned.append(len(values))
        return max(values)

    monkeypatch.setattr(sim_mod, "max", counting, raising=False)
    assert replay(text)[1] == transcript.decoded
    assert scanned == [1] * 24  # the one-symbol answers, too short for the byte read
    scanned.clear()
    tampered = _set_payload(text, KIND_QUERY, 3, (41,) + transcript.queries[2].payload[1:])
    with pytest.raises(ValueError, match="QUERY 3 has a symbol outside 0..40"):
        replay(tampered)
    assert scanned == []  # refused from its kept bytes


# ---------------------------------------------------------------------------
# the byte read: a long line of symbols below 100 read as bytes, with the
# outcome of the token read and a scan
# ---------------------------------------------------------------------------

# Texts put in place of one token: whitespace around it, then tokens the
# byte read must refuse or read as `int` does ("105" would be 5 and "123"
# 23 by their last two digits; a lone surrogate has no UTF-8 encoding).
SPLICES = [
    lambda t: t + "  ", lambda t: t + "\t", lambda t: " " + t, lambda t: t + " ", lambda t: t + "\r\n",
    lambda t: "07", lambda t: "00", lambda t: "٣", lambda t: "105", lambda t: "123", lambda t: "\ud800",
]


def _variants(tokens):
    """Lines of `tokens` (count, text) with each splice at the start, the
    middle and the end of the payload, and the clean line with its count
    off by one either way."""
    n = len(tokens)
    yield n, " ".join(tokens)
    yield n - 1, " ".join(tokens)
    yield n + 1, " ".join(tokens)
    for splice in SPLICES:
        for i in (0, n // 2, n - 1):
            yield n, " ".join(tokens[:i] + [splice(tokens[i])] + tokens[i + 1 :])


def _byte_payloads(alphabet):
    """Each long codec payload, and 600 symbols of `alphabet`."""
    drawn = tuple(alphabet[i * 37 % len(alphabet)] for i in range(600))
    return [pl for pl in CODEC_PAYLOADS if len(pl) >= sim_mod._BYTE_FORMAT_MIN] + [drawn]


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_the_byte_read_parses_and_checks_as_the_token_read_and_a_scan_do(alphabet):
    def received(line, n):
        msg = WireMessage.parse(line)
        sim_mod._check_symbols(msg, n, alphabet)
        return msg

    for payload in _byte_payloads(alphabet):
        tokens = list(map(str, payload))
        for count, text in _variants(tokens):
            for end in ("", "\n"):
                line = f"QUERY 2 {count} {text}{end}"
                assert _outcome(received, line, len(tokens)) == _as_today(received, line, len(tokens))


@pytest.mark.parametrize("alphabet", ALPHABETS, ids=str)
def test_kept_bytes_are_checked_as_a_scan_checks_them(alphabet, monkeypatch):
    # 64 symbols of the alphabet below 100, then with one set to each of its
    # stop, one below its start, 0, 99 and 255 that a byte holds (range(2)
    # meets a 2, range(1, 65) a 0), at the start, the middle and the end.
    # Their bytes are kept when built in code and, below 100, by the byte
    # read; the check of either gives the outcome of the max/min scan.
    monkeypatch.setattr(sim_mod, "_read_symbols", _refusing)
    clean = [alphabet[i * 37 % len(alphabet)] % 100 for i in range(64)]
    payloads = [clean] + [
        clean[:i] + [odd] + clean[i + 1 :]
        for odd in {alphabet.stop, alphabet.start - 1, 0, 99, 255} & set(range(256))
        for i in (0, 32, 63)
    ]
    for payload in map(tuple, payloads):
        built = WireMessage(KIND_QUERY, 2, payload)
        msgs = [built] + ([WireMessage.parse(built.encode())] if max(payload) < 100 else [])
        want = _outcome(_scanned, WireMessage(KIND_QUERY, 2, payload), 64, alphabet)
        assert (want is None) == all(v in alphabet for v in payload)
        for msg in msgs:
            assert msg == built and msg._raw == bytes(payload)
            assert _outcome(sim_mod._check_symbols, msg, 64, alphabet) == want


def _refusing(*args):
    raise AssertionError("read by the other path")


@pytest.mark.parametrize("p", [23, 41])
def test_canonical_long_lines_below_100_take_the_byte_read(p, monkeypatch):
    transcript = _transcript(CsaParams.make(12, 8, 2, 2, p=p))
    assert len(transcript.queries[0].payload) == 64
    monkeypatch.setattr(sim_mod, "_read_symbols", _refusing)
    for q in transcript.queries:
        msg = WireMessage.parse(q.encode())
        assert msg == q and msg._raw == bytes(q.payload)


@pytest.mark.parametrize("p", [257, 1031])
def test_long_lines_past_100_fall_back_to_the_token_read(p, monkeypatch):
    # Each QUERY line holds a token of three digits: the byte read refuses
    # it, and the token read gives the message.
    transcript = _transcript(CsaParams.make(12, 8, 2, 2, p=p))
    tried, read_bytes = [], sim_mod._read_bytes

    def recording(text, count):
        tried.append(read_bytes(text, count))
        return tried[-1]

    monkeypatch.setattr(sim_mod, "_read_bytes", recording)
    assert replay(transcript.render())[1] == transcript.decoded
    assert tried == [None] * 12
    for q in transcript.queries:
        msg = WireMessage.parse(q.encode())
        assert msg == q and msg._raw == q.payload


def test_replay_builds_the_scheme_once_and_parses_through_transcript_parse(monkeypatch):
    built, parsed = [], []
    from_header, parse = sim_mod.from_header, Transcript.parse.__func__

    def counting_build(*args):
        built.append(args[0])
        return from_header(*args)

    def counting_parse(cls, *args):
        parsed.append(1)
        return parse(cls, *args)

    monkeypatch.setattr(sim_mod, "from_header", counting_build)
    monkeypatch.setattr(Transcript, "parse", classmethod(counting_parse))
    run = _csa_run()[1]
    assert replay(run.transcript.render())[1] == run.transcript.decoded
    assert built == ["csa"] and parsed == [1]
    built.clear()
    with pytest.raises(ValueError, match="unknown scheme"):
        replay(_edit(run.transcript.render(), "scheme csa\n", "scheme pir\n"))
    assert built == ["pir"]
