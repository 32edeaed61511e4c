import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qlgame as ql
import helpers
from qlgame.frequency import TrialSequence, read_sequence


def test_estimate_counts():
    freqs = ql.estimate_frequencies(ql.TrialSequence(("F", "F", "I", "F")))
    assert freqs.probs[0] == 0.75
    assert freqs.probs[1] == 0.25


def test_estimate_alternating():
    seq = ql.TrialSequence(("F", "I") * 500)
    freqs = ql.estimate_frequencies(seq)
    assert freqs.probs[0] == 0.5


def test_estimate_empty_errors():
    with pytest.raises(ql.ValidationError, match="empty sequence"):
        ql.estimate_frequencies(ql.TrialSequence(()))


def test_estimate_unknown_label_errors():
    # the first unknown label in sequence order is named
    with pytest.raises(ql.ValidationError) as exc:
        ql.estimate_frequencies(ql.TrialSequence(("F", "Y", "X", "Y")))
    assert str(exc.value) == "outcome 'Y' not in alphabet ('F', 'I')"


def test_frequencies_are_multiples_of_1_over_n(rng):
    n = 357
    labels = tuple("F" if u < 0.3 else "I" for u in rng.random(n))
    freqs = ql.estimate_frequencies(ql.TrialSequence(labels))
    assert float(freqs.probs.sum()) == 1.0
    for p in freqs.probs:
        assert p == round(p * n) / n


def test_stabilization_constant_sequence():
    report = ql.stabilization_report(
        ql.TrialSequence(("F",) * 1000), window_fraction=0.5, tol=0.01
    )
    assert report.stabilized
    assert report.max_tail_oscillation == 0.0


def test_stabilization_detects_drift():
    seq = ql.TrialSequence(("F",) * 500 + ("I",) * 500)
    report = ql.stabilization_report(seq, window_fraction=0.5, tol=0.01)
    assert not report.stabilized
    assert report.max_tail_oscillation > 0.4


def test_stabilization_fair_coin_million():
    gen = ql.GeneratorSpec(ql.uniform_distribution(), "fair-coin")
    seq = ql.sample_outcomes(gen, 10**6, ql.stream_rng(2024, gen.stream_id))
    report = ql.stabilization_report(seq, window_fraction=0.1, tol=0.01)
    assert report.stabilized


def test_stabilization_too_short_errors():
    with pytest.raises(ql.ValidationError, match="too short"):
        ql.stabilization_report(ql.TrialSequence(("F",) * 10), window_fraction=0.1)


def test_stabilization_bad_window_errors():
    with pytest.raises(ql.ValidationError, match="window_fraction"):
        ql.stabilization_report(ql.TrialSequence(("F",) * 10), window_fraction=1.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_stabilization_bad_tol_errors(tol):
    seq = ql.TrialSequence(("F", "I") * 10)
    with pytest.raises(ql.ValidationError) as info:
        ql.stabilization_report(seq, window_fraction=0.5, tol=tol)
    assert str(info.value) == f"tol must be finite and nonnegative, got {tol!r}"


def test_running_frequencies_prefixes():
    running = ql.running_frequencies(ql.TrialSequence(("F", "I", "I")))
    assert np.allclose(running, [[1.0, 0.0], [0.5, 0.5], [1 / 3, 2 / 3]])


def test_conditional_frequencies_filter():
    pairs = [("F", "F"), ("F", "I"), ("I", "I"), ("F", "F"), ("I", "F")]
    cond = ql.conditional_frequencies(pairs, given="F")
    assert cond.probs[0] == pytest.approx(2 / 3)
    assert cond.probs[1] == pytest.approx(1 / 3)


@pytest.mark.parametrize("pairs", [[("F", "F"), ("F", "I")], []])
def test_conditional_frequencies_names_absent_condition(pairs):
    with pytest.raises(ql.ValidationError) as exc:
        ql.conditional_frequencies(pairs, given="I")
    assert str(exc.value) == "no pair has condition 'I'"


def test_generator_agreement_bound():
    # final frequency within 4*sqrt(p(1-p)/N) of the generator probability
    p = 0.3
    n = 10**6
    gen = ql.GeneratorSpec(ql.Distribution([p, 1 - p]), "biased")
    seq = ql.sample_outcomes(gen, n, ql.stream_rng(99, gen.stream_id))
    freqs = ql.estimate_frequencies(seq)
    assert abs(freqs.probs[0] - p) <= 4.0 * np.sqrt(p * (1 - p) / n)


def test_read_sequence_from_lines(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("F\nI\n\nF\n")
    seq = read_sequence(path)
    assert seq.outcomes == ("F", "I", "F")


def _result(fn, *args):
    """The function's value, or the message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ql.ValidationError as exc:
        return ("error", str(exc))


# 1-3 distinct labels, some outside every requested alphabet, then a
# sequence of 0-300 of them.
LABEL_POOLS = st.lists(st.sampled_from(["F", "I", "X", "F I"]), min_size=1, max_size=3, unique=True)
SEQUENCES = LABEL_POOLS.flatmap(
    lambda pool: st.tuples(st.just(tuple(pool)), st.lists(st.sampled_from(pool), max_size=300))
)


@given(
    case=SEQUENCES,
    alphabet=st.sampled_from([("F", "I"), ("I", "F"), ("F", "I", "X")]),
    window=st.sampled_from([0.01, 0.05, 0.1, 0.37, 1.0]),
)
def test_code_array_matches_label_reference(case, alphabet, window):
    pool, labels = case
    tol = 0.01
    built = TrialSequence(labels, context_tag="T")
    assert built.alphabet == tuple(dict.fromkeys(labels))
    # A code-backed sequence whose alphabet also holds labels that never occur.
    coded = TrialSequence._from_codes(np.array([pool.index(x) for x in labels], dtype=np.intp), pool, "T")
    for seq in (built, coded):
        assert seq.outcomes == tuple(labels) and len(seq) == len(labels)
        want = _result(helpers.reference_estimate, labels, alphabet)
        got = _result(ql.estimate_frequencies, seq, alphabet)
        assert got == want if isinstance(want, tuple) else got.probs.tolist() == want

        want = _result(helpers.reference_running, labels, alphabet)
        got = _result(ql.running_frequencies, seq, alphabet)
        assert got == want if isinstance(want, tuple) else (
            got.shape == (len(labels), len(alphabet)) and got.tolist() == want
        )

        want = _result(helpers.reference_stabilization, labels, window, tol, alphabet)
        got = _result(ql.stabilization_report, seq, window, tol, alphabet)
        if want[0] == "error":
            assert got == want
        else:
            assert got.final_frequencies.probs.tolist() == want[0]
            assert (got.max_tail_oscillation, got.stabilized) == want[1:]


def test_sequence_codes_are_read_only():
    seq = ql.TrialSequence(("I", "F", "I"))
    assert seq.alphabet == ("I", "F") and seq.codes.tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        seq.codes[0] = 1


# One-character labels (non-ASCII, astral, a lone surrogate, whitespace and
# NUL among them) take the joined-text coding; "", longer labels and ints
# take the dictionary.
ONE_CHAR = ["F", "I", "é", "字", "🍷", "\ud800", "\udfff", "\x00", " "]
OTHER = ["", "F I", "FI", "🍷🍷", 0, 7]
CODEC_CASES = st.lists(
    st.one_of(st.sampled_from(ONE_CHAR + OTHER), st.characters(exclude_categories=())),
    min_size=1, max_size=6, unique=True,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=200))


@given(labels=CODEC_CASES, form=st.sampled_from([list, tuple, iter]))
def test_codec_matches_dict_reference(labels, form):
    codes, alphabet = helpers.reference_codes(labels)
    seq = TrialSequence(form(labels))
    assert seq.alphabet == alphabet
    assert [type(label) for label in seq.alphabet] == [type(label) for label in alphabet]
    assert seq.codes.dtype == np.intp and not seq.codes.flags.writeable
    assert seq.codes.tolist() == codes
    assert seq.outcomes == tuple(labels) and len(seq) == len(labels)


def test_codec_coding_is_linear_in_distinct_labels():
    # 2e5 labels over 5e4 distinct astral characters, each first seen after
    # a run of 1.5e5 "F"s: a scan per distinct label would cost ~5e4 passes
    # of at least 1.5e5 labels each.
    rng = np.random.default_rng(7)
    many = ["F"] * 150_000 + [chr(0x10000 + k) for k in rng.permutation(50_000)]
    two = [("F", "I")[k] for k in rng.integers(0, 2, len(many))]

    def best(labels):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            TrialSequence(labels)
            times.append(time.perf_counter() - start)
        return min(times)

    seq = TrialSequence(many)
    assert len(seq.alphabet) == 50_001 and seq.outcomes == tuple(many)
    assert (seq.codes.tolist(), seq.alphabet) == helpers.reference_codes(many)
    assert best(many) < 30 * best(two)


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", " "]
READ_LABELS = ["F", "I", "é", "🍷", "F I", "FI", " ", ""]


@given(
    lines=st.lists(
        st.tuples(
            st.sampled_from(["", " ", "  ", "\t"]),
            st.sampled_from(READ_LABELS),
            st.sampled_from(["", " ", "\t "]),
            st.sampled_from(LINE_BREAKS),
        ),
        max_size=60,
    )
)
def test_read_sequence_matches_line_reference(lines):
    text = "".join("".join(line) for line in lines)
    labels = helpers.reference_read_lines(text)
    codes, alphabet = helpers.reference_codes(labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.txt"
        path.write_bytes(text.encode("utf-8"))
        read = (read_sequence(path), read_sequence(str(path)), read_sequence(text.splitlines()))
    for seq in read:
        assert seq.outcomes == tuple(labels) and seq.alphabet == alphabet
        assert seq.codes.tolist() == codes


# The byte path takes only files of one byte in 0x21-0x7E and "\n" per line;
# each other file here falls back to the decoded, stripped lines.
PRINTABLE = "".join(map(chr, np.random.default_rng(5).permutation(np.arange(0x21, 0x7F))))


@pytest.mark.parametrize(
    "text",
    [
        "I\nF\nI\nI\n",
        "".join(f"{c}\n" for c in PRINTABLE),
        "I\r\nF\r\nI\r\nI\r\n",
        "I\nF\nI\nI",
        "I\nF\n\nI\nI\n",
        "I\nF\n \nI\n",
        "I\nF \nI\nI\n",
        "I\n\x1c\nF\n",
        "I\n\x7f\nF\n",
        "I\né\nF\n",
        "I\n\x85F\n",
        "",
    ],
    ids=["fast", "printable", "crlf", "no-final-newline", "blank", "space", "padded",
         "x1c", "x7f", "e-acute", "x85", "empty"],
)
def test_read_sequence_paths_agree(tmp_path, text):
    path = tmp_path / "seq.txt"
    path.write_bytes(text.encode("utf-8"))
    want = read_sequence(text.splitlines())
    got = read_sequence(path)
    assert got.codes.tolist() == want.codes.tolist()
    assert got.alphabet == want.alphabet and got.outcomes == want.outcomes


def _traced_peak(fn, *args):
    """The function's value and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_read_and_count_memory_bounds(tmp_path):
    # 5e5 one-character labels: reading holds the file and the codes, and
    # counting builds no array as long as the sequence
    mib = 1 << 20
    path = tmp_path / "seq.txt"
    draws = np.random.default_rng(11).integers(0, 2, 500_000)
    path.write_text("".join(("F\n", "I\n")[k] for k in draws))
    seq, peak = _traced_peak(read_sequence, path)
    assert seq.codes.tolist() == draws.tolist() or seq.codes.tolist() == (1 - draws).tolist()
    assert peak <= seq.codes.nbytes + path.stat().st_size + mib
    assert _traced_peak(ql.estimate_frequencies, seq)[1] <= 1.5 * mib
    # the tail differences are taken in place: one window x k array
    stabilization_peak = _traced_peak(ql.stabilization_report, seq, 0.1)[1]
    assert stabilization_peak <= 3 * mib
    assert stabilization_peak <= 2 * mib
