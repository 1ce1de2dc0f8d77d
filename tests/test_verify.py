from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import packcrit
from packcrit import enumeration, verify
from packcrit.cli import main
from packcrit.enumeration import EnumerationFilter, canonical_cert, representatives
from packcrit.errors import CharacterizationError, PreconditionError
from packcrit.families import build, parse_spec
from packcrit.graphio import emit_graph6, parse_graph6
from packcrit.graphs import Graph
from packcrit.verify import THEOREMS, _decorations, _hub_plus, evaluate_payload, run_sweep
from strategies import permutations_of, relabel

ALL_IDS = [
    "pro4", "pro5", "pro6", "pro7", "pro8", "pro9", "pro10", "pro11", "pro12",
    "pro13", "pro15", "pro16", "lemma4", "lemma5", "lemma6", "lemma7", "lemma8",
    "teo1", "teo3", "teo4", "thm12", "pro14", "cor1", "cor-haynes", "lem-rad3",
    "teo2", "obsv1", "lemma1", "lem-mainblock", "pro2", "pro3",
]


def test_registry_is_complete():
    assert sorted(THEOREMS) == sorted(ALL_IDS)


def test_unknown_theorem():
    with pytest.raises(KeyError):
        run_sweep("nope")


@pytest.mark.parametrize("theorem", ["pro6", "lemma6", "lemma1", "lemma5"])
def test_tiny_sweeps_pass(theorem):
    rep = run_sweep(theorem)
    assert rep.ok and rep.total >= 1


def test_records_are_replayable(tmp_path):
    rep = run_sweep("pro4", max_vertices=9)
    path = tmp_path / "out.ldjson"
    rep.write_ldjson(str(path))
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        g = parse_graph6(rec["instance_g6"])
        assert g.n <= 9
        assert rec["agree"] is True
        assert isinstance(rec["micros"], int)


def test_records_sorted_canonically():
    rep = run_sweep("pro10", max_vertices=10)
    keys = [(r["instance_g6"], r["spec"] or "") for r in rep.records]
    assert keys == sorted(keys)


def test_decorations_are_the_brute_filter():
    for q in range(4):
        for budget in range(11):
            pairs = itertools.product(range(budget + 1), range(budget // 2 + 1))
            brute = [
                ps for ps in itertools.product(pairs, repeat=q)
                if all(k + m >= 1 for k, m in ps) and sum(k + 2 * m for k, m in ps) <= budget
            ]
            assert list(_decorations(q, budget)) == brute, (q, budget)


def test_hub_plus_is_the_joined_graph():
    # Built from the base's rows, it equals the validated edge-list build.
    for n in range(1, 8):
        for base in representatives("all", n):
            hub = _hub_plus(base)
            joined = Graph(n + 1, base.edges() + [(v, n) for v in range(n)])
            assert hub == joined and hub.adjacency_bits() == joined.adjacency_bits()


def test_smaller_scale_sweeps_pass():
    for theorem, kw in [
        ("pro5", {"max_vertices": 9}),
        ("pro9", {"max_vertices": 9}),
        ("pro16", {"max_vertices": 9}),
        ("pro14", {"base_max": 4}),
        ("cor1", {"base_max": 4}),
        ("lem-rad3", {"max_vertices": 9}),
        ("lem-mainblock", {"max_vertices": 7}),
        ("lemma8", {"max_vertices": 8}),
    ]:
        rep = run_sweep(theorem, **kw)
        assert rep.ok, rep.summary()


def _records_digest(records: list[dict]) -> str:
    lines = sorted(
        json.dumps({k: v for k, v in rec.items() if k != "micros"}, sort_keys=True)
        for rec in records
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# theorem -> (size overrides, record count, SHA-256 of the sorted records
# without micros).  Every sweep runs at its default size except where that
# takes more than about a second; teo1 has no size to lower.  A sweep whose
# default rose keeps its pin at the old size here and is pinned at the new
# default in RAISED_PINS.
SWEEP_PINS = {
    "pro4": ({}, 29, "9ebb3e4c53d7e958ad76ace2f1efff3814c7c01f58411f0349d8f8bf2a71f4b7"),
    "pro5": ({"max_vertices": 12}, 16, "74cc1b5e42c66ff4c5ab15d23a640b6e07ba5afea956654ba75ca4bf395ace6e"),
    "pro6": ({}, 1, "65846c4512d6ad972aada5a118d48de0dda72a6054c8357d2790d904d5eecfc9"),
    "pro7": ({"max_vertices": 12}, 19, "09f8811b392c75fb4e11644d36b22cb08d3eff9d244f02c0d314e4e175d3146c"),
    "pro8": ({}, 186, "e123409ee5999f60534ae779abca6131ec5e2ee85036965c73c6e848ac408e15"),
    "pro9": ({"max_vertices": 10}, 27, "3214d4e516e05258c3e069eb4299ed9939e19a186d6faea6c44b9c02cc3c6e5d"),
    "pro10": ({}, 35, "0ed499021bbabfd062f990398fe126b0f0075ba6967698ff28d58ec2ad2c235d"),
    "pro11": ({"max_vertices": 12}, 24, "801bada26a83ba42bf0ebda82263e86fd45a6cc6ac21425bc1973754c0334ec1"),
    "pro12": ({}, 265, "6a039c76b9e109714105d737707e2badff74d01be79e2b25bbb3878d920429c2"),
    "pro13": ({"max_vertices": 10}, 49, "362654d78cc10b311378059fa36749069aeb413e836f73233113389e593eb754"),
    "pro15": ({"max_vertices": 12}, 27, "ff4441024a5cd5424c082fcc57dfd75c876015c98e717329ddda88cb6a2a1cf0"),
    "pro16": ({"max_vertices": 10}, 31, "759232e525c19299678b5920cba326d9307620bf3218aed568017361c4da8cf8"),
    "lemma4": ({"max_vertices": 6}, 143, "336ccc64f87d6d052c81ba6249caea24d999459ef338bc54837a4cb5bddfa510"),
    "lemma5": ({}, 5, "6d416a2ca4d923597cf3ba54618f77f195cc3e7484f3388d5090d050bbbff552"),
    "lemma6": ({}, 1, "60d5acae0c74952b70b39147f072ff65f855ac01ea0b8ada04678566cd94f24d"),
    "lemma7": ({}, 70, "872e63d491f7518fd9f7591bbf7bcb56b56cf14660e0bf4085feed625758a1ae"),
    "lemma8": ({"max_vertices": 8}, 41, "1fb2bfa728db84f8309434ffa4ec1af95547836e23b416a94228aec48764888e"),
    "teo1": ({}, 13, "b493a7e02d286594f4f89bf099269219622c1d29f9868cfd639bf65bbd77d2d3"),
    "teo3": ({"max_vertices": 8}, 2, "3f5423a2a2cb71ecd4621b6c3baa3b822a0cc6bdd962eb8bb5bdbe4dff4c7555"),
    "teo4": ({"max_vertices": 8}, 74, "d464cfd56385c4fb2e67c9782937e43b3f066c647075f6204b0196ef83453c6d"),
    "thm12": ({"base_max": 5}, 52, "d2e499bc673a7a2c0aea890e0f8ffcfa7a09ca0b12e41cb01aba4ab5a5349b5d"),
    "pro14": ({"base_max": 5}, 52, "0640385351ac362e9e79c8c8db5367c6f8d6e6d212abc3df5ca613783bc05849"),
    "cor1": ({"base_max": 5}, 52, "eb1eb0a9c9e9795ed62de4b2ae92cc469e601c083312d0a2bccbfe930c25f0c8"),
    "cor-haynes": ({"max_vertices": 6}, 7, "0b06077d8802039ba723a824273960a63038bc4b1e2eabd9ddb19f3349323a71"),
    "lem-rad3": ({}, 3, "00958107ec9f7707aaf849ca666b6ab1b3e78b1615d52281645dabe7a7b2a793"),
    "teo2": ({}, 996, "fbdb4b0ee5952695a9a3aa4e3b8a435c41c3001706bf23b2d76fce3e0efe082f"),
    "obsv1": ({}, 995, "c41d3cf462e9f08042b033a41ffbff1175bb2f43373a03baa8650c7939a93c48"),
    "lemma1": ({}, 10, "a3b142102a7c47ebb19b39e3ff2ed855ea16d7b770c9385cbe2110e90a78ad78"),
    "lem-mainblock": ({"max_vertices": 8}, 194, "462f976672dd64fcd91c6c9f0df1af20265a59791d9d1bea9bb92d017e7b709a"),
    "pro2": ({"max_vertices": 8}, 2, "29da3c74cced081fb32f97aefde44b86294089308fd5172877ff4215b7883b28"),
    "pro3": ({}, 16, "118f708ae3841dacc626d11386dccfb13f35cfe41f01787590c15b993a195be5"),
}

# theorem -> (record count, digest) at the default size, for the sweeps
# whose default rose from the size SWEEP_PINS states.
RAISED_PINS = {
    "pro5": (36, "0926ca767b359342e8757e3d1587d4e44c736e2722950ce9ae1066b58175447c"),
    "pro7": (41, "7d48eb3a363f544b42d7cd0380f1dbe00d45964d8159a1e7b966fab697a3ea99"),
    "pro11": (48, "c0e6d7d2698afe1bf1727dfd2c38e0e19913f5f2da095fde4b3bcb3523525c97"),
    "pro15": (65, "9d9f97360072d56812b7d712a804b3474dea1293efbfa3cd3c8c09d87ade2d04"),
}

# A fixed graph6 corpus: every graph on at most 4 vertices, samples of the
# class and hub sweeps' own instances, and a few graphs no filter keeps
# (C11, P6, K1,9) or only the hub sweeps keep (W6).
CORPUS = """
    @ A? A_ B? BO BW Bw C? CC CE CT CF CV CU C^ CQ C] C~ DuO FsbA? Gs`AK? Gs`AI? GsPLC_
    HsbDC`? HsqaAAO HspA?OH Cr DqK Cq FsPL? Gs`AM? GsPDC_ HsaCE?o HsaBA@? HsqaC_G
    Is`AM?@?W IsOkCAOO? Is`ADAOO? IsbAA@?@? DUW D~{ ETxO E~~w FCp`_ FTnqO FV}aG FTxIg
    F~~~w Gsb@a? HsOG[AG Hs`AH__ HsaA?E_ Is`A?M?g? IsOG[@_O? IsaE@_@G? IsOGS@GW?
    IsOGY?`?O Is`AKA_C? EsP? GsaCA? HsaCC@? IsaCCA?O? IsaAA@?O? E?rw ETzw F?`Fw FCtNw
    FCpvw FE~~w FF~~w F^~~w FE~fw FVvfw G?qn~{ G?r`v{ GEl~f{ GTm~f{ GE}jV{ JhCGGC@?K?_
    EhCG IsaCCA?_? E|fG
"""

# theorem -> (record count, digest) over CORPUS at the default size: the
# sweep's hypothesis class plus its extra predicate picks the corpus graphs.
CORPUS_PINS = {
    "lemma4": (38, "35ff39153c7b6a1feb54bb1941d105dfea9027ec85639adbabe082d57d9ee9c8"),
    "lemma8": (12, "9f5510972452e9c30ba7f4dca2adb79fe340a6048cbf232e4a1354f5b0032188"),
    "teo3": (4, "94ffe825079ced1de165a3a3362627e148e28ed645bd587285f54a18acbc3359"),
    "teo4": (25, "eaf52ec0f4c6da238abdd2b319b28d029e71cea697e60611fdf462dfdd27934b"),
    "thm12": (27, "8c922c2caf6bb08eb420cc7912ce5abadf98177edf0c42f1508240cc461b5308"),
    "pro14": (27, "95e32778be257b0d61f432cd1bc1ee0423b8dbbea69b9be2229095616e0da71c"),
    "cor1": (27, "70145efe53d6b914e19b97312b593d0df7fe1b37035a52a5fbd9802a5fd2a543"),
    "cor-haynes": (13, "ee273006ad07c3f5e31ef796a51a66d37f1298156e82fc95c79967d4648769db"),
    "teo2": (38, "6ed9deb43e9014d28a0e86f4aeb6372834d51c953740e0471dacf22724ad0518"),
    "obsv1": (37, "f2e457d80c86533002c434fe4cf1eae901d325c15574ac9a6ac164b6b440aa8b"),
    "lem-mainblock": (39, "c56a78b775da76d1fbc32d71201dd3f5fa074535ae6093f40f243cd8effbbc11"),
    "pro2": (4, "3987afc660d315ef2f3b9ae98363439104204181c61ed9cd635c218b54c8226a"),
    "pro3": (7, "dc7e66e686247c9efffbe77b05f3e08e38163d9fb73ec665a8b2425afe6ab287"),
}

# The sweeps whose payloads are family specs: every generated sweep but
# lem-rad3, whose payloads are graphs.
SPEC_IDS = [t for t in ALL_IDS if t not in CORPUS_PINS and t != "lem-rad3"]


@pytest.mark.parametrize(
    "theorem,corpus",
    [(t, False) for t in ALL_IDS] + [(t, True) for t in CORPUS_PINS],
    ids=ALL_IDS + [f"{t}-corpus" for t in CORPUS_PINS],
)
def test_records_pinned(theorem, corpus):
    if corpus:
        graphs = [parse_graph6(tok) for tok in CORPUS.split()]
        rep = run_sweep(theorem, corpus=graphs)
        want = CORPUS_PINS[theorem]
    else:
        sizes, *want = SWEEP_PINS[theorem]
        rep = run_sweep(theorem, **sizes)
    assert (rep.total, _records_digest(rep.records)) == tuple(want)
    if theorem not in SPEC_IDS:
        assert rep.oracle_runs == rep.total  # every graph payload is a class of its own


def test_radius_level_leaves_records_and_stdout_unchanged(monkeypatch, capsys):
    # From a clean cache the radius-2 cactus sweeps and a radius filtered
    # ``packcrit enumerate`` read their top order from the radius level.
    # The sweeps give the records (micros aside) of the same sweeps over the
    # full cactus levels as a corpus, which ``EnumerationFilter.matches``
    # filters graph by graph, and the stdout lists the full levels' radius-2
    # graphs in order.
    def records(**corpus):
        out = {}
        for theorem in ("teo3", "teo4", "lem-mainblock", "pro2"):
            recs = run_sweep(theorem, jobs=1, **corpus).records
            out[theorem] = [{k: v for k, v in rec.items() if k != "micros"} for rec in recs]
        return out

    for cache in ("_REPS_CACHE", "_METRICS_CACHE"):
        monkeypatch.setattr(enumeration, cache, {})
    assert main(["enumerate", "--cactus", "--rad", "2", "--max-n", "9"]) == 0
    stdout = capsys.readouterr().out
    narrow = records()
    assert {("cactus", 9, 2), ("cactus", 10, 2)} <= set(enumeration._REPS_CACHE)
    assert ("cactus", 10, None) not in enumeration._REPS_CACHE
    full = [g for n in range(1, 11) for g in representatives("cactus", n)]
    rad2 = EnumerationFilter(max_n=9, structure="cactus", radius=2)
    assert stdout == "".join(emit_graph6(g) + "\n" for g in full if rad2.matches(g))
    assert narrow == records(corpus=full)
    assert stdout and all(narrow.values())


@pytest.mark.parametrize("theorem", [t for t in ALL_IDS if t not in CORPUS_PINS])
def test_corpus_refused_by_generated_sweeps(theorem):
    # The spec sweeps and lem-rad3 generate their instances, so a corpus
    # would be silently ignored.
    with pytest.raises(ValueError, match=f"^{theorem} does not read a corpus"):
        run_sweep(theorem, corpus=[parse_graph6("Dhc")])


@pytest.mark.parametrize("theorem", list(RAISED_PINS))
def test_raised_defaults_pinned(theorem):
    rep = run_sweep(theorem)
    assert (rep.total, _records_digest(rep.records)) == RAISED_PINS[theorem]


RECORD_KEYS = {"theorem", "instance_g6", "spec", "predicted", "oracle", "agree", "micros"}


def raising_row(exc: Exception):
    """lemma1's row with an oracle that raises ``exc`` on C5."""

    def oracle(G):
        if G.n == 5:
            raise exc
        return True

    return dataclasses.replace(THEOREMS["lemma1"], oracle=oracle)


@pytest.mark.parametrize("exc", [CharacterizationError("no main block"), PreconditionError("not a cactus")])
def test_raising_evaluator_is_recorded(monkeypatch, exc):
    monkeypatch.setitem(THEOREMS, "lemma1", raising_row(exc))
    rep = run_sweep("lemma1", max_vertices=7)
    assert rep.total == 5 and not rep.ok
    [bad] = rep.disagreements
    assert bad["spec"] == "C5" and bad["agree"] is False
    assert bad["error"] == f"{type(exc).__name__}: {exc}"
    assert parse_graph6(bad["instance_g6"]).n == 5
    assert all(set(r) == RECORD_KEYS for r in rep.records if r is not bad)


@pytest.mark.parametrize("jobs,cpus,pool", [(64, 3, [3]), (64, 128, [10]), (2, 128, [2]), (1, 128, [])])
def test_workers_are_bounded(monkeypatch, jobs, cpus, pool):
    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", lambda context, processes: FakePool(processes))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rep = run_sweep("lemma1", jobs=jobs)
    assert rep.total == 10 and rep.ok
    assert asked == pool


def test_multiprocessing_loads_only_for_workers():
    # Importing the package and a one-job CLI sweep leave the pool module
    # unloaded, in a fresh interpreter.
    code = (
        "import sys, packcrit\n"
        "from packcrit.cli import main\n"
        "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'multiprocessing']\n"
        "print(loaded())\n"
        "main(['verify', 'lemma1', '--jobs', '1'])\n"
        "print(loaded())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(packcrit.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]") and lines[1].startswith("lemma1: OK")


def test_hub_graphs_stream(monkeypatch):
    # With one job each hub graph is built only once the previous one has
    # been evaluated.
    events = []
    build_hub, evaluate = verify._hub_plus, verify.evaluate_payload

    def built(base):
        events.append("build")
        return build_hub(base)

    def evaluated(theorem, payload, shared=None):
        events.append("evaluate")
        return evaluate(theorem, payload, shared)

    monkeypatch.setattr(verify, "_hub_plus", built)
    monkeypatch.setattr(verify, "evaluate_payload", evaluated)
    rep = run_sweep("thm12", base_max=5, jobs=1)
    assert rep.total == 52 and events == ["build", "evaluate"] * 52


@pytest.mark.parametrize("theorem,sizes", [("thm12", {"base_max": 5}), ("lemma4", {"max_vertices": 6})])
def test_streamed_records_are_the_same_for_every_job_count(monkeypatch, theorem, sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = (run_sweep(theorem, jobs=jobs, **sizes) for jobs in (1, 2))
    assert one.total == two.total > 0 and one.oracle_runs == two.oracle_runs
    assert _without_micros(one.records) == _without_micros(two.records)
    assert all(0 <= rep.payload_s <= rep.wall_time_s for rep in (one, two))


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_batches_spread_few_classes_and_grow(workers):
    # The first 4 * workers tasks hold one class each, so a sweep with at
    # least as many classes as workers keeps every worker busy; after that
    # a batch takes one class per 4 * workers read before it, and the
    # batches keep the stream's order.
    for n in (1, workers, 13, 43, 1460):
        batches = list(verify._batches(iter(range(n)), workers))
        assert [c for b in batches for c in b] == list(range(n))
        assert all(len(b) == 1 for b in batches[: 4 * workers])
        read = 0
        for b in batches[:-1]:
            assert len(b) == max(1, read // (4 * workers))
            read += len(b)
    assert len(list(verify._batches(iter(range(13_598)), 2))) == 75


def test_workers_are_spawned(monkeypatch):
    # Workers start from a fresh interpreter, not a fork of the caller.
    started = []
    real_pool = multiprocessing.context.BaseContext.Pool

    def recorded(context, *args, **kwargs):
        started.append(context.get_start_method())
        return real_pool(context, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", recorded)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rep = run_sweep("lemma1", jobs=2)
    assert rep.total == 10 and rep.ok
    assert started == ["spawn"]


def test_graph_payloads_cross_to_workers(monkeypatch):
    # Class sources hand over their graphs as they are, with no graph6
    # round trip; lem-rad3 keeps one graph per isomorphism class.  Spawned
    # workers unpickle the graphs and write the same records, in order.
    payloads = _payloads("lem-rad3")
    assert payloads and all(isinstance(p["graph"], Graph) for p in payloads)
    assert len({canonical_cert(p["graph"]) for p in payloads}) == len(payloads)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = (run_sweep("lem-rad3", jobs=jobs).records for jobs in (1, 2))
    for rec in one + two:
        del rec["micros"]
    assert one == two


def _classes(theorem: str, **sizes) -> list[list[dict]]:
    sweep = THEOREMS[theorem]
    return list(sweep.classes(dict(sweep.defaults, **sizes, theorem=theorem, corpus=None)))


def _payloads(theorem: str, **sizes) -> list[dict]:
    return [p for members in _classes(theorem, **sizes) for p in members]


def _without_micros(records: list[dict]) -> list[dict]:
    return sorted(
        ({k: v for k, v in rec.items() if k != "micros"} for rec in records),
        key=lambda r: (r["instance_g6"], r["spec"] or ""),
    )


@pytest.mark.parametrize("theorem", SPEC_IDS)
def test_mirror_classes_are_the_isomorphism_classes(theorem):
    # At the default size a class holds a spec and, when it is generated
    # too, the spec's mirror, and two payloads share a class exactly when
    # their graphs share a canonical certificate.
    certs_of_class = []
    for members in _classes(theorem):
        specs = [parse_spec(p["spec"]) for p in members]
        assert len({min(str(s), str(s.mirror())) for s in specs}) == 1
        assert len(specs) == len(set(map(str, specs))) <= 2
        certs_of_class.append({canonical_cert(build(s).graph) for s in specs})
    assert all(len(certs) == 1 for certs in certs_of_class)
    assert len(set.union(*certs_of_class)) == len(certs_of_class)


# spec sweep -> oracle calls at its default size, one per mirror class (the
# record counts are 186, 81, 265, 126, 92 and 65).
ORACLE_RUNS = {"pro8": 97, "pro9": 43, "pro12": 138, "pro13": 67, "pro16": 47, "pro15": 35}


@pytest.mark.parametrize("theorem", list(ORACLE_RUNS))
def test_oracle_runs_once_per_mirror_class(theorem):
    rep = run_sweep(theorem)
    assert rep.ok and rep.oracle_runs == ORACLE_RUNS[theorem]
    assert 0 <= rep.payload_s <= rep.wall_time_s


@pytest.mark.parametrize("theorem", SPEC_IDS)
def test_class_once_matches_per_member_evaluation(theorem):
    # Running the oracle on every member gives the same records.
    sizes = SWEEP_PINS[theorem][0]
    per_member = [evaluate_payload(theorem, p) for p in _payloads(theorem, **sizes)]
    assert _without_micros(run_sweep(theorem, **sizes).records) == _without_micros(per_member)


@pytest.mark.parametrize("predict_raises", [False, True])
def test_oracle_error_is_copied_to_its_class(monkeypatch, predict_raises):
    # On pro12 at 8 the oracle raises on the class of G2^4(0,1;1,0) and
    # G2^4(1,0;0,1), generated in that order.  Each member whose prediction
    # succeeded records the oracle's error; a member whose prediction
    # raised records its own error, and the oracle runs on the next member.
    row = THEOREMS["pro12"]
    bad = canonical_cert(build(parse_spec("G2^4(0,1;1,0)")).graph)
    calls = []

    def oracle(G):
        calls.append(G)
        if canonical_cert(G) == bad:
            raise CharacterizationError("no main block")
        return row.oracle(G)

    def predict(G, spec):
        if predict_raises and str(spec) == "G2^4(0,1;1,0)":
            raise PreconditionError("not a cactus")
        return row.predict(G, spec)

    monkeypatch.setitem(THEOREMS, "pro12", dataclasses.replace(row, predict=predict, oracle=oracle))
    rep = run_sweep("pro12", max_vertices=8)
    errors = {r["spec"]: r["error"] for r in rep.disagreements}
    want = dict.fromkeys(["G2^4(0,1;1,0)", "G2^4(1,0;0,1)"], "CharacterizationError: no main block")
    if predict_raises:
        want["G2^4(0,1;1,0)"] = "PreconditionError: not a cactus"
    assert errors == want
    assert all(r["predicted"] is None and r["oracle"] is None for r in rep.disagreements)
    assert (rep.total, rep.oracle_runs, len(calls)) == (13, 8, 8)  # 13 specs in 8 mirror classes


def test_class_once_is_the_same_for_every_job_count(monkeypatch):
    # pro15 at 10 has mirror pairs, and one pool task is one class.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one, two = (run_sweep("pro15", max_vertices=10, jobs=jobs) for jobs in (1, 2))
    assert one.oracle_runs == two.oracle_runs < one.total
    assert _without_micros(one.records) == _without_micros(two.records)


def _small_payload_graphs(theorem: str) -> list[Graph]:
    """A few payload graphs of the sweep at a small size, largest last."""
    sizes = {k: {"max_vertices": 7, "base_max": 4}[k] for k in THEOREMS[theorem].defaults}
    graphs = [
        build(parse_spec(p["spec"])).graph if "spec" in p else p["graph"]
        for p in _payloads(theorem, **sizes)
    ]
    step = max(1, len(graphs) // 4)
    return graphs[::step][:4] + graphs[-1:]


@pytest.mark.parametrize("theorem", ALL_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_oracle_is_an_isomorphism_invariant(theorem, data):
    # Class-once reads one member's oracle value for every member, which is
    # sound only when the oracle reads neither labels nor the spec.
    oracle = THEOREMS[theorem].oracle
    for g in _small_payload_graphs(theorem):
        assert oracle(relabel(g, data.draw(permutations_of(g.n)))) == oracle(g)
