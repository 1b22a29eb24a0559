"""E4 — Incremental, best-effort structure generation.

Paper anchor: Section 3.2 — "a user looking for a new job may start out
extracting only monthly temperatures ... later ... may want to also
extract city populations, and so on."

Each demand is an xlog program run over one shared extraction cache: an
extractor an earlier demand already ran is all cache hits and scans
nothing, so only the new part of the need costs anything.

Reported series: cumulative extraction cost (cost-weighted characters
scanned) after each demand step, for the incremental strategy vs the
one-shot extract-everything strategy.  Incremental cost grows with the
information need and stays below one-shot whenever some registered
extractor is never demanded.
"""

from _tables import write_table

from repro.cache.store import LRUExtractionCache
from repro.datagen.cities import CityCorpusConfig, generate_city_corpus
from repro.extraction.infobox import InfoboxExtractor
from repro.extraction.normalize import MONTHS
from repro.extraction.regex_extractor import RegexExtractor
from repro.extraction.normalize import normalize_number
from repro.lang.executor import run_program
from repro.lang.registry import OperatorRegistry

TEMP_ATTRS = [f"{m[:3]}_temp" for m in MONTHS]

EXTRACTORS = {
    "temps": InfoboxExtractor(include_fields=tuple(TEMP_ATTRS)),
    "population": RegexExtractor(
        pattern=r"population = (?P<population>[\d,]+)",
        normalizers={"population": normalize_number}, cost_per_char=1.5),
    "state": RegexExtractor(pattern=r"state = (?P<state>[A-Za-z ]+)",
                            cost_per_char=1.5),
    "expensive_unused": RegexExtractor(pattern=r"(?P<festival>festival)",
                                       cost_per_char=8.0),
}


def demand_program(extractor, attribute=None):
    """The program of one demand: everything ``extractor`` yields, or
    only its ``attribute`` facts."""
    program = f'pages = docs()\nfacts = extract(pages, "{extractor}")\n'
    if attribute is None:
        return program + 'output facts'
    return program + (f'wanted = filter(facts, attribute = "{attribute}")\n'
                      'output wanted')


ONE_SHOT = ('pages = docs()\n'
            't = extract(pages, "temps")\n'
            'n = extract(pages, "population")\n'
            's = extract(pages, "state")\n'
            'x = extract(pages, "expensive_unused")\n'
            'tn = union(t, n)\n'
            'sx = union(s, x)\n'
            'everything = union(tn, sx)\n'
            'output everything')


class Demands:
    """A corpus, its extractors and the cache successive demands share."""

    def __init__(self, num_cities=30):
        corpus, _ = generate_city_corpus(CityCorpusConfig(
            num_cities=num_cities, seed=71, styles=("infobox",)))
        self.corpus = list(corpus)
        self.registry = OperatorRegistry()
        for name, extractor in EXTRACTORS.items():
            self.registry.register_extractor(name, extractor)
        self.cache = LRUExtractionCache()
        self.cost = 0.0  # cost-weighted characters scanned so far

    def run(self, program):
        """Run one program over the shared cache; returns its rows."""
        result = run_program(program, self.corpus, self.registry,
                             optimize=False, cache=self.cache)
        for key, chars in result.stats.chars_scanned.items():
            extractor = self.registry.extractor(key.split("@")[0])
            self.cost += extractor.cost_per_char * chars
        return result.rows


def test_e4_incremental_vs_one_shot(benchmark):
    incremental = Demands()
    rows = []
    steps = [
        ("demand sep_temp (job hunt begins)", ("temps", "sep_temp")),
        ("demand all monthly temps", ("temps",)),
        ("demand population (filter > 500k)", ("population",)),
        ("demand state", ("state",)),
    ]
    for label, demand in steps:
        facts = incremental.run(demand_program(*demand))
        rows.append([label, len(facts), incremental.cost])

    one_shot = Demands()
    everything = one_shot.run(ONE_SHOT)
    rows.append(["one-shot extract everything", len(everything),
                 one_shot.cost])
    write_table(
        "e4_incremental",
        "E4: cumulative extraction cost, incremental vs one-shot "
        "(cost-weighted chars scanned)",
        ["step", "facts available", "cumulative cost"],
        rows,
    )
    # incremental never exceeded one-shot, and saved the unused extractor
    assert rows[-2][2] < rows[-1][2]
    # the curve is monotone: each demand only adds cost
    costs = [r[2] for r in rows[:-1]]
    assert costs == sorted(costs)
    # re-demanding is free
    before = incremental.cost
    incremental.run(demand_program("temps", "sep_temp"))
    assert incremental.cost == before

    fresh = Demands()
    benchmark(lambda: fresh.run(demand_program("temps", "sep_temp")))


def test_e4_cost_scales_with_corpus(benchmark):
    rows = []
    for n in (10, 20, 40):
        demands = Demands(num_cities=n)
        demands.run(demand_program("temps", "sep_temp"))
        rows.append([n, demands.cost])
    write_table(
        "e4b_cost_vs_corpus",
        "E4b: incremental first-demand cost vs corpus size",
        ["cities", "cost"],
        rows,
    )
    assert rows[0][1] < rows[1][1] < rows[2][1]
    small = Demands(num_cities=10)
    benchmark(lambda: small.run(ONE_SHOT))
