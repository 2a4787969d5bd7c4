"""Seeded, offline input generator for the annorate benchmark.

``generate(workload, seed, dest)`` writes an ontology catalog
(``dest/ontologies/catalog.tsv`` plus OBO files), a corpus of ISA-Tab
investigation files (``dest/corpus/<study>/i_Investigation.txt``) and
``dest/truth.json``, a record of what was planted: the expected number of
scored studies, the malformed files, the near-duplicate pairs and the
non-PURL accessions the audit must report.

Sizes and the shape of every workload are fixed; the seed only chooses the
content (term ids, graph edges, labels, accessions). The corpus layout (slot
counts, which studies are annotated, where slots repeat or borrow a label,
the near-duplicate clusters) comes from a random stream seeded by the
workload name alone, so every seed has the same amount of work and only its
content differs. The same seed gives byte-identical files. Run
``python3 benchmarks/generate.py WORKLOAD SEED DEST`` to write one workload
by hand.
"""

import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

OBO_BASE = "http://purl.obolibrary.org/obo/"
BIOPORTAL_BASE = "http://purl.bioontology.org/ontology/"

#: Catalogued prefix whose catalog line names an OBO file that is never written.
MISSING_PREFIX = "CHEBI"
#: Prefixes that corpora cite but no catalog lists.
UNCATALOGUED = ("EFO", "UO", "NCIT")

TYPE_FIELDS = {
    "Design": "Study Design Type",
    "Factor": "Study Factor Type",
    "Assay": "Study Assay Measurement Type",
    "Protocol": "Study Protocol Type",
    "Person": "Study Person Roles",
}
SCORED = ("Design", "Factor", "Assay", "Protocol")
#: Catalogued prefixes that each annotation type's vocabulary draws terms from.
TYPE_PREFIXES = {
    "Design": ("NCBITaxon", "GO", "MSH", "NCBITaxon", "GO"),
    "Factor": ("GO", "OBI", "MSH"),
    "Assay": ("CHMO", "OBI"),
    "Protocol": ("OBI", "CHMO", "GO"),
    "Person": ("OBI",),
}
#: Accession kind of a vocabulary entry, by its Zipf rank modulo the length.
#: Fixed by rank, not drawn, so every seed has the same mix of kinds.
RANK_KINDS = (
    ("catalogued",) * 13
    + ("none", "uncatalogued", "non_purl", "missing_file", "unknown_term", "obsolete", "malformed")
)
WORDS = (
    "liquid gas mass nuclear magnetic resonance spectrometry chromatography "
    "extraction sample collection metabolite profiling identification data "
    "transformation tissue plasma urine serum leaf root seed cell culture "
    "time point dose genotype treatment strain growth stress temperature "
    "light dark control mutant wild type lipid polar phase reverse normal "
    "ionization electrospray positive negative mode targeted untargeted "
    "quantification normalization derivatization quenching homogenization "
    "freeze drying storage diet infection age sex disease stage biopsy"
).split()
ROLES = ("principal investigator", "author", "submitter", "curator", "funder")


@dataclass(frozen=True)
class Workload:
    """Fixed size and shape of one workload; the seed only picks content."""

    ontologies: tuple  # (prefix, shape, terms)
    studies: int
    slots: tuple  # (min, max) slots per scored type
    vocabulary: int  # labels per annotation type
    annotated_share: float  # share of studies with accession rows
    near_dup_clusters: int
    repeat_share: float = 0.0  # slot repeats an earlier slot of its type
    cross_type_share: float = 0.0  # slot takes a label of another type
    empty_label_share: float = 0.0  # annotation with no label


WORKLOADS = {
    "ontology-heavy": Workload(
        ontologies=(
            ("NCBITaxon", "taxonomy", 55_000),
            ("GO", "dag", 13_000),
            ("CHMO", "dag", 800),
            ("OBI", "dag", 800),
            ("MSH", "taxonomy", 400),
        ),
        studies=60,
        slots=(1, 12),
        vocabulary=400,
        annotated_share=0.7,
        near_dup_clusters=3,
    ),
    "corpus-heavy": Workload(
        ontologies=(
            ("NCBITaxon", "taxonomy", 3_000),
            ("GO", "dag", 2_500),
            ("CHMO", "dag", 600),
            ("OBI", "dag", 600),
            ("MSH", "taxonomy", 300),
        ),
        studies=520,
        slots=(1, 12),
        vocabulary=600,
        annotated_share=0.7,
        near_dup_clusters=15,
        repeat_share=0.1,
        cross_type_share=0.05,
        empty_label_share=0.02,
    ),
}


def generate(workload: str, seed: int, dest: str | Path) -> dict:
    """Write one workload's inputs under ``dest`` and return its ground truth."""
    spec = WORKLOADS[workload]
    dest = Path(dest)
    rng = random.Random(f"{workload}:{seed}")
    layout = random.Random(f"{workload}:layout")
    terms = _write_catalog(rng, spec, dest / "ontologies")
    truth = _write_corpus(rng, layout, spec, terms, dest / "corpus")
    truth.update(workload=workload, seed=seed, catalog_prefixes=sorted(terms))
    (dest / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth


# -- ontologies ---------------------------------------------------------------


def _term_id(prefix: str, number: int) -> str:
    if prefix == "NCBITaxon":
        return f"{prefix}:{number}"
    if prefix == "MSH":
        return f"{prefix}:D{number:06d}"
    return f"{prefix}:{number:07d}"


def _write_catalog(rng: random.Random, spec: Workload, out: Path) -> dict:
    """Write OBO files and catalog.tsv; return live and obsolete ids per prefix."""
    out.mkdir(parents=True)
    catalog_lines = []
    terms = {}
    for prefix, shape, n in spec.ontologies:
        text, live, obsolete = _obo(rng, prefix, shape, n)
        name = prefix.lower() + ".obo"
        (out / name).write_text(text, encoding="utf-8", newline="\n")
        catalog_lines.append(f"{prefix}\t{name}")
        terms[prefix] = {"live": live, "obsolete": obsolete}
    catalog_lines.append(f"{MISSING_PREFIX}\t{MISSING_PREFIX.lower()}.obo")
    (out / "catalog.tsv").write_text("\n".join(catalog_lines) + "\n", encoding="utf-8")
    return terms


def _obo(rng: random.Random, prefix: str, shape: str, n: int):
    """OBO text for ``n`` live terms plus ~1% obsolete ones.

    ``taxonomy`` is NCBITaxon-like: one parent drawn from the later half of
    the terms made so far (depth grows like log n, ~40 at 250k), with 2% of
    terms taking a second parent. ``dag`` is GO-like: 1-3 parents from the
    later two thirds, plus ``part_of`` relationships. Both add cross-prefix
    ``is_a`` edges, which the loader must drop.
    """
    ids = [_term_id(prefix, k) for k in rng.sample(range(1, 4 * n), n + n // 100)]
    live, obsolete = ids[:n], ids[n:]
    stanzas = []
    for i, term in enumerate(live):
        lines = [f"[Term]\nid: {term}\nname: term {i}"]
        if i:
            if shape == "taxonomy":
                n_parents = 2 if rng.random() < 0.02 else 1
                lo = i // 2
            else:
                n_parents = rng.choice((1, 1, 2, 3))
                lo = i // 3
            for p in sorted({rng.randrange(lo, i) for _ in range(n_parents)}):
                lines.append(f"is_a: {live[p]} ! term {p}")
            if shape == "dag" and rng.random() < 0.1:
                lines.append(f"relationship: part_of {live[rng.randrange(0, i)]}")
        if rng.random() < 0.005:
            lines.append("is_a: BFO:0000015 ! process")
        stanzas.append((term, "\n".join(lines)))
    for term in obsolete:
        parent = live[rng.randrange(0, n)]
        stanzas.append(
            (term, f"[Term]\nid: {term}\nname: obsolete {term}\nis_a: {parent}\nis_obsolete: true")
        )
    stanzas.sort()
    header = f"format-version: 1.2\nontology: {prefix.lower()}\n"
    body = "\n\n".join(text for _, text in stanzas)
    typedef = "[Typedef]\nid: part_of\nname: part of\n"
    return f"{header}\n{body}\n\n{typedef}", live, obsolete


# -- corpus -------------------------------------------------------------------


def _label(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(words))


def _accession(rng: random.Random, kind: str, prefix: str, terms: dict) -> str:
    if kind == "catalogued":
        term = rng.choice(terms[prefix]["live"])
    elif kind == "obsolete":
        term = rng.choice(terms[prefix]["obsolete"])
    elif kind == "unknown_term":
        term = _term_id(prefix, 9_000_000 + rng.randrange(100_000))
    elif kind == "uncatalogued":
        term = f"{rng.choice(UNCATALOGUED)}:{rng.randrange(10**7):07d}"
    elif kind == "missing_file":
        term = f"{MISSING_PREFIX}:{rng.randrange(10**5)}"
    elif kind == "non_purl":
        return f"http://www.ebi.ac.uk/efo/EFO_{rng.randrange(10**7):07d}"
    elif kind == "malformed":
        return f"{prefix}:{rng.randrange(10**6)}"
    else:
        return ""
    term_prefix, local = term.split(":", 1)
    if term_prefix == "MSH":
        return f"{BIOPORTAL_BASE}{term_prefix}/{local}"
    return f"{OBO_BASE}{term_prefix}_{local}"


def _vocabulary(rng: random.Random, layout: random.Random, spec: Workload, terms: dict) -> dict:
    """Per type: (label, accession) entries in Zipf rank order, with cumulative weights.

    A label's word count comes from ``layout``, so the most frequent labels
    have the same length for every seed.
    """
    vocab = {}
    for t, prefixes in TYPE_PREFIXES.items():
        size = len(ROLES) if t == "Person" else spec.vocabulary
        entries = []
        for rank in range(size):
            words = layout.randint(1, 4)
            label = ROLES[rank] if t == "Person" else f"{_label(rng, words)} {rank}"
            kind = RANK_KINDS[rank % len(RANK_KINDS)]
            entries.append((label, _accession(rng, kind, prefixes[rank % len(prefixes)], terms)))
        cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(size)))
        vocab[t] = (entries, cum_weights)
    return vocab


def _study_slots(rng: random.Random, layout: random.Random, spec: Workload, vocab: dict) -> dict:
    """Per type: a list of (label, accession) slots for one study.

    ``layout`` decides how many slots there are and which of them repeat,
    borrow another type's label or lose their label; ``rng`` picks what
    they hold.
    """
    annotated = layout.random() < spec.annotated_share
    slots = {}
    for t in TYPE_FIELDS:
        n = layout.randint(1, 3) if t == "Person" else layout.randint(*spec.slots)
        chosen = []
        for _ in range(n):
            if chosen and layout.random() < spec.repeat_share:
                chosen.append(rng.choice(chosen))
                continue
            source = t
            if t != "Person" and layout.random() < spec.cross_type_share:
                source = rng.choice([s for s in SCORED if s != t])
            entries, cum_weights = vocab[source]
            label, accession = rng.choices(entries, cum_weights=cum_weights)[0]
            if source != t and layout.random() < 0.5:
                accession = ""
            # drawn for every slot, so the layout stream stays the same for every seed
            unlabelled = layout.random() < spec.empty_label_share
            if accession and unlabelled:
                label = ""
            chosen.append((label, accession))
        if not annotated:
            chosen = [(label or "unlabelled", "") for label, _ in chosen]
        slots[t] = chosen
    return slots


def _source_ref(accession: str) -> str:
    if accession.startswith(BIOPORTAL_BASE):
        return accession.rsplit("/", 2)[1]
    if accession.startswith(OBO_BASE):
        return accession.rsplit("/", 1)[1].split("_")[0]
    return ""


def _study_block(study_id: str, slots: dict, rng: random.Random) -> list[str]:
    def row(name, cells):
        return name + "\t" + "\t".join(f'"{c}"' for c in cells)

    lines = [
        "STUDY",
        row("Study Identifier", [study_id]),
        row("Study Title", [f"Study of {_label(rng, rng.randint(1, 4))}"]),
        row("Study Description", [" ".join(_label(rng, rng.randint(1, 4)) for _ in range(8))]),
    ]
    sections = {
        "Design": "STUDY DESIGN DESCRIPTORS",
        "Factor": "STUDY FACTORS",
        "Assay": "STUDY ASSAYS",
        "Protocol": "STUDY PROTOCOLS",
        "Person": "STUDY CONTACTS",
    }
    for t, field in TYPE_FIELDS.items():
        pairs = slots[t]
        lines.append(sections[t])
        lines.append(row(field, [label for label, _ in pairs]))
        lines.append(row(field + " Term Accession Number", [acc for _, acc in pairs]))
        lines.append(row(field + " Term Source REF", [_source_ref(acc) for _, acc in pairs]))
    return lines


def _investigation(blocks: list[list[str]], investigation_id: str) -> str:
    lines = [
        "ONTOLOGY SOURCE REFERENCE",
        'Term Source Name\t"OBI"\t"NCBITAXON"\t"GO"\t"CHMO"\t"MSH"',
        "INVESTIGATION",
        f'Investigation Identifier\t"{investigation_id}"',
    ]
    for block in blocks:
        lines.extend(block)
    return "\n".join(lines) + "\n"


def _near_duplicate(rng: random.Random, slots: dict, vocab: dict) -> dict:
    """A copy of ``slots``, with one slot substituted when the entry is large.

    The differing-slot count between any two members of a cluster is then
    at most 2, and only when every member has at least 20 slots, so every
    pair stays within the audit's default 10% near-duplicate threshold.
    """
    copy = {t: list(pairs) for t, pairs in slots.items()}
    if sum(len(p) for p in slots.values()) >= 20 and rng.random() < 0.5:
        t = rng.choice(SCORED)
        i = rng.randrange(len(copy[t]))
        entries, _ = vocab[t]
        copy[t][i] = entries[rng.randrange(len(entries))]
    return copy


def _write_corpus(
    rng: random.Random, layout: random.Random, spec: Workload, terms: dict, out: Path
) -> dict:
    vocab = _vocabulary(rng, layout, spec, terms)
    files: dict[str, bytes] = {}
    near_dup_pairs = []
    study_slots = {}
    number = 1

    def new_id():
        nonlocal number
        number += rng.randint(1, 3)
        return f"MTBLS{number}"

    clustered = set(layout.sample(range(spec.studies), spec.near_dup_clusters))
    made = 0
    while made < spec.studies:
        study_id = new_id()
        slots = _study_slots(rng, layout, spec, vocab)
        study_slots[study_id] = slots
        made += 1
        if made - 1 in clustered:
            members = [study_id]
            for _ in range(layout.randint(1, 2)):
                if made >= spec.studies:
                    break
                copy_id = new_id()
                study_slots[copy_id] = _near_duplicate(rng, slots, vocab)
                members.append(copy_id)
                made += 1
            near_dup_pairs += [sorted((a, b)) for i, a in enumerate(members) for b in members[i + 1:]]

    ids = list(study_slots)
    # One file holds three STUDY blocks; one has a non-UTF-8 byte in its title.
    multi, latin1 = ids[1:4], ids[5]
    for study_id in ids:
        if study_id in multi[1:]:
            continue
        owners = multi if study_id == multi[0] else [study_id]
        text = _investigation([_study_block(s, study_slots[s], rng) for s in owners], study_id)
        data = text.encode("utf-8")
        if study_id == latin1:
            data = data.replace(b"Study of ", b"Study of caf\xe9 ", 1)
        files[study_id] = data

    malformed = {
        new_id(): b"",
        new_id(): b"this is not an investigation file\n\x00\x01 binary tail\n",
        new_id(): b'ONTOLOGY SOURCE REFERENCE\nTerm Source Name\t"OBI"\n',
    }
    files.update(malformed)
    for name, data in files.items():
        (out / name).mkdir(parents=True)
        (out / name / "i_Investigation.txt").write_bytes(data)

    non_purls = sorted(
        {
            (study_id, f"{t}: {acc}")
            for study_id, slots in study_slots.items()
            for t, pairs in slots.items()
            for _, acc in pairs
            if acc.startswith("http://www.ebi.ac.uk/")
        }
    )
    return {
        "files": len(files),
        "studies": len(study_slots),
        "study_ids": sorted(study_slots),
        "malformed_files": sorted(f"{name}/i_Investigation.txt" for name in malformed),
        "multi_study_file": f"{multi[0]}/i_Investigation.txt",
        "non_utf8_file": f"{latin1}/i_Investigation.txt",
        "near_dup_pairs": sorted(near_dup_pairs),
        "non_purls": [list(p) for p in non_purls],
    }


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: generate.py {{{','.join(WORKLOADS)}}} SEED DEST")
    summary = generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(json.dumps({k: v for k, v in summary.items() if not isinstance(v, list)}))
