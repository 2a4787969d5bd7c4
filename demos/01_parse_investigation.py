"""Parse an ISA-Tab investigation file and look at its term slots.

Investigation files carry one field per row; the annotation-type rows hold
free-text term labels, and parallel rows hold the ontology accessions that
should annotate them. Labels and accessions pair up by cell position, so a
label without a matching accession cell is an unannotated term.

The counts come from the scorer's tally, the package's one definition of an
annotation: a slot whose accession is an OBO or BioPortal PURL. Other
accessions (``-``) leave their slot an unannotated term.
"""

from pathlib import Path

from annorate import AnnotationType, classify_accession, load_investigation, type_tally

DATA = Path(__file__).parent / "data"

(study,) = load_investigation(DATA / "corpus" / "MTBLS95" / "i_Investigation.txt")

print(f"study: {study.study_id}")
print(f"source: {study.source_path}")
print()

for annotation_type in AnnotationType:
    slots = study.slots[annotation_type]
    # counting needs no catalog, so every annotation scores 0 here
    tally = type_tally(slots, lambda ref: 0.0)
    print(
        f"{annotation_type.value:9s} {tally.annotation_count} annotations"
        f" / {tally.term_count} terms"
    )
    for slot in slots:
        marker = "  +" if classify_accession(slot.accession).is_scorable else "  -"
        accession = slot.accession or "(no accession)"
        print(f"{marker} {slot.label!r:50s} {accession}")
    print()

# The design row has seven labels but only six accession cells: the trailing
# label has nothing to pair with and parses as an unannotated term.
design = study.slots[AnnotationType.DESIGN]
assert design[-1].accession == ""
print("last design label is unannotated:", repr(design[-1].label))
