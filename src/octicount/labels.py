"""Names of the catalog groups and of the splitting lemmas, with no group code,
so that the data commands and the parser never run `perms` or its users."""

# The six degree-8 tower groups, in ascending standard transitive-group
# label order; `catalog` refuses to load unless its generators match them.
LABELS: tuple[str, ...] = ("8T14", "8T23", "8T24", "8T39", "8T40", "8T44")

# (splitting verifier, catalog label) in claim_id order: the one pairing of
# lemma and group, read by `splitting.SPLITTING_VERIFIERS` and `--group`.
SPLITTING_LEMMAS: tuple[tuple[str, str], ...] = (
    ("verify_lemma_81", "8T40"),
    ("verify_lemma_splitting", "8T23"),
    ("verify_lemma_vpn", "8T23"),
)
