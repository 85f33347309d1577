"""The outcome record of every verifier, kept apart so that `audit` runs no group code."""


class VerificationReport:
    """Outcome of one verifier: pass iff the witness list is empty.

    The status is read from the witnesses, never stored, so the two cannot
    disagree.
    """

    def __init__(self, claim_id: str):
        self.claim_id = claim_id
        self.witnesses: list[str] = []
        self.details: dict = {}

    def fail(self, witness: str) -> None:
        self.witnesses.append(witness)

    @property
    def passed(self) -> bool:
        return not self.witnesses

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "status": self.status,
            "witnesses": list(self.witnesses),
            "details": self.details,
        }
