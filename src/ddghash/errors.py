"""Exception types shared across the toolkit."""


class DdghashError(Exception):
    """Base class; the CLI maps these to exit code 1."""


class NoInstructionsFound(DdghashError):
    """Input text contains no recognizable instruction lines."""

    def __init__(self):
        super().__init__(
            "no instruction lines in input: an instruction line is an indented "
            "hex address and ':', as `objdump -d` prints it "
            "(`objdump --prefix-addresses` output is not read)")


class MalformedListing(DdghashError):
    """Too many instruction-shaped lines failed to parse (> threshold).
    The message names the first of them."""

    def __init__(self, report):
        self.report = report
        line_no, reason, _ = report.malformed[0]
        super().__init__(
            f"{len(report.malformed)} of {report.instruction_shaped} "
            f"instruction-shaped lines are malformed, the first at line "
            f"{line_no}: {reason}"
        )


class UnparsableOperand(DdghashError):
    def __init__(self, token):
        super().__init__(f"cannot parse operand {token!r}")


class EmptyGraph(DdghashError):
    """Hashing requested for a graph with no nodes."""


class IncompatibleCorpora(DdghashError):
    """Feature sets built under different extraction settings."""


class EmptyCorpus(DdghashError):
    pass


class UnknownProgram(DdghashError):
    def __init__(self, program_id):
        super().__init__(f"no program {program_id!r} in corpus")


class InvalidProgramId(DdghashError):
    """A program id outside the safe charset, which could name a path
    outside the corpus, or too long to fit in a file name."""

    # the rule's one wording, for this message and ingest's --id help
    rule = ("a letter or digit, then letters, digits, '.', '_' or '-', "
            "200 characters at most")

    def __init__(self, program_id):
        super().__init__(f"invalid program id {program_id!r}: use {self.rule}")
