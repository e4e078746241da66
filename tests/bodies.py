"""Parse a bare rule body for tests.

Test cases write bodies as text (``"edge(X, Y), not edge(Y, X)"``), and
``render_body`` output must read back to the same items. The package never
parses a body without its rule, so this helper lives here, built on the
rule parser's literal reader.
"""

from planhunt.inference.rules import BodyItem, _Parser, _tokenize


def parse_body(text: str) -> tuple[BodyItem, ...]:
    """Parse comma-separated literals with no head and no trailing dot.
    Safety is not enforced, as the body has no head."""
    parser = _Parser(_tokenize(text))
    if parser.at_end():
        return ()
    body: list[BodyItem] = [parser.parse_item()]
    while not parser.at_end():
        parser.take("comma")
        body.append(parser.parse_item())
    return tuple(body)
