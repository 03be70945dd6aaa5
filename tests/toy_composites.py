"""The 61 knowledge-balanced composite states of two toy systems, built in
the tests so that the CHSH and no-signaling tests can range over all of
them: the 36 products of 2-element supports, the 24 correlated states (one
per bijection) and total ignorance."""

import itertools

from omlab import toy


def kb_composites() -> tuple:
    halves = [toy.toy_state(*c) for c in itertools.combinations(toy.STATES, 2)]
    return (tuple(toy.product_composite(a, b) for a, b in itertools.product(halves, repeat=2))
            + tuple(toy.make_correlated(dict(zip(toy.STATES, image)))
                    for image in itertools.permutations(toy.STATES))
            + (toy.product_composite(toy.IGNORANCE, toy.IGNORANCE),))
