"""Functions the span tests wrap."""


def leaf(x):
    return x + 1


def outer(x):
    return leaf(x) * 2


class Box:
    def method(self, x):
        return leaf(x)
