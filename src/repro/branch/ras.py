"""Return address stack (Table 1: 64 entries), with wrap-around overwrite on
overflow like a hardware circular stack."""


class ReturnAddressStack:
    """Fixed-depth circular return-address stack."""

    def __init__(self, depth=64):
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack = [0] * depth
        self._top = 0  # number of live entries, saturates at depth
        self._pos = 0  # next push slot

    def push(self, return_address):
        """Push the address following a call instruction."""
        self._stack[self._pos] = return_address
        self._pos = (self._pos + 1) % self.depth
        if self._top < self.depth:
            self._top += 1

    def pop(self):
        """Pop the predicted return target; returns None when empty."""
        if self._top == 0:
            return None
        self._pos = (self._pos - 1) % self.depth
        self._top -= 1
        return self._stack[self._pos]

    def __len__(self):
        return self._top
