"""A minimal ``torch.nn.Module`` work-alike (paper §5 / §4.6).

QGTC integrates with PyTorch by (a) exposing its kernels behind module
classes and (b) using ``torch.nn.Module`` + ``register_buffer`` to fuse a
batch's compressed adjacency and embedding into one *compound memory
object* shipped over PCIe in a single transaction (§4.6).  This module
reproduces exactly the ``Module`` machinery those two uses need:
registered buffers/parameters, recursive traversal, and a ``state_dict``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import ConfigError

__all__ = ["Module", "Parameter"]


class Parameter:
    """A learnable array (mirrors ``torch.nn.Parameter``)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.data.shape}, dtype={self.data.dtype})"


class Module:
    """Base class with buffer / parameter / submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_buffer(self, name: str, value: np.ndarray | None) -> None:
        """Attach a non-learnable array (the §4.6 packing mechanism)."""
        if not name.isidentifier():
            raise ConfigError(f"buffer name {name!r} is not an identifier")
        self._buffers[name] = None if value is None else np.asarray(value)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        for registry in ("_parameters", "_buffers", "_modules"):
            table = object.__getattribute__(self, registry)
            if name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__!r} has no attribute {name!r}")

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_buffers(self, *, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            if buf is not None:
                yield f"{prefix}{name}", buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    def named_parameters(self, *, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, par in self._parameters.items():
            if par is not None:
                yield f"{prefix}{name}", par
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def buffers(self) -> Iterator[np.ndarray]:
        for _, buf in self.named_buffers():
            yield buf

    def parameters(self) -> Iterator[Parameter]:
        for _, par in self.named_parameters():
            yield par

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name -> array mapping of parameters and buffers."""
        out = {name: par.data for name, par in self.named_parameters()}
        out.update({name: buf for name, buf in self.named_buffers()})
        return out

    def buffer_nbytes(self) -> int:
        """Total bytes of registered buffers — the compound payload size."""
        return sum(buf.nbytes for buf in self.buffers())

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} must define forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
