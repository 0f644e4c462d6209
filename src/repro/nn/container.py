"""Module containers."""

from __future__ import annotations

from typing import Iterable, Iterator

from .module import Module

__all__ = ["ModuleList"]


class ModuleList(Module):
    """A list of modules whose parameters are registered for training.

    It defines no forward; callers index or iterate it explicitly (used
    for the per-interval GCN cells of HGCN).
    """

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.register_module(str(len(self._modules)), module)
        return self

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList has no forward; index its members instead")

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())
