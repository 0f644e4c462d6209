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
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.register_module(str(len(self._items)), module)
        self._items.append(module)
        return self

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList has no forward; index its members instead")

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)
