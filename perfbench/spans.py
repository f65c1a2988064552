"""In-memory call spans around the public functions of the ``tnt`` layers.

A :class:`Tracer` replaces each target function or method with a wrapper
that records one span per call: name, start, end, parent span and an
optional value measured from the call (matrix bits, moves returned, anneal
steps).  Names imported directly into other ``tnt`` modules are patched as
well, so ``morse.stackedness_certificate`` is traced like
``bistellar.stackedness_certificate``.  A target that no longer exists is
listed in ``absent`` and produces no spans.

Spans live in flat arrays while the benchmark runs; :meth:`Tracer.summary`
derives calls, self time and values per (phase, name), where the phase is
the name of the benchmark's own root span (``bench.setup``, ``bench.rep``,
``bench.check``).
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def _rank_bits(args, kwargs, result):
    words = args[0] if args else kwargs["words"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(words) * ncols


def _result_len(args, kwargs, result):
    return len(result)


def _anneal_steps(args, kwargs, result):
    target_f0 = args[1] if len(args) > 1 else kwargs.get("target_f0")
    schedule = args[2] if len(args) > 2 else kwargs.get("schedule")
    best, cert = result
    return anneal_steps(schedule.steps if schedule is not None else 0, target_f0, best, cert)


def anneal_steps(steps: int, target_f0, best, cert) -> int:
    """Steps ``vertex_reduce`` is known to have run.

    It runs every scheduled step unless it reaches ``target_f0`` first or
    finds no move of index 1..d at all; the count assumes the latter does
    not happen.  Once the target is reached, the number of steps run is not
    public, so the certificate's move count, one step each, stands in as a
    lower bound.
    """
    if target_f0 is not None and best.f_vector()[0] <= target_f0:
        return len(cert.moves)
    return steps


# (module, attribute path, span name, value probe).  Methods are patched on
# their class; module-level functions also wherever another tnt module
# imported them by name.
TARGETS = [
    ("tnt.complexes", "SimplicialComplex.__init__", "complexes.SimplicialComplex", None),
    ("tnt.complexes", "SimplicialComplex.has_face", "complexes.has_face", None),
    ("tnt.complexes", "SimplicialComplex.faces", "complexes.faces", None),
    ("tnt.complexes", "SimplicialComplex.link", "complexes.link", None),
    ("tnt.complexes", "SimplicialComplex.canonical_hash", "complexes.canonical_hash", None),
    ("tnt.complexes", "from_facets", "complexes.from_facets", None),
    ("tnt.gf2", "rank_of_words", "gf2.rank_of_words", _rank_bits),
    ("tnt.gf2", "rref_of_words", "gf2.rref_of_words", _rank_bits),
    ("tnt.homology", "ChainEngine.boundary_rows", "homology.ChainEngine.boundary_rows", None),
    ("tnt.homology", "ChainEngine.span_selection", "homology.ChainEngine.span_selection", None),
    ("tnt.homology", "ChainEngine.span_rank", "homology.ChainEngine.span_rank", None),
    ("tnt.homology", "ChainEngine.span_kernel_dim", "homology.ChainEngine.span_kernel_dim", None),
    ("tnt.homology", "ChainEngine.span_betti", "homology.ChainEngine.span_betti", None),
    ("tnt.homology", "betti_numbers", "homology.betti_numbers", None),
    ("tnt.homology", "relative_mu_contribution", "homology.relative_mu_contribution", None),
    ("tnt.morse", "tightness_verify", "morse.tightness_verify", None),
    ("tnt.morse", "mu_vector", "morse.mu_vector", None),
    ("tnt.morse", "walkup_class_membership", "morse.walkup_class_membership", None),
    ("tnt.morse", "hamiltonian_check", "morse.hamiltonian_check", None),
    ("tnt.bistellar", "valid_moves", "bistellar.valid_moves", _result_len),
    ("tnt.bistellar", "apply_move", "bistellar.apply_move", None),
    ("tnt.bistellar", "MoveCertificate.replay", "bistellar.MoveCertificate.replay", None),
    ("tnt.bistellar", "stackedness_certificate", "bistellar.stackedness_certificate", None),
    ("tnt.bistellar", "vertex_reduce", "bistellar.vertex_reduce", _anneal_steps),
    ("tnt.symmetry", "automorphisms", "symmetry.automorphisms", None),
    ("tnt.symmetry", "find_central_involution", "symmetry.find_central_involution", None),
    ("tnt.constructors", "dataset", "constructors.dataset", None),
    ("tnt.constructors", "kuehnel_series", "constructors.kuehnel_series", None),
    ("tnt.constructors", "simplicial_product", "constructors.simplicial_product", None),
    ("tnt.constructors", "boundary_simplex", "constructors.boundary_simplex", None),
    ("tnt.cli", "main", "cli.main", None),
]


class Tracer:
    """Span recorder; :meth:`install` patches the targets, :meth:`uninstall` restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. a phase root."""
        sid = self._open(self._intern(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, fn, name: str, probe):
        idx = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if probe is not None:
                tracer.value[sid] = probe(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, path, name, probe in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, probe)
            owners = [owner]
            if not owner_path:
                tnt_modules = [m for k, m in sys.modules.items() if k == "tnt" or k.startswith("tnt.")]
                owners += [m for m in tnt_modules if m is not owner and vars(m).get(attr) is original]
            for o in owners:
                setattr(o, attr, wrapped)
                self._patches.append((o, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def _roots(self) -> list[int]:
        root = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            root[i] = i if p < 0 else root[p]
        return root

    def summary(self) -> dict[tuple[str, str], dict]:
        """Per (phase, name): calls, total and self seconds, summed values,
        and the call count per direct parent name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        root = self._roots()
        out: dict[tuple[str, str], dict] = {}
        for i in range(n):
            key = (self.names[self.name[root[i]]], self.names[self.name[i]])
            rec = out.get(key)
            if rec is None:
                rec = out[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0.0, "parents": {}}
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["value"] += self.value[i]
            p = self.parent[i]
            pname = self.names[self.name[p]] if p >= 0 else None
            rec["parents"][pname] = rec["parents"].get(pname, 0) + 1
        return out

    def count_with_child(self, phase: str, name: str, child_name: str) -> int:
        """Number of ``name`` spans under ``phase`` with a direct ``child_name`` child."""
        idx = self._name_index
        if name not in idx or child_name not in idx or phase not in idx:
            return 0
        a, b, ph = idx[name], idx[child_name], idx[phase]
        root = self._roots()
        hit = set()
        for i in range(len(self.start)):
            p = self.parent[i]
            if self.name[i] == b and p >= 0 and self.name[p] == a and self.name[root[i]] == ph:
                hit.add(p)
        return len(hit)

    def write(self, path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, value."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"[{i},{self.parent[i]},{self.name[i]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.value[i]:g}]\n"
                )
