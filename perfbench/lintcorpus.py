"""Seeded corpus of generated host programs for the ``lint`` workload.

Every program is a pipeline module written against the gateway API, built
from the evaluation catalog's real call-site repertoires
(:data:`repro.apps.catalog.REPERTOIRES`).  The properties that drive the
static checker's cost vary per file: module size (pipelines per module),
helper-inlining depth (0..4 nested helpers the dataflow pass splices in),
and loop/branch count (which drives the dataflow fixpoint).

A known subset of files carries exactly one planted violation of an
error-severity rule; every other file is clean.  The corpus is a pure
function of the seed: the same seed gives the same sources and digest.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.base import ArgSpec
from repro.apps.catalog import REPERTOIRES
from repro.core.apitypes import APIType
from repro.frameworks.registry import get_api

#: Error rules the generator knows how to plant, each with a recipe below.
PLANTED_RULES = (
    "frozen-write",
    "frozen-alias-write",
    "phase-order",
    "cross-partition-leak",
)
#: One file in this many carries a planted violation.
PLANT_EVERY = 4
MAX_HELPER_DEPTH = 4


@dataclass(frozen=True)
class LintFile:
    """One generated program and the rule planted in it (None = clean)."""

    path: str
    source: str
    planted: Optional[str]


@dataclass(frozen=True)
class LintCorpus:
    seed: int
    files: Tuple[LintFile, ...]

    def digest(self) -> str:
        """sha256 over every path, planted rule and source text."""
        hasher = hashlib.sha256(f"lint/{self.seed}\n".encode())
        for item in self.files:
            hasher.update(f"{item.path} {item.planted}\n".encode())
            hasher.update(item.source.encode())
        return hasher.hexdigest()


def _repertoire(framework: str) -> Dict[str, List[str]]:
    """The framework's call sites usable with one-image pipeline arguments."""
    table = REPERTOIRES[framework]

    def names(api_type: APIType, argspec: ArgSpec) -> List[str]:
        return [
            name for fw, name, spec in table[api_type]
            if fw == framework and spec is argspec
        ]

    process = names(APIType.PROCESSING, ArgSpec.UNARY)
    return {
        "load": names(APIType.LOADING, ArgSpec.SOURCE_PATH),
        "process": process,
        # A type-neutral API runs in its caller's partition, so only a
        # concrete processing API makes loaded bytes cross partitions.
        "leak_sink": [
            name for name in process
            if not get_api(framework, name).spec.neutral
        ],
        "store": names(APIType.STORING, ArgSpec.SINK),
    }


#: Frameworks whose repertoires have path loaders, unary processing and
#: path sinks, so every generated call site resolves.
FRAMEWORKS = ("opencv", "tensorflow", "caffe")


class _Writer:
    """Emits one module's source for a chosen framework and shape."""

    def __init__(self, rng: random.Random, framework: str) -> None:
        self.rng = rng
        self.framework = framework
        self.apis = _repertoire(framework)
        self.lines: List[str] = []

    def call(self, kind: str, *args: str) -> str:
        name = self.rng.choice(self.apis[kind])
        rendered = ", ".join((f'"{self.framework}"', f'"{name}"') + args)
        return f"gateway.call({rendered})"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def helpers(self, prefix: str, depth: int) -> None:
        """A chain of ``depth`` helpers, each calling the next."""
        for level in range(depth):
            self.emit(0, f"def {prefix}_{level}(gateway, image):")
            self.emit(1, f'"""Inlining level {level} of {depth}."""')
            self.emit(1, f"image = {self.call('process', 'image')}")
            if level + 1 < depth:
                self.emit(1, f"return {prefix}_{level + 1}(gateway, image)")
            else:
                self.emit(1, "return image")
            self.emit(0, "")
            self.emit(0, "")

    def body(self, prefix: str, depth: int, loops: int, branches: int) -> None:
        """Process ``image`` through loops, branches and the helper chain."""
        for index in range(loops):
            self.emit(1, f"for step_{index} in range({self.rng.randint(2, 5)}):")
            self.emit(2, f"image = {self.call('process', 'image')}")
            if depth:
                self.emit(2, f"image = {prefix}_0(gateway, image)")
        for index in range(branches):
            self.emit(1, f"if mode == {index}:")
            self.emit(2, f"image = {self.call('process', 'image')}")
            self.emit(1, "else:")
            self.emit(2, f"image = {self.call('process', 'image')}")
        if depth and not loops:
            self.emit(1, f"image = {prefix}_0(gateway, image)")


def _pipeline(
    writer: _Writer, index: int, planted: Optional[str], shape: Dict[str, int]
) -> None:
    prefix = f"stage{index}"
    writer.helpers(prefix, shape["depth"])
    writer.emit(0, f"def pipeline_{index}(gateway, mode=0):")
    writer.emit(1, f'"""Generated pipeline {index}."""')
    src, out = f'"/data/in-{index}.png"', f'"/out/out-{index}.png"'
    if planted in ("frozen-write", "frozen-alias-write"):
        writer.emit(1, 'gateway.host_alloc("scores", [0.0] * 8)')
    if planted == "phase-order":
        writer.emit(1, f'{writer.call("store", out, "None")}')
    writer.emit(1, f"image = {writer.call('load', src)}")
    if planted == "cross-partition-leak":
        # Loading-agent data copied into the host, laundered through a
        # container (so only the flow pass sees it) into a processing call.
        writer.emit(1, "batch = [gateway.materialize(image)]")
        writer.emit(1, f"image = {writer.call('leak_sink', 'batch[0]')}")
    else:
        writer.emit(1, f"image = {writer.call('process', 'image')}")
    writer.body(prefix, shape["depth"], shape["loops"], shape["branches"])
    if planted == "frozen-write":
        writer.emit(1, 'gateway.host_write("scores", [1.0] * 8)')
    elif planted == "frozen-alias-write":
        writer.emit(1, 'tag = "scores"')
        writer.emit(1, "gateway.host_write(tag, [1.0] * 8)")
    writer.emit(1, f"return {writer.call('store', out, 'image')}")
    writer.emit(0, "")
    writer.emit(0, "")


def generate_program(
    rng: random.Random, planted: Optional[str]
) -> str:
    """One module: 1-4 pipelines, the first one carrying ``planted``."""
    writer = _Writer(rng, rng.choice(FRAMEWORKS))
    pipelines = rng.randint(1, 4)
    writer.emit(0, f'"""Generated {writer.framework} host program."""')
    writer.emit(0, "")
    if planted in ("frozen-write", "frozen-alias-write"):
        writer.emit(0, "from repro.sim.memory import MemoryLayout")
        writer.emit(0, "")
        writer.emit(0, "ANNOTATIONS = (")
        writer.emit(1, 'MemoryLayout(name="scores", tag="scores", nbytes=64),')
        writer.emit(0, ")")
    writer.emit(0, "")
    writer.emit(0, "")
    for index in range(pipelines):
        shape = {
            "depth": rng.randint(0, MAX_HELPER_DEPTH),
            "loops": rng.randint(0, 3),
            "branches": rng.randint(0, 3),
        }
        _pipeline(writer, index, planted if index == 0 else None, shape)
    return "\n".join(writer.lines).rstrip() + "\n"


def generate_corpus(seed: int, files: int) -> LintCorpus:
    """``files`` programs; every :data:`PLANT_EVERY`-th carries a violation."""
    rng = random.Random(seed)
    items: List[LintFile] = []
    for index in range(files):
        planted = None
        if index % PLANT_EVERY == PLANT_EVERY - 1:
            planted = PLANTED_RULES[(index // PLANT_EVERY) % len(PLANTED_RULES)]
        items.append(LintFile(
            path=f"corpus/prog_{index:04d}.py",
            source=generate_program(rng, planted),
            planted=planted,
        ))
    return LintCorpus(seed=seed, files=tuple(items))
