"""Synthetic compositional image world.

Concepts are attribute tuples (A attributes, V_a values each).  Every
attribute value gets a random embedding; a concept's base vector is the
normalized sum of its attribute-value embeddings, so similarity structure
follows shared attributes by construction.  Image instances are noisy,
renormalized copies of base vectors.  Captions name the attribute values
in fixed attribute order, one word per attribute, so each caption names
exactly one concept.

Also hosts the text formats: feature files (header ``dim=<D> count=<N>``,
then ``<id> <v_1> ... <v_D>`` per line) and caption files (one caption
per line, concept id first, then word tokens).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling as smp


@dataclass(frozen=True)
class WorldSpec:
    n_attributes: int = 3
    values_per_attribute: int = 4
    feature_dim: int = 32
    instance_noise: float = 0.1
    seed: int = 0

    def validate(self):
        if self.n_attributes < 1 or self.values_per_attribute < 1:
            raise ValueError("WorldSpec: need at least one attribute and one value")
        if self.values_per_attribute ** self.n_attributes < 2:
            raise ValueError("WorldSpec: world must contain at least 2 concepts")
        if self.feature_dim < self.n_attributes:
            raise ValueError("WorldSpec: feature_dim must be >= n_attributes")
        if self.instance_noise < 0:
            raise ValueError("WorldSpec: instance_noise must be >= 0")


@dataclass
class CaptionRecord:
    concept_id: int
    caption: list[int]


@dataclass
class World:
    spec: WorldSpec
    value_vecs: np.ndarray  # (A, V_a, D)
    base: np.ndarray        # (C, D), unit rows

    @property
    def n_concepts(self):
        return self.base.shape[0]

    @property
    def caption_words(self):
        """Size of the caption word inventory (one block per attribute)."""
        return self.spec.n_attributes * self.spec.values_per_attribute

    def concept_tuple(self, concept_id):
        dims = (self.spec.values_per_attribute,) * self.spec.n_attributes
        if not 0 <= concept_id < self.n_concepts:
            raise ValueError(f"concept id {concept_id} out of range")
        return tuple(int(v) for v in np.unravel_index(concept_id, dims))

    def concept_id(self, values):
        dims = (self.spec.values_per_attribute,) * self.spec.n_attributes
        return int(np.ravel_multi_index(tuple(int(v) for v in values), dims))


def _normalize_rows(x):
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return x / norms


def build_world(spec):
    """Deterministic world from (spec, seed): value embeddings and unit-norm
    base vectors for every concept."""
    spec.validate()
    rng = smp.stream(spec.seed, smp.DOMAIN_WORLD)
    a, v, d = spec.n_attributes, spec.values_per_attribute, spec.feature_dim
    value_vecs = rng.normal(size=(a, v, d))
    n = v ** a
    base = np.zeros((n, d))
    dims = (v,) * a
    for cid in range(n):
        tup = np.unravel_index(cid, dims)
        base[cid] = sum(value_vecs[i, tup[i]] for i in range(a))
    return World(spec=spec, value_vecs=value_vecs, base=_normalize_rows(base))


def sample_instances(world, concept_ids, rng):
    """Batched instance features: one (len(ids), D) array in id order."""
    ids = np.asarray(concept_ids, dtype=int)
    if world.spec.instance_noise == 0:
        return world.base[ids].copy()
    feats = world.base[ids] + world.spec.instance_noise * rng.normal(size=(ids.size, world.spec.feature_dim))
    return _normalize_rows(feats)


def caption_word(world, attribute, value):
    """Caption word id for (attribute, value): attribute blocks are laid out
    consecutively starting at id 0."""
    return attribute * world.spec.values_per_attribute + value


def caption_for(world, concept_id, eos_id=None):
    """Deterministic caption: one word per attribute value, then EOS.

    The default EOS id is one past the caption words (a self-contained
    caption language); pass the protocol EOS id instead when captions are
    embedded in the agents' unified vocabulary.
    """
    eos = world.caption_words if eos_id is None else int(eos_id)
    tup = world.concept_tuple(concept_id)
    words = [caption_word(world, i, val) for i, val in enumerate(tup)]
    return CaptionRecord(concept_id=int(concept_id), caption=words + [eos])


def split_concepts(world, fraction, seed, domain_key):
    """Deterministic disjoint concept split: (first, rest) with
    len(first) = round(fraction * n), shuffled by a named stream."""
    rng = smp.stream(seed, smp.DOMAIN_SPLIT, domain_key)
    order = rng.permutation(world.n_concepts)
    cut = int(round(fraction * world.n_concepts))
    return sorted(int(c) for c in order[:cut]), sorted(int(c) for c in order[cut:])


# ---------------------------------------------------------------------------
# feature and caption files


def save_features(path, records):
    """records: iterable of (id, vector). Writes the documented text format."""
    records = [(int(i), np.asarray(v, dtype=np.float64)) for i, v in records]
    if not records:
        raise ValueError("save_features: refusing to write an empty feature file")
    dim = records[0][1].size
    lines = [f"dim={dim} count={len(records)}"]
    for i, vec in records:
        if vec.size != dim:
            raise ValueError(f"save_features: record {i} has dim {vec.size}, expected {dim}")
        lines.append(str(i) + " " + " ".join(repr(float(x)) for x in vec))
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_features(path):
    """Parse a feature file; validates dims and finiteness, renormalizes
    every vector to unit norm.  Errors carry 1-based line numbers."""
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].strip():
        raise ValueError(f"{path}: line 1: empty feature file")
    header = lines[0].split()
    try:
        if len(header) != 2:
            raise ValueError
        dim = int(header[0].removeprefix("dim="))
        count = int(header[1].removeprefix("count="))
        if header[0][:4] != "dim=" or header[1][:6] != "count=":
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}: line 1: malformed header {lines[0]!r}, "
                         "expected 'dim=<D> count=<N>'") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != count:
        raise ValueError(f"{path}: header declares count={count} but found {len(body)} rows")
    if count == 0:
        raise ValueError(f"{path}: line 1: feature file declares zero records")
    records = []
    for k, ln in enumerate(body, start=2):
        parts = ln.split()
        if len(parts) != dim + 1:
            raise ValueError(f"{path}: line {k}: expected id plus {dim} values, "
                             f"got {len(parts)} fields")
        try:
            ident = int(parts[0])
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}: line {k}: non-numeric field") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path}: line {k}: non-finite feature value")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError(f"{path}: line {k}: zero feature vector cannot be normalized")
        records.append((ident, vec / norm))
    return records


def save_captions(path, records):
    """records: iterable of CaptionRecord or (concept_id, tokens)."""
    lines = []
    for rec in records:
        cid, toks = (rec.concept_id, rec.caption) if isinstance(rec, CaptionRecord) else rec
        lines.append(" ".join(str(int(x)) for x in [cid, *toks]))
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))


def load_captions(path):
    with open(path, encoding="ascii") as f:
        lines = f.read().splitlines()
    records = []
    for k, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        try:
            fields = [int(x) for x in ln.split()]
        except ValueError:
            raise ValueError(f"{path}: line {k}: non-integer token") from None
        if len(fields) < 2:
            raise ValueError(f"{path}: line {k}: need a concept id and at least one token")
        records.append(CaptionRecord(concept_id=fields[0], caption=fields[1:]))
    return records
