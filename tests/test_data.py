"""World construction, instance sampling, caption bijection, and the
text file formats."""

import numpy as np
import pytest

import refgame.data as data
import refgame.sampling as smp

DESK = data.WorldSpec(n_attributes=3, values_per_attribute=4, feature_dim=32,
                      instance_noise=0.1, seed=0)


def test_world_deterministic():
    a = data.build_world(DESK)
    b = data.build_world(DESK)
    assert np.array_equal(a.base, b.base)
    c = data.build_world(data.WorldSpec(seed=1))
    assert not np.array_equal(a.base, c.base)


def test_base_vectors_unit_norm():
    w = data.build_world(DESK)
    assert np.max(np.abs(np.linalg.norm(w.base, axis=1) - 1.0)) < 1e-12


def test_shared_attributes_raise_similarity():
    w = data.build_world(DESK)
    rng = np.random.default_rng(0)
    close, far = [], []
    for _ in range(1000):
        cid = int(rng.integers(w.n_concepts))
        tup = list(w.concept_tuple(cid))
        # flip one attribute
        one = tup.copy()
        one[0] = (one[0] + 1 + int(rng.integers(3))) % 4
        # flip all attributes
        allf = [(t + 1 + int(rng.integers(3))) % 4 for t in tup]
        close.append(w.base[cid] @ w.base[w.concept_id(one)])
        far.append(w.base[cid] @ w.base[w.concept_id(allf)])
    assert np.mean(close) > np.mean(far)


def test_spec_validation():
    with pytest.raises(ValueError):
        data.build_world(data.WorldSpec(n_attributes=1, values_per_attribute=1))
    with pytest.raises(ValueError):
        data.build_world(data.WorldSpec(n_attributes=4, feature_dim=3))
    with pytest.raises(ValueError):
        data.build_world(data.WorldSpec(instance_noise=-0.1))


def test_zero_noise_instance_is_base():
    w = data.build_world(data.WorldSpec(instance_noise=0.0))
    feats = data.sample_instances(w, [5], smp.stream(0, smp.DOMAIN_EVAL))
    assert np.array_equal(feats[0], w.base[5])


def test_instance_mean_near_base():
    w = data.build_world(DESK)
    rng = smp.stream(1, smp.DOMAIN_EVAL)
    feats = data.sample_instances(w, np.full(10000, 3), rng)
    mean = feats.mean(axis=0)
    cos = mean @ w.base[3] / np.linalg.norm(mean)
    assert 1.0 - cos < 0.05


def test_instances_unit_norm_and_distinct():
    w = data.build_world(DESK)
    a = data.sample_instances(w, [0], smp.stream(0, smp.DOMAIN_EVAL, 0))[0]
    b = data.sample_instances(w, [0], smp.stream(0, smp.DOMAIN_EVAL, 1))[0]
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    assert not np.array_equal(a, b)


def test_concept_bijection_exhaustive():
    w = data.build_world(DESK)
    seen = set()
    for cid in range(w.n_concepts):
        tup = w.concept_tuple(cid)
        assert w.concept_id(tup) == cid
        seen.add(tup)
    assert len(seen) == 64


def test_caption_structure():
    w = data.build_world(data.WorldSpec(n_attributes=2, values_per_attribute=4,
                                        feature_dim=8, seed=0))
    rec = w_caption = data.caption_for(w, w.concept_id((0, 1)))
    assert rec.caption == [data.caption_word(w, 0, 0), data.caption_word(w, 1, 1),
                           w.caption_words]
    assert len(rec.caption) == w.spec.n_attributes + 1
    rec2 = data.caption_for(w, w.concept_id((0, 1)), eos_id=20)
    assert rec2.caption[-1] == 20
    assert rec2.caption[:-1] == w_caption.caption[:-1]


def test_captions_distinct_and_decodable():
    """Word i of a caption is attribute i's block offset plus its value,
    so the concept tuple reads straight back off the caption."""
    w = data.build_world(DESK)
    v = w.spec.values_per_attribute
    seen = set()
    for cid in range(w.n_concepts):
        rec = data.caption_for(w, cid)
        seen.add(tuple(rec.caption))
        words = rec.caption[:w.spec.n_attributes]
        assert tuple(t - i * v for i, t in enumerate(words)) == w.concept_tuple(cid)
        assert all(0 <= t - i * v < v for i, t in enumerate(words))
    assert len(seen) == w.n_concepts


def test_split_concepts():
    w = data.build_world(DESK)
    first, rest = data.split_concepts(w, 0.25, seed=3, domain_key=0)
    again = data.split_concepts(w, 0.25, seed=3, domain_key=0)
    other = data.split_concepts(w, 0.25, seed=4, domain_key=0)
    assert (first, rest) == again
    assert len(first) == 16 and len(rest) == 48
    assert not set(first) & set(rest)
    assert (first, rest) != other


def test_feature_file_round_trip(tmp_path):
    path = tmp_path / "feats.txt"
    rng = np.random.default_rng(0)
    vecs = [(7, rng.normal(size=4)), (9, rng.normal(size=4))]
    data.save_features(path, vecs)
    records = data.load_features(path)
    assert len(records) == 2
    for (i0, v0), (i1, v1) in zip(vecs, records):
        assert i0 == i1
        assert v1.size == 4
        assert np.max(np.abs(v0 / np.linalg.norm(v0) - v1)) < 1e-6


def test_feature_file_errors(tmp_path):
    path = tmp_path / "bad.txt"

    def check(text, fragment):
        path.write_text(text)
        with pytest.raises(ValueError) as e:
            data.load_features(path)
        assert fragment in str(e.value)

    check("", "line 1")
    check("dim=4\n", "header")
    check("foo=4 count=1\n1 0 0 0 0\n", "header")
    check("dim=4 count=2\n1 0 0 0 1\n", "count=2")
    check("dim=4 count=1\n1 0 0 1\n", "line 2")
    check("dim=4 count=1\n1 0 nan 0 1\n", "line 2")
    check("dim=4 count=1\n1 0 0 0 x\n", "line 2")
    check("dim=4 count=1\n1 0 0 0 0\n", "line 2")
    check("dim=4 count=0\n", "zero records")


def test_save_features_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        data.save_features(tmp_path / "e.txt", [])


def test_caption_file_round_trip(tmp_path):
    w = data.build_world(DESK)
    path = tmp_path / "caps.txt"
    records = [data.caption_for(w, cid) for cid in range(10)]
    data.save_captions(path, records)
    loaded = data.load_captions(path)
    assert [(r.concept_id, r.caption) for r in loaded] == \
        [(r.concept_id, r.caption) for r in records]


def test_caption_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n4\n")
    with pytest.raises(ValueError) as e:
        data.load_captions(path)
    assert "line 2" in str(e.value)
    path.write_text("1 a 3\n")
    with pytest.raises(ValueError) as e:
        data.load_captions(path)
    assert "line 1" in str(e.value)
