"""Golden digests of the mini-corpus pipeline: every artifact that
``test_cli.run_pipeline`` writes, manifests included, hashes to the value
committed here.  A change that alters any output on purpose updates the
table and says why."""

from __future__ import annotations

import hashlib

from test_cli import raw_corpus, run_pipeline  # noqa: F401  (raw_corpus is a fixture)

MINI_PIPELINE_SHA256 = {
    "citations.jsonl": "218b51d33bf123d79a4cc7fe1f49a56cee19849ff627782d1c2488db7bd13201",
    "citations.jsonl.manifest.json": "17d06f10c4936631010d445b2156475e958ace6af2e31de247a20e525377be74",
    "corpus.jsonl": "1367f068aecfccb77e9fe0007013f3b9bd7c2d2fc844b783e1b9add1d45151cd",
    "corpus.jsonl.manifest.json": "89f6d57f7804953875743becfd73a172de619862cef05734a5b10053ff386e31",
    "density.json": "274a41f388a5febdb5eccbfb26d28d568e1d437e2d137f87eb86ed043a295c3c",
    "density.json.manifest.json": "c1032f4e7bea45538b6f9fb5856f6e39e196221e003c3e43132b2e334a64d7cb",
    "docs.idx": "d340b5edec9a60c7bb3b9cf76a2f16dc37500b0327d62497181d37a184b973f0",
    "docs.idx.manifest.json": "af2cebcf5ccadd3b12af2b6f4c0ce3f9db2a34e1c194f45ebd58d8a87d6ecc26",
    "generation_report.json": "05ad8acad4b1c2911c726616bb4731f64237f0e8829421214ee6368892b23669",
    "generation_report.json.manifest.json": "d15d9e7b7a52204da96730f75085fa2a0a18849c62cbc267d199a9121e766f81",
    "generations.jsonl": "d37c34116febf27ae0d673c82043d5884fcef6a45a3a9fb07638ad4ab818b481",
    "genset.jsonl": "167cb05b025df61fd432c69a865b0057866f6acf1623cf38a955cd3d299a64fd",
    "genset.jsonl.manifest.json": "ebf68058a77645c53eca20bbd37ccc89877c16124d050b414f813de95fb14d18",
    "passage_qrels.txt": "358f608241015af83a173b5e0360bcad3c2480289c1c76e2e8492581da62104b",
    "passages.idx": "8272f4e0dc9e84dc319e3596afcb291cab617b40c723a02ac11f0433cd3161b3",
    "passages.idx.manifest.json": "795ab9a570a0d7cd577f8de1b056b3e351f5d60cc7c016ddcbb53661e38a06fb",
    "passages.jsonl": "dd72728208345c369a9512d4da25a3eeeaf2e2de7ea21b99f1c409985f67f81d",
    "passages.jsonl.manifest.json": "bf1481f38b64cc473567a57fb13b5f6ff521eea604479e665ca482c045843390",
    "qrels.txt": "7029d1b4cb7d2d16ebc563c239697b942b5230dbd530587319f399fc30c8290c",
    "queries.jsonl": "90d23d602f52bba8566444507c88444a47109f74e22bbd392833b700879acb0d",
    "queries.jsonl.manifest.json": "900b0394fce10b408893b51f009f6b6cedc2c89d54ea02f235f8623fa6734eb3",
    "quote_exact.trec": "7977bc087b9bcd3bf284e7b4f22ccb77d71056b25d28eedb107cb0f56ba0d4c2",
    "quote_exact.trec.manifest.json": "ffb591b180c8bd008b51b55c67fe8fa482c3a0af39249baec8d62cce59698ac3",
    "quote_run.trec": "ad0abdb05ff50d1842b9327d41891af839470a78f0835181ad3e598002bbd810",
    "quote_run.trec.manifest.json": "86e5ca1e2fecbaa68c8d6dec6c5a19ddf5227b572d1c5d1833f53089e9a291f8",
    "quotes.jsonl": "cc9109e8f39dab71c0dbd6fb8816060094b8690cfca6ec2973025d8778b0c688",
    "retrieval_report.json": "b57ee09abe0244cfb4b15ba650da0fa0c734e283c48c4d5cc5990f5c4186d23c",
    "retrieval_report.json.manifest.json": "2890939b3b4a560fcd805964358c35aca4d6532d8b7f5971703697774c27d71d",
    "run.trec": "c67d6aa75ab805218a6753073b5470a7807c1f10d769158b77a246ad77420dfe",
    "run.trec.manifest.json": "bed5954165f21cb2129e8ecf0721f32e32f4af62f7f8faf56cc130a293554da5",
    "run_maxp.trec": "cae1bec635345301e8017fc8afd14e503117d9f234fed14a8cd1bd3081285450",
    "run_maxp.trec.manifest.json": "f07f1028cd8a1435f8006cf7d2ea7ab1faa514b40a1aab65f1db33ee1baa79ec",
}


def test_mini_pipeline_artifacts_match_golden_digests(tmp_path, raw_corpus):
    run_pipeline(tmp_path, raw_corpus)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path != raw_corpus
    }
    assert got == MINI_PIPELINE_SHA256
