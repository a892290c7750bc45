"""Golden digests of the mini-corpus pipeline: every artifact that
``test_cli.run_pipeline`` writes, manifests included, hashes to the value
committed here.  A change that alters any output on purpose updates the
table and says why."""

from __future__ import annotations

import hashlib

from test_cli import raw_corpus, run_pipeline  # noqa: F401  (raw_corpus is a fixture)

MINI_PIPELINE_SHA256 = {
    "citations.jsonl": "218b51d33bf123d79a4cc7fe1f49a56cee19849ff627782d1c2488db7bd13201",
    "citations.jsonl.manifest.json": "83372fcf83ec35d8b447633c5c94e53682c153132b4a60b46f1553afb7250026",
    "corpus.jsonl": "1367f068aecfccb77e9fe0007013f3b9bd7c2d2fc844b783e1b9add1d45151cd",
    "corpus.jsonl.manifest.json": "4b76debd53f7d58718677e6cdd10005064bcdd37a9116aeee004162d2f52579d",
    "density.json": "274a41f388a5febdb5eccbfb26d28d568e1d437e2d137f87eb86ed043a295c3c",
    "density.json.manifest.json": "103f703832dc73ef9b60257adad5b0f24ee3fcf77586613ecda5af29fc17f452",
    "docs.idx": "29eab071cd6bde76d5877646d2818fafdea428e7d3a65b941c07f749b3996585",
    "docs.idx.manifest.json": "315bd9c0bb6e9c8654976dac1c381aee8e68aea0fae037790741917eca4f895f",
    "generation_report.json": "05ad8acad4b1c2911c726616bb4731f64237f0e8829421214ee6368892b23669",
    "generation_report.json.manifest.json": "d7318e45be7c500b23693403c68dcba69ecdf0def2b6471d9f823a3ee995daf7",
    "generations.jsonl": "d37c34116febf27ae0d673c82043d5884fcef6a45a3a9fb07638ad4ab818b481",
    "genset.jsonl": "167cb05b025df61fd432c69a865b0057866f6acf1623cf38a955cd3d299a64fd",
    "genset.jsonl.manifest.json": "428e440a55d748284d66871ef2dd8319f23078057e0a4040027c5bda5e165850",
    "passage_qrels.txt": "358f608241015af83a173b5e0360bcad3c2480289c1c76e2e8492581da62104b",
    "passages.idx": "80c5c3305b4e9280a3cfb9adafe8a6e3a2fcfa4076a6aa9aae50301ece8fa0e1",
    "passages.idx.manifest.json": "81b3ae41848aec93fffcadd294a645f0a7715adc8856b96d8867dad7cd85e37d",
    "passages.jsonl": "dd72728208345c369a9512d4da25a3eeeaf2e2de7ea21b99f1c409985f67f81d",
    "passages.jsonl.manifest.json": "0c746e7697078ade059a8f34908ea7e178b3f67b4cd3c586401513ef52c59117",
    "qrels.txt": "7029d1b4cb7d2d16ebc563c239697b942b5230dbd530587319f399fc30c8290c",
    "queries.jsonl": "90d23d602f52bba8566444507c88444a47109f74e22bbd392833b700879acb0d",
    "queries.jsonl.manifest.json": "f2573025ec694e25a63844449fc3066ec5873f509edaa1887429c00d8e569a18",
    "quote_exact.trec": "7977bc087b9bcd3bf284e7b4f22ccb77d71056b25d28eedb107cb0f56ba0d4c2",
    "quote_exact.trec.manifest.json": "26a1d56c1739f89d353f85c14885aeb9c7dcfe756898d008180e0c55d7a226de",
    "quote_run.trec": "ad0abdb05ff50d1842b9327d41891af839470a78f0835181ad3e598002bbd810",
    "quote_run.trec.manifest.json": "3725feef8cbdb880cfa43b6bb84e9a5bba6b556198684ca0dabcd2adf48ca45f",
    "quotes.jsonl": "cc9109e8f39dab71c0dbd6fb8816060094b8690cfca6ec2973025d8778b0c688",
    "retrieval_report.json": "b57ee09abe0244cfb4b15ba650da0fa0c734e283c48c4d5cc5990f5c4186d23c",
    "retrieval_report.json.manifest.json": "7bb49dbd6abdb9750d38dd47fbd1a9b66b072d6a02b129e9631cb585ed150ff7",
    "run.trec": "c67d6aa75ab805218a6753073b5470a7807c1f10d769158b77a246ad77420dfe",
    "run.trec.manifest.json": "4c08809c20f6e1990134fb3702a6710a90ab036fcd9638e460a66d1cb55a20e8",
    "run_maxp.trec": "12f6a2dfe400ec166af9bf87183813b1add89efeb9f3c496bad15df49ef73a0b",
    "run_maxp.trec.manifest.json": "a16c375900dad05b6f0b73b07163070544cd7a5886b1d4d200ea74d3074e62e3",
}


def test_mini_pipeline_artifacts_match_golden_digests(tmp_path, raw_corpus):
    run_pipeline(tmp_path, raw_corpus)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path != raw_corpus
    }
    assert got == MINI_PIPELINE_SHA256
