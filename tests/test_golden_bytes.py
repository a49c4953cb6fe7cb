"""Dataset bytes pinned across commits.

Seed 0, 20 items per file: instance files for every generator task and
traced files for the three traced tasks at k in {0, 1, 5, 10}, each with
its manifest. A refactor must leave every hash below unchanged; a change
to the bytes is deliberate, bumps ``SCHEMA_VERSION`` and updates this
table.
"""

import hashlib

from traceforge import pipeline
from traceforge.core import TaskKind

COUNT = 20
SEED = 0
DEPTHS = (0, 1, 5, 10)
GENERATOR_TASKS = [t for t in TaskKind
                   if t not in (TaskKind.ZEBRA, TaskKind.LIST_FUNCTIONS)]
TRACED_TASKS = (TaskKind.COUNTDOWN, TaskKind.SUDOKU, TaskKind.ARC1D)

GOLDEN = {
    "countdown_instances.jsonl": "731706389cf1649b1dbb37c431d9e831459584f56cf9fe1104c0ca3169fac65a",
    "countdown_instances.jsonl.manifest.json": "5bb18d78e5f8ecf8e29219837ba7265b92240c6cd1b644e33c84fbd946522d39",
    "sudoku_instances.jsonl": "d191dc782fb673071e470005e34bc10a6d7933a767b6d5c7cd29fd0907a3a064",
    "sudoku_instances.jsonl.manifest.json": "9d0cc0c08873b5b1ce64f0b0117da5a615e0d739d1de65b8b617900965fdf847",
    "arc1d_instances.jsonl": "5512d8bd21c9d209806b34cb3710c62f5104ac03372494194de5e065011ed7b3",
    "arc1d_instances.jsonl.manifest.json": "c92f37d667e7de378929d7ca5937ac4c5e645e79e2aa336a3f5528cfc6b4cdbc",
    "geometry_angle_instances.jsonl": "cbfe89f34ee1bf17d3d96daa3cc2041d71b2fae07c0b2733a01b4ea1bc4749fa",
    "geometry_angle_instances.jsonl.manifest.json": "6362e17217a0fde8c5933eb0040f5eb3dc141b69cba877ca89835bb104e6fc30",
    "geometry_orthocenter_instances.jsonl": "b3f07dc699490e930ac3c31ae66e02c1fa7fd821f08e2b570cb25ba8e7a4319d",
    "geometry_orthocenter_instances.jsonl.manifest.json": "47e4950625e481d1936af49b31b7f22a8591e8af3c6f57afeed15b5cafc690a2",
    "geometry_incircle_instances.jsonl": "845bcff5eff5bd847e1e8d2d2fd670fb083e36f68d9c3a1eaf69c2929239d741",
    "geometry_incircle_instances.jsonl.manifest.json": "01fd42d7df290b2d3887fa2aa7ed70b0fa4c314849d0b50ad45753d365b3fbb6",
    "color_cube_instances.jsonl": "4a76b7f68ce02b325003f5e554e934332229f1c1362a092d5b33861c7662473b",
    "color_cube_instances.jsonl.manifest.json": "5a47a094ccefc3c530260f181756b8232df4a7fd11e1ab24ffc0b2080e2b7114",
    "self_reference_instances.jsonl": "aa37c5818638d97a25db89558c871ddf835093543e3ff3245cfb9d09a9e298ed",
    "self_reference_instances.jsonl.manifest.json": "06b8b5303faeea76bf7fd100a4ed40e74815dc97ab9e050414af2de2be9dcfe2",
    "countdown_k0.jsonl": "44a3a2d4b6a1ef6a5680227a09460f689cb892e84c7682f3b18fed8e2b544e9f",
    "countdown_k0.jsonl.manifest.json": "e95f21a0e22266fd39afff3d3e8012507ccb64ad310f24b08453d75802ce5118",
    "countdown_k1.jsonl": "2a573b9890c23b35ae8d416ecba0281a96dc2d2250d4d6d76e7fa3c1a4bf84af",
    "countdown_k1.jsonl.manifest.json": "22a49e9de5e94089feb55c66165c4f4bd71888ecbea7a1c88f40a80d67a09347",
    "countdown_k5.jsonl": "610966f80d1a9e37ed42d2025acd12b1d36ef142f963f80f017ec76078ee663c",
    "countdown_k5.jsonl.manifest.json": "99ca59f3650ac331ebb6823df47c7f8e8bfbcee50c4ca2ce4c50cabc855bf3ef",
    "countdown_k10.jsonl": "645986caf02c7a36083755624d8506c64708badd2a225b45252e1485de34ba8c",
    "countdown_k10.jsonl.manifest.json": "2981d34ca3e6fc3dcb1702fb8fe6ff491b7b476cf266cf9f601e38bae6aa4b89",
    "sudoku_k0.jsonl": "96a60eb6c028dbeb94dbeb25228831113f042c9b20a9b7a481805637047ddfe7",
    "sudoku_k0.jsonl.manifest.json": "c4e9ecf4f980ee92ff20d35a1e36268fbf134dd898fc0e8d852944b70e22e7df",
    "sudoku_k1.jsonl": "af0b64e3b615adb8e8c9aa9c4978ba7de69352763b62ee9dc0b84912adc9f422",
    "sudoku_k1.jsonl.manifest.json": "e52505ac6013704f45646d636a490671a868d5a498fa66e57bd3df1243a9277f",
    "sudoku_k5.jsonl": "0dbf1c883490a6a05289ca2a8116877c862e8bc40379349adfc03b3391a4a20d",
    "sudoku_k5.jsonl.manifest.json": "54bffe73f9ad792da4420a12f1385eb94fb3e9d1338803432e3f8c1a43d9bed8",
    "sudoku_k10.jsonl": "21de4d6e9093a26e4c6b1a77def24a918ebe73109a2973cf95ad0cc6892a6fdc",
    "sudoku_k10.jsonl.manifest.json": "96783d3ca1b1fd3f86409f76098eedd8f8a691724219a8a24084b3768d1498e9",
    "arc1d_k0.jsonl": "885a77b303fd24d3796d8666ed0f6c1dae60dbaefc373fb53ff558b40e74c89a",
    "arc1d_k0.jsonl.manifest.json": "c442ae1620655834e78ae93a288ac1d1b3df97fcfac0aeefc77ba5bcd18bf1a5",
    "arc1d_k1.jsonl": "d2d7eb7bf8e23a66aaad3b15a1b641677c5e92cf9980fb7a9e006fa113a6f302",
    "arc1d_k1.jsonl.manifest.json": "66442973ed60e31f52156f5a0fdd2685e385d28ccb9146e565368ee5e55550cb",
    "arc1d_k5.jsonl": "3eb47e595075241a910ce5d04c566dc726bb2c4c1d685c52b36586a6473db099",
    "arc1d_k5.jsonl.manifest.json": "25f12755750a7948dc4056831b3890161582917ee098fa5ad5f587606ea0e21d",
    "arc1d_k10.jsonl": "ca95c6d39dc772cbdb6aef7c4bf931680e1d84508489dc1e6ab5b64824f95ef3",
    "arc1d_k10.jsonl.manifest.json": "d0a3b7b533431fbd6c4b9cbfd22703b8be4c62ed5a78f1859e7f3d0e57ca9870",
}

# SHA-256 of the "<basename> <sha256>\n" lines above, in table order
GOLDEN_DIGEST = "74812ff2e1208f291edfc1a376750437c0676bb9f7bb12c0010ed10289015a45"


def test_dataset_bytes_match_golden_hashes(tmp_path):
    data_files = []
    for task in GENERATOR_TASKS:
        path = tmp_path / f"{task.value}_instances.jsonl"
        pipeline.emit_instances(task, COUNT, SEED, path)
        data_files.append(path)
    for task in TRACED_TASKS:
        for k in DEPTHS:
            path = tmp_path / f"{task.value}_k{k}.jsonl"
            pipeline.emit_sft(task, COUNT, k, SEED, path)
            data_files.append(path)

    got = {}
    for path in data_files:
        for name in (path.name, path.name + ".manifest.json"):
            got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert list(got) == list(GOLDEN)
    mismatched = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not mismatched, f"dataset bytes changed: {mismatched}"
    listing = "".join(f"{name} {digest}\n" for name, digest in got.items())
    assert hashlib.sha256(listing.encode()).hexdigest() == GOLDEN_DIGEST
