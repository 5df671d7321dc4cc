"""Golden reports: the sha256 of each `run_experiment` report minus `timing`.

Every boosting method runs with each base learner and every data-level
method with naive Bayes, on two small seeded blob datasets and one small
integer-grid dataset with many duplicate rows. A change that must keep
results identical leaves every digest here unchanged. A second table pins
replication 0's resampled training set, the rows `--dump-resampled` writes:
report digests do not pin row order, since a learner can score the same on
reordered rows. A change that alters results on purpose explains why and
regenerates both tables with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json

import numpy as np
import pytest

from resmoteboost import (Dataset, ExperimentConfig, NEGATIVE, POSITIVE, RandomSource,
                          make_gaussian_blobs, run_experiment)
from resmoteboost.experiment import BOOSTING_METHODS, DATA_LEVEL_METHODS


def duplicate_grid() -> Dataset:
    """42/14 rows on a 1..4 integer grid in two dimensions: at most 16 distinct
    rows per class, so most rows are duplicated, within and across classes."""
    rng = RandomSource(2024)
    X_maj = rng.integers(1, 5, size=(42, 2))
    X_min = rng.integers(2, 5, size=(14, 2))
    y = np.concatenate([np.full(42, NEGATIVE), np.full(14, POSITIVE)])
    return Dataset(np.vstack([X_maj, X_min]).astype(float), y)


DATASETS = {
    "blobs-a": lambda: make_gaussian_blobs(48, 12, 2, 1.5, 3),
    "blobs-b": lambda: make_gaussian_blobs(60, 16, 3, 1.0, 8),
    "dup-grid": duplicate_grid,
}

CASES = ([(m, b) for m in BOOSTING_METHODS for b in ("stump", "gnb", "knn")]
         + [(m, "gnb") for m in DATA_LEVEL_METHODS])


def report_digest(data: Dataset, drop=(), **config) -> str:
    report = run_experiment(data, ExperimentConfig(replications=2, seed=5, **config))
    report.pop("timing")
    for rep in report["replications"]:
        for key in drop:
            rep.pop(key, None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# Fresh pools, k-fold CV and unstratified splits, on a few cases. CV
# replications are compared without their `seed` and `test_indices`, which
# record the fold, not a result.
VARIANTS = {
    "fresh": {"fresh_pools": True},
    "cv": {"cv_folds": 3, "drop": ("seed", "test_indices")},
    "nostrat": {"stratified": False},
}
VARIANT_CASES = [(n, m, b) for n in ("blobs-a", "dup-grid")
                 for m, b in (("re_smoteboost", "stump"), ("re_smoteboost", "knn"),
                              ("smoteboost", "gnb"), ("smote", "gnb"))]


def resampled_digest(data: Dataset, **config) -> str:
    """sha256 of replication 0's capture: the bytes of X and y, then the
    synthetics' provenance JSON."""
    capture = {}
    run_experiment(data, ExperimentConfig(replications=2, seed=5, **config), capture=capture)
    digest = hashlib.sha256(capture["X"].tobytes())
    digest.update(capture["y"].tobytes())
    digest.update(json.dumps(capture["synthetics"], sort_keys=True).encode())
    return digest.hexdigest()


def compute_digests() -> dict:
    digests = {}
    for name, make in DATASETS.items():
        data = make()
        for method, base in CASES:
            digests[f"{name}/{method}/{base}"] = report_digest(
                data, method=method, base_learner=base)
    for variant, config in VARIANTS.items():
        for name, method, base in VARIANT_CASES:
            digests[f"{name}/{method}/{base}/{variant}"] = report_digest(
                DATASETS[name](), method=method, base_learner=base, **config)
    return digests


def compute_resampled_digests() -> dict:
    return {f"{name}/{method}/{base}": resampled_digest(make(), method=method, base_learner=base)
            for name, make in DATASETS.items() for method, base in CASES}


GOLDEN = {
    "blobs-a/smoteboost/stump": "097c34a5b1c6c28137410cec064849a1720edba4028031af5f8717d040066d00",
    "blobs-a/smoteboost/gnb": "91be53b0dd19702c25b2fe8c75b211e694b5c50feca9070f218e30b86a642868",
    "blobs-a/smoteboost/knn": "341a51880aeadf62d3dcdfe5fc71c9189e8430ef9d013dbc20bd12049d30ef62",
    "blobs-a/rusboost/stump": "bfd0a8775ad1d6929abddd11bccf1e1e5a0607fe57f9ab769b28df0df5f42ce1",
    "blobs-a/rusboost/gnb": "de076fd86377b1b146747ade7f3b2468255825bc51c5381c4f28f793907e04d5",
    "blobs-a/rusboost/knn": "d96bb5e0a40bcfbabb14424270b4e48efd3f186445cd1dd01efef42dab1f76ea",
    "blobs-a/re_smoteboost/stump": "47e321441faef3101422644d65c86ab6212fd15f049282db9bb21e6c6833232f",
    "blobs-a/re_smoteboost/gnb": "b897a8284d259ffb49867c28e0a56b01e07d9e4182c9b1015dc7f399796c214b",
    "blobs-a/re_smoteboost/knn": "20efc0b708c6b1905bd08f6f4909a41d4e04429e76e688e691e6a539fd80a23c",
    "blobs-a/plain_boost/stump": "884dbcad208b4ce0536a8ca111f36ae04b0899dc71e55ac0b9a51b07c7c2bc57",
    "blobs-a/plain_boost/gnb": "9aee1f84ef55ca7a127b41e340071293ef7b746994df2d80edcb54b323fd0766",
    "blobs-a/plain_boost/knn": "20b46afa7593873b814624c5f6f4224161566797108cf3c89cb0d3ff34998417",
    "blobs-a/none/gnb": "9a336c87752dd7077e74f713b41d2df6af96fded9f87e00daafbc0a6e8f3d7a7",
    "blobs-a/smote/gnb": "eb679359c35bb3ddfce2ed28fa8154f38d500a13bddf156b76955721c5d3ea8a",
    "blobs-a/borderline_smote/gnb": "bb0a8161584d30ad59e981b9756995a23d0f76bef6bfcc2ff5523de4d64bf591",
    "blobs-a/adasyn/gnb": "3a7571b58b17d9382761ad61bf6b2f212c2ba9bfaea679326f5a2d5398b9bbee",
    "blobs-a/tomek_links/gnb": "ddc63a1ac129cffea808c34add6a31769930162db50bb3c8887907c23bb42dc1",
    "blobs-a/random_under/gnb": "1ffd21a4704897533c5533b1a8ca53f17af90de0cbf656e36171a03e0d83541f",
    "blobs-b/smoteboost/stump": "199090d543fa6a0172b3030b5b81f3d688025a10a69a7f480c1d1b083b061152",
    "blobs-b/smoteboost/gnb": "ad32fc52c2b300f9cb59b7c838aa25349a748e1d22b5038bda83b9cb0584332a",
    "blobs-b/smoteboost/knn": "e33e171617055f9c1791d7284698a0f00c93664b9017cd4dba55e2ef63ccf236",
    "blobs-b/rusboost/stump": "7336915a545f4ffd41a1bd4c4c88d04e0308c6618fdb2cafe541e18d3a50fd27",
    "blobs-b/rusboost/gnb": "04c29df8e49a6e7f36a42a5e012ddc0ea2168f7851b8c95ea0b8a81ef1b955cc",
    "blobs-b/rusboost/knn": "df2cfdde4e933e75f695a5cac9356e66ea479df29f4cb2166bd6a8dcf67e3f88",
    "blobs-b/re_smoteboost/stump": "36c715da8df0175fdc67c65dcdead0f53391a76b5f9416461f6a6fbb871abca6",
    "blobs-b/re_smoteboost/gnb": "da4084f8faed8f5fe41f0dac1b69632106e87a65f434e83271a6dfe3c58209fb",
    "blobs-b/re_smoteboost/knn": "66658f51fefc67be4affc1948696e0489d89406d3db59ab26e78c90635d659bf",
    "blobs-b/plain_boost/stump": "2ec10a96285bde3d07fd0064ceff79cc4bb93266b707bd7d04d20bceb9e540eb",
    "blobs-b/plain_boost/gnb": "845c1c11dd7f2e17cf0f6fb33b2984ed4d64b20366c7eb3b9bba941491044a1a",
    "blobs-b/plain_boost/knn": "218b021ef831b6d4874594b3a0678a2eb4802c1e16059f6a7b14d056e2c74222",
    "blobs-b/none/gnb": "1e73a5aa63aca33982b665c548b3583ebb87afc6cdfa4467993ddc9e40545c95",
    "blobs-b/smote/gnb": "e115b515134e04c7f07d4d4a570ee6e60b3a4d2fc45418115c39cd2e5dc893ce",
    "blobs-b/borderline_smote/gnb": "021d422dab3746e1778a522eecd781786e0744c32d8290cde7abe2182afc6d73",
    "blobs-b/adasyn/gnb": "1f1064f8ce6b3d3063c19212ed84b2cd172d91465000cf6b6fb5a9446017844a",
    "blobs-b/tomek_links/gnb": "3075208d2ab1ac11f07eb508a50c8556757011f6a293e4c23b733b33d05c525b",
    "blobs-b/random_under/gnb": "da826709633455a195c5f8376394415edbdff253ff13e17e73f155e8f6ce709a",
    "dup-grid/smoteboost/stump": "6324921f21202f495eae758ddc1143607c0088d4c4ecf16d0941e4a8851762a4",
    "dup-grid/smoteboost/gnb": "22fbbf88fc21e44b53a7d35ce8bf8324f41e91e140b9a7724994389b9c7fbea8",
    "dup-grid/smoteboost/knn": "2bf3aa227a702a6f82b44ca08f3082e685ac6d321a0662d970f6f9a7439e98a8",
    "dup-grid/rusboost/stump": "f472a0db2b0f19b088fcf153090887b2c260c43530a016ebb8c93d95d23a1b7e",
    "dup-grid/rusboost/gnb": "d44267adae875e364395bad23c14eaa7e0f88d54a146caeb397a988b2bba1d56",
    "dup-grid/rusboost/knn": "84910106d9961893ffa22ae66a804ddb7dd955108df400e6886e3b32cfb0379c",
    "dup-grid/re_smoteboost/stump": "e826f6a420ccbf4353d5362fc89d54ea7fba54004a60886f9d369e710dd35de5",
    "dup-grid/re_smoteboost/gnb": "04626c0cf2aa887e9c7d4c6ff4fcf24e62896d4b93e61c64fe2e6693abd0c2c9",
    "dup-grid/re_smoteboost/knn": "acf2b9246c9a7ca790c11de2bacf346786499a047f82721852f487a66b6b38a0",
    "dup-grid/plain_boost/stump": "c362579585e79041683cf79be5457c8e0664d68fe5faa6ffbda3b60f54c5fc8c",
    "dup-grid/plain_boost/gnb": "07a318a4b72f345213ca3fc1ff53fa4b83437b75e37517773df7fe4ed5eb5669",
    "dup-grid/plain_boost/knn": "cf0dd7a5d208627729ba03aa9a4bd056309b0cd87467d0355456fca84cf2d0b0",
    "dup-grid/none/gnb": "7f3be5dc6555afbd3cfd1fe483c4d4c67be121516ca9825a8200accebc160b49",
    "dup-grid/smote/gnb": "5f39ff4c94c9eef939ef447efacf993be9764b0c8e0725b16b56d0fe618f7451",
    "dup-grid/borderline_smote/gnb": "3c1c4e7248d25cdb5cbee87a344946b46b5f3b4afdd76e6fa75328acd2bc84f7",
    "dup-grid/adasyn/gnb": "93d8f0d67bc02b14d44c0ce606f72f1c6a89d443d8173c00d9567e1acb81260a",
    "dup-grid/tomek_links/gnb": "ffd7a092c5c0013807decb1b03ab79b9b0882d6cabbaf0b8719476c7e56ab375",
    "dup-grid/random_under/gnb": "848ba68621710ae3d31bcf96e851231ca5770088d24a2f75af7c0ad6137f88fc",
    "blobs-a/re_smoteboost/stump/fresh": "d54441def417d26a64edb9c81a3754d1f84b7e7b8617b060164e21c86832ad85",
    "blobs-a/re_smoteboost/knn/fresh": "dd7c5f39145d0296a849acaa25c7e96a9eeb8e41d2d13d716f77e724ce03116a",
    "blobs-a/smoteboost/gnb/fresh": "2f01c806dec5108e3babd0f5e1a8f0d2f59aa29ebeb89f0cf67310cb628d5772",
    "blobs-a/smote/gnb/fresh": "deaa6c70ea87d26f751652fec2fd143e1a2fd0fd2d00c9478a5a3e107ffbc5ed",
    "dup-grid/re_smoteboost/stump/fresh": "4c81381b177d3c8ca4f63f1e59a39aa9a58cf17cdf0d619ce3deb40ed781c7bf",
    "dup-grid/re_smoteboost/knn/fresh": "467cb5c0f166ede61847f3a0fb07b1a2e4260aea48fe0f259bc95555533be2d5",
    "dup-grid/smoteboost/gnb/fresh": "d9a7b45ecad3437d0d3b536f84f529f69104107067dcb867034253b53c5c8169",
    "dup-grid/smote/gnb/fresh": "692fd5b22a3373b5b9b979263bfe16fa523067e6ae1a03f9ae71396ce3257268",
    "blobs-a/re_smoteboost/stump/cv": "f41449d0f193001018a420b8189a5295321b5484ed3201585391b5804170b7fb",
    "blobs-a/re_smoteboost/knn/cv": "c4fc8b60846776ed40284bad5bd20f140088ffa3bf972deca31cbaeb6b52ed2c",
    "blobs-a/smoteboost/gnb/cv": "b583d04cc23c7a56e380685db600b0a809cb4bfce5d4c17dbc2ae346303b7bc1",
    "blobs-a/smote/gnb/cv": "3976039f852aa8e7d81d2348b48e844197b6d1a0ce4b0342cc73b632c5f35899",
    "dup-grid/re_smoteboost/stump/cv": "5fb5f68c806f6fe44354209a5cd8bf070709238a255b6528ae87aa06efbaecbe",
    "dup-grid/re_smoteboost/knn/cv": "6802af5b5e925d9d0bdface9a24e75799b97355e61361c7a301879c2fac8199e",
    "dup-grid/smoteboost/gnb/cv": "131276685302e6dc5b5de90325f2c66abad6f6eaeb448a882f7256a282bd0a21",
    "dup-grid/smote/gnb/cv": "8d95341ddef395848b1351bb33c0b32dbe2e90a5e1ad86bf97c6ca583ac42b84",
    "blobs-a/re_smoteboost/stump/nostrat": "d8f7d4a8b458815551fcf4d39905d9ec5f033496f396ed9474bebe0e73ed88e7",
    "blobs-a/re_smoteboost/knn/nostrat": "1cf37a48d96d659a6dfef7d6f70d140dcd9e91362a14ae019d7d21422475fe84",
    "blobs-a/smoteboost/gnb/nostrat": "39f76f37ddf6aa2d2cf83cbd994428694f8c5de945ea204ba88d85929b784a3a",
    "blobs-a/smote/gnb/nostrat": "a0b29e506e6fdb29b9423401a7ffe2b4dafe10ebbe1883bb476a0f23f7712fb1",
    "dup-grid/re_smoteboost/stump/nostrat": "8258887d72c2422a25c0c5d69cb9578196583c51fed5b3a5c094b34c1c9238d3",
    "dup-grid/re_smoteboost/knn/nostrat": "e621901ba255059c6150f40b8bd86840151a87641007b25b07e0062f29fe6421",
    "dup-grid/smoteboost/gnb/nostrat": "e6d9259dbedaf98c507a30141aad1f1a57071b63dbace67cef5347a95f5f29e9",
    "dup-grid/smote/gnb/nostrat": "de19137e9c8c11194dde3be698575409068bda1f8317d28ab6e4844e9b382b79",
}

RESAMPLED = {
    "blobs-a/smoteboost/stump": "ea21f21cbd5474a5f1dcaa2aa0d989aa04574e64e7d82529f88d47829d63ffec",
    "blobs-a/smoteboost/gnb": "ea21f21cbd5474a5f1dcaa2aa0d989aa04574e64e7d82529f88d47829d63ffec",
    "blobs-a/smoteboost/knn": "ea21f21cbd5474a5f1dcaa2aa0d989aa04574e64e7d82529f88d47829d63ffec",
    "blobs-a/rusboost/stump": "438f7fd8f39d5135b77465d8e843342f72062b799313b7808a7a0ab5fbf4cbd1",
    "blobs-a/rusboost/gnb": "438f7fd8f39d5135b77465d8e843342f72062b799313b7808a7a0ab5fbf4cbd1",
    "blobs-a/rusboost/knn": "438f7fd8f39d5135b77465d8e843342f72062b799313b7808a7a0ab5fbf4cbd1",
    "blobs-a/re_smoteboost/stump": "351a6e5af47e8c11634e3a76ffc803f9c414745ce4fbb2bcf8b8873907097590",
    "blobs-a/re_smoteboost/gnb": "351a6e5af47e8c11634e3a76ffc803f9c414745ce4fbb2bcf8b8873907097590",
    "blobs-a/re_smoteboost/knn": "351a6e5af47e8c11634e3a76ffc803f9c414745ce4fbb2bcf8b8873907097590",
    "blobs-a/plain_boost/stump": "352d9d16c07288fbc00c38a822a4c46c647f9f0a3a75a9f6e367e08393dbaad1",
    "blobs-a/plain_boost/gnb": "352d9d16c07288fbc00c38a822a4c46c647f9f0a3a75a9f6e367e08393dbaad1",
    "blobs-a/plain_boost/knn": "352d9d16c07288fbc00c38a822a4c46c647f9f0a3a75a9f6e367e08393dbaad1",
    "blobs-a/none/gnb": "352d9d16c07288fbc00c38a822a4c46c647f9f0a3a75a9f6e367e08393dbaad1",
    "blobs-a/smote/gnb": "410ade2a9a67da038b3054e812f9465c56d539a8c27c09f75f837d5323a60429",
    "blobs-a/borderline_smote/gnb": "abdf07faad5597629dbd831bb49584686f05e743d8cbc7b246c5b9b9517a57e5",
    "blobs-a/adasyn/gnb": "0e7cfbfd44220d620ad9f9e7e7fb524de1f5d5d77e91a2679e919674d54e9bff",
    "blobs-a/tomek_links/gnb": "99c3764edd760e7c58293a5c835fafc2f2338208294b3b02674dd1af2fc78edb",
    "blobs-a/random_under/gnb": "5e70b2227b7d2721a8e9d6c0515606e01201a4baeed685fb34710b47bc7f7b2f",
    "blobs-b/smoteboost/stump": "d56590d957e07b9b23f8bee94f80ed4c20d4ad3f95e4a15070891456008d3a5a",
    "blobs-b/smoteboost/gnb": "d56590d957e07b9b23f8bee94f80ed4c20d4ad3f95e4a15070891456008d3a5a",
    "blobs-b/smoteboost/knn": "d56590d957e07b9b23f8bee94f80ed4c20d4ad3f95e4a15070891456008d3a5a",
    "blobs-b/rusboost/stump": "4349de266c60b08681202d8e505115d91c98c3fa6387c98f3852b45f7445f352",
    "blobs-b/rusboost/gnb": "4349de266c60b08681202d8e505115d91c98c3fa6387c98f3852b45f7445f352",
    "blobs-b/rusboost/knn": "4349de266c60b08681202d8e505115d91c98c3fa6387c98f3852b45f7445f352",
    "blobs-b/re_smoteboost/stump": "df2140dd9d8a8b1124266e9ca4e3f8cab9a921b00f57d7ee172b83b069661c24",
    "blobs-b/re_smoteboost/gnb": "df2140dd9d8a8b1124266e9ca4e3f8cab9a921b00f57d7ee172b83b069661c24",
    "blobs-b/re_smoteboost/knn": "df2140dd9d8a8b1124266e9ca4e3f8cab9a921b00f57d7ee172b83b069661c24",
    "blobs-b/plain_boost/stump": "2f776d4524a24756a148eecbaf923bf894218b6736c38198db1185a811e7e233",
    "blobs-b/plain_boost/gnb": "2f776d4524a24756a148eecbaf923bf894218b6736c38198db1185a811e7e233",
    "blobs-b/plain_boost/knn": "2f776d4524a24756a148eecbaf923bf894218b6736c38198db1185a811e7e233",
    "blobs-b/none/gnb": "2f776d4524a24756a148eecbaf923bf894218b6736c38198db1185a811e7e233",
    "blobs-b/smote/gnb": "f9d16a3d6fcf357db5aded35addfdb17b7a128043d8e011e28405e279b52559b",
    "blobs-b/borderline_smote/gnb": "7f7da556bd34a8a4efe3b29f2acd51bdf8fe1a86ce270e7c4e5f39ce1cc22cce",
    "blobs-b/adasyn/gnb": "60a09151ab8a54ff3502fd865fbaefa28db707eb1ea2d843b61c03ea9a346b96",
    "blobs-b/tomek_links/gnb": "f2802bce40164897c4582b675335732cf7cad55354dff2f49f4004f3d7717e86",
    "blobs-b/random_under/gnb": "cf69b8204ae423ffabdaac9c1633fa353a4061bfcb40495b80a34aec468a0827",
    "dup-grid/smoteboost/stump": "173964fa58c89a7a1df40dea780172751cd78aa51852621c2cebb9fcea42ac34",
    "dup-grid/smoteboost/gnb": "173964fa58c89a7a1df40dea780172751cd78aa51852621c2cebb9fcea42ac34",
    "dup-grid/smoteboost/knn": "173964fa58c89a7a1df40dea780172751cd78aa51852621c2cebb9fcea42ac34",
    "dup-grid/rusboost/stump": "32c61cd275a488b64792cca27b4b4b594f3850a6484235d152acb2f56cf1ad82",
    "dup-grid/rusboost/gnb": "32c61cd275a488b64792cca27b4b4b594f3850a6484235d152acb2f56cf1ad82",
    "dup-grid/rusboost/knn": "32c61cd275a488b64792cca27b4b4b594f3850a6484235d152acb2f56cf1ad82",
    "dup-grid/re_smoteboost/stump": "c493de779db07777f37121d4c0e79884d17f1c7c68250a1381bed5d9c74204c2",
    "dup-grid/re_smoteboost/gnb": "c493de779db07777f37121d4c0e79884d17f1c7c68250a1381bed5d9c74204c2",
    "dup-grid/re_smoteboost/knn": "c493de779db07777f37121d4c0e79884d17f1c7c68250a1381bed5d9c74204c2",
    "dup-grid/plain_boost/stump": "a4c37ce3d7aeb9172de70db2408f42d3a31fc9c0764ce2722a7c3a12289ec215",
    "dup-grid/plain_boost/gnb": "a4c37ce3d7aeb9172de70db2408f42d3a31fc9c0764ce2722a7c3a12289ec215",
    "dup-grid/plain_boost/knn": "a4c37ce3d7aeb9172de70db2408f42d3a31fc9c0764ce2722a7c3a12289ec215",
    "dup-grid/none/gnb": "a4c37ce3d7aeb9172de70db2408f42d3a31fc9c0764ce2722a7c3a12289ec215",
    "dup-grid/smote/gnb": "efcd8948d9123dc1ff2fba9266147b6daf8c1118510ebd687b551c1b225aaf40",
    "dup-grid/borderline_smote/gnb": "dbdd5cefbfa35ba1926efc7b01945dc279fb6082c4939fd54a1900f790cb026b",
    "dup-grid/adasyn/gnb": "60d11186cacd6ecacc21dee686a2a689b65bc5deb015e55dd64ac22e81d0bf49",
    "dup-grid/tomek_links/gnb": "2bd3fc6b3729fffcb334426a9c746dadd69baf4a8ae78a2be188f97cb4f29e79",
    "dup-grid/random_under/gnb": "270989cae1bb4e35f63a7c96a31d2a9bccde8d92dc8e99263cd12bd4ca8c579d",
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_digest_unchanged(key):
    name, method, base, *variant = key.split("/")
    config = VARIANTS[variant[0]] if variant else {}
    digest = report_digest(DATASETS[name](), method=method, base_learner=base, **config)
    assert digest == GOLDEN[key]


def test_table_covers_every_case():
    assert set(GOLDEN) == ({f"{n}/{m}/{b}" for n in DATASETS for m, b in CASES}
                           | {f"{n}/{m}/{b}/{v}" for v in VARIANTS
                              for n, m, b in VARIANT_CASES})
    assert set(RESAMPLED) == {f"{n}/{m}/{b}" for n in DATASETS for m, b in CASES}


@pytest.mark.parametrize("key", sorted(RESAMPLED))
def test_resampled_digest_unchanged(key):
    name, method, base = key.split("/")
    assert resampled_digest(DATASETS[name](), method=method, base_learner=base) == RESAMPLED[key]


if __name__ == "__main__":
    for table in (compute_digests(), compute_resampled_digests()):
        for key, digest in table.items():
            print(f"    {json.dumps(key)}: {json.dumps(digest)},")
        print()
