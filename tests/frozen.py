"""Frozen expected values the implementation must reproduce exactly.

REFERENCE_N6 is the full multiplicity table of the level-1 distribution
for the even word of length 6 (42 entries, total mass 64), keyed by
(a, b).  REFERENCE_N6_PUSHED is its image under ((a-b)^2, a) (26 cells).
MU2, MU3 and MU5 are hand-expanded small cases of the operator recursion.
"""

REFERENCE_N6 = {
    (0, 0): 1,
    (1, 0): 1, (1, 1): 1, (1, 2): 1,
    (2, 1): 1, (2, 2): 2, (2, 3): 1,
    (3, 2): 2, (3, 3): 3, (3, 4): 2,
    (4, 2): 1, (4, 3): 2, (4, 4): 3, (4, 5): 2, (4, 6): 1,
    (5, 3): 1, (5, 4): 3, (5, 5): 3, (5, 6): 3, (5, 7): 1,
    (6, 4): 1, (6, 5): 2, (6, 6): 3, (6, 7): 2, (6, 8): 1,
    (7, 5): 1, (7, 6): 2, (7, 7): 2, (7, 8): 2, (7, 9): 1,
    (8, 6): 1, (8, 7): 1, (8, 8): 1, (8, 9): 1, (8, 10): 1,
    (9, 6): 1, (9, 7): 1, (9, 8): 1, (9, 9): 1, (9, 10): 1, (9, 11): 1, (9, 12): 1,
}

REFERENCE_N6_PUSHED = {
    (0, 0): 1,
    (0, 1): 1, (1, 1): 2,
    (0, 2): 2, (1, 2): 2,
    (0, 3): 3, (1, 3): 4,
    (0, 4): 3, (1, 4): 4, (4, 4): 2,
    (0, 5): 3, (1, 5): 6, (4, 5): 2,
    (0, 6): 3, (1, 6): 4, (4, 6): 2,
    (0, 7): 2, (1, 7): 4, (4, 7): 2,
    (0, 8): 1, (1, 8): 2, (4, 8): 2,
    (0, 9): 1, (1, 9): 2, (4, 9): 2, (9, 9): 2,
}

MU2 = {(0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1}

MU3 = {
    (0, 0): 1, (1, 0): 1, (1, 1): 1, (1, 2): 1,
    (2, 1): 1, (2, 2): 1, (3, 2): 1, (4, 2): 1,
}

# by delta string (fixed a - b): d=0 and d=1 have profile 1,1,2,2,2,1,1;
# d=-1 and d=2 are flat; d=-2 and d=3 are single cells
MU5 = {
    **{(a, a): c for a, c in zip(range(0, 7), (1, 1, 2, 2, 2, 1, 1))},
    **{(a, a - 1): c for a, c in zip(range(1, 8), (1, 1, 2, 2, 2, 1, 1))},
    **{(a, a + 1): 1 for a in range(1, 6)},
    **{(a, a - 2): 1 for a in range(4, 9)},
    (4, 6): 1,
    (9, 6): 1,
}

# A hand-built signed measure: negative coordinates, negative masses and
# interior zeros (column d = 0 is empty at a = 1..3 and a = 6).
SIGNED = {
    (-3, -1): 4, (-3, 2): -2, (0, 0): 7, (1, -2): 5, (2, -4): 3,
    (2, 5): -1, (4, 4): 2, (5, 5): 9, (7, 7): -6,
}

# A nonnegative measure whose canonical layout is padding in its first and
# last slot: the top column d = 2 starts at a = 1 > 0, the bottom column
# d = -1 ends at a = 2 < 3, and column d = 0 is empty at a = 1, 2.
PADDED_ENDS = {(0, 0): 1, (1, -1): 3, (2, 3): 4, (3, 3): 2}

# sha256 of the UTF-8 text of each read path, recorded with the per-point
# implementation of the read paths.  The README goldens only cover
# N = 6; these pin large, multi-digit, multi-level and signed outputs.
READ_PATH_SHA256 = {
    "level1_24": {
        "csv": "925d8c5eb7e9e664e16e2970a578c46f668342d33c451f30bfe062e0213a77c2",
        "json": "8013efe04d210002a9a96ced923d75d64c7f7f1ed760940f4c39524ac125fb98",
        "heatmap": "f2f019f97fedcb4d366e8dbb0216cdb9d2bfe6ee57eb563cdc47b243e3740c86",
        "histogram": "aa2e4b1ac1f4464c622988b0bf674f3ae1cff61bd04feba38f7976fb626dad62",
    },
    "hw21_word9_first1": {
        "csv": "090963ab95d89c618c685f0054e29099c40a1d2493b45773589046da90717224",
        "json": "b2bd569f1624c4a063a849d3f3aa12bb1db6022a9565e0559057467a506f6d40",
        "heatmap": "199678879f8bbff4f991f5fd0bdd3a1604ea46ce200313a5f97aa9f937dab3ec",
        "histogram": "a275497acf0d61c2a0f4074b54bab58c0fd2c285c88a5105fd44e404b020fd15",
    },
    # hw = (1, 2), JSON under the word (3, 0)
    "signed": {
        "csv": "86951f7821f2f2118e5ab6f028cb98a0f12800e712f734b34adbb780cf4de5a6",
        "json": "acbb46d96441033c357aabfe1801c09f9fe8c12e6f1e5e5e3f749f23f1c1860c",
    },
}

# sha256 of the output of each README command (stdout, or the --out file),
# recorded at 64c4260; every one of them exits 0.
README_COMMAND_SHA256 = {
    "dist --m 1 --n 0 --N 6 --first 0": "ecfd873035f0e2016eaab7310b234891a5083a192d7f8faae39e1a4b1ce0e239",
    "dist --m 1 --n 0 --N 6 --format json --out mu6.json": "8fcafdf42e1e2110e1d888fd78b7469e584820982d9b9914ad259069af91c8cb",
    "verify --suite all --max-N 20": "e4f004886d04aacb611b9b53272a63bb4eafbc5e4b27fa686ea02632ac743d9c",
    # README "Reproducing" item 3 (800 checks), recorded at 5a41706
    "verify --suite all --max-N 40": "957796d839cdf23bb90ddf25f493caed19e4f3172c556de304e1bf167a1ade20",
    "verify --suite sanderson --max-N 40": "4e0833d21ce06557784008af1be0c72ea784067e1cda6d72f2afb95aca4f061d",
    "wlln --m 1 --n 0 --N-list 10,20,30,40": "038b806de4ca5c607f68594c76e6e997a948ceba27638b1002e9ddef6f212310",
    "conjecture --m 2 --N-list 2,4,6,8,10": "5217db58a8e42e984b8809a6eb2ea8ed004db1e74e44f2d2d84c66c16229ad3b",
    # README "Reproducing" item 5, recorded at 9013550
    "conjecture --m 3": "1b873ac20f671a126aac8c7c1bd0c8e97107099dccecb379b850cd9e5a8563f2",
    "conjecture --m 4": "4cb8e2922a3c4e79172dff7dd7f2c1d2dfa63d2ce6eb7413e03dd0c3c6c30990",
    "render --m 1 --n 0 --N 6 --out heatmap.svg": "285a7b5b554913e2da936b816e221351bfb3446ee464647f27ea0ce351b47d50",
    "render --m 1 --n 0 --N 6 --kind histogram --out hist.svg": "052dc540cfd8fd16aa1548043266f6d696988f53f4460c0be0db65b74e3cbb90",
    "render --m 1 --n 0 --N 6 --kind ellipse --out ellipse.svg": "2d1144e6388f8e7edd62eb2dd772321e3731e5d751a9539f4b288bbbf1d5f729",
}

# sha256 of the check lines of run_suite("conjecture", 10), one line each as
# format_check prints them, recorded at a107ef4 (30 lines at N = 2..10).
CONJECTURE_SUITE_SHA256 = "51888db462a18fc30583c60b91dfbc14a64a623196068f703622f55e950f7e2a"
