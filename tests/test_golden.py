"""Golden bytes: certificate dumps, rendered relation polynomials and CLI runs.

The dump and render digests below were taken from the tuple-monomial
arithmetic that the packed monomials replaced.  Every dump_certificate text
of a generic run without early stop (n+m <= 7, every target) and every
render() of the relation polynomials relation_poly(n, m, k) (n+m <= 7)
must still hash to them, so any change to the arithmetic or to the text
form that moves an output byte fails here.  The CLI digest was taken from
the two separate generic and concrete pipelines that the shared one
replaced; its cases run in one process, so they also share one parser.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from nilcert import ProblemInstance, dump_certificate, extract_certificate, grow_digraph
from nilcert.certificates import relation_poly
from nilcert.cli import main

# (n, m, i0) -> sha256 of dump_certificate(...) for generic (n, m), target i0.
DUMP_SHA256 = {
    (1, 0, 1): "503d10b0083f7a882aca0ee9a93865ee3ec009b0af74d420ae1f88a153c84795",
    (1, 1, 1): "113fd219f636410e36d72554405f494e7b6563ca1c80170364ee929f2de7adfc",
    (1, 2, 1): "d83befdbebe7c554111ea6632af4970b0cac598547648f75cb2c99b1e55cdef1",
    (1, 3, 1): "b446e99cef5ab190bfe7cbdd1f4161b01d195b715237477380aa9c87a9e013b6",
    (1, 4, 1): "a2062a2c7f0987b810435daaa8ea23cb4e120b889638bc7058d74479314942f8",
    (1, 5, 1): "a54d08d24c41d4c7907d0225639db8458cb2aa352150c08d705e39434fb1007a",
    (1, 6, 1): "64e27ad27ee214c9fa035068328647da077256d8776df1b5659e39b0e682d887",
    (2, 0, 1): "e52b2de05033d1d49bee7d08b55c8b5372a04cdf24814807b903f5dd4bf58a64",
    (2, 0, 2): "28507783f5c4a3b6e9582e09794ca8e201a18f4526193a766d2c68b2d05dda1c",
    (2, 1, 1): "25f69e75183d99217d2ad18c235fe7bd3aa1c18c4a1a995171b1da14cc660ba9",
    (2, 1, 2): "d07905020b17f51059c439de1416d35ada0c4a3e383908ac6beeb2aff7bac58d",
    (2, 2, 1): "c224f0f19df6fcbcb379e31844ebef62a3dd9a401b4641e4c7bcaab29614730a",
    (2, 2, 2): "44a1556f25590b12d123053dca0b61c4a289b4bf4bb322afc27598474836f917",
    (2, 3, 1): "2d7974e02c99a191b92c32c381ad0af157d04034f6e44ecbf5712899480c9cfe",
    (2, 3, 2): "8285e14a787db43cb33ef924c393785a793da374d278c130c013590f12b5ce3e",
    (2, 4, 1): "3e57e91c77923e532531474b68662e3474717cb7de11de6b2678804b2b674805",
    (2, 4, 2): "e8915cd79ad3f4c79c3e719f86286e090bde13b21afe20515ff7e5eefff84c99",
    (2, 5, 1): "ee564144ad93b6635bfee7df8cf34fbc1c934fd00669603b8b916597928c34bf",
    (2, 5, 2): "97216aa15239c4ffa247d847d1aeca7f7525e417c23a7678c027691f0355067a",
    (3, 0, 1): "535346da033fdbad286c16b0ee7a52d99f22c59bf80999993c55d563178782ff",
    (3, 0, 2): "82219e00c65b87c55c1279e954c5e3768af67a2b4060da56d118943a3c50ff3e",
    (3, 0, 3): "3cf3961b038a4ddf119a0745ca9b8e469d8b28c7b425ca22ab91b61cc8b13c39",
    (3, 1, 1): "644fcd4252f6cd19bd68b771500adfcaeb98c2b4775789f9f055e2852e74314f",
    (3, 1, 2): "7e72c65a6c0538871d0e3d2c874b2a08e68c9a236705b00213930d1b9d276950",
    (3, 1, 3): "80abdeee53b8bd66eac4c85979d80c867c4e4ea836de94a98106cc8dd410a269",
    (3, 2, 1): "0e8a688fcedd7900556d8f549bf8e8bc70b0106a28c87c4f11c8b1140c0f5176",
    (3, 2, 2): "6c53af6508e4f8b661108e2d030368492fa8400b05b51e782c221248a941fbd1",
    (3, 2, 3): "cd592124766d27747ff24e5cf5ff038a5fe3132861fd89bd541970124108db42",
    (3, 3, 1): "107d8521c655a5aa60085fc8cdddb30a2d5943a42476253fe565498cb808d8dc",
    (3, 3, 2): "85eb5b9231db96e2a959e8d1691ef2d29c02441039139f03de05b6382a607605",
    (3, 3, 3): "51eda66f887f2448f5dac4bf7bda29f8486bf85097467456a7e86832ca0bb218",
    (3, 4, 1): "0d4280af9602808ec04dce8e230139d12234e8bf50136b783287e1182c061f0c",
    (3, 4, 2): "27e0f05eb5b716dcb151d13cfdd596d4dc6964a43872d050862950bec0af2acd",
    (3, 4, 3): "f21c95174d0162bc6eddc11df68c55e6be08cea7db9fc4b59911cf606491c6bb",
    (4, 0, 1): "f818e512e5eacb7f6ed2d0271cf00f85f8e222603d2c040ea3a47f05c752f68a",
    (4, 0, 2): "331397b32eaaa4abb84dcbc8094d02be34b246c70eee03d95b81f79fef213084",
    (4, 0, 3): "77b780b1ec599d858c374ab70b54416ba1f623f17eee8d2c9551e2365d513d74",
    (4, 0, 4): "97fb7492658262f541688f8f65184cdcc871992834442ef834397d8e399cbd34",
    (4, 1, 1): "b83e378b49946a3d2edd484a08c945ad1d10a5792a4bc809e895d7b5d2e4199e",
    (4, 1, 2): "1b6542bb776795fd3765c159e601bfb9176a6bb0b33d426652ee87fface658c3",
    (4, 1, 3): "d80435acd96b14f6395d43a3c31a274a0a023649d46c0126420e67853bc52267",
    (4, 1, 4): "ba35c6aa0d4a00f044bc1b281f398fedd38a04a6b92e19e7526e2c30f6b781e9",
    (4, 2, 1): "eb8c165767ae4d06d8ed2bb6a07ddca772852bd2c4194801dc174985a8073004",
    (4, 2, 2): "f152945d2528576cb193fc3d5c60c5600b924e78d943823d41381c57d0808740",
    (4, 2, 3): "90f8aaaaceb09f4abe51c40350e7c2d96d668c942c1cf8befaa5ea587a3b7985",
    (4, 2, 4): "5d564788920a2be18c06d145c23b6b821037a8c25ae966cf4ad62c9f2bf7bfda",
    (4, 3, 1): "63e5c66963ea987ba4694f33d2782dad06fc160bd00ab3c76fa882435c697cc5",
    (4, 3, 2): "439f9cb18e7b30629f191716e1a85531a0c08a6bc7b6c2dad0ef986342aec957",
    (4, 3, 3): "48f672bd6445f3df2ed9c9351a94558b88a89a0c83722ef1c4f6b485dbb5a07f",
    (4, 3, 4): "967c15e5ab5e6fd27d7a4ad83a4d44c73649d92c1dd9387b71e00d2b4d372b9c",
    (5, 0, 1): "89487e72d20a1d3ceb8e56056bbd46f5324d01f0cc5cb68349091321f13cc5f1",
    (5, 0, 2): "bf385bfb6356692fdb6959517ed958e421a4c9d070202979a0542d17a05265c9",
    (5, 0, 3): "56823439c25131d295e24c6444f644648722fbe611146a22041873684c7c7de6",
    (5, 0, 4): "089dde72c17836455b1994a7904b23ff25d7b27de0bf56f8666635b2cc0480f8",
    (5, 0, 5): "cf71c2b9ff3a9f9b41daad5295033c59f80b58e73f54f89177bc669f4012e9c7",
    (5, 1, 1): "c9b892bc75e27d7fdfcd6b31263b1ac0be6eabbc5c21a998ff474d647e9a16c0",
    (5, 1, 2): "9430f162c2ba6a0be562c12508465c86ea7ee466e1a27da162a74c12a4b73969",
    (5, 1, 3): "1963f3c313c3d97ed7323f9a0df065624fa05f421f3305b3451deead8a2e5548",
    (5, 1, 4): "dce42839de778614ffe0f924cd1a4cdd2bb1f7501cc413ebdef0f2aca99cf787",
    (5, 1, 5): "4a211a6ee9d59418e8108f17e6fec062ef7ddc7c6f0b7926c5550bef45e03d58",
    (5, 2, 1): "2fa33a1a6ded2d360f9c91c65fc30c5c7dda0e1c869f17cf6d27280daad1bd7e",
    (5, 2, 2): "9f3f721d15edd3d021882a7f75f822d3a0d0da06f59e504855c91ae442134d9b",
    (5, 2, 3): "3917d1a12d90f57b07a9f7e67cbef2def4e037ce8d3a86365d43d32db61f63eb",
    (5, 2, 4): "8381597b7e94a65c8977242138370880dbdf9c565d943c8e1a02bd545e4eed4a",
    (5, 2, 5): "94a258e5b454df5728dcf3fe541a1240bfd040a40be0153f68517bb7baef822f",
    (6, 0, 1): "dceeaa584b4f22366f50476b20da9e3c134351d65c01def3e2400a1366118564",
    (6, 0, 2): "09dd2787262b5a0cee34cd3f1e9b2f131a0ac6acec2ff21cb3fbdb17a6e284d7",
    (6, 0, 3): "4f5de40cd7772d0c001e60c2d5cc4633e1b5aa9541a156ccadfce432bbb899f2",
    (6, 0, 4): "6dcd5beae99a52c18b33be333c1a3cf7cf20a4682ee9354f728558dcf9d5bbff",
    (6, 0, 5): "4e682964dc1a8d9c8f7a939ce43237e4d29f8ff77ff17e2b4f0e094d4f70eab6",
    (6, 0, 6): "d9353b2a2baf1cf75365231a3b9019f627b258510030c056acfe95467066ce32",
    (6, 1, 1): "9a92199de68ab45d2284a0c178f69af0f3f9ebf971d9261366333d9ae1d94072",
    (6, 1, 2): "a4180fb913af63592b756d1850925dbabb1cac13c246af15031c345bc3c6563d",
    (6, 1, 3): "1f348eb4eb596d4c2b72e874557f3d22b7300fa7a3d1c78df4645b1834bf1515",
    (6, 1, 4): "725bf357b2b4d2a8ecc001377c3aa6efacfc1810ef623d3ab697ee8d02bcfe21",
    (6, 1, 5): "88c8ed867c457da9c90ec67d19ba440d9f8b9e9b19d10372b5d942855aac45aa",
    (6, 1, 6): "fcf3de4a8e22cd62a94a2e18382db702c2a6ae9a553957977b9d3c20bb872d03",
    (7, 0, 1): "eca716b5986cd452b2cf312b0668afad7a0e803cb86685af80633fecf97b947a",
    (7, 0, 2): "09215f08c1ff82b362afb7a0758c24f144731a93025faeb734d787efd7e90dd3",
    (7, 0, 3): "7e503cc2f4eb5a30a77814135755d955baba4e804596078f9b3241b15d709070",
    (7, 0, 4): "61238feb71b01b9c4ac86acb7481a43969362930b4e6cc21166d2e16857bf316",
    (7, 0, 5): "798630f4798f411176fffd177ff2c6c37951a9fa0f05b7d10791da1dabc95317",
    (7, 0, 6): "053938fa2cf8cde579ecca6cb07644fbc065197202ba2e680a786b6856a50b85",
    (7, 0, 7): "6548ff99a9285b7ec74d900cf08d25f1767de6bacd30dc3986e8a2e683972bee",
}

# (n, m) -> sha256 of the renders of c_0..c_{n+m}, joined by newlines.
RENDER_SHA256 = {
    (1, 0): "7a9e752cb66b3a34bb6fc4fa414881faa9801768972d6af8b221b44fbac69968",
    (1, 1): "d5875a8602389d7ca957484741874d75e5e96b608e92f892563ce68cb8ce6a2b",
    (1, 2): "44415a465a1b20e144c12cbd8927bda13249278eca86c3d13fadfa9c769c5cd7",
    (1, 3): "9463721f438b591324ff3f40ecb9f15808988bab307f5487e4be38d9741c51cf",
    (1, 4): "97ea09c6a36ff9b8688f5a77ab9291e5e4a192e7b4dc3009bbe5d71b999b796a",
    (1, 5): "3b987a34ad52c4928658e9a2095c04ed0c8721428918da86c4aa067c62e859fe",
    (1, 6): "b066e5aa12ce687a6e1ecf7d1b48e6886b3bdb94dcb3c5933855f588a9674573",
    (2, 0): "2bd581e3a6d6ae04bfb20f78c9fde2061db8627a96c16d9247c9049b84d3b332",
    (2, 1): "0cec711792791894a18e2d6009d8f3440ccb933d43b801ec9a3d978ff919b4f4",
    (2, 2): "56d23d9f5febb3bff21a2e61b6bbe5907aafdc8165e23593adfcc40db5bbe6e0",
    (2, 3): "c9e10ebb9c822b4042340934ef3cd151f9190fa4b958b0ab287862082620d8ff",
    (2, 4): "3b7f638adfd49a7d53027e84ed588a70b2c6ca9ce3b2728110f4b360256001a3",
    (2, 5): "d06bc2f2b43b0ac0095abdd89bc237857da7a9458cfb890e0682a88876442ee0",
    (3, 0): "31350658869c8a54911446e415fb2650709d00fa2a1e597e43548c0a62d336e8",
    (3, 1): "bbadf3561c28bc30c4724e8953c612aaac9834d8dbc67e64b14d9c1812535ba7",
    (3, 2): "0212bdd5bf2cc2d229026cab0bba35f050dd3064d20a297f42b0b1ccc182689d",
    (3, 3): "c6e09ef983fd0d83747d31d31224bfb7d3246e0466da08998977b5c75d34c791",
    (3, 4): "049debded776779cc00e8e8b23f9585ac1f77e9e5b1f96a66dca2b9642c6ca74",
    (4, 0): "9e30fb63d5987139de67731b4fb83f9a0f541aa07716a55a40a9047deb6c495f",
    (4, 1): "7082deb97b0018eb3571a8b9a4aabb9ac1a08791f8112ca354723521ae42b3e8",
    (4, 2): "68a55d42f41a7dd6d6198aaabffd48f8240af8230cb6be1d733f27dee99dba65",
    (4, 3): "798f6f182dc7181a1ffff9b43af70c7f7196f1645ee067d6b7e4f486191a9062",
    (5, 0): "ec36c800d93bc9a32d41b7c8914cb19d2697628f5dadcc5f101c6c2e3e6c6610",
    (5, 1): "6518bfd5ea5ffff351572f6f72b8150bc65931c29f424017d12a499613364c99",
    (5, 2): "131c761dd2cdc92b49dc159cdb25b680b29dca53b8dec8a3897e48180e787394",
    (6, 0): "eb7ad100b1fe12075b6f758e5291a2f0630bb762e72763cd3d0f71f1056ac56d",
    (6, 1): "609b1e674858941bc2f2df132ce583cd8664c35a3e14f09f02b2f4c5a8f91bc6",
    (7, 0): "aa108c1a7fb8c46fc9e509882ae5f78d3cde6e7c490a8c620642dc214c344327",
}

SIZES = sorted(RENDER_SHA256)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_is_complete():
    assert SIZES == sorted((n, m) for n in range(1, 8) for m in range(8 - n))
    assert sorted(DUMP_SHA256) == [(n, m, i0) for n, m in SIZES for i0 in range(1, n + 1)]


@pytest.mark.parametrize("n, m", SIZES, ids=[f"{n}x{m}" for n, m in SIZES])
def test_dumps_match_golden_bytes(n, m):
    digraph = grow_digraph(ProblemInstance.generic(n, m))
    for i0 in range(1, n + 1):
        assert sha256(dump_certificate(extract_certificate(digraph, i0))) == DUMP_SHA256[n, m, i0], (n, m, i0)


@pytest.mark.parametrize("n, m", SIZES, ids=[f"{n}x{m}" for n, m in SIZES])
def test_relation_renders_match_golden_bytes(n, m):
    assert sha256("\n".join(relation_poly(n, m, k).render() for k in range(n + m + 1))) == RENDER_SHA256[n, m]


# sha256 over the CLI grid below: exit code, stdout, stderr and every
# emitted file of each case, with the case's directory written as "{tmp}".
CLI_GRID_SHA256 = "a5c12db08df605a1e8a9408ad713de240daf7f6f19e89880a96a227786da4cab"


def cli_grid() -> list[list[str]]:
    """Every generic (n, m) with n+m <= 6, with all targets and with each
    single target, plain and --early-stop, emitting DOT and dumps; then
    concrete, ln, pascal and usage-error runs.  "{tmp}" is a fresh
    directory per case."""
    cases = []
    for n in range(1, 7):
        for m in range(7 - n):
            for target in [None, *range(1, n + 1)]:
                for early_stop in (False, True):
                    argv = ["generic", "--n", str(n), "--m", str(m)]
                    argv += [] if target is None else ["--target", str(target)]
                    argv += ["--early-stop"] if early_stop else []
                    cases.append(argv + ["--emit-dot", "{tmp}/d.dot", "--emit-cert", "{tmp}/c.json"])
    worked = ["concrete", "--modulus", "8", "--f", "1,2,4", "--g", "1,6"]
    cases += [
        ["concrete", "--modulus", "8", "--f", "9,-6,4", "--g", "1,14", "--minimal", "--emit-dot", "{tmp}/d.dot"],
        [*worked, "--minimal", "--early-stop", "--emit-dot", "{tmp}/d.dot"],
        ["concrete", "--modulus", "8", "--f", "1,1", "--g", "1,1"],
        [*worked, "--target", "5"],
        ["ln", "--modulus", "12", "--ideal", "12"],
        ["pascal", "--n", "7", "--m", "5"],
        ["generic", "--n", "0", "--m", "1"],
        ["generic", "--n", "2"],
    ]
    return cases


def test_cli_grid_matches_golden_bytes(tmp_path):
    cases = cli_grid()
    assert len(cases) == 162
    digest = hashlib.sha256()
    for index, case in enumerate(cases):
        workdir = tmp_path / str(index)
        workdir.mkdir()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace("{tmp}", str(workdir)) for arg in case])
        files = [[path.name, path.read_text(encoding="utf-8")] for path in sorted(workdir.iterdir())]
        record = [case, code, out.getvalue(), err.getvalue(), files]
        digest.update(json.dumps(record).replace(str(workdir), "{tmp}").encode() + b"\n")
    assert digest.hexdigest() == CLI_GRID_SHA256
