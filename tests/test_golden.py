"""Golden output: the exit code and the sha256 of stdout of fixed in-process
`cli.main` runs, and for the refusals in refusal_runs the exit code and the
sha256 of stderr, where the error payload goes.  A change that claims
byte-identical output keeps every digest; one that changes output on
purpose updates the digest it names.

Regenerate the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from lowrank import GF, QQ, direct_product, matrix_algebra, quaternion_algebra, rank_one
from lowrank.cli import main
from lowrank.quadratic import QuadraticAlgebra


def _alg(alg, element=None):
    obj = alg.to_json()
    if element is not None:
        obj["element"] = element
    return json.dumps(obj)


# Perfbench-sized rationals: numerators up to 10^12, denominators up to 10^4.
B, C, Y, Z = (
    Fraction(-268219088287, 3781), Fraction(969577250759, 4645),
    Fraction(-98008559724, 1571), Fraction(609976923736, 9445),
)
N, M = Fraction(713732015429, 4081), Fraction(-106415615197, 800)
COMMUTATIVE = (B, C, 0, 0, Y, Z)
EXCEPTIONAL = (N, 0, M, N, 0, M)
# traces of rank-2 algebras; (T, N) has discriminant DISC
T, TT = Fraction(-354066153931, 7129), Fraction(427309516057, 2777)
DISC = T * T - 4 * N


def _q_table(values, images=None, element=None):
    """The table that `cubic build` prints for the six-tuple values over
    Q, written out for tuples that fail the relations too, with the
    images of an involution or an element when given."""
    b, c, m, n, y, z = values
    rows = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [-(c * z), b, c], [c * y, 0, 0]],
        [[0, 0, 1], [c * y - b * m, m, n], [-(b * y), y, z]],
    ]
    obj = {"ring": {"kind": "Q"}, "rank": 3,
           "table": [[[str(v) for v in cell] for cell in row] for row in rows]}
    if images is not None:
        obj["images"] = [[str(v) for v in im] for im in images]
    if element is not None:
        obj["element"] = [str(v) for v in element]
    return json.dumps(obj)


def _q_cubic(cmd, values):
    coeffs = json.dumps(dict(zip("bcmnyz", map(str, values))))
    return ["cubic", cmd, coeffs, "--ring", '{"kind": "Q"}']


def _q_quad(t, n):
    return {"t": str(t), "n": str(n)}


def _q_quad_pair(a, b):
    return ["quad", "iso", json.dumps({"ring": {"kind": "Q"}, "A": _q_quad(*a), "B": _q_quad(*b)})]


def _q_form_act(g, form):
    payload = {"g": [[str(v) for v in row] for row in g],
               "form": dict(zip("abcd", map(str, form)))}
    return ["form", "act", json.dumps(payload), "--ring", '{"kind": "Q"}']


def golden_runs():
    """(name, argv) for every pinned run."""
    m2 = matrix_algebra(QQ, 2)
    m3 = matrix_algebra(GF(7), 3)
    pair = direct_product(rank_one(QQ), rank_one(QQ))
    quad_line = direct_product(
        QuadraticAlgebra(QQ, Fraction(1, 2), 3).structure(), rank_one(QQ)
    )
    runs = []
    for p in (2, 3, 5, 7, 11, 13):
        for fmt in ("json", "table"):
            runs.append((f"census cubic {p} {fmt}",
                         ["census", "cubic", "--p", str(p), "--format", fmt]))
    for p in (2, 3, 5):
        runs.append((f"census exceptional {p}",
                     ["census", "exceptional", "--p", str(p)]))
    for p in (3, 5, 7, 11, 13):
        runs.append((f"census quad {p}", ["census", "quad", "--p", str(p)]))
    for n in (2, 3):
        for p in (2, 3, 5):
            runs.append((f"probe mn {n} {p}",
                         ["probe", "mn", "--n", str(n), "--p", str(p)]))
    runs += [
        ("inv find M2(Q)", ["inv", "find", _alg(m2)]),
        ("inv find Q x Q", ["inv", "find", _alg(pair)]),
        ("inv find Q[x] x Q", ["inv", "find", _alg(quad_line)]),
        ("quad disc Q",
         ["quad", "disc", '{"ring": {"kind": "Q"}, "t": "1/3", "n": "-2"}']),
        ("quad iso Q",
         ["quad", "iso", '{"ring": {"kind": "Q"}, "A": {"t": "1", "n": "-2"}, '
                         '"B": {"t": "0", "n": "-1"}}']),
        ("quad iso Z",
         ["quad", "iso", '{"ring": {"kind": "Z"}, "A": {"t": "1", "n": "-2"}, '
                         '"B": {"t": "3", "n": "0"}}']),
        ("quad split Q",
         ["quad", "split", '{"ring": {"kind": "Q"}, "t": "1", "n": "0"}']),
        ("alg charpoly M2(Q)",
         ["alg", "charpoly", _alg(m2, ["1/2", "-3", "2/3", "5"])]),
        ("alg charpoly Q[x] x Q",
         ["alg", "charpoly", _alg(quad_line, ["1/2", "-3", "2/3"])]),
        ("alg charpoly M3(F7)",
         ["alg", "charpoly",
          _alg(m3, ["3", "-1", "2", "0", "5", "1", "4", "6", "2"])]),
        ("cubic matrix-rep Z",
         ["cubic", "matrix-rep",
          '{"b": "2", "c": "-3", "m": "0", "n": "0", "y": "5", "z": "-1"}',
          "--ring", '{"kind": "Z"}']),
        ("cubic matrix-rep F7",
         ["cubic", "matrix-rep",
          '{"b": "10", "c": "0", "m": "-2", "n": "3", "y": "0", "z": "12"}',
          "--ring", '{"kind": "Fp", "p": 7}']),
        ("cubic witness Q",
         ["cubic", "witness",
          '{"b": "1/2", "c": "0", "m": "-3/4", "n": "1/2", "y": "0", "z": "-3/4"}',
          "--ring", '{"kind": "Q"}']),
        ("form act Q",
         ["form", "act",
          '{"g": [["1/2", "3"], ["2", "-1"]], '
          '"form": {"a": "1/3", "b": "-2", "c": "5/7", "d": "4"}}',
          "--ring", '{"kind": "Q"}']),
        ("alg assoc Q", ["alg", "assoc", _q_table(COMMUTATIVE)]),
        ("alg assoc Q fails at (2, 1, 2)",
         ["alg", "assoc", _q_table((N, 0, M, N, Y, M))]),
        ("inv verify Q standard",
         ["inv", "verify", _q_table(EXCEPTIONAL, [(1, 0, 0), (N, -1, 0), (M, 0, -1)])]),
        ("inv verify Q reversal fails",
         ["inv", "verify", _q_table(COMMUTATIVE, [(1, 0, 0), (B, -1, 0), (Z, 0, -1)])]),
        ("inv verify Q identity, witness 1+e",
         ["inv", "verify", json.dumps({
             "ring": {"kind": "Q"}, "rank": 2,
             "table": [[["1", "0"], ["0", "1"]], [["0", "1"], [str(M), "0"]]],
             "images": [["1", "0"], ["0", "1"]]})]),
        # Q x Q x Q in the basis 1, e_1, C e_2 with e_1 and e_2 swapped:
        # the image of e_1 has the off-unit coordinate 1/C
        ("inv verify Q swap, fractional images",
         ["inv", "verify", json.dumps({
             "ring": {"kind": "Q"}, "rank": 3,
             "table": [[[str(v) for v in cell] for cell in row] for row in (
                 ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                 ((0, 1, 0), (0, 1, 0), (0, 0, 0)),
                 ((0, 0, 1), (0, 0, 0), (0, 0, C)))],
             "images": [["1", "0", "0"], ["0", "0", str(1 / C)], ["0", str(C), "0"]]})]),
        ("inv find Q exceptional", ["inv", "find", _q_table(EXCEPTIONAL)]),
        ("inv find Q commutative", ["inv", "find", _q_table(COMMUTATIVE)]),
        ("cubic involution Q", _q_cubic("involution", EXCEPTIONAL)),
        ("cubic witness Q large", _q_cubic("witness", EXCEPTIONAL)),
        ("cubic matrix-rep Q commutative", _q_cubic("matrix-rep", COMMUTATIVE)),
        ("cubic matrix-rep Q exceptional", _q_cubic("matrix-rep", EXCEPTIONAL)),
        ("cubic verify Q", _q_cubic("verify", COMMUTATIVE)),
        ("cubic verify Q four violations", _q_cubic("verify", (N, C, M, N, Y, M))),
        ("cubic verify Q two violations", _q_cubic("verify", (N, 0, M, B, 0, M))),
        ("alg charpoly Q rank 3",
         ["alg", "charpoly", _q_table(COMMUTATIVE, element=(Y, M, C))]),
        ("alg charpoly Q rank 3 exceptional",
         ["alg", "charpoly", _q_table(EXCEPTIONAL, element=(B, 0, Z))]),
        ("alg charpoly Q rank 4",
         ["alg", "charpoly", _alg(quaternion_algebra(QQ, B, N), [str(v) for v in (C, M, Y, Z)])]),
        ("form act Q large, det not a unit square",
         _q_form_act([[B, C], [Y, Z]], (N, M, T, TT))),
        ("quad iso Q large, isomorphic",
         _q_quad_pair((T, N), (TT, (TT * TT - DISC * C * C) / 4))),
        ("quad iso Q large, not isomorphic", _q_quad_pair((T, N), (TT, M))),
        ("quad split Q, 10^4 denominators",
         ["quad", "split", '{"ring": {"kind": "Q"}, "t": "9973/9973", "n": "0/9973"}']),
        ("cubic witness Q large, m only", _q_cubic("witness", (0, 0, M, 0, 0, M))),
        ("cubic witness Q large, n only", _q_cubic("witness", (N, 0, 0, N, 0, 0))),
        ("form act F5",
         ["form", "act",
          '{"g": [["2", "1"], ["3", "3"]], '
          '"form": {"a": "1", "b": "7", "c": "-3", "d": "4"}}',
          "--ring", '{"kind": "Fp", "p": 5}']),
    ]
    return runs


def refusal_runs():
    """(name, argv) for every pinned refusal, whose stderr is hashed."""
    return [
        ("cubic involution Q four violations", _q_cubic("involution", (N, C, M, N, Y, M))),
        ("cubic matrix-rep Q two violations", _q_cubic("matrix-rep", (N, 0, M, B, 0, M))),
        ("cubic witness Q commutative", _q_cubic("witness", COMMUTATIVE)),
        ("form act Q singular", _q_form_act([[B, C], [B * Y, C * Y]], (N, M, T, TT))),
        ("quad split Q large",
         ["quad", "split", json.dumps({"ring": {"kind": "Q"}, **_q_quad(T, N)})]),
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_digest(argv):
    """The exit code and the sha256 of stdout."""
    code, out, _ = _run(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def refusal_digest(argv):
    """The exit code and the sha256 of stderr, for a run that prints
    nothing on stdout (AssertionError otherwise)."""
    code, out, err = _run(argv)
    assert out == ""
    return code, hashlib.sha256(err.encode()).hexdigest()


GOLDEN = {
    'census cubic 2 json': (0, 'a247726da5a0d5b4e981d1657684e51ea814ba472d333b2edc8428e835486da8'),
    'census cubic 2 table': (0, '96569627b73422ad285da72fcf0ea57dd97033c8f8a7e1d629f9d19d95d16161'),
    'census cubic 3 json': (0, 'd7040a588df3af9480a498cbec751b51ddfc0480905f78a5edf65218fbd1c1f7'),
    'census cubic 3 table': (0, '716e8b3bce113f02ffef23e3b3742cb069930f33e5538e889130a83b49febc1a'),
    'census cubic 5 json': (0, '2f5b6736e3cae0fb324ffeea828725b6eff996621cc849cd289fa01bf966d797'),
    'census cubic 5 table': (0, '8fcd962588ccfb882cc383620df21653661f1c9a292f220f468a14f299b55753'),
    'census cubic 7 json': (0, '8d24910ad6511ac138af30a6137d8d511ac8c79728462b4c9d7a3f27d973fa66'),
    'census cubic 7 table': (0, '70ecfefc1a493696a20a032ebbb7c22244bf2db416489985fed7d2e50c52ff97'),
    'census cubic 11 json': (0, '2cf10cd29eb6126a5b54c05992be2fd2cfff8fb29f78a3b8aa0808035b0c81fe'),
    'census cubic 11 table': (0, '5dca7e8919dadb4a3fd98b39322a8d76095253581e8b221b095126af2f915f34'),
    'census cubic 13 json': (0, '550d6cfbd48105840712b526cc37820f6c50e3a7c471a1de5069fd5b082e0949'),
    'census cubic 13 table': (0, 'fb211500b741b77fb915883be6165f2a66f01d7826a3ff971cc299be78eb5fb2'),
    'census exceptional 2': (0, '3abcf58f45bafaddb3855f1b547a7fef6893eb741135b68a7ba43d4ea66b13b1'),
    'census exceptional 3': (0, '52606085795ba4e059f10c2d7818be47010c26e2f4a93259b100cc1ce6f8bc1c'),
    'census exceptional 5': (0, '50d11483ff99b44310aadd5812905c214acd407fa1c4a8814d6ac1d03c1b2fc6'),
    'census quad 3': (0, 'ce48a24d89186da24408333e8462a7d813c938b0a299a9600ef9759eae1ca3c0'),
    'census quad 5': (0, '97961abbb94217c264d8c81b427fdcbb5b8e23e47c71dea6b2ea84aef658b992'),
    'census quad 7': (0, '1135350566bf87394b790ed55e5e66a9e6c7f0e43a4df58c079b8f1c4a8036be'),
    'census quad 11': (0, 'd5f7c3b8b8e7aff7e1d8839c905f81469d60f21317d0f27646666f889a1dab1a'),
    'census quad 13': (0, '9bcb4cc35768b321a299eb8a5276a516718418e8ca362d887f3bffe0507c29b0'),
    'probe mn 2 2': (0, 'd846e41cebdd03c83ddb05a90c1943496fd2794a5ba6ea6d9a3a64d356c55ebe'),
    'probe mn 2 3': (0, 'a33ccdeafb1f729e9512eeaba26f73512ffe2561aeee0af4de8c6d36af4c92bc'),
    'probe mn 2 5': (0, '45cd4d9931102adb81e1762dd442c6fe7e3ee479e228a093088cc7b1520d7ed7'),
    'probe mn 3 2': (0, '52e1801f9843b87560820af56b6ef49db34f0985cb85627ef62066155e19011c'),
    'probe mn 3 3': (0, 'c694edd4c81ceae40356f07b60221e2e10ffc9bbce275ab743571e11dff8ec1a'),
    'probe mn 3 5': (0, 'cb3b0eaa039dce323c355fd4e2d8ced9177a5f2cabf814c3b991c9389513fc5e'),
    'inv find M2(Q)': (0, '0607cc7f08be580edf959ce820334bfcdbe74d43d0d2723fd9c3f63984efd489'),
    'inv find Q x Q': (0, '14809514e895e0f2f48d3a5412d6096249a7dd930fd847fdb7f73f2af7706766'),
    'inv find Q[x] x Q': (0, 'a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e'),
    'quad disc Q': (0, '657f5d3f69d0942bee9122b7660347e0f772da28572b377c491f6b53358719ff'),
    'quad iso Q': (0, 'c26db3b588c1167afe3377b311f540c439af865def4a9800b954eca91ef2e24d'),
    'quad iso Z': (0, 'b43d4e126f0c254833657c860dd9fb6b8fce1c2c0e3332cc4edf609206f1c619'),
    'quad split Q': (0, 'd1f58fc64d87b9e4adba71e89fcc6b9b3809471e479b91e449a3c5cea275e846'),
    'alg charpoly M2(Q)': (0, 'bab678503951a5302760de8d1437084599fd6d7d7ab243f84ee4456fb2aad4f8'),
    'alg charpoly Q[x] x Q': (0, 'c744ec3e7f4dde9b5c24de4630d0f80a29257a62badaf55aaf30a0581a39712f'),
    'alg charpoly M3(F7)': (0, '449ad26ce14c81adbcd426b626923470568f11a9aae8186664e7306d32ea047f'),
    'cubic matrix-rep Z': (0, '2126cc3cc0a34899fc433480ac873a19aee1805d12bfbc522b7af3b5de9f1e85'),
    'cubic matrix-rep F7': (0, '6bb9ab7c66a4cedffeb1c2ddbe69f90ea9b078157267f79fe9dec49100439994'),
    'cubic witness Q': (0, 'd7f490c9f906469c33260ba1193bd9ad35c09545d26a91e908e4914fd825c86a'),
    'alg assoc Q': (0, 'e848ddb6bc7dfb66a5d32a0dd7fc957c64fb0d82997e18a1611a4aba69259195'),
    'alg assoc Q fails at (2, 1, 2)': (0, 'a90126e5f78bc5a6d2c96b25f16789de4798e06fbbd4044c209400b4336abaa6'),
    'inv verify Q standard': (0, '07f5020dab73b0ca3b633a9065e8eda80c9093b8e52724e194d9f0e4ca9d97ff'),
    'inv verify Q reversal fails': (0, '1c539e0e21e82aaefea588a2f4028ae5c49fc5e9624aca949a889f8fef9aa5c3'),
    'inv verify Q identity, witness 1+e': (0, '39d1437ec0bb78a3aa03054e0ce3dbad6f40befaa993b5c801b2e9679134aeed'),
    'inv verify Q swap, fractional images': (0, '839c593e36349ecffa92a986c51f1e20647c99c2f8ed9feb8e33d4336d8e3df1'),
    'inv find Q exceptional': (0, 'f29853c11f2b304d8d8cbd308b4a81619627fc6b6dcd62f80c4f46fc50a96310'),
    'inv find Q commutative': (0, 'a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e'),
    'cubic involution Q': (0, '49cbc20794ea4712ba6c0387df69c0da4dac8da1686996541d358d4f7a21aca9'),
    'cubic witness Q large': (0, 'c11caf4999b43e90f52585fdb5f5143e2084399dcc6a23aae30534b79b20a7d6'),
    'cubic matrix-rep Q commutative': (0, '51a77145527a5d70ba240ffe57c49d33d35552f3c2ac881b52e790b69ed01115'),
    'cubic matrix-rep Q exceptional': (0, 'ac2213eefa417f67e3bfc9548a6cabfe4c4b8f14274d04758ad6c5e9253ddb49'),
    'cubic verify Q': (0, 'e5c3db1b09338069753ed6c3196c0a3bdc46b05e20982cee21740d9c4834137c'),
    'cubic verify Q four violations': (0, 'd8803cf2ae6b6433b30cde537765839632a1429f026bdcdae372099d8864dcb2'),
    'cubic verify Q two violations': (0, 'cbc8998144e19fb426325c143eb20e7cde356ac6380717a00232340ebda23ebe'),
    'form act Q': (0, 'e52f96ee2b7528720050348599d8c991a2fceda69ada15c6b35920c14f66e2eb'),
    'alg charpoly Q rank 3': (0, '121be5e16d6827f80561bdadb2ecf8fc2ee5108e448cd4ef4db5cc6090854e25'),
    'alg charpoly Q rank 3 exceptional': (0, 'cfb300771bf4b53ac4a04de6aaf572614e69e22b3c2dc1186259cc62b2646c45'),
    'alg charpoly Q rank 4': (0, 'e593e3cb6b17fed853d565d9c5572d0c54622953de791779984f233f119b5802'),
    'form act Q large, det not a unit square': (0, 'aabb878a1024249b5e9ef5d33307ec7a86d7e5eea9067074cd5d167a2597b6f3'),
    'quad iso Q large, isomorphic': (0, '2e50a5501c3451ce4e48129af81f72315f4b55e9595b6d1c176d567802110ddc'),
    'quad iso Q large, not isomorphic': (0, '57665c534b9538778777d76fcd142ab16cee908a6e2936491108dbf9bffed54b'),
    'quad split Q, 10^4 denominators': (0, 'd1f58fc64d87b9e4adba71e89fcc6b9b3809471e479b91e449a3c5cea275e846'),
    'cubic witness Q large, m only': (0, '2cef1f71b23b8a10260bc16cb3d26664ffdf9ab2f5267279b6c1d6dc5d166b83'),
    'cubic witness Q large, n only': (0, '53a358b2b74b3dede845d2efd785628b0f403b71d353f853a6410758071c0a0b'),
    'form act F5': (0, '042829fb08d196ad8a5e3a2a7ddc240648d951d42f412fabc498e8e8ad6e6c00'),
}


GOLDEN_STDERR = {
    'cubic involution Q four violations': (1, '9a6bfe6e2abb2fe788f9d16c44f53025c0ce9e916a82a3b3df1d6182889adad4'),
    'cubic matrix-rep Q two violations': (1, '0dc1119745ebe883e04be6b23480bc5a3c882f3459b176fe75023fb41c1fe463'),
    'cubic witness Q commutative': (1, '35d19e95fbc30479c30baa907154890008311ef0fe745c6777a32cfea0c80e2c'),
    'form act Q singular': (1, '54d8250958d8204f8e3ab13e267e4755015504d8981d31d62480b489e7caf20d'),
    'quad split Q large': (1, 'b853c3bb2d7842541fecf96d113503846f7a0feeb7178598fa57d6d1e524cbf7'),
}


RUNS = golden_runs()
REFUSALS = refusal_runs()


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_golden_stdout(name, argv):
    assert run_digest(argv) == GOLDEN[name]


@pytest.mark.parametrize("name,argv", REFUSALS, ids=[name for name, _ in REFUSALS])
def test_golden_refusal_stderr(name, argv):
    assert refusal_digest(argv) == GOLDEN_STDERR[name]


def test_golden_table_names_every_run_once():
    for runs, table in ((RUNS, GOLDEN), (REFUSALS, GOLDEN_STDERR)):
        names = [name for name, _ in runs]
        duplicated = sorted({name for name in names if names.count(name) > 1})
        assert duplicated == []
        assert sorted(set(names) - set(table)) == []
        assert sorted(set(table) - set(names)) == []


if __name__ == "__main__":
    for runs, digest in ((RUNS, run_digest), (REFUSALS, refusal_digest)):
        for name, argv in runs:
            print(f"    {name!r}: {digest(argv)!r},")
        print()
