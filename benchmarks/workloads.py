"""The benchmark's workloads: inputs made from a seed, set-up work and
the timed ops.

Each workload builds its inputs with `random.Random` seeded from the
workload name and `--seed`, does any set-up work in `prepare`, and runs
its ops in `run`.  An op is one `xjac.cli.main(argv)` call or, in
dh-extract, one scalar multiplication followed by an extract.  `small`
shrinks every input for the benchmark's self-test.
"""

from __future__ import annotations

import hashlib
import os
import random

DEFAULT_SEED = 0

P_DH = 1000003  # prime, 3 mod 4: square roots are one exponentiation


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"xjac-bench:{name}:{seed}")


def _fstr(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def random_quintic(rng: random.Random, K) -> list[int]:
    """Monic squarefree quintic over the field K, as element encodings c0..c5."""
    from xjac.poly import Poly

    while True:
        coeffs = [rng.randrange(K.q) for _ in range(5)] + [1]
        if Poly(K, coeffs).is_squarefree():
            return coeffs


def isomorphic_quintic(rng: random.Random, p: int, n: int = 1) -> str:
    """A seeded curve in a fixed isomorphism class over F_{p^n}.

    The class is that of a random quintic f fixed by (p, n) alone; the seed
    picks t != 0 and s and gives t^-10 f(t^2 x + s), the image of f under
    x -> t^2 x + s, y -> t^5 y.  Isomorphic curves have the same Jacobian,
    so every seed enumerates, tallies and caches the same number of
    classes while its reports differ.  The field is built apart from the
    one the CLI builds, so the timed calls still start cold."""
    from xjac.field import FiniteField
    from xjac.poly import raw_add, raw_mul, raw_scale

    K = FiniteField(p, n)
    base = random_quintic(random.Random(f"xjac-bench:base:{p}:{n}"), K)
    t, s = rng.randrange(1, K.q), rng.randrange(K.q)
    line = [s, K.mul(t, t)]
    f: list[int] = []
    for c in reversed(base):
        f = raw_add(K, raw_mul(K, f, line), [c] if c else [])
    return _fstr(raw_scale(K, f, K.inv(K.pow(t, 10))))


def sweep_c(rng: random.Random, p: int) -> int:
    """c for the sweep template x^5 + c x + 1 over F_p, p = 1 mod 5, in a
    fixed isomorphism class: x -> t^2 x, y -> t^5 y with t^10 = 1 maps c to
    c t^2, so c is the smallest admissible c0 times a seeded fifth root of
    unity.  c0 makes the discriminant 5^5 + 4^4 c0^5 nonzero."""
    c0 = next(c for c in range(2, p) if (3125 + 256 * pow(c, 5, p)) % p)
    return c0 * pow(rng.randrange(1, p), (p - 1) // 5, p) % p


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool, workdir: str):
        self.rng = _rng(self.name, seed)
        self.small = small
        self.workdir = workdir

    def cache_dir(self, tag: str) -> str:
        return os.path.join(self.workdir, f"cache-{tag}")

    def prepare(self, rep) -> None:
        """xjac work that belongs to set-up, not to the timed part."""

    def run(self, rep) -> None:
        raise NotImplementedError

    def kernels(self) -> dict[str, float]:
        """Microbenchmarks of the kernels this workload's backend uses."""
        return {}


class ExactSweep(Workload):
    name = "exact-sweep"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        primes = (11, 31) if small else (41, 61, 71)
        self.ext_field = (5, 2) if small else (3, 4)
        self.jac_field = (3, 2) if small else (7, 2)
        self.primes = ",".join(map(str, primes))
        self.cs = ",".join(str(sweep_c(self.rng, p)) for p in primes)
        self.ext_f = isomorphic_quintic(self.rng, *self.ext_field)
        self.jac_f = isomorphic_quintic(self.rng, *self.jac_field)

    def run(self, rep):
        rep.cli_op(
            "sweep",
            [
                "sweep", "--p", self.primes, "--c", self.cs, "--f", "1,c,0,0,0,1",
                "--extractor", "sum,prod,sk,pk", "--k", "1",
                "--cache-dir", self.cache_dir("sweep"), "--format", "json",
            ],
        )
        p, n = self.ext_field
        rep.cli_op(
            "extract-sd",
            [
                "extract-sd", "--p", str(p), "--n", str(n), "--f", self.ext_f,
                "--extractor", "sum", "--k", "2",
                "--cache-dir", self.cache_dir("extract"), "--format", "json",
            ],
        )
        p, n = self.jac_field
        rep.cli_op(
            "jacobian",
            [
                "jacobian", "--p", str(p), "--n", str(n), "--f", self.jac_f,
                "--cache-dir", self.cache_dir("jacobian"), "--format", "json",
            ],
        )


class McWarm(Workload):
    name = "mc-warm"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        self.prime = 13 if small else 67
        self.ext_field = (3, 2) if small else (3, 4)
        self.samples = 2000 if small else 40000
        self.prime_f = isomorphic_quintic(self.rng, self.prime)
        self.ext_f = isomorphic_quintic(self.rng, *self.ext_field)
        self.seeds = [self.rng.randrange(2**32) for _ in range(3)]

    def _curve_args(self, which: str) -> list[str]:
        if which == "prime":
            return ["--p", str(self.prime), "--f", self.prime_f]
        p, n = self.ext_field
        return ["--p", str(p), "--n", str(n), "--f", self.ext_f]

    def prepare(self, rep):
        for which in ("prime", "ext"):
            rep.setup_cli(["jacobian", *self._curve_args(which), "--cache-dir", self.cache_dir("warm")])

    def run(self, rep):
        cache = ["--cache-dir", self.cache_dir("warm"), "--format", "json"]
        rep.cli_op("jacobian", ["jacobian", *self._curve_args("prime"), *cache])
        cells = (("prime", "sum", 1), ("prime", "pk", 3 if self.small else 4), ("ext", "prod", 2))
        for (which, kind, k), seed in zip(cells, self.seeds):
            rep.cli_op(
                f"extract-sd-mc-{kind}",
                [
                    "extract-sd", *self._curve_args(which), "--extractor", kind,
                    "--k", str(k), "--mode", "montecarlo",
                    "--samples", str(self.samples), "--seed", str(seed), *cache,
                ],
                samples=self.samples,
            )


class DhExtract(Workload):
    name = "dh-extract"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        from xjac.field import FiniteField

        rng, p = self.rng, P_DH
        self.f = random_quintic(rng, FiniteField(p))
        (x1, y1), (x2, y2) = self._two_points()
        # [u, v] through the two points: u = (x - x1)(x - x2), v the line
        slope = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
        self.G_u = [x1 * x2 % p, -(x1 + x2) % p, 1]
        self.G_v = [(y1 - slope * x1) % p, slope]
        exchanges = 3 if small else 250
        self.scalars = [
            (rng.randrange(1, p * p), rng.randrange(1, p * p)) for _ in range(exchanges)
        ]

    def _two_points(self):
        rng, p, f = self.rng, P_DH, self.f
        pts: list[tuple[int, int]] = []
        while len(pts) < 2:
            x = rng.randrange(p)
            r = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
            if r == 0 or pow(r, (p - 1) // 2, p) != 1 or any(x == q for q, _ in pts):
                continue
            pts.append((x, pow(r, (p + 1) // 4, p)))
        return pts

    def prepare(self, rep):
        from xjac.curve import HyperellipticCurve, MumfordDivisor
        from xjac.field import finite_field
        from xjac.poly import Poly

        K = finite_field(P_DH)
        self.curve = HyperellipticCurve(K, _fstr(self.f))
        self.G = MumfordDivisor(Poly(K, self.G_u), Poly(K, self.G_v))
        if not self.curve.is_valid_divisor(self.G):
            raise RuntimeError("generated base divisor is not on the curve")

    def run(self, rep):
        from xjac import extractors
        from xjac.extractors import ExtractorKind

        curve, SK = self.curve, ExtractorKind.SK
        digest = hashlib.sha256()

        def op(D, m):
            R = curve.scalar_mul(D, m)
            return R, extractors.extract(curve, R, SK, 4)

        self.shared = []
        for a, b in self.scalars:
            outs = [rep.dh_op(op, self.G, a), rep.dh_op(op, self.G, b)]
            if None in outs:
                continue
            outs.append(rep.dh_op(op, outs[1][0], a))
            outs.append(rep.dh_op(op, outs[0][0], b))
            for out in outs:
                if out is not None:
                    R, bits = out
                    digest.update(f"{R.u.coeffs}|{R.v.coeffs}|{bits}\n".encode())
            if None in outs[2:]:
                continue
            if outs[2] != outs[3]:
                rep.fail_ops(2, f"DH sides disagree for a={a}, b={b}")
            self.shared.append(outs[2][0])
        rep.group_digest("dh-outputs", digest.hexdigest())

    def kernels(self):
        from kernels import dh_kernels

        return dh_kernels(self.curve, self.G, self.shared, self.rng)


class Charsum(Workload):
    name = "charsum"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        n_w = 3 if small else 7
        self.basis = ",".join(map(str, sorted(self.rng.sample(range(n_w), 2 if small else 3))))
        if small:
            self.runs = [
                ("interval", ["--p", "13"]),
                ("mordell", ["--p", "5"]),
                ("orthogonality", ["--p", "3", "--n", "2"]),
                ("winterhof", ["--p", "3", "--n", "3", "--basis", self.basis]),
            ]
        else:
            self.runs = [
                ("interval", ["--p", "127", "--budget", "100000000"]),
                ("mordell", ["--p", "19"]),
                ("orthogonality", ["--p", "3", "--n", "5"]),
                ("winterhof", ["--p", "3", "--n", "7", "--basis", self.basis, "--budget", "1000000000"]),
            ]

    def run(self, rep):
        for mode, args in self.runs:
            rep.cli_op(f"charsum-{mode}", ["charsum", "--mode", mode, *args, "--format", "json"])

    def kernels(self):
        from kernels import field_kernels

        table = (3, 2) if self.small else (3, 5)
        return field_kernels(table, (3, 7), self.rng)


WORKLOADS = {w.name: w for w in (ExactSweep, McWarm, DhExtract, Charsum)}
