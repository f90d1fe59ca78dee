"""The PolyBenchC suite (all 23 kernels of the paper's Fig. 1/3a).

Each kernel is a faithful mcc port of the corresponding PolyBenchC
benchmark: the same loop nests over the same arrays, with PolyBench's
deterministic initialization formulas.  Each program prints a checksum of
its output arrays so the harness can byte-compare results across every
pipeline.  As in the paper, these kernels perform no system calls during
the timed region — that is exactly why the original WebAssembly paper
could evaluate them without an in-browser kernel.

Sizes are scaled down from PolyBench's (the simulated machine runs at
~10^5.5 instructions/second, not 10^9), but the loop structure — and
therefore the generated-code comparison — is unchanged.
"""

from __future__ import annotations

from ..harness.spec import BenchmarkSpec

#: (test size, ref size) per kernel; roughly matched dynamic work at ref.
_SIZES = {
    "2mm": (6, 12), "3mm": (6, 11), "adi": (8, 18), "bicg": (16, 56),
    "cholesky": (8, 20), "correlation": (8, 16), "covariance": (8, 17),
    "doitgen": (4, 8), "durbin": (10, 44), "fdtd-2d": (6, 14),
    "gemm": (6, 14), "gemver": (12, 40), "gesummv": (16, 56),
    "gramschmidt": (7, 15), "lu": (8, 20), "ludcmp": (8, 19),
    "mvt": (14, 48), "seidel-2d": (8, 20), "symm": (7, 15),
    "syr2k": (6, 13), "syrk": (7, 16), "trisolv": (16, 64),
    "trmm": (7, 16),
}


def _prologue(n: int, arrays: str) -> str:
    return f"#define N {n}\n{arrays}\n"


_CHECK = r"""
void check2(double *a, int rows, int cols) {
    double s = 0.0;
    int i;
    for (i = 0; i < rows * cols; i++) {
        s = s + a[i];
        if (i % 7 == 0) { s = s * 0.5; }
    }
    print_f64(s);
}

void check1(double *a, int n) {
    check2(a, n, 1);
}
"""


def _body(name: str, n: int) -> str:
    """The init + kernel + main source for one PolyBench kernel."""
    builder = _KERNELS[name]
    return builder(n) + _CHECK


# -- kernel sources ------------------------------------------------------------

def _k_gemm(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double C[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)N;
            B[i][j] = (double)((i * j + 2) % N) / (double)N;
            C[i][j] = (double)((i * j + 3) % N) / (double)N;
        }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++) {
        for (j = 0; j < N; j++)
            C[i][j] = C[i][j] * beta;
        for (k = 0; k < N; k++)
            for (j = 0; j < N; j++)
                C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)C, N, N);
    return 0;
}
"""


def _k_2mm(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double C[N][N]; double D[N][N];
double tmp[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)N;
            B[i][j] = (double)(i * (j + 1) % N) / (double)N;
            C[i][j] = (double)((i * (j + 3) + 1) % N) / (double)N;
            D[i][j] = (double)(i * (j + 2) % N) / (double)N;
        }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            tmp[i][j] = 0.0;
            for (k = 0; k < N; k++)
                tmp[i][j] = tmp[i][j] + alpha * A[i][k] * B[k][j];
        }
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            D[i][j] = D[i][j] * beta;
            for (k = 0; k < N; k++)
                D[i][j] = D[i][j] + tmp[i][k] * C[k][j];
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)D, N, N);
    return 0;
}
"""


def _k_3mm(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double C[N][N]; double D[N][N];
double E[N][N]; double F[N][N]; double G[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)(5 * N);
            B[i][j] = (double)((i * (j + 1) + 2) % N) / (double)(5 * N);
            C[i][j] = (double)(i * (j + 3) % N) / (double)(5 * N);
            D[i][j] = (double)((i * (j + 2) + 2) % N) / (double)(5 * N);
        }
}

void kernel(void) {
    int i; int j; int k;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            E[i][j] = 0.0;
            for (k = 0; k < N; k++)
                E[i][j] = E[i][j] + A[i][k] * B[k][j];
        }
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            F[i][j] = 0.0;
            for (k = 0; k < N; k++)
                F[i][j] = F[i][j] + C[i][k] * D[k][j];
        }
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            G[i][j] = 0.0;
            for (k = 0; k < N; k++)
                G[i][j] = G[i][j] + E[i][k] * F[k][j];
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)G, N, N);
    return 0;
}
"""


def _k_adi(n):
    return _prologue(n, """
double u[N][N]; double v[N][N]; double p[N][N]; double q[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            u[i][j] = (double)(i + N - j) / (double)N;
}

void kernel(void) {
    int t; int i; int j;
    double DX = 1.0 / (double)N;
    double DT = 1.0;
    double B1 = 2.0;
    double mul1 = B1 * DT / (DX * DX);
    double a = -mul1 / 2.0;
    double b = 1.0 + mul1;
    double c = a;
    for (t = 1; t <= 2; t++) {
        // Column sweep.
        for (i = 1; i < N - 1; i++) {
            v[0][i] = 1.0;
            p[i][0] = 0.0;
            q[i][0] = v[0][i];
            for (j = 1; j < N - 1; j++) {
                p[i][j] = -c / (a * p[i][j - 1] + b);
                q[i][j] = (-a * u[j][i - 1] + (1.0 + 2.0 * a) * u[j][i]
                           - c * u[j][i + 1] - a * q[i][j - 1])
                          / (a * p[i][j - 1] + b);
            }
            v[N - 1][i] = 1.0;
            for (j = N - 2; j >= 1; j--)
                v[j][i] = p[i][j] * v[j + 1][i] + q[i][j];
        }
        // Row sweep.
        for (i = 1; i < N - 1; i++) {
            u[i][0] = 1.0;
            p[i][0] = 0.0;
            q[i][0] = u[i][0];
            for (j = 1; j < N - 1; j++) {
                p[i][j] = -c / (a * p[i][j - 1] + b);
                q[i][j] = (-a * v[i - 1][j] + (1.0 + 2.0 * a) * v[i][j]
                           - c * v[i + 1][j] - a * q[i][j - 1])
                          / (a * p[i][j - 1] + b);
            }
            u[i][N - 1] = 1.0;
            for (j = N - 2; j >= 1; j--)
                u[i][j] = p[i][j] * u[i][j + 1] + q[i][j];
        }
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)u, N, N);
    return 0;
}
"""


def _k_bicg(n):
    return _prologue(n, """
double A[N][N]; double s[N]; double q[N]; double p[N]; double r[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        p[i] = (double)(i % N) / (double)N;
        r[i] = (double)(i % N) / (double)N;
        for (j = 0; j < N; j++)
            A[i][j] = (double)(i * (j + 1) % N) / (double)N;
    }
}

void kernel(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        s[i] = 0.0;
    for (i = 0; i < N; i++) {
        q[i] = 0.0;
        for (j = 0; j < N; j++) {
            s[j] = s[j] + r[i] * A[i][j];
            q[i] = q[i] + A[i][j] * p[j];
        }
    }
}

int main(void) {
    init();
    kernel();
    check1(s, N);
    check1(q, N);
    return 0;
}
"""


def _k_cholesky(n):
    return _prologue(n, """
double A[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            A[i][j] = (double)(-(j % N)) / (double)N + 1.0;
        for (j = i + 1; j < N; j++)
            A[i][j] = 0.0;
        A[i][i] = 1.0;
    }
    // Make positive semi-definite: A = B * B^T.
    int k;
    double B[N][N];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            B[i][j] = 0.0;
    for (i = 0; i < N; i++)
        for (k = 0; k < N; k++)
            for (j = 0; j < N; j++)
                B[i][j] = B[i][j] + A[i][k] * A[j][k];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i][j] = B[i][j];
}

void kernel(void) {
    int i; int j; int k;
    for (i = 0; i < N; i++) {
        for (j = 0; j < i; j++) {
            for (k = 0; k < j; k++)
                A[i][j] = A[i][j] - A[i][k] * A[j][k];
            A[i][j] = A[i][j] / A[j][j];
        }
        for (k = 0; k < i; k++)
            A[i][i] = A[i][i] - A[i][k] * A[i][k];
        A[i][i] = sqrt(A[i][i]);
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)A, N, N);
    return 0;
}
"""


def _k_correlation(n):
    return _prologue(n, """
double data[N][N]; double corr[N][N]; double mean_[N]; double stddev[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            data[i][j] = (double)(i * j) / (double)N + (double)i;
}

void kernel(void) {
    int i; int j; int k;
    double float_n = (double)N;
    double eps = 0.1;
    for (j = 0; j < N; j++) {
        mean_[j] = 0.0;
        for (i = 0; i < N; i++)
            mean_[j] = mean_[j] + data[i][j];
        mean_[j] = mean_[j] / float_n;
    }
    for (j = 0; j < N; j++) {
        stddev[j] = 0.0;
        for (i = 0; i < N; i++)
            stddev[j] = stddev[j]
                + (data[i][j] - mean_[j]) * (data[i][j] - mean_[j]);
        stddev[j] = sqrt(stddev[j] / float_n);
        if (stddev[j] <= eps) { stddev[j] = 1.0; }
    }
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            data[i][j] = (data[i][j] - mean_[j])
                / (sqrt(float_n) * stddev[j]);
    for (i = 0; i < N - 1; i++) {
        corr[i][i] = 1.0;
        for (j = i + 1; j < N; j++) {
            corr[i][j] = 0.0;
            for (k = 0; k < N; k++)
                corr[i][j] = corr[i][j] + data[k][i] * data[k][j];
            corr[j][i] = corr[i][j];
        }
    }
    corr[N - 1][N - 1] = 1.0;
}

int main(void) {
    init();
    kernel();
    check2((double *)corr, N, N);
    return 0;
}
"""


def _k_covariance(n):
    return _prologue(n, """
double data[N][N]; double cov[N][N]; double mean_[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            data[i][j] = (double)(i * j) / (double)N;
}

void kernel(void) {
    int i; int j; int k;
    double float_n = (double)N;
    for (j = 0; j < N; j++) {
        mean_[j] = 0.0;
        for (i = 0; i < N; i++)
            mean_[j] = mean_[j] + data[i][j];
        mean_[j] = mean_[j] / float_n;
    }
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            data[i][j] = data[i][j] - mean_[j];
    for (i = 0; i < N; i++)
        for (j = i; j < N; j++) {
            cov[i][j] = 0.0;
            for (k = 0; k < N; k++)
                cov[i][j] = cov[i][j] + data[k][i] * data[k][j];
            cov[i][j] = cov[i][j] / (float_n - 1.0);
            cov[j][i] = cov[i][j];
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)cov, N, N);
    return 0;
}
"""


def _k_doitgen(n):
    return _prologue(n, """
double A[N][N][N]; double sum[N]; double C4[N][N];
""") + r"""
void init(void) {
    int r; int q; int p;
    for (r = 0; r < N; r++)
        for (q = 0; q < N; q++)
            for (p = 0; p < N; p++)
                A[r][q][p] = (double)((r * q + p) % N) / (double)N;
    for (r = 0; r < N; r++)
        for (q = 0; q < N; q++)
            C4[r][q] = (double)(r * q % N) / (double)N;
}

void kernel(void) {
    int r; int q; int p; int s;
    for (r = 0; r < N; r++)
        for (q = 0; q < N; q++) {
            for (p = 0; p < N; p++) {
                sum[p] = 0.0;
                for (s = 0; s < N; s++)
                    sum[p] = sum[p] + A[r][q][s] * C4[s][p];
            }
            for (p = 0; p < N; p++)
                A[r][q][p] = sum[p];
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)A, N * N, N);
    return 0;
}
"""


def _k_durbin(n):
    return _prologue(n, """
double r[N]; double y[N]; double z[N];
""") + r"""
void init(void) {
    int i;
    for (i = 0; i < N; i++)
        r[i] = (double)(N + 1 - i);
}

void kernel(void) {
    int i; int k;
    double alpha = -r[0];
    double beta = 1.0;
    double sum;
    y[0] = -r[0];
    for (k = 1; k < N; k++) {
        beta = (1.0 - alpha * alpha) * beta;
        sum = 0.0;
        for (i = 0; i < k; i++)
            sum = sum + r[k - i - 1] * y[i];
        alpha = -(r[k] + sum) / beta;
        for (i = 0; i < k; i++)
            z[i] = y[i] + alpha * y[k - i - 1];
        for (i = 0; i < k; i++)
            y[i] = z[i];
        y[k] = alpha;
    }
}

int main(void) {
    init();
    kernel();
    check1(y, N);
    return 0;
}
"""


def _k_fdtd2d(n):
    return _prologue(n, """
double ex[N][N]; double ey[N][N]; double hz[N][N]; double fict[8];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < 8; i++)
        fict[i] = (double)i;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            ex[i][j] = (double)(i * (j + 1)) / (double)N;
            ey[i][j] = (double)(i * (j + 2)) / (double)N;
            hz[i][j] = (double)(i * (j + 3)) / (double)N;
        }
}

void kernel(void) {
    int t; int i; int j;
    for (t = 0; t < 4; t++) {
        for (j = 0; j < N; j++)
            ey[0][j] = fict[t];
        for (i = 1; i < N; i++)
            for (j = 0; j < N; j++)
                ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[i - 1][j]);
        for (i = 0; i < N; i++)
            for (j = 1; j < N; j++)
                ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j - 1]);
        for (i = 0; i < N - 1; i++)
            for (j = 0; j < N - 1; j++)
                hz[i][j] = hz[i][j] - 0.7 * (ex[i][j + 1] - ex[i][j]
                                             + ey[i + 1][j] - ey[i][j]);
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)hz, N, N);
    return 0;
}
"""


def _k_gemver(n):
    return _prologue(n, """
double A[N][N]; double u1[N]; double v1[N]; double u2[N]; double v2[N];
double w[N]; double x[N]; double y[N]; double z[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        u1[i] = (double)i;
        u2[i] = (double)((i + 1) % N) / (double)N / 2.0;
        v1[i] = (double)((i + 1) % N) / (double)N / 4.0;
        v2[i] = (double)((i + 1) % N) / (double)N / 6.0;
        y[i] = (double)((i + 1) % N) / (double)N / 8.0;
        z[i] = (double)((i + 1) % N) / (double)N / 9.0;
        x[i] = 0.0;
        w[i] = 0.0;
        for (j = 0; j < N; j++)
            A[i][j] = (double)(i * j % N) / (double)N;
    }
}

void kernel(void) {
    int i; int j;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            x[i] = x[i] + beta * A[j][i] * y[j];
    for (i = 0; i < N; i++)
        x[i] = x[i] + z[i];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            w[i] = w[i] + alpha * A[i][j] * x[j];
}

int main(void) {
    init();
    kernel();
    check1(w, N);
    return 0;
}
"""


def _k_gesummv(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double tmp[N]; double x[N]; double y[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        x[i] = (double)(i % N) / (double)N;
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)N;
            B[i][j] = (double)((i * j + 2) % N) / (double)N;
        }
    }
}

void kernel(void) {
    int i; int j;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++) {
        tmp[i] = 0.0;
        y[i] = 0.0;
        for (j = 0; j < N; j++) {
            tmp[i] = A[i][j] * x[j] + tmp[i];
            y[i] = B[i][j] * x[j] + y[i];
        }
        y[i] = alpha * tmp[i] + beta * y[i];
    }
}

int main(void) {
    init();
    kernel();
    check1(y, N);
    return 0;
}
"""


def _k_gramschmidt(n):
    return _prologue(n, """
double A[N][N]; double R[N][N]; double Q[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = ((double)((i * j) % N) / (double)N) * 100.0 + 10.0;
            Q[i][j] = 0.0;
            R[i][j] = 0.0;
        }
}

void kernel(void) {
    int i; int j; int k;
    double nrm;
    for (k = 0; k < N; k++) {
        nrm = 0.0;
        for (i = 0; i < N; i++)
            nrm = nrm + A[i][k] * A[i][k];
        R[k][k] = sqrt(nrm);
        for (i = 0; i < N; i++)
            Q[i][k] = A[i][k] / R[k][k];
        for (j = k + 1; j < N; j++) {
            R[k][j] = 0.0;
            for (i = 0; i < N; i++)
                R[k][j] = R[k][j] + Q[i][k] * A[i][j];
            for (i = 0; i < N; i++)
                A[i][j] = A[i][j] - Q[i][k] * R[k][j];
        }
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)R, N, N);
    check2((double *)Q, N, N);
    return 0;
}
"""


def _k_lu(n):
    return _prologue(n, """
double A[N][N];
""") + r"""
void init(void) {
    int i; int j; int k;
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            A[i][j] = (double)(-(j % N)) / (double)N + 1.0;
        for (j = i + 1; j < N; j++)
            A[i][j] = 0.0;
        A[i][i] = 1.0;
    }
    double B[N][N];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            B[i][j] = 0.0;
    for (i = 0; i < N; i++)
        for (k = 0; k < N; k++)
            for (j = 0; j < N; j++)
                B[i][j] = B[i][j] + A[i][k] * A[j][k];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i][j] = B[i][j];
}

void kernel(void) {
    int i; int j; int k;
    for (i = 0; i < N; i++) {
        for (j = 0; j < i; j++) {
            for (k = 0; k < j; k++)
                A[i][j] = A[i][j] - A[i][k] * A[k][j];
            A[i][j] = A[i][j] / A[j][j];
        }
        for (j = i; j < N; j++)
            for (k = 0; k < i; k++)
                A[i][j] = A[i][j] - A[i][k] * A[k][j];
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)A, N, N);
    return 0;
}
"""


def _k_ludcmp(n):
    return _prologue(n, """
double A[N][N]; double b[N]; double x[N]; double y[N];
""") + r"""
void init(void) {
    int i; int j; int k;
    double fn = (double)N;
    for (i = 0; i < N; i++) {
        x[i] = 0.0;
        y[i] = 0.0;
        b[i] = (double)(i + 1) / fn / 2.0 + 4.0;
    }
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            A[i][j] = (double)(-(j % N)) / fn + 1.0;
        for (j = i + 1; j < N; j++)
            A[i][j] = 0.0;
        A[i][i] = 1.0;
    }
    double B[N][N];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            B[i][j] = 0.0;
    for (i = 0; i < N; i++)
        for (k = 0; k < N; k++)
            for (j = 0; j < N; j++)
                B[i][j] = B[i][j] + A[i][k] * A[j][k];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i][j] = B[i][j];
}

void kernel(void) {
    int i; int j; int k;
    double w;
    for (i = 0; i < N; i++) {
        for (j = 0; j < i; j++) {
            w = A[i][j];
            for (k = 0; k < j; k++)
                w = w - A[i][k] * A[k][j];
            A[i][j] = w / A[j][j];
        }
        for (j = i; j < N; j++) {
            w = A[i][j];
            for (k = 0; k < i; k++)
                w = w - A[i][k] * A[k][j];
            A[i][j] = w;
        }
    }
    for (i = 0; i < N; i++) {
        w = b[i];
        for (j = 0; j < i; j++)
            w = w - A[i][j] * y[j];
        y[i] = w;
    }
    for (i = N - 1; i >= 0; i--) {
        w = y[i];
        for (j = i + 1; j < N; j++)
            w = w - A[i][j] * x[j];
        x[i] = w / A[i][i];
    }
}

int main(void) {
    init();
    kernel();
    check1(x, N);
    return 0;
}
"""


def _k_mvt(n):
    return _prologue(n, """
double A[N][N]; double x1[N]; double x2[N]; double y1[N]; double y2[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        x1[i] = (double)(i % N) / (double)N;
        x2[i] = (double)((i + 1) % N) / (double)N;
        y1[i] = (double)((i + 3) % N) / (double)N;
        y2[i] = (double)((i + 4) % N) / (double)N;
        for (j = 0; j < N; j++)
            A[i][j] = (double)(i * j % N) / (double)N;
    }
}

void kernel(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            x1[i] = x1[i] + A[i][j] * y1[j];
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            x2[i] = x2[i] + A[j][i] * y2[j];
}

int main(void) {
    init();
    kernel();
    check1(x1, N);
    check1(x2, N);
    return 0;
}
"""


def _k_seidel2d(n):
    return _prologue(n, """
double A[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
            A[i][j] = ((double)i * (double)(j + 2) + 2.0) / (double)N;
}

void kernel(void) {
    int t; int i; int j;
    for (t = 0; t < 3; t++)
        for (i = 1; i < N - 1; i++)
            for (j = 1; j < N - 1; j++)
                A[i][j] = (A[i - 1][j - 1] + A[i - 1][j] + A[i - 1][j + 1]
                           + A[i][j - 1] + A[i][j] + A[i][j + 1]
                           + A[i + 1][j - 1] + A[i + 1][j]
                           + A[i + 1][j + 1]) / 9.0;
}

int main(void) {
    init();
    kernel();
    check2((double *)A, N, N);
    return 0;
}
"""


def _k_symm(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double C[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            C[i][j] = (double)((i + j) % 100) / (double)N;
            B[i][j] = (double)((N + i - j) % 100) / (double)N;
        }
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            A[i][j] = (double)((i + j) % 100) / (double)N;
        for (j = i + 1; j < N; j++)
            A[i][j] = -999.0;
    }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    double beta = 1.2;
    double temp2;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            temp2 = 0.0;
            for (k = 0; k < i; k++) {
                C[k][j] = C[k][j] + alpha * B[i][j] * A[i][k];
                temp2 = temp2 + B[k][j] * A[i][k];
            }
            C[i][j] = beta * C[i][j] + alpha * B[i][j] * A[i][i]
                      + alpha * temp2;
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)C, N, N);
    return 0;
}
"""


def _k_syr2k(n):
    return _prologue(n, """
double A[N][N]; double B[N][N]; double C[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)N;
            B[i][j] = (double)((i * j + 2) % N) / (double)N;
            C[i][j] = (double)((i * j + 3) % N) / (double)N;
        }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            C[i][j] = C[i][j] * beta;
        for (k = 0; k < N; k++)
            for (j = 0; j <= i; j++)
                C[i][j] = C[i][j] + A[j][k] * alpha * B[i][k]
                          + B[j][k] * alpha * A[i][k];
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)C, N, N);
    return 0;
}
"""


def _k_syrk(n):
    return _prologue(n, """
double A[N][N]; double C[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            A[i][j] = (double)((i * j + 1) % N) / (double)N;
            C[i][j] = (double)((i * j + 2) % N) / (double)N;
        }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    double beta = 1.2;
    for (i = 0; i < N; i++) {
        for (j = 0; j <= i; j++)
            C[i][j] = C[i][j] * beta;
        for (k = 0; k < N; k++)
            for (j = 0; j <= i; j++)
                C[i][j] = C[i][j] + alpha * A[i][k] * A[j][k];
    }
}

int main(void) {
    init();
    kernel();
    check2((double *)C, N, N);
    return 0;
}
"""


def _k_trisolv(n):
    return _prologue(n, """
double L[N][N]; double x[N]; double b[N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        x[i] = -999.0;
        b[i] = (double)i;
        for (j = 0; j <= i; j++)
            L[i][j] = (double)(i + N - j + 1) * 2.0 / (double)N;
    }
}

void kernel(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        x[i] = b[i];
        for (j = 0; j < i; j++)
            x[i] = x[i] - L[i][j] * x[j];
        x[i] = x[i] / L[i][i];
    }
}

int main(void) {
    init();
    kernel();
    check1(x, N);
    return 0;
}
"""


def _k_trmm(n):
    return _prologue(n, """
double A[N][N]; double B[N][N];
""") + r"""
void init(void) {
    int i; int j;
    for (i = 0; i < N; i++) {
        for (j = 0; j < i; j++)
            A[i][j] = (double)((i + j) % N) / (double)N;
        A[i][i] = 1.0;
        for (j = 0; j < N; j++)
            B[i][j] = (double)((N + i - j) % N) / (double)N;
    }
}

void kernel(void) {
    int i; int j; int k;
    double alpha = 1.5;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++) {
            for (k = i + 1; k < N; k++)
                B[i][j] = B[i][j] + A[k][i] * B[k][j];
            B[i][j] = alpha * B[i][j];
        }
}

int main(void) {
    init();
    kernel();
    check2((double *)B, N, N);
    return 0;
}
"""


_KERNELS = {
    "2mm": _k_2mm, "3mm": _k_3mm, "adi": _k_adi, "bicg": _k_bicg,
    "cholesky": _k_cholesky, "correlation": _k_correlation,
    "covariance": _k_covariance, "doitgen": _k_doitgen,
    "durbin": _k_durbin, "fdtd-2d": _k_fdtd2d, "gemm": _k_gemm,
    "gemver": _k_gemver, "gesummv": _k_gesummv,
    "gramschmidt": _k_gramschmidt, "lu": _k_lu, "ludcmp": _k_ludcmp,
    "mvt": _k_mvt, "seidel-2d": _k_seidel2d, "symm": _k_symm,
    "syr2k": _k_syr2k, "syrk": _k_syrk, "trisolv": _k_trisolv,
    "trmm": _k_trmm,
}

#: All PolyBenchC kernel names (paper Fig. 3a order).
POLYBENCH_NAMES = sorted(_KERNELS)


def polybench_spec(name: str, size: str = "ref") -> BenchmarkSpec:
    """Build the BenchmarkSpec for one PolyBench kernel."""
    test_n, ref_n = _SIZES[name]
    n = test_n if size == "test" else ref_n
    return BenchmarkSpec(name, "polybench", _body(name, n),
                         description=f"PolyBenchC {name} (N={n})",
                         size=size)
