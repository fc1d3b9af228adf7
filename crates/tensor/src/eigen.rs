//! Symmetric eigendecomposition: Householder tridiagonalization followed
//! by implicit-shift QL with eigenvector accumulation.
//!
//! K-FAC inverts its Kronecker factors through their eigendecompositions
//! (Eq. 2 of the paper). [`sym_eig`] takes the classical dense route
//! (EISPACK `tred2` + `tql2`, the one LAPACK's `syev` takes): Householder
//! reflections reduce the matrix to tridiagonal form and accumulate the
//! orthogonal basis, then implicitly shifted QL sweeps diagonalize the
//! tridiagonal, applying each plane rotation to the basis. The whole
//! solve costs a small constant times `n³` flops, where cyclic Jacobi
//! pays about that per sweep and needs several sweeps. Computation runs
//! in `f64` internally and is returned as `f32` to match the rest of
//! the stack.
//!
//! Layout: the solver works on the transpose `W = Vᵀ` of EISPACK's
//! transformation matrix `V`, so each `O(n³)` inner loop (the Householder
//! updates, the back-accumulation, and every QL rotation) walks
//! contiguous rows rather than strided columns. Eigenvector `j` ends as
//! row `j` of `W`. Beside `W` the solver keeps two length-`n` vectors.
//!
//! Determinism: every loop runs sequentially in a fixed order and the
//! solver never dispatches to rayon, so its output bits do not depend on
//! the worker count.
//!
//! Any input returns: QL iterations per eigenvalue are capped (at
//! EISPACK's 30) and the final sort uses `f64::total_cmp`, so a NaN or
//! infinite entry yields non-finite values instead of a hang or a panic.

use crate::matrix::Matrix;

/// The result of a symmetric eigendecomposition `A = Q diag(λ) Qᵀ`.
#[derive(Clone, Debug)]
pub struct EigenDecomposition {
    /// Eigenvalues in descending order.
    pub values: Vec<f32>,
    /// Orthonormal eigenvectors; column `j` corresponds to `values[j]`.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstructs `Q diag(λ) Qᵀ` — used by tests to validate the factorization.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        // scaled[:, j] *= λ_j
        for i in 0..n {
            for j in 0..n {
                let v = scaled.get(i, j) * self.values[j];
                scaled.set(i, j, v);
            }
        }
        scaled.matmul_t(&self.vectors)
    }

    /// Applies `f` to each eigenvalue and reconstructs — the spectral
    /// function machinery K-FAC uses for `(A + γI)^{-1}` and friends.
    pub fn map_spectrum(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mapped = EigenDecomposition {
            values: self.values.iter().map(|&v| f(v)).collect(),
            vectors: self.vectors.clone(),
        };
        mapped.reconstruct()
    }
}

/// QL iterations allowed per eigenvalue (EISPACK's limit). Finite input
/// converges in two or three; the cap only bites on non-finite input,
/// where the convergence test can never become true.
const MAX_QL_ITERS: usize = 30;

/// Symmetric eigendecomposition (Householder tridiagonalization plus
/// implicit-shift QL), eigenvalues in descending order.
///
/// # Panics
/// If the matrix is not square. Asymmetry beyond f32 round-off should be
/// removed with [`Matrix::symmetrize`] first; the routine symmetrizes its
/// internal copy regardless.
pub fn sym_eig(m: &Matrix) -> EigenDecomposition {
    assert_eq!(m.rows(), m.cols(), "sym_eig needs a square matrix");
    let n = m.rows();
    if n == 0 {
        return EigenDecomposition {
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
        };
    }

    // Work in f64: W = (M + Mᵀ)/2, which is its own transpose.
    let src = m.as_slice();
    let mut w = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            w[i * n + j] = 0.5 * (src[i * n + j] as f64 + src[j * n + i] as f64);
        }
    }
    let mut d = vec![0.0f64; n];
    let mut e = vec![0.0f64; n];
    tridiagonalize(&mut w, n, &mut d, &mut e);
    diagonalize(&mut w, n, &mut d, &mut e);

    // Sort by descending eigenvalue; eigenvector `src` is row `src` of W.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| d[y].total_cmp(&d[x]));
    let values: Vec<f32> = order.iter().map(|&i| d[i] as f32).collect();
    let mut vectors = Matrix::zeros(n, n);
    let out = vectors.as_mut_slice();
    for (col, &src) in order.iter().enumerate() {
        for (row, &v) in w[src * n..(src + 1) * n].iter().enumerate() {
            out[row * n + col] = v as f32;
        }
    }
    EigenDecomposition { values, vectors }
}

/// Householder reduction of the symmetric `w` to tridiagonal form
/// (EISPACK `tred2`, transposed): on return `d` holds the diagonal,
/// `e[1..]` the subdiagonal (`e[0] = 0`), and row `j` of `w` the `j`-th
/// column of the accumulated orthogonal transformation. `V[r][c]` of the
/// EISPACK formulation is `w[c * n + r]` here.
fn tridiagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow.
        let mut scale = 0.0f64;
        for &x in &d[..i] {
            scale += x.abs();
        }
        let mut h = 0.0f64;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector.
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // Apply the similarity transformation to the remaining columns.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                let mut g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0f64;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                let row = &mut w[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for row in head.chunks_exact_mut(n) {
                let row = &mut row[..=i];
                let mut g = 0.0f64;
                for (&uk, &x) in u.iter().zip(row.iter()) {
                    g += uk * x;
                }
                for (x, &dk) in row.iter_mut().zip(&d[..=i]) {
                    *x -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tridiagonalize`]
/// (EISPACK `tql2`): on return `d` holds the eigenvalues (unsorted) and
/// row `j` of `w` the eigenvector for `d[j]`. Each plane rotation mixes
/// two adjacent rows of `w`, which are contiguous in this layout.
fn diagonalize(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0f64;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find a negligible subdiagonal element. `e[n-1] = 0` ends the
        // scan; a NaN compares false and ends it too.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n - 1 && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        if m > l {
            for _ in 0..MAX_QL_ITERS {
                // Implicit shift.
                let g = d[l];
                let p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                shift += h;

                // Implicit QL transformation.
                let mut p = d[m];
                let (mut c, mut c2, mut c3) = (1.0f64, 1.0f64, 1.0f64);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0f64, 0.0f64);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    let h = c * p;
                    let r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    rotate_rows(w, n, i, c, s);
                }
                let p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 {
                    break;
                }
            }
        }
        d[l] += shift;
        e[l] = 0.0;
    }
}

/// Applies one QL plane rotation to rows `i` and `i + 1` of the row-major
/// `n×n` buffer `w`. The two rows are contiguous and the elementwise
/// update carries no loop dependence, so it vectorizes.
#[inline(always)]
fn rotate_rows(w: &mut [f64], n: usize, i: usize, c: f64, s: f64) {
    let (top, bottom) = w.split_at_mut((i + 1) * n);
    let lo = &mut top[i * n..];
    let hi = &mut bottom[..n];
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let xi = *x;
        let yi = *y;
        *y = s * xi + c * yi;
        *x = c * xi - s * yi;
    }
}

/// Cyclic Jacobi, kept as the reference the QL solver is checked against.
/// It is slow (several `O(n³)` sweeps) but simple, unconditionally
/// convergent on symmetric input and accurate to machine precision.
#[cfg(test)]
mod jacobi {
    use super::EigenDecomposition;
    use crate::matrix::Matrix;

    /// One Jacobi rotation applied to columns `p` and `r` of a row-major
    /// `n×n` buffer: every row's `(p, r)` pair maps through the fixed 2×2
    /// rotation. Iterating whole rows via `chunks_exact_mut` removes the
    /// per-step index arithmetic of the scalar `a[k*n+p]` loop; the
    /// arithmetic per element is unchanged, so the sweep stays bit-identical
    /// (pinned by `rotation_panels_bit_identical_to_scalar`).
    #[inline(always)]
    fn rotate_cols(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
        for row in a.chunks_exact_mut(n) {
            let xp = row[p];
            let xr = row[r];
            row[p] = c * xp - s * xr;
            row[r] = s * xp + c * xr;
        }
    }

    /// The same rotation applied to rows `p` and `r` (`p < r`): the two
    /// contiguous row panels come from `split_at_mut`, and the elementwise
    /// update carries no loop dependence, so it vectorizes.
    #[inline(always)]
    fn rotate_rows(a: &mut [f64], n: usize, p: usize, r: usize, c: f64, s: f64) {
        debug_assert!(p < r);
        let (top, bottom) = a.split_at_mut(r * n);
        let prow = &mut top[p * n..p * n + n];
        let rrow = &mut bottom[..n];
        for (x, y) in prow.iter_mut().zip(rrow) {
            let xp = *x;
            let xr = *y;
            *x = c * xp - s * xr;
            *y = s * xp + c * xr;
        }
    }

    /// Cyclic Jacobi eigendecomposition of a symmetric matrix, eigenvalues
    /// in descending order.
    pub(super) fn sym_eig(m: &Matrix) -> EigenDecomposition {
        assert_eq!(m.rows(), m.cols(), "sym_eig needs a square matrix");
        let n = m.rows();
        if n == 0 {
            return EigenDecomposition {
                values: Vec::new(),
                vectors: Matrix::zeros(0, 0),
            };
        }

        // Work in f64: a = (M + Mᵀ)/2.
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = 0.5 * (m.get(i, j) as f64 + m.get(j, i) as f64);
            }
        }
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            q[i * n + i] = 1.0;
        }

        let off_diag_norm = |a: &[f64]| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += a[i * n + j] * a[i * n + j];
                }
            }
            (2.0 * s).sqrt()
        };

        let scale = {
            let mut mx = 0.0f64;
            for &v in &a {
                mx = mx.max(v.abs());
            }
            mx.max(1e-300)
        };
        let tol = 1e-14 * scale * n as f64;
        let max_sweeps = 64;

        for _sweep in 0..max_sweeps {
            if off_diag_norm(&a) <= tol {
                break;
            }
            for p in 0..n {
                for r in (p + 1)..n {
                    let apr = a[p * n + r];
                    if apr.abs() <= tol / (n * n) as f64 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let arr = a[r * n + r];
                    // Standard stable rotation computation.
                    let theta = (arr - app) / (2.0 * apr);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // A <- JᵀAJ applied to rows/cols p, r (columns first —
                    // the order is part of the pinned bit-exact trajectory).
                    rotate_cols(&mut a, n, p, r, c, s);
                    rotate_rows(&mut a, n, p, r, c, s);
                    // Accumulate Q <- QJ.
                    rotate_cols(&mut q, n, p, r, c, s);
                }
            }
        }

        // Extract, sort by descending eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        let diag: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
        order.sort_by(|&x, &y| diag[y].total_cmp(&diag[x]));

        let values: Vec<f32> = order.iter().map(|&i| diag[i] as f32).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (col, &src) in order.iter().enumerate() {
            for row in 0..n {
                vectors.set(row, col, q[row * n + src] as f32);
            }
        }
        EigenDecomposition { values, vectors }
    }

    #[test]
    fn rotation_panels_bit_identical_to_scalar() {
        use crate::rng::Rng;
        // The panel helpers vs. the original index-arithmetic loops, over
        // several sizes/pivots: identical f64 bits everywhere.
        let mut rng = Rng::new(55);
        for n in [2usize, 3, 5, 16, 33] {
            for (p, r) in [(0usize, 1usize), (0, n - 1), (n / 2, n - 1)] {
                if p >= r {
                    continue;
                }
                let base: Vec<f64> = {
                    let mut v = vec![0.0f32; n * n];
                    rng.fill_normal(&mut v);
                    v.into_iter().map(|x| x as f64).collect()
                };
                let (c, s) = (0.8299371, -0.5578463);
                let mut fast = base.clone();
                rotate_cols(&mut fast, n, p, r, c, s);
                rotate_rows(&mut fast, n, p, r, c, s);
                let mut reference = base;
                for k in 0..n {
                    let akp = reference[k * n + p];
                    let akr = reference[k * n + r];
                    reference[k * n + p] = c * akp - s * akr;
                    reference[k * n + r] = s * akp + c * akr;
                }
                for k in 0..n {
                    let apk = reference[p * n + k];
                    let ark = reference[r * n + k];
                    reference[p * n + k] = c * apk - s * ark;
                    reference[r * n + k] = s * apk + c * ark;
                }
                for (i, (x, y)) in fast.iter().zip(&reference).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} p={p} r={r} idx={i}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_spd(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let b = Matrix::random_normal(n, n, &mut rng);
        let mut spd = b.t_matmul(&b);
        spd.add_diag(0.1);
        spd.symmetrize();
        spd
    }

    /// A symmetric matrix with eigenvalues of both signs.
    fn random_indefinite(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut m = Matrix::random_normal(n, n, &mut rng);
        m.symmetrize();
        m
    }

    /// A K-FAC activation factor `XᵀX / 128` over 128 post-ReLU samples,
    /// with the last of the `n` columns the bias column of ones: rank at
    /// most 128, so singular once `n > 128`.
    fn kfac_covariance(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        let mut x = Matrix::random_normal(128, n, &mut rng);
        for r in 0..128 {
            for c in 0..n {
                let v = if c == n - 1 {
                    1.0
                } else {
                    x.get(r, c).max(0.0)
                };
                x.set(r, c, v);
            }
        }
        let mut cov = x.t_matmul(&x);
        cov.scale(1.0 / 128.0);
        cov.symmetrize();
        cov
    }

    /// The 1-D Laplacian: already tridiagonal, with known eigenvalues
    /// `2 - 2cos(kπ/(n+1))`.
    fn laplacian(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0,
            1 => -1.0,
            _ => 0.0,
        })
    }

    /// Diagonal with repeated and negative entries, out of order.
    fn shuffled_diagonal(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                ((i * 7) % 5) as f32 - 1.5
            } else {
                0.0
            }
        })
    }

    fn scaled_identity(n: usize) -> Matrix {
        let mut m = Matrix::identity(n);
        m.scale(2.5);
        m
    }

    fn assert_valid(e: &EigenDecomposition, m: &Matrix, what: &str) {
        let n = m.rows();
        let scale = m.max_abs().max(1e-30);
        assert_eq!(e.values.len(), n, "{what}");
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1], "{what}: not descending: {:?}", e.values);
        }
        let recon = e.reconstruct().max_diff(m);
        assert!(
            recon <= 1e-5 * scale,
            "{what}: reconstruction error {recon}"
        );
        let ortho = e
            .vectors
            .t_matmul(&e.vectors)
            .max_diff(&Matrix::identity(n));
        assert!(ortho <= 1e-5, "{what}: orthonormality error {ortho}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_vec(3, 3, vec![3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]);
        let e = sym_eig(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 2.0).abs() < 1e-5);
        assert!((e.values[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = sym_eig(&m);
        assert!((e.values[0] - 3.0).abs() < 1e-5);
        assert!((e.values[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_matches_input() {
        for n in [1usize, 2, 5, 17, 48] {
            let m = random_spd(n, 100 + n as u64);
            let e = sym_eig(&m);
            let r = e.reconstruct();
            let scale = m.max_abs().max(1.0);
            assert!(
                r.max_diff(&m) < 1e-3 * scale,
                "n={n} diff {}",
                r.max_diff(&m)
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = random_spd(20, 7);
        let e = sym_eig(&m);
        let qtq = e.vectors.t_matmul(&e.vectors);
        let i = Matrix::identity(20);
        assert!(qtq.max_diff(&i) < 1e-4, "diff {}", qtq.max_diff(&i));
    }

    #[test]
    fn spd_eigenvalues_positive_and_sorted() {
        let m = random_spd(30, 9);
        let e = sym_eig(&m);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-5, "not sorted: {:?}", e.values);
        }
        assert!(e.values.iter().all(|&v| v > 0.0), "{:?}", e.values);
    }

    #[test]
    fn trace_is_preserved() {
        let m = random_spd(25, 11);
        let trace: f32 = (0..25).map(|i| m.get(i, i)).sum();
        let e = sym_eig(&m);
        let lam_sum: f32 = e.values.iter().sum();
        assert!((trace - lam_sum).abs() < 1e-2 * trace.abs().max(1.0));
    }

    #[test]
    fn map_spectrum_inverse_gives_matrix_inverse() {
        let m = random_spd(12, 13);
        let e = sym_eig(&m);
        let inv = e.map_spectrum(|v| 1.0 / v);
        let prod = m.matmul(&inv);
        let i = Matrix::identity(12);
        assert!(prod.max_diff(&i) < 1e-2, "diff {}", prod.max_diff(&i));
    }

    #[test]
    fn zero_and_one_dimensional() {
        let e0 = sym_eig(&Matrix::zeros(0, 0));
        assert!(e0.values.is_empty());
        let e1 = sym_eig(&Matrix::from_vec(1, 1, vec![4.0]));
        assert!((e1.values[0] - 4.0).abs() < 1e-6);
        assert!((e1.vectors.get(0, 0).abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn handles_repeated_eigenvalues() {
        // 2*I has eigenvalue 2 thrice; reconstruction must still hold.
        let mut m = Matrix::identity(3);
        m.scale(2.0);
        let e = sym_eig(&m);
        for &v in &e.values {
            assert!((v - 2.0).abs() < 1e-5);
        }
        assert!(e.reconstruct().max_diff(&m) < 1e-5);
    }

    #[test]
    fn tridiagonal_input_matches_closed_form() {
        let n = 33;
        let e = sym_eig(&laplacian(n));
        for (k, &v) in e.values.iter().enumerate() {
            // Descending: the k-th value is the (n-k)-th closed-form root.
            let theta = (n - k) as f64 * std::f64::consts::PI / (n + 1) as f64;
            let want = 2.0 - 2.0 * theta.cos();
            assert!((v as f64 - want).abs() < 1e-6, "k={k}: {v} vs {want}");
        }
    }

    /// Sizes every oracle cross-check covers.
    const ORACLE_SIZES: [usize; 9] = [0, 1, 2, 3, 8, 33, 128, 129, 256];

    /// Checks `sym_eig` against the Jacobi oracle on `make(n)` for every
    /// `n` in `sizes`: same eigenvalues to f32 round-off, a valid
    /// factorization, and the same damped inverse.
    fn check_against_oracle(name: &str, sizes: &[usize], make: impl Fn(usize) -> Matrix) {
        for &n in sizes {
            let what = format!("{name} n={n}");
            if n == 0 {
                // The generators and `reconstruct` need a non-empty matrix.
                let empty = Matrix::zeros(0, 0);
                assert!(sym_eig(&empty).values.is_empty(), "{what}");
                assert!(jacobi::sym_eig(&empty).values.is_empty(), "{what}");
                continue;
            }
            let m = make(n);
            let ql = sym_eig(&m);
            let oracle = jacobi::sym_eig(&m);
            assert_valid(&ql, &m, &what);

            // Eigenvalues agree to f32 round-off of the spectral radius.
            let radius = oracle.values[0].abs().max(oracle.values[n - 1].abs());
            for (k, (a, b)) in ql.values.iter().zip(&oracle.values).enumerate() {
                assert!(
                    (a - b).abs() <= 2.0 * f32::EPSILON * radius,
                    "{what}: λ[{k}] {a} vs oracle {b}"
                );
            }

            // Spectral functions are basis-independent within repeated
            // eigenspaces, so the damped inverse must agree even where the
            // eigenvectors themselves may not. γ lifts the spectrum clear
            // of zero for the indefinite case too.
            let gamma = 1e-2 * radius.max(1e-30) + (-oracle.values[n - 1]).max(0.0);
            let inv = ql.map_spectrum(|v| 1.0 / (v + gamma));
            let want = oracle.map_spectrum(|v| 1.0 / (v + gamma));
            let err = inv.max_diff(&want);
            assert!(
                err <= 1e-5 * want.max_abs(),
                "{what}: (A+γI)⁻¹ differs by {err}"
            );
        }
    }

    #[test]
    fn oracle_random_spd() {
        check_against_oracle("spd", &ORACLE_SIZES, |n| random_spd(n, 300 + n as u64));
    }

    #[test]
    fn oracle_random_indefinite() {
        check_against_oracle("indefinite", &ORACLE_SIZES, |n| {
            random_indefinite(n, 400 + n as u64)
        });
    }

    #[test]
    fn oracle_repeated_eigenvalues() {
        check_against_oracle("c*I", &ORACLE_SIZES, scaled_identity);
    }

    #[test]
    fn oracle_already_diagonal() {
        check_against_oracle("diagonal", &ORACLE_SIZES, shuffled_diagonal);
    }

    #[test]
    fn oracle_already_tridiagonal() {
        check_against_oracle("tridiagonal", &ORACLE_SIZES, laplacian);
    }

    #[test]
    fn oracle_rank_deficient_kfac_covariance() {
        check_against_oracle("kfac-covariance", &ORACLE_SIZES, |n| {
            kfac_covariance(n, 500 + n as u64)
        });
    }

    #[test]
    fn returns_on_non_finite_and_extreme_inputs() {
        let base = random_spd(33, 21);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for n in [2usize, 8, 33] {
                let mut m = Matrix::from_fn(n, n, |i, j| base.get(i, j));
                m.set(n / 2, 0, bad);
                m.set(0, n / 2, bad);
                let e = sym_eig(&m);
                assert_eq!(e.values.len(), n);
                assert_eq!(e.vectors.rows(), n);
            }
        }

        let zero = sym_eig(&Matrix::zeros(17, 17));
        assert!(zero.values.iter().all(|&v| v == 0.0), "{:?}", zero.values);
        assert_valid(&zero, &Matrix::zeros(17, 17), "zero");

        let unit = sym_eig(&base);
        for factor in [1e30f32, 1e-30] {
            let mut m = base.clone();
            m.scale(factor);
            let e = sym_eig(&m);
            assert_valid(&e, &m, &format!("scaled by {factor:e}"));
            for (k, (&a, &b)) in e.values.iter().zip(&unit.values).enumerate() {
                let rel = (a / factor - b).abs() / unit.values[0];
                assert!(rel < 1e-5, "scale {factor:e}: λ[{k}] {a} vs {b}");
            }
        }
    }

    #[test]
    fn bit_identical_across_calls_and_worker_counts() {
        for (n, seed) in [(33usize, 1u64), (129, 2)] {
            let m = kfac_covariance(n, seed);
            let reference = sym_eig(&m);
            let bits = |e: &EigenDecomposition| {
                let vals = e.values.iter().map(|v| v.to_bits());
                let vecs = e.vectors.as_slice().iter().map(|v| v.to_bits());
                vals.chain(vecs).collect::<Vec<u32>>()
            };
            for workers in [None, Some(1), Some(2)] {
                let _guard = workers.map(rayon::scoped_thread_override);
                assert_eq!(
                    bits(&sym_eig(&m)),
                    bits(&reference),
                    "n={n} workers={workers:?}"
                );
            }
        }
    }
}
