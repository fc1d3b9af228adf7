//! Criterion: the linear-algebra kernels K-FAC leans on.

use compso_tensor::{sym_eig, Matrix, Rng};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let mut rng = Rng::new(1);
        let a = Matrix::random_normal(n, n, &mut rng);
        let b = Matrix::random_normal(n, n, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &(a, b), |bench, (a, b)| {
            bench.iter(|| a.matmul(b));
        });
    }
    group.finish();
}

fn bench_covariance(c: &mut Criterion) {
    // The per-step K-FAC statistics product: (batch × positions) × dim.
    let mut group = c.benchmark_group("covariance-tmatmul");
    group.sample_size(10);
    for dim in [64usize, 256] {
        let mut rng = Rng::new(2);
        let s = Matrix::random_normal(1024, dim, &mut rng);
        group.throughput(Throughput::Elements((1024 * dim * dim) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dim), &s, |bench, s| {
            bench.iter(|| s.t_matmul(s));
        });
    }
    group.finish();
}

fn bench_sym_eig(c: &mut Criterion) {
    let mut group = c.benchmark_group("sym-eig");
    group.sample_size(10);
    for n in [32usize, 64, 128, 129, 256] {
        let mut rng = Rng::new(3);
        let b = Matrix::random_normal(n, n, &mut rng);
        let mut spd = b.t_matmul(&b);
        spd.add_diag(0.1);
        spd.symmetrize();
        group.bench_with_input(BenchmarkId::from_parameter(n), &spd, |bench, spd| {
            bench.iter(|| sym_eig(spd));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_covariance, bench_sym_eig);
criterion_main!(benches);
