//! Seeded workload inputs: the matrices each workload registers, shared
//! input vectors, and the serial-CSR reference outputs every operation is
//! checked against.
//!
//! Each workload has a fixed *shape*, drawn from [`SHAPE_SEED`]: every
//! [`MatrixClass`] at every size tier with its dimension and generator
//! parameters, which matrices repeat. The run seed draws each matrix's
//! entries and values and the order of the stream, so two seeds load the
//! stack with the same amount and mix of work and their figures are
//! comparable. Parameter ranges follow `morpheus_corpus::CorpusSpec`, which
//! cannot be asked for a given class.

use morpheus::format::FormatId;
use morpheus::{ConvertOptions, CooMatrix, DynamicMatrix};
use morpheus_corpus::gen::{banded, blocks, hetero, powerlaw, random, stencil};
use morpheus_corpus::MatrixClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of every workload's shape (see the module docs).
pub const SHAPE_SEED: u64 = 0x5A4E_C0DE_0000_0011;

/// Right-hand sides of every SpMM.
pub const SPMM_K: usize = 4;

pub const CLASSES: [MatrixClass; 15] = [
    MatrixClass::Stencil,
    MatrixClass::BandedFull,
    MatrixClass::BandedPartial,
    MatrixClass::MultiDiagonal,
    MatrixClass::DiagPlusScatter,
    MatrixClass::FemBlocks,
    MatrixClass::BlockDiagonal,
    MatrixClass::UniformDegree,
    MatrixClass::VariableDegree,
    MatrixClass::NearDiagonal,
    MatrixClass::ErdosRenyi,
    MatrixClass::Hypersparse,
    MatrixClass::ZipfRows,
    MatrixClass::Rmat,
    MatrixClass::HubRows,
];

/// One matrix of a workload with its reference outputs.
#[derive(Clone)]
pub struct Case {
    pub name: String,
    /// The matrix in CSR, the common starting format of registration.
    pub matrix: DynamicMatrix<f64>,
    /// Serial-CSR `A x` for the two SpMV inputs of [`Vectors`].
    pub y_ref: [Vec<f64>; 2],
    /// Serial-CSR `A X` for the SpMM input.
    pub yk_ref: Vec<f64>,
}

impl Case {
    fn new(name: String, coo: CooMatrix<f64>, v: &Vectors) -> Case {
        let matrix = DynamicMatrix::from(coo)
            .into_format(FormatId::Csr, &ConvertOptions::default())
            .expect("CSR holds any matrix");
        let (nr, nc) = (matrix.nrows(), matrix.ncols());
        let spmv = |x: &[f64]| {
            let mut y = vec![0.0; nr];
            morpheus::spmv::spmv_serial(&matrix, &x[..nc], &mut y).expect("shapes match");
            y
        };
        let y_ref = [spmv(&v.xa), spmv(&v.xb)];
        let mut yk_ref = vec![0.0; nr * SPMM_K];
        morpheus::spmm::spmm_serial(&matrix, &v.xk[..nc * SPMM_K], &mut yk_ref, SPMM_K)
            .expect("shapes match");
        Case { name, matrix, y_ref, yk_ref }
    }

    pub fn nrows(&self) -> usize {
        self.matrix.nrows()
    }

    pub fn ncols(&self) -> usize {
        self.matrix.ncols()
    }
}

/// Input vectors shared by every case, long enough for the widest matrix;
/// a case reads the prefix matching its column count.
pub struct Vectors {
    pub xa: Vec<f64>,
    pub xb: Vec<f64>,
    /// Row-major `ncols x SPMM_K`.
    pub xk: Vec<f64>,
}

/// The widest matrix any workload generates (hypersparse and hub-row
/// classes grow past their tier's dimension).
const MAX_COLS: usize = 520_000;

impl Vectors {
    pub fn new(seed: u64) -> Vectors {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = |n: usize| (0..n).map(|_| rng.gen_range(0.5..1.5)).collect::<Vec<f64>>();
        Vectors { xa: draw(MAX_COLS), xb: draw(MAX_COLS), xk: draw(MAX_COLS * SPMM_K) }
    }

    pub fn x(&self, which: usize, ncols: usize) -> &[f64] {
        if which == 0 {
            &self.xa[..ncols]
        } else {
            &self.xb[..ncols]
        }
    }

    pub fn xk(&self, ncols: usize) -> &[f64] {
        &self.xk[..ncols * SPMM_K]
    }
}

/// One matrix of `class` at dimension about `n`: generator parameters
/// from `p` (the shape), entries and values from `rng`.
pub fn class_matrix(class: MatrixClass, n: usize, p: &mut StdRng, rng: &mut StdRng) -> CooMatrix<f64> {
    match class {
        MatrixClass::Stencil => {
            let side = (n as f64).sqrt() as usize + 2;
            match p.gen_range(0..3) {
                0 => stencil::poisson2d(side, side),
                1 => {
                    let s3 = (n as f64).cbrt() as usize + 2;
                    stencil::poisson3d(s3, s3, s3)
                }
                _ => stencil::stencil9(side, side),
            }
        }
        MatrixClass::BandedFull => {
            if p.gen_bool(0.4) {
                banded::tridiagonal(n)
            } else {
                banded::banded_full(n, p.gen_range(1..=6), rng)
            }
        }
        MatrixClass::BandedPartial => {
            let hw = p.gen_range(3..=24);
            let fill = p.gen_range(0.1..0.7);
            banded::banded_partial(n, hw, fill, rng)
        }
        MatrixClass::MultiDiagonal => banded::multi_diagonal(n, p.gen_range(2..=9), rng),
        MatrixClass::DiagPlusScatter => {
            let extra = (n as f64 * p.gen_range(0.5..4.0)) as usize;
            banded::diag_plus_scatter(n, extra, rng)
        }
        MatrixClass::FemBlocks => {
            let bs: usize = p.gen_range(2..=6);
            blocks::fem_blocks((n / bs).max(2), bs, p.gen_range(1..=3), rng)
        }
        MatrixClass::BlockDiagonal => {
            let lo = p.gen_range(2..=4);
            let hi = lo + p.gen_range(1usize..=8);
            blocks::block_diagonal(n, lo, hi, rng)
        }
        MatrixClass::UniformDegree => random::uniform_degree(n, p.gen_range(2..=24), rng),
        MatrixClass::VariableDegree => {
            let lo = p.gen_range(1..=4);
            let hi = lo + p.gen_range(2usize..=28);
            random::variable_degree(n, lo, hi, rng)
        }
        MatrixClass::NearDiagonal => {
            let k = p.gen_range(3..=12);
            random::near_diagonal(n, k, p.gen_range(8.0..200.0), rng)
        }
        MatrixClass::ErdosRenyi => {
            let nnz = (n as f64 * p.gen_range(2.0..12.0)) as usize;
            random::erdos_renyi(n, nnz, rng)
        }
        MatrixClass::Hypersparse => {
            // Fewer empty rows than the corpus draws (8-40x): keeps the
            // widest matrix, and so the input vectors, bounded.
            let big_n = n * p.gen_range(2usize..=8);
            let nnz = (big_n / p.gen_range(4usize..=20)).max(8);
            random::hypersparse(big_n, nnz, rng)
        }
        MatrixClass::ZipfRows => {
            let nnz = n * p.gen_range(6usize..=24);
            powerlaw::zipf_rows(n, nnz, p.gen_range(1.1..1.8), rng)
        }
        MatrixClass::Rmat => {
            let scale = (n as f64).log2().floor().clamp(8.0, 16.0) as u32;
            powerlaw::rmat(scale, p.gen_range(4..=12), [0.57, 0.19, 0.19, 0.05], rng)
        }
        MatrixClass::HubRows => {
            let big_n = n * 4;
            let hubs = p.gen_range(1..=4);
            let background = big_n * p.gen_range(1usize..=2);
            powerlaw::hub_rows(big_n, hubs, (big_n / 4).max(64), background, rng)
        }
    }
}

/// Log-uniform draw in `lo..hi`.
fn dim(lo: usize, hi: usize, rng: &mut StdRng) -> usize {
    rng.gen_range((lo as f64).ln()..(hi as f64).ln()).exp() as usize
}

/// An internally heterogeneous matrix of about `n` rows (one of the three
/// `gen::hetero` shapes, by `which`), with enough non-zeros to cross
/// [`crate::setup::AUTO_SHARD_NNZ`].
fn hetero_matrix(which: usize, n: usize, rng: &mut StdRng) -> CooMatrix<f64> {
    match which % 3 {
        0 => hetero::hub_plus_banded(n, n / 60, 160, 4, rng),
        1 => hetero::three_regime(n, n / 100, 200, n / 3, 12, 4, rng),
        _ => {
            hetero::shifted_bands(n, n / 120, 160, &[((n / 12) as isize, 2), (-((n / 24) as isize), 6)], rng)
        }
    }
}

/// Register-stream tiers: from L2-resident (a few hundred KiB) to well
/// past the 4 MiB L2 of the reference host.
const STREAM_TIERS: [(usize, usize); 5] =
    [(1_500, 3_000), (3_000, 7_000), (7_000, 15_000), (15_000, 30_000), (30_000, 60_000)];
const STREAM_HETERO: usize = 3;
const STREAM_BLOCKED: usize = 2;
/// Stream entries that repeat an earlier matrix's structure (decision and
/// plan cache hits on registration).
const STREAM_REPEATS: usize = 20;

/// The register-stream workload: its distinct cases plus the order they
/// are registered in (indices into the cases; repeats appear twice).
pub fn register_stream(seed: u64, v: &Vectors) -> (Vec<Case>, Vec<usize>) {
    let mut p = StdRng::seed_from_u64(SHAPE_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for (t, &(lo, hi)) in STREAM_TIERS.iter().enumerate() {
        for class in CLASSES {
            let n = dim(lo, hi, &mut p);
            cases.push(Case::new(
                format!("{}-t{t}", class.name()),
                class_matrix(class, n, &mut p, &mut rng),
                v,
            ));
        }
    }
    for h in 0..STREAM_HETERO {
        let n = dim(40_000, 56_000, &mut p);
        cases.push(Case::new(format!("hetero{h}"), hetero_matrix(h, n, &mut rng), v));
    }
    for b in 0..STREAM_BLOCKED {
        let bs = [4, 8][b % 2];
        let nblocks = dim(8_000, 20_000, &mut p) / bs;
        cases.push(Case::new(
            format!("aligned-{bs}x{bs}"),
            blocks::aligned_blocks(nblocks, bs, 3, &mut rng),
            v,
        ));
    }
    let repeats: Vec<usize> = (0..STREAM_REPEATS).map(|_| p.gen_range(0..cases.len())).collect();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    shuffle(&mut order, &mut rng);
    for i in repeats {
        // A repeat goes anywhere after the matrix's first registration.
        let first = order.iter().position(|&j| j == i).expect("every case is in the order");
        let at = rng.gen_range(first + 1..=order.len());
        order.insert(at, i);
    }
    (cases, order)
}

/// Handle pool of the serving workloads: every class at serving sizes,
/// two register-blocking-friendly matrices and two heterogeneous ones
/// (partitioned under [`crate::setup::partition_policy`]).
pub fn serving_pool(seed: u64, v: &Vectors) -> Vec<Case> {
    let mut p = StdRng::seed_from_u64(SHAPE_SEED ^ 0x9001);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for class in CLASSES {
        let n = dim(2_000, 12_000, &mut p);
        cases.push(Case::new(class.name().to_string(), class_matrix(class, n, &mut p, &mut rng), v));
    }
    for bs in [4, 8] {
        let nblocks = dim(3_000, 8_000, &mut p) / bs;
        cases.push(Case::new(
            format!("aligned-{bs}x{bs}"),
            blocks::aligned_blocks(nblocks, bs, 3, &mut rng),
            v,
        ));
    }
    for h in 0..2 {
        let n = dim(20_000, 24_000, &mut p);
        cases.push(Case::new(format!("hetero{h}"), hetero_matrix(h, n, &mut rng), v));
    }
    cases
}

/// The `k`-th matrix registered while mixed-closed traffic runs: small to
/// mid sizes, classes in round-robin, generated on demand so the stream
/// never runs out.
pub fn fresh_matrix(seed: u64, k: usize, v: &Vectors) -> Case {
    let mut p = StdRng::seed_from_u64(crate::stats::derive_seed(SHAPE_SEED, k as u64));
    let mut rng = StdRng::seed_from_u64(crate::stats::derive_seed(seed, k as u64));
    let class = CLASSES[k % CLASSES.len()];
    let n = dim(1_000, 6_000, &mut p);
    Case::new(format!("fresh-{}", class.name()), class_matrix(class, n, &mut p, &mut rng), v)
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// ULP distance between two finite f64s (`u64::MAX` across a sign change).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_sign_negative() != b.is_sign_negative() {
        return u64::MAX;
    }
    a.to_bits().abs_diff(b.to_bits())
}

/// The bound the repository's property suites hold planned and variant
/// kernels to against the serial CSR reference: within 512 ULP, or within
/// `1e-9` relative (absolute below magnitude 1).
pub fn matches_reference(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &r)| ulp_distance(g, r) <= 512 || (g - r).abs() <= 1e-9 * r.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_reproduce_from_seed_and_cover_every_class() {
        let v = Vectors::new(1);
        let (a, order_a) = register_stream(5, &v);
        let (b, order_b) = register_stream(5, &v);
        assert_eq!(order_a, order_b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.matrix, y.matrix);
        }
        for class in CLASSES {
            assert!(a.iter().any(|c| c.name.starts_with(class.name())), "{}", class.name());
        }
        assert!(a.iter().all(|c| c.ncols() <= MAX_COLS));
        assert_eq!(order_a.len(), a.len() + STREAM_REPEATS);
        // Another seed: same shape (dimensions), other entries and order.
        let (c, order_c) = register_stream(6, &v);
        assert_ne!(order_a, order_c);
        for (x, y) in a.iter().zip(&c) {
            let (nx, ny) = (x.nrows() as f64, y.nrows() as f64);
            assert!((nx - ny).abs() <= 0.01 * nx, "{}: {nx} vs {ny} rows", x.name);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.matrix != y.matrix));
        // Every repeat follows the first registration of its matrix.
        let mut seen = vec![false; a.len()];
        let mut repeats = 0;
        for &i in &order_a {
            repeats += usize::from(std::mem::replace(&mut seen[i], true));
        }
        assert_eq!(repeats, STREAM_REPEATS);
    }

    #[test]
    fn reference_check_rejects_wrong_outputs() {
        let want = [1.0, -2.0, 3.5e-12];
        assert!(matches_reference(&want, &want));
        assert!(matches_reference(&[1.0 + 1e-13, -2.0, 3.5e-12], &want));
        assert!(!matches_reference(&[1.001, -2.0, 3.5e-12], &want));
        assert!(!matches_reference(&[1.0, -2.0], &want));
    }
}
