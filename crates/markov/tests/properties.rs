//! Property tests for the steady-state solver.
//!
//! Seeded random inputs (no external property-testing crate; a local
//! split-mix generator keeps the cases deterministic) hold GTH to two
//! answers that share none of its arithmetic:
//!
//! 1. **The dense-solve oracle** — [`dense_solve`], an LU solve of
//!    `Qᵀπ = 0` with its last row replaced by `Σπ = 1`. On random
//!    irreducible chains, sparse and dense with up to 10 states, `gth`,
//!    `solve` and the oracle each satisfy the stationarity laws, and GTH
//!    agrees with the oracle.
//! 2. **The product form** — [`product_form`], the exact stationary
//!    distribution of a birth–death ladder, on ladders of up to 9 states.

use drqos_markov::birth_death::birth_death_ctmc;
use drqos_markov::ctmc::{Ctmc, CtmcBuilder};
use drqos_markov::linalg::Matrix;
use drqos_markov::steady_state::{gth, solve};

/// Minimal split-mix-64 (the markov crate deliberately has no dependency
/// on `drqos-sim`, so the tests carry their own generator).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() as f64 / u64::MAX as f64)
    }

    /// Uniform in `(0.1, 2.1)` — strictly positive rates keep every
    /// generated chain irreducible.
    fn rate(&mut self) -> f64 {
        self.uniform(0.1, 2.1)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A random irreducible CTMC: a strictly positive cycle `i → i+1 (mod n)`
/// guarantees irreducibility; extra random transitions vary the shape.
fn random_irreducible(rng: &mut SplitMix) -> Ctmc {
    let n = rng.range(2, 8);
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        b = b.rate(i, (i + 1) % n, rng.rate()).unwrap();
    }
    for _ in 0..rng.range(0, 2 * n) {
        let from = rng.range(0, n - 1);
        let to = rng.range(0, n - 1);
        if from != to {
            b = b.rate(from, to, rng.rate()).unwrap();
        }
    }
    b.build().unwrap()
}

/// A random dense chain: every ordered pair of its 2–10 states has a rate
/// in `(0.01, 5)`, so the rates span a factor of 500.
fn random_dense(rng: &mut SplitMix) -> Ctmc {
    let n = rng.range(2, 10);
    let mut b = CtmcBuilder::new(n);
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            b = b.rate(i, j, rng.uniform(0.01, 5.0)).unwrap();
        }
    }
    b.build().unwrap()
}

/// The generator matrix `Q` of `ctmc`: its rates off the diagonal, and
/// minus each row's total rate on it.
fn generator(ctmc: &Ctmc) -> Matrix {
    let n = ctmc.n_states();
    let mut q = Matrix::zeros(n, n);
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            q[(i, j)] = ctmc.rate(i, j);
            q[(i, i)] -= ctmc.rate(i, j);
        }
    }
    q
}

/// Maximum absolute difference between two equal-length vectors.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must have equal length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn generator_rows_sum_to_zero() {
    let two_state = CtmcBuilder::new(2).rate(0, 1, 3.0).unwrap();
    let q = generator(&two_state.rate(1, 0, 1.0).unwrap().build().unwrap());
    for i in 0..2 {
        let sum: f64 = (0..2).map(|j| q[(i, j)]).sum();
        assert!(sum.abs() < 1e-12);
    }
    assert_eq!(q[(0, 0)], -3.0);
    assert_eq!(q[(0, 1)], 3.0);
}

/// The oracle for GTH: `Qᵀπ = 0` with its last equation replaced by
/// `Σπ = 1`, solved by dense LU with partial pivoting.
fn dense_solve(ctmc: &Ctmc) -> Vec<f64> {
    let n = ctmc.n_states();
    let q = generator(ctmc);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = if i == n - 1 { 1.0 } else { q[(j, i)] };
        }
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    a.solve(&b)
        .expect("an irreducible generator has rank n - 1")
}

/// The birth–death product form: `π_k ∝ Π_{i<k} birth[i] / death[i]`.
fn product_form(birth: &[f64], death: &[f64]) -> Vec<f64> {
    let mut pi = vec![1.0];
    for (b, d) in birth.iter().zip(death) {
        pi.push(pi[pi.len() - 1] * b / d);
    }
    let z: f64 = pi.iter().sum();
    pi.iter().map(|p| p / z).collect()
}

/// Asserts the three stationarity laws for one solution of `ctmc`.
fn assert_stationary(ctmc: &Ctmc, probs: &[f64], solver: &str, seed: u64) {
    assert_eq!(probs.len(), ctmc.n_states());
    for (i, &p) in probs.iter().enumerate() {
        assert!(
            p >= 0.0,
            "{solver} (seed {seed}): negative probability {p} at state {i}"
        );
    }
    let sum: f64 = probs.iter().sum();
    assert!(
        (sum - 1.0).abs() < 1e-9,
        "{solver} (seed {seed}): probabilities sum to {sum}"
    );
    let balance = generator(ctmc).vec_mul(probs).unwrap();
    let worst = balance.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    assert!(
        worst < 1e-8,
        "{solver} (seed {seed}): global balance residual {worst}"
    );
}

#[test]
fn every_solver_satisfies_the_stationarity_laws() {
    for seed in 0..25 {
        let mut rng = SplitMix(seed);
        for ctmc in [random_irreducible(&mut rng), random_dense(&mut rng)] {
            assert!(ctmc.is_irreducible());
            let solutions = [
                ("gth", gth(&ctmc).unwrap().probs().to_vec()),
                ("solve", solve(&ctmc).unwrap().probs().to_vec()),
                ("dense_solve", dense_solve(&ctmc)),
            ];
            for (solver, pi) in solutions {
                assert_stationary(&ctmc, &pi, solver, seed);
            }
        }
    }
}

#[test]
fn solvers_agree_with_gth_pairwise() {
    for seed in 100..132 {
        let mut rng = SplitMix(seed);
        let ctmc = random_irreducible(&mut rng);
        let reference = gth(&ctmc).unwrap();
        for (solver, pi) in [
            ("solve", solve(&ctmc).unwrap().probs().to_vec()),
            ("dense_solve", dense_solve(&ctmc)),
        ] {
            let diff = max_abs_diff(reference.probs(), &pi);
            assert!(
                diff < 1e-12,
                "{solver} (seed {seed}) deviates from gth by {diff} on {} states",
                ctmc.n_states()
            );
        }
    }
}

#[test]
fn gth_matches_direct_solve_on_random_chains() {
    for seed in 200..232 {
        let ctmc = random_dense(&mut SplitMix(seed));
        let pi = gth(&ctmc).unwrap();
        let diff = max_abs_diff(pi.probs(), &dense_solve(&ctmc));
        assert!(
            diff < 1e-12,
            "seed {seed}: gth deviates from the dense solve by {diff} \
             on {} states",
            ctmc.n_states()
        );
        assert!((pi.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}

#[test]
fn birth_death_closed_form_matches_generic_solver() {
    for seed in 0..40 {
        let mut rng = SplitMix(0xB1D ^ seed);
        let len = rng.range(1, 8); // ladders with 2..=9 states
        let birth: Vec<f64> = (0..len).map(|_| rng.rate()).collect();
        let death: Vec<f64> = (0..len).map(|_| rng.rate()).collect();
        let closed = product_form(&birth, &death);
        let ctmc = birth_death_ctmc(&birth, &death).unwrap();
        let generic = solve(&ctmc).unwrap();
        let diff = max_abs_diff(&closed, generic.probs());
        assert!(
            diff < 1e-12,
            "seed {seed}: closed form deviates from solve by {diff} \
             (birth {birth:?}, death {death:?})"
        );
        assert_stationary(&ctmc, &closed, "closed-form", seed);
    }
}

#[test]
fn birth_death_closed_form_matches_gth() {
    for seed in 0..32 {
        let mut rng = SplitMix(0x6E7 ^ seed);
        let len = rng.range(1, 8); // ladders with 2..=9 states
        let birth: Vec<f64> = (0..len).map(|_| rng.uniform(0.1, 3.0)).collect();
        let death: Vec<f64> = (0..len).map(|_| rng.uniform(0.1, 3.0)).collect();
        let closed = product_form(&birth, &death);
        let pi = gth(&birth_death_ctmc(&birth, &death).unwrap()).unwrap();
        let diff = max_abs_diff(&closed, pi.probs());
        assert!(
            diff < 1e-12,
            "seed {seed}: closed form deviates from GTH by {diff} \
             (birth {birth:?}, death {death:?})"
        );
    }
}
