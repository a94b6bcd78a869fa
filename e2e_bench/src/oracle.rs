//! Output checks made apart from the program: an f64 dot product over
//! the decompressed weights at a seeded sample of output cells, and the
//! N:M property of those weights.

use nm_core::matrix::MatrixF32;
use nm_core::pattern::NmConfig;
use nm_core::sparse::NmSparseMatrix;

/// Unit roundoff of `f32`.
const U32: f64 = 1.0 / 16_777_216.0;

/// SplitMix64: the benchmark's own seeded generator for sampling cells
/// and shuffling, independent of the program's.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The dense reference for one layer: its decompressed weights, stored
/// column by column so a cell's dot product reads contiguous memory.
#[derive(Debug)]
pub struct Oracle {
    k: usize,
    n: usize,
    columns: Vec<f32>,
}

impl Oracle {
    /// Decompress `sb` and check that the result has the N:M property.
    pub fn new(sb: &NmSparseMatrix) -> Result<Self, String> {
        let dense = sb.decompress();
        check_nm(&dense, sb.cfg())?;
        let (k, n) = dense.shape();
        Ok(Self {
            k,
            n,
            columns: dense.transpose().into_vec(),
        })
    }

    /// Whether `got` matches `Σ_i a[i]·B[i][j]`, computed in f64, within
    /// the worst-case f32 summation bound `γ_{k+1} · Σ|a[i]·B[i][j]|`.
    pub fn cell_ok(&self, a_row: &[f32], j: usize, got: f32) -> bool {
        let col = &self.columns[j * self.k..(j + 1) * self.k];
        let (mut exact, mut magnitude) = (0.0f64, 0.0f64);
        for (&a, &b) in a_row.iter().zip(col) {
            let p = f64::from(a) * f64::from(b);
            exact += p;
            magnitude += p.abs();
        }
        let ku = (self.k + 1) as f64 * U32;
        let bound = ku / (1.0 - ku) * magnitude;
        got.is_finite() && (f64::from(got) - exact).abs() <= bound
    }

    /// Check `cells` output cells of `c = a · B`, drawn from `rng`; returns
    /// how many disagree. `a` is `rows × k`, `c` is `rows × n`, both
    /// row-major.
    pub fn mismatches(&self, a: &[f32], c: &[f32], cells: usize, rng: &mut SplitMix) -> usize {
        let rows = a.len() / self.k;
        assert_eq!(a.len(), rows * self.k, "activation is not rows × k");
        assert_eq!(c.len(), rows * self.n, "output is not rows × n");
        (0..cells)
            .filter(|_| {
                let (i, j) = (rng.below(rows), rng.below(self.n));
                !self.cell_ok(&a[i * self.k..(i + 1) * self.k], j, c[i * self.n + j])
            })
            .count()
    }
}

/// At most N non-zeros in every aligned window of M rows, in every column.
pub fn check_nm(dense: &MatrixF32, cfg: NmConfig) -> Result<(), String> {
    let (k, n) = dense.shape();
    let mut counts = vec![0usize; n];
    for start in (0..k).step_by(cfg.m) {
        counts.iter_mut().for_each(|c| *c = 0);
        for i in start..(start + cfg.m).min(k) {
            for (c, &v) in counts.iter_mut().zip(dense.row(i)) {
                *c += usize::from(v != 0.0);
            }
        }
        if let Some(j) = counts.iter().position(|&c| c > cfg.n) {
            return Err(format!(
                "column {j}, rows {start}..{}: {} non-zeros in a {cfg} window",
                start + cfg.m,
                counts[j]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> (NmSparseMatrix, MatrixF32) {
        let cfg = NmConfig::new(2, 8, 4).unwrap();
        let b = MatrixF32::random(64, 24, 7);
        let sb = NmSparseMatrix::prune_magnitude(&b, cfg).unwrap();
        let dense = sb.decompress();
        (sb, dense)
    }

    fn product(a: &MatrixF32, b: &MatrixF32) -> Vec<f32> {
        let mut c = vec![0.0f32; a.rows() * b.cols()];
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                c[i * b.cols() + j] = (0..a.cols()).map(|p| a.get(i, p) * b.get(p, j)).sum();
            }
        }
        c
    }

    #[test]
    fn an_f32_product_passes_every_cell() {
        let (sb, dense) = layer();
        let oracle = Oracle::new(&sb).unwrap();
        let a = MatrixF32::random(5, 64, 3);
        let c = product(&a, &dense);
        for i in 0..5 {
            for j in 0..24 {
                assert!(
                    oracle.cell_ok(a.row(i), j, c[i * 24 + j]),
                    "cell ({i}, {j})"
                );
            }
        }
        let mut rng = SplitMix::new(1);
        assert_eq!(oracle.mismatches(a.as_slice(), &c, 200, &mut rng), 0);
    }

    #[test]
    fn a_perturbed_cell_is_flagged() {
        let (sb, dense) = layer();
        let oracle = Oracle::new(&sb).unwrap();
        let a = MatrixF32::random(1, 64, 3);
        let mut c = product(&a, &dense);
        // Dropping one product term (a wrong index would) is flagged; a
        // one-ulp nudge stays inside the bound.
        let p = (0..64).find(|&p| dense.get(p, 11) != 0.0).unwrap();
        let kept = c[11];
        c[11] = kept - a.get(0, p) * dense.get(p, 11);
        assert!(!oracle.cell_ok(a.row(0), 11, c[11]));
        c[11] = f32::from_bits(kept.to_bits() + 1);
        assert!(oracle.cell_ok(a.row(0), 11, c[11]));
        c[11] = f32::NAN;
        assert!(!oracle.cell_ok(a.row(0), 11, c[11]));
        // Sampling every cell finds the one bad cell.
        let mut rng = SplitMix::new(9);
        assert!(oracle.mismatches(a.as_slice(), &c, 2000, &mut rng) > 0);
    }

    #[test]
    fn nm_property_is_checked_per_window() {
        let (sb, mut dense) = layer();
        assert!(check_nm(&dense, sb.cfg()).is_ok());
        // Fill one whole window of column 3: 8 non-zeros where 2 are allowed.
        for i in 8..16 {
            dense.set(i, 3, 1.0);
        }
        let err = check_nm(&dense, sb.cfg()).unwrap_err();
        assert!(err.contains("column 3"), "{err}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..10).collect();
        let mut b = a.clone();
        SplitMix::new(5).shuffle(&mut a);
        SplitMix::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
